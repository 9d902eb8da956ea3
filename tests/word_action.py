"""An algebra element's action on a module, evaluated letter by letter along
the generator words of ``SubHopfAlgebra.expressions``: the definition that
the left-decomposition route of ``GradedModule.basis_op`` is checked against."""

from stmod.f2linalg import apply_cols


def word_columns(m, word, d):
    """Columns of a generator word on degree d of m, its letters applied
    right to left."""
    cols, e = [1 << j for j in range(m.dim(d))], d
    for gi in reversed(word):
        gen = m.columns(gi, e)
        cols = [apply_cols(gen, c) for c in cols]
        e += m.algebra.gen_degrees[gi]
    return cols


def expression_columns(m, i, d):
    """Columns of algebra basis element i on degree d of m, as the sum of
    its words."""
    out = (0,) * m.dim(d)
    for word in m.algebra.expressions[i]:
        out = tuple(a ^ b for a, b in zip(out, word_columns(m, word, d)))
    return out
