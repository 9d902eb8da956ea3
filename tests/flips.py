"""Seeded single-bit corruptions of a module's generator matrices: inputs
that are no longer modules (or, by chance, still are), for checking that
validation and the tools built on it refuse them."""

from random import Random

from stmod.f2linalg import F2Matrix
from stmod.module import GradedModule


def seeded_flips(m, count, seed):
    """count copies of m, each with one bit of one generator matrix
    flipped, the entries (generator, degree, row, column) drawn by
    Random(seed).choices."""
    gdegs = m.algebra.gen_degrees
    entries = [(gi, d, r, c) for gi, g in enumerate(gdegs) for d in m.degrees()
               for r in range(m.dim(d + g)) for c in range(m.dim(d))]
    for gi, d, r, c in Random(seed).choices(entries, k=count):
        actions = {k: dict(per) for k, per in m.actions.items()}
        cols = list(m.columns(gi, d))
        cols[c] ^= 1 << r
        actions.setdefault(gi, {})[d] = F2Matrix.from_cols(cols, m.dim(d + gdegs[gi]))
        yield GradedModule(m.algebra, m.labels, actions)
