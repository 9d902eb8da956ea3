"""Finite graded left modules over a SubHopfAlgebra, and the functor calculus.

A module is specified by labelled basis elements in each (cohomological)
degree together with one matrix per algebra *generator* per degree; every
other algebra basis element b acts through its left decomposition
b = sum_k g_k.c_k, as packed columns per degree (``basis_columns``).
Sums of generator words act letter by letter through ``words_op``, for
the defining relations in ``validate`` and the integral in
``stable.reduce_module``.
``validate`` certifies that the given matrices really define a module:
over an A(n) or E(n) preset by checking that each defining relation (the
Wall relations, or Q_iQ_i and Q_iQ_j + Q_jQ_i) acts as zero, over any
other subalgebra by checking the closure's presentation
basis[i] * generator[k] = sum_j basis[j] column by column.

Degrees are cohomological, may be negative, and actions raise degree.
All objects are treated as immutable once built; the functors below return
fresh modules and never mutate their inputs.
"""

from __future__ import annotations

from bisect import bisect_left

from .f2linalg import F2Matrix, F2Span, apply_cols, rank, vec_support
from . import steenrod
from .steenrod import SteenrodElt, SubHopfAlgebra


class NoDiagonalActionError(ValueError):
    """Tensor products need a subHopf algebra (a coproduct-closed span)."""


class ShapeError(ValueError):
    """An action matrix does not conform to the graded dimensions."""


# ---------------------------------------------------------------------------
# Core types


class GradedModule:
    """A finite-dimensional graded module given by generator action matrices.

    actions[gi][d] maps degree d to degree d + deg(generator gi); each
    matrix stores one packed column per source basis vector (the image of
    that vector over the target degree's basis), and zero matrices are
    omitted.
    """

    def __init__(self, algebra: SubHopfAlgebra,
                 labels: dict[int, tuple[str, ...]],
                 actions: dict[int, dict[int, F2Matrix]],
                 meta: dict | None = None):
        self.algebra = algebra
        self.labels = {d: tuple(ls) for d, ls in labels.items() if ls}
        gdegs = algebra.gen_degrees
        norm: dict[int, dict[int, F2Matrix]] = {}
        for gi, per_degree in actions.items():
            g = gdegs[gi]
            for d, mat in per_degree.items():
                want = (self.dim(d + g), self.dim(d))
                if (mat.rows, mat.cols) != want:
                    raise ShapeError(
                        f"action of generator {algebra.gen_names[gi]} at degree {d}: "
                        f"got {mat.rows}x{mat.cols}, expected {want[0]}x{want[1]}")
                if not mat.is_zero():
                    norm.setdefault(gi, {})[d] = mat
        self.actions = norm
        self.meta = dict(meta or {})
        self._op_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._elt_cache: dict = {}

    # -- shape ----------------------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))

    def dim(self, d: int) -> int:
        return len(self.labels.get(d, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(ls) for ls in self.labels.values())

    def dims(self) -> dict[int, int]:
        return {d: len(ls) for d, ls in sorted(self.labels.items())}

    def is_zero(self) -> bool:
        return not self.labels

    def columns(self, gi: int, d: int) -> tuple[int, ...]:
        """The packed columns of generator gi on degree d, read from the
        stored matrix, or zeros where none is stored."""
        mat = self.actions.get(gi, {}).get(d)
        return (0,) * self.dim(d) if mat is None else mat.columns

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedModule)
                and self.algebra == other.algebra
                and self.labels == other.labels
                and self.actions == other.actions)

    def __hash__(self):
        return hash((self.algebra.name, tuple(sorted(self.labels.items()))))

    def __str__(self):
        name = self.meta.get("name", "module")
        return f"{name}<dim {self.total_dim} over {self.algebra.name}>"

    # -- derived actions --------------------------------------------------------

    def basis_op(self, i: int, d: int) -> tuple[int, ...]:
        """Columns of the i-th algebra basis element on degree d, from its
        left decomposition (see ``basis_columns``)."""
        return basis_columns(self, i, d, self._op_cache)

    def words_op(self, words, d: int) -> list[int]:
        """Columns on degree d of the sum of the generator words, each
        applied letter by letter: its last letter's own columns, then the
        letters before it in turn; no table is filled."""
        gdegs = self.algebra.gen_degrees
        total = [0] * self.dim(d)
        for word in words:
            cols, e = None, d
            for gi in reversed(word):
                gen = self.columns(gi, e)
                cols = list(gen) if cols is None else [apply_cols(gen, c) for c in cols]
                e += gdegs[gi]
            if cols is None:  # the empty word acts as the identity
                cols = [1 << j for j in range(self.dim(d))]
            total = [a ^ b for a, b in zip(total, cols)]
        return total

    def element_op(self, e: SteenrodElt, d: int) -> tuple[int, ...]:
        """Columns of an element of the algebra's span on degree d: the sum
        of the columns of the basis elements in its decomposition."""
        key = (e.terms, d)
        hit = self._elt_cache.get(key)
        if hit is None:
            out = [0] * self.dim(d)
            for i in self.algebra.decompose(e):
                for j, c in enumerate(self.basis_op(i, d)):
                    out[j] ^= c
            hit = self._elt_cache[key] = tuple(out)
        return hit


def basis_columns(x, i: int, t: int, cache: dict) -> tuple[int, ...]:
    """Packed columns of algebra basis element i on degree t of x, memoised
    in cache by (i, t).

    x is anything with ``algebra``, ``dim(t)`` and the generator columns
    ``columns(k, t)``: a module, or a free stage of a resolution.  The unit
    acts as the identity; any other basis element b = sum_k g_k.c_k (its
    ``left_decomposition``) acts as sum_k g_k.(c_k on degree t), each c_k a
    sum of basis elements of lower degree.
    """
    key = (i, t)
    hit = cache.get(key)
    if hit is None:
        alg = x.algebra
        n = x.dim(t)
        if i == alg.unit_index:
            hit = tuple(1 << j for j in range(n))
        else:
            out = [0] * n
            if x.dim(t + alg.basis_degrees[i]):
                for k, c in alg.left_decomposition(i):
                    d = alg.basis_degrees[i] - alg.gen_degrees[k]
                    ids = alg.basis_by_degree(d)
                    part = None
                    for r in vec_support(c):
                        cols = basis_columns(x, ids[r], t, cache)
                        part = cols if part is None else [a ^ b for a, b in zip(part, cols)]
                    gen = x.columns(k, t + d)
                    for j, v in enumerate(part):
                        if v:
                            out[j] ^= apply_cols(gen, v)
            hit = tuple(out)
        cache[key] = hit
    return hit


class ModuleMap:
    """A graded module homomorphism, verified equivariant on construction."""

    def __init__(self, source: GradedModule, target: GradedModule,
                 mats: dict[int, F2Matrix], shift: int = 0, verify: bool = True):
        if source.algebra != target.algebra:
            raise ValueError("module map between modules over different algebras")
        self.source = source
        self.target = target
        self.shift = shift
        norm = {}
        for d, m in mats.items():
            want = (target.dim(d + shift), source.dim(d))
            if (m.rows, m.cols) != want:
                raise ShapeError(f"map matrix at degree {d} has shape "
                                 f"{m.rows}x{m.cols}, expected {want}")
            if m.rows and m.cols:
                norm[d] = m
        self.mats = norm
        if verify:
            bad = self._equivariance_defect()
            if bad is not None:
                gi, d, j = bad
                raise ValueError(
                    f"map does not commute with {source.algebra.gen_names[gi]} "
                    f"at degree {d} on {source.labels[d][j]}")

    def _equivariance_defect(self):
        """(generator, degree, source column) of the first place where
        g*phi and phi*g differ, or None when the map is equivariant."""
        source, target = self.source, self.target
        for gi, g in enumerate(source.algebra.gen_degrees):
            for d in source.degrees():
                phi, above = self.mats.get(d), self.mats.get(d + g)
                zeros = [0] * source.dim(d)
                act = target.columns(gi, d + self.shift)
                left = zeros if phi is None else [apply_cols(act, c) for c in phi.columns]
                right = zeros if above is None else \
                    [apply_cols(above.columns, c) for c in source.columns(gi, d)]
                if left != right:
                    return gi, d, next(j for j, (a, b) in enumerate(zip(left, right))
                                        if a != b)
        return None

    @staticmethod
    def identity(m: GradedModule) -> "ModuleMap":
        return ModuleMap(m, m, {d: F2Matrix.identity(m.dim(d))
                                for d in m.degrees()}, verify=False)

    @staticmethod
    def zero(source: GradedModule, target: GradedModule, shift: int = 0) -> "ModuleMap":
        return ModuleMap(source, target, {}, shift=shift, verify=False)

    @staticmethod
    def from_cyclic(source: GradedModule, target: GradedModule,
                    image: int, image_degree: int) -> "ModuleMap":
        """Map out of a cyclic module, determined by the generator's image.

        The source must be one-dimensional in image_degree, spanned by x, and
        generated by x, which is read off the source's own action: each basis
        vector is written as a sum of b.x over algebra basis elements b and
        sent to the sum of the b.image.  Raises ValueError when x does not
        generate the source, or when the result is not equivariant.
        """
        if source.dim(image_degree) != 1:
            raise ValueError(f"source is not one-dimensional in degree {image_degree}")
        alg = source.algebra
        mats = {}
        for d in source.degrees():
            ids = alg.basis_by_degree(d - image_degree)
            span = F2Span()
            for r, b in enumerate(ids):
                span.add(source.basis_op(b, image_degree)[0], 1 << r)
            cols = []
            for j, label in enumerate(source.labels[d]):
                residual, combo = span.reduce(1 << j)
                if residual:
                    raise ValueError(f"source is not generated in degree {image_degree}: "
                                     f"{label} (degree {d}) is not a multiple of it")
                col = 0
                for r in vec_support(combo):
                    col ^= apply_cols(target.basis_op(ids[r], image_degree), image)
                cols.append(col)
            mats[d] = F2Matrix.from_cols(cols, target.dim(d))
        return ModuleMap(source, target, mats)

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self after inner; a product with a block that is not stored
        (zero) is left out too."""
        if inner.target != self.source:
            raise ValueError("maps are not composable")
        mats = {d: self.mats[d + inner.shift] @ m for d, m in inner.mats.items()
                if d + inner.shift in self.mats}
        return ModuleMap(inner.source, self.target, mats,
                         shift=self.shift + inner.shift, verify=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_bijective(self) -> bool:
        """Square and of full rank in every degree where source or target
        is nonzero; a block left out there is zero, so it is not."""
        degs = set(self.source.degrees()) | {d - self.shift for d in self.target.degrees()}
        for d in degs:
            m = self.mats.get(d)
            if m is None or m.rows != m.cols or rank(m) != m.rows:
                return False
        return True


# ---------------------------------------------------------------------------
# Validation


def validate(m: GradedModule) -> list[str]:
    """Empty list when the generator matrices define a genuine module.

    Over an A(n) or E(n) preset this evaluates every defining relation on
    every degree through ``words_op``: the Wall relations of A(n), and the
    relations Q_iQ_i and Q_iQ_j + Q_jQ_i of the exterior algebra E(n).
    Over any other subalgebra it checks the dim * (number of generators)
    relations basis[i] * generator[k] = sum_j basis[j] that present the
    algebra, their right sides from ``right_products``.  Violations name
    the failing relation (or product), the degree, and a witness basis
    element.
    """
    violations: list[str] = []
    alg = m.algebra
    gdegs = alg.gen_degrees
    if alg.kind in ("A", "E"):
        n = alg.kind_param
        if alg.kind == "A":
            relations = [(rel.label, rel.words) for rel in steenrod.wall_relations(n)]
        else:  # the exterior algebra on Q_0..Q_n
            pairs = [sorted({(i, j), (j, i)}) for i in range(n + 1) for j in range(i, n + 1)]
            relations = [(" + ".join(map(alg.word_string, ws)), ws) for ws in pairs]
        for label, words in relations:
            for d in m.degrees():
                total = m.words_op(words, d)
                j = next((j for j, c in enumerate(total) if c), None)
                if j is not None:
                    violations.append(f"relation {label} is nonzero on "
                                      f"{m.labels[d][j]} (degree {d})")
        return violations
    # generic subalgebra: the closure's relations basis[i] * generator[k] =
    # sum of basis elements present the algebra (products past the top
    # degree vanish), so the derived action, which the unit's relations tie
    # to the generator matrices, is multiplicative iff each one holds
    # column by column
    products = [alg.right_products(gen) for gen in alg.generators]
    for i, di in enumerate(alg.basis_degrees):
        for k, g in enumerate(gdegs):
            rhs = [alg.basis_by_degree(di + g)[r] for r in vec_support(products[k][i])]
            for d in m.degrees():
                diff = [apply_cols(m.basis_op(i, d + g), c) for c in m.columns(k, d)]
                for j in rhs:
                    diff = [a ^ b for a, b in zip(diff, m.basis_op(j, d))]
                jj = next((j for j, c in enumerate(diff) if c), None)
                if jj is not None:
                    violations.append(
                        f"basis product {alg.basis[i]} * {alg.gen_names[k]} acts "
                        f"inconsistently on {m.labels[d][jj]} (degree {d})")
                    break
    return violations


# ---------------------------------------------------------------------------
# Basic constructors


def zero_module(alg: SubHopfAlgebra) -> GradedModule:
    return GradedModule(alg, {}, {}, meta={"name": "0"})


def trivial_module(alg: SubHopfAlgebra, name: str = "F2") -> GradedModule:
    """The one-dimensional trivial module concentrated in degree 0."""
    return GradedModule(alg, {0: ("u",)}, {}, meta={"name": name})


def regular_module(alg: SubHopfAlgebra) -> GradedModule:
    """The algebra as a left module over itself: generator g acts on the
    degree-d basis through the left products g.b."""
    labels = {d: tuple(f"b{i}" for i in alg.basis_by_degree(d)) for d in alg.degrees}
    actions = {gi: {d: F2Matrix.from_cols([alg.left(gi, bi) for bi in alg.basis_by_degree(d)],
                                          alg.basis_dim(d + g))
                    for d in alg.degrees}
               for gi, g in enumerate(alg.gen_degrees)}
    return GradedModule(alg, labels, actions, meta={"name": alg.name})


def aug_ideal_module(alg: SubHopfAlgebra) -> GradedModule:
    """The kernel of the counit, as a left module (positive-degree part)."""
    reg = regular_module(alg)
    labels = {d: ls for d, ls in reg.labels.items() if d > 0}
    actions = {gi: {d: m for d, m in per.items() if d > 0}
               for gi, per in reg.actions.items()}
    return GradedModule(alg, labels, actions, meta={"name": f"I({alg.name})"})


# ---------------------------------------------------------------------------
# Functors


def suspend(m: GradedModule, k: int) -> GradedModule:
    """Shift every degree up by k; actions are untouched."""
    if k == 0:
        return m
    labels = {d + k: ls for d, ls in m.labels.items()}
    actions = {gi: {d + k: mat for d, mat in per.items()}
               for gi, per in m.actions.items()}
    meta = dict(m.meta)
    if "name" in meta:
        meta["name"] = f"{meta['name']}[{k}]"
    return GradedModule(m.algebra, labels, actions, meta=meta)


def dual(m: GradedModule) -> GradedModule:
    """The linear dual, with action through the antipode."""
    alg = m.algebra
    if not alg.antipode_closed:
        raise ValueError(f"{alg.name} is not closed under the antipode")
    labels = {-d: tuple(l + "*" for l in ls) for d, ls in m.labels.items()}
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, gen in enumerate(alg.generators):
        chi = steenrod.antipode(gen)
        g = alg.gen_degrees[gi]
        actions[gi] = {k: F2Matrix.from_rows(m.element_op(chi, -k - g), m.dim(-k))
                       for k in labels}
    meta = {"name": f"D({m.meta.get('name', 'module')})"}
    return GradedModule(alg, labels, actions, meta=meta)


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tensor product with the diagonal action through the coproduct.

    Degree d is the sum of the blocks m_d1 (x) n_d2 with d1 + d2 = d, d1
    ascending, and x_i1 (x) y_i2 sits at offset[d1, d2] + i1 * dim n_d2 + i2.
    """
    alg = m.algebra
    if alg != n.algebra:
        raise ValueError("tensor factors live over different algebras")
    if not alg.is_sub_hopf:
        raise NoDiagonalActionError(
            f"{alg.name} is not coproduct-closed; no diagonal action")
    offset: dict[tuple[int, int], int] = {}
    labels: dict[int, list[str]] = {}
    for d1 in m.degrees():
        for d2 in n.degrees():
            lst = labels.setdefault(d1 + d2, [])
            offset[d1, d2] = len(lst)
            lst += [f"{x}|{y}" for x in m.labels[d1] for y in n.labels[d2]]
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, gen in enumerate(alg.generators):
        g = alg.gen_degrees[gi]
        terms = []  # (|a|, a.x columns per degree, |b|, b.y columns per degree)
        for a, b in steenrod.coproduct(gen):
            terms.append((a.degree(), {d: m.element_op(a, d) for d in m.degrees()},
                          b.degree(), {d: n.element_op(b, d) for d in n.degrees()}))
        cols = {d: [0] * len(ls) for d, ls in labels.items() if d + g in labels}
        for (d1, d2), off in offset.items():
            out = cols.get(d1 + d2)
            if out is None:
                continue
            for da, acols, db, bcols in terms:
                o = offset.get((d1 + da, d2 + db))
                if o is None:
                    continue
                stride = n.dim(d2 + db)
                for i1, ax in enumerate(acols[d1]):
                    # b.y < 2^stride, so b.y * spread is the disjoint sum of
                    # b.y << (o + p * stride) over p in a.x
                    spread = 0
                    for p in vec_support(ax):
                        spread |= 1 << (o + p * stride)
                    if spread:
                        base = off + i1 * n.dim(d2)
                        for i2, by in enumerate(bcols[d2]):
                            out[base + i2] ^= by * spread
        actions[gi] = {d: F2Matrix.from_cols(c, len(labels[d + g])) for d, c in cols.items()}
    name = f"{m.meta.get('name', '?')}(x){n.meta.get('name', '?')}"
    return GradedModule(alg, labels, actions, meta={"name": name})


def direct_sum(m: GradedModule, n: GradedModule) -> GradedModule:
    if m.algebra != n.algebra:
        raise ValueError("summands live over different algebras")
    labels = {}
    for d in set(m.degrees()) | set(n.degrees()):
        labels[d] = tuple(f"a:{l}" for l in m.labels.get(d, ())) + \
                    tuple(f"b:{l}" for l in n.labels.get(d, ()))
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, g in enumerate(m.algebra.gen_degrees):
        per = actions[gi] = {}
        for d in labels:
            top = m.dim(d + g)
            cols = m.columns(gi, d) + tuple(c << top for c in n.columns(gi, d))
            per[d] = F2Matrix.from_cols(cols, top + n.dim(d + g))
    name = f"{m.meta.get('name', '?')}(+){n.meta.get('name', '?')}"
    return GradedModule(m.algebra, labels, actions, meta={"name": name})


def _free_quotient(alg: SubHopfAlgebra, v: GradedModule, relations,
                   name: str, label_prefix: str):
    """(alg (x) V) / relations as a left alg-module, V a graded space given
    by the labels of v.

    The slots of degree d are the triples (algebra basis index a, V degree
    e, V index i) with deg(a) + e = d, ordered by a, then i; the basis is
    sorted by degree, so (a, e, i) sits at base[deg(a), e] + position(a) *
    dim V_e + i.  A relation is a tuple of terms (c, avec, e, vvec), each
    the sum of the slots (basis_by_degree(c)[r], e, i) over the bits r of
    avec and i of vvec.  Generator g sends slot (a, e, i) to alg.left(g, a)
    placed over the slots, reduced modulo the relations and projected onto
    the slots kept (those that are no pivot of the relations).

    Returns the module and its kept slots per degree.
    """
    base: dict[tuple[int, int], int] = {}    # (c, e) -> first slot of its run
    slots: dict[int, list[tuple[int, int, int]]] = {}
    for c in alg.degrees:
        for e in v.degrees():
            lst = slots.setdefault(c + e, [])
            base[c, e] = len(lst)
            lst += [(a, e, i) for a in alg.basis_by_degree(c) for i in range(v.dim(e))]

    dims = v.dims()

    def place(c: int, avec: int, e: int, vvec: int) -> int:
        if not (avec and vvec):
            return 0
        at, stride = base[c, e], dims[e]
        if stride == 1:
            return avec << at
        out = 0
        for r in vec_support(avec):
            out |= vvec << at + r * stride
        return out

    spans = {d: F2Span() for d in slots}
    for rel in relations:
        vec = 0
        for term in rel:
            vec ^= place(*term)
        if vec:
            c, _, e, _ = rel[0]
            spans[c + e].add(vec)
    kept = {}
    for d, lst in slots.items():
        pivots = set(spans[d].pivots())
        kept[d] = [j for j in range(len(lst)) if j not in pivots]

    def project(d: int, vec: int) -> int:
        if not spans[d].dim:
            return vec  # nothing to kill: every slot is kept
        out = 0
        for j in vec_support(spans[d].reduce(vec)[0]):
            out |= 1 << bisect_left(kept[d], j)
        return out

    labels = {d: tuple(f"{label_prefix}{d}_{k}" for k in range(len(js)))
              for d, js in kept.items() if js}
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, g in enumerate(alg.gen_degrees):
        per = actions[gi] = {}
        for d, js in kept.items():
            if js and kept.get(d + g):
                cols = []
                for j in js:
                    a, e, i = slots[d][j]
                    cols.append(project(d + g, place(d - e + g, alg.left(gi, a), e, 1 << i)))
                per[d] = F2Matrix.from_cols(cols, len(kept[d + g]))
    return (GradedModule(alg, labels, actions, meta={"name": name}),
            {d: [slots[d][j] for j in js] for d, js in kept.items() if js})


def quotient_by_left_ideal(alg: SubHopfAlgebra, gens) -> GradedModule:
    """The cyclic module alg / alg{gens}, generated by the unit coset.

    The ideal is spanned by the right multiples b.x of the generators x by
    the basis elements b, read off the closure's right columns
    (``SubHopfAlgebra.right_products``).
    """
    gens = list(gens)
    relations = []
    for x in gens:
        if not alg.contains_element(x):
            raise ValueError(f"ideal generator {x} is not in {alg.name}")
        if not x.is_homogeneous():
            raise ValueError(f"ideal generator {x} is not homogeneous")
        if not x.is_zero():
            dx = x.degree()
            relations += [((db + dx, bx, 0, 1),) for bx, db in
                          zip(alg.right_products(x), alg.basis_degrees)
                          if db + dx <= alg.top_degree]
    gen_names = ", ".join(str(x) for x in gens)
    return _free_quotient(alg, trivial_module(alg), relations,
                          name=f"{alg.name}/({gen_names})", label_prefix="q")[0]


def hopf_quotient(h: SubHopfAlgebra, k: SubHopfAlgebra) -> GradedModule:
    """h//k = h / h.k+, as a left h-module, k+ the positive part of k.

    Killing k's generators g_i suffices: every positive word in them ends
    in some g_i, so h.k+ = sum_i h.g_i.
    """
    if not k.is_subalgebra_of(h):
        raise ValueError(f"{k.name} is not a subalgebra of {h.name}")
    q = quotient_by_left_ideal(h, k.generators)
    q.meta["name"] = f"{h.name}//{k.name}"
    return q


def induce(a: SubHopfAlgebra, b: SubHopfAlgebra, m: GradedModule) -> GradedModule:
    """a (x)_b m for b a subalgebra of a and m a b-module.

    A module over a preset A(n) or E(n) of a smaller ambient is re-tagged
    onto that preset in b's ambient (the same generators, in order), and
    one over an algebra of a smaller ambient with b's generator terms, in
    order, onto b; one over a (or any algebra containing b) is restricted
    to b.  The relations x.y (x) v + x (x) y.v, each x.y from
    ``SubHopfAlgebra.right_products``, are taken for the basis elements x
    of a and the generators y of b only; they span all of them, since
    x.y1y2 (x) v + x (x) y1y2.v is the relation for (x.y1, y2, v) plus the
    one for (x, y1, y2.v).
    """
    if not b.is_subalgebra_of(a):
        raise ValueError(f"{b.name} is not a subalgebra of {a.name}")
    src = m.algebra
    if src.kind in ("A", "E") and src.ambient < b.ambient:
        preset = steenrod.A if src.kind == "A" else steenrod.E
        m = GradedModule(preset(src.kind_param, b.ambient), m.labels, m.actions, m.meta)
    elif (src.ambient < b.ambient
          and [g.terms for g in src.generators] == [g.terms for g in b.generators]):
        m = GradedModule(b, m.labels, m.actions, m.meta)
    if m.algebra != b:
        if b.is_subalgebra_of(m.algebra):
            m = restrict(m, b)
        else:
            raise ValueError("module is not given over the middle algebra")
    relations = []
    products = [a.right_products(y) for y in b.generators]
    for ai, dx in enumerate(a.basis_degrees):
        unit_x = 1 << a.degree_position[ai]
        for yi, dy in enumerate(b.gen_degrees):
            xy = products[yi][ai]
            for dv in m.degrees():
                for iv, yv in enumerate(m.columns(yi, dv)):
                    relations.append(((dx + dy, xy, dv, 1 << iv), (dx, unit_x, dv + dy, yv)))
    name = f"{a.name}(x)_{b.name} {m.meta.get('name', '?')}"
    return _free_quotient(a, m, relations, name=name, label_prefix="i")[0]


def restrict(m: GradedModule, b: SubHopfAlgebra) -> GradedModule:
    """The same underlying space as a module over a subalgebra."""
    if not b.is_subalgebra_of(m.algebra):
        raise ValueError(f"{b.name} is not a subalgebra of {m.algebra.name}")
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, gen in enumerate(b.generators):
        g = b.gen_degrees[gi]
        actions[gi] = {d: F2Matrix.from_cols(m.element_op(gen, d), m.dim(d + g))
                       for d in m.degrees()}
    meta = {"name": f"{m.meta.get('name', '?')}|{b.name}"}
    return GradedModule(b, dict(m.labels), actions, meta=meta)


def double(m: GradedModule) -> GradedModule:
    """Regrade a module over A(n) as a module over A(n+1).

    Degrees double; Sq^{2k} acts as Sq^k did, odd generators act as zero.
    """
    alg = m.algebra
    if alg.kind != "A" or alg.kind_param != alg.ambient:
        raise ValueError("doubling expects a module over a full A(n) preset")
    target = steenrod.A(alg.kind_param + 1)
    labels = {2 * d: ls for d, ls in m.labels.items()}
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi in range(1, len(target.generators)):
        old = m.actions.get(gi - 1, {})
        actions[gi] = {2 * d: mat for d, mat in old.items()}
    name = f"double({m.meta.get('name', '?')})"
    return GradedModule(target, labels, actions, meta={"name": name})


def margolis_homology(m: GradedModule, s: int) -> dict[int, int]:
    """Per-degree homology of the square-zero Milnor primitive Q_s."""
    q = steenrod.milnor_primitive(s, m.algebra.ambient)
    if not m.algebra.contains_element(q):
        raise ValueError(f"Q_{s} does not lie in {m.algebra.name}")
    shift = q.degree()
    mats = {d: F2Matrix.from_cols(m.element_op(q, d), m.dim(d + shift))
            for d in m.degrees()}
    for d, mat in mats.items():
        if any(apply_cols(m.element_op(q, d + shift), c) for c in mat.columns):
            raise ArithmeticError(f"Q_{s} does not square to zero on this module")
    ranks = {d: rank(mat) for d, mat in mats.items()}
    out = {}
    for d, mat in mats.items():
        ker = mat.cols - ranks[d]
        im = ranks.get(d - shift, 0)
        if ker - im:
            out[d] = ker - im
    return out
