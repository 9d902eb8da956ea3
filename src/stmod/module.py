"""Finite graded left modules over a SubHopfAlgebra, and the functor calculus.

A module is specified by labelled basis elements in each (cohomological)
degree together with one matrix per algebra *generator* per degree; the
action of every other algebra element is derived from the generator-word
expressions carried by the algebra.  ``validate`` certifies that the given
matrices really define a module: over a full A(n) it checks that every Wall
relation acts as the zero operator, over a general subalgebra it checks
multiplicative consistency on the basis.

Degrees are cohomological, may be negative, and actions raise degree.
All objects are treated as immutable once built; the functors below return
fresh modules and never mutate their inputs.
"""

from __future__ import annotations

from .f2linalg import F2Matrix, F2Span, rref, vec_support
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

    actions[gi][d] maps degree d to degree d + deg(generator gi); matrices
    are stored column-per-source-basis-vector and omitted when zero.
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
        self._op_cache: dict = {}

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

    def action(self, gi: int, d: int) -> F2Matrix:
        g = self.algebra.gen_degrees[gi]
        mat = self.actions.get(gi, {}).get(d)
        if mat is None:
            return F2Matrix.zero(self.dim(d + g), self.dim(d))
        return mat

    def columns(self, gi: int, d: int) -> list[int]:
        """The columns of ``action(gi, d)`` as packed vectors."""
        key = ("cols", gi, d)
        hit = self._op_cache.get(key)
        if hit is None:
            hit = self._op_cache[key] = self.action(gi, d).columns()
        return hit

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

    def _word_op(self, word) -> "Operator":
        op = Operator.identity(self)
        for gi in reversed(word):
            op = Operator.generator(self, gi).compose(op)
        return op

    def basis_op(self, i: int) -> "Operator":
        """Action of the i-th algebra basis element, via its word expression."""
        hit = self._op_cache.get(i)
        if hit is None:
            hit = Operator.zero(self, self.algebra.basis_degrees[i])
            for word in self.algebra.expressions[i]:
                hit = hit.add(self._word_op(word))
            self._op_cache[i] = hit
        return hit

    def element_op(self, e: SteenrodElt) -> "Operator":
        """Action of an arbitrary element of the algebra's span."""
        key = ("elt", e.terms)
        hit = self._op_cache.get(key)
        if hit is None:
            indices = self.algebra.decompose(e)
            deg = e.degree() if not e.is_zero() else 0
            hit = Operator.zero(self, deg)
            for i in indices:
                hit = hit.add(self.basis_op(i))
            self._op_cache[key] = hit
        return hit


class Operator:
    """A degree-raising graded linear endo-map of one module."""

    __slots__ = ("module", "shift", "mats")

    def __init__(self, module: GradedModule, shift: int, mats: dict[int, F2Matrix]):
        self.module = module
        self.shift = shift
        self.mats = {d: m for d, m in mats.items() if not m.is_zero()}

    @staticmethod
    def identity(module: GradedModule) -> "Operator":
        return Operator(module, 0, {d: F2Matrix.identity(module.dim(d))
                                    for d in module.degrees()})

    @staticmethod
    def zero(module: GradedModule, shift: int) -> "Operator":
        return Operator(module, shift, {})

    @staticmethod
    def generator(module: GradedModule, gi: int) -> "Operator":
        g = module.algebra.gen_degrees[gi]
        return Operator(module, g,
                        {d: module.action(gi, d) for d in module.degrees()})

    def mat(self, d: int) -> F2Matrix:
        m = self.mats.get(d)
        if m is None:
            return F2Matrix.zero(self.module.dim(d + self.shift), self.module.dim(d))
        return m

    def compose(self, inner: "Operator") -> "Operator":
        """self after inner."""
        shift = self.shift + inner.shift
        mats = {}
        for d in self.module.degrees():
            if self.module.dim(d + shift) and self.module.dim(d):
                mats[d] = self.mat(d + inner.shift) @ inner.mat(d)
        return Operator(self.module, shift, mats)

    def add(self, other: "Operator") -> "Operator":
        if other.shift != self.shift:
            raise ShapeError("cannot add operators of different degree shifts")
        mats = dict(self.mats)
        for d, m in other.mats.items():
            mats[d] = mats[d] + m if d in mats else m
        return Operator(self.module, self.shift, mats)

    def apply(self, d: int, vec: int) -> int:
        return self.mat(d).mat_vec(vec)

    def is_zero(self) -> bool:
        return not self.mats


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
                gi, d = bad
                raise ValueError(
                    f"map does not commute with {source.algebra.gen_names[gi]} "
                    f"at degree {d}")

    def mat(self, d: int) -> F2Matrix:
        m = self.mats.get(d)
        if m is None:
            return F2Matrix.zero(self.target.dim(d + self.shift), self.source.dim(d))
        return m

    def _equivariance_defect(self):
        for gi, g in enumerate(self.source.algebra.gen_degrees):
            for d in self.source.degrees():
                left = self.target.action(gi, d + self.shift) @ self.mat(d)
                right = self.mat(d + g) @ self.source.action(gi, d)
                if left != right:
                    return gi, d
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

        The source must carry coset representatives (meta['reps']); the slot
        with representative r is sent to r * image.
        """
        reps = source.meta.get("reps")
        gen_degree = source.meta.get("cyclic_degree")
        if reps is None or gen_degree is None:
            raise ValueError("source module does not carry coset representatives")
        if image_degree != gen_degree:
            raise ValueError("image degree must match the cyclic generator degree")
        mats = {}
        for d in source.degrees():
            cols = []
            for r in reps[d]:
                op = target.element_op(r)
                cols.append(op.apply(image_degree, image))
            mats[d] = F2Matrix.from_cols(cols, target.dim(d))
        return ModuleMap(source, target, mats)

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("maps are not composable")
        mats = {}
        for d in inner.source.degrees():
            mats[d] = self.mat(d + inner.shift) @ inner.mat(d)
        return ModuleMap(inner.source, self.target, mats,
                         shift=self.shift + inner.shift, verify=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_bijective(self) -> bool:
        degs = set(self.source.degrees()) | {d - self.shift for d in self.target.degrees()}
        for d in degs:
            m = self.mat(d)
            if m.rows != m.cols or rref(m)[1] != m.rows:
                return False
        return True

    def apply(self, d: int, vec: int) -> int:
        return self.mat(d).mat_vec(vec)


# ---------------------------------------------------------------------------
# Validation


def validate(m: GradedModule) -> list[str]:
    """Empty list when the generator matrices define a genuine module.

    Over a full A(n) this evaluates every Wall relation as an operator;
    otherwise it checks that the derived basis action is multiplicative.
    Violations name the failing relation (or basis pair), the degree, and a
    witness basis element.
    """
    violations: list[str] = []
    alg = m.algebra
    if alg.kind == "A":
        for rel in steenrod.wall_relations(alg.kind_param):
            op = None
            for word in rel.words:
                wop = m._word_op(word)
                op = wop if op is None else op.add(wop)
            if op is None or op.is_zero():
                continue
            for d, mat in sorted(op.mats.items()):
                for j in range(mat.cols):
                    if mat.col(j):
                        violations.append(
                            f"relation {rel.label} is nonzero on "
                            f"{m.labels[d][j]} (degree {d})")
                        break
        return violations
    # generic subalgebra: multiplicativity on basis pairs; pairs whose
    # product degree exceeds the top degree multiply to zero in the algebra
    # and must act as the zero operator
    for i, di in enumerate(alg.basis_degrees):
        for j, dj in enumerate(alg.basis_degrees):
            lhs = m.basis_op(i).compose(m.basis_op(j))
            rhs = Operator.zero(m, di + dj)
            if di + dj <= alg.top_degree:
                for k in alg.mult(i, j):
                    rhs = rhs.add(m.basis_op(k))
            diff = lhs.add(rhs)
            if not diff.is_zero():
                d = min(diff.mats)
                jj = next(c for c in range(diff.mats[d].cols) if diff.mats[d].col(c))
                violations.append(
                    f"basis product {alg.basis[i]} * {alg.basis[j]} acts "
                    f"inconsistently on {m.labels[d][jj]} (degree {d})")
    return violations


# ---------------------------------------------------------------------------
# Basic constructors


def zero_module(alg: SubHopfAlgebra) -> GradedModule:
    return GradedModule(alg, {}, {}, meta={"name": "0"})


def trivial_module(alg: SubHopfAlgebra, name: str = "F2") -> GradedModule:
    """The one-dimensional trivial module concentrated in degree 0."""
    return GradedModule(alg, {0: ("u",)}, {}, meta={
        "name": name,
        "reps": {0: (steenrod.unit(alg.ambient),)},
        "cyclic_degree": 0,
    })


def regular_module(alg: SubHopfAlgebra) -> GradedModule:
    """The algebra as a left module over itself."""
    labels: dict[int, list[str]] = {}
    index_of: dict[int, tuple[int, int]] = {}
    reps: dict[int, list[SteenrodElt]] = {}
    for i, (b, d) in enumerate(zip(alg.basis, alg.basis_degrees)):
        labels.setdefault(d, []).append(f"b{i}")
        reps.setdefault(d, []).append(b)
        index_of[i] = (d, len(labels[d]) - 1)
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi in range(len(alg.generators)):
        g = alg.gen_degrees[gi]
        per: dict[int, F2Matrix] = {}
        for d, ls in labels.items():
            cols = []
            for k in range(len(ls)):
                bi = alg.basis_by_degree(d)[k]
                prod = alg.generators[gi] * alg.basis[bi]
                v = 0
                for idx in alg.decompose(prod):
                    dd, pos = index_of[idx]
                    v |= 1 << pos
                cols.append(v)
            per[d] = F2Matrix.from_cols(cols, len(labels.get(d + g, [])))
        actions[gi] = per
    return GradedModule(alg, {d: tuple(ls) for d, ls in labels.items()}, actions,
                        meta={"name": alg.name,
                              "reps": {d: tuple(r) for d, r in reps.items()},
                              "cyclic_degree": 0})


def aug_ideal_module(alg: SubHopfAlgebra) -> GradedModule:
    """The kernel of the counit, as a left module (positive-degree part)."""
    reg = regular_module(alg)
    labels = {d: ls for d, ls in reg.labels.items() if d > 0}
    actions = {gi: {d: m for d, m in per.items() if d > 0}
               for gi, per in reg.actions.items()}
    reps = {d: r for d, r in reg.meta["reps"].items() if d > 0}
    return GradedModule(alg, labels, actions,
                        meta={"name": f"I({alg.name})", "reps": reps})


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
    if "reps" in meta:
        meta["reps"] = {d + k: r for d, r in meta["reps"].items()}
    if "cyclic_degree" in meta:
        meta["cyclic_degree"] = meta["cyclic_degree"] + k
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
        chi_op = m.element_op(steenrod.antipode(gen))
        g = alg.gen_degrees[gi]
        per = {}
        for k in labels:
            if m.dim(-k) and m.dim(-k - g):
                per[k] = chi_op.mat(-k - g).transpose()
        actions[gi] = per
    meta = {"name": f"D({m.meta.get('name', 'module')})"}
    return GradedModule(alg, labels, actions, meta=meta)


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tensor product with the diagonal action through the coproduct."""
    alg = m.algebra
    if alg != n.algebra:
        raise ValueError("tensor factors live over different algebras")
    if not alg.is_sub_hopf:
        raise NoDiagonalActionError(
            f"{alg.name} is not coproduct-closed; no diagonal action")
    pairs: dict[int, list[tuple[int, int, int, int]]] = {}
    for d1 in m.degrees():
        for d2 in n.degrees():
            lst = pairs.setdefault(d1 + d2, [])
            for i1 in range(m.dim(d1)):
                for i2 in range(n.dim(d2)):
                    lst.append((d1, i1, d2, i2))
    index: dict[tuple[int, int, int, int], int] = {}
    labels = {}
    for d, lst in pairs.items():
        labels[d] = tuple(f"{m.labels[d1][i1]}|{n.labels[d2][i2]}"
                          for d1, i1, d2, i2 in lst)
        for pos, key in enumerate(lst):
            index[key] = pos
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, gen in enumerate(alg.generators):
        g = alg.gen_degrees[gi]
        cop = steenrod.coproduct(gen)
        per = {}
        for d, lst in pairs.items():
            target = pairs.get(d + g, [])
            if not target:
                continue
            cols = []
            for d1, i1, d2, i2 in lst:
                col = 0
                for a, b in cop:
                    da, db = a.degree(), b.degree()
                    va = m.element_op(a).apply(d1, 1 << i1)
                    vb = n.element_op(b).apply(d2, 1 << i2)
                    if not va or not vb:
                        continue
                    for p in vec_support(va):
                        for q in vec_support(vb):
                            col ^= 1 << index[(d1 + da, p, d2 + db, q)]
                cols.append(col)
            per[d] = F2Matrix.from_cols(cols, len(target))
        actions[gi] = per
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
    for gi in range(len(m.algebra.generators)):
        g = m.algebra.gen_degrees[gi]
        per = {}
        for d in labels:
            am = m.action(gi, d)
            bm = n.action(gi, d)
            cols = []
            for j in range(am.cols):
                cols.append(am.col(j))
            for j in range(bm.cols):
                cols.append(bm.col(j) << am.rows)
            per[d] = F2Matrix.from_cols(cols, am.rows + bm.rows)
        actions[gi] = per
    name = f"{m.meta.get('name', '?')}(+){n.meta.get('name', '?')}"
    return GradedModule(m.algebra, labels, actions, meta={"name": name})


def _quotient_from_relations(alg: SubHopfAlgebra, slot_info, relations,
                             gen_action, name, label_prefix,
                             reps_of_slot=None) -> GradedModule:
    """Shared quotient machinery.

    slot_info: dict degree -> list of slot keys (the ambient basis).
    relations: dict degree -> list of packed vectors over the slots.
    gen_action(gi, d, slot_index) -> packed vector over slots at d + deg(g).
    """
    spans: dict[int, F2Span] = {}
    kept: dict[int, list[int]] = {}
    for d, slots in slot_info.items():
        spans[d] = span = F2Span()
        for vec in relations.get(d, []):
            span.add(vec)
        pivset = set(span.pivots())
        kept[d] = [j for j in range(len(slots)) if j not in pivset]

    def project(d: int, vec: int) -> int:
        vec = spans[d].reduce(vec)[0]
        out = 0
        for pos, j in enumerate(kept.get(d, [])):
            if (vec >> j) & 1:
                out |= 1 << pos
        return out

    labels = {d: tuple(f"{label_prefix}{d}_{k}" for k in range(len(js)))
              for d, js in kept.items() if js}
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi in range(len(alg.generators)):
        g = alg.gen_degrees[gi]
        per = {}
        for d, js in kept.items():
            if not js or not kept.get(d + g):
                continue
            cols = [project(d + g, gen_action(gi, d, j)) for j in js]
            per[d] = F2Matrix.from_cols(cols, len(kept[d + g]))
        actions[gi] = per
    meta = {"name": name}
    if reps_of_slot is not None:
        meta["reps"] = {d: tuple(reps_of_slot(d, j) for j in js)
                        for d, js in kept.items() if js}
        meta["cyclic_degree"] = 0
    return GradedModule(alg, labels, actions, meta=meta)


def quotient_by_left_ideal(alg: SubHopfAlgebra, gens) -> GradedModule:
    """The cyclic module alg / alg{gens}, generated by the unit coset."""
    gens = list(gens)
    for x in gens:
        if not alg.contains_element(x):
            raise ValueError(f"ideal generator {x} is not in {alg.name}")
    slot_info = {d: alg.basis_by_degree(d) for d in alg.degrees}
    local_pos = {d: {bi: k for k, bi in enumerate(ids)}
                 for d, ids in slot_info.items()}

    def to_vec(d, e: SteenrodElt) -> int:
        v = 0
        for idx in alg.decompose(e):
            v |= 1 << local_pos[d][idx]
        return v

    relations: dict[int, list[int]] = {}
    for x in gens:
        if x.is_zero():
            continue
        dx = x.degree()
        for b, db in zip(alg.basis, alg.basis_degrees):
            d = db + dx
            if d > alg.top_degree:
                continue
            prod = b * x
            if prod.is_zero():
                continue
            relations.setdefault(d, []).append(to_vec(d, prod))

    def gen_action(gi, d, slot):
        bi = slot_info[d][slot]
        prod = alg.generators[gi] * alg.basis[bi]
        if prod.is_zero():
            return 0
        return to_vec(d + alg.gen_degrees[gi], prod)

    gen_names = ", ".join(str(x) for x in gens)
    return _quotient_from_relations(
        alg, slot_info, relations, gen_action,
        name=f"{alg.name}/({gen_names})", label_prefix="q",
        reps_of_slot=lambda d, j: alg.basis[slot_info[d][j]])


def hopf_quotient(h: SubHopfAlgebra, k: SubHopfAlgebra) -> GradedModule:
    """h//k = h / h*(positive part of k), as a left h-module."""
    if not k.is_subalgebra_of(h):
        raise ValueError(f"{k.name} is not a subalgebra of {h.name}")
    gens = [b for b, d in zip(k.basis, k.basis_degrees) if d > 0]
    q = quotient_by_left_ideal(h, gens)
    q.meta["name"] = f"{h.name}//{k.name}"
    return q


def induce(a: SubHopfAlgebra, b: SubHopfAlgebra, m: GradedModule) -> GradedModule:
    """a (x)_b m for b a subalgebra of a and m a b-module.

    A module handed over a (or any algebra containing b) is restricted to b
    first.
    """
    if not b.is_subalgebra_of(a):
        raise ValueError(f"{b.name} is not a subalgebra of {a.name}")
    if m.algebra != b:
        if b.is_subalgebra_of(m.algebra):
            m = restrict(m, b)
        else:
            raise ValueError("module is not given over the middle algebra")
    # slots: pairs (algebra basis index of a, (module degree, module index))
    slot_info: dict[int, list[tuple[int, int, int]]] = {}
    for ai, dx in enumerate(a.basis_degrees):
        for dv in m.degrees():
            for iv in range(m.dim(dv)):
                slot_info.setdefault(dx + dv, []).append((ai, dv, iv))
    local_pos = {d: {key: k for k, key in enumerate(lst)}
                 for d, lst in slot_info.items()}

    def pair_vec(d, avec_indices, dv, mvec) -> int:
        v = 0
        for ai in avec_indices:
            for iv in vec_support(mvec):
                v ^= 1 << local_pos[d][(ai, dv, iv)]
        return v

    relations: dict[int, list[int]] = {}
    positive_b = [(bb, d) for bb, d in zip(b.basis, b.basis_degrees) if d > 0]
    for ai, (x, dx) in enumerate(zip(a.basis, a.basis_degrees)):
        for y, dy in positive_b:
            xy = x * y
            xy_indices = a.decompose(xy) if not xy.is_zero() else []
            y_op = m.element_op(y)
            for dv in m.degrees():
                d = dx + dy + dv
                if d not in slot_info:
                    continue
                for iv in range(m.dim(dv)):
                    vec = 0
                    if xy_indices:
                        vec ^= pair_vec(d, xy_indices, dv, 1 << iv)
                    yv = y_op.apply(dv, 1 << iv)
                    if yv:
                        vec ^= pair_vec(d, [ai], dv + dy, yv)
                    if vec:
                        relations.setdefault(d, []).append(vec)

    def gen_action(gi, d, slot):
        ai, dv, iv = slot_info[d][slot]
        prod = a.generators[gi] * a.basis[ai]
        if prod.is_zero():
            return 0
        return pair_vec(d + a.gen_degrees[gi], a.decompose(prod), dv, 1 << iv)

    name = f"{a.name}(x)_{b.name} {m.meta.get('name', '?')}"
    return _quotient_from_relations(a, slot_info, relations, gen_action,
                                    name=name, label_prefix="i")


def restrict(m: GradedModule, b: SubHopfAlgebra) -> GradedModule:
    """The same underlying space as a module over a subalgebra."""
    if not b.is_subalgebra_of(m.algebra):
        raise ValueError(f"{b.name} is not a subalgebra of {m.algebra.name}")
    actions: dict[int, dict[int, F2Matrix]] = {}
    for gi, gen in enumerate(b.generators):
        op = m.element_op(gen)
        actions[gi] = dict(op.mats)
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
    op = m.element_op(q)
    if not op.compose(op).is_zero():
        raise ArithmeticError(f"Q_{s} does not square to zero on this module")
    shift = q.degree()
    out = {}
    for d in m.degrees():
        mat = op.mat(d)
        ker = mat.cols - rref(mat)[1]
        im = rref(op.mat(d - shift))[1]
        if ker - im:
            out[d] = ker - im
    return out
