"""Stable-category tools for modules over a finite subalgebra.

The key engine is ``reduce_module``, which splits every free summand off
in one step.  Over a connected Frobenius algebra A with integral Lambda
(the one-dimensional top class, of degree e), pick x_1..x_r with the
Lambda*x_i a basis of Lambda*m.  They generate a free submodule F, and for
functionals gamma_1..gamma_r whose matrix gamma_k(Lambda*x_i) is
invertible, v |-> (a |-> gamma_k(a*v))_k is a module map from m to a sum
of copies of the dual of A.  On the socle Lambda*F of F it is that
invertible matrix, so it is injective on F, hence an isomorphism on F;
its kernel is therefore a complement of F on which Lambda acts as zero.
That kernel is the largest submodule inside the kernels of the gamma_k,
so it is found top-down from the generator actions alone: v lies in it
when every gamma_k vanishes on v and each generator sends v into the
kernel in its own, higher degree.  Functionals with the same span cut out
the same kernel.  Only m's generator matrices are read: Lambda acts by
the words the closure recorded for it, and F's columns b*x are the
differential of a resolver ``FreeStage`` on the x.  All of this holds
only for a module, so ``reduce_module`` runs ``validate`` on any input
with a free summand and refuses a non-module; an input with no free
summand is its own reduced part and is not checked.  The isomorphism
F (+) kernel -> m is built, and verified equivariant, only when it is
read.  The reduced part is the stable representative of m, from which
loop functors, stable isomorphism tests and self-duality shifts all
follow.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from functools import partial
from itertools import chain
from random import Random

from .f2linalg import F2Matrix, F2Span, apply_cols, eliminate, kernel_basis, rank, rref
from . import steenrod
from .module import (GradedModule, ModuleMap, _free_quotient, aug_ideal_module,
                     direct_sum, dual, margolis_homology, suspend, tensor, validate)
from .resolve import FreeStage
from .value import Value


class InconclusiveIsomorphism(RuntimeError):
    """The isomorphism search ran out of budget without a certificate
    either way.  Distinct from a certified negative (None)."""


class _PendingBuild:
    """The slot that holds a ``Decomposition``'s isomorphism builder until
    the first read; a base of its own, so it is no field of the record."""

    __slots__ = ("_build",)


class Decomposition(Value, _PendingBuild):
    """module ~ F (+) reduced_part, F free on generators in degrees free_part.

    ``isomorphism`` is the module map direct_sum(F, reduced_part) -> module;
    it sends b (x) x in F to b*x and includes the reduced part.  It is given
    either as that ModuleMap or as a function of no arguments that builds
    it, which is called on the first read and its result kept.  From
    ``reduce_module`` it is the identity when free_part is empty, and
    otherwise a map checked equivariant as it is built, on a module that
    ``validate`` passed.
    """

    __slots__ = ("module", "free_part", "reduced_part", "isomorphism")

    def __init__(self, module: GradedModule, free_part: tuple[int, ...],
                 reduced_part: GradedModule,
                 isomorphism: ModuleMap | Callable[[], ModuleMap]):
        if callable(isomorphism):
            self._assign(module, free_part, reduced_part)
            self._build = isomorphism
        else:
            self._assign(module, free_part, reduced_part, isomorphism)

    def __getattr__(self, name):
        # reached only for an unset slot: the isomorphism before its first read
        if name != "isomorphism":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.isomorphism = iso = self._build()
        del self._build
        return iso

    def verify(self) -> bool:
        """The isomorphism is bijective in every degree."""
        return self.isomorphism.is_bijective()


def reduce_module(m: GradedModule) -> Decomposition:
    """Split off every free summand in one step.

    Degree by degree, lowest first, the basis vector e_j of m_d is a
    generator x when Lambda*e_j is independent of the Lambda-images of the
    basis vectors before it, Lambda acting by its words (``words_op``).
    The splitting functionals on m_(d+e) are the coordinates at the
    pivots (lowest set bits) of the span of these Lambda-images.  Their
    matrix against the Lambda*x is invertible, since the span's echelon
    rows, one per x, are triangular at the pivots.
    The complement C is the kernel of v |-> (gamma_p(b*v))_(p, b), the
    largest submodule inside the kernels of the gamma_p.  It is built
    top-down from the generator actions alone: C_d is the v in m_d with no
    pivot bit and with g*v in C_(d+|g|) for every generator g, one
    ``kernel_basis`` per degree of the pivot bits stacked over the
    residuals of the g*e_j modulo the span of C_(d+|g|).  Reducing g*e_j
    against that span also gives the coordinates of the part in the span
    along C_(d+|g|)'s basis.  Both maps are linear, and the residual
    vanishes on C_d, so the coordinates summed over the bits of each
    kernel vector give C's action matrices.  The kernel basis is
    canonical for the subspace, so C is the complement that stripping one
    summand at a time, with the first coordinate of each Lambda*x in
    turn, would reach.  The free module F on the x maps to m by
    b (x) x |-> b*x, the differential of a ``FreeStage`` over m with
    generators the x.
    When there is a free summand, m is first checked to be a module
    (``validate``), and a ValueError names the first violated relation
    when it is not; the splitting above holds only for modules.  The
    isomorphism is left to be built, and verified equivariant, on its
    first read (``_splitting_map``).  A module with no free summand is
    returned as it is, with the identity: nothing is split, and nothing
    is checked.
    """
    alg = m.algebra
    alg.integral()  # NotFrobeniusError without a one-dimensional top
    e = alg.top_degree
    lam_words = alg.expressions[alg.basis_by_degree(e)[0]]
    picked: dict[int, list[int]] = {}
    masks: dict[int, int] = {}  # pivot bits on m_(d+e) of the Lambda*x, x in m_d
    for d in m.degrees():
        images = F2Span()
        picked[d] = [j for j, lam_x in enumerate(m.words_op(lam_words, d)) if images.add(lam_x)]
        if images.dim:
            masks[d + e] = sum(1 << p for p in images.pivots())
    free_part = tuple(d for d, js in picked.items() for _ in js)
    if not free_part:
        return Decomposition(m, (), m, partial(ModuleMap.identity, m))
    violations = validate(m)
    if violations:
        raise ValueError(f"not a module: {violations[0]}")
    basis: dict[int, list[int]] = {}
    spans: dict[int, F2Span] = {}
    actions: dict[int, dict[int, F2Matrix]] = {}
    for d in reversed(m.degrees()):
        mask = masks.get(d, 0)
        cols = [(1 << j) & mask for j in range(m.dim(d))]
        height = m.dim(d)
        coords = {}
        for k, g in enumerate(alg.gen_degrees):
            if d + g in spans:
                parts = [spans[d + g].reduce(c) for c in m.columns(k, d)]
                for j, (residual, _) in enumerate(parts):
                    cols[j] |= residual << height
                height += m.dim(d + g)
                coords[k] = [combo for _, combo in parts]
        basis[d] = kernel_basis(F2Matrix(height, m.dim(d), tuple(cols)))
        for k, combos in coords.items():
            actions.setdefault(k, {})[d] = F2Matrix.from_cols(
                [apply_cols(combos, v) for v in basis[d]],
                len(basis[d + alg.gen_degrees[k]]))
        spans[d] = span = F2Span()
        for i, v in enumerate(basis[d]):
            span.add(v, 1 << i)
    labels = {d: tuple(f"c{d}_{i}" for i in range(len(basis[d]))) for d in m.degrees()}
    reduced = GradedModule(alg, labels, actions,
                           meta={"name": f"{m.meta.get('name', '?')}~"})
    return Decomposition(m, free_part, reduced,
                         partial(_splitting_map, m, picked, reduced, basis))


def _splitting_map(m: GradedModule, picked: dict[int, list[int]], reduced: GradedModule,
                   basis: dict[int, list[int]]) -> ModuleMap:
    """The map direct_sum(F, reduced) -> m of ``reduce_module``, verified.

    F is ``_free_quotient`` on the picked x, whose slot (a, degree of x,
    index of x) goes to the image of the slot (x, a) under the differential
    of a ``FreeStage`` over m with generators the x in the same order; the
    reduced part's basis vector c_i goes to basis[d][i].
    """
    alg = m.algebra
    stage = FreeStage(m)
    for d, js in picked.items():
        for j in js:
            stage.add_generator(d, 1 << j)
    gens = GradedModule(alg, {d: tuple(m.labels[d][j] for j in js)
                              for d, js in picked.items()}, {})
    free, slots = _free_quotient(alg, gens, (), name="free", label_prefix="f")
    mats = {}
    for d in m.degrees():
        position = {slot: p for p, slot in enumerate(stage.basis(d))}
        diff = stage.differential(d)
        cols = [diff[position[bisect_left(stage.gen_degrees, vd) + i, a]]
                for a, vd, i in slots.get(d, ())]
        mats[d] = F2Matrix.from_cols(cols + basis[d], m.dim(d))
    return ModuleMap(direct_sum(free, reduced), m, mats)


def loop(m: GradedModule) -> GradedModule:
    """The syzygy functor: reduced part of (augmentation ideal) (x) m."""
    ideal = aug_ideal_module(m.algebra)
    return reduce_module(tensor(ideal, m)).reduced_part


def oloop(m: GradedModule) -> GradedModule:
    """The cosyzygy functor: reduced part of (dual augmentation ideal) (x) m."""
    ideal = aug_ideal_module(m.algebra)
    return reduce_module(tensor(dual(ideal), m)).reduced_part


# ---------------------------------------------------------------------------
# Isomorphism testing


def _available_primitives(alg) -> list[int]:
    return [s for s in range(alg.ambient + 1)
            if alg.contains_element(steenrod.milnor_primitive(s, alg.ambient))]


def _hom_solutions(m: GradedModule, n: GradedModule) -> tuple[list[int], list[tuple]]:
    """The degree-0 maps m -> n as packed solutions of the intertwining system.

    Returns (solutions, blocks): the ``kernel_basis`` of the system, one int
    per solution over all unknowns, and (degree, offset, rows, cols) for
    each nonzero block phi_d, whose row r sits at bits offset + r*cols on.
    The system has one packed column per unknown.  Constraint (g, d, R, C),
    entry (R, C) of an @ phi_d + phi_(d+g) @ am, sits at bit height +
    R*dim m_d + C, height counting the constraints before its (g, d).
    Entry (r, c) of phi_d meets column r of an, spread at stride dim m_d
    and shifted by c; entry (r, k) of phi_(d+g) meets row k of am, shifted
    by r*dim m_d.  The kernel basis ignores constraint order and zero rows.
    """
    if m.algebra != n.algebra:
        raise ValueError("modules live over different algebras")
    degs = sorted(set(m.degrees()) | set(n.degrees()))
    offsets, total = {}, 0
    for d in degs:
        offsets[d] = total
        total += m.dim(d) * n.dim(d)
    if total == 0:
        return [], []
    cols, height = [0] * total, 0
    for gi, g in enumerate(m.algebra.gen_degrees):
        for d in degs:
            width, rows = m.dim(d), n.dim(d + g)
            if not (width and rows):
                continue
            at = offsets[d]
            for an_col in n.columns(gi, d):
                spread = sum(1 << (height + R * width) for R in range(rows) if an_col >> R & 1)
                for c in range(width):
                    cols[at + c] ^= spread << c
                at += width
            am = m.actions.get(gi, {}).get(d)  # None where g acts as zero
            if am is not None:
                above, stride = offsets[d + g], m.dim(d + g)
                for k, am_row in enumerate(am.transpose().columns):
                    for r in range(rows):
                        cols[above + r * stride + k] ^= am_row << (height + r * width)
            height += rows * width
    blocks = [(d, offsets[d], n.dim(d), m.dim(d)) for d in degs if m.dim(d) and n.dim(d)]
    return kernel_basis(F2Matrix(height, total, tuple(cols))), blocks


def _unpack(v: int, blocks) -> dict[int, F2Matrix]:
    """The matrices phi_d of the packed solution v."""
    return {d: F2Matrix.from_rows([(v >> (off + r * cols)) & ((1 << cols) - 1)
                                   for r in range(rows)], cols)
            for d, off, rows, cols in blocks}


def hom_space(m: GradedModule, n: GradedModule) -> list[dict[int, F2Matrix]]:
    """A basis of the space of degree-0 module maps m -> n.

    Each element is a dict degree -> matrix of phi_d, unpacked from the
    kernel basis of the intertwining system an @ phi_d = phi_(d+g) @ am
    (one unknown per matrix entry); degrees where m or n is zero are left
    out.
    """
    sols, blocks = _hom_solutions(m, n)
    return [_unpack(v, blocks) for v in sols]


def _invertibility_test(blocks):
    """v -> whether every (square) block of the packed map v has full rank.

    A block's rows are contiguous from its offset, so its packed bits key
    a memo of verdicts shared by all blocks of its shape; a new key puts
    the rows into an F2Span, which stops at a dependent one.
    """
    memos: dict[tuple[int, int], dict[int, bool]] = {}
    layout = [(off, (1 << rows * cols) - 1, rows, cols, memos.setdefault((rows, cols), {}))
              for _, off, rows, cols in blocks]

    def invertible(v: int) -> bool:
        for off, mask, rows, cols, memo in layout:
            bits = (v >> off) & mask
            ok = memo.get(bits)
            if ok is None:
                span, row_mask = F2Span(), (1 << cols) - 1
                ok = memo[bits] = all(span.add((bits >> (r * cols)) & row_mask)
                                      for r in range(rows))
            if not ok:
                return False
        return True

    return invertible


def _restrict(sols: list[int], blocks) -> tuple[int, list[int]] | None:
    """The combinations of sols with a 1 in every 1x1 block, as (base, dirs).

    An isomorphism has a 1 in each 1x1 block, at bit off: one linear
    equation sum_i c_i bit_off(sols[i]) = 1 over the coefficients c_i.
    One ``eliminate`` of the system's columns decides it.  When the
    all-ones right-hand side is outside their span the equations are
    inconsistent and the result is None.  Otherwise the combinations are
    exactly base + span(dirs): base is the solution supported on the
    greedy columns, so its free coefficients are all 0, and dirs has the
    kernel vector of each free column f, the solution with c_f = 1 and
    the other free ones 0, xor base.  With no 1x1 block, base is 0 and
    dirs is sols.
    """
    ones = [off for _, off, rows, cols in blocks if rows == cols == 1]
    span, kernel = eliminate([sum(((v >> off) & 1) << e for e, off in enumerate(ones))
                              for v in sols])
    residual, base = span.reduce((1 << len(ones)) - 1)
    if residual:
        return None
    return apply_cols(sols, base), [apply_cols(sols, v) for v in kernel]


#: odd multiplier of the scrambled sweep: the 64-bit golden-ratio constant
_GOLDEN = 0x9E3779B97F4A7C15


def _candidates(sols: list[int], budget: int, seed: int):
    """iso_test's candidate maps as packed ints, in search order.

    Single solutions come first.  When all 2^h - 1 masks fit in the budget
    they are swept in a scrambled order, (i * M) mod 2^h for i = 1 ..
    2^h - 1 with M = ``_GOLDEN`` masked to h bits and made odd, which
    visits every nonzero mask once (the singles are skipped).  Otherwise
    ``budget`` masks are drawn by Random(seed).getrandbits(h).  A mask's
    candidate is the xor of one entry per byte of the mask, from 256-entry
    tables of the xors of each 8 consecutive solutions.
    """
    yield from sols
    h = len(sols)
    # tables[j][b] = xor of sols[8j + i] over the set bits i of the byte b
    tables = []
    for lo in range(0, h, 8):
        table = [0]
        for v in sols[lo:lo + 8]:
            table += [t ^ v for t in table]
        tables.append(table)
    nbytes = len(tables)
    full = (1 << h) - 1
    if full <= budget:
        step = (_GOLDEN & full) | 1
        masks = ((i * step) & full for i in range(1, full + 1))
        masks = (mask for mask in masks if mask & (mask - 1))
    else:
        rng = Random(seed)
        masks = (rng.getrandbits(h) for _ in range(budget))
    for mask in masks:
        v = 0
        for table, b in zip(tables, mask.to_bytes(nbytes, "little")):
            v ^= table[b]
        if v:
            yield v


#: iso_test's probing: how many masks it may try, and the seed that draws them
ISO_BUDGET = 40000
ISO_SEED = 2024


def iso_test(m: GradedModule, n: GradedModule) -> ModuleMap | None:
    """Search for an isomorphism m -> n.

    Cheap invariants (graded dimensions, Margolis homology, free ranks)
    rule out quickly.  Otherwise the intertwining system is solved once,
    into packed solutions s_1..s_h, and the search runs over their
    combinations: a candidate is invertible when each degree's block has
    independent rows, and only the winner is unpacked into a verified
    ModuleMap.  An isomorphism has a 1 in every 1x1 block, so the search
    is restricted first (``_restrict``) to the affine subspace base +
    span(d_1..d_k) of maps that do; when it is empty the answer is a
    certified negative (None) with no search.  Base comes first, then
    base xor each single d_i, then base xor the combinations of the
    ``_candidates`` masks over d_1..d_k.  When all 2^k - 1 masks fit in
    ``ISO_BUDGET`` they are all swept, and finding none is a certified
    negative.  Otherwise ``ISO_BUDGET`` masks are drawn by
    Random(ISO_SEED).getrandbits(k); if none is invertible it raises
    InconclusiveIsomorphism rather than guess.  SO8modSp2's self-duality
    (h = 22, k = 18 after its ten 1x1 blocks) is decided by this seeded
    probing, after 54 candidates.

    Each block's verdict is memoised on its packed bits for the duration
    of the call, since blocks are small and their values recur.
    """
    if m.algebra != n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims() != n.dims():
        return None
    if m.is_zero():
        return ModuleMap.zero(m, n)
    for s in _available_primitives(m.algebra):
        if margolis_homology(m, s) != margolis_homology(n, s):
            return None
    if m.algebra.basis_dim(m.algebra.top_degree) == 1:
        dm, dn = reduce_module(m), reduce_module(n)
        if dm.free_part != dn.free_part or \
           dm.reduced_part.dims() != dn.reduced_part.dims():
            return None
    sols, blocks = _hom_solutions(m, n)
    restricted = _restrict(sols, blocks)
    if restricted is None:
        return None
    base, dirs = restricted
    invertible = _invertibility_test(blocks)
    for v in chain((0,), _candidates(dirs, ISO_BUDGET, ISO_SEED)):
        if invertible(base ^ v):
            return ModuleMap(m, n, _unpack(base ^ v, blocks))
    k = len(dirs)
    if (1 << k) - 1 <= ISO_BUDGET:
        return None
    raise InconclusiveIsomorphism(
        f"no isomorphism found within budget (hom space dimension {len(sols)}, "
        f"{k} with a 1 in every 1x1 block)")


def selfdual_shift(m: GradedModule, stable: bool = False) -> int | None:
    """The d with dual(m) ~ m[-d], if any; stable compares reduced parts."""
    work = reduce_module(m).reduced_part if stable else m
    if work.is_zero():
        return 0
    dm = dual(work)
    ddims = dm.dims()
    candidates = []
    span = (min(dm.degrees()) - max(work.degrees()),
            max(dm.degrees()) - min(work.degrees()))
    for k in range(span[0], span[1] + 1):
        if {d + k: v for d, v in work.dims().items()} == ddims:
            candidates.append(k)
    for k in candidates:
        if iso_test(dm, suspend(work, k)) is not None:
            return -k
    return None


# ---------------------------------------------------------------------------
# Exactness


def check_exact(maps: list[ModuleMap]) -> tuple[int, int, str] | None:
    """Check image = kernel at each interior module of a composable chain.

    maps[i] goes from M_{i+1} to M_i.  Returns None when exact, otherwise
    (interior index, degree, reason) for the first failure.
    """
    for i in range(len(maps) - 1):
        outgoing = maps[i]          # M_{i+1} -> M_i
        incoming = maps[i + 1]      # M_{i+2} -> M_{i+1}
        if incoming.target != outgoing.source:
            raise ValueError(f"maps {i} and {i + 1} are not composable")
        if not outgoing.compose(incoming).is_zero():
            return (i, 0, "composite is nonzero")
        mid = outgoing.source
        for d in mid.degrees():
            # a block that is not stored is zero, of rank 0
            out, inc = outgoing.mats.get(d), incoming.mats.get(d - incoming.shift)
            rk_out = 0 if out is None else rank(out)
            rk_in = 0 if inc is None else rank(inc)
            if rk_out + rk_in != mid.dim(d):
                return (i, d, f"im+ker mismatch: rank in {rk_in} + rank out "
                              f"{rk_out} != dim {mid.dim(d)}")
    return None
