"""Minimal free resolutions over a finite subalgebra, and bigraded Ext charts.

A resolution stage is a free module recorded by its generator degrees and
generator images in the stage below (stage 0: in the module).  The resolver
follows R. R. Bruner, *Calculation of large Ext modules* (1989): for each
stage s and internal degree t in ascending order it forms the images
d(b.g) of the stage-s basis slots (g, b) already present in degree t and
runs one elimination of [d_s | I].  That single pass gives an echelon basis
of im d_s and a basis of ker d_s, which is kept for stage s+1.  The new
stage-s generators in degree t are the vectors of ker d_{s-1} (for s = 0:
the module's degree-t basis) that do not reduce to zero modulo that image;
each new generator's image is independent of everything before it, so it
leaves ker d_s unchanged.  A stage is only walked up to the last degree
where the kernel below is nonzero plus the algebra's top degree; above that
it has no slots.

Slot images need no products of algebra basis elements.  The generators
g_k of the algebra generate it (for A(n), the Sq^{2^k}: Milnor 1958), so
every basis element of positive degree is b = sum_k g_k.c_k, and

    d(b.g) = sum_k g_k . d(c_k.g),

where the d(c_k.g) are slot images of lower degree, already computed, and
g_k acts on the stage below through cached columns: the module's action
matrices at stage 0, the algebra's left products g_k.b_j on a free stage.

Generator counts by (stage, internal degree) are the Ext dimensions;
``ext_groups`` recomputes them (for any coefficient module) by honest rank
arithmetic on the Hom complex, which doubles as an independent check of the
minimal chart.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .f2linalg import F2Matrix, apply_cols, eliminate, rref, vec_support
from .module import GradedModule, basis_columns
from .steenrod import SubHopfAlgebra
from .value import Value


class FreeStage:
    """A free module with basis slots (generator, algebra basis index),
    together with its differential into ``below`` (the stage under it, or
    the module being resolved): ``images[g]`` is d(g), and d(b.g) for every
    slot follows from the left decompositions b = sum_k g_k.c_k.

    In degree t the slots of each generator form one block, ordered like
    ``algebra.basis_by_degree``, so slot (g, b) sits at the block's offset
    plus ``algebra.degree_position[b]``.
    """

    def __init__(self, below: "FreeStage | GradedModule"):
        self.below = below
        self.algebra: SubHopfAlgebra = below.algebra
        self.gen_degrees: list[int] = []
        self.images: list[int] = []
        self._basis: dict[int, list[tuple[int, int]]] = {}
        self._offsets: dict[int, list[int]] = {}     # t -> block offset per generator
        self._diff: dict[int, list[int]] = {}        # t -> d of each basis(t) slot
        self._columns: dict[tuple[int, int], list[int]] = {}
        self._act_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def add_generator(self, degree: int, image: int):
        """A generator with d(g) = image, in a degree >= every earlier
        generator's.  Its one slot of that degree comes last."""
        gi = len(self.gen_degrees)
        self.gen_degrees.append(degree)
        self.images.append(image)
        self._columns.clear()
        self._act_cache.clear()
        for t in [t for t in self._basis if t > degree]:
            del self._basis[t], self._offsets[t]
        for t in [t for t in self._diff if t > degree]:
            del self._diff[t]
        if degree in self._basis:
            self._offsets[degree].append(len(self._basis[degree]))
            self._basis[degree].append((gi, self.algebra.unit_index))
        if degree in self._diff:
            self._diff[degree].append(image)

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def basis(self, t: int) -> list[tuple[int, int]]:
        """Basis slots (generator index, algebra basis index) in degree t."""
        if t not in self._basis:
            gds, by_degree = self.gen_degrees, self.algebra.basis_by_degree
            lo = bisect_left(gds, t - self.algebra.top_degree)
            hi = bisect_right(gds, t)
            lst, offsets = [], [0] * lo
            for gi in range(lo, hi):
                offsets.append(len(lst))
                lst += [(gi, bi) for bi in by_degree(t - gds[gi])]
            offsets += [len(lst)] * (len(gds) - hi)
            self._basis[t] = lst
            self._offsets[t] = offsets
        return self._basis[t]

    def dim(self, t: int) -> int:
        return len(self.basis(t))

    def columns(self, k: int, t: int) -> list[int]:
        """Columns of the algebra's generator k on the degree-t slots:
        g_k.(b.g) = (g_k.b).g, one shifted left product per slot."""
        key = (k, t)
        hit = self._columns.get(key)
        if hit is None:
            left, target = self.algebra.left, t + self.algebra.gen_degrees[k]
            self.basis(target)
            offsets = self._offsets[target]
            hit = [left(k, bi) << offsets[gi] for gi, bi in self.basis(t)]
            self._columns[key] = hit
        return hit

    def act(self, t: int, alg_idx: int, vec: int) -> int:
        """Left action of algebra basis element alg_idx on a degree-t vector,
        through its columns from the left decomposition."""
        return apply_cols(basis_columns(self, alg_idx, t, self._act_cache), vec)

    def differential(self, t: int) -> list[int]:
        """d(b.g) for the degree-t slots (g, b), in ``basis(t)`` order.

        Lower degrees are filled in first, since d(b.g) = sum_k g_k.d(c_k.g)
        reads the slot images d(c_k.g) of degree t - deg(g_k).
        """
        if t not in self._diff:
            for u in range(min(self.gen_degrees + [t]), t + 1):
                if u not in self._diff:
                    self._diff[u] = self._differential_in(u)
        return self._diff[t]

    def _differential_in(self, t: int) -> list[int]:
        alg = self.algebra
        unit, decomposition = alg.unit_index, alg.left_decomposition
        images = self.images
        # per generator g_k of the algebra, filled on first use: the slot
        # images of degree t - deg(g_k), their block offsets, and the
        # columns of g_k on that degree of the stage below
        lower = [None] * len(alg.gen_degrees)
        out = []
        for gi, bi in self.basis(t):
            if bi == unit:
                out.append(images[gi])
                continue
            img = 0
            for k, c in decomposition(bi):
                entry = lower[k]
                if entry is None:
                    u = t - alg.gen_degrees[k]
                    entry = lower[k] = (self._diff[u], self._offsets[u],
                                        self.below.columns(k, u))
                diff, offsets, cols = entry
                off = offsets[gi]
                part = 0
                while c:
                    low = c & -c
                    part ^= diff[off + low.bit_length() - 1]
                    c ^= low
                if part:
                    img ^= apply_cols(cols, part)
            out.append(img)
        return out


class MinimalResolution(Value):
    """A truncated minimal free resolution ... -> P_1 -> P_0 -> m -> 0."""

    __slots__ = ("module", "s_max", "t_max", "stages")

    def __init__(self, module: GradedModule, s_max: int, t_max: int,
                 stages: list[FreeStage]):
        self._assign(module, s_max, t_max, stages)

    @property
    def algebra(self) -> SubHopfAlgebra:
        return self.module.algebra

    def generator_degrees(self, s: int) -> list[int]:
        return list(self.stages[s].gen_degrees)

    def diff_matrix(self, s: int, t: int) -> F2Matrix:
        """Matrix of the s-th differential in internal degree t.

        Columns run over the stage-s basis; rows over the stage-(s-1) basis
        (s=0: over the module's degree-t basis).
        """
        stage = self.stages[s]
        return F2Matrix.from_cols(stage.differential(t), stage.below.dim(t))

    def chart(self) -> "ExtChart":
        entries: dict[tuple[int, int], int] = {}
        for s, stage in enumerate(self.stages):
            for t in stage.gen_degrees:
                if t <= self.t_max:
                    entries[(s, t)] = entries.get((s, t), 0) + 1
        return ExtChart(entries=entries, s_max=self.s_max, t_max=self.t_max)

    def is_minimal(self) -> bool:
        """Differentials land in (augmentation ideal) * (previous stage)."""
        unit = self.algebra.unit_index
        for stage in self.stages[1:]:
            for img, t in zip(stage.images, stage.gen_degrees):
                for slot in vec_support(img):
                    _, bi = stage.below.basis(t)[slot]
                    if bi == unit:
                        return False
        return True

    def check_exactness(self) -> bool:
        """d o d = 0 and homology vanishes at interior stages (trust region).

        Stage s-1 has slots only from its first generator degree (never
        below the module's bottom degree) through its last plus the
        algebra's top degree; elsewhere both checks hold trivially.
        """
        top = self.algebra.top_degree
        for s in range(1, len(self.stages)):
            degrees = self.stages[s - 1].gen_degrees
            if not degrees:
                continue
            for t in range(degrees[0], min(self.t_max, degrees[-1] + top) + 1):
                m1 = self.diff_matrix(s - 1, t)
                m2 = self.diff_matrix(s, t)
                prod = m1 @ m2
                if not prod.is_zero():
                    return False
                if rref(m2)[1] != m1.cols - rref(m1)[1]:
                    return False
        return True


def minimal_resolution(m: GradedModule, s_max: int, t_max: int) -> MinimalResolution:
    """Resolve m minimally up to homological degree s_max and internal
    degree t_max; kernels are covered by new generators in ascending degree.

    Only nonzero kernels are kept, and each stage stops at the last one
    below plus the algebra's top degree, past which it has no slots.
    """
    top = m.algebra.top_degree
    # ker d_{-1} is all of m, so stage 0 covers m's degree-t basis
    kernels = {t: [1 << i for i in range(m.dim(t))] for t in m.degrees()}
    stages: list[FreeStage] = []
    below: FreeStage | GradedModule = m
    for _ in range(s_max + 1):
        stage = FreeStage(below)
        next_kernels: dict[int, list[int]] = {}
        if kernels:
            for t in range(min(kernels), min(t_max, max(kernels) + top) + 1):
                image, kernel = eliminate(stage.differential(t))
                if kernel:
                    next_kernels[t] = kernel
                for w in kernels.get(t, ()):
                    if image.add(w):
                        stage.add_generator(t, w)
        stages.append(stage)
        kernels = next_kernels
        below = stage
    return MinimalResolution(module=m, s_max=s_max, t_max=t_max, stages=stages)


# ---------------------------------------------------------------------------
# Charts


class ExtChart(Value):
    """Bigraded dimensions (s, t) -> dim, with the computed window recorded.

    Every entry with t <= t_max is complete: the degree-t part of a stage
    (its slots, the kernel below it and the new generators) only involves
    generators of degree <= t, so a minimal resolution computed through
    t_max has found all of them.
    """

    __slots__ = ("entries", "s_max", "t_max")

    def __init__(self, entries: dict[tuple[int, int], int], s_max: int, t_max: int):
        self._assign(entries, s_max, t_max)

    def get(self, s: int, t: int) -> int:
        return self.entries.get((s, t), 0)

    def items(self):
        return sorted((k, v) for k, v in self.entries.items() if v)

    def window_equal(self, other: "ExtChart", s_max: int, t_max: int,
                     shift: tuple[int, int] = (0, 0)) -> bool:
        """Entrywise equality self(s, t) == other(s + ds, t + dt) on a window."""
        ds, dt = shift
        lows = [t for (_, t) in self.entries] + [t - dt for (_, t) in other.entries]
        t_lo = min(lows + [0]) - 1
        for s in range(0, s_max + 1):
            for t in range(t_lo, t_max + 1):
                if self.get(s, t) != other.get(s + ds, t + dt):
                    return False
        return True


def ext_chart(m: GradedModule, s_max: int, t_max: int) -> ExtChart:
    """Ext^{s,t}(m, F2) dimensions, read off a minimal resolution."""
    return minimal_resolution(m, s_max, t_max).chart()


def ext_groups(m: GradedModule, n: GradedModule, s_max: int,
               t_max: int, resolution: MinimalResolution | None = None) -> ExtChart:
    """Ext^{s,t}(m, n) via rank arithmetic on the Hom complex Hom(P_*, n).

    Independent of minimality bookkeeping: with phi lowering internal degree
    by t, C^{s,t} = (+)_g n_{deg(g) - t} over stage-s generators, and the
    differential is composition with d_{s+1}.  Ext = ker/im dimensionwise.
    """
    if m.algebra != n.algebra:
        raise ValueError("modules live over different algebras")
    n_degs = n.degrees()
    if not n_degs:
        return ExtChart({}, s_max, t_max)
    res_t = t_max + max(0, max(n_degs))
    res = resolution
    if res is None or len(res.stages) <= s_max + 1 or res.t_max < res_t:
        res = minimal_resolution(m, s_max + 1, res_t)

    def hom_basis(s: int, t: int) -> list[tuple[int, int, int]]:
        out = []
        for gi, gd in enumerate(res.stages[s].gen_degrees):
            for i in range(n.dim(gd - t)):
                out.append((gi, gd - t, i))
        return out

    def delta(s: int, t: int) -> F2Matrix:
        """C^{s,t} -> C^{s+1,t}: phi |-> phi o d_{s+1}."""
        src = hom_basis(s, t)
        dst = hom_basis(s + 1, t)
        pos = {key: k for k, key in enumerate(src)}
        stage = res.stages[s + 1]
        prev = res.stages[s]
        data = [0] * len(dst)
        for r, (gj, nd, i) in enumerate(dst):
            img = stage.images[gj]  # in prev at degree gd_j
            gd_j = stage.gen_degrees[gj]
            for slot in vec_support(img):
                gi, bi = prev.basis(gd_j)[slot]
                # (delta phi)(gen_j) component i of n_{gd_j - t} reads
                # phi(gen_i) at the basis vectors c that bi sends onto i
                src_deg = prev.gen_degrees[gi] - t
                for c, col in enumerate(n.basis_op(bi, src_deg)):
                    if col >> i & 1:
                        data[r] ^= 1 << pos[gi, src_deg, c]
        return F2Matrix.from_rows(data, len(src))

    entries: dict[tuple[int, int], int] = {}
    gen_degrees_all = [gd for st_ in res.stages for gd in st_.gen_degrees]
    if not gen_degrees_all:
        return ExtChart({}, s_max, t_max)
    t_lo = min(gd for gd in gen_degrees_all) - max(n_degs)
    t_hi = min(t_max, max(gen_degrees_all) - min(n_degs))
    for t in range(t_lo, t_hi + 1):
        prev_rank = 0
        for s in range(0, s_max + 1):
            dim_c = len(hom_basis(s, t))
            rk = rref(delta(s, t))[1]
            val = (dim_c - rk) - prev_rank
            if val < 0:
                raise ArithmeticError(
                    f"negative Ext dimension at (s,t)=({s},{t}); "
                    "the Hom complex is inconsistent")
            if val:
                entries[(s, t)] = val
            prev_rank = rk
    return ExtChart(entries, s_max, t_max)


# ---------------------------------------------------------------------------
# Yoneda pairing


def yoneda_action(res: MinimalResolution, s0: int, t0: int,
                  cocycle: dict[int, int] | int = 0) -> dict[tuple[int, int], F2Matrix]:
    """Chain-map lift of a stage-s0 cocycle of a resolution of the trivial
    module, and the induced pairing Ext^{s,t} -> Ext^{s+s0,t+t0}.

    ``cocycle`` selects stage-s0 generators in degree t0: an index into
    those generators, or a dict {generator index: bit}.  The lift
    Phi_k : P_{k+s0} -> P_k lowers internal degree by t0; Phi_k(g) solves
    d(Phi_k(g)) = Phi_{k-1}(d(g)), with Phi_{k-1} read off a free stage over
    P_{k-1} whose generators carry the previous lifts.  Returns matrices
    between the chart bases (generators in the given bidegrees).
    """
    if res.module.dims() != {0: 1}:
        raise ValueError("Yoneda lifts are implemented against a resolution "
                         "of the trivial module")
    if not 0 <= s0 < len(res.stages):
        raise ValueError(f"s0 = {s0} is not a stage of the resolution "
                         f"(0..{len(res.stages) - 1})")
    gens_s0 = [gi for gi, gd in enumerate(res.stages[s0].gen_degrees) if gd == t0]
    if not gens_s0:
        raise ValueError(f"no stage-{s0} generators in degree {t0}")
    if isinstance(cocycle, int):
        if not 0 <= cocycle < len(gens_s0):
            raise ValueError(f"cocycle index {cocycle} is out of range: stage "
                             f"{s0} has {len(gens_s0)} generators in degree {t0}")
        cocycle = {gens_s0[cocycle]: 1}
    for gi in cocycle:
        if gi not in gens_s0:
            raise ValueError(f"cocycle key {gi!r} is not a stage-{s0} generator "
                             f"in degree {t0} (those are {gens_s0})")

    # lifts[k][g] = Phi_k(g) in stage k, degree deg(g) - t0; Phi_0 sends a
    # selected generator to bit 0, the unit slot of P_0 in degree 0
    lifts = [[cocycle.get(gi, 0) & 1 for gi in range(res.stages[s0].rank)]]
    for k in range(1, len(res.stages) - s0):
        phi = FreeStage(res.stages[k - 1])
        for gd, image in zip(res.stages[k + s0 - 1].gen_degrees, lifts[-1]):
            phi.add_generator(gd - t0, image)
        source, spans, cur = res.stages[k + s0], {}, []
        for gd, image in zip(source.gen_degrees, source.images):
            t = gd - t0
            if t not in spans:
                spans[t] = eliminate(res.stages[k].differential(t))[0]
            residual, x = spans[t].reduce(apply_cols(phi.differential(t), image))
            if residual:
                raise ArithmeticError("chain-map lift failed; resolution is "
                                      "not exact in the needed range")
            cur.append(x)
        lifts.append(cur)

    unit = res.algebra.unit_index
    out: dict[tuple[int, int], F2Matrix] = {}
    for (s, t), _ in res.chart().items():
        s2, t2 = s + s0, t + t0
        if s2 >= len(res.stages) or t2 > res.t_max:
            continue
        src_gens = [gi for gi, gd in enumerate(res.stages[s].gen_degrees) if gd == t]
        src_col = {gi: j for j, gi in enumerate(src_gens)}
        slots = res.stages[s].basis(t)
        data = []
        for gu, gd in enumerate(res.stages[s2].gen_degrees):
            if gd != t2:
                continue
            rowbits = 0
            for slot in vec_support(lifts[s][gu]):
                gi, bi = slots[slot]
                if bi == unit:
                    rowbits |= 1 << src_col[gi]
            data.append(rowbits)
        out[(s, t)] = F2Matrix.from_rows(data, len(src_gens))
    return out


# ---------------------------------------------------------------------------
# Rendering


def render_chart(c: ExtChart, format: str = "ascii") -> str:
    """Deterministic chart renderings: ascii dots, csv rows, or bare svg."""
    if format == "csv":
        lines = ["s,t,dim"]
        for (s, t), v in c.items():
            lines.append(f"{s},{t},{v}")
        return "\n".join(lines) + "\n"
    xs = [t - s for (s, t), v in c.items()]
    ys = [s for (s, t), v in c.items()]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0, 0)
    x_lo = min(x_lo, 0)
    y_hi = max(ys) if ys else 0
    if format == "ascii":
        lines = []
        for s in range(y_hi, -1, -1):
            cells = []
            for x in range(x_lo, x_hi + 1):
                v = c.get(s, x + s)
                cells.append("  " if v == 0 else (f" {v}" if v < 10 else " +"))
            lines.append(f"{s:3d} |" + "".join(cells))
        lines.append("    +" + "--" * (x_hi - x_lo + 1))
        marks = []
        for x in range(x_lo, x_hi + 1):
            marks.append(f"{x:2d}" if x % 5 == 0 else "  ")
        lines.append("     " + "".join(marks))
        return "\n".join(lines) + "\n"
    if format == "svg":
        unit = 20
        w = (x_hi - x_lo + 2) * unit
        h = (y_hi + 2) * unit
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                 f'height="{h}" viewBox="0 0 {w} {h}">']
        for x in range(x_lo, x_hi + 2):
            px = (x - x_lo) * unit + unit // 2
            parts.append(f'<line x1="{px}" y1="0" x2="{px}" y2="{h}" '
                         'stroke="#ccc" stroke-width="1"/>')
        for y in range(0, y_hi + 2):
            py = h - (y * unit + unit // 2)
            parts.append(f'<line x1="0" y1="{py}" x2="{w}" y2="{py}" '
                         'stroke="#ccc" stroke-width="1"/>')
        for (s, t), v in c.items():
            px = (t - s - x_lo) * unit + unit // 2
            py = h - (s * unit + unit // 2)
            parts.append(f'<circle cx="{px}" cy="{py}" r="3"/>')
            if v > 1:
                parts.append(f'<text x="{px + 4}" y="{py - 4}" '
                             f'font-size="8">{v}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown chart format {format!r}")
