"""Root systems, half-sums of positive roots, and Spin-orientability checks
for adjoint representations of compact Lie group forms.

All arithmetic is exact: roots live in simple-root coordinates as integer
vectors, half-sums as Fractions, lattices as integer row generators in
fundamental-weight coordinates.  The Cartan matrix convention is
a[i][j] = <alpha_i, alpha_j^v>, so row i of the Cartan matrix is the i-th
simple root written in fundamental weights.

The decision procedure: the adjoint representation of a group form lifts
to Spin exactly when the half-sum of the positive roots is a character of
that form, i.e. lies in its lattice.
"""

from __future__ import annotations

from fractions import Fraction

from .value import Value

FAMILIES = ("A", "B", "C", "D", "G", "F", "E")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix in the standard (Bourbaki) numbering."""
    f = family.upper()
    n = rank
    if f == "A" and n >= 1:
        edges = [(i, i + 1) for i in range(1, n)]
        return _from_edges(n, edges)
    if f == "B" and n >= 2:
        a = [list(row) for row in _from_edges(n, [(i, i + 1) for i in range(1, n)])]
        a[n - 2][n - 1] = -2  # alpha_n is short
        return tuple(tuple(r) for r in a)
    if f == "C" and n >= 2:
        a = [list(row) for row in _from_edges(n, [(i, i + 1) for i in range(1, n)])]
        a[n - 1][n - 2] = -2  # alpha_n is long
        return tuple(tuple(r) for r in a)
    if f == "D" and n >= 3:
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        return _from_edges(n, edges)
    if f == "G" and n == 2:
        return ((2, -1), (-3, 2))
    if f == "F" and n == 4:
        a = [list(row) for row in _from_edges(4, [(1, 2), (2, 3), (3, 4)])]
        a[1][2] = -2  # alpha_3, alpha_4 are short
        return tuple(tuple(r) for r in a)
    if f == "E" and n in (6, 7, 8):
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)]
        return _from_edges(n, edges)
    raise ValueError(f"no root system of type {family}_{rank}")


def _from_edges(n: int, edges) -> tuple[tuple[int, ...], ...]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return tuple(tuple(r) for r in a)


POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
    "F": lambda n: 24,
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
}


class RootSystem(Value, frozen=True):
    __slots__ = ("family", "rank", "cartan", "positive_roots")

    def __init__(self, family: str, rank: int, cartan: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[tuple[int, ...], ...]):
        self._assign(family, rank, cartan, positive_roots)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"


def generate_positive_roots(family: str, rank: int) -> RootSystem:
    """Generate the positive roots by closing root strings from the simple
    roots, height by height; the count is checked against the classical
    value for the type."""
    cartan = cartan_matrix(family, rank)
    n = rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    by_height = {1: list(simple)}
    height = 1
    while by_height.get(height):
        nxt = []
        for beta in by_height[height]:
            for i in range(n):
                # <beta, alpha_i^v> = sum_k beta_k * cartan[k][i]
                pairing = sum(beta[k] * cartan[k][i] for k in range(n))
                p = 0
                while True:
                    back = tuple(beta[k] - (p + 1) * simple[i][k] for k in range(n))
                    if min(back) < 0 or back not in known:
                        break
                    p += 1
                q = p - pairing
                if q >= 1:
                    fwd = tuple(beta[k] + simple[i][k] for k in range(n))
                    if fwd not in known:
                        known.add(fwd)
                        nxt.append(fwd)
        height += 1
        if nxt:
            by_height[height] = nxt
    roots = tuple(sorted(known, key=lambda r: (sum(r), r)))
    expected = POSITIVE_ROOT_COUNTS[family.upper()](rank)
    if len(roots) != expected:
        raise ArithmeticError(
            f"{family}{rank}: generated {len(roots)} positive roots, "
            f"expected {expected}")
    return RootSystem(family.upper(), rank, cartan, roots)


def half_sum(rs: RootSystem) -> tuple[Fraction, ...]:
    """One half of the sum of the positive roots, in simple-root coordinates."""
    n = rs.rank
    total = [0] * n
    for beta in rs.positive_roots:
        for k in range(n):
            total[k] += beta[k]
    return tuple(Fraction(t, 2) for t in total)


def to_weight_coords(rs: RootSystem, root_coords) -> tuple[Fraction, ...]:
    """Convert simple-root coordinates to fundamental-weight coordinates."""
    n = rs.rank
    return tuple(sum(Fraction(root_coords[k]) * rs.cartan[k][i] for k in range(n))
                 for i in range(n))


def cartan_determinant(rs: RootSystem) -> int:
    """Determinant of the Cartan matrix = index of the root lattice in the
    weight lattice = order of the centre of the simply connected form, read
    off the Hermite normal form of the adjoint form's lattice."""
    return GroupForm.adjoint(rs).weight_index()


# ---------------------------------------------------------------------------
# Lattices and group forms


def _echelon(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Integer row echelon form on the first cols entries of rows.

    Row operations act on whole rows, so entries past cols (a transform,
    say) are carried along.  Rows are changed in place; returns the pivot
    rows in column order, each pivot positive.
    """
    work = list(rows)
    out = []
    col = 0
    while col < cols and work:
        live = [r for r in work if r[col]]
        if not live:
            col += 1
            continue
        while True:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(len(r)):
                    r[j] -= q * pivot[j]
                if r[col]:
                    done = False
            live = [pivot] + [r for r in live[1:] if r[col]]
            if done or len(live) == 1:
                break
        if pivot[col] < 0:
            for j in range(len(pivot)):
                pivot[j] = -pivot[j]
        out.append(pivot)
        work = [r for r in work if r is not pivot]
        col += 1
    return out


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF over the integers (pivots positive, echelon)."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    out = _echelon(work, cols)
    # reduce upward so entries above pivots are canonical
    for i in reversed(range(len(out))):
        pcol = next(j for j in range(cols) if out[i][j])
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                for j in range(cols):
                    out[k][j] -= q * out[i][j]
    return out


def lattice_member(gens: list[list[int]], target) -> list[int] | None:
    """Integer coordinates of target over the lattice spanned by gens,
    or None.  target entries may be Fractions; non-integral targets are
    never members."""
    tgt = list(target)
    for x in tgt:
        if Fraction(x).denominator != 1:
            return None
    return _solve_integer(gens, [int(Fraction(x)) for x in tgt])


def _solve_integer(gens: list[list[int]], tgt: list[int]) -> list[int] | None:
    """One integer solution x with x . gens = tgt (greedy over an echelon
    form carrying its transform), or None when tgt is not in the lattice."""
    cols = len(tgt)
    out = _echelon([list(r) + [1 if i == j else 0 for j in range(len(gens))]
                    for i, r in enumerate(gens)], cols)
    residue = list(tgt)
    combo = [0] * len(gens)
    for row in out:
        pcol = next(j for j in range(cols) if row[j])
        if residue[pcol] % row[pcol] != 0:
            return None
        q = residue[pcol] // row[pcol]
        for j in range(cols):
            residue[j] -= q * row[j]
        for j in range(len(gens)):
            combo[j] += q * row[cols + j]
    if any(residue):
        return None
    return combo


class GroupForm(Value, frozen=True):
    """A group form = a lattice between the root and weight lattices."""

    __slots__ = ("root_system", "lattice", "label")  # lattice: generators, weight coords

    def __init__(self, root_system: RootSystem, lattice: tuple[tuple[int, ...], ...],
                 label: str):
        self._assign(root_system, lattice, label)

    @staticmethod
    def simply_connected(rs: RootSystem) -> "GroupForm":
        n = rs.rank
        gens = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return GroupForm(rs, gens, "simply_connected")

    @staticmethod
    def adjoint(rs: RootSystem) -> "GroupForm":
        return GroupForm(rs, tuple(tuple(r) for r in rs.cartan), "adjoint")

    @staticmethod
    def custom(rs: RootSystem, gens) -> "GroupForm":
        gens = tuple(tuple(int(x) for x in g) for g in gens)
        form = GroupForm(rs, gens, "custom")
        for row in rs.cartan:
            if lattice_member([list(g) for g in gens], list(row)) is None:
                raise ValueError("lattice does not contain the root lattice")
        det = cartan_determinant(rs)
        idx = form.weight_index()
        if idx == 0 or det % idx != 0:
            raise ValueError("lattice index does not divide the Cartan determinant")
        return form

    def weight_index(self) -> int:
        """|weight lattice : this lattice| (0 when not finite index)."""
        hnf = hermite_normal_form([list(g) for g in self.lattice])
        if len(hnf) != self.root_system.rank:
            return 0
        det = 1
        for i, row in enumerate(hnf):
            pcol = next(j for j in range(len(row)) if row[j])
            det *= row[pcol]
        return abs(det)


class SpinReport(Value, frozen=True):
    """Verdict for one adjoint representation, with a checkable certificate.

    in_lattice: whether the half-sum of positive roots is a character.
    certificate: integer coordinates in the lattice basis when it is, or
    (index, value) of an offending non-integral coordinate when it is not.
    basis: coordinate system of `rho` ('simple-root' or 'weight').
    """

    __slots__ = ("group", "form", "rho", "in_lattice", "certificate", "basis")

    def __init__(self, group: str, form: str, rho: tuple[Fraction, ...], in_lattice: bool,
                 certificate: tuple, basis: str = "simple-root"):
        self._assign(group, form, rho, in_lattice, certificate, basis)

    def verify(self) -> bool:
        if self.in_lattice:
            return all(Fraction(x).denominator == 1 for x in self.certificate)
        idx, value = self.certificate
        return Fraction(value).denominator > 1 and self.rho[idx] == value


def adjoint_spin(form: GroupForm) -> SpinReport:
    """Does the adjoint representation of this form lift to Spin?

    Membership of the half-sum in the form's lattice is decided by exact
    integer linear algebra; the certificate is its integer coordinates over
    the lattice generators, or the first non-integral coordinate of rho.
    """
    rs = form.root_system
    rho = half_sum(rs)
    rho_w = to_weight_coords(rs, rho)
    combo = lattice_member([list(g) for g in form.lattice], list(rho_w))
    if combo is None:
        offend = next(((i, c) for i, c in enumerate(rho) if c.denominator != 1),
                      (0, rho[0]))
        return SpinReport(rs.name, form.label, rho, False, offend)
    return SpinReport(rs.name, form.label, rho, True, tuple(combo))


def u_n_adjoint_spin(n: int) -> SpinReport:
    """Spin liftability for the adjoint representation of the rank-n
    unitary group, via the closed form for the sum of the adjoint weights.

    The weights of the adjoint action of the diagonal torus are the
    pairwise differences of the torus characters; their sum has r-th
    coefficient n - 2r + 1, which is divisible by 2 exactly when n is odd.
    Coordinates are in the torus-character (omega) basis.
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [n - 2 * r + 1 for r in range(1, n + 1)]
    rho = tuple(Fraction(c, 2) for c in coeffs)
    offend = next(((i, c) for i, c in enumerate(rho) if c.denominator != 1), None)
    if offend is not None:
        return SpinReport(f"U({n})", "unitary", rho, False, offend, basis="weight")
    return SpinReport(f"U({n})", "unitary", rho, True,
                      tuple(int(c) for c in rho), basis="weight")
