"""Dense exact linear algebra over GF(2).

Rows are packed into Python integers (bit j of row i is the (i, j)
entry), so row operations are single XORs and matrices of a few
thousand columns stay cheap.  Everything here is total on matrices
with zero rows or zero columns.

There is one elimination routine, ``F2Span``: echelon rows keyed by
their lowest set bit (the leftmost column), each carrying an int combo
of the vectors it was built from.  ``eliminate``, ``rref``,
``kernel_basis``, ``solve`` and ``solve_matrix`` are built on it, and
every answer is canonical, so none depends on the order rows arrive in:
a reduced vector is the unique element of its coset with no pivot bit
set, ``rref`` pivots are the leftmost nonzero columns, a solution is the
unique one supported on the greedy (leftmost) independent columns, and
the kernel vector of each other column f is e_f plus the unique
combination of greedy columns left of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def vec_from_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 entries into a vector (bit 0 = first entry)."""
    v = 0
    for j, b in enumerate(bits):
        if b & 1:
            v |= 1 << j
    return v


def vec_bits(v: int, n: int) -> list[int]:
    """Unpack vector v into a list of n 0/1 entries."""
    return [(v >> j) & 1 for j in range(n)]


def vec_support(v: int) -> list[int]:
    """Indices of the nonzero entries of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


@dataclass(frozen=True)
class F2Matrix:
    """Immutable GF(2) matrix with bit-packed rows."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data length")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r & ~mask:
                raise ValueError("row has bits outside the column range")

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[int], cols: int) -> "F2Matrix":
        data = tuple(rows)
        return F2Matrix(len(data), cols, data)

    @staticmethod
    def from_cols(cols: list[int], rows: int) -> "F2Matrix":
        """Build a matrix from packed column vectors."""
        data = [0] * rows
        for j, c in enumerate(cols):
            if c >> rows:
                raise ValueError("column has entries outside the row range")
            while c:
                low = c & -c
                data[low.bit_length() - 1] |= 1 << j
                c ^= low
        return F2Matrix(rows, len(cols), tuple(data))

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def col(self, j: int) -> int:
        c = 0
        for i, r in enumerate(self.data):
            if (r >> j) & 1:
                c |= 1 << i
        return c

    def columns(self) -> list[int]:
        return list(self.transpose().data)

    def to_dense(self) -> list[list[int]]:
        return [vec_bits(r, self.cols) for r in self.data]

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_cols(list(self.data), self.cols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return F2Matrix(self.rows, self.cols,
                        tuple(a ^ b for a, b in zip(self.data, other.data)))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # walk only the set bits of each row that meet a nonzero row of other
        nonzero = sum(1 << i for i, row in enumerate(other.data) if row)
        data = []
        for r in self.data:
            r &= nonzero
            acc = 0
            while r:
                low = r & -r
                acc ^= other.data[low.bit_length() - 1]
                r ^= low
            data.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(data))

    def mat_vec(self, v: int) -> int:
        """Matrix times packed column vector (v indexed by columns)."""
        if v >> self.cols:
            raise ValueError("vector has entries outside the column range")
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)


class F2Span:
    """Incrementally built echelon basis of a subspace of GF(2)^n.

    Rows are stored as ``{pivot: (row, combo)}``, the pivot being the
    row's lowest set bit; rows are not reduced against each other.  A
    row's ``combo`` is the xor of the combos passed to ``add`` with the
    vectors it was built from, so a caller that passes ``1 << i`` with its
    i-th vector reads off which of its vectors sum to the row.
    """

    def __init__(self):
        self._rows: dict[int, tuple[int, int]] = {}
        self._mask = 0  # one bit per pivot

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self) -> list[tuple[int, int]]:
        """The (row, combo) pairs in ascending pivot order."""
        return [self._rows[p] for p in sorted(self._rows)]

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
        """Clear every pivot bit of vec, lowest first.

        Returns (residual, combo): the residual is the unique element of
        vec + span with no pivot bit set (zero exactly when vec lies in
        the span), and combo is xored with the combos of the rows used.
        A row only touches bits at or above its pivot, so cleared pivots
        stay clear.
        """
        hits = vec & self._mask
        while hits:
            row, c = self._rows[(hits & -hits).bit_length() - 1]
            vec ^= row
            combo ^= c
            hits = vec & self._mask
        return vec, combo

    def add(self, vec: int, combo: int = 0) -> bool:
        """Add vec to the span.  Returns True when the dimension grew."""
        residual, combo = self.reduce(vec, combo)
        if residual == 0:
            return False
        low = residual & -residual
        self._rows[low.bit_length() - 1] = (residual, combo)
        self._mask |= low
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0


def eliminate(cols: list[int]) -> tuple[F2Span, list[int]]:
    """One elimination of the augmented matrix [cols | I].

    Returns the span of the columns, each row's combo naming the columns
    that sum to it, and a basis of the kernel {x : sum of x_j cols[j] = 0}
    as vectors packed over the columns.  Column j joins the span exactly
    when it is independent of the columns before it, so every combo, and
    every kernel vector but its own free column, is supported on these
    greedy (leftmost) independent columns.
    """
    span = F2Span()
    kernel = []
    for j, col in enumerate(cols):
        vec, combo = span.reduce(col, 1 << j)
        if vec:
            span.add(vec, combo)
        else:
            kernel.append(combo)
    return span, kernel


def rref(m: F2Matrix) -> tuple[F2Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (reduced, rank, pivot_cols).  Pivots are the leftmost
    nonzero columns, so the output is canonical for the row space.
    """
    span = F2Span()
    for row in m.data:
        span.add(row)
    pivots = span.pivots()
    reduced = [(1 << p) | span.reduce(row ^ (1 << p))[0]
               for p, (row, _) in zip(pivots, span.rows())]
    reduced += [0] * (m.rows - len(reduced))
    return F2Matrix(m.rows, m.cols, tuple(reduced)), len(pivots), pivots


def rank(m: F2Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: F2Matrix) -> list[int]:
    """Basis (packed vectors over the columns) of {x : m @ x = 0}.

    One vector per non-pivot column f: e_f plus the pivot columns whose
    reduced row has a 1 in column f.
    """
    reduced, _, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for r, p in enumerate(pivots):
            if (reduced.data[r] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def solve(m: F2Matrix, b: int) -> int | None:
    """The solution x of m @ x = b supported on the leftmost independent
    columns of m, or None when the system is inconsistent."""
    if b >> m.rows:
        raise ValueError("right-hand side has entries outside the row range")
    residual, x = eliminate(m.columns())[0].reduce(b)
    return None if residual else x


def solve_matrix(m: F2Matrix, b: F2Matrix) -> F2Matrix | None:
    """Solve m @ X = b columnwise, as ``solve`` would, from one elimination
    of m; None when any column is inconsistent."""
    if m.rows != b.rows:
        raise ValueError("row mismatch in matrix solve")
    span = eliminate(m.columns())[0]
    cols = []
    for bcol in b.columns():
        residual, x = span.reduce(bcol)
        if residual:
            return None
        cols.append(x)
    return F2Matrix.from_cols(cols, m.cols)
