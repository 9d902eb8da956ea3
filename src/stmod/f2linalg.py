"""Dense exact linear algebra over GF(2).

Rows are packed into Python integers (bit j of row i is the (i, j)
entry), so row operations are single XORs and matrices of a few
thousand columns stay cheap.  Everything here is total on matrices
with zero rows or zero columns, and all results are deterministic:
``rref`` pivots are always the leftmost nonzero column, while
``eliminate`` keys each echelon row by its highest set bit, which one
``int.bit_length`` call finds.
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
    def from_dense(entries: list[list[int]], cols: int | None = None) -> "F2Matrix":
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return F2Matrix(len(entries), cols, tuple(vec_from_bits(row) for row in entries))

    @staticmethod
    def from_cols(cols: list[int], rows: int) -> "F2Matrix":
        """Build a matrix from packed column vectors."""
        data = []
        for i in range(rows):
            r = 0
            for j, c in enumerate(cols):
                if (c >> i) & 1:
                    r |= 1 << j
            data.append(r)
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
        return [self.col(j) for j in range(self.cols)]

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
        data = []
        for r in self.data:
            acc = 0
            rr = r
            j = 0
            while rr:
                if rr & 1:
                    acc ^= other.data[j]
                rr >>= 1
                j += 1
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

    def stack_rows(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in row stack")
        return F2Matrix(self.rows + other.rows, self.cols, self.data + other.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)


def rref(m: F2Matrix) -> tuple[F2Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (reduced, rank, pivot_cols).  Pivots are the leftmost
    nonzero columns, so the output is canonical for the row space.
    """
    work = list(m.data)
    pivot_cols: list[int] = []
    rank = 0
    for j in range(m.cols):
        sel = -1
        for i in range(rank, m.rows):
            if (work[i] >> j) & 1:
                sel = i
                break
        if sel < 0:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(m.rows):
            if i != rank and (work[i] >> j) & 1:
                work[i] ^= work[rank]
        pivot_cols.append(j)
        rank += 1
        if rank == m.rows:
            break
    # rows below the rank are zero, but sweep upward cleaning already done
    return F2Matrix(m.rows, m.cols, tuple(work)), rank, pivot_cols


def rank(m: F2Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: F2Matrix) -> list[int]:
    """Basis (packed vectors over the columns) of {x : m @ x = 0}."""
    reduced, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        v = 1 << f
        for r, p in enumerate(pivots):
            if (reduced.data[r] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def reduce_leading(table: dict[int, tuple[int, int]], vec: int,
                   combo: int = 0) -> tuple[int, int]:
    """Reduce vec by an echelon table {leading bit: (row, combo)}.

    Each row is keyed by its highest set bit, so every step clears the
    current leading bit of vec; returns the residual (zero exactly when vec
    lies in the span of the rows) and combo xor the combos of the rows used.
    """
    while vec:
        hit = table.get(vec.bit_length() - 1)
        if hit is None:
            break
        vec ^= hit[0]
        combo ^= hit[1]
    return vec, combo


def eliminate(cols: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """One elimination of the augmented matrix [cols | I].

    Returns an echelon table of the column span, in the form read by
    ``reduce_leading`` (each row carrying the combination of columns that
    produced it), and a basis of the kernel {x : sum of x_j cols[j] = 0} as
    vectors packed over the columns.
    """
    table: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, col in enumerate(cols):
        vec, combo = reduce_leading(table, col, 1 << j)
        if vec:
            table[vec.bit_length() - 1] = (vec, combo)
        else:
            kernel.append(combo)
    return table, kernel


def solve(m: F2Matrix, b: int) -> int | None:
    """One solution x of m @ x = b, or None when the system is inconsistent."""
    if b >> m.rows:
        raise ValueError("right-hand side has entries outside the row range")
    aug_rows = tuple(r | (((b >> i) & 1) << m.cols) for i, r in enumerate(m.data))
    aug = F2Matrix(m.rows, m.cols + 1, aug_rows)
    reduced, _, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = 0
    for r, p in enumerate(pivots):
        if (reduced.data[r] >> m.cols) & 1:
            x |= 1 << p
    return x


def solve_matrix(m: F2Matrix, b: F2Matrix) -> F2Matrix | None:
    """Solve m @ X = b columnwise; None when any column is inconsistent."""
    if m.rows != b.rows:
        raise ValueError("row mismatch in matrix solve")
    cols = []
    for j in range(b.cols):
        x = solve(m, b.col(j))
        if x is None:
            return None
        cols.append(x)
    return F2Matrix.from_cols(cols, m.cols)


class F2Span:
    """Incrementally maintained echelon basis of a subspace of GF(2)^n.

    Optionally carries a payload per basis row (a frozenset combined by
    symmetric difference), used to remember how each echelon vector was
    assembled from the vectors fed in.
    """

    def __init__(self):
        self._rows: list[tuple[int, int, frozenset]] = []  # (pivot, vec, payload)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def vectors(self) -> list[int]:
        return [v for _, v, _ in self._rows]

    def rows(self) -> list[tuple[int, int, frozenset]]:
        return list(self._rows)

    def reduce(self, vec: int, payload: frozenset = frozenset()) -> tuple[int, frozenset]:
        """Reduce vec against the span; returns (residual, combined payload).

        Rows are kept mutually reduced (each pivot occurs in exactly one
        row), so a single pass suffices.
        """
        for piv, row, pay in self._rows:
            if (vec >> piv) & 1:
                vec ^= row
                payload = payload ^ pay
        return vec, payload

    def add(self, vec: int, payload: frozenset = frozenset()) -> bool:
        """Add vec to the span.  Returns True when the dimension grew."""
        residual, pay = self.reduce(vec, payload)
        if residual == 0:
            return False
        piv = (residual & -residual).bit_length() - 1
        self._rows = [
            (p, r ^ residual, q ^ pay) if (r >> piv) & 1 else (p, r, q)
            for p, r, q in self._rows
        ]
        self._rows.append((piv, residual, pay))
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0
