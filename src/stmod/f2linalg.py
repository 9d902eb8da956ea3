"""Dense exact linear algebra over GF(2).

Columns are packed into Python integers (bit i of column j is the (i, j)
entry), so a matrix times a vector is one XOR per set bit of the vector
and matrices of a few thousand rows stay cheap.  Everything here is total
on matrices with zero rows or zero columns.

There is one elimination routine, ``F2Span``: echelon vectors keyed by
their lowest set bit, each carrying an int combo of the vectors it was
built from.  ``eliminate`` feeds it a matrix's columns in order, and
``rref``, ``kernel_basis`` and ``solve_matrix`` are built on that one
pass.  Every answer is canonical, so none depends on the order of the
rows: a reduced vector is the unique element of its coset with no pivot
bit set, ``rref`` pivots are the leftmost nonzero columns, a solution is
the unique one supported on the greedy (leftmost) independent columns,
and the kernel vector of each other column f is e_f plus the unique
combination of greedy columns left of f.
"""

from __future__ import annotations

from collections.abc import Iterable

from .value import Value


def vec_support(v: int) -> list[int]:
    """Indices of the nonzero entries of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def apply_cols(cols, vec: int) -> int:
    """The image of vec under the map with these packed columns: the sum
    of the columns at the set bits of vec."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= cols[low.bit_length() - 1]
        vec ^= low
    return out


class F2Matrix(Value, frozen=True):
    """Immutable GF(2) matrix with bit-packed columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: tuple[int, ...]):
        if len(columns) != cols:
            raise ValueError("column count does not match cols")
        if columns and (min(columns) < 0 or max(columns) >> rows):
            raise ValueError("column has entries outside the row range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    # written out: Value's generic versions are slower in the inner loops
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.rows, self.cols, self.columns)
                    == (other.rows, other.cols, other.columns))
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.columns))

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, (0,) * cols)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[int], cols: int) -> "F2Matrix":
        """Build a matrix from packed row vectors (bit j = column j): the
        transpose of the matrix with these columns."""
        rows = tuple(rows)
        return F2Matrix(cols, len(rows), rows).transpose()

    @staticmethod
    def from_cols(cols: Iterable[int], rows: int) -> "F2Matrix":
        """Build a matrix from packed column vectors."""
        cols = tuple(cols)
        return F2Matrix(rows, len(cols), cols)

    def to_dense(self) -> list[list[int]]:
        return [[(c >> i) & 1 for c in self.columns] for i in range(self.rows)]

    def transpose(self) -> "F2Matrix":
        out = [0] * self.rows
        for j, c in enumerate(self.columns):
            while c:
                low = c & -c
                out[low.bit_length() - 1] |= 1 << j
                c ^= low
        return F2Matrix(self.cols, self.rows, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = self.columns
        return F2Matrix(self.rows, other.cols,
                        tuple(apply_cols(cols, c) for c in other.columns))


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

    Returns (reduced, rank, pivot_cols).  Pivots are the greedy (leftmost
    independent) columns, so the output is canonical for the row space.
    Row r of the reduced matrix has its leading 1 in pivot column p_r, and
    its entry in every other column f is bit p_r of f's kernel vector,
    which writes column f as a sum of pivot columns.
    """
    kernel = {v.bit_length() - 1: v for v in eliminate(m.columns)[1]}
    pivots = [j for j in range(m.cols) if j not in kernel]
    row_of = {p: 1 << r for r, p in enumerate(pivots)}
    cols = []
    for j in range(m.cols):
        v = kernel.get(j)
        if v is None:
            cols.append(row_of[j])
            continue
        c = 0
        for p in vec_support(v ^ (1 << j)):
            c |= row_of[p]
        cols.append(c)
    return F2Matrix(m.rows, m.cols, tuple(cols)), len(pivots), pivots


def rank(m: F2Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: F2Matrix) -> list[int]:
    """Basis (packed vectors over the columns) of {x : m @ x = 0}: one
    vector per non-pivot column f, e_f plus the unique combination of
    pivot columns left of f that sums to column f."""
    return eliminate(m.columns)[1]


def solve_matrix(m: F2Matrix, b: F2Matrix) -> F2Matrix | None:
    """Solve m @ X = b columnwise from one elimination of m, each column's
    solution supported on the leftmost independent columns of m; None when
    any column is inconsistent."""
    if m.rows != b.rows:
        raise ValueError("row mismatch in matrix solve")
    span = eliminate(m.columns)[0]
    cols = []
    for bcol in b.columns:
        residual, x = span.reduce(bcol)
        if residual:
            return None
        cols.append(x)
    return F2Matrix(m.cols, b.cols, tuple(cols))
