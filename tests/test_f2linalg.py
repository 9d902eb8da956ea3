"""GF(2) kernels: rref/kernel/solve_matrix against independent oracles."""

import random

import pytest
from hypothesis import given, strategies as hst

from stmod.f2linalg import (F2Matrix, F2Span, apply_cols, eliminate, kernel_basis,
                            rank, rref, solve_matrix, vec_support)


# ---------------------------------------------------------------------------
# oracles


def span_of(vecs: list[int]) -> set[int]:
    """Every sum of a subset of vecs, by enumeration."""
    out = {0}
    for v in vecs:
        out |= {u ^ v for u in out}
    return out


def solve_column(m: F2Matrix, b: int) -> int | None:
    """``solve_matrix`` on the one-column right-hand side b, as a packed
    vector, or None when it is inconsistent."""
    x = solve_matrix(m, F2Matrix(m.rows, 1, (b,)))
    return None if x is None else x.columns[0]


def greedy_columns(m: F2Matrix) -> list[int]:
    """Columns not in the span of the columns to their left, by enumeration."""
    cols = m.columns
    return [j for j in range(m.cols) if cols[j] not in span_of(cols[:j])]


def supported_on(v: int, allowed: list[int]) -> bool:
    return all(j in allowed for j in vec_support(v))


def naive_rank(dense: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination on plain lists."""
    m = [row[:] for row in dense]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % 2), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_matrix(rng, rows, cols):
    return F2Matrix.from_rows([rng.getrandbits(cols) for _ in range(rows)], cols)


# ---------------------------------------------------------------------------


def test_rref_identity():
    m = F2Matrix.identity(3)
    reduced, rk, pivots = rref(m)
    assert reduced == m
    assert rk == 3
    assert pivots == [0, 1, 2]


def test_rref_zero():
    reduced, rk, pivots = rref(F2Matrix.zero(2, 5))
    assert rk == 0 and pivots == []


def test_rref_rank_matches_naive_oracle():
    rng = random.Random(20)
    for _ in range(25):
        m = random_matrix(rng, 20, 20)
        assert rank(m) == naive_rank(m.to_dense())


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 9, 13)
        reduced, _, _ = rref(m)
        again, _, _ = rref(reduced)
        assert again == reduced


def test_kernel_identity_empty():
    assert kernel_basis(F2Matrix.identity(5)) == []


def test_kernel_zero_full():
    basis = kernel_basis(F2Matrix.zero(3, 4))
    assert len(basis) == 4
    span = F2Span()
    for v in basis:
        assert span.add(v)


def test_kernel_exhaustive_oracle():
    rng = random.Random(99)
    m = random_matrix(rng, 12, 16)
    basis = kernel_basis(m)
    # oracle: enumerate all 2^16 vectors
    truth = {v for v in range(1 << 16) if apply_cols(m.columns, v) == 0}
    span = F2Span()
    for v in basis:
        assert apply_cols(m.columns, v) == 0
        assert span.add(v), "kernel basis is dependent"
    assert len(truth) == 1 << len(basis)
    assert all(span.reduce(v)[0] == 0 for v in truth)


def test_solve_identity():
    m = F2Matrix.identity(6)
    assert solve_column(m, 0b101001) == 0b101001


def test_solve_zero_inconsistent():
    assert solve_column(F2Matrix.zero(3, 4), 0b010) is None


def test_solve_exhaustive_oracle():
    rng = random.Random(5)
    for _ in range(10):
        m = random_matrix(rng, 10, 10)
        b = rng.getrandbits(10)
        x = solve_column(m, b)
        truth = next((v for v in range(1 << 10) if apply_cols(m.columns, v) == b), None)
        if truth is None:
            assert x is None
        else:
            assert x is not None and apply_cols(m.columns, x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(F2Matrix.zero(3, 4), F2Matrix.zero(4, 1))


def test_solve_matrix_roundtrip():
    rng = random.Random(3)
    a = random_matrix(rng, 8, 5)
    x = F2Matrix.from_rows([rng.getrandbits(4) for _ in range(5)], 4)
    b = a @ x
    got = solve_matrix(a, b)
    assert got is not None and a @ got == b


@given(hst.integers(1, 32), hst.integers(1, 32), hst.randoms(use_true_random=False))
def test_rank_transpose(rows, cols, rnd):
    m = F2Matrix.from_rows([rnd.getrandbits(cols) for _ in range(rows)], cols)
    assert rank(m) == rank(m.transpose())


@given(hst.integers(0, 24), hst.integers(0, 24), hst.randoms(use_true_random=False))
def test_rank_nullity(rows, cols, rnd):
    m = F2Matrix.from_rows([rnd.getrandbits(cols) if cols else 0
                            for _ in range(rows)], cols)
    assert rank(m) + len(kernel_basis(m)) == cols


@given(hst.integers(0, 16), hst.integers(0, 16), hst.randoms(use_true_random=False))
def test_eliminate_against_rref_oracle(rows, cols, rnd):
    """One pass over [d | I]: image rank, kernel basis and span membership."""
    m = F2Matrix.from_rows([rnd.getrandbits(cols) if cols else 0
                            for _ in range(rows)], cols)
    table, kernel = eliminate(m.columns)
    assert table.dim == rank(m)
    assert len(kernel) == cols - rank(m)
    assert rank(F2Matrix.from_rows(kernel, cols)) == len(kernel)
    assert all(apply_cols(m.columns, x) == 0 for x in kernel)
    for row, combo in table.rows():
        assert apply_cols(m.columns, combo) == row
    probe = rnd.getrandbits(rows) if rows else 0
    inside = solve_column(m, probe) is not None
    assert (table.reduce(probe)[0] == 0) == inside


def test_vec_support_lists_set_bits():
    assert vec_support(0) == []
    assert vec_support(0b1011001) == [0, 3, 4, 6]
    assert vec_support(1 << 200 | 2) == [1, 200]


def test_matmul_and_vec_agree():
    rng = random.Random(11)
    a = random_matrix(rng, 6, 7)
    b = random_matrix(rng, 7, 4)
    prod = a @ b
    for j in range(4):
        assert prod.columns[j] == apply_cols(a.columns, b.columns[j])


def test_total_on_degenerate_shapes():
    for m in (F2Matrix.zero(0, 5), F2Matrix.zero(5, 0), F2Matrix.zero(0, 0)):
        reduced, rk, piv = rref(m)
        assert rk == 0 and piv == []
        assert kernel_basis(m) == [1 << j for j in range(m.cols)]


# ---------------------------------------------------------------------------
# the canonical choices every output depends on, against brute force


def small_matrix(rows, cols, rnd):
    return F2Matrix.from_rows([rnd.getrandbits(cols) if cols else 0
                               for _ in range(rows)], cols)


@given(hst.lists(hst.integers(0, 255), max_size=8), hst.integers(0, 255))
def test_span_reduce_residual_is_canonical(vecs, probe):
    span = F2Span()
    for v in vecs:
        span.add(v)
    members = span_of(vecs)
    residual, _ = span.reduce(probe)
    assert residual & sum(1 << p for p in span.pivots()) == 0
    assert probe ^ residual in members
    assert (residual == 0) == (probe in members)
    # the same coset from any representative, and in any insertion order
    other = F2Span()
    for v in reversed(vecs):
        other.add(v)
    assert other.pivots() == span.pivots()
    for m in members:
        assert span.reduce(probe ^ m)[0] == residual == other.reduce(probe ^ m)[0]


@given(hst.lists(hst.integers(0, 63), max_size=8))
def test_span_combo_names_the_vectors_added(vecs):
    span = F2Span()
    for i, v in enumerate(vecs):
        span.add(v, 1 << i)
    for row, combo in span.rows():
        total = 0
        for i in vec_support(combo):
            total ^= vecs[i]
        assert total == row


@given(hst.integers(0, 6), hst.integers(0, 7), hst.randoms(use_true_random=False))
def test_kernel_basis_is_canonical(rows, cols, rnd):
    """One kernel vector per non-greedy column f: e_f plus the unique
    combination of greedy columns left of f, whatever the row order."""
    m = small_matrix(rows, cols, rnd)
    greedy = greedy_columns(m)
    want = []
    for f in range(cols):
        if f in greedy:
            continue
        allowed = [j for j in greedy if j < f] + [f]
        hits = [v for v in range(1 << cols) if (v >> f) & 1
                and supported_on(v, allowed) and apply_cols(m.columns, v) == 0]
        assert len(hits) == 1
        want.append(hits[0])
    assert kernel_basis(m) == want
    shuffled = list(m.transpose().columns)
    rnd.shuffle(shuffled)
    assert kernel_basis(F2Matrix.from_rows(shuffled, cols)) == want
    assert eliminate(m.columns)[1] == want


@given(hst.integers(0, 6), hst.integers(0, 7), hst.randoms(use_true_random=False))
def test_solve_is_canonical(rows, cols, rnd):
    """The solution is the unique one supported on the greedy columns."""
    m = small_matrix(rows, cols, rnd)
    greedy = greedy_columns(m)
    b = rnd.getrandbits(rows) if rows else 0
    hits = [v for v in range(1 << cols)
            if supported_on(v, greedy) and apply_cols(m.columns, v) == b]
    assert len(hits) <= 1
    assert solve_column(m, b) == (hits[0] if hits else None)


@given(hst.integers(0, 6), hst.integers(0, 6), hst.integers(0, 4),
       hst.randoms(use_true_random=False))
def test_solve_matrix_is_solve_by_column(rows, cols, rhs, rnd):
    m = small_matrix(rows, cols, rnd)
    # half the time a consistent right-hand side, so both outcomes occur
    if rnd.random() < 0.5:
        b = m @ small_matrix(cols, rhs, rnd)
    else:
        b = small_matrix(rows, rhs, rnd)
    xs = [solve_column(m, bcol) for bcol in b.columns]
    got = solve_matrix(m, b)
    if any(x is None for x in xs):
        assert got is None
    else:
        assert got == F2Matrix.from_cols(xs, cols)


@given(hst.integers(0, 6), hst.integers(0, 6), hst.integers(0, 6),
       hst.randoms(use_true_random=False))
def test_products_and_transposes_entrywise(rows, inner, cols, rnd):
    a, b = small_matrix(rows, inner, rnd), small_matrix(inner, cols, rnd)
    da, db = a.to_dense(), b.to_dense()
    prod = a @ b
    assert (prod.rows, prod.cols) == (rows, cols)
    assert prod.to_dense() == [[sum(da[i][k] * db[k][j] for k in range(inner)) % 2
                                for j in range(cols)] for i in range(rows)]
    dense_t = [[da[i][j] for i in range(rows)] for j in range(inner)]
    t = a.transpose()
    assert (t.rows, t.cols) == (inner, rows)
    assert t.to_dense() == dense_t
    assert [[(c >> i) & 1 for i in range(rows)] for c in a.columns] == dense_t
    packed = [rnd.getrandbits(rows) if rows else 0 for _ in range(cols)]
    built = F2Matrix.from_cols(packed, rows)
    assert (built.rows, built.cols) == (rows, cols)
    assert built.to_dense() == [[(packed[j] >> i) & 1 for j in range(cols)]
                                for i in range(rows)]
    with pytest.raises(ValueError):
        F2Matrix.from_cols(packed + [1 << rows], rows)
    with pytest.raises(ValueError):
        F2Matrix.from_rows([1 << inner], inner)


@given(hst.integers(0, 6), hst.integers(0, 6), hst.randoms(use_true_random=False))
def test_constructor_checks_the_columns(rows, cols, rnd):
    packed = tuple(rnd.getrandbits(rows) if rows else 0 for _ in range(cols))
    assert F2Matrix(rows, cols, packed).columns == packed
    for j in range(cols):
        for bad in (packed[j] | 1 << rows, packed[j] | 1 << (rows + 3), -1):
            with pytest.raises(ValueError, match="outside the row range"):
                F2Matrix(rows, cols, packed[:j] + (bad,) + packed[j + 1:])
    for wrong in (packed[:-1], packed + (0,)):
        if len(wrong) != cols:
            with pytest.raises(ValueError, match="column count"):
                F2Matrix(rows, cols, wrong)


def reference_rref(m: F2Matrix) -> tuple[F2Matrix, int, list[int]]:
    """Row reduction on the rows: an F2Span over them, each echelon row
    cleared at every other pivot, zero rows below."""
    rows = m.transpose().columns
    span = F2Span()
    for row in rows:
        span.add(row)
    pivots = span.pivots()
    reduced = [(1 << p) | span.reduce(row ^ (1 << p))[0]
               for p, (row, _) in zip(pivots, span.rows())]
    reduced += [0] * (m.rows - len(reduced))
    return F2Matrix.from_rows(reduced, m.cols), len(pivots), pivots


@given(hst.integers(0, 12), hst.integers(0, 12), hst.randoms(use_true_random=False))
def test_rref_matches_row_reduction(rows, cols, rnd):
    m = small_matrix(rows, cols, rnd)
    assert rref(m) == reference_rref(m)
