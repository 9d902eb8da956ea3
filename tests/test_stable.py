"""Free-summand stripping, loop functors, isomorphism search, exactness."""

import hashlib
import re
from functools import cache, reduce
from itertools import chain
from operator import xor
from random import Random

import pytest
from hypothesis import given, settings, strategies as hst

from stmod import fixtures, module as md, stable, steenrod as st
from stmod.f2linalg import F2Matrix, kernel_basis, rank, solve_matrix, vec_support
from stmod.module import (aug_ideal_module, direct_sum, dual, hopf_quotient,
                          margolis_homology, quotient_by_left_ideal,
                          regular_module, suspend, tensor, trivial_module,
                          ModuleMap)
from stmod.resolve import ext_chart, ext_groups
from stmod.stable import (InconclusiveIsomorphism, _candidates, _unpack, check_exact,
                          hom_space, iso_test, loop, oloop, reduce_module,
                          selfdual_shift)
from stmod.steenrod import sq


# ---------------------------------------------------------------------------
# reduce


def test_reduce_regular(a1_regular):
    dec = reduce_module(a1_regular)
    assert dec.free_part == (0,)
    assert dec.reduced_part.is_zero()
    assert dec.verify()


def test_reduce_trivial(f2_a1):
    dec = reduce_module(f2_a1)
    assert dec.free_part == ()
    assert dec.reduced_part.dims() == {0: 1}


def test_reduce_joker_square(joker):
    dec = reduce_module(tensor(joker, joker))
    assert dec.free_part == (-4, -3, -2)
    assert dec.reduced_part.dims() == {0: 1}
    assert dec.verify()


def test_reduce_idempotent(joker, hz):
    for m in (tensor(joker, joker), tensor(hz, hz)):
        dec = reduce_module(m)
        again = reduce_module(dec.reduced_part)
        assert again.free_part == ()
        assert again.reduced_part.dims() == dec.reduced_part.dims()


@pytest.mark.parametrize("d, col, message", [
    (3, 0, "Sq^1 at degree 3 on a:f3_0"),
    (0, 4, "Sq^1 at degree 0 on b:c0_0"),
    # Sq^2 then fails on both a:f0_1 and a:f0_2; the first is named
    (2, 1, "Sq^2 at degree 0 on a:f0_1"),
])
def test_broken_isomorphism_names_its_column(joker, d, col, message):
    iso = reduce_module(tensor(joker, joker)).isomorphism
    mats = dict(iso.mats)
    data = list(mats[d].transpose().columns)
    data[0] ^= 1 << col
    mats[d] = F2Matrix.from_rows(data, mats[d].cols)
    with pytest.raises(ValueError, match=re.escape(f"map does not commute with {message}")):
        ModuleMap(iso.source, iso.target, mats)


def test_reduce_witnesses_are_module_maps(hz):
    m = tensor(hz, hz)
    dec = reduce_module(m)
    iso = dec.isomorphism
    assert iso.target is m
    assert iso._equivariance_defect() is None
    assert iso.source.dims() == m.dims()
    assert dec.verify()


def test_margolis_vanishing_iff_free_on_fixtures():
    for name in fixtures.fixture_names():
        m = fixtures.load_fixture(name)
        if m.algebra.name != "A(1)":
            continue
        dec = reduce_module(m)
        vanish = (margolis_homology(m, 0) == {} and margolis_homology(m, 1) == {})
        assert vanish == dec.reduced_part.is_zero(), name


def integral_rank_degrees(m):
    """Each degree d, repeated rank(Lambda: m_d -> m_(d+e)) times."""
    lam = m.algebra.integral()
    e = m.algebra.top_degree
    return tuple(d for d in m.degrees()
                 for _ in range(rank(F2Matrix.from_cols(m.element_op(lam, d), m.dim(d + e)))))


def a2_mod_a1():
    return hopf_quotient(st.A(2), st.A(1, 2))


def test_free_part_is_the_rank_of_the_integral():
    a21 = a2_mod_a1()
    mods = [a21, tensor(a21, a21), tensor(tensor(a21, a21), a21)]
    for name in fixtures.fixture_names():
        m = fixtures.load_fixture(name)
        mods += [m, tensor(m, m)] if m.total_dim <= 8 else [m]
    for m in mods:
        dec = reduce_module(m)
        assert dec.free_part == integral_rank_degrees(m), m.meta["name"]
        assert dec.verify(), m.meta["name"]


SPLIT_CASES = ["F2", "Joker", "HZ", "kU", "QuestionMark", "DI1", "A1modP11", "A2//A1"]


@settings(max_examples=20)
@given(hst.sampled_from(SPLIT_CASES), hst.integers(-3, 3))
def test_added_free_summand_splits_off(name, k):
    m = a2_mod_a1() if name == "A2//A1" else fixtures.load_fixture(name)
    base = reduce_module(m)
    dec = reduce_module(direct_sum(m, suspend(regular_module(m.algebra), k)))
    assert dec.free_part == tuple(sorted(base.free_part + (k,)))
    assert dec.verify()
    assert iso_test(dec.reduced_part, base.reduced_part) is not None


def test_reduce_at_a2_scale(A2):
    cases = [(regular_module(A2), (0,)),
             (tensor(aug_ideal_module(A2), a2_mod_a1()), (4, 6, 7, 10, 11, 13, 17))]
    for m, free in cases:
        dec = reduce_module(m)
        assert dec.free_part == free
        assert dec.verify()
        assert dec.reduced_part.total_dim == m.total_dim - 64 * len(free)
        red = dec.reduced_part
        assert not any(c for d in red.degrees() for c in red.element_op(A2.integral(), d))


def test_reduce_augmentation_ideal_square_at_a2(A2):
    """I(A(2))^(x)2, 3,969-dimensional: the free part is the rank of the
    integral, the reduced part has no free summand left, and Margolis
    homology, which free summands do not see, is unchanged."""
    ideal = aug_ideal_module(A2)
    m = tensor(ideal, ideal)
    dec = reduce_module(m)
    assert len(dec.free_part) == 60
    assert dec.free_part == integral_rank_degrees(m)
    assert dec.reduced_part.total_dim == 129 == m.total_dim - 64 * 60
    assert dec.verify()
    assert reduce_module(dec.reduced_part).free_part == ()
    for s in range(3):
        assert margolis_homology(dec.reduced_part, s) == margolis_homology(m, s), s


def test_reduce_fills_no_basis_table(A2):
    """Lambda acts by its word and the free columns come from a free stage,
    so the module's basis_op and element_op tables stay empty."""
    m = tensor(aug_ideal_module(A2), a2_mod_a1())
    assert reduce_module(m).verify()
    assert m._op_cache == {} and m._elt_cache == {}


def decomposition_digest(dec):
    """Free part, reduced labels and action columns, isomorphism matrices
    and the verdict of ``verify``, hashed."""
    red, iso = dec.reduced_part, dec.isomorphism
    blob = repr((dec.free_part, sorted(red.labels.items()),
                 sorted((gi, sorted((d, mat.rows, mat.columns) for d, mat in per.items()))
                        for gi, per in red.actions.items()),
                 sorted((d, mat.rows, mat.columns) for d, mat in iso.mats.items()),
                 dec.verify()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _power(m, k):
    return reduce(tensor, [m] * k)


def _fixture_tensor(a, b):
    return tensor(fixtures.load_fixture(a), fixtures.load_fixture(b))


# name -> (pinned digest, module)
DIGEST_CASES = {
    "Joker": ("bd0d3d9d6ad6f370", lambda: fixtures.load_fixture("Joker")),
    "SO8modSp2": ("4a3724c1f67fc90d", lambda: fixtures.load_fixture("SO8modSp2")),
    "Joker^2": ("abd47f314618af91", lambda: _fixture_tensor("Joker", "Joker")),
    "A1modSq1Sq2Sq1(x)Joker": ("a0583daab29ed88e",
                               lambda: _fixture_tensor("A1modSq1Sq2Sq1", "Joker")),
    "I(A1)(x)HZ": ("44544d3eb3d63bc9",
                   lambda: tensor(aug_ideal_module(st.A(1)), fixtures.load_fixture("HZ"))),
    "D(I(A1))(x)QuestionMark": ("212ee9a4e2170249",
                                lambda: tensor(dual(aug_ideal_module(st.A(1))),
                                               fixtures.load_fixture("QuestionMark"))),
    "Joker^3(x)HZ": ("4a38a2830828113e",
                     lambda: tensor(_power(fixtures.load_fixture("Joker"), 3),
                                    fixtures.load_fixture("HZ"))),
    "I(A2)(x)A2//A1": ("0857df97ce81ddf5",
                       lambda: tensor(aug_ideal_module(st.A(2)), a2_mod_a1())),
    "D(I(A2))(x)A2//A1": ("fa842898c0f987ae",
                          lambda: tensor(dual(aug_ideal_module(st.A(2))), a2_mod_a1())),
    "E(2)": ("d0ba23716ab0eb19", lambda: regular_module(st.E(2))),
    "I(E(1))^2": ("65d8e14393323a01", lambda: _power(aug_ideal_module(st.E(1)), 2)),
    "loop^3 Joker": ("3d4cd0c66913d42b",
                     lambda: loop(loop(loop(fixtures.load_fixture("Joker"))))),
}


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_decomposition_digest_is_pinned(name):
    """The whole decomposition, basis choices and isomorphism matrices
    included, is pinned on representative modules over A(1), A(2) and
    E(1)/E(2)."""
    digest, build = DIGEST_CASES[name]
    assert decomposition_digest(reduce_module(build())) == digest


# ---------------------------------------------------------------------------
# loops


def test_loop_supports(joker):
    assert loop(joker).dims() == {1: 1, 3: 1, 4: 1}
    assert oloop(joker).dims() == {-4: 1, -3: 1, -1: 1}
    assert loop(loop(joker)).dims() == {2: 1, 4: 1, 5: 1, 6: 1, 7: 1}
    assert oloop(oloop(joker)).dims() == {-7: 1, -6: 1, -5: 1, -4: 1, -2: 1}


def test_loop_inverse(joker, hz):
    for m in (joker, hz):
        rt = oloop(loop(m))
        assert iso_test(rt, reduce_module(m).reduced_part) is not None


def test_loop_matches_quotient_presentations(joker):
    for name, build in (
        ("OmegaJoker", loop(joker)),
        ("OmegaInvJoker", oloop(joker)),
        ("Omega2Joker", loop(loop(joker))),
        ("Omega2InvJoker", oloop(oloop(joker))),
    ):
        assert iso_test(build, fixtures.load_fixture(name)) is not None, name


def test_loop_commutes_with_dual(joker):
    # loop(dual(m)) ~ dual(oloop(m))
    hz = fixtures.load_fixture("HZ")
    for m in (joker, hz):
        assert iso_test(loop(dual(m)), dual(oloop(m))) is not None


def test_loop_over_other_algebras():
    e1 = st.E(1)
    f2 = trivial_module(e1)
    l1 = loop(f2)
    assert l1.total_dim == 3  # the augmentation ideal of E(1) is its syzygy


@pytest.mark.parametrize("name, k, s_max, t_max", [
    ("A2//A1", 1, 5, 30),
    ("A2//A1", 2, 4, 30),
    ("F2 over A2", 2, 5, 30),
    ("A3//A2", 1, 4, 40),
])
def test_loop_shifts_the_ext_chart(name, k, s_max, t_max):
    """Omega^k m is the k-th syzygy of a minimal resolution of m with its
    free summands stripped, so Ext^(s,t)(Omega^k m) = Ext^(s+k,t)(m)."""
    m = {"A2//A1": a2_mod_a1,
         "F2 over A2": lambda: trivial_module(st.A(2)),
         "A3//A2": lambda: hopf_quotient(st.A(3), st.A(2, 3))}[name]()
    looped = reduce(lambda x, _: loop(x), range(k), m)
    chart = ext_chart(looped, s_max, t_max)
    assert chart.window_equal(ext_chart(m, s_max + k, t_max), s_max, t_max, shift=(k, 0))


# ---------------------------------------------------------------------------
# iso_test


def test_iso_identity(joker):
    f = iso_test(joker, joker)
    assert f is not None and f.is_bijective()


def test_iso_distinguishes_suspension(joker):
    assert iso_test(joker, suspend(joker, 1)) is None


def test_iso_uses_margolis_invariants(A1):
    # same dimensions in every degree, different Margolis homology
    m1 = direct_sum(trivial_module(A1), suspend(trivial_module(A1), 1))
    a0 = quotient_by_left_ideal(A1, [sq(2, 1), st.milnor_primitive(1, 1)])
    assert m1.dims() == a0.dims()
    assert iso_test(m1, a0) is None


def test_iso_requires_same_algebra(f2_a1):
    with pytest.raises(ValueError):
        iso_test(f2_a1, trivial_module(st.E(1)))


def test_zero_modules_isomorphic(A1):
    z1 = md.zero_module(A1)
    z2 = md.zero_module(A1)
    assert iso_test(z1, z2) is not None


def test_hom_space_of_trivial(f2_a1):
    assert len(hom_space(f2_a1, f2_a1)) == 1


def reference_search(m, n, budget=40000, seed=2024):
    """iso_test's candidate order, written out on the public hom_space.

    The 1x1 blocks give one equation each over the basis coefficients,
    sum_i c_i phi_i[d] = 1.  Base is the solution supported on the leftmost
    independent columns (``solve_matrix``) and the directions are the kernel
    basis, one per free column.  Base comes first, then base plus each
    single direction, then base plus the direction masks: (i * M) mod 2^k
    for i = 1 .. 2^k - 1 (M the golden-ratio constant masked to k bits and
    made odd, singles skipped) when all 2^k - 1 fit in the budget, else
    Random(seed).getrandbits(k) draws.  Returns the data of the first
    invertible candidate per degree, its direction mask (0 for base) and
    the branch taken."""
    basis = hom_space(m, n)
    h = len(basis)
    ones = [d for d, mat in basis[0].items() if (mat.rows, mat.cols) == (1, 1)]
    eqs = F2Matrix.from_rows([sum(b[d].columns[0] << i for i, b in enumerate(basis))
                              for d in ones], h)
    base = solve_matrix(eqs, F2Matrix(len(ones), 1, ((1 << len(ones)) - 1,)))
    if base is None:
        return None, None, True
    base = base.columns[0]
    dirs = kernel_basis(eqs)
    k = len(dirs)
    sweep = (1 << k) - 1 <= budget
    masks = [0] + [1 << i for i in range(k)]
    if sweep:
        step = (0x9E3779B97F4A7C15 % 2 ** k) | 1
        masks += [mask for mask in ((i * step) % 2 ** k for i in range(1, 2 ** k))
                  if mask & (mask - 1)]
    else:
        rng = Random(seed)
        masks += [mask for mask in (rng.getrandbits(k) for _ in range(budget)) if mask]
    for mask in masks:
        coeffs = reduce(xor, (dirs[i] for i in vec_support(mask)), base)
        picked = [b for i, b in enumerate(basis) if coeffs >> i & 1]
        data = {d: tuple(reduce(xor, cols, 0) for cols in zip(*(b[d].columns for b in picked)))
                if picked else (0,) * basis[0][d].cols
                for d in basis[0]}
        if all(rank(F2Matrix.from_cols(cols, len(cols))) == len(cols)
               for cols in data.values()):
            return data, mask, sweep
    return None, None, sweep


def map_data(f):
    return {d: mat.columns for d, mat in f.mats.items()}


@cache
def comparison_set():
    """The pairs the isomorphism search is checked on: each fixture's
    dual against the suspensions of it with matching dimensions, the
    tensor products x (x) y and y (x) x of the A(1) fixtures of dimension
    at most 8, and every fixture against itself."""
    mods = [fixtures.load_fixture(name) for name in fixtures.fixture_names()]
    duals, swaps = [], []
    for m in mods:
        dm = dual(m)
        for k in range(min(dm.degrees()) - max(m.degrees()),
                       max(dm.degrees()) - min(m.degrees()) + 1):
            if {d + k: v for d, v in m.dims().items()} == dm.dims():
                duals.append((dm, suspend(m, k)))
    small = [m for m in mods if m.algebra.name == "A(1)" and m.total_dim <= 8]
    for i, x in enumerate(small):
        for y in small[i + 1:]:
            swaps.append((tensor(x, y), tensor(y, x)))
    return duals, swaps, [(m, m) for m in mods]


def test_comparison_set_sizes():
    assert [len(pairs) for pairs in comparison_set()] == [14, 276, 27]


def test_iso_search_matches_reference_on_full_sweep():
    # the swaps whose restricted space is probed are checked as well
    swept = beyond_singles = 0
    for a, b in comparison_set()[1]:
        want, mask, sweep = reference_search(a, b)
        assert want is not None
        assert map_data(iso_test(a, b)) == want
        swept += sweep
        beyond_singles += sweep and mask & (mask - 1) != 0
    assert swept >= 250 and beyond_singles >= 5


def test_iso_search_finds_a_map_iff_one_exists():
    # order-free: brute force over every combination of the hom basis
    checked = 0
    for a, b in chain(*comparison_set()):
        sols, blocks = stable._hom_solutions(a, b)
        if len(sols) > 12:
            continue
        invertible = stable._invertibility_test(blocks)
        v, exists = 0, invertible(0)
        for i in range(1, 1 << len(sols)):
            v ^= sols[(i & -i).bit_length() - 1]  # Gray code order
            if invertible(v):
                exists = True
                break
        f = iso_test(a, b)
        assert (f is not None) == exists
        assert f is None or f.is_bijective()
        checked += 1
    assert checked >= 250


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.sampled_from([(1, 1), (1, 1), (2, 2), (3, 3)]), min_size=1, max_size=8),
       hst.lists(hst.integers(0, 2 ** 72 - 1), max_size=10))
def test_restriction_is_the_maps_with_every_1x1_bit_set(shapes, sols):
    blocks, off = [], 0
    for d, (rows, cols) in enumerate(shapes):
        blocks.append((d, off, rows, cols))
        off += rows * cols
    ones = [o for _, o, rows, cols in blocks if rows == cols == 1]
    combos = {reduce(xor, (sols[i] for i in vec_support(mask)), 0)
              for mask in range(1 << len(sols))}
    want = {v for v in combos if all(v >> o & 1 for o in ones)}
    got = stable._restrict(sols, blocks)
    assert (got is None) == (not want)
    if got is not None:
        base, dirs = got
        assert {reduce(xor, (dirs[i] for i in vec_support(mask)), base)
                for mask in range(1 << len(dirs))} == want


def so8_dual_pair():
    m = fixtures.load_fixture("SO8modSp2")
    return dual(m), suspend(m, -18)


def test_iso_search_matches_reference_on_probing():
    a, b = so8_dual_pair()
    assert len(hom_space(a, b)) == 22
    want, mask, sweep = reference_search(a, b)
    assert not sweep and mask & (mask - 1)
    assert map_data(iso_test(a, b)) == want


def test_iso_search_out_of_budget_is_inconclusive(monkeypatch):
    a, b = so8_dual_pair()
    monkeypatch.setattr(stable, "ISO_BUDGET", 0)
    with pytest.raises(InconclusiveIsomorphism, match="dimension 22"):
        iso_test(a, b)


@settings(max_examples=80, deadline=None)
@given(hst.lists(hst.integers(0, 2 ** 12), min_size=1, max_size=24),
       hst.integers(0, 2 ** 32), hst.integers(0, 400))
def test_probing_candidates_are_the_support_xors(sols, seed, budget):
    # few-bit solutions repeat sums, so some draws are 0 and are skipped
    h = len(sols)
    budget = min(budget, 2 ** h - 2)
    rng = Random(seed)
    want = list(sols)
    for _ in range(budget):
        v = reduce(xor, (sols[i] for i in vec_support(rng.getrandbits(h))), 0)
        if v:
            want.append(v)
    assert list(_candidates(sols, budget, seed)) == want


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.integers(0, 4), min_size=1, max_size=4),
       hst.lists(hst.integers(0, 2 ** 40), min_size=1, max_size=200))
def test_memoised_block_verdicts_match_rank(sizes, maps):
    blocks, off = [], 0
    for d, k in enumerate(sizes):
        blocks.append((d, off, k, k))
        off += k * k
    invertible = stable._invertibility_test(blocks)
    # repeated maps and narrow blocks make most verdicts memo hits
    for v in maps + maps[::-1]:
        want = all(rank(mat) == mat.rows for mat in _unpack(v, blocks).values())
        assert invertible(v) == want


def test_hom_space_elements_are_module_maps(joker, hz):
    a, b = so8_dual_pair()
    ku = fixtures.load_fixture("kU")
    pairs = [(joker, joker), (hz, tensor(hz, ku)), (tensor(hz, ku), hz),
             (a, b), (regular_module(joker.algebra), joker)]
    for m, n in pairs:
        basis = hom_space(m, n)
        assert basis
        for mats in basis:
            assert ModuleMap(m, n, mats)._equivariance_defect() is None


def test_hom_dimension_is_ext_00():
    """dim Hom(m, n) from the intertwining system is Ext^{0,0}(m, n) from
    the Hom complex of m's resolution, which shares no code with it: for
    every pair of fixtures over one algebra, n suspended by k = -2..2, and
    three larger pairs, Joker (x) SO8modSp2 against its swap, D(SO8modSp2)
    against SO8modSp2[-18] and Joker^2 against itself."""
    mods = [fixtures.load_fixture(name) for name in fixtures.fixture_names()]
    pairs = [(m, suspend(n, k)) for m in mods for n in mods if m.algebra == n.algebra
             for k in range(-2, 3)]
    joker, so8 = fixtures.load_fixture("Joker"), fixtures.load_fixture("SO8modSp2")
    pairs += [(tensor(joker, so8), tensor(so8, joker)),
              (dual(so8), suspend(so8, -18)), (tensor(joker, joker),) * 2]
    dims = [len(hom_space(m, n)) for m, n in pairs]
    assert dims == [ext_groups(m, n, 0, 0).get(0, 0) for m, n in pairs]
    assert dims[-3:] == [181, 22, 7]
    assert len(pairs) == 3138 and sum(map(bool, dims)) == 944


# ---------------------------------------------------------------------------
# self-duality


def test_selfdual_shifts_match_displayed_values(joker, hz, a1_regular):
    assert selfdual_shift(joker) == 0
    assert selfdual_shift(hz) == 5
    assert selfdual_shift(fixtures.load_fixture("kU")) == 2
    assert selfdual_shift(a1_regular) == 6
    assert selfdual_shift(fixtures.load_fixture("A1modP11")) == 3


def test_question_mark_not_selfdual():
    qm = fixtures.load_fixture("QuestionMark")
    assert selfdual_shift(qm) is None
    assert selfdual_shift(qm, stable=True) is None
    assert iso_test(dual(qm), suspend(qm, -3)) is None


def test_hopf_quotient_shift_formula(A1, A2):
    pairs = [(A1, st.A(0, 1)), (A1, st.E(1)), (A1, fixtures.algebra_P11()),
             (A2, st.A(1, 2)), (A2, st.E(2)), (st.A(3), st.A(2, 3))]
    for h, k in pairs:
        q = hopf_quotient(h, k)
        want = h.top_degree - k.top_degree
        assert selfdual_shift(q) == want, (h.name, k.name)


#: (selfdual_shift(M), selfdual_shift(M, stable=True)) for every fixture
SELFDUAL_SHIFTS = {
    "A0": (1, 0), "A1": (6, 0), "A1modP11": (3, 3), "A1modSq1Sq2": (4, 4),
    "A1modSq1Sq2Sq1": (None, None), "A1modSq1Sq2Sq1Sq2": (None, None),
    "A1modSq1Sq2Sq1_Sq2Sq1Sq2": (None, None), "A1modSq1Sq2_Sq1Sq2Sq1": (None, None),
    "A1modSq1Sq2_Sq2Sq1": (None, None), "A1modSq2P11": (1, 1),
    "A1modSq2Sq1": (None, None), "A1modSq2Sq1Sq2": (None, None),
    "A1modSq2Sq1_Sq2Sq1Sq2": (None, None), "DI1": (None, None), "E1": (4, 0),
    "F2": (0, 0), "HZ": (5, 5), "I1": (None, None), "Joker": (0, 0),
    "Omega2InvJoker": (None, None), "Omega2Joker": (None, None),
    "OmegaInvJoker": (None, None), "OmegaJoker": (None, None),
    "QuestionMark": (None, None), "QuestionMarkUpside": (None, None),
    "SO8modSp2": (18, 18), "kU": (2, 2),
}


def test_selfdual_table_covers_the_fixtures():
    assert sorted(SELFDUAL_SHIFTS) == sorted(fixtures.fixture_names())


@pytest.mark.parametrize("name", sorted(SELFDUAL_SHIFTS))
def test_selfdual_shifts_are_pinned(name):
    m = fixtures.load_fixture(name)
    assert (selfdual_shift(m), selfdual_shift(m, stable=True)) == SELFDUAL_SHIFTS[name]


# ---------------------------------------------------------------------------
# exactness


def test_check_exact_identity_sequence(joker):
    from stmod.module import ModuleMap
    z = md.zero_module(joker.algebra)
    seq = [ModuleMap.zero(joker, z), ModuleMap.identity(joker),
           ModuleMap.zero(z, joker)]
    assert check_exact(seq) is None


def test_check_exact_detects_failure(A1, joker):
    from stmod.module import ModuleMap
    z = md.zero_module(A1)
    # 0 <- J <- 0 is not exact at J
    seq = [ModuleMap.zero(joker, z), ModuleMap.zero(z, joker)]
    failure = check_exact(seq)
    assert failure is not None


def test_bott_sequence_exact():
    maps = fixtures.pad_with_zero_ends(fixtures.bott_sequence())
    assert check_exact(maps) is None


def test_p11_sequence_exact():
    assert check_exact(fixtures.p11_periodic_sequence()) is None


@pytest.mark.parametrize("build, digest", [
    (fixtures.bott_sequence, "115686452beccee6"),
    (fixtures.p11_periodic_sequence, "6813e37f1f218b47"),
], ids=["bott", "p11"])
def test_sequence_maps_are_pinned(build, digest):
    # check_exact compares ranks only, so this pins the matrices themselves
    data = [[(d, m.rows, m.columns) for d, m in sorted(f.mats.items())] for f in build()]
    assert hashlib.sha256(repr(data).encode()).hexdigest()[:16] == digest


def test_tensor_commutative_associative_up_to_iso(joker, hz):
    a, b = joker, hz
    assert iso_test(tensor(a, b), tensor(b, a)) is not None
    ku = fixtures.load_fixture("kU")
    lhs = tensor(tensor(ku, ku), joker)
    rhs = tensor(ku, tensor(ku, joker))
    assert iso_test(lhs, rhs) is not None


# ---------------------------------------------------------------------------
# degenerate inputs: every functor is total on the zero module


def test_functors_total_on_zero_module(A1):
    z = md.zero_module(A1)
    assert reduce_module(z).free_part == ()
    assert reduce_module(z).reduced_part.is_zero()
    assert loop(z).is_zero()
    assert oloop(z).is_zero()
    assert selfdual_shift(z) == 0
    assert tensor(z, trivial_module(A1)).is_zero()
    assert dual(z).is_zero()
    assert suspend(z, 4).is_zero()
