"""Minimal resolutions, Ext charts, the Hom-complex oracle, Yoneda pairing."""

import hashlib
import random
import time

import pytest

from stmod import fixtures, module as md, resolve as rv, steenrod as st
from stmod.f2linalg import F2Matrix, F2Span, apply_cols, rref, vec_support
from stmod.module import (dual, hopf_quotient, regular_module, suspend,
                          tensor, trivial_module)
from stmod.resolve import (ext_chart, ext_groups, minimal_resolution,
                           render_chart, yoneda_action)
from word_action import expression_columns


# ---------------------------------------------------------------------------
# resolutions


def test_free_module_resolves_in_length_zero(a1_regular):
    res = minimal_resolution(a1_regular, 4, 12)
    assert res.generator_degrees(0) == [0]
    for s in range(1, 5):
        assert res.generator_degrees(s) == []


def test_p11_quotient_has_periodic_resolution(A1):
    m = hopf_quotient(A1, fixtures.algebra_P11())
    res = minimal_resolution(m, 6, 20)
    for s in range(7):
        assert res.generator_degrees(s) == [3 * s]


def test_f2_resolution_bott_generator(f2_resolution):
    assert 12 in f2_resolution.generator_degrees(4)


def test_resolution_is_minimal_and_exact(f2_resolution):
    assert f2_resolution.is_minimal()
    assert f2_resolution.check_exactness()


def test_resolution_handles_negative_degrees():
    di1 = fixtures.load_fixture("DI1")
    res = minimal_resolution(di1, 3, 6)
    assert res.generator_degrees(0) == [-6]
    assert res.check_exactness()


def test_exactness_check_ignores_degrees_without_slots(joker):
    # every stage has slots only up to its last generator plus the top
    # degree, so a huge t_max costs the check nothing
    res = minimal_resolution(joker, 3, 10**6)
    start = time.perf_counter()
    assert res.check_exactness()
    assert time.perf_counter() - start < 5


def test_a2_resolution_is_minimal_exact_and_matches_hom_oracle(A2):
    f2 = trivial_module(A2)
    res = minimal_resolution(f2, 7, 28)
    assert res.is_minimal()
    assert res.check_exactness()
    ch = res.chart()
    oracle = ext_groups(f2, f2, 6, 24, resolution=res)
    assert oracle.window_equal(ch, 6, 24) and ch.window_equal(oracle, 6, 24)


def test_ext_window_beyond_the_last_generator_changes_nothing(joker):
    far = ext_chart(joker, 3, 10 ** 6)
    assert far.t_max == 10 ** 6
    assert far.entries == ext_chart(joker, 3, 40).entries


def reference_action(stage, t, bi, vec):
    """b.v on a free stage from SteenrodElt products: (b.b_j).g_j for each
    slot (g_j, b_j) of the degree-t vector v, decomposed."""
    alg = stage.algebra
    pos = {slot: k for k, slot in enumerate(stage.basis(t + alg.basis_degrees[bi]))}
    out = 0
    for slot in vec_support(vec):
        h, j = stage.basis(t)[slot]
        for l in alg.decompose(alg.basis[bi] * alg.basis[j]):
            out ^= 1 << pos[(h, l)]
    return out


def reference_differential(res, s, t):
    """d(b.g) = b.d(g) for the stage-s slots in degree t, from products; at
    stage 0, b acts on the module through its word expression, so this
    reference never reads the left decompositions the resolver uses."""
    stage = res.stages[s]
    cols = []
    for gi, bi in stage.basis(t):
        gd, img = stage.gen_degrees[gi], stage.images[gi]
        if s == 0:
            cols.append(apply_cols(expression_columns(res.module, bi, gd), img))
        else:
            cols.append(reference_action(stage.below, gd, bi, img))
    return F2Matrix.from_cols(cols, stage.below.dim(t))


def assert_differentials_match_reference(res, stages):
    t_lo = min(res.module.degrees())
    for s in stages:
        for t in range(t_lo, res.t_max + 1):
            assert res.diff_matrix(s, t) == reference_differential(res, s, t), (s, t)


@pytest.mark.parametrize("alg, s_max, t_max", [
    (st.A(1), 8, 24), (st.A(2), 5, 20), (st.E(2), 6, 24), (st.A(3), 3, 14)], ids=str)
def test_differentials_match_product_reference(alg, s_max, t_max):
    res = minimal_resolution(trivial_module(alg), s_max, t_max)
    assert_differentials_match_reference(res, range(s_max + 1))


def test_stage_zero_differentials_match_module_action(joker, A2):
    for m in (joker, hopf_quotient(A2, st.A(1, 2))):
        assert_differentials_match_reference(minimal_resolution(m, 2, 20), [0])


def test_free_stage_action_matches_product_reference(A2):
    res = minimal_resolution(trivial_module(A2), 4, 20)
    rng = random.Random(2)
    for s in (1, 3):
        stage = res.stages[s]
        for _ in range(40):
            t = rng.randrange(0, 12)
            if not stage.dim(t):
                continue
            vec = rng.getrandbits(stage.dim(t))
            bi = rng.randrange(A2.dim)
            assert stage.act(t, bi, vec) == reference_action(stage, t, bi, vec)


# ---------------------------------------------------------------------------
# charts


def test_chart_a0_h0_tower():
    ch = ext_chart(trivial_module(st.A(0)), 5, 8)
    assert dict(ch.items()) == {(s, s): 1 for s in range(6)}


def test_chart_p11_polynomial_on_w():
    ch = ext_chart(trivial_module(fixtures.algebra_P11()), 6, 20)
    assert dict(ch.items()) == {(s, 3 * s): 1 for s in range(7)}


def test_chart_a1_mod_p11(A1):
    ch = ext_chart(hopf_quotient(A1, fixtures.algebra_P11()), 8, 24)
    assert dict(ch.items()) == {(s, 3 * s): 1 for s in range(9)}


def test_chart_f2_over_a1_values(f2_resolution):
    ch = f2_resolution.chart()
    for s in range(13):
        assert ch.get(s, s) == 1
    assert ch.get(4, 12) == 1
    assert ch.get(3, 7) == 1
    assert ch.get(1, 2) == 1 and ch.get(2, 4) == 1
    assert ch.get(1, 3) == 0 and ch.get(2, 3) == 0


def test_chart_against_hom_complex_oracle(f2_a1, f2_resolution):
    """The minimal chart must agree with honest rank arithmetic."""
    ch = f2_resolution.chart()
    oracle = ext_groups(f2_a1, f2_a1, 8, 20, resolution=f2_resolution)
    assert oracle.window_equal(ch, 8, 16) and ch.window_equal(oracle, 8, 16)


def test_ext_groups_consistency_with_chart(joker, f2_a1):
    jj = tensor(joker, joker)
    ch = ext_chart(jj, 5, 12)
    oracle = ext_groups(jj, f2_a1, 5, 12)
    assert ch.window_equal(oracle, 5, 8) and oracle.window_equal(ch, 5, 8)


def test_joker_square_chart_is_f2_chart_plus_free_lines(joker, f2_a1):
    jj = tensor(joker, joker)
    ch = ext_chart(jj, 6, 14)
    chf = ext_chart(f2_a1, 6, 14)
    extra = {}
    for (s, t), v in ch.entries.items():
        if v != chf.get(s, t):
            extra[(s, t)] = v - chf.get(s, t)
    assert extra == {(0, -4): 1, (0, -3): 1, (0, -2): 1}


def test_ext_i1_shift_identity(f2_resolution):
    i1 = fixtures.load_fixture("I1")
    ch_i = ext_chart(i1, 9, 26)
    ch_f = f2_resolution.chart()
    for s in range(9):
        for t in range(0, 22):
            assert ch_i.get(s, t) == ch_f.get(s + 1, t), (s, t)


def test_ext_di1_shift_identity(f2_resolution):
    di1 = fixtures.load_fixture("DI1")
    ch_d = ext_chart(di1, 9, 20)
    ch_f = f2_resolution.chart()
    s0 = [(t, v) for (s, t), v in ch_d.entries.items() if s == 0]
    assert s0 == [(-6, 1)]
    for s in range(1, 9):
        for t in range(-6, 16):
            assert ch_d.get(s, t) == ch_f.get(s - 1, t), (s, t)


def polynomial_chart(n: int, s_max: int, t_max: int) -> dict[tuple[int, int], int]:
    """Bigraded dimensions of F2[v_0..v_n], v_i in bidegree (1, 2^(i+1) - 1)."""
    dims = {(0, 0): 1}
    for i in range(n + 1):
        step = 2 ** (i + 1) - 1
        for s in range(1, s_max + 1):  # ascending, so powers of v_i count
            for t in range(step, t_max + 1):
                below = dims.get((s - 1, t - step), 0)
                if below:
                    dims[(s, t)] = dims.get((s, t), 0) + below
    return dims


@pytest.mark.parametrize("n, s_max, t_max", [(2, 10, 40), (3, 8, 60)])
def test_ext_over_exterior_algebra_is_polynomial(n, s_max, t_max):
    ch = ext_chart(trivial_module(st.E(n)), s_max, t_max)
    assert dict(ch.items()) == polynomial_chart(n, s_max, t_max)


@pytest.mark.parametrize("n, s_max, t_max", [(2, 8, 40), (3, 6, 30)])
def test_change_of_rings_a_mod_e_is_polynomial(n, s_max, t_max):
    """Ext_{A(n)}(A(n)//E(n)) = Ext_{E(n)}(F2) = F2[v_0..v_n]."""
    ch = ext_chart(hopf_quotient(st.A(n), st.E(n)), s_max, t_max)
    assert dict(ch.items()) == polynomial_chart(n, s_max, t_max)


def test_change_of_rings_a2_mod_a1_is_a1_chart(A2, f2_a1):
    lhs = ext_chart(hopf_quotient(A2, st.A(1, 2)), 6, 24)
    rhs = ext_chart(f2_a1, 6, 24)
    assert dict(lhs.items()) == dict(rhs.items())


def test_change_of_rings_with_duality_twist(A1, f2_a1):
    """Ext over the big algebra with coinduced coefficients equals the Ext
    of the subalgebra; the honest graded coefficients are the dual of the
    quotient, i.e. the quotient shifted by (top(H) - top(K))."""
    for k in (st.A(0, 1), st.E(1), fixtures.algebra_P11()):
        q = hopf_quotient(A1, k)
        shift = A1.top_degree - k.top_degree
        lhs = ext_groups(f2_a1, suspend(q, -shift), 6, 14)
        rhs = ext_chart(trivial_module(k), 6, 14)
        assert lhs.window_equal(rhs, 6, 12) and rhs.window_equal(lhs, 6, 12), k.name


def test_change_of_rings_literal_form_fails_at_origin(A1, f2_a1):
    """The untwisted comparison differs at (0,0): a degree-preserving map
    from the trivial module into the quotient would have to hit the socle."""
    q = hopf_quotient(A1, st.A(0, 1))
    lhs = ext_groups(f2_a1, q, 2, 8)
    assert lhs.get(0, 0) == 0
    assert ext_chart(trivial_module(st.A(0, 1)), 2, 8).get(0, 0) == 1


def test_ext_of_free_module_concentrated_at_origin(a1_regular, f2_a1):
    ch = ext_groups(a1_regular, f2_a1, 4, 10)
    assert dict(ch.items()) == {(0, 0): 1}


def test_ext_into_free_module_is_socle_dual(hz, a1_regular):
    ch = ext_groups(hz, a1_regular, 4, 12)
    assert all(s == 0 for (s, t) in ch.entries)
    # the class in the extreme degree is the dual map onto the top cell
    assert ch.get(0, -6) == 1
    assert sum(ch.entries.values()) == hz.total_dim


# ---------------------------------------------------------------------------
# Yoneda


def test_yoneda_h0_tower_injective(f2_resolution):
    act = yoneda_action(f2_resolution, 1, 1)
    for s in range(0, 12):
        mat = act[(s, s)]
        assert rref(mat)[1] == mat.cols == 1


def test_yoneda_bott_periodicity(f2_resolution):
    act = yoneda_action(f2_resolution, 4, 12)
    ch = f2_resolution.chart()
    for (s, t), mat in act.items():
        if s <= 4 and t - s <= 8 and t + 12 <= f2_resolution.t_max:
            assert mat.rows == mat.cols == ch.get(s, t)
            assert rref(mat)[1] == mat.rows, (s, t)


def test_yoneda_on_zero_entries(f2_resolution):
    act = yoneda_action(f2_resolution, 1, 1)
    # (1,3) is an empty bidegree; anything mapped there is zero-dimensional
    assert (1, 3) not in act or act[(1, 3)].cols == 0


# sha256 of the pairing matrices, recorded while the resolver still formed
# every b.d(g) from Milnor products
YONEDA_DIGESTS = {
    ("A(1)", 1, 1): "73e584cf7b948ea3d7683d3acc8f66804c9b950bcd235478428e2c7a27235fba",
    ("A(1)", 1, 2): "3ceaf40e612f44878d28eefa291530f7c03289c260e76426347d72beab882e77",
    ("A(1)", 4, 12): "aed9dcdc807c5d5f0ec50c2f956fac7389e85987708203448c4ed63a81a6f8a4",
    ("A(2)", 1, 1): "7a619bfa659c82340ec64d07ba3218e0941cae9fa3591a0c3d75fa517293f298",
    ("A(2)", 1, 2): "23bdaaefa72c4a1cae51296d1121f84ba7b27be33c6895b026aac8febf537f48",
    ("A(2)", 1, 4): "a4b6a669120fd171aa038b19adba8d750879feb6cb309d011a62c2f568090530",
}


def test_yoneda_matrices_are_unchanged(f2_resolution, A2):
    resolutions = {"A(1)": f2_resolution,
                   "A(2)": minimal_resolution(trivial_module(A2), 8, 30)}
    for (name, s0, t0), digest in YONEDA_DIGESTS.items():
        act = yoneda_action(resolutions[name], s0, t0)
        mats = sorted((k, m.rows, m.cols, m.transpose().columns) for k, m in act.items())
        assert hashlib.sha256(repr(mats).encode()).hexdigest() == digest, (name, s0, t0)


def test_yoneda_rejects_non_trivial_target(joker):
    res = minimal_resolution(joker, 3, 10)
    with pytest.raises(ValueError):
        yoneda_action(res, 1, 1)


# over A(1), stage 1 holds h0 (generator 0, degree 1) and h1 (generator 1,
# degree 2), and f2_resolution has stages 0..13
@pytest.mark.parametrize("s0, t0, cocycle, named", [
    (14, 1, 0, "s0 = 14"),
    (-1, 1, 0, "s0 = -1"),
    (1, 1, 1, "cocycle index 1"),
    (1, 1, {3: 1}, "cocycle key 3"),
    (1, 2, {0: 1}, "cocycle key 0"),
], ids=["s0-past-last-stage", "s0-negative", "index-out-of-range",
        "key-not-a-generator", "key-of-another-degree"])
def test_yoneda_names_bad_input(f2_resolution, s0, t0, cocycle, named):
    with pytest.raises(ValueError, match=named):
        yoneda_action(f2_resolution, s0, t0, cocycle)


def indecomposables(alg, d):
    """A test for packed vectors over the degree-d basis that are not in
    (A+)^2, which the products of positive-degree basis elements span."""
    ids = alg.basis_by_degree(d)
    decomposables = F2Span()
    for x in alg.basis:
        if 0 < x.degree() < d:
            for j in alg.basis_by_degree(d - x.degree()):
                decomposables.add(sum(1 << ids.index(k)
                                      for k in alg.decompose(x * alg.basis[j])))
    return lambda packed: decomposables.reduce(packed)[0] != 0


def h_k_oracle(res, d, is_indecomposable, s, t):
    """Multiplication by h_k, of degree d = 2^k, from Ext^{s,t} read off
    d_{s+1}: entry (g', g) is 1 when d(g') has a coefficient on g outside
    (A+)^2."""
    alg, stage = res.algebra, res.stages[s + 1]
    src = [g for g, gd in enumerate(res.stages[s].gen_degrees) if gd == t]
    rows = []
    for g2, gd in enumerate(stage.gen_degrees):
        if gd != t + d:
            continue
        coefficient = dict.fromkeys(src, 0)
        for slot in vec_support(stage.images[g2]):
            g, b = stage.below.basis(gd)[slot]
            if g in coefficient:
                coefficient[g] |= 1 << alg.degree_position[b]
        rows.append(sum(is_indecomposable(coefficient[g]) << j
                        for j, g in enumerate(src)))
    return F2Matrix.from_rows(rows, len(src))


@pytest.mark.parametrize("n, s_max, t_max", [(1, 10, 40), (2, 8, 40), (3, 5, 30)])
def test_yoneda_h_k_matches_the_indecomposable_coefficients(n, s_max, t_max):
    res = minimal_resolution(trivial_module(st.A(n)), s_max, t_max)
    for k in range(n + 1):
        d = 2 ** k
        is_indecomposable = indecomposables(res.algebra, d)
        act = yoneda_action(res, 1, d)
        assert set(act) == {(s, t) for (s, t), _ in res.chart().items()
                            if s < s_max and t + d <= t_max}
        for (s, t), mat in act.items():
            assert mat == h_k_oracle(res, d, is_indecomposable, s, t), (k, s, t)


# ---------------------------------------------------------------------------
# rendering


def test_render_csv_deterministic():
    ch = ext_chart(trivial_module(st.A(0)), 3, 5)
    assert render_chart(ch, "csv") == "s,t,dim\n0,0,1\n1,1,1\n2,2,1\n3,3,1\n"


def test_render_empty_chart():
    ch = rv.ExtChart({}, 3, 5)
    assert render_chart(ch, "csv") == "s,t,dim\n"
    assert render_chart(ch, "ascii").strip() != ""


def test_render_ascii_tower():
    ch = ext_chart(trivial_module(st.A(0)), 3, 5)
    text = render_chart(ch, "ascii")
    lines = text.splitlines()
    assert lines[0].startswith("  3 | 1")
    assert lines[3].startswith("  0 | 1")


def test_render_svg_has_dots():
    ch = ext_chart(trivial_module(st.A(0)), 3, 5)
    svg = render_chart(ch, "svg")
    assert svg.count("<circle") == 4
    assert svg.startswith("<svg xmlns=")


def test_render_rejects_unknown_format():
    ch = rv.ExtChart({}, 1, 1)
    with pytest.raises(ValueError):
        render_chart(ch, "png")


def test_chart_bounds_and_certification(f2_resolution):
    ch = f2_resolution.chart()
    assert all(t <= ch.t_max for (_, t) in ch.entries)


def test_resolution_of_zero_module(A1):
    z = md.zero_module(A1)
    res = minimal_resolution(z, 3, 6)
    assert all(res.generator_degrees(s) == [] for s in range(4))
    assert res.chart().items() == []
    ch = ext_groups(z, trivial_module(A1), 3, 6)
    assert ch.items() == []
