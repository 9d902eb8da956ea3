"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic, so every tolerance is equality.  Two
sub-claims inherited verbatim from the source example about the quotient by
the central primitive are provably wrong mod 2 (the two composite paths
cancel); they are implemented faithfully and marked strict-xfail, with the
correct decompositions asserted alongside.  See the decisions ledger for
the full analysis.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import random

import pytest

from stmod import fixtures, module as md, resolve as rv, rootspin as rsp, \
    stable as sb, steenrod as st
from stmod.f2linalg import F2Matrix, apply_cols, kernel_basis, rank, rref
from stmod.module import (direct_sum, double, dual, hopf_quotient,
                          margolis_homology, regular_module, restrict,
                          suspend, tensor, trivial_module, validate)
from stmod.stable import check_exact, iso_test, loop, oloop, reduce_module, \
    selfdual_shift
from stmod.steenrod import sq


def report(num, text):
    print(f"[criterion {num:>3}] PASS - {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_algebra_sanity():
    dims = {n: st.A(n).dim for n in (0, 1, 2)}
    assert dims == {0: 2, 1: 8, 2: 64}
    for n in (0, 1, 2):
        for rel in st.wall_relations(n):
            assert rel.element().is_zero(), rel.label
    report(1, "dim A(0)=2, A(1)=8, A(2)=64; all Wall relations vanish")


def test_criterion_02_adem_caveat():
    lhs = sq(2, 2) * sq(3, 2)
    rhs = sq(4, 2) * sq(1, 2) + sq(1, 2) * sq(4, 2)
    assert lhs.terms == rhs.terms == frozenset({(2, 1)})
    report(2, "Sq^2 Sq^3 = Sq^4 Sq^1 + Sq^1 Sq^4 in A(2), both Sq(2,1)")


def test_criterion_03_selfduality_suite(A1, A2, joker, hz, a1_regular):
    assert selfdual_shift(a1_regular) == 6
    assert selfdual_shift(hz) == 5
    assert selfdual_shift(fixtures.load_fixture("kU")) == 2
    assert selfdual_shift(joker) == 0
    assert selfdual_shift(fixtures.load_fixture("A1modSq2P11")) == 1
    assert selfdual_shift(fixtures.load_fixture("SO8modSp2")) == 18
    pairs = [(A1, st.A(0, 1)), (A1, st.E(1)), (A1, fixtures.algebra_P11()),
             (A2, st.A(1, 2)), (A2, st.E(2))]
    for h, k in pairs:
        q = hopf_quotient(h, k)
        assert selfdual_shift(q) == h.top_degree - k.top_degree, (h.name, k.name)
    report(3, "shifts 6, 5, 2, 0, 1, 18; H//K shift = d - e on all five pairs")


def test_criterion_04_question_mark_not_selfdual():
    qm = fixtures.load_fixture("QuestionMark")
    assert selfdual_shift(qm) is None
    assert selfdual_shift(qm, stable=True) is None
    # the one support-aligned candidate (matching bottoms) fails certifiably
    assert iso_test(dual(qm), suspend(qm, -3)) is None
    report(4, "dual of the question mark is not any suspension of it")


def test_criterion_05_joker_picard_order_two(joker, f2_a1):
    dec = reduce_module(tensor(joker, joker))
    assert dec.free_part == (-4, -3, -2)
    assert iso_test(dec.reduced_part, f2_a1) is not None
    assert dec.verify()
    report(5, "J (x) J = F2 + free at suspensions -4, -3, -2")


def test_criterion_06_hz_tensor_square(A1, hz):
    dec = reduce_module(tensor(hz, hz))
    assert dec.free_part == (2,)
    target = direct_sum(hz, suspend(hz, 5))
    assert iso_test(dec.reduced_part, target) is not None
    report(6, "HZ (x) HZ = HZ + A(1)[2] + HZ[5]")


def test_criterion_07_loop_diagrams(joker):
    assert loop(joker).dims() == {1: 1, 3: 1, 4: 1}
    assert oloop(joker).dims() == {-4: 1, -3: 1, -1: 1}
    assert loop(loop(joker)).dims() == {2: 1, 4: 1, 5: 1, 6: 1, 7: 1}
    assert oloop(oloop(joker)).dims() == {-7: 1, -6: 1, -5: 1, -4: 1, -2: 1}
    assert iso_test(oloop(loop(joker)), joker) is not None
    report(7, "loop supports {1,3,4}, {-4,-3,-1}, {2,4..7}, {-7..-4,-2}; "
              "inverse loops compose to the identity stably")


def test_criterion_08a_f2_chart_tower_and_bott(f2_a1, f2_resolution):
    chart = f2_resolution.chart()
    for s in range(13):
        assert chart.get(s, s) >= 1, s
    assert chart.get(4, 12) == 1
    oracle = rv.ext_groups(f2_a1, f2_a1, 9, 22, resolution=f2_resolution)
    assert oracle.window_equal(chart, 9, 18)
    assert chart.window_equal(oracle, 9, 18)
    report("8a", "tower at (s,s) for s<=12, Bott class at (4,12), chart "
                 "matches the Hom-complex oracle")


def test_criterion_08b_p11_chart(A1):
    m = hopf_quotient(A1, fixtures.algebra_P11())
    chart = rv.ext_chart(m, 8, 28)
    for s in range(9):
        for t in range(0, 29):
            if t - s > 20:
                continue
            want = 1 if t == 3 * s else 0
            assert chart.get(s, t) == want, (s, t)
    report("8b", "quotient by the central primitive: chart is exactly "
                 "dim 1 at (s, 3s)")


def test_criterion_08c_shift_identities(f2_resolution):
    ch_f = f2_resolution.chart()
    ch_i = rv.ext_chart(fixtures.load_fixture("I1"), 8, 26)
    for s in range(9):
        for t in range(0, 21):
            assert ch_i.get(s, t) == ch_f.get(s + 1, t), (s, t)
    ch_d = rv.ext_chart(fixtures.load_fixture("DI1"), 8, 18)
    assert [(t, v) for (s, t), v in ch_d.entries.items() if s == 0] == [(-6, 1)]
    for s in range(1, 9):
        for t in range(-6, 13):
            assert ch_d.get(s, t) == ch_f.get(s - 1, t), (s, t)
    report("8c", "augmentation-ideal and dual shift identities hold for s <= 8")


_COR_PAIRS = lambda A1: [(A1, st.A(0, 1)), (A1, st.E(1)),
                         (A1, fixtures.algebra_P11())]


@pytest.mark.xfail(strict=True, reason="provable grading defect: the graded "
                   "change-of-rings isomorphism carries a t-shift of "
                   "top(H)-top(K) (the coinduced coefficients are the dual "
                   "of H//K); the literal entrywise claim already fails at "
                   "(0,0), where a degree-preserving map F2 -> H//K would "
                   "have to hit the socle.  See decisions ledger.")
def test_criterion_09_change_of_rings_literal(A1, f2_a1):
    for h, k in _COR_PAIRS(A1):
        lhs = rv.ext_groups(f2_a1, hopf_quotient(h, k), 6, 14)
        rhs = rv.ext_chart(trivial_module(k), 6, 14)
        assert lhs.window_equal(rhs, 6, 12) and rhs.window_equal(lhs, 6, 12)


def test_criterion_09_change_of_rings_with_canonical_twist(A1, f2_a1):
    for h, k in _COR_PAIRS(A1):
        shift = h.top_degree - k.top_degree
        lhs = rv.ext_groups(f2_a1, suspend(hopf_quotient(h, k), -shift), 6, 14)
        rhs = rv.ext_chart(trivial_module(k), 6, 14)
        assert lhs.window_equal(rhs, 6, 12) and rhs.window_equal(lhs, 6, 12), k.name
    report(9, "change of rings entrywise for s <= 6 on all three pairs, "
              "with the canonical duality twist on the coefficients "
              "(literal untwisted form is an expected failure)")


def test_criterion_10_exact_sequences():
    assert check_exact(fixtures.pad_with_zero_ends(fixtures.bott_sequence())) is None
    assert check_exact(fixtures.p11_periodic_sequence()) is None
    report(10, "the six-term periodicity extension and the spliced periodic "
               "resolution are exact at every checked stage")


def test_criterion_11_doubling(A2, a1_regular):
    d0 = double(regular_module(st.A(0)))
    assert validate(d0) == []
    assert d0.dims() == {0: 1, 2: 1}
    assert iso_test(d0, fixtures.load_fixture("kU")) is not None
    d1 = double(a1_regular)
    assert validate(d1) == []
    assert iso_test(d1, hopf_quotient(A2, st.E(2))) is not None
    report(11, "double(A(0)) = kU and double(A(1)) = A(2)//E(2), degrees doubled")


@pytest.mark.xfail(strict=True, reason="provable arithmetic slip in the "
                   "source example: the central primitive is killed in its "
                   "own Hopf quotient (the two composite paths 0->3 cancel "
                   "mod 2), so the restriction is trivial and the induced "
                   "module has no free summand (its Q1-Margolis homology is "
                   "everything).  See decisions ledger.")
def test_criterion_12_restriction_induction_literal(A1):
    p11 = fixtures.algebra_P11()
    m = hopf_quotient(A1, p11)
    r = restrict(m, p11)
    f2 = trivial_module(p11)
    claimed_r = direct_sum(regular_module(p11),
                           direct_sum(suspend(f2, 1), suspend(f2, 2)))
    assert iso_test(r, claimed_r) is not None
    ind = md.induce(A1, p11, m)
    claimed_i = direct_sum(regular_module(A1),
                           direct_sum(suspend(m, 1), suspend(m, 2)))
    assert iso_test(ind, claimed_i) is not None


def test_criterion_12_restriction_induction_computed(A1):
    p11 = fixtures.algebra_P11()
    m = hopf_quotient(A1, p11)
    r = restrict(m, p11)
    f2 = trivial_module(p11)
    truth_r = direct_sum(direct_sum(f2, suspend(f2, 1)),
                         direct_sum(suspend(f2, 2), suspend(f2, 3)))
    assert iso_test(r, truth_r) is not None
    ind = md.induce(A1, p11, m)
    truth_i = direct_sum(direct_sum(m, suspend(m, 1)),
                         direct_sum(suspend(m, 2), suspend(m, 3)))
    assert iso_test(ind, truth_i) is not None
    assert iso_test(ind, tensor(m, m)) is not None
    assert margolis_homology(ind, 1) != {}  # so no free summand can split off
    report(12, "restriction = four trivial lines; induction = four shifted "
               "copies of the quotient (= its tensor square); the claimed "
               "decompositions with a free summand are an expected failure")


def test_criterion_13_spin_verdicts():
    from fractions import Fraction as Q
    g2 = rsp.generate_positive_roots("G", 2)
    rep = rsp.adjoint_spin(rsp.GroupForm.adjoint(g2))
    assert rep.in_lattice and rep.rho == (Q(5), Q(3))
    f4 = rsp.generate_positive_roots("F", 4)
    rep = rsp.adjoint_spin(rsp.GroupForm.adjoint(f4))
    assert rep.in_lattice and rep.rho == (Q(8), Q(15), Q(21), Q(11))
    e6 = rsp.adjoint_spin(rsp.GroupForm.adjoint(rsp.generate_positive_roots("E", 6)))
    e7 = rsp.adjoint_spin(rsp.GroupForm.adjoint(rsp.generate_positive_roots("E", 7)))
    e8 = rsp.adjoint_spin(rsp.GroupForm.adjoint(rsp.generate_positive_roots("E", 8)))
    assert e6.in_lattice and not e7.in_lattice and e8.in_lattice
    assert e7.certificate == (1, Q(49, 2))
    for n in range(1, 9):
        rep = rsp.adjoint_spin(rsp.GroupForm.adjoint(rsp.generate_positive_roots("A", n)))
        assert rep.in_lattice == (n % 2 == 0), n
    for n in range(2, 9):
        rep = rsp.adjoint_spin(rsp.GroupForm.adjoint(rsp.generate_positive_roots("B", n)))
        assert not rep.in_lattice, n
    for n in range(1, 10):
        assert rsp.u_n_adjoint_spin(n).in_lattice == (n % 2 == 1), n
    dets = {name: rsp.cartan_determinant(rsp.generate_positive_roots(f, n))
            for name, (f, n) in {"G2": ("G", 2), "F4": ("F", 4),
                                 "E6": ("E", 6), "E7": ("E", 7),
                                 "E8": ("E", 8)}.items()}
    assert dets == {"G2": 1, "F4": 1, "E6": 3, "E7": 2, "E8": 1}
    for n in range(1, 9):
        assert rsp.cartan_determinant(rsp.generate_positive_roots("A", n)) == n + 1
    report(13, "G2/F4/E6/E8 spin, E7 blocked by 49/2; A_n iff n even; "
               "B_n never; U(n) iff n odd; determinants (1,1,3,2,1) and n+1")


def test_criterion_14_property_suites(joker, hz):
    rng = random.Random(20260808)
    # rref/kernel oracle agreement on seeded random matrices
    for _ in range(20):
        rows, cols = rng.randint(1, 18), rng.randint(1, 18)
        m = F2Matrix.from_rows([rng.getrandbits(cols) for _ in range(rows)], cols)
        dense = m.to_dense()
        r = 0
        work = [row[:] for row in dense]
        for c in range(cols):
            piv = next((i for i in range(r, rows) if work[i][c]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(rows):
                if i != r and work[i][c]:
                    work[i] = [(a + b) % 2 for a, b in zip(work[i], work[r])]
            r += 1
        assert rank(m) == r
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert apply_cols(m.columns, v) == 0
    # dual involution on fixtures
    for name in ("Joker", "HZ", "kU", "A1modP11", "QuestionMark", "I1"):
        m = fixtures.load_fixture(name)
        assert iso_test(dual(dual(m)), m) is not None, name
    # tensor associativity and commutativity up to isomorphism
    ku = fixtures.load_fixture("kU")
    assert iso_test(tensor(joker, ku), tensor(ku, joker)) is not None
    assert iso_test(tensor(tensor(ku, ku), joker),
                    tensor(ku, tensor(ku, joker))) is not None
    # reduce idempotence
    for m in (tensor(joker, joker), tensor(hz, hz)):
        dec = reduce_module(m)
        assert reduce_module(dec.reduced_part).free_part == ()
    # Margolis vanishing iff freeness, on every A(1) fixture
    for name in fixtures.fixture_names():
        m = fixtures.load_fixture(name)
        if m.algebra.name != "A(1)":
            continue
        vanish = (margolis_homology(m, 0) == {} and margolis_homology(m, 1) == {})
        assert vanish == reduce_module(m).reduced_part.is_zero(), name
    report(14, "rref/kernel oracles, dual involution, tensor symmetry, "
               "reduce idempotence, Margolis-vanishing iff freeness")
