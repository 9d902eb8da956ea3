"""Root systems, half-sums, Cartan determinants, Spin verdicts."""

from fractions import Fraction as Q

import pytest

from stmod import rootspin as rs
from stmod.rootspin import (GroupForm, adjoint_spin, cartan_determinant,
                            generate_positive_roots, half_sum,
                            hermite_normal_form,
                            lattice_member, to_weight_coords, u_n_adjoint_spin)


def cofactor_det(mat):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# generation


def test_g2_positive_roots_match_figure():
    g2 = generate_positive_roots("G", 2)
    assert set(g2.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1),
                                      (3, 2)}


def test_a2_positive_roots():
    a2 = generate_positive_roots("A", 2)
    assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_e8_count_from_dimension():
    e8 = generate_positive_roots("E", 8)
    assert len(e8.positive_roots) == (248 - 8) // 2 == 120


def test_counts_all_families():
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 9):
            generate_positive_roots(fam, n)  # raises if count is off
    for fam, n in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        generate_positive_roots(fam, n)


def test_invalid_type_rejected():
    with pytest.raises(ValueError):
        generate_positive_roots("E", 9)
    with pytest.raises(ValueError):
        generate_positive_roots("G", 3)


# ---------------------------------------------------------------------------
# half sums


def test_half_sum_g2():
    assert half_sum(generate_positive_roots("G", 2)) == (Q(5), Q(3))


def test_half_sum_f4():
    assert half_sum(generate_positive_roots("F", 4)) == (Q(8), Q(15), Q(21), Q(11))


def test_half_sum_e_series():
    assert half_sum(generate_positive_roots("E", 6)) == \
        (Q(8), Q(11), Q(15), Q(21), Q(15), Q(8))
    assert half_sum(generate_positive_roots("E", 7)) == \
        (Q(17), Q(49, 2), Q(33), Q(48), Q(75, 2), Q(26), Q(27, 2))
    assert half_sum(generate_positive_roots("E", 8)) == \
        (Q(46), Q(68), Q(91), Q(135), Q(110), Q(84), Q(57), Q(29))


def test_half_sum_a_series_closed_form():
    for n in range(1, 9):
        rho = half_sum(generate_positive_roots("A", n))
        assert rho == tuple(Q(k * (n + 1 - k), 2) for k in range(1, n + 1))


def test_doubled_half_sum_is_integral_root_sum():
    for fam, n in (("A", 5), ("B", 4), ("C", 3), ("D", 5), ("G", 2),
                   ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        system = generate_positive_roots(fam, n)
        two_rho = [2 * c for c in half_sum(system)]
        assert all(x.denominator == 1 for x in two_rho)
        direct = [sum(beta[k] for beta in system.positive_roots)
                  for k in range(n)]
        assert [int(x) for x in two_rho] == direct


def test_rho_has_weight_coordinates_all_one():
    for fam, n in (("A", 6), ("B", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 7)):
        system = generate_positive_roots(fam, n)
        assert to_weight_coords(system, half_sum(system)) == (Q(1),) * n


# ---------------------------------------------------------------------------
# determinants


def test_cartan_determinants_exceptional():
    values = {("G", 2): 1, ("F", 4): 1, ("E", 6): 3, ("E", 7): 2, ("E", 8): 1}
    for (fam, n), want in values.items():
        assert cartan_determinant(generate_positive_roots(fam, n)) == want


def test_cartan_determinants_classical_with_cofactor_oracle():
    for n in range(1, 9):
        a = generate_positive_roots("A", n)
        assert cartan_determinant(a) == n + 1 == cofactor_det([list(r) for r in a.cartan])
    for n in range(2, 9):
        for fam in ("B", "C"):
            s = generate_positive_roots(fam, n)
            assert cartan_determinant(s) == 2 == cofactor_det([list(r) for r in s.cartan])
    for n in range(3, 9):
        d = generate_positive_roots("D", n)
        assert cartan_determinant(d) == 4 == cofactor_det([list(r) for r in d.cartan])


def test_integer_determinant_oracle_random():
    """The product of the HNF pivots is |det|, and a singular matrix has
    fewer pivot rows than its size."""
    import random
    rng = random.Random(8)
    singular = 0
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        hnf = hermite_normal_form(m)
        det = 0
        if len(hnf) == n:
            det = 1
            for row in hnf:
                det *= next(x for x in row if x)
        singular += det == 0
        assert det == abs(cofactor_det(m))
    assert singular


# ---------------------------------------------------------------------------
# lattices


def test_hnf_membership_basics():
    gens = [[2, 0], [0, 3]]
    assert lattice_member(gens, [4, 3]) is not None
    assert lattice_member(gens, [1, 0]) is None
    assert lattice_member(gens, [Q(1, 2), Q(0)]) is None


def test_hnf_of_redundant_generators():
    # lattice {(2a, b)}: canonical basis has the off-diagonal reduced away
    h = hermite_normal_form([[2, 4], [4, 8], [2, 5]])
    assert h == [[2, 0], [0, 1]]
    assert lattice_member([[2, 4], [4, 8], [2, 5]], [2, 0]) is not None
    assert lattice_member([[2, 4], [4, 8], [2, 5]], [1, 1]) is None


def test_custom_form_must_contain_root_lattice():
    d4 = generate_positive_roots("D", 4)
    with pytest.raises(ValueError):
        GroupForm.custom(d4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                              [0, 0, 0, 2]])


def test_intermediate_form_of_d4():
    d4 = generate_positive_roots("D", 4)
    # adjoin the vector-representation weight to the root lattice
    form = GroupForm.custom(d4, [list(r) for r in d4.cartan] + [[1, 0, 0, 0]])
    assert form.weight_index() == 2
    report = adjoint_spin(form)
    assert report.in_lattice  # rho of D4 is already in the root lattice
    assert report.verify()


# ---------------------------------------------------------------------------
# spin verdicts


def test_g2_spin():
    report = adjoint_spin(GroupForm.adjoint(generate_positive_roots("G", 2)))
    assert report.in_lattice and report.certificate == (5, 3)
    assert report.verify()


def test_f4_spin():
    report = adjoint_spin(GroupForm.adjoint(generate_positive_roots("F", 4)))
    assert report.in_lattice and report.certificate == (8, 15, 21, 11)


def test_e_series_spin():
    assert adjoint_spin(GroupForm.adjoint(generate_positive_roots("E", 6))).in_lattice
    e7 = adjoint_spin(GroupForm.adjoint(generate_positive_roots("E", 7)))
    assert not e7.in_lattice
    assert e7.certificate == (1, Q(49, 2))
    assert e7.verify()
    assert adjoint_spin(GroupForm.adjoint(generate_positive_roots("E", 8))).in_lattice


def test_a_series_parity():
    for n in range(1, 9):
        report = adjoint_spin(GroupForm.adjoint(generate_positive_roots("A", n)))
        assert report.in_lattice == (n % 2 == 0), n


def test_b_series_never_spin():
    for n in range(2, 9):
        report = adjoint_spin(GroupForm.adjoint(generate_positive_roots("B", n)))
        assert not report.in_lattice, n


def test_b_series_congruence_claim():
    # the root-coordinate sum of the positive roots is odd exactly at the
    # odd-indexed simple roots
    for n in range(2, 9):
        b = generate_positive_roots("B", n)
        two_rho = [int(2 * c) for c in half_sum(b)]
        assert [c % 2 for c in two_rho] == [(k + 1) % 2 for k in range(n)], n


def test_simply_connected_always_spin():
    for fam, n in (("A", 3), ("B", 4), ("E", 7), ("G", 2)):
        form = GroupForm.simply_connected(generate_positive_roots(fam, n))
        report = adjoint_spin(form)
        assert report.in_lattice
        assert report.certificate == (Q(1),) * n  # rho in weight coordinates


def test_u_n_parity():
    for n in range(1, 10):
        report = u_n_adjoint_spin(n)
        assert report.in_lattice == (n % 2 == 1), n
    assert u_n_adjoint_spin(1).rho == (Q(0),)
    r3 = u_n_adjoint_spin(3)
    assert r3.rho == (Q(1), Q(0), Q(-1)) and r3.basis == "weight"


def test_u_n_rejects_nonpositive():
    with pytest.raises(ValueError):
        u_n_adjoint_spin(0)
