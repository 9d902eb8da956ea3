"""Milnor arithmetic, subalgebra closures, Wall relations."""

import functools
import hashlib
import operator
import random
import re

import pytest
from hypothesis import example, given, strategies as hst

from stmod import fixtures, steenrod as st
from stmod.f2linalg import F2Span, vec_support
from stmod.steenrod import (Sq, antipode, coproduct, milnor_primitive,
                            parse_element, sq, unit, zero)


def terms(e):
    return set(e.terms)


# ---------------------------------------------------------------------------
# products


def test_sq1_squared_is_zero():
    assert (sq(1, 1) * sq(1, 1)).is_zero()


def test_a1_wall_relation_values():
    s1, s2 = sq(1, 1), sq(2, 1)
    assert (s2 * s2).terms == (s1 * s2 * s1).terms
    assert (s2 * s2 + s1 * s2 * s1).is_zero()


def test_adem_caveat_in_a2():
    s1, s2, s3, s4 = (sq(k, 2) for k in (1, 2, 3, 4))
    lhs = s2 * s3
    rhs = s4 * s1 + s1 * s4
    assert lhs.terms == rhs.terms == frozenset({(2, 1)})


def test_product_ambient_mismatch():
    with pytest.raises(st.AmbientMismatchError):
        sq(1, 1) * sq(1, 2)


def test_product_stays_in_profile():
    # brute force: all pairs of A(1) basis elements stay inside A(1)
    for a in st.milnor_basis(1):
        for b in st.milnor_basis(1):
            prod = Sq(*a, ambient=1) * Sq(*b, ambient=1)
            for t in prod.terms:
                assert st.fits_profile(t, 1)


def test_associativity_random_a2_triples():
    rng = random.Random(41)
    basis = st.milnor_basis(2)
    for _ in range(40):
        a, b, c = (Sq(*rng.choice(basis), ambient=2) for _ in range(3))
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_textbook_products():
    assert terms(Sq(1, ambient=2) * Sq(2, ambient=2)) == {(3,)}
    assert terms(Sq(2, ambient=2) * Sq(1, ambient=2)) == {(3,), (0, 1)}
    assert terms(Sq(2, ambient=2) * Sq(2, ambient=2)) == {(1, 1)}


def reference_term_product(r, s):
    """Milnor's product with no pruning: every allowable matrix is built in
    full, then weighted by the parity of its antidiagonal multinomials."""

    def multinomial_odd(parts):
        # odd iff the parts have pairwise disjoint binary digits
        return sum(parts) == functools.reduce(operator.xor, parts, 0)

    m, n = len(r), len(s)
    if m == 0:
        return frozenset({s})
    if n == 0:
        return frozenset({r})
    out = set()
    x = [[0] * (n + 1) for _ in range(m + 1)]
    col_used = [0] * (n + 1)

    def finish():
        for j in range(1, n + 1):
            x[0][j] = s[j - 1] - col_used[j]
        t = []
        for k in range(1, m + n + 1):
            parts = [x[i][k - i] for i in range(max(0, k - n), min(k, m) + 1)]
            if not multinomial_odd(parts):
                return
            t.append(sum(parts))
        while t and t[-1] == 0:
            t.pop()
        out.symmetric_difference_update({tuple(t)})

    def place(i, j, rem):
        if j > n:
            x[i][0] = rem
            if i == m:
                finish()
            else:
                place(i + 1, 1, r[i])
            return
        for v in range(min(rem >> j, s[j - 1] - col_used[j]) + 1):
            x[i][j] = v
            col_used[j] += v
            place(i, j + 1, rem - (v << j))
            col_used[j] -= v
        x[i][j] = 0

    place(1, 1, r[0])
    return frozenset(out)


def test_product_kernel_matches_reference_on_all_a2_pairs():
    basis = st.milnor_basis(2)
    for a in basis:
        for b in basis:
            assert st._term_product(a, b) == reference_term_product(a, b), (a, b)


def test_product_kernel_matches_reference_on_a3_generators():
    # every Sq(k) of A(3) on both sides of every Milnor basis element of A(3),
    # whose basis and squares contain those of A(1) and A(2), and the Milnor
    # primitives on the right: the products that the closures, the left
    # products and the antipode form
    squares = [(k,) for k in range(1, 16)]
    primitives = [(0,) * k + (1,) for k in range(1, 4)]
    for a in st.milnor_basis(3):
        for g in squares + primitives:
            assert st._term_product(a, g) == reference_term_product(a, g), (a, g)
        for g in squares:
            assert st._term_product(g, a) == reference_term_product(g, a), (g, a)


def test_product_kernel_matches_reference_on_seeded_a3_pairs():
    rng = random.Random(1958)
    basis = st.milnor_basis(3)
    for _ in range(2000):
        a, b = rng.choice(basis), rng.choice(basis)
        assert st._term_product(a, b) == reference_term_product(a, b), (a, b)


@hst.composite
def homogeneous_triples(draw):
    ambient = draw(hst.sampled_from([2, 3]))
    by_degree = {}
    for t in st.milnor_basis(ambient):
        by_degree.setdefault(st.milnor_degree(t), []).append(t)
    degrees = sorted(by_degree)
    triple = []
    for _ in range(3):
        pool = by_degree[draw(hst.sampled_from(degrees))]
        chosen = draw(hst.sets(hst.sampled_from(pool), min_size=1, max_size=3))
        triple.append(st.SteenrodElt(ambient, frozenset(chosen)))
    return triple


@given(homogeneous_triples())
def test_product_associative_on_homogeneous_triples(triple):
    a, b, c = triple
    assert ((a * b) * c).terms == (a * (b * c)).terms


# ---------------------------------------------------------------------------
# coproduct and antipode


def test_coproduct_sq1_primitive():
    pairs = {(str(a), str(b)) for a, b in coproduct(sq(1, 1))}
    assert pairs == {("1", "Sq(1)"), ("Sq(1)", "1")}


def test_coproduct_sq2_oracle():
    # oracle: componentwise exponent splitting of the single term (2,)
    expect = {((), (2,)), ((1,), (1,)), ((2,), ())}
    got = {(tuple(next(iter(a.terms))), tuple(next(iter(b.terms))))
           for a, b in coproduct(sq(2, 2))}
    assert got == expect


def test_milnor_primitive_is_primitive():
    q1 = milnor_primitive(1, 1)
    pairs = coproduct(q1)
    assert len(pairs) == 2
    for a, b in pairs:
        assert a.terms == {()} or b.terms == {()}


def test_coproduct_coassociative_counital_on_a2_basis():
    for t in st.milnor_basis(2):
        e = Sq(*t, ambient=2)
        pairs = coproduct(e)
        # counit: the terms with a unit tensor factor recover e
        left = zero(2)
        right = zero(2)
        for a, b in pairs:
            if a.terms == frozenset({()}):
                left = left + b
            if b.terms == frozenset({()}):
                right = right + a
        assert left.terms == e.terms and right.terms == e.terms
        # coassociativity, collapsed over the middle slot
        lhs = set()
        for a, b in pairs:
            for a1, a2 in coproduct(a):
                key = (next(iter(a1.terms)), next(iter(a2.terms)),
                       next(iter(b.terms)))
                lhs ^= {key}
        rhs = set()
        for a, b in pairs:
            for b1, b2 in coproduct(b):
                key = (next(iter(a.terms)), next(iter(b1.terms)),
                       next(iter(b2.terms)))
                rhs ^= {key}
        assert lhs == rhs


def test_antipode_unit_and_sq1():
    assert antipode(unit(1)).terms == {()}
    assert antipode(sq(1, 1)).terms == {(1,)}


def test_antipode_antihomomorphism_a1_exhaustive():
    basis = st.milnor_basis(1)
    for a in basis:
        ea = Sq(*a, ambient=1)
        assert antipode(antipode(ea)).terms == ea.terms
        for b in basis:
            eb = Sq(*b, ambient=1)
            assert antipode(ea * eb).terms == (antipode(eb) * antipode(ea)).terms


def test_antipode_random_a2_pairs():
    rng = random.Random(17)
    basis = st.milnor_basis(2)
    for _ in range(25):
        a = Sq(*rng.choice(basis), ambient=2)
        b = Sq(*rng.choice(basis), ambient=2)
        assert antipode(a * b).terms == (antipode(b) * antipode(a)).terms
        assert antipode(antipode(a)).terms == a.terms


def test_antipode_of_sq2_squared():
    s2 = sq(2, 1)
    assert antipode(s2 * s2).terms == (antipode(s2) * antipode(s2)).terms


# ---------------------------------------------------------------------------
# primitives


def test_primitive_base_case():
    assert milnor_primitive(0, 0).terms == {(1,)}


def test_primitive_recursion():
    for n, s in ((1, 1), (2, 1), (2, 2)):
        q_prev = milnor_primitive(s - 1, n)
        sqk = sq(2 ** s, n)
        rec = sqk * q_prev + q_prev * sqk
        assert rec.terms == milnor_primitive(s, n).terms


def test_primitive_squares_to_zero():
    q1 = milnor_primitive(1, 1)
    assert (q1 * q1).is_zero()


def test_primitive_out_of_ambient():
    with pytest.raises(st.OutOfAmbientError):
        milnor_primitive(2, 1)


# ---------------------------------------------------------------------------
# closures


def test_each_algebra_is_built_once():
    assert st.A(3, 3) is st.A(3)
    assert st.A(1, ambient=1) is st.A(1)
    assert st.E(2, 2) is st.E(2)


def test_closure_a0_inside_a1():
    alg = st.subalgebra_closure([sq(1, 1)], 1)
    assert alg.dim == 2
    assert alg.is_sub_hopf


def test_closure_b_six_dimensional():
    alg = st.subalgebra_closure([sq(2, 1), milnor_primitive(1, 1)], 1)
    assert alg.dim == 6
    assert alg.is_commutative
    assert not alg.is_sub_hopf
    assert alg.top_degree == 6


def test_closure_generates_all_of_a1():
    alg = st.subalgebra_closure([sq(1, 1), sq(2, 1)], 1)
    assert alg.dim == 8


@pytest.mark.parametrize("make", [
    lambda: st.A(0), lambda: st.A(1), lambda: st.A(2), lambda: st.A(3),
    lambda: st.E(1), lambda: st.E(2), lambda: st.E(3), fixtures.algebra_P11,
], ids=["A0", "A1", "A2", "A3", "E1", "E2", "E3", "P11"])
def test_degree_tables_match_basis_scan(make):
    alg = make()
    scanned = [b.degree() for b in alg.basis]
    assert list(alg.basis_degrees) == scanned
    for d in range(-1, max(scanned) + 2):
        ids = alg.basis_by_degree(d)
        assert list(ids) == [i for i, e in enumerate(scanned) if e == d]
        assert alg.basis_dim(d) == len(ids)
        with pytest.raises(AttributeError):
            ids.append(0)
    assert alg.top_degree == max(scanned)
    assert alg.degrees == tuple(sorted(set(scanned)))
    assert alg.unit_index == next(i for i, b in enumerate(alg.basis)
                                  if b.terms == frozenset({()}))
    assert alg.gen_degrees == tuple(g.degree() for g in alg.generators)


# The Hopf flags are decided on the generators; these whole-basis sweeps are
# the reference they must agree with.

def sweep_is_sub_hopf(alg):
    for b in alg.basis:
        left, right = {}, {}
        for a, c in coproduct(b):
            left[a] = left.get(a, zero(alg.ambient)) + c
            right[c] = right.get(c, zero(alg.ambient)) + a
        if not all(map(alg.contains_element, [*left.values(), *right.values()])):
            return False
    return True


def sweep_antipode_closed(alg):
    return all(alg.contains_element(antipode(b)) for b in alg.basis)


def sweep_is_subalgebra_of(alg, other):
    return (alg.ambient == other.ambient
            and all(other.contains_element(b) for b in alg.basis))


FLAG_CLOSURES = [(1, ["Sq^2"]), (1, ["Sq^3"]), (1, ["Sq^2 Sq^1"]),
                 (1, ["Sq^1 Sq^2"]), (2, ["Sq^4"]), (2, ["Sq^1", "Sq^4"]),
                 (2, ["Sq^2", "Sq^4"]), (2, ["Sq^3 + Sq(0,1)", "Sq^1"])]


@functools.lru_cache(maxsize=None)
def flag_algebras():
    """Every A(n) and E(n) inside A(m) for n <= m <= 3, B, Q_1's exterior
    algebra, and closures that are not sub-Hopf, some not closed under the
    antipode either."""
    algs = [make(n) if n == m else make(n, m) for make in (st.A, st.E)
            for m in range(4) for n in range(m + 1)]
    algs += [fixtures.algebra_B(), fixtures.algebra_P11()]
    algs += [st.subalgebra_closure([parse_element(w, a) for w in words], a)
             for a, words in FLAG_CLOSURES]
    return tuple(algs)


def test_flag_algebras_cover_both_answers():
    algs = flag_algebras()
    assert len(algs) == 30
    assert {(a.is_sub_hopf, a.antipode_closed) for a in algs} == {
        (True, True), (False, True), (False, False)}


@pytest.mark.parametrize("i", range(30))
def test_hopf_flags_match_the_whole_basis_sweep(i):
    alg = flag_algebras()[i]
    if alg is st.A(3):
        # the sweep over its 1,024 basis elements takes about 20 s
        assert alg.is_sub_hopf and alg.antipode_closed
        return
    assert alg.is_sub_hopf == sweep_is_sub_hopf(alg)
    assert alg.antipode_closed == sweep_antipode_closed(alg)


def test_is_subalgebra_of_matches_the_whole_basis_sweep():
    algs = flag_algebras()
    answers = set()
    for a in algs:
        for b in algs:
            got = a.is_subalgebra_of(b)
            assert got == sweep_is_subalgebra_of(a, b), (a.name, b.name)
            answers.add((got, b.is_subalgebra_of(a)))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


def test_dimension_formula():
    for n in (0, 1, 2):
        assert st.A(n).dim == 2 ** ((n + 1) * (n + 2) // 2)
        assert len(st.milnor_basis(n)) == st.A(n).dim


def test_expressions_evaluate_back():
    for alg in (st.A(1), st.E(1), st.subalgebra_closure(
            [sq(2, 1), milnor_primitive(1, 1)], 1)):
        for i, b in enumerate(alg.basis):
            acc = zero(alg.ambient)
            for word in alg.expressions[i]:
                acc = acc + st._word_value(alg.generators, alg.ambient, word)
            assert acc.terms == b.terms, (alg.name, i)


def reference_closure(gens, ambient):
    """Breadth-first closure over public SteenrodElt products, words of value
    zero pruned at the end: (basis terms, basis degrees, expressions)."""
    basis_terms = st.milnor_basis(ambient)
    index = {t: i for i, t in enumerate(basis_terms)}
    span = F2Span()
    raw_words, found, queue = [], [], []

    def push(e, words):
        vec = sum(1 << index[t] for t in e.terms)
        residual, combo = span.reduce(vec)
        if residual == 0:
            return
        expr = words
        for i in vec_support(combo):
            expr = expr ^ raw_words[i]
        span.add(vec, 1 << len(raw_words))
        raw_words.append(words)
        found.append((residual, expr))
        queue.append((e, words))

    def value(word):
        e = unit(ambient)
        for gi in word:
            e = e * gens[gi]
        return e

    push(unit(ambient), frozenset({()}))
    for e, words in queue:
        for gi, g in enumerate(gens):
            child = e * g
            if not child.is_zero():
                push(child, frozenset(w + (gi,) for w in words))
    rows = []
    for residual, expr in found:
        terms = frozenset(basis_terms[j] for j in vec_support(residual))
        degree = st.SteenrodElt(ambient, terms).degree()
        live = frozenset(w for w in expr if not value(w).is_zero())
        rows.append((degree, residual, terms, live))
    rows.sort(key=lambda row: row[:2])
    return ([row[2] for row in rows], tuple(row[0] for row in rows),
            tuple(row[3] for row in rows))


def assert_closure_matches_reference(gens, ambient):
    alg = st.subalgebra_closure(gens, ambient)
    ref_terms, ref_degrees, ref_exprs = reference_closure(tuple(gens), ambient)
    assert [b.terms for b in alg.basis] == ref_terms
    assert alg.basis_degrees == ref_degrees
    assert alg.expressions == ref_exprs


@hst.composite
def homogeneous_generators(draw):
    ambient = draw(hst.sampled_from([1, 2]))
    by_degree = {}
    for t in st.milnor_basis(ambient)[1:]:
        by_degree.setdefault(st.milnor_degree(t), []).append(t)
    gens = []
    for _ in range(draw(hst.integers(1, 3))):
        pool = by_degree[draw(hst.sampled_from(sorted(by_degree)))]
        chosen = draw(hst.sets(hst.sampled_from(pool), min_size=1))
        gens.append(st.SteenrodElt(ambient, frozenset(chosen)))
    return gens, ambient


@given(homogeneous_generators())
def test_closure_matches_reference_on_random_generators(case):
    assert_closure_matches_reference(*case)


@pytest.mark.parametrize("make", [
    lambda: st.A(0), lambda: st.A(1), lambda: st.A(2),
    lambda: st.E(0), lambda: st.E(1), lambda: st.E(2), lambda: st.E(3),
    lambda: st.A(0, 3), lambda: st.A(1, 3), lambda: st.A(2, 3),
    fixtures.algebra_B, fixtures.algebra_P11,
], ids=["A0", "A1", "A2", "E0", "E1", "E2", "E3", "A0<A3", "A1<A3", "A2<A3",
        "B", "P11"])
def test_closure_matches_reference_on_presets(make):
    alg = make()
    assert_closure_matches_reference(alg.generators, alg.ambient)


# sha256 of A(3)'s basis terms, basis degrees, word expressions and every
# left product generators[k] * basis[j], recorded while every Milnor product
# went through the general matrix enumeration
A3_DIGEST = "9cb4b4e8e7e019f1263740226c5090890846ac7469fb41c6affabf61f203f44c"


def test_a3_outputs_are_unchanged():
    a3 = st.A(3)
    data = (
        [sorted(b.terms) for b in a3.basis],
        list(a3.basis_degrees),
        [sorted(e) for e in a3.expressions],
        [[a3.left(k, j) for j in range(a3.dim)] for k in range(len(a3.generators))],
    )
    assert hashlib.sha256(repr(data).encode()).hexdigest() == A3_DIGEST


@pytest.mark.parametrize("make, reached", [
    (lambda: st.A(3), 4 * 1024), (lambda: st.E(3), 4 * 16),
    (lambda: fixtures.algebra_B(2), 2 * 6),
], ids=["A3", "E3", "B<A2"])
def test_closure_columns_match_reference_products(make, reached):
    """Each right column the closure computed, term(d, bit) * generator,
    equals the unpruned reference product packed over its degree: the
    chain walk for the Sq(k) generators, ``_term_product`` for the rest."""
    alg = make()
    terms, place = st._graded_basis(alg.ambient)
    checked = 0
    for gi, g in enumerate(alg.generators):
        for d, cols in alg._right[gi].items():
            for bit, col in enumerate(cols):
                if col is None:
                    continue  # no accepted word had this term
                want = 0
                for s in g.terms:
                    for t in reference_term_product(terms[d][bit], s):
                        want ^= place[t][1]
                assert col == want, (alg.name, gi, terms[d][bit])
                checked += 1
    assert checked == reached


def test_a3_expressions_evaluate_back_on_a_sample():
    alg = st.A(3)
    for i in random.Random(6).sample(range(alg.dim), 48):
        acc = zero(3)
        for word in alg.expressions[i]:
            value = st._word_value(alg.generators, alg.ambient, word)
            assert not value.is_zero(), (i, word)
            acc = acc + value
        assert acc.terms == alg.basis[i].terms, i


def test_subalgebras_compare_by_ambient_and_generators():
    fresh = st.subalgebra_closure(st.A(2).generators, 2)
    assert fresh is not st.A(2)
    assert fresh == st.A(2) and hash(fresh) == hash(st.A(2))
    assert st.A(1) != st.A(1, 2)
    assert st.A(1) != st.E(1)


def test_e1_preset():
    e1 = st.E(1)
    assert e1.dim == 4
    assert e1.is_sub_hopf
    assert e1.integral().terms == {(1, 1)}  # Q0 Q1
    assert e1.integral().degree() == 4


def test_integral_of_a_presets():
    assert st.A(0).integral().terms == {(1,)}
    lam = st.A(1).integral()
    assert lam.degree() == 6 and lam.terms == {(3, 1)}


def hand_built_two_dimensional_top():
    return st.SubHopfAlgebra(
        ambient=2, name="fake", generators=(), gen_names=(),
        basis=(unit(2), Sq(3, ambient=2), Sq(0, 1, ambient=2)),
        expressions=(frozenset({()}), frozenset(), frozenset()))


def test_integral_requires_one_dimensional_top():
    with pytest.raises(st.NotFrobeniusError):
        hand_built_two_dimensional_top().integral()


def test_hand_built_algebra_differs_from_the_closure_of_its_generators():
    fake = hand_built_two_dimensional_top()
    closure = st.subalgebra_closure((), 2)
    assert closure.dim == 1
    assert fake != closure and closure != fake
    assert fake == fake and fake == hand_built_two_dimensional_top()


def test_decompose_and_membership():
    a1 = st.A(1)
    q1 = milnor_primitive(1, 1)
    combo = a1.decompose(q1)
    acc = zero(1)
    for i in combo:
        acc = acc + a1.basis[i]
    assert acc.terms == q1.terms
    b = st.subalgebra_closure([sq(2, 1)], 1)
    assert not b.contains_element(sq(1, 1))
    assert b.is_subalgebra_of(a1)
    assert not a1.is_subalgebra_of(b)


def degree_element(alg, d, packed):
    """The sum of the basis elements of degree d that ``packed`` selects."""
    ids = alg.basis_by_degree(d)
    return functools.reduce(operator.add,
                            (alg.basis[ids[r]] for r in vec_support(packed)),
                            zero(alg.ambient))


def left_decomposition_value(alg, i):
    """sum_k generators[k] * c_k, multiplied out with SteenrodElt products."""
    acc = zero(alg.ambient)
    for k, c in alg.left_decomposition(i):
        acc = acc + alg.generators[k] * degree_element(
            alg, alg.basis_degrees[i] - alg.gen_degrees[k], c)
    return acc


@pytest.mark.parametrize("alg", [st.A(0), st.A(1), st.A(2), st.E(2), st.E(3),
                                 fixtures.algebra_P11()], ids=str)
def test_left_decompositions_multiply_back(alg):
    for i in range(alg.dim):
        if i != alg.unit_index:
            assert left_decomposition_value(alg, i) == alg.basis[i], alg.basis[i]


def test_left_decompositions_multiply_back_on_seeded_a3_sample():
    a3 = st.A(3)
    for i in random.Random(1989).sample(range(1, a3.dim), 160):
        assert left_decomposition_value(a3, i) == a3.basis[i], a3.basis[i]


def test_left_products_match_steenrod_products():
    for alg in (st.A(2), st.E(2)):
        for k, g in enumerate(alg.generators):
            for j, b in enumerate(alg.basis):
                d = alg.basis_degrees[j] + alg.gen_degrees[k]
                assert degree_element(alg, d, alg.left(k, j)) == g * b


RIGHT_FACTORS = ("Sq^3", "Sq(0,1)", "Sq^2Sq^2", "Sq^4 + Sq(1,1)")


def right_factors(alg):
    """The generators, then each of RIGHT_FACTORS that lies in alg."""
    out = list(alg.generators)
    for text in RIGHT_FACTORS:
        try:
            x = parse_element(text, alg.ambient)
        except st.OutOfAmbientError:
            continue
        if alg.contains_element(x):
            out.append(x)
    return out


@pytest.mark.parametrize("alg", [
    st.A(0), st.A(1), st.A(2), st.A(3), st.E(1), st.E(2), st.E(3), st.A(1, 3),
    st.A(2, 3), st.E(2, 3), fixtures.algebra_B(), fixtures.algebra_P11()], ids=str)
def test_right_products_match_milnor_products(alg):
    """basis[j] * x from the right columns against the Milnor product
    decomposed and packed over its degree, 0 past the top degree; on A(3)
    over a seeded sample of 256 basis elements."""
    js = range(alg.dim)
    if alg.dim > 256:
        js = random.Random(2023).sample(js, 256)
    for x in right_factors(alg):
        got = alg.right_products(x)
        assert len(got) == alg.dim
        for j in js:
            d = alg.basis_degrees[j] + x.degree()
            want = 0
            if d <= alg.top_degree:
                for i in alg.decompose(alg.basis[j] * x):
                    assert alg.basis_degrees[i] == d
                    want |= 1 << alg.degree_position[i]
            assert got[j] == want, (alg.basis[j], x)


def test_right_products_reject_factors_outside_the_algebra():
    for alg, text in ((st.A(1, 2), "Sq^4"), (st.E(2), "Sq^2"),
                      (fixtures.algebra_P11(), "Sq^1"), (fixtures.algebra_B(), "Sq^1 + Sq^2")):
        with pytest.raises(ValueError, match="does not lie in"):
            alg.right_products(parse_element(text, alg.ambient))
    assert st.A(1).right_products(zero(1)) == [0] * 8


class MilnorReference:
    """Coordinates over an algebra's basis from one Gaussian elimination of
    its basis elements as vectors over the whole Milnor basis of the
    ambient; it reads nothing of the algebra but its basis and degrees."""

    def __init__(self, alg):
        self.alg = alg
        self.index = {t: i for i, t in enumerate(st.milnor_basis(alg.ambient))}
        self.span = F2Span()
        for i, b in enumerate(alg.basis):
            assert self.span.add(self.vector(b), 1 << i)

    def vector(self, e):
        return sum(1 << self.index[t] for t in e.terms)

    def decompose(self, e):
        """Sorted basis indices summing to e, or None when e is not in."""
        if e.ambient != self.alg.ambient:
            return None
        residual, combo = self.span.reduce(self.vector(e))
        return None if residual else vec_support(combo)

    def left(self, k, j):
        """generators[k] * basis[j] by SteenrodElt product, packed over its
        degree as ``SubHopfAlgebra.left`` is."""
        alg = self.alg
        d = alg.gen_degrees[k] + alg.basis_degrees[j]
        ids = [i for i, e in enumerate(alg.basis_degrees) if e == d]
        return sum(1 << ids.index(i)
                   for i in self.decompose(alg.generators[k] * alg.basis[j]))


def assert_left_matches_products(alg, pairs=None):
    ref = MilnorReference(alg)
    if pairs is None:
        pairs = [(k, j) for k in range(len(alg.generators)) for j in range(alg.dim)]
    for k, j in pairs:
        assert alg.left(k, j) == ref.left(k, j), (alg.name, k, j)


def sample_elements(alg, rng, count):
    """Seeded elements of alg's ambient: zero, sums of basis elements (most
    of them inhomogeneous), sums of ambient Milnor terms in one degree and
    across degrees, and members plus one ambient term."""
    n = alg.ambient
    terms = st.milnor_basis(n)
    out = [zero(n), unit(n), Sq(1, ambient=n)]
    for _ in range(count):
        some = rng.sample(alg.basis, rng.randint(1, min(4, alg.dim)))
        member = functools.reduce(operator.add, some)
        d = st.milnor_degree(rng.choice(terms))
        one_degree = [t for t in terms if st.milnor_degree(t) == d]
        homogeneous = rng.sample(one_degree, rng.randint(1, len(one_degree)))
        spread = rng.sample(terms, rng.randint(1, min(6, len(terms))))
        out += [member, st.SteenrodElt(n, frozenset(homogeneous)),
                st.SteenrodElt(n, frozenset(spread)),
                member + st.SteenrodElt(n, frozenset({rng.choice(terms)}))]
    return out


ORACLE_ALGEBRAS = {
    "A0": lambda: st.A(0), "A1": lambda: st.A(1), "A2": lambda: st.A(2),
    "E0": lambda: st.E(0), "E1": lambda: st.E(1), "E2": lambda: st.E(2), "E3": lambda: st.E(3),
    "A1<A3": lambda: st.A(1, 3), "A2<A3": lambda: st.A(2, 3), "E2<A3": lambda: st.E(2, 3),
    "B": fixtures.algebra_B, "P11": fixtures.algebra_P11,
    "Sq(3)+Sq(0,1)": lambda: st.subalgebra_closure([Sq(3, ambient=2) + Sq(0, 1, ambient=2)], 2),
    # Sq(1), which every sample holds, is no member here
    "F2(Sq^2)": lambda: st.subalgebra_closure([sq(2, 1)], 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_left_products_match_the_milnor_product_oracle(name):
    assert_left_matches_products(ORACLE_ALGEBRAS[name]())


def test_left_products_match_the_milnor_product_oracle_on_seeded_a3_sample():
    a3 = st.A(3)
    rng = random.Random(1958)
    pairs = [(rng.randrange(len(a3.generators)), rng.randrange(a3.dim)) for _ in range(512)]
    assert_left_matches_products(a3, pairs)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS) + ["A3"])
def test_decompose_and_membership_match_the_elimination_oracle(name):
    alg = st.A(3) if name == "A3" else ORACLE_ALGEBRAS[name]()
    ref = MilnorReference(alg)
    elements = sample_elements(alg, random.Random(name), 12)
    other = 2 if alg.ambient != 2 else 1
    elements += [sq(1, other), unit(other), zero(other)]
    seen = set()
    for e in elements:
        want = ref.decompose(e)
        seen.add(want is None)
        assert alg.contains_element(e) == (want is not None), (name, e)
        if want is None:
            error = st.AmbientMismatchError if e.ambient != alg.ambient else ValueError
            with pytest.raises(error):
                alg.decompose(e)
        else:
            assert alg.decompose(e) == want, (name, e)
    assert seen == {True, False}


@hst.composite
def generator_lists(draw):
    """Homogeneous generators in ambient 0 to 2, some of them repeated or
    products of earlier ones, so that one-letter words get rejected."""
    ambient = draw(hst.sampled_from([0, 1, 2]))
    by_degree = {}
    for t in st.milnor_basis(ambient)[1:]:
        by_degree.setdefault(st.milnor_degree(t), []).append(t)
    gens = []
    for _ in range(draw(hst.integers(1, 4))):
        how = draw(hst.sampled_from(["fresh", "repeat", "product"]) if gens else hst.just("fresh"))
        if how == "repeat":
            gens.append(draw(hst.sampled_from(gens)))
            continue
        if how == "product":
            g = draw(hst.sampled_from(gens)) * draw(hst.sampled_from(gens))
            if not g.is_zero():
                gens.append(g)
                continue
        pool = by_degree[draw(hst.sampled_from(sorted(by_degree)))]
        gens.append(st.SteenrodElt(ambient, frozenset(draw(hst.sets(hst.sampled_from(pool),
                                                                    min_size=1)))))
    return gens, ambient


@given(generator_lists())
@example(([sq(1, 1), sq(1, 1)], 1))
@example(([sq(2, 2), sq(2, 2) * sq(2, 2)], 2))
@example(([sq(1, 2), sq(2, 2), sq(1, 2) * sq(2, 2)], 2))
def test_left_products_match_the_product_oracle_on_random_closures(case):
    assert_left_matches_products(st.subalgebra_closure(*case))


def test_unit_has_no_left_decomposition():
    a1 = st.A(1)
    with pytest.raises(ValueError):
        a1.left_decomposition(a1.unit_index)


# ---------------------------------------------------------------------------
# Wall relations and doubling


def test_wall_relations_n0():
    rels = st.wall_relations(0)
    assert [r.label for r in rels] == ["Sq^1Sq^1"]


def test_wall_relations_n1():
    rels = st.wall_relations(1)
    labels = {r.label for r in rels}
    assert labels == {"Sq^1Sq^1", "Sq^2Sq^2 + Sq^1Sq^2Sq^1"}


def test_wall_relations_n2_include_classical_displays():
    labels = {frozenset(r.words) for r in st.wall_relations(2)}
    assert frozenset({(2, 2), (1, 2, 1), (1, 1, 2)}) in labels
    assert frozenset({(2, 0), (0, 2), (1, 0, 1)}) in labels


def test_wall_relations_evaluate_to_zero():
    for n in (0, 1, 2):
        for rel in st.wall_relations(n):
            assert rel.element().is_zero(), rel.label


# ---------------------------------------------------------------------------
# parsing / printing


def test_parse_element_grammar():
    assert parse_element("Sq^2", 1).terms == {(2,)}
    assert parse_element("Sq(0,1)", 1).terms == {(0, 1)}
    assert parse_element("P(1,1)", 1).terms == {(0, 1)}
    assert parse_element("Sq^1 Sq^2 + Sq^2 Sq^1", 1).terms == {(0, 1)}
    assert parse_element("Sq^2 * Sq^2", 1).terms == {(1, 1)}
    assert parse_element("1", 1).terms == {()}


def test_parse_element_rejects_junk():
    with pytest.raises(ValueError):
        parse_element("Sqq^2", 1)
    # the message quotes the text from the failing token on, and the input
    for text, rest in [("Sq^x", "Sq^x"), ("Sq(-1)", "Sq(-1)"),
                       ("Sq^2 Sq(1,-2)", "Sq(1,-2)"), ("P(2,1)", "P(2,1)"),
                       ("Sq^1 + Sq^2 Sq^x Sq^1", "Sq^x Sq^1")]:
        message = f"cannot parse element syntax at {rest!r} in {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_element(text, 3)
    with pytest.raises(st.OutOfAmbientError):
        parse_element("Sq^4", 1)


def test_parse_element_rejects_empty_summand():
    for text in ("Sq^1++Sq^2", "+Sq^1", "Sq^2 +", "+"):
        with pytest.raises(ValueError, match="empty summand"):
            parse_element(text, 1)
    assert parse_element("0", 1).is_zero()
    assert parse_element("1 + 0", 1).terms == {()}


def test_parse_element_milnor_entries_are_single_integers():
    for text in ("Sq(1 1)", "Sq(1,,1)", "Sq(,1)", "Sq(1,)", "Sq(1, 2 3)"):
        with pytest.raises(ValueError, match="one integer"):
            parse_element(text, 3)
    assert parse_element("Sq(1, 1)", 3).terms == {(1, 1)}
    assert parse_element("Sq( 0 ,1 )", 3).terms == {(0, 1)}
    assert parse_element("Sq(11)", 3).terms == {(11,)}
    assert parse_element("Sq()", 3).terms == {()}


def test_str_round_trip():
    e = sq(3, 1) + milnor_primitive(1, 1)
    assert parse_element(str(e), 1).terms == e.terms


def test_max_ambient_guard():
    with pytest.raises(ValueError):
        st.A(4)


def test_a3_preset_at_default_bound():
    # the largest preset enabled by default: dim 2^10, top degree 72
    a3 = st.A(3)
    assert a3.dim == 1024
    assert a3.top_degree == 72
    assert a3.integral().degree() == 72
