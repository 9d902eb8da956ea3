"""Graded modules: validation, functor calculus, Margolis homology."""

import hashlib
import random

import pytest

from stmod import fixtures, modfile, module as md, steenrod as st
from stmod.f2linalg import F2Matrix, F2Span
from stmod.module import (GradedModule, ModuleMap, direct_sum, double, dual,
                          hopf_quotient, induce, margolis_homology,
                          quotient_by_left_ideal, regular_module, restrict,
                          suspend, tensor, trivial_module, validate)
from stmod.resolve import ext_chart
from stmod.stable import iso_test
from stmod.steenrod import milnor_primitive, sq
from word_action import expression_columns


# ---------------------------------------------------------------------------
# validation


def test_regular_module_validates(a1_regular):
    assert validate(a1_regular) == []
    assert a1_regular.dims() == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}


def test_joker_validates(joker):
    assert validate(joker) == []


def test_broken_joker_names_wall_relation(joker):
    # kill the Sq^2 action out of the bottom cell: the A(1) relation fails
    actions = {gi: dict(per) for gi, per in joker.actions.items()}
    del actions[1][-2]
    broken = GradedModule(joker.algebra, dict(joker.labels), actions)
    bad = validate(broken)
    assert bad, "expected a Wall relation violation"
    assert any("Sq^2Sq^2 + Sq^1Sq^2Sq^1" in b for b in bad)


def test_validate_generic_subalgebra():
    e1 = st.E(1)
    assert validate(regular_module(e1)) == []
    # break commutativity of the two primitive actions
    reg = regular_module(e1)
    actions = {gi: dict(per) for gi, per in reg.actions.items()}
    actions[1][1] = F2Matrix.zero(reg.dim(4), reg.dim(1))
    broken = GradedModule(e1, dict(reg.labels), actions)
    assert validate(broken)


def _broken_variants(m):
    """m with one action matrix dropped, for each stored one."""
    for gi, per in m.actions.items():
        for d in per:
            actions = {g: dict(p) for g, p in m.actions.items()}
            del actions[gi][d]
            yield GradedModule(m.algebra, dict(m.labels), actions)


def _a2_modules():
    a2 = st.A(2)
    yield hopf_quotient(a2, st.A(1, 2))
    yield hopf_quotient(a2, st.E(2))
    yield double(fixtures.load_fixture("Joker"))


def test_wall_and_presentation_routes_agree():
    """Over A(n) both routes decide module-ness: the Wall relations and the
    closure's relations basis[i] * generator[k], reached by rebuilding the
    module over the closure of A(n)'s generators (kind "custom")."""
    modules = [fixtures.load_fixture(name) for name in fixtures.fixture_names()]
    modules = [m for m in modules if m.algebra.kind == "A" and m.algebra.kind_param >= 1]
    modules += list(_a2_modules())
    closures = {}
    seen = {True: 0, False: 0}
    for m in modules:
        alg = m.algebra
        if alg not in closures:
            closures[alg] = st.subalgebra_closure(alg.generators, alg.ambient,
                                                  names=alg.gen_names)
            assert closures[alg].kind == "custom" and closures[alg].basis == alg.basis
        for v in [m, *_broken_variants(m)]:
            generic = GradedModule(closures[alg], dict(v.labels), v.actions)
            wall_ok = validate(v) == []
            assert wall_ok == (validate(generic) == [])
            seen[wall_ok] += 1
    assert seen[True] > 100 and seen[False] > 50


# ---------------------------------------------------------------------------
# derived actions: the left decomposition against the word expressions


ACTION_CASES = {
    **{name: (lambda name=name: fixtures.load_fixture(name))
       for name in fixtures.fixture_names()},
    "A2//A1": lambda: hopf_quotient(st.A(2), st.A(1, 2)),
    "double(Joker)": lambda: double(fixtures.load_fixture("Joker")),
    "A3//A2": lambda: hopf_quotient(st.A(3), st.A(2, 3)),
    "E(2)": lambda: regular_module(st.E(2)),
    "P11": lambda: regular_module(fixtures.algebra_P11()),
    "B": lambda: regular_module(fixtures.algebra_B()),
}


@pytest.mark.parametrize("name", ACTION_CASES)
def test_basis_op_matches_word_expressions(name):
    """Every basis element on every degree, by its left decomposition and
    by ``words_op`` on its words; over A(3), whose 1,024 word expressions
    take seconds to evaluate, a seeded quarter of them."""
    m = ACTION_CASES[name]()
    indices = range(m.algebra.dim)
    if len(indices) > 256:
        indices = random.Random(0).sample(indices, 256)
    for i in indices:
        for d in m.degrees():
            want = expression_columns(m, i, d)
            assert m.basis_op(i, d) == want, (i, d)
            assert tuple(m.words_op(m.algebra.expressions[i], d)) == want, (i, d)


def test_basis_op_columns_are_products(A2):
    """On the regular module, column j of basis[i] on degree d is the
    product basis[i] * basis[j], for j the degree-d basis elements."""
    reg = regular_module(A2)
    for i, x in enumerate(A2.basis):
        for d in A2.degrees:
            pos = {b: p for p, b in enumerate(A2.basis_by_degree(d + x.degree()))}
            want = tuple(sum(1 << pos[k] for k in _ref_products(A2, x, A2.basis[j])[1])
                         for j in A2.basis_by_degree(d))
            assert reg.basis_op(i, d) == want, (i, d)


def test_shape_error():
    a1 = st.A(1)
    with pytest.raises(md.ShapeError):
        GradedModule(a1, {0: ("x",), 1: ("y",)},
                     {0: {0: F2Matrix.zero(5, 1)}})


# ---------------------------------------------------------------------------
# suspension and duality


def test_suspend_basic(f2_a1):
    s = suspend(f2_a1, 5)
    assert s.dims() == {5: 1}
    assert suspend(suspend(f2_a1, 3), 4).dims() == suspend(f2_a1, 7).dims()


def test_suspend_compose_functorially(hz):
    a = suspend(suspend(hz, 2), -7)
    b = suspend(hz, -5)
    assert a.dims() == b.dims()
    assert a.actions == b.actions


def test_dual_trivial(f2_a1):
    assert dual(f2_a1).dims() == {0: 1}


def test_dual_involution(joker, hz, a1_regular):
    for m in (joker, hz, a1_regular):
        dd = dual(dual(m))
        assert dd.dims() == m.dims()
        assert iso_test(dd, m) is not None


def test_dual_of_regular_is_shifted_regular(a1_regular):
    d = dual(a1_regular)
    assert iso_test(d, suspend(a1_regular, -6)) is not None


def test_dual_of_a3_mod_a2_is_a_module():
    assert validate(dual(hopf_quotient(st.A(3), st.A(2, 3)))) == []


def test_dual_of_aug_ideal_has_displayed_degrees():
    i1 = fixtures.load_fixture("I1")
    di1 = dual(i1)
    assert di1.dims() == {-1: 1, -2: 1, -3: 2, -4: 1, -5: 1, -6: 1}


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_unit(f2_a1, joker):
    t = tensor(f2_a1, joker)
    assert iso_test(t, joker) is not None


def test_tensor_requires_sub_hopf():
    b = fixtures.algebra_B()
    m = trivial_module(b)
    with pytest.raises(md.NoDiagonalActionError):
        tensor(m, m)


def test_tensor_dual_compatibility(joker, hz):
    # D(M (x) N) ~ D(M) (x) D(N) on small fixtures
    for m, n in ((joker, hz), (hz, hz)):
        lhs = dual(tensor(m, n))
        rhs = tensor(dual(m), dual(n))
        assert iso_test(lhs, rhs) is not None


def _ref_tensor(m, n):
    """m (x) n entry by entry: x_i1 (x) y_i2 in the order of (d1, d2, i1, i2),
    and g.(x (x) y) the sum of a.x (x) b.y over the coproduct terms a (x) b."""
    pairs = {}
    for d1 in m.degrees():
        for d2 in n.degrees():
            pairs.setdefault(d1 + d2, []).extend(
                (d1, i1, d2, i2) for i1 in range(m.dim(d1)) for i2 in range(n.dim(d2)))
    index = {key: pos for lst in pairs.values() for pos, key in enumerate(lst)}
    labels = {d: tuple(f"{m.labels[d1][i1]}|{n.labels[d2][i2]}" for d1, i1, d2, i2 in lst)
              for d, lst in pairs.items()}
    actions = {}
    for gi, gen in enumerate(m.algebra.generators):
        g = m.algebra.gen_degrees[gi]
        for d, lst in pairs.items():
            if d + g not in pairs:
                continue
            cols = []
            for d1, i1, d2, i2 in lst:
                col = 0
                for a, b in st.coproduct(gen):
                    va = m.element_op(a, d1)[i1]
                    vb = n.element_op(b, d2)[i2]
                    for p in range(m.dim(d1 + a.degree())):
                        for q in range(n.dim(d2 + b.degree())):
                            if (va >> p) & 1 and (vb >> q) & 1:
                                col ^= 1 << index[d1 + a.degree(), p, d2 + b.degree(), q]
                cols.append(col)
            actions.setdefault(gi, {})[d] = F2Matrix.from_cols(cols, len(pairs[d + g]))
    name = f"{m.meta.get('name', '?')}(x){n.meta.get('name', '?')}"
    return GradedModule(m.algebra, labels, actions, meta={"name": name})


TENSOR_CASES = {
    "Joker-Joker": lambda: (fixtures.load_fixture("Joker"), fixtures.load_fixture("Joker")),
    "HZ-kU": lambda: (fixtures.load_fixture("HZ"), fixtures.load_fixture("kU")),
    "I(A1)-Joker": lambda: (md.aug_ideal_module(st.A(1)), fixtures.load_fixture("Joker")),
    "A2//A1-A2//A1": lambda: (hopf_quotient(st.A(2), st.A(1, 2)),) * 2,
    "SO8modSp2-D": lambda: (fixtures.load_fixture("SO8modSp2"),
                            dual(fixtures.load_fixture("SO8modSp2"))),
    "HZ[-7]-DkU[-3]": lambda: (suspend(fixtures.load_fixture("HZ"), -7),
                               suspend(dual(fixtures.load_fixture("kU")), -3)),
}


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tensor_matches_reference(case):
    m, n = TENSOR_CASES[case]()
    _same(tensor(m, n), _ref_tensor(m, n))


# ---------------------------------------------------------------------------
# quotients


def test_hz_quotient_dims(A1):
    hz = quotient_by_left_ideal(A1, [sq(1, 1)])
    assert hz.dims() == {0: 1, 2: 1, 3: 1, 5: 1}


def test_ku_quotient_dims(A1):
    ku = quotient_by_left_ideal(A1, [sq(1, 1), sq(1, 1) * sq(2, 1)])
    assert ku.dims() == {0: 1, 2: 1}


def test_joker_quotient(A1, joker):
    j = suspend(quotient_by_left_ideal(A1, [sq(3, 1)]), -2)
    assert j.dims() == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
    assert iso_test(j, joker) is not None


def test_hopf_quotient_requires_subalgebra(A1):
    e2 = st.E(2)
    with pytest.raises(ValueError):
        hopf_quotient(A1, e2)


def test_hopf_quotient_p11_dims(A1):
    m = hopf_quotient(A1, fixtures.algebra_P11())
    assert m.dims() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_ideal_generators_must_lie_in_algebra(A1):
    with pytest.raises(ValueError):
        quotient_by_left_ideal(A1, [sq(4, 1) if False else st.Sq(0, 0, 1, ambient=1)])


# ---------------------------------------------------------------------------
# induction and restriction


def test_restrict_to_same_algebra(joker):
    r = restrict(joker, joker.algebra)
    assert r.dims() == joker.dims()
    assert iso_test(r, joker) is not None


def test_restrict_a1_to_b_not_free():
    # the regular module restricted to the six-dimensional commutative
    # subalgebra is not free: Sq^1 * Q_1 = Sq^2 Sq^2 witnesses a relation
    b = fixtures.algebra_B()
    s1 = sq(1, 1)
    q1 = milnor_primitive(1, 1)
    assert (s1 * q1).terms == (sq(2, 1) * sq(2, 1)).terms
    reg = restrict(regular_module(st.A(1)), b)
    assert validate(reg) == []
    # dim 8 is not a multiple of a free cover pattern dim 6; the witness
    # above shows 1 and Sq^1 cannot generate freely
    assert reg.total_dim == 8


def test_restriction_of_p11_quotient_is_trivial(A1):
    """The central primitive acts as zero on its own Hopf quotient, so the
    restriction is four trivial lines (two independent cross-checks below)."""
    p11 = fixtures.algebra_P11()
    m = hopf_quotient(A1, p11)
    r = restrict(m, p11)
    q1 = milnor_primitive(1, 1)
    assert not any(c for d in r.degrees() for c in r.element_op(q1, d))
    f2 = trivial_module(p11)
    target = direct_sum(direct_sum(f2, suspend(f2, 1)),
                        direct_sum(suspend(f2, 2), suspend(f2, 3)))
    assert iso_test(r, target) is not None
    # cross-check: Margolis homology w.r.t. Q1 is everything
    assert margolis_homology(m, 1) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_induce_identity(A1, hz):
    i = induce(A1, A1, hz)
    assert iso_test(i, hz) is not None


def test_induce_retags_a_module_over_a_smaller_ambient_copy_of_b():
    m = fixtures.load_fixture("A1modP11")
    p11 = fixtures.algebra_P11(2)
    over_p11 = restrict(m, fixtures.algebra_P11())  # in ambient 1
    assert induce(st.A(2), p11, over_p11).actions == induce(st.A(2), p11, m).actions


def test_induce_trivial_module_gives_hopf_quotient(A1):
    a0 = st.A(0, 1)
    i = induce(A1, a0, trivial_module(a0))
    assert iso_test(i, hopf_quotient(A1, a0)) is not None


def test_induced_p11_quotient_decomposition(A1):
    """Induction of the quotient by the central primitive: four shifted
    copies of the quotient (equivalently its tensor square); the claimed
    free summand cannot exist because Q1-Margolis homology is everything."""
    p11 = fixtures.algebra_P11()
    m = hopf_quotient(A1, p11)
    ind = induce(A1, p11, m)
    assert ind.total_dim == 16
    tgt = direct_sum(direct_sum(m, suspend(m, 1)),
                     direct_sum(suspend(m, 2), suspend(m, 3)))
    assert iso_test(ind, tgt) is not None
    assert iso_test(ind, tensor(m, m)) is not None
    assert margolis_homology(ind, 1) != {}


# ---------------------------------------------------------------------------
# constructors against a reference built from Milnor products


def _ref_quotient(alg, slots, relations, image, name, prefix):
    """(span of the slots) / relations, with generator gi sending slot key
    to image(gi, key); slots: degree -> keys, relations and images: lists of
    (degree, keys), the keys summed."""
    pos = {d: {key: j for j, key in enumerate(keys)} for d, keys in slots.items()}

    def vec(d, keys):
        v = 0
        for key in keys:
            v ^= 1 << pos[d][key]
        return v

    spans = {d: F2Span() for d in slots}
    for d, keys in relations:
        if d in slots:
            spans[d].add(vec(d, keys))
    kept = {}
    for d, keys in slots.items():
        pivots = set(spans[d].pivots())
        kept[d] = [j for j in range(len(keys)) if j not in pivots]
    labels = {d: tuple(f"{prefix}{d}_{k}" for k in range(len(js)))
              for d, js in kept.items() if js}
    actions = {}
    for gi, g in enumerate(alg.gen_degrees):
        for d, js in kept.items():
            if js and kept.get(d + g):
                cols = []
                for j in js:
                    d2, keys = image(gi, slots[d][j])
                    v = spans[d2].reduce(vec(d2, keys))[0]
                    cols.append(sum(1 << p for p, jj in enumerate(kept[d2]) if (v >> jj) & 1))
                actions.setdefault(gi, {})[d] = F2Matrix.from_cols(cols, len(kept[d + g]))
    return GradedModule(alg, labels, actions, meta={"name": name})


def _ref_products(alg, x, y):
    """(degree, basis indices) of x * y; zero above the top degree."""
    d = x.degree() + y.degree()
    return d, alg.decompose(x * y) if d <= alg.top_degree else []


def _ref_regular(alg):
    labels = {d: tuple(f"b{i}" for i in alg.basis_by_degree(d)) for d in alg.degrees}
    actions = {}
    for gi, g in enumerate(alg.generators):
        for d in alg.degrees:
            pos = {i: p for p, i in enumerate(alg.basis_by_degree(d + g.degree()))}
            cols = [sum(1 << pos[i] for i in _ref_products(alg, g, alg.basis[bi])[1])
                    for bi in alg.basis_by_degree(d)]
            actions.setdefault(gi, {})[d] = F2Matrix.from_cols(cols, len(pos))
    return GradedModule(alg, labels, actions, meta={"name": alg.name})


def _ref_kill(alg, gens, name):
    slots = {d: list(alg.basis_by_degree(d)) for d in alg.degrees}
    relations = [_ref_products(alg, b, x) for x in gens for b in alg.basis]
    return _ref_quotient(alg, slots, relations,
                         lambda gi, bi: _ref_products(alg, alg.generators[gi], alg.basis[bi]),
                         name, "q")


def _ref_hopf(h, k):
    return _ref_kill(h, [b for b, d in zip(k.basis, k.basis_degrees) if d > 0],
                     f"{h.name}//{k.name}")


def _ref_induce(a, b, m):
    if m.algebra != b:
        m = restrict(m, b)
    slots = {}
    for ai, dx in enumerate(a.basis_degrees):
        for dv in m.degrees():
            slots.setdefault(dx + dv, []).extend((ai, dv, iv) for iv in range(m.dim(dv)))

    def tensor_keys(indices, dv, v):
        return [(ai, dv, iv) for ai in indices for iv in range(m.dim(dv)) if (v >> iv) & 1]

    relations = []
    for ai, x in enumerate(a.basis):
        for y in (y for y, dy in zip(b.basis, b.basis_degrees) if dy > 0):
            d, xy = _ref_products(a, x, y)
            for dv in m.degrees():
                for iv in range(m.dim(dv)):
                    yv = m.element_op(y, dv)[iv]
                    relations.append((d + dv, tensor_keys(xy, dv, 1 << iv)
                                      + tensor_keys([ai], dv + y.degree(), yv)))

    def image(gi, key):
        ai, dv, iv = key
        d, gx = _ref_products(a, a.generators[gi], a.basis[ai])
        return d + dv, tensor_keys(gx, dv, 1 << iv)

    name = f"{a.name}(x)_{b.name} {m.meta.get('name', '?')}"
    return _ref_quotient(a, slots, relations, image, name, "i")


def _same(built, ref):
    assert built == ref
    assert built.meta == ref.meta


@pytest.mark.parametrize("alg", [st.A(0), st.A(1), st.A(2), st.E(1), st.E(2)],
                         ids=str)
def test_regular_module_matches_reference(alg):
    _same(regular_module(alg), _ref_regular(alg))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hopf_quotients_match_reference(n):
    h = st.A(n)
    for k in range(n + 1):
        for sub in (st.A(k, n), st.E(k, n)):
            _same(hopf_quotient(h, sub), _ref_hopf(h, sub))
    if n == 1:
        p11 = fixtures.algebra_P11()
        _same(hopf_quotient(h, p11), _ref_hopf(h, p11))


@pytest.mark.parametrize("gens", [[sq(1, 1)], [sq(1, 1), sq(1, 1) * sq(2, 1)], [sq(3, 1)]],
                         ids=["HZ", "kU", "Joker"])
def test_kill_sets_match_reference(A1, gens):
    name = f"A(1)/({', '.join(str(x) for x in gens)})"
    _same(quotient_by_left_ideal(A1, gens), _ref_kill(A1, gens, name))


# the reference for A(3) (x)_E(3) F2 takes 1.3 s cold, so A(3) is checked
# over E(2)
@pytest.mark.parametrize("case", ["A1-P11-A1modP11", "A1-A1-HZ", "A2-A1-F2", "A3-E2-F2"])
def test_induce_matches_reference(case, hz):
    a, b, m = {
        "A1-P11-A1modP11": lambda: (st.A(1), fixtures.algebra_P11(),
                                    fixtures.load_fixture("A1modP11")),
        "A1-A1-HZ": lambda: (st.A(1), st.A(1), hz),
        "A2-A1-F2": lambda: (st.A(2), st.A(1, 2), trivial_module(st.A(1, 2))),
        "A3-E2-F2": lambda: (st.A(3), st.E(2, 3), trivial_module(st.E(2, 3))),
    }[case]()
    _same(induce(a, b, m), _ref_induce(a, b, m))


@pytest.fixture(scope="module")
def a2_mod_a1():
    return hopf_quotient(st.A(2), st.A(1, 2))


@pytest.mark.parametrize("name", ["Q", "double(Joker)", "Q(x)Q"])
def test_shearing_matches_induction(a2_mod_a1, name):
    """Shearing, an independent check of ``induce``: with Q = A(2)//A(1),
    Q (x) M is isomorphic to A(2) (x)_A(1) M for every A(2)-module M."""
    q = a2_mod_a1
    m = {"Q": lambda: q, "double(Joker)": lambda: double(fixtures.load_fixture("Joker")),
         "Q(x)Q": lambda: tensor(q, q)}[name]()
    sheared = tensor(q, m)
    induced = induce(st.A(2), st.A(1, 2), restrict(m, st.A(1, 2)))
    assert isinstance(iso_test(sheared, induced), ModuleMap)
    if name != "Q(x)Q":
        assert ext_chart(sheared, 6, 30) == ext_chart(induced, 6, 30)


# sha256 of serialize_module(hopf_quotient(A(3), A(2, 3)), name="A3modA2")
A3_MOD_A2_DIGEST = "249e13b6c1a7d5f3213fa3782983baddae610d4d02bf4bfa2c3d466fd2c87f5b"


def test_a3_mod_a2_output_is_pinned():
    text = modfile.serialize_module(hopf_quotient(st.A(3), st.A(2, 3)), name="A3modA2")
    assert hashlib.sha256(text.encode()).hexdigest() == A3_MOD_A2_DIGEST


def test_induce_retags_a_preset_module_onto_the_larger_ambient(joker):
    """A module over A(1) induces along A(1) < A(2): its generators are
    A(1, 2)'s, in the same order."""
    over_a12 = GradedModule(st.A(1, 2), joker.labels, joker.actions, joker.meta)
    assert validate(over_a12) == []
    _same(induce(st.A(2), st.A(1, 2), joker), induce(st.A(2), st.A(1, 2), over_a12))
    with pytest.raises(ValueError, match="middle algebra"):
        induce(st.A(2), st.E(1, 2), trivial_module(st.A(0)))


# ---------------------------------------------------------------------------
# doubling


def test_double_trivial(f2_a1):
    a0 = st.A(0)
    d = double(trivial_module(a0))
    assert d.dims() == {0: 1}
    assert d.algebra.name == "A(1)"


def test_double_a0_is_ku():
    d = double(regular_module(st.A(0)))
    ku = fixtures.load_fixture("kU")
    assert validate(d) == []
    assert iso_test(d, ku) is not None


def test_double_a1_is_a2_mod_e2(A2, a1_regular):
    d = double(a1_regular)
    assert validate(d) == []
    assert d.dims() == {0: 1, 2: 1, 4: 1, 6: 2, 8: 1, 10: 1, 12: 1}
    target = hopf_quotient(A2, st.E(2))
    assert iso_test(d, target) is not None


# ---------------------------------------------------------------------------
# Margolis homology


def test_margolis_trivial_module(f2_a1):
    assert margolis_homology(f2_a1, 0) == {0: 1}
    assert margolis_homology(f2_a1, 1) == {0: 1}


def test_margolis_free_vanishes(a1_regular):
    assert margolis_homology(a1_regular, 0) == {}
    assert margolis_homology(a1_regular, 1) == {}


def test_margolis_joker_middle_class(joker):
    # direct matrix oracle on the five-cell diagram: Sq^1 pairs the two
    # bottom and the two top cells, leaving one class in the middle
    assert margolis_homology(joker, 0) == {0: 1}
    assert margolis_homology(joker, 1) == {0: 1}


def test_margolis_requires_primitive_in_algebra():
    e1 = st.E(1)
    m = trivial_module(e1)
    assert margolis_homology(m, 1) == {0: 1}
    b = fixtures.algebra_B()
    with pytest.raises(ValueError):
        margolis_homology(trivial_module(b), 0)  # Q0 is not in B


# ---------------------------------------------------------------------------
# zero module and maps


def test_zero_module_total():
    a1 = st.A(1)
    z = md.zero_module(a1)
    assert z.is_zero()
    assert validate(z) == []
    assert suspend(z, 3).is_zero()
    assert dual(z).is_zero()
    assert tensor(z, trivial_module(a1)).is_zero()


def test_module_map_equivariance_enforced(hz, f2_a1):
    # a degree-0 "projection" HZ -> F2 that is not a module map: send the
    # degree-0 class and also pretend degree-2 hits something
    with pytest.raises(ValueError):
        ModuleMap(hz, suspend(f2_a1, 2),
                  {2: F2Matrix.identity(1)})


def test_cyclic_map_construction(A1, f2_a1):
    # the source is read off its own action, so a file-loaded HZ gives the
    # map the built one does
    hz = hopf_quotient(A1, st.A(0, 1))
    f = ModuleMap.from_cyclic(hz, f2_a1, 1, 0)
    assert not f.is_zero()
    assert f.mat(0).columns == (1,)
    loaded = ModuleMap.from_cyclic(fixtures.load_fixture("HZ"), f2_a1, 1, 0)
    assert loaded.mats == f.mats
    # SO8modSp2 is one-dimensional in degree 0 but not generated there
    with pytest.raises(ValueError, match="u1 \\(degree 1\\) is not a multiple"):
        ModuleMap.from_cyclic(fixtures.load_fixture("SO8modSp2"), f2_a1, 1, 0)


def test_cyclic_map_refuses_a_source_without_a_single_generator(A1, f2_a1):
    reg = regular_module(A1)
    with pytest.raises(ValueError, match="not one-dimensional in degree 3"):
        ModuleMap.from_cyclic(reg, suspend(f2_a1, 3), 1, 3)
    with pytest.raises(ValueError, match="not one-dimensional in degree 1"):
        ModuleMap.from_cyclic(f2_a1, f2_a1, 1, 1)
    # F2 -> HZ on the generator is well defined as a linear map but not
    # equivariant: Sq^2 kills the source's generator and not its image
    with pytest.raises(ValueError, match="does not commute"):
        ModuleMap.from_cyclic(f2_a1, hopf_quotient(A1, st.A(0, 1)), 1, 0)


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_cyclic_fixtures_map_onto_themselves_by_the_identity(name):
    # a module is cyclic iff Ext^0(M, F2), the minimal generators, is one
    # class, found here by the resolver; its identity is then the map that
    # fixes the bottom class, and every other fixture is refused
    m = fixtures.load_fixture(name)
    bottom = min(m.degrees())
    chart = ext_chart(m, 0, max(m.degrees()))
    if sum(chart.get(0, t) for t in m.degrees()) == 1:
        f = ModuleMap.from_cyclic(m, m, 1, bottom)
        assert f.mats == ModuleMap.identity(m).mats
    else:
        with pytest.raises(ValueError, match="not one-dimensional|not a multiple"):
            ModuleMap.from_cyclic(m, m, 1, bottom)


def test_validate_catches_square_of_primitive_beyond_top_degree():
    # a fake chain 0 -> 3 -> 6 over the exterior algebra on the central
    # primitive: the square must act as zero even though the product lands
    # above the algebra's top degree
    p11 = fixtures.algebra_P11()
    labels = {0: ("a",), 3: ("b",), 6: ("c",)}
    chain = {0: {0: F2Matrix.identity(1), 3: F2Matrix.identity(1)}}
    fake = GradedModule(p11, labels, chain)
    assert validate(fake), "nonzero square of the primitive must be flagged"
    # the honest version with the square acting as zero is fine
    ok = GradedModule(p11, labels, {0: {0: F2Matrix.identity(1)}})
    assert validate(ok) == []
