"""The shipped module library and named exact sequences.

Fixtures are data: .mod files in the package's fixtures/ directory, loaded
through the module-file grammar.  ``reference_constructions`` rebuilds each
one from first principles (quotients, duals, suspensions, doubling), which
the test suite uses to certify the files; ``verify_fixture`` runs the
validation plus the documented identity for one fixture.
"""

from __future__ import annotations

import os

from . import modfile, steenrod
from .f2linalg import F2Matrix
from .module import (GradedModule, ModuleMap, aug_ideal_module, dual,
                     hopf_quotient, quotient_by_left_ideal, regular_module,
                     suspend, trivial_module, validate, zero_module)
from .stable import check_exact, reduce_module, selfdual_shift
from .steenrod import milnor_primitive, parse_element, sq


def algebra_B(ambient: int = 1) -> steenrod.SubHopfAlgebra:
    """The 6-dimensional commutative subalgebra generated by Sq^2 and the
    first Milnor primitive Q_1, inside A(ambient)."""
    return steenrod.subalgebra_closure(
        [sq(2, ambient), milnor_primitive(1, ambient)], ambient,
        names=("Sq^2", "P(1,1)"), name="F2(Sq^2,P(1,1))")


def algebra_P11(ambient: int = 1) -> steenrod.SubHopfAlgebra:
    """The exterior subalgebra on the primitive Q_1 inside A(ambient)."""
    return steenrod.subalgebra_closure(
        [milnor_primitive(1, ambient)], ambient, names=("P(1,1)",), name="F2(P(1,1))")


def _a1_quotient(words: list[str], shift: int = 0) -> GradedModule:
    alg = steenrod.A(1)
    gens = [parse_element(w, 1) for w in words]
    return suspend(quotient_by_left_ideal(alg, gens), shift)


def _so8_mod_sp2() -> GradedModule:
    """Cohomology of the 18-dimensional homogeneous space SO(8)/Sp(2):
    a truncated polynomial tower on a degree-1 class, tensored with
    exterior classes in degrees 5 and 6 that the algebra ignores."""
    alg = steenrod.A(1)
    labels: dict[int, list[str]] = {}
    pos: dict[tuple[int, int, int], tuple[int, int]] = {}
    for a in range(8):
        for b in (0, 1):
            for c in (0, 1):
                d = a + 5 * b + 6 * c
                bits = []
                if a == 1:
                    bits.append("u1")
                elif a > 1:
                    bits.append(f"u1^{a}")
                if b:
                    bits.append("u5")
                if c:
                    bits.append("u6")
                label = "".join(bits) or "e"
                labels.setdefault(d, []).append(label)
                pos[(a, b, c)] = (d, len(labels[d]) - 1)
    sq1_target = {1: 2, 3: 4, 5: 6}          # odd powers below the truncation
    sq2_target = {2: 4, 3: 5}                # binomial parity on the tower
    actions: dict[int, dict[int, F2Matrix]] = {0: {}, 1: {}}
    for gi, targets, gdeg in ((0, sq1_target, 1), (1, sq2_target, 2)):  # Sq^1, Sq^2
        per: dict[int, dict[int, int]] = {}
        for (a, b, c), (d, i) in pos.items():
            if a in targets:
                td, ti = pos[(targets[a], b, c)]
                per.setdefault(d, {})[i] = 1 << ti
        for d, colmap in per.items():
            cols = [colmap.get(i, 0) for i in range(len(labels[d]))]
            actions[gi][d] = F2Matrix.from_cols(cols, len(labels.get(d + gdeg, [])))
    return GradedModule(alg, {d: tuple(ls) for d, ls in labels.items()}, actions,
                        meta={"name": "SO8modSp2"})


def reference_constructions() -> dict[str, GradedModule]:
    """Each fixture rebuilt from the library operations (no file I/O)."""
    A1 = steenrod.A(1)
    A0 = steenrod.A(0)
    E1 = steenrod.E(1)
    A0in1 = steenrod.A(0, 1)
    J = _a1_quotient(["Sq^3"], -2)
    out = {
        "F2": trivial_module(A1),
        "A0": regular_module(A0),
        "A1": regular_module(A1),
        "E1": regular_module(E1),
        "I1": aug_ideal_module(A1),
        "DI1": dual(aug_ideal_module(A1)),
        "Joker": J,
        "OmegaJoker": _a1_quotient(["Sq^1", "Sq^2 Sq^1 Sq^2"], 1),
        "OmegaInvJoker": _a1_quotient(["Sq^2"], -4),
        "Omega2InvJoker": _a1_quotient(["Sq^2 Sq^1"], -7),
        "HZ": hopf_quotient(A1, A0in1),
        "kU": hopf_quotient(A1, E1),
        "A1modP11": hopf_quotient(A1, algebra_P11()),
        "QuestionMark": _a1_quotient(["Sq^2"]),
        "QuestionMarkUpside": _a1_quotient(["Sq^1", "Sq^2 Sq^1 Sq^2"]),
        "A1modSq1Sq2": _a1_quotient(["Sq^1 Sq^2"]),
        "A1modSq1Sq2Sq1Sq2": _a1_quotient(["Sq^1 Sq^2 Sq^1 Sq^2"]),
        "A1modSq1Sq2Sq1": _a1_quotient(["Sq^1 Sq^2 Sq^1"]),
        "A1modSq2Sq1": _a1_quotient(["Sq^2 Sq^1"]),
        "A1modSq2Sq1Sq2": _a1_quotient(["Sq^2 Sq^1 Sq^2"]),
        "A1modSq1Sq2Sq1_Sq2Sq1Sq2": _a1_quotient(["Sq^1 Sq^2 Sq^1", "Sq^2 Sq^1 Sq^2"]),
        "A1modSq1Sq2_Sq1Sq2Sq1": _a1_quotient(["Sq^1 Sq^2", "Sq^1 Sq^2 Sq^1"]),
        "A1modSq2Sq1_Sq2Sq1Sq2": _a1_quotient(["Sq^2 Sq^1", "Sq^2 Sq^1 Sq^2"]),
        "A1modSq1Sq2_Sq2Sq1": _a1_quotient(["Sq^1 Sq^2", "Sq^2 Sq^1"]),
        "A1modSq2P11": _a1_quotient(["Sq^2", "P(1,1)"]),
        "SO8modSp2": _so8_mod_sp2(),
    }
    # Omega^2 Joker: two-generator presentation; the shipped diagram is the
    # reduced five-cell module, reconstructed here by looping twice
    from .stable import loop
    out["Omega2Joker"] = loop(loop(J))
    return out


#: fixture name -> (description, documented identity run by --verify)
_IDENTITIES = {
    "F2": ("trivial module", lambda m: not validate(m)),
    "A0": ("rank-one free module", lambda m: reduce_module(m).free_part == (0,)),
    "A1": ("rank-one free module", lambda m: reduce_module(m).free_part == (0,)),
    "E1": ("rank-one free module", lambda m: reduce_module(m).free_part == (0,)),
    "I1": ("augmentation ideal, syzygy of F2", lambda m: m.dims() ==
           {1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}),
    "DI1": ("dual augmentation ideal", lambda m: selfdual_shift(m) is None),
    "Joker": ("self-dual with shift 0", lambda m: selfdual_shift(m) == 0),
    "OmegaJoker": ("question-mark syzygy, support {1,3,4}",
                   lambda m: m.degrees() == (1, 3, 4)),
    "Omega2Joker": ("double syzygy, support {2,4,5,6,7}",
                    lambda m: m.degrees() == (2, 4, 5, 6, 7)),
    "OmegaInvJoker": ("cosyzygy, support {-4,-3,-1}",
                      lambda m: m.degrees() == (-4, -3, -1)),
    "Omega2InvJoker": ("double cosyzygy, support {-7,-6,-5,-4,-2}",
                       lambda m: m.degrees() == (-7, -6, -5, -4, -2)),
    "HZ": ("self-dual with shift 5", lambda m: selfdual_shift(m) == 5),
    "kU": ("self-dual with shift 2", lambda m: selfdual_shift(m) == 2),
    "A1modP11": ("self-dual with shift 3", lambda m: selfdual_shift(m) == 3),
    "QuestionMark": ("not self-dual", lambda m: selfdual_shift(m) is None),
    "QuestionMarkUpside": ("not self-dual", lambda m: selfdual_shift(m) is None),
    "A1modSq2P11": ("self-dual with shift 1", lambda m: selfdual_shift(m) == 1),
    "SO8modSp2": ("self-dual with shift 18", lambda m: selfdual_shift(m) == 18),
}


# a plain path: importing importlib.resources costs more than all of stmod
def fixture_names() -> list[str]:
    root = os.path.join(os.path.dirname(__file__), "fixtures")
    return sorted(f[:-4] for f in os.listdir(root) if f.endswith(".mod"))


def fixture_path_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.mod")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise KeyError(f"no fixture named {name!r}; see `stmod fixtures`")


def load_fixture(name: str) -> GradedModule:
    return modfile.parse_module(fixture_path_text(name), name_hint=name)


def verify_fixture(name: str) -> list[str]:
    """Validation failures plus the documented identity for one fixture."""
    m = load_fixture(name)
    problems = list(validate(m))
    entry = _IDENTITIES.get(name)
    if entry is not None:
        desc, check = entry
        if not check(m):
            problems.append(f"{name}: identity failed ({desc})")
    return problems


def fixture_description(name: str) -> str:
    entry = _IDENTITIES.get(name)
    return entry[0] if entry else "module fixture"


# ---------------------------------------------------------------------------
# Named exact sequences


def _cyclic_chain(terms, words: list[str]) -> list[ModuleMap]:
    """The maps terms[i+1] -> terms[i] between cyclic A(1)-modules, each
    given as (module, generator degree), that send the source's generator
    to words[i] times the target's."""
    return [ModuleMap.from_cyclic(src, tgt, tgt.element_op(parse_element(w, 1), g)[0], h)
            for (tgt, g), (src, h), w in zip(terms, terms[1:], words)]


def bott_sequence() -> list[ModuleMap]:
    """The six-term extension of the trivial module whose class generates
    the (4,12) periodicity slot: F2 <- HZ <- A(1)[2] <- A(1)[4] <- HZ[7]
    <- F2[12] <- 0, maps forced by minimal-generator degrees."""
    A1 = steenrod.A(1)
    HZ = hopf_quotient(A1, steenrod.A(0, 1))
    F2 = trivial_module(A1)
    reg = regular_module(A1)
    terms = [(F2, 0), (HZ, 0), (suspend(reg, 2), 2), (suspend(reg, 4), 4),
             (suspend(HZ, 7), 7), (suspend(F2, 12), 12)]
    return _cyclic_chain(terms, ["1", "Sq^2", "Sq^2", "Sq^3", "Sq(2,1)"])


def p11_periodic_sequence() -> list[ModuleMap]:
    """Three stages of the periodic resolution of A(1)//F2(P(1,1)) by rank
    one free modules, differentials given by the central primitive."""
    A1 = steenrod.A(1)
    reg = regular_module(A1)
    terms = [(hopf_quotient(A1, algebra_P11()), 0), (reg, 0),
             (suspend(reg, 3), 3), (suspend(reg, 6), 6)]
    return _cyclic_chain(terms, ["1", "P(1,1)", "P(1,1)"])


def pad_with_zero_ends(maps: list[ModuleMap]) -> list[ModuleMap]:
    """Wrap a chain in zero modules so every original term is interior."""
    alg = maps[0].target.algebra
    return ([ModuleMap.zero(maps[0].target, zero_module(alg))] + maps
            + [ModuleMap.zero(zero_module(alg), maps[-1].source)])
