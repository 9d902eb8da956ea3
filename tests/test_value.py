"""Value semantics of the slotted value classes, and what ``import stmod`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stmod
from stmod import fixtures, resolve, rootspin, stable, steenrod
from stmod.f2linalg import F2Matrix


def _a1():
    return rootspin.generate_positive_roots("A", 1)


def _resolution():
    return resolve.minimal_resolution(fixtures.load_fixture("F2"), 2, 6)


SAMPLES = {
    "F2Matrix": lambda: F2Matrix(3, 2, (1, 6)),
    "SteenrodElt": lambda: steenrod.Sq(2, 1, ambient=2),
    "WallRelation": lambda: steenrod.WallRelation(1, frozenset({(0, 0)}), "Sq^1Sq^1"),
    "RootSystem": _a1,
    "GroupForm": lambda: rootspin.GroupForm.adjoint(_a1()),
    "SpinReport": lambda: rootspin.u_n_adjoint_spin(2),
    "Decomposition": lambda: stable.reduce_module(fixtures.load_fixture("Joker")),
    "MinimalResolution": _resolution,
    "ExtChart": lambda: _resolution().chart(),
}
FROZEN = ("F2Matrix", "SteenrodElt", "WallRelation", "RootSystem", "GroupForm",
          "SpinReport")
MUTABLE = ("Decomposition", "MinimalResolution", "ExtChart")


def _fields(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def _arguments(obj) -> dict:
    """The fields as constructor arguments: a Decomposition takes its
    isomorphism as a function of no arguments that builds it."""
    args = _fields(obj)
    if isinstance(obj, stable.Decomposition):
        iso = args["isomorphism"]
        args["isomorphism"] = lambda: iso
    return args


@pytest.mark.parametrize("name", list(SAMPLES))
def test_equal_fields_give_equal_objects(name):
    obj = SAMPLES[name]()
    cls = type(obj)
    twin = cls(**_arguments(obj))
    assert twin is not obj and twin == obj and not twin != obj
    if name in FROZEN:
        assert hash(twin) == hash(obj) == hash(SAMPLES[name]())
    # another class never compares equal, even one with the same fields
    other_cls = type("Other", cls.__bases__, {"__slots__": cls.__slots__, "__init__": cls.__init__})
    other = other_cls(**_arguments(obj))
    assert other != obj and obj != other
    assert obj != tuple(_fields(obj).values())
    assert obj.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_classes_refuse_assignment(name):
    obj = SAMPLES[name]()
    first = type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == SAMPLES[name]()


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    obj = SAMPLES[name]()
    with pytest.raises(TypeError):
        hash(obj)
    first = type(obj).__slots__[0]
    setattr(obj, first, getattr(obj, first))


@pytest.mark.parametrize("name, text", [
    ("F2Matrix", "F2Matrix(rows=3, cols=2, columns=(1, 6))"),
    ("SteenrodElt", "Sq(2,1)"),
    ("WallRelation", "WallRelation(n=1, words=frozenset({(0, 0)}), label='Sq^1Sq^1')"),
    ("RootSystem", "RootSystem(family='A', rank=1, cartan=((2,),), positive_roots=((1,),))"),
    ("GroupForm", "GroupForm(root_system=RootSystem(family='A', rank=1, cartan=((2,),), "
                  "positive_roots=((1,),)), lattice=((2,),), label='adjoint')"),
    ("SpinReport", "SpinReport(group='U(2)', form='unitary', "
                   "rho=(Fraction(1, 2), Fraction(-1, 2)), in_lattice=False, "
                   "certificate=(0, Fraction(1, 2)), basis='weight')"),
    ("ExtChart", "ExtChart(entries={(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, "
                 "(2, 4): 1}, s_max=2, t_max=6)"),
])
def test_repr_names_the_class_and_its_fields(name, text):
    assert repr(SAMPLES[name]()) == text


def test_repr_of_records_holding_modules():
    text = repr(_resolution())
    assert text.startswith("MinimalResolution(module=")
    assert ", s_max=2, t_max=6, stages=[" in text
    dec = SAMPLES["Decomposition"]()
    assert f", free_part={dec.free_part!r}, reduced_part=" in repr(dec)


def test_keyword_construction_and_default():
    report = rootspin.SpinReport(group="G2", form="adjoint", rho=(3, 5),
                                 in_lattice=True, certificate=(3, 5))
    assert report.basis == "simple-root"
    assert report == rootspin.SpinReport("G2", "adjoint", (3, 5), True, (3, 5), "simple-root")
    chart = resolve.ExtChart(entries={(0, 0): 1}, s_max=0, t_max=0)
    assert chart == resolve.ExtChart({(0, 0): 1}, 0, 0)


def test_steenrod_elt_checks_its_terms():
    # ambient 4 is beyond MAX_AMBIENT, where terms are checked one by one
    for ambient in range(5):
        top = (2 ** (ambient + 1) - 1,)
        assert steenrod.SteenrodElt(ambient, frozenset({(), top})).terms == {(), top}
        with pytest.raises(ValueError, match=r"^non-normalized exponent tuple \(1, 0\)$"):
            steenrod.SteenrodElt(ambient, frozenset({(), (1, 0)}))
        with pytest.raises(ValueError, match=r"^Milnor exponents must be nonnegative$"):
            steenrod.SteenrodElt(ambient, frozenset({(-1,)}))
        too_big = 2 ** (ambient + 1)
        with pytest.raises(steenrod.OutOfAmbientError,
                           match=rf"^Sq\({too_big}\) does not lie in A\({ambient}\)$"):
            steenrod.SteenrodElt(ambient, frozenset({top, (too_big,)}))
        too_long = "0," * (ambient + 1) + "1"
        with pytest.raises(steenrod.OutOfAmbientError,
                           match=rf"^Sq\({too_long}\) does not lie in A\({ambient}\)$"):
            steenrod.SteenrodElt(ambient, frozenset({(0,) * (ambient + 1) + (1,)}))


def test_import_loads_every_layer_and_no_dataclasses():
    # -S keeps site-packages .pth files from preloading modules
    src = str(Path(stmod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, stmod; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "argparse", "gettext"}
    assert {"stmod.resolve", "stmod.rootspin", "stmod.stable", "stmod.fixtures",
            "stmod.cli"} <= loaded
