"""Module file grammar: parsing, serialization, fixture certification."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as hst

from stmod import cli, fixtures, modfile, steenrod as st
from stmod.modfile import ModuleFileError, parse_algebra, parse_module, \
    serialize_module
from stmod.module import GradedModule, direct_sum, dual, tensor, validate
from stmod.stable import iso_test, loop

JOKER_TEXT = """
# a comment line
module Joker over A(1)
generator a degree -2
generator b degree -1
generator c degree 0
generator d degree 1
generator e degree 2

action Sq^1 a = b
action Sq^1 d = e
action Sq^2 a = c
action Sq^2 b = d
action Sq^2 c = e
"""


def test_parse_round_trip():
    m = parse_module(JOKER_TEXT)
    assert m.dims() == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
    assert validate(m) == []
    text = serialize_module(m)
    again = parse_module(text)
    assert serialize_module(again) == text


def test_parse_algebra_tokens():
    assert parse_algebra("A(1)").name == "A(1)"
    assert parse_algebra("A1").name == "A(1)"
    assert parse_algebra("E(2)").name == "E(2)"
    assert parse_algebra("E2").name == "E(2)"
    for token in ("Q(1)", "A(1", "A1)", "A((1))", "A()", "A", "(1)", "E(2", "E2)"):
        with pytest.raises(ModuleFileError):
            parse_algebra(token)
    # both parentheses or neither; the error stays on the header line
    for token in ("A(1", "A1)"):
        err = _located_error(f"# header below\nmodule X over {token}\ngenerator a degree 0\n")
        assert (str(err), err.line) == (f"unknown algebra {token!r} (line 2)", 2)


def test_omitted_actions_are_zero():
    m = parse_module("module X over A(1)\ngenerator a degree 0\n")
    assert m.dims() == {0: 1}
    assert m.actions == {}


def test_bad_degree_column_is_the_degree_token():
    # the label has the same text as the degree token and comes first
    err = _located_error("module X over A(1)\ngenerator ab degree ab\n")
    assert (str(err), err.line, err.column) == ("bad degree 'ab' (line 2, column 20)", 2, 20)
    # columns count within the line as written, indentation included
    err = _located_error("module X over A(1)\n\tgenerator ab degree ab\n")
    assert (err.line, err.column) == (2, 21)


def test_error_reports_line_numbers():
    bad = "module X over A(1)\ngenerator a degree zero\n"
    with pytest.raises(ModuleFileError) as err:
        parse_module(bad)
    assert "line 2" in str(err.value)


def test_error_on_bad_target_degree():
    bad = ("module X over A(1)\ngenerator a degree 0\ngenerator b degree 2\n"
           "action Sq^1 a = b\n")
    with pytest.raises(ModuleFileError) as err:
        parse_module(bad)
    assert "degree" in str(err.value)


def test_error_on_unknown_label():
    bad = "module X over A(1)\ngenerator a degree 0\naction Sq^1 a = zz\n"
    with pytest.raises(ModuleFileError):
        parse_module(bad)


def test_error_on_non_generator_action():
    bad = "module X over A(1)\ngenerator a degree 0\naction Sq^3 a = a\n"
    with pytest.raises(ModuleFileError):
        parse_module(bad)


def test_duplicate_label_rejected():
    bad = "module X over A(1)\ngenerator a degree 0\ngenerator a degree 1\n"
    with pytest.raises(ModuleFileError):
        parse_module(bad)


def test_primitive_action_lines_parse():
    text = ("module Y over E(1)\ngenerator a degree 0\ngenerator b degree 1\n"
            "generator c degree 3\ngenerator d degree 4\n"
            "action P(1,0) a = b\naction P(1,1) a = c\n"
            "action P(1,0) c = d\naction P(1,1) b = d\n")
    m = parse_module(text)
    assert validate(m) == []
    assert m.algebra.name == "E(1)"


def test_every_fixture_matches_reference_construction():
    refs = fixtures.reference_constructions()
    for name, built in refs.items():
        shipped = fixtures.load_fixture(name)
        assert shipped.dims() == built.dims(), name
        assert iso_test(shipped, built) is not None, name


def test_fixture_names_cover_reference_set():
    assert set(fixtures.fixture_names()) == set(fixtures.reference_constructions())


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixtures.load_fixture("NoSuchModule")


def test_duplicate_action_line_rejected():
    bad = ("module X over A(1)\ngenerator a degree 0\ngenerator b degree 1\n"
           "action Sq^1 a = b\naction Sq^1 a = b\n")
    with pytest.raises(ModuleFileError) as err:
        parse_module(bad)
    assert "line 5" in str(err.value)


def _located_error(text: str) -> ModuleFileError:
    with pytest.raises(ModuleFileError) as err:
        parse_module(text)
    return err.value


def test_unsupported_algebra_header_is_located():
    err = _located_error("# header below\nmodule X over A(9)\n")
    assert err.line == 2 and "line 2" in str(err)
    assert "A(9)" in str(err)


def test_empty_summand_in_action_is_located():
    err = _located_error("module X over A(1)\ngenerator a degree 0\n"
                         "generator b degree 1\naction Sq^1++Sq^2 a = b\n")
    assert err.line == 4 and "empty summand" in str(err)


def test_repeated_action_target_is_located():
    err = _located_error("module X over A(1)\ngenerator a degree 0\n"
                         "generator b degree 2\naction Sq^2 a = b + b\n")
    assert err.line == 4 and "repeated" in str(err)


def test_malformed_milnor_tuple_in_action_is_located():
    # Sq(,1) used to read as Sq(1) = Sq^1 and define the action silently
    err = _located_error("module X over A(1)\ngenerator a degree 0\n"
                         "generator b degree 1\naction Sq(,1) a = b\n")
    assert err.line == 4 and "one integer" in str(err)


def test_each_action_token_is_parsed_once(monkeypatch):
    calls = Counter()
    parse_element = st.parse_element

    def counting(text, *args):
        calls[text] += 1
        return parse_element(text, *args)

    monkeypatch.setattr(st, "parse_element", counting)
    m = parse_module(JOKER_TEXT)
    assert calls == {"Sq^1": 1, "Sq^2": 1}
    assert serialize_module(m).count("\naction ") == 5


def test_two_spellings_of_one_generator_parse_alike():
    mixed = JOKER_TEXT.replace("action Sq^2 b = d", "action Sq(2) b = d")
    assert mixed != JOKER_TEXT
    assert parse_module(mixed) == parse_module(JOKER_TEXT)
    assert serialize_module(parse_module(mixed)) == serialize_module(parse_module(JOKER_TEXT))


def test_bad_action_token_is_located_at_its_first_use():
    err = _located_error("module X over A(1)\ngenerator a degree 0\ngenerator b degree 3\n"
                         "generator c degree 6\naction Sq^3 a = b\naction Sq^3 b = c\n")
    assert err.line == 5 and "Sq^3 is not a generator of A(1)" in str(err)


def test_second_module_header_is_rejected():
    # action tokens already resolved over A(2) must not be read over A(1)
    err = _located_error("module X over A(2)\ngenerator a degree 0\ngenerator b degree 4\n"
                         "action Sq^4 a = b\nmodule X over A(1)\n")
    assert err.line == 5 and "second module header" in str(err)


SPACING_BASE = """module S over A(1)
generator a degree 0
generator b degree 1
generator c degree 2
generator d degree 2
generator e degree 3
action Sq^1 a = b
action Sq^1 c = e
action Sq^2 a = c + d
action Sq^2 b = e
"""
SPACING_VARIANTS = {
    "unspaced =": ("action Sq^1 a = b", "action Sq^1 a=b"),
    "half-spaced sum": ("action Sq^2 a = c + d", "action Sq^2 a =c+ d"),
    "unspaced sum": ("action Sq^2 a = c + d", "action Sq^2 a=c+d"),
    "tabs": ("generator b degree 1", "generator\tb\t degree\t1\t"),
    "tab-separated action": ("action Sq^2 b = e", "action\tSq^2\tb\t=\te"),
    "indented": ("generator c degree 2", "   generator c degree 2"),
    "trailing comment": ("action Sq^1 c = e", "action Sq^1 c = e  # the top cell"),
    "unspaced comment": ("generator e degree 3", "generator e degree 3#top"),
    "comment after header": ("module S over A(1)", "module S over A(1) # A(1)-module"),
    "blank lines": ("generator d degree 2\n", "generator d degree 2\n\n   \n\t\n"),
}


@pytest.mark.parametrize("variant", sorted(SPACING_VARIANTS))
def test_spacing_variants_parse_alike(variant):
    old, new = SPACING_VARIANTS[variant]
    text = SPACING_BASE.replace(old, new)
    assert text != SPACING_BASE
    want = parse_module(SPACING_BASE)
    for form in (text, text.replace("\n", "\r\n")):
        got = parse_module(form)
        assert got == want and got.meta == want.meta
        assert serialize_module(got) == SPACING_BASE


_H = "module X over A(1)\n"
_AB = _H + "generator a degree 0\ngenerator b degree 1\n"
# (file, message with its location, line, column)
LOCATED_ERRORS = [
    ("", "missing module header", None, None),
    ("# only a comment\n", "missing module header", None, None),
    ("generator a degree 0\n", "generator line before module header (line 1)", 1, None),
    ("action Sq^1 a = b\n", "action line before module header (line 1)", 1, None),
    (_H + "module Y over A(1)\n", "second module header (line 2)", 2, None),
    ("module X over\n", "expected: module <name> over <algebra> (line 1)", 1, None),
    ("module X under A(1)\n", "expected: module <name> over <algebra> (line 1)", 1, None),
    ("module X over Q(1)\n", "unknown algebra 'Q(1)' (line 1)", 1, None),
    ("module X over A((1))\n", "unknown algebra 'A((1))' (line 1)", 1, None),
    (_H + "generator a degree zero\n", "bad degree 'zero' (line 2, column 19)", 2, 19),
    (_H + "generator a degree 0\naction Sq^1 a = q\ngenerator b degree x\n",
     "bad degree 'x' (line 4, column 19)", 4, 19),
    (_H + "generator a degree\n", "expected: generator <label> degree <d> (line 2)", 2, None),
    (_H + "generator a deg 0\n", "expected: generator <label> degree <d> (line 2)", 2, None),
    (_H + "generator a degree 0\ngenerator a degree 1\n", "duplicate basis label a (line 3)", 3,
     None),
    (_H + "generator a degree 0\ngenerator a degree x\n", "duplicate basis label a (line 3)", 3,
     None),
    (_H + "  bogus line\n", "unrecognized directive 'bogus' (line 2, column 2)", 2, 2),
    (_H + "\tgenerator a degree 0\n\tfoo\n", "unrecognized directive 'foo' (line 3, column 1)",
     3, 1),
    (_H + "action\n", "expected: action <gen> <label> = <label> [+ ...] (line 2)", 2, None),
    (_AB + "action Sq^1 a\n", "expected: action <gen> <label> = <label> [+ ...] (line 4)", 4,
     None),
    (_AB + "action Sq^1 a =\n", "expected: action <gen> <label> = <label> [+ ...] (line 4)", 4,
     None),
    (_AB + "action Sq^3 a = b\n", "Sq^3 is not a generator of A(1) (line 4)", 4, None),
    (_AB + "action Sq^1++Sq^2 a = b\n", "empty summand next to '+' in 'Sq^1++Sq^2' (line 4)", 4,
     None),
    (_AB + "action Sq(,1) a = b\n", "each entry of 'Sq(,1)' must be one integer (line 4)", 4,
     None),
    (_AB + "action Sq^1 zz = b\n", "unknown basis label zz (line 4)", 4, None),
    (_AB + "action Sq^1 a = zz\n", "unknown basis label zz (line 4)", 4, None),
    (_AB + "action Sq^1 a = b +\n", "unknown basis label  (line 4)", 4, None),
    (_AB + "action Sq^1 a = b c\n", "unknown basis label b c (line 4)", 4, None),
    (_AB + "action Sq^1 a = b\naction Sq^1 a = b\n", "duplicate action line for a (line 5)", 5,
     None),
    (_AB + "generator c degree 3\naction Sq^1 a = b + c\n",
     "target c has degree 3, expected 1 (line 5)", 5, None),
    (_AB + "generator c degree 1\naction Sq^1 a = b + c + b\n", "target b repeated (line 5)", 5,
     None),
    (_H + "generator a degree 0\ngenerator b degree 3\ngenerator c degree 1\n"
     "action Sq^1 a = b + c\n", "target b has degree 3, expected 1 (line 5)", 5, None),
    # a malformed generator line is reported before any action line's labels
    (_H + "generator a degree 0\naction Sq^1 a = zz\ngenerator b degree x\n",
     "bad degree 'x' (line 4, column 19)", 4, 19),
]


@pytest.mark.parametrize("text,message,line,column", LOCATED_ERRORS)
def test_located_errors_keep_message_line_and_column(text, message, line, column):
    err = _located_error(text)
    assert (str(err), err.line, err.column) == (message, line, column)


def test_action_may_name_a_label_declared_later():
    m = parse_module(_H + "generator a degree 0\naction Sq^1 a = b\ngenerator b degree 1\n")
    assert m.actions[0][0].columns == (1,)


def test_plus_in_generator_label_is_rejected():
    # such a label could never be named as an action target
    err = _located_error(_H + "generator a degree 0\ngenerator x+y degree 0\n")
    assert (err.line, err.column) == (3, 10)
    assert "'x+y'" in str(err) and "'+'" in str(err)


@pytest.mark.parametrize("label", ["a b", "a\tb", "x+y", "h#", "", "a\nb"])
def test_serialize_refuses_labels_outside_the_grammar(label):
    m = GradedModule(st.A(1), {0: ("ok", label)}, {})
    with pytest.raises(ModuleFileError) as err:
        serialize_module(m)
    assert repr(label) in str(err.value)
    # the command line falls back to its readable summary
    assert cli._serialized(m, "odd").startswith("# odd over A(1) (outside the file grammar)")


@pytest.mark.parametrize("name", ["a#b", "   ", ""])
def test_serialize_refuses_names_outside_the_grammar(name):
    # written as is, "module a#b over A(1)" would read back as "module a",
    # and "module  over A(1)" has no name token
    m = GradedModule(st.A(1), {0: ("u",)}, {}, meta={"name": name})
    for call in (lambda: serialize_module(m), lambda: serialize_module(m, name=name)):
        with pytest.raises(ModuleFileError) as err:
            call()
        assert str(err.value) == f"module name {name!r} cannot be written to a module file"
    assert cli._serialized(m, name).startswith(f"# {name} over A(1) (outside the file grammar)")


def test_serialize_drops_whitespace_from_names():
    text = serialize_module(GradedModule(st.A(1), {0: ("u",)}, {}), name=" a b\t")
    assert text.startswith("module ab over A(1)\n")
    assert parse_module(text).meta["name"] == "ab"


def _joker():
    return fixtures.load_fixture("Joker")


DERIVED = {
    "Joker^3": lambda: tensor(tensor(_joker(), _joker()), _joker()),
    "dual(SO8modSp2)": lambda: dual(fixtures.load_fixture("SO8modSp2")),
    "loop(loop(Joker))": lambda: loop(loop(_joker())),
    "Joker (+) HZ": lambda: direct_sum(_joker(), fixtures.load_fixture("HZ")),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_modules_round_trip_byte_for_byte(name):
    m = DERIVED[name]()
    text = serialize_module(m)
    again = parse_module(text)
    assert again == m
    assert serialize_module(again) == text


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixture_round_trips_byte_for_byte(name):
    text = fixtures.fixture_path_text(name)
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    assert serialize_module(fixtures.load_fixture(name)) == body
    assert serialize_module(parse_module(body)) == body


def test_action_lines_follow_generator_then_degree_then_index():
    # a dual stores its action matrices from the top degree down
    for name in fixtures.fixture_names():
        m = dual(fixtures.load_fixture(name))
        where = {label: (d, i) for d in m.degrees() for i, label in enumerate(m.labels[d])}
        keys = [(m.algebra.gen_names.index(parts[1]), *where[parts[2]])
                for parts in map(str.split, serialize_module(m).splitlines())
                if parts[0] == "action"]
        assert keys == sorted(keys), name


# ---------------------------------------------------------------------------
# grammar fuzzing: every input parses or fails with the grammar's own error

_ELEMENT_PIECES = ["Sq^1", "Sq^2", "Sq^3", "Sq^4", "Sq^0", "Sq(1)", "Sq(0,1)", "Sq(1, 1)",
                   "Sq()", "Sq(,)", "Sq(1,,2)", "P(1,1)", "P(1, 2)", "P(2,1)", "1", "0",
                   " ", "+", "+", "*", "*", "Sq^", "Sq", "(", ")", "2", "x", "-"]
_LINE_TOKENS = ["module", "generator", "action", "over", "degree", "=", "+", "#",
                "A(1)", "A1", "E(2)", "A(9)", "B(1)", "a", "b", "-1", "0", "2", "1.5",
                "Sq^1", "Sq^2", "Sq^4", "P(1,1)", "Sq(1)", "Sq(0,1)"]
_LABELS = hst.sampled_from(["a", "b", "c", "d"])

element_texts = (hst.lists(hst.sampled_from(_ELEMENT_PIECES), max_size=8).map("".join)
                 | hst.text(max_size=10))
# files of well-formed generator and action lines, so that they reach the
# label, degree and duplicate checks, ending in at most one line of token
# soup or raw text
wellformed_lines = (
    hst.builds("generator {} degree {}".format, _LABELS,
               hst.integers(-2, 3) | hst.sampled_from(["x", "1.5", "-"]))
    | hst.builds("action {} {} = {}".format,
                 hst.sampled_from(["Sq^1", "Sq^2", "Sq^4", "Sq(1)", "P(1,1)", "Sq^3", "Sq^"]),
                 _LABELS, hst.lists(_LABELS | hst.just(""), max_size=3).map(" + ".join)))
junk_lines = (hst.lists(hst.sampled_from(_LINE_TOKENS) | hst.text(max_size=3),
                        max_size=6).map(" ".join)
              | hst.text(max_size=12))


@settings(max_examples=200)
@given(hst.sampled_from(["", "module M over A(1)", "module M over E(2)", "module M over A(0)"]),
       hst.lists(wellformed_lines, max_size=8), hst.lists(junk_lines, max_size=1))
def test_random_module_files_parse_or_raise_module_file_error(header, lines, junk):
    try:
        parse_module("\n".join([header] + lines + junk))
    except ModuleFileError:
        pass


@settings(max_examples=200)
@given(element_texts, hst.integers(0, 2))
def test_random_elements_parse_or_raise_value_error(text, ambient):
    try:
        st.parse_element(text, ambient)
    except ValueError:
        pass
