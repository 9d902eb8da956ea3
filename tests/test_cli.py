"""The stmod command: verbs, exit codes, output formats."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hst

from stmod import cli, fixtures, modfile, module as md, steenrod


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-m", "stmod", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("usage: stmod")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["fixtures"], ["ext", "--fixture", "Joker"]])
def test_closed_stdout_exits_one_without_traceback(argv, unbuffered):
    """Output into a pipe whose reader has gone exits 1 with nothing on
    stderr, whether stdout is block-buffered or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "stmod", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_spin_check_g2(capsys):
    code, out, _ = run(capsys, "spin-check", "--type", "G2", "--form", "adjoint")
    assert code == 0
    assert out.strip() == "SPIN: rho = 5*a1 + 3*a2 in root lattice"


def test_spin_check_e7(capsys):
    code, out, _ = run(capsys, "spin-check", "--type", "E7", "--form", "adjoint")
    assert code == 0
    assert out.startswith("NO SPIN")
    assert "49/2" in out


def test_spin_check_un_json(capsys):
    code, out, _ = run(capsys, "spin-check", "--un", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verb"] == "spin-check"
    assert payload["result"]["spin"] is True


def test_spin_check_usage_error(capsys):
    code, out, err = run(capsys, "spin-check")
    assert code == 1
    assert "need --type or --un" in err


def test_check_selfdual_hz(capsys):
    code, out, _ = run(capsys, "check-selfdual", "--fixture", "HZ")
    assert code == 0
    assert out.strip() == "self-dual with shift 5"


def test_check_selfdual_question_mark(capsys):
    code, out, _ = run(capsys, "check-selfdual", "--fixture", "QuestionMark")
    assert code == 0
    assert out.strip() == "not self-dual"


def test_ext_joker_csv(capsys):
    code, out, _ = run(capsys, "ext", "--fixture", "Joker",
                       "--smax", "8", "--tmax", "24", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,t,dim"
    assert len(lines) > 8


def test_fixtures_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "fixtures", "--verify")
    assert code == 0
    assert "FAIL" not in out


def test_ext_csv(capsys):
    code, out, _ = run(capsys, "ext", "--fixture", "A1modP11",
                       "--smax", "4", "--tmax", "12", "--format", "csv")
    assert code == 0
    assert out == "s,t,dim\n0,0,1\n1,3,1\n2,6,1\n3,9,1\n4,12,1\n"


def test_ext_svg(capsys):
    code, out, _ = run(capsys, "ext", "--fixture", "kU",
                       "--smax", "3", "--tmax", "9", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg xmlns")


def test_extgroups(capsys):
    code, out, _ = run(capsys, "extgroups", "--fixture", "A1", "--coeff", "F2",
                       "--smax", "3", "--tmax", "8", "--format", "csv")
    assert code == 0
    assert out == "s,t,dim\n0,0,1\n"


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "Joker")
    assert code == 0
    assert "ok" in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.mod"
    p.write_text("module X over A(1)\ngenerator a degree 0\ngenerator b degree 2\n"
                 "action Sq^2 a = b\naction Sq^1 a = a\n")
    code, out, err = run(capsys, "validate", "--file", str(p))
    assert code == 1


def test_parse_error_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.mod"
    p.write_text("module X over A(1)\ngenerator a degree zero\n")
    code, out, err = run(capsys, "define", "--file", str(p))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("text, line", [
    ("module X over A(9)\n", 1),
    ("module X over A(1)\ngenerator a degree 0\ngenerator b degree 1\n"
     "action Sq^1++Sq^2 a = b\n", 4),
    ("module X over A(1)\ngenerator a degree 0\ngenerator b degree 2\n"
     "action Sq^2 a = b + b\n", 4),
], ids=["algebra-out-of-range", "empty-summand", "repeated-target"])
def test_malformed_file_exits_one_with_location(tmp_path, capsys, text, line):
    p = tmp_path / "bad.mod"
    p.write_text(text)
    code, out, err = run(capsys, "define", "--file", str(p))
    assert code == 1
    assert f"line {line}" in err and "Traceback" not in err


def test_quotient_rejects_empty_summand(capsys):
    code, out, err = run(capsys, "quotient", "--algebra", "A(1)",
                         "--kill", "Sq^1++Sq^2")
    assert code == 1
    assert "empty summand" in err


def test_quotient_rejects_merged_milnor_entries(capsys):
    # Sq(1 1) used to read as Sq(11) and kill the wrong element
    code, out, err = run(capsys, "quotient", "--algebra", "A(3)",
                         "--kill", "Sq(1 1)")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "one integer" in err


def test_define_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "define", "--fixture", "Joker")
    assert code == 0
    p = tmp_path / "joker.mod"
    p.write_text(out)
    code2, out2, _ = run(capsys, "define", "--file", str(p))
    assert code2 == 0
    assert out2 == out


def test_quotient_verb(capsys):
    code, out, _ = run(capsys, "quotient", "--algebra", "A(1)",
                       "--kill", "Sq^3", "--suspend", "-2")
    assert code == 0
    assert "module quotient over A(1)" in out
    assert "degree -2" in out


# sha256 of the stdout of `stmod quotient --algebra A(3) --kill ...`: the
# relations b.x, their elimination and the projected generator actions
A3_QUOTIENT_DIGESTS = {
    "Sq^4": "9a0ad052ed74950c88565012e44329bb267b18c37a0effeaa0d0f643e489d36a",
    "Sq^2": "0ead871704830b6530ae0e6311174c483bdc7d25c37194383fe42641cc722fe4",
    "Sq(0,1)": "2ce0e74f2e3f8c85bb528884a785d4288023a72d5d67941a2d0b2faa55f69a04",
}


# sha256 of the stdout of `stmod quotient --algebra A(2) --kill Sq^1 --kill Sq^4`
A2_QUOTIENT_DIGEST = "40f560f0cc97e5e64282aefc0effa8e47c4cb1ab2d9b06695235eb905f17e595"


def test_a2_quotient_output_is_pinned(capsys):
    code, out, _ = run(capsys, "quotient", "--algebra", "A(2)",
                       "--kill", "Sq^1", "--kill", "Sq^4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == A2_QUOTIENT_DIGEST


@pytest.mark.parametrize("kill", sorted(A3_QUOTIENT_DIGESTS))
def test_a3_quotient_outputs_are_pinned(capsys, kill):
    code, out, _ = run(capsys, "quotient", "--algebra", "A(3)", "--kill", kill)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == A3_QUOTIENT_DIGESTS[kill]


def test_tensor_dual_suspend_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "tensor", "--fixture", "kU", "--with", "kU")
    assert code == 0
    p = tmp_path / "t.mod"
    p.write_text(out)
    code, out, _ = run(capsys, "dual", "--file", str(p))
    assert code == 0
    code, out, _ = run(capsys, "suspend", "--fixture", "F2", "--by", "3")
    assert code == 0
    assert "degree 3" in out


def test_reduce_verb(capsys):
    code, out, _ = run(capsys, "reduce", "--fixture", "A1")
    assert code == 0
    assert "free summands at suspensions: 0" in out
    assert "reduced part: 0" in out


def test_loop_verb(capsys):
    code, out, _ = run(capsys, "loop", "--fixture", "Joker")
    assert code == 0
    assert "degree 1" in out and "degree 4" in out


@pytest.mark.parametrize("first,second,expected", [
    ("Joker", "Joker",
     "free summands at suspensions: -4, -3, -2\n"
     "reduced part:\n"
     "module reduced over A(1)\n"
     "generator c0_0 degree 0\n"),
    # a two-dimensional degree pins the order of the reduced basis
    ("A1modSq1Sq2Sq1", "Joker",
     "free summands at suspensions: -2, -1, 1\n"
     "reduced part:\n"
     "module reduced over A(1)\n"
     "generator c0_0 degree 0\n"
     "generator c1_0 degree 1\n"
     "generator c2_0 degree 2\n"
     "generator c3_0 degree 3\n"
     "generator c3_1 degree 3\n"
     "generator c5_0 degree 5\n"
     "action Sq^1 c0_0 = c1_0\n"
     "action Sq^1 c2_0 = c3_1\n"
     "action Sq^2 c0_0 = c2_0\n"
     "action Sq^2 c1_0 = c3_0 + c3_1\n"
     "action Sq^2 c3_0 = c5_0\n"
     "action Sq^2 c3_1 = c5_0\n"),
], ids=["Joker-Joker", "A1modSq1Sq2Sq1-Joker"])
def test_reduce_tensor_text(tmp_path, capsys, first, second, expected):
    # the reduced part's basis and labels are pinned, not only its
    # isomorphism class
    product = tmp_path / "product.mod"
    code, _, _ = run(capsys, "tensor", "--fixture", first, "--with", second,
                     "--out", str(product))
    assert code == 0
    code, out, _ = run(capsys, "reduce", "--file", str(product))
    assert code == 0
    assert out == expected


def test_loop_twice_joker_text(capsys):
    code, out, _ = run(capsys, "loop", "--times", "2", "--fixture", "Joker")
    assert code == 0
    assert out == ("module looped over A(1)\n"
                   "generator c2_0 degree 2\n"
                   "generator c4_0 degree 4\n"
                   "generator c5_0 degree 5\n"
                   "generator c6_0 degree 6\n"
                   "generator c7_0 degree 7\n"
                   "action Sq^1 c4_0 = c5_0\n"
                   "action Sq^1 c6_0 = c7_0\n"
                   "action Sq^2 c2_0 = c4_0\n"
                   "action Sq^2 c5_0 = c7_0\n")


def test_restrict_and_induce_verbs(capsys):
    code, out, _ = run(capsys, "restrict", "--fixture", "A1modP11",
                       "--sub", "P11")
    assert code == 0
    code, out, _ = run(capsys, "induce", "--fixture", "A1modP11",
                       "--algebra", "A(1)", "--sub", "P11")
    assert code == 0


def test_induce_verb_takes_an_a1_fixture_up_to_a2(capsys):
    code, out, err = run(capsys, "induce", "--fixture", "Joker",
                         "--algebra", "A(2)", "--sub", "A(1)")
    assert code == 0, err
    joker, a12 = fixtures.load_fixture("Joker"), steenrod.A(1, 2)
    over_a12 = md.GradedModule(a12, joker.labels, joker.actions, joker.meta)
    want = md.induce(steenrod.A(2), a12, over_a12)
    assert out == modfile.serialize_module(want, name="induced")


@pytest.mark.parametrize("sub, dim", [("P11", 128), ("B", 64)])
def test_induce_verb_takes_custom_subalgebras_in_the_algebra_ambient(capsys, sub, dim):
    code, out, err = run(capsys, "induce", "--fixture", "A1modP11",
                         "--algebra", "A(2)", "--sub", sub)
    assert code == 0, err
    b = {"P11": fixtures.algebra_P11, "B": fixtures.algebra_B}[sub](2)
    want = md.induce(steenrod.A(2), b, fixtures.load_fixture("A1modP11"))
    assert out == modfile.serialize_module(want, name="induced")
    assert want.total_dim == dim and md.validate(want) == []


def test_restrict_verb_takes_p11_in_the_module_ambient(tmp_path, capsys):
    code, out, err = run(capsys, "double", "--fixture", "Joker")
    assert code == 0, err
    path = tmp_path / "joker2.mod"
    path.write_text(out)
    code, out, err = run(capsys, "restrict", "--file", str(path), "--sub", "P11")
    assert code == 0, err
    want = md.restrict(modfile.parse_module(path.read_text()), fixtures.algebra_P11(2))
    assert want.total_dim == 5
    assert out.startswith("# restricted over F2(P(1,1))")
    assert out == cli._serialized(want, "restricted")


def test_double_verb(capsys):
    code, out, _ = run(capsys, "double", "--fixture", "A0")
    assert code == 0
    assert "over A(1)" in out


def test_check_exact_sequences(capsys):
    for seq in ("bott", "p11"):
        code, out, _ = run(capsys, "check-exact", "--sequence", seq)
        assert code == 0
        assert "exact at every interior stage" in out


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "Joker" in out and "SO8modSp2" in out


def test_fixtures_json(capsys):
    code, out, _ = run(capsys, "fixtures", "--json")
    assert code == 0
    names = json.loads(out)["result"]
    assert "HZ" in names


@pytest.mark.parametrize("flags", [("--verify", "--json"), ("--json", "--verify")])
def test_fixtures_verify_json(capsys, flags):
    code, out, _ = run(capsys, "fixtures", *flags)
    assert code == 0
    doc = json.loads(out)
    assert doc["verb"] == "fixtures" and doc["inputs"] == {"verify": True}
    assert doc["result"]["ok"] is True and doc["certificate"] == {}
    assert list(doc["result"]["problems"]) == sorted(fixtures.fixture_names())
    assert not any(doc["result"]["problems"].values())


def test_fixtures_verify_reports_a_failing_fixture(capsys, monkeypatch):
    verify = fixtures.verify_fixture
    monkeypatch.setattr(fixtures, "verify_fixture",
                        lambda name: ["broken"] if name == "Joker" else verify(name))
    code, out, _ = run(capsys, "fixtures", "--verify", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["ok"] is False
    assert doc["result"]["problems"]["Joker"] == ["broken"]
    assert doc["certificate"] == {"Joker": ["broken"]}
    code, out, _ = run(capsys, "fixtures", "--verify")
    assert code == 1
    assert "FAIL Joker: broken\n" in out and "ok   HZ\n" in out


def test_unknown_fixture_domain_error(capsys):
    code, out, err = run(capsys, "dual", "--fixture", "Nope")
    assert code == 1
    assert "no fixture named" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--fixture", "Joker", "--file", "/nonexistent"),
    ("validate", "--file=/nonexistent", "--fixture=Joker"),
    ("dual", "--fixture", "Joker", "--file", "/nonexistent"),
])
def test_fixture_and_file_together_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: give either --fixture or --file, not both\n"


@pytest.mark.parametrize("argv, message", [
    (("extgroups", "--fixture", "A1", "--coeff", "Nope"),
     "--coeff: no fixture named 'Nope'"),
    (("tensor", "--fixture", "Joker", "--with", "Nope"),
     "--with: no fixture named 'Nope'"),
    (("ext", "--fixture", "F2", "--smax", "-1"), "--smax must be nonnegative"),
    (("extgroups", "--fixture", "A1", "--coeff", "F2", "--smax", "-1"),
     "--smax must be nonnegative"),
    (("loop", "--fixture", "Joker", "--times", "-1"),
     "--times must be nonnegative"),
    (("restrict", "--fixture", "Joker", "--sub", "A2"),
     "--sub A2: not a subalgebra of A(1)"),
    (("induce", "--fixture", "F2", "--algebra", "A(1)", "--sub", "A2"),
     "--sub A2: not a subalgebra of A(1)"),
    (("spin-check", "--un", "0"), "--un must be positive, got 0"),
], ids=["extgroups-unknown-coeff", "tensor-unknown-with", "ext-negative-smax",
        "extgroups-negative-smax", "loop-negative-times", "restrict-sub-above-algebra",
        "induce-sub-above-algebra", "spin-check-nonpositive-un"])
def test_bad_flag_values_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_inhomogeneous_ideal_generator_exits_one(capsys):
    code, out, err = run(capsys, "quotient", "--algebra", "A(1)", "--kill", "Sq^1 + Sq^2")
    assert code == 1 and out == ""
    assert err == "error: ideal generator Sq(1) + Sq(2) is not homogeneous\n"


@pytest.mark.parametrize("kill, name", [("Sq^4", "Sq(4)"), ("Sq(0,2)", "Sq(0,2)")])
def test_out_of_algebra_element_is_named_as_it_prints(capsys, kill, name):
    code, out, err = run(capsys, "quotient", "--algebra", "A(1)", "--kill", kill)
    assert code == 1 and out == ""
    assert err == f"error: {name} does not lie in A(1)\n"


def test_validate_rejects_a_second_module_header(tmp_path, capsys):
    p = tmp_path / "two_headers.mod"
    p.write_text("module X over A(2)\ngenerator a degree 0\ngenerator b degree 4\n"
                 "action Sq^4 a = b\nmodule X over A(1)\n")
    code, out, err = run(capsys, "validate", "--file", str(p))
    assert code == 1 and out == ""
    assert "second module header (line 5)" in err and "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-verb"])
    assert err.value.code == 2


def _verb_parsers(parser):
    """The subparsers of a ``stmod`` parser, by verb."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("verb", list(_verb_parsers(cli.build_parser())))
def test_one_verb_parser_matches_full_parser(verb):
    one = _verb_parsers(cli.build_parser(verb))
    assert list(one) == [verb]
    assert one[verb].format_help() == _verb_parsers(cli.build_parser())[verb].format_help()


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("no-such-verb",), ("ext", "--bogus"), ("ext", "--smax", "x"),
    ("reduce", "-h"),
], ids=["no-args", "help", "unknown-verb", "ext-bogus-flag", "ext-bad-int", "reduce-help"])
def test_one_verb_parser_output_matches_full_parser(capsys, monkeypatch, argv):
    got = _outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
    assert got == _outcome(capsys, argv)
    assert got[0] in (0, 2) and got[1] + got[2]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "chart.csv"
    code, out, _ = run(capsys, "ext", "--fixture", "F2", "--smax", "2",
                       "--tmax", "4", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("s,t,dim")


# a valid command line for every verb that takes --out
_OUT_COMMANDS = {
    "define": ["--fixture", "Joker"],
    "tensor": ["--fixture", "Joker", "--with", "Joker"],
    "dual": ["--fixture", "Joker"],
    "suspend": ["--fixture", "Joker", "--by", "1"],
    "loop": ["--fixture", "Joker"],
    "quotient": ["--algebra", "A(1)", "--kill", "Sq^3"],
    "induce": ["--fixture", "A1modP11", "--algebra", "A(1)", "--sub", "P11"],
    "restrict": ["--fixture", "A1modP11", "--sub", "P11"],
    "double": ["--fixture", "A1"],
    "ext": ["--fixture", "F2", "--smax", "2", "--tmax", "4"],
    "extgroups": ["--fixture", "A1", "--coeff", "F2", "--smax", "1", "--tmax", "3"],
}


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("verb", [name for name, _h, _f, arguments in cli._VERBS
                                  if "--out" in dict(arguments)])
def test_out_to_unwritable_path_is_a_located_error(tmp_path, capsys, verb, where):
    target = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "x.out"
    with pytest.raises(OSError) as opened:
        open(target, "w")
    code, out, err = run(capsys, verb, *_OUT_COMMANDS[verb], "--out", str(target))
    assert (code, out, err) == (1, "", f"error: --out: {opened.value}\n")


def _argparse_args(argv):
    """``list(vars(namespace).items())`` of what argparse makes of argv, or
    None when it exits (help or a usage error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ns = cli.build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit:
        return None
    return list(vars(ns).items())


def test_verb_table_uses_only_what_the_plain_reader_reads():
    """A new add_argument keyword, action or type fails here instead of
    making ``_plain_args`` silently disagree with argparse."""
    for _name, _help, _func, arguments in cli._VERBS:
        for flag, kwargs in arguments:
            assert flag.startswith("--") and flag[2:3].isalpha() and "=" not in flag
            assert set(kwargs) <= {"help", "action", "type", "default", "choices",
                                   "required", "dest"}
            assert kwargs.get("action") in (None, "store_true", "append")
            assert kwargs.get("type") in (None, int)
            # argparse would run a string default through ``type``
            assert not ("type" in kwargs and isinstance(kwargs.get("default"), str))


_VERB_NAMES = [name for name, *_ in cli._VERBS]
_ALL_FLAGS = sorted({flag for *_, arguments in cli._VERBS for flag, _ in arguments})
_ODD_TOKENS = ["-h", "--help", "--", "-", "--bogus", "--fix", "--s", "--with_fixture",
               "Joker", ""]
_VALUES = ["Joker", "F2", "A1modP11", "A(1)", "Sq^3", "P11", "G2", "bott", "csv",
           "svg", "ascii", "0", "3", "+1", " 4", "1_0", "x", "", "-", "--", "-2",
           "-x", "a=b", "--fixture"]


def _value(kwargs):
    if kwargs.get("type") is int:
        return hst.integers(-3, 30).map(str) | hst.sampled_from(_VALUES)
    if "choices" in kwargs:
        return hst.sampled_from(list(kwargs["choices"])) | hst.sampled_from(_VALUES)
    return hst.sampled_from(_VALUES) | hst.text(max_size=3)


@hst.composite
def command_lines(draw):
    """A verb and a list of tokens: mostly its own flags with plausible
    values, spelled ``--flag value`` or ``--flag=value``, some repeated or
    left out, with junk flags, values and verbs mixed in."""
    verb = draw(hst.sampled_from(_VERB_NAMES * 4 + ["no-such-verb", "ex", "-h", ""]))
    own = [arg for v in cli._VERBS if v[0] == verb for arg in v[3]]
    argv = [verb]
    for flag, kwargs in draw(hst.lists(hst.sampled_from(own), max_size=6)) if own else []:
        form = draw(hst.sampled_from(["separate", "separate", "equals", "bare"]))
        if kwargs.get("action") == "store_true" or form == "bare":
            argv.append(flag)
        elif form == "equals":
            argv.append(f"{flag}={draw(_value(kwargs))}")
        else:
            argv += [flag, draw(_value(kwargs))]
    for _ in range(draw(hst.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(hst.sampled_from(_ODD_TOKENS + _ALL_FLAGS + _VALUES))
        argv.insert(draw(hst.integers(0, len(argv))), token)
    return argv


@settings(max_examples=400)
@given(command_lines())
@example(["quotient", "--algebra", "A(1)", "--kill", "Sq^3", "--suspend", "-2"])
@example(["quotient", "--algebra", "A(1)", "--kill", "Sq^3", "--suspend=-2"])
@example(["quotient", "--algebra=A(1)", "--kill=-x", "--suspend=-4"])
@example(["ext", "--fixture=--", "--smax=-1"])
@example(["ext", "--fixture=--smax", "--out=-"])
@example(["ext", "--fixture", "F2", "--format=csv", "--format", "svg"])
@example(["quotient", "--algebra=A(1)", "--kill", "Sq^3", "--kill=Sq^2"])
@example(["fixtures", "--verify", "--verify", "--json"])
@example(["validate", "--json=1"])
@example(["ext", "--fixture", "F2", "--", "--smax", "2"])
@example(["ext", "--fix", "F2"])
@example(["ext", "--fixture", ""])
@example(["ext", "--fixture="])
@example(["ext", "--fixture", "F2", "-h"])
@example(["suspend", "--fixture", "Joker"])
@example(["ext", "--smax", " 3"])
@example([])
def test_plain_args_agree_with_argparse(argv):
    plain = cli._plain_args(argv)
    full = _argparse_args(argv)
    if plain is not None:
        assert list(vars(plain).items()) == full
    if full is None:
        assert plain is None


def test_attached_dash_led_values_take_the_plain_reader():
    """A negative ``--suspend=-2`` costs no argparse; a separate ``-2`` and
    an attached '--' still go to argparse."""
    argv = ["quotient", "--algebra=A(1)", "--kill", "Sq^3", "--suspend=-2"]
    assert list(vars(cli._plain_args(argv)).items()) == _argparse_args(argv)
    assert cli._plain_args(["quotient", "--algebra=A(1)", "--kill", "Sq^3",
                            "--suspend", "-2"]) is None
    assert cli._plain_args(["ext", "--fixture=--"]) is None


def readme_examples():
    """(argv, expected first output line or None) for each ``stmod`` line
    of the sh block under "The command line" in README.md.  A piped line
    contributes its first command; a following ``#  text`` comment is the
    expected first line, with ``...`` matching anything."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## The command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("stmod "):
            continue
        argv = shlex.split(line.split(" | ", 1)[0], comments=True)[1:]
        after = lines[i + 1] if i + 1 < len(lines) else ""
        expected = after[3:] if after.startswith("#  ") else None
        examples.append(pytest.param(argv, expected, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_examples_run(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if expected is not None:
        pattern = ".*".join(re.escape(part) for part in expected.split("..."))
        assert re.fullmatch(pattern, out.splitlines()[0])


def test_readme_command_lines_take_the_plain_reader():
    """Every README command line but the one with a dash-led value skips
    argparse, and reads as argparse reads it."""
    for param in readme_examples():
        argv = param.values[0]
        plain = cli._plain_args(argv)
        if "-2" in argv:
            assert plain is None
        else:
            assert list(vars(plain).items()) == _argparse_args(argv)


def test_plain_command_line_loads_no_argparse():
    # -S keeps site-packages .pth files from preloading modules
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from stmod import cli; cli.main(['fixtures']); "
            "print(' '.join(sys.modules), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("A0 ")
    assert not set(done.stderr.split()) & {"argparse", "gettext", "locale"}
