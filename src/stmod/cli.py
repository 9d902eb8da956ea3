"""Command-line front end.

Every verb reads modules from the shipped fixture library (--fixture) or
from module definition files (--file), streams deterministic output to
stdout (or --out), and exits 0 on success, 1 on a domain error or when
the reader closes stdout early, 2 on a usage error.

The verbs and their flags are declared once, in ``_VERBS``.  A plain
command line (a verb, then only that verb's flags, each spelled out in full,
as ``--flag=value`` or as ``--flag value`` with a value that does not start
with '-') is read straight from that table by ``_plain_args``.  Anything
else (help, abbreviated flags, '--', a separate dash-led value, every usage
error) goes to argparse, which alone builds help text and usage errors;
argparse is imported only then, and only the invoked verb's parser is
built.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

from . import fixtures, modfile, module as md, resolve, rootspin, stable, steenrod


class DomainError(Exception):
    pass


def _fixture(name: str, flag: str = "--fixture") -> md.GradedModule:
    try:
        return fixtures.load_fixture(name)
    except KeyError as exc:
        raise DomainError(f"{flag}: {exc.args[0]}")


def _nonnegative(args, attr: str) -> int:
    value = getattr(args, attr)
    if value < 0:
        raise DomainError(f"--{attr} must be nonnegative, got {value}")
    return value


def _load(args) -> md.GradedModule:
    fx = getattr(args, "fixture", None)
    fp = getattr(args, "file", None)
    if fx and fp:
        raise DomainError("give either --fixture or --file, not both")
    if fx:
        return _fixture(fx)
    if fp:
        try:
            # a byte order mark is dropped by hand: the utf-8-sig codec is a
            # module of its own, about 0.3 ms to import in every process
            with open(fp, encoding="utf-8") as fh:
                text = fh.read().removeprefix("\ufeff")
        except OSError as exc:
            raise DomainError(str(exc))
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so exc.object is all of it
            line = 1 + exc.object.count(b"\n", 0, exc.start)
            raise DomainError(f"{fp}: not UTF-8 text at line {line}")
        try:
            return modfile.parse_module(text)
        except modfile.ModuleFileError as exc:
            raise DomainError(f"{fp}: {exc}")
    raise DomainError("no module given; use --fixture NAME or --file PATH")


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"--out: {exc}")
    else:
        sys.stdout.write(text)


_SUBALGEBRAS = {
    "A0": lambda n: steenrod.A(0, n),
    "A1": lambda n: steenrod.A(1, n),
    "A2": lambda n: steenrod.A(2, n),
    "E1": lambda n: steenrod.E(1, n),
    "E2": lambda n: steenrod.E(2, n),
    "P11": fixtures.algebra_P11,
    "B": fixtures.algebra_B,
}


def _subalgebra(token: str, over: steenrod.SubHopfAlgebra):
    key = token.replace("(", "").replace(")", "").strip()
    if key not in _SUBALGEBRAS:
        raise DomainError(f"unknown subalgebra {token!r}; "
                          f"choose from {', '.join(sorted(_SUBALGEBRAS))}")
    try:
        return _SUBALGEBRAS[key](over.ambient)
    except ValueError:
        raise DomainError(f"--sub {token}: not a subalgebra of {over.name}")


def _serialized(m: md.GradedModule, name: str) -> str:
    try:
        return modfile.serialize_module(m, name=name)
    except modfile.ModuleFileError:
        # custom subalgebras have no file token; emit a readable summary
        lines = [f"# {name} over {m.algebra.name} (outside the file grammar)",
                 f"# dims: {m.dims()}"]
        for gname, src, targets in modfile.action_entries(m):
            lines.append(f"# {gname}: {src} -> " + " + ".join(targets))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verbs


def cmd_define(args) -> int:
    m = _load(args)
    bad = md.validate(m)
    if bad:
        for b in bad:
            print(f"violation: {b}", file=sys.stderr)
        return 1
    _emit(args, _serialized(m, m.meta.get("name", "module")))
    return 0


def cmd_validate(args) -> int:
    m = _load(args)
    bad = md.validate(m)
    if args.json:
        _envelope("validate", _inputs(args), {"ok": not bad, "violations": bad}, bad)
        return 0 if not bad else 1
    if bad:
        for b in bad:
            print(f"violation: {b}")
        return 1
    print(f"ok: {m.total_dim}-dimensional module over {m.algebra.name}")
    return 0


def cmd_tensor(args) -> int:
    m = _load(args)
    n = _fixture(args.with_fixture, "--with") if args.with_fixture else None
    if n is None:
        raise DomainError("tensor needs --with FIXTURE")
    try:
        t = md.tensor(m, n)
    except md.NoDiagonalActionError as exc:
        raise DomainError(str(exc))
    _emit(args, _serialized(t, "tensor"))
    return 0


def cmd_dual(args) -> int:
    _emit(args, _serialized(md.dual(_load(args)), "dual"))
    return 0


def cmd_suspend(args) -> int:
    _emit(args, _serialized(md.suspend(_load(args), args.by), "suspended"))
    return 0


def cmd_reduce(args) -> int:
    dec = stable.reduce_module(_load(args))
    free = ", ".join(str(d) for d in dec.free_part) or "none"
    print(f"free summands at suspensions: {free}")
    if dec.reduced_part.is_zero():
        print("reduced part: 0")
    else:
        print("reduced part:")
        sys.stdout.write(_serialized(dec.reduced_part, "reduced"))
    return 0


def cmd_loop(args) -> int:
    m = _load(args)
    fn = stable.oloop if args.inverse else stable.loop
    for _ in range(_nonnegative(args, "times")):
        m = fn(m)
    _emit(args, _serialized(m, "looped"))
    return 0


def cmd_quotient(args) -> int:
    alg = modfile.parse_algebra(args.algebra)
    gens = []
    for text in args.kill:
        try:
            gens.append(steenrod.parse_element(text, alg.ambient))
        except ValueError as exc:
            raise DomainError(str(exc))
    q = md.quotient_by_left_ideal(alg, gens)
    if args.suspend:
        q = md.suspend(q, args.suspend)
    _emit(args, _serialized(q, "quotient"))
    return 0


def cmd_induce(args) -> int:
    m = _load(args)
    big = modfile.parse_algebra(args.algebra)
    sub = _subalgebra(args.sub, big)
    _emit(args, _serialized(md.induce(big, sub, m), "induced"))
    return 0


def cmd_restrict(args) -> int:
    m = _load(args)
    sub = _subalgebra(args.sub, m.algebra)
    _emit(args, _serialized(md.restrict(m, sub), "restricted"))
    return 0


def cmd_double(args) -> int:
    _emit(args, _serialized(md.double(_load(args)), "doubled"))
    return 0


def cmd_ext(args) -> int:
    m = _load(args)
    chart = resolve.ext_chart(m, _nonnegative(args, "smax"), args.tmax)
    _emit(args, resolve.render_chart(chart, args.format))
    return 0


def cmd_extgroups(args) -> int:
    m = _load(args)
    n = _fixture(args.coeff, "--coeff")
    chart = resolve.ext_groups(m, n, _nonnegative(args, "smax"), args.tmax)
    _emit(args, resolve.render_chart(chart, args.format))
    return 0


def cmd_check_selfdual(args) -> int:
    m = _load(args)
    try:
        shift = stable.selfdual_shift(m, stable=args.stable)
    except stable.InconclusiveIsomorphism as exc:
        raise DomainError(f"inconclusive: {exc}")
    if args.json:
        _envelope("check-selfdual", _inputs(args),
                  {"self_dual": shift is not None, "shift": shift}, shift)
        return 0
    if shift is None:
        print("not self-dual")
    else:
        print(f"self-dual with shift {shift}")
    return 0


def cmd_check_exact(args) -> int:
    if args.sequence == "bott":
        maps = fixtures.pad_with_zero_ends(fixtures.bott_sequence())
    elif args.sequence == "p11":
        maps = fixtures.p11_periodic_sequence()
    else:
        raise DomainError(f"unknown sequence {args.sequence!r} (bott, p11)")
    failure = stable.check_exact(maps)
    if failure is None:
        print(f"exact at every interior stage ({len(maps) - 1} checked)")
        return 0
    idx, degree, reason = failure
    print(f"fails at stage {idx}, degree {degree}: {reason}")
    return 1


_TYPE_RE = re.compile(r"^([A-Ga-g])_?(\d+)$")


def cmd_spin_check(args) -> int:
    if args.un is not None:
        if args.un < 1:
            raise DomainError(f"--un must be positive, got {args.un}")
        report = rootspin.u_n_adjoint_spin(args.un)
        basis = "w"
        lattice = "character lattice"
    else:
        if not args.type:
            raise DomainError("need --type or --un")
        m = _TYPE_RE.match(args.type)
        if not m:
            raise DomainError(f"bad type {args.type!r} (e.g. G2, E7, A5)")
        try:
            rs = rootspin.generate_positive_roots(m.group(1).upper(), int(m.group(2)))
        except ValueError as exc:
            raise DomainError(str(exc))
        form = args.form.replace("-", "_")
        if form == "adjoint":
            gf = rootspin.GroupForm.adjoint(rs)
            lattice = "root lattice"
        elif form == "simply_connected":
            gf = rootspin.GroupForm.simply_connected(rs)
            lattice = "weight lattice"
        else:
            raise DomainError(f"unknown form {args.form!r}")
        report = rootspin.adjoint_spin(gf)
        basis = "a"
    rho_str = _format_vector(report.rho, basis)
    if args.json:
        _envelope("spin-check", _inputs(args),
                  {"group": report.group, "form": report.form, "spin": report.in_lattice,
                   "rho": [str(c) for c in report.rho]},
                  [str(c) for c in report.certificate])
        return 0
    if report.in_lattice:
        print(f"SPIN: rho = {rho_str} in {lattice}")
    else:
        idx, value = report.certificate
        print(f"NO SPIN: rho = {rho_str} not in {lattice} "
              f"(coordinate {value} at {basis}{idx + 1})")
    return 0


def _format_vector(coeffs, basis: str) -> str:
    bits = []
    for i, c in enumerate(coeffs):
        if c:
            bits.append(f"{c}*{basis}{i + 1}")
    return " + ".join(bits) if bits else "0"


def cmd_fixtures(args) -> int:
    names = fixtures.fixture_names()
    if not args.verify:
        if args.json:
            _envelope("fixtures", {}, names, None)
            return 0
        for name in names:
            m = fixtures.load_fixture(name)
            print(f"{name:28s} dim {m.total_dim:3d} over {m.algebra.name:6s} "
                  f"- {fixtures.fixture_description(name)}")
        return 0
    problems = {name: fixtures.verify_fixture(name) for name in names}
    failed = {name: ps for name, ps in problems.items() if ps}
    if args.json:
        _envelope("fixtures", {"verify": True}, {"ok": not failed, "problems": problems},
                  failed)
    else:
        for name, ps in problems.items():
            print("\n".join(f"FAIL {name}: {p}" for p in ps) or f"ok   {name}")
    return 1 if failed else 0


def _envelope(verb: str, inputs: dict, result, certificate):
    """Print the one-line ``--json`` output every verb shares."""
    print(json.dumps({"verb": verb, "inputs": inputs, "result": result,
                      "certificate": certificate}, sort_keys=True))


def _inputs(args) -> dict:
    skip = {"func", "json", "out"}
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in skip}


# ---------------------------------------------------------------------------


_MODULE = (("--fixture", {"help": "name from the shipped fixture library"}),
           ("--file", {"help": "module definition file"}))
_OUT = (("--out", {"help": "write output to this path instead of stdout"}),)
_JSON = (("--json", {"action": "store_true"}),)
_SUB = (("--sub", {"required": True, "help": "A0, E1, P11, B, ..."}),)


def _chart_args(smax: int, tmax: int):
    return (("--smax", {"type": int, "default": smax}),
            ("--tmax", {"type": int, "default": tmax}),
            ("--format", {"choices": ("ascii", "csv", "svg"), "default": "ascii"}))


# (name, help, handler, arguments): each argument is (flag, add_argument keywords)
_VERBS = (
    ("define", "parse, validate and re-serialize a module file", cmd_define,
     _MODULE + _OUT),
    ("validate", "check the module axioms (Wall relations)", cmd_validate,
     _MODULE + _JSON),
    ("tensor", "tensor product with the diagonal action", cmd_tensor,
     _MODULE + _OUT
     + (("--with", {"dest": "with_fixture", "help": "second factor (fixture name)"}),)),
    ("dual", "linear dual, action through the antipode", cmd_dual, _MODULE + _OUT),
    ("suspend", "shift all degrees", cmd_suspend,
     _MODULE + _OUT + (("--by", {"type": int, "required": True}),)),
    ("reduce", "strip free summands (integral criterion)", cmd_reduce, _MODULE),
    ("loop", "syzygy / cosyzygy in the stable category", cmd_loop,
     _MODULE + _OUT + (("--inverse", {"action": "store_true"}),
                       ("--times", {"type": int, "default": 1}))),
    ("quotient", "cyclic quotient by a left ideal", cmd_quotient,
     (("--algebra", {"required": True, "help": "A(0)..A(3)"}),
      ("--kill", {"action": "append", "required": True,
                  "help": "ideal generator in element syntax (repeatable)"}),
      ("--suspend", {"type": int, "default": 0}),
      ("--out", {}))),
    ("induce", "induce a module up along a subalgebra", cmd_induce,
     _MODULE + _OUT
     + (("--algebra", {"required": True, "help": "target algebra, e.g. A(1)"}),) + _SUB),
    ("restrict", "restrict a module to a subalgebra", cmd_restrict,
     _MODULE + _OUT + _SUB),
    ("double", "regrade over the next algebra, degrees doubled", cmd_double,
     _MODULE + _OUT),
    ("ext", "Ext chart from a minimal resolution", cmd_ext,
     _MODULE + _OUT + _chart_args(8, 24)),
    ("extgroups", "Ext with module coefficients (Hom complex)", cmd_extgroups,
     _MODULE + _OUT + (("--coeff", {"required": True, "help": "coefficient fixture"}),)
     + _chart_args(6, 20)),
    ("check-selfdual", "find the self-duality shift, if any", cmd_check_selfdual,
     _MODULE + (("--stable", {"action": "store_true",
                              "help": "compare after stripping free summands"}),) + _JSON),
    ("check-exact", "verify a named sequence is exact", cmd_check_exact,
     (("--sequence", {"required": True, "help": "bott or p11"}),)),
    ("spin-check", "Spin verdict for an adjoint representation", cmd_spin_check,
     (("--type", {"help": "root system type, e.g. G2, F4, E7, A5, B3"}),
      ("--form", {"default": "adjoint", "help": "adjoint (default) or simply-connected"}),
      ("--un", {"type": int, "help": "rank of a unitary group instead of a type"}))
     + _JSON),
    ("fixtures", "list or verify the shipped module library", cmd_fixtures,
     (("--verify", {"action": "store_true"}),) + _JSON),
)


def _dest(flag: str, kwargs: dict) -> str:
    return kwargs.get("dest") or flag[2:].replace("-", "_")


def _plain_args(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` returns, with the
    same attributes in the same order, when ``argv`` is a verb followed
    only by that verb's flags, each written out in full, as ``--flag=value``
    or as ``--flag value`` with a value not starting with '-'.  None for any
    other command line, and for every one argparse rejects."""
    verb = next((v for v in _VERBS if argv and v[0] == argv[0]), None)
    if verb is None:
        return None
    name, _help, func, arguments = verb
    options = dict(arguments)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        dest, action = _dest(flag, kwargs), kwargs.get("action")
        if action == "store_true":
            if eq:
                return None
            given[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":
            # argparse 3.11 reads an attached '--' as no value at all
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[dest] = given.get(dest, []) + [value] if action == "append" else value
    ns = types.SimpleNamespace(verb=name)
    for flag, kwargs in arguments:
        dest = _dest(flag, kwargs)
        if dest in given:
            setattr(ns, dest, given[dest])
        elif kwargs.get("required"):
            return None
        else:
            store_true = kwargs.get("action") == "store_true"
            setattr(ns, dest, kwargs.get("default", False if store_true else None))
    ns.func = func
    return ns


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The ``stmod`` parser.  When ``verb`` names a verb, only its
    subparser is built; the top-level usage still lists every verb."""
    import argparse

    verbs = [v for v in _VERBS if v[0] == verb] or _VERBS
    ap = argparse.ArgumentParser(
        prog="stmod",
        description="Exact computations with modules over finite subalgebras "
                    "of the mod-2 Steenrod algebra.")
    metavar = None if len(verbs) > 1 else "{" + ",".join(v[0] for v in _VERBS) + "}"
    sub = ap.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, help_text, func, arguments in verbs:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (DomainError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early: what is still buffered, and the
        # interpreter's final flush, go to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
