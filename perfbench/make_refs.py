"""Record the reference outputs in refs.json.

The references pin the program's answers at the commit that defined the
benchmark; later changes are checked against them.  Run this only when the
catalogue gains an entry, never to make a failing check pass:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import catalogue as C
import modules as M

sys.path.insert(0, str(C.ROOT / "src"))
from stmod import cli  # noqa: E402


def run(argv: list[str], files: dict[str, str] | None = None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (files or {}).items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in (files or {}) else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out.getvalue()


def chart(argv, files=None):
    return sorted([s, t, v] for (s, t), v in C.parse_chart(run(argv, files)).items())


def ext(mod: M.Mod, window) -> list:
    return chart(["ext", "--file", "m.mod", "--smax", str(window[0]), "--tmax",
                  str(window[1]), "--format", "csv"], {"m.mod": M.serialize(mod)})


def reduced(mod: M.Mod) -> dict:
    free, part = C.parse_reduce(run(["reduce", "--file", "m.mod"], {"m.mod": M.serialize(mod)}))
    return {"free": free, "reduced_dims": C.dims_key(part.dims() if part else {})}


def selfdual(mod: M.Mod, *flags) -> int | None:
    out = run(["check-selfdual", *flags, "--file", "m.mod"], {"m.mod": M.serialize(mod)})
    return None if out == "not self-dual\n" else int(out.split()[-1])


def main():
    refs = {}
    for alg, window in C.EXT_WINDOWS.items():
        if alg != "E(3)":
            refs[f"ext/F2/{alg}"] = ext(C.trivial(alg, 0), window)
    for name in C.EXT_FIXTURES:
        refs[f"ext/{name}"] = ext(C.fixture(name), C.FIXTURE_EXT_WINDOW)
    for mname, cname in C.EXTGROUPS_PAIRS:
        s_max, t_max = C.EXTGROUPS_WINDOW
        refs[f"extgroups/{mname}/{cname}"] = chart(
            ["extgroups", "--file", "m.mod", "--coeff", cname, "--smax", str(s_max),
             "--tmax", str(t_max), "--format", "csv"], {"m.mod": M.serialize(C.fixture(mname))})
    refs["reduce/big"] = reduced(C.big_reduce_input())
    refs["reduce/medium"] = reduced(C.medium_reduce_input())
    name, times = C.LOOP_CASE
    out = run(["loop", "--times", str(times), "--file", "m.mod"],
              {"m.mod": M.serialize(C.fixture(name))})
    refs["loop"] = C.dims_key(M.parse(out).dims())
    refs["selfdual/SO8modSp2"] = selfdual(C.fixture("SO8modSp2"))
    for name in C.STABLE_SELFDUAL:
        refs[f"selfdual-stable/Joker*{name}"] = selfdual(
            M.tensor_a1(C.fixture("Joker"), C.fixture(name), "sd"), "--stable")
    for seq in C.SEQUENCES:
        refs[f"exact/{seq}"] = run(["check-exact", "--sequence", seq])
    for kill in C.A3_KILLS:
        out = run(["quotient", "--algebra", "A(3)", "--kill", kill])
        refs[f"quotient/A(3)/{kill}"] = C.dims_key(M.parse(out).dims())
    argv = ["quotient", "--algebra", "A(2)"]
    for x in C.A2_KILL:
        argv += ["--kill", x]
    refs["quotient/A(2)"] = C.dims_key(M.parse(run(argv)).dims())
    refs["fixtures-verify"] = run(["fixtures", "--verify"])
    refs["fixtures-list"] = run(["fixtures"])
    for group in C.SPIN_TYPES:
        for form in C.SPIN_FORMS:
            refs[f"spin/{group}/{form}"] = run(["spin-check", "--type", group, "--form", form])
    for n in C.SPIN_UN:
        refs[f"spin/U/{n}"] = run(["spin-check", "--un", str(n)])
    with open(C.HERE / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
