"""The benchmark's workloads: seeded task lists and the checks on their output.

A task is one ``stmod`` command line together with the module files it reads.
The structure of each workload is fixed, so every seed asks for about the same
amount of work; the seed picks the presentation of every input (suspension,
labels, a change of basis in each degree) and, for the small tasks, which
fixture, kill set or root system is used.  Every entry of the catalogue has a
check, so a seed never seen before is still checked:

- charts over A(1), A(2), A(3) and module charts are compared with references
  stored in ``refs.json`` (recorded once by ``make_refs.py``), shifted by the
  suspension of the input;
- the E(3) chart is compared with F2[v0..v3], v_i in bidegree (1, 2^(i+1)-1),
  and the A(2)//A(1) chart with the A(1) chart of F2 (change of rings);
- ``reduce`` and ``loop`` outputs are compared through invariants that do not
  depend on the basis the program picks (free-summand suspensions, graded
  dimensions) and must satisfy the relations of A(1);
- ``tensor``, ``double`` and ``define`` outputs are compared, label by label,
  with the benchmark's own construction;
- self-duality shifts, exactness results, Spin verdicts and fixture
  verification must match the reference text exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import modules as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_DIR = ROOT / "src" / "stmod" / "fixtures"
DATA_DIR = HERE / "data"

WORKLOADS = ("ext-resolve", "stable-reduce", "algebra-build")


class CheckError(Exception):
    """The program's output is wrong."""


@dataclass
class Task:
    name: str
    argv: list[str]
    algebras: list[str]               # presets the child builds during set-up
    files: dict[str, str] = field(default_factory=dict)   # file name -> text
    check: Callable[[str], None] = lambda out: None


def fixture(name: str) -> M.Mod:
    return M.parse((FIXTURE_DIR / f"{name}.mod").read_text())


def data_module(name: str) -> M.Mod:
    return M.parse((DATA_DIR / f"{name}.mod").read_text())


def load_refs(path: Path = HERE / "refs.json") -> dict:
    with open(path) as fh:
        return json.load(fh)


def trivial(algebra: str, degree: int) -> M.Mod:
    return M.Mod("F2", algebra, {degree: ["u"]})


def joker_power(n: int) -> M.Mod:
    j = fixture("Joker")
    out = j
    for _ in range(n - 1):
        out = M.tensor_a1(out, j, "JokerPower")
    return out


# ---------------------------------------------------------------------------
# Parsing program output


def _expect(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def parse_chart(text: str) -> dict[tuple[int, int], int]:
    lines = text.strip().splitlines()
    _expect(lines and lines[0] == "s,t,dim", "chart output is not csv")
    out = {}
    for line in lines[1:]:
        s, t, v = (int(x) for x in line.split(","))
        out[(s, t)] = v
    return out


def chart_from_ref(entries) -> dict[tuple[int, int], int]:
    return {(s, t): v for s, t, v in entries}


def shifted(chart: dict, k: int, s_max: int, t_max: int) -> dict:
    return {(s, t + k): v for (s, t), v in chart.items() if s <= s_max and t <= t_max}


def ext_polynomial(gen_t: list[int], s_max: int, t_max: int) -> dict:
    """Graded dimensions of F2[v_0, ...] with v_i in bidegree (1, gen_t[i])."""
    counts = {(0, 0): 1}
    for g in gen_t:
        nxt = {}
        for (s0, t0), v in counts.items():
            k = 0
            while s0 + k <= s_max and t0 + k * g <= t_max:
                key = (s0 + k, t0 + k * g)
                nxt[key] = nxt.get(key, 0) + v
                k += 1
        counts = nxt
    return counts


def parse_reduce(text: str) -> tuple[list[int], M.Mod | None]:
    lines = text.splitlines()
    head = "free summands at suspensions: "
    _expect(lines and lines[0].startswith(head), "reduce output lacks the free summands")
    rest = lines[0][len(head):]
    free = [] if rest == "none" else sorted(int(x) for x in rest.split(","))
    if len(lines) > 1 and lines[1] == "reduced part: 0":
        return free, None
    _expect(len(lines) > 1 and lines[1] == "reduced part:", "reduce output lacks the reduced part")
    return free, M.parse("\n".join(lines[2:]))


def selfdual_text(shift: int | None, k: int) -> str:
    """check-selfdual's verdict after suspending the input by k: the dual of
    a k-fold suspension is a (-k)-fold one, so the shift grows by 2k."""
    return "not self-dual\n" if shift is None else f"self-dual with shift {shift + 2 * k}\n"


def dims_key(dims: dict[int, int], k: int = 0) -> list[list[int]]:
    return sorted([d + k, v] for d, v in dims.items())


# ---------------------------------------------------------------------------
# Catalogue entries.  Windows and choices are part of the benchmark's
# definition; refs.json holds the reference outputs for each of them.

EXT_WINDOWS = {          # algebra -> (s_max, t_max) for the chart of F2
    "A(1)": (20, 60),
    "A(2)": (8, 30),
    "A(3)": (3, 12),
    "E(3)": (8, 40),
}
QUOTIENT_WINDOW = (6, 24)          # ext of A(2)//A(1)
FIXTURE_EXT_WINDOW = (12, 36)
# seeded choices below are among inputs of about the same cost
EXT_FIXTURES = ("Joker", "QuestionMark", "HZ", "kU", "A1modSq2Sq1", "A1modSq1Sq2",
                "OmegaJoker", "Omega2Joker", "I1")
EXTGROUPS_WINDOW = (8, 30)
EXTGROUPS_PAIRS = (("Joker", "Joker"), ("HZ", "QuestionMark"), ("QuestionMark", "HZ"),
                   ("kU", "Joker"), ("Joker", "kU"))

# The tasks near the median cost have a fixed structure (only the presentation
# is seeded), so that task_p50_s measures the same task on every seed.
BIG_REDUCE = "HZ"                  # reduce (Joker^3 (x) HZ), 500-dimensional
MEDIUM_REDUCE = "DI1"              # reduce (Joker^2 (x) DI1), 175-dimensional
TENSOR_CASES = (("A1modSq1Sq2", "Joker"), ("A1modSq2Sq1", "Joker"),
                ("Joker", "A1modSq1Sq2"), ("Joker", "A1modSq2Sq1"))
LOOP_CASE = ("OmegaJoker", 3)
STABLE_SELFDUAL = ("HZ", "kU", "A1modP11", "QuestionMark", "A1modSq2P11")
SEQUENCES = ("bott", "p11")

A3_KILLS = ("Sq^2", "Sq^4")
A2_KILL = ("Sq^1", "Sq^4")
DOUBLE_FIXTURES = ("Joker", "HZ", "QuestionMark", "kU", "A1", "I1", "DI1", "SO8modSp2")
SPIN_TYPES = tuple(f"{f}{r}" for f, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                                              ("C", range(3, 9)), ("D", range(4, 9)),
                                              ("E", range(6, 9)), ("F", (4,)),
                                              ("G", (2,))) for r in ranks)
SPIN_FORMS = ("adjoint", "simply-connected")
SPIN_UN = tuple(range(1, 13))


def big_reduce_input() -> M.Mod:
    return M.tensor_a1(joker_power(3), fixture(BIG_REDUCE), "big")


def medium_reduce_input() -> M.Mod:
    return M.tensor_a1(joker_power(2), fixture(MEDIUM_REDUCE), "medium")


# ---------------------------------------------------------------------------
# Checks.  Reference-derived expectations are computed inside the check, so
# that a damaged reference fails the task that uses it, not the whole run.


def check_chart(expected_fn: Callable[[], dict]):
    def check(out: str):
        got, expected = parse_chart(out), expected_fn()
        diff = sorted(set(got.items()) ^ set(expected.items()))
        _expect(not diff, f"chart differs at {diff[:4]}")
    return check


def check_text(expected_fn: Callable[[], str]):
    def check(out: str):
        expected = expected_fn()
        _expect(out == expected, f"output {out[:80]!r} differs from {expected[:80]!r}")
    return check


def check_reduce(ref_fn: Callable[[], dict], k: int):
    def check(out: str):
        free, reduced = parse_reduce(out)
        ref = ref_fn()
        _expect(free == sorted(d + k for d in ref["free"]), "free summands differ")
        dims = reduced.dims() if reduced else {}
        _expect(dims_key(dims) == dims_key(dict(ref["reduced_dims"]), k),
                "reduced part has other graded dimensions")
        if reduced:
            bad = M.a1_violations(reduced)
            _expect(not bad, f"reduced part is not an A(1)-module: {bad[:2]}")
    return check


def check_module_dims(ref_fn: Callable[[], list], k: int):
    def check(out: str):
        m = M.parse(out)
        _expect(dims_key(m.dims()) == dims_key(dict(ref_fn()), k), "graded dimensions differ")
        bad = M.a1_violations(m)
        _expect(not bad, f"output violates relations of A(1): {bad[:2]}")
    return check


def check_structure(expected: M.Mod):
    want = expected.structure()

    def check(out: str):
        got = M.parse(out)
        _expect(got.algebra == expected.algebra, "output is over another algebra")
        _expect(got.structure() == want, "module differs from the expected one")
    return check


# ---------------------------------------------------------------------------
# Workloads


def _ext_task(name, mod, algebra, window, k, expected, file_name):
    s_max, t_max = window
    return Task(name, ["ext", "--file", file_name, "--smax", str(s_max),
                       "--tmax", str(t_max + k), "--format", "csv"],
                [algebra], {file_name: M.serialize(mod)}, check_chart(expected))


def ext_resolve(rng: random.Random, refs: dict) -> list[Task]:
    """Charts: resolve, steenrod reads and large eliminations; stable idles."""
    tasks = []
    for alg, window in EXT_WINDOWS.items():
        k = rng.randint(-4, 4)
        if alg == "E(3)":
            expected = (lambda k=k, w=window:
                        shifted(ext_polynomial([1, 3, 7, 15], *w), k, *w))
        else:
            expected = (lambda k=k, w=window, key=f"ext/F2/{alg}":
                        shifted(chart_from_ref(refs[key]), k, *w))
        tasks.append(_ext_task(f"ext F2 over {alg}", trivial(alg, k), alg, window, k,
                               expected, f"f2_{alg[0]}{alg[2]}.mod"))
    k = rng.randint(-4, 4)
    quot = M.transform(data_module("A2modA1"), rng, shift=k)
    expected = (lambda k=k: shifted(chart_from_ref(refs["ext/F2/A(1)"]), k, *QUOTIENT_WINDOW))
    tasks.append(_ext_task("ext A(2)//A(1)", quot, "A(2)", QUOTIENT_WINDOW, k, expected,
                           "a2moda1.mod"))
    name = rng.choice(EXT_FIXTURES)
    k = rng.randint(-4, 4)
    mod = M.transform(fixture(name), rng, shift=k)
    expected = (lambda k=k, key=f"ext/{name}":
                shifted(chart_from_ref(refs[key]), k, *FIXTURE_EXT_WINDOW))
    tasks.append(_ext_task(f"ext {name}", mod, "A(1)", FIXTURE_EXT_WINDOW, k, expected,
                           "fixture.mod"))
    mname, cname = rng.choice(EXTGROUPS_PAIRS)
    k = rng.randint(-4, 4)
    mod = M.transform(fixture(mname), rng, shift=k)
    s_max, t_max = EXTGROUPS_WINDOW
    expected = (lambda k=k, key=f"extgroups/{mname}/{cname}":
                shifted(chart_from_ref(refs[key]), k, s_max, t_max))
    tasks.append(Task(f"extgroups {mname} {cname}",
                      ["extgroups", "--file", "pair.mod", "--coeff", cname, "--smax",
                       str(s_max), "--tmax", str(t_max + k), "--format", "csv"],
                      ["A(1)"], {"pair.mod": M.serialize(mod)}, check_chart(expected)))
    return tasks


def stable_reduce(rng: random.Random, refs: dict) -> list[Task]:
    """Free-summand stripping, tensor/dual and serialisation; resolve idles."""
    tasks = []
    k = rng.randint(-4, 4)
    # the stripping order follows the basis, so a new basis would change the
    # work; the large input keeps its basis and is only suspended and relabelled
    big = M.transform(big_reduce_input(), rng, shift=k, change_basis=False)
    tasks.append(Task(f"reduce Joker^3*{BIG_REDUCE}", ["reduce", "--file", "big.mod"],
                      ["A(1)"], {"big.mod": M.serialize(big)},
                      check_reduce(lambda: refs["reduce/big"], k)))
    k = rng.randint(-4, 4)
    med = M.transform(medium_reduce_input(), rng, shift=k)
    tasks.append(Task(f"reduce Joker^2*{MEDIUM_REDUCE}", ["reduce", "--file", "medium.mod"],
                      ["A(1)"], {"medium.mod": M.serialize(med)},
                      check_reduce(lambda: refs["reduce/medium"], k)))
    left, right = rng.choice(TENSOR_CASES)
    k = rng.randint(-4, 4)
    src = M.transform(M.tensor_a1(joker_power(2), fixture(left), "left"), rng, shift=k)
    expected = M.tensor_a1(src, fixture(right), "tensor")
    tasks.append(Task(f"tensor Joker^2*{left} with {right}",
                      ["tensor", "--file", "left.mod", "--with", right], ["A(1)"],
                      {"left.mod": M.serialize(src)}, check_structure(expected)))
    name, times = LOOP_CASE
    k = rng.randint(-4, 4)
    mod = M.transform(fixture(name), rng, shift=k)
    tasks.append(Task(f"loop {name} x{times}",
                      ["loop", "--times", str(times), "--file", "loop.mod"], ["A(1)"],
                      {"loop.mod": M.serialize(mod)},
                      check_module_dims(lambda: refs["loop"], k)))
    k = rng.randint(-4, 4)
    so8 = M.transform(fixture("SO8modSp2"), rng, shift=k, change_basis=False)
    tasks.append(Task("check-selfdual SO8modSp2", ["check-selfdual", "--file", "so8.mod"],
                      ["A(1)"], {"so8.mod": M.serialize(so8)},
                      check_text(lambda k=k: selfdual_text(refs["selfdual/SO8modSp2"], k))))
    name = rng.choice(STABLE_SELFDUAL)
    k = rng.randint(-4, 4)
    mod = M.transform(M.tensor_a1(fixture("Joker"), fixture(name), "sd"), rng, shift=k,
                      change_basis=False)
    tasks.append(Task(f"check-selfdual --stable Joker*{name}",
                      ["check-selfdual", "--stable", "--file", "sd.mod"], ["A(1)"],
                      {"sd.mod": M.serialize(mod)},
                      check_text(lambda k=k, key=f"selfdual-stable/Joker*{name}":
                                 selfdual_text(refs[key], k))))
    seq = rng.choice(SEQUENCES)
    tasks.append(Task(f"check-exact {seq}", ["check-exact", "--sequence", seq], ["A(1)"],
                      check=check_text(lambda key=f"exact/{seq}": refs[key])))
    # the fixture identities are self-duality shifts and free parts, i.e. stable work
    tasks.append(Task("fixtures --verify", ["fixtures", "--verify"], ["A(1)"],
                      check=check_text(lambda: refs["fixtures-verify"])))
    return tasks


def algebra_build(rng: random.Random, refs: dict) -> list[Task]:
    """Closures, products, module construction and parsing; resolve and
    stable idle."""
    tasks = []
    kill = rng.choice(A3_KILLS)
    k = rng.randint(-4, 4)
    tasks.append(Task(f"quotient A(3) by {kill}",
                      ["quotient", "--algebra", "A(3)", f"--suspend={k}", "--kill", kill],
                      ["A(3)"], check=check_module_dims(lambda: refs[f"quotient/A(3)/{kill}"], k)))
    k = rng.randint(-4, 4)
    argv = ["quotient", "--algebra", "A(2)", f"--suspend={k}"]
    for x in A2_KILL:
        argv += ["--kill", x]
    tasks.append(Task(f"quotient A(2) by {','.join(A2_KILL)}", argv, ["A(2)"],
                      check=check_module_dims(lambda: refs["quotient/A(2)"], k)))
    mod = M.transform(data_module("A3modA2"), rng, shift=rng.randint(-4, 4))
    tasks.append(Task("validate A3modA2", ["validate", "--file", "a3.mod"], ["A(3)"],
                      {"a3.mod": M.serialize(mod)},
                      check_text(lambda n=mod.total_dim:
                                 f"ok: {n}-dimensional module over A(3)\n")))
    name = rng.choice(DOUBLE_FIXTURES)
    mod = M.transform(fixture(name), rng, shift=rng.randint(-4, 4))
    tasks.append(Task(f"double {name}", ["double", "--file", "double.mod"], ["A(1)", "A(2)"],
                      {"double.mod": M.serialize(mod)}, check_structure(M.double(mod))))
    tasks.append(Task("fixtures", ["fixtures"], ["A(1)"],
                      check=check_text(lambda: refs["fixtures-list"])))
    name = rng.choice(sorted(p.stem for p in FIXTURE_DIR.glob("*.mod")))
    mod = M.transform(fixture(name), rng, shift=rng.randint(-4, 4))
    tasks.append(Task(f"define {name}", ["define", "--file", "define.mod"], [mod.algebra],
                      {"define.mod": M.serialize(mod)}, check_structure(mod)))
    spin = rng.choice([["--type", group, "--form", form]
                       for group in SPIN_TYPES for form in SPIN_FORMS]
                      + [["--un", str(n)] for n in SPIN_UN])
    key = "spin/U/" + spin[1] if spin[0] == "--un" else f"spin/{spin[1]}/{spin[3]}"
    tasks.append(Task("spin-check " + " ".join(spin[1::2]), ["spin-check", *spin], [],
                      check=check_text(lambda: refs[key])))
    return tasks


BUILDERS = {"ext-resolve": ext_resolve, "stable-reduce": stable_reduce,
            "algebra-build": algebra_build}


def build(workload: str, seed: int, refs: dict) -> list[Task]:
    """The seeded task list of one workload; the same seed gives the same tasks."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), refs)
