"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import catalogue as C  # noqa: E402
import modules as M  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root 0..10 holds a (1..4, with 0.5 s of leaf calls) and b (5..7);
    # a holds c (2..3); d (6..8) overlaps b's end and is also a child of root
    spans = [
        [0, None, "root", 0.0, 10.0, 0.0],
        [1, 0, "a", 1.0, 4.0, 0.5],
        [2, 0, "b", 5.0, 7.0, 0.0],
        [3, 1, "c", 2.0, 3.0, 0.0],
        [4, 0, "d", 6.0, 8.0, 0.0],
    ]
    own = T.self_times(spans)
    assert own[0] == pytest.approx(10 - 3 - 3)      # children cover 1..4 and 5..8
    assert own[1] == pytest.approx(3 - 1 - 0.5)
    assert own[2] == pytest.approx(2)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(2)


def test_tracer_splits_time_between_spans_and_leaves():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.span("inner", lambda: None)
    leaf = tr.leaf("leaf", lambda: inner())
    outer = tr.span("outer", lambda: (leaf(), leaf()))
    outer()
    data = tr.export()
    own = T.self_times(data["spans"])
    by_name = {}
    for sid, _p, name, start, end, _leaf in data["spans"]:
        by_name.setdefault(name, []).append(own[sid])
    # the ticks make every call boundary one second apart
    assert by_name["inner"] == [1.0, 1.0]
    assert data["counts"]["leaf.calls"] == 2
    assert data["leaf_self"]["leaf"] == pytest.approx(4.0)
    total = 0
    for sid, _p, name, start, end, _leaf in data["spans"]:
        if name == "outer":
            total = end - start
    assert sum(own.values()) + data["leaf_self"]["leaf"] == pytest.approx(total)


def test_install_wraps_every_binding_of_a_name():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])\n"
        "import stmod, tracer\n"
        "from stmod import f2linalg, resolve, stable\n"
        "tr = tracer.Tracer(); tracer.install(tr)\n"
        "assert resolve.rref is f2linalg.rref is stable.rref\n"
        "assert f2linalg.rref.__qualname__.startswith('Tracer.span')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(C.ROOT / "src"), str(HERE)], check=True)


def _refs():
    return C.load_refs()


def _env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_task(task, tmp_path, trace=False):
    d = tmp_path / f"task{random.random()}"
    d.mkdir()
    for name, text in task.files.items():
        (d / name).write_text(text)
    return R.execute(task, d, trace, _env(), timeout=120)


def test_corrupted_reference_is_a_counted_failure(tmp_path):
    refs = _refs()
    refs["exact/bott"] = "exact at every interior stage (99 checked)\n"
    refs["exact/p11"] = None                       # malformed, not just wrong
    for seed in range(4):
        task = next(t for t in C.build("stable-reduce", seed, refs)
                    if t.name.startswith("check-exact"))
        res = _run_task(task, tmp_path)
        assert not res["ok"]
        assert res["why"]


def test_damaged_chart_reference_fails_only_its_task(tmp_path):
    refs = _refs()
    refs["ext/F2/A(1)"] = refs["ext/F2/A(1)"][1:]
    tasks = C.build("ext-resolve", 0, refs)
    results = {t.name: _run_task(t, tmp_path) for t in tasks
               if t.name in ("ext F2 over A(1)", "ext F2 over E(3)")}
    assert not results["ext F2 over A(1)"]["ok"]
    assert results["ext F2 over E(3)"]["ok"]


CHEAP = ("ext Joker", "ext kU", "ext QuestionMark", "extgroups", "tensor", "loop",
         "check-selfdual --stable", "check-exact", "quotient A(2)", "double", "define",
         "spin-check")


@pytest.mark.parametrize("workload", C.WORKLOADS)
def test_traced_children_print_the_same_bytes(workload, tmp_path):
    tasks = [t for t in C.build(workload, 3, _refs()) if t.name.startswith(CHEAP)]
    assert tasks
    for task in tasks:
        plain = _run_task(task, tmp_path, trace=False)
        traced = _run_task(task, tmp_path, trace=True)
        assert plain["ok"] and traced["ok"], (plain["why"], traced["why"])
        assert plain["stdout"] == traced["stdout"]
        assert traced["trace"]["spans"]


def test_same_seed_same_tasks():
    refs = _refs()
    for workload in C.WORKLOADS:
        a, b = C.build(workload, 7, refs), C.build(workload, 7, refs)
        assert [(t.argv, t.files) for t in a] == [(t.argv, t.files) for t in b]


def test_a1_checker_agrees_with_the_relations():
    good = C.fixture("Joker")
    assert not M.a1_violations(good)
    assert not M.a1_violations(M.transform(good, random.Random(1), shift=3))
    bad = M.parse("module b over A(1)\ngenerator a degree 0\ngenerator b degree 2\n"
                  "generator c degree 4\naction Sq^2 a = b\naction Sq^2 b = c\n")
    assert M.a1_violations(bad)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((C.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == R.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == R.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(C.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ext-resolve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
