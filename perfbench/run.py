"""The stmod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed draws the workload's task list from
the catalogue (``catalogue.py``); each task is one ``stmod`` command run in a
fresh interpreter (``child.py``), one at a time: a closed loop with one client.
The run repeats the whole task list in rounds, each round in a new seeded
order, until the next round would end after S seconds (at least three rounds
untraced, one traced).  Tasks that take less than ``SMALL_TASK_S`` run twice
a round, since short times scatter more.  Every output is checked; a task that raises, exits
non-zero or fails its check counts as failed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

- ``setup_s``: sum over tasks of the median set-up time (import, algebra
  presets, reading the inputs);
- ``solve_s``: sum over tasks of the median time inside ``cli.main``;
- ``task_p50_s``: median over tasks of the median solve time;
- ``peak_rss_mb``: largest resident set of any task's interpreter.

The speed of a shared machine drifts by 10-20 % within seconds.  Each child
therefore also times a fixed calibration loop (``child.calibrate``) before
set-up, between set-up and solve, and after solve; set-up and solve times are
scaled by ``NOMINAL_CALIBRATION_S`` over the mean of the two calibrations
around them: the times above are seconds on a machine that runs the loop in
that nominal time.  The context
line reports the unscaled sums and the run's mean calibration as well.

With ``--trace 1`` each round runs every task untraced and traced, and the
last line reports the per-layer metrics of ``LAYER_METRICS`` from the traced
children.  The line before the last carries the run's context: failed ratio,
task count, rounds, ``src/stmod`` line count, Python version, CPU count, seed,
commit (when the checkout is a git repository) and source digest.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import catalogue as C
from tracer import self_times

SRC = C.ROOT / "src" / "stmod"
NOMINAL_CALIBRATION_S = 0.008
SMALL_TASK_S = 0.25         # tasks faster than this run twice a round
SMALL_TASK_REPEATS = 2
MIN_ROUNDS = {False: 3, True: 1}
HARD_LIMIT_S = 150          # start no round that would end later than this
DEADLINE_S = 170            # a task still running then is stopped and fails

SOLVE_PREFIX = "solve-self/"   # per-layer self time spent inside cli.main

END_TO_END = {"setup_s": "s", "solve_s": "s", "task_p50_s": "s", "peak_rss_mb": "MB"}

_SELF = "s"
LAYER_METRICS = {
    "f2linalg.rref.calls": "count", "f2linalg.rref.self_s": _SELF,
    "f2linalg.rref.cells": "count",
    "f2linalg.kernel_basis.calls": "count", "f2linalg.kernel_basis.self_s": _SELF,
    "f2linalg.solve_matrix.calls": "count", "f2linalg.solve_matrix.self_s": _SELF,
    "f2linalg.solve_matrix.rref_per_call": "1",
    "f2linalg.span_reduce.calls": "count",
    "steenrod.closure.calls": "count", "steenrod.closure.self_s": _SELF,
    "steenrod.mult.calls": "count", "steenrod.mult.distinct": "count",
    "steenrod.mult.hit_ratio": "1", "steenrod.mult.self_s": _SELF,
    "steenrod.basis_by_degree.calls": "count", "steenrod.basis_by_degree.self_s": _SELF,
    "steenrod.degree.calls": "count",
    "steenrod.product.calls": "count", "steenrod.product.self_s": _SELF,
    "steenrod.wall_relations.self_s": _SELF,
    "module.tensor.self_s": _SELF, "module.dual.self_s": _SELF,
    "module.quotient.self_s": _SELF, "module.double.self_s": _SELF,
    "module.validate.self_s": _SELF,
    "module.basis_op.calls": "count", "module.basis_op.distinct": "count",
    "module.max_dim": "count",
    "stable.reduce_module.calls": "count", "stable.reduce_module.self_s": _SELF,
    "stable.reduce_module.free_summands": "count",
    "stable.loop.self_s": _SELF, "stable.hom_space.self_s": _SELF,
    "stable.iso_test.self_s": _SELF, "stable.selfdual_shift.self_s": _SELF,
    "resolve.minimal_resolution.self_s": _SELF,
    "resolve.diff_matrix.calls": "count", "resolve.diff_matrix.self_s": _SELF,
    "resolve.act.calls": "count", "resolve.generators": "count",
    "resolve.ext_groups.self_s": _SELF, "resolve.render_chart.self_s": _SELF,
    "rootspin.adjoint_spin.calls": "count", "rootspin.adjoint_spin.self_s": _SELF,
    "rootspin.positive_roots": "count",
    "modfile.parse.calls": "count", "modfile.parse.self_s": _SELF,
    "modfile.parse.bytes": "B",
    "modfile.serialize.self_s": _SELF, "modfile.serialize.bytes": "B",
    "fixtures.load.self_s": _SELF, "fixtures.verify.self_s": _SELF,
    "cli.self_s": _SELF,
    "trace.overhead_ratio": "1",
}


# ---------------------------------------------------------------------------
# One task execution


def execute(task: C.Task, task_dir: Path, trace: bool, env: dict, timeout: float) -> dict:
    """Run the task in a fresh interpreter and check its output."""
    spec = task_dir / "spec.json"
    result_path = task_dir / "result.json"
    spec.write_text(json.dumps({"argv": task.argv, "algebras": task.algebras,
                                "files": sorted(task.files), "trace": trace}))
    if result_path.exists():
        result_path.unlink()
    try:
        proc = subprocess.run([sys.executable, str(C.HERE / "child.py"), str(spec),
                               str(result_path)], cwd=task_dir, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"stopped at the run's {DEADLINE_S} s deadline"}
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "why": f"child exited {proc.returncode}: {proc.stderr[-400:]}"}
    res = json.loads(result_path.read_text())
    res["ok"], res["why"] = True, ""
    if res["error"]:
        res["ok"], res["why"] = False, res["error"].strip().splitlines()[-1]
    elif res["code"] != 0:
        res["ok"], res["why"] = False, f"exit code {res['code']}: {res['stderr'][-200:]}"
    else:
        try:
            task.check(res["stdout"])
        except Exception as exc:  # a broken check or reference is a failed task
            res["ok"], res["why"] = False, f"{type(exc).__name__}: {exc}"
    return res


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced execution


def layer_values(trace: dict) -> dict:
    """Raw per-layer numbers of one traced child."""
    spans = trace["spans"]
    own = self_times(spans)
    names = {sid: name for sid, _p, name, *_ in spans}
    out: dict[str, float] = defaultdict(float)
    solve_start = trace["solve_start"]
    for sid, parent, name, start, *_ in spans:
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own[sid]
        if start >= solve_start:
            out[SOLVE_PREFIX + name.split(".")[0]] += own[sid]
        if name == "f2linalg.rref" and names.get(parent) == "f2linalg.solve_matrix":
            out["f2linalg.solve_matrix.rref_calls"] += 1
    out.update(trace["counts"])
    for name, value in trace["leaf_self"].items():
        out[name + ".self_s"] = value
    for name, value in trace["leaf_self_solve"].items():
        out[SOLVE_PREFIX + name.split(".")[0]] += value
    return out


def aggregate_layers(per_task: list[list[dict]]) -> dict:
    """Median over rounds for each task, then summed over tasks."""
    total: dict[str, float] = defaultdict(float)
    for runs in per_task:
        for key in set().union(*runs):
            med = statistics.median(r.get(key, 0.0) for r in runs)
            if key == "module.max_dim":
                total[key] = max(total[key], med)
            else:
                total[key] += med
    calls = total["steenrod.mult.calls"]
    total["steenrod.mult.hit_ratio"] = (
        (calls - total["steenrod.mult.distinct"]) / calls if calls else 0.0)
    solves = total["f2linalg.solve_matrix.calls"]
    total["f2linalg.solve_matrix.rref_per_call"] = (
        total["f2linalg.solve_matrix.rref_calls"] / solves if solves else 0.0)
    return total


# ---------------------------------------------------------------------------
# The run


def context(args, n_tasks: int, rounds: int, failed: int, attempted: int,
            extra: dict) -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (C.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=C.ROOT, text=True,
                                    capture_output=True).stdout.strip() or None
        except OSError:
            pass
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "commit": commit,
            "tasks": n_tasks, "rounds": rounds,
            "failed_ratio": {"value": failed / attempted, "unit": "1"},
            "src_stmod_lines": lines, "src_stmod_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), **extra}


class Samples:
    """What one run measured: per task, a list of values for each key."""

    def __init__(self, n_tasks: int):
        self.per_task = [defaultdict(list) for _ in range(n_tasks)]
        self.layers: list[list[dict]] = [[] for _ in range(n_tasks)]
        self.calibrations: list[float] = []
        self.attempted = self.failed = self.rounds = 0

    def add(self, i: int, res: dict, traced: bool) -> None:
        tag = "traced_" if traced else ""
        values = self.per_task[i]
        for key in ("setup", "solve"):
            values[f"{tag}{key}_s"].append(
                res[f"{key}_s"] * NOMINAL_CALIBRATION_S / res[f"{key}_calibration_s"])
            values[f"{tag}raw_{key}_s"].append(res[f"{key}_s"])
        values[tag + "rss_kb"].append(res["rss_kb"])
        self.calibrations.append(res["solve_calibration_s"])
        if traced:
            self.layers[i].append(layer_values(res["trace"]))

    def median(self, i: int, key: str) -> float:
        vals = self.per_task[i][key]
        return statistics.median(vals) if vals else 0.0

    def total(self, key: str) -> float:
        return sum(self.median(i, key) for i in range(len(self.per_task)))


def measure(tasks: list[C.Task], dirs: list[Path], args, env: dict) -> Samples:
    """Run rounds of the task list until the next round would end late."""
    trace = bool(args.trace)
    got = Samples(len(tasks))
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        order = list(range(len(tasks)))
        random.Random(f"order/{args.seed}/{got.rounds}").shuffle(order)
        for i in order:
            modes = [False, True] if trace else [False]
            if got.rounds % 2:
                modes.reverse()
            if got.per_task[i]["solve_s"] and got.median(i, "solve_s") < SMALL_TASK_S:
                modes *= SMALL_TASK_REPEATS
            for traced in modes:
                left = start + DEADLINE_S - time.perf_counter()
                if left <= 0:
                    return got
                res = execute(tasks[i], dirs[i], traced, env, left)
                got.attempted += 1
                if res["ok"]:
                    got.add(i, res, traced)
                else:
                    got.failed += 1
                    print(f"FAILED {tasks[i].name}: {res['why']}", file=sys.stderr)
        got.rounds += 1
        now = time.perf_counter()
        nxt = now - start + (now - t_round)     # if the next round is as long
        if nxt > HARD_LIMIT_S or (got.rounds >= MIN_ROUNDS[trace] and nxt > args.seconds):
            return got


def report(args, tasks: list[C.Task], got: Samples) -> None:
    n = len(tasks)
    for i, task in enumerate(tasks):
        print(f"{task.name:48s} setup {got.median(i, 'setup_s'):8.4f} s  "
              f"solve {got.median(i, 'solve_s'):8.4f} s", file=sys.stderr)
    extra = {"calibration_s": statistics.mean(got.calibrations) if got.calibrations else None}
    if args.trace:
        total = aggregate_layers([runs for runs in got.layers if runs])
        solve, traced = got.total("solve_s"), got.total("traced_solve_s")
        total["trace.overhead_ratio"] = traced / solve if solve else 0.0
        metrics = {name: {"value": total.get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        # where the traced solve time went, layer by layer (unscaled, like the
        # per-layer self times)
        traced_raw = got.total("traced_raw_solve_s")
        extra |= {"untraced_solve_s": solve, "traced_solve_s": traced,
                  "solve_share": {key[len(SOLVE_PREFIX):]: round(value / traced_raw, 4)
                                  for key, value in sorted(total.items())
                                  if key.startswith(SOLVE_PREFIX) and traced_raw}}
    else:
        def times(prefix):
            per_task = [got.median(i, prefix + "solve_s") for i in range(n)]
            return {"setup_s": got.total(prefix + "setup_s"), "solve_s": sum(per_task),
                    "task_p50_s": statistics.median(per_task)}

        extra |= {"unscaled": times("raw_")}
        metrics = times("")
        metrics["peak_rss_mb"] = max(max(v["rss_kb"], default=0) for v in got.per_task) / 1024
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"context": context(args, n, got.rounds, got.failed, got.attempted,
                                         extra)}))
    print(json.dumps({"correct": got.failed == 0, "attempted": got.attempted,
                      "failed": got.failed, "metrics": metrics}))


def run(args) -> int:
    tasks = C.build(args.workload, args.seed, C.load_refs())
    compileall.compile_dir(str(SRC), quiet=1)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    work_root = C.HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        dirs = []
        for i, task in enumerate(tasks):
            d = work / f"t{i}"
            d.mkdir()
            for name, text in task.files.items():
                (d / name).write_text(text)
            dirs.append(d)
        got = measure(tasks, dirs, args, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:     # another run is using it
            pass
    report(args, tasks, got)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=C.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running
    # child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "__init__.py").is_file():
        print(f"no stmod sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
