"""Run one task the way a user runs it: one ``stmod.cli.main(argv)`` call in a
fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds the argv, the algebra presets to build during set-up, the input
files to read, and whether to trace.  Set-up runs from the first statement
after an opening calibration until ``stmod`` is imported, the presets are
built through the public ``steenrod.A``/``steenrod.E`` and the input files are
read; solve is the time inside ``cli.main``.  The program's stdout and stderr
are captured and written to RESULT with the timings, the peak resident set
size, and the time of a fixed calibration loop run before set-up, between
set-up and solve, and after solve.
"""

import gc
from time import perf_counter


def calibrate() -> float:
    """Mean time of a fixed piece of plain-Python work like the program's:
    GF(2) elimination on packed rows, plus tuple-keyed dict and frozenset
    churn.

    The speed of a shared machine drifts by 10-20 % within seconds; this
    loop slows down with it, so the runner scales set-up and solve times by
    the calibrations taken around them.  The garbage collector is off while it
    runs, so the size of the program's heap does not slow it.
    """
    rows, x = [], 88172645463325252
    for _ in range(128):        # xorshift rows: a random 128 x 128 matrix
        row = 0
        for _ in range(2):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
            row = (row << 64) | x
        rows.append(row)
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            work, rank, table = list(rows), 0, {}
            for j in range(128):
                sel = next((i for i in range(rank, 128) if (work[i] >> j) & 1), -1)
                if sel < 0:
                    continue
                work[rank], work[sel] = work[sel], work[rank]
                for i in range(128):
                    if i != rank and (work[i] >> j) & 1:
                        work[i] ^= work[rank]
                        key = (i & 7, j & 15, rank & 3)
                        table[key] = table.get(key, frozenset()) ^ frozenset((i, j))
                rank += 1
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return sum(times) / len(times)


CAL_START = calibrate()
T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import stmod
    from stmod import steenrod
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for token in spec["algebras"]:
        kind, n = re.fullmatch(r"([AE])\((\d+)\)", token).groups()
        (steenrod.A if kind == "A" else steenrod.E)(int(n))
    for path in spec["files"]:
        with open(path) as fh:
            fh.read()
    t1 = perf_counter()
    cal_before = calibrate()
    if tracer:
        tracer.start_solve()
    t_solve = perf_counter()
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = stmod.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code, error = None, traceback.format_exc()
    t2 = perf_counter()
    result = {
        "setup_s": t1 - T0, "solve_s": t2 - t_solve, "code": code, "error": error,
        "setup_calibration_s": (CAL_START + cal_before) / 2,
        "solve_calibration_s": (cal_before + calibrate()) / 2,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.export() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
