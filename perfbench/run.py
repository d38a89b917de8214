"""Benchmark of the qds command-line interface.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout of qds (``src/qds`` and
``fixtures/`` beside this directory).  The load is a closed loop: one
client, one CLI call ("op") at a time.  Inputs are drawn from ``--seed``
and written as JSON files before timing; each op runs ``qds.cli.main`` in
a freshly forked child and its report is checked against the input's
construction.  Ops run in rounds over the workload's inputs until another
round would overrun ``--seconds``; each op keeps its fastest round.  The
set-up time is sampled between rounds, so it sees the same machine load
as the ops.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs each op plain and then with every qds layer
wrapped, and prints the per-layer metrics.  The last stdout line is the
JSON result; the lines before it give provenance and every failed op.
"""

import os

# One BLAS thread for the parent and every child (set before numpy loads).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_qds():
    """Put this checkout's ``src`` first on the path.  The benchmark's own
    modules import qds, so the functions below import them after this."""
    if not (SRC / "qds" / "cli.py").is_file():
        _fail(f"no qds sources under {SRC}; run from a qds source checkout")
    if not (ROOT / "fixtures").is_dir():
        _fail(f"no fixtures directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    import qds.cli

    if Path(qds.__file__).resolve().parent != SRC / "qds":
        _fail(f"imported qds from {qds.__file__}, not from {SRC}")


def time_setup():
    """Wall time of a fresh interpreter importing qds.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qds.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def _blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return f"{info.get('name')} {info.get('version')}", threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, results, rounds):
    import numpy
    import scipy

    blas, threads = _blas()
    return {
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": threads, "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops": len(results),
    }


def _check(results):
    import oracle

    for r in results:
        if r.code == 0:
            r.problems = oracle.problems(r.op, r.report)
        r.report = None
    return results


def timed_run(workload, seed, seconds, workdir):
    """Rounds over the workload's ops until another round would overrun
    ``seconds``; each op keeps its fastest round (see runner.best_of).

    After each of the first SETUP_REPEATS rounds a fresh interpreter
    imports qds.cli, and so on after the last round until there are
    SETUP_REPEATS samples; returns (results, rounds, median set-up time).
    """
    from runner import best_of, run_op
    from workloads import make_ops

    ops = make_ops(workload, seed, workdir, str(ROOT))
    time_setup()  # warms the bytecode cache
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        rounds.append(_check([run_op(op, workdir, i) for i, op in enumerate(ops)]))
        if len(setups) < SETUP_REPEATS:
            setups.append(time_setup())
        n = len(rounds)
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    return best_of(rounds), n, statistics.median(setups)


def traced_run(workload, seed, workdir):
    """Each op plain and then traced, then the isolation guard.

    The guard repeats the first ``resolve`` op, traced, after every
    other op (the ``ergodic`` op on the same model included) and requires
    identical per-layer counts: each op must start from fresh state.
    """
    from runner import run_op
    from tracing import Tracer, counts
    from workloads import make_ops

    ops = make_ops(workload, seed, workdir, str(ROOT))
    plain, traced = [], []
    for i, op in enumerate(ops):
        # back to back, so both runs of an op see the same machine load
        plain += _check([run_op(op, workdir, i)])
        traced += _check([run_op(op, workdir, i, Tracer)])
    first = next(i for i, op in enumerate(ops) if op.command == "resolve")
    guard = run_op(ops[first], workdir, len(ops), Tracer)
    guard_problems = []
    if traced[first].trace is None or guard.trace is None:
        guard_problems.append("isolation guard: an op left no trace")
    elif counts(traced[first].trace) != counts(guard.trace):
        guard_problems.append(
            f"isolation guard: counts of {ops[first].label} resolve differ "
            "when it runs after the other ops")
    return plain, traced, guard_problems


def _report_failures(results):
    for i, r in enumerate(results):
        if not r.ok:
            print(f"failed op {i}: {r.op.command} [{r.op.label}] {r.reason()}")


def _layer_table(total):
    rows = sorted(total["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    whole = sum(row["self_s"] for _, row in rows) or 1.0
    for name, row in rows:
        print(f"layer {name:48s} calls {row['calls']:8d} n2 {row['n2_calls']:6d} "
              f"self {row['self_s']:9.4f} s {100 * row['self_s'] / whole:5.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _import_qds()
    import runner
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            plain, results, extra = traced_run(args.workload, args.seed, str(workdir))
            total = tracing.merge(r.trace for r in results if r.trace)
            plain_s = sum(r.wall_s for r in plain if math.isfinite(r.wall_s))
            traced_s = sum(r.wall_s for r in results if math.isfinite(r.wall_s))
            values = tracing.layer_metrics(
                [m["name"] for m in bench["per_layer"]], total, len(results),
                traced_s / plain_s - 1.0)
            declared = bench["per_layer"]
            rounds = 1
            checked = plain + results
        else:
            results, rounds, setup_s = timed_run(args.workload, args.seed,
                                                 args.seconds, str(workdir))
            values = runner.end_to_end(results)
            values["setup_s"] = setup_s
            declared = bench["end_to_end"]
            extra = []
            checked = results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"provenance": provenance(args, results, rounds)}))
    _report_failures(results)
    for problem in extra:
        print(problem)
    if args.trace:
        _layer_table(total)
    wrong = [r for r in checked if r.code == 0 and r.problems]
    result = {
        "correct": not wrong and not extra,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
