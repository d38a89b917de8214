"""Runs one qds CLI call per forked child and summarises the results.

Each op runs in a child forked from a parent that has already imported
``qds`` and called nothing in it, so every op starts from the in-process
state a fresh ``qds`` process has (``spectral._SPLIT_CACHE`` is
module-global and would otherwise serve later ops from earlier ones)
without paying the import again.  The parent runs numpy with one BLAS
thread and starts no threads, which keeps ``fork`` safe.  The op's wall
time is read inside the child around ``qds.cli.main``, and its peak
resident set is counted from the resident set it inherits at the fork.
"""

import gc
import json
import math
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

OP_TIMEOUT_S = 150.0


@dataclass
class OpResult:
    op: object
    code: int           # exit code; -N when killed by signal N
    wall_s: float       # time inside qds.cli.main (inf if never measured)
    peak_rss_mb: float  # peak resident set above the one inherited at fork
    report: dict | None
    stderr: str
    trace: dict | None
    problems: list

    @property
    def ok(self):
        return self.code == 0 and not self.problems

    def reason(self):
        if self.code != 0:
            last = self.stderr.strip().splitlines()[-1:] or ["no message"]
            return f"exit {self.code}: {last[0]}"
        return "; ".join(self.problems)


def _child(op, paths, tracer):
    """Body of the forked child; never returns."""
    code = 1
    # the parent's pages the child holds at the fork are not the op's
    rss_base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        err = os.open(paths["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(err, 2)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        import qds.cli

        # installing the wrappers is part of the tracing overhead
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
            tracer.begin_op(paths["id"], op.dim)
        main = qds.cli.main
        try:
            code = main(op.argv + ["--output", paths["out"]])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        with open(paths["res"], "w") as fh:
            json.dump({"wall_s": wall, "rss_base_kb": rss_base_kb,
                       "trace": tracer.summary() if tracer is not None else None},
                      fh)
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        os._exit(code if isinstance(code, int) and 0 <= code < 256 else 1)


def run_op(op, workdir, op_id, tracer_factory=None):
    """Run ``op`` in a forked child and return its OpResult (oracle not
    yet applied: ``problems`` is empty)."""
    paths = {"id": op_id,
             "out": os.path.join(workdir, f"op{op_id}.out.json"),
             "err": os.path.join(workdir, f"op{op_id}.err"),
             "res": os.path.join(workdir, f"op{op_id}.res.json")}
    for key in ("out", "res"):
        if os.path.exists(paths[key]):
            os.remove(paths[key])
    tracer = tracer_factory() if tracer_factory is not None else None
    sys.stdout.flush()
    sys.stderr.flush()
    # the child's collector then never walks the parent's objects, as it
    # would not in a fresh process
    gc.collect()
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        _child(op, paths, tracer)
    try:
        # block on a process descriptor: no polling wakeups beside the op
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    wall = math.inf
    trace = None
    rss_base_kb = usage.ru_maxrss  # no result file: the op's own peak reads 0
    if os.path.exists(paths["res"]):
        with open(paths["res"]) as fh:
            res = json.load(fh)
        wall, trace, rss_base_kb = res["wall_s"], res["trace"], res["rss_base_kb"]
    report = None
    if code == 0 and os.path.exists(paths["out"]):
        with open(paths["out"]) as fh:
            report = json.load(fh)
    stderr = ""
    if os.path.exists(paths["err"]):
        with open(paths["err"]) as fh:
            stderr = fh.read()
    for key in ("out", "err", "res"):
        if os.path.exists(paths[key]):
            os.remove(paths[key])
    return OpResult(op=op, code=code, wall_s=wall,
                    peak_rss_mb=(usage.ru_maxrss - rss_base_kb) / 1024.0,
                    report=report, stderr=stderr, trace=trace, problems=[])


def best_of(rounds):
    """One OpResult per op from several rounds over the same ops.

    Another tenant's load only ever slows an op down, so each op keeps its
    fastest round and its smallest peak resident set; an op that fails or
    disagrees with the oracle in any round counts as failed.
    """
    out = []
    for runs in zip(*rounds):
        bad = next((r for r in runs if not r.ok), None)
        fastest = min(runs, key=lambda r: r.wall_s)
        pick = bad if bad is not None else fastest
        out.append(OpResult(op=pick.op, code=pick.code, wall_s=fastest.wall_s,
                            peak_rss_mb=min(r.peak_rss_mb for r in runs),
                            report=None, stderr=pick.stderr, trace=None,
                            problems=pick.problems))
    return out


def median_with_failures(results):
    """Median op wall time, a failed op counting as +inf.

    When failed ops make the median infinite, it reads as OP_TIMEOUT_S,
    the longest an op may run, so that the result stays a JSON number.
    """
    median = statistics.median(r.wall_s if r.ok else math.inf for r in results)
    return min(median, OP_TIMEOUT_S)


def end_to_end(results):
    """End-to-end metric values of a list of OpResults (setup_s aside).

    ``peak_rss_mb`` is the largest of the ops' own peak resident sets.
    """
    ok = sum(r.ok for r in results)
    total = sum(r.wall_s for r in results if math.isfinite(r.wall_s))
    return {
        "ops_per_s": ok / total if total > 0 else 0.0,
        "op_p50_s": median_with_failures(results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
    }
