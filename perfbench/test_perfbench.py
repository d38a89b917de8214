"""Tests of the benchmark's own code: the metric rules, the construction
oracle on the committed fixtures, and the tracing wrappers."""

import json
import math
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import qds  # noqa: E402
import qds.cli  # noqa: E402  (traced too: loaded before any snapshot)
import qds.rand  # noqa: E402
import qds.serialize  # noqa: E402
import oracle  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from runner import OpResult  # noqa: E402


def _result(wall, code=0, problems=(), rss=50.0):
    return OpResult(op=None, code=code, wall_s=wall, peak_rss_mb=rss,
                    report=None, stderr="numerical error: boom\n", trace=None,
                    problems=list(problems))


class TestMetricRules:
    def test_median_of_successes(self):
        assert runner.median_with_failures([_result(3.0), _result(1.0),
                                            _result(2.0)]) == 2.0

    def test_failed_op_counts_as_infinite(self):
        rs = [_result(1.0), _result(2.0), _result(0.1, code=2)]
        assert runner.median_with_failures(rs) == 2.0
        rs = [_result(1.0), _result(2.0), _result(3.0), _result(0.1, code=2)]
        assert runner.median_with_failures(rs) == 2.5

    def test_infinite_median_reads_as_op_timeout(self):
        rs = [_result(1.0), _result(0.1, code=2)]
        assert runner.median_with_failures(rs) == runner.OP_TIMEOUT_S
        rs = [_result(1.0), _result(math.inf, code=-9), _result(0.2, code=1)]
        m = runner.end_to_end(rs)
        assert m["op_p50_s"] == runner.OP_TIMEOUT_S
        json.dumps(m, allow_nan=False)  # the result line stays valid JSON

    def test_oracle_disagreement_counts_as_failed(self):
        rs = [_result(1.0), _result(0.5, problems=["wrong verdict"])]
        m = runner.end_to_end(rs)
        assert not rs[1].ok
        assert m["ops_per_s"] == pytest.approx(1 / 1.5)
        assert m["op_p50_s"] == runner.OP_TIMEOUT_S

    def test_best_of_keeps_fastest_round_and_any_failure(self):
        first = [_result(2.0), _result(1.0), _result(1.0)]
        second = [_result(1.5), _result(1.2, code=2), _result(0.9)]
        best = runner.best_of([first, second])
        assert [r.wall_s for r in best] == [1.5, 1.0, 0.9]
        assert [r.ok for r in best] == [True, False, True]
        assert "exit 2" in best[1].reason()

    def test_peak_rss_is_largest_op_of_its_smallest_round(self):
        first = [_result(1.0, rss=30.0), _result(1.0, rss=5.0)]
        second = [_result(1.0, rss=20.0), _result(1.0, rss=6.0)]
        best = runner.best_of([first, second])
        assert [r.peak_rss_mb for r in best] == [20.0, 5.0]
        assert runner.end_to_end(best)["peak_rss_mb"] == 20.0


@pytest.fixture(scope="module")
def fixture_results(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("ops"))
    ops = [op for op in workloads.make_ops("small-mix", 0, workdir, str(ROOT))
           if op.label.startswith("fixture")]
    return [runner.run_op(op, workdir, i) for i, op in enumerate(ops)]


class TestOracleOnFixtures:
    def test_every_fixture_is_covered(self, fixture_results):
        seen = {(r.op.label.split()[1], r.op.command) for r in fixture_results}
        for name in workloads.FIXTURES:
            for cmd in ("check", "classify", "resolve", "evolve", "ergodic"):
                assert (name, cmd) in seen
        assert sum(r.op.command == "picard" for r in fixture_results) == 2

    def test_reports_match_construction(self, fixture_results):
        for r in fixture_results:
            assert r.code == 0, r.stderr
            assert oracle.problems(r.op, r.report) == [], r.op.label

    def test_peak_rss_leaves_out_the_inherited_pages(self, fixture_results):
        parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for r in fixture_results:
            assert 0 < r.peak_rss_mb < parent_mb

    def test_wrong_verdicts_are_caught(self, fixture_results):
        by = {(r.op.label, r.op.command): r for r in fixture_results}
        r = by[("fixture dephasing", "ergodic")]
        bad = json.loads(json.dumps(r.report))
        bad["payload"]["strong_ergodicity"]["holds"] = True
        assert oracle.problems(r.op, bad)
        r = by[("fixture absorbing_chain_3", "resolve")]
        bad = json.loads(json.dumps(r.report))
        bad["payload"]["remainder"]["rank"] = 0
        assert oracle.problems(r.op, bad)
        r = by[("fixture amplitude_damping", "classify")]
        bad = json.loads(json.dumps(r.report))
        bad["payload"]["classification"]["label"] = "not_subharmonic"
        assert oracle.problems(r.op, bad)
        r = next(r for (label, cmd), r in by.items() if cmd == "evolve")
        bad = json.loads(json.dumps(r.report))
        bad["payload"]["result"][0][0][0] += 1e-3
        assert oracle.problems(r.op, bad)
        r = next(r for (label, cmd), r in by.items() if cmd == "picard")
        bad = json.loads(json.dumps(r.report))
        bad["residuals"]["exp_mismatch"] = 1e-2
        assert oracle.problems(r.op, bad)

    def test_loop_oracle_matches_known_channel(self):
        # amplitude damping with gamma = 1/2 moves half the excited
        # population to the ground state per step
        model = qds.serialize.load_model(str(ROOT / "fixtures" / "amplitude_damping.json"))
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = oracle.evolve(model, rho, "schrodinger", n=2)
        assert np.allclose(out, np.diag([0.75, 0.25]))


def _snapshot():
    """Every function-valued attribute of the namespaces tracing touches."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "qds" or name.startswith("qds."))]
    modules += list(tracing._KERNEL_MODULES.values())
    return {(id(m), attr): value for m in modules
            for attr, value in vars(m).items() if callable(value)}


class TestTracing:
    def test_counts_known_calls_and_restores(self):
        before = _snapshot()
        model = qds.kraus_model([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
        tracer = tracing.Tracer().install()
        try:
            tracer.begin_op(7, 2)
            qds.spectral.heisenberg_superoperator(model)
            qds.resolution.heisenberg_superoperator(model)
            qds.models.predual_superoperator(model)
            np.kron(np.eye(2), np.eye(3))
            np.linalg.eig(np.eye(4))
            np.linalg.eig(np.eye(3))
            qds.spectral.spectral_norm(np.eye(4))
        finally:
            tracer.restore()
        np.kron(np.eye(2), np.eye(2))  # after restore: not recorded
        s = tracer.summary()
        assert s["op_id"] == 7
        assert tracing.counts(s) == {
            "models.heisenberg_superoperator": (2, 0),
            "models.predual_superoperator": (1, 0),
            # two Kraus operators per superoperator build, plus one direct
            "kernel.kron": (7, 0),
            "kernel.eig": (2, 1),
            # unitality validation inside each build, plus one direct
            "kernel.spectral_norm": (4, 1),
        }
        assert s["superop_builds"] == 3
        assert s["superop_distinct"] == 2
        for row in s["layers"].values():
            assert row["self_s"] >= 0.0
        kron_parents = {tracer.spans[p][0] for name, p, *_ in tracer.spans
                        if name == "kernel.kron" and p >= 0}
        assert kron_parents == {"models.heisenberg_superoperator",
                                "models.predual_superoperator"}
        assert _snapshot() == before

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer().install()
        try:
            tracer.begin_op(0, 4)
            qds.models.heisenberg_superoperator(
                qds.kraus_model([np.eye(4)]))
        finally:
            tracer.restore()
        (name, parent, start, end, child_s, _), *children = tracer.spans
        assert name == "models.heisenberg_superoperator" and parent == -1
        assert child_s == pytest.approx(sum(c[3] - c[2] for c in children
                                            if c[1] == 0))
        assert tracer.summary()["layers"][name]["self_s"] == pytest.approx(
            end - start - child_s)

    def test_isolation_guard_detects_shared_state(self, tmp_path):
        rng = np.random.default_rng(5)
        model = qds.rand.random_block_diagonal_kraus(rng, [2, 2])
        # one forked child per op starts fresh every time (fork first: the
        # children inherit whatever this process has cached)
        path = str(tmp_path / "model.json")
        qds.serialize.dump_model(model, path)
        op = workloads.Op(label="guard", command="resolve",
                          argv=["resolve", path], dim=model.dim, model=model)
        a = runner.run_op(op, str(tmp_path), 0, tracing.Tracer)
        b = runner.run_op(op, str(tmp_path), 1, tracing.Tracer)
        assert a.code == b.code == 0
        assert tracing.counts(a.trace) == tracing.counts(b.trace)
        assert tracing.counts(a.trace)["kernel.eig"][1] == 1
        # in one process the second resolve is served by the spectral cache
        runs = []
        for _ in range(2):
            tracer = tracing.Tracer().install()
            try:
                tracer.begin_op(0, model.dim)
                qds.resolve(model)
            finally:
                tracer.restore()
            runs.append(tracing.counts(tracer.summary()))
        assert runs[0] != runs[1]
        assert runs[1]["kernel.eig"][1] == 0


def test_benchmark_json_metrics_have_sources():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    total = tracing.merge([])
    values = tracing.layer_metrics(names, total, 1, 0.0)
    assert sorted(values) == sorted(names)
    e2e = set(runner.end_to_end([_result(1.0)])) | {"setup_s"}
    assert {m["name"] for m in bench["end_to_end"]} == e2e
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
