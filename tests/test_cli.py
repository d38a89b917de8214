import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qds.classical
import qds.cli
import qds.projections
import qds.resolution
from qds.cli import main
from qds.serialize import (
    decode_matrix, decode_real_matrix, encode_matrix, load_model,
    model_from_json, model_to_json,
)
from qds.errors import StructuralError

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(json.dumps(encode_matrix(np.asarray(m, dtype=complex))))
    return path


class TestRoundTrip:
    def test_matrix_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = decode_matrix(encode_matrix(m))
        assert np.array_equal(m, back)

    def test_fixture_models_roundtrip(self):
        for name in ("identity_channel_d2", "amplitude_damping",
                     "amplitude_damping_lindblad", "dephasing",
                     "absorbing_chain_3"):
            model = load_model(FIXTURES / f"{name}.json")
            back = model_from_json(model_to_json(model))
            assert back.kind == model.kind and back.dim == model.dim
            for a, b in zip(model.generator_family(), back.generator_family()):
                assert a[0] == b[0]
                assert np.array_equal(a[1], b[1])

    def test_parse_error_names_path(self):
        with pytest.raises(StructuralError, match=r"\$\.kraus\[0\]\[1\]\[0\]"):
            model_from_json({"dim": 2, "kind": "kraus",
                             "kraus": [[[[1, 0], [0, 0]],
                                        ["bad", [0, 0]]]]})

    def test_unknown_kind_named(self):
        with pytest.raises(StructuralError, match=r"\$\.kind"):
            model_from_json({"dim": 2, "kind": "unitary"})

    def test_json_booleans_are_not_matrix_entries(self):
        with pytest.raises(StructuralError, match=r"\$\[0\]\[0\]: expected"):
            decode_matrix([[[True, False]]])
        with pytest.raises(StructuralError, match=r"\$\[1\]\[0\]: expected"):
            decode_matrix([[[1.0, 0.0]], [[0, False]]])
        with pytest.raises(StructuralError, match=r"\$\[0\]\[1\]: expected"):
            decode_real_matrix([[1.0, True]])
        with pytest.raises(StructuralError, match=r"\$\.dim"):
            model_from_json({"dim": True, "kind": "stochastic",
                             "stochastic": [[1.0]]})


class TestCommands:
    def test_check_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check",
                               FIXTURES / "amplitude_damping.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["ok"] is True
        assert doc["command"] == "check"

    def test_check_strict_fails_invalid(self, capsys, tmp_path):
        bad = {"dim": 2, "kind": "stochastic",
               "stochastic": [[0.5, 0.4], [0.0, 1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(capsys, "check", path, "--strict")
        assert code == 1
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 0

    def test_resolve_absorbing_chain(self, capsys):
        code, out, _ = run_cli(capsys, "resolve",
                               FIXTURES / "absorbing_chain_3.json",
                               "--seed", 1)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["payload"]["recurrent"]) == 2
        assert doc["payload"]["classical_comparison"]["agree"] is True

    def test_classify(self, capsys, tmp_path):
        proj = write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]))
        code, out, _ = run_cli(capsys, "classify",
                               FIXTURES / "amplitude_damping.json", proj)
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["subharmonic"]["verdict"] is True
        assert doc["payload"]["classification"]["label"] == "positive_recurrent"
        assert doc["payload"]["complement"]["transient"] is True

    def test_classify_tests_subharmonicity_twice(self, capsys, tmp_path,
                                                 monkeypatch):
        # once in classify_projection, whose verdict the report reads, and
        # once inside the limit operator of the complement's certificate
        calls = []
        real = qds.projections.is_subharmonic

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (qds.projections, qds.resolution, qds.cli):
            if getattr(module, "is_subharmonic", None) is real:
                monkeypatch.setattr(module, "is_subharmonic", counting)
        proj = write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]))
        code, _, _ = run_cli(capsys, "classify",
                             FIXTURES / "amplitude_damping.json", proj)
        assert code == 0
        assert len(calls) == 2

    def test_classify_strict_verdict(self, capsys, tmp_path):
        proj = write_matrix(tmp_path, "p.json", np.diag([0.0, 1.0]))
        code, _, _ = run_cli(capsys, "classify",
                             FIXTURES / "amplitude_damping.json", proj,
                             "--strict")
        assert code == 1

    def test_evolve_negative_time_is_structural(self, capsys, tmp_path):
        proj = write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]))
        code, _, err = run_cli(capsys, "evolve", FIXTURES / "dephasing.json",
                               proj, "--t", -1)
        assert code == 2
        assert "negative time" in err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_structural(self, capsys, tmp_path, t):
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        for argv in (("evolve", FIXTURES / "dephasing.json", x),
                     ("evolve", FIXTURES / "amplitude_damping.json", x,
                      "--n", 1),
                     ("picard", FIXTURES / "amplitude_damping_lindblad.json",
                      x, "--steps", 16)):
            code, out, err = run_cli(capsys, *argv, "--t", t)
            assert code == 2, argv
            assert out == ""
            assert "time must be finite" in err

    @pytest.mark.parametrize("fixture, refused", [
        ("amplitude_damping.json", "discrete-time model: pass n, not t"),
        ("amplitude_damping_lindblad.json",
         "continuous-time model: pass t, not n")])
    def test_evolve_refuses_the_other_kinds_time(self, capsys, tmp_path,
                                                 fixture, refused):
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        code, out, err = run_cli(capsys, "evolve", FIXTURES / fixture, x,
                                 "--t", 0.5, "--n", 3)
        assert (code, out, err) == (2, "", f"error: {refused}\n")

    @pytest.mark.parametrize("max_n", [0, -2])
    def test_picard_refuses_fewer_than_one_level(self, capsys, tmp_path,
                                                 max_n):
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        code, out, err = run_cli(
            capsys, "picard", FIXTURES / "amplitude_damping_lindblad.json", x,
            "--t", 1, "--steps", 16, "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err == "error: max_n must be an integer >= 1\n"

    def test_negative_infinite_time_is_negative(self, capsys, tmp_path):
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        code, _, err = run_cli(
            capsys, "picard", FIXTURES / "amplitude_damping_lindblad.json", x,
            "--t=-inf")
        assert code == 2
        assert "negative time" in err

    @pytest.mark.parametrize("flags", [("--seed", -3), ("--tol", "inf"),
                                       ("--conv-tol", "inf"),
                                       ("--rank-tol", "inf")])
    def test_bad_seed_or_tolerance_is_structural(self, capsys, flags):
        for command in ("resolve", "check"):
            code, out, err = run_cli(capsys, command,
                                     FIXTURES / "amplitude_damping.json",
                                     *flags)
            assert code == 2, (command, flags)
            assert out == ""
            assert err.startswith("error: ")

    @pytest.mark.parametrize("value", ["-4", "seven"])
    def test_bad_seed_variable_is_structural(self, capsys, monkeypatch,
                                              value):
        monkeypatch.setenv("QDS_SEED", value)
        code, out, err = run_cli(capsys, "resolve",
                                 FIXTURES / "identity_channel_d2.json")
        assert code == 2
        assert out == ""
        assert "QDS_SEED" in err and repr(value) in err

    def test_bad_seed_is_refused_before_the_work(self, capsys, monkeypatch,
                                                  tmp_path):
        calls = []
        real = qds.cli.picard_limit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(qds.cli, "picard_limit", counting)
        monkeypatch.setenv("QDS_SEED", "seven")
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        code, out, err = run_cli(
            capsys, "picard", FIXTURES / "amplitude_damping_lindblad.json", x,
            "--t", 0.5, "--steps", 16)
        assert code == 2
        assert out == ""
        assert "QDS_SEED" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["check", "classify", "resolve",
                                         "evolve", "picard", "ergodic"])
    def test_strict_exits_1_exactly_on_a_false_verdict(self, capsys, tmp_path,
                                                       command):
        verdicts = {"check": lambda p: p["ok"],
                    "classify": lambda p: p["subharmonic"]["verdict"],
                    "ergodic": lambda p: p["strong_ergodicity"]["holds"]}
        codes = {}
        for path in sorted(FIXTURES.glob("*.json")):
            model = load_model(path)
            d = model.dim
            # the top state: not sub-harmonic for amplitude damping
            x = write_matrix(tmp_path, f"x{d}.json",
                             np.diag([0.0] * (d - 1) + [1.0]))
            time = (["--t", 0.5] if model.kind == "lindblad"
                    else ["--n", 3])
            operands = {"classify": [x], "evolve": [x, *time],
                        "picard": [x, "--t", 0.5, "--steps", 16]}
            argv = [command, path, *operands.get(command, [])]
            code, out, _ = run_cli(capsys, *argv)
            strict, _, _ = run_cli(capsys, *argv, "--strict")
            if code == 0:
                payload = json.loads(out)["payload"]
                verdict = verdicts.get(command, lambda p: True)(payload)
                assert strict == (0 if verdict else 1), path.stem
            else:
                assert (code, strict) == (2, 2), path.stem
            codes[path.stem] = strict
        if command == "ergodic":
            assert codes["identity_channel_d2"] == 1
        if command in ("resolve", "evolve", "picard"):
            assert 1 not in codes.values()

    def test_resolve_runs_the_chain_oracle_once(self, capsys, monkeypatch):
        calls = []
        real = qds.classical.classical_classify

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(qds.classical, "classical_classify", counting)
        # also where a command module holds the oracle under its own name
        monkeypatch.setattr(qds.cli, "classical_classify", counting,
                            raising=False)
        code, out, _ = run_cli(capsys, "resolve",
                               FIXTURES / "absorbing_chain_3.json")
        assert code == 0
        assert len(calls) == 1
        doc = json.loads(out)
        assert doc["payload"]["classical_comparison"]["agree"] is True
        assert doc["residuals"]["y_total_min_eig"] == pytest.approx(1.0)

    def test_evolve_heisenberg(self, capsys, tmp_path):
        proj = write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]))
        code, out, _ = run_cli(capsys, "evolve",
                               FIXTURES / "amplitude_damping.json", proj,
                               "--n", 2)
        assert code == 0
        doc = json.loads(out)
        m = decode_matrix(doc["payload"]["result"])
        assert np.allclose(m, np.diag([1.0, 0.75]))

    def test_evolve_schrodinger(self, capsys, tmp_path):
        rho = write_matrix(tmp_path, "rho.json", np.diag([0.0, 1.0]))
        code, out, _ = run_cli(capsys, "evolve",
                               FIXTURES / "amplitude_damping.json", rho,
                               "--n", 1, "--picture", "schrodinger")
        assert code == 0
        doc = json.loads(out)
        m = decode_matrix(doc["payload"]["result"])
        assert np.allclose(m, np.diag([0.5, 0.5]))

    def test_picard_command(self, capsys, tmp_path):
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        code, out, _ = run_cli(capsys, "picard",
                               FIXTURES / "amplitude_damping_lindblad.json",
                               x, "--t", 1, "--steps", 64)
        assert code == 0
        doc = json.loads(out)
        value = decode_matrix(doc["payload"]["value"])
        assert np.allclose(value, np.diag([1.0, 1.0 - np.exp(-1.0)]),
                           atol=1e-8)
        assert doc["payload"]["trace"]
        assert doc["residuals"]["exp_mismatch"] <= 1e-8

    def test_picard_on_an_odd_grid(self, capsys, tmp_path):
        # nine steps end the final node's quadrature on a 3/8 block
        x = write_matrix(tmp_path, "x.json",
                         [[0.5, 0.5 + 0.2j], [0.5 - 0.2j, 0.5]])
        code, out, _ = run_cli(capsys, "picard", FIXTURES / "dephasing.json",
                               x, "--t", 1, "--steps", 9)
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["steps"] == 9
        assert doc["residuals"]["exp_mismatch"] <= 1e-4
        assert doc["residuals"]["integral_residual"] <= 1e-9

    def test_resolve_failing_on_its_own_remainder_is_numerical(
            self, capsys, tmp_path, remainder_off_subharmonic):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(remainder_off_subharmonic)))
        code, out, err = run_cli(capsys, "resolve", path)
        assert (code, out) == (2, "")
        assert err.startswith(
            "numerical error: resolve: the remainder after 1 part(s) fails "
            "is_subharmonic (residual ")

    def test_ergodic_command(self, capsys):
        code, out, _ = run_cli(capsys, "ergodic",
                               FIXTURES / "amplitude_damping.json")
        assert code == 0
        doc = json.loads(out)
        se = doc["payload"]["strong_ergodicity"]
        assert se["holds"] is True
        phi0 = decode_matrix(se["phi0"])
        assert np.allclose(phi0, np.diag([1.0, 0.0]), atol=1e-8)
        eq = doc["payload"]["reduction_equivalence"][0]
        assert eq["consistent"] is True

    def test_missing_file_is_structural(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/model.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["classify"], ["evolve", "--t", 0.5],
        ["evolve", "--t", 0.5, "--picture", "schrodinger"],
        ["picard", "--t", 0.5, "--steps", 16],
        ["evolve", "--t", 0.5, "--n", 3]])
    def test_an_operand_of_the_wrong_size_is_structural(self, capsys,
                                                        tmp_path, argv):
        x = write_matrix(tmp_path, "x.json", np.eye(3))
        model = FIXTURES / "amplitude_damping_lindblad.json"
        code, out, err = run_cli(capsys, argv[0], model, x, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == (f"error: {x}: operand is 3x3, but the model acts on "
                       "2x2 matrices\n")

    @pytest.mark.parametrize("role", ["model", "operator"])
    @pytest.mark.parametrize("fault", ["missing", "malformed"])
    def test_unreadable_input_names_its_path(self, capsys, tmp_path, role,
                                             fault):
        bad = tmp_path / "bad.json"
        if fault == "malformed":
            bad.write_text('{"dim": 2, "kind": ')
        x = write_matrix(tmp_path, "x.json", np.diag([1.0, 0.0]))
        model = FIXTURES / "dephasing.json"
        argv = (["evolve", bad, x] if role == "model"
                else ["evolve", model, bad]) + ["--t", 0.5]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: ")
        if fault == "malformed":
            assert "invalid JSON" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "check",
                               FIXTURES / "amplitude_damping.json",
                               "--format", "text")
        assert code == 0
        assert "kraus_unitality" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "check",
                               FIXTURES / "amplitude_damping.json",
                               "--output", target)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["payload"]["ok"] is True


class TestDeterminism:
    def test_identical_runs_identical_reports(self, capsys):
        def run():
            _, out, _ = run_cli(capsys, "resolve",
                                FIXTURES / "identity_channel_d2.json",
                                "--seed", 1)
            doc = json.loads(out)
            doc.pop("timing_ms")
            return json.dumps(doc, sort_keys=True)

        assert run() == run()

    def test_seed_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("QDS_SEED", "17")
        code, out, _ = run_cli(capsys, "resolve",
                               FIXTURES / "identity_channel_d2.json")
        assert code == 0
        assert json.loads(out)["seed"] == 17

    def test_different_seeds_different_decompositions(self, capsys):
        outs = []
        for seed in (1, 2):
            _, out, _ = run_cli(capsys, "resolve",
                                FIXTURES / "identity_channel_d2.json",
                                "--seed", seed)
            doc = json.loads(out)
            doc.pop("timing_ms")
            doc.pop("seed")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] != outs[1]


SRC = FIXTURES.parent / "src"

# Blocks scipy, runs each argv of the JSON list in argv[1] through
# qds.cli.main, and prints [code, stdout, stderr] per run and the scipy
# modules loaded at the end.
_BLOCKED_DRIVER = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from qds.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"runs": runs, "scipy": loaded}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, *args], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _without_timing(text):
    if not text:
        return text
    doc = json.loads(text)
    doc.pop("timing_ms")
    return doc


class TestNumpyOnly:
    def test_fresh_import_loads_no_scipy(self):
        out = _python("-c", "import sys, qds.cli; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_every_command_runs_with_scipy_blocked(self, capsys, tmp_path):
        argvs = []
        for path in sorted(FIXTURES.glob("*.json")):
            model = load_model(path)
            d = model.dim
            x = write_matrix(tmp_path, f"x{d}.json",
                             np.diag([1.0] + [0.0] * (d - 1)))
            time = (["--t", "0.5"] if model.kind == "lindblad"
                    else ["--n", "3"])
            for argv in (["check", path], ["classify", path, x],
                         ["resolve", path], ["evolve", path, x, *time],
                         ["picard", path, x, "--t", "0.5", "--steps", "16"],
                         ["ergodic", path]):
                argvs.append([str(a) for a in argv])
        blocked = json.loads(_python("-c", _BLOCKED_DRIVER, json.dumps(argvs)))
        assert blocked["scipy"] == []
        codes = set()
        for argv, (code, out, err) in zip(argvs, blocked["runs"], strict=True):
            want = run_cli(capsys, *argv)
            assert code == want[0], argv
            assert _without_timing(out) == _without_timing(want[1]), argv
            assert err == want[2], argv
            codes.add(code)
        assert codes == {0, 2}  # picard refuses the discrete models
