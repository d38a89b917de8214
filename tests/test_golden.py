"""Reports of ``resolve`` and ``ergodic`` on the fixtures and on three
seeded models (``tests/golden/models``: a chain with transient states, a
Lindblad model with an invariant subspace and a block Kraus channel),
compared with the committed reports in ``tests/golden`` (``timing_ms``
dropped).

Labels, ranks, supports, verdicts and keys must match exactly; floats may
move by 1e-12.  A change that only makes the code faster must pass this
unchanged.
"""

import json
import pathlib

import numpy as np
import pytest

from qds.cli import main
from qds.models import stochastic_model
from qds.serialize import dump_model

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MODELS = {p.stem: p for d in (FIXTURES, GOLDEN / "models")
          for p in d.glob("*.json")}
FLOAT_TOL = 1e-12
CASES = sorted(p.name.split(".")[:2] for p in GOLDEN.glob("*.json"))


def differences(got, want, path="$"):
    """Where ``got`` departs from ``want``: exact on everything but
    floats, which may differ by FLOAT_TOL."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= FLOAT_TOL else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _report(capsys, command, path):
    code = main([command, str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    del report["timing_ms"]
    return report


def test_every_fixture_has_both_reports():
    assert len(MODELS) == 8
    assert CASES == sorted([s, c] for s in MODELS for c in ("ergodic", "resolve"))


@pytest.mark.parametrize("stem,command", CASES)
def test_report_matches_golden(capsys, stem, command):
    report = _report(capsys, command, MODELS[stem])
    want = json.loads((GOLDEN / f"{stem}.{command}.json").read_text())
    assert differences(report, want) == []


def test_slow_chain_state_is_exact(capsys, tmp_path):
    # gap 1e-6: the computed state is ill-conditioned, so it is gated
    # against the exact invariant state I/3 instead of an earlier report
    eps = 1e-6
    path = tmp_path / "slow_chain.json"
    dump_model(stochastic_model([[1 - eps, eps, 0.0],
                                 [eps, 1 - 2 * eps, eps],
                                 [0.0, eps, 1 - eps]]), path)
    exact = np.eye(3) / 3

    def close(m):
        m = np.asarray(m)
        return np.linalg.norm(m[..., 0] + 1j * m[..., 1] - exact, 2) <= 1e-10

    resolved = _report(capsys, "resolve", path)["payload"]["recurrent"]
    assert [p["rank"] for p in resolved] == [3]
    assert close(resolved[0]["classification"]["certificate"]["invariant_state"])
    ergodic = _report(capsys, "ergodic", path)["payload"]
    assert ergodic["fixed_space_dimension"] == 1
    assert [close(s) for s in ergodic["invariant_states"]] == [True]
    assert close(ergodic["strong_ergodicity"]["phi0"])


def test_comparison_catches_changes():
    want = {"label": "positive_recurrent", "rank": 2, "y": [[1.0, 0.0]]}
    assert differences(json.loads(json.dumps(want)), want) == []
    assert differences({**want, "y": [[1.0 + 1e-13, 0.0]]}, want) == []
    assert differences({**want, "y": [[1.0 + 1e-11, 0.0]]}, want)
    assert differences({**want, "rank": 1}, want)
    assert differences({**want, "label": "transient"}, want)
    assert differences({**want, "y": [[1.0]]}, want)
    assert differences({k: v for k, v in want.items() if k != "rank"}, want)
