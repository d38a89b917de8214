"""Reports of ``resolve`` and ``ergodic`` on the fixtures, compared with
the committed reports in ``tests/golden`` (``timing_ms`` dropped).

Labels, ranks, supports, verdicts and keys must match exactly; floats may
move by 1e-12.  A change that only makes the code faster must pass this
unchanged.
"""

import json
import pathlib

import pytest

from qds.cli import main

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
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


def test_every_fixture_has_both_reports():
    stems = sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert CASES == sorted([s, c] for s in stems for c in ("ergodic", "resolve"))


@pytest.mark.parametrize("stem,command", CASES)
def test_report_matches_golden(capsys, stem, command):
    code = main([command, str(FIXTURES / f"{stem}.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    del report["timing_ms"]
    want = json.loads((GOLDEN / f"{stem}.{command}.json").read_text())
    assert differences(report, want) == []


def test_comparison_catches_changes():
    want = {"label": "positive_recurrent", "rank": 2, "y": [[1.0, 0.0]]}
    assert differences(json.loads(json.dumps(want)), want) == []
    assert differences({**want, "y": [[1.0 + 1e-13, 0.0]]}, want) == []
    assert differences({**want, "y": [[1.0 + 1e-11, 0.0]]}, want)
    assert differences({**want, "rank": 1}, want)
    assert differences({**want, "label": "transient"}, want)
    assert differences({**want, "y": [[1.0]]}, want)
    assert differences({k: v for k, v in want.items() if k != "rank"}, want)
