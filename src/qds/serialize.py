"""Model and report file formats.

Models are JSON objects
``{"dim": d, "kind": "kraus"|"lindblad"|"stochastic", ...}`` where every
complex matrix is a list of rows of ``[re, im]`` pairs and stochastic
matrices are rows of plain reals.  Reports carry the model hash, command,
seed, tolerances, a command-specific payload, named residuals, and the
timing; serialization is canonical (sorted keys) so identical runs are
byte-identical apart from the timing field.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .models import (
    KIND_KRAUS, KIND_LINDBLAD, KIND_STOCHASTIC, QuantumModel, Tolerances,
)

__all__ = ["Report", "encode_matrix", "decode_matrix", "model_to_json",
           "model_from_json", "load_model", "dump_model", "load_matrix",
           "report_to_json", "report_to_text"]


def encode_matrix(m):
    """Complex matrix -> rows of [re, im] pairs (floats round-trip)."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def encode_real_matrix(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _fail(path, message):
    raise StructuralError(f"{path}: {message}")


def _is_number(x):
    """A JSON number: ``bool`` is an ``int`` subclass but not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decode_rows(obj, path, cell, cells, dtype):
    """Rows of JSON cells -> ndarray of ``dtype``, naming the bad path on
    malformed input.  ``cell`` decodes one cell, or returns None when it is
    malformed; ``cells`` names a well-formed cell (plural, singular)."""
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            _fail(f"{path}[{i}]", f"expected a list of {cells[0]}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{path}[{i}]", f"ragged row (expected {width} entries)")
        entries = []
        for j, raw in enumerate(row):
            value = cell(raw)
            if value is None:
                _fail(f"{path}[{i}][{j}]", f"expected {cells[1]}")
            entries.append(value)
        rows.append(entries)
    return np.array(rows, dtype=dtype)


def _complex_cell(cell):
    if (isinstance(cell, list) and len(cell) == 2
            and all(_is_number(x) for x in cell)):
        return complex(cell[0], cell[1])
    return None


def decode_matrix(obj, path="$"):
    """Rows of [re, im] pairs -> complex ndarray, naming the bad path on
    malformed input."""
    return _decode_rows(obj, path, _complex_cell,
                        ("[re, im] pairs", "an [re, im] pair"), complex)


def decode_real_matrix(obj, path="$"):
    return _decode_rows(obj, path,
                        lambda cell: float(cell) if _is_number(cell) else None,
                        ("numbers", "a number"), float)


def model_to_json(model):
    out = {"dim": model.dim, "kind": model.kind}
    if model.kind == KIND_KRAUS:
        out["kraus"] = [encode_matrix(k) for k in model.kraus_ops]
    elif model.kind == KIND_LINDBLAD:
        out["hamiltonian"] = encode_matrix(model.hamiltonian)
        out["lindblad"] = [encode_matrix(l) for l in model.lindblad_ops]
        out["drift"] = encode_matrix(model.drift)
    else:
        out["stochastic"] = encode_real_matrix(model.stochastic_matrix)
        if model.sub_markov:
            out["sub_markov"] = True
    return out


def model_from_json(obj, path="$"):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = obj.get("kind")
    if kind not in (KIND_KRAUS, KIND_LINDBLAD, KIND_STOCHASTIC):
        _fail(f"{path}.kind", f"unknown kind {kind!r}")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail(f"{path}.dim", "expected a positive integer")

    if kind == KIND_KRAUS:
        raw = obj.get("kraus")
        if not isinstance(raw, list) or not raw:
            _fail(f"{path}.kraus", "expected a non-empty list of matrices")
        ops = tuple(decode_matrix(m, f"{path}.kraus[{i}]")
                    for i, m in enumerate(raw))
        return QuantumModel(dim=dim, kind=kind, kraus_ops=ops)
    if kind == KIND_LINDBLAD:
        if "hamiltonian" not in obj:
            _fail(f"{path}.hamiltonian", "missing")
        h = decode_matrix(obj["hamiltonian"], f"{path}.hamiltonian")
        raw = obj.get("lindblad", [])
        if not isinstance(raw, list):
            _fail(f"{path}.lindblad", "expected a list of matrices")
        ls = tuple(decode_matrix(m, f"{path}.lindblad[{i}]")
                   for i, m in enumerate(raw))
        drift = None
        if "drift" in obj:
            drift = decode_matrix(obj["drift"], f"{path}.drift")
        return QuantumModel(dim=dim, kind=kind, hamiltonian=h,
                            lindblad_ops=ls, drift=drift)
    raw = obj.get("stochastic")
    if raw is None:
        _fail(f"{path}.stochastic", "missing")
    p = decode_real_matrix(raw, f"{path}.stochastic")
    return QuantumModel(dim=dim, kind=kind, stochastic_matrix=p,
                        sub_markov=bool(obj.get("sub_markov", False)))


def _read_json(path):
    """The decoded JSON document at ``path``; an unreadable file or
    malformed JSON raises :class:`StructuralError` naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise StructuralError(f"{path}: {exc}") from exc


def load_model(path):
    return model_from_json(_read_json(path))


def dump_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path, dim):
    """Load a bare matrix file (rows of [re, im] pairs, optionally wrapped
    in {"matrix": ...}), which must be dim x dim: the size of the model it
    acts on."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "matrix" in obj:
        m = decode_matrix(obj["matrix"], "$.matrix")
    else:
        m = decode_matrix(obj, "$")
    if m.shape != (dim, dim):
        raise StructuralError(
            f"{path}: operand is {m.shape[0]}x{m.shape[1]}, but the model "
            f"acts on {dim}x{dim} matrices")
    return m


@dataclass(frozen=True)
class Report:
    model_hash: str
    command: str
    seed: int
    tolerances: Tolerances
    payload: dict
    residuals: dict
    timing_ms: float


def _sanitize(value):
    """Make a payload JSON-ready: numpy -> lists of [re, im] pairs,
    non-finite floats -> None, sets -> sorted lists."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_sanitize(v) for v in value)
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def report_to_json(report):
    doc = {
        "model_hash": report.model_hash,
        "command": report.command,
        "seed": report.seed,
        "tolerances": {
            "rank_tol": report.tolerances.rank_tol,
            "alg_tol": report.tolerances.alg_tol,
            "conv_tol": report.tolerances.conv_tol,
        },
        "payload": _sanitize(report.payload),
        "residuals": _sanitize(report.residuals),
        "timing_ms": report.timing_ms,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _format_number(x):
    return f"{x:.6g}"


def _format_matrix_lines(rows, indent):
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, list) and len(cell) == 2:
                re_part, im_part = cell
                cells.append(f"{re_part:.6g}{im_part:+.6g}j")
            else:
                cells.append(_format_number(cell))
        lines.append(" " * indent + "[ " + "  ".join(cells) + " ]")
    return lines


def _is_cell(cell):
    if _is_number(cell):
        return True
    return (isinstance(cell, list) and len(cell) == 2
            and all(_is_number(x) for x in cell))


def _is_matrix(value):
    return (isinstance(value, list) and value
            and all(isinstance(r, list) and r and all(_is_cell(c) for c in r)
                    for r in value))


def _format_value(key, value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_format_value(k, v, indent + 2))
        return lines
    if _is_matrix(value):
        return [f"{pad}{key}:"] + _format_matrix_lines(value, indent + 2)
    if isinstance(value, list):
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in value):
            return [f"{pad}{key}: {value}"]
        lines = [f"{pad}{key}:"]
        for i, v in enumerate(value):
            lines.extend(_format_value(f"[{i}]", v, indent + 2))
        return lines
    if isinstance(value, float):
        return [f"{pad}{key}: {_format_number(value)}"]
    return [f"{pad}{key}: {value}"]


def report_to_text(report):
    lines = [
        f"command:    {report.command}",
        f"model hash: {report.model_hash}",
        f"seed:       {report.seed}",
        f"tolerances: rank={report.tolerances.rank_tol:g} "
        f"alg={report.tolerances.alg_tol:g} conv={report.tolerances.conv_tol:g}",
        "payload:",
    ]
    payload = _sanitize(report.payload)
    for k, v in payload.items():
        lines.extend(_format_value(k, v, 2))
    residuals = _sanitize(report.residuals)
    if residuals:
        lines.append("residuals:")
        for k, v in residuals.items():
            lines.extend(_format_value(k, v, 2))
    lines.append(f"timing: {report.timing_ms:.3f} ms")
    return "\n".join(lines) + "\n"
