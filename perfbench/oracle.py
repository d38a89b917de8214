"""Checks a qds CLI report against what the input's construction implies.

Every check here is independent of the package's own routes: expected
verdicts come from how the inputs were built, and the dynamics is applied
by plain loops over Kraus or Lindblad operators (or over the transition
matrix of a chain), never through a superoperator matrix.

``problems(op, report)`` returns a list of human-readable disagreements;
an empty list means the report is right.
"""

import numpy as np

# Residual gates.  The package certifies its own invariants at
# 100 * alg_tol = 1e-6; a decade above that separates round-off from a
# wrong answer.
MATRIX_TOL = 1e-6
INVARIANCE_TOL = 1e-5
# Evolution against the loop oracle: both are exact up to round-off (and
# RK4 truncation far below this for the fixture generators).
EVOLVE_TOL = 1e-8
# Picard at 64 quadrature steps is fourth order; on the benchmark's inputs
# (t = 1, generators of norm of order one) its mismatch against the
# exponential stays below 1e-6.
PICARD_TOL = 1e-5
RK4_STEPS = 2000


def decode(obj):
    """Rows of [re, im] pairs -> complex ndarray."""
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _norm(a):
    return float(np.linalg.norm(a, 2)) if np.size(a) else 0.0


def _drift(model):
    acc = sum((l.conj().T @ l for l in model.lindblad_ops),
              np.zeros((model.dim, model.dim), dtype=complex))
    return -1j * np.asarray(model.hamiltonian) - 0.5 * acc


def step(model, x, picture):
    """One step of a discrete model on x, by operator loops."""
    if model.kind == "stochastic":
        p = np.asarray(model.stochastic_matrix)
        f = np.real(np.diag(x))
        return np.diag(p @ f if picture == "heisenberg" else p.T @ f).astype(complex)
    out = np.zeros_like(x, dtype=complex)
    for k in model.kraus_ops:
        if picture == "heisenberg":
            out += k.conj().T @ x @ k
        else:
            out += k @ x @ k.conj().T
    return out


def generator(model, x, picture):
    """Lindblad generator applied to x, by operator loops."""
    y = _drift(model)
    if picture == "heisenberg":
        out = y.conj().T @ x + x @ y
        for l in model.lindblad_ops:
            out += l.conj().T @ x @ l
    else:
        out = y @ x + x @ y.conj().T
        for l in model.lindblad_ops:
            out += l @ x @ l.conj().T
    return out


def evolve(model, x, picture, n=None, t=None):
    """tau^n(x) for discrete models; RK4 on dx/dt = L(x) up to t otherwise."""
    x = np.asarray(x, dtype=complex)
    if model.kind != "lindblad":
        for _ in range(n):
            x = step(model, x, picture)
        return x
    h = t / RK4_STEPS
    for _ in range(RK4_STEPS):
        k1 = generator(model, x, picture)
        k2 = generator(model, x + 0.5 * h * k1, picture)
        k3 = generator(model, x + 0.5 * h * k2, picture)
        k4 = generator(model, x + h * k3, picture)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def invariance_residual(model, rho):
    """||tau_*(rho) - rho|| (discrete) or ||L_*(rho)|| (continuous)."""
    if model.kind == "lindblad":
        return _norm(generator(model, rho, "schrodinger"))
    return _norm(step(model, rho, "schrodinger") - rho)


def _diagonal_support(p):
    return frozenset(int(i) for i in range(p.shape[0]) if p[i, i].real >= 0.5)


def _match_projections(found, expected, what):
    """Pair each found projection with a distinct expected one."""
    left = list(range(len(expected)))
    out = []
    for i, p in enumerate(found):
        hit = next((j for j in left if _norm(p - expected[j]) <= MATRIX_TOL), None)
        if hit is None:
            out.append(f"{what} {i} matches no projection of the construction")
        else:
            left.remove(hit)
    return out


def _check_resolve(op, report):
    s = op.structure
    pay = report["payload"]
    out = []
    parts = [decode(r["matrix"]) for r in pay["recurrent"]]
    ranks = tuple(sorted((r["rank"] for r in pay["recurrent"]), reverse=True))
    if ranks != s.part_ranks:
        out.append(f"recurrent ranks {ranks}, construction {s.part_ranks}")
    if pay["remainder"]["rank"] != s.remainder_rank:
        out.append(f"remainder rank {pay['remainder']['rank']}, "
                   f"construction {s.remainder_rank}")
    labels = {r["classification"]["label"] for r in pay["recurrent"]}
    if labels - {"positive_recurrent"}:
        out.append(f"recurrent parts labelled {sorted(labels)}")
    if pay["remainder"]["classification"]["label"] != "transient":
        out.append("remainder not certified transient")
    total = sum(parts, decode(pay["remainder"]["matrix"]))
    if _norm(total - np.eye(op.dim)) > MATRIX_TOL:
        out.append("parts and remainder do not sum to the identity")
    if s.projections is not None and not out:
        out += _match_projections(parts, s.projections, "recurrent part")
    if s.classes is not None:
        supports = {_diagonal_support(p) for p in parts}
        if supports != set(s.classes):
            out.append(f"supports {sorted(map(sorted, supports))}, closed "
                       f"classes {sorted(map(sorted, s.classes))}")
        rem = _diagonal_support(decode(pay["remainder"]["matrix"]))
        if rem != s.transient:
            out.append(f"remainder {sorted(rem)}, transient {sorted(s.transient)}")
        comparison = pay.get("classical_comparison")
        if comparison is not None and not comparison["agree"]:
            out.append("classical comparison reports disagreement")
    return out


def _check_ergodic(op, report):
    s = op.structure
    pay = report["payload"]
    out = []
    if pay["fixed_space_dimension"] != s.fixed_dim:
        out.append(f"fixed space dimension {pay['fixed_space_dimension']}, "
                   f"construction {s.fixed_dim}")
    holds = pay["strong_ergodicity"]["holds"]
    if holds != s.strongly_ergodic:
        out.append(f"strong ergodicity {holds}, construction {s.strongly_ergodic}")
    states = [decode(m) for m in pay["invariant_states"]]
    if len(states) != len(s.part_ranks):
        out.append(f"{len(states)} extremal states, construction "
                   f"{len(s.part_ranks)}")
    for i, rho in enumerate(states):
        if abs(np.trace(rho) - 1.0) > MATRIX_TOL:
            out.append(f"state {i} has trace {np.trace(rho).real:.6g}")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -MATRIX_TOL:
            out.append(f"state {i} is not positive")
        resid = invariance_residual(op.model, rho)
        if resid > INVARIANCE_TOL:
            out.append(f"state {i} not invariant (residual {resid:.3g})")
        if s.projections is not None and not any(
                _norm(e @ rho @ e - rho) <= MATRIX_TOL for e in s.projections):
            out.append(f"state {i} is supported on no recurrent part")
    if not all(r["consistent"] for r in pay["reduction_equivalence"]):
        out.append("reduction equivalence inconsistent")
    return out


def _check_check(op, report):
    return [] if report["payload"]["ok"] else ["valid model reported invalid"]


def _check_classify(op, report):
    pay = report["payload"]
    want = op.expect
    out = []
    label = pay["classification"]["label"]
    if label != want["label"]:
        out.append(f"classified {label}, construction {want['label']}")
    complement = pay["complement"]
    got = None if complement is None else complement["transient"]
    if got != want["complement_transient"]:
        out.append(f"complement transient {got}, construction "
                   f"{want['complement_transient']}")
    return out


def _check_evolve(op, report):
    got = decode(report["payload"]["result"])
    err = _norm(got - op.expect["result"])
    scale = max(1.0, _norm(op.expect["operand"]))
    return [] if err <= EVOLVE_TOL * scale else [
        f"evolution differs from the operator-loop oracle by {err:.3g}"]


def _check_picard(op, report):
    mismatch = report["residuals"]["exp_mismatch"]
    if mismatch is None or not mismatch <= PICARD_TOL:
        return [f"picard vs exponential mismatch {mismatch}"]
    return []


_CHECKS = {"resolve": _check_resolve, "ergodic": _check_ergodic,
           "check": _check_check, "classify": _check_classify,
           "evolve": _check_evolve, "picard": _check_picard}


def problems(op, report):
    """Disagreements between a report and the op's construction."""
    try:
        return _CHECKS[op.command](op, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report ({type(exc).__name__}: {exc})"]
