"""Spectral analysis of superoperators.

Provides the clustered spectrum of a superoperator matrix with its
ergodic (Cesaro) spectral projection, time evolution in either picture,
and the asymptotic operator y = lim_t tau_t(p) for a sub-harmonic
projection p, computed as the ergodic projection applied to p and
cross-checked against a long-horizon evolution.

The ergodic projection is built from the two kernels of S - lambda_0
alone, never from an inverse of the full eigenvector matrix: an embedded
classical chain has a zero eigenvalue of multiplicity about d^2 - d, and
an eigenbasis inverse then loses the kernel of the projection.

Matrices derived from a model are formed once per (model, tolerances)
pair, on first use, in a record kept on the model (:func:`_derived`).
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._linalg import dagger, hermitize, spectral_norm, unvec, vec
from .errors import ConvergenceError, CrossCheckError, StructuralError
from .models import (
    DEFAULT_TOL, DISCRETE_STEP, KIND_LINDBLAD, _freeze,
    heisenberg_superoperator, predual_superoperator,
)

__all__ = ["SpectralData", "spectral_split", "evolve_heisenberg",
           "evolve_predual", "asymptotic_operator"]

# Radius used to group eigenvalues into clusters and to detect the
# peripheral set; pure numerics, independent of the user tolerances.
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectrum of a superoperator matrix and its ergodic
    (Cesaro) spectral projection E.

    eigenvalues[i] is the mean of cluster i and clusters[i] the indices of
    its members among the eigenvalues of ``matrix``.  E is stored factored
    as ``ergodic_right @ ergodic_rows``: the columns of ``ergodic_right``
    span the right kernel of S - lambda_0 (lambda_0 the ergodic cluster's
    mean) and ``ergodic_rows`` is (L^+ R)^-1 L^+, with L spanning the left
    kernel; the columns of its adjoint span the left kernel too.

    The predual matrix is the conjugate transpose of the Heisenberg one,
    so the split of the Heisenberg matrix serves both pictures: the
    predual's clusters are the complex conjugates (same moduli and real
    parts, hence the same peripheral set and gap) and its ergodic
    projection is E^+.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    clusters: tuple
    peripheral: tuple
    ergodic_index: int
    time_kind: str
    matrix: np.ndarray
    ergodic_right: np.ndarray
    ergodic_rows: np.ndarray

    def apply_ergodic(self, v):
        """E v, at O(n k) cost for a cluster of size k."""
        return self.ergodic_right @ (self.ergodic_rows @ v)

    def apply_ergodic_adjoint(self, v):
        """E^+ v, the predual's ergodic projection applied to v."""
        return dagger(self.ergodic_rows) @ (dagger(self.ergodic_right) @ v)

    def subperipheral_extreme(self):
        """Largest modulus (discrete) or real part (continuous) among
        non-peripheral clusters; None if every cluster is peripheral."""
        vals = [self.eigenvalues[i] for i in range(len(self.clusters))
                if i not in self.peripheral]
        if not vals:
            return None
        if self.time_kind == DISCRETE_STEP:
            return max(abs(v) for v in vals)
        return max(v.real for v in vals)

    def gap(self):
        """Distance of the sub-peripheral spectrum from the boundary
        (infinite when there is none)."""
        ext = self.subperipheral_extreme()
        if ext is None:
            return math.inf
        if self.time_kind == DISCRETE_STEP:
            return 1.0 - float(abs(ext))
        return float(-np.real(ext))


def _cluster_indices(values, radius):
    """Connected components of the 'within radius' graph on eigenvalues,
    ordered by their smallest member in (real, imag, index) order."""
    near = np.abs(values[:, None] - values[None, :]) <= radius
    free = np.ones(len(values), dtype=bool)
    clusters = []
    for seed in sorted(range(len(values)),
                       key=lambda k: (values[k].real, values[k].imag, k)):
        if not free[seed]:
            continue
        group = near[seed].copy()
        grown = group
        while grown.any():
            grown = near[grown].any(axis=0) & ~group
            group |= grown
        free &= ~group
        clusters.append(np.flatnonzero(group))
    return clusters


def spectral_split(superop, tol=DEFAULT_TOL, cluster_tol=CLUSTER_TOL):
    """Clustered spectrum and ergodic projection of a superoperator.

    Eigenvalues within ``cluster_tol`` of each other are grouped; the
    cluster containing the ergodic eigenvalue lambda_0 (1 for a discrete
    step, 0 for a continuous generator) is identified and required to be
    non-defective.  Its spectral projection E = R (L^+ R)^-1 L^+ comes
    from one SVD of S - lambda_0, whose last k right and left singular
    vectors (k the cluster size) span the two kernels; E must pass
    idempotency and left/right invariance checks.  Not cached: the split
    of a model's own superoperator is kept on the model (:func:`_derived`).
    """
    m = superop.matrix
    n = m.shape[0]
    w = np.linalg.eig(m)[0]
    clusters = _cluster_indices(w, cluster_tol)
    means = np.array([np.mean(w[c]) for c in clusters])
    mults = np.array([len(c) for c in clusters])

    ergodic_value = 1.0 if superop.time_kind == DISCRETE_STEP else 0.0
    candidates = [i for i, mu in enumerate(means)
                  if abs(mu - ergodic_value) <= max(cluster_tol, 1e3 * tol.alg_tol)]
    if not candidates:
        raise StructuralError(
            "no ergodic eigenvalue found; the superoperator is not a valid "
            "unital map/generator")
    ergodic_index = min(candidates, key=lambda i: abs(means[i] - ergodic_value))

    # The two kernels of S - lambda_0 come from one SVD; the ergodic
    # eigenvalue is semisimple iff the right kernel has its full size.
    lam0 = means[ergodic_index]
    k = int(mults[ergodic_index])
    u, s, vh = np.linalg.svd(m - lam0 * np.eye(n))
    geo = n if s[0] == 0.0 else int(np.sum(s <= max(tol.rank_tol, 1e-12) * s[0]))
    if geo < k:
        raise ConvergenceError(
            "non-diagonalizable peripheral part: the ergodic eigenvalue has a "
            f"Jordan block (algebraic {k}, geometric {geo})")
    right = dagger(vh[n - k:])
    left = dagger(u[:, n - k:])
    rows = np.linalg.solve(left @ right, left)

    if superop.time_kind == DISCRETE_STEP:
        peripheral = tuple(i for i, mu in enumerate(means)
                           if abs(abs(mu) - 1.0) <= cluster_tol)
    else:
        peripheral = tuple(i for i, mu in enumerate(means)
                           if abs(mu.real) <= cluster_tol)

    data = SpectralData(
        eigenvalues=means, multiplicities=mults, clusters=tuple(clusters),
        peripheral=peripheral, ergodic_index=ergodic_index,
        time_kind=superop.time_kind, matrix=m, ergodic_right=right,
        ergodic_rows=rows)
    _check_ergodic_projection(data, lam0)
    return data


def _check_ergodic_projection(data, lam0):
    """E must be idempotent and commute with S on both sides (E S = S E =
    lambda_0 E); checked on probe vectors against the original S."""
    m = data.matrix
    probe = probe_vec(m.shape[0])
    once = data.apply_ergodic(probe)
    row = (probe.conj() @ data.ergodic_right) @ data.ergodic_rows
    checks = (
        ("failed idempotency", data.apply_ergodic(once) - once, once),
        ("is not right-invariant", m @ once - lam0 * once, once),
        ("is not left-invariant", row @ m - lam0 * row, row),
    )
    for what, residual, scale in checks:
        if not np.linalg.norm(residual) <= 1e-6 * max(1.0, np.linalg.norm(scale)):
            raise ConvergenceError(
                f"ergodic spectral projection {what}; the model is "
                "numerically unstable")


def probe_vec(n):
    rng = np.random.default_rng(12345)
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return p / np.linalg.norm(p)


def _propagator(superop, model, t=None, n=None):
    """Matrix of the evolution over time t (continuous models, the
    exponential of the generator) or n steps (discrete, the n-th power)."""
    if model.kind == KIND_LINDBLAD:
        if t is None:
            raise StructuralError("continuous-time model: pass t")
        if t < 0:
            raise StructuralError("negative time")
        return scipy.linalg.expm(float(t) * superop.matrix)
    if n is None:
        raise StructuralError("discrete-time model: pass n")
    if n != int(n) or n < 0:
        raise StructuralError("negative time")
    return np.linalg.matrix_power(superop.matrix, int(n))


def _apply(prop, x, dim, tol):
    """Devectorized prop vec(x), re-hermitized when x is hermitian."""
    x = np.asarray(x, dtype=complex)
    hermitian_in = spectral_norm(x - dagger(x)) <= tol.alg_tol
    out = unvec(prop @ vec(x), dim)
    return hermitize(out) if hermitian_in else out


def evolve_heisenberg(model, x, t=None, n=None, tol=DEFAULT_TOL):
    """tau_t(x) (continuous, via the exponential of the generator matrix)
    or tau^n(x) (discrete, n-fold application)."""
    s = heisenberg_superoperator(model, tol)
    return _apply(_propagator(s, model, t, n), x, model.dim, tol)


def evolve_predual(model, rho, t=None, n=None, tol=DEFAULT_TOL):
    """Schrodinger-picture evolution of a state."""
    s = predual_superoperator(model, tol)
    return _apply(_propagator(s, model, t, n), rho, model.dim, tol)


def _horizon(data, tol):
    """Time horizon after which sub-peripheral modes are negligible.

    Returns (kind, value, predicted_leftover), kind being the keyword
    ("n" or "t") that passes value to the evolution.  The horizon is
    chosen so that the predicted truncation sits two decades below
    ``conv_tol`` and is capped at 1e6 steps / time units.
    """
    target = tol.conv_tol / 100.0
    ext = data.subperipheral_extreme()
    if data.time_kind == DISCRETE_STEP:
        if ext is None or ext <= 0.0:
            return "n", 1, 0.0
        r = float(abs(ext))
        n = int(math.ceil(math.log(target) / math.log(r)))
        n = max(1, min(n, 10 ** 6))
        return "n", n, r ** n
    gap = data.gap()
    if not math.isfinite(gap) or gap <= 0.0:
        return "t", 1.0, 0.0
    t = math.log(1.0 / target) / gap
    t = min(t, 1e6)
    return "t", t, math.exp(-gap * t)


GeneratorStack = namedtuple("GeneratorStack", "labels ops adjoints")


class _Derived:
    """Heisenberg superoperator S of one (model, tolerances) pair, its
    split, its one-step and horizon propagators, and its stacked generator
    family, each formed on first use."""

    def __init__(self, model, tol):
        self.model, self.tol = model, tol

    @cached_property
    def family(self):
        """``generator_family()`` with its operators G and their adjoints
        G^+ stacked as read-only (m, d, d) arrays."""
        fam = self.model.generator_family()
        d = self.model.dim
        ops = np.array([op for _, op in fam], dtype=complex).reshape(-1, d, d)
        return GeneratorStack(tuple(label for label, _ in fam), _freeze(ops),
                              _freeze(np.conj(ops.transpose(0, 2, 1))))

    @cached_property
    def superop(self):
        return heisenberg_superoperator(self.model, self.tol)

    @cached_property
    def split(self):
        return spectral_split(self.superop, self.tol)

    @cached_property
    def step(self):
        """S (discrete) or expm(dt S) with dt = 1/(1+||S||) (continuous)."""
        s = self.superop
        if s.time_kind == DISCRETE_STEP:
            return s.matrix
        dt = 1.0 / (1.0 + spectral_norm(s.matrix))
        return _freeze(_propagator(s, self.model, t=dt))

    @cached_property
    def horizon(self):
        """(propagator to the horizon of the split, predicted leftover)."""
        kind, value, leftover = _horizon(self.split, self.tol)
        prop = _propagator(self.superop, self.model, **{kind: value})
        return _freeze(prop), leftover


def _derived(model, tol):
    """The record of (model, tol), kept in the frozen model's own
    ``__dict__`` so that it dies with the model.  A concurrent first use
    at worst forms an entry twice."""
    records = vars(model).setdefault("_derived", {})
    return records.setdefault(tol, _Derived(model, tol))


def asymptotic_operator(model, p, tol=DEFAULT_TOL):
    """Limit operator y = lim_t tau_t(p) for a sub-harmonic projection p.

    Computed as the ergodic spectral projection applied to p (the monotone
    limit coincides with the Cesaro limit: oscillatory peripheral modes
    cannot contribute to a monotone bounded net), then cross-checked
    against a long-horizon evolution.  Raises when p is not sub-harmonic
    or when the two routes disagree.
    """
    from .projections import Projection, is_subharmonic

    if isinstance(p, Projection):
        p_mat = p.matrix
    else:
        p_mat = Projection.from_matrix(p, tol).matrix

    verdict = is_subharmonic(model, p_mat, tol)
    if not verdict.verdict:
        raise StructuralError(
            "projection is not sub-harmonic: the limit is not monotone and "
            f"y is undefined (residual {verdict.residual:.3g})")

    rec = _derived(model, tol)
    y = hermitize(unvec(rec.split.apply_ergodic(vec(p_mat)), model.dim))

    prop, leftover = rec.horizon
    y_dyn = _apply(prop, p_mat, model.dim, tol)
    cross_tol = max(tol.conv_tol, 10.0 * leftover)
    disagreement = spectral_norm(y - y_dyn)
    if disagreement > cross_tol:
        raise CrossCheckError(
            "asymptotic operator: spectral and long-horizon routes disagree "
            f"(norm {disagreement:.3g} > {cross_tol:.3g}); spectral value "
            f"min-eig {np.linalg.eigvalsh(y)[0]:.3g}, dynamic value min-eig "
            f"{np.linalg.eigvalsh(hermitize(y_dyn))[0]:.3g}")

    _check_limit_contract(model, p_mat, y, tol)
    return y


def _check_limit_contract(model, p_mat, y, tol):
    scale = max(1.0, spectral_norm(y))
    checks = {
        "p*y = p": spectral_norm(p_mat @ y - p_mat),
        "y*p = p": spectral_norm(y @ p_mat - p_mat),
    }
    eigs = np.linalg.eigvalsh(y)
    checks["0 <= y <= 1"] = max(0.0, float(-eigs[0]), float(eigs[-1] - 1.0))
    step = _step_map(model, y, tol)
    checks["tau(y) = y"] = spectral_norm(step - y)
    bad = {k: v for k, v in checks.items() if v > 100 * tol.alg_tol * scale}
    if bad:
        raise CrossCheckError(f"asymptotic operator violates its contract: {bad}")


def _step_map(model, x, tol):
    """One comparison step of the dynamics: a single application for
    discrete models, time 1/(1+||L||) for continuous ones."""
    return _apply(_derived(model, tol).step, x, model.dim, tol)
