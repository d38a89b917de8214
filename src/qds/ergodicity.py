"""Invariant states, positive recurrence, and strong ergodicity.

The predual fixed-point space always contains a state at finite
dimension; extremal invariant states sit on the recurrent projections of
the resolution, one per minimal sub-harmonic corner.  Strong ergodicity
is decided spectrally (simple ergodic eigenvalue, nothing else on the
peripheral boundary) and verified dynamically on random initial states.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    dagger, hermitize, seed_sequence, spectral_norm, trace_norm, unvec, vec,
)
from .errors import ConvergenceError, CrossCheckError, StructuralError
from .models import DEFAULT_SEED, DEFAULT_TOL, predual_superoperator
from .projections import (
    Projection, is_subharmonic, projection_basis, range_projection, reduce_model,
)
from .spectral import _horizon, evolve_predual, spectral_split

__all__ = [
    "DensityMatrix", "InvariantStates", "ErgodicityReport",
    "ReductionEquivalence", "invariant_states", "support_projection",
    "is_positive_recurrent", "strong_ergodicity_check",
    "ergodicity_reduction_equivalence", "corner_invariant_state",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite trace-one matrix (a normal state)."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol=DEFAULT_TOL):
        m = np.asarray(m, dtype=complex)
        if spectral_norm(m - dagger(m)) > tol.alg_tol:
            raise StructuralError("density matrix must be hermitian")
        m = hermitize(m)
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -100 * tol.alg_tol:
            raise StructuralError(
                f"density matrix must be PSD (min eig {eigs[0]:.3g})")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 100 * tol.alg_tol:
            raise StructuralError(f"density matrix must have trace 1, got {tr}")
        frozen = np.ascontiguousarray(m)
        frozen.flags.writeable = False
        return cls(matrix=frozen)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class InvariantStates:
    basis: tuple
    states: tuple


@dataclass(frozen=True)
class ErgodicityReport:
    holds: bool
    gap: float
    phi0: DensityMatrix | None


@dataclass(frozen=True)
class ReductionEquivalence:
    full: bool
    reduced: bool
    y_is_one: bool
    consistent: bool


def _predual_ergodic_state(data, d, tol):
    """Cesaro-limit state of the maximally mixed initial state under the
    predual split ``data``: invariant, PSD, with maximal support among
    invariant states."""
    rho = unvec(data.apply_ergodic(vec(np.eye(d) / d)), d)
    rho = hermitize(rho)
    tr = float(np.trace(rho).real)
    if tr <= tol.rank_tol:
        raise ConvergenceError(
            "predual ergodic projection lost all trace; no invariant state "
            "found (impossible for a valid unital model)")
    rho = rho / tr
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -100 * tol.alg_tol:
        raise ConvergenceError(
            f"ergodic state is not PSD (min eig {eigs[0]:.3g})")
    # clip round-off negatives so downstream range projections are clean
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    rho = vecs @ np.diag(vals) @ dagger(vecs)
    return hermitize(rho / np.trace(rho).real)


def corner_invariant_state(model, p, tol=DEFAULT_TOL):
    """Invariant state of maximal support inside a sub-harmonic corner,
    lifted back to the full space.  Returns (state_matrix, support_rank).
    """
    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    reduced = reduce_model(model, p_obj, tol)
    data = spectral_split(predual_superoperator(reduced, tol), tol)
    rho_corner = _predual_ergodic_state(data, reduced.dim, tol)
    support_rank = range_projection(rho_corner, tol).rank
    if model.kind == "stochastic":
        support = sorted(p_obj.diagonal_support())
        rho_full = np.zeros((model.dim, model.dim), dtype=complex)
        rho_full[np.ix_(support, support)] = rho_corner
    else:
        basis = projection_basis(p_obj, tol)
        rho_full = basis @ rho_corner @ dagger(basis)
    return hermitize(rho_full), support_rank


def _fixed_state_residual(model, rho, tol):
    s = predual_superoperator(model, tol)
    if s.time_kind == "discrete_step":
        return spectral_norm(unvec(s.matrix @ vec(rho), model.dim) - rho)
    return spectral_norm(unvec(s.matrix @ vec(rho), model.dim))


def invariant_states(model, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Basis of the predual fixed-point space plus extremal invariant
    states (one per recurrent projection of the seeded resolution)."""
    from .resolution import _hermitian_fixed_basis, resolve

    s = predual_superoperator(model, tol)
    basis = _hermitian_fixed_basis(s, tol)
    if not basis:
        raise ConvergenceError(
            "empty predual fixed-point space; impossible for a unital "
            "finite-dimensional model")

    res = resolve(model, seed=seed, tol=tol)
    states = []
    for p_i in res.recurrent_projections:
        rho, support_rank = corner_invariant_state(model, p_i, tol)
        if support_rank != p_i.rank:
            raise CrossCheckError(
                "extremal state support does not fill its recurrent "
                f"projection (rank {support_rank} vs {p_i.rank})")
        resid = _fixed_state_residual(model, rho, tol)
        if resid > 100 * tol.alg_tol:
            raise CrossCheckError(
                f"extremal state is not invariant (residual {resid:.3g})")
        support = support_projection(DensityMatrix.from_matrix(rho, tol), tol)
        if not is_subharmonic(model, support, tol).verdict:
            raise CrossCheckError(
                "support of an invariant state failed the sub-harmonic test")
        states.append(DensityMatrix.from_matrix(rho, tol))
    return InvariantStates(basis=tuple(basis), states=tuple(states))


def support_projection(rho, tol=DEFAULT_TOL):
    """Range projection of a state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return range_projection(m, tol)


def is_positive_recurrent(model, p, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """True iff some invariant state has support exactly p.

    Requires p to be recurrent (minimal sub-harmonic); raises otherwise.
    """
    from .resolution import _generator_ops, _smaller_invariant_subspace

    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    verdict = is_subharmonic(model, p_obj, tol)
    if not verdict.verdict:
        raise StructuralError(
            f"projection is not sub-harmonic (residual {verdict.residual:.3g})")
    rng = np.random.default_rng(seed_sequence(seed))
    smaller = _smaller_invariant_subspace(
        _generator_ops(model), projection_basis(p_obj, tol), rng, tol,
        n_random=8)
    if smaller is not None:
        raise StructuralError(
            "projection is not minimal sub-harmonic; positive recurrence is "
            "defined for recurrent projections only")
    _, support_rank = corner_invariant_state(model, p_obj, tol)
    return support_rank == p_obj.rank


def strong_ergodicity_check(model, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Decide convergence of every initial state to a unique invariant one.

    Spectrally: the ergodic eigenvalue of the predual must be simple and
    nothing else may sit on the peripheral boundary.  The verdict is
    verified dynamically by evolving five random pure states to the
    spectral horizon; a disagreement raises.
    """
    s = predual_superoperator(model, tol)
    data = spectral_split(s, tol)
    simple = int(data.multiplicities[data.ergodic_index]) == 1
    alone = tuple(data.peripheral) == (data.ergodic_index,)
    holds = simple and alone
    gap = data.gap()

    phi0 = None
    if holds:
        phi0 = DensityMatrix.from_matrix(
            _predual_ergodic_state(data, model.dim, tol), tol)
        kind, value, leftover = _horizon(data, tol)
        rng = np.random.default_rng(seed_sequence(seed))
        gate = max(tol.alg_tol, 100.0 * leftover)
        for _ in range(5):
            v = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
            v = v / np.linalg.norm(v)
            rho0 = np.outer(v, v.conj())
            if kind == "n":
                rho_t = evolve_predual(model, rho0, n=value, tol=tol)
            else:
                rho_t = evolve_predual(model, rho0, t=value, tol=tol)
            dist = trace_norm(rho_t - phi0.matrix)
            if dist > gate:
                raise CrossCheckError(
                    "strong ergodicity: spectral verdict says yes but a "
                    f"random state is still {dist:.3g} away at the horizon")
    return ErgodicityReport(holds=holds, gap=gap, phi0=phi0)


def ergodicity_reduction_equivalence(model, p, tol=DEFAULT_TOL,
                                     seed=DEFAULT_SEED):
    """Strong ergodicity of the full dynamics versus its reduction to the
    support of an invariant state.

    When the limit operator of the support is the identity the two
    verdicts must coincide; otherwise the equivalence is vacuous.
    """
    from .resolution import is_transient_complement

    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    verdict = is_subharmonic(model, p_obj, tol)
    if not verdict.verdict:
        raise StructuralError(
            "p must be the support of an invariant state; it is not even "
            f"sub-harmonic (residual {verdict.residual:.3g})")
    _, support_rank = corner_invariant_state(model, p_obj, tol)
    if support_rank != p_obj.rank:
        raise StructuralError(
            "p is not the support of an invariant state (maximal invariant "
            f"support inside p has rank {support_rank}, p has rank "
            f"{p_obj.rank})")

    full = strong_ergodicity_check(model, tol, seed).holds
    reduced_model = reduce_model(model, p_obj, tol)
    reduced = strong_ergodicity_check(reduced_model, tol, seed).holds
    y_is_one = is_transient_complement(model, p_obj, tol).transient
    consistent = (not y_is_one) or (full == reduced)
    return ReductionEquivalence(full=full, reduced=reduced,
                                y_is_one=y_is_one, consistent=consistent)
