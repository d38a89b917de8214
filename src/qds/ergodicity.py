"""Invariant states, positive recurrence, and strong ergodicity.

The predual fixed-point space always contains a state at finite
dimension; extremal invariant states sit on the recurrent projections of
the resolution, one per minimal sub-harmonic p: E^+ (p / rank p), which
stays on p.  Strong ergodicity is decided spectrally (simple ergodic
eigenvalue, nothing else on the peripheral boundary) and verified
dynamically on random initial states.

Everything predual is read off the Heisenberg split: the predual matrix is
the conjugate transpose of the Heisenberg matrix, its ergodic projection is
E^+, and its peripheral set and gap are those of the Heisenberg matrix.
:func:`invariant_states` resolves the model before it reads the split, so
that the split is read off the blocks of the resolution's frame
(:func:`qds.spectral.block_split`); a model with one full-rank part is
split on the whole-space frame.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    dagger, hermitize, seed_sequence, spectral_norm, trace_norm, unvec, vec,
)
from .errors import CrossCheckError, StructuralError
from .models import DEFAULT_SEED, DEFAULT_TOL, DISCRETE_STEP
from .projections import as_projection, range_projection, reduce_model
from .resolution import is_transient_complement, resolve
from .spectral import _derived, _predual_ergodic_state, corner_invariant_state

__all__ = [
    "DensityMatrix", "InvariantStates", "ErgodicityReport",
    "ReductionEquivalence", "invariant_states", "support_projection",
    "strong_ergodicity_check",
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
    """Fixed-point basis, and extremal invariant states with their supports."""

    basis: tuple
    states: tuple
    supports: tuple


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


def _hermitian_fixed_basis(columns, d, tol):
    """Orthonormal hermitian basis of the span of vectorized d x d
    matrices (the columns), a span closed under the adjoint."""
    herms = []
    for col in columns.T:
        m = unvec(col, d)
        herms.append(hermitize(m))
        herms.append(hermitize(1j * m))
    stacked = np.stack([np.concatenate([vec(h).real, vec(h).imag])
                        for h in herms], axis=1)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > max(tol.rank_tol * s[0], 1e-12)))
    basis = []
    for k in range(rank):
        re = u[: d * d, k]
        im = u[d * d:, k]
        basis.append(hermitize(unvec(re + 1j * im, d)))
    return basis


def invariant_states(model, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Basis of the predual fixed-point space plus extremal invariant
    states (one per recurrent projection of the seeded resolution).

    The fixed points of the predual are the left kernel of S - lambda_0,
    which the Heisenberg split already holds as the adjoint of its ergodic
    rows.  Each state is the one :func:`classify_projection` certified for
    its recurrent projection inside :func:`resolve`, with full rank on
    that sub-harmonic projection; it is checked here for invariance under
    the predual, the adjoint of S, and its support is returned alongside
    it."""
    d = model.dim
    res = resolve(model, seed=seed, tol=tol)
    rec = _derived(model, tol)
    basis = _hermitian_fixed_basis(dagger(rec.split.ergodic_rows), d, tol)
    s = rec.superop
    states, supports = [], []
    for cls in res.certificates:
        rho = cls.certificate.invariant_state
        image = unvec(dagger(s.matrix) @ vec(rho), d)
        if s.time_kind == DISCRETE_STEP:
            image = image - rho
        resid = spectral_norm(image)
        if resid > 100 * tol.alg_tol:
            raise CrossCheckError(
                f"extremal state is not invariant (residual {resid:.3g})")
        state = DensityMatrix.from_matrix(rho, tol)
        states.append(state)
        supports.append(support_projection(state, tol))
    return InvariantStates(basis=tuple(basis), states=tuple(states),
                           supports=tuple(supports))


def support_projection(rho, tol=DEFAULT_TOL):
    """Range projection of a state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return range_projection(m, tol)


def strong_ergodicity_check(model, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Decide convergence of every initial state to a unique invariant one.

    Spectrally: the ergodic eigenvalue must be simple and nothing else may
    sit on the peripheral boundary (the same for the Heisenberg matrix and
    its conjugate transpose, the predual).  The verdict is verified
    dynamically by evolving five random pure states to the spectral
    horizon with one predual propagator, the adjoint of the model's
    Heisenberg horizon propagator; a disagreement raises.
    """
    rng = np.random.default_rng(seed_sequence(seed))
    rec = _derived(model, tol)
    data = rec.split
    simple = int(data.multiplicities[data.ergodic_index]) == 1
    alone = tuple(data.peripheral) == (data.ergodic_index,)
    holds = simple and alone
    gap = data.gap()

    phi0 = None
    if holds:
        phi0 = DensityMatrix.from_matrix(
            _predual_ergodic_state(data, model.dim, tol), tol)
        prop, leftover = rec.horizon
        prop = dagger(prop)
        gate = max(tol.alg_tol, 100.0 * leftover)
        d = model.dim
        for _ in range(5):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = v / np.linalg.norm(v)
            rho_t = hermitize(unvec(prop @ vec(np.outer(v, v.conj())), d))
            dist = trace_norm(rho_t - phi0.matrix)
            if dist > gate:
                raise CrossCheckError(
                    "strong ergodicity: spectral verdict says yes but a "
                    f"random state is still {dist:.3g} away at the horizon")
    return ErgodicityReport(holds=holds, gap=gap, phi0=phi0)


def ergodicity_reduction_equivalence(model, p, tol=DEFAULT_TOL,
                                     seed=DEFAULT_SEED, full=None):
    """Strong ergodicity of the full dynamics versus its reduction to the
    support of an invariant state.

    When the limit operator of the support is the identity the two
    verdicts must coincide; otherwise the equivalence is vacuous.  Only the
    reduced verdict splits the corner, as a second route.
    ``full`` is the model's own report from
    ``strong_ergodicity_check(model, tol, seed)`` when the caller already
    holds it; otherwise that check runs here.  A p that is not
    sub-harmonic is refused by :func:`reduce_model` before its corner
    state is formed.
    """
    p_obj = as_projection(p, tol)
    reduced_model = reduce_model(model, p_obj, tol)
    _, support_rank = corner_invariant_state(model, p_obj, tol)
    if support_rank != p_obj.rank:
        raise StructuralError(
            "p is not the support of an invariant state (maximal invariant "
            f"support inside p has rank {support_rank}, p has rank "
            f"{p_obj.rank})")

    if full is None:
        full = strong_ergodicity_check(model, tol, seed)
    reduced = strong_ergodicity_check(reduced_model, tol, seed).holds
    y_is_one = is_transient_complement(model, p_obj, tol).transient
    consistent = (not y_is_one) or (full.holds == reduced)
    return ReductionEquivalence(full=full.holds, reduced=reduced,
                                y_is_one=y_is_one, consistent=consistent)
