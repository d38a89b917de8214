"""Projection algebra: sub-harmonic and harmonic tests, range projections,
and reduction of the dynamics to a sub-harmonic corner."""

from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, hermitize, min_eig, spectral_norm
from .errors import CrossCheckError, StructuralError
from .models import (
    DEFAULT_TOL, DISCRETE_STEP, KIND_KRAUS, KIND_LINDBLAD, KIND_STOCHASTIC,
    QuantumModel, apply_map, stochastic_model,
)

__all__ = ["Projection", "SubharmonicVerdict", "as_projection",
           "is_subharmonic", "is_harmonic", "range_projection",
           "reduce_model", "projection_basis"]

# Inputs within this distance of an exact projection are snapped to one
# (users hand-author matrices in JSON); beyond it they are rejected.
SNAP_TOL = 1e-6


@dataclass(frozen=True)
class Projection:
    """A hermitian idempotent with its rank."""

    matrix: np.ndarray
    rank: int

    @classmethod
    def from_matrix(cls, m, tol=DEFAULT_TOL):
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError("projection must be a square matrix")
        herm = spectral_norm(m - dagger(m))
        idem = spectral_norm(m @ m - m)
        if herm > SNAP_TOL or idem > SNAP_TOL:
            raise StructuralError(
                f"not a projection within {SNAP_TOL:g} "
                f"(hermiticity {herm:.3g}, idempotency {idem:.3g})")
        if herm > tol.alg_tol or idem > tol.alg_tol:
            vals, vecs = np.linalg.eigh(hermitize(m))
            if np.any(np.abs(vals - np.round(vals)) > SNAP_TOL):
                raise StructuralError(
                    "eigenvalues too far from {0, 1} to snap")
            keep = vals >= 0.5
            m = (vecs[:, keep] @ dagger(vecs[:, keep]))
        m = hermitize(m)
        rank = int(np.sum(np.linalg.eigvalsh(m) >= 0.5))
        frozen = np.ascontiguousarray(m)
        frozen.flags.writeable = False
        return cls(matrix=frozen, rank=rank)

    @classmethod
    def identity(cls, dim):
        return cls.from_matrix(np.eye(dim))

    @classmethod
    def zero(cls, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m.flags.writeable = False
        return cls(matrix=m, rank=0)

    @classmethod
    def from_basis(cls, basis):
        """Projection onto the span of orthonormal columns."""
        basis = np.asarray(basis, dtype=complex)
        return cls.from_matrix(basis @ dagger(basis))

    @classmethod
    def onto_states(cls, dim, indices):
        """Diagonal indicator projection of a set of basis states."""
        m = np.zeros((dim, dim), dtype=complex)
        for i in indices:
            m[i, i] = 1.0
        return cls.from_matrix(m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def complement(self):
        return Projection.from_matrix(np.eye(self.dim) - self.matrix)

    def diagonal_support(self, threshold=0.5):
        return frozenset(int(i) for i in range(self.dim)
                         if self.matrix[i, i].real >= threshold)


def as_projection(p, tol=DEFAULT_TOL):
    """``p`` as a :class:`Projection`: itself, or its matrix snapped."""
    return p if isinstance(p, Projection) else Projection.from_matrix(p, tol)


def projection_basis(p, tol=DEFAULT_TOL):
    """Deterministic orthonormal basis (d x rank) of the range of p."""
    p_mat = as_projection(p, tol).matrix
    vals, vecs = np.linalg.eigh(p_mat)
    keep = vals >= 0.5
    return vecs[:, keep]


@dataclass(frozen=True)
class SubharmonicVerdict:
    verdict: bool
    residual: float
    witnesses: tuple
    order_min_eig: float


def is_subharmonic(model, p, tol=DEFAULT_TOL):
    """Algebraic sub-harmonicity test with an order-test diagnostic.

    The verdict is (1-p) G p = 0 within tolerance for every generator G
    (Kraus operators, or drift plus jump operators), with all residuals
    taken from the model's stacked family in one batched 2-norm; this
    criterion is basis-exact and independent of the Kraus representation.
    The operator order test min-eig(tau_dt(p) - p) >= -tol runs as a
    cross-check: a projection passing the algebraic test but failing the
    order test by more than 10x tolerance signals a miscalibrated
    tolerance and raises.
    """
    from .spectral import _derived, _step_map

    p_mat = as_projection(p, tol).matrix
    comp = np.eye(model.dim) - p_mat

    family = _derived(model, tol).family
    norms = np.linalg.norm(comp @ family.ops @ p_mat, 2, axis=(1, 2))
    witnesses = [(family.labels[k], float(norms[k]))
                 for k in np.flatnonzero(norms > tol.alg_tol)]
    residual = float(np.max(norms, initial=0.0))
    verdict = residual <= tol.alg_tol

    stepped = _step_map(model, p_mat, tol)
    order_min = min_eig(stepped - p_mat)
    if verdict and order_min < -10 * tol.alg_tol:
        raise CrossCheckError(
            "sub-harmonic cross-check disagreement: algebraic residual "
            f"{residual:.3g} but order test min-eig {order_min:.3g}")
    return SubharmonicVerdict(verdict=verdict, residual=residual,
                              witnesses=tuple(witnesses),
                              order_min_eig=float(order_min))


def is_harmonic(model, p, tol=DEFAULT_TOL):
    """True iff the projection is fixed by the dynamics:
    one step reproduces p (discrete) or the generator annihilates p."""
    from .spectral import _derived

    p_mat = as_projection(p, tol).matrix
    s = _derived(model, tol).superop
    image = apply_map(s, p_mat, tol)
    if s.time_kind == DISCRETE_STEP:
        image = image - p_mat
    return spectral_norm(image) <= tol.alg_tol


def range_projection(x, tol=DEFAULT_TOL):
    """Projection onto the range of a positive semidefinite matrix.

    Keeps eigenvectors with eigenvalue above ``rank_tol`` relative to the
    largest; raises when x is not PSD beyond tolerance.
    """
    x = np.asarray(x, dtype=complex)
    if spectral_norm(x - dagger(x)) > tol.alg_tol:
        raise StructuralError("range_projection expects a hermitian matrix")
    vals, vecs = np.linalg.eigh(hermitize(x))
    scale = max(1.0, float(vals[-1]) if vals.size else 0.0)
    if vals.size and vals[0] < -100 * tol.alg_tol * scale:
        raise StructuralError(
            f"matrix is not positive semidefinite (min eig {vals[0]:.3g})")
    if vals.size == 0 or vals[-1] <= 0.0:
        return Projection.zero(x.shape[0])
    keep = vals > tol.rank_tol * vals[-1]
    q = Projection.from_basis(vecs[:, keep])
    if spectral_norm(q.matrix @ x - x) > 100 * tol.alg_tol * scale:
        raise CrossCheckError("range projection does not reproduce qx = x")
    return q


def reduce_model(model, p, tol=DEFAULT_TOL, allow_sub_markov=False):
    """Compression of the dynamics onto the range of a projection.

    For a sub-harmonic p the compressed family generates the reduced
    Markov semigroup on the corner, and the reduced model is again unital.
    Non-sub-harmonic compressions are refused unless ``allow_sub_markov``
    is set, in which case a sub-stochastic / sub-unital model is returned
    carrying the ``sub_markov`` flag.  The corner of the whole space is
    the model itself, so its derived matrices are shared.
    """
    p_obj = as_projection(p, tol)
    if p_obj.rank == 0:
        raise StructuralError("cannot reduce to the zero projection")
    sub = is_subharmonic(model, p_obj, tol)
    if not sub.verdict and not allow_sub_markov:
        raise StructuralError(
            "reduction requires a sub-harmonic corner "
            f"(residual {sub.residual:.3g}); pass allow_sub_markov=True for "
            "an explicit sub-stochastic compression")
    flag = not sub.verdict
    if p_obj.rank == model.dim and not flag and not model.sub_markov:
        return model

    if model.kind == KIND_STOCHASTIC:
        support = sorted(p_obj.diagonal_support())
        off_mass = spectral_norm(
            p_obj.matrix - np.diag(np.diag(p_obj.matrix)))
        if off_mass > tol.alg_tol or len(support) != p_obj.rank:
            raise StructuralError(
                "stochastic models reduce along diagonal projections only")
        sub_matrix = model.stochastic_matrix[np.ix_(support, support)]
        return stochastic_model(sub_matrix, sub_markov=flag)

    basis = projection_basis(p_obj, tol)

    def compress(op):
        return dagger(basis) @ op @ basis

    if model.kind == KIND_KRAUS:
        ops = [compress(k) for k in model.kraus_ops]
        ops = [k for k in ops if spectral_norm(k) > tol.alg_tol]
        if not ops:
            ops = [np.zeros((p_obj.rank, p_obj.rank), dtype=complex)]
        reduced = QuantumModel(dim=p_obj.rank, kind=KIND_KRAUS,
                               kraus_ops=tuple(ops), sub_markov=flag)
        return reduced
    # lindblad: compress H and the jumps, recompute nothing -- the
    # compression of the drift is the drift of the compression only on a
    # sub-harmonic corner, so pass it explicitly
    h_r = compress(model.hamiltonian)
    ls = [compress(l) for l in model.lindblad_ops]
    ls = [l for l in ls if spectral_norm(l) > tol.alg_tol]
    y_r = compress(model.drift)
    return QuantumModel(dim=p_obj.rank, kind=KIND_LINDBLAD,
                        hamiltonian=hermitize(h_r), lindblad_ops=tuple(ls),
                        drift=y_r, sub_markov=flag)
