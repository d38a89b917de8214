"""Dynamical-system models and their superoperator representations.

A model is one of three kinds:

* ``kraus``      -- unital completely positive map tau(x) = sum_k l_k^+ x l_k,
                    one discrete time step;
* ``lindblad``   -- norm-continuous generator
                    L(x) = Y^+ x + x Y + sum_k L_k^+ x L_k,
                    with drift Y = -iH - (1/2) sum_k L_k^+ L_k unless supplied;
* ``stochastic`` -- row-stochastic matrix P embedded as the diagonal channel
                    tau(diag f) = diag(P f).

Vectorization is column-stacking everywhere:
``vec(A X B) = (B^T kron A) vec(X)``; superoperators are d^2 x d^2 matrices
acting on vectorized d x d operators.  Only the Heisenberg matrix has a
formula: the predual (Schrodinger-picture) matrix is its conjugate
transpose.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    as_complex_matrix, dagger, hermitize, is_hermitian, real_hermitian_basis,
    spectral_norm, unvec, vec,
)
from .errors import StructuralError, ValidationFailure

__all__ = [
    "Tolerances", "DEFAULT_TOL", "DEFAULT_SEED",
    "QuantumModel", "Superoperator", "ValidationItem", "ValidationReport",
    "kraus_model", "lindblad_model", "stochastic_model",
    "validate_model", "effective_drift",
    "heisenberg_superoperator", "predual_superoperator", "apply_map",
    "stochastic_kraus_ops",
]

KIND_KRAUS = "kraus"
KIND_LINDBLAD = "lindblad"
KIND_STOCHASTIC = "stochastic"
_KINDS = (KIND_KRAUS, KIND_LINDBLAD, KIND_STOCHASTIC)

HEISENBERG = "heisenberg"
SCHRODINGER = "schrodinger"
DISCRETE_STEP = "discrete_step"
CONTINUOUS_GENERATOR = "continuous_generator"

# Default seed for every randomized search, derived from the ASCII bytes
# "QDS1" so reports are reproducible out of the box.
DEFAULT_SEED = int.from_bytes(b"QDS1", "big")


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances threaded through the whole package.

    rank_tol : relative singular-value / eigenvalue cutoff for ranks
    alg_tol  : residual norm accepted for algebraic identities
    conv_tol : convergence threshold for iterations and limits
    """

    rank_tol: float = 1e-9
    alg_tol: float = 1e-8
    conv_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_tol", "alg_tol", "conv_tol"):
            v = getattr(self, name)
            if not (0.0 < v < np.inf):
                raise StructuralError(
                    f"Tolerances.{name} must be finite and > 0, got {v}")
        if self.rank_tol >= 1.0:
            raise StructuralError("Tolerances.rank_tol must be < 1")


DEFAULT_TOL = Tolerances()


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuantumModel:
    """Immutable specification of a dynamical system.

    Construction checks shapes and finiteness only; algebraic invariants
    (unitality, stochasticity, hermiticity of H) are checked by
    :func:`validate_model`.
    """

    dim: int
    kind: str
    kraus_ops: tuple = ()
    hamiltonian: np.ndarray | None = None
    lindblad_ops: tuple = ()
    drift: np.ndarray | None = None
    stochastic_matrix: np.ndarray | None = None
    sub_markov: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise StructuralError(f"unknown model kind {self.kind!r}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise StructuralError("dim must be a positive integer")
        d = self.dim

        def check_shape(m, name):
            m = as_complex_matrix(m, name)
            if m.shape != (d, d):
                raise StructuralError(
                    f"{name}: expected shape ({d}, {d}), got {m.shape}")
            return _freeze(m)

        if self.kind == KIND_KRAUS:
            if not self.kraus_ops:
                raise StructuralError("kraus model needs at least one operator")
            ops = tuple(check_shape(k, f"kraus[{i}]")
                        for i, k in enumerate(self.kraus_ops))
            object.__setattr__(self, "kraus_ops", ops)
        elif self.kind == KIND_LINDBLAD:
            if self.hamiltonian is None:
                raise StructuralError("lindblad model needs a hamiltonian")
            h = check_shape(self.hamiltonian, "hamiltonian")
            object.__setattr__(self, "hamiltonian", h)
            ops = tuple(check_shape(l, f"lindblad[{i}]")
                        for i, l in enumerate(self.lindblad_ops))
            object.__setattr__(self, "lindblad_ops", ops)
            if self.drift is None:
                y = _drift_formula(h, ops)
            else:
                y = check_shape(self.drift, "drift")
            object.__setattr__(self, "drift", _freeze(y))
        else:
            if self.stochastic_matrix is None:
                raise StructuralError("stochastic model needs a matrix")
            p = as_complex_matrix(self.stochastic_matrix, "stochastic")
            if p.shape != (d, d):
                raise StructuralError(
                    f"stochastic: expected shape ({d}, {d}), got {p.shape}")
            if spectral_norm(p.imag) > 0:
                raise StructuralError("stochastic matrix must be real")
            object.__setattr__(self, "stochastic_matrix", _freeze(p.real))

    @property
    def time_kind(self):
        return CONTINUOUS_GENERATOR if self.kind == KIND_LINDBLAD else DISCRETE_STEP

    def generator_family(self):
        """Operators whose common invariant subspaces decide sub-harmonicity.

        Returns a list of (label, operator) pairs: the Kraus family for
        discrete models (stochastic models are embedded), (drift, jump
        operators) for lindblad models.
        """
        if self.kind == KIND_LINDBLAD:
            fam = [("Y", self.drift)]
            fam += [(f"L{k + 1}", op) for k, op in enumerate(self.lindblad_ops)]
            return fam
        ops = (self.kraus_ops if self.kind == KIND_KRAUS
               else stochastic_kraus_ops(self.stochastic_matrix))
        return [(f"K{k + 1}", op) for k, op in enumerate(ops)]

    def content_hash(self):
        """Hex digest identifying the model contents (report
        provenance)."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(str(self.dim).encode())
        h.update(b"submarkov" if self.sub_markov else b"")
        for _, op in self.generator_family():
            h.update(np.ascontiguousarray(op).tobytes())
        if self.kind == KIND_LINDBLAD:
            h.update(np.ascontiguousarray(self.hamiltonian).tobytes())
        return h.hexdigest()


def kraus_model(ops):
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    return QuantumModel(dim=int(ops[0].shape[0]), kind=KIND_KRAUS, kraus_ops=ops)


def lindblad_model(hamiltonian, lindblad_ops=(), drift=None):
    h = np.asarray(hamiltonian, dtype=complex)
    return QuantumModel(dim=int(h.shape[0]), kind=KIND_LINDBLAD,
                        hamiltonian=h,
                        lindblad_ops=tuple(np.asarray(l, dtype=complex)
                                           for l in lindblad_ops),
                        drift=drift)


def stochastic_model(matrix, sub_markov=False):
    p = np.asarray(matrix, dtype=float)
    return QuantumModel(dim=int(p.shape[0]), kind=KIND_STOCHASTIC,
                        stochastic_matrix=p, sub_markov=sub_markov)


def stochastic_kraus_ops(p):
    """Embedding of a stochastic matrix as a diagonal quantum channel:
    one Kraus operator sqrt(P[i, j]) |j><i| per positive entry, in
    row-major order, so that tau(diag f) = diag(P f).  Returned stacked
    as an (m, d, d) array."""
    p = np.asarray(p, dtype=float)
    i, j = np.nonzero(p > 0.0)
    ops = np.zeros((len(i), p.shape[0], p.shape[0]), dtype=complex)
    ops[np.arange(len(i)), j, i] = np.sqrt(p[i, j])
    return ops


def _drift_formula(h, lindblad_ops):
    acc = np.zeros_like(h)
    for l in lindblad_ops:
        acc = acc + dagger(l) @ l
    return -1j * h - 0.5 * acc


def effective_drift(hamiltonian, lindblad_ops, tol=DEFAULT_TOL):
    """Drift operator Y = -iH - (1/2) sum_k L_k^+ L_k.

    The returned Y satisfies the unitality identity
    Y + Y^+ + sum_k L_k^+ L_k = 0 exactly in exact arithmetic.
    Raises on a non-hermitian ``hamiltonian``.
    """
    h = as_complex_matrix(hamiltonian, "hamiltonian")
    if not is_hermitian(h, tol.alg_tol):
        raise StructuralError("hamiltonian must be hermitian")
    return _drift_formula(h, [as_complex_matrix(l, "lindblad") for l in lindblad_ops])


@dataclass(frozen=True)
class ValidationItem:
    name: str
    residual: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    items: tuple
    ok: bool

    def residual(self, name):
        for it in self.items:
            if it.name == name:
                return it.residual
        raise KeyError(name)


def validate_model(model, tol=DEFAULT_TOL):
    """Check the algebraic invariants of a model and report residuals.

    kraus:      sum_k l_k^+ l_k = 1
    lindblad:   H hermitian;  Y + Y^+ + sum_k L_k^+ L_k = 0
    stochastic: entries >= 0; row sums = 1 (<= 1 when ``sub_markov``)
    """
    d = model.dim
    items = []

    def add(name, residual, ok=None):
        residual = float(residual)
        items.append(ValidationItem(name, residual,
                                    residual <= tol.alg_tol if ok is None else ok))

    if model.kind == KIND_KRAUS:
        acc = sum(dagger(k) @ k for k in model.kraus_ops)
        add("kraus_unitality", spectral_norm(acc - np.eye(d)))
    elif model.kind == KIND_LINDBLAD:
        add("hamiltonian_hermitian",
            spectral_norm(model.hamiltonian - dagger(model.hamiltonian)))
        acc = sum((dagger(l) @ l for l in model.lindblad_ops),
                  np.zeros((d, d), dtype=complex))
        add("drift_unitality",
            spectral_norm(model.drift + dagger(model.drift) + acc))
    else:
        p = model.stochastic_matrix
        add("nonnegative_entries", max(0.0, float(-p.min())) if p.size else 0.0)
        row_sums = p.sum(axis=1)
        if model.sub_markov:
            # sub-stochastic compressions may lose mass but never gain it
            add("row_sums", float(np.max(row_sums - 1.0, initial=0.0)))
            deficit = float(np.max(1.0 - row_sums, initial=0.0))
            items.append(ValidationItem("row_sum_deficit", deficit, True))
        else:
            add("row_sums", float(np.max(np.abs(row_sums - 1.0))))

    ok = all(it.ok for it in items)
    return ValidationReport(items=tuple(items), ok=ok)


def _require_valid(model, tol):
    report = validate_model(model, tol)
    if not report.ok:
        bad = ", ".join(f"{it.name}={it.residual:.3g}" for it in report.items if not it.ok)
        raise ValidationFailure(f"invalid model: {bad}", report)
    return report


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on column-stacked d x d operators."""

    dim: int
    matrix: np.ndarray
    picture: str
    time_kind: str

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "superoperator")
        if m.shape != (self.dim ** 2, self.dim ** 2):
            raise StructuralError(
                f"superoperator: expected shape {(self.dim**2,)*2}, got {m.shape}")
        object.__setattr__(self, "matrix", _freeze(m))

    @cached_property
    def hermitian_basis_matrix(self):
        """U^+ S U, the matrix in the hermitian operator basis of
        :mod:`qds._linalg`, formed on first use.  Real (float64) when S
        preserves adjoints, read as max |Im| <= 1e-14 max |entry|, so that
        it factors with real LAPACK; complex otherwise."""
        return _freeze(real_hermitian_basis(self.matrix))


def _heisenberg_matrix(model, tol):
    """Validated Heisenberg-picture matrix: one kron per operator, or for
    an embedded chain P scattered onto the diagonal indices i (d + 1)."""
    _require_valid(model, tol)
    d = model.dim
    if model.kind == KIND_STOCHASTIC:
        # the values sqrt(P) sqrt(P) of the kron sum of the edge operators
        m = np.zeros((d * d, d * d), dtype=complex)
        i, j = np.nonzero(model.stochastic_matrix > 0.0)
        root = np.sqrt(model.stochastic_matrix[i, j])
        m[i * (d + 1), j * (d + 1)] = root * root
        return m
    if model.kind == KIND_LINDBLAD:
        eye = np.eye(d)
        y = model.drift
        m = np.kron(eye, dagger(y)) + np.kron(y.T, eye)
        ops = model.lindblad_ops
    else:
        m = np.zeros((d * d, d * d), dtype=complex)
        ops = model.kraus_ops
    for l in ops:
        m += np.kron(l.T, dagger(l))
    return m


def heisenberg_superoperator(model, tol=DEFAULT_TOL):
    """Matrix of the Heisenberg-picture map (or generator) of the model."""
    s = Superoperator(dim=model.dim, matrix=_heisenberg_matrix(model, tol),
                      picture=HEISENBERG, time_kind=model.time_kind)
    _check_unitality(s, model, tol)
    return s


def predual_superoperator(model, tol=DEFAULT_TOL):
    """Matrix of the Schrodinger-picture (predual) map or generator.

    Trace duality tr(rho tau(x)) = tr(tau_*(rho) x) makes it the conjugate
    transpose of the Heisenberg matrix under column-stacking."""
    return Superoperator(dim=model.dim,
                         matrix=dagger(_heisenberg_matrix(model, tol)),
                         picture=SCHRODINGER, time_kind=model.time_kind)


def _check_unitality(s, model, tol):
    if model.sub_markov:
        return
    one = vec(np.eye(s.dim))
    image = s.matrix @ one
    if s.time_kind == DISCRETE_STEP:
        resid = np.linalg.norm(image - one)
    else:
        resid = np.linalg.norm(image)
    # scaled by dim: the residual accumulates over d^2 entries
    if resid > 100 * tol.alg_tol * s.dim:
        raise ValidationFailure(
            f"heisenberg superoperator breaks unitality: residual {resid:.3g}")


def apply_map(superop, x, tol=DEFAULT_TOL):
    """Apply a superoperator to a d x d matrix (devectorized S vec(x)).

    The result is re-symmetrized when the input is hermitian, suppressing
    round-off drift; every object of interest here is hermitian.
    """
    x = as_complex_matrix(x, "operand")
    d = superop.dim
    if x.shape != (d, d):
        raise StructuralError(
            f"operand: expected shape ({d}, {d}), got {x.shape}")
    out = unvec(superop.matrix @ vec(x), d)
    if is_hermitian(x, tol.alg_tol):
        out = hermitize(out)
    return out
