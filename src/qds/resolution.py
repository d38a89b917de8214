"""Recurrent/metastable structure of a dynamical semigroup.

The central operation is :func:`resolve`, which peels off minimal
sub-harmonic (recurrent) projections one at a time: find a minimal one,
take the limit operator y of the accumulated sum, cut away the range of
y, and continue in the complement until nothing is left.  The output is
a commuting family of orthogonal recurrent projections plus a remainder
whose limit operator is injective.

Also provided: reachability closures (the adjoint-orbit criterion for
injectivity of y), transience certificates, projection classification,
and irreducibility via the commutant of the generator family, whose
projections are exactly the harmonic ones.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    dagger, hermitize, invariant_closure, seed_sequence, spectral_norm, unvec,
)
from .errors import ConvergenceError, CrossCheckError, StructuralError
from .models import DEFAULT_SEED, DEFAULT_TOL, KIND_STOCHASTIC
# Kept importable as ``qds.resolution.heisenberg_superoperator``: the
# benchmark's tracing test calls it through this module.
from .models import heisenberg_superoperator  # noqa: F401
from .projections import Projection, is_subharmonic, projection_basis, range_projection
from .spectral import _derived, asymptotic_operator

__all__ = [
    "Classification", "ClassificationCertificate", "ResolutionResult",
    "ClosureResult", "TransienceResult",
    "reachability_closure", "is_transient_complement", "minimal_subharmonic",
    "classify_projection", "resolve", "commutant_dimension",
    "find_harmonic_projection", "is_irreducible",
]

LABEL_POSITIVE_RECURRENT = "positive_recurrent"
LABEL_NULL_RECURRENT = "null_recurrent"
LABEL_METASTABLE = "metastable"
LABEL_TRANSIENT = "transient"
LABEL_SUBHARMONIC_NONMINIMAL = "subharmonic_nonminimal"
LABEL_NOT_SUBHARMONIC = "not_subharmonic"


@dataclass(frozen=True)
class ClassificationCertificate:
    """Evidence backing a classification verdict."""

    subharmonic_residual: float | None = None
    witnesses: tuple = ()
    invariant_state: np.ndarray | None = None
    closure_dim: int | None = None
    min_eig_y: float | None = None
    complement_transient: bool | None = None
    complement_metastable: bool | None = None


@dataclass(frozen=True)
class Classification:
    label: str
    certificate: ClassificationCertificate


@dataclass(frozen=True)
class ClosureResult:
    basis: np.ndarray
    dim: int


@dataclass(frozen=True)
class TransienceResult:
    transient: bool
    metastable: bool
    min_eig_y: float
    closure_dim: int


@dataclass(frozen=True)
class ResolutionResult:
    recurrent_projections: tuple
    metastable_remainder: Projection
    y_total: np.ndarray
    certificates: tuple
    remainder_certificate: Classification
    seed: int


def reachability_closure(model, p, tol=DEFAULT_TOL):
    """Smallest subspace containing range(p) and invariant under the
    adjoints of all generators (Kraus operators, or drift and jumps).

    Injectivity of the limit operator y of a sub-harmonic p is equivalent
    to this closure being the whole space.
    """
    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    start = projection_basis(p_obj, tol)
    adjoints = _derived(model, tol).family.adjoints
    basis = invariant_closure(adjoints, start, tol.rank_tol)
    return ClosureResult(basis=basis, dim=int(basis.shape[1]))


def is_transient_complement(model, p, tol=DEFAULT_TOL):
    """Certify metastability/transience of the complement of a
    sub-harmonic projection by two independent routes.

    metastable(1-p)  <=>  reachability closure spans everything
                     <=>  min-eig(y) above the rank cutoff;
    both are computed and must agree.  transient(1-p) <=> y = 1; at
    finite dimension a metastable complement must also be transient and
    this is asserted.
    """
    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    d = model.dim
    verdict = is_subharmonic(model, p_obj, tol)
    if not verdict.verdict:
        raise StructuralError(
            f"projection is not sub-harmonic (residual {verdict.residual:.3g})")

    closure = reachability_closure(model, p_obj, tol)
    y = asymptotic_operator(model, p_obj, tol)
    min_eig_y = float(np.linalg.eigvalsh(y)[0])

    meta_reach = closure.dim == d
    meta_inj = min_eig_y > tol.rank_tol
    if meta_reach != meta_inj:
        raise CrossCheckError(
            "injectivity certificates disagree: reachability closure dim "
            f"{closure.dim}/{d} but min-eig(y) = {min_eig_y:.3g}")

    transient = spectral_norm(y - np.eye(d)) <= tol.alg_tol
    if meta_inj and not transient:
        raise CrossCheckError(
            "finite-dimensional collapse violated: y injective "
            f"(min eig {min_eig_y:.3g}) but ||y - 1|| = "
            f"{spectral_norm(y - np.eye(d)):.3g}")
    return TransienceResult(transient=transient, metastable=meta_inj,
                            min_eig_y=min_eig_y, closure_dim=closure.dim)


def _smaller_invariant_subspace(ops, basis, rng, tol, n_random=2,
                                use_eigenvectors=True):
    """Look for a strictly smaller common invariant subspace inside the
    span of ``basis`` (assumed invariant under the (m, d, d) stack
    ``ops``).

    Candidate starting vectors are seeded random interior vectors first
    (so fully degenerate families split in a seed-dependent way) followed
    by the eigenvectors of a generic random combination of the restricted
    generators, ordered by descending eigenvalue modulus.  Returns the
    smaller invariant basis in full coordinates, or None.
    """
    m = basis.shape[1]
    if m <= 1:
        return None
    ops_r = dagger(basis) @ ops @ basis
    candidates = []
    for _ in range(n_random):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        candidates.append(v / np.linalg.norm(v))
    if use_eigenvectors:
        coeffs = rng.standard_normal(len(ops_r)) + 1j * rng.standard_normal(len(ops_r))
        gen = sum(c * g for c, g in zip(coeffs, ops_r))
        w, vecs = np.linalg.eig(gen)
        for idx in np.argsort(-np.abs(w)):
            candidates.append(vecs[:, idx])

    best_dim = m
    best = None
    for v in candidates:
        closure = invariant_closure(ops_r, v.reshape(m, 1), tol.rank_tol)
        if closure.shape[1] < best_dim:
            best_dim = closure.shape[1]
            best = closure
    if best is None:
        return None
    return basis @ best


def minimal_subharmonic(model, within, seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                        max_retries=4):
    """A minimal sub-harmonic projection below ``within``.

    Descends through strictly smaller common invariant subspaces of the
    generator family until none is found, then certifies minimality with
    eight random interior vectors whose forward orbit closures must all
    recover the candidate subspace.  Deterministic for a fixed seed; the
    decomposition itself is genuinely non-unique across seeds for
    degenerate dynamics.
    """
    within_obj = (within if isinstance(within, Projection)
                  else Projection.from_matrix(within, tol))
    if within_obj.rank == 0:
        raise StructuralError("'within' must be a nonzero projection")
    verdict = is_subharmonic(model, within_obj, tol)
    if not verdict.verdict:
        raise StructuralError(
            "'within' must be sub-harmonic "
            f"(residual {verdict.residual:.3g})")

    ops = _derived(model, tol).family.ops
    seed_seq = seed_sequence(seed)

    for attempt_seed in seed_seq.spawn(max_retries):
        rng = np.random.default_rng(attempt_seed)
        basis = projection_basis(within_obj, tol)
        while True:
            smaller = _smaller_invariant_subspace(ops, basis, rng, tol)
            if smaller is None:
                break
            basis = smaller
        # certify: random interior orbits must fill the candidate subspace
        smaller = _smaller_invariant_subspace(
            ops, basis, rng, tol, n_random=8, use_eigenvectors=False)
        if smaller is not None:
            continue
        candidate = Projection.from_basis(basis)
        if is_subharmonic(model, candidate, tol).verdict:
            return candidate
    raise ConvergenceError(
        f"minimality not certified after {max_retries} reseedings")


def classify_projection(model, p, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Classify a projection for the dynamics.

    not sub-harmonic -> ``not_subharmonic``; sub-harmonic but containing
    a strictly smaller invariant subspace -> ``subharmonic_nonminimal``;
    minimal -> ``positive_recurrent`` when an invariant state with
    support exactly p exists.  Null recurrence cannot occur at finite
    dimension; hitting it raises instead of returning.
    """
    p_obj = p if isinstance(p, Projection) else Projection.from_matrix(p, tol)
    verdict = is_subharmonic(model, p_obj, tol)
    if not verdict.verdict:
        return Classification(
            label=LABEL_NOT_SUBHARMONIC,
            certificate=ClassificationCertificate(
                subharmonic_residual=verdict.residual,
                witnesses=verdict.witnesses))

    trans = is_transient_complement(model, p_obj, tol)
    rng = np.random.default_rng(seed_sequence(seed))
    basis = projection_basis(p_obj, tol)
    smaller = _smaller_invariant_subspace(
        _derived(model, tol).family.ops, basis, rng, tol, n_random=8)
    cert = ClassificationCertificate(
        subharmonic_residual=verdict.residual,
        closure_dim=trans.closure_dim, min_eig_y=trans.min_eig_y,
        complement_transient=trans.transient,
        complement_metastable=trans.metastable)
    if smaller is not None:
        return Classification(label=LABEL_SUBHARMONIC_NONMINIMAL, certificate=cert)

    from .ergodicity import corner_invariant_state

    state, support_rank = corner_invariant_state(model, p_obj, tol)
    if support_rank != p_obj.rank:
        raise CrossCheckError(
            "null recurrence detected at finite dimension -- contradicts "
            "finite-dimensional theory, numerical failure "
            f"(support rank {support_rank} of invariant state inside a "
            f"minimal projection of rank {p_obj.rank})")
    cert = ClassificationCertificate(
        subharmonic_residual=verdict.residual, invariant_state=state,
        closure_dim=trans.closure_dim, min_eig_y=trans.min_eig_y,
        complement_transient=trans.transient,
        complement_metastable=trans.metastable)
    return Classification(label=LABEL_POSITIVE_RECURRENT, certificate=cert)


def _snap_to_diagonal(p, model, tol):
    """Round a projection of an embedded classical chain to its diagonal
    indicator form; raise if genuinely non-diagonal."""
    off = p.matrix - np.diag(np.diag(p.matrix))
    if spectral_norm(off) > max(tol.alg_tol, 1e-7):
        raise CrossCheckError(
            "embedded classical chain produced a non-diagonal recurrent "
            f"projection (off-diagonal mass {spectral_norm(off):.3g})")
    support = [i for i in range(p.dim) if p.matrix[i, i].real >= 0.5]
    snapped = Projection.onto_states(p.dim, support)
    if snapped.rank != p.rank:
        raise CrossCheckError(
            "diagonal snapping changed the rank of a recurrent projection")
    return snapped


def _ordering_key(p):
    rounded = np.round(p.matrix, 9)
    flat = []
    for entry in rounded.ravel():
        flat.extend((float(entry.real) + 0.0, float(entry.imag) + 0.0))
    return (-p.rank, tuple(flat))


def resolve(model, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Orthogonal recurrent projections plus a metastable remainder.

    Loop: pick a minimal sub-harmonic projection inside the current
    complement, compute the limit operator y of the accumulated sum, cut
    the complement down to the kernel side of y, repeat until the
    complement is empty.  Each returned projection is certified positive
    recurrent; the remainder's limit operator is injective (and equal to
    the identity at finite dimension).  Deterministic for a fixed seed.
    On stochastic models the supports are cross-checked against the
    strongly-connected-component oracle and disagreement raises.
    """
    d = model.dim
    children = seed_sequence(seed).spawn(2 * d + 2)

    remainder = Projection.identity(d)
    parts = []
    y_total = np.eye(d, dtype=complex)
    for iteration in range(d + 1):
        if remainder.rank == 0:
            break
        if iteration == d and remainder.rank > 0:
            raise ConvergenceError(
                "resolution loop exceeded the space dimension")
        p_i = minimal_subharmonic(model, remainder, seed=children[iteration],
                                  tol=tol)
        if model.kind == KIND_STOCHASTIC:
            p_i = _snap_to_diagonal(p_i, model, tol)
        parts.append(p_i)
        acc = Projection.from_matrix(
            sum(p.matrix for p in parts), tol)
        y_total = asymptotic_operator(model, acc, tol)
        q_i = range_projection(y_total, tol)
        remainder = Projection.from_matrix(np.eye(d) - q_i.matrix, tol)

    acc_matrix = sum(p.matrix for p in parts)
    q = Projection.from_matrix(np.eye(d) - acc_matrix, tol)

    _check_resolution_invariants(parts, q, y_total, d, tol)

    order = sorted(range(len(parts)), key=lambda i: _ordering_key(parts[i]))
    parts = [parts[i] for i in order]
    certificates = []
    for i, p_i in enumerate(parts):
        cls = classify_projection(model, p_i, tol, seed=children[d + 1 + i])
        if cls.label != LABEL_POSITIVE_RECURRENT:
            raise CrossCheckError(
                f"recurrent projection classified as {cls.label}; "
                "numerical failure in the resolution")
        certificates.append(cls)

    acc = Projection.from_matrix(acc_matrix, tol)
    trans = is_transient_complement(model, acc, tol)
    remainder_certificate = Classification(
        label=LABEL_TRANSIENT if trans.transient else LABEL_METASTABLE,
        certificate=ClassificationCertificate(
            min_eig_y=trans.min_eig_y, closure_dim=trans.closure_dim,
            complement_transient=trans.transient,
            complement_metastable=trans.metastable))

    result = ResolutionResult(
        recurrent_projections=tuple(parts), metastable_remainder=q,
        y_total=y_total, certificates=tuple(certificates),
        remainder_certificate=remainder_certificate,
        seed=seed if isinstance(seed, int) else -1)

    if model.kind == KIND_STOCHASTIC:
        _cross_check_classical(model, result, tol)
    return result


def _check_resolution_invariants(parts, q, y_total, d, tol):
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            cross = spectral_norm(parts[i].matrix @ parts[j].matrix)
            if cross > tol.alg_tol:
                raise CrossCheckError(
                    f"recurrent projections {i} and {j} are not orthogonal "
                    f"(product norm {cross:.3g})")
    total = sum(p.matrix for p in parts) + q.matrix
    if spectral_norm(total - np.eye(d)) > tol.alg_tol:
        raise CrossCheckError("resolution does not sum to the identity")
    min_eig_y = float(np.linalg.eigvalsh(hermitize(y_total))[0])
    if min_eig_y <= tol.rank_tol:
        raise CrossCheckError(
            f"limit operator of the recurrent sum is not injective "
            f"(min eig {min_eig_y:.3g})")


def _cross_check_classical(model, result, tol):
    from .classical import classical_classify, support_comparison

    agree, detail = support_comparison(
        result, classical_classify(model.stochastic_matrix, tol))
    if not agree:
        raise CrossCheckError(
            "resolution disagrees with the classical classification: "
            f"resolved supports {detail['resolved_supports']} vs closed "
            f"classes {detail['closed_classes']}; remainder "
            f"{detail['resolved_transient']} vs transient "
            f"{detail['transient_states']}")


def _commutant_basis(model, tol):
    """Orthonormal columns spanning the vectorized commutant of the
    generator family and its adjoints: the x with [x, G] = [x, G^+] = 0
    for every generator G."""
    d = model.dim
    eye = np.eye(d)
    # Zero equations are dropped (an embedded chain's edge generators keep
    # 2d - 1 each); the rest are folded into a square triangular factor
    # with the same singular values, so memory stays O(d^4).
    family = _derived(model, tol).family
    rows = []
    for g, g_adj in zip(family.ops, family.adjoints):
        for h in (g, g_adj):
            eq = np.kron(h.T, eye) - np.kron(eye, h)
            rows.append(eq[np.any(eq != 0, axis=1)])
        if sum(len(b) for b in rows) > 2 * d * d:
            rows = [np.linalg.qr(np.vstack(rows), mode="r")]
    _, s, vh = np.linalg.svd(np.vstack(rows))
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > max(tol.rank_tol * scale, 1e-12)))
    return dagger(vh[rank:])


def commutant_dimension(model, tol=DEFAULT_TOL):
    """Dimension of the commutant of the generator family and its adjoints
    (Kraus operators, or drift and jump operators).

    For a unital semigroup a projection p is harmonic iff it commutes with
    every generator: tau(p) = p forces sum |(1-p) G p|^2 = 0 and
    sum |p G (1-p)|^2 = 0.  The commutant is a *-algebra, so dimension one
    (scalars only) is equivalent to the absence of a non-trivial harmonic
    projection.
    """
    return _commutant_basis(model, tol).shape[1]


def find_harmonic_projection(model, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """A non-trivial harmonic projection, or None when there is none.

    The harmonic projections are the projections of the commutant (see
    :func:`commutant_dimension`); the spectral projection onto the top
    eigenvalue of a seeded generic hermitian element of it is one unless
    the commutant holds only the scalars.  The witness must also pass
    :func:`is_harmonic`, which applies the dynamics itself.
    """
    from .projections import is_harmonic

    basis = _commutant_basis(model, tol)
    if basis.shape[1] <= 1:
        return None
    rng = np.random.default_rng(seed_sequence(seed))
    coeffs = (rng.standard_normal(basis.shape[1])
              + 1j * rng.standard_normal(basis.shape[1]))
    vals, vecs = np.linalg.eigh(hermitize(unvec(basis @ coeffs, model.dim)))
    # an element of a block M_n (x) 1_m repeats each eigenvalue m times,
    # up to round-off
    witness = Projection.from_basis(vecs[:, vals >= vals[-1] - 1e-8])
    if not is_harmonic(model, witness, tol):
        raise CrossCheckError(
            "top spectral projection of a commutant element is not harmonic")
    return witness


def is_irreducible(model, tol=DEFAULT_TOL):
    """No non-trivial harmonic projection exists: the commutant of the
    generator family and its adjoints is the scalars."""
    return commutant_dimension(model, tol) == 1
