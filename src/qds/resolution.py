"""Recurrent/metastable structure of a dynamical semigroup.

The central operation is :func:`resolve`, which peels off minimal
sub-harmonic (recurrent) projections one at a time: find a minimal one,
cut away the reachability closure of the accumulated sum (the range of
its limit operator y), and continue in the complement until nothing is
left.  The output is a commuting family of orthogonal recurrent
projections plus a remainder whose limit operator is injective.

Minimality rests on one search: the descent stops when it finds nothing
(the certificate), and :func:`classify_projection` repeats it per part.

Also provided: reachability closures (the adjoint-orbit criterion for
injectivity of y), transience certificates, projection classification,
and irreducibility via the commutant of the generator family, whose
projections are exactly the harmonic ones.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import (
    dagger, hermitize, invariant_closure, seed_sequence, spectral_norm, unvec,
)
from .errors import (ConvergenceError, CrossCheckError, NotSubharmonicError,
                     StructuralError)
from .models import DEFAULT_SEED, DEFAULT_TOL, KIND_STOCHASTIC
# Kept importable as ``qds.resolution.heisenberg_superoperator``: the
# benchmark's tracing test calls it through this module.
from .models import heisenberg_superoperator  # noqa: F401
from .projections import (
    Projection, SubharmonicVerdict, as_projection, is_harmonic, is_subharmonic,
    projection_basis,
)
from .spectral import _derived, asymptotic_operator, corner_invariant_state

__all__ = [
    "Classification", "ClassificationCertificate", "ResolutionResult",
    "ClosureResult", "TransienceResult",
    "reachability_closure", "is_transient_complement", "minimal_subharmonic",
    "classify_projection", "resolve", "commutant_dimension",
    "find_harmonic_projection", "is_irreducible",
]

LABEL_POSITIVE_RECURRENT = "positive_recurrent"
LABEL_NULL_RECURRENT = "null_recurrent"
LABEL_TRANSIENT = "transient"
LABEL_SUBHARMONIC_NONMINIMAL = "subharmonic_nonminimal"
LABEL_NOT_SUBHARMONIC = "not_subharmonic"

# Seeds minimal_subharmonic tries while its candidate fails is_subharmonic.
MINIMALITY_RESEEDINGS = 4


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
    """A label with its certificate; ``subharmonic`` is the verdict of
    :func:`is_subharmonic` that :func:`classify_projection` started from."""

    label: str
    certificate: ClassificationCertificate
    subharmonic: SubharmonicVerdict | None = None


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
    y: np.ndarray


@dataclass(frozen=True)
class ResolutionResult:
    recurrent_projections: tuple
    metastable_remainder: Projection
    y_total: np.ndarray
    certificates: tuple
    remainder_certificate: Classification
    seed: int
    classical_comparison: dict | None = None


def reachability_closure(model, p, tol=DEFAULT_TOL):
    """Smallest subspace containing range(p) and invariant under the
    adjoints of all generators (Kraus operators, or drift and jumps).

    Injectivity of the limit operator y of a sub-harmonic p is equivalent
    to this closure being the whole space.
    """
    p_obj = as_projection(p, tol)
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
    this is asserted.  A p that is not sub-harmonic has no limit operator
    and raises :class:`StructuralError`.
    """
    return _transience(model, as_projection(p, tol), tol)


def _transience(model, p_obj, tol, closure=None):
    """:func:`is_transient_complement` of a :class:`Projection`, reusing
    its reachability ``closure`` when the caller holds it."""
    d = model.dim
    y = asymptotic_operator(model, p_obj, tol)
    if closure is None:
        closure = reachability_closure(model, p_obj, tol)
    min_eig_y = float(np.linalg.eigvalsh(y)[0])

    meta_reach = closure.dim == d
    meta_inj = min_eig_y > tol.rank_tol
    if meta_reach != meta_inj:
        raise CrossCheckError(
            "injectivity certificates disagree: reachability closure dim "
            f"{closure.dim}/{d} but min-eig(y) = {min_eig_y:.3g}")

    off_one = spectral_norm(y - np.eye(d))
    transient = off_one <= tol.alg_tol
    if meta_inj and not transient:
        raise CrossCheckError(
            "finite-dimensional collapse violated: y injective "
            f"(min eig {min_eig_y:.3g}) but ||y - 1|| = {off_one:.3g}")
    return TransienceResult(transient=transient, metastable=meta_inj,
                            min_eig_y=min_eig_y, closure_dim=closure.dim, y=y)


def _smaller_invariant_subspace(ops, basis, rng, tol):
    """Look for a strictly smaller common invariant subspace inside the
    span of ``basis`` (assumed invariant under the (m, d, d) stack
    ``ops``).

    The candidate starting vectors are two seeded random interior vectors
    (so that a family with no cyclic vector, such as the identity channel,
    splits in a seed-dependent way), then the eigenvectors of a seeded
    random combination of the restricted generators, ordered by descending
    eigenvalue modulus (a cyclic but reducible family is seen only by
    these).  Returns the smallest closure found when it is proper, in full
    coordinates, else None.
    """
    m = basis.shape[1]
    if m <= 1:
        return None
    ops_r = dagger(basis) @ ops @ basis
    candidates = []
    for _ in range(2):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        candidates.append(v / np.linalg.norm(v))
    coeffs = (rng.standard_normal(len(ops_r))
              + 1j * rng.standard_normal(len(ops_r)))
    gen = sum(c * g for c, g in zip(coeffs, ops_r))
    w, vecs = np.linalg.eig(gen)
    candidates.extend(vecs[:, np.argsort(-np.abs(w))].T)
    best = min((invariant_closure(ops_r, v.reshape(m, 1), tol.rank_tol)
                for v in candidates), key=lambda c: c.shape[1])
    return basis @ best if best.shape[1] < m else None


def minimal_subharmonic(model, within, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """A minimal sub-harmonic projection below ``within``.

    Descends through strictly smaller common invariant subspaces of the
    generator family until :func:`_smaller_invariant_subspace` finds none;
    that stopping test is the minimality certificate, since the vectors of
    a subspace whose orbit closures are proper are either all of it or a
    measure-zero algebraic subset, which no further random vector would
    hit.  A candidate that fails :func:`is_subharmonic` is dropped and the
    descent restarts from a fresh seed, up to ``MINIMALITY_RESEEDINGS``
    times.  Deterministic for a fixed seed; the decomposition itself is
    genuinely non-unique across seeds for degenerate dynamics.
    """
    within_obj = as_projection(within, tol)
    if within_obj.rank == 0:
        raise StructuralError("'within' must be a nonzero projection")
    verdict = is_subharmonic(model, within_obj, tol)
    if not verdict.verdict:
        raise NotSubharmonicError(
            f"'within' must be sub-harmonic (residual {verdict.residual:.3g})",
            verdict.residual)

    ops = _derived(model, tol).family.ops
    start = projection_basis(within_obj, tol)
    for attempt_seed in seed_sequence(seed).spawn(MINIMALITY_RESEEDINGS):
        rng = np.random.default_rng(attempt_seed)
        smaller = start
        while smaller is not None:
            basis = smaller
            smaller = _smaller_invariant_subspace(ops, basis, rng, tol)
        candidate = Projection.from_basis(basis)
        verdict = is_subharmonic(model, candidate, tol)
        if verdict.verdict:
            return candidate
    raise ConvergenceError(
        f"no minimal candidate passed is_subharmonic in "
        f"{MINIMALITY_RESEEDINGS} seeds (last residual "
        f"{verdict.residual:.3g} > alg_tol {tol.alg_tol:.3g})")


def classify_projection(model, p, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Classify a projection for the dynamics.

    not sub-harmonic -> ``not_subharmonic``; sub-harmonic but containing
    a strictly smaller invariant subspace, found by the descent's own
    search -> ``subharmonic_nonminimal``;
    minimal -> ``positive_recurrent`` when an invariant state with
    support exactly p exists, read off the model's own split by
    :func:`corner_invariant_state`.  Null recurrence cannot occur at finite
    dimension; hitting it raises instead of returning.
    """
    p_obj = as_projection(p, tol)
    verdict = is_subharmonic(model, p_obj, tol)
    if not verdict.verdict:
        return Classification(
            label=LABEL_NOT_SUBHARMONIC,
            certificate=ClassificationCertificate(
                subharmonic_residual=verdict.residual,
                witnesses=verdict.witnesses),
            subharmonic=verdict)

    trans = is_transient_complement(model, p_obj, tol)
    rng = np.random.default_rng(seed_sequence(seed))
    basis = projection_basis(p_obj, tol)
    smaller = _smaller_invariant_subspace(
        _derived(model, tol).family.ops, basis, rng, tol)
    cert = ClassificationCertificate(
        subharmonic_residual=verdict.residual,
        closure_dim=trans.closure_dim, min_eig_y=trans.min_eig_y,
        complement_transient=trans.transient,
        complement_metastable=trans.metastable)
    if smaller is not None:
        return Classification(label=LABEL_SUBHARMONIC_NONMINIMAL,
                              certificate=cert, subharmonic=verdict)

    state, support_rank = corner_invariant_state(model, p_obj, tol)
    if support_rank != p_obj.rank:
        raise CrossCheckError(
            "null recurrence detected at finite dimension -- contradicts "
            "finite-dimensional theory, numerical failure "
            f"(support rank {support_rank} of invariant state inside a "
            f"minimal projection of rank {p_obj.rank})")
    return Classification(
        label=LABEL_POSITIVE_RECURRENT,
        certificate=replace(cert, invariant_state=state), subharmonic=verdict)


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
    complement, then cut the complement down to the orthocomplement of
    the reachability closure of the accumulated sum (the range of its
    limit operator y), until the complement is empty.  Each returned
    projection is certified positive recurrent; y of their sum is formed
    once, for the remainder's certificate, and must be injective (and the
    identity at finite dimension).  Before that y is formed, the bases of
    the parts and of the remainder go on the model's derived record as
    the frame of its spectral split, which the loop has not read, so that
    the split is read block by block (:func:`qds.spectral.block_split`);
    the closure of the sum from the loop's last round is reused.
    Deterministic for a fixed seed.  On stochastic models the supports
    are cross-checked against the strongly-connected-component oracle and
    disagreement raises.
    """
    d = model.dim
    children = seed_sequence(seed).spawn(2 * d + 2)

    remainder = Projection.identity(d)
    parts = []
    for iteration in range(d + 1):
        if remainder.rank == 0:
            break
        if iteration == d:
            raise ConvergenceError(
                "resolution loop exceeded the space dimension")
        try:
            p_i = minimal_subharmonic(model, remainder,
                                      seed=children[iteration], tol=tol)
        except NotSubharmonicError as exc:
            raise CrossCheckError(
                f"resolve: the remainder after {len(parts)} part(s) fails "
                f"is_subharmonic (residual {exc.residual:.3g} > alg_tol "
                f"{tol.alg_tol:.3g})") from exc
        if model.kind == KIND_STOCHASTIC:
            p_i = _snap_to_diagonal(p_i, model, tol)
        parts.append(p_i)
        acc = Projection.from_matrix(sum(p.matrix for p in parts), tol)
        closure = reachability_closure(model, acc, tol)
        remainder = Projection.from_matrix(
            np.eye(d) - closure.basis @ dagger(closure.basis), tol)

    q = Projection.from_matrix(np.eye(d) - acc.matrix, tol)
    _check_resolution_invariants(parts, q, d, tol)
    _derived(model, tol).frame = _frame(parts, d)
    trans = _transience(model, acc, tol, closure)
    if not trans.metastable:
        raise CrossCheckError(
            "limit operator of the recurrent sum is not injective "
            f"(min eig {trans.min_eig_y:.3g})")

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

    # is_transient_complement has raised unless y = 1
    remainder_certificate = Classification(
        label=LABEL_TRANSIENT,
        certificate=ClassificationCertificate(
            min_eig_y=trans.min_eig_y, closure_dim=trans.closure_dim,
            complement_transient=trans.transient,
            complement_metastable=trans.metastable))

    result = ResolutionResult(
        recurrent_projections=tuple(parts), metastable_remainder=q,
        y_total=trans.y, certificates=tuple(certificates),
        remainder_certificate=remainder_certificate,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else -1)
    if model.kind == KIND_STOCHASTIC:
        comparison = _cross_check_classical(model, result, tol)
        result = replace(result, classical_comparison=comparison)
    return result


def _frame(parts, d):
    """Orthonormal bases of the parts and, last, of q = 1 - their sum,
    all from one ``eigh`` of sum_a (a + 1) p_a, so that side by side they
    form a unitary."""
    vals, vecs = np.linalg.eigh(sum((a + 1) * p.matrix
                                    for a, p in enumerate(parts)))
    block = np.rint(vals)
    return tuple(vecs[:, block == a + 1] for a in range(len(parts))) + (
        vecs[:, block == 0],)


def _check_resolution_invariants(parts, q, d, tol):
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


def _cross_check_classical(model, result, tol):
    """The SCC oracle's comparison, ``{"agree": True, **detail}``; raises
    on disagreement."""
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
    return {"agree": agree, **detail}


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
