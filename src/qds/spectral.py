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

Every split is read off the blocks of S in a frame (:func:`block_split`):
eigenvalues and kernels of block maps of size r_i r_j, and one solve on
the coordinates that involve the remainder.  The frame is a resolution's
once :func:`qds.resolution.resolve` has found two or more blocks, and
otherwise the whole space, whose one block is S.  Diagonal blocks T, and
S for the propagators' :func:`qds._linalg.expm` and ``matrix_power``, are
factored as U^+ T U in the orthonormal hermitian operator basis U of
:mod:`qds._linalg` (:attr:`Superoperator.hermitian_basis_matrix` for S),
with numpy alone.  The maps of a quantum dynamical semigroup preserve
adjoints, so these are real and numpy dispatches to the real LAPACK
drivers; one is taken as real when max |Im| <= 1e-14 max |entry|, which
every Kraus, Lindblad and chain matrix meets, and anything else runs
through the same code complex.  Results go back through U, so callers see
column-stacked matrices only.

Matrices derived from a model are formed once per (model, tolerances)
pair, on first use, in a record kept on the model (:func:`_derived`).
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    dagger, expm, from_hermitian_basis, hermitian_basis_columns, hermitize,
    real_hermitian_basis, spectral_norm, unvec, vec,
)
from .errors import ConvergenceError, CrossCheckError, StructuralError
from .models import (
    DEFAULT_TOL, DISCRETE_STEP, KIND_LINDBLAD, _freeze,
    heisenberg_superoperator, predual_superoperator,
)

__all__ = ["SpectralData", "spectral_split", "block_split",
           "evolve_heisenberg", "evolve_predual", "asymptotic_operator",
           "corner_invariant_state"]

# Radius used to group eigenvalues into clusters and to detect the
# peripheral set; pure numerics, independent of the user tolerances.
CLUSTER_TOL = 1e-7
# Largest model dimension at which a resolution's block split is also
# checked against the whole-space split.
DENSE_CHECK_DIM = 8


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectrum of a superoperator matrix and its ergodic
    (Cesaro) spectral projection E.

    eigenvalues[i] is the mean of cluster i and clusters[i] the indices of
    its members among the eigenvalues of ``matrix``, as the split listed
    them: block by block, in the order of the frame's block pairs.  E is
    stored factored as ``ergodic_right @ ergodic_rows``: the columns of
    ``ergodic_right`` span the right kernel of S - lambda_0 (lambda_0 the
    ergodic cluster's mean) and ``ergodic_rows`` is (L^+ R)^-1 L^+, with L
    spanning the left kernel; the columns of its adjoint span the left
    kernel too.

    The split is computed on the blocks of S in a frame (see the module
    docstring); both kernels are mapped back, so ``ergodic_right`` and
    ``ergodic_rows`` act on column-stacked vectors and ``matrix`` is S
    itself.

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


def _clustered(w, time_kind, tol):
    """The clustering fields of :class:`SpectralData` for the eigenvalues
    w: clusters with their means and sizes, the ergodic cluster (the one
    nearest the ergodic eigenvalue lambda_0, 1 for a discrete step and 0
    for a continuous generator) and the peripheral clusters."""
    clusters = _cluster_indices(w, CLUSTER_TOL)
    means = np.array([np.mean(w[c]) for c in clusters])
    ergodic_value = 1.0 if time_kind == DISCRETE_STEP else 0.0
    candidates = [i for i, mu in enumerate(means)
                  if abs(mu - ergodic_value) <= max(CLUSTER_TOL, 1e3 * tol.alg_tol)]
    if not candidates:
        raise StructuralError(
            "no ergodic eigenvalue found; the superoperator is not a valid "
            "unital map/generator")
    if time_kind == DISCRETE_STEP:
        edge = np.abs(np.abs(means) - 1.0)
    else:
        edge = np.abs(means.real)
    return dict(
        eigenvalues=means,
        multiplicities=np.array([len(c) for c in clusters]),
        clusters=tuple(clusters),
        peripheral=tuple(int(i) for i in np.flatnonzero(edge <= CLUSTER_TOL)),
        ergodic_index=min(candidates,
                          key=lambda i: abs(means[i] - ergodic_value)),
        time_kind=time_kind)


def _kernel_dim(s, tol, floor):
    """Number of singular values s (descending) at the rank cutoff,
    relative to the largest of them or to ``floor`` when that is larger."""
    top = max(float(s[0]), floor)
    if top == 0.0:
        return len(s)
    return int(np.sum(s <= max(tol.rank_tol, 1e-12) * top))


def spectral_split(superop, tol=DEFAULT_TOL):
    """Clustered spectrum and ergodic projection of a superoperator: its
    :func:`block_split` on the whole-space frame, one part spanning the
    space and no remainder.  Not cached: the split of a model's own
    superoperator is kept on the model (:func:`_derived`).
    """
    d = superop.dim
    return block_split(superop, (np.eye(d), np.zeros((d, 0))), tol)


def _conjugate_columns(m, w):
    """Each column of m, a column-stacked d x d matrix x, replaced by
    vec(w^+ x w): d x d products batched over the columns."""
    d = w.shape[0]
    # row c of m.T, read row-major as d x d, is x_c^T; the result's is
    # (w^+ x_c w)^T = w^T x_c^T conj(w), formed as two large products
    xw = m.T.reshape(-1, d) @ w.conj()
    out = w.T @ xw.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
    return out.reshape(d, -1, d).transpose(1, 0, 2).reshape(-1, d * d).T


def block_split(superop, frame, tol=DEFAULT_TOL):
    """Clustered spectrum and ergodic projection E of S, read off the
    blocks of S in a frame.

    ``frame`` holds orthonormal bases of the recurrent parts p_1 ... p_k
    and, last, of the remainder q = 1 - sum p_a (it may have no columns);
    side by side they form a unitary W.  The whole-space frame (one part,
    the identity, and no remainder) has S as its one block.  Each p_a is
    sub-harmonic, so every generator G has G p_a = p_a G p_a, and the
    (i, j) block of tau(x) depends only on the blocks (m, n) of x with
    m = i unless i is q, and n = j unless j is q.  In the frame,
    S' = Phi S Phi^+ with Phi vec(x) = vec(W^+ x W), formed by batched
    d x d products, is thus block lower-triangular when ordered as part
    pairs, then pairs with one q, then (q, q); and each part-pair block
    sees only itself.  The entries this sets to zero are measured first,
    and must stay below 100 ``alg_tol`` times the largest entry of S' (at
    least 1): the triangularity check.  Then

    * the eigenvalues are those of the diagonal block maps T_ij, i <= j,
      and their conjugates for T_ji: S preserves adjoints, so T_ji is
      T_ij conjugated by x -> x^+.  T_ii is factored as U^+ T_ii U, real,
      in the hermitian basis of :mod:`qds._linalg`.  Eigenvalues within
      ``CLUSTER_TOL`` of each other are grouped, and the cluster of the
      ergodic eigenvalue lambda_0 (1 for a discrete step, 0 for a
      continuous generator) is found;
    * q is transient, so lambda_0 is an eigenvalue of part-pair blocks
      only; one SVD of T_ab - lambda_0 (lambda_0 real where the block is)
      per part pair (a, b) holding members of the ergodic cluster gives
      its two kernels, mapped back through U for a = b, whose dimensions
      must add up to the cluster's size.  The rank cutoff is relative to
      the largest entry of S' when that exceeds the block's top singular
      value: the blocks of the identity map minus 1 are round-off;
    * the left kernel of S' - lambda_0 is zero on the coordinates that
      involve q, and a right kernel vector r extends to them by one solve
      of (S'_ZZ - lambda_0) z = -S'_ZP r.

    E = R (L^+ R)^-1 L^+ goes back through Phi^+ and must pass
    idempotency and left/right invariance checks against S itself.
    """
    d = superop.dim
    w = np.hstack(frame)
    q = len(frame) - 1
    label = np.repeat(np.arange(len(frame)), [b.shape[1] for b in frame])
    # on the whole-space frame S' is S, with nothing to conjugate or check
    whole = q == 1 and np.array_equal(frame[0], np.eye(d))
    sp = superop.matrix if whole else dagger(_conjugate_columns(
        dagger(_conjugate_columns(superop.matrix, w)), w))
    scale = float(np.abs(sp).max())
    if not whole:
        _check_triangular(sp, label, q, scale, tol)

    # coordinates of block (i, j), column-stacked within the block
    axes = [np.flatnonzero(label == i) for i in range(len(frame))]
    coords = {(i, j): (axes[i][:, None] + d * axes[j]).ravel(order="F")
              for i in range(len(frame)) for j in range(len(frame))
              if axes[i].size and axes[j].size}
    pairs, values, diagonal = [], [], {}
    for (i, j), idx in coords.items():
        if i <= j:
            if whole:  # the one block, (0, 0), is S
                diagonal[i] = t = superop.hermitian_basis_matrix
            else:
                t = sp[idx[:, None], idx]
                if i == j:
                    diagonal[i] = t = real_hermitian_basis(t)
            # eig on a diagonal block, not eigvals: perfbench's isolation
            # guard counts the d^2-sized eig of each whole-space split
            v = np.linalg.eig(t)[0] if i == j else np.linalg.eigvals(t)
            pairs.append((i, j))
            values.append(v)
            if i != j:
                pairs.append((j, i))
                values.append(v.conj())
    fields = _clustered(np.concatenate(values).astype(complex),
                        superop.time_kind, tol)
    erg = fields["ergodic_index"]
    lam0 = fields["eigenvalues"][erg]
    k = int(fields["multiplicities"][erg])
    owner = np.repeat(np.arange(len(pairs)), [len(v) for v in values])
    members = np.bincount(owner[fields["clusters"][erg]], minlength=len(pairs))

    right = np.zeros((d * d, k), dtype=complex)
    left = np.zeros((d * d, k), dtype=complex)
    col = geo = 0
    for (a, b), m in zip(pairs, members):
        if m == 0 or q in (a, b):
            continue
        idx = coords[a, b]
        t = diagonal[a] if a == b else sp[idx[:, None], idx]
        shift = lam0.real if np.isrealobj(t) else lam0
        u, s, vh = np.linalg.svd(t - shift * np.eye(idx.size))
        geo += min(int(m), _kernel_dim(s, tol, scale))
        r, l = dagger(vh[idx.size - m:]), u[:, idx.size - m:]
        if a == b:
            r, l = hermitian_basis_columns(r), hermitian_basis_columns(l)
        right[idx, col:col + m], left[idx, col:col + m] = r, l
        col += m
    if geo < k:
        raise ConvergenceError(
            "non-diagonalizable peripheral part: the ergodic eigenvalue has a "
            f"Jordan block (algebraic {k}, geometric {geo})")
    z = np.flatnonzero((np.tile(label, d) == q) | (np.repeat(label, d) == q))
    if z.size:
        right[z] = np.linalg.solve(sp[z[:, None], z] - lam0 * np.eye(z.size),
                                   -(sp[z] @ right))
    rows = np.linalg.solve(dagger(left) @ right, dagger(left))

    back = dagger(w)
    data = SpectralData(
        **fields, matrix=superop.matrix,
        ergodic_right=right if whole else _conjugate_columns(right, back),
        ergodic_rows=rows if whole else dagger(
            _conjugate_columns(dagger(rows), back)))
    _check_ergodic_projection(data, lam0)
    return data


def _check_triangular(sp, label, q, scale, tol):
    """The entries of the frame matrix S' that the sub-harmonicity of the
    parts sets to zero: row block (i, j) sees column block (m, n) only if
    m = i or i = q, and n = j or j = q."""
    d = label.size
    sees = (label[:, None] == label) | (label[:, None] == q)
    # S'[a + d b, c + d e] sits at [b, a, e, c]
    zero = ~(sees[None, :, None, :] & sees[:, None, :, None])
    residual = float(np.abs(sp.reshape(d, d, d, d)[zero]).max(initial=0.0))
    gate = 100.0 * tol.alg_tol * max(1.0, scale)
    if not residual <= gate:
        raise CrossCheckError(
            "spectral split: triangularity check failed, the resolution's "
            f"frame leaves {residual:.3g} > {gate:.3g} where sub-harmonic "
            "parts make S block-triangular")


def _check_against_dense(block, dense):
    """A resolution's block split against the whole-space (dense) split
    of the same S: the same clusters (means within ``CLUSTER_TOL``,
    multiplicities, peripheral set, ergodic cluster) and the same E on
    the probe vector, to 1e-10."""
    means = dense.eigenvalues
    match = [int(np.argmin(np.abs(means - mu))) for mu in block.eigenvalues]
    same = (
        sorted(match) == list(range(len(means)))
        and match[block.ergodic_index] == dense.ergodic_index
        and all(abs(means[j] - mu) <= CLUSTER_TOL
                and dense.multiplicities[j] == block.multiplicities[i]
                and (j in dense.peripheral) == (i in block.peripheral)
                for i, (mu, j) in enumerate(zip(block.eigenvalues, match))))
    probe = probe_vec(block.matrix.shape[0])
    want = dense.apply_ergodic(probe)
    off = float(np.linalg.norm(block.apply_ergodic(probe) - want))
    if not same or not off <= 1e-10 * max(1.0, np.linalg.norm(want)):
        raise CrossCheckError(
            "spectral split: the block split disagrees with the dense split "
            f"(same clusters: {same}; E on the probe differs by {off:.3g})")


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


def check_time(t):
    """Reject an evolution time that is negative or not finite."""
    if t < 0:
        raise StructuralError("negative time")
    if not math.isfinite(t):
        raise StructuralError(f"time must be finite, got {t}")


def _propagator(superop, model, t=None, n=None):
    """Matrix of the evolution over time t (continuous models, the
    exponential of the generator) or n steps (discrete, the n-th power),
    formed on A = U^+ S U and mapped back to column-stacked form."""
    if model.kind == KIND_LINDBLAD:
        if t is None or n is not None:
            raise StructuralError("continuous-time model: pass t, not n")
        check_time(t)
        return from_hermitian_basis(
            expm(float(t) * superop.hermitian_basis_matrix))
    if n is None or t is not None:
        raise StructuralError("discrete-time model: pass n, not t")
    check_time(n)
    if n != int(n):
        raise StructuralError(f"step count must be an integer, got {n}")
    return from_hermitian_basis(
        np.linalg.matrix_power(superop.hermitian_basis_matrix, int(n)))


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
    family, each formed on first use.  S keeps its hermitian-basis matrix
    A, so the split, the step and the horizon form A once between them."""

    # Orthonormal bases of a resolution's parts and, last, of its
    # remainder; set by :func:`qds.resolution.resolve` before it first
    # reads the split.
    frame = None

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
        """:func:`block_split` on ``frame`` when it has two or more
        blocks, checked against the whole-space split
        (:func:`spectral_split`) up to dimension ``DENSE_CHECK_DIM``; the
        whole-space split otherwise."""
        if self.frame is None or sum(b.shape[1] > 0 for b in self.frame) < 2:
            return spectral_split(self.superop, self.tol)
        data = block_split(self.superop, self.frame, self.tol)
        if self.model.dim <= DENSE_CHECK_DIM:
            _check_against_dense(data, spectral_split(self.superop, self.tol))
        return data

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
    from .projections import as_projection, is_subharmonic

    p_obj = as_projection(p, tol)
    p_mat = p_obj.matrix
    verdict = is_subharmonic(model, p_obj, tol)
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


def _predual_ergodic_state(data, d, tol):
    """E^+ vec(1/d), the invariant state of maximal support."""
    return _predual_limit_state(data, np.eye(d) / d, tol)


def _predual_limit_state(data, rho0, tol):
    """E^+ vec(rho0) for a state rho0, renormalised to trace one, checked
    PSD and with round-off negatives clipped so that downstream range
    projections are clean."""
    d = rho0.shape[0]
    rho = hermitize(unvec(data.apply_ergodic_adjoint(vec(rho0)), d))
    tr = float(np.trace(rho).real)
    if tr <= tol.rank_tol:
        raise ConvergenceError(
            "predual ergodic projection lost all trace; no invariant state "
            "found (impossible for a valid unital model)")
    rho = rho / tr
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] < -100 * tol.alg_tol:
        raise ConvergenceError(
            f"ergodic state is not PSD (min eig {vals[0]:.3g})")
    rho = vecs @ np.diag(np.clip(vals, 0.0, None)) @ dagger(vecs)
    return hermitize(rho / np.trace(rho).real)


def corner_invariant_state(model, p, tol=DEFAULT_TOL):
    """(state, support rank) of the invariant state of maximal support
    below a sub-harmonic p: E^+ (p / rank p) on the model's one split.
    The predual keeps states on p, as tr(tau_*(s)(1 - p)) =
    tr(s tau(1 - p)) <= tr(s(1 - p)) = 0; a limit leaving p by more than
    ``alg_tol`` raises, and is otherwise compressed to p exactly.
    """
    from .projections import as_projection, range_projection

    p_obj = as_projection(p, tol)
    if p_obj.rank == 0:
        raise StructuralError("the zero projection carries no state")
    p_mat = p_obj.matrix
    rho = _predual_limit_state(_derived(model, tol).split,
                               p_mat / p_obj.rank, tol)
    inside = p_mat @ rho @ p_mat
    leak = spectral_norm(rho - inside)
    if leak > tol.alg_tol:
        raise CrossCheckError(
            "invariant state leaves its sub-harmonic corner (norm "
            f"{leak:.3g} outside p)")
    rho = hermitize(inside) / np.trace(inside).real
    return rho, range_projection(rho, tol).rank
