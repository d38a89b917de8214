"""Dense linear-algebra helpers shared across the package.

All matrices are numpy ``complex128`` arrays, and a family of operators
is an (m, d, d) stack.  Vectorization is column-stacking:
``vec(A X B) = (B^T kron A) vec(X)``.

The hermitian operator basis.  U is the unitary d^2 x d^2 matrix whose
columns are the vectorized hermitian matrices, orthonormal in the
Hilbert-Schmidt inner product, in this order: E_ii (i < d), then
(E_ij + E_ji)/sqrt(2) and then i (E_ij - E_ji)/sqrt(2), each over the
pairs i < j in ``np.triu_indices`` order.  A superoperator S that preserves
adjoints, S(x^+) = S(x)^+, maps hermitian to hermitian matrices, so
U^+ S U is a real matrix.  :func:`to_hermitian_basis`,
:func:`from_hermitian_basis` and :func:`hermitian_basis_columns` apply
U^+ M U, U C U^+ and U C as O(d^4) gathers on index arrays cached per d,
with no dense U: every column of U has at most two nonzeros.  Where two
factors 1/sqrt(2) meet, their product is applied as exactly 1/2, so the
identity and a diagonal (embedded chain) map transform bit-exactly.

:func:`expm` (the matrix exponential, by scaling and squaring with a Pade
approximant) and :func:`reachability` (the transitive closure of a
digraph) are written on numpy, the package's only runtime dependency.
"""

import functools
import math

import numpy as np

from .errors import StructuralError

__all__ = [
    "dagger", "hermitize", "vec", "unvec", "spectral_norm", "trace_norm",
    "min_eig", "is_hermitian", "as_complex_matrix", "orthonormal_columns",
    "invariant_closure", "seed_sequence", "to_hermitian_basis",
    "real_hermitian_basis", "from_hermitian_basis",
    "hermitian_basis_columns", "expm",
    "reachability",
]

_HALF_ROOT = math.sqrt(0.5)


def seed_sequence(seed):
    """A non-negative integer or a SeedSequence seed, as a SeedSequence.

    A SeedSequence is copied, so spawning from the result leaves the
    caller's object as it was and the same seed gives the same run twice.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
    if (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and seed >= 0):
        return np.random.SeedSequence(int(seed))
    raise StructuralError(
        f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")


def dagger(a):
    return np.conj(a).T


def hermitize(a):
    return 0.5 * (a + dagger(a))


def vec(x):
    """Column-stacking vectorization of a square matrix."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, dim):
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def spectral_norm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def trace_norm(a):
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a), compute_uv=False)))


def min_eig(a):
    """Smallest eigenvalue of the hermitian part of ``a``."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def is_hermitian(a, tol):
    return spectral_norm(a - dagger(a)) <= tol


def as_complex_matrix(a, name="matrix"):
    """Coerce to a finite complex128 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise StructuralError(f"{name}: expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise StructuralError(f"{name}: entries must be finite")
    return m


def orthonormal_columns(cols, rank_tol):
    """Orthonormal basis for the column space of ``cols``.

    Uses an SVD with relative cutoff ``rank_tol`` on the singular values.
    Returns a ``d x r`` array (possibly r = 0).
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2 or cols.shape[1] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    r = int(np.sum(s > rank_tol * s[0]))
    return u[:, :r]


def invariant_closure(generators, start_basis, rank_tol):
    """Smallest subspace containing ``start_basis`` and invariant under
    every operator of the (m, d, d) stack ``generators``.

    Block Krylov iteration: each round applies every generator to the
    directions added in the last round in one product, drops images of
    norm <= ``rank_tol``, normalises the rest, projects out the current
    basis twice and keeps the directions whose singular values exceed
    ``rank_tol``; so an image w adds a direction when its residual exceeds
    rank_tol * ||w||.  Terminates in at most ``d`` rounds.
    """
    basis = np.asarray(start_basis, dtype=complex)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1)
    basis = orthonormal_columns(basis, rank_tol)
    d = basis.shape[0]
    new = basis
    while new.shape[1] and basis.shape[1] < d:
        images = np.matmul(generators, new).transpose(1, 0, 2).reshape(d, -1)
        norms = np.linalg.norm(images, axis=0)
        keep = norms > rank_tol
        w = images[:, keep] / norms[keep]
        for _ in range(2):
            w = w - basis @ (dagger(basis) @ w)
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        new = u[:, :min(int(np.sum(s > rank_tol)), d - basis.shape[1])]
        basis = np.hstack([basis, new])
    return basis


def reachability(edges):
    """Reflexive-transitive closure of a boolean d x d adjacency matrix:
    entry (i, j) says that j is reachable from i in zero or more steps.
    The adjacency plus the identity, squared until it stops changing:
    about log2(L) squarings when the longest shortest path has L steps."""
    reach = np.asarray(edges, dtype=bool) | np.eye(len(edges), dtype=bool)
    while True:
        step = reach.astype(float)
        wider = step @ step > 0.0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


@functools.lru_cache(maxsize=64)
def _hermitian_basis(d):
    """Index arrays and factors of U for dimension d.

    ``order`` lists the column-stacked positions of E_ii, then of E_ij and
    then of E_ji (i < j, row-major), and ``inverse`` undoes it.  U is the
    permutation ``order``, then (p, q) -> (p + q, p - q) on the two
    off-diagonal blocks, then a diagonal D of 1, 1/sqrt(2) and 1j/sqrt(2)
    on the diagonal, symmetric and anti-symmetric coordinates.  U^+ M U scales
    entry (r, c) by conj(D_r) D_c, formed as ``rows[r] * cols[c]``.
    ``cols`` holds 0.5/sqrt(2) where ``rows`` holds 1/sqrt(2): the two
    differ by 1 ulp, and their product rounds to exactly 1/2.
    """
    i, j = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    order = np.concatenate([np.arange(d) * (d + 1), i + d * j, j + d * i])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    h = (order.size + d) // 2
    root = 0.5 / _HALF_ROOT
    rows = np.ones(order.size, dtype=complex)
    cols = np.ones(order.size, dtype=complex)
    rows[d:h], rows[h:] = _HALF_ROOT, -1j * _HALF_ROOT
    cols[d:h], cols[h:] = root, 1j * root
    basis = (order, inverse, rows, cols)
    for a in basis:
        a.flags.writeable = False
    return basis


def _mix_rows(k, d):
    """In place: rows (p, q) of the two off-diagonal blocks to
    (p + q, p - q)."""
    h = (k.shape[0] + d) // 2
    p, q = k[d:h], k[h:]
    t = p + q
    np.subtract(p, q, out=q)
    p[...] = t


def to_hermitian_basis(m):
    """U^+ M U for a d^2 x d^2 matrix M (complex result)."""
    d = math.isqrt(m.shape[0])
    order, _, rows, cols = _hermitian_basis(d)
    k = np.asarray(m, dtype=complex)[order][:, order]
    _mix_rows(k, d)
    _mix_rows(k.T, d)
    k *= rows[:, None] * cols
    return k


def real_hermitian_basis(m):
    """U^+ M U, real (float64) when its imaginary part is at most 1e-14 of
    its largest entry, as for a map that preserves adjoints; complex
    otherwise."""
    a = to_hermitian_basis(m)
    if np.abs(a.imag).max() <= 1e-14 * np.abs(a).max():
        a = a.real
    return a


def from_hermitian_basis(c):
    """U C U^+ for a d^2 x d^2 matrix C, the inverse of
    :func:`to_hermitian_basis` (complex result)."""
    d = math.isqrt(c.shape[0])
    _, inverse, rows, cols = _hermitian_basis(d)
    k = c * (rows.conj()[:, None] * cols.conj())
    _mix_rows(k, d)
    _mix_rows(k.T, d)
    return k[inverse][:, inverse]


def hermitian_basis_columns(c):
    """U C for a d^2 x k matrix C of basis coordinates: its columns as
    column-stacked vectors (complex result)."""
    d = math.isqrt(c.shape[0])
    _, inverse, rows, _ = _hermitian_basis(d)
    k = c * rows.conj()[:, None]
    _mix_rows(k, d)
    return k.take(inverse, 0)


# Degree m -> (theta_m, Pade coefficients b_0..b_m): the [m/m] approximant
# of exp has backward error below the unit roundoff of double precision
# for ||A||_1 <= theta_m (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE = {
    3: (1.495585217958292e-2, (120., 60., 12., 1.)),
    5: (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    7: (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200.,
                               25200., 1512., 56., 1.)),
    9: (2.097847961257068e0, (17643225600., 8821612800., 2075673600.,
                              302702400., 30270240., 2162160., 110880.,
                              3960., 90., 1.)),
    13: (5.371920351148152e0, (
        64764752532480000., 32382376266240000., 7771770303897600.,
        1187353796428800., 129060195264000., 10559470521600.,
        670442572800., 33522128640., 1323241920., 40840800., 960960.,
        16380., 182., 1.)),
}


def expm(a):
    """Matrix exponential of a square matrix; real input gives a real
    result.

    Scaling and squaring (Higham 2005): the lowest Pade degree m in
    {3, 5, 7, 9} whose theta_m bounds ||A||_1, else degree 13 on
    A / 2^s with the least s that brings the norm under theta_13, and
    the approximant squared s times.  r_m = (V - U)^-1 (V + U), with U
    and V the odd and even parts of the numerator.
    """
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise StructuralError("expm: entries must be finite")
    m = next((k for k in (3, 5, 7, 9) if norm <= _PADE[k][0]), 13)
    s = 0
    if m == 13 and norm > _PADE[13][0]:
        s = math.ceil(math.log2(norm / _PADE[13][0]))
        a = a * 2.0 ** -s
    b = _PADE[m][1]
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        powers = [ident, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
