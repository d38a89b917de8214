"""Dense linear-algebra helpers shared across the package.

All matrices are numpy ``complex128`` arrays, and a family of operators
is an (m, d, d) stack.  Vectorization is column-stacking:
``vec(A X B) = (B^T kron A) vec(X)``.
"""

import numpy as np

__all__ = [
    "dagger", "hermitize", "vec", "unvec", "spectral_norm", "trace_norm",
    "min_eig", "is_hermitian", "as_complex_matrix", "orthonormal_columns",
    "invariant_closure", "seed_sequence",
]


def seed_sequence(seed):
    """Normalize an int / SeedSequence seed argument."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


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
    from .errors import StructuralError

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
