"""Seeded random generators for models, states, and projections.

Used by the test-suite for property checks and by the benchmark's
workloads; every function takes a ``numpy.random.Generator``.
"""

import numpy as np

from ._linalg import dagger, hermitize
from .models import QuantumModel, kraus_model, lindblad_model
from .projections import Projection

__all__ = [
    "random_complex_matrix", "random_hermitian", "random_unitary",
    "random_density_matrix", "random_projection",
    "random_kraus_model", "random_lindblad_model",
    "random_stochastic_matrix", "structured_stochastic_matrix",
    "random_kraus_with_invariant_subspace",
    "random_lindblad_with_invariant_subspace",
    "random_block_diagonal_kraus", "random_block_diagonal_lindblad",
]


def random_complex_matrix(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim)))


def random_hermitian(rng, dim, scale=1.0):
    return hermitize(random_complex_matrix(rng, dim, scale))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng, dim):
    g = random_complex_matrix(rng, dim)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_projection(rng, dim, rank):
    q, _ = np.linalg.qr(random_complex_matrix(rng, dim))
    return Projection.from_basis(q[:, :rank])


def _normalize_kraus(ops):
    """Rescale a family so that sum_k l_k^+ l_k = 1 exactly."""
    s = sum(dagger(g) @ g for g in ops)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ dagger(vecs)
    return [g @ inv_sqrt for g in ops]


def random_kraus_model(rng, dim, n_ops=2):
    ops = _normalize_kraus([random_complex_matrix(rng, dim)
                            for _ in range(n_ops)])
    return kraus_model(ops)


def random_lindblad_model(rng, dim, n_ops=2, jump_scale=1.0):
    h = random_hermitian(rng, dim)
    jumps = [random_complex_matrix(rng, dim, jump_scale) for _ in range(n_ops)]
    return lindblad_model(h, jumps)


def random_stochastic_matrix(rng, dim, min_targets=1, max_targets=None):
    """Row-stochastic matrix with a random sparsity pattern; entries kept
    away from zero so edge detection is unambiguous."""
    max_targets = max_targets or dim
    p = np.zeros((dim, dim))
    for i in range(dim):
        k = int(rng.integers(min_targets, max_targets + 1))
        targets = rng.choice(dim, size=k, replace=False)
        weights = rng.uniform(0.2, 1.0, size=k)
        p[i, targets] = weights / weights.sum()
    return p


def structured_stochastic_matrix(rng, dim, n_classes=2, n_transient=1):
    """Chain with ``n_classes`` closed communicating classes and
    ``n_transient`` genuinely transient states."""
    if n_classes + n_transient > dim:
        raise ValueError("not enough states")
    recurrent = dim - n_transient
    sizes = np.ones(n_classes, dtype=int)
    for _ in range(recurrent - n_classes):
        sizes[rng.integers(0, n_classes)] += 1
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    transient = list(range(recurrent, dim))

    p = np.zeros((dim, dim))
    for block in blocks:
        for i in block:
            w = rng.uniform(0.2, 1.0, size=len(block))
            p[i, block] = w / w.sum()
    for i in transient:
        targets = list(rng.choice(dim, size=min(dim, 3), replace=False))
        anchor = blocks[rng.integers(0, n_classes)]
        targets.append(int(rng.choice(anchor)))
        targets = sorted(set(targets))
        w = rng.uniform(0.2, 1.0, size=len(targets))
        p[i, targets] = w / w.sum()
    return p


def random_kraus_with_invariant_subspace(rng, dim, rank, n_ops=2,
                                         reducing=False):
    """Unital Kraus family with a common invariant subspace of the given
    rank, hidden behind a random unitary.  Returns (model, projection).

    Built from a stacked isometry constrained to map the subspace into the
    corresponding rows of every block; with ``reducing`` the orthogonal
    complement is invariant too (the projection is harmonic).
    """
    big = n_ops * dim
    in_rows = np.array([k * dim + r for k in range(n_ops) for r in range(rank)])

    m1 = np.zeros((big, rank), dtype=complex)
    m1[in_rows, :] = (rng.standard_normal((len(in_rows), rank))
                      + 1j * rng.standard_normal((len(in_rows), rank)))
    m1, _ = np.linalg.qr(m1)

    m2 = np.zeros((big, dim - rank), dtype=complex)
    if reducing:
        out_rows = np.array([k * dim + r for k in range(n_ops)
                             for r in range(rank, dim)])
        m2[out_rows, :] = (rng.standard_normal((len(out_rows), dim - rank))
                           + 1j * rng.standard_normal((len(out_rows), dim - rank)))
    else:
        m2 = (rng.standard_normal((big, dim - rank))
              + 1j * rng.standard_normal((big, dim - rank)))
    m2 = m2 - m1 @ (dagger(m1) @ m2)
    m2, _ = np.linalg.qr(m2)

    stacked = np.hstack([m1, m2])
    u = random_unitary(rng, dim)
    ops = [u @ stacked[k * dim:(k + 1) * dim, :] @ dagger(u)
           for k in range(n_ops)]
    basis = np.zeros((dim, rank))
    basis[:rank, :] = np.eye(rank)
    proj = Projection.from_basis(u @ basis)
    return kraus_model(ops), proj


def random_lindblad_with_invariant_subspace(rng, dim, rank, n_ops=2,
                                            reducing=False):
    """Lindblad model whose drift and jumps share an invariant subspace of
    the given rank, hidden behind a random unitary."""
    jumps = []
    for _ in range(n_ops):
        l = random_complex_matrix(rng, dim, 0.8)
        l[rank:, :rank] = 0.0
        if reducing:
            l[:rank, rank:] = 0.0
        jumps.append(l)
    s = sum(dagger(l) @ l for l in jumps)
    h = np.zeros((dim, dim), dtype=complex)
    h[:rank, :rank] = random_hermitian(rng, rank)
    h[rank:, rank:] = random_hermitian(rng, dim - rank)
    if not reducing:
        # off-diagonal block chosen so the drift -iH - S/2 stays
        # block-triangular, keeping the subspace invariant
        h[:rank, rank:] = -0.5j * s[:rank, rank:]
        h[rank:, :rank] = dagger(h[:rank, rank:])

    u = random_unitary(rng, dim)
    h = u @ h @ dagger(u)
    jumps = [u @ l @ dagger(u) for l in jumps]
    basis = np.zeros((dim, rank))
    basis[:rank, :] = np.eye(rank)
    proj = Projection.from_basis(u @ basis)
    return lindblad_model(hermitize(h), jumps), proj


def random_block_diagonal_kraus(rng, dims, n_ops=2):
    """Direct sum of independent unital channels, conjugated by a random
    unitary (a reducible channel)."""
    total = sum(dims)
    ops = [np.zeros((total, total), dtype=complex) for _ in range(n_ops)]
    start = 0
    for d in dims:
        block_ops = _normalize_kraus([random_complex_matrix(rng, d)
                                      for _ in range(n_ops)])
        for op, blk in zip(ops, block_ops):
            op[start:start + d, start:start + d] = blk
        start += d
    u = random_unitary(rng, total)
    return kraus_model([u @ op @ dagger(u) for op in ops])


def random_block_diagonal_lindblad(rng, dims, n_ops=2):
    total = sum(dims)
    h = np.zeros((total, total), dtype=complex)
    jumps = [np.zeros((total, total), dtype=complex) for _ in range(n_ops)]
    start = 0
    for d in dims:
        h[start:start + d, start:start + d] = random_hermitian(rng, d)
        for op in jumps:
            op[start:start + d, start:start + d] = \
                random_complex_matrix(rng, d, 0.8)
        start += d
    u = random_unitary(rng, total)
    return lindblad_model(u @ h @ dagger(u),
                          [u @ op @ dagger(u) for op in jumps])
