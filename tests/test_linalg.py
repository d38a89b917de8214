"""The block-Krylov invariant closure against the Gram-Schmidt closure it
replaced, on seeded Kraus, Lindblad, chain-edge and identity families."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qds._linalg import dagger, invariant_closure, orthonormal_columns
from qds.models import stochastic_kraus_ops
from qds.rand import (
    random_kraus_with_invariant_subspace,
    random_lindblad_with_invariant_subspace, structured_stochastic_matrix,
)

RANK_TOL = 1e-9


def _closure_by_gram_schmidt(generators, start, rank_tol):
    """The closure grown one operator and one image vector at a time: an
    image w joins when its residual, after two projections onto the basis,
    exceeds rank_tol * ||w||."""
    basis = orthonormal_columns(start, rank_tol)
    d = basis.shape[0]
    grew = True
    while grew and basis.shape[1] < d:
        grew = False
        for g in generators:
            for w in (g @ basis).T:
                nw = np.linalg.norm(w)
                if nw <= rank_tol or basis.shape[1] == d:
                    continue
                resid = w - basis @ (dagger(basis) @ w)
                resid = resid - basis @ (dagger(basis) @ resid)
                nr = np.linalg.norm(resid)
                if nr > rank_tol * nw:
                    basis = np.hstack([basis, (resid / nr).reshape(d, 1)])
                    grew = True
    return basis


def _random_vectors(rng, rows, k):
    return rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))


def _family_and_start(kind, rng):
    """An (m, d, d) generator stack and a d x k start block.  Starts inside
    a planted invariant subspace give closures smaller than the space."""
    d = int(rng.integers(2, 9))
    if kind == "identity":
        return np.eye(d, dtype=complex)[None], _random_vectors(
            rng, d, int(rng.integers(1, d + 1)))
    if kind == "chain":
        n_classes = int(rng.integers(1, d + 1))
        p = structured_stochastic_matrix(
            rng, d, n_classes, int(rng.integers(0, d - n_classes + 1)))
        states = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        return stochastic_kraus_ops(p), np.eye(d, dtype=complex)[:, states]
    rank = int(rng.integers(1, d))
    if kind == "kraus":
        model, proj = random_kraus_with_invariant_subspace(
            rng, d, rank, int(rng.integers(1, 4)))
        ops = model.kraus_ops
    else:
        model, proj = random_lindblad_with_invariant_subspace(
            rng, d, rank, int(rng.integers(1, 4)))
        ops = (model.drift,) + model.lindblad_ops
    ops = np.array(ops)
    if rng.random() < 0.3:
        # the adjoint family: generically no proper invariant subspace
        return np.conj(ops.transpose(0, 2, 1)), _random_vectors(rng, d, 1)
    inside = proj.matrix @ _random_vectors(rng, d, int(rng.integers(1, rank + 1)))
    return ops, inside


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["kraus", "lindblad", "chain", "identity"]))
def test_block_closure_matches_gram_schmidt(seed, kind):
    gens, start = _family_and_start(kind, np.random.default_rng(seed))
    got = invariant_closure(gens, start, RANK_TOL)
    want = _closure_by_gram_schmidt(gens, start, RANK_TOL)
    d, r = got.shape
    assert r == want.shape[1]
    assert np.linalg.norm(dagger(got) @ got - np.eye(r)) <= 1e-10
    proj = got @ dagger(got)
    assert np.linalg.norm(proj - want @ dagger(want), 2) <= 1e-10
    outside = np.eye(d) - proj
    assert np.linalg.norm(outside @ start, 2) <= 1e-10 * np.linalg.norm(start, 2)
    for g in gens:
        assert np.linalg.norm(outside @ g @ got, 2) <= 1e-10 * max(
            1.0, np.linalg.norm(g, 2))


def test_closure_of_an_empty_family_is_the_start():
    start = np.eye(3, dtype=complex)[:, :1]
    got = invariant_closure(np.zeros((0, 3, 3), dtype=complex), start, RANK_TOL)
    assert np.array_equal(got, start)
