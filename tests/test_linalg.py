"""The block-Krylov invariant closure against the Gram-Schmidt closure it
replaced, on seeded Kraus, Lindblad, chain-edge and identity families; the
hermitian operator basis against its dense definition; the Pade
exponential against ``scipy.linalg.expm``."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from qds._linalg import (
    dagger, expm, from_hermitian_basis, hermitian_basis_columns,
    invariant_closure, orthonormal_columns, to_hermitian_basis, vec,
)
from qds.errors import StructuralError
from qds.models import (
    DEFAULT_TOL, heisenberg_superoperator, predual_superoperator,
    stochastic_kraus_ops, stochastic_model,
)
from qds.rand import (
    random_block_diagonal_kraus, random_block_diagonal_lindblad,
    random_kraus_model, random_kraus_with_invariant_subspace,
    random_lindblad_model, random_lindblad_with_invariant_subspace,
    random_stochastic_matrix, structured_stochastic_matrix,
)
from qds.spectral import _derived, _horizon

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


def _dense_hermitian_basis(d):
    """U from its definition: the vectorized E_ii, (E_ij + E_ji)/sqrt(2)
    and i (E_ij - E_ji)/sqrt(2), i < j, as columns."""
    def unit(i, j):
        e = np.zeros((d, d), dtype=complex)
        e[i, j] = 1.0
        return e
    pairs = list(zip(*np.triu_indices(d, 1)))
    mats = ([unit(i, i) for i in range(d)]
            + [(unit(i, j) + unit(j, i)) / np.sqrt(2) for i, j in pairs]
            + [1j * (unit(i, j) - unit(j, i)) / np.sqrt(2) for i, j in pairs])
    return np.stack([vec(m) for m in mats], axis=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hermitian_basis_transforms_match_the_dense_basis(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    n = d * d
    u = _dense_hermitian_basis(d)
    assert np.linalg.norm(dagger(u) @ u - np.eye(n)) <= 1e-14
    m = _random_vectors(rng, n, n)
    scale = np.abs(m).max()
    a = to_hermitian_basis(m)
    assert np.abs(a - dagger(u) @ m @ u).max() <= 1e-14 * scale
    assert np.abs(from_hermitian_basis(a) - m).max() <= 1e-15 * scale
    assert np.abs(from_hermitian_basis(m) - u @ m @ dagger(u)).max() <= \
        1e-14 * scale
    cols = m[:, :int(rng.integers(1, n + 1))]
    assert np.abs(hermitian_basis_columns(cols) - u @ cols).max() <= \
        1e-14 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_identity_and_chain_maps_transform_bit_exactly(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    eye = np.eye(d * d, dtype=complex)
    assert np.array_equal(to_hermitian_basis(eye), eye)
    assert np.array_equal(from_hermitian_basis(eye), eye)
    s = heisenberg_superoperator(
        stochastic_model(random_stochastic_matrix(rng, d))).matrix
    a = to_hermitian_basis(s)
    diag = np.arange(d) * (d + 1)
    want = np.zeros_like(s)
    want[:d, :d] = s[np.ix_(diag, diag)]
    assert np.array_equal(a, want)
    assert np.array_equal(from_hermitian_basis(a), s)


def _random_model(kind, rng):
    d = int(rng.integers(2, 6))
    if kind == "kraus":
        return random_kraus_model(rng, d)
    if kind == "lindblad":
        return random_lindblad_model(rng, d)
    if kind == "kraus-blocks":
        return random_block_diagonal_kraus(rng, [d, int(rng.integers(1, 4))])
    if kind == "lindblad-blocks":
        return random_block_diagonal_lindblad(rng, [d, int(rng.integers(1, 4))])
    return stochastic_model(structured_stochastic_matrix(rng, d + 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["kraus", "lindblad", "kraus-blocks",
                             "lindblad-blocks", "chain"]))
def test_superoperators_are_real_in_the_hermitian_basis(seed, kind):
    model = _random_model(kind, np.random.default_rng(seed))
    for build in (heisenberg_superoperator, predual_superoperator):
        s = build(model)
        a = s.hermitian_basis_matrix
        assert np.isrealobj(a) and not a.flags.writeable
        assert np.abs(a - to_hermitian_basis(s.matrix)).max() <= \
            1e-14 * np.abs(a).max()
        # the same spectrum as the complex column-stacked matrix
        want = np.linalg.eig(s.matrix)[0]
        got = np.linalg.eig(a)[0]
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-12 * max(1.0, np.abs(want).max())


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       log_norm=st.floats(-3.0, 3.0), complex_entries=st.booleans())
def test_expm_matches_scipy_on_random_matrices(seed, n, log_norm,
                                               complex_entries):
    # shifted so that no eigenvalue has a positive real part (exp(A) then
    # stays finite at ||A||_1 = 1e3), then scaled to the drawn 1-norm
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    a = a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n)
    a = a * (10.0 ** log_norm / np.abs(a).sum(axis=0).max())
    got = expm(a)
    want = scipy.linalg.expm(a)
    assert got.dtype == want.dtype == a.dtype
    assert _relative_error(got, want) <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["lindblad", "lindblad-blocks"]))
def test_expm_matches_scipy_on_lindblad_generators(seed, kind):
    # the propagators' exponentials: t A on the hermitian-basis generator,
    # t from 1e-3 up to the split's horizon
    rng = np.random.default_rng(seed)
    rec = _derived(_random_model(kind, rng), DEFAULT_TOL)
    a = rec.superop.hermitian_basis_matrix
    _, horizon, _ = _horizon(rec.split, DEFAULT_TOL)
    for t in np.geomspace(1e-3, max(horizon, 1e-3), 5):
        got = expm(t * a)
        assert np.isrealobj(got)
        assert _relative_error(got, scipy.linalg.expm(t * a)) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_expm_of_zero_is_exactly_the_identity(n, dtype):
    got = expm(np.zeros((n, n), dtype=dtype))
    assert got.dtype == dtype
    assert np.array_equal(got, np.eye(n))


def test_expm_rejects_non_finite_entries():
    with pytest.raises(StructuralError, match="finite"):
        expm(np.array([[0.0, np.inf], [0.0, 0.0]]))

