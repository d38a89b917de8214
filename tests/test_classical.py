import itertools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from qds.classical import (
    classical_classify, compare_resolutions, stochastic_to_channel,
)
from qds.errors import StructuralError
from qds.models import DEFAULT_TOL, apply_map, heisenberg_superoperator
from qds.projections import Projection, is_subharmonic
from qds.rand import random_stochastic_matrix, structured_stochastic_matrix


class TestEmbedding:
    def test_channel_matches_chain_action(self, absorbing_chain):
        p = absorbing_chain.stochastic_matrix
        model = stochastic_to_channel(p)
        s = heisenberg_superoperator(model)
        for j in range(3):
            f = np.zeros(3)
            f[j] = 1.0
            out = apply_map(s, np.diag(f).astype(complex))
            assert np.linalg.norm(np.diag(out).real - p @ f) <= 1e-12
            # diagonal observables stay diagonal
            assert np.linalg.norm(out - np.diag(np.diag(out)), 2) <= 1e-12

    def test_absorbing_chain_columns(self, absorbing_chain):
        model = stochastic_to_channel(absorbing_chain.stochastic_matrix)
        s = heisenberg_superoperator(model)
        # column 1 of P is zero: the middle indicator maps to zero
        out = apply_map(s, np.diag([0.0, 1.0, 0.0]).astype(complex))
        assert np.linalg.norm(out, 2) <= 1e-12
        out = apply_map(s, np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert np.allclose(np.diag(out).real, [1.0, 0.5, 0.0])

    def test_kraus_count(self, absorbing_chain):
        model = stochastic_to_channel(absorbing_chain.stochastic_matrix)
        assert len(model.kraus_ops) == 4  # one per positive entry of P

    def test_identity_chain(self):
        model = stochastic_to_channel(np.eye(3))
        s = heisenberg_superoperator(model)
        for f in np.eye(3):
            x = np.diag(f).astype(complex)
            assert np.allclose(apply_map(s, x), x)

    def test_random_chains_embed_correctly(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            p = random_stochastic_matrix(rng, d)
            s = heisenberg_superoperator(stochastic_to_channel(p))
            for j in range(d):
                f = np.zeros(d)
                f[j] = 1.0
                out = apply_map(s, np.diag(f).astype(complex))
                assert np.linalg.norm(np.diag(out).real - p @ f) <= 1e-12

    def test_non_stochastic_rejected(self):
        with pytest.raises(StructuralError):
            stochastic_to_channel([[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(StructuralError):
            stochastic_to_channel([[1.2, -0.2], [0.0, 1.0]])


class TestClassify:
    def test_absorbing_chain(self, absorbing_chain):
        result = classical_classify(absorbing_chain.stochastic_matrix)
        assert set(result.closed_classes) == {frozenset({0}), frozenset({2})}
        assert result.transient_states == frozenset({1})

    def test_cycle_is_one_class(self):
        p = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        result = classical_classify(p)
        assert result.closed_classes == (frozenset({0, 1, 2}),)
        assert not result.transient_states

    def test_identity_chain_singletons(self):
        result = classical_classify(np.eye(4))
        assert len(result.closed_classes) == 4
        assert not result.transient_states

    def test_subharmonic_iff_closed(self):
        # diagonal indicator projections are sub-harmonic exactly for the
        # subsets with no outgoing edge, over all subsets
        rng = np.random.default_rng(37)
        chains = [structured_stochastic_matrix(rng, 5, 2, 1),
                  random_stochastic_matrix(rng, 4)]
        for p in chains:
            d = p.shape[0]
            model = stochastic_to_channel(p)
            for size in range(1, d):
                for subset in itertools.combinations(range(d), size):
                    mask = np.zeros(d, dtype=bool)
                    mask[list(subset)] = True
                    closed = not np.any(p[np.ix_(mask, ~mask)] > 1e-8)
                    proj = Projection.onto_states(d, subset)
                    assert is_subharmonic(model, proj).verdict == closed


def _scc_oracle(p, tol):
    """Closed classes and transient states from scipy's strongly connected
    components of the edges P[i, j] > tol: a component is closed iff no
    edge leaves it."""
    edges = p > tol
    n_comp, labels = csgraph.connected_components(
        scipy.sparse.csr_matrix(edges), directed=True, connection="strong")
    closed, transient = [], set()
    for c in range(n_comp):
        inside = labels == c
        members = frozenset(int(i) for i in np.flatnonzero(inside))
        if np.any(edges[np.ix_(inside, ~inside)]):
            transient |= members
        else:
            closed.append(members)
    return sorted(closed, key=sorted), frozenset(transient)


def _random_chain(rng, kind):
    d = int(rng.integers(1, 11))
    if kind == "structured" and d >= 3:
        n_transient = int(rng.integers(1, d - 1))
        n_classes = int(rng.integers(1, d - n_transient + 1))
        return structured_stochastic_matrix(rng, d, n_classes, n_transient)
    if kind == "sparse":
        return random_stochastic_matrix(rng, d, 1, min(d, 2))
    return random_stochastic_matrix(rng, d)


class TestClassifyAgainstSCC:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["structured", "sparse", "dense"]))
    def test_matches_strongly_connected_components(self, seed, kind):
        rng = np.random.default_rng(seed)
        p = _random_chain(rng, kind)
        d = p.shape[0]
        # entries at or below alg_tol are not edges in either route
        tiny = (rng.random((d, d)) < 0.2) & (p == 0.0)
        p = p + tiny * DEFAULT_TOL.alg_tol * rng.uniform(0.1, 1.0, (d, d))
        p = p / p.sum(axis=1, keepdims=True)
        perm = rng.permutation(d)
        for chain in (p, p[np.ix_(perm, perm)]):
            got = classical_classify(chain)
            closed, transient = _scc_oracle(chain, DEFAULT_TOL.alg_tol)
            assert list(got.closed_classes) == closed
            assert got.transient_states == transient

    def test_single_state(self):
        got = classical_classify(np.ones((1, 1)))
        assert got.closed_classes == (frozenset({0}),)
        assert got.transient_states == frozenset()

    def test_long_path_into_an_absorbing_state(self):
        # reachability needs about log2(d) squarings along a path
        d = 40
        p = np.zeros((d, d))
        p[np.arange(d - 1), np.arange(1, d)] = 1.0
        p[d - 1, d - 1] = 1.0
        got = classical_classify(p)
        assert got.closed_classes == (frozenset({d - 1}),)
        assert got.transient_states == frozenset(range(d - 1))


class TestCompareResolutions:
    def test_absorbing_chain(self, absorbing_chain):
        result = compare_resolutions(absorbing_chain.stochastic_matrix, seed=1)
        assert result.agree

    def test_identity_chain(self):
        result = compare_resolutions(np.eye(3), seed=1)
        assert result.agree
        assert len(result.resolution.recurrent_projections) == 3

    def test_structured_chain(self):
        rng = np.random.default_rng(41)
        p = structured_stochastic_matrix(rng, 6, 2, 2)
        result = compare_resolutions(p, seed=7)
        assert result.agree
        assert len(result.chain.closed_classes) == 2
        assert len(result.chain.transient_states) == 2
