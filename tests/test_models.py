import numpy as np
import pytest

from qds.errors import StructuralError, ValidationFailure
from qds.models import (
    QuantumModel, Tolerances, apply_map, effective_drift,
    heisenberg_superoperator, kraus_model, lindblad_model, predual_superoperator,
    stochastic_kraus_ops, stochastic_model, validate_model,
)
from qds.rand import (
    random_density_matrix, random_hermitian, random_kraus_model,
    random_lindblad_model, random_stochastic_matrix,
    structured_stochastic_matrix,
)

from conftest import dag, kraus_heisenberg_oracle, kraus_predual_oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestValidation:
    def test_identity_channel_is_clean(self, identity_channel):
        report = validate_model(identity_channel)
        assert report.ok
        assert report.residual("kraus_unitality") == 0.0

    def test_amplitude_damping_unitality(self, amplitude_damping):
        report = validate_model(amplitude_damping)
        assert report.ok
        assert report.residual("kraus_unitality") <= 1e-12

    def test_scaled_kraus_op_breaks_unitality(self, amplitude_damping):
        k0, k1 = amplitude_damping.kraus_ops
        bad = kraus_model([k0, 1.1 * k1])
        report = validate_model(bad)
        assert not report.ok
        # sum K^+K - 1 = diag(0, 1.21*0.5 - 0.5) = diag(0, 0.105)
        assert report.residual("kraus_unitality") == pytest.approx(0.105, abs=1e-12)

    def test_nonhermitian_hamiltonian_is_listed(self):
        h = np.array([[0, 1], [0, 0]], dtype=complex)
        model = lindblad_model(h)
        report = validate_model(model)
        assert not report.ok
        assert report.residual("hamiltonian_hermitian") == pytest.approx(1.0)

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            QuantumModel(dim=2, kind="kraus",
                         kraus_ops=(np.eye(3, dtype=complex),))

    def test_nonfinite_entries_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(StructuralError):
            kraus_model([bad])

    def test_stochastic_row_sums(self):
        model = stochastic_model([[0.5, 0.4], [0.0, 1.0]])
        report = validate_model(model)
        assert not report.ok
        assert report.residual("row_sums") == pytest.approx(0.1)

    def test_tolerances_validated(self):
        with pytest.raises(StructuralError):
            Tolerances(rank_tol=-1.0)
        with pytest.raises(StructuralError):
            Tolerances(rank_tol=2.0)


class TestEffectiveDrift:
    def test_single_jump_no_hamiltonian(self):
        # sigma_x^+ sigma_x = 1, so Y = -1/2
        y = effective_drift(np.zeros((2, 2)), [SX])
        assert np.allclose(y, -0.5 * np.eye(2))

    def test_pure_hamiltonian_flow(self):
        y = effective_drift(SZ, [])
        assert np.allclose(y, -1j * SZ)

    def test_dephasing_drift(self, dephasing):
        # sigma_z^2 = 1: Y = -i sigma_z - 1/2
        assert np.allclose(dephasing.drift, -1j * SZ - 0.5 * np.eye(2))

    def test_unitality_identity_holds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            h = random_hermitian(rng, d)
            jumps = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(int(rng.integers(0, 3)))]
            y = effective_drift(h, jumps)
            acc = sum((dag(l) @ l for l in jumps), np.zeros((d, d), dtype=complex))
            assert np.linalg.norm(y + dag(y) + acc, 2) <= 1e-12

    def test_nonhermitian_hamiltonian_rejected(self):
        with pytest.raises(StructuralError):
            effective_drift(np.array([[0, 1], [0, 0]]), [])


class TestSuperoperators:
    def test_identity_channel_matrix(self, identity_channel):
        s = heisenberg_superoperator(identity_channel)
        assert np.allclose(s.matrix, np.eye(4))

    def test_heisenberg_matches_oracle(self, amplitude_damping):
        s = heisenberg_superoperator(amplitude_damping)
        p = np.diag([1.0, 0.0]).astype(complex)
        out = apply_map(s, p)
        assert np.allclose(out, np.diag([1.0, 0.5]))
        assert np.allclose(
            out, kraus_heisenberg_oracle(amplitude_damping.kraus_ops, p))

    def test_generator_annihilates_identity(self, dephasing):
        s = heisenberg_superoperator(dephasing)
        assert np.allclose(apply_map(s, np.eye(2)), 0.0)

    def test_predual_excited_state(self, amplitude_damping):
        s = predual_superoperator(amplitude_damping)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_map(s, rho)
        assert np.allclose(out, np.diag([0.5, 0.5]))
        assert np.allclose(
            out, kraus_predual_oracle(amplitude_damping.kraus_ops, rho))

    def test_predual_ground_state_fixed(self, amplitude_damping):
        s = predual_superoperator(amplitude_damping)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(apply_map(s, rho), rho)

    def test_invalid_model_propagates(self, amplitude_damping):
        k0, k1 = amplitude_damping.kraus_ops
        bad = kraus_model([k0, 1.1 * k1])
        with pytest.raises(ValidationFailure):
            heisenberg_superoperator(bad)

    def test_stochastic_embedding_via_superoperator(self, absorbing_chain):
        s = heisenberg_superoperator(absorbing_chain)
        p = absorbing_chain.stochastic_matrix
        for j in range(3):
            f = np.zeros(3)
            f[j] = 1.0
            out = apply_map(s, np.diag(f).astype(complex))
            assert np.allclose(np.diag(out).real, p @ f, atol=1e-12)


def _edge_ops_by_loop(p):
    """sqrt(P[i, j]) |j><i| for each positive entry, rows first."""
    d = p.shape[0]
    ops = []
    for i in range(d):
        for j in range(d):
            if p[i, j] > 0.0:
                k = np.zeros((d, d), dtype=complex)
                k[j, i] = np.sqrt(p[i, j])
                ops.append(k)
    return ops


def _seeded_chains():
    """Ten chains: sparse and dense, with transient states, and two
    sub-Markov ones with lost mass and a zero row."""
    rng = np.random.default_rng(23)
    chains = [(random_stochastic_matrix(rng, d, 1, max(1, d // 2)), False)
              for d in (1, 2, 5, 9)]
    chains += [(random_stochastic_matrix(rng, d), False) for d in (3, 7)]
    chains += [(structured_stochastic_matrix(rng, d, 2, 3), False)
               for d in (6, 10)]
    lossy = 0.7 * random_stochastic_matrix(rng, 4, 1, 2)
    lossy[2] = 0.0
    chains += [(lossy, True), (np.zeros((3, 3)), True)]
    return chains


class TestChainEmbedding:
    def test_edge_operators_equal_the_double_loop(self):
        for p, _ in _seeded_chains():
            got = stochastic_kraus_ops(p)
            want = _edge_ops_by_loop(p)
            assert got.shape == (len(want),) + p.shape
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_scatter_build_equals_the_kron_sum(self):
        for p, sub_markov in _seeded_chains():
            d = p.shape[0]
            want = np.zeros((d * d, d * d), dtype=complex)
            for k in _edge_ops_by_loop(p):
                want += np.kron(k.T, dag(k))
            model = stochastic_model(p, sub_markov=sub_markov)
            assert np.array_equal(heisenberg_superoperator(model).matrix, want)


class TestApplyMap:
    def test_unitality_fixed_point(self, amplitude_damping):
        s = heisenberg_superoperator(amplitude_damping)
        assert np.allclose(apply_map(s, np.eye(2)), np.eye(2))

    def test_excited_projection(self, amplitude_damping):
        s = heisenberg_superoperator(amplitude_damping)
        out = apply_map(s, np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 0.5]))

    def test_dimension_mismatch(self, amplitude_damping):
        s = heisenberg_superoperator(amplitude_damping)
        with pytest.raises(StructuralError):
            apply_map(s, np.eye(3))

    def test_hermiticity_preserved(self, amplitude_damping):
        rng = np.random.default_rng(3)
        s = heisenberg_superoperator(amplitude_damping)
        for _ in range(10):
            x = random_hermitian(rng, 2)
            out = apply_map(s, x)
            assert np.linalg.norm(out - dag(out), 2) == 0.0


class TestTraceDuality:
    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        models = [random_kraus_model(rng, int(rng.integers(2, 5)),
                                     int(rng.integers(1, 4)))
                  for _ in range(5)]
        models += [random_lindblad_model(rng, int(rng.integers(2, 5)),
                                         int(rng.integers(0, 3)))
                   for _ in range(5)]
        models += [stochastic_model(random_stochastic_matrix(
                       rng, int(rng.integers(2, 6)))) for _ in range(5)]
        for model in models:
            sh = heisenberg_superoperator(model)
            sp = predual_superoperator(model)
            for _ in range(20):
                x = random_hermitian(rng, model.dim)
                rho = random_density_matrix(rng, model.dim)
                lhs = np.trace(rho @ apply_map(sh, x))
                rhs = np.trace(apply_map(sp, rho) @ x)
                assert abs(lhs - rhs) <= 1e-10

    def test_predual_trace_preserving(self, amplitude_damping):
        rng = np.random.default_rng(5)
        sp = predual_superoperator(amplitude_damping)
        for _ in range(10):
            rho = random_density_matrix(rng, 2)
            assert np.trace(apply_map(sp, rho)).real == pytest.approx(1.0, abs=1e-12)


class TestChoiPositivity:
    def test_kraus_models_are_completely_positive(self, amplitude_damping,
                                                  identity_channel):
        rng = np.random.default_rng(13)
        models = [amplitude_damping, identity_channel]
        models += [random_kraus_model(rng, 3, 2) for _ in range(5)]
        for model in models:
            s = heisenberg_superoperator(model)
            d = model.dim
            choi = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[i, j] = 1.0
                    choi += np.kron(e, apply_map(s, e, Tolerances()))
            assert np.linalg.eigvalsh(0.5 * (choi + dag(choi)))[0] >= -1e-10
