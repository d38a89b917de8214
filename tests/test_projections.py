import numpy as np
import pytest

from qds.errors import CrossCheckError, StructuralError
from qds.models import DEFAULT_TOL, stochastic_model, validate_model
from qds.projections import (
    Projection, is_harmonic, is_subharmonic, range_projection, reduce_model,
)
from qds.rand import (
    random_hermitian, random_kraus_with_invariant_subspace,
    random_lindblad_with_invariant_subspace, random_projection,
    structured_stochastic_matrix,
)
from qds.spectral import _derived, asymptotic_operator, evolve_heisenberg

from conftest import SQ5


class TestProjectionType:
    def test_rank_counts_unit_eigenvalues(self):
        p = Projection.from_matrix(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_small_perturbation_snapped(self):
        rng = np.random.default_rng(1)
        q = random_projection(rng, 3, 1)
        noisy = q.matrix + 1e-7 * random_hermitian(rng, 3)
        snapped = Projection.from_matrix(noisy)
        assert np.linalg.norm(snapped.matrix @ snapped.matrix - snapped.matrix,
                              2) <= 1e-12
        assert snapped.rank == 1

    def test_far_from_projection_rejected(self):
        with pytest.raises(StructuralError):
            Projection.from_matrix(np.diag([0.6, 0.0]))

    def test_non_square_rejected(self):
        with pytest.raises(StructuralError):
            Projection.from_matrix(np.zeros((2, 3)))


class TestSubharmonic:
    def test_ground_corner(self, amplitude_damping):
        verdict = is_subharmonic(amplitude_damping, np.diag([1.0, 0.0]))
        assert verdict.verdict
        assert verdict.residual <= 1e-12

    def test_excited_corner_fails_with_witness(self, amplitude_damping):
        verdict = is_subharmonic(amplitude_damping, np.diag([0.0, 1.0]))
        assert not verdict.verdict
        assert verdict.residual == pytest.approx(SQ5, abs=1e-12)
        assert verdict.witnesses[0][0] == "K2"

    def test_identity_always_subharmonic(self, amplitude_damping, dephasing,
                                         absorbing_chain):
        for model in (amplitude_damping, dephasing, absorbing_chain):
            assert is_subharmonic(model, np.eye(model.dim)).verdict

    def test_lindblad_criterion(self, amplitude_damping_lindblad):
        assert is_subharmonic(amplitude_damping_lindblad,
                              np.diag([1.0, 0.0])).verdict
        assert not is_subharmonic(amplitude_damping_lindblad,
                                  np.diag([0.0, 1.0])).verdict

    def test_order_test_agrees_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(3, 6))
            r = int(rng.integers(1, d))
            model, proj = random_kraus_with_invariant_subspace(
                rng, d, r, n_ops=2)
            good = is_subharmonic(model, proj)
            assert good.verdict and good.order_min_eig >= -1e-8
            bad = is_subharmonic(model, random_projection(rng, d, r))
            assert (not bad.verdict) == (bad.order_min_eig < -1e-8)

    def test_batched_residuals_match_a_loop(self):
        rng = np.random.default_rng(29)
        cases = []
        for d, r in ((3, 1), (5, 2), (6, 4)):
            model, proj = random_kraus_with_invariant_subspace(rng, d, r, 3)
            cases += [(model, proj), (model, random_projection(rng, d, r))]
            model, proj = random_lindblad_with_invariant_subspace(rng, d, r)
            cases += [(model, proj), (model, random_projection(rng, d, r))]
        # states 0-3 recurrent, 4 and 5 transient
        chain = stochastic_model(structured_stochastic_matrix(rng, 6, 2, 2))
        cases += [(chain, Projection.onto_states(6, range(4))),
                  (chain, Projection.onto_states(6, [4, 5]))]
        verdicts = []
        for model, p in cases:
            got = is_subharmonic(model, p)
            comp = np.eye(model.dim) - p.matrix
            want = [(label, np.linalg.norm(comp @ op @ p.matrix, 2))
                    for label, op in model.generator_family()]
            residual = max(r for _, r in want)
            witnesses = [(label, r) for label, r in want
                         if r > DEFAULT_TOL.alg_tol]
            assert got.verdict == (residual <= DEFAULT_TOL.alg_tol)
            assert abs(got.residual - residual) <= 1e-14
            assert [w[0] for w in got.witnesses] == [w[0] for w in witnesses]
            for (_, r_got), (_, r_want) in zip(got.witnesses, witnesses):
                assert abs(r_got - r_want) <= 1e-14
            verdicts.append(got.verdict)
        assert verdicts == [True, False] * 7

    def test_empty_family_meets_the_order_test(self):
        # a sub-Markov chain with no edges passes the algebraic test for
        # every projection; its zero map fails the order test by 1
        model = stochastic_model(np.zeros((2, 2)), sub_markov=True)
        assert _derived(model, DEFAULT_TOL).family.ops.shape == (0, 2, 2)
        with pytest.raises(CrossCheckError, match="order test min-eig -1"):
            is_subharmonic(model, np.eye(2))


class TestHarmonic:
    def test_dephasing_diagonal_fixed(self, dephasing):
        assert is_harmonic(dephasing, np.diag([1.0, 0.0]))

    def test_damping_corner_not_fixed(self, amplitude_damping):
        assert not is_harmonic(amplitude_damping, np.diag([1.0, 0.0]))

    def test_identity_projection(self, amplitude_damping):
        assert is_harmonic(amplitude_damping, np.eye(2))


class TestRangeProjection:
    def test_reads_off_diagonal(self):
        q = range_projection(np.diag([1.0, 0.5, 0.0]))
        assert np.allclose(q.matrix, np.diag([1.0, 1.0, 0.0]))
        assert q.rank == 2

    def test_zero_and_identity(self):
        assert range_projection(np.zeros((2, 2))).rank == 0
        assert np.allclose(range_projection(np.eye(3)).matrix, np.eye(3))

    def test_idempotent_as_a_map(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            q = random_projection(rng, 4, int(rng.integers(1, 4)))
            again = range_projection(q.matrix)
            assert np.linalg.norm(again.matrix - q.matrix, 2) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(StructuralError):
            range_projection(np.diag([1.0, -1.0]))

    def test_complement_of_invariant_range_is_subharmonic(self,
                                                          absorbing_chain):
        # the range projection of an invariant PSD element has a
        # sub-harmonic complement
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        y = asymptotic_operator(absorbing_chain, p)
        q = range_projection(y)
        comp = Projection.from_matrix(np.eye(3) - q.matrix)
        assert is_subharmonic(absorbing_chain, comp).verdict


class TestSubharmonicIdentities:
    def test_compression_identity(self):
        # p tau_t(p) = tau_t(p) p = p along the orbit
        rng = np.random.default_rng(41)
        for _ in range(5):
            model, proj = random_kraus_with_invariant_subspace(rng, 4, 2)
            for n in (1, 2, 5):
                image = evolve_heisenberg(model, proj.matrix, n=n)
                assert np.linalg.norm(proj.matrix @ image - proj.matrix, 2) <= 1e-8
                assert np.linalg.norm(image @ proj.matrix - proj.matrix, 2) <= 1e-8

    def test_offcorner_annihilation(self):
        # tau_t(x (1-p)) p = 0
        rng = np.random.default_rng(43)
        for _ in range(5):
            model, proj = random_kraus_with_invariant_subspace(rng, 4, 2)
            comp = np.eye(4) - proj.matrix
            for _ in range(3):
                x = (rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))
                for n in (1, 3):
                    image = evolve_heisenberg(model, x @ comp, n=n)
                    resid = np.linalg.norm(image @ proj.matrix, 2)
                    assert resid <= 1e-8 * max(1.0, np.linalg.norm(x, 2))


class TestReduceModel:
    def test_damping_reduces_to_identity_channel(self, amplitude_damping):
        reduced = reduce_model(amplitude_damping, np.diag([1.0, 0.0]))
        assert reduced.dim == 1
        assert len(reduced.kraus_ops) == 1
        assert np.allclose(reduced.kraus_ops[0], [[1.0]])
        assert validate_model(reduced).ok

    def test_identity_projection_is_noop(self, amplitude_damping):
        reduced = reduce_model(amplitude_damping, np.eye(2))
        assert reduced.dim == 2
        for orig, red in zip(amplitude_damping.kraus_ops, reduced.kraus_ops):
            assert np.allclose(orig, red)

    def test_submarkov_compression_needs_flag(self, absorbing_chain):
        p = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(StructuralError, match="sub-harmonic"):
            reduce_model(absorbing_chain, p)
        reduced = reduce_model(absorbing_chain, p, allow_sub_markov=True)
        assert reduced.sub_markov
        assert np.allclose(reduced.stochastic_matrix, [[1.0, 0.0], [0.5, 0.0]])
        report = validate_model(reduced)
        assert report.ok
        assert report.residual("row_sum_deficit") == pytest.approx(0.5)

    def test_reduced_models_stay_unital(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            model, proj = random_kraus_with_invariant_subspace(rng, 5, 3)
            assert validate_model(reduce_model(model, proj)).ok
        for _ in range(5):
            model, proj = random_lindblad_with_invariant_subspace(rng, 5, 2)
            assert validate_model(reduce_model(model, proj)).ok

    def test_zero_projection_rejected(self, amplitude_damping):
        with pytest.raises(StructuralError):
            reduce_model(amplitude_damping, np.zeros((2, 2)))
