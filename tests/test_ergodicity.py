import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

from qds.ergodicity import (
    DensityMatrix, ergodicity_reduction_equivalence, invariant_states,
    strong_ergodicity_check, support_projection,
)
from qds.errors import StructuralError
from qds._linalg import vec
from qds.models import apply_map, predual_superoperator, stochastic_model
from qds.projections import is_subharmonic
from qds.rand import (
    random_block_diagonal_kraus, random_block_diagonal_lindblad,
    random_kraus_model, random_kraus_with_invariant_subspace,
    random_lindblad_model, random_lindblad_with_invariant_subspace,
    structured_stochastic_matrix,
)
from qds.resolution import classify_projection, resolve
from qds.spectral import evolve_predual

from conftest import SQ5, trace_distance_oracle

EIGENBASIS_CHAINS = json.loads(
    (pathlib.Path(__file__).parent / "eigenbasis_chains.json").read_text())


def _assert_basis_spans_predual_kernel(model):
    """The hermitian basis must span the kernel of tau_* - 1 (or of the
    predual generator), found here by an SVD of the predual matrix."""
    s = predual_superoperator(model)
    target = s.matrix - (np.eye(s.matrix.shape[0])
                         if s.time_kind == "discrete_step" else 0.0)
    want = scipy.linalg.null_space(target, rcond=1e-9)
    got = np.stack([vec(b) for b in invariant_states(model).basis], axis=1)
    assert got.shape[1] == want.shape[1]
    got = np.linalg.qr(got)[0]
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T, 2) <= 1e-8


class TestInvariantStates:
    def test_damping_unique_ground_state(self, amplitude_damping):
        inv = invariant_states(amplitude_damping)
        assert len(inv.basis) == 1
        assert len(inv.states) == 1
        assert np.allclose(inv.states[0].matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_identity_channel_everything_invariant(self, identity_channel):
        inv = invariant_states(identity_channel)
        assert len(inv.basis) == 4
        assert len(inv.states) == 2
        # seed-deterministic orthogonal pure states
        s1, s2 = inv.states
        assert np.trace(s1.matrix @ s2.matrix).real == pytest.approx(0.0, abs=1e-9)

    def test_absorbing_chain_point_masses(self, absorbing_chain):
        inv = invariant_states(absorbing_chain)
        supports = {tuple(np.round(np.diag(s.matrix).real, 6))
                    for s in inv.states}
        assert supports == {(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)}

    def test_states_are_fixed_points(self, amplitude_damping, absorbing_chain):
        for model in (amplitude_damping, absorbing_chain):
            inv = invariant_states(model)
            sp = predual_superoperator(model)
            for state in inv.states:
                assert np.linalg.norm(
                    apply_map(sp, state.matrix) - state.matrix, 2) <= 1e-9

    def test_basis_spans_predual_kernel_random_models(self):
        rng = np.random.default_rng(23)
        for _ in range(2):
            for model in (
                    random_kraus_model(rng, 3),
                    random_block_diagonal_kraus(rng, [2, 2]),
                    random_kraus_with_invariant_subspace(rng, 4, 2)[0],
                    random_lindblad_model(rng, 3),
                    random_block_diagonal_lindblad(rng, [2, 1]),
                    random_lindblad_with_invariant_subspace(rng, 4, 2)[0],
                    stochastic_model(structured_stochastic_matrix(rng, 6, 2, 2))):
                _assert_basis_spans_predual_kernel(model)

    @pytest.mark.parametrize("seed", sorted(EIGENBASIS_CHAINS))
    def test_basis_spans_predual_kernel_chains(self, seed):
        _assert_basis_spans_predual_kernel(
            stochastic_model(np.array(EIGENBASIS_CHAINS[seed])))

    def test_supports_are_subharmonic(self, absorbing_chain):
        inv = invariant_states(absorbing_chain)
        for state in inv.states:
            support = support_projection(state)
            assert is_subharmonic(absorbing_chain, support).verdict

    def test_supports_are_the_states_range_projections(
            self, absorbing_chain, identity_channel):
        for model in (absorbing_chain, identity_channel):
            inv = invariant_states(model)
            assert len(inv.supports) == len(inv.states)
            for state, support in zip(inv.states, inv.supports):
                want = support_projection(state)
                assert support.rank == want.rank
                assert np.array_equal(support.matrix, want.matrix)


class TestSupportProjection:
    def test_pure_state(self):
        rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
        assert np.allclose(support_projection(rho).matrix, np.diag([1.0, 0.0]))

    def test_full_support(self):
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5]))
        assert support_projection(rho).rank == 2

    def test_eigenvalue_cutoff(self):
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0]))
        assert np.allclose(support_projection(rho).matrix,
                           np.diag([1.0, 1.0, 0.0]))

    def test_bad_density_matrix_rejected(self):
        with pytest.raises(StructuralError):
            DensityMatrix.from_matrix(np.diag([2.0, 0.0]))
        with pytest.raises(StructuralError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))


class TestPositiveRecurrence:
    def test_damping_ground_corner(self, amplitude_damping):
        assert classify_projection(
            amplitude_damping, np.diag([1.0, 0.0])).label == "positive_recurrent"

    def test_absorbing_state(self, absorbing_chain):
        assert classify_projection(
            absorbing_chain,
            np.diag([0.0, 0.0, 1.0])).label == "positive_recurrent"

    def test_identity_channel_pure_states(self, identity_channel):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert classify_projection(
            identity_channel,
            np.outer(v, v.conj())).label == "positive_recurrent"

    def test_non_minimal_rejected(self, amplitude_damping):
        assert classify_projection(
            amplitude_damping, np.eye(2)).label == "subharmonic_nonminimal"

    def test_resolve_output_is_positive_recurrent(self, absorbing_chain):
        res = resolve(absorbing_chain, seed=3)
        for p in res.recurrent_projections:
            assert classify_projection(
                absorbing_chain, p).label == "positive_recurrent"


class TestStrongErgodicity:
    def test_damping_holds(self, amplitude_damping):
        report = strong_ergodicity_check(amplitude_damping)
        assert report.holds
        assert report.gap == pytest.approx(1.0 - SQ5, abs=1e-9)
        assert np.allclose(report.phi0.matrix, np.diag([1.0, 0.0]), atol=1e-8)

    def test_identity_channel_fails(self, identity_channel):
        report = strong_ergodicity_check(identity_channel)
        assert not report.holds
        assert report.phi0 is None

    def test_dephasing_fails(self, dephasing):
        assert not strong_ergodicity_check(dephasing).holds

    def test_decay_rate_matches_gap(self, amplitude_damping):
        # fitted trace-norm decay rate vs the spectral prediction
        report = strong_ergodicity_check(amplitude_damping)
        r = 1.0 - report.gap  # largest sub-peripheral modulus
        rng = np.random.default_rng(8)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        steps = np.arange(10, 40, 4)
        dists = []
        for n in steps:
            rho_n = evolve_predual(amplitude_damping, rho, n=int(n))
            dists.append(trace_distance_oracle(rho_n, report.phi0.matrix))
        slope = np.polyfit(steps, np.log(dists), 1)[0]
        assert abs(-slope - (-np.log(r))) <= 0.2 * abs(np.log(r))


class TestReductionEquivalence:
    def test_damping(self, amplitude_damping):
        eq = ergodicity_reduction_equivalence(amplitude_damping,
                                              np.diag([1.0, 0.0]))
        assert eq.full and eq.reduced and eq.y_is_one and eq.consistent

    def test_dephasing_vacuous(self, dephasing):
        eq = ergodicity_reduction_equivalence(dephasing, np.diag([1.0, 0.0]))
        assert not eq.y_is_one
        assert eq.consistent

    def test_absorbing_chain_vacuous(self, absorbing_chain):
        eq = ergodicity_reduction_equivalence(absorbing_chain,
                                              np.diag([1.0, 0.0, 0.0]))
        assert not eq.y_is_one
        assert not eq.full and eq.reduced
        assert eq.consistent

    def test_rejects_non_support(self, amplitude_damping):
        # the full space is sub-harmonic but no invariant state has full
        # support for the damping channel
        with pytest.raises(StructuralError, match="support"):
            ergodicity_reduction_equivalence(amplitude_damping, np.eye(2))

    def test_tests_p_once_in_reduction_and_once_in_its_limit(
            self, monkeypatch, amplitude_damping):
        import qds.ergodicity
        import qds.projections
        import qds.resolution

        real = qds.projections.is_subharmonic
        tested = []

        def counting(*args, **kwargs):
            tested.append(args)
            return real(*args, **kwargs)

        for module in (qds.projections, qds.resolution, qds.ergodicity):
            monkeypatch.setattr(module, "is_subharmonic", counting,
                                raising=False)
        eq = ergodicity_reduction_equivalence(amplitude_damping,
                                              np.diag([1.0, 0.0]))
        assert eq.consistent
        assert len(tested) == 2

    def test_rejects_non_subharmonic_as_structural(self, amplitude_damping):
        # the excited state's corner leaks: a structural refusal, not the
        # corner state's numerical one
        with pytest.raises(StructuralError, match="sub-harmonic"):
            ergodicity_reduction_equivalence(amplitude_damping,
                                             np.diag([0.0, 1.0]))

    def test_random_models_consistent(self):
        rng = np.random.default_rng(14)
        for i in range(5):
            model = random_kraus_model(rng, 3, 2)
            inv = invariant_states(model, seed=50 + i)
            for state in inv.states:
                support = support_projection(state)
                eq = ergodicity_reduction_equivalence(model, support,
                                                      seed=50 + i)
                assert eq.consistent


class TestHeldFullVerdict:
    """A caller holding the model's own strong-ergodicity report hands it
    to ergodicity_reduction_equivalence instead of having it rerun."""

    @staticmethod
    def _counting(monkeypatch, modules):
        import qds.ergodicity

        real = qds.ergodicity.strong_ergodicity_check
        checked = []

        def counting(model, *args, **kwargs):
            checked.append(model)
            return real(model, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, "strong_ergodicity_check", counting)
        return checked

    def test_held_report_is_not_recomputed(self, monkeypatch):
        import qds.ergodicity

        rng = np.random.default_rng(15)
        for model in (random_block_diagonal_kraus(rng, [2, 2]),
                      random_kraus_model(rng, 3),
                      stochastic_model(structured_stochastic_matrix(rng, 6))):
            held = strong_ergodicity_check(model, seed=3)
            checked = self._counting(monkeypatch, [qds.ergodicity])
            for state in invariant_states(model, seed=3).states:
                support = support_projection(state)
                del checked[:]
                want = ergodicity_reduction_equivalence(model, support, seed=3)
                assert len(checked) == 2 and checked[0] is model
                del checked[:]
                got = ergodicity_reduction_equivalence(model, support, seed=3,
                                                       full=held)
                # only the reduced corner is checked
                assert len(checked) == 1
                assert got == want

    def test_cli_checks_the_full_model_once(self, monkeypatch, tmp_path):
        import qds.cli
        import qds.ergodicity

        checked = self._counting(monkeypatch, [qds.cli, qds.ergodicity])
        fixture = pathlib.Path(__file__).parent.parent / "fixtures"
        out = tmp_path / "report.json"
        assert qds.cli.main(["ergodic", str(fixture / "absorbing_chain_3.json"),
                             "--output", str(out)]) == 0
        states = json.loads(out.read_text())["payload"]["invariant_states"]
        assert len(states) == 2
        # the full model once, then one reduced corner per invariant state
        assert len(checked) == 1 + len(states)
        assert all(m.dim == 1 for m in checked[1:])


class TestSeedArguments:
    """A seed is a non-negative integer or a SeedSequence; anything else is
    a structural error at every entry point that takes one."""

    ENTRY_POINTS = (resolve, strong_ergodicity_check, invariant_states)

    @pytest.mark.parametrize("entry", ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [-3, 2.5, True, "7", None])
    def test_bad_seed_is_structural(self, amplitude_damping, dephasing,
                                    entry, seed):
        # dephasing is not strongly ergodic: its check draws no random
        # states, and the seed is refused all the same
        for model in (amplitude_damping, dephasing):
            with pytest.raises(StructuralError, match="seed must be"):
                entry(model, seed=seed)

    @pytest.mark.parametrize("entry", ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    def test_seed_sequence_is_accepted(self, amplitude_damping, entry):
        seeds = [np.random.SeedSequence(4), 4, np.int64(4)]
        results = [entry(amplitude_damping, seed=s) for s in seeds]
        if entry is resolve:
            got = [r.recurrent_projections[0].matrix for r in results]
            assert all(np.array_equal(got[0], g) for g in got)
