import collections
import dataclasses
import json
import pathlib
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from qds._linalg import unvec, vec
from qds.ergodicity import _predual_ergodic_state, invariant_states
from qds.errors import ConvergenceError, StructuralError
from qds.models import (
    DEFAULT_TOL, QuantumModel, Superoperator, Tolerances,
    heisenberg_superoperator, lindblad_model, predual_superoperator,
    stochastic_model,
)
from qds.projections import Projection
from qds.rand import (
    random_block_diagonal_kraus, random_block_diagonal_lindblad,
    random_hermitian, random_kraus_model,
    random_kraus_with_invariant_subspace, random_lindblad_model,
    random_stochastic_matrix, structured_stochastic_matrix,
)
from qds.resolution import resolve
from qds.spectral import (
    _check_ergodic_projection, _cluster_indices, _derived, _horizon,
    _propagator, asymptotic_operator, evolve_heisenberg, evolve_predual,
    spectral_split,
)

from conftest import (
    SQ5, absorption_probabilities, dag, expm_series, kraus_heisenberg_oracle,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)

# Chains with closed classes of sizes 5 and 2 plus 3 transient states,
# drawn by the benchmark's structured_chain(default_rng(s), (5, 2), 3).
# Their superoperators have a zero eigenvalue of multiplicity about
# d^2 - d, which an eigenbasis inverse turns into an ergodic projection
# with the right range but the wrong kernel.
EIGENBASIS_CHAINS = json.loads(
    (pathlib.Path(__file__).parent / "eigenbasis_chains.json").read_text())


class TestSpectralSplit:
    def test_identity_channel_single_cluster(self, identity_channel):
        data = spectral_split(heisenberg_superoperator(identity_channel))
        assert len(data.clusters) == 1
        assert data.multiplicities[0] == 4
        assert data.eigenvalues[0] == pytest.approx(1.0)

    def test_amplitude_damping_spectrum(self, amplitude_damping):
        data = spectral_split(heisenberg_superoperator(amplitude_damping))
        moduli = sorted(
            float(abs(data.eigenvalues[i]))
            for i in range(len(data.clusters))
            for _ in range(int(data.multiplicities[i])))
        assert moduli == pytest.approx([0.5, SQ5, SQ5, 1.0], abs=1e-9)
        assert data.peripheral == (data.ergodic_index,)

    def test_dephasing_generator_kernel(self, dephasing):
        data = spectral_split(heisenberg_superoperator(dephasing))
        erg = data.ergodic_index
        assert data.multiplicities[erg] == 2
        others = sorted(
            (complex(data.eigenvalues[i]) for i in range(len(data.clusters))
             if i != erg), key=lambda z: z.imag)
        assert others == pytest.approx([-2 - 2j, -2 + 2j])

    def test_ergodic_projection_commutes(self, amplitude_damping):
        s = heisenberg_superoperator(amplitude_damping)
        data = spectral_split(s)
        p = data.ergodic_right @ data.ergodic_rows
        assert np.linalg.norm(s.matrix @ p - p, 2) <= 1e-8  # eigenvalue 1

    def test_defective_ergodic_eigenvalue_raises(self):
        jordan = np.zeros((4, 4), dtype=complex)
        jordan[0, 0] = jordan[1, 1] = 1.0
        jordan[0, 1] = 1.0
        jordan[2, 2] = 0.3
        jordan[3, 3] = 0.2
        s = Superoperator(dim=2, matrix=jordan, picture="heisenberg",
                          time_kind="discrete_step")
        with pytest.raises(ConvergenceError, match="non-diagonalizable"):
            spectral_split(s)

    def test_defective_decaying_sector_still_works(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[1, 1] = m[2, 2] = 0.5
        m[1, 2] = 1.0  # Jordan block away from the ergodic eigenvalue
        m[3, 3] = 0.2
        s = Superoperator(dim=2, matrix=m, picture="heisenberg",
                          time_kind="discrete_step")
        data = spectral_split(s)
        erg = data.ergodic_right @ data.ergodic_rows
        assert np.linalg.norm(erg @ erg - erg, 2) <= 1e-8
        assert np.linalg.norm(m @ erg - erg, 2) <= 1e-8
        assert np.linalg.norm(erg @ m - erg, 2) <= 1e-8

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gate_rejects_wrong_kernel_or_range(self, amplitude_damping, side):
        # an idempotent E with the right range but the wrong kernel fails
        # only left invariance; the right kernel but the wrong range fails
        # only right invariance
        data = spectral_split(heisenberg_superoperator(amplitude_damping))
        r, rows = data.ergodic_right, data.ergodic_rows
        rng = np.random.default_rng(3)
        if side == "left":
            z = rng.standard_normal((1, 4))
            bad = dataclasses.replace(data, ergodic_rows=rows + z - z @ r @ dag(r))
        else:
            x = rng.standard_normal((4, 1))
            bad = dataclasses.replace(data, ergodic_right=r + x - r @ (rows @ x))
        e = bad.ergodic_right @ bad.ergodic_rows
        assert np.linalg.norm(e @ e - e, 2) <= 1e-12
        lam0 = data.eigenvalues[data.ergodic_index]
        _check_ergodic_projection(data, lam0)
        with pytest.raises(ConvergenceError, match=f"not {side}-invariant"):
            _check_ergodic_projection(bad, lam0)

    def test_no_ergodic_eigenvalue_raises(self):
        s = Superoperator(dim=2, matrix=0.5 * np.eye(4, dtype=complex),
                          picture="heisenberg", time_kind="discrete_step")
        with pytest.raises(StructuralError):
            spectral_split(s)


def _clusters_by_search(values, radius):
    """Reference clustering: grow each cluster from the smallest
    unassigned eigenvalue by repeated neighbour search."""
    unassigned = set(range(len(values)))
    clusters = []
    while unassigned:
        seed = min(unassigned, key=lambda k: (values[k].real, values[k].imag, k))
        group, frontier = [seed], [seed]
        unassigned.discard(seed)
        while frontier:
            base = frontier.pop()
            near = [k for k in unassigned
                    if abs(values[k] - values[base]) <= radius]
            unassigned.difference_update(near)
            group += near
            frontier += near
        clusters.append(np.array(sorted(group)))
    return clusters


def test_cluster_indices_match_the_search():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        centres = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values = rng.choice(centres[:int(rng.integers(1, n + 1))], n)
        values = values + 10 ** rng.uniform(-10, -6) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        radius = 10 ** rng.uniform(-8, -6)
        got = _cluster_indices(values, radius)
        want = _clusters_by_search(values, radius)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _assert_predual_state_matches(model):
    """The invariant state read off the Heisenberg split through E^+ must
    match the one from a direct split of the predual matrix."""
    d = model.dim
    got = _predual_ergodic_state(
        spectral_split(heisenberg_superoperator(model)), d, DEFAULT_TOL)
    data = spectral_split(predual_superoperator(model))
    want = unvec(data.apply_ergodic(vec(np.eye(d) / d)), d)
    want = 0.5 * (want + dag(want))
    want = want / np.trace(want).real
    assert np.linalg.norm(got - want, 2) <= 1e-12


def test_predual_state_from_heisenberg_split_random_models():
    rng = np.random.default_rng(21)
    models = []
    for _ in range(4):
        models.append(random_kraus_model(rng, int(rng.integers(2, 5))))
        models.append(random_block_diagonal_kraus(rng, [2, 2]))
        models.append(random_lindblad_model(rng, int(rng.integers(2, 5))))
        models.append(random_block_diagonal_lindblad(rng, [2, 1]))
        models.append(stochastic_model(random_stochastic_matrix(
            rng, int(rng.integers(2, 7)))))
        models.append(stochastic_model(structured_stochastic_matrix(rng, 6)))
    for model in models:
        _assert_predual_state_matches(model)


@pytest.mark.parametrize("seed", sorted(EIGENBASIS_CHAINS))
class TestDegenerateChains:
    def test_ergodic_projection_is_spectral(self, seed):
        model = stochastic_model(np.array(EIGENBASIS_CHAINS[seed]))
        for build in (heisenberg_superoperator, predual_superoperator):
            s = build(model)
            data = spectral_split(s)
            e = data.ergodic_right @ data.ergodic_rows
            assert np.linalg.norm(e @ e - e, 2) <= 1e-10
            assert np.linalg.norm(s.matrix @ e - e, 2) <= 1e-10
            assert np.linalg.norm(e @ s.matrix - e, 2) <= 1e-10

    def test_predual_state_from_heisenberg_split(self, seed):
        model = stochastic_model(np.array(EIGENBASIS_CHAINS[seed]))
        _assert_predual_state_matches(model)

    def test_resolves_with_invariant_states(self, seed):
        model = stochastic_model(np.array(EIGENBASIS_CHAINS[seed]))
        res = resolve(model)
        assert [p.rank for p in res.recurrent_projections] == [5, 2]
        assert res.metastable_remainder.rank == 3
        assert len(invariant_states(model).states) == 2


class TestEvolution:
    def test_zero_time_is_identity(self, dephasing, amplitude_damping):
        rng = np.random.default_rng(2)
        x = random_hermitian(rng, 2)
        assert np.allclose(evolve_heisenberg(dephasing, x, t=0.0), x)
        assert np.allclose(evolve_heisenberg(amplitude_damping, x, n=0), x)

    def test_amplitude_damping_two_steps(self, amplitude_damping):
        p = np.diag([1.0, 0.0]).astype(complex)
        out = evolve_heisenberg(amplitude_damping, p, n=2)
        assert np.allclose(out, np.diag([1.0, 0.75]))
        oracle = kraus_heisenberg_oracle(amplitude_damping.kraus_ops, p, n=2)
        assert np.allclose(out, oracle, atol=1e-12)

    def test_dephasing_closed_form(self, dephasing):
        out = evolve_heisenberg(dephasing, SX, t=1.0)
        assert np.linalg.norm(out, 2) == pytest.approx(np.exp(-2.0), abs=1e-10)

    def test_negative_time_rejected(self, dephasing, amplitude_damping):
        with pytest.raises(StructuralError, match="negative"):
            evolve_heisenberg(dephasing, SX, t=-1.0)
        with pytest.raises(StructuralError, match="negative"):
            evolve_heisenberg(amplitude_damping, SX, n=-1)

    def test_semigroup_law(self):
        rng = np.random.default_rng(21)
        h = random_hermitian(rng, 3)
        jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
        model = lindblad_model(h, jumps)
        x = random_hermitian(rng, 3)
        a = evolve_heisenberg(model, evolve_heisenberg(model, x, t=0.3), t=0.7)
        b = evolve_heisenberg(model, x, t=1.0)
        assert np.linalg.norm(a - b, 2) <= 1e-8

    def test_expm_against_power_series(self, dephasing):
        # dense exponential vs truncated series at small time
        s = heisenberg_superoperator(dephasing)
        for t in (0.01, 0.05, 0.1):
            direct = scipy.linalg.expm(t * s.matrix)
            series = expm_series(t * s.matrix)
            assert np.linalg.norm(direct - series, 2) <= 1e-10

    def test_predual_evolution_keeps_trace(self, amplitude_damping):
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = evolve_predual(amplitude_damping, rho, n=5)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


class TestMonotonicity:
    def test_subharmonic_orbit_is_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model, proj = random_kraus_with_invariant_subspace(rng, 4, 2)
            prev = np.array(proj.matrix)
            for n in range(1, 6):
                cur = evolve_heisenberg(model, proj.matrix, n=n)
                diff_min = np.linalg.eigvalsh(cur - prev)[0]
                assert diff_min >= -1e-8
                prev = cur


class TestAsymptoticOperator:
    def test_identity_channel_fixes_projections(self, identity_channel):
        p = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(asymptotic_operator(identity_channel, p), p)

    def test_amplitude_damping_reaches_identity(self, amplitude_damping):
        p = np.diag([1.0, 0.0]).astype(complex)
        y = asymptotic_operator(amplitude_damping, p)
        assert np.linalg.norm(y - np.eye(2), 2) <= 1e-9

    def test_absorbing_chain_absorption_probabilities(self, absorbing_chain):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        y = asymptotic_operator(absorbing_chain, p)
        oracle = absorption_probabilities(
            absorbing_chain.stochastic_matrix, {0}, [{0}, {2}])
        assert np.allclose(np.diag(y).real, oracle, atol=1e-10)
        assert oracle == pytest.approx([1.0, 0.5, 0.0])

    def test_limit_contract(self, absorbing_chain):
        p_mat = np.diag([1.0, 0.0, 0.0]).astype(complex)
        y = asymptotic_operator(absorbing_chain, p_mat)
        assert np.linalg.norm(p_mat @ y - p_mat, 2) <= 1e-8
        assert np.linalg.norm(y @ p_mat - p_mat, 2) <= 1e-8
        eigs = np.linalg.eigvalsh(y)
        assert eigs[0] >= -1e-10 and eigs[-1] <= 1 + 1e-10
        stepped = evolve_heisenberg(absorbing_chain, y, n=1)
        assert np.linalg.norm(stepped - y, 2) <= 1e-8

    def test_rejects_non_subharmonic(self, amplitude_damping):
        p = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(StructuralError, match="not sub-harmonic"):
            asymptotic_operator(amplitude_damping, p)

    def test_kernel_equivalence(self, absorbing_chain):
        # yz = 0 iff tau_t(p) z = 0 for all t
        p = Projection.onto_states(3, [0])
        y = asymptotic_operator(absorbing_chain, p)
        vals, vecs = np.linalg.eigh(y)
        kernel = vecs[:, np.abs(vals) <= 1e-9]
        assert kernel.shape[1] == 1
        for n in range(6):
            image = evolve_heisenberg(absorbing_chain, p.matrix, n=n) @ kernel
            assert np.linalg.norm(image) <= 1e-9
        # conversely: a vector annihilated along the orbit lies in ker y
        z = kernel[:, 0]
        assert np.linalg.norm(y @ z) <= 1e-9


def _memo_models(rng):
    return [random_block_diagonal_kraus(rng, [2, 2]),
            random_kraus_model(rng, 3),
            random_block_diagonal_lindblad(rng, [2, 1]),
            random_lindblad_model(rng, 3),
            stochastic_model(structured_stochastic_matrix(rng, 5))]


class TestDerivedMemo:
    """The record of derived matrices kept per (model, tolerances)."""

    def test_one_record_per_model_and_tolerances(self):
        model = random_block_diagonal_lindblad(np.random.default_rng(3), [2, 1])
        rec = _derived(model, DEFAULT_TOL)
        assert rec.horizon[0].shape == rec.step.shape
        assert _derived(model, Tolerances()) is rec
        loose = _derived(model, Tolerances(alg_tol=1e-7))
        copy = _derived(dataclasses.replace(model), DEFAULT_TOL)
        for other in (loose, copy):
            assert other is not rec
            # nothing formed yet: no entry is shared with ``rec``
            assert set(vars(other)) == {"model", "tol"}
        assert {"superop", "split", "step", "horizon"} <= set(vars(rec))

    def test_cached_propagators_equal_fresh_ones(self):
        for model in _memo_models(np.random.default_rng(4)):
            rec = _derived(model, DEFAULT_TOL)
            s = heisenberg_superoperator(model)
            kind, value, leftover = _horizon(spectral_split(s), DEFAULT_TOL)
            fresh = _propagator(s, model, **{kind: value})
            assert np.array_equal(rec.horizon[0], fresh)
            assert rec.horizon[1] == leftover
            # shared by every caller, so read-only
            assert not rec.horizon[0].flags.writeable
            assert not rec.step.flags.writeable
            if model.kind == "lindblad":
                dt = 1.0 / (1.0 + np.linalg.norm(s.matrix, 2))
                assert np.array_equal(rec.step, _propagator(s, model, t=dt))
            else:
                assert np.array_equal(rec.step, s.matrix)
            # the adjoint serves as the predual horizon propagator
            predual = _propagator(predual_superoperator(model), model,
                                  **{kind: value})
            assert np.linalg.norm(dag(rec.horizon[0]) - predual, 2) <= 1e-12

    def test_generator_stack_is_read_only_and_shared(self):
        for model in _memo_models(np.random.default_rng(7)):
            rec = _derived(model, DEFAULT_TOL)
            labels, ops, adjoints = rec.family
            family = model.generator_family()
            assert labels == tuple(label for label, _ in family)
            assert ops.shape == (len(family), model.dim, model.dim)
            for op, adj, (_, want) in zip(ops, adjoints, family):
                assert np.array_equal(op, want)
                assert np.array_equal(adj, dag(want))
            for stack in (ops, adjoints):
                with pytest.raises(ValueError):
                    stack[0, 0, 0] = 1.0
            assert _derived(model, Tolerances()).family is rec.family
            loose = _derived(model, Tolerances(alg_tol=1e-7))
            assert loose.family is not rec.family

    def test_resolve_reads_each_generator_family_once(self, monkeypatch):
        calls = collections.Counter()
        seen = []  # keeps every model alive, so ids stay unique
        real = QuantumModel.generator_family

        def counting(model):
            calls[id(model)] += 1
            seen.append(model)
            return real(model)

        monkeypatch.setattr(QuantumModel, "generator_family", counting)
        models = _memo_models(np.random.default_rng(8))
        for model in models:
            resolve(model)
            assert calls[id(model)] == 1
        assert set(calls.values()) == {1}

    def test_second_resolve_forms_nothing_new(self, monkeypatch):
        model = random_block_diagonal_lindblad(np.random.default_rng(5), [2, 2])
        n = model.dim ** 2
        calls = []
        for module, name in ((np.linalg, "eig"), (scipy.linalg, "expm")):
            def counting(a, *args, _real=getattr(module, name), _name=name,
                         **kwargs):
                if np.shape(a)[0] == n:
                    calls.append(_name)
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        first = resolve(model)
        assert {"eig", "expm"} <= set(calls)
        calls.clear()
        second = resolve(model)
        assert calls == []
        assert np.array_equal(first.y_total, second.y_total)

    def test_threads_resolving_one_model_agree(self):
        model = random_block_diagonal_kraus(np.random.default_rng(6), [2, 2])
        want = resolve(dataclasses.replace(model))
        results = [None] * 4

        def work(i):
            try:
                results[i] = resolve(model)
            except Exception as exc:  # reported by the assertions below
                results[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for res in results:
            assert not isinstance(res, Exception), res
            assert np.array_equal(res.y_total, want.y_total)
            assert [p.rank for p in res.recurrent_projections] == \
                [p.rank for p in want.recurrent_projections]
            for got, ref in zip(res.recurrent_projections,
                                want.recurrent_projections):
                assert np.array_equal(got.matrix, ref.matrix)
        assert len(vars(model)["_derived"]) == 1
