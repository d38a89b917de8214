import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qds.errors import ConvergenceError, StructuralError
from qds.models import DEFAULT_TOL, Tolerances, lindblad_model
from qds.picard import _PicardGrid, picard_iterate, picard_limit
from qds.rand import random_hermitian, random_lindblad_model
from qds.spectral import evolve_heisenberg

from conftest import dag

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestPicardIterate:
    def test_zeroth_iterate_is_conjugation(self, amplitude_damping_lindblad):
        model = amplitude_damping_lindblad
        trace = picard_iterate(model, np.eye(2), 1.0, 0, steps=16)
        e = scipy.linalg.expm(model.drift)
        assert np.allclose(trace.iterates[0], dag(e) @ e, atol=1e-12)
        # strictly below the identity when dissipation is present
        assert np.linalg.eigvalsh(trace.iterates[0])[0] < 1.0

    def test_zero_generator_is_static(self):
        model = lindblad_model(np.zeros((2, 2)), [])
        rng = np.random.default_rng(3)
        x = random_hermitian(rng, 2)
        trace = picard_iterate(model, x, 2.0, 4, steps=16)
        for it in trace.iterates:
            assert np.allclose(it, x, atol=1e-12)

    def test_damping_approaches_closed_form(self, amplitude_damping_lindblad):
        x = np.diag([1.0, 0.0]).astype(complex)
        trace = picard_iterate(amplitude_damping_lindblad, x, 1.0, 8,
                               steps=128)
        target = np.diag([1.0, 1.0 - np.exp(-1.0)])
        assert np.linalg.norm(trace.iterates[-1] - target, 2) <= 1e-6

    def test_monotone_and_bounded_for_psd(self):
        rng = np.random.default_rng(5)
        model = random_lindblad_model(rng, 3, 2, jump_scale=0.7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = g @ dag(g)
        trace = picard_iterate(model, x, 0.8, 10, steps=32)
        norm_x = np.linalg.norm(x, 2)
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert np.linalg.eigvalsh(b - a)[0] >= -1e-8
        for it in trace.iterates:
            assert np.linalg.norm(it, 2) <= norm_x + 1e-8

    def test_discrete_models_rejected(self, amplitude_damping):
        with pytest.raises(StructuralError, match="continuous"):
            picard_iterate(amplitude_damping, np.eye(2), 1.0, 3)

    def test_preconditions(self, amplitude_damping_lindblad):
        model = amplitude_damping_lindblad
        with pytest.raises(StructuralError):
            picard_iterate(model, np.eye(2), -1.0, 3)
        with pytest.raises(StructuralError):
            picard_iterate(model, np.eye(2), 1.0, 3, steps=4)
        with pytest.raises(StructuralError):
            picard_iterate(model, np.array([[0, 1], [0, 0]]), 1.0, 3)


class TestPicardLimit:
    def test_identity_is_conserved(self, amplitude_damping_lindblad):
        res = picard_limit(amplitude_damping_lindblad, np.eye(2), 1.0,
                           steps=64)
        assert np.linalg.norm(res.value - np.eye(2), 2) <= 1e-9

    def test_damping_closed_form(self, amplitude_damping_lindblad):
        x = np.diag([1.0, 0.0]).astype(complex)
        res = picard_limit(amplitude_damping_lindblad, x, 1.0, steps=256)
        target = np.diag([1.0, 1.0 - np.exp(-1.0)])
        assert np.linalg.norm(res.value - target, 2) <= 1e-6
        assert res.exp_mismatch <= 1e-6
        assert res.integral_residual <= 1e-9

    def test_dephasing_matches_exponential(self, dephasing):
        res = picard_limit(dephasing, SX, 1.0, steps=256)
        direct = evolve_heisenberg(dephasing, SX, t=1.0)
        assert np.linalg.norm(res.value - direct, 2) <= 1e-6

    def test_quadrature_is_fourth_order(self, amplitude_damping_lindblad):
        x = np.diag([1.0, 0.0]).astype(complex)
        exact = np.diag([1.0, 1.0 - np.exp(-1.0)])
        errs = {}
        for steps in (64, 128):
            res = picard_limit(amplitude_damping_lindblad, x, 1.0,
                               steps=steps)
            errs[steps] = np.linalg.norm(res.value - exact, 2)
        assert 8.0 <= errs[64] / errs[128] <= 32.0

    def test_nonconvergence_raises(self, amplitude_damping_lindblad):
        x = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ConvergenceError, match="converge"):
            picard_limit(amplitude_damping_lindblad, x, 1.0, max_n=1,
                         tol=Tolerances(conv_tol=1e-14), steps=16)

    @pytest.mark.parametrize("max_n", [0, -2, 2.5])
    def test_fewer_than_one_level_is_structural(self,
                                                amplitude_damping_lindblad,
                                                max_n):
        x = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(StructuralError, match="max_n"):
            picard_limit(amplitude_damping_lindblad, x, 1.0, max_n=max_n,
                         steps=16)

    def test_integral_equation_residual(self):
        rng = np.random.default_rng(9)
        model = random_lindblad_model(rng, 2, 1, jump_scale=0.8)
        x = random_hermitian(rng, 2)
        res = picard_limit(model, x, 0.7, steps=64)
        assert res.integral_residual <= 10 * Tolerances().conv_tol

    def test_records_the_iterates_of_picard_iterate(self):
        rng = np.random.default_rng(4)
        model = random_lindblad_model(rng, 3, 2, jump_scale=0.6)
        x = random_hermitian(rng, 3)
        res = picard_limit(model, x, 0.9, steps=32)
        trace = picard_iterate(model, x, 0.9, res.n_used, steps=32)
        assert len(res.iterates) == res.n_used + 1
        for a, b in zip(res.iterates, trace.iterates, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(res.value, res.iterates[-1])


def _prefix_weights(steps, h):
    """Weight rows of the integrals over [0, t_j], j = 0..steps: composite
    Simpson for even prefixes, Simpson plus a closing 3/8 block for odd
    ones, and one trapezoid for j = 1."""
    table = [np.zeros(1)]
    for j in range(1, steps + 1):
        w = np.zeros(j + 1)
        if j == 1:
            w[0] = w[1] = h / 2.0
        elif j % 2 == 0:
            w[0] = w[j] = h / 3.0
            w[1:j:2] = 4.0 * h / 3.0
            w[2:j:2] = 2.0 * h / 3.0
        else:
            m = j - 3
            if m > 0:
                w[0] = h / 3.0
                w[1:m:2] = 4.0 * h / 3.0
                w[2:m:2] = 2.0 * h / 3.0
                w[m] = h / 3.0
            w[m] += 3.0 * h / 8.0
            w[m + 1] += 9.0 * h / 8.0
            w[m + 2] += 9.0 * h / 8.0
            w[j] += 3.0 * h / 8.0
        table.append(w)
    return table


def _direct_level(model, grid, table):
    """One level by the per-node convolution: at node j, the sum over
    n <= j of w_j[n] E((j-n)h)^+ Phi(table[n]) E((j-n)h)."""
    phi = [sum(dag(l) @ a @ l for l in model.lindblad_ops) for a in table]
    out = [grid.t0[0]]
    for j, w in enumerate(_prefix_weights(grid.steps, grid.h)[1:], 1):
        out.append(grid.t0[j] + sum(
            w[n] * dag(grid.e[j - n]) @ phi[n] @ grid.e[j - n]
            for n in range(j + 1)))
    return np.array(out)


class TestRunningSums:
    @pytest.mark.parametrize("steps", [8, 9, 16, 33, 64])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_a_level_equals_the_direct_quadrature(self, d, steps, seed):
        # odd step counts end on the closing 3/8 block
        rng = np.random.default_rng(seed)
        model = random_lindblad_model(rng, d, 2, jump_scale=0.8)
        t = rng.uniform(0.2, 2.0)
        grid = _PicardGrid(model, random_hermitian(rng, d), t, steps,
                           DEFAULT_TOL)
        table = np.array([random_hermitian(rng, d)
                          for _ in range(steps + 1)])
        for level in (grid.t0, table):
            got = grid.next_level(level)
            want = _direct_level(model, grid, level)
            assert np.abs(got - want).max() <= 1e-13
