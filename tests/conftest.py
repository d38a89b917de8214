"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's superoperator and
vectorization machinery: channel actions are plain operator loops and
absorption probabilities come from a linear solve on the chain, so
expected values are computed along an independent route.
"""

import pathlib

import numpy as np
import pytest

from qds.models import lindblad_model
from qds.rand import random_block_diagonal_lindblad
from qds.serialize import load_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

SQ5 = 0.7071067811865476  # sqrt(0.5)


@pytest.fixture(scope="session")
def identity_channel():
    return load_model(FIXTURES / "identity_channel_d2.json")


@pytest.fixture(scope="session")
def amplitude_damping():
    return load_model(FIXTURES / "amplitude_damping.json")


@pytest.fixture(scope="session")
def amplitude_damping_lindblad():
    return load_model(FIXTURES / "amplitude_damping_lindblad.json")


@pytest.fixture(scope="session")
def dephasing():
    return load_model(FIXTURES / "dephasing.json")


@pytest.fixture(scope="session")
def absorbing_chain():
    return load_model(FIXTURES / "absorbing_chain_3.json")


@pytest.fixture(scope="session")
def remainder_off_subharmonic():
    """A 3 + 3 block Lindblad model with its time unit rescaled by
    c = 1e6 (H -> cH, L -> sqrt(c) L): the remainder left by the first
    part of ``resolve`` has an ``is_subharmonic`` residual of about
    1.35e-8, above the default alg_tol."""
    model = random_block_diagonal_lindblad(np.random.default_rng(3), [3, 3])
    c = 1e6
    return lindblad_model(c * model.hamiltonian,
                          [np.sqrt(c) * l for l in model.lindblad_ops])


def dag(a):
    return np.conj(a).T


def kraus_heisenberg_oracle(ops, x, n=1):
    """n-fold Heisenberg action by plain operator arithmetic."""
    out = np.array(x, dtype=complex)
    for _ in range(n):
        out = sum(dag(k) @ out @ k for k in ops)
    return out


def kraus_predual_oracle(ops, rho, n=1):
    out = np.array(rho, dtype=complex)
    for _ in range(n):
        out = sum(k @ out @ dag(k) for k in ops)
    return out


def lindblad_generator_oracle(y, jumps, x):
    """Heisenberg generator action by plain operator arithmetic."""
    out = dag(y) @ x + x @ y
    for l in jumps:
        out = out + dag(l) @ x @ l
    return out


def absorption_probabilities(p, target_class, closed_classes):
    """Probability of ending in ``target_class``, per starting state.

    Linear-solve oracle: h = 1 on the target class, h = 0 on the other
    closed classes, and h_i = sum_j P[i, j] h_j on transient states.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[0]
    absorbed = set().union(*closed_classes)
    transient = [i for i in range(d) if i not in absorbed]
    h = np.zeros(d)
    for i in target_class:
        h[i] = 1.0
    if transient:
        q = p[np.ix_(transient, transient)]
        r = p[np.ix_(transient, sorted(target_class))]
        rhs = r.sum(axis=1)
        h_t = np.linalg.solve(np.eye(len(transient)) - q, rhs)
        for idx, i in enumerate(transient):
            h[i] = h_t[idx]
    return h


def trace_distance_oracle(a, b):
    """Trace-norm distance via singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a) - np.asarray(b),
                                      compute_uv=False)))


def expm_series(a, terms=60):
    """Truncated power series, an independent check on the dense
    exponential for small norms."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out
