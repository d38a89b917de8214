"""The spectral split read off the blocks of a resolution's frame
(:func:`qds.spectral.block_split`), against the dense split of S."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from qds import spectral
from qds._linalg import vec
from qds.cli import main
from qds.ergodicity import _hermitian_fixed_basis
from qds.errors import ConvergenceError, CrossCheckError
from qds.models import (
    DEFAULT_TOL, Superoperator, heisenberg_superoperator, kraus_model,
    lindblad_model, stochastic_model,
)
from qds.rand import (
    random_block_diagonal_kraus, random_kraus_model,
    random_kraus_with_invariant_subspace,
    random_lindblad_with_invariant_subspace, structured_stochastic_matrix,
)
from qds.resolution import resolve
from qds.serialize import dump_model
from qds.spectral import (
    _check_against_dense, _derived, block_split, spectral_split,
)

from conftest import SQ5, dag


def _direct_sum(models):
    """Block-diagonal sum of Kraus models, or of Lindblad models."""
    if models[0].kind == "kraus":
        return kraus_model([scipy.linalg.block_diag(*ops) for ops in
                            zip(*(m.kraus_ops for m in models))])
    return lindblad_model(
        scipy.linalg.block_diag(*(m.hamiltonian for m in models)),
        [scipy.linalg.block_diag(*ops)
         for ops in zip(*(m.lindblad_ops for m in models))])


def _probe_models():
    """name -> (model, part ranks, remainder rank).  Each summand of a
    direct sum has one non-reducing invariant subspace, of the given rank
    in the given dimension."""
    rng = np.random.default_rng(41)

    def summed(draw, shapes):
        return _direct_sum([draw(rng, d, r)[0] for d, r in shapes])

    omega = np.exp(2j * np.pi / 3)
    return {
        "kraus 3+3, 2 transient": (summed(
            random_kraus_with_invariant_subspace, ((4, 3), (4, 3))),
            [3, 3], 2),
        "kraus 4+2+2, 3 transient": (summed(
            random_kraus_with_invariant_subspace, ((5, 4), (3, 2), (3, 2))),
            [4, 2, 2], 3),
        "lindblad 3+2, 2 transient": (summed(
            random_lindblad_with_invariant_subspace, ((4, 3), (3, 2))),
            [3, 2], 2),
        "kraus 8+8": (random_block_diagonal_kraus(rng, [8, 8]), [8, 8], 0),
        "chain 3+3, 3 transient": (stochastic_model(
            structured_stochastic_matrix(rng, 9, n_classes=2, n_transient=3)),
            [3, 3], 3),
        "chain 4+3+1, 2 transient": (stochastic_model(
            structured_stochastic_matrix(rng, 10, n_classes=3, n_transient=2)),
            [4, 3, 1], 2),
        "identity d=2": (kraus_model([np.eye(2)]), [1, 1], 0),
        "dephasing d=3": (kraus_model(
            [SQ5 * np.eye(3), SQ5 * np.diag([1, omega, omega ** 2])]),
            [1, 1, 1], 0),
    }


PROBES = _probe_models()


def _matched(got, want):
    """For each cluster of ``got``, the nearest cluster of ``want``."""
    return [int(np.argmin(np.abs(want.eigenvalues - mu)))
            for mu in got.eigenvalues]


@pytest.mark.parametrize("name", sorted(PROBES))
def test_block_split_matches_the_dense_split(name):
    model, ranks, remainder = PROBES[name]
    model = dataclasses.replace(model)  # a fresh record
    res = resolve(model)
    assert [p.rank for p in res.recurrent_projections] == ranks
    assert res.metastable_remainder.rank == remainder

    rec = _derived(model, DEFAULT_TOL)
    s = heisenberg_superoperator(model)
    block, dense = block_split(s, rec.frame), spectral_split(s)
    # the model's own split is the block one
    assert np.array_equal(rec.split.ergodic_right, block.ergodic_right)
    assert np.array_equal(rec.split.ergodic_rows, block.ergodic_rows)

    match = _matched(block, dense)
    assert sorted(match) == list(range(len(dense.eigenvalues)))
    means = dense.eigenvalues[match]
    assert np.abs(block.eigenvalues - means).max() <= 1e-10
    assert np.array_equal(block.multiplicities, dense.multiplicities[match])
    assert sorted(match[i] for i in block.peripheral) == \
        sorted(dense.peripheral)
    assert match[block.ergodic_index] == dense.ergodic_index
    gaps = block.gap(), dense.gap()
    assert gaps[0] == gaps[1] or abs(gaps[0] - gaps[1]) <= 1e-10

    parts = [p.matrix for p in res.recurrent_projections]
    for x in parts + [np.eye(model.dim)]:
        got, want = block.apply_ergodic(vec(x)), dense.apply_ergodic(vec(x))
        assert np.linalg.norm(got - want) <= 1e-10
    fixed = [len(_hermitian_fixed_basis(dag(data.ergodic_rows), model.dim,
                                        DEFAULT_TOL))
             for data in (block, dense)]
    assert fixed[0] == fixed[1]


def test_one_full_rank_part_keeps_the_dense_split(monkeypatch):
    frames, dense, checks = [], [], []
    real_block, real_dense = spectral.block_split, spectral.spectral_split
    monkeypatch.setattr(spectral, "block_split",
                        lambda s, frame, tol: frames.append(frame)
                        or real_block(s, frame, tol))
    monkeypatch.setattr(spectral, "spectral_split",
                        lambda s, tol: dense.append(1) or real_dense(s, tol))
    monkeypatch.setattr(spectral, "_check_against_dense",
                        lambda *args: checks.append(1))
    model = random_kraus_model(np.random.default_rng(43), 3)
    res = resolve(model)
    assert [p.rank for p in res.recurrent_projections] == [3]
    assert dense == [1]
    [(whole, remainder)] = frames
    assert np.array_equal(whole, np.eye(3)) and remainder.shape == (3, 0)
    assert checks == []


def test_resolve_and_ergodic_factor_no_superoperator(monkeypatch, capsys,
                                                     tmp_path):
    model = random_block_diagonal_kraus(np.random.default_rng(47), [8, 8])
    n = model.dim ** 2
    calls = []
    for name in ("eig", "eigvals", "svd"):
        def counting(a, *args, _real=getattr(np.linalg, name), _name=name,
                     **kwargs):
            if np.shape(a)[0] == n:
                calls.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    res = resolve(model)
    assert [p.rank for p in res.recurrent_projections] == [8, 8]
    assert calls == []
    path = tmp_path / "model.json"
    dump_model(model, str(path))
    assert main(["ergodic", str(path)]) == 0
    capsys.readouterr()
    assert calls == []


def test_a_frame_off_subharmonic_fails_the_triangularity_check():
    model = random_block_diagonal_kraus(np.random.default_rng(53), [2, 2])
    resolve(model)
    frame = [b.copy() for b in _derived(model, DEFAULT_TOL).frame]
    # rotate one direction of the first part into the second: the frame
    # stays unitary, but its first part is no longer sub-harmonic
    a, b = frame[0][:, 0].copy(), frame[1][:, 0].copy()
    c, s = np.cos(0.1), np.sin(0.1)
    frame[0][:, 0], frame[1][:, 0] = c * a + s * b, c * b - s * a
    fresh = _derived(dataclasses.replace(model), DEFAULT_TOL)
    fresh.frame = tuple(frame)
    with pytest.raises(CrossCheckError, match="triangularity check"):
        fresh.split


def test_a_jordan_block_in_a_part_pair_raises_as_the_dense_split():
    # tau(x)_00 = x_00 + x_11 on d = 3: the eigenvalue 1 is defective
    # inside the block of a part spanning e_0 and e_1
    m = np.eye(9, dtype=complex)
    m[0, 4] = 1.0
    s = Superoperator(dim=3, matrix=m, picture="heisenberg",
                      time_kind="discrete_step")
    frame = (np.eye(3)[:, :2], np.eye(3)[:, 2:], np.zeros((3, 0)))
    with pytest.raises(ConvergenceError) as want:
        spectral_split(s)
    with pytest.raises(ConvergenceError) as got:
        block_split(s, frame)
    assert str(got.value) == str(want.value)
    assert "(algebraic 9, geometric 8)" in str(got.value)


def test_the_dense_check_refuses_a_different_split():
    rng = np.random.default_rng(59)
    one, other = (spectral_split(heisenberg_superoperator(
        random_block_diagonal_kraus(rng, [2, 2]))) for _ in range(2))
    _check_against_dense(one, one)
    with pytest.raises(CrossCheckError, match="disagrees with the dense"):
        _check_against_dense(one, other)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_the_whole_space_split_matches_a_permuted_identity_frame(
        name, monkeypatch):
    # a permuted identity frame takes the general path: both conjugations
    # through the frame, the triangularity check and the block read from S'
    model = PROBES[name][0]
    s = heisenberg_superoperator(dataclasses.replace(model))
    d = model.dim
    perm = np.roll(np.arange(d), 1)
    calls = []
    for fn in ("_conjugate_columns", "_check_triangular",
               "real_hermitian_basis"):
        def counting(*args, _real=getattr(spectral, fn), _name=fn):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(spectral, fn, counting)
    whole = spectral_split(s)
    assert calls == []
    general = block_split(s, (np.eye(d)[:, perm], np.zeros((d, 0))))
    assert sorted(set(calls)) == ["_check_triangular", "_conjugate_columns",
                                  "real_hermitian_basis"]

    match = _matched(whole, general)
    assert sorted(match) == list(range(len(general.eigenvalues)))
    assert np.abs(whole.eigenvalues - general.eigenvalues[match]).max() \
        <= 1e-12
    assert np.array_equal(whole.multiplicities,
                          general.multiplicities[match])
    assert sorted(match[i] for i in whole.peripheral) == \
        sorted(general.peripheral)
    assert match[whole.ergodic_index] == general.ergodic_index
    probe = spectral.probe_vec(d * d)
    want = general.apply_ergodic(probe)
    assert np.linalg.norm(whole.apply_ergodic(probe) - want) <= 1e-12 * max(
        1.0, np.linalg.norm(want))
