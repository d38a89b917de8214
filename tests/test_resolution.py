import collections
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import qds.projections
import qds.resolution
import qds.spectral
from qds._linalg import invariant_closure
from qds.ergodicity import corner_invariant_state, invariant_states
from qds.errors import ConvergenceError, CrossCheckError, StructuralError
from qds.models import (
    DEFAULT_TOL, heisenberg_superoperator, kraus_model, lindblad_model,
    stochastic_model,
)
from qds.projections import (
    Projection, is_harmonic, projection_basis, range_projection, reduce_model,
)
from qds.rand import (
    random_block_diagonal_kraus, random_block_diagonal_lindblad,
    random_hermitian, random_kraus_model, random_kraus_with_invariant_subspace,
    random_lindblad_model, random_lindblad_with_invariant_subspace,
    random_stochastic_matrix, random_unitary, structured_stochastic_matrix,
)
from qds.resolution import (
    MINIMALITY_RESEEDINGS, classify_projection, commutant_dimension,
    find_harmonic_projection, is_irreducible, is_transient_complement,
    minimal_subharmonic, reachability_closure, resolve,
)
from qds.spectral import (
    _predual_ergodic_state, asymptotic_operator, evolve_heisenberg,
    spectral_split,
)

from conftest import dag


class TestReachability:
    def test_damping_reaches_everything(self, amplitude_damping):
        assert reachability_closure(amplitude_damping,
                                    np.diag([1.0, 0.0])).dim == 2

    def test_identity_channel_adds_nothing(self, identity_channel):
        assert reachability_closure(identity_channel,
                                    np.diag([1.0, 0.0])).dim == 1

    def test_absorbing_chain_unreachable_state(self, absorbing_chain):
        closure = reachability_closure(absorbing_chain,
                                       np.diag([1.0, 0.0, 0.0]))
        assert closure.dim == 2
        # state 2 never feeds states 0 or 1
        for col in closure.basis.T:
            assert abs(col[2]) <= 1e-9


class TestTransience:
    def test_damping_complement_transient(self, amplitude_damping):
        res = is_transient_complement(amplitude_damping, np.diag([1.0, 0.0]))
        assert res.transient and res.metastable
        assert res.min_eig_y == pytest.approx(1.0, abs=1e-9)

    def test_harmonic_corner_not_metastable(self, dephasing):
        res = is_transient_complement(dephasing, np.diag([1.0, 0.0]))
        assert not res.metastable and not res.transient
        assert res.min_eig_y == pytest.approx(0.0, abs=1e-10)

    def test_absorbing_chain_kernel(self, absorbing_chain):
        res = is_transient_complement(absorbing_chain,
                                      np.diag([1.0, 0.0, 0.0]))
        assert not res.metastable
        assert res.closure_dim == 2

    def test_requires_subharmonic(self, amplitude_damping):
        with pytest.raises(StructuralError):
            is_transient_complement(amplitude_damping, np.diag([0.0, 1.0]))


class TestMinimalSubharmonic:
    def test_damping_unique_minimal(self, amplitude_damping):
        for seed in (0, 1, 2, 3):
            p = minimal_subharmonic(amplitude_damping,
                                    Projection.identity(2), seed=seed)
            assert np.allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_identity_channel_seed_dependent(self, identity_channel):
        p1 = minimal_subharmonic(identity_channel, Projection.identity(2),
                                 seed=1)
        p2 = minimal_subharmonic(identity_channel, Projection.identity(2),
                                 seed=2)
        assert p1.rank == p2.rank == 1
        assert np.linalg.norm(p1.matrix - p2.matrix, 2) > 1e-6
        # deterministic per seed
        again = minimal_subharmonic(identity_channel, Projection.identity(2),
                                    seed=1)
        assert np.allclose(p1.matrix, again.matrix)

    def test_absorbing_chain_closed_states(self, absorbing_chain):
        seen = set()
        for seed in range(6):
            p = minimal_subharmonic(absorbing_chain, Projection.identity(3),
                                    seed=seed)
            support = tuple(sorted(p.diagonal_support()))
            assert support in ((0,), (2,))
            seen.add(support)
        assert len(seen) == 2  # both closed classes appear across seeds

    def test_zero_within_rejected(self, amplitude_damping):
        with pytest.raises(StructuralError):
            minimal_subharmonic(amplitude_damping, Projection.zero(2))

    def test_a_within_that_is_not_subharmonic_is_structural(
            self, amplitude_damping):
        # the excited state decays, so its projection is not sub-harmonic
        with pytest.raises(StructuralError,
                           match="'within' must be sub-harmonic"):
            minimal_subharmonic(amplitude_damping,
                                Projection.onto_states(2, [1]))

    def test_one_search_per_descent_step_plus_the_stopping_one(
            self, amplitude_damping, monkeypatch):
        # rank 2 -> rank 1, then the search that finds nothing is the
        # certificate; no second search follows it
        calls = []
        real = qds.resolution._smaller_invariant_subspace

        def counting(ops, basis, rng, tol):
            calls.append(basis.shape[1])
            return real(ops, basis, rng, tol)

        monkeypatch.setattr(qds.resolution, "_smaller_invariant_subspace",
                            counting)
        p = minimal_subharmonic(amplitude_damping, Projection.identity(2))
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-9)
        assert calls == [2, 1]

    @staticmethod
    def _failing_candidates(monkeypatch, n_failing):
        """Make ``is_subharmonic`` refuse the first ``n_failing`` proper
        candidates (rank below the model's dimension); returns the list of
        the residuals it handed out."""
        handed = []
        real = qds.resolution.is_subharmonic

        def flaky(model, p, tol=DEFAULT_TOL):
            verdict = real(model, p, tol)
            if p.rank < model.dim and len(handed) < n_failing:
                handed.append(0.5 + len(handed))
                return dataclasses.replace(verdict, verdict=False,
                                           residual=handed[-1])
            return verdict

        monkeypatch.setattr(qds.resolution, "is_subharmonic", flaky)
        return handed

    def test_a_later_seed_rescues_a_candidate_failing_is_subharmonic(
            self, amplitude_damping, monkeypatch):
        handed = self._failing_candidates(monkeypatch, 1)
        p = minimal_subharmonic(amplitude_damping, Projection.identity(2),
                                seed=3)
        assert handed == [0.5]
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_every_seed_failing_is_subharmonic_names_the_check(
            self, amplitude_damping, monkeypatch):
        handed = self._failing_candidates(monkeypatch, 100)
        with pytest.raises(ConvergenceError) as err:
            minimal_subharmonic(amplitude_damping, Projection.identity(2),
                                seed=3)
        assert len(handed) == MINIMALITY_RESEEDINGS
        assert str(err.value) == (
            "no minimal candidate passed is_subharmonic in "
            f"{MINIMALITY_RESEEDINGS} seeds (last residual "
            f"{handed[-1]:.3g} > alg_tol {DEFAULT_TOL.alg_tol:.3g})")


class TestClassify:
    def test_damping_labels(self, amplitude_damping):
        assert classify_projection(amplitude_damping,
                                   np.diag([1.0, 0.0])).label == "positive_recurrent"
        assert classify_projection(amplitude_damping,
                                   np.eye(2)).label == "subharmonic_nonminimal"
        assert classify_projection(amplitude_damping,
                                   np.diag([0.0, 1.0])).label == "not_subharmonic"

    def test_nonminimal_for_every_seed_without_a_cyclic_vector(
            self, identity_channel):
        # every vector's orbit is its own line: the interior vectors see it
        for seed in range(6):
            assert classify_projection(identity_channel, np.eye(2),
                                       seed=seed).label == \
                "subharmonic_nonminimal"

    @pytest.mark.parametrize("builder", [random_block_diagonal_kraus,
                                         random_block_diagonal_lindblad])
    @pytest.mark.parametrize("model_seed", [0, 1])
    def test_nonminimal_for_every_seed_when_cyclic_but_reducible(
            self, builder, model_seed):
        # a generic vector is cyclic for a direct sum of two irreducible
        # blocks, so only the eigenvectors of the search see the blocks
        model = builder(np.random.default_rng(model_seed), [2, 3])
        ops = qds.spectral._derived(model, DEFAULT_TOL).family.ops
        v = np.random.default_rng(7).standard_normal((5, 1)).astype(complex)
        assert invariant_closure(ops, v, DEFAULT_TOL.rank_tol).shape[1] == 5
        for seed in range(6):
            assert classify_projection(model, np.eye(5),
                                       seed=seed).label == \
                "subharmonic_nonminimal"

    def test_certificate_contents(self, amplitude_damping):
        cls = classify_projection(amplitude_damping, np.diag([1.0, 0.0]))
        cert = cls.certificate
        assert np.allclose(cert.invariant_state, np.diag([1.0, 0.0]), atol=1e-9)
        assert cert.complement_transient and cert.complement_metastable
        assert cert.closure_dim == 2

    def test_full_space_state_from_a_rotated_basis(self):
        # a full-rank projection built from a random unitary is the identity
        # only up to round-off; its certified state must still be invariant
        rng = np.random.default_rng(23)
        chain = rng.random((3, 3))
        models = [random_kraus_model(rng, 3), random_lindblad_model(rng, 3),
                  stochastic_model(chain / chain.sum(axis=1, keepdims=True))]
        for model in models:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                                + 1j * rng.standard_normal((3, 3)))
            p = Projection.from_basis(q)
            assert not np.array_equal(p.matrix, np.eye(3))
            cls = classify_projection(model, p)
            assert cls.label == "positive_recurrent"
            rho = cls.certificate.invariant_state
            if model.kind == "kraus":
                image = sum(k @ rho @ dag(k) for k in model.kraus_ops) - rho
            elif model.kind == "lindblad":
                h = model.hamiltonian
                image = -1j * (h @ rho - rho @ h)
                for l in model.lindblad_ops:
                    ll = dag(l) @ l
                    image = image + l @ rho @ dag(l) - 0.5 * (ll @ rho + rho @ ll)
            else:
                pi = np.diag(rho).real
                image = np.diag(pi @ model.stochastic_matrix - pi)
            assert np.linalg.norm(image, 2) < 1e-9
            assert abs(np.trace(rho) - 1.0) < 1e-9
            exact = classify_projection(model, np.eye(3))
            assert np.allclose(rho, exact.certificate.invariant_state,
                               atol=1e-9)


class TestResolve:
    def test_absorbing_chain(self, absorbing_chain):
        res = resolve(absorbing_chain, seed=1)
        supports = {tuple(sorted(p.diagonal_support()))
                    for p in res.recurrent_projections}
        assert supports == {(0,), (2,)}
        assert sorted(res.metastable_remainder.diagonal_support()) == [1]
        assert np.allclose(res.y_total, np.eye(3), atol=1e-8)
        assert all(c.label == "positive_recurrent" for c in res.certificates)
        assert res.remainder_certificate.label == "transient"

    def test_damping(self, amplitude_damping):
        res = resolve(amplitude_damping, seed=1)
        assert len(res.recurrent_projections) == 1
        assert np.allclose(res.recurrent_projections[0].matrix,
                           np.diag([1.0, 0.0]), atol=1e-9)
        assert res.metastable_remainder.rank == 1
        assert res.remainder_certificate.label == "transient"

    def test_identity_channel_seeds_differ(self, identity_channel):
        r1 = resolve(identity_channel, seed=1)
        r2 = resolve(identity_channel, seed=2)
        for res in (r1, r2):
            assert len(res.recurrent_projections) == 2
            assert res.metastable_remainder.rank == 0
        gap = sum(np.linalg.norm(a.matrix - b.matrix, 2) for a, b in
                  zip(r1.recurrent_projections, r2.recurrent_projections))
        assert gap > 1e-6

    def test_a_seed_sequence_gives_the_same_parts_twice(self,
                                                        identity_channel):
        ss = np.random.SeedSequence(4)
        runs = [resolve(identity_channel, seed=ss) for _ in range(2)]
        want = resolve(identity_channel, seed=4)
        for res in runs:
            for got, ref in zip(res.recurrent_projections,
                                want.recurrent_projections):
                assert np.array_equal(got.matrix, ref.matrix)
        part = minimal_subharmonic(identity_channel, Projection.identity(2),
                                   seed=ss)
        assert np.array_equal(part.matrix, minimal_subharmonic(
            identity_channel, Projection.identity(2), seed=4).matrix)
        assert ss.n_children_spawned == 0

    def test_a_remainder_failing_is_subharmonic_is_a_numerical_failure(
            self, remainder_off_subharmonic, monkeypatch):
        # the remainder is resolve's own, not the caller's input: it fails
        # as a numerical check naming its stage, after one is_subharmonic
        # call each on the whole space, the first part and the remainder
        checked = []
        real = qds.resolution.is_subharmonic

        def counting(model, p, tol=DEFAULT_TOL):
            checked.append(p.rank)
            return real(model, p, tol)

        monkeypatch.setattr(qds.resolution, "is_subharmonic", counting)
        with pytest.raises(CrossCheckError) as err:
            resolve(remainder_off_subharmonic)
        message = str(err.value)
        assert message.startswith(
            "resolve: the remainder after 1 part(s) fails is_subharmonic "
            "(residual ")
        residual = float(message.split("residual ")[1].split(" ")[0])
        assert residual > DEFAULT_TOL.alg_tol
        assert message.endswith(f"> alg_tol {DEFAULT_TOL.alg_tol:.3g})")
        assert checked == [6, 3, 3]

    def test_a_numpy_integer_seed_is_recorded(self, identity_channel):
        res = resolve(identity_channel, seed=np.int64(4))
        assert res.seed == 4 and type(res.seed) is int

    def test_invariants_on_random_models(self):
        rng = np.random.default_rng(61)
        models = []
        for _ in range(4):
            models.append(random_kraus_model(rng, int(rng.integers(2, 5)), 2))
        for _ in range(3):
            models.append(random_lindblad_model(rng, int(rng.integers(2, 4)), 1))
        for _ in range(3):
            models.append(random_kraus_with_invariant_subspace(
                rng, 4, int(rng.integers(1, 4)))[0])
        for i, model in enumerate(models):
            res = resolve(model, seed=100 + i)
            d = model.dim
            parts = res.recurrent_projections
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    assert np.linalg.norm(
                        parts[a].matrix @ parts[b].matrix, 2) <= 1e-8
            total = sum(p.matrix for p in parts) + res.metastable_remainder.matrix
            assert np.linalg.norm(total - np.eye(d), 2) <= 1e-8
            assert np.linalg.eigvalsh(res.y_total)[0] > 1e-9

    def test_unique_recurrent_implies_unique_invariant_state(
            self, amplitude_damping):
        from qds.ergodicity import invariant_states

        res = resolve(amplitude_damping, seed=1)
        assert len(res.recurrent_projections) == 1
        inv = invariant_states(amplitude_damping)
        assert len(inv.basis) == 1

    def test_maximal_subharmonic_converges_to_identity(self, amplitude_damping):
        # complement of a maximal sub-harmonic projection is finite
        # dimensional, so the orbit reaches the identity
        p = np.diag([1.0, 0.0]).astype(complex)
        out = evolve_heisenberg(amplitude_damping, p, n=80)
        assert np.linalg.norm(out - np.eye(2), 2) <= 1e-6


class TestCommutant:
    def test_dephasing_diagonals(self, dephasing):
        assert commutant_dimension(dephasing) == 2

    def test_damping_scalars(self, amplitude_damping_lindblad):
        assert commutant_dimension(amplitude_damping_lindblad) == 1

    def test_distinct_spectrum_hamiltonian(self):
        rng = np.random.default_rng(71)
        for d in (2, 3, 4):
            h = np.diag(np.arange(1.0, d + 1.0))
            u = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
            model = lindblad_model(u @ h @ dag(u), [])
            assert commutant_dimension(model) == d

    def test_kraus_and_chain_dimensions(self, identity_channel,
                                        absorbing_chain):
        assert commutant_dimension(identity_channel) == 4
        rng = np.random.default_rng(72)
        for dims in ((2, 2), (1, 2, 1), (3, 1)):
            model = random_block_diagonal_kraus(rng, dims)
            assert commutant_dimension(model) == len(dims)
        # the chain's graph is connected, so only the scalars commute
        assert commutant_dimension(absorbing_chain) == 1


def _block_chain(rng):
    p = np.zeros((5, 5))
    p[:3, :3] = random_stochastic_matrix(rng, 3)
    p[3:, 3:] = random_stochastic_matrix(rng, 2)
    return p


def _irreducibility_models(rng):
    return [random_kraus_model(rng, 3), random_kraus_model(rng, 2, 1),
            random_block_diagonal_kraus(rng, (2, 1)),
            random_kraus_with_invariant_subspace(rng, 4, 2)[0],
            random_kraus_with_invariant_subspace(rng, 4, 2, reducing=True)[0],
            random_lindblad_model(rng, 3, 2),
            random_block_diagonal_lindblad(rng, (2, 2), 1),
            random_lindblad_with_invariant_subspace(rng, 4, 2)[0],
            random_lindblad_with_invariant_subspace(rng, 4, 2,
                                                    reducing=True)[0],
            stochastic_model(random_stochastic_matrix(rng, 4, 1, 2)),
            stochastic_model(structured_stochastic_matrix(rng, 5)),
            stochastic_model(_block_chain(rng))]


# is_irreducible on _irreducibility_models(default_rng(91)) as decided by
# the routes the commutant replaced: the seeded search for harmonic
# projections (Kraus and chain models) and the {H, L_k, L_k^+} commutant
# (Lindblad models).
SEARCH_VERDICTS = [True, False, False, True, False, True, False, True, False,
                   True, True, False]


class TestIrreducibility:
    def test_fixture_verdicts(self, amplitude_damping_lindblad, dephasing,
                              amplitude_damping, identity_channel,
                              absorbing_chain):
        assert is_irreducible(amplitude_damping_lindblad)
        assert not is_irreducible(dephasing)
        assert is_irreducible(amplitude_damping)
        assert not is_irreducible(identity_channel)
        # two closed classes, yet no harmonic projection exists
        assert is_irreducible(absorbing_chain)

    def test_harmonic_witness_for_block_channels(self):
        rng = np.random.default_rng(81)
        model = random_block_diagonal_kraus(rng, (2, 2))
        witness = find_harmonic_projection(model, seed=5)
        assert witness is not None
        assert is_harmonic(model, witness)

    def test_verdicts_match_the_replaced_routes(self):
        models = _irreducibility_models(np.random.default_rng(91))
        assert [is_irreducible(m) for m in models] == SEARCH_VERDICTS
        for i, model in enumerate(models):
            witness = find_harmonic_projection(model, seed=i)
            assert (witness is None) == SEARCH_VERDICTS[i]
            if witness is not None:
                assert 0 < witness.rank < model.dim
                assert is_harmonic(model, witness)


def _model_with_remainder(kind, rng):
    """A chain with two closed classes and two transient states, or the
    direct sum of two Kraus or Lindblad models that each have a
    non-reducing invariant subspace: two recurrent parts and a nonzero
    remainder."""
    if kind == "chain":
        return stochastic_model(structured_stochastic_matrix(
            rng, 7, n_classes=2, n_transient=2))
    if kind == "kraus":
        a, b = (random_kraus_with_invariant_subspace(rng, d, r)[0]
                for d, r in ((3, 1), (4, 2)))
        return kraus_model([scipy.linalg.block_diag(x, y)
                            for x, y in zip(a.kraus_ops, b.kraus_ops)])
    a, b = (random_lindblad_with_invariant_subspace(rng, d, r)[0]
            for d, r in ((3, 1), (4, 2)))
    return lindblad_model(
        scipy.linalg.block_diag(a.hamiltonian, b.hamiltonian),
        [scipy.linalg.block_diag(x, y)
         for x, y in zip(a.lindblad_ops, b.lindblad_ops)])


class TestClosureCut:
    """``resolve`` cuts by the reachability closure; the range of the limit
    operator y, which it cut by before, is the reference."""

    @settings(max_examples=45, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(("kraus", "lindblad", "chain")))
    def test_closure_is_the_range_of_the_limit_operator(self, seed, kind):
        model = _model_with_remainder(kind, np.random.default_rng(seed))
        res = resolve(model, seed=seed)
        assert len(res.recurrent_projections) == 2
        assert res.metastable_remainder.rank > 0
        acc = np.zeros((model.dim, model.dim), dtype=complex)
        for part in res.recurrent_projections:
            acc = acc + part.matrix
            basis = reachability_closure(model, acc).basis
            want = range_projection(asymptotic_operator(model, acc)).matrix
            assert np.linalg.norm(basis @ dag(basis) - want, 2) <= 1e-10


def _counting(monkeypatch, counts, module, name, key=None):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[key or name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestEachLimitOnce:
    def test_resolve_forms_one_limit_per_part_and_one_for_their_sum(
            self, monkeypatch):
        counts = collections.Counter()
        _counting(monkeypatch, counts, qds.resolution, "asymptotic_operator")
        rng = np.random.default_rng(17)
        for kind in ("kraus", "lindblad", "chain"):
            counts.clear()
            res = resolve(_model_with_remainder(kind, rng))
            assert counts["asymptotic_operator"] == len(
                res.recurrent_projections) + 1
            assert np.array_equal(
                res.remainder_certificate.certificate.min_eig_y,
                np.linalg.eigvalsh(res.y_total)[0])

    def test_resolve_reuses_the_closure_of_the_recurrent_sum(
            self, monkeypatch):
        counts = collections.Counter()
        _counting(monkeypatch, counts, qds.resolution, "reachability_closure")
        rng = np.random.default_rng(19)
        for kind in ("kraus", "lindblad", "chain"):
            counts.clear()
            res = resolve(_model_with_remainder(kind, rng))
            # one per iteration of the loop, the last being the recurrent
            # sum's, and one per part's classification
            assert counts["reachability_closure"] == 2 * len(
                res.recurrent_projections)

    def test_transience_tests_subharmonicity_only_inside_the_limit(
            self, amplitude_damping, monkeypatch):
        counts = collections.Counter()
        # asymptotic_operator reads the projections module's name when
        # called; the resolution module holds its own
        for module in (qds.projections, qds.resolution):
            _counting(monkeypatch, counts, module, "is_subharmonic")
        _counting(monkeypatch, counts, qds.resolution, "asymptotic_operator")
        is_transient_complement(amplitude_damping, np.diag([1.0, 0.0]))
        assert counts == {"is_subharmonic": 1, "asymptotic_operator": 1}
        with pytest.raises(StructuralError, match="not sub-harmonic"):
            is_transient_complement(amplitude_damping, np.diag([0.0, 1.0]))

    def test_classical_comparison_kept_for_chains_only(
            self, absorbing_chain, amplitude_damping):
        res = resolve(absorbing_chain, seed=1)
        assert res.classical_comparison == {
            "agree": True, "resolved_supports": [[0], [2]],
            "closed_classes": [[0], [2]], "resolved_transient": [1],
            "transient_states": [1]}
        assert resolve(amplitude_damping, seed=1).classical_comparison is None


def _corner_state_by_reduction(model, p):
    """The route the split's E^+ replaced: reduce the model to p, split the
    reduced model, and lift its state back to the full space."""
    reduced = reduce_model(model, p)
    rho = _predual_ergodic_state(
        spectral_split(heisenberg_superoperator(reduced)), reduced.dim,
        DEFAULT_TOL)
    rank = range_projection(rho).rank
    if reduced is model:
        return rho, rank
    if model.kind == "stochastic":
        support = sorted(p.diagonal_support())
        full = np.zeros((model.dim, model.dim), dtype=complex)
        full[np.ix_(support, support)] = rho
        return full, rank
    basis = projection_basis(p)
    return basis @ rho @ dag(basis), rank


class TestCornerState:
    """Each part's invariant state is E^+ (p / rank p) on the model's own
    split; reducing the model to p and splitting the corner is the
    reference."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(("kraus", "lindblad", "chain", "rotated")))
    def test_state_matches_the_reduced_corner(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "rotated":
            # a full-rank projection that is the identity up to round-off
            chain = rng.random((3, 3))
            model = (random_kraus_model(rng, 3), random_lindblad_model(rng, 3),
                     stochastic_model(chain / chain.sum(axis=1, keepdims=True))
                     )[seed % 3]
            parts = [Projection.from_basis(random_unitary(rng, 3))]
        else:
            model = _model_with_remainder(kind, rng)
            parts = resolve(model, seed=seed).recurrent_projections
        for p in parts:
            got, rank = corner_invariant_state(model, p)
            want, want_rank = _corner_state_by_reduction(model, p)
            assert rank == want_rank == p.rank
            assert np.linalg.norm(got - want, 2) <= 1e-12
            assert np.array_equal(got, dag(got))

    def test_resolve_splits_the_model_once(self, monkeypatch):
        counts = collections.Counter()
        _counting(monkeypatch, counts, qds.spectral, "spectral_split")
        rng = np.random.default_rng(29)
        for kind in ("kraus", "lindblad", "chain"):
            counts.clear()
            model = _model_with_remainder(kind, rng)
            res = resolve(model)
            assert all(p.rank < model.dim for p in res.recurrent_projections)
            assert counts["spectral_split"] == 1
            invariant_states(model)
            assert counts["spectral_split"] == 1

    def test_a_state_leaving_p_is_refused(self, amplitude_damping):
        # the excited state is not sub-harmonic: its limit is the ground state
        with pytest.raises(CrossCheckError, match="leaves its sub-harmonic"):
            corner_invariant_state(amplitude_damping, np.diag([0.0, 1.0]))
        with pytest.raises(StructuralError, match="zero projection"):
            corner_invariant_state(amplitude_damping, Projection.zero(2))
