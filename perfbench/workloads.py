"""Seeded benchmark inputs, each carrying the verdict its construction implies.

A workload is a fixed list of model shapes; ``make_ops(workload, seed,
workdir, root)`` draws its models from ``seed``, writes the model,
projection and operator JSON files into ``workdir`` and returns the CLI
ops to run on them.  The shapes never depend on the seed, so every run of
a workload does about the same work on different random entries.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from qds import rand
from qds.models import lindblad_model, stochastic_model
from qds.serialize import dump_model, encode_matrix, load_model

import oracle

WORKLOADS = ("chain", "lindblad", "kraus-wide", "small-mix")

# (closed class sizes, transient states) of the structured chains.  The
# sizes are fixed so that every seed does the same amount of work: the
# cost of a chain op moves far more with its class sizes than with the
# random transition weights.
CHAIN_SHAPES = (((7,), 2), ((4, 3), 2), ((3, 3, 2), 1), ((5, 2), 3), ((3, 3), 3))
# The symmetric 3-state chain [[1-e, e, 0], [e, 1-2e, e], [0, e, 1-e]]:
# irreducible and aperiodic for every e > 0.  At e <= 1e-8 the package
# fails on it today; those inputs stay so the failure keeps showing.
EPS_CHAIN = (1e-2, 1e-6, 1e-8, 1e-10)
LINDBLAD_BLOCKS = ((4, 4), (5, 5), (3, 3, 3))
# (dimension, rank of the invariant subspace) of non-reducing models.
LINDBLAD_INVARIANT = ((8, 4), (10, 5), (12, 6))
KRAUS_WIDE_BLOCKS = ((8, 8), (8, 8), (8, 8))

EVOLVE_N = 3
EVOLVE_T = 0.7
PICARD_T = 1.0
PICARD_STEPS = 64
PICARD_RANDOM_DIMS = (2, 3)


@dataclass(frozen=True)
class Structure:
    """What a model's construction says about it.

    ``projections`` are the recurrent projections when the construction
    fixes them (None when the split is not unique or not exposed by the
    generator); ``classes``/``transient`` are set for classical chains.
    """

    part_ranks: tuple
    remainder_rank: int
    fixed_dim: int
    projections: tuple | None = None
    classes: tuple | None = None
    transient: frozenset | None = None

    @property
    def strongly_ergodic(self):
        return len(self.part_ranks) == 1


@dataclass
class Op:
    """One CLI call with the facts the oracle checks its report against."""

    label: str
    command: str
    argv: list
    dim: int
    model: object
    structure: Structure | None = None
    expect: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def _path(self, stem):
        self.count += 1
        return os.path.join(self.workdir, f"{self.count}-{stem}.json")

    def model(self, model, stem):
        path = self._path(stem)
        dump_model(model, path)
        return path

    def matrix(self, m, stem):
        path = self._path(stem)
        with open(path, "w") as fh:
            json.dump({"matrix": encode_matrix(m)}, fh)
        return path


def _diag_projection(dim, states):
    p = np.zeros((dim, dim), dtype=complex)
    for i in states:
        p[i, i] = 1.0
    return p


def structured_chain(rng, sizes, n_transient):
    """Chain with closed classes of the given sizes followed by
    ``n_transient`` transient states.

    Each class is a one-class ``rand.structured_stochastic_matrix`` block;
    each transient row is drawn the way that generator draws it: three
    random targets plus one state of a random class, so every transient
    state leaks into a closed class.  Returns (matrix, Structure).
    """
    d = sum(sizes) + n_transient
    p = np.zeros((d, d))
    classes = []
    start = 0
    for size in sizes:
        p[start:start + size, start:start + size] = \
            rand.structured_stochastic_matrix(rng, size, 1, 0)
        classes.append(frozenset(range(start, start + size)))
        start += size
    for i in range(start, d):
        targets = {int(j) for j in rng.choice(d, size=min(d, 3), replace=False)}
        targets.add(int(rng.choice(sorted(classes[rng.integers(len(classes))]))))
        targets = sorted(targets)
        w = rng.uniform(0.2, 1.0, size=len(targets))
        p[i, targets] = w / w.sum()
    return p, Structure(
        part_ranks=tuple(sorted(sizes, reverse=True)),
        remainder_rank=n_transient, fixed_dim=len(sizes),
        projections=tuple(_diag_projection(d, c) for c in classes),
        classes=tuple(classes), transient=frozenset(range(start, d)))


def eps_chain(eps):
    return np.array([[1 - eps, eps, 0.0],
                     [eps, 1 - 2 * eps, eps],
                     [0.0, eps, 1 - eps]])


def _blocks_structure(dims):
    # independent random blocks are irreducible and primitive with
    # probability one, so each is one recurrent part with a unique state
    return Structure(part_ranks=tuple(sorted(dims, reverse=True)),
                     remainder_rank=0, fixed_dim=len(dims))


def _resolve_and_ergodic(w, model, structure, label):
    path = w.model(model, label.split()[0])
    return [Op(label=label, command=cmd, argv=[cmd, path], dim=model.dim,
               model=model, structure=structure)
            for cmd in ("resolve", "ergodic")]


def _chain_ops(rng, w):
    ops = []
    for eps in EPS_CHAIN:
        s = Structure(part_ranks=(3,), remainder_rank=0, fixed_dim=1,
                      projections=(np.eye(3, dtype=complex),),
                      classes=(frozenset({0, 1, 2}),), transient=frozenset())
        ops += _resolve_and_ergodic(w, stochastic_model(eps_chain(eps)), s,
                                    f"eps-chain eps={eps:g}")
    for sizes, n_transient in CHAIN_SHAPES:
        p, structure = structured_chain(rng, sizes, n_transient)
        ops += _resolve_and_ergodic(
            w, stochastic_model(p), structure,
            f"chain classes={sizes} transient={n_transient}")
    return ops


def _lindblad_ops(rng, w):
    ops = []
    for dims in LINDBLAD_BLOCKS:
        model = rand.random_block_diagonal_lindblad(rng, list(dims))
        ops += _resolve_and_ergodic(w, model, _blocks_structure(dims),
                                    f"lindblad-blocks dims={dims}")
    for d, r in LINDBLAD_INVARIANT:
        model, proj = rand.random_lindblad_with_invariant_subspace(rng, d, r)
        s = Structure(part_ranks=(r,), remainder_rank=d - r, fixed_dim=1,
                      projections=(proj.matrix,))
        ops += _resolve_and_ergodic(w, model, s,
                                    f"lindblad-invariant d={d} rank={r}")
    return ops


def _kraus_wide_ops(rng, w):
    ops = []
    for dims in KRAUS_WIDE_BLOCKS:
        model = rand.random_block_diagonal_kraus(rng, list(dims))
        ops += _resolve_and_ergodic(w, model, _blocks_structure(dims),
                                    f"kraus-blocks dims={dims}")
    return ops


def _ket_projection(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# The committed fixtures and what their physics fixes: recurrent parts,
# fixed-point space, and one projection with its known classification
# (label, whether the complement is transient; None when not sub-harmonic).
FIXTURES = {
    # P = [[1,0,0],[.5,0,.5],[0,0,1]]: absorbing 0 and 2, transient 1
    "absorbing_chain_3": (
        Structure(part_ranks=(1, 1), remainder_rank=1, fixed_dim=2,
                  projections=(_diag_projection(3, [0]), _diag_projection(3, [2])),
                  classes=(frozenset({0}), frozenset({2})),
                  transient=frozenset({1})),
        (_diag_projection(3, [0]), "positive_recurrent", False)),
    # damping into |0>: one absorbing ground state, |1> transient
    "amplitude_damping": (
        Structure(part_ranks=(1,), remainder_rank=1, fixed_dim=1,
                  projections=(_diag_projection(2, [0]),)),
        (_diag_projection(2, [0]), "positive_recurrent", True)),
    "amplitude_damping_lindblad": (
        Structure(part_ranks=(1,), remainder_rank=1, fixed_dim=1,
                  projections=(_diag_projection(2, [0]),)),
        (_diag_projection(2, [1]), "not_subharmonic", None)),
    # sigma_z dephasing: both populations invariant, coherences decay
    "dephasing": (
        Structure(part_ranks=(1, 1), remainder_rank=0, fixed_dim=2,
                  projections=(_diag_projection(2, [0]), _diag_projection(2, [1]))),
        (_ket_projection([1.0, 1.0]), "not_subharmonic", None)),
    # every operator is fixed; any orthogonal pair of rays is a resolution
    "identity_channel_d2": (
        Structure(part_ranks=(1, 1), remainder_rank=0, fixed_dim=4),
        (np.eye(2, dtype=complex), "subharmonic_nonminimal", True)),
}


def _unit_dissipation(model):
    """The model with its jumps rescaled so that ||sum_k L_k^+ L_k|| = 1:
    the number of Picard levels, and so the op's cost, then depends little
    on the random draw."""
    s = sum(l.conj().T @ l for l in model.lindblad_ops)
    scale = np.sqrt(np.linalg.norm(s, 2))
    return lindblad_model(model.hamiltonian,
                          [l / scale for l in model.lindblad_ops])


def _small_mix_ops(rng, w, root):
    ops = []
    for name, (structure, (proj, label, transient)) in FIXTURES.items():
        path = os.path.join(root, "fixtures", f"{name}.json")
        model = load_model(path)
        d = model.dim

        def op(command, argv, expect=None):
            ops.append(Op(label=f"fixture {name}", command=command,
                          argv=[command, path] + argv, dim=d, model=model,
                          structure=structure, expect=expect or {}))

        op("check", [])
        op("classify", [w.matrix(proj, "projection")],
           {"label": label, "complement_transient": transient})
        op("resolve", [])
        x = rand.random_hermitian(rng, d)
        x_path = w.matrix(x, "operand")
        if model.kind == "lindblad":
            time_arg, span = ["--t", str(EVOLVE_T)], {"t": EVOLVE_T}
        else:
            time_arg, span = ["--n", str(EVOLVE_N)], {"n": EVOLVE_N}
        for picture in ("heisenberg", "schrodinger"):
            op("evolve", [x_path, "--picture", picture] + time_arg,
               {"operand": x, "result": oracle.evolve(model, x, picture, **span)})
        op("ergodic", [])
        if model.kind == "lindblad":
            rho = rand.random_density_matrix(rng, d)
            op("picard", [w.matrix(rho, "state"), "--t", str(PICARD_T),
                          "--steps", str(PICARD_STEPS)])
    for d in PICARD_RANDOM_DIMS:
        model = _unit_dissipation(rand.random_lindblad_model(rng, d))
        path = w.model(model, "picard-model")
        rho = rand.random_density_matrix(rng, d)
        ops.append(Op(label=f"picard-random d={d}", command="picard",
                      argv=["picard", path, w.matrix(rho, "state"),
                            "--t", str(PICARD_T), "--steps", str(PICARD_STEPS)],
                      dim=d, model=model))
    return ops


def make_ops(workload, seed, workdir, root):
    """Write the inputs of ``workload`` for ``seed`` and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    w = _Writer(workdir)
    if workload == "chain":
        return _chain_ops(rng, w)
    if workload == "lindblad":
        return _lindblad_ops(rng, w)
    if workload == "kraus-wide":
        return _kraus_wide_ops(rng, w)
    return _small_mix_ops(rng, w, root)
