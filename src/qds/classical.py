"""Classical Markov chains as diagonal quantum channels, plus the
graph-theoretic classification oracle used for cross-validation.

A chain P embeds as the channel with one Kraus operator
sqrt(P[i, j]) |j><i| per positive entry, so that the Heisenberg action on
diagonal observables is f -> P f.  Closed communicating classes of the
chain are exactly the supports of the recurrent projections of the
embedded channel, and the transient states are the support of the
metastable remainder -- :func:`support_comparison` checks that equality.

The oracle needs no graph library: the communicating classes are the sets
of mutually reachable states of the transition digraph, read off the
transitive closure of its adjacency matrix.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import reachability
from .errors import StructuralError
from .models import (
    DEFAULT_SEED, DEFAULT_TOL, kraus_model, stochastic_kraus_ops,
)

__all__ = ["ChainClassification", "ComparisonResult", "stochastic_to_channel",
           "classical_classify", "support_comparison", "compare_resolutions"]


@dataclass(frozen=True)
class ChainClassification:
    """Closed communicating classes and transient states (0-based)."""

    closed_classes: tuple
    transient_states: frozenset


@dataclass(frozen=True)
class ComparisonResult:
    agree: bool
    detail: dict
    resolution: object
    chain: ChainClassification


def _check_stochastic(p, tol):
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise StructuralError("stochastic matrix must be square")
    if p.size and p.min() < -tol.alg_tol:
        raise StructuralError(f"negative transition probability {p.min():.3g}")
    sums = p.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 100 * tol.alg_tol:
        raise StructuralError(
            f"rows must sum to one (max deviation {np.max(np.abs(sums - 1.0)):.3g})")
    return np.clip(p, 0.0, None)


def stochastic_to_channel(p, tol=DEFAULT_TOL):
    """Kraus model of the diagonal embedding of a stochastic matrix."""
    p = _check_stochastic(p, tol)
    return kraus_model(stochastic_kraus_ops(p))


def classical_classify(p, tol=DEFAULT_TOL):
    """Closed classes and transient states of the transition digraph,
    whose edges are the entries P[i, j] > ``alg_tol``.

    ``reach[i, j]`` says that j is reachable from i in zero or more
    steps (:func:`qds._linalg.reachability`).  The class of i is the set
    of states mutually reachable with it, and a class is closed iff no
    state outside it is reachable from it.
    """
    p = _check_stochastic(p, tol)
    d = p.shape[0]
    reach = reachability(p > tol.alg_tol)
    mutual = reach & reach.T
    closed = []
    transient = set()
    placed = np.zeros(d, dtype=bool)
    for i in range(d):
        if placed[i]:
            continue
        placed |= mutual[i]
        members = frozenset(int(j) for j in np.flatnonzero(mutual[i]))
        if np.array_equal(reach[i], mutual[i]):
            closed.append(members)
        else:
            transient.update(members)
    closed.sort(key=lambda s: sorted(s))
    return ChainClassification(closed_classes=tuple(closed),
                               transient_states=frozenset(transient))


def support_comparison(resolution, chain):
    """Compare a resolution of an embedded chain with its SCC classes.

    Agreement means: the diagonal supports of the recurrent projections
    equal the closed classes as sets, and the support of the metastable
    remainder equals the transient states.  Returns (agree, detail).
    """
    supports = {proj.diagonal_support()
                for proj in resolution.recurrent_projections}
    remainder = resolution.metastable_remainder.diagonal_support()
    oracle = set(chain.closed_classes)
    agree = supports == oracle and remainder == chain.transient_states
    detail = {
        "resolved_supports": sorted(sorted(s) for s in supports),
        "closed_classes": sorted(sorted(s) for s in oracle),
        "resolved_transient": sorted(remainder),
        "transient_states": sorted(chain.transient_states),
    }
    return agree, detail


def compare_resolutions(p, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Resolve the embedded channel and compare against the SCC oracle
    (see :func:`support_comparison`)."""
    from .resolution import resolve

    p = _check_stochastic(p, tol)
    model = stochastic_to_channel(p, tol)
    res = resolve(model, seed=seed, tol=tol)
    chain = classical_classify(p, tol)
    agree, detail = support_comparison(res, chain)
    return ComparisonResult(agree=agree, detail=detail, resolution=res,
                            chain=chain)
