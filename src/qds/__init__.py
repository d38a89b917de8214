"""Structure analysis of finite-dimensional quantum dynamical semigroups.

Classifies the dynamics of a unital completely positive semigroup (Kraus
channel, Lindblad generator, or embedded classical Markov chain): finds
sub-harmonic and recurrent projections, resolves the identity into
recurrent parts plus a metastable remainder, certifies transience via
reachability, computes invariant states, and checks strong ergodicity --
cross-validated against classical chain classification and against an
integral-equation construction of the semigroup.
"""

from .classical import (
    ChainClassification, classical_classify, compare_resolutions,
    stochastic_to_channel,
)
from .ergodicity import (
    DensityMatrix, ErgodicityReport, InvariantStates, ReductionEquivalence,
    ergodicity_reduction_equivalence, invariant_states,
    strong_ergodicity_check, support_projection,
)
from .errors import (
    ConvergenceError, CrossCheckError, StructuralError, ValidationFailure,
)
from .models import (
    DEFAULT_SEED, DEFAULT_TOL, QuantumModel, Superoperator, Tolerances,
    apply_map, effective_drift, heisenberg_superoperator, kraus_model,
    lindblad_model, predual_superoperator, stochastic_model, validate_model,
)
from .picard import PicardResult, PicardTrace, picard_iterate, picard_limit
from .projections import (
    Projection, is_harmonic, is_subharmonic, range_projection, reduce_model,
)
from .resolution import (
    Classification, ResolutionResult, classify_projection,
    commutant_dimension, find_harmonic_projection, is_irreducible,
    is_transient_complement, minimal_subharmonic, reachability_closure,
    resolve,
)
from .spectral import (
    SpectralData, asymptotic_operator, evolve_heisenberg, evolve_predual,
    spectral_split,
)

__version__ = "0.1.0"

__all__ = [
    "QuantumModel", "Superoperator", "Tolerances", "Projection",
    "DensityMatrix", "Classification", "ResolutionResult",
    "ChainClassification", "SpectralData", "PicardTrace", "PicardResult",
    "InvariantStates", "ErgodicityReport", "ReductionEquivalence",
    "kraus_model", "lindblad_model", "stochastic_model", "validate_model",
    "effective_drift", "heisenberg_superoperator", "predual_superoperator",
    "apply_map", "spectral_split", "evolve_heisenberg", "evolve_predual",
    "asymptotic_operator", "is_subharmonic", "is_harmonic",
    "range_projection", "reduce_model", "reachability_closure",
    "is_transient_complement", "minimal_subharmonic", "classify_projection",
    "resolve", "commutant_dimension", "find_harmonic_projection",
    "is_irreducible", "invariant_states", "support_projection",
    "strong_ergodicity_check",
    "ergodicity_reduction_equivalence", "picard_iterate", "picard_limit",
    "stochastic_to_channel", "classical_classify", "compare_resolutions",
    "StructuralError", "ValidationFailure", "CrossCheckError",
    "ConvergenceError", "DEFAULT_TOL", "DEFAULT_SEED",
]
