"""Dephasing of a central spin against a finite spin bath, two ways.

The closed-form route (:mod:`spinbath.evolution`) evaluates the dephasing
factor r(t) and expectation values exactly at O(N) per time point. The
analytical route (:mod:`spinbath.lemma`) never touches time: it enumerates
the exact frequency content of r(t) (:mod:`spinbath.spectrum`) and decides
decoherence from hypothesis checks on that spectrum alone. The harness and
CLI (:mod:`spinbath.harness`, :mod:`spinbath.cli`) run either pipeline,
compare them, and cross-check everything against a brute-force
state-vector oracle at small N.
"""

from .errors import (
    CapExceededError,
    ConfigError,
    DegenerateSetError,
    DimensionMismatchError,
    EmptyEnvironmentError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NormalizationError,
    SpinBathError,
)
from .evolution import (
    ReducedState,
    TimeSeries,
    expectation_full,
    expectation_full_stack,
    expectation_relevant,
    r_bounds,
    r_of_t,
    r_squared,
    reduced_state,
    sample_series,
)
from .harness import model_from_dict, model_to_dict
from .lemma import (
    EFFECTIVELY_INFINITE,
    NOT_EVALUATED,
    LemmaReport,
    PartitionScheme,
    Verdict,
    VerdictConfig,
    WeightedPointSet,
    check_l1,
    check_quasi_continuous,
    decoherence_verdict,
    estimate_recurrence_time,
    lemma_sum,
    make_partition,
)
from .model import (
    Equal,
    FullObservable,
    LocalObservable,
    PhaseLaw,
    RelevantObservable,
    SpinBathModel,
    UniformPositive,
    generate_random,
    new_model,
    random_spin_arrays,
)
from .spectrum import (
    ENUMERATION_CAP,
    ORACLE_CAP,
    SpectralDecomposition,
    brute_force_expectation,
    brute_force_stack,
    degeneracy_count,
    hamiltonian_spectrum,
    omega_of_index,
    spectral_decomposition,
    weight_of_index,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ConfigError",
    "DegenerateSetError",
    "DimensionMismatchError",
    "EmptyEnvironmentError",
    "IndexOutOfRangeError",
    "InvalidParameterError",
    "NormalizationError",
    "SpinBathError",
    "ReducedState",
    "TimeSeries",
    "expectation_full",
    "expectation_full_stack",
    "expectation_relevant",
    "r_bounds",
    "r_of_t",
    "r_squared",
    "reduced_state",
    "sample_series",
    "EFFECTIVELY_INFINITE",
    "NOT_EVALUATED",
    "LemmaReport",
    "PartitionScheme",
    "Verdict",
    "VerdictConfig",
    "WeightedPointSet",
    "check_l1",
    "check_quasi_continuous",
    "decoherence_verdict",
    "estimate_recurrence_time",
    "lemma_sum",
    "make_partition",
    "Equal",
    "FullObservable",
    "LocalObservable",
    "PhaseLaw",
    "RelevantObservable",
    "SpinBathModel",
    "UniformPositive",
    "generate_random",
    "model_from_dict",
    "model_to_dict",
    "new_model",
    "random_spin_arrays",
    "ENUMERATION_CAP",
    "ORACLE_CAP",
    "SpectralDecomposition",
    "brute_force_expectation",
    "brute_force_stack",
    "degeneracy_count",
    "hamiltonian_spectrum",
    "omega_of_index",
    "spectral_decomposition",
    "weight_of_index",
    "__version__",
]
