"""Exact transverse-spin measurement statistics for double Fock states.

The library computes outcome probabilities and product correlations for
spin condensates with fixed populations, evaluates Bell quantities built
from arbitrary party functionals, maximizes them over measurement angles,
cross-checks everything against a brute-force state-vector oracle, and
simulates sequential measurements with the emerging relative phase.
"""
from .exact import (
    all_sequence_probabilities,
    classical_all_probabilities,
    classical_product_correlation,
    classical_sequence_probability,
    correction_factor_g,
    correlation_closed_form,
    correlation_e,
    correlation_gaussian,
    gaussian_product_correlation,
    normalization_cn,
    sequence_probability,
)
from .functional import bell_value, expectation, semi_mesoscopic_value
from .model import (
    BellFunctionalSpec,
    ExperimentConfig,
    FanAngles,
    OutcomeSequence,
    PartyFunctional,
    PhaseDistribution,
    normalize_angle,
)
from .optimizer import (
    OptimizationResult,
    RestartRecord,
    double_letter_counts,
    maximize_fan,
    maximize_free,
    scan_qmax_vs_n,
    triple_letter_counts,
)
from .oracle import (
    SpinStateVector,
    oracle_all_probabilities,
    oracle_sequence_probability,
    w_state,
)
from .phase import (
    ConditioningError,
    PeakStats,
    next_outcome_probability,
    peak_statistics,
    phase_posterior,
    sample_sequence,
    sample_sequences,
)

__version__ = "0.1.0"

__all__ = [
    "BellFunctionalSpec",
    "ConditioningError",
    "ExperimentConfig",
    "FanAngles",
    "OptimizationResult",
    "OutcomeSequence",
    "PartyFunctional",
    "PeakStats",
    "PhaseDistribution",
    "RestartRecord",
    "SpinStateVector",
    "all_sequence_probabilities",
    "bell_value",
    "classical_all_probabilities",
    "classical_product_correlation",
    "classical_sequence_probability",
    "correction_factor_g",
    "correlation_closed_form",
    "correlation_e",
    "correlation_gaussian",
    "double_letter_counts",
    "expectation",
    "gaussian_product_correlation",
    "maximize_fan",
    "maximize_free",
    "next_outcome_probability",
    "normalization_cn",
    "normalize_angle",
    "oracle_all_probabilities",
    "oracle_sequence_probability",
    "peak_statistics",
    "phase_posterior",
    "sample_sequence",
    "sample_sequences",
    "scan_qmax_vs_n",
    "semi_mesoscopic_value",
    "triple_letter_counts",
    "w_state",
]
