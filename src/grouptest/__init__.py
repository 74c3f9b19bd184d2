"""Noiseless non-adaptive group testing toolkit.

Pooling-matrix designs, the COMP / DD / SCOMP / W-SCOMP decoders, recovery
metrics, closed-form per-test SNR theory with brute-force oracles, and a
reproducible Monte Carlo benchmark harness.
"""

from .decoders import (
    DECODERS,
    DecodeResult,
    ScoreVector,
    TraceStep,
    comp,
    dd,
    decode,
    decode_all,
    scomp,
    score_items,
    w_scomp,
)
from .design import (
    DESIGN_KINDS,
    DesignMatrix,
    DesignSpec,
    gen_bernoulli,
    gen_constant_column,
    gen_near_constant_column,
    generate,
    optimal_bernoulli_p,
    optimal_column_weight,
)
from .metrics import RecoveryStats, confusion, counting_bound, f1_score, jaccard
from .model import ItemSet, OutcomeVector, run_tests, sample_defective_set
from .oracle import (
    EnumeratedMoments,
    brute_force_unweighted_moments,
    brute_force_weighted_moments,
    consistent_sets,
)
from .sim import SimConfig, SweepResult, SweepRow, delta_series, design_spec_for, run_sweep, run_trial
from .theory import (
    MomentSet,
    TheoryPoint,
    bayes_bound,
    bernstein_bound,
    chebyshev_bound,
    coefficient_functions,
    coverage_prob,
    f_grid,
    f_value,
    jensen_bounds,
    mu_nd_closed_form,
    numerator_identity,
    second_moment_sum,
    snr_aggregate,
    snr_dominance,
    unweighted_moments,
    weighted_moments,
)

__version__ = "0.1.0"
