"""Every public integer argument goes through ``checks.require_int``.

Each case calls one function with the value under test in one argument and
valid values elsewhere. A non-integer (booleans included) is rejected with a
ValueError that names the argument, a value below the floor with one that
names the floor, and a numpy integer is accepted as the equal Python int.
"""

import re

import numpy as np
import pytest

from grouptest.design import DesignMatrix, DesignSpec, optimal_bernoulli_p, optimal_column_weight
from grouptest.metrics import counting_bound
from grouptest.model import ItemSet, OutcomeVector, sample_defective_set
from grouptest.oracle import consistent_sets, verify
from grouptest.sim import SimConfig, delta_points
from grouptest.theory import (
    bernstein_bound,
    binom_pmf,
    coefficient_functions,
    coverage_prob,
    f_grid,
    snr_aggregate,
    unweighted_moments,
)

_MATRIX = DesignMatrix([[0, 1], [1, 2]], n_items=3)
_OUTCOMES = OutcomeVector((1, 0))
_DELTA_TRIPLES = [(10, "scomp", 2.0), (10, "wscomp", 1.5)]

# (argument name in the message, call with the value under test, a valid value, floor or None)
CASES = {
    "DesignSpec.n_items": ("n_items", lambda v: DesignSpec("bernoulli", v, 4, inclusion_prob=0.5), 5, 1),
    "DesignSpec.n_tests": ("n_tests", lambda v: DesignSpec("bernoulli", 5, v, inclusion_prob=0.5), 4, 1),
    "DesignSpec.column_weight": (
        "column_weight", lambda v: DesignSpec("constant_column", 5, 4, column_weight=v), 2, 1,
    ),
    "DesignSpec.seed": ("seed", lambda v: DesignSpec("bernoulli", 5, 4, inclusion_prob=0.5, seed=v), 3, 0),
    "DesignSpec.seed-entry": (
        "seed", lambda v: DesignSpec("bernoulli", 5, 4, inclusion_prob=0.5, seed=(1, v)), 3, 0,
    ),
    "DesignMatrix.n_items": ("n_items", lambda v: DesignMatrix([], v), 3, 0),
    "SimConfig.n_trials": ("n_trials", lambda v: SimConfig(20, 2, "bernoulli", (8,), n_trials=v), 2, 1),
    "SimConfig.t_values": (
        "each t_values entry", lambda v: SimConfig(20, 2, "bernoulli", (8, v), n_trials=2), 9, 1,
    ),
    "SimConfig.master_seed": (
        "master_seed", lambda v: SimConfig(20, 2, "bernoulli", (8,), master_seed=v), 3, 0,
    ),
    "ItemSet.universe_size": ("universe_size", lambda v: ItemSet((), v), 3, 0),
    "sample_defective_set.n_items": ("n_items", lambda v: sample_defective_set(v, 2, 0), 5, None),
    "sample_defective_set.n_defectives": (
        "n_defectives", lambda v: sample_defective_set(5, v, 0), 2, None,
    ),
    "counting_bound.n_tests": ("n_tests", lambda v: counting_bound(10, 2, v), 4, 0),
    "coverage_prob.n_defectives": ("n_defectives", lambda v: coverage_prob(v, 0.3), 2, 0),
    "binom_pmf.n": ("n", lambda v: binom_pmf(v, 0.3), 4, 0),
    "unweighted_moments.n_defectives": ("n_defectives", lambda v: unweighted_moments(v, 0.3), 2, 1),
    "coefficient_functions.n_defectives": ("n_defectives", lambda v: coefficient_functions(v), 2, 1),
    "snr_aggregate.n_tests": ("n_tests", lambda v: snr_aggregate(0.3, v), 4, 0),
    "bernstein_bound.n_tests": ("n_tests", lambda v: bernstein_bound(v, 0.25, 1.0, 1.0), 2, 1),
    "f_grid.k_max": ("k_max", lambda v: f_grid(v, 2), 1, 1),
    "f_grid.n_span": ("n_span", lambda v: f_grid(1, v), 2, 1),
    "delta_points.smooth_window": ("smooth_window", lambda v: delta_points(_DELTA_TRIPLES, v), 1, 1),
    "optimal_bernoulli_p.n_defectives": ("n_defectives", lambda v: optimal_bernoulli_p(v), 2, 1),
    "optimal_column_weight.n_tests": ("n_tests", lambda v: optimal_column_weight(v, 2), 10, 1),
    "optimal_column_weight.n_defectives": ("n_defectives", lambda v: optimal_column_weight(10, v), 2, 1),
    "consistent_sets.n_defectives": (
        "n_defectives", lambda v: consistent_sets(_MATRIX, _OUTCOMES, v), 1, None,
    ),
    "verify.n_max": ("n_max", lambda v: verify(v, 0), 2, None),
    "verify.trials": ("trials", lambda v: verify(2, v), 1, None),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("value", [2.5, "3", True, np.bool_(True)], ids=["float", "str", "bool", "np.bool_"])
def test_non_integer_rejected(case, value):
    name, call, _, _ = CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("case", [c for c, (_, _, _, floor) in CASES.items() if floor is not None])
def test_below_floor_rejected(case):
    name, call, _, floor = CASES[case]
    with pytest.raises(ValueError, match=f"^{name} must be >= {floor}, got {floor - 1}$"):
        call(floor - 1)


@pytest.mark.parametrize("case", CASES)
def test_numpy_integer_accepted(case):
    _, call, valid, _ = CASES[case]
    expected, got = call(valid), call(np.int64(valid))
    assert np.array_equal(got, expected) if isinstance(expected, np.ndarray) else got == expected
