"""Every public probability argument goes through ``checks.require_prob``.

A probability is a real number in [0, 1], or in (0, 1) where the closed
forms need it; booleans, non-numbers, NaN and values outside are rejected
with a ValueError that names the argument, and a numpy float gives the
result of the equal Python float.
"""

import math

import numpy as np
import pytest

from grouptest.design import DesignSpec
from grouptest.oracle import brute_force_unweighted_moments, brute_force_weighted_moments
from grouptest.theory import (
    binom_pmf,
    coverage_prob,
    numerator_identity,
    second_moment_sum,
    unweighted_moments,
    weighted_moments,
)

# (argument name in the message, call with the value under test, open interval (0, 1)?)
CALLS = {
    "DesignSpec": ("inclusion_prob", lambda p: DesignSpec("bernoulli", 5, 4, inclusion_prob=p), False),
    "coverage_prob": ("p", lambda p: coverage_prob(3, p), False),
    "binom_pmf": ("p", lambda p: binom_pmf(5, p), False),
    "brute_force_weighted_moments": ("p", lambda p: brute_force_weighted_moments(6, 2, p), False),
    "brute_force_unweighted_moments": ("p", lambda p: brute_force_unweighted_moments(2, p, 6), False),
    "weighted_moments": ("p", lambda p: weighted_moments(10, 2, p), True),
    "numerator_identity": ("p", lambda p: numerator_identity(10, 2, p), True),
    "second_moment_sum": ("p", lambda p: second_moment_sum(10, 2, p), True),
    "unweighted_moments": ("p", lambda p: unweighted_moments(2, p), True),
}
BAD = [True, False, np.bool_(True), "0.3", None, [0.3], 0.3j, math.nan, -0.1, 1.5, math.inf]


@pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
def test_probability_argument(call):
    name, fn, interior = CALLS[call]
    for value in BAD + ([0, 1, 0.0, 1.0] if interior else []):
        # A DesignSpec reads inclusion_prob=None as a missing parameter.
        with pytest.raises(ValueError, match=f"^{name} must be a number in|takes {name} only"):
            fn(value)
    for p in (0.3, 0.75) + (() if interior else (0.0, 1.0)):
        assert repr(fn(np.float64(p))) == repr(fn(p))
