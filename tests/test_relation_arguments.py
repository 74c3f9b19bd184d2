"""Each relation between arguments is checked by one shared rule.

k within N goes through ``checks.require_defectives``, two sizes that must
agree through ``checks.require_match``, a name from a fixed set through
``checks.require_choice`` and lists of decoder names through
``decoders.check_names``, so every caller raises the rule's one message.
"""

import re

import pytest

from grouptest import theory
from grouptest.decoders import decode_all, score_items
from grouptest.design import DesignMatrix, DesignSpec
from grouptest.metrics import confusion, counting_bound
from grouptest.model import ItemSet, OutcomeVector, run_tests, sample_defective_set
from grouptest.oracle import brute_force_unweighted_moments, brute_force_weighted_moments, consistent_sets
from grouptest.plotting import PlotSpec, build_series
from grouptest.sim import SimConfig

_MATRIX = DesignMatrix([[0, 1], [1, 2]], n_items=3)
_OUTCOMES = OutcomeVector((1, 0))
_SHORT_OUTCOMES = OutcomeVector((1,))
_SMALL_SET = ItemSet((0,), universe_size=2)

# Calls with k = 4 above N = 3.
K_ABOVE_N = {
    "sample_defective_set": lambda: sample_defective_set(3, 4, 0),
    "counting_bound": lambda: counting_bound(3, 4, 2),
    "consistent_sets": lambda: consistent_sets(_MATRIX, _OUTCOMES, 4),
    "SimConfig": lambda: SimConfig(3, 4, "bernoulli", (8,)),
}

# Calls with k = N = 3, outside the 1 <= k < N of the closed forms and the moment oracles.
K_NOT_BELOW_N = {
    "weighted_moments": lambda: theory.weighted_moments(3, 3, 0.3),
    "numerator_identity": lambda: theory.numerator_identity(3, 3, 0.3),
    "second_moment_sum": lambda: theory.second_moment_sum(3, 3, 0.3),
    "mu_nd_closed_form": lambda: theory.mu_nd_closed_form(3, 3),
    "f_value": lambda: theory.f_value(3, 3),
    "snr_dominance": lambda: theory.snr_dominance(3, 3),
    "jensen_bounds": lambda: theory.jensen_bounds(3, 3),
    "brute_force_weighted_moments": lambda: brute_force_weighted_moments(3, 3, 0.3),
    "brute_force_unweighted_moments": lambda: brute_force_unweighted_moments(3, 0.3, 3),
}

# (call with two sizes that disagree, the message)
SIZE_MISMATCHES = {
    "decode_all": (
        lambda: decode_all(_MATRIX, _SHORT_OUTCOMES, ("comp",)),
        "outcome length 1 does not match matrix n_tests 2",
    ),
    "score_items.outcomes": (
        lambda: score_items(_MATRIX, _SHORT_OUTCOMES, ItemSet((0,), 3), [], 1.0),
        "outcome length 1 does not match matrix n_tests 2",
    ),
    "score_items.candidates": (
        lambda: score_items(_MATRIX, _OUTCOMES, _SMALL_SET, [0], 1.0),
        "candidate universe size 2 does not match matrix n_items 3",
    ),
    "consistent_sets": (
        lambda: consistent_sets(_MATRIX, _SHORT_OUTCOMES, 1),
        "outcome length 1 does not match matrix n_tests 2",
    ),
    "run_tests": (lambda: run_tests(_MATRIX, _SMALL_SET), "universe size 2 does not match matrix n_items 3"),
    "confusion": (
        lambda: confusion(ItemSet((0,), 3), _SMALL_SET),
        "estimate universe size 2 does not match truth universe size 3",
    ),
}

_KINDS = "['bernoulli', 'constant_column', 'near_constant_column']"
_METRICS = "['delta', 'f1', 'jaccard', 'mean_fn', 'mean_fp', 'success_prob']"

# (call with a name outside its set, the message)
UNKNOWN_CHOICES = {
    "DesignSpec": (
        lambda: DesignSpec("bogus", 5, 4, inclusion_prob=0.5),
        f"unknown design_kind 'bogus'; choose from {_KINDS}",
    ),
    "DesignMatrix": (
        lambda: DesignMatrix([[0]], 3, "bogus"),
        "unknown design_kind 'bogus'; choose from "
        "['bernoulli', 'constant_column', 'explicit', 'near_constant_column']",
    ),
    # T = 5 is too small for k = 10 under a column design; the kind is reported first.
    "SimConfig": (
        lambda: SimConfig(500, 10, "bogus", (5,)),
        f"unknown design_kind 'bogus'; choose from {_KINDS}",
    ),
    "build_series": (
        lambda: build_series(PlotSpec("no-such.csv", "bogus", "x.svg")),
        f"unknown metric 'bogus'; choose from {_METRICS}",
    ),
    "build_series.unhashable": (
        lambda: build_series(PlotSpec("no-such.csv", ["delta"], "x.svg")),
        f"unknown metric ['delta']; choose from {_METRICS}",
    ),
}

# (argument name in the message, call with the names under test)
NAME_LISTS = {
    "decode_all": ("names", lambda names: decode_all(_MATRIX, _OUTCOMES, names)),
    "SimConfig": ("algorithms", lambda names: SimConfig(20, 2, "bernoulli", (8,), algorithms=names)),
}


@pytest.mark.parametrize("case", K_ABOVE_N)
def test_k_above_n_rejected(case):
    with pytest.raises(ValueError, match=r"^need 0 <= k <= N, got k=4, N=3$"):
        K_ABOVE_N[case]()


@pytest.mark.parametrize("case", K_NOT_BELOW_N)
def test_k_not_below_n_rejected(case):
    with pytest.raises(ValueError, match=r"^need 1 <= k < N, got k=3, N=3$"):
        K_NOT_BELOW_N[case]()


@pytest.mark.parametrize("case", SIZE_MISMATCHES)
def test_size_mismatch_rejected(case):
    call, message = SIZE_MISMATCHES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("case", UNKNOWN_CHOICES)
def test_unknown_choice_rejected(case):
    call, message = UNKNOWN_CHOICES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("case", NAME_LISTS)
@pytest.mark.parametrize(
    "names",
    [(), ["comp", "comp"], ("dd", "wscomp", "dd"), "comp", None],
    ids=["empty", "repeated", "repeated-apart", "string", "none"],
)
def test_empty_repeated_or_non_list_names_rejected(case, names):
    what, call = NAME_LISTS[case]
    with pytest.raises(ValueError, match=f"^{what} must be a nonempty list of distinct decoder names"):
        call(names)


@pytest.mark.parametrize("case", NAME_LISTS)
def test_unknown_name_rejected(case):
    what, call = NAME_LISTS[case]
    with pytest.raises(ValueError, match=f"^unknown decoder 'nope' in {what}; choose from "):
        call(["comp", "nope"])
