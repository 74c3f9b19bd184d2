"""Every public real-number argument goes through ``checks.require_real``.

A real argument is a finite number >= 0, or > 0 where the formula divides by
it; booleans, non-numbers, NaN, infinities and ints too large for a float are
rejected with a ValueError that names the argument, and a numpy float gives
the result of the equal Python float.
"""

import json
import math

import numpy as np
import pytest

from grouptest.cli import main
from grouptest.decoders import decode_all, score_items
from grouptest.design import DesignMatrix
from grouptest.model import ItemSet, OutcomeVector
from grouptest.sim import SimConfig
from grouptest.theory import bayes_bound, bernstein_bound, chebyshev_bound, snr_aggregate

_MATRIX = DesignMatrix([[0, 1], [1, 2]], n_items=3)
_OUTCOMES = OutcomeVector((1, 1))

# (argument name in the message, call with the value under test, must it be > 0?)
CALLS = {
    "decode_all": ("alpha", lambda a: decode_all(_MATRIX, _OUTCOMES, ("wscomp",), a), False),
    "score_items": ("alpha", lambda a: score_items(_MATRIX, _OUTCOMES, ItemSet((1,), 3), [0], a), False),
    "SimConfig": ("alpha", lambda a: SimConfig(6, 1, "bernoulli", (4,), n_trials=1, alpha=a), False),
    "snr_aggregate": ("snr_per", lambda v: snr_aggregate(v, 4), False),
    "chebyshev_bound": ("snr_t", chebyshev_bound, True),
    "bayes_bound": ("snr_t", bayes_bound, False),
    "bernstein_bound.sigma2": ("sigma2", lambda v: bernstein_bound(10, v, 1.0, 0.5), False),
    "bernstein_bound.deviation_cap": ("deviation_cap", lambda v: bernstein_bound(10, 0.1, v, 0.5), True),
    "bernstein_bound.eps": ("eps", lambda v: bernstein_bound(10, 0.1, 1.0, v), True),
}
BAD = [True, np.bool_(True), "1", None, math.nan, math.inf, -math.inf, 10**400, -1.0]


@pytest.mark.parametrize("call", CALLS, ids=list(CALLS))
def test_real_argument(call):
    name, fn, positive = CALLS[call]
    for value in BAD + ([0.0, 0] if positive else []):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number {'>' if positive else '>='} 0, got "):
            fn(value)
    for v in (0.5, 2.0) + (() if positive else (0.0,)):
        assert repr(fn(np.float64(v))) == repr(fn(v))
    assert repr(fn(2)) == repr(fn(2.0))


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e400", "-1", "True", "None"])
def test_cli_decode_alpha_exits_one(tmp_path, capsys, alpha):
    (tmp_path / "m.json").write_text(json.dumps(_MATRIX.to_json_dict()))
    (tmp_path / "y.json").write_text(json.dumps(_OUTCOMES.to_json_dict()))
    argv = ["decode", "--matrix", str(tmp_path / "m.json"), "--outcomes", str(tmp_path / "y.json")]
    assert main(argv + ["--algo", "wscomp", f"--alpha={alpha}"]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "call, limit",
    [(lambda t: snr_aggregate(0.5, t), 4.740375954054589e153), (lambda t: bernstein_bound(t, 1.0, 1.0, 1.0), 1.0)],
    ids=["snr_aggregate", "bernstein_bound"],
)
def test_count_of_tests_too_large_for_a_float(call, limit):
    # The integer rule runs first; a T past the float range then fails the real rule, not float().
    assert call(2**1023) == limit
    with pytest.raises(ValueError, match="^n_tests must be a finite number >= 0, got 1000"):
        call(10**400)
    with pytest.raises(ValueError, match="^n_tests must be an integer, got 1.5$"):
        call(1.5)
