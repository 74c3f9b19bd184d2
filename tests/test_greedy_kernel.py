"""The greedy stage on the compacted block matches the full-matrix rescan.

``rescan_greedy`` is the greedy stage as it ran before the compacted
(unexplained tests x candidates) block: every step rescans
``dense[unexplained]`` over all columns and recomputes every w_t. The
decoders must give the same estimate, DND set, DD core and trace, compared
with ``==``, and must raise exactly when it raises.
"""

import numpy as np
import pytest

from grouptest import decoders
from grouptest.decoders import TraceStep, scomp, w_scomp
from grouptest.design import DesignMatrix
from grouptest.model import ItemSet, OutcomeVector, run_tests

ALPHAS = (0.0, 0.5, 1.0, 2.0, 3.7, 50.0)


def rescan_greedy(matrix: DesignMatrix, outcomes: OutcomeVector, alpha: float):
    """(estimate, dnd, dd_core, trace) from the full rescan; ValueError on underflow."""
    dense = matrix.dense
    positive = outcomes.to_mask()
    dnd = dense[~positive].any(axis=0)
    pd = ~dnd
    pd_hits = dense[positive] & pd
    core = pd_hits[pd_hits.sum(axis=1) == 1].any(axis=0)
    estimate = core.copy()
    unexplained = positive & ~(dense & core).any(axis=1)
    candidates = pd & dense[unexplained].any(axis=0)
    trace = []
    while unexplained.any() and candidates.any():
        sub = dense[unexplained]
        weights = (sub & candidates).sum(axis=1)
        coeff = np.zeros(len(weights))
        nz = weights > 0
        coeff[nz] = weights[nz] ** (-alpha)
        totals = np.add.reduce(sub * coeff[:, np.newaxis], axis=0)
        best = int(np.argmax(np.where(candidates, totals, -1.0)))
        best_score = float(totals[best])
        if best_score <= 0.0:
            raise ValueError("scores underflowed")
        estimate[best] = True
        unexplained &= ~dense[:, best]
        candidates &= dense[unexplained].any(axis=0)
        trace.append(TraceStep(best, best_score, int(unexplained.sum())))
    return members(estimate), members(dnd), members(core), tuple(trace)


def members(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def outputs(decode, matrix, outcomes, *alpha):
    try:
        res = decode(matrix, outcomes, *alpha)
    except ValueError:
        return ValueError
    return (
        res.estimate.members,
        res.definite_non_defectives.members,
        res.dd_core.members,
        res.trace,
    )


def reference(matrix, outcomes, alpha):
    try:
        return rescan_greedy(matrix, outcomes, alpha)
    except ValueError:
        return ValueError


def random_instance(index: int, rng: np.random.Generator):
    n = int(np.exp(rng.uniform(np.log(4), np.log(2000))))
    t = int(rng.integers(2, min(n, 150) + 2))
    dense = rng.random((t, n)) < rng.uniform(0.01, 0.6)
    matrix = DesignMatrix([np.flatnonzero(row) for row in dense], n)
    if index % 4 == 3:
        # Random outcomes: some positive tests hold no potential defective.
        return matrix, OutcomeVector.from_mask(rng.random(t) < rng.uniform(0.2, 0.9))
    k = int(rng.integers(0, min(n, 40) + 1))
    truth = np.zeros(n, dtype=bool)
    truth[rng.choice(n, k, replace=False)] = True
    return matrix, OutcomeVector.from_mask((dense & truth).any(axis=1))


def test_matches_rescan_on_random_instances():
    rng = np.random.default_rng(4242)
    zero_weight_tests = steps = 0
    for index in range(500):
        matrix, outcomes = random_instance(index, rng)
        alpha = ALPHAS[index % len(ALPHAS)]
        assert outputs(scomp, matrix, outcomes) == reference(matrix, outcomes, 0.0), index
        got = outputs(w_scomp, matrix, outcomes, alpha)
        assert got == reference(matrix, outcomes, alpha), (index, alpha)
        steps += len(got[3])
        positive = outcomes.to_mask()
        pd = ~matrix.dense[~positive].any(axis=0)
        zero_weight_tests += int((positive & ~(matrix.dense & pd).any(axis=1)).sum())
    # The corpus reaches the greedy loop and positive tests with w_t = 0.
    assert steps > 500 and zero_weight_tests > 0


def no_block(*args):
    raise AssertionError("the greedy block was built")


def test_dd_explains_everything_builds_no_block(monkeypatch):
    matrix = DesignMatrix([[0], [1, 2], [3]], n_items=4)
    outcomes = run_tests(matrix, ItemSet((0, 3), universe_size=4))
    monkeypatch.setattr(decoders, "_greedy_cover", no_block)
    res = w_scomp(matrix, outcomes, alpha=2.0)
    assert (res.estimate.members, res.dd_core.members, res.trace) == ((0, 3), (0, 3), ())
    assert outputs(w_scomp, matrix, outcomes, 2.0) == reference(matrix, outcomes, 2.0)


def test_no_candidates_builds_no_block(monkeypatch):
    # Test 0 is positive but its only item is ruled out by negative test 1.
    matrix = DesignMatrix([[0, 1], [0, 1], [2]], n_items=3)
    outcomes = OutcomeVector((True, False, False))
    monkeypatch.setattr(decoders, "_greedy_cover", no_block)
    res = scomp(matrix, outcomes)
    assert (res.estimate.members, res.definite_non_defectives.members, res.trace) == ((), (0, 1, 2), ())
    assert outputs(scomp, matrix, outcomes) == reference(matrix, outcomes, 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_one_candidate_in_many_tests(alpha):
    # Item 0 shares each of 40 positive tests with a different second item.
    matrix = DesignMatrix([[0, j] for j in range(1, 41)], n_items=41)
    outcomes = OutcomeVector((True,) * 40)
    (step,) = w_scomp(matrix, outcomes, alpha).trace
    assert (step.item, step.unexplained_after) == (0, 0)
    assert step.score == pytest.approx(40 * 2.0**-alpha)
    assert outputs(w_scomp, matrix, outcomes, alpha) == reference(matrix, outcomes, alpha)


def test_underflow_raises_like_rescan():
    alpha = 1100.0
    matrix = DesignMatrix([[0], [1, 2], [1, 3]], n_items=4)
    outcomes = OutcomeVector((False, True, True))
    assert reference(matrix, outcomes, alpha) is ValueError
    with pytest.raises(ValueError, match="underflowed to 0 .* 2 positive tests unexplained"):
        w_scomp(matrix, outcomes, alpha)
