"""The four noiseless non-adaptive decoders: stages of one staged pass.

* ``comp``: every item seen in a negative test is a definite non-defective
  (DND); the remaining potential defectives (PD) are returned as the
  estimate. The estimate always contains the true defective set.
* ``dd``: an item that is the unique PD member of some positive test is a
  definite defective; the estimate is exactly those items, so it is always
  a subset of the truth.
* ``scomp``: starts from the DD output and greedily adds the PD item
  covering the most unexplained positive tests until all are explained.
* ``w_scomp``: the same greedy loop, but each unexplained test t
  contributes 1/w_t**alpha to its members' scores, where w_t is the number
  of PD items in t. Low-weight tests carry more information, so their
  members are promoted first. alpha=0 recovers scomp exactly,
  trace-for-trace; the default alpha is 1.

Each decoder reads its result from the same pass (COMP masks, then the DD
core, then the greedy cover). The greedy stage and ``score_items`` share one
scoring kernel.

``decode_all(matrix, outcomes, names, alpha)`` builds the COMP/DD stage (the
COMP and DD results, the DD core and the greedy block) once per call, and
every decoder it is asked for reads that one stage: a trial that decodes
through one call computes the stage once, and each greedy decoder runs only
its own cover. Nothing is kept between calls.

COMP reads the negative rows through one copy (T_neg x N, about a third of
the matrix at N=5000, T=400), freed once COMP is done: the copy-free
reductions ``~positive @ dense`` and ``np.logical_or.reduce(..., where=...)``
are 12x and 23x slower there. After COMP the stage reads only the T x |PD|
columns of the potential defectives, never a T x N temporary: the DD core
counts the PD items of each test on them, the explained tests are read from
the core's columns, and the greedy block is cut from them. The DD core is
mapped back to all N items, so every ``ItemSet`` and every trace are as
before.

The greedy stage runs on one compacted block, the unexplained positive
tests by the candidate items, and computes each w_t once. That is exact: a
test stays unexplained only while none of its candidates is chosen, and an
item stops being a candidate only once none of its tests is unexplained, so
w_t of an unexplained test never changes. Each step sums the rows still
unexplained and drops those the chosen item explains; traces and sweep CSV
bytes are those of a full rescan per step. With no candidate left after DD,
the greedy stage does not run.

``DECODERS`` maps each name to its tail on the stage, ``(stage, alpha) ->
DecodeResult``: COMP and DD return their part, SCOMP covers at alpha = 0
and W-SCOMP at ``alpha``. ``decode`` and ``comp``, ``dd``, ``scomp``,
``w_scomp`` are ``decode_all`` with one name.

Ties at the argmax are broken toward the lowest item index. Scores are
accumulated over tests in ascending test index with a fixed reduction
order, so results are reproducible across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import require_indices, require_match, require_real
from .design import DesignMatrix
from .model import ItemSet, OutcomeVector


class TraceStep(NamedTuple):
    item: int
    score: float
    unexplained_after: int


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: the estimate plus the DND/DD partition and greedy trace."""

    estimate: ItemSet
    definite_non_defectives: ItemSet
    dd_core: ItemSet
    trace: tuple[TraceStep, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "estimate": list(self.estimate.members),
            "definite_non_defectives": list(self.definite_non_defectives.members),
            "dd_core": list(self.dd_core.members),
            "trace": None if self.trace is None else [s._asdict() for s in self.trace],
        }


@dataclass(frozen=True)
class ScoreVector:
    """Per-item scores over the unexplained tests, with the test weights used."""

    scores: dict[int, float]
    weights: dict[int, int]
    alpha: float


def _score(sub: np.ndarray, candidates: np.ndarray, alpha: float):
    """(weights, increments) over ``sub``, the dense-matrix rows of the scored tests.

    Test t has weight w_t = |candidates in t|, and row t of the increments
    is 1/w_t**alpha at every item in t (all zero when w_t = 0). An item's
    score is its column of the increments summed in row order by
    ``np.add.reduce(increments, axis=0)``.
    """
    weights = (sub & candidates).sum(axis=1)
    coeff = np.zeros(len(weights))
    nz = weights > 0
    coeff[nz] = weights[nz] ** (-alpha)
    return weights, sub * coeff[:, np.newaxis]


def _greedy_cover(block, items, alpha, estimate) -> list[TraceStep]:
    """The greedy stage on ``block``, the (unexplained tests x candidates)
    block whose columns are the items ``items`` and whose w_t are fixed;
    adds the chosen items to ``estimate``, returns the trace."""
    _, increments = _score(block, np.ones(len(items), dtype=bool), alpha)
    trace: list[TraceStep] = []
    while len(block):
        # A test with a candidate holds at least two (a lone one would be in
        # the DD core). So the block has two or more columns, which numpy
        # sums down in ascending test order; a lone column it sums pairwise.
        totals = np.add.reduce(increments, axis=0)
        col = int(np.argmax(totals))  # first max: lowest index
        best_score = float(totals[col])
        if best_score <= 0.0:
            if not block.any():
                break  # no candidate is left in an unexplained test
            # Every remaining candidate sits in an unexplained test with
            # w_t >= 1, so a zero score can only come from 1/w_t**alpha
            # underflowing.
            raise ValueError(
                f"W-SCOMP scores underflowed to 0 at alpha={alpha} with "
                f"{len(block)} positive tests unexplained; use a smaller alpha"
            )
        keep = ~block[:, col]
        block, increments = block[keep], increments[keep]
        estimate[items[col]] = True
        trace.append(TraceStep(int(items[col]), best_score, len(block)))
    return trace


class _Stage(NamedTuple):
    """The COMP/DD stage of one ``(matrix, outcomes)`` pair, which all four decoders share."""

    comp: DecodeResult
    core: np.ndarray  # the DD core over all N items, read-only
    dd: DecodeResult
    block: np.ndarray  # the unexplained positive tests x the candidates, C-ordered
    items: np.ndarray  # the candidates' item indices


def _stage(matrix: DesignMatrix, outcomes: OutcomeVector) -> _Stage:
    """The COMP/DD stage of ``(matrix, outcomes)``, shared within one ``decode_all`` call."""
    require_match(outcomes.n_tests, "outcome length", matrix.n_tests, "matrix n_tests")
    positive = outcomes.to_mask()
    # Items in no test stay potential.
    dnd = matrix.dense[~positive].any(axis=0)
    pd_items = np.flatnonzero(~dnd)
    # The row of a negative test is all False here: no PD item sits in one.
    pd_block = matrix.dense[:, pd_items]
    # The DD core: each PD item that is the only PD member of a positive test.
    core_cols = pd_block[np.count_nonzero(pd_block, axis=1) == 1].any(axis=0)
    core = np.zeros(matrix.n_items, dtype=bool)
    core[pd_items[core_cols]] = True
    core.flags.writeable = False  # shared: a greedy cover starts from a copy
    # A test is explained once it holds a core item. Only items that can
    # still explain something are candidates; this excludes the DD core,
    # whose tests are all explained.
    unexplained = positive & ~pd_block[:, core_cols].any(axis=1)
    cand_cols = pd_block[unexplained].any(axis=0)
    # Columns first, then rows: the block comes out C-ordered, which fixes
    # the order in which the greedy stage sums it.
    block = pd_block[:, cand_cols][unexplained]
    dnd_set, core_set = ItemSet.from_mask(dnd), ItemSet.from_mask(core)
    empty = ItemSet((), universe_size=matrix.n_items)
    return _Stage(
        DecodeResult(ItemSet.from_mask(~dnd), dnd_set, empty),
        core,
        DecodeResult(core_set, dnd_set, core_set),
        block,
        pd_items[cand_cols],
    )


def _cover(stage: _Stage, alpha: float) -> DecodeResult:
    """The greedy cover of ``stage`` with increments 1/w_t**alpha, from the DD core."""
    estimate = stage.core.copy()
    trace = _greedy_cover(stage.block, stage.items, alpha, estimate) if len(stage.items) else []
    # Without a greedy step the estimate is the DD core: reuse its ItemSet.
    estimate_set = ItemSet.from_mask(estimate) if trace else stage.dd.estimate
    return DecodeResult(estimate_set, stage.comp.definite_non_defectives, stage.dd.dd_core, tuple(trace))


# Each decoder's tail on the shared stage: (stage, alpha) -> DecodeResult.
DECODERS = {
    "comp": lambda stage, alpha: stage.comp,
    "dd": lambda stage, alpha: stage.dd,
    "scomp": lambda stage, alpha: _cover(stage, 0.0),
    "wscomp": _cover,
}


def check_names(names, what: str) -> tuple[str, ...]:
    """``names`` as a tuple of ``DECODERS`` keys; ValueError naming ``what`` for an
    unknown name, or unless it is a nonempty list or tuple of distinct names."""
    if isinstance(names, (list, tuple)):
        for name in names:
            if not isinstance(name, str) or name not in DECODERS:
                raise ValueError(f"unknown decoder {name!r} in {what}; choose from {sorted(DECODERS)}")
        if names and len(set(names)) == len(names):
            return tuple(names)
    raise ValueError(f"{what} must be a nonempty list of distinct decoder names, got {names!r}")


def decode_all(matrix: DesignMatrix, outcomes: OutcomeVector, names, alpha: float = 1.0) -> dict[str, DecodeResult]:
    """Run the decoders ``names`` on one instance, which share its COMP/DD stage.

    ``alpha``, then the names (``check_names``) are checked first, whichever
    decoders are asked for. Only ``wscomp`` uses ``alpha``; it raises ValueError
    if its increments underflow to 0 before every explainable test is explained.
    """
    alpha = require_real(alpha, "alpha")
    names = check_names(names, "names")
    stage = _stage(matrix, outcomes)
    return {name: DECODERS[name](stage, alpha) for name in names}


def decode(name: str, matrix: DesignMatrix, outcomes: OutcomeVector, alpha: float = 1.0) -> DecodeResult:
    """Run the one decoder ``name``: ``decode_all`` with that name."""
    return decode_all(matrix, outcomes, (name,), alpha)[name]


def comp(matrix: DesignMatrix, outcomes: OutcomeVector) -> DecodeResult:
    """Return every item not ruled out by a negative test."""
    return decode("comp", matrix, outcomes)


def dd(matrix: DesignMatrix, outcomes: OutcomeVector) -> DecodeResult:
    """Return only the items certified by a positive test they alone can explain."""
    return decode("dd", matrix, outcomes)


def scomp(matrix: DesignMatrix, outcomes: OutcomeVector) -> DecodeResult:
    """Greedy cover of the unexplained positive tests with unit increments:
    ``w_scomp`` at alpha=0."""
    return decode("scomp", matrix, outcomes)


def w_scomp(matrix: DesignMatrix, outcomes: OutcomeVector, alpha: float = 1.0) -> DecodeResult:
    """Greedy cover with inverse-weight increments 1/w_t**alpha.

    ValueError if the increments underflow to 0 (very large ``alpha``)
    before every explainable positive test is explained.
    """
    return decode("wscomp", matrix, outcomes, alpha)


def score_items(
    matrix: DesignMatrix,
    outcomes: OutcomeVector,
    candidates: ItemSet,
    unexplained,
    alpha: float,
) -> ScoreVector:
    """Weighted coverage scores of the candidates over the unexplained tests.

    Each unexplained test t has weight w_t = |candidates in pool t| and
    contributes 1/w_t**alpha to the score of every candidate it contains.
    Tests with w_t = 0 contribute nothing. This is the score the greedy
    stage of ``w_scomp`` maximizes at each step.
    """
    require_match(outcomes.n_tests, "outcome length", matrix.n_tests, "matrix n_tests")
    alpha = require_real(alpha, "alpha")
    positive = outcomes.to_mask()
    unexplained = require_indices(unexplained, matrix.n_tests, "test index")
    for t in unexplained:
        if not positive[t]:
            raise ValueError(f"unexplained test {t} is not positive")
    require_match(candidates.universe_size, "candidate universe size", matrix.n_items, "matrix n_items")
    cand_mask = candidates.to_mask()
    weights, increments = _score(matrix.dense[unexplained], cand_mask, alpha)
    totals = np.add.reduce(increments, axis=0)
    return ScoreVector(
        scores={i: float(totals[i]) for i in candidates.members},
        weights={t: int(w) for t, w in zip(unexplained, weights)},
        alpha=alpha,
    )

