"""Set-recovery metrics and the information-theoretic counting bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .checks import require_defectives, require_int, require_match
from .model import ItemSet


@dataclass(frozen=True)
class RecoveryStats:
    false_negatives: int
    false_positives: int
    misclassified: int
    jaccard: float
    f1: float
    exact: bool


def confusion(truth: ItemSet, estimate: ItemSet) -> RecoveryStats:
    """Full recovery statistics of an estimate against the true defective set.

    Two empty sets count as perfect agreement for both Jaccard and F1.
    """
    require_match(estimate.universe_size, "estimate universe size", truth.universe_size, "truth universe size")
    n_truth, n_estimate = len(truth.members), len(estimate.members)
    inter = len(set(truth.members).intersection(estimate.members))
    fn = n_truth - inter
    fp = n_estimate - inter
    union = n_truth + n_estimate - inter
    if inter == 0:
        f1 = 0.0 if union else 1.0
    else:
        precision = inter / n_estimate
        recall = inter / n_truth
        f1 = 2.0 * precision * recall / (precision + recall)
    return RecoveryStats(
        false_negatives=fn,
        false_positives=fp,
        misclassified=fn + fp,
        jaccard=inter / union if union else 1.0,
        f1=f1,
        exact=(fn + fp == 0),
    )


def jaccard(truth: ItemSet, estimate: ItemSet) -> float:
    """Intersection over union; two empty sets count as perfect agreement."""
    return confusion(truth, estimate).jaccard


def f1_score(truth: ItemSet, estimate: ItemSet) -> float:
    """Harmonic mean of precision and recall; empty-vs-empty counts as 1."""
    return confusion(truth, estimate).f1


def counting_bound(n_items: int, n_defectives: int, n_tests: int) -> float:
    """Exact ceiling on exact-recovery probability: min(1, 2**T / C(N, k)), correctly rounded."""
    n_items, n_defectives = require_defectives(n_items, n_defectives)
    n_tests = require_int(n_tests, "n_tests", 0)
    choose = math.comb(n_items, n_defectives)
    if n_tests >= choose.bit_length():
        return 1.0
    return 2**n_tests / choose
