"""Set-recovery metrics and the information-theoretic counting bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .design import require_int
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
    if truth.universe_size != estimate.universe_size:
        raise ValueError(
            f"universe mismatch: {truth.universe_size} vs {estimate.universe_size}"
        )
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
    n_items = require_int(n_items, "n_items")
    n_defectives = require_int(n_defectives, "n_defectives")
    n_tests = require_int(n_tests, "n_tests")
    if not 0 <= n_defectives <= n_items:
        raise ValueError(f"need 0 <= k <= N, got k={n_defectives}, N={n_items}")
    if n_tests < 0:
        raise ValueError(f"n_tests must be >= 0, got {n_tests}")
    choose = math.comb(n_items, n_defectives)
    if n_tests >= choose.bit_length():
        return 1.0
    return 2**n_tests / choose
