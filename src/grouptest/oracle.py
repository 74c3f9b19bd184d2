"""Brute-force references that validate the closed forms at small scale.

The moment oracles enumerate every inclusion pattern of the N-1 peer items
(2**(N-1) patterns, capped at N = 16) and take probability-weighted sums of
the score (1 + size)**-alpha, so they share no code path with the analytic
formulas they check. One enumeration serves both: the weighted oracle is
alpha = 1, the unweighted (indicator) oracle alpha = 0.
``consistent_sets`` exhaustively lists the defective sets a decoder could
legitimately output, which underpins the exact-recovery feasibility checks.
``verify`` runs both kinds of check as the ``gt verify`` suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import theory
from .decoders import comp, dd, w_scomp
from .design import DesignMatrix, DesignSpec, generate, require_int
from .model import ItemSet, OutcomeVector, run_tests, sample_defective_set

_MAX_ENUM_ITEMS = 16
_MAX_SUBSETS = 10**6
_MOMENT_FIELDS = ("mu_d", "nu_d", "mu_nd", "nu_nd")


@dataclass(frozen=True)
class EnumeratedMoments:
    """Moment values obtained by exhaustive pattern enumeration."""

    mu_d: float
    nu_d: float
    mu_nd: float
    nu_nd: float
    base_mu_d: float
    base_nu_d: float
    base_mu_nd: float
    base_nu_nd: float
    method: str = "exhaustive_patterns"


def _peer_patterns(n_items: int, n_defective_peers: int, p: float):
    """All inclusion patterns of the N-1 peers: (probability, size, defectives_in)."""
    n_peers = n_items - 1
    masks = np.arange(1 << n_peers, dtype=np.uint32)
    bits = (masks[:, np.newaxis] >> np.arange(n_peers)) & 1
    sizes = bits.sum(axis=1)
    # The first n_defective_peers peers are the defective ones; the prior is
    # exchangeable so the labeling does not matter.
    defectives_in = bits[:, :n_defective_peers].sum(axis=1)
    probs = p**sizes * (1.0 - p) ** (n_peers - sizes)
    return probs, sizes, defectives_in


def _check_enum_domain(n_items: int, n_defectives: int, p: float) -> tuple[int, int]:
    n_items = require_int(n_items, "n_items")
    n_defectives = require_int(n_defectives, "n_defectives")
    if n_items > _MAX_ENUM_ITEMS:
        raise ValueError(f"enumeration budget is N <= {_MAX_ENUM_ITEMS}, got {n_items}")
    if not 1 <= n_defectives < n_items:
        raise ValueError(f"need 1 <= k < N, got k={n_defectives}, N={n_items}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return n_items, n_defectives


def _enumerated_moments(n_items: int, n_defectives: int, p: float, alpha: float) -> EnumeratedMoments:
    """Exact moments of the score (1 + size)**-alpha over all peer patterns.

    ``size`` counts the peers pooled with the focal item, so alpha = 1 is
    the inverse-weight rule and alpha = 0 the indicator rule.
    """
    n_items, n_defectives = _check_enum_domain(n_items, n_defectives, p)

    # One enumeration serves both focal items: only ``defectives_in``
    # depends on the number of defective peers.
    probs, sizes, defectives_in = _peer_patterns(n_items, n_defectives, p)
    score = (1.0 + sizes) ** -alpha

    # Defective focal item: k-1 defective peers; inclusion alone makes the
    # test positive, so every included pattern contributes its score.
    base_mu_d = float((probs * score).sum())
    base_nu_d = float((probs * score**2).sum())

    # Non-defective focal item: k defective peers; the test must also hold
    # at least one of them.
    positive = defectives_in >= 1
    q = float(probs[positive].sum())
    raw_mu_nd = float((probs * score * positive).sum())
    raw_nu_nd = float((probs * score**2 * positive).sum())

    return EnumeratedMoments(
        mu_d=p * base_mu_d,
        nu_d=p * base_nu_d,
        mu_nd=p * raw_mu_nd,
        nu_nd=p * raw_nu_nd,
        base_mu_d=base_mu_d,
        base_nu_d=base_nu_d,
        base_mu_nd=raw_mu_nd / q if q > 0 else 0.0,
        base_nu_nd=raw_nu_nd / q if q > 0 else 0.0,
    )


def brute_force_weighted_moments(n_items: int, n_defectives: int, p: float) -> EnumeratedMoments:
    """Exact inverse-weight score moments by enumeration over all peer patterns."""
    return _enumerated_moments(n_items, n_defectives, p, 1.0)


def brute_force_unweighted_moments(n_defectives: int, p: float, n_items: int) -> EnumeratedMoments:
    """Exact indicator score moments by the same enumeration (the weight at alpha = 0)."""
    return _enumerated_moments(n_items, n_defectives, p, 0.0)


def consistent_sets(matrix: DesignMatrix, outcomes: OutcomeVector, n_defectives: int) -> list[ItemSet]:
    """Every size-k defective set that reproduces the observed outcomes exactly.

    Returned in lexicographic order of the member tuples.
    """
    n = matrix.n_items
    n_defectives = require_int(n_defectives, "n_defectives")
    if not 0 <= n_defectives <= n:
        raise ValueError(f"need 0 <= k <= N, got k={n_defectives}, N={n}")
    if math.comb(n, n_defectives) > _MAX_SUBSETS:
        raise ValueError(
            f"C({n}, {n_defectives}) exceeds the enumeration budget of {_MAX_SUBSETS}"
        )
    if outcomes.n_tests != matrix.n_tests:
        raise ValueError("outcome length does not match matrix n_tests")

    positive = outcomes.to_mask()
    pos_pools = [set(matrix.rows[t]) for t in np.flatnonzero(positive)]
    eliminated = set()
    for t in np.flatnonzero(~positive):
        eliminated.update(matrix.rows[t])

    found = []
    for combo in itertools.combinations(range(n), n_defectives):
        chosen = set(combo)
        if chosen & eliminated:
            continue
        if all(chosen & pool for pool in pos_pools):
            found.append(ItemSet(combo, universe_size=n))
    return found


def _deviations(closed, enumerated) -> list[float]:
    return [abs(getattr(closed, f) - getattr(enumerated, f)) for f in _MOMENT_FIELDS]


def verify(n_max: int, trials: int) -> tuple[float, float, int]:
    """The ``gt verify`` suite: ``(worst_weighted_dev, worst_unweighted_dev, violations)``.

    The deviations are the largest |closed form - enumeration| over the four
    moments, N = 2..n_max, k = 1..N-1 and p in {0.1, 0.25, 0.5, 1/(k+1)};
    NaN if any is NaN.
    ``violations`` counts failed checks over ``trials`` seeded random
    Bernoulli instances: (1) the truth is feasible, and every feasible set
    (2) lies inside the COMP estimate and (3) contains the DD core; (4) the
    W-SCOMP estimate reproduces the outcomes. ValueError if ``n_max``
    exceeds the enumeration budget or checks nothing (below 2), or if ``trials`` < 0.
    """
    n_max, trials = require_int(n_max, "n_max"), require_int(trials, "trials")
    if n_max > _MAX_ENUM_ITEMS:
        raise ValueError(f"--n-max is capped at {_MAX_ENUM_ITEMS} by the enumeration budget")
    if n_max < 2 or trials < 0:
        raise ValueError(f"need --n-max >= 2 and --trials >= 0, got {n_max} and {trials}")
    devs_w, devs_u = [0.0], [0.0]
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for p in (0.1, 0.25, 0.5, 1.0 / (k + 1)):
                closed_w, closed_u = theory.weighted_moments(n, k, p), theory.unweighted_moments(k, p)
                devs_w += _deviations(closed_w, brute_force_weighted_moments(n, k, p))
                devs_u += _deviations(closed_u, brute_force_unweighted_moments(k, p, n))
    # np.max, unlike max, returns NaN if any deviation is NaN.
    worst_w, worst_u = float(np.max(devs_w)), float(np.max(devs_u))

    violations = 0
    rng = np.random.default_rng(20240)
    for _ in range(trials):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(4, n)))
        t = int(rng.integers(3, 13))
        p = float(rng.uniform(0.1, 0.6))
        seed = int(rng.integers(0, 2**63))
        matrix = generate(DesignSpec("bernoulli", n, t, inclusion_prob=p, seed=seed))
        truth = sample_defective_set(n, k, int(rng.integers(0, 2**63)))
        outcomes = run_tests(matrix, truth)
        feasible = consistent_sets(matrix, outcomes, k)
        masks = [s.to_mask() for s in feasible]
        pd = comp(matrix, outcomes).estimate.to_mask()
        core = dd(matrix, outcomes).estimate.to_mask()
        violations += truth not in feasible
        violations += any((m & ~pd).any() for m in masks)
        violations += any((core & ~m).any() for m in masks)
        violations += run_tests(matrix, w_scomp(matrix, outcomes).estimate) != outcomes
    return worst_w, worst_u, violations
