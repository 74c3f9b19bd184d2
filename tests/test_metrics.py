import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from grouptest.metrics import confusion, counting_bound, f1_score, jaccard
from grouptest.model import ItemSet


def iset(members, n=6):
    return ItemSet(tuple(members), universe_size=n)


class TestConfusion:
    def test_mixed(self):
        stats = confusion(iset([1, 2]), iset([2, 3]))
        assert stats.false_negatives == 1
        assert stats.false_positives == 1
        assert stats.misclassified == 2
        assert not stats.exact

    def test_identity(self):
        stats = confusion(iset([1, 2]), iset([1, 2]))
        assert stats.false_negatives == stats.false_positives == 0
        assert stats.exact

    def test_empty_estimate(self):
        stats = confusion(iset([1, 2]), iset([]))
        assert (stats.false_negatives, stats.false_positives) == (2, 0)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            confusion(iset([1]), ItemSet((1,), universe_size=9))


class TestJaccard:
    def test_third(self):
        assert jaccard(iset([1, 2]), iset([2, 3])) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert jaccard(iset([1]), iset([2])) == 0.0

    def test_both_empty(self):
        assert jaccard(iset([]), iset([])) == 1.0


class TestF1:
    def test_half(self):
        assert f1_score(iset([1, 2]), iset([2, 3])) == pytest.approx(0.5)

    def test_identity(self):
        assert f1_score(iset([1, 2]), iset([1, 2])) == 1.0

    def test_empty_estimate_nonempty_truth(self):
        assert f1_score(iset([1, 2]), iset([])) == 0.0

    def test_both_empty(self):
        assert f1_score(iset([]), iset([])) == 1.0


class TestCountingBound:
    def test_small_exact(self):
        assert counting_bound(4, 2, 2) == pytest.approx(4 / 6)

    def test_capped_at_one(self):
        assert counting_bound(4, 2, 10) == 1.0

    def test_large_matches_exact_binomial(self):
        # independent oracle: exact integer binomial coefficient
        assert counting_bound(500, 10, 0) == pytest.approx(
            1 / math.comb(500, 10), rel=1e-10
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            counting_bound(4, 5, 2)

    def test_nondecreasing_in_t_until_cap(self):
        values = [counting_bound(30, 4, t) for t in range(0, 40)]
        assert all(a <= b or b == 1.0 for a, b in zip(values, values[1:]))
        threshold = math.ceil(math.log2(math.comb(30, 4)))
        assert counting_bound(30, 4, threshold) == 1.0
        assert counting_bound(30, 4, threshold - 1) < 1.0

    def test_exact_on_small_grid(self):
        # Every (N, k, T) with N <= 40 and T <= 60 against exact rational arithmetic.
        for n in range(41):
            for k in range(n + 1):
                choose = math.comb(n, k)
                for t in range(61):
                    assert counting_bound(n, k, t) == min(1.0, float(Fraction(2**t, choose)))

    def test_numpy_integers_give_the_same_floats(self):
        # T >= 64 with a bound below 1: 2**np.int64(T) would wrap to 0.
        for n, k, t in [(40, 20, 30), (25, 2, 8), (500, 10, 67), (5000, 50, 70), (6, 0, 0)]:
            got = counting_bound(np.int64(n), np.int32(k), np.int64(t))
            assert got == counting_bound(n, k, t)

    @pytest.mark.parametrize("args", [(10, 2, 10.5), (10.0, 2, 5), (10, np.float64(2), 5)])
    def test_non_integer_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            counting_bound(*args)

    def test_huge_t_is_one_at_once(self):
        start = time.perf_counter()
        assert counting_bound(500, 10, 10**7) == 1.0
        assert time.perf_counter() - start < 0.1


def test_jaccard_never_exceeds_f1_exhaustively():
    # all subset pairs of a 6-item universe
    universe = range(6)
    subsets = []
    for r in range(7):
        subsets.extend(itertools.combinations(universe, r))
    for a in subsets:
        for b in subsets:
            j = jaccard(iset(a), iset(b))
            f = f1_score(iset(a), iset(b))
            assert 0.0 <= j <= f <= 1.0
            exact = set(a) == set(b)
            assert exact == (j == 1.0) == (f == 1.0)
            assert confusion(iset(a), iset(b)).exact == exact
