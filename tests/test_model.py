import copy
import itertools
import pickle
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from grouptest.design import DesignMatrix, DesignSpec, gen_bernoulli
from grouptest.model import ItemSet, OutcomeVector, run_tests, sample_defective_set


class TestItemSet:
    def test_sorts_and_dedups(self):
        s = ItemSet((3, 1, 3, 2), universe_size=5)
        assert s.members == (1, 2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ItemSet((0, 7), universe_size=5)

    def test_mask_round_trip(self):
        s = ItemSet((0, 4), universe_size=6)
        assert ItemSet.from_mask(s.to_mask()) == s

    def test_from_mask_matches_validating_constructor(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 500):
            for density in (0.0, 0.1, 0.9, 1.0):
                mask = rng.random(n) < density
                fast = ItemSet.from_mask(mask)
                slow = ItemSet(tuple(np.flatnonzero(mask)), universe_size=n)
                assert fast == slow and hash(fast) == hash(slow)
                assert all(type(i) is int for i in fast.members)

    @pytest.mark.parametrize(
        "item, expected",
        [(16, True), (17, False), (np.int64(16), True), (np.int32(17), False),
         (4898, True), (1.0, False), (2.0, True), (2.5, False), ("a", False), (None, False)],
    )
    def test_contains(self, item, expected):
        s = ItemSet(tuple(range(0, 4900, 2)), universe_size=5000)
        before = (pickle.dumps(s), copy.copy(s).__dict__)
        assert (item in s) is expected
        assert (item in s) is expected  # the same answer when asked again
        assert s == ItemSet(tuple(range(0, 4900, 2)), universe_size=5000)
        # A query leaves no state on the instance: pickles and copies are as before.
        assert (pickle.dumps(s), copy.copy(s).__dict__) == before

    @pytest.mark.parametrize(
        "members, universe_size",
        [
            ((-0.5, 2.9), 3), (("2",), 3), ((1.0,), 3), ((None,), 3), ((0,), 3.0), ((0,), "3"),
            ((True,), 3), ((np.bool_(True),), 3), ((0,), True),
        ],
    )
    def test_non_integer_indices_rejected(self, members, universe_size):
        with pytest.raises(ValueError, match="must be an integer"):
            ItemSet(members, universe_size=universe_size)

    @pytest.mark.parametrize(
        "members, message",
        [
            ((0, -1), "item index -1 outside [0, 3)"),
            ((3, 0), "item index 3 outside [0, 3)"),
            ((True,), "item index must be an integer, got True"),
            ((1.5,), "item index must be an integer, got 1.5"),
            (5, "item index values must be an iterable of integers, got 5"),
        ],
        ids=["negative", "size", "bool", "float", "not-iterable"],
    )
    def test_bad_members_rejected_by_the_index_rule(self, members, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ItemSet(members, universe_size=3)

    def test_numpy_integers_accepted(self):
        s = ItemSet((np.int64(2), np.int32(0), np.uint8(2)), universe_size=np.int64(3))
        assert s == ItemSet((0, 2), universe_size=3)
        assert all(type(v) is int for v in (*s.members, s.universe_size))

    @pytest.mark.parametrize("shape", [(3, 1), (2, 3), ()])
    def test_from_mask_rejects_non_1d(self, shape):
        with pytest.raises(ValueError):
            ItemSet.from_mask(np.zeros(shape, dtype=bool))
        with pytest.raises(ValueError):
            OutcomeVector.from_mask(np.zeros(shape, dtype=bool))


class TestSampleDefectiveSet:
    def test_empty_set(self):
        assert sample_defective_set(5, 0, seed=1).members == ()

    def test_full_set(self):
        assert sample_defective_set(5, 5, seed=1).members == (0, 1, 2, 3, 4)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            sample_defective_set(4, 5, seed=1)

    @pytest.mark.parametrize("seed", [None, True, np.bool_(True), 1.5, -1, "3", [1, 2], (1, True)])
    def test_bad_seed_rejected(self, seed):
        # None would draw from OS entropy, and True or a list was taken as a seed.
        with pytest.raises(ValueError, match="^seed must be"):
            sample_defective_set(30, 2, seed)

    def test_uniform_over_pairs(self):
        # all C(4,2)=6 pairs equally likely over 60,000 draws
        pairs = list(itertools.combinations(range(4), 2))
        counts = dict.fromkeys(pairs, 0)
        for seed in range(60000):
            counts[sample_defective_set(4, 2, seed=seed).members] += 1
        assert chisquare(list(counts.values())).pvalue > 0.001

    def test_deterministic(self):
        assert sample_defective_set(100, 7, seed=5) == sample_defective_set(100, 7, seed=5)


class TestRunTests:
    def test_no_defectives_all_negative(self):
        m = DesignMatrix([[0, 1], [2]], n_items=3)
        y = run_tests(m, ItemSet((), universe_size=3))
        assert y.bits == (False, False)

    def test_singleton_pools(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        y = run_tests(m, ItemSet((0,), universe_size=2))
        assert y.bits == (True, False)

    def test_or_model(self):
        m = DesignMatrix([[0, 1], [0, 2], [1, 2, 3], [4]], n_items=5)
        y = run_tests(m, ItemSet((0, 1), universe_size=5))
        assert y.bits == (True, True, True, False)

    def test_empty_pool_is_negative(self):
        m = DesignMatrix([[], [0]], n_items=1)
        y = run_tests(m, ItemSet((0,), universe_size=1))
        assert y.bits == (False, True)

    def test_universe_mismatch(self):
        m = DesignMatrix([[0]], n_items=2)
        with pytest.raises(ValueError):
            run_tests(m, ItemSet((0,), universe_size=3))

    def test_monotone_in_defective_set(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n, t = 8, 6
            m = DesignMatrix(
                [list(np.flatnonzero(rng.random(n) < 0.4)) for _ in range(t)], n_items=n
            )
            small = ItemSet(tuple(np.flatnonzero(rng.random(n) < 0.3).tolist()), n)
            extra = set(small.members) | {int(rng.integers(0, n))}
            big = ItemSet(tuple(extra), n)
            y_small = np.array(run_tests(m, small).bits)
            y_big = np.array(run_tests(m, big).bits)
            assert not (y_small & ~y_big).any()


def test_positive_rate_given_inclusion_matches_coverage_prob():
    # for a non-defective item: P(Y_t = 1 | item in pool) -> 1 - (1-p)^k
    from grouptest.theory import coverage_prob

    n, k, p = 12, 3, 0.25
    truth = ItemSet(tuple(range(k)), universe_size=n)
    probe = n - 1  # non-defective
    included = positive = 0
    for seed in range(2000):
        spec = DesignSpec(
            design_kind="bernoulli", n_items=n, n_tests=20, inclusion_prob=p, seed=seed
        )
        m = gen_bernoulli(spec)
        y = np.array(run_tests(m, truth).bits)
        col = m.dense[:, probe]
        included += int(col.sum())
        positive += int((col & y).sum())
    q = coverage_prob(k, p)
    sd = np.sqrt(q * (1 - q) / included)
    assert abs(positive / included - q) < 4 * sd


def test_outcome_json_round_trip():
    y = OutcomeVector((True, False, True))
    assert OutcomeVector.from_json_dict(y.to_json_dict()) == y
    assert y.to_json_dict() == {"bits": [1, 0, 1]}
    # The constructor and from_json_dict reject the same non-bits.
    for bad, where, value in [
        ((0.5, "0", 2), 0, 0.5), ((1, "0"), 1, "0"), ((0, 1, 2), 2, 2),
        ((1.0, 0), 0, 1.0), ((0, np.float64(1.0)), 1, np.float64(1.0)), ((1, 1 + 0j), 1, 1 + 0j),
    ]:
        message = re.escape(f"outcome bit {where} is {value!r}, not 0 or 1")
        with pytest.raises(ValueError, match=message):
            OutcomeVector(bad)
        with pytest.raises(ValueError, match=message):
            OutcomeVector.from_json_dict({"bits": list(bad)})


def test_outcome_from_mask_matches_constructor():
    rng = np.random.default_rng(9)
    for n in (0, 1, 5, 400):
        mask = rng.random(n) < 0.5
        fast = OutcomeVector.from_mask(mask)
        assert fast == OutcomeVector(tuple(mask))
        assert all(type(b) is bool for b in fast.bits)
        assert np.array_equal(fast.to_mask(), mask)
