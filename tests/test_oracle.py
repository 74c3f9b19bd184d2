import itertools
from dataclasses import replace

import numpy as np
import pytest

from grouptest import oracle, theory
from grouptest.decoders import DECODERS, comp
from grouptest.design import DesignMatrix, DesignSpec, gen_bernoulli
from grouptest.model import ItemSet, OutcomeVector, run_tests, sample_defective_set
from grouptest.oracle import (
    brute_force_unweighted_moments,
    brute_force_weighted_moments,
    consistent_sets,
)
from grouptest.theory import unweighted_moments, weighted_moments


class TestWeightedEnumeration:
    def test_frozen_point(self):
        e = brute_force_weighted_moments(2, 1, 0.5)
        assert e.mu_d == pytest.approx(0.375, abs=1e-15)
        assert e.nu_d == pytest.approx(0.3125, abs=1e-15)
        assert e.mu_nd == pytest.approx(0.125, abs=1e-15)
        assert e.nu_nd == pytest.approx(0.0625, abs=1e-15)

    def test_agrees_with_closed_forms(self):
        e = brute_force_weighted_moments(12, 3, 0.25)
        m = weighted_moments(12, 3, 0.25)
        for attr in ("mu_d", "nu_d", "mu_nd", "nu_nd", "base_mu_nd", "base_nu_nd"):
            assert getattr(e, attr) == pytest.approx(getattr(m, attr), abs=1e-12)

    def test_deterministic_full_inclusion(self):
        # p=1: every pool holds both items, weight is always 2
        e = brute_force_weighted_moments(2, 1, 1.0)
        assert e.mu_d == pytest.approx(0.5, abs=1e-15)

    def test_budget_error(self):
        with pytest.raises(ValueError):
            brute_force_weighted_moments(17, 2, 0.5)


class TestUnweightedEnumeration:
    def test_known_mean(self):
        e = brute_force_unweighted_moments(2, 0.3, 5)
        assert e.mu_nd == pytest.approx(0.3 * (1 - 0.7**2), abs=1e-15)

    def test_defective_mean_is_p(self):
        assert brute_force_unweighted_moments(1, 0.5, 2).mu_d == pytest.approx(0.5)

    def test_agrees_with_closed_forms(self):
        e = brute_force_unweighted_moments(4, 0.2, 12)
        m = unweighted_moments(4, 0.2)
        for attr in ("mu_d", "nu_d", "mu_nd", "nu_nd"):
            assert getattr(e, attr) == pytest.approx(getattr(m, attr), abs=1e-12)

    def test_budget_error(self):
        with pytest.raises(ValueError):
            brute_force_unweighted_moments(2, 0.5, 20)

    def test_indicator_moments_square_to_themselves(self):
        # The enumeration at alpha = 0 scores every pooled item 1, so the
        # second moments equal the firsts and the base moments are 1.
        for n in range(2, 13):
            for k in range(1, n):
                for p in (0.1, 0.5, 1 / (k + 1)):
                    e = brute_force_unweighted_moments(k, p, n)
                    assert e.nu_d == e.mu_d and e.nu_nd == e.mu_nd
                    for base in (e.base_mu_d, e.base_nu_d, e.base_mu_nd, e.base_nu_nd):
                        assert abs(base - 1.0) <= 1e-14


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: brute_force_weighted_moments(5.5, 2, 0.3), "n_items"),
            (lambda: brute_force_weighted_moments(5, 2.0, 0.3), "n_defectives"),
            (lambda: brute_force_unweighted_moments(2.5, 0.3, 5), "n_defectives"),
            (lambda: brute_force_unweighted_moments(2, 0.3, "5"), "n_items"),
            (lambda: brute_force_unweighted_moments(True, 0.3, 5), "n_defectives"),
        ],
    )
    def test_non_integers_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert brute_force_weighted_moments(np.int64(6), np.int32(2), 0.3) == (
            brute_force_weighted_moments(6, 2, 0.3)
        )
        assert brute_force_unweighted_moments(np.int64(2), 0.3, np.uint8(6)) == (
            brute_force_unweighted_moments(2, 0.3, 6)
        )


class TestConsistentSets:
    def test_unique_explanation(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        sets = consistent_sets(m, OutcomeVector((1, 0)), 1)
        assert [s.members for s in sets] == [(0,)]

    def test_worked_instance(self):
        m = DesignMatrix([[0, 1], [0, 2], [1, 2, 3], [4]], n_items=5)
        sets = consistent_sets(m, OutcomeVector((1, 1, 1, 0)), 2)
        assert [s.members for s in sets] == [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_empty_truth(self):
        m = DesignMatrix([[0, 1]], n_items=2)
        sets = consistent_sets(m, OutcomeVector((0,)), 0)
        assert [s.members for s in sets] == [()]

    def test_lexicographic_order(self):
        m = DesignMatrix([[0, 1, 2, 3]], n_items=4)
        sets = consistent_sets(m, OutcomeVector((1,)), 2)
        assert [s.members for s in sets] == sorted(s.members for s in sets)

    def test_budget_error(self):
        m = DesignMatrix([[0]], n_items=60)
        with pytest.raises(ValueError):
            consistent_sets(m, OutcomeVector((1,)), 30)

    def test_agrees_with_forward_model(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n, t, k = 7, 6, 2
            rows = [list(np.flatnonzero(rng.random(n) < 0.4)) for _ in range(t)]
            matrix = DesignMatrix(rows, n_items=n)
            truth = ItemSet(tuple(rng.choice(n, size=k, replace=False).tolist()), n)
            y = run_tests(matrix, truth)
            found = consistent_sets(matrix, y, k)
            assert all(run_tests(matrix, s) == y for s in found)
            assert truth in found

    def test_complete_against_exhaustive_search(self):
        # The output is exactly the lexicographic list of every size-k set
        # whose forward model reproduces the outcomes, so a feasible set
        # dropped by the pruning fails here. Outcomes are all-negative,
        # random (often infeasible) or generated by a true set, in turn.
        rng = np.random.default_rng(12)
        seen = {"k = 0": 0, "empty pool": 0, "item in no test": 0, "several sets": 0}
        for trial in range(300):
            n, t = int(rng.integers(1, 9)), int(rng.integers(1, 8))
            k = int(rng.integers(0, min(n, 4) + 1))
            p = float(rng.uniform(0.0, 0.6))
            matrix = DesignMatrix([np.flatnonzero(rng.random(n) < p).tolist() for _ in range(t)], n)
            if trial % 3 == 0:
                y = OutcomeVector((0,) * t)
            elif trial % 3 == 1:
                y = OutcomeVector(tuple(rng.integers(0, 2, size=t).tolist()))
            else:
                y = run_tests(matrix, ItemSet(tuple(rng.choice(n, size=k, replace=False).tolist()), n))
            expected = [
                c for c in itertools.combinations(range(n), k) if run_tests(matrix, ItemSet(c, n)) == y
            ]
            assert [s.members for s in consistent_sets(matrix, y, k)] == expected
            seen["k = 0"] += k == 0
            seen["empty pool"] += not matrix.dense.any(axis=1).all()
            seen["item in no test"] += not matrix.dense.any(axis=0).all()
            seen["several sets"] += len(expected) > 1
        assert min(seen.values()) >= 20, seen


class TestDecoderSoundnessAgainstOracle:
    def test_feasible_sets_inside_comp_estimate(self):
        rng = np.random.default_rng(404)
        for _ in range(60):
            n = int(rng.integers(4, 10))
            k = int(rng.integers(1, 3))
            spec = DesignSpec(
                design_kind="bernoulli",
                n_items=n,
                n_tests=int(rng.integers(3, 10)),
                inclusion_prob=float(rng.uniform(0.2, 0.6)),
                seed=int(rng.integers(0, 2**62)),
            )
            matrix = gen_bernoulli(spec)
            truth = sample_defective_set(n, k, int(rng.integers(0, 2**62)))
            y = run_tests(matrix, truth)
            feasible = consistent_sets(matrix, y, k)
            pd_set = set(comp(matrix, y).estimate.members)
            assert truth in feasible
            for candidate in feasible:
                assert set(candidate.members) <= pd_set


def _drop_first_feasible_set(real):
    return lambda matrix, outcomes, k: real(matrix, outcomes, k)[1:]


# The decoder breakers wrap a ``DECODERS`` tail, ``(stage, alpha) -> DecodeResult``.
def _comp_dropping_a_pd_item(real):
    def broken(stage, alpha):
        result = real(stage, alpha)
        n_items = result.estimate.universe_size
        return replace(result, estimate=ItemSet(result.estimate.members[1:], n_items))
    return broken


def _dd_adding_a_non_core_item(real):
    def broken(stage, alpha):
        result = real(stage, alpha)
        n_items = result.estimate.universe_size
        extra = next(i for i in range(n_items) if i not in result.estimate)
        return replace(result, estimate=ItemSet(result.estimate.members + (extra,), n_items))
    return broken


def _w_scomp_returning_the_dd_core(real):
    def broken(stage, alpha):
        result = real(stage, alpha)
        return replace(result, estimate=result.dd_core)
    return broken


class TestVerify:
    def test_passes_at_small_budget(self):
        worst_w, worst_u, violations = oracle.verify(7, 40)
        assert worst_w <= 1e-12 and worst_u <= 1e-12
        assert violations == 0

    @pytest.mark.parametrize(
        "name, breaker",
        [
            ("consistent_sets", _drop_first_feasible_set),
            ("comp", _comp_dropping_a_pd_item),
            ("dd", _dd_adding_a_non_core_item),
            ("wscomp", _w_scomp_returning_the_dd_core),
            ("scomp", _w_scomp_returning_the_dd_core),
        ],
        ids=["truth-feasible", "feasible-in-comp", "dd-core-in-feasible", "wscomp-reproduces",
             "scomp-reproduces"],
    )
    def test_each_check_catches_its_broken_decoder(self, monkeypatch, name, breaker):
        # Each mutation can trip only its own check, so a count above 0
        # shows that check fires. verify decodes through decode_all, so a
        # decoder is broken in the DECODERS table.
        if name in DECODERS:
            monkeypatch.setitem(DECODERS, name, breaker(DECODERS[name]))
        else:
            monkeypatch.setattr(oracle, name, breaker(getattr(oracle, name)))
        assert oracle.verify(2, 60)[2] > 0

    @pytest.mark.parametrize("error", [1e-9, float("nan")])
    @pytest.mark.parametrize("closed_form", ["weighted_moments", "unweighted_moments"])
    def test_moment_checks_catch_a_wrong_closed_form(self, monkeypatch, closed_form, error):
        real = getattr(theory, closed_form)

        def broken(*args):
            moments = real(*args)
            return replace(moments, mu_nd=moments.mu_nd + error)

        monkeypatch.setattr(theory, closed_form, broken)
        worst = dict(zip(["weighted_moments", "unweighted_moments"], oracle.verify(5, 0)))
        assert not worst.pop(closed_form) <= 1e-12  # NaN counts as a failure
        assert worst.popitem()[1] <= 1e-12

    def test_budget_cap(self):
        with pytest.raises(ValueError, match="^--n-max is capped at 16 by the enumeration budget$"):
            oracle.verify(17, 0)

    @pytest.mark.parametrize("n_max, trials", [(1, 0), (-3, 5), (5, -5)])
    def test_nothing_to_check_rejected(self, n_max, trials):
        message = f"trials must be >= 0, got {trials}" if n_max >= 2 else f"n_max must be >= 2, got {n_max}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle.verify(n_max, trials)
