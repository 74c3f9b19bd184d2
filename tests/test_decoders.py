import copy
import itertools
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptest.decoders import DECODERS, comp, dd, decode, decode_all, scomp, score_items, w_scomp
from grouptest.design import DESIGN_KINDS, DesignMatrix, generate
from grouptest.model import ItemSet, OutcomeVector, run_tests, sample_defective_set
from grouptest.sim import design_spec_for


@pytest.fixture
def worked_instance():
    """Pools {0,1}, {0,2}, {1,2,3}, {4} with defectives {0,1}: Y = (1,1,1,0)."""
    matrix = DesignMatrix([[0, 1], [0, 2], [1, 2, 3], [4]], n_items=5)
    truth = ItemSet((0, 1), universe_size=5)
    return matrix, truth, run_tests(matrix, truth)


class TestComp:
    def test_singleton_pools(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        res = comp(m, OutcomeVector((1, 0)))
        assert res.estimate.members == (0,)
        assert res.definite_non_defectives.members == (1,)
        assert res.dd_core.members == ()

    def test_worked_instance(self, worked_instance):
        m, _, y = worked_instance
        res = comp(m, y)
        assert res.estimate.members == (0, 1, 2, 3)
        assert res.definite_non_defectives.members == (4,)

    def test_all_positive_keeps_everything(self):
        m = DesignMatrix([[0, 1], [1, 2]], n_items=4)
        res = comp(m, OutcomeVector((1, 1)))
        assert res.estimate.members == (0, 1, 2, 3)

    def test_item_in_no_test_stays_potential(self):
        m = DesignMatrix([[0]], n_items=3)
        res = comp(m, OutcomeVector((0,)))
        assert res.estimate.members == (1, 2)

    def test_dimension_mismatch(self):
        m = DesignMatrix([[0]], n_items=2)
        with pytest.raises(ValueError):
            comp(m, OutcomeVector((1, 0)))


class TestDD:
    def test_certifying_singleton(self):
        m = DesignMatrix([[0], [1, 2]], n_items=3)
        y = run_tests(m, ItemSet((0,), universe_size=3))
        res = dd(m, y)
        assert res.definite_non_defectives.members == (1, 2)
        assert res.estimate.members == (0,)
        assert res.dd_core == res.estimate

    def test_no_singleton_gives_empty_estimate(self, worked_instance):
        m, _, y = worked_instance
        assert dd(m, y).estimate.members == ()

    def test_identity_pools(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        assert dd(m, OutcomeVector((1, 0))).estimate.members == (0,)


class TestScoreItems:
    @pytest.fixture
    def instance(self):
        matrix = DesignMatrix([[0, 1], [0, 2], [1, 2, 3]], n_items=4)
        return matrix, OutcomeVector((1, 1, 1)), ItemSet((0, 1, 2, 3), universe_size=4)

    def test_weighted_scores(self, instance):
        m, y, cand = instance
        sv = score_items(m, y, cand, [0, 1, 2], alpha=1.0)
        assert sv.weights == {0: 2, 1: 2, 2: 3}
        assert sv.scores[0] == pytest.approx(1.0)
        assert sv.scores[1] == pytest.approx(1 / 2 + 1 / 3)
        assert sv.scores[2] == pytest.approx(1 / 2 + 1 / 3)
        assert sv.scores[3] == pytest.approx(1 / 3)

    def test_alpha_zero_counts(self, instance):
        m, y, cand = instance
        sv = score_items(m, y, cand, [0, 1, 2], alpha=0.0)
        assert sv.scores == {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0}

    def test_empty_unexplained(self, instance):
        m, y, cand = instance
        sv = score_items(m, y, cand, [], alpha=1.0)
        assert all(v == 0.0 for v in sv.scores.values())
        assert sv.weights == {}

    def test_rejects_negative_test_in_unexplained(self, instance):
        m, _, cand = instance
        with pytest.raises(ValueError):
            score_items(m, OutcomeVector((1, 1, 0)), cand, [2], alpha=1.0)

    @pytest.mark.parametrize("unexplained", [[0.9, 1.2], ["1"], [1.0], [None]])
    def test_non_integer_test_indices_rejected(self, instance, unexplained):
        m, y, cand = instance
        with pytest.raises(ValueError, match="must be an integer"):
            score_items(m, y, cand, unexplained, alpha=1.0)

    @pytest.mark.parametrize(
        "unexplained, message",
        [
            ([0, -1], "test index -1 outside [0, 3)"),
            ([3, 0], "test index 3 outside [0, 3)"),
            ([True], "test index must be an integer, got True"),
            ([1.5], "test index must be an integer, got 1.5"),
            (5, "test index values must be an iterable of integers, got 5"),
        ],
        ids=["negative", "size", "bool", "float", "not-iterable"],
    )
    def test_bad_test_indices_rejected_by_the_index_rule(self, instance, unexplained, message):
        m, y, cand = instance
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            score_items(m, y, cand, unexplained, alpha=1.0)

    def test_numpy_integer_test_indices_accepted(self, instance):
        m, y, cand = instance
        sv = score_items(m, y, cand, np.array([2, 0, 1]), alpha=1.0)
        assert sv == score_items(m, y, cand, [0, 1, 2], alpha=1.0)

    def test_zero_weight_test_contributes_nothing(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        sv = score_items(m, OutcomeVector((1, 1)), ItemSet((0,), universe_size=2), [0, 1], 1.0)
        assert sv.weights == {0: 1, 1: 0}
        assert sv.scores == {0: 1.0}


class TestScomp:
    def test_stops_at_dd_when_everything_explained(self):
        m = DesignMatrix([[0], [1]], n_items=2)
        res = scomp(m, OutcomeVector((1, 0)))
        assert res.estimate.members == (0,)
        assert res.trace == ()

    def test_greedy_with_lowest_index_tie_break(self, worked_instance):
        m, _, y = worked_instance
        res = scomp(m, y)
        assert res.estimate.members == (0, 1)
        assert [s.item for s in res.trace] == [0, 1]
        assert [s.score for s in res.trace] == [2.0, 1.0]


class TestWScomp:
    def test_full_trace(self, worked_instance):
        # iteration 1: weights (2,2,3), scores 1, 5/6, 5/6, 1/3 -> item 0
        # iteration 2: only pool {1,2,3} left, three-way tie at 1/3 -> item 1
        m, _, y = worked_instance
        res = w_scomp(m, y, alpha=1.0)
        assert res.estimate.members == (0, 1)
        assert res.trace[0].item == 0
        assert res.trace[0].score == pytest.approx(1.0)
        assert res.trace[0].unexplained_after == 1
        assert res.trace[1].item == 1
        assert res.trace[1].score == pytest.approx(1 / 3)
        assert res.trace[1].unexplained_after == 0

    def test_all_negative_outcomes(self):
        m = DesignMatrix([[0, 1], [1, 2]], n_items=4)
        res = w_scomp(m, OutcomeVector((0, 0)))
        assert res.estimate.members == ()
        assert res.definite_non_defectives.members == (0, 1, 2)

    def test_negative_alpha_rejected(self, worked_instance):
        m, _, y = worked_instance
        for alpha in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                w_scomp(m, y, alpha=alpha)
            with pytest.raises(ValueError):
                score_items(m, y, ItemSet((0,), universe_size=5), [0], alpha)
            for name in DECODERS:
                with pytest.raises(ValueError):
                    decode(name, m, y, alpha)

    @pytest.mark.parametrize("alpha", [2000.0, float("inf")])
    def test_underflowing_alpha_raises_instead_of_partial_cover(self, alpha):
        # 1/2**alpha is 0 in float64: the greedy stage would stop at (0,)
        # with tests 1 and 2 positive and unexplained
        m = DesignMatrix([[0], [1, 2], [1, 3]], n_items=4)
        y = OutcomeVector((1, 1, 1))
        with pytest.raises(ValueError):
            w_scomp(m, y, alpha=alpha)
        with pytest.raises(ValueError):
            decode("wscomp", m, y, alpha)

    def test_large_finite_alpha_still_covers(self):
        m = DesignMatrix([[0], [1, 2], [1, 3]], n_items=4)
        res = w_scomp(m, OutcomeVector((1, 1, 1)), alpha=1000.0)
        assert res.estimate.members == (0, 1)

    def test_default_alpha_is_one(self, worked_instance):
        m, _, y = worked_instance
        assert w_scomp(m, y) == w_scomp(m, y, alpha=1.0)


class TestDecodeAllInputs:
    def test_bare_string_names_rejected(self, worked_instance):
        m, _, y = worked_instance
        with pytest.raises(ValueError, match="names"):
            decode_all(m, y, "comp")

    @pytest.mark.parametrize("names", [("comp", "scomp_"), ["dd", "COMP"], ("wscomp", 1), [None]])
    def test_unknown_name_rejected(self, worked_instance, names):
        m, _, y = worked_instance
        with pytest.raises(ValueError, match="unknown decoder"):
            decode_all(m, y, names)

    @pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf"), True, "1"])
    def test_bad_alpha_rejected_without_wscomp(self, worked_instance, alpha):
        m, _, y = worked_instance
        for names in (("comp", "dd", "scomp"), ()):
            with pytest.raises(ValueError, match="alpha"):
                decode_all(m, y, names, alpha)


def random_instance(rng):
    n = int(rng.integers(2, 14))
    t = int(rng.integers(1, 12))
    k = int(rng.integers(0, min(5, n + 1)))
    p = float(rng.uniform(0.1, 0.7))
    rows = [list(np.flatnonzero(rng.random(n) < p)) for _ in range(t)]
    matrix = DesignMatrix(rows, n_items=n)
    truth = ItemSet(tuple(rng.choice(n, size=k, replace=False).tolist()), n)
    return matrix, truth, run_tests(matrix, truth)


class TestStructuralInvariants:
    def test_sandwich_and_soundness(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            matrix, truth, y = random_instance(rng)
            k_set = set(truth.members)
            c = set(comp(matrix, y).estimate.members)
            d = set(dd(matrix, y).estimate.members)
            s = set(scomp(matrix, y).estimate.members)
            w = set(w_scomp(matrix, y).estimate.members)
            assert k_set <= c
            assert d <= k_set
            assert d <= s <= c
            assert d <= w <= c

    def test_kernel_equivalence_trace_for_trace(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            matrix, _, y = random_instance(rng)
            assert w_scomp(matrix, y, alpha=0.0) == scomp(matrix, y)
            # The first greedy step is the lowest-index argmax of score_items
            # over the post-DD candidates and unexplained tests.
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            res = w_scomp(matrix, y, alpha=alpha)
            core = res.dd_core.to_mask()
            candidates = ItemSet.from_mask(~res.definite_non_defectives.to_mask() & ~core)
            unexplained = np.flatnonzero(y.to_mask() & ~(matrix.dense & core).any(axis=1))
            scores = score_items(matrix, y, candidates, unexplained, alpha).scores
            if res.trace:
                best = max(scores, key=lambda i: (scores[i], -i))
                assert (res.trace[0].item, res.trace[0].score) == (best, scores[best])
            else:
                assert not any(scores.values())

    def test_every_positive_test_explained_on_genuine_data(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            matrix, _, y = random_instance(rng)
            for decode in (scomp, w_scomp):
                est = decode(matrix, y).estimate.to_mask()
                covered = (matrix.dense & est).any(axis=1)
                assert not (y.to_mask() & ~covered).any()

    def test_estimate_disjoint_from_dnd(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            matrix, _, y = random_instance(rng)
            for decode in (comp, dd, scomp, w_scomp):
                res = decode(matrix, y)
                assert not (set(res.estimate.members) & set(res.definite_non_defectives.members))
                assert set(res.dd_core.members) <= set(res.estimate.members)


def fresh_decode(name, matrix, outcomes, alpha=1.0):
    """``decode`` on new copies of the instance, which share no decoding state."""
    twin = DesignMatrix(matrix.rows, n_items=matrix.n_items)
    return decode(name, twin, OutcomeVector(outcomes.bits), alpha)


class TestStageSharedWithinDecodeAll:
    """The decoders of one instance share its COMP/DD stage; no call order,
    alpha or other matrix may change what any of them returns."""

    @pytest.fixture(scope="class")
    def instances(self):
        out = []
        for kind in DESIGN_KINDS:
            for seed in range(3):
                spec = replace(design_spec_for(kind, 60, 4, 16), seed=seed)
                matrix = generate(spec)
                truth = sample_defective_set(60, 4, seed + 100)
                out.append((matrix, run_tests(matrix, truth)))
        return out

    def test_every_call_order_matches_a_fresh_decode(self, instances):
        for matrix, y in instances:
            fresh = {name: fresh_decode(name, matrix, y) for name in DECODERS}
            for order in itertools.permutations(DECODERS):
                y_run = OutcomeVector(y.bits)
                for name in order:
                    assert decode(name, matrix, y_run) == fresh[name], (order, name)

    def test_alphas_between_scomp_calls(self, instances):
        assert any(fresh_decode("scomp", m, y).trace for m, y in instances)
        for matrix, y in instances:
            y_run = OutcomeVector(y.bits)
            scomp_fresh = fresh_decode("scomp", matrix, y)
            assert scomp(matrix, y_run) == scomp_fresh
            for alpha in (0.0, 0.5, 1.0, 3.0):
                assert w_scomp(matrix, y_run, alpha) == fresh_decode("wscomp", matrix, y, alpha)
                assert scomp(matrix, y_run) == scomp_fresh

    def test_other_matrix_of_the_same_shape(self, instances):
        (a, y), (b, _) = instances[:2]
        y = OutcomeVector(y.bits)
        assert a.dense.shape == b.dense.shape and not np.array_equal(a.dense, b.dense)
        for matrix in (a, b, a):
            for name in DECODERS:
                assert decode(name, matrix, y) == fresh_decode(name, matrix, y)

    def test_outcome_vector_unchanged_by_a_decode(self, instances):
        matrix, y = instances[0]
        y = OutcomeVector(y.bits)
        before = (hash(y), repr(y), y.to_json_dict(), replace(y), pickle.dumps(y))
        for name in DECODERS:
            decode(name, matrix, y)
        assert y == OutcomeVector(y.bits) == replace(y) == copy.copy(y)
        assert (hash(y), repr(y), y.to_json_dict(), replace(y), pickle.dumps(y)) == before
        assert vars(y) == {"bits": y.bits}

    def test_decode_all_in_every_order_matches_fresh_decodes(self, instances):
        for matrix, y in instances:
            fresh = {name: fresh_decode(name, matrix, y, 0.5) for name in DECODERS}
            for order in itertools.permutations(DECODERS):
                results = decode_all(matrix, y, order, 0.5)
                assert tuple(results) == order
                assert results == fresh, order

    def test_underflowing_alpha_raises_without_changing_other_decodes(self):
        m = DesignMatrix([[0], [1, 2], [1, 3]], n_items=4)
        y = OutcomeVector((1, 1, 1))
        assert dd(m, y).estimate.members == (0,)
        for alpha in (2000.0, 1e300):
            with pytest.raises(ValueError, match="underflowed"):
                w_scomp(m, y, alpha=alpha)
        assert scomp(m, y) == fresh_decode("scomp", m, y)


@st.composite
def gt_instances(draw):
    n = draw(st.integers(2, 10))
    t = draw(st.integers(1, 8))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True),
            min_size=t,
            max_size=t,
        )
    )
    k = draw(st.integers(0, n))
    members = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return DesignMatrix(rows, n_items=n), ItemSet(tuple(members), universe_size=n)


@settings(max_examples=150, deadline=None)
@given(gt_instances())
def test_comp_superset_dd_subset_property(instance):
    matrix, truth = instance
    y = run_tests(matrix, truth)
    assert set(truth.members) <= set(comp(matrix, y).estimate.members)
    assert set(dd(matrix, y).estimate.members) <= set(truth.members)


@settings(max_examples=150, deadline=None)
@given(gt_instances())
def test_wscomp_between_dd_and_comp_property(instance):
    matrix, truth = instance
    y = run_tests(matrix, truth)
    d = set(dd(matrix, y).estimate.members)
    w = set(w_scomp(matrix, y).estimate.members)
    c = set(comp(matrix, y).estimate.members)
    assert d <= w <= c
