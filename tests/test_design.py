import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from grouptest.design import (
    DesignMatrix,
    DesignSpec,
    gen_bernoulli,
    gen_constant_column,
    gen_near_constant_column,
    generate,
    optimal_bernoulli_p,
    optimal_column_weight,
)


def bernoulli_spec(n_items, n_tests, p, seed=0):
    return DesignSpec(
        design_kind="bernoulli", n_items=n_items, n_tests=n_tests, inclusion_prob=p, seed=seed
    )


def column_spec(kind, n_items, n_tests, weight, seed=0):
    return DesignSpec(
        design_kind=kind, n_items=n_items, n_tests=n_tests, column_weight=weight, seed=seed
    )


class TestBernoulli:
    def test_p_zero_gives_empty_matrix(self):
        m = gen_bernoulli(bernoulli_spec(3, 2, 0.0, seed=123))
        assert not m.dense.any()

    def test_p_one_gives_full_matrix(self):
        m = gen_bernoulli(bernoulli_spec(3, 2, 1.0, seed=9))
        assert m.dense.all()

    def test_total_ones_near_expected_density(self):
        # entry count is Binomial(T*N, p): mean 50000/11, sd sqrt(50000 p (1-p))
        p = 1.0 / 11.0
        m = gen_bernoulli(bernoulli_spec(500, 100, p, seed=42))
        total = int(m.dense.sum())
        mean = 100 * 500 * p
        sd = np.sqrt(100 * 500 * p * (1 - p))
        assert abs(total - mean) < 3 * sd

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_spec(3, 2, 1.5)
        with pytest.raises(ValueError):
            bernoulli_spec(3, 2, -0.1)

    def test_cell_frequency_converges_to_p(self):
        # fixed seed schedule; every cell frequency within 4 sigma of p
        p, runs = 0.3, 2000
        counts = np.zeros((2, 3))
        for seed in range(runs):
            counts += gen_bernoulli(bernoulli_spec(3, 2, p, seed=seed)).dense
        freq = counts / runs
        sigma = np.sqrt(p * (1 - p) / runs)
        assert np.all(np.abs(freq - p) < 4 * sigma)


class TestConstantColumn:
    def test_weight_equals_tests_gives_full_columns(self):
        m = gen_constant_column(column_spec("constant_column", 3, 4, 4, seed=5))
        assert m.dense.all()

    def test_every_column_weight_exact(self):
        m = gen_constant_column(column_spec("constant_column", 3, 4, 2, seed=7))
        assert (m.column_weights() == 2).all()

    def test_choice_uniform_over_tests(self):
        # N=2, T=3, L=1: 10,000 single-test draws should be uniform
        hits = np.zeros(3)
        for seed in range(5000):
            m = gen_constant_column(column_spec("constant_column", 2, 3, 1, seed=seed))
            for i in range(2):
                hits[m.cols[i][0]] += 1
        assert chisquare(hits).pvalue > 0.001

    def test_uniform_over_all_subsets(self):
        # N=1, T=5, L=3 runs all three Floyd steps; 5000 draws over C(5,3)=10 subsets
        subsets = {s: j for j, s in enumerate(itertools.combinations(range(5), 3))}
        hits = np.zeros(len(subsets))
        for seed in range(5000):
            m = gen_constant_column(column_spec("constant_column", 1, 5, 3, seed=seed))
            hits[subsets[m.cols[0]]] += 1
        assert chisquare(hits).pvalue > 0.001

    def test_columns_independent(self):
        # two items share test t with probability (L/T)**2 when their subsets are independent
        t_count, weight, runs = 5, 2, 4000
        both = np.zeros(t_count)
        for seed in range(runs):
            dense = gen_constant_column(
                column_spec("constant_column", 2, t_count, weight, seed=seed)
            ).dense
            both += dense[:, 0] & dense[:, 1]
        p = (weight / t_count) ** 2
        sigma = np.sqrt(p * (1 - p) / runs)
        assert np.all(np.abs(both / runs - p) < 4 * sigma)

    def test_matches_per_item_floyd(self):
        # the vectorised pass is Floyd's algorithm run item by item on the same draws
        for seed, (n, t, weight) in enumerate([(7, 9, 4), (30, 12, 12), (1, 6, 1), (50, 40, 6)]):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            draws = [rng.integers(0, j + 1, size=n) for j in range(t - weight, t)]
            expected = np.zeros((t, n), dtype=bool)
            for i in range(n):
                chosen = set()
                for j, step in zip(range(t - weight, t), draws):
                    chosen.add(j if int(step[i]) in chosen else int(step[i]))
                expected[sorted(chosen), i] = True
            m = gen_constant_column(column_spec("constant_column", n, t, weight, seed=seed))
            assert np.array_equal(m.dense, expected)

    def test_weight_above_tests_rejected(self):
        with pytest.raises(ValueError):
            column_spec("constant_column", 3, 4, 5)
        with pytest.raises(ValueError):
            column_spec("constant_column", 3, 4, 0)


class TestNearConstantColumn:
    def test_single_cell(self):
        m = gen_near_constant_column(column_spec("near_constant_column", 1, 1, 1, seed=3))
        assert m.dense.all() and m.dense.shape == (1, 1)

    def test_mean_distinct_tests_matches_enumeration(self):
        # oracle: enumerate all T**L equally likely draw sequences
        import itertools

        t_count, draws = 5, 3
        sizes = [len(set(seq)) for seq in itertools.product(range(t_count), repeat=draws)]
        exact_mean = np.mean(sizes)
        exact_var = np.var(sizes)
        samples = np.array(
            [
                int(
                    gen_near_constant_column(
                        column_spec("near_constant_column", 1, t_count, draws, seed=s)
                    ).column_weights()[0]
                )
                for s in range(10000)
            ]
        )
        assert exact_mean == pytest.approx(2.44)
        assert abs(samples.mean() - exact_mean) < 3 * np.sqrt(exact_var / 10000)

    def test_column_weights_within_draw_budget(self):
        m = gen_near_constant_column(column_spec("near_constant_column", 4, 10, 3, seed=1))
        w = m.column_weights()
        assert ((1 <= w) & (w <= 3)).all()

    def test_matches_per_item_draws(self):
        # one (N, L) draw consumes the generator as N per-item draws of L did
        for seed, (n, t, weight) in enumerate([(7, 9, 4), (30, 12, 12), (1, 6, 1), (50, 40, 6)]):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            expected = np.zeros((t, n), dtype=bool)
            for i in range(n):
                expected[rng.integers(0, t, size=weight), i] = True
            m = gen_near_constant_column(column_spec("near_constant_column", n, t, weight, seed=seed))
            assert np.array_equal(m.dense, expected)

    def test_weight_may_exceed_tests(self):
        m = gen_near_constant_column(column_spec("near_constant_column", 2, 3, 10, seed=0))
        assert ((1 <= m.column_weights()) & (m.column_weights() <= 3)).all()


@pytest.mark.parametrize("kind", ["constant_column", "near_constant_column"])
def test_single_item_weight_equals_tests(kind):
    for seed in range(20):
        m = generate(column_spec(kind, 1, 6, 6, seed=seed))
        assert m.dense.shape == (6, 1)
        weight = int(m.column_weights()[0])
        if kind == "constant_column":
            assert weight == 6
        else:
            assert 1 <= weight <= 6


class TestPinnedStreams:
    """sha256 of ``dense.tobytes()`` for fixed specs; a change to a generator's
    random stream fails here. The Bernoulli and near-constant digests predate
    the vectorised column generators; the constant-column ones were written
    from them."""

    @pytest.mark.parametrize(
        "kind, n_items, n_tests, param, seed, digest",
        [
            ("bernoulli", 50, 12, 0.2, 7,
             "3f587c3c36386c1a338c84968111f7339707a63c94eb685dd3b2d52d9f3aae7d"),
            ("constant_column", 500, 100, 6, 7,
             "92152e26fc2bdde1a96120f5aef99d91d96720205602096ac6eca7171daeeb15"),
            ("constant_column", 9, 5, 5, (3, 1),
             "0692c63c7217f704f37fe5c0fb3637f1c9e0fdfc927fdacfd808e797e564609c"),
            ("near_constant_column", 500, 80, 5, 7,
             "912ea207c8cbef659e6e6545eaf640a62344252829b6c99520838a2125f24d66"),
            ("near_constant_column", 9, 5, 8, (3, 1),
             "275a87a048b91655f602bb02e0c932bdb0cb483f5d4e4839362fbc420c7294c8"),
        ],
    )
    def test_dense_digest(self, kind, n_items, n_tests, param, seed, digest):
        if kind == "bernoulli":
            spec = bernoulli_spec(n_items, n_tests, param, seed=seed)
        else:
            spec = column_spec(kind, n_items, n_tests, param, seed=seed)
        assert hashlib.sha256(generate(spec).dense.tobytes()).hexdigest() == digest


class TestOptimalParameters:
    @pytest.mark.parametrize("k,expected", [(1, 0.5), (10, 1.0 / 11.0), (4, 0.2)])
    def test_optimal_p(self, k, expected):
        assert optimal_bernoulli_p(k) == pytest.approx(expected, rel=1e-15)

    def test_optimal_p_rejects_zero(self):
        with pytest.raises(ValueError):
            optimal_bernoulli_p(0)

    @pytest.mark.parametrize("t,k,expected", [(100, 10, 6), (1000, 10, 69)])
    def test_optimal_column_weight(self, t, k, expected):
        assert optimal_column_weight(t, k) == expected

    def test_optimal_column_weight_too_few_tests(self):
        with pytest.raises(ValueError):
            optimal_column_weight(14, 10)


class TestDesignMatrix:
    def test_row_column_views_consistent(self):
        for seed in range(20):
            m = gen_bernoulli(bernoulli_spec(9, 7, 0.4, seed=seed))
            for t, row in enumerate(m.rows):
                for i in row:
                    assert t in m.cols[i]
            for i, col in enumerate(m.cols):
                for t in col:
                    assert i in m.rows[t]
            rebuilt = DesignMatrix(m.rows, n_items=m.n_items)
            assert np.array_equal(rebuilt.dense, m.dense)

    def test_determinism(self):
        spec = bernoulli_spec(30, 20, 0.2, seed=99)
        assert np.array_equal(gen_bernoulli(spec).dense, gen_bernoulli(spec).dense)
        spec_c = column_spec("constant_column", 30, 20, 5, seed=99)
        assert np.array_equal(
            gen_constant_column(spec_c).dense, gen_constant_column(spec_c).dense
        )

    def test_dense_is_read_only(self):
        m = gen_bernoulli(bernoulli_spec(4, 3, 0.5, seed=1))
        with pytest.raises(ValueError):
            m.dense[0, 0] = True

    def test_json_round_trip(self):
        m = generate(column_spec("near_constant_column", 6, 8, 3, seed=11))
        data = m.to_json_dict()
        assert set(data) == {"n_tests", "n_items", "rows", "design_kind", "params"}
        back = DesignMatrix.from_json_dict(data)
        assert back == m
        assert back.design_kind == "near_constant_column"

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix([[0, 5]], n_items=3)

    @pytest.mark.parametrize("params", [5, [1, 2], "p"])
    def test_params_must_be_an_object(self, params):
        data = {"n_tests": 1, "n_items": 2, "rows": [[0]], "params": params}
        with pytest.raises(ValueError, match="^params must be a JSON object"):
            DesignMatrix.from_json_dict(data)

    def test_empty_rows_allowed(self):
        m = DesignMatrix([[], [0]], n_items=2)
        assert m.rows[0] == ()

    def test_mixed_parameters_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(
                design_kind="bernoulli",
                n_items=3,
                n_tests=2,
                inclusion_prob=0.5,
                column_weight=2,
            )
        with pytest.raises(ValueError):
            DesignSpec(design_kind="constant_column", n_items=3, n_tests=2, inclusion_prob=0.5)

    @pytest.mark.parametrize(
        "kind, sizes, param",
        [
            ("constant_column", (5, 4), {"column_weight": 2.5}),
            ("near_constant_column", (5, 4.0), {"column_weight": 2}),
            ("bernoulli", ("5", 4), {"inclusion_prob": 0.5}),
        ],
    )
    def test_non_integer_sizes_rejected(self, kind, sizes, param):
        with pytest.raises(ValueError, match="must be an integer"):
            DesignSpec(kind, *sizes, **param)

    @pytest.mark.parametrize("p", ["0.5", [0.5], 0.5j, b"0", True, False])
    def test_non_numeric_inclusion_prob_rejected(self, p):
        with pytest.raises(ValueError, match="inclusion_prob"):
            DesignSpec("bernoulli", 5, 4, inclusion_prob=p)

    @pytest.mark.parametrize(
        "p", [0.25, np.float64(0.5), np.float32(0.75), 0, 1, 0.0, 1.0, np.float32(0.1), np.int64(1)]
    )
    def test_numeric_inclusion_prob_accepted(self, p):
        spec = DesignSpec("bernoulli", 50, 40, inclusion_prob=p)
        matrix = generate(spec)
        density = matrix.dense.mean()
        assert density == p if p in (0, 1) else abs(density - p) < 0.05
        # The matrix JSON can be written, and an integer 0 or 1 stays an integer.
        p_json = json.loads(json.dumps(matrix.to_json_dict()))["params"]["p"]
        assert p_json == p and isinstance(p_json, int) == isinstance(p, (int, np.integer))

    @pytest.mark.parametrize(
        "seed", [1.5, "3", None, True, np.bool_(False), -1, (1, 2.0), (1, -2), [1, 2]]
    )
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            DesignSpec("bernoulli", 5, 4, inclusion_prob=0.5, seed=seed)

    def test_integer_like_seeds_normalised(self):
        spec = DesignSpec("bernoulli", 5, 4, inclusion_prob=0.5, seed=np.uint64(7))
        assert spec.seed == 7 and type(spec.seed) is int
        spec = DesignSpec("bernoulli", 5, 4, inclusion_prob=0.5, seed=(np.int64(3), 4))
        assert spec.seed == (3, 4) and all(type(s) is int for s in spec.seed)
        assert generate(spec) == generate(replace(spec, seed=(3, 4)))

    def test_integer_like_sizes_normalised(self):
        spec = DesignSpec("constant_column", np.int64(6), np.int32(4), column_weight=np.int8(2))
        assert (spec.n_items, spec.n_tests, spec.column_weight) == (6, 4, 2)
        assert all(type(v) is int for v in (spec.n_items, spec.n_tests, spec.column_weight))
        assert generate(spec).column_weights().tolist() == [2] * 6


class TestDesignMatrixIngest:
    def test_accepted_row_forms(self):
        rows = [[3, 1, 3], (0,), range(2, 4), {4, 0}, np.array([1, 2]), (i for i in [4]),
                [np.int64(2), 1], []]
        m = DesignMatrix(rows, n_items=5)
        assert m.rows == ((1, 3), (0,), (2, 3), (0, 4), (1, 2), (4,), (1, 2), ())
        expected = np.zeros((8, 5), dtype=bool)
        for t, row in enumerate(m.rows):
            expected[t, list(row)] = True
        assert np.array_equal(m.dense, expected)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0], [1, "a"]], "test 1 is not a list of integer item indices: [1, 'a']"),
            ([[0], 5], "test 1 is not a list of integer item indices: 5"),
            ([[0], [1.0]], "test 1 is not a list of integer item indices: [1.0]"),
            ([[0, 3]], "test 0 contains an item index outside [0, 3)"),
            ([[1], [], [-1]], "test 2 contains an item index outside [0, 3)"),
            ([[0, 2**70]], "test 0 contains an item index outside [0, 3)"),
            ([[1], [-(2**70)]], "test 1 contains an item index outside [0, 3)"),
            # The first bad test is named, whichever way it is bad; within a
            # test a non-integer is reported before a range error.
            ([[-1], ["a"]], "test 0 contains an item index outside [0, 3)"),
            ([["a"], [-1]], "test 0 is not a list of integer item indices: ['a']"),
            ([[2], [9, "a"]], "test 1 is not a list of integer item indices: [9, 'a']"),
            # Booleans are not item indices, although operator.index takes Python's.
            ([[0], [1, True]], "test 1 is not a list of integer item indices: [1, True]"),
            ([[True, False]], "test 0 is not a list of integer item indices: [True, False]"),
            ([[0], [np.bool_(True)]], f"test 1 is not a list of integer item indices: {[np.bool_(True)]!r}"),
        ],
    )
    def test_rejected_rows_name_the_test(self, rows, message):
        with pytest.raises(ValueError) as info:
            DesignMatrix(rows, n_items=3)
        assert str(info.value) == message
