import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from grouptest.theory import (
    _log_binom,
    bayes_bound,
    bernstein_bound,
    binom_pmf,
    chebyshev_bound,
    coefficient_functions,
    coverage_prob,
    f_value,
    jensen_bounds,
    mu_nd_closed_form,
    numerator_identity,
    second_moment_sum,
    snr_aggregate,
    snr_dominance,
    unweighted_moments,
    weighted_moments,
)


class TestCoverageProb:
    def test_single_defective(self):
        assert coverage_prob(1, 0.5) == 0.5

    def test_two_defectives(self):
        assert coverage_prob(2, 1 / 3) == pytest.approx(5 / 9, rel=1e-15)

    def test_p_zero(self):
        assert coverage_prob(7, 0.0) == 0.0

    @pytest.mark.parametrize("p", [0, 0.0, np.float64(0)])
    @pytest.mark.parametrize("k", range(4))
    def test_zero_is_positive_zero(self, k, p):
        assert math.copysign(1.0, coverage_prob(k, p)) == 1.0


@pytest.mark.parametrize("n", [0, 1, 2, 16, 240, 500, 5000])
def test_log_binom_matches_exact_integers(n):
    exact = [math.log(math.comb(n, j)) for j in range(n + 1)]
    np.testing.assert_allclose(_log_binom(n), exact, rtol=0, atol=1e-11)


def test_binom_pmf_matches_scipy():
    for n, p in [(5, 0.3), (60, 0.05), (200, 0.9)]:
        np.testing.assert_allclose(binom_pmf(n, p), binom.pmf(np.arange(n + 1), n, p), atol=1e-14)
    assert binom_pmf(4, 0.5).sum() == pytest.approx(1.0)


class TestWeightedMoments:
    def test_frozen_point(self):
        m = weighted_moments(2, 1, 0.5)
        assert m.mu_d == pytest.approx(0.375, abs=1e-15)
        assert m.nu_d == pytest.approx(0.3125, abs=1e-15)
        assert m.mu_nd == pytest.approx(0.125, abs=1e-15)
        assert m.nu_nd == pytest.approx(0.0625, abs=1e-15)
        assert m.base_mu_d == pytest.approx(0.75, abs=1e-15)
        assert m.base_nu_d == pytest.approx(0.625, abs=1e-15)
        assert m.base_mu_nd == pytest.approx(0.5, abs=1e-15)
        assert m.base_nu_nd == pytest.approx(0.25, abs=1e-15)

    def test_mean_closed_form(self):
        assert weighted_moments(3, 1, 0.5).mu_d == pytest.approx(7 / 24, rel=1e-14)

    def test_snr_point(self):
        m = weighted_moments(2, 1, 0.5)
        assert m.delta_mu == pytest.approx(0.25, abs=1e-15)
        assert m.sigma2 == pytest.approx(0.21875, abs=1e-15)
        assert m.snr_per == pytest.approx(0.534522, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weighted_moments(3, 3, 0.5)
        with pytest.raises(ValueError):
            weighted_moments(3, 1, 0.0)

    @pytest.mark.parametrize("n, k", [(10**5, 10**4), (2000, 1000)])
    def test_large_k_matches_the_untrimmed_convolution(self, n, k):
        # The tail of the Bin(k, p) pmf underflows to zeros, which the moments cut.
        p = 1 / (k + 1)
        h = binom_pmf(k, p)
        assert h[-1] == 0.0
        joint = np.convolve(h[1:], binom_pmf(n - k - 1, p))
        recip = 1.0 / np.arange(2, n + 1)
        q = coverage_prob(k, p)
        m = weighted_moments(n, k, p)
        assert m.base_mu_nd == pytest.approx((joint * recip).sum() / q, rel=1e-13, abs=0)
        assert m.base_nu_nd == pytest.approx((joint * recip**2).sum() / q, rel=1e-13, abs=0)

    def test_variances_nonnegative_on_grid(self):
        for n in (2, 5, 20, 120):
            for k in (1, 2, n // 2, n - 1):
                if not 1 <= k < n:
                    continue
                for p in (0.05, 0.3, 1 / (k + 1), 0.9):
                    m = weighted_moments(n, k, p)
                    assert m.nu_d - m.mu_d**2 >= -1e-12
                    assert m.nu_nd - m.mu_nd**2 >= -1e-12
                    assert m.sigma2 > 0


def _exact_base_moments(n, k, p):
    """The four base moments of ``weighted_moments`` as exact Fractions, by the double
    sum over H ~ Bin(k, p) with H >= 1 and R ~ Bin(N-k-1, p) in integer arithmetic."""
    a, b = Fraction(p).as_integer_ratio()

    def weights(m):  # Bin(m, p) pmf times b**m
        return [math.comb(m, j) * a**j * (b - a) ** (m - j) for j in range(m + 1)]

    lcm = math.lcm(*range(1, n + 1))
    scale = lcm * b ** (n - 1)
    by_d = weights(n - 1)
    mu_d = Fraction(sum(w * (lcm // (1 + z)) for z, w in enumerate(by_d)), scale)
    nu_d = Fraction(sum(w * (lcm // (1 + z)) ** 2 for z, w in enumerate(by_d)), lcm * scale)
    by_h, by_r = weights(k), weights(n - k - 1)
    mu_nd = nu_nd = 0
    for h in range(1, k + 1):
        for r, w in enumerate(by_r):
            share = lcm // (1 + h + r)
            mu_nd += by_h[h] * w * share
            nu_nd += by_h[h] * w * share * share
    q = 1 - Fraction(b - a, b) ** k
    return mu_d, nu_d, Fraction(mu_nd, scale) / q, Fraction(nu_nd, lcm * scale) / q


@pytest.mark.parametrize(
    "n, k, p",
    [(40, 5, 1 / 6), (300, 1, 1e-9), (300, 3, 0.25), (200, 10, 1 / 11), (100, 2, 1e-12), (60, 59, 0.3), (300, 1, 0.5)],
)
def test_base_moments_match_exact_fractions(n, k, p):
    # Tiny p is where P(Bin(N-1) = s) - (1-p)**k P(Bin(N-k-1) = s) loses digits (3.6e-4 at 1e-12).
    m = weighted_moments(n, k, p)
    got = (m.base_mu_d, m.base_nu_d, m.base_mu_nd, m.base_nu_nd)
    for value, exact in zip(got, _exact_base_moments(n, k, p)):
        assert abs(Fraction(value) - exact) <= Fraction(1, 10**12) * exact


def _exact_recip_moment(m, p, power):
    """E[1/(1 + X)**power], X ~ Bin(m, p), as an exact Fraction (single sum, integer Horner in 1-p)."""
    a, b = Fraction(p).as_integer_ratio()
    lcm = math.lcm(*range(1, m + 2))
    total, a_power = 0, 1
    for j in range(m + 1):  # total = sum_j C(m, j) a**j (b - a)**(m - j) (lcm / (1 + j))**power
        total = total * (b - a) + math.comb(m, j) * a_power * (lcm // (1 + j)) ** power
        a_power *= a
    return Fraction(total, lcm**power * b**m)


@pytest.mark.parametrize("n, k", [(300, 3), (40, 5), (200, 10)])
@pytest.mark.parametrize("p", [1e-9, None, 0.999])
def test_second_moment_sum_matches_exact_fractions(n, k, p):
    # E[W_D^2] + q E[W_ND^2] = 2 E[1/(1+S)^2] - (1-p)**k E[1/(1+R)^2] with S ~ Bin(N-1, p) and
    # R ~ Bin(N-k-1, p), coupling S = H + R; None stands for p = 1/(k+1).
    p = 1 / (k + 1) if p is None else p
    miss = (1 - Fraction(p)) ** k
    exact = 2 * _exact_recip_moment(n - 1, p, 2) - miss * _exact_recip_moment(n - k - 1, p, 2)
    assert abs(Fraction(second_moment_sum(n, k, p)) - exact) <= Fraction(1, 10**12) * exact


def _exact_f(n, k):
    """f(N, k)'s closed form in exact rationals, its fourth term written as
    -(k+1) c**(N+2k) (2/N S(N) - S(N-k)/(N-k)) with S(m) = sum_s C(m, s) / (s k**s)."""
    c = Fraction(k, k + 1)
    ck, cn = c**k, c**n
    bracket = (1 - cn) / n - ck * (1 - c ** (n - k)) / (n - k)
    term1 = Fraction(k + 1, n**2) * (2 * k - (k - 1) * ck) * (1 - cn) ** 2
    term2 = -Fraction(k + 1, n) * (1 - cn) / (1 - ck) * bracket
    term2 *= 4 * k - (6 * k - 2) * ck + (2 * k - 4) * ck**2 + 2 * ck**3
    term3 = (k + 1) / (1 - ck) ** 2 * bracket**2
    term3 *= 2 * k - (5 * k - 1) * ck + (4 * k - 2) * ck**2 - (k - 1) * ck**3

    def s_sum(m):
        lcm = math.lcm(*range(1, m + 1))
        total = 0
        for s in range(1, m + 1):  # total = sum_s C(m, s) (lcm / s) k**(m - s)
            total = total * k + math.comb(m, s) * (lcm // s)
        return Fraction(total, lcm * k**m)

    term4 = -(k + 1) * c ** (n + 2 * k) * (Fraction(2, n) * s_sum(n) - s_sum(n - k) / (n - k))
    return term1 + term2 + term3 + term4


@pytest.mark.parametrize("n, k", [(11, 10), (60, 10), (240, 40), (300, 3), (1000, 10), (1500, 100)])
def test_f_value_matches_exact_fractions(n, k):
    # The cancellation inside f, not the sums, sets the error: ~4e-12 at (1000, 10).
    exact = _exact_f(n, k)
    assert abs(Fraction(f_value(n, k).f_value) - exact) <= Fraction(1, 10**11) * abs(exact)


@pytest.mark.parametrize(
    "n, k, p",
    [(1000, 500, 0.1), (1000, 999, 0.1), (40, 20, 0.9), (500, 10, 0.9), (200, 10, 0.999)]
    + [(10, 3, 0.999999), (12, 11, 0.999999)],
)
def test_gap_and_snr_match_exact_fractions(n, k, p):
    # mu_D - mu_ND cancels as q nears 1: at these points it lost digits, or the sign of delta_mu.
    exact_p = Fraction(p)
    miss = (1 - exact_p) ** k
    by_peers = [_exact_recip_moment(n - 1, p, j) for j in (1, 2)]
    by_rest = [_exact_recip_moment(n - k - 1, p, j) for j in (1, 2)]
    mu_d, nu_d = (exact_p * d for d in by_peers)
    mu_nd, nu_nd = (exact_p * (d - miss * r) for d, r in zip(by_peers, by_rest))  # coupling S = H + R
    pq = exact_p * (1 - miss)
    gap_w = miss * (1 - (1 - exact_p) ** (n - k)) / (n - k)  # p times numerator_identity's closed form
    cases = [
        (weighted_moments(n, k, p), gap_w, (mu_d, nu_d, mu_nd, nu_nd)),
        (unweighted_moments(k, p), exact_p * miss, (exact_p, exact_p, pq, pq)),
    ]
    for got, gap, (m_d, n_d, m_nd, n_nd) in cases:
        snr = float(gap) / math.sqrt(float((n_d - m_d**2) + (n_nd - m_nd**2)))
        assert got.delta_mu > 0 and got.snr_per > 0
        assert abs(Fraction(got.delta_mu) - gap) <= Fraction(1, 10**10) * gap
        assert abs(got.snr_per - snr) <= 1e-10 * snr


@pytest.mark.parametrize("n, k", [(10**4, 10), (10**5, 10), (10**5, 100)])
def test_f_value_past_the_grid(n, k):
    point = f_value(n, k)  # TheoryPoint raises if the two routes disagree
    assert point.f_value > 0
    if k == 10:
        assert 370 <= n**3 * point.f_value <= 385


class TestUnweightedMoments:
    def test_frozen_point(self):
        m = unweighted_moments(1, 0.5)
        assert (m.mu_d, m.mu_nd) == (0.5, 0.25)
        assert m.delta_mu == pytest.approx(0.25)
        assert m.sigma2 == pytest.approx(0.4375)
        assert m.snr_per == pytest.approx(0.377964, abs=1e-6)

    def test_second_point(self):
        assert unweighted_moments(2, 1 / 3).snr_per == pytest.approx(0.242535, abs=1e-6)

    def test_snr_vanishes_with_p(self):
        assert unweighted_moments(3, 1e-12).snr_per == pytest.approx(0.0, abs=1e-5)

    def test_matches_paper_closed_forms(self):
        # The indicator's moments come from the shared derivation with all
        # base moments 1; they must equal the paper's hand-written forms.
        # Near q = 1, p - pq and p(1 - q) cancel alike, so only abs holds there.
        for k in range(1, 41):
            for p in (0.05, 0.3, 1 / (k + 1), 0.9):
                m = unweighted_moments(k, p)
                q = coverage_prob(k, p)
                assert (m.mu_d, m.nu_d, m.mu_nd, m.nu_nd) == (p, p, p * q, p * q)
                assert m.delta_mu == pytest.approx(p * (1 - q), rel=1e-15, abs=1e-16)
                assert m.sigma2 == pytest.approx(
                    p * (1 - p) + p * q * (1 - p * q), rel=1e-15, abs=1e-16
                )


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: weighted_moments(10.5, 2, 0.3), "n_items"),
            (lambda: weighted_moments(10, 2.0, 0.3), "n_defectives"),
            (lambda: f_value(10.5, 2), "n_items"),
            (lambda: f_value(10, "2"), "n_defectives"),
            (lambda: binom_pmf(4.5, 0.3), "n"),
            (lambda: unweighted_moments(2.5, 0.3), "n_defectives"),
            (lambda: coverage_prob(2.5, 0.3), "n_defectives"),
            (lambda: coefficient_functions(1.5), "n_defectives"),
            (lambda: mu_nd_closed_form(10, True), "n_defectives"),
            (lambda: jensen_bounds(np.float64(10), 2), "n_items"),
            (lambda: snr_dominance(10, None), "n_defectives"),
            (lambda: numerator_identity(10.0, 2, 0.3), "n_items"),
        ],
    )
    def test_non_integers_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert weighted_moments(np.int64(10), np.int32(2), 0.3) == weighted_moments(10, 2, 0.3)
        assert f_value(np.int64(12), np.uint8(3)).residual_19 == f_value(12, 3).residual_19
        assert unweighted_moments(np.int16(4), 0.2) == unweighted_moments(4, 0.2)
        assert coverage_prob(np.int64(3), 0.2) == coverage_prob(3, 0.2)
        assert coefficient_functions(np.int64(3)) == coefficient_functions(3)
        assert np.array_equal(binom_pmf(np.int64(6), 0.3), binom_pmf(6, 0.3))


class TestSnrAggregate:
    def test_values(self):
        assert snr_aggregate(0.5, 4) == pytest.approx(1.0)
        assert snr_aggregate(0.73, 1) == pytest.approx(0.73)
        assert snr_aggregate(0.377964, 100) == pytest.approx(3.77964, rel=1e-6)
        with pytest.raises(ValueError, match="snr_per"):
            snr_aggregate(math.nan, 4)


class TestNumeratorIdentity:
    def test_hand_values(self):
        assert numerator_identity(2, 1, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert numerator_identity(10, 1, 0.5) == pytest.approx(0.110894, abs=1e-6)

    def test_matches_moment_difference_and_positive(self):
        # the raw difference of the two means cancels by a factor (1-p)**-k,
        # so the tolerance scales with k; the cancellation-free comparison
        # lives in the acceptance suite
        for n in (2, 7, 30, 90):
            for k in range(1, min(n, 9)):
                for p in (0.1, 0.5, 1 / (k + 1)):
                    m = weighted_moments(n, k, p)
                    assembled = m.base_mu_d - coverage_prob(k, p) * m.base_mu_nd
                    closed = numerator_identity(n, k, p)
                    assert closed > 0
                    assert closed == pytest.approx(assembled, rel=1e-9, abs=1e-13)


class TestMuNdClosedForm:
    def test_small_value(self):
        assert mu_nd_closed_form(2, 1) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n,k,rtol", [(3, 1, 1e-12), (50, 5, 1e-10)])
    def test_matches_double_sum(self, n, k, rtol):
        p = 1 / (k + 1)
        assert mu_nd_closed_form(n, k) == pytest.approx(
            weighted_moments(n, k, p).base_mu_nd, rel=rtol
        )


class TestSecondMomentSum:
    def test_hand_value(self):
        assert second_moment_sum(2, 1, 0.5) == pytest.approx(0.75, rel=1e-14)

    def test_matches_double_sum_assembly(self):
        m = weighted_moments(20, 3, 0.25)
        assembled = m.base_nu_d + coverage_prob(3, 0.25) * m.base_nu_nd
        assert second_moment_sum(20, 3, 0.25) == pytest.approx(assembled, rel=1e-10)

    def test_deterministic_weight_limit(self):
        # as p -> 1 every item joins every test, so both weights are N and
        # the combination tends to 2 / N**2
        assert second_moment_sum(2, 1, 1 - 1e-9) == pytest.approx(0.5, abs=1e-6)


class TestCoefficientFunctions:
    def test_k1_values(self):
        assert coefficient_functions(1) == pytest.approx((1.0, -0.875, 0.25, -0.25))

    def test_f4_range(self):
        for k in range(1, 201):
            f4 = coefficient_functions(k)[3]
            assert -0.25 <= f4 < -math.exp(-2)

    def test_f2_range(self):
        lower = -4 + 6 * math.exp(-1) - 2 * math.exp(-2)
        for k in range(1, 201):
            f2 = coefficient_functions(k)[1]
            assert lower < f2 <= -7 / 8

    def test_signs_and_monotonicity(self):
        values = [coefficient_functions(k) for k in range(1, 101)]
        f1s, f2s, f3s, f4s = zip(*values)
        assert all(v > 0 for v in f1s) and all(a < b for a, b in zip(f1s, f1s[1:]))
        assert all(v > 0 for v in f3s) and all(a < b for a, b in zip(f3s, f3s[1:]))
        assert all(v < 0 for v in f2s) and all(a > b for a, b in zip(f2s, f2s[1:]))
        assert all(v < 0 for v in f4s) and all(a < b for a, b in zip(f4s, f4s[1:]))


class TestFValue:
    def test_residual_hand_assembly(self):
        point = f_value(2, 1)
        assert point.residual_19 == pytest.approx(0.109375, abs=1e-12)
        assert point.f_value == pytest.approx(0.109375, abs=1e-9)

    def test_positive_on_small_grid(self):
        for k in range(1, 6):
            for n in range(k + 1, k + 21):
                point = f_value(n, k)
                assert point.f_value > 0
                assert point.residual_19 > 0

    def test_decays_with_n(self):
        k = 3
        near, far = f_value(k + 2, k), f_value(k + 200, k)
        assert abs(far.f_value) < abs(near.f_value)
        tail = [abs(f_value(k + n, k).f_value) for n in (50, 100, 150, 200)]
        assert all(a > b for a, b in zip(tail, tail[1:]))


class TestSnrDominance:
    def test_examples(self):
        assert snr_dominance(2, 1)
        assert snr_dominance(500, 10)

    def test_small_grid(self):
        for k in range(1, 6):
            for n in range(k + 1, k + 15):
                assert snr_dominance(n, k)


class TestBounds:
    def test_chebyshev(self):
        assert chebyshev_bound(2.0) == 1.0
        assert chebyshev_bound(4.0) == 0.25
        assert chebyshev_bound(20.0) == pytest.approx(0.01)
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError):
                chebyshev_bound(bad)

    def test_bayes(self):
        assert bayes_bound(0.0) == 0.5
        assert bayes_bound(2.0) == pytest.approx(0.5 * math.exp(-1), abs=1e-6)
        assert bayes_bound(4.0) == pytest.approx(0.5 * math.exp(-4), abs=1e-6)
        with pytest.raises(ValueError):
            bayes_bound(math.nan)

    def test_bernstein(self):
        assert bernstein_bound(1, 0.25, 1.0, 1.0) == pytest.approx(0.848746, abs=1e-6)
        assert bernstein_bound(1, 0.25, 1.0, 1e-12) == 1.0
        # eps = 3 keeps the whole scan below the cap so growth is strict
        grown = [bernstein_bound(5, 0.1, m, 3.0) for m in np.linspace(0.5, 5, 20)]
        assert all(a < b for a, b in zip(grown, grown[1:]))
        with pytest.raises(ValueError):
            bernstein_bound(1, 0.25, 0.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_bound(1, 0.25, 1.0, -1.0)
        for args in ((4, math.nan, 1.0, 1.0), (4, 0.25, math.nan, 1.0), (4, 0.25, 1.0, math.nan)):
            with pytest.raises(ValueError):
                bernstein_bound(*args)

    @pytest.mark.parametrize(
        "bound, args, limit",
        [
            (chebyshev_bound, (1e-200,), 1.0),
            (chebyshev_bound, (1e200,), 0.0),
            (bayes_bound, (1e200,), 0.0),
            (bernstein_bound, (10, 0.0, 1e-200, 1e-200), 2 * math.exp(-1.5)),
            (bernstein_bound, (10, 1.0, 1.0, 1e200), 0.0),
            (bernstein_bound, (10, 1e307, 1.0, 1e200), 0.0),
            (bernstein_bound, (10, 0.0, 1e-100, 1e-300), 1.0),
        ],
    )
    def test_extreme_inputs_reach_their_limits(self, bound, args, limit):
        # Each squares or multiplies its way past the float range in the textbook form.
        assert bound(*args) == pytest.approx(limit, rel=1e-15, abs=0.0)

    def test_bernstein_matches_the_textbook_form(self):
        rng = np.random.default_rng(2026)
        compared = 0
        for _ in range(2000):
            n_tests = int(rng.integers(1, 10**4))
            sigma2, cap, eps = 10.0 ** rng.uniform(-8, 4, size=3)
            try:
                old = 2.0 * math.exp(-(eps**2) / (2.0 * n_tests * sigma2 + 2.0 * cap * eps / 3.0))
            except (ZeroDivisionError, OverflowError):
                continue
            new = bernstein_bound(n_tests, sigma2, cap, eps)
            assert new == pytest.approx(min(1.0, old), rel=1e-12, abs=0.0)
            compared += new < 1.0
        assert compared > 100

    def test_bounds_decrease_in_snr(self):
        snrs = np.linspace(2.0, 30.0, 50)
        cheb = [chebyshev_bound(s) for s in snrs]
        bay = [bayes_bound(s) for s in snrs]
        assert all(a > b for a, b in zip(cheb, cheb[1:]))
        assert all(a > b for a, b in zip(bay, bay[1:]))


class TestJensenBounds:
    def test_equality_point(self):
        lower_d, lower_nd = jensen_bounds(2, 1)
        m = weighted_moments(2, 1, 0.5)
        assert lower_d == pytest.approx(4 / 9, rel=1e-14)
        assert lower_d <= m.base_nu_d
        assert lower_nd == pytest.approx(0.25, rel=1e-14)
        assert lower_nd == pytest.approx(m.base_nu_nd, rel=1e-12)

    def test_dominated_by_second_moments(self):
        for n, k in [(100, 5), (40, 2), (25, 10)]:
            lower_d, lower_nd = jensen_bounds(n, k)
            m = weighted_moments(n, k, 1 / (k + 1))
            assert lower_d <= m.base_nu_d + 1e-15
            assert lower_nd <= m.base_nu_nd + 1e-15
