"""Closed-form score moments, per-test SNRs, and error bounds.

For a Bernoulli(p) design with k defectives among N items, the per-test
score contribution of an item under the weighted rule is 1/w_t when the
item sits in a positive test (w_t counting all candidate items in the
test), and under the unweighted rule it is the plain indicator, which is
1/w_t**alpha at alpha = 0. This module evaluates the exact conditional
moments of those contributions for defective and non-defective items (one
derivation turns either rule's base moments into mu, nu and the SNR; the
indicator's base moments are all 1), the per-test signal-to-noise ratio

    SNR_per = (mu_D - mu_ND) / sqrt(sigma_D^2 + sigma_ND^2),

its sqrt(T) aggregation over T independent tests, the cross-checking
identities that tie the different summation routes together, the
positivity function f(N, k) whose sign certifies that the weighted rule
never has a smaller SNR than the unweighted one, and the Chebyshev /
Bhattacharyya / Bernstein error bounds driven by the SNR.

All binomial probabilities are evaluated in log space, with log C(n, j)
taken as running sums of log((n+1-j)/j), so that N = 500-scale sums
neither overflow nor lose the small tails; the ingredients of f(N, k)
that mix huge binomials with tiny powers are combined term-by-term in
log space before exponentiation. The non-defective moments convolve two
binomial pmfs in one dimension, so every moment takes O(N) memory.

Each public function checks its arguments once and then works through
private helpers (``_coverage``, ``_binom_pmf``, ``_weighted_moments``, ...)
that take checked arguments, so nested calls do not check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import require_defectives, require_int, require_prob, require_real

_SNR_TOL = 1e-12
_CROSS_PATH_RTOL = 1e-9


def coverage_prob(n_defectives: int, p: float) -> float:
    """Probability q(k) = 1 - (1-p)**k that a test holds at least one defective."""
    return _coverage(require_int(n_defectives, "n_defectives", 0), require_prob(p, "p"))


def _coverage(n_defectives: int, p: float) -> float:
    if p == 1.0:
        return 0.0 if n_defectives == 0 else 1.0
    # 0.0 - x rather than -x: a zero q is +0.0 whether p came as an int or a float.
    return 0.0 - math.expm1(n_defectives * math.log1p(-p))


def _log_binom(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, as running sums of log((n + 1 - j) / j)."""
    out = np.zeros(n + 1)
    np.log(np.arange(n, 0, -1) / np.arange(1, n + 1), out=out[1:])
    return np.add.accumulate(out, out=out)


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf over j = 0..n, evaluated in log space."""
    return _binom_pmf(require_int(n, "n", 0), require_prob(p, "p"))


def _binom_pmf(n: int, p: float) -> np.ndarray:
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    j = np.arange(n + 1)
    return np.exp(_log_binom(n) + j * math.log(p) + (n - j) * math.log1p(-p))


@dataclass(frozen=True)
class MomentSet:
    """Per-test conditional score moments for one scoring rule.

    ``mu``/``nu`` are the first and second moments of the per-test
    contribution given a defective (``_d``) or non-defective (``_nd``)
    item; ``base_*`` carry the same quantities with the inclusion and
    positivity factors stripped off (the mean and mean-square reciprocal
    pool weights, conditioned on the relevant events).
    """

    mu_d: float
    nu_d: float
    mu_nd: float
    nu_nd: float
    delta_mu: float
    sigma2: float
    snr_per: float
    rule: str
    base_mu_d: float
    base_nu_d: float
    base_mu_nd: float
    base_nu_nd: float

    def __post_init__(self):
        tol = 1e-12
        if self.nu_d < self.mu_d**2 - tol or self.nu_nd < self.mu_nd**2 - tol:
            raise ValueError("second moment below squared mean: inconsistent MomentSet")


def _check_domain(n_items: int, n_defectives: int, p: float) -> tuple[int, int, float]:
    return (*require_defectives(n_items, n_defectives, interior=True), require_prob(p, "p", interior=True))


def _moment_set(rule, p, q, base_mu_d, base_nu_d, base_mu_nd, base_nu_nd) -> MomentSet:
    # The one derivation of mu, nu, delta_mu, sigma^2 and the SNR from base
    # moments: an item is pooled with probability p, and a non-defective
    # item's test is positive with probability q.
    mu_d = p * base_mu_d
    nu_d = p * base_nu_d
    mu_nd = p * q * base_mu_nd
    nu_nd = p * q * base_nu_nd
    delta_mu = mu_d - mu_nd
    sigma2 = (nu_d - mu_d**2) + (nu_nd - mu_nd**2)
    return MomentSet(
        mu_d=mu_d,
        nu_d=nu_d,
        mu_nd=mu_nd,
        nu_nd=nu_nd,
        delta_mu=delta_mu,
        sigma2=sigma2,
        snr_per=delta_mu / math.sqrt(sigma2),
        rule=rule,
        base_mu_d=base_mu_d,
        base_nu_d=base_nu_d,
        base_mu_nd=base_mu_nd,
        base_nu_nd=base_nu_nd,
    )


def weighted_moments(n_items: int, n_defectives: int, p: float) -> MomentSet:
    """Exact per-test moments of the inverse-weight score contribution."""
    return _weighted_moments(*_check_domain(n_items, n_defectives, p))


def _weighted_moments(n_items: int, n_defectives: int, p: float) -> MomentSet:
    q = _coverage(n_defectives, p)
    recip = 1.0 / (1.0 + np.arange(n_items))
    # Defective item: 1/(1 + Z), Z ~ Bin(N-1, p), with mean (1 - (1-p)**N) / (N p).
    base_mu_d = -math.expm1(n_items * math.log1p(-p)) / (n_items * p)
    base_nu_d = float((_binom_pmf(n_items - 1, p) * recip**2).sum())
    # Non-defective item in a positive test: 1/(1 + H + R), H ~ Bin(k, p) with
    # H >= 1 and R ~ Bin(N-k-1, p); entry i of the convolution is P(H + R = i + 1, H >= 1).
    h = _binom_pmf(n_defectives, p)[1:]
    if h[-1] == 0.0:
        # Cut the zeros its tail underflows to at large k, or the convolution costs O(k * (N - k)).
        h = h[: np.flatnonzero(h)[-1] + 1]
    joint = np.convolve(h, _binom_pmf(n_items - n_defectives - 1, p))
    weights = recip[1 : len(joint) + 1]
    base_mu_nd = float((joint * weights).sum()) / q
    base_nu_nd = float((joint * weights**2).sum()) / q
    return _moment_set("weighted", p, q, base_mu_d, base_nu_d, base_mu_nd, base_nu_nd)


def unweighted_moments(n_defectives: int, p: float) -> MomentSet:
    """Exact per-test moments of the indicator score, 1/w**alpha at alpha = 0: base moments 1."""
    n_defectives = require_int(n_defectives, "n_defectives", 1)
    return _unweighted_moments(n_defectives, require_prob(p, "p", interior=True))


def _unweighted_moments(n_defectives: int, p: float) -> MomentSet:
    return _moment_set("unweighted", p, _coverage(n_defectives, p), 1.0, 1.0, 1.0, 1.0)


def snr_aggregate(snr_per: float, n_tests: int) -> float:
    """Aggregate SNR over T independent tests: sqrt(T) * per-test SNR."""
    n_tests = require_real(require_int(n_tests, "n_tests", 0), "n_tests")
    return math.sqrt(n_tests) * require_real(snr_per, "snr_per")


def numerator_identity(n_items: int, n_defectives: int, p: float) -> float:
    """Closed form of E[W_D] - q(k) E[W_ND]; strictly positive on 0 < k < N."""
    n_items, n_defectives, p = _check_domain(n_items, n_defectives, p)
    remaining = n_items - n_defectives
    return (
        (1.0 - p) ** n_defectives
        * -math.expm1(remaining * math.log1p(-p))
        / (remaining * p)
    )


def mu_nd_closed_form(n_items: int, n_defectives: int) -> float:
    """Mean reciprocal pool weight of a non-defective item at p = 1/(k+1)."""
    n_items, n_defectives = require_defectives(n_items, n_defectives, interior=True)
    k = n_defectives
    n = n_items
    c = k / (k + 1.0)
    ck = c**k
    return (k + 1.0) / (1.0 - ck) * ((1.0 - c**n) / n - ck * (1.0 - c ** (n - k)) / (n - k))


def second_moment_sum(n_items: int, n_defectives: int, p: float) -> float:
    """The combination E[W_D^2] + q(k) E[W_ND^2] via two single binomial sums."""
    n_items, n_defectives, p = _check_domain(n_items, n_defectives, p)
    n, k = n_items, n_defectives
    s_full = np.arange(1, n + 1)
    first = 2.0 / (n * p) * float((_binom_pmf(n, p)[1:] / s_full).sum())
    s_sub = np.arange(1, n - k + 1)
    second = (
        (1.0 - p) ** k
        / (p * (n - k))
        * float((_binom_pmf(n - k, p)[1:] / s_sub).sum())
    )
    return first - second


def coefficient_functions(n_defectives: int) -> tuple[float, float, float, float]:
    """The four N-free coefficients of the SNR-dominance inequality at p = 1/(k+1).

    The third coefficient is the definitional q^2 (1 - 2pq + q). A
    sign-analysis variant, q^2 (1 + q - 2pq^2), also circulates in the
    derivation; it is not equivalent (at k = 1 it gives 0.3125, not 0.25)
    and is not used here.
    """
    return _coefficient_functions(require_int(n_defectives, "n_defectives", 1))


def _coefficient_functions(n_defectives: int) -> tuple[float, float, float, float]:
    p = 1.0 / (n_defectives + 1)
    q = _coverage(n_defectives, p)
    f1 = 1.0 - 2.0 * p * q + q
    f2 = -2.0 * q * (1.0 - p + q * (1.0 - p * q))
    f3 = q**2 * (1.0 - 2.0 * p * q + q)
    f4 = -((1.0 - q) ** 2)
    return f1, f2, f3, f4


@dataclass(frozen=True)
class TheoryPoint:
    """One (N, k) evaluation of the SNR-dominance certificate at p = 1/(k+1).

    ``f_value`` comes from the fully expanded closed form; ``residual_19``
    re-assembles the same quantity from the raw moment sums and the four
    coefficient functions. The two routes must agree to 1e-9 relative.
    ``weighted`` is the inverse-weight ``MomentSet`` at (N, k, p) that the
    second route is built from.
    """

    n_items: int
    n_defectives: int
    p: float
    f_value: float
    residual_19: float
    weighted: MomentSet

    def __post_init__(self):
        if abs(self.f_value - self.residual_19) > _CROSS_PATH_RTOL * max(1.0, abs(self.f_value)):
            raise ValueError(
                f"cross-path disagreement at N={self.n_items}, k={self.n_defectives}: "
                f"{self.f_value} vs {self.residual_19}"
            )


def _log_space_sum(n: int, k: int, log_c_prefactor: float) -> float:
    """sum_s C(n, s) / (s * k**s), each term scaled by exp(log_c_prefactor)."""
    s = np.arange(1, n + 1)
    log_terms = _log_binom(n)[1:] - np.log(s) - s * math.log(k) + log_c_prefactor
    return math.fsum(np.exp(log_terms).tolist())


def f_value(n_items: int, n_defectives: int) -> TheoryPoint:
    """Evaluate the positivity function f(N, k) by both computation routes."""
    n_items, n_defectives = require_defectives(n_items, n_defectives, interior=True)
    n, k = n_items, n_defectives
    p = 1.0 / (k + 1)
    q = _coverage(k, p)
    c = k / (k + 1.0)
    ck = c**k
    cn = c**n
    cnk = c ** (n - k)
    c2k = ck * ck
    c3k = c2k * ck

    bracket = (1.0 - cn) / n - ck * (1.0 - cnk) / (n - k)
    term1 = (k + 1.0) / n**2 * (2.0 * k - (k - 1.0) * ck) * (1.0 - cn) ** 2
    term2 = (
        -(k + 1.0)
        / n
        * (1.0 - cn)
        / (1.0 - ck)
        * bracket
        * (4.0 * k - (6.0 * k - 2.0) * ck + (2.0 * k - 4.0) * c2k + 2.0 * c3k)
    )
    term3 = (
        (k + 1.0)
        / (1.0 - ck) ** 2
        * bracket**2
        * (2.0 * k - (5.0 * k - 1.0) * ck + (4.0 * k - 2.0) * c2k - (k - 1.0) * c3k)
    )
    log_prefactor = (n + 2.0 * k) * math.log(c)
    term4 = -(k + 1.0) * (
        2.0 / n * _log_space_sum(n, k, log_prefactor)
        - 1.0 / (n - k) * _log_space_sum(n - k, k, log_prefactor)
    )
    closed = math.fsum((term1, term2, term3, term4))

    moments = _weighted_moments(n, k, p)
    f1, f2, f3, f4 = _coefficient_functions(k)
    combo = moments.base_nu_d + q * moments.base_nu_nd
    residual = math.fsum(
        (
            moments.base_mu_d**2 * f1,
            moments.base_mu_d * moments.base_mu_nd * f2,
            moments.base_mu_nd**2 * f3,
            combo * f4,
        )
    )
    return TheoryPoint(
        n_items=n,
        n_defectives=k,
        p=p,
        f_value=closed,
        residual_19=residual,
        weighted=moments,
    )


def snr_dominance(n_items: int, n_defectives: int) -> bool:
    """True when the weighted per-test SNR is at least the unweighted one."""
    n_items, n_defectives = require_defectives(n_items, n_defectives, interior=True)
    p = 1.0 / (n_defectives + 1)
    snr_w = _weighted_moments(n_items, n_defectives, p).snr_per
    snr_u = _unweighted_moments(n_defectives, p).snr_per
    return snr_w >= snr_u - _SNR_TOL


def chebyshev_bound(snr_t: float) -> float:
    """Midpoint-threshold error bound 4 / SNR_T^2, capped at 1."""
    snr_t = require_real(snr_t, "snr_t", positive=True)
    return 1.0 if snr_t <= 2.0 else 4.0 / (snr_t * snr_t)  # x * x is inf where x ** 2 raises


def bayes_bound(snr_t: float) -> float:
    """Bhattacharyya bound on the Bayes error: 0.5 exp(-SNR_T^2 / 4)."""
    snr_t = require_real(snr_t, "snr_t")
    return 0.5 * math.exp(-(snr_t * snr_t) / 4.0)


def bernstein_bound(n_tests: int, sigma2: float, deviation_cap: float, eps: float) -> float:
    """Bernstein tail bound for an aggregated score, capped at 1."""
    n_tests = require_real(require_int(n_tests, "n_tests", 1), "n_tests")
    sigma2 = require_real(sigma2, "sigma2")
    deviation_cap = require_real(deviation_cap, "deviation_cap", positive=True)
    eps = require_real(eps, "eps", positive=True)
    # eps^2 / (2 T sigma^2 + 2 cap eps / 3) divided through by eps, so no step overflows early.
    raw = 2.0 * math.exp(-eps / (2.0 * n_tests * (sigma2 / eps) + 2.0 * deviation_cap / 3.0))
    return min(1.0, raw)


def jensen_bounds(n_items: int, n_defectives: int) -> tuple[float, float]:
    """Convexity lower bounds for the two second moments at p = 1/(k+1).

    For the defective case the reciprocal-weight second moment dominates
    ((k+1)/(N+k))^2; for the non-defective case, with the conditional mean
    count k p / q + (N-k-1) p in the denominator, the bound reduces to
    ((k+1) q / (N q + k))^2.
    """
    n_items, n_defectives = require_defectives(n_items, n_defectives, interior=True)
    n, k = n_items, n_defectives
    q = _coverage(k, 1.0 / (k + 1))
    lower_d = ((k + 1.0) / (n + k)) ** 2
    lower_nd = ((k + 1.0) * q / (n * q + k)) ** 2
    return lower_d, lower_nd


def f_grid(k_max: int, n_span: int):
    """TheoryPoints for k = 1..k_max, N = k+1..k+n_span (row-major order), both >= 1."""
    k_max = require_int(k_max, "k_max", 1)
    n_span = require_int(n_span, "n_span", 1)
    points = []
    for k in range(1, k_max + 1):
        for n in range(k + 1, k + n_span + 1):
            points.append(f_value(n, k))
    return points
