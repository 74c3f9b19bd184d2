"""Cross-validate every closed-form moment against exhaustive enumeration.

The enumeration oracle sums over all 2**(N-1) inclusion patterns of the
peer items, sharing no code with the analytic formulas. Any disagreement
beyond float rounding would indicate a defect in one of the two sides.
``oracle.verify`` runs that comparison over every (N, k, p) case, and the
decoder checks against the feasible sets, exactly as ``gt verify`` does.

Run: python demos/04_brute_force_verification.py
(or use the CLI: gt verify --n-max 12)
"""

from grouptest import (
    brute_force_weighted_moments,
    mu_nd_closed_form,
    numerator_identity,
    second_moment_sum,
    weighted_moments,
)
from grouptest.oracle import verify
from grouptest.theory import coverage_prob

print("enumerating all inclusion patterns for N <= 12 ...")
worst_w, worst_u, violations = verify(n_max=12, trials=200)
print(f"  weighted rule   worst |closed - enumerated| = {worst_w:.2e}")
print(f"  unweighted rule worst |closed - enumerated| = {worst_u:.2e}")
print(f"  decoders vs feasible sets: {violations} violation(s) in 200 instances")

print("\nworked example N=2, k=1, p=0.5 (all 8 patterns by hand):")
enum = brute_force_weighted_moments(2, 1, 0.5)
print(f"  E[contribution | defective]      = {enum.mu_d}   (3/8)")
print(f"  E[contribution^2 | defective]    = {enum.nu_d}  (5/16)")
print(f"  E[contribution | non-defective]  = {enum.mu_nd}   (1/8)")
print(f"  E[contribution^2 | non-defective]= {enum.nu_nd}  (1/16)")

print("\nidentity spot-checks at N=40, k=6:")
n, k = 40, 6
p = 1.0 / (k + 1)
m = weighted_moments(n, k, p)
q = coverage_prob(k, p)
print(f"  mean-gap closed form      {numerator_identity(n, k, p):.10e}")
print(f"  vs moment difference      {m.base_mu_d - q * m.base_mu_nd:.10e}")
print(f"  ND mean closed form       {mu_nd_closed_form(n, k):.10e}")
print(f"  vs double sum             {m.base_mu_nd:.10e}")
print(f"  2nd-moment combo (sums)   {second_moment_sum(n, k, p):.10e}")
print(f"  vs double-sum assembly    {m.base_nu_d + q * m.base_nu_nd:.10e}")
