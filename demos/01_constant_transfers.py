"""Transfers between functional inequalities as explicit constant arithmetic.

Walks the deterministic half of the library:

  1. a weighted log-Sobolev certificate becomes a weak log-Sobolev rate
     beta(s) = 2 n(s)^2 = Theta(|log s|),
  2. a logarithmic rate beta(s) = C log(1/s) becomes a true Poincare
     constant (C1 + C2)/(1 - C3) via the dyadic level decomposition,
  3. the free parameters (delta, delta0, epsilon) are optimized,
  4. the entropy inequality E[G^2 phi] <= Ent(G^2) behind the dyadic proof
     is spot-checked on simulated data.

Run:  python demos/01_constant_transfers.py
"""

import math

import numpy as np

from pathineq.profiles import BetaProfile
from pathineq.transfer import (
    DyadicParams,
    WeightedLSICertificate,
    entropy_inequality_check,
    optimize_dyadic_params,
    poincare_objective,
    weak_lsi_to_poincare,
    weighted_lsi_to_weak_lsi,
)

print("=" * 72)
print("1. weighted log-Sobolev  ->  weak log-Sobolev")
print("=" * 72)
cert = WeightedLSICertificate(a=1.0, C_exp=2.0, M=1.0)
res = weighted_lsi_to_weak_lsi(cert)
print(f"certificate: |grad u| <= {cert.a}, int e^(C u^2) with C = {cert.C_exp}")
print(f"scan starts at n_min = {int(res.audit_value('n_min'))}, domain r0 = {res.profile.r0:.4f}")
print("\n  s            beta(s)    beta(s)/|log s|")
for s in (1e-2, 1e-6, 1e-12, 1e-24):
    b = res.profile(s)
    print(f"  {s:<12g} {b:<10g} {b / abs(math.log(s)):.3f}")
print(f"\n(asymptotic slope 4/C = {4 / cert.C_exp}; the integer steps sit above it)")

print()
print("=" * 72)
print("2. beta(s) = C log(1/s)  ->  Poincare constant")
print("=" * 72)
beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
hand = DyadicParams.from_pow2(0.5, 4.5, 0.125)  # delta = sqrt 2, delta0 = 2^4.5
res_hand = weak_lsi_to_poincare(beta, hand)
print("hand-picked parameters (epsilon = 1/8, delta = sqrt 2, delta0 = 2^4.5):")
for key in ("A", "C1", "C2", "C3", "alpha"):
    print(f"  {key:>6} = {res_hand.audit_value(key):.6f}")

print()
print("=" * 72)
print("3. optimizing (delta, delta0, epsilon)")
print("=" * 72)
params = optimize_dyadic_params(C=1.0, r0=0.5, budget=10_000)
print(f"optimizer picks delta = {params.delta:.4f}, delta0 = {params.delta0:.4f}, "
      f"epsilon = {params.epsilon:.4f} (A = {params.A:.3f})")
print(f"objective: {poincare_objective(params, 1.0):.4f}  "
      f"(hand-picked point gives {res_hand.profile.value:.4f})")

print()
print("=" * 72)
print("4. the entropy inequality behind the proof, on simulated data")
print("=" * 72)
rng = np.random.default_rng(7)
G = np.zeros(100_000)
mask = rng.random(G.size) < 0.5
G[mask] = rng.normal(size=int(mask.sum()))
level = 1.0 / mask.mean()  # E e^phi = 1 exactly on the sample
ok = entropy_inequality_check(G, level, mask)
print(f"E[G^2 phi] <= Ent(G^2) with phi = log({level:.4f}) on supp(G): {ok}")
