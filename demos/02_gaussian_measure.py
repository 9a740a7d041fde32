"""Gaussian sanity anchors: Poincare constant 1 and log-Sobolev constant 2.

The standard Gaussian is a Wiener path evaluated at T = 1, so the generic
path estimators apply verbatim.  Hermite polynomials are eigenfunctions of
the number operator, so their Rayleigh quotients are exactly 1, 1/2, 1/3;
F = exp(lam x / 2) realizes Ent(F^2)/E|grad F|^2 = 2 for every lam.

Run:  python demos/02_gaussian_measure.py
"""

from pathineq.estimators import (
    entropy,
    exp_half_function,
    hermite_function,
    lsi_ratio,
    rayleigh_scan,
    variance,
)
from pathineq.samplers import SamplerConfig, TimeGrid, sample_wiener

N = 200_000
cfg = SamplerConfig(seed=42, n_paths=N, grid=TimeGrid.uniform(1.0, 1), dim=1)
ens = sample_wiener(cfg)
print(f"{N} standard Gaussian samples (seed {cfg.seed})\n")

print("Rayleigh quotients Var(F) / E|grad F|^2 over the Hermite family")
print(f"{'function':<14} {'ratio':>9} {'std err':>9} {'target':>8}")
scan = rayleigh_scan([hermite_function(k, 1.0) for k in (1, 2, 3)], ens)
for row, target in zip(scan.rows, (1.0, 0.5, 1 / 3)):
    r = row.ratio
    print(f"{row.label:<14} {r.value:9.4f} {r.std_error:9.4f} {target:8.4f}")
print(f"best ratio = {scan.best_ratio.value:.4f} -> empirical lower bound on the "
      "Poincare constant (true value 1)\n")

print("log-Sobolev ratios Ent(F^2) / E|grad F|^2 for F = exp(lam x/2)")
print(f"{'lam':<6} {'ratio':>9} {'std err':>9}")
for lam in (0.25, 0.5, 1.0):
    est = lsi_ratio(exp_half_function(lam, 1.0), ens)
    print(f"{lam:<6} {est.value:9.4f} {est.std_error:9.4f}")
print("(the Gaussian log-Sobolev constant is 2)\n")

F = hermite_function(2, 1.0)
v = variance(F, ens)
e = entropy(F, ens)
print(f"for He2 = x^2 - 1:  Var = {v.value:.4f} +- {v.std_error:.4f}  "
      f"(exact 2), Ent(F^2) = {e.value:.4f} +- {e.std_error:.4f}")
