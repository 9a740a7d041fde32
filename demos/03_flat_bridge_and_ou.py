"""Flat Brownian bridge and Ornstein-Uhlenbeck dynamics at desk scale.

The pinned bridge B_t - (t/T) B_T has covariance s^t - st/T; with the
matching pinned Cameron-Martin kernel its Poincare constant is exactly 1,
which the midpoint coordinate realizes.  The Langevin dynamics
du = dW - (1/2) u dt is sampled by its exact Gaussian transition; its
stationary law is standard normal and Cov(u_0, u_t) = e^{-t/2}.

Run:  python demos/03_flat_bridge_and_ou.py
"""

import math

import numpy as np
from scipy import stats

from pathineq.estimators import coordinate_function, green_gram, rayleigh_scan
from pathineq.samplers import SamplerConfig, TimeGrid, sample_flat_bridge, sample_ou

print("flat Brownian bridge, T = 1, 64 intervals, 50k paths")
cfg = SamplerConfig(seed=11, n_paths=50_000, grid=TimeGrid.uniform(1.0, 64), dim=1)
ens = sample_flat_bridge(cfg)
print(f"endpoint exact: {bool(np.all(ens.points[:, -1, :] == 0.0))}")

X = ens.points[:, :, 0]
C = (X.T @ X) / cfg.n_paths
theory = green_gram(ens, ens.grid.nodes)  # the bridge covariance is its pinned kernel
se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / cfg.n_paths)
inner = slice(1, -1)
z = np.abs(C - theory)[inner, inner] / np.maximum(se[inner, inner], 1e-300)
print(f"covariance vs s^t - st/T: max |z| = {z.max():.2f} standard errors")

scan = rayleigh_scan([coordinate_function(0.5)], ens)
r = scan.best_ratio
print(f"midpoint Rayleigh ratio = {r.value:.4f} +- {r.std_error:.4f} (bridge Poincare constant 1)\n")

print("Ornstein-Uhlenbeck from stationarity, horizon 3, 100k paths")
grid = TimeGrid.uniform(3.0, 12)
enso = sample_ou(SamplerConfig(seed=13, n_paths=100_000, grid=grid, dim=1))
ks = stats.kstest(enso.points[:, 6, 0], "norm").statistic
print(f"stationary marginal KS distance vs N(0,1): {ks:.4f}")

u0 = enso.points[:, 0, 0]
print(f"{'t':>5} {'cov':>9} {'e^(-t/2)':>9}")
ts = [t for t in grid.nodes if 0.5 <= t <= 3.0]
covs = []
for t in ts:
    ut = enso.points[:, grid.index_of(t), 0]
    c = float(np.mean(u0 * ut) - u0.mean() * ut.mean())
    covs.append(c)
    print(f"{t:5.2f} {c:9.4f} {math.exp(-t / 2):9.4f}")
rate = -np.polyfit(ts, np.log(covs), 1)[0]
print(f"fitted decay rate {rate:.4f} (Langevin drift -u/2 => rate 1/2)")
