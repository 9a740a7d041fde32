"""End-to-end pipeline on the hyperbolic loop space.

Samples the Brownian bridge on H^3 pinned at the origin (the loop-space
measure at desk scale), verifies its structural symmetries, measures the
tail of the weight root u = sup_t d(gamma_t, origin), and runs the full
transfer chain

    empirical tail  ->  weak log-Sobolev  ->  weak Poincare,

writing the audited certificates to demo_out/.

Run:  python demos/05_loop_space_pipeline.py
"""

import json
import math
import os

import numpy as np
from scipy import stats

from pathineq import hyperbolic as hyp
from pathineq.estimators import exp_square_moment, sup_distance, tail_slope_vs_square, weight_tail
from pathineq.hyperbolic import HeatKernelParams, bridge_radial_cdf
from pathineq.samplers import SamplerConfig, TimeGrid, sample_hyperbolic_bridge
from pathineq.transfer import tail_to_weak_lsi, weak_lsi_to_weak_poincare

OUT = "demo_out"
os.makedirs(OUT, exist_ok=True)

grid = TimeGrid.with_geometric_tail(1.0, 64)
cfg = SamplerConfig(seed=2024, n_paths=30_000, grid=grid, dim=3)
print(f"sampling {cfg.n_paths} bridge paths on H^3, {grid.n_nodes} nodes "
      f"(geometric tail resolves the 1/(T-t) drift)...")
ens = sample_hyperbolic_bridge(cfg)
print(f"median pre-snap endpoint gap: {ens.diagnostics['presnap_gap_median']:.2e}; "
      f"drift-cap events: {ens.diagnostics['cap_event_fraction']:.1e}\n")

o = hyp.origin(3)
i, j = grid.index_of(0.25), grid.index_of(0.75)
ks_rev = stats.ks_2samp(
    hyp.dist(ens.points[:, i, :], o), hyp.dist(ens.points[:, j, :], o)
).statistic
print(f"time-reversal symmetry: KS(d(y_0.25), d(y_0.75)) = {ks_rev:.4f}")

k = grid.index_of(0.5)
d_mid = hyp.dist(ens.points[:, k, :], o)
rg = np.linspace(0.0, float(d_mid.max()) * 1.1 + 1.0, 300)
cdfg = bridge_radial_cdf(0.5, 1.0, rg, HeatKernelParams(n=3))
ks_marg = stats.kstest(d_mid, lambda x: np.interp(x, rg, cdfg)).statistic
print(f"radial marginal vs product-kernel quadrature: KS = {ks_marg:.4f}\n")

u = sup_distance(ens)
slope, se = tail_slope_vs_square(u)
print(f"weight root u = sup_t d(gamma_t, o): median {np.median(u):.3f}, max {u.max():.3f}")
print(f"log-survival vs s^2 slope: {slope:.3f} +- {se:.3f} (Gaussian-type tail <=> negative)")
est = exp_square_moment(u, 0.25)
print(f"E exp(u^2/4) = {est.value:.3f} +- {est.std_error:.3f} flags={list(est.flags)}\n")

tail = weight_tail(u, confidence=0.99)
a_lip = math.sqrt(grid.T) / 2.0  # sup_t sqrt(G(t,t)) for the pinned kernel
res_wl = tail_to_weak_lsi(a_lip, tail)
print(f"tail -> weak log-Sobolev: derivable for s >= {res_wl.audit_value('s_min'):.4f}")
res_wp = weak_lsi_to_weak_poincare(res_wl.profile)
sg, alpha = res_wp.profile.tabulate_monotone(n_points=32)
print(f"weak Poincare alpha(s) on s in [{sg[0]:.4g}, {sg[-1]:.4g}]: "
      f"range [{alpha.min():.1f}, {alpha.max():.1f}], non-increasing: "
      f"{bool(np.all(np.diff(alpha) <= 0))}")
print("audit constants:", {k: round(v, 5) for k, v in res_wp.audit
                           if k in ("delta", "delta0", "r", "sigma", "C1_prime", "C2_prime")})

with open(os.path.join(OUT, "loop_space_chain.json"), "w") as fh:
    json.dump(
        {
            "tail": tail.to_dict(),
            "weak_lsi": res_wl.to_dict(),
            "weak_poincare": res_wp.to_dict(),
            "alpha_profile": {"s": list(sg), "alpha": list(alpha)},
        },
        fh,
        indent=1,
    )
with open(os.path.join(OUT, "alpha_profile.csv"), "w") as fh:
    fh.write("s,alpha\n")
    for s, a in zip(sg, alpha):
        fh.write(f"{s!r},{a!r}\n")
print(f"\nwrote {OUT}/loop_space_chain.json and {OUT}/alpha_profile.csv")
