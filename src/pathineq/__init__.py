"""Functional-inequality laboratory on discretized path spaces.

Two halves, meant to be used together:

* ``transfer`` turns one functional inequality into another by explicit
  constant arithmetic (weighted log-Sobolev -> weak log-Sobolev ->
  Poincare / weak Poincare), with every intermediate constant recorded
  in an audit trail.
* ``samplers`` / ``estimators`` / ``hyperbolic`` produce Monte Carlo
  ensembles (Gaussian, Ornstein-Uhlenbeck, flat and hyperbolic Brownian
  bridges) and estimate variances, entropies, Dirichlet energies and
  tail bounds on them, so the inequalities can be checked at desk scale.

The API lives in those modules; the package imports none of them.
"""

__version__ = "0.1.0"
