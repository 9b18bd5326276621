"""Scaling of the steady state with the density contrast.

Solves a short rho~ sweep and tabulates the translation speed, the
interface norm, the leading contraction ratio and the wake coefficient;
the leading-order linear scaling lambda ~ lambda0 shows up directly.
"""

import dataclasses

import numpy as np

from dropsteady.driver import SolveConfig, diagnostics, picard_solve
from dropsteady.operators import build_context
from dropsteady.sphere import sobolev_norm
from dropsteady.stokes import auxiliary_field

base = SolveConfig(rho_tilde=1e-3, band_limit=12, n_r_int=20, n_r_ext=32)
# the grid, the Stokes operators and the auxiliary field do not depend on
# rho~: build them once and give each point its own context (lambda0, R)
grid = base.build_grid()
aux = auxiliary_field(grid, base.params())

rows = []
for rho in (2e-3, 1e-3, 5e-4, 2.5e-4):
    cfg = dataclasses.replace(base, rho_tilde=rho)
    ctx = build_context(grid, cfg.params(), alpha=cfg.alpha, aux=aux)
    b = picard_solve(cfg, ctx=ctx)
    rep = diagnostics(b)
    rows.append(
        (
            rho,
            b.lam,
            sobolev_norm(b.eta, 2.75),
            rep["contraction_ratios"][0],
            rep["wake_coefficient"],
            rep["force_e3_defect_rel"],
        )
    )

print(f"{'rho~':>10s} {'lambda':>15s} {'|eta|':>11s} {'ratio':>10s} "
      f"{'wake coeff':>13s} {'force defect':>13s}")
for r in rows:
    print(f"{r[0]:10.2e} {r[1]:15.6e} {r[2]:11.3e} {r[3]:10.2e} {r[4]:13.5e} {r[5]:13.2e}")

lam = np.array([r[1] for r in rows])
rho = np.array([r[0] for r in rows])
print(f"\nlambda / rho~ (constant at leading order): {lam / rho}")
print(f"halving rho~ halves lambda within "
      f"{abs(lam[1] / lam[2] - 2.0):.2%} at rho~ = {rho[1]:.0e} -> {rho[2]:.0e}")
