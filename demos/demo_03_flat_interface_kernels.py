"""Exact flat-interface (twofold half-space) Stokes kernels.

Every tangential frequency evolves independently in the wall-normal
coordinate, so the two-sided Dirichlet problem and the two-phase
jump problem have explicit multiplier solutions.  This demo builds both
and prints the analytic residual report.
"""

import numpy as np

from dropsteady.halfspace import (
    TangentialSpectrum,
    dirichlet_stokes_halfspace,
    residual_check,
    twophase_jump_halfspace,
    x3_samples,
)

rng = np.random.default_rng(7)
mu_drop, mu_res = 2.0, 0.7

print("two-sided Dirichlet problem, 12 random modes, unequal viscosities")
b = TangentialSpectrum.random(12, rng, vector=True)
sol = dirichlet_stokes_halfspace(b, mu_plus=mu_drop, mu_minus=mu_res)
for key, val in residual_check(sol, dirichlet=b).items():
    print(f"  {key:<24s} {val:.3e}")

print("\ntwo-phase jump problem: u.n = H1, tangential stress jump = H2")
H1 = TangentialSpectrum.random(12, rng)
h2 = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
h2[:, 2] = 0.0  # tangential data
H2 = TangentialSpectrum(H1.modes, h2)
sol2 = twophase_jump_halfspace(H1, H2, mu_plus=mu_drop, mu_minus=mu_res)
for key, val in residual_check(sol2, H1=H1, H2=H2).items():
    print(f"  {key:<24s} {val:.3e}")

# per-mode exponential decay away from the interface
x3 = x3_samples()
u = sol2.velocity(x3)
k = sol2.k
amp0 = np.abs(u[:, len(x3) // 2, :]).max(axis=1)
print("\nper-mode decay |u(x3)| <= C exp(-|xi'| x3):")
for i in (0, 5, 11):
    far = np.abs(u[i, -1]).max()
    X = x3[-1]
    bound = (np.abs(sol2.alpha[0, i]).max() + X * np.abs(sol2.beta[0, i]).max()) * np.exp(-k[i] * X)
    print(f"  |xi'| = {k[i]:.3f}: |u({X:g})| = {far:.3e} <= {bound:.3e}")

# the low-frequency gap is a hard hypothesis: |xi'| < 1 is rejected
try:
    TangentialSpectrum(np.array([[0.125, 0.0]]), np.array([1.0 + 0j]))
except ValueError as e:
    print(f"\nlow-frequency data rejected as expected: {e}")
