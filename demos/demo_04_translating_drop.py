"""The translating-drop flow: solver vs closed form.

The two-phase Stokes field generated by unit translation of the
spherical drop (no-slip, zero tangential stress jump) is classical and
has an explicit stream-function solution.  The spectral solver must
reproduce it, its drag, the energy identity, and the first-order
translation speed law.
"""

import numpy as np

from dropsteady import dropflow
from dropsteady.stokes import PhysicalParams, auxiliary_field, lambda0_value
from dropsteady.validate import dissipation, divT_norm_lq
from dropsteady.volume import EXTERIOR, VolumeGrid, eval_radii

vg = VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=32, r_inf=64.0)

print("viscosity ratio sweep: drag vs the (2+3k)/(1+k) closed form")
for kappa in (0.1, 1.0, 10.0):
    params = PhysicalParams(mu1=kappa, mu2=1.0)
    aux = auxiliary_field(vg, params)
    exact = dropflow.drag_e3(kappa, 1.0)
    print(
        f"  mu1/mu2 = {kappa:>5.1f}: e3 drag {aux.e3_drag:+.10f} "
        f"(closed form {exact:+.10f}, diff {abs(aux.e3_drag-exact):.1e})"
    )

params = PhysicalParams(mu1=1.0, mu2=1.0)
aux = auxiliary_field(vg, params)
print(f"\nequal viscosities: |drag| = {abs(aux.e3_drag):.12f} = 5 pi = {5*np.pi:.12f}")
print(f"energy identity: dissipation {dissipation(aux):.12f} vs -e3 drag {-aux.e3_drag:.12f}")

# velocity against the closed form on a shell
r0 = 2.5
got = eval_radii(aux.U, np.array([r0]), EXTERIOR)[:, 0]
th, ph = vg.sphere.nodes
exact = dropflow.velocity(
    r0 * np.sin(th) * np.cos(ph), r0 * np.sin(th) * np.sin(ph), r0 * np.cos(th), 1.0, 1.0
)
print(f"velocity error on the shell r = {r0}: {np.max(np.abs(got - exact)):.2e}")

# surface speed profile and stream function values
print("\nsurface tangential speed (3/4 sin(theta) at equal viscosities):")
for theta in (np.pi / 6, np.pi / 3, np.pi / 2):
    print(f"  theta = {theta:.3f}: {dropflow.surface_speed(theta, 1.0, 1.0):.6f} "
          f"(3/4 sin = {0.75*np.sin(theta):.6f})")
print(f"stream function at (r, theta) = (2, pi/2): "
      f"{dropflow.stream_function(2.0, np.pi/2, 1.0, 1.0):.6f}")

# first-order translation speed, linear in the density contrast
print("\nfirst-order translation speed (buoyancy balance):")
for rho_t in (1e-3, 5e-4):
    lam0 = lambda0_value(rho_t, aux.e3_drag)
    print(f"  rho~ = {rho_t:.1e}: lambda0 = {lam0:+.9e} "
          f"(equal-viscosity law -4 rho~/15 = {-4*rho_t/15:+.9e})")

# truncation of the auxiliary field and the decay of its stress residue
print("\ntruncated-field stress residue, L^{4/3} norm over the support annulus:")
norms = []
for R in (8.0, 16.0, 32.0):
    n = divT_norm_lq(aux, R, 4.0 / 3.0)
    norms.append(n)
    print(f"  R = {R:2.0f}: {n:.6f}")
slope = np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(norms), 1)[0]
print(f"fitted decay exponent {slope:.4f} (theory: -3 + 3/q = {-3+9/4:.2f})")
