"""The full steady-state solve: contraction iteration and diagnostics.

Runs the fixed-point scheme for a small density contrast, prints the
contraction history, the reconstructed translation speed and interface
shape, the constraint diagnostics, and the far-field wake fit against
the fundamental solution.  Writes interface_profile.png when matplotlib
is available.
"""

import numpy as np

from dropsteady.driver import SolveConfig, diagnostics, picard_solve

cfg = SolveConfig(rho_tilde=1e-3, band_limit=16, n_r_int=24, n_r_ext=40)
print(f"solving at rho~ = {cfg.rho_tilde}, band limit {cfg.band_limit} ...")
bundle = picard_solve(cfg)

print(f"\nconverged: {bundle.converged} after {len(bundle.history)} iterations")
for h in bundle.history:
    ratio = f", ratio {h['ratio']:.3e}" if "ratio" in h else ""
    print(f"  iter {h['iter']}: update {h['update']:.3e}{ratio}")

print(f"\ntranslation parameter lambda = {bundle.lam:+.9e}")
print(f"first-order prediction lambda0 = {bundle.ctx.lambda0:+.9e}")
print(f"fixed-point residual: {bundle.report['fixed_point_residual']:.2e}")
print(f"solution norm {bundle.report['ball_norm']:.3e} "
      f"<= ball radius |rho~|^alpha = {bundle.report['ball_radius']:.3e}")

rep = diagnostics(bundle)
print("\nconstraint diagnostics:")
for k in (
    "volume_defect",
    "force_e3_defect_rel",
    "force_transverse_max",
    "axisym_leakage",
    "midshell_residual",
):
    print(f"  {k:<24s} {rep[k]:.3e}")
print(f"  barycenter               {np.max(np.abs(rep['barycenter'])):.3e}")

print("\nfar-field wake against the fundamental solution:")
print(f"  fitted coefficient  {rep['wake_coefficient']:+.6e}")
print(f"  buoyancy target     {rep['wake_target']:+.6e}")
print(f"  relative error      {rep['wake_rel_error']:.2%}")
print(f"  remainder slope     {rep['wake_remainder_slope']:.2f} (steeper than -1)")

eta = bundle.eta
theta = bundle.ctx.grid.sphere.theta
prof = eta.values.mean(axis=1)
print("\ninterface displacement profile (phi-averaged):")
for i in range(0, len(theta), max(1, len(theta) // 8)):
    print(f"  theta = {theta[i]:.3f}: eta = {prof[i]:+.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.plot(theta, prof / abs(cfg.rho_tilde), lw=1.5)
    ax.set_xlabel(r"colatitude $\theta$")
    ax.set_ylabel(r"$\eta/\tilde\rho$")
    ax.set_title("steady interface displacement")
    fig.tight_layout()
    fig.savefig("interface_profile.png", dpi=150)
    print("\nwrote interface_profile.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the profile plot)")
