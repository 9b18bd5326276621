"""Self-contained verification suite: every acceptance-style check that
runs without a full fixed-point solve, as (name, pass, value, bound) rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dropflow
from .geometry import curvature_nonlinear, curvature_total
from .halfspace import (
    TangentialSpectrum,
    dirichlet_stokes_halfspace,
    residual_check,
    twophase_jump_halfspace,
    x3_samples,
)
from .sphere import (
    SphereField,
    SphereGrid,
    laplace_beltrami,
    normal_component_fields,
    project_complement,
    solve_shifted,
)
from .stokes import (
    PhysicalParams,
    auxiliary_field,
    lambda0_value,
    oseenlet,
    truncate_field,
)
from .volume import VolumeGrid, eval_radii

__all__ = ["Check", "run_validation", "random_state", "CHECK_GROUPS"]


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    bound: float

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<44s} value {self.value:.3e}  bound {self.bound:.3e}"


def _curvature_checks(rng):
    out = []
    grid = SphereGrid.build(16)
    zero = SphereField.zeros(grid)
    v = float(np.max(np.abs(curvature_total(zero).values)))
    out.append(Check("curvature: sphere gives zero", v < 1e-12, v, 1e-12))
    worst = 0.0
    for c in (0.05, -0.05, 0.08, -0.08):
        eta = SphereField.constant(grid, c)
        tot = curvature_total(eta).values
        worst = max(worst, float(np.max(np.abs(tot - 2 * c / (1 + c)))))
        gh = curvature_nonlinear(eta).values
        worst = max(worst, float(np.max(np.abs(gh - 2 * c * c / (1 + c)))))
    out.append(Check("curvature: concentric-sphere oracle", worst < 1e-10, worst, 1e-10))
    return out


def _kernel_checks(rng):
    out = []
    for L in (16, 32):
        grid = SphereGrid.build(L)
        ns = normal_component_fields(grid)
        worst = 0.0
        for nk in ns:
            worst = max(
                worst,
                float(np.max(np.abs((laplace_beltrami(nk) + 2.0 * nk).values))),
            )
        out.append(Check(f"kernel identity (lap+2)n=0, L={L}", worst < 1e-12, worst, 1e-12))
        c = np.zeros((L + 1, 2 * L + 1))
        for l in range(L + 1):
            c[l, L - l : L + l + 1] = (1.0 + l) ** -1.0 * rng.standard_normal(2 * l + 1)
        f = project_complement(SphereField(grid, coeffs=c, band=L))
        eta = solve_shifted(f)
        res = float(np.max(np.abs((laplace_beltrami(eta) + 2.0 * eta - f).values)))
        out.append(Check(f"shifted-solve round trip, L={L}", res < 1e-10, res, 1e-10))
    return out


def _halfspace_checks(rng):
    out = []
    worst = {"momentum": 0.0, "divergence": 0.0, "trace": 0.0, "jump": 0.0}
    for _ in range(25):
        b = TangentialSpectrum.random(8, rng, vector=True)
        sol = dirichlet_stokes_halfspace(b, 1.0 + rng.random(), 0.5 + rng.random())
        rep = residual_check(sol, dirichlet=b)
        worst["momentum"] = max(worst["momentum"], rep["momentum"])
        worst["divergence"] = max(worst["divergence"], rep["divergence"])
        worst["trace"] = max(worst["trace"], rep["trace"])
        worst["jump"] = max(worst["jump"], rep["velocity_jump"])
    for _ in range(25):
        H1 = TangentialSpectrum.random(8, rng)
        h2v = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        h2v[:, 2] = 0.0
        H2 = TangentialSpectrum(H1.modes, h2v)
        sol = twophase_jump_halfspace(H1, H2, 1.0 + rng.random(), 0.5 + rng.random())
        rep = residual_check(sol, H1=H1, H2=H2)
        worst["momentum"] = max(worst["momentum"], rep["momentum"])
        worst["divergence"] = max(worst["divergence"], rep["divergence"])
        jump = (rep["velocity_jump"], rep["normal_velocity"], rep["tangential_stress_jump"])
        worst["jump"] = max(worst["jump"], *jump)
    for key in ("momentum", "divergence", "trace", "jump"):
        out.append(
            Check(f"halfspace residual: {key}", worst[key] < 1e-10, worst[key], 1e-10)
        )
    # linearity
    b1 = TangentialSpectrum.random(6, rng, vector=True)
    b2 = TangentialSpectrum(b1.modes, rng.standard_normal(b1.values.shape) + 0j)
    a = 0.73 - 1.1j
    s12 = dirichlet_stokes_halfspace(TangentialSpectrum(b1.modes, a * b1.values + b2.values))
    combo = dirichlet_stokes_halfspace(b1).scaled(a) + dirichlet_stokes_halfspace(b2)
    x3 = x3_samples()
    lin = float(np.max(np.abs(s12.velocity(x3) - combo.velocity(x3))))
    out.append(Check("halfspace linearity", lin < 1e-12, lin, 1e-12))
    return out


def _dropflow_checks(rng, vg, mu2_scale: float = 1.0):
    """Solver against the closed form; ``mu2_scale`` != 1 hands the oracle a
    wrong reservoir viscosity (the fault the suite must catch)."""
    out = []
    th, phg = vg.sphere.nodes
    w = vg.sphere.weights
    worst_vel = 0.0
    worst_drag = 0.0
    for kappa in (0.1, 1.0, 10.0):
        mu1, mu2 = kappa, 1.0
        aux = auxiliary_field(vg, PhysicalParams(mu1=mu1, mu2=mu2))
        for r0 in (0.4, 0.85, 1.6, 6.0, 20.0):
            ph = 0 if r0 <= 1 else 1
            got = eval_radii(aux.U, np.array([r0]), ph)[:, 0]
            x = r0 * np.sin(th) * np.cos(phg)
            y = r0 * np.sin(th) * np.sin(phg)
            z = r0 * np.cos(th)
            exact = dropflow.velocity(x, y, z, mu1, mu2 * mu2_scale)
            err = np.sqrt(np.einsum("ab,iab->", w, (got - exact) ** 2))
            ref = max(np.sqrt(np.einsum("ab,iab->", w, exact**2)), 1e-30)
            worst_vel = max(worst_vel, float(err / ref))
        ref_drag = dropflow.drag_e3(mu1, mu2 * mu2_scale)
        worst_drag = max(worst_drag, abs(aux.e3_drag - ref_drag) / abs(ref_drag))
    out.append(
        Check("translating-drop field vs closed form (L2)", worst_vel < 1e-8, worst_vel, 1e-8)
    )
    out.append(
        Check("drag vs (2+3k)/(1+k) closed form", worst_drag < 1e-8, worst_drag, 1e-8)
    )
    return out


def _energy_checks(rng, vg):
    aux = auxiliary_field(vg, PhysicalParams(mu1=1.0, mu2=1.0))
    rel = abs(aux.dissipation - (-aux.e3_drag)) / abs(aux.e3_drag)
    out = [Check("energy identity: drag vs dissipation", rel < 1e-8, rel, 1e-8)]
    lam = lambda0_value(1e-3, aux.e3_drag)
    lin = abs(lambda0_value(3e-3, aux.e3_drag) - 3 * lam)
    val = abs(abs(lam) - 4e-3 / 15.0) / abs(lam)
    out.append(Check("lambda0 linear in density contrast", lin < 1e-18, lin, 1e-18))
    out.append(Check("lambda0 equal-viscosity value", val < 1e-8, val, 1e-8))
    return out


def _truncation_checks(rng, vg):
    aux = auxiliary_field(vg, PhysicalParams(mu1=1.0, mu2=1.0))
    q = 4.0 / 3.0
    norms = [truncate_field(aux, R, vg, 1.0).divT_norm_lq(q) for R in (8.0, 16.0, 32.0)]
    slope = float(np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(norms), 1)[0])
    dev = abs(slope - (-3.0 + 3.0 / q))
    return [Check("truncation-tail decay slope", dev < 0.3, dev, 0.3)]


def random_state(vg, rng, amp=1.0):
    """Random state in the discrete solution class: in-basis radial profiles,
    no velocity jump at the interface, decay at infinity."""
    from .operators import DropState
    from .sphere import synthesis_batch
    from .volume import VolumeField, vsh_assemble

    g = vg.sphere
    L = g.band_limit
    Mi, Me = vg.interior.n, vg.exterior.n
    ri, se = vg.interior.r, vg.exterior.s

    def rand_coeffs():
        c = np.zeros((L + 1, 2 * L + 1))
        for l in range(L + 1):
            c[l, L - l : L + l + 1] = (
                amp * (1.0 + l * (l + 1.0)) ** -2.0 * rng.standard_normal(2 * l + 1)
            )
        return c

    def interior(parity_base):
        prof = np.zeros((Mi, L + 1, 2 * L + 1))
        rho = 2.0 * ri**2 - 1.0
        for k in range(4):
            Tk = np.cos(k * np.arccos(np.clip(rho, -1, 1)))
            prof += Tk[:, None, None] * rand_coeffs() * 0.5**k
        for l in range(L + 1):
            prof[:, l, :] *= ri[:, None] ** ((l + parity_base) % 2)
        return prof

    def exterior():
        prof = np.zeros((Me, L + 1, 2 * L + 1))
        for k in range(4):
            prof += (se ** (k + 1))[:, None, None] * rand_coeffs() * 0.5**k
        return prof

    Pi, vi, wi = interior(1), interior(1), interior(1)
    pi = interior(0)
    Pe, ve, we, pe = exterior(), exterior(), exterior(), exterior()
    shape = (se**2)[:, None, None]
    for inner, outer in ((Pi, Pe), (vi, ve), (wi, we)):
        outer += (inner[vg.interior.i_surface] - outer[vg.exterior.i_surface])[None] * shape
    u = VolumeField(
        vg,
        vsh_assemble(vg, 0, Pi, vi, wi),
        vsh_assemble(vg, 1, Pe, ve, we),
    )
    p = VolumeField(vg, synthesis_batch(g, pi, L), synthesis_batch(g, pe, L))
    eta = SphereField(g, coeffs=rand_coeffs(), band=L)
    return DropState(u, p, float(rng.normal()) * amp, eta)


def _roundtrip_checks(rng, vg, samples: int = 2):
    """Operator inverse on range-generated data, ``samples`` per drift."""
    from .operators import apply_L, build_context, invert_L, norm_Y
    from .sphere import integrate_sphere

    ctx = build_context(vg, PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-3))
    worst = 0.0
    worst_a2 = 0.0
    for lam0 in (1e-3, 1e-2):
        ctx.lambda0 = lam0
        for _ in range(samples):
            x0 = random_state(vg, rng)
            y = apply_L(x0, ctx)
            st = invert_L(y, ctx)
            back = apply_L(st, ctx)
            diff = back.combine(y, 1.0, -1.0)
            worst = max(worst, norm_Y(diff)["total"] / norm_Y(y)["total"])
            worst_a2 = max(worst_a2, abs(integrate_sphere(st.eta) - y.a2))
    return [
        Check("operator round trip on random data", worst < 1e-7, worst, 1e-7),
        Check("volume row reproduced automatically", worst_a2 < 1e-9, worst_a2, 1e-9),
    ]


def _oseenlet_checks(rng):
    out = []
    x = rng.standard_normal(3) * 2.0
    beta = 0.9
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb, 0], [sb, cb, 0], [0, 0, 1.0]])
    G1 = oseenlet(x, 0.8)
    G2 = oseenlet(R @ x, 0.8)
    rot = float(np.max(np.abs(R.T @ G2 @ R - G1)))
    out.append(Check("oseenlet axial symmetry", rot < 1e-12, rot, 1e-12))
    pts = rng.standard_normal((10, 3)) * 1.5
    r = np.linalg.norm(pts, axis=1)
    xh = pts / r[:, None]
    S = (np.eye(3) + np.einsum("ni,nj->nij", xh, xh)) / (8 * np.pi * r[:, None, None])
    lim = float(np.max(np.abs(oseenlet(pts, 1e-6) - S)))
    out.append(Check("oseenlet Stokeslet limit", lim < 1e-5, lim, 1e-5))
    return out


# Each group is called as fn(rng), or fn(rng, vg, ...) when it needs a
# volume grid; tests/test_acceptance.py runs the groups at its own grid.
CHECK_GROUPS = {
    "curvature": _curvature_checks,
    "kernel": _kernel_checks,
    "halfspace": _halfspace_checks,
    "drop-flow": _dropflow_checks,
    "energy": _energy_checks,
    "truncation": _truncation_checks,
    "roundtrip": _roundtrip_checks,
    "oseenlet": _oseenlet_checks,
}


def run_validation(only: str | None = None, seed: int = 0, inject_fault: str | None = None):
    """Run the suite; returns the list of Check rows."""
    rng = np.random.default_rng(seed)
    vg = VolumeGrid.build(12, 20, 30, 64.0)
    mu2_scale = 1.02 if inject_fault == "oracle_mu2" else 1.0
    args = {"drop-flow": (vg, mu2_scale), "energy": (vg,), "truncation": (vg,), "roundtrip": (vg,)}
    checks = []
    for name, fn in CHECK_GROUPS.items():
        if only is not None and only not in name:
            continue
        checks.extend(fn(rng, *args.get(name, ())))
    return checks
