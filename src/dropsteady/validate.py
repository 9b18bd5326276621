"""Self-contained verification suite: every acceptance-style check that
runs without a full fixed-point solve, as (name, pass, value, bound) rows.
Degree-1 oracle fields are solved on a degree-2 sphere grid, the rest on full grids."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dropflow
from .geometry import curvature_nonlinear, curvature_total, cutoff, stress
from .halfspace import (
    TangentialSpectrum,
    dirichlet_stokes_halfspace,
    residual_check,
    twophase_jump_halfspace,
    x3_samples,
)
from .operators import DropState, apply_L, build_context, invert_L, norm_Y
from .sphere import (
    SphereField,
    SphereGrid,
    integrate_sphere,
    laplace_beltrami,
    normal_component_fields,
    project_complement,
    solve_shifted,
    synthesis_batch,
)
from .stokes import AuxiliaryField, PhysicalParams, auxiliary_field, lambda0_value, oseenlet
from .volume import EXTERIOR, VolumeField, VolumeGrid, eval_radii, vsh_assemble

__all__ = ["Check", "check_groups", "run_validation", "random_state", "dissipation", "CHECK_GROUPS"]


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
        c = _random_triangle(rng, np.array([(1.0 + l) ** -1.0 for l in range(L + 1)]))
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


def _dropflow_checks(rng, vg, aux):
    """Solver against the closed form.  ``aux`` on ``vg`` serves kappa = 1; kappa = 0.1
    and 10 are solved on a degree-2 sphere grid over vg's radial nodes: the
    drop's channels are of degree 1, its Cartesian components of degree 2."""
    out = []
    small = VolumeGrid(SphereGrid.build(2), vg.interior, vg.exterior)
    worst_vel = 0.0
    worst_drag = 0.0
    for kappa in (0.1, 1.0, 10.0):
        mu1, mu2 = kappa, 1.0
        field = aux if kappa == 1.0 else auxiliary_field(small, PhysicalParams(mu1=mu1, mu2=mu2))
        th, phg = field.U.grid.sphere.nodes
        w = field.U.grid.sphere.weights
        for r0 in (0.4, 0.85, 1.6, 6.0, 20.0):
            ph = 0 if r0 <= 1 else 1
            got = eval_radii(field.U, np.array([r0]), ph)[:, 0]
            x = r0 * np.sin(th) * np.cos(phg)
            y = r0 * np.sin(th) * np.sin(phg)
            z = r0 * np.cos(th)
            exact = dropflow.velocity(x, y, z, mu1, mu2)
            err = np.sqrt(np.einsum("ab,iab->", w, (got - exact) ** 2))
            ref = max(np.sqrt(np.einsum("ab,iab->", w, exact**2)), 1e-30)
            worst_vel = max(worst_vel, float(err / ref))
        ref_drag = dropflow.drag_e3(mu1, mu2)
        worst_drag = max(worst_drag, abs(field.e3_drag - ref_drag) / abs(ref_drag))
    out.append(
        Check("translating-drop field vs closed form (L2)", worst_vel < 1e-8, worst_vel, 1e-8)
    )
    out.append(
        Check("drag vs (2+3k)/(1+k) closed form", worst_drag < 1e-8, worst_drag, 1e-8)
    )
    return out


def dissipation(aux: AuxiliaryField) -> float:
    """2 int mu |S(U)|^2 dx of the auxiliary field, S the strain rate: up to
    R_inf by quadrature, the remote tail (a forcing-free Stokes region) by
    the exact flux identity 2 mu int_{r>R} |S|^2 = -int_{dB_R} u . T(u,p) rhat dS."""
    solver, U, jacU = aux.solver, aux.U.values, aux.jacU.values
    grid, g = solver.grid, solver.grid.sphere
    S = 0.5 * (jacU + np.einsum("ijrab->jirab", jacU))
    dens = grid.phase_profile(solver.mu1, solver.mu2) * np.einsum("ijrab,ijrab->rab", S, S)
    i_far = grid.interior.n + grid.exterior.i_far
    Tr = np.einsum("ijab,jab->iab", stress(jacU[:, :, i_far], aux.P.values[i_far], solver.mu2), g.unit_vectors()[0])
    flux = grid.r[i_far] ** 2 * g.quad(np.einsum("iab,iab->ab", U[:, i_far], Tr))
    return 2.0 * grid.integrate(np.einsum("ij,rij->r", g.weights, dens)) - flux


def _energy_checks(rng, vg, aux):
    rel = abs(dissipation(aux) - (-aux.e3_drag)) / abs(aux.e3_drag)
    out = [Check("energy identity: drag vs dissipation", rel < 1e-8, rel, 1e-8)]
    lam = lambda0_value(1e-3, aux.e3_drag)
    lin = abs(lambda0_value(3e-3, aux.e3_drag) - 3 * lam)
    val = abs(abs(lam) - 4e-3 / 15.0) / abs(lam)
    out.append(Check("lambda0 linear in density contrast", lin < 1e-18, lin, 1e-18))
    out.append(Check("lambda0 equal-viscosity value", val < 1e-8, val, 1e-8))
    return out


ANNULUS_GAUSS_NODES = 48  # radial Gauss-Legendre rule on the cutoff annulus [R, 2R]


def divT_norm_lq(aux: AuxiliaryField, R: float, q: float) -> float:
    """L^q norm of Div T(U_R, P_R) on its support annulus [R, 2R], from the
    auxiliary field at the annulus' Gauss radii (no truncated pair is formed)."""
    grid = aux.solver.grid
    if not (R > 4.0 and 2.0 * R <= grid.r_inf + 1e-12):
        raise ValueError(f"truncation radius must satisfy 4 < R <= R_inf/2, got {R}")
    xg, wg = np.polynomial.legendre.leggauss(ANNULUS_GAUSS_NODES)
    rr = R + (xg + 1.0) * R / 2.0
    wr = wg * R / 2.0
    vals = _cutoff_stress_divergence(
        *(eval_radii(f, rr, EXTERIOR) for f in (aux.U, aux.jacU, aux.P)),
        rr,
        R,
        grid.sphere.unit_vectors()[0],
        aux.solver.mu2,
    )
    mag = np.sum(np.abs(vals) ** 2, axis=0) ** (q / 2.0)
    ang = np.einsum("ab,rab->r", grid.sphere.weights, mag)
    return float(np.sum(wr * rr**2 * ang)) ** (1.0 / q)


def _cutoff_stress_divergence(U, jac, P, r, R, rhat, mu2):
    """Div T(chi_R U, chi_R P) for a Stokes pair (U, P), analytic in the cutoff.

    ``U``, ``jac`` and ``P`` are the pair's velocity, Jacobian and pressure
    on the angular grid at exterior radii ``r``.
    """
    _, dchi, d2chi = (c[:, None, None] for c in cutoff(r, R))
    rinv = (1.0 / r)[:, None, None]
    gradchi = dchi[None] * rhat[:, None]
    eye = np.eye(3)[:, :, None, None, None]
    rr = np.einsum("iab,jab->ijab", rhat, rhat)[:, :, None]
    hess = d2chi[None, None] * rr + (dchi * rinv)[None, None] * (eye - rr)
    lapchi = d2chi + 2.0 * rinv * dchi
    S = 0.5 * (jac + np.einsum("ijrab->jirab", jac))
    term = (
        np.einsum("ijrab,jrab->irab", S, gradchi)
        + 0.5 * np.einsum("ijrab,jrab->irab", hess, U)
        + 0.5 * np.einsum("ijrab,jrab->irab", jac, gradchi)
        + 0.5 * lapchi[None] * U
    )
    return 2.0 * mu2 * term - P[None] * gradchi


def _truncation_checks(rng, vg, aux):
    q = 4.0 / 3.0
    norms = [divT_norm_lq(aux, R, q) for R in (8.0, 16.0, 32.0)]
    slope = float(np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(norms), 1)[0])
    dev = abs(slope - (-3.0 + 3.0 / q))
    return [Check("truncation-tail decay slope", dev < 0.3, dev, 0.3)]


def _random_triangle(rng, scale):
    """Coefficients |m| <= l in the layout (L+1, 2L+1), L = len(scale) - 1: scale[l]
    times standard normals drawn in one call, l ascending, then m."""
    L = len(scale) - 1
    l, col = np.ogrid[: L + 1, : 2 * L + 1]
    c = np.zeros((L + 1, 2 * L + 1))
    c[np.abs(col - L) <= l] = rng.standard_normal((L + 1) ** 2)
    return scale[:, None] * c


def random_state(vg, rng):
    """Random state in the discrete solution class: in-basis radial profiles,
    no velocity jump at the interface, decay at infinity."""
    g = vg.sphere
    L = g.band_limit
    Mi, Me = vg.interior.n, vg.exterior.n
    ri, se = vg.interior.r, vg.exterior.s

    scale = np.array([(1.0 + l * (l + 1.0)) ** -2.0 for l in range(L + 1)])

    def interior(parity_base):
        prof = np.zeros((Mi, L + 1, 2 * L + 1))
        rho = 2.0 * ri**2 - 1.0
        for k in range(4):
            Tk = np.cos(k * np.arccos(np.clip(rho, -1, 1)))
            prof += Tk[:, None, None] * _random_triangle(rng, scale) * 0.5**k
        parity = (np.arange(L + 1) + parity_base) % 2
        return prof * ri[:, None, None] ** parity[:, None]

    def exterior():
        prof = np.zeros((Me, L + 1, 2 * L + 1))
        for k in range(4):
            prof += (se ** (k + 1))[:, None, None] * _random_triangle(rng, scale) * 0.5**k
        return prof

    # (P, v, w) and p of the drop, then of the reservoir
    u_int = np.stack([interior(1) for _ in range(3)])
    p_int = interior(0)
    u_ext = np.stack([exterior() for _ in range(3)])
    p_ext = exterior()
    # match the velocity channels at r = 1 with a correction decaying as s^2
    gap = u_int[:, vg.interior.i_surface] - u_ext[:, vg.exterior.i_surface]
    u_ext += gap[:, None] * (se**2)[:, None, None]
    u = VolumeField(vg, vsh_assemble(vg, *np.concatenate([u_int, u_ext], axis=1)))
    p = VolumeField(vg, synthesis_batch(g, np.concatenate([p_int, p_ext]), L))
    eta = SphereField(g, coeffs=_random_triangle(rng, scale), band=L)  # narrowed to the grid's orders
    return DropState(u, p, float(rng.normal()), eta)


def _roundtrip_checks(rng, vg, aux, samples: int = 2):
    """Operator inverse on range-generated data, ``samples`` per drift."""
    ctx = build_context(vg, PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-3), aux=aux)
    worst = 0.0
    worst_a2 = 0.0
    for lam0 in (1e-3, 1e-2):
        ctx = replace(ctx, lambda0=lam0)
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


# Each group is called as fn(rng), or fn(rng, vg, aux) when it needs a
# volume grid, with aux the equal-viscosity auxiliary field on vg;
# tests/test_acceptance.py runs the groups at its own grid.
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


def check_groups(only: str | None = None) -> list[str]:
    """The names of the groups that contain ``only`` (all groups without it);
    a filter that matches none raises ValueError."""
    names = [name for name in CHECK_GROUPS if only is None or only in name]
    if not names:
        raise ValueError(f"no check group name contains {only!r}; groups: {', '.join(CHECK_GROUPS)}")
    return names


def run_validation(only: str | None = None, seed: int = 0):
    """Run the suite; returns the list of Check rows."""
    names = check_groups(only)
    rng = np.random.default_rng(seed)
    vg = VolumeGrid.build(12, 20, 30, 64.0)
    on_vg = {"drop-flow", "energy", "truncation", "roundtrip"}
    # one equal-viscosity auxiliary field for every group on vg
    aux = auxiliary_field(vg, PhysicalParams()) if on_vg & set(names) else None
    checks = []
    for name in names:
        args = (vg, aux) if name in on_vg else ()
        checks.extend(CHECK_GROUPS[name](rng, *args))
    return checks
