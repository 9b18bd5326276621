"""Two-phase solver against manufactured solutions and the closed-form drop flow."""

import numpy as np
import pytest

from dropsteady import dropflow
from dropsteady.sphere import SphereField, TangentField, normal_component_fields
from dropsteady.stokes import (
    JumpData,
    PhysicalParams,
    TwoPhaseStokesSolver,
    auxiliary_field,
    lambda0_value,
    oseenlet,
    residual_report,
    solve_two_phase,
    stokes_mode_solve,
    truncate_field,
)
from dropsteady.volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    eval_radii,
    vsh_assemble,
)
from dropsteady.volume import synthesis_batch


@pytest.fixture(scope="module")
def vg():
    return VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=30, r_inf=64.0)


@pytest.fixture(scope="module")
def solver(vg):
    return TwoPhaseStokesSolver(vg, mu1=1.0, mu2=1.0)


@pytest.fixture(scope="module")
def solver_unequal(vg):
    return TwoPhaseStokesSolver(vg, mu1=2.5, mu2=0.8)


# -- manufactured per-mode solutions ----------------------------------------


class ModeExact:
    """Monomial radial profiles with analytic operator application.

    interior: P = a1 r^(l-1) + a2 r^(l+1), v = a3 r^(l-1) + a4 r^(l+1),
              p = a5 r^l, w = a6 r^l       (regular parity classes)
    exterior: decaying powers matched for velocity continuity at r = 1.
    """

    def __init__(self, l, mu1, mu2, seed=0):
        rng = np.random.default_rng(seed)
        self.l = l
        self.mu = (mu1, mu2)
        if l == 0:
            ai = [0.0, rng.normal(), 0.0, 0.0, rng.normal(), 0.0]
            ai[1] = rng.normal()
            # interior P = a2 r (parity-regular l=0 radial velocity)
            self.int_terms = {
                "P": [(ai[1], 1.0)],
                "v": [],
                "p": [(ai[4], 0.0)],
                "w": [],
            }
            Pint1 = ai[1]
            self.ext_terms = {
                "P": [(Pint1, -2.0)],
                "v": [],
                "p": [(rng.normal(), -1.0)],
                "w": [],
            }
        else:
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            self.int_terms = {
                "P": [(a[0], l - 1.0), (a[1], l + 1.0)],
                "v": [(a[2], l - 1.0), (a[3], l + 1.0)],
                "p": [(a[4], float(l))],
                "w": [(a[5], float(l))],
            }
            # exterior decaying; scale to match interior values at r = 1
            Pe = [(b[0], -l - 2.0), (b[1], -l * 1.0)]
            ve = [(b[2], -l - 2.0), (b[3], -l * 1.0)]
            we = [(b[5], -l - 1.0)]
            sP = (a[0] + a[1]) / (b[0] + b[1])
            sv = (a[2] + a[3]) / (b[2] + b[3])
            sw = a[5] / b[5]
            self.ext_terms = {
                "P": [(c * sP, e) for c, e in Pe],
                "v": [(c * sv, e) for c, e in ve],
                "p": [(b[4], -l - 1.0)],
                "w": [(c * sw, e) for c, e in we],
            }

    @staticmethod
    def _ev(terms, r, der=0):
        out = np.zeros_like(np.asarray(r, float))
        for c, e in terms:
            if der == 0:
                out = out + c * r**e
            elif der == 1:
                out = out + c * e * r ** (e - 1.0)
            else:
                out = out + c * e * (e - 1.0) * r ** (e - 2.0)
        return out

    def profiles(self, r, phase):
        t = self.int_terms if phase == INTERIOR else self.ext_terms
        return {k: self._ev(v, r) for k, v in t.items()}

    def forcing(self, r, phase):
        """(fP, fv, fw, g) from the analytic momentum/divergence operator."""
        t = self.int_terms if phase == INTERIOR else self.ext_terms
        mu = self.mu[phase]
        l = self.l
        ll1 = l * (l + 1.0)
        P, dP, d2P = (self._ev(t["P"], r, d) for d in (0, 1, 2))
        p, dp = (self._ev(t["p"], r, d) for d in (0, 1))
        DlP = d2P + 2.0 / r * dP - ll1 / r**2 * P
        if l == 0:
            fP = -mu * (DlP - 2.0 / r**2 * P) + dp
            g = dP + 2.0 / r * P
            return fP, None, None, g
        v, dv, d2v = (self._ev(t["v"], r, d) for d in (0, 1, 2))
        w, dw, d2w = (self._ev(t["w"], r, d) for d in (0, 1, 2))
        Dlv = d2v + 2.0 / r * dv - ll1 / r**2 * v
        Dlw = d2w + 2.0 / r * dw - ll1 / r**2 * w
        fP = -mu * (DlP - 2.0 / r**2 * P + 2.0 * ll1 / r**2 * v) + dp
        fv = -mu * (Dlv + 2.0 / r**2 * P) + p / r
        fw = -mu * Dlw
        g = dP + 2.0 / r * P - ll1 / r * v
        return fP, fv, fw, g

    def interface_data(self):
        l, (mu1, mu2) = self.l, self.mu
        one = np.array([1.0])
        h1 = float(self._ev(self.int_terms["P"], one)[0])
        if l == 0:
            return h1, 0.0, 0.0
        trac = []
        for t, mu in ((self.int_terms, mu1), (self.ext_terms, mu2)):
            v1 = float(self._ev(t["v"], one)[0])
            dv1 = float(self._ev(t["v"], one, 1)[0])
            P1 = float(self._ev(t["P"], one)[0])
            w1 = float(self._ev(t["w"], one)[0])
            dw1 = float(self._ev(t["w"], one, 1)[0])
            trac.append((mu * (dv1 + P1 - v1), mu * (dw1 - w1)))
        h2s = trac[0][0] - trac[1][0]
        h2t = trac[0][1] - trac[1][1]
        return h1, h2s, h2t


@pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12])
def test_mode_solver_manufactured(vg, solver_unequal, l):
    ex = ModeExact(l, 2.5, 0.8, seed=l)
    ri, re = vg.interior.r, vg.exterior.r
    fP = (ex.forcing(ri, INTERIOR)[0], ex.forcing(re, EXTERIOR)[0])
    fv = fw = None
    if l > 0:
        fv = (ex.forcing(ri, INTERIOR)[1], ex.forcing(re, EXTERIOR)[1])
        fw = (ex.forcing(ri, INTERIOR)[2], ex.forcing(re, EXTERIOR)[2])
    gpr = (ex.forcing(ri, INTERIOR)[3], ex.forcing(re, EXTERIOR)[3])
    h1, h2s, h2t = ex.interface_data()
    out = stokes_mode_solve(
        solver_unequal, l, fP=fP, fv=fv, fw=fw, gprof=gpr, h1=h1, h2s=h2s, h2t=h2t
    )
    scale = max(np.max(np.abs(ex.profiles(ri, INTERIOR)["P"])), 1.0)
    for phase, r in ((INTERIOR, ri), (EXTERIOR, re)):
        exact = ex.profiles(r, phase)
        assert np.max(np.abs(out["P"][phase] - exact["P"])) < 2e-9 * scale
        if l > 0:
            assert np.max(np.abs(out["v"][phase] - exact["v"])) < 2e-9 * scale
            assert np.max(np.abs(out["w"][phase] - exact["w"])) < 2e-9 * scale
    # pressure: interior carries the mean-zero normalization
    p_int = ex.profiles(ri, INTERIOR)["p"]
    if l == 0:
        shift = vg.interior.integrate(p_int) / vg.interior.integrate(np.ones_like(ri))
        p_int = p_int - shift
    assert np.max(np.abs(out["p"][INTERIOR] - p_int)) < 5e-9 * scale
    assert np.max(np.abs(out["p"][EXTERIOR] - ex.profiles(re, EXTERIOR)["p"])) < 5e-9 * scale


def test_zero_data_zero_solution(vg, solver):
    g = vg.sphere
    data = JumpData(
        VolumeField.zeros(vg, rank=1),
        VolumeField.zeros(vg),
        SphereField.zeros(g),
        TangentField.zeros(g),
    )
    sol = solver.solve(data)
    assert sol.u.max_abs() < 1e-14
    assert sol.p.max_abs() < 1e-12


def test_incompatible_data_rejected(vg, solver):
    g = vg.sphere
    data = JumpData(
        VolumeField.zeros(vg, rank=1),
        VolumeField.from_function(vg, lambda x, y, z: np.ones_like(x)),
        SphereField.zeros(g),
        TangentField.zeros(g),
    )
    with pytest.raises(ValueError):
        solver.solve(data)


def test_solver_linearity_and_determinism(vg, solver):
    ex = ModeExact(2, 1.0, 1.0, seed=42)
    ri, re = vg.interior.r, vg.exterior.r
    args = dict(
        fP=(ex.forcing(ri, INTERIOR)[0], ex.forcing(re, EXTERIOR)[0]),
        fv=(ex.forcing(ri, INTERIOR)[1], ex.forcing(re, EXTERIOR)[1]),
        fw=(ex.forcing(ri, INTERIOR)[2], ex.forcing(re, EXTERIOR)[2]),
        gprof=(ex.forcing(ri, INTERIOR)[3], ex.forcing(re, EXTERIOR)[3]),
    )
    h1, h2s, h2t = ex.interface_data()
    o1 = stokes_mode_solve(solver, 2, h1=h1, h2s=h2s, h2t=h2t, **args)
    o2 = stokes_mode_solve(solver, 2, h1=h1, h2s=h2s, h2t=h2t, **args)
    assert np.array_equal(o1["coeffs"], o2["coeffs"])  # bit identical
    half = stokes_mode_solve(
        solver,
        2,
        fP=tuple(0.5 * a for a in args["fP"]),
        fv=tuple(0.5 * a for a in args["fv"]),
        fw=tuple(0.5 * a for a in args["fw"]),
        gprof=tuple(0.5 * a for a in args["gprof"]),
        h1=0.5 * h1,
        h2s=0.5 * h2s,
        h2t=0.5 * h2t,
    )
    assert np.max(np.abs(half["coeffs"] - 0.5 * o1["coeffs"])) < 1e-12 * max(
        1.0, np.max(np.abs(o1["coeffs"]))
    )


# -- auxiliary field vs the closed form --------------------------------------


@pytest.mark.parametrize("mus", [(1.0, 1.0), (0.1, 1.0), (10.0, 1.0)])
def test_auxiliary_field_matches_closed_form(vg, mus):
    mu1, mu2 = mus
    params = PhysicalParams(mu1=mu1, mu2=mu2)
    aux = auxiliary_field(vg, params)
    # the velocity and the e3 drag against the closed form are validate's
    # drop-flow group; the transverse drag vanishes
    assert abs(aux.drag[0]) < 1e-9 and abs(aux.drag[1]) < 1e-9
    # boundary conditions and normalization
    assert aux.checks["normal_velocity_defect"] < 1e-10
    assert aux.checks["tangential_jump_max"] < 1e-9
    assert abs(aux.checks["normalization_integral"]) < 1e-10
    assert aux.checks["axisym_leakage"] < 1e-12


def test_energy_identity(vg):
    # drag vs dissipation is validate's energy group; here dissipation vs
    # the closed form
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    aux = auxiliary_field(vg, params)
    assert abs(aux.dissipation - dropflow.dissipation(1.0, 1.0)) < 1e-8 * aux.dissipation


def test_lambda0_law():
    # linearity and the equal-viscosity value are validate's energy group
    assert lambda0_value(0.0, dropflow.drag_e3(1.0, 1.0)) == 0.0


def test_pressure_matches_closed_form(vg):
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    aux = auxiliary_field(vg, params)
    r0 = 1.6
    got = eval_radii(aux.P, np.array([r0]), EXTERIOR)[0]
    th, ph = vg.sphere.nodes
    exact = dropflow.pressure(
        r0 * np.sin(th) * np.cos(ph), r0 * np.sin(th) * np.sin(ph), r0 * np.cos(th), 1.0, 1.0
    )
    assert np.max(np.abs(got - exact)) < 1e-9


# -- drift / Richardson -------------------------------------------------------


def test_solve_two_phase_with_drift_manufactured(vg, solver):
    from dropsteady.volume import d3

    L = vg.sphere.band_limit
    params = PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-2)
    lam = 3e-3
    # manufactured multi-mode field from the per-mode profiles
    Mi, Me = vg.interior.n, vg.exterior.n
    P = [np.zeros((Mi, L + 1, 2 * L + 1)), np.zeros((Me, L + 1, 2 * L + 1))]
    V = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    W = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    Q = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    fP = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    fv = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    fw = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    G = [np.zeros_like(P[0]), np.zeros_like(P[1])]
    h1c = np.zeros((L + 1, 2 * L + 1))
    h2sc = np.zeros_like(h1c)
    h2tc = np.zeros_like(h1c)
    for l, m in ((1, 0), (2, 1), (3, -2)):
        ex = ModeExact(l, 1.0, 1.0, seed=10 * l + m)
        col = L + m
        for phase, r in ((INTERIOR, vg.interior.r), (EXTERIOR, vg.exterior.r)):
            prof = ex.profiles(r, phase)
            P[phase][:, l, col] += prof["P"]
            V[phase][:, l, col] += prof["v"]
            W[phase][:, l, col] += prof["w"]
            Q[phase][:, l, col] += prof["p"]
            fPp, fvp, fwp, gp = ex.forcing(r, phase)
            fP[phase][:, l, col] += fPp
            fv[phase][:, l, col] += fvp
            fw[phase][:, l, col] += fwp
            G[phase][:, l, col] += gp
        h1, h2s, h2t = ex.interface_data()
        h1c[l, col] += h1
        h2sc[l, col] += h2s
        h2tc[l, col] += h2t
    u_exact = VolumeField(
        vg,
        vsh_assemble(vg, INTERIOR, P[0], V[0], W[0], L),
        vsh_assemble(vg, EXTERIOR, P[1], V[1], W[1], L),
    )
    f_st = VolumeField(
        vg,
        vsh_assemble(vg, INTERIOR, fP[0], fv[0], fw[0], L),
        vsh_assemble(vg, EXTERIOR, fP[1], fv[1], fw[1], L),
    )
    gdat = VolumeField(vg, synthesis_batch(vg.sphere, G[0], L), synthesis_batch(vg.sphere, G[1], L))
    drift = d3(u_exact).phasewise_scale(params.rho1 * lam, params.rho2 * lam)
    f_total = f_st + drift
    data = JumpData(
        f_total,
        gdat,
        SphereField(vg.sphere, coeffs=h1c, band=L),
        TangentField(vg.sphere, spec=(h2sc, h2tc), band=L),
    )
    sol = solve_two_phase(data, lam, params, solver)
    err = (sol.u - u_exact).max_abs() / u_exact.max_abs()
    assert err < 1e-7
    assert len(sol.diagnostics["richardson_ratios"]) >= 1
    assert all(r < 1 for r in sol.diagnostics["richardson_ratios"][-2:])
    # the interface rows hold to roundoff (momentum_l2 and divergence_l2 go
    # through norm_l2, which reads 0.0 here; see norm_lq)
    rep = residual_report(sol.u, sol.p, data, lam, params, vg, 1.0, 1.0)
    assert rep["velocity_jump_max"] < 1e-12
    assert rep["normal_velocity_max"] < 1e-12


def test_lambda0_continuity(vg, solver):
    """lambda0 -> 0 limit of the drifted solve matches the Stokes solve."""
    g = vg.sphere
    _, _, n3 = normal_component_fields(g)
    data = JumpData(
        VolumeField.zeros(vg, rank=1),
        VolumeField.zeros(vg),
        -1.0 * n3,
        TangentField.zeros(g),
    )
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    s0 = solver.solve(data)
    s1 = solve_two_phase(data, 1e-9, params, solver)
    assert (s1.u - s0.u).max_abs() < 1e-8 * s0.u.max_abs()


# -- truncation ----------------------------------------------------------------


def test_truncation_support(vg):
    # the decay slope of the tail is validate's truncation group
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    aux = auxiliary_field(vg, params)
    with pytest.raises(ValueError):
        truncate_field(aux, 3.0, vg, params.mu2)
    with pytest.raises(ValueError):
        truncate_field(aux, 40.0, vg, params.mu2)
    for R in (8.0, 16.0, 32.0):
        tr = truncate_field(aux, R, vg, params.mu2)
        r = vg.exterior.r
        inside = r <= R
        assert np.max(np.abs(tr.U_R.blocks[EXTERIOR][:, inside] - aux.U.blocks[EXTERIOR][:, inside])) < 1e-14
        outside = r >= 2.0 * R
        if outside.any():
            assert np.max(np.abs(tr.U_R.blocks[EXTERIOR][:, outside])) == 0.0


# -- Oseen fundamental solution --------------------------------------------------


def test_oseenlet_rotation_symmetry():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3) * 2.0
    beta = 0.7
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb, 0], [sb, cb, 0], [0, 0, 1.0]])
    G1 = oseenlet(x, 0.8, mu=1.2, rho=0.5)
    G2 = oseenlet(R @ x, 0.8, mu=1.2, rho=0.5)
    assert np.max(np.abs(R.T @ G2 @ R - G1)) < 1e-12


def test_oseenlet_stokeslet_limit():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((20, 3)) * 1.5
    mu = 0.9
    G = oseenlet(pts, 1e-6, mu=mu, rho=0.5)
    r = np.linalg.norm(pts, axis=1)
    xh = pts / r[:, None]
    S = (np.eye(3) + np.einsum("ni,nj->nij", xh, xh)) / (8 * np.pi * mu * r[:, None, None])
    assert np.max(np.abs(G - S)) < 1e-5
    G0 = oseenlet(pts, 0.0, mu=mu, rho=0.5)
    assert np.max(np.abs(G0 - S)) < 1e-14


def test_oseenlet_negative_drift_reflection():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3) * 2
    M = np.diag([1.0, 1.0, -1.0])
    G1 = oseenlet(x, -0.6, mu=1.0, rho=0.5)
    G2 = oseenlet(M @ x, 0.6, mu=1.0, rho=0.5)
    assert np.max(np.abs(G1 - M @ G2 @ M)) < 1e-13


def oseenlet_pressure(x: np.ndarray) -> np.ndarray:
    """Pressure vector of the fundamental solution: p_j = x_j / (4 pi |x|^3)."""
    x = np.asarray(x, float)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    return x / (4.0 * np.pi * r**3)[..., None]


def test_oseenlet_momentum_residual_fd():
    """6th-order finite differences: -mu lap G + c d3 G + grad p = 0 off origin."""
    mu, rho, lam = 1.1, 0.5, 0.9
    c = rho * lam
    x0 = np.array([0.9, -0.6, 1.4])
    h = 0.03
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    offs = np.arange(-3, 4)

    def G(p):
        return oseenlet(p, lam, mu=mu, rho=rho)

    lap = np.zeros((3, 3))
    for ax in range(3):
        for o, wgt in zip(offs, w2):
            p = x0.copy()
            p[ax] += o * h
            lap += wgt * G(p)
    lap /= h * h
    dz = np.zeros((3, 3))
    for o, wgt in zip(offs, w1):
        p = x0.copy()
        p[2] += o * h
        dz += wgt * G(p)
    dz /= h
    gradp = np.zeros((3, 3))
    for i in range(3):
        for o, wgt in zip(offs, w1):
            p = x0.copy()
            p[i] += o * h
            gradp[i] += wgt * oseenlet_pressure(p)
    gradp /= h
    res = -mu * lap + c * dz + gradp
    assert np.max(np.abs(res)) < 1e-9


def test_drag_via_volume_vs_surface(vg):
    """Energy identity restated: surface drag equals volume dissipation."""
    params = PhysicalParams(mu1=3.0, mu2=0.5)
    aux = auxiliary_field(vg, params)
    assert abs(-aux.e3_drag - aux.dissipation) < 1e-8 * abs(aux.e3_drag)
    # and the components along e1, e2 vanish by symmetry
    assert np.max(np.abs(aux.drag[:2])) < 1e-9
