"""The linearized drop operator, its constructive inverse, and the
nonlinear right-hand side of the steady-state fixed-point equation.

The seven rows of the linear operator L applied to a state (u, p, kappa,
eta):
  1. -Div T(u,p) + rho lambda0 d3 u        (phasewise density)
  2. Div u
  3. u . n on the sphere
  4. tangential part of [[T(u,p) n]]
  5. kappa e3.int [[T(U,P)n]] + e3.int [[T(u,p)n]]
  6. int eta dS
  7. sigma (lap_S + 2) eta + (1/4pi) n . int eta n dS
       - kappa n.[[T(U,P)n]] - n.[[T(u,p)n]]

The inverse follows the constructive recipe: solve the two-phase system
for (u, p), shift the drop pressure by the constant that makes row 6
come out automatically, read kappa off row 5, then split the height
equation into the degree-1 kernel part and a shifted-Laplacian solve on
its complement.

Surface pullback weights: all interface integrals transform with the
Nanson factor (dS on the deformed interface = |A^T n| dS), i.e. the
pulled-back surface force is int [[T^eta(w,q) n]] dS with weight one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ETA_SOBOLEV_ORDER,
    HeightFunction,
    build_map,
    curvature_nonlinear,
    cutoff_unit,
    cutoff_unit_d1,
    transformed_stress,
)
from .sphere import (
    SphereField,
    TangentField,
    integrate_sphere,
    laplace_beltrami,
    normal_component_fields,
    project_complement,
    project_kernel,
    sobolev_norm,
    solve_shifted,
)
from .stokes import (
    AuxiliaryField,
    JumpData,
    PhysicalParams,
    TruncatedAux,
    auxiliary_field,
    lambda0_value,
    solve_two_phase,
    surface_traction_jump,
    truncate_field,
)
from .volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    d3,
    e3_column,
    norm_l2,
    scalar_gradient,
    vector_divergence,
    vector_gradient,
    vector_laplacian,
)

__all__ = [
    "DropState",
    "YElement",
    "OperatorContext",
    "build_context",
    "apply_L",
    "invert_L",
    "assemble_N",
    "norm_X",
    "norm_Y",
]


@dataclass
class DropState:
    """State tuple; ``tail`` records how much of the closed-form remainder
    pair X_tail = (U - U_R, P - P_R) is contained in (u, p), so operators
    can differentiate that part analytically instead of spectrally."""

    u: VolumeField
    p: VolumeField
    kappa: float
    eta: SphereField
    tail: float = 0.0

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "DropState":
        return cls(
            VolumeField.zeros(grid, rank=1),
            VolumeField.zeros(grid),
            0.0,
            SphereField.zeros(grid.sphere),
        )

    def combine(self, other: "DropState", a: float, b: float) -> "DropState":
        return DropState(
            a * self.u + b * other.u,
            a * self.p + b * other.p,
            a * self.kappa + b * other.kappa,
            a * self.eta + b * other.eta,
            a * self.tail + b * other.tail,
        )


class YElement(JumpData):
    """Data-space element: the seven rows (f, g, h1, h2, a1, a2, h3)."""

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "YElement":
        g = grid.sphere
        return cls(
            VolumeField.zeros(grid, rank=1),
            VolumeField.zeros(grid),
            SphereField.zeros(g),
            TangentField.zeros(g),
            0.0,
            0.0,
            SphereField.zeros(g),
        )

    def combine(self, other: "YElement", a: float, b: float) -> "YElement":
        return YElement(
            a * self.f + b * other.f,
            a * self.g + b * other.g,
            a * self.h1 + b * other.h1,
            a * self.h2 + b * other.h2,
            a * self.a1 + b * other.a1,
            a * self.a2 + b * other.a2,
            a * self.h3 + b * other.h3,
        )


@dataclass
class OperatorContext:
    """Precomputed environment shared by apply/invert/assemble.

    Besides the auxiliary and truncated fields this carries the
    "remainder pair" X_tail = (U - U_R, P - P_R), whose image under the
    linear operator is known in closed form (Y_sing below).  The cutoff
    kinks make X_tail unrepresentable in the radial bases, so the Picard
    step feeds the solver only the regular part of the right-hand side
    and adds the exact remainder response afterwards.
    """

    grid: VolumeGrid
    params: PhysicalParams
    lambda0: float
    aux: AuxiliaryField
    trunc: TruncatedAux
    jumpU_n: SphereField = field(init=False)
    divU: VolumeField = field(init=False)
    U_tail: VolumeField = field(init=False)
    P_tail: VolumeField = field(init=False)
    d3tail: VolumeField = field(init=False)  # d3 (U - U_R)
    sing_g: VolumeField = field(init=False)  # row 2 of L(X_tail)
    div_UR: VolumeField = field(init=False)  # Div U_R

    def __post_init__(self):
        g = self.grid.sphere
        rhat = g.unit_vectors()[0]
        vals = np.einsum("iab,iab->ab", self.aux.traction_jump, rhat)
        self.jumpU_n = SphereField(g, values=vals)
        self.divU = vector_divergence(self.aux.U)
        self.U_tail = self.aux.U + (-1.0) * self.trunc.U_R
        self.P_tail = self.aux.P + (-1.0) * self.trunc.P_R
        # row 2: div(U - U_R) = (1 - chi) div U - U . grad chi, and
        # Div U_R = chi div U + U . grad chi (analytic in the cutoff)
        d3U = e3_column(self.aux.jacU)
        sing_g = VolumeField.zeros(self.grid)
        div_UR = VolumeField.zeros(self.grid)
        d3tail = VolumeField.zeros(self.grid, rank=1)
        R = self.trunc.R
        for ph in (INTERIOR, EXTERIOR):
            r = self.grid.radial(ph).r
            chi = cutoff_unit(r / R)[:, None, None]
            dchi = (cutoff_unit_d1(r / R) / R)[:, None, None]
            Ur = np.einsum("irab,iab->rab", self.aux.U.blocks[ph], rhat)
            sing_g.blocks[ph] = (1.0 - chi) * self.divU.blocks[ph] - dchi * Ur
            div_UR.blocks[ph] = chi * self.divU.blocks[ph] + dchi * Ur
            d3tail.blocks[ph] = (1.0 - chi)[None] * d3U.blocks[ph] - (
                dchi * rhat[2][None]
            )[None] * self.aux.U.blocks[ph]
        self.sing_g = sing_g
        self.div_UR = div_UR
        self.d3tail = d3tail
        self.jac_tail = self.aux.jacU + (-1.0) * self.trunc.jac_UR

    @property
    def sing_f(self) -> VolumeField:
        """Row 1 of L(X_tail): -Div T(U - U_R, P - P_R) + rho lambda0 d3 (U - U_R),
        at the current lambda0."""
        return self.trunc.divT + self.d3tail.phasewise_scale(
            self.params.rho1 * self.lambda0, self.params.rho2 * self.lambda0
        )

    @property
    def e3_drag(self) -> float:
        return self.aux.e3_drag


def build_context(
    grid: VolumeGrid,
    params: PhysicalParams,
    R: float | None = None,
    alpha: float = 0.8,
) -> OperatorContext:
    """Assemble the operator environment; R defaults to the clamped
    |rho_tilde|^(-alpha) truncation radius."""
    aux = auxiliary_field(grid, params)
    lam0 = lambda0_value(params.rho_tilde, aux.e3_drag)
    if R is None:
        if params.rho_tilde != 0.0:
            R = abs(params.rho_tilde) ** (-alpha)
        else:
            R = grid.r_inf / 2.0
        R = min(max(R, 4.5), grid.r_inf / 2.0)
    trunc = truncate_field(aux, R, grid, params.mu2)
    return OperatorContext(grid, params, lam0, aux, trunc)


# ---------------------------------------------------------------------------
# surface helpers
# ---------------------------------------------------------------------------


def _tangent_from_cartesian(grid: VolumeGrid, vec: np.ndarray) -> TangentField:
    g = grid.sphere
    _, that, phat = g.unit_vectors()
    return TangentField(
        g,
        t_theta=np.einsum("iab,iab->ab", vec, that),
        t_phi=np.einsum("iab,iab->ab", vec, phat),
    )


def _kernel_term(grid: VolumeGrid, eta: SphereField) -> SphereField:
    """(1/4pi) n . int eta n dS as a SphereField (1/3 of the projector)."""
    g = grid.sphere
    ns = normal_component_fields(g)
    out = np.zeros((g.n_theta, g.n_phi))
    for nk in ns:
        out += integrate_sphere(eta * nk) * nk.values / (4.0 * np.pi)
    return SphereField(g, values=out)


def _flat_stress(jac: VolumeField, p: VolumeField, mu1: float, mu2: float) -> VolumeField:
    """Cauchy stress mu (grad w + grad w^T) - q I from a Jacobian field."""
    eye = np.eye(3)[:, :, None, None, None]
    out = VolumeField.zeros(jac.grid, rank=2)
    for ph, mu in ((INTERIOR, mu1), (EXTERIOR, mu2)):
        J = jac.blocks[ph]
        out.blocks[ph] = mu * (J + np.einsum("ijrab->jirab", J)) - p.blocks[ph][None, None] * eye
    return out


def matvec(A: VolumeField, v: VolumeField) -> VolumeField:
    """Pointwise (A v)_i = A_ij v_j of a rank-2 and a rank-1 field."""
    Ai, Ae = A.blocks
    vi, ve = v.blocks
    return VolumeField(
        A.grid,
        Ai[:, 0] * vi[0] + Ai[:, 1] * vi[1] + Ai[:, 2] * vi[2],
        Ae[:, 0] * ve[0] + Ae[:, 1] * ve[1] + Ae[:, 2] * ve[2],
    )


def _traction_jump_eta(T_eta: VolumeField, grid: VolumeGrid) -> np.ndarray:
    """[[T^eta(.,.) n]] from the per-side traces of an assembled tensor."""
    rhat = grid.sphere.unit_vectors()[0]
    ti = np.einsum("ijab,jab->iab", T_eta.trace(INTERIOR), rhat)
    te = np.einsum("ijab,jab->iab", T_eta.trace(EXTERIOR), rhat)
    return ti - te


# ---------------------------------------------------------------------------
# the linear operator
# ---------------------------------------------------------------------------


def _minus_div_T(u: VolumeField, p: VolumeField, params: PhysicalParams):
    """-Div T(u, p) = -mu (lap u + grad div u) + grad p per phase, and div u."""
    lap = vector_laplacian(u)
    divu = vector_divergence(u)
    grad_div = scalar_gradient(divu)
    gp = scalar_gradient(p)
    f = VolumeField(
        u.grid,
        -params.mu1 * (lap.blocks[INTERIOR] + grad_div.blocks[INTERIOR]) + gp.blocks[INTERIOR],
        -params.mu2 * (lap.blocks[EXTERIOR] + grad_div.blocks[EXTERIOR]) + gp.blocks[EXTERIOR],
    )
    return f, divu


def apply_L(state: DropState, ctx: OperatorContext) -> YElement:
    grid, params, lam0 = ctx.grid, ctx.params, ctx.lambda0
    g = grid.sphere
    kappa, eta = state.kappa, state.eta
    mu1, mu2 = params.mu1, params.mu2
    # any remainder-pair content is differentiated via its closed form
    if state.tail != 0.0:
        u = state.u + (-state.tail) * ctx.U_tail
        p = state.p + (-state.tail) * ctx.P_tail
    else:
        u, p = state.u, state.p

    f, divu = _minus_div_T(u, p, params)
    if lam0 != 0.0:
        f = f + d3(u).phasewise_scale(params.rho1 * lam0, params.rho2 * lam0)
    if state.tail != 0.0:
        f = f + state.tail * ctx.sing_f
        divu = divu + state.tail * ctx.sing_g
        # traces and tractions keep using (u_reg, p_reg): the remainder pair
        # vanishes identically near the interface, and differentiating the
        # full field there would only add cutoff-kink spectral noise

    rhat = g.unit_vectors()[0]
    h1 = SphereField(
        g, values=np.einsum("iab,iab->ab", u.trace(INTERIOR), rhat)
    )
    jump = surface_traction_jump(u, p, grid, mu1, mu2)
    jump_n = np.einsum("iab,iab->ab", jump, rhat)
    h2 = _tangent_from_cartesian(grid, jump - jump_n[None] * rhat)
    drag_u = np.einsum("ab,iab->i", g.weights, jump)
    a1 = kappa * ctx.e3_drag + float(drag_u[2])
    a2 = integrate_sphere(eta)
    h3 = (
        params.sigma * (laplace_beltrami(eta) + 2.0 * eta)
        + _kernel_term(grid, eta)
        - kappa * ctx.jumpU_n
        - SphereField(g, values=jump_n)
    )
    return YElement(f, divu, h1, h2, a1, a2, h3)


def invert_L(y: YElement, ctx: OperatorContext) -> DropState:
    """Constructive inverse of the linear operator.

    Row 6 (int eta = a2) is never imposed; it comes out through the
    pressure-constant choice, which is the computable content of the
    homeomorphism argument.
    """
    grid, params, lam0 = ctx.grid, ctx.params, ctx.lambda0
    g = grid.sphere
    sigma = params.sigma
    mu1, mu2 = params.mu1, params.mu2
    # -Div T = f with Div u = g means -mu lap u + grad p = f + mu grad g
    f_eff = y.f
    if y.g.max_abs() > 0.0:
        gg = scalar_gradient(y.g)
        f_eff = y.f + VolumeField(grid, mu1 * gg.blocks[INTERIOR], mu2 * gg.blocks[EXTERIOR])
    sol = solve_two_phase(JumpData(f_eff, y.g, y.h1, y.h2), lam0, params, ctx.aux.solver)
    u, p = sol.u, sol.p
    jump = surface_traction_jump(u, p, grid, mu1, mu2)
    rhat = g.unit_vectors()[0]
    jump_n = np.einsum("iab,iab->ab", jump, rhat)
    int_jump_n = g.quad(jump_n)
    int_h3 = integrate_sphere(y.h3)
    c_p = (int_jump_n + int_h3 - 2.0 * sigma * y.a2) / (4.0 * np.pi)
    p = VolumeField(grid, p.blocks[INTERIOR] + c_p, p.blocks[EXTERIOR])
    jump_n_shifted = jump_n - c_p
    drag_e3 = float(np.einsum("ab,ab->", g.weights, jump[2] - c_p * rhat[2]))
    kappa = (y.a1 - drag_e3) / ctx.e3_drag
    psi = (
        y.h3
        + kappa * ctx.jumpU_n
        + SphereField(g, values=jump_n_shifted)
    )
    eta_par = 3.0 * project_kernel(psi)
    eta_perp = (1.0 / sigma) * solve_shifted(project_complement(psi))
    eta = eta_par + eta_perp
    return DropState(u, p, kappa, eta)


def invert_L_with_tail(y: YElement, lamc: float, ctx: OperatorContext) -> DropState:
    """Apply the inverse after splitting off the remainder response.

    The data decomposes as y = y_reg + lamc * Y_sing with Y_sing the
    image of the remainder pair X_tail; the preimage of the singular
    part is lamc * X_tail in closed form, so only y_reg goes through
    the discrete solve.  Exact algebra: the resulting map is the same
    inverse, evaluated without feeding cutoff kinks to the radial bases.
    """
    y_reg = YElement(
        y.f + (-lamc) * ctx.sing_f,
        y.g + (-lamc) * ctx.sing_g,
        y.h1,
        y.h2,
        y.a1,
        y.a2,
        y.h3,
    )
    st = invert_L(y_reg, ctx)
    st.u = st.u + lamc * ctx.U_tail
    st.p = st.p + lamc * ctx.P_tail
    st.tail = lamc
    return st


# ---------------------------------------------------------------------------
# the nonlinear right-hand side
# ---------------------------------------------------------------------------


def assemble_N(state: DropState, ctx: OperatorContext) -> YElement:
    grid, params = ctx.grid, ctx.params
    g = grid.sphere
    lam0 = ctx.lambda0
    rho_t = params.rho_tilde
    kappa, eta = state.kappa, state.eta
    lam = lam0 + kappa
    mu1, mu2 = params.mu1, params.mu2
    mp = build_map(HeightFunction(eta), grid)
    eye = np.eye(3)[:, :, None, None, None]

    u = state.u
    p = state.p
    # remainder-pair content is differentiated via its exact Leibniz form;
    # near the interface (and anywhere the geometry acts) it vanishes
    if state.tail != 0.0:
        u_reg = u + (-state.tail) * ctx.U_tail
        p_reg = p + (-state.tail) * ctx.P_tail
        jac_u = vector_gradient(u_reg) + state.tail * ctx.jac_tail
    else:
        u_reg, p_reg = u, p
        jac_u = vector_gradient(u)
    trunc = ctx.trunc
    UR, PR, jac_UR = trunc.U_R, trunc.P_R, trunc.jac_UR

    # transformed and flat stresses (the same primitive feeds rows 1, 4, 5, 7)
    T_eta_u = transformed_stress(jac_u, p, mp, mu1, mu2)
    T_flat_u = _flat_stress(jac_u, p, mu1, mu2)
    T_eta_U = transformed_stress(jac_UR, PR, mp, mu1, mu2)
    T_flat_U = _flat_stress(jac_UR, PR, mu1, mu2)

    from .volume import tensor_divergence

    # N1: geometric stress corrections plus advection and drift corrections
    divT_eta_U = tensor_divergence(T_eta_U - T_flat_U) + trunc.divT
    divT_diff_u = tensor_divergence(T_eta_u - T_flat_u)

    def rho_scale(fld):
        return fld.phasewise_scale(params.rho1, params.rho2)

    Au = matvec(mp.A, u)
    AUR = matvec(mp.A, UR)
    Ae3 = VolumeField(
        grid, mp.A.blocks[INTERIOR][:, 2], mp.A.blocks[EXTERIOR][:, 2]
    )
    e3f = VolumeField.zeros(grid, rank=1)
    e3f.blocks[INTERIOR][2] = 1.0
    e3f.blocks[EXTERIOR][2] = 1.0

    N1 = (
        lam * divT_eta_U
        + divT_diff_u
        - rho_scale(matvec(jac_u, Au))
        - lam * rho_scale(matvec(jac_u, AUR) + matvec(jac_UR, Au))
        - lam**2 * rho_scale(matvec(jac_UR, AUR))
        - kappa * rho_scale(matvec(jac_u, Ae3))
        - lam0 * rho_scale(matvec(jac_u, Ae3 - e3f))
        - lam**2 * rho_scale(matvec(jac_UR, Ae3))
    )

    # N2 and N3 (compatible pair; surface weight one, see module docstring)
    ImA = VolumeField(grid, eye - mp.A.blocks[INTERIOR], eye - mp.A.blocks[EXTERIOR])
    AmI_UR = matvec(VolumeField(grid, mp.A.blocks[INTERIOR] - eye, mp.A.blocks[EXTERIOR] - eye), UR)
    N2 = vector_divergence(matvec(ImA, u)) - lam * (
        vector_divergence(AmI_UR) + ctx.div_UR
    )

    rhat = g.unit_vectors()[0]
    u_surf = u.trace(INTERIOR)
    U_surf = ctx.aux.U.trace(INTERIOR)
    e3_surf = np.zeros_like(u_surf)
    e3_surf[2] = 1.0
    vec = u_surf + lam * (U_surf + e3_surf)
    N3_vals = np.einsum("iab,iab->ab", vec, rhat - mp.Ntil)
    N3 = SphereField(g, values=N3_vals)

    # N4: tangential-stress pullback differences
    jump_u_flat = surface_traction_jump(u_reg, p_reg, grid, mu1, mu2)
    jn = np.einsum("iab,iab->ab", jump_u_flat, rhat)
    P0_jump = jump_u_flat - jn[None] * rhat
    jump_eta_u = _traction_jump_eta(T_eta_u, grid)
    jump_eta_U = _traction_jump_eta(T_eta_U, grid)

    def A_Peta(x):
        px = np.einsum("ijab,jab->iab", mp.P_eta, x)
        return np.einsum("ijab,jab->iab", mp.A_surf, px)

    N4_vec = P0_jump - A_Peta(jump_eta_u) - lam * A_Peta(jump_eta_U)
    N4 = _tangent_from_cartesian(grid, N4_vec)

    # N5: surface-force pullback differences (Nanson weight)
    jumpU_flat = ctx.aux.traction_jump
    w = g.weights
    N5 = lam * float(
        np.einsum("ab,ab->", w, jumpU_flat[2] - jump_eta_U[2])
    ) + float(np.einsum("ab,ab->", w, jump_u_flat[2] - jump_eta_u[2]))

    # N6: volume-constraint remainder
    ev = eta.values
    N6 = -g.quad(ev**2 + ev**3 / 3.0)

    # N7: normal-stress pullback, quartic volume remainders, buoyancy, curvature
    Ntil, Nnorm = mp.Ntil, mp.Ntil_norm
    proj = lambda x: np.einsum("iab,iab->ab", Ntil, x) / Nnorm**2
    jumpU_n = ctx.jumpU_n.values
    quart = (1.5 * ev**2 + ev**3 + 0.25 * ev**4)
    int_quart = np.einsum("ab,ab,iab->i", w, quart, rhat)
    int_eta_n = np.einsum("ab,ab,iab->i", w, ev, rhat)
    nhat_gamma = Ntil / Nnorm[None]
    N7_vals = (
        proj(jump_eta_u)
        - jn
        + lam0 * proj(jump_eta_U)
        + kappa * (proj(jump_eta_U) - jumpU_n)
        - np.einsum("iab,i->ab", nhat_gamma, int_quart) / (4.0 * np.pi)
        + np.einsum("iab,i->ab", rhat - nhat_gamma, int_eta_n) / (4.0 * np.pi)
        - rho_t * (1.0 + ev) * rhat[2]
        + params.sigma * curvature_nonlinear(eta).values
    )
    N7 = SphereField(g, values=N7_vals)
    return YElement(N1, N2, N3, N4, N5, N6, N7)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

H1_ORDER = 1.75  # 2 - 1/r
H2_ORDER = 0.75  # 1 - 1/r


def _tangent_sobolev(t: TangentField, s: float) -> float:
    sc, tc = t.spec
    l = np.arange(t.band + 1, dtype=float)[:, None]
    wgt = (1.0 + l * (l + 1.0)) ** s * l * (l + 1.0)
    return float(np.sqrt(np.sum(wgt * (sc * sc + tc * tc))))


def norm_X(state: DropState, lambda0: float) -> dict:
    """Weighted solution-space norm surrogate, per component and total.

    Spectral (exponent-2) stand-ins replace the mixed Lebesgue norms; the
    second-order term uses the vector Laplacian.  Diagnostic only.
    """
    al = abs(lambda0)
    u, p = state.u, state.p
    jac = vector_gradient(u)
    n_u = (
        al**0.5 * norm_l2(u)
        + al**0.25 * norm_l2(jac)
        + norm_l2(vector_laplacian(u))
        + al * norm_l2(e3_column(jac))
    )
    gp = scalar_gradient(p)
    from .volume import integrate_phase

    p_int_sq = integrate_phase(p * p, INTERIOR)
    n_p = norm_l2(gp) + np.sqrt(max(p_int_sq, 0.0))
    n_eta = sobolev_norm(state.eta, ETA_SOBOLEV_ORDER)
    comps = {
        "u": n_u,
        "p": n_p,
        "kappa": abs(state.kappa),
        "eta": n_eta,
    }
    comps["total"] = n_u + n_p + abs(state.kappa) + n_eta
    return comps


def norm_Y(y: YElement) -> dict:
    comps = {
        "f": norm_l2(y.f),
        "g": norm_l2(y.g) + norm_l2(scalar_gradient(y.g)),
        "h1": sobolev_norm(y.h1, H1_ORDER),
        "h2": _tangent_sobolev(y.h2, H2_ORDER),
        "a1": abs(y.a1),
        "a2": abs(y.a2),
        "h3": sobolev_norm(y.h3, H2_ORDER),
    }
    comps["total"] = sum(comps.values())
    return comps
