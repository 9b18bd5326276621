"""Contraction iteration on the drop state and physical diagnostics.

The map is x -> (linear operator)^{-1} (nonlinear right side)(x), run
from the zero state.  Its fixed point is the steady-state perturbation
(u, p, kappa, eta); the physical configuration is reconstructed by
adding back the truncated translating-drop field and pushing forward
through the interface map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import ETA_SOBOLEV_ORDER, HeightFunction, MapData, build_map
from .operators import (
    DropState,
    OperatorContext,
    _minus_div_T,
    apply_L,
    assemble_N,
    build_context,
    invert_L_with_tail,
    matvec,
    norm_X,
    norm_Y,
)
from .sphere import SphereField, sobolev_norm
from .stokes import PhysicalParams, axisym_leakage, oseenlet
from .volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    e3_column,
    eval_radii,
    integrate_phase,
    vector_gradient,
)

__all__ = [
    "AXISYMMETRIC_M_MAX",
    "SolveConfig",
    "SolutionBundle",
    "NonContraction",
    "picard_solve",
    "reconstruct_physical",
    "diagnostics",
    "mirror_defect",
]


# Largest azimuthal order on a solve's grid.  The steady drop is
# axisymmetric, and every field the solve analyses (Cartesian components of
# vectors, so also the rows of tensors) carries orders m <= 1; one more order
# is kept as margin.  validate and the tests build full grids.
AXISYMMETRIC_M_MAX = 2

# A converged solve must also satisfy the fixed-point equation to this
# residual (acceptance criterion 7's bound); an update below
# tol_fixed_point alone does not show that on an under-resolved grid.
FIXED_POINT_RESIDUAL_BOUND = 1e-8

FARFIELD_SHELLS = 6  # exterior shells in [R_inf/4, R_inf/2] the wake is fitted on


@dataclass
class SolveConfig:
    rho_tilde: float = 1e-3
    mu1: float = 1.0
    mu2: float = 1.0
    sigma: float = 1.0
    alpha: float = 0.8
    band_limit: int = 16
    n_r_int: int = 24
    n_r_ext: int = 40
    r_inf: float = 64.0
    max_iters: int = 60
    tol_fixed_point: float = 1e-9

    def __post_init__(self):
        self.params()  # checks the physical parameters
        if not (0.75 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (3/4, 1)")
        if not self.band_limit >= 1:
            raise ValueError("band_limit must be at least 1")
        # the exterior nodes are a Lobatto grid, which needs both end points
        if not (self.n_r_int >= 1 and self.n_r_ext >= 2):
            raise ValueError("n_r_int must be at least 1 and n_r_ext at least 2")
        # build_context clamps the truncation radius R to at most r_inf/2,
        # and truncate_field needs R > 4
        if not self.r_inf > 8.0:
            raise ValueError("r_inf must exceed 8")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol_fixed_point > 0.0:
            raise ValueError("tol_fixed_point must be positive")

    def params(self) -> PhysicalParams:
        return PhysicalParams(self.mu1, self.mu2, self.sigma, self.rho_tilde)

    def build_grid(self) -> VolumeGrid:
        return VolumeGrid.build(
            self.band_limit, self.n_r_int, self.n_r_ext, self.r_inf, m_max=AXISYMMETRIC_M_MAX
        )


class NonContraction(RuntimeError):
    def __init__(self, history):
        super().__init__("fixed-point iteration stopped contracting")
        self.history = history


@dataclass
class SolutionBundle:
    config: SolveConfig
    ctx: OperatorContext
    state: DropState
    lam: float  # lambda0 + kappa
    lambda0: float
    converged: bool
    history: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    # why the solve is not converged: "NotConverged" (the update never met
    # tol_fixed_point) or "Unresolved" (it did, but the fixed-point residual
    # exceeds FIXED_POINT_RESIDUAL_BOUND); None when it converged
    failure: str | None = None

    @property
    def eta(self) -> SphereField:
        return self.state.eta


def picard_solve(
    config: SolveConfig,
    ctx: OperatorContext | None = None,
    initial: DropState | None = None,
) -> SolutionBundle:
    """Run the contraction map from the (ball-centered) zero state."""
    t0 = time.perf_counter()
    if ctx is None:
        grid = config.build_grid()
        ctx = build_context(grid, config.params(), alpha=config.alpha)
    grid = ctx.grid
    lam0 = ctx.lambda0
    history = []
    if config.rho_tilde == 0.0:
        # the quiescent sphere is the trivial solution; nothing to iterate
        state = DropState.zeros(grid)
        bundle = SolutionBundle(config, ctx, state, 0.0, 0.0, True, history)
        bundle.timing["solve_s"] = time.perf_counter() - t0
        bundle.report["ball_norm"] = 0.0
        bundle.report["fixed_point_residual"] = 0.0
        return bundle

    x = DropState.zeros(grid) if initial is None else initial
    prev_update = None
    converged = False
    for it in range(config.max_iters):
        y = assemble_N(x, ctx)
        x_new = invert_L_with_tail(y, lam0 + x.kappa, ctx)
        dx = x_new.combine(x, 1.0, -1.0)
        update = norm_X(dx, lam0)["total"]
        entry = {"iter": it, "update": update}
        if prev_update is not None and prev_update > 0:
            entry["ratio"] = update / prev_update
        history.append(entry)
        # a non-finite update compares False with everything, so the
        # ratio and tolerance tests below would never stop the loop
        if not np.isfinite(update):
            raise NonContraction(history)
        ratios = [h["ratio"] for h in history if "ratio" in h]
        if len(ratios) >= 3 and all(rr >= 1.0 for rr in ratios[-3:]):
            raise NonContraction(history)
        x = x_new
        prev_update = update
        if update <= config.tol_fixed_point:
            converged = True
            break

    # fixed-point residual by direct substitution
    res = apply_L(x, ctx).combine(assemble_N(x, ctx), 1.0, -1.0)
    residual = norm_Y(res)["total"]
    if not converged:
        failure = "NotConverged"
    elif not residual < FIXED_POINT_RESIDUAL_BOUND:
        failure = "Unresolved"
    else:
        failure = None
    bundle = SolutionBundle(
        config, ctx, x, lam0 + x.kappa, lam0, failure is None, history, failure=failure
    )
    bundle.report["fixed_point_residual"] = residual
    bundle.report["ball_norm"] = norm_X(x, lam0)["total"]
    bundle.report["ball_radius"] = abs(config.rho_tilde) ** config.alpha
    bundle.report["contraction_ratios"] = [
        h["ratio"] for h in history if "ratio" in h
    ]
    lam_err = 10.0 * config.tol_fixed_point
    bundle.report["lambda"] = bundle.lam
    bundle.report["lambda_error_bar"] = lam_err
    bundle.report["lambda_nonzero"] = bool(abs(bundle.lam) > lam_err)
    bundle.timing["solve_s"] = time.perf_counter() - t0
    return bundle


# ---------------------------------------------------------------------------
# physical reconstruction
# ---------------------------------------------------------------------------


def physical_fields(bundle: SolutionBundle):
    """(w, q) with the remainder-pair content recombined smoothly.

    w = u + lam U_R; writing u = u_reg + tail (U - U_R) gives
    w = u_reg + tail U + (lam - tail) U_R, whose dominant parts live in
    the radial bases (the leftover U_R coefficient is the kappa lag of
    the final iteration).
    """
    ctx = bundle.ctx
    st = bundle.state
    lam = bundle.lam
    t = st.tail
    u_reg = st.u + (-t) * ctx.U_tail
    p_reg = st.p + (-t) * ctx.P_tail
    w = u_reg + t * ctx.aux.U + (lam - t) * ctx.trunc.U_R
    q = p_reg + t * ctx.aux.P + (lam - t) * ctx.trunc.P_R
    return w, q


def reconstruct_physical(bundle: SolutionBundle) -> dict:
    """(w, q, lambda, eta) on the reference domain plus equation residuals,
    and (for rho_tilde != 0) the Jacobian ``jac_w`` of w.

    w = u + lambda U_R and q = p + lambda P_R undo the perturbation
    ansatz; on shells where the interface map is the identity these are
    the physical velocity/pressure themselves.
    """
    ctx = bundle.ctx
    grid = ctx.grid
    st = bundle.state
    lam = bundle.lam
    w, q = physical_fields(bundle)
    out = {"w": w, "q": q, "lam": lam, "eta": st.eta}
    if bundle.config.rho_tilde == 0.0:
        out["midshell_residual"] = 0.0
        return out
    params = ctx.params
    jac_w = vector_gradient(w)
    out["jac_w"] = jac_w
    stress, divw = _minus_div_T(w, q, params)
    inertia = matvec(jac_w, w) + lam * e3_column(jac_w)
    res = inertia.phasewise_scale(params.rho1, params.rho2) + stress
    r = grid.exterior.r
    sel = (r >= 4.0) & (r <= ctx.trunc.R / 2.0)
    if not sel.any():
        sel = (r >= 4.0) & (r <= ctx.trunc.R)
    if not sel.any():
        # never empty: r_inf > 8 is enforced and the last node is r_inf
        sel = r >= 4.0
    out["midshell_residual"] = float(np.max(np.abs(res.blocks[EXTERIOR][:, sel])))
    out["divergence_residual"] = float(np.max(np.abs(divw.blocks[EXTERIOR][sel])))
    return out


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _pullback_surface_force(
    bundle: SolutionBundle, mp: MapData, q: VolumeField, jac_w: VolumeField
) -> np.ndarray:
    """int over the deformed interface of the stress jump, computed from
    the eta-parameterization (independent of the cofactor bookkeeping);
    ``mp`` is the interface map of ``bundle.eta``, ``q`` the physical
    pressure and ``jac_w`` the Jacobian of the physical velocity."""
    ctx = bundle.ctx
    grid = ctx.grid
    g = grid.sphere
    eta = bundle.state.eta
    from .sphere import surface_gradient

    tth, tph = surface_gradient(eta).components
    ev = eta.values
    metric = (1.0 + ev) ** 2 + tth**2 + tph**2
    sg = np.sqrt(metric)
    rhat, that, phat = g.unit_vectors()
    n_gamma = ((1.0 + ev)[None] * rhat - tth[None] * that - tph[None] * phat) / sg[None]
    area = (1.0 + ev) * sg  # dS_Gamma / dS under the graph parameterization
    total = np.zeros(3)
    for ph, mu in ((INTERIOR, ctx.params.mu1), (EXTERIOR, ctx.params.mu2)):
        J = jac_w.trace(ph)
        Fi = mp.F_inv.trace(ph)
        G = np.einsum("ikab,kjab->ijab", J, Fi)
        T = mu * (G + np.einsum("jiab->ijab", G)) - q.trace(ph)[None, None] * np.eye(3)[
            :, :, None, None
        ]
        tn = np.einsum("ijab,jab->iab", T, n_gamma)
        sgn = 1.0 if ph == INTERIOR else -1.0
        total += sgn * np.einsum("ab,iab->i", g.weights * area, tn)
    return total


def diagnostics(bundle: SolutionBundle) -> dict:
    ctx = bundle.ctx
    grid = ctx.grid
    g = grid.sphere
    st = bundle.state
    cfg = bundle.config
    rep = dict(bundle.report)
    ev = st.eta.values
    rep["volume_defect"] = g.quad((1.0 + ev) ** 3 - 1.0)
    rep["eta_norm"] = sobolev_norm(st.eta, ETA_SOBOLEV_ORDER)

    phys = reconstruct_physical(bundle)
    if cfg.rho_tilde != 0.0:
        mp = build_map(HeightFunction(st.eta), grid)
        force = _pullback_surface_force(bundle, mp, phys["q"], phys["jac_w"])
        target = cfg.rho_tilde * 4.0 * np.pi / 3.0
        rep["force_e3_defect_rel"] = abs(force[2] - target) / abs(target)
        rep["force_transverse_max"] = float(np.max(np.abs(force[:2])))
        rep["force_vector"] = force
        # barycenter of the deformed drop
        from .volume import grid_points

        x, y, z = grid_points(grid, INTERIOR)
        bary = []
        for comp, coord in enumerate((x, y, z)):
            integrand = VolumeField(
                grid,
                (coord + mp.E.blocks[INTERIOR][comp]) * mp.J.blocks[INTERIOR],
                np.zeros_like(mp.J.blocks[EXTERIOR]),
            )
            bary.append(integrate_phase(integrand, INTERIOR))
        rep["barycenter"] = np.array(bary)
    else:
        rep["force_e3_defect_rel"] = 0.0
        rep["force_transverse_max"] = 0.0
        rep["barycenter"] = np.zeros(3)

    rep["axisym_leakage"] = axisym_leakage(st.u, st.eta.coeffs)
    if cfg.rho_tilde != 0.0:
        rep.update(farfield_fit(bundle))
    rep["midshell_residual"] = phys["midshell_residual"]
    return rep


def farfield_fit(bundle: SolutionBundle) -> dict:
    """Least-squares wake coefficient against the fundamental solution.

    Fits c in v = c Gamma e3 over shells in [R_inf/4, R_inf/2] and the
    log-log decay slope of the remainder.
    """
    ctx = bundle.ctx
    grid = ctx.grid
    g = grid.sphere
    lam = bundle.lam
    params = ctx.params
    w, _ = physical_fields(bundle)
    radii = np.linspace(grid.r_inf / 4.0, grid.r_inf / 2.0, FARFIELD_SHELLS)
    vals = eval_radii(w, radii, EXTERIOR)  # (3, n_shell, nth, nph)
    th, phg = g.nodes
    num = 0.0
    den = 0.0
    G3 = np.zeros_like(vals)
    for i, r0 in enumerate(radii):
        pts = np.stack(
            [r0 * np.sin(th) * np.cos(phg), r0 * np.sin(th) * np.sin(phg), r0 * np.cos(th)],
            axis=-1,
        )
        Gm = oseenlet(pts, lam, mu=params.mu2, rho=params.rho2)
        G3[:, i] = np.moveaxis(Gm[..., :, 2], -1, 0)
        num += np.einsum("ab,iab,iab->", g.weights, vals[:, i], G3[:, i])
        den += np.einsum("ab,iab,iab->", g.weights, G3[:, i], G3[:, i])
    c_fit = num / den
    target = bundle.config.rho_tilde * 4.0 * np.pi / 3.0
    rem = vals - c_fit * G3
    rms = [
        float(np.sqrt(np.einsum("ab,iab,iab->", g.weights, rem[:, i], rem[:, i])))
        for i in range(len(radii))
    ]
    slope = float(np.polyfit(np.log(radii), np.log(np.maximum(rms, 1e-300)), 1)[0])
    return {
        "wake_coefficient": float(c_fit),
        "wake_target": float(target),
        "wake_rel_error": float(abs(c_fit - target) / abs(target)),
        "wake_remainder_slope": slope,
    }


def mirror_defect(b1: SolutionBundle, b2: SolutionBundle) -> dict:
    """Compare solve(rho) and solve(-rho) under x3 -> -x3.

    The colatitude grid is reflection-symmetric, so mirroring is an index
    flip plus sign change of the third components and of lambda.
    """
    st1, st2 = b1.state, b2.state
    eta1 = st1.eta.values
    eta2 = st2.eta.values[::-1, :]
    d_eta = float(np.max(np.abs(eta1 - eta2)))
    d_lam = abs(b1.lam + b2.lam)
    M = np.array([1.0, 1.0, -1.0])
    d_u = 0.0
    for ph in (INTERIOR, EXTERIOR):
        u1 = st1.u.blocks[ph]
        u2 = st2.u.blocks[ph][:, :, ::-1, :]
        mirrored = M[:, None, None, None] * u2
        d_u = max(d_u, float(np.max(np.abs(u1 - mirrored))))
    return {"eta": d_eta, "lambda": d_lam, "velocity": d_u}
