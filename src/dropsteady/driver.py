"""Contraction iteration on the drop state and physical diagnostics.

The map is x -> (linear operator)^{-1} (nonlinear right side)(x), run
from the zero state, which is the translating drop lambda0 (U, P), the
centre of the paper's ball.  Its fixed point is the steady-state
perturbation (u, p, kappa, eta); the physical configuration is
reconstructed by adding back the translating-drop field lambda (U, P) and
pushing forward through the interface map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import ETA_SOBOLEV_ORDER, metric_pieces, stress
from .operators import (
    DropState,
    OperatorContext,
    PhysicalFields,
    apply_L,
    assemble_N,
    build_context,
    invert_L,
    matvec,
    norm_X,
    norm_Y,
)
from .sphere import PAD, SphereField, sobolev_norm
from .stokes import PhysicalParams, axisym_leakage, minus_div_T, oseenlet
from .volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    e3_column,
    eval_radii,
    grid_points,
    integrate_phase,
)

__all__ = [
    "AXISYMMETRIC_M_MAX",
    "SolveConfig",
    "SolutionBundle",
    "NonContraction",
    "picard_solve",
    "lambda_error_bar",
    "midshell_residual",
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

# The largest r_inf a config may set.  The radial quadrature carries powers
# of r_inf: from about 1e35 the volume integrals overflow.
R_INF_MAX = 1e30

# The most a config's grid may ask for in its largest tables, in bytes: the
# stacked Stokes operators, (L+1) 3n (3n+2) doubles with n = n_r_int +
# n_r_ext, and the sphere tables, six transform tables of (m_max+1)(P+1)(P+2)
# doubles at the grid's exact degree P and the d3 coupling's (m_max+1)
# 6(L+1) 12(L+1).  The README default needs 5.7 MB of them.  Without a
# bound, band_limit = 1000000 would ask numpy for terabytes and end in a
# MemoryError or an out-of-memory kill instead of a config error.
GRID_BYTES_MAX = 2**30

# The range a config may give each of mu1, mu2 and sigma.  At band_limit 4 a
# solve that does not converge fails with one line for sigma in [1e-160, 1e180]
# and mu in [1e-300, 1e150]; outside, numpy overflow warnings come first (the
# shifted-Laplacian solve's 1/sigma, the collocation condition bound).  The
# range's ends, in every combination and with r_inf in {9, 64, R_INF_MAX}, fail
# with one line too.  A solve converges only within a few decades of 1.
MATERIAL_RANGE = (1e-100, 1e100)


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
        # NaN passes every comparison below, and +inf some of them
        for key, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{key} must be finite, not {value}")
        self.params()  # checks the physical parameters
        lo, hi = MATERIAL_RANGE
        for key in ("mu1", "mu2", "sigma"):
            if not lo <= getattr(self, key) <= hi:
                raise ValueError(f"{key} must lie in [{lo:g}, {hi:g}]")
        if not (0.75 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (3/4, 1)")
        if not self.band_limit >= 1:
            raise ValueError("band_limit must be at least 1")
        # the exterior nodes are a Lobatto grid, which needs both end points
        if not (self.n_r_int >= 1 and self.n_r_ext >= 2):
            raise ValueError("n_r_int must be at least 1 and n_r_ext at least 2")
        # the bytes of the largest tables of the grid and its Stokes solver
        L, n, P = self.band_limit, self.n_r_int + self.n_r_ext, int(np.ceil(PAD * self.band_limit)) + 1
        m = AXISYMMETRIC_M_MAX + 1
        size = 8 * ((L + 1) * 3 * n * (3 * n + 2) + 6 * m * (P + 1) * (P + 2) + 72 * m * (L + 1) ** 2)
        if not size <= GRID_BYTES_MAX:
            raise ValueError(
                f"band_limit, n_r_int and n_r_ext need {size:.3g} bytes of tables, above {GRID_BYTES_MAX:.3g}"
            )
        # midshell_residual reads the shells in [4, r_inf/4] and the
        # far-field fit those in [r_inf/4, r_inf/2]; r_inf > 8 keeps the
        # fit's outer shell r_inf/2 beyond r = 4
        if not 8.0 < self.r_inf <= R_INF_MAX:
            raise ValueError(f"r_inf must lie in (8, {R_INF_MAX:g}]")
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
        super().__init__(
            f"fixed-point iteration stopped contracting after {len(history)} iterations "
            f"(last update {history[-1]['update']:.3e})"
        )
        self.history = history


@dataclass
class SolutionBundle:
    """A solve's final state with its report.  ``physical`` holds what the
    final residual pass's ``assemble_N`` derived from that state (its
    interface map, the physical pair and the Jacobian of w), which the
    diagnostics and the artifacts read instead of deriving it again."""

    config: SolveConfig
    ctx: OperatorContext
    state: DropState
    lam: float  # lambda0 + kappa
    physical: PhysicalFields
    history: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    # why the solve is not converged: "NotConverged" (the update never met
    # tol_fixed_point) or "Unresolved" (it did, but the fixed-point residual
    # exceeds FIXED_POINT_RESIDUAL_BOUND); None when it converged
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None

    @property
    def eta(self) -> SphereField:
        return self.state.eta


def picard_solve(
    config: SolveConfig,
    ctx: OperatorContext | None = None,
    initial: DropState | None = None,
) -> SolutionBundle:
    """Run the contraction map from ``initial``, by default from the zero
    state ``DropState.zeros``: the translating drop lambda0 (U, P) at the
    centre of the paper's ball.  ``ctx`` must be built for ``config.params()``.

    A solve converges once an update meets ``tol_fixed_point`` from the
    second update on, after which a contraction ratio has been measured and
    its ``lambda_error_bar`` is finite.  At rho_tilde = 0 the zero state is
    the quiescent sphere, the fixed point: both updates are 0, no ratio is
    measured and the bar is inf."""
    t0 = time.perf_counter()
    if ctx is None:
        ctx = build_context(config.build_grid(), config.params(), alpha=config.alpha)
    elif ctx.params != config.params():
        raise ValueError(f"the context was built for {ctx.params}, not for {config.params()}")
    grid = ctx.grid
    lam0 = ctx.lambda0
    history = []
    x = DropState.zeros(grid) if initial is None else initial
    prev_update = None
    converged = False
    for it in range(config.max_iters):
        y = assemble_N(x, ctx)[0]
        x_new = invert_L(y, ctx)
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
        if update <= config.tol_fixed_point and len(history) >= 2:
            converged = True
            break

    # fixed-point residual by direct substitution; the fields this N is
    # formed from are the converged state's, kept for the diagnostics
    Lx = apply_L(x, ctx)
    Nx, physical = assemble_N(x, ctx)
    rows = norm_Y(Lx.combine(Nx, 1.0, -1.0))
    residual = rows.pop("total")
    if not converged:
        failure = "NotConverged"
    elif not residual < FIXED_POINT_RESIDUAL_BOUND:
        failure = "Unresolved"
    else:
        failure = None
    bundle = SolutionBundle(config, ctx, x, lam0 + x.kappa, physical, history, failure=failure)
    bundle.report["fixed_point_residual"] = residual
    bundle.report.update({f"fixed_point_residual_{k}": v for k, v in rows.items()})
    bundle.report["ball_norm"] = norm_X(x, lam0)["total"]
    bundle.report["ball_radius"] = ctx.ball_radius
    ratios = [h["ratio"] for h in history if "ratio" in h]
    bundle.report["contraction_ratios"] = ratios
    lam_err = lambda_error_bar(ratios, history[-1]["update"])
    bundle.report["lambda"] = bundle.lam
    bundle.report["lambda_error_bar"] = lam_err
    bundle.report["lambda_nonzero"] = bool(abs(bundle.lam) > lam_err)
    bundle.timing["solve_s"] = time.perf_counter() - t0
    return bundle


def lambda_error_bar(ratios: list, last_update: float) -> float:
    """Banach a-posteriori bound q / (1 - q) * ||x_k - x_{k-1}||_X on the
    distance of the last iterate to the fixed point, which bounds its kappa
    (and so lambda) error; q is the largest measured contraction ratio.
    inf without a ratio below 1.  It covers the iteration error only, not
    the discretisation error of the grid."""
    q = max(ratios, default=1.0)
    return q / (1.0 - q) * last_update if q < 1.0 else float("inf")


# ---------------------------------------------------------------------------
# mid-shell residual of the steady equation
# ---------------------------------------------------------------------------


def midshell_residual(bundle: SolutionBundle) -> float:
    """Largest residual of the steady Navier-Stokes equation on the shells
    in [4, r_inf/4], from the physical pair (w, q) and the Jacobian of w
    that the final residual pass derived (``SolutionBundle.physical``).

    w = u + lambda U and q = p + lambda P undo the perturbation ansatz;
    on these shells the interface map is the identity, so they are the
    physical velocity and pressure themselves.
    """
    grid = bundle.ctx.grid
    params = bundle.ctx.params
    lam = bundle.lam
    _, w, q, jac_w = bundle.physical
    stress, _, _ = minus_div_T(w, q, params.mu1, params.mu2)
    inertia = matvec(jac_w, w) + lam * e3_column(jac_w)
    res = inertia.phasewise_scale(params.rho1, params.rho2) + stress
    r = grid.r
    # the shells in [4, r_inf/4], widened on grids with no node there; the
    # last window is never empty: r_inf > 8 is enforced and the last node is r_inf
    for top in (grid.r_inf / 4.0, grid.r_inf / 2.0, np.inf):
        sel = (r >= 4.0) & (r <= top)
        if sel.any():
            break
    return float(np.max(np.abs(res.values[:, sel])))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _relative_error(value, target):
    """|value - target| relative to |target|, or to 1 when the target is 0."""
    return abs(value - target) / (abs(target) or 1.0)


def _pullback_surface_force(bundle: SolutionBundle) -> np.ndarray:
    """int over the deformed interface of the stress jump, computed from
    the eta-parameterization (independent of the cofactor bookkeeping),
    with the interface map, the physical pressure and the Jacobian of the
    physical velocity that ``bundle.physical`` holds."""
    ctx = bundle.ctx
    g = ctx.grid.sphere
    mp, _, q, jac_w = bundle.physical
    ev, tth, tph, metric = metric_pieces(bundle.state.eta)
    sg = np.sqrt(metric)
    rhat, that, phat = g.unit_vectors()
    n_gamma = ((1.0 + ev)[None] * rhat - tth[None] * that - tph[None] * phat) / sg[None]
    area = (1.0 + ev) * sg  # dS_Gamma / dS under the graph parameterization
    total = np.zeros(3)
    for ph, mu in ((INTERIOR, ctx.params.mu1), (EXTERIOR, ctx.params.mu2)):
        G = np.einsum("ikab,kjab->ijab", jac_w.trace(ph), mp.F_inv.trace(ph))
        tn = np.einsum("ijab,jab->iab", stress(G, q.trace(ph), mu), n_gamma)
        sgn = 1.0 if ph == INTERIOR else -1.0
        total += sgn * np.einsum("ab,iab->i", g.weights * area, tn)
    return total


def diagnostics(bundle: SolutionBundle) -> dict:
    """The solve's report plus physical checks of its final state: volume
    and force balance, barycenter, axisymmetry, the far-field wake and the
    mid-shell residual.  They read the interface map, the physical pair
    and its Jacobian from ``bundle.physical``, so no quantity of the
    converged state is derived twice."""
    ctx = bundle.ctx
    grid = ctx.grid
    g = grid.sphere
    st = bundle.state
    cfg = bundle.config
    rep = dict(bundle.report)
    ev = st.eta.values
    rep["volume_defect"] = g.quad((1.0 + ev) ** 3 - 1.0)
    rep["eta_norm"] = sobolev_norm(st.eta, ETA_SOBOLEV_ORDER)

    mp = bundle.physical.mp
    force = _pullback_surface_force(bundle)
    target = cfg.rho_tilde * 4.0 * np.pi / 3.0
    rep["force_e3_defect_rel"] = _relative_error(force[2], target)
    rep["force_transverse_max"] = float(np.max(np.abs(force[:2])))
    rep["force_vector"] = force
    # barycenter of the deformed drop
    moment = (np.stack(grid_points(grid)) + mp.E.values) * mp.J.values
    rep["barycenter"] = np.array([integrate_phase(VolumeField(grid, m), INTERIOR) for m in moment])

    rep["axisym_leakage"] = axisym_leakage(st.u, st.eta.coeffs)
    rep.update(farfield_fit(bundle))
    rep["midshell_residual"] = midshell_residual(bundle)
    return rep


def farfield_fit(bundle: SolutionBundle) -> dict:
    """Least-squares wake coefficient against the fundamental solution.

    Fits c in v = c Gamma e3 over shells in [R_inf/4, R_inf/2] and the
    log-log decay slope of the remainder (nan if a shell has none).
    """
    ctx = bundle.ctx
    grid = ctx.grid
    g = grid.sphere
    lam = bundle.lam
    params = ctx.params
    w = bundle.physical.w
    radii = np.linspace(grid.r_inf / 4.0, grid.r_inf / 2.0, FARFIELD_SHELLS)
    vals = eval_radii(w, radii, EXTERIOR)  # (3, n_shell, nth, nph)
    th, phg = g.nodes
    r0 = radii[:, None, None]
    pts = np.stack(
        [r0 * np.sin(th) * np.cos(phg), r0 * np.sin(th) * np.sin(phg), r0 * np.cos(th)],
        axis=-1,
    )
    G3 = np.moveaxis(oseenlet(pts, lam, mu=params.mu2, rho=params.rho2)[..., 2], -1, 0)
    c_fit = np.einsum("ab,isab,isab->", g.weights, vals, G3) / np.einsum(
        "ab,isab,isab->", g.weights, G3, G3
    )
    target = bundle.config.rho_tilde * 4.0 * np.pi / 3.0
    rem = vals - c_fit * G3
    peak = np.max(np.abs(rem), axis=(0, 2, 3))  # scaled out: a tiny remainder's squares underflow
    slope = float("nan")
    if peak.all():
        unit = rem / peak[:, None, None]
        ms = np.einsum("ab,isab,isab->s", g.weights, unit, unit)
        slope = float(np.polyfit(np.log(radii), np.log(peak) + 0.5 * np.log(ms), 1)[0])
    return {
        "wake_coefficient": float(c_fit),
        "wake_target": float(target),
        "wake_rel_error": float(_relative_error(c_fit, target)),
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
    M = np.array([1.0, 1.0, -1.0])[:, None, None, None]
    d_u = float(np.max(np.abs(st1.u.values - M * st2.u.values[:, :, ::-1, :])))
    return {"eta": d_eta, "lambda": d_lam, "velocity": d_u}
