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

The interface rows are formed on coefficients: [[T(u,p) n]] comes as a
normal part (scalar coefficients) and a tangential part (spheroidal/toroidal
ones), row 4 is the tangential part, row 5 reads the force off the degree-1
coefficients (``stokes.traction_force``), and row 7 subtracts the normal
part; its kernel term is project_kernel(eta) / 3.  Each caller takes the
jump from what it holds: ``apply_L`` from the one analysis of
``stokes.minus_div_T``, ``invert_L`` from the Stokes solve's own channels,
and ``assemble_N`` at the nodes, from the stresses it forms.

The inverse follows the constructive recipe: hand rows 1-4 of the data
to ``stokes.solve_two_phase`` as L writes them (row 1 in the stress form
above; ``stokes.minus_div_T`` is the one -Div T, and its drift takes d3
on channels as the solve does, ``volume.d3_channels``) for (u, p), shift the
drop pressure by the constant that makes row 6 come out automatically,
read kappa off row 5, then split the height equation into the degree-1
kernel part and a shifted-Laplacian solve on its complement.

The nonlinear right-hand side N holds every term beyond L, written in the
perturbation of the physical fields (w, q) = (u + lambda U, p + lambda P),
lambda = lambda0 + kappa, with (U, P) the auxiliary field untruncated, so
that each term appears once and the zero state is the translating drop
lambda0 (U, P); with the interface map's cofactors A, Ntil = A^T n,
J_eta = [[T^eta(w,q) n]] and the flat jump J = [[T(u,p) n]], both nodal
off one Jacobian's traces, so that their (u, p) parts cancel at eta = 0:
  1. Div(T^eta(w,q) - T(w,q))
       - rho (grad w) A (w + lambda e3) + rho lambda0 d3 u   (L holds the drift)
  2. div((I - A) w) - lambda Div U
  3. (w + lambda e3) . (n - Ntil) on the sphere
  4. P0 J - A P_eta J_eta   (tangential projectors of the sphere and of the interface)
  5. e3 . int (J + lambda [[T(U,P)n]] - J_eta)
  6. -int (eta^2 + eta^3/3) dS
  7. Ntil . J_eta / |Ntil|^2 - n . J - kappa n.[[T(U,P)n]] + the volume,
       buoyancy and curvature remainders

(U, P) is a Stokes pair, Div T(U, P) = 0, so row 1 carries no lambda
term.  Div U = 0 as well, but its discrete divergence vanishes only to
rounding, and row 2 keeps it (``OperatorContext.divU``, formed once per
context): the solve then sees Div w = Div u + lambda Div U as it is.

Four of these are interface-map terms: Div(T^eta - T), div((I - A) w),
(w + lambda e3) . (n - Ntil) and the curvature remainder sigma G(eta).
They vanish under the identity map of eta = 0, at the translating drop
where a solve starts by default (T^eta = T bit for bit there), and
``assemble_N`` adds them only when eta has a coefficient.  Besides N it
returns the ``PhysicalFields`` it derived (the interface map, (w, q) and
grad w), so that the driver keeps the converged state's and derives none
of them again.

The norms ``norm_X`` and ``norm_Y`` are taken on channels and coefficients
by Parseval (``volume.channel_norm_l2``), with no nodal derivative.

Surface pullback weights: all interface integrals transform with the
Nanson factor (dS on the deformed interface = |A^T n| dS), i.e. the
pulled-back surface force is int [[T^eta(w,q) n]] dS with weight one.

Both stresses are the one law ``geometry.stress``: T^eta through
``geometry.transformed_stress`` and the flat T of row 1 directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .geometry import (
    ETA_SOBOLEV_ORDER,
    HeightFunction,
    MapData,
    build_map,
    curvature_nonlinear,
    stress,
    transformed_stress,
)
from .sphere import (
    SphereField,
    TangentField,
    integrate_sphere,
    laplace_beltrami,
    project_complement,
    project_kernel,
    sobolev_norm,
    solve_shifted,
)
from .stokes import (
    AuxiliaryField,
    PhysicalParams,
    YElement,
    auxiliary_field,
    lambda0_value,
    minus_div_T,
    solve_two_phase,
    traction_force,
)
from .volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    analysis_batch,
    chan_radial_deriv,
    channel_norm_l2,
    d3_channels,
    e3_column,
    mode_gradient,
    mode_laplacian,
    norm_l2,
    tensor_divergence,
    vector_divergence,
    vector_gradient,
    vector_radial_deriv,
    vsh_channels,
)

__all__ = [
    "DropState",
    "PhysicalFields",
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
    """State tuple: the perturbation (u, p) of lambda (U, P), kappa and
    eta.  The zero state is the translating drop lambda0 (U, P)."""

    u: VolumeField
    p: VolumeField
    kappa: float
    eta: SphereField

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "DropState":
        return cls(
            VolumeField.zeros(grid, rank=1),
            VolumeField.zeros(grid),
            0.0,
            SphereField.zeros(grid.sphere),
        )

    def combine(self, other: "DropState", a: float, b: float) -> "DropState":
        """a self + b other, field by field."""
        return DropState(*(a * getattr(self, k.name) + b * getattr(other, k.name) for k in fields(self)))


class PhysicalFields(NamedTuple):
    """What ``assemble_N`` derives from a state besides N: the interface map
    of its eta, the physical pair (w, q) = ``OperatorContext.physical_pair``
    and the Jacobian of w, whose lambda U part is the auxiliary field's."""

    mp: MapData
    w: VolumeField
    q: VolumeField
    jac_w: VolumeField


@dataclass(frozen=True)
class OperatorContext:
    """Precomputed environment shared by apply/invert/assemble, frozen: a
    context at another lambda0 is ``dataclasses.replace(ctx, lambda0=...)``.

    ``aux`` is the auxiliary field (U, P), untruncated: a state is the
    perturbation of lambda (U, P), so the zero state is the translating
    drop lambda0 (U, P), the centre of the paper's ball, where the Picard
    iteration starts.  ``divU`` is the discrete Div U, zero to rounding,
    which row 2 of N carries.  ``ball_radius`` = |rho_tilde|^alpha is the
    radius of the ball, which the solve's ``ball_norm`` is checked against.
    """

    grid: VolumeGrid
    params: PhysicalParams
    lambda0: float
    aux: AuxiliaryField
    divU: VolumeField
    ball_radius: float

    def physical_pair(self, state: DropState) -> tuple[VolumeField, VolumeField]:
        """The perturbation (w, q) = (u + lambda U, p + lambda P) of the
        physical velocity and pressure, lambda = lambda0 + kappa."""
        lam = self.lambda0 + state.kappa
        return state.u + lam * self.aux.U, state.p + lam * self.aux.P

    @property
    def jumpU_n(self) -> SphereField:
        """Normal part of [[T(U, P) n]]."""
        return self.aux.traction_jump[0]

    @property
    def e3_drag(self) -> float:
        return self.aux.e3_drag


def build_context(
    grid: VolumeGrid,
    params: PhysicalParams,
    alpha: float = 0.8,
    aux: AuxiliaryField | None = None,
) -> OperatorContext:
    """Assemble the operator environment: lambda0, the auxiliary field and
    its discrete divergence, and the ball radius |rho_tilde|^alpha.

    ``aux`` is an auxiliary field already built on ``grid`` with the
    viscosities of ``params``; without it one is built here.
    """
    if aux is None:
        aux = auxiliary_field(grid, params)
    elif aux.solver.grid is not grid or (aux.solver.mu1, aux.solver.mu2) != (params.mu1, params.mu2):
        raise ValueError("the auxiliary field was built on another grid or other viscosities")
    lam0 = lambda0_value(params.rho_tilde, aux.e3_drag)
    divU = vector_divergence(aux.U)
    return OperatorContext(grid, params, lam0, aux, divU, abs(params.rho_tilde) ** alpha)


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


def matvec(A: VolumeField, v: VolumeField) -> VolumeField:
    """Pointwise (A v)_i = A_ij v_j of a rank-2 and a rank-1 field."""
    return VolumeField(A.grid, np.einsum("ijrab,jrab->irab", A.values, v.values))


def _traction_jump(grid: VolumeGrid, T_int: np.ndarray, T_ext: np.ndarray) -> np.ndarray:
    """Cartesian [[T n]] at the nodes of r = 1 from a stress's drop-side and reservoir-side traces."""
    rhat = grid.sphere.unit_vectors()[0]
    return np.einsum("ijab,jab->iab", T_int, rhat) - np.einsum("ijab,jab->iab", T_ext, rhat)


# ---------------------------------------------------------------------------
# the linear operator
# ---------------------------------------------------------------------------


def apply_L(state: DropState, ctx: OperatorContext) -> YElement:
    grid, params, lam0 = ctx.grid, ctx.params, ctx.lambda0
    g = grid.sphere
    u, kappa, eta = state.u, state.kappa, state.eta

    drift = (params.rho1 * lam0, params.rho2 * lam0)
    f, divu, (jump_n, h2) = minus_div_T(u, state.p, params.mu1, params.mu2, drift)

    rhat = g.unit_vectors()[0]
    h1 = SphereField(
        g, values=np.einsum("iab,iab->ab", u.trace(INTERIOR), rhat)
    )
    a1 = kappa * ctx.e3_drag + float(traction_force((jump_n, h2))[2])
    a2 = integrate_sphere(eta)
    h3 = (
        params.sigma * (laplace_beltrami(eta) + 2.0 * eta)
        + (1.0 / 3.0) * project_kernel(eta)
        - kappa * ctx.jumpU_n
        - jump_n
    )
    return YElement(f, divu, h1, h2, a1, a2, h3)


def invert_L(y: YElement, ctx: OperatorContext) -> DropState:
    """Constructive inverse of the linear operator.

    Row 6 (int eta = a2) is never imposed; it comes out through the
    pressure-constant choice, which is the computable content of the
    homeomorphism argument.  int eta = int psi / (2 sigma) for psi below,
    so c_p takes in every term of psi, kappa's included.
    """
    params = ctx.params
    g = ctx.grid.sphere
    sigma = params.sigma
    solver = ctx.aux.solver
    sol = solve_two_phase(y, ctx.lambda0, params, solver)
    u, p = sol.u, sol.p
    jump = solver.traction_jump(*sol.channels)
    # the pressure shift below is constant, so it leaves the force unchanged
    kappa = (y.a1 - float(traction_force(jump)[2])) / ctx.e3_drag
    int_psi = integrate_sphere(jump[0]) + integrate_sphere(y.h3) + kappa * integrate_sphere(ctx.jumpU_n)
    c_p = (int_psi - 2.0 * sigma * y.a2) / (4.0 * np.pi)
    p.blocks[INTERIOR][...] += c_p
    psi = y.h3 + kappa * ctx.jumpU_n + (jump[0] - SphereField.constant(g, c_p))
    eta = 3.0 * project_kernel(psi) + (1.0 / sigma) * solve_shifted(project_complement(psi))
    return DropState(u, p, kappa, eta)


# kept only so that the benchmark tracer's target list resolves
def invert_L_with_tail(y: YElement, lamc: float, ctx: OperatorContext) -> DropState:
    return invert_L(y, ctx)


# ---------------------------------------------------------------------------
# the nonlinear right-hand side
# ---------------------------------------------------------------------------


def assemble_N(state: DropState, ctx: OperatorContext) -> tuple[YElement, PhysicalFields]:
    """Every term of the steady equations beyond L, in the perturbation
    (w, q) of ``OperatorContext.physical_pair``; see the module docstring.
    Returns N and the ``PhysicalFields`` it was formed from.

    The interface-map terms, Div(T^eta - T), div((I - A) w),
    (w + lambda e3) . (n - Ntil) and sigma G(eta), are added only when eta
    has a coefficient: under the identity map they vanish exactly, and
    T^eta = T bit for bit."""
    grid, params, aux = ctx.grid, ctx.params, ctx.aux
    g = grid.sphere
    lam0 = ctx.lambda0
    kappa, eta = state.kappa, state.eta
    lam = lam0 + kappa
    mu1, mu2 = params.mu1, params.mu2
    mp = build_map(HeightFunction(eta), grid)
    moves = not mp.identity
    eye = np.eye(3)[:, :, None, None, None]

    jac_u = vector_gradient(state.u)
    w, q = ctx.physical_pair(state)
    jac_w = jac_u + lam * aux.jacU
    vel = VolumeField(grid, w.values + lam * eye[2])  # w + lambda e3, in the frame of the drop
    T_flat = stress(jac_w.values, q.values, grid.phase_profile(mu1, mu2))
    # under the identity map T^eta = T bit for bit
    T_eta = transformed_stress(jac_w, q, mp, mu1, mu2) if moves else VolumeField(grid, T_flat)

    # N1: geometric stress correction and advection, less the drift L holds;
    # N2 and N3: a compatible pair (surface weight one, see module docstring)
    adv = matvec(jac_w, matvec(mp.A, vel)) + (-lam0) * e3_column(jac_u)
    N1 = adv.phasewise_scale(-params.rho1, -params.rho2)
    N2 = (-lam) * ctx.divU
    N3 = SphereField.zeros(g)
    rhat = g.unit_vectors()[0]
    if moves:  # the interface-map terms, zero under the identity map
        N1 = tensor_divergence(VolumeField(grid, T_eta.values - T_flat)) + N1
        N2 = vector_divergence(matvec(VolumeField(grid, eye - mp.A.values), w)) + N2
        N3 = SphereField(g, values=np.einsum("iab,iab->ab", vel.trace(INTERIOR), rhat - mp.Ntil))

    # N4, N5, N7: the flat jump J of (u, p) against the pulled-back J_eta
    sides = ((INTERIOR, mu1), (EXTERIOR, mu2))
    J = _traction_jump(grid, *(stress(jac_u.trace(ph), state.p.trace(ph), mu) for ph, mu in sides))
    J_eta = _traction_jump(grid, T_eta.trace(INTERIOR), T_eta.trace(EXTERIOR))
    AP_J_eta = np.einsum("ijab,jkab,kab->iab", mp.A_surf, mp.P_eta, J_eta)
    N4 = _tangent_from_cartesian(grid, J - AP_J_eta)
    weights = g.weights
    N5 = g.quad(J[2] - J_eta[2]) + lam * ctx.e3_drag

    # N6: volume-constraint remainder
    ev = eta.values
    N6 = -g.quad(ev**2 + ev**3 / 3.0)

    # N7: normal-stress pullback, quartic volume remainders, buoyancy, curvature
    Ntil, Nnorm = mp.Ntil, mp.Ntil_norm
    quart = (1.5 * ev**2 + ev**3 + 0.25 * ev**4)
    int_quart = np.einsum("ab,ab,iab->i", weights, quart, rhat)
    int_eta_n = np.einsum("ab,ab,iab->i", weights, ev, rhat)
    nhat_gamma = Ntil / Nnorm[None]
    N7_vals = (
        np.einsum("iab,iab->ab", Ntil, J_eta) / Nnorm**2
        - np.einsum("iab,iab->ab", rhat, J)
        - kappa * ctx.jumpU_n.values
        - np.einsum("iab,i->ab", nhat_gamma, int_quart) / (4.0 * np.pi)
        + np.einsum("iab,i->ab", rhat - nhat_gamma, int_eta_n) / (4.0 * np.pi)
        - params.rho_tilde * (1.0 + ev) * rhat[2]
    )
    if moves:
        N7_vals = N7_vals + params.sigma * curvature_nonlinear(eta).values
    N7 = SphereField(g, values=N7_vals)
    return YElement(N1, N2, N3, N4, N5, N6, N7), PhysicalFields(mp, w, q, jac_w)


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


def _gradient_norm(f: VolumeField) -> tuple[float, np.ndarray]:
    """|grad f| of a scalar by Parseval, int |grad f|^2 = sum f'^2 + l(l+1)
    f^2 / r^2 per shell, and the coefficients of f it was read from."""
    grid = f.grid
    c = analysis_batch(grid.sphere, f.values, grid.sphere.band_limit)
    grad = mode_gradient((c, chan_radial_deriv(grid, c, 0, 1)), grid.radius_mesh())
    return channel_norm_l2(grid, np.stack(grad)), c


def norm_X(state: DropState, lambda0: float) -> dict:
    """Weighted solution-space norm surrogate, per component and total.

    Spectral (exponent-2) stand-ins replace the mixed Lebesgue norms:
    |lambda0|^(1/2) |u| + |lambda0|^(1/4) |grad u| + |lap u| + |lambda0|
    |d3 u| for u and |grad p| + |p|_(drop) for p, each an L^2 norm over the
    truncated domain.  They are evaluated by Parseval on the (P, v, w)
    channels of u and the coefficients of p (``volume.channel_norm_l2``),
    with |lap u| from the channels of ``mode_laplacian``, |d3 u| from those
    of ``d3_channels`` and, on a shell of radius r, per mode

      int |grad u|^2 = sum P'^2 + l(l+1) (v'^2 + w'^2)
          + [(l(l+1) + 2) P^2 - 4 l(l+1) P v + l^2(l+1)^2 (v^2 + w^2)] / r^2,
      int |grad p|^2 = sum p'^2 + l(l+1) p^2 / r^2.

    They equal the nodal forms except for content at the band edge (degree
    L, or order m_max on a band grid), whose nodal Cartesian derivatives
    would need degree L + 1 or order m_max + 1.  Diagnostic only.
    """
    al = abs(lambda0)
    grid = state.u.grid
    r, ll1 = grid.radius_mesh(), grid.ll1
    U = vsh_channels(state.u)
    dU = [vector_radial_deriv(grid, U, k) for k in (1, 2)]
    P, v, w = U
    # the 1/r^2 bracket above as a sum of squares, so that it does not
    # cancel on a rigid translation's l = 1 channels, P = v
    ang = ll1 * (P - v) ** 2 + 2.0 * (P - 0.5 * ll1 * v) ** 2 + 0.5 * ll1 * (ll1 - 2.0) * v**2
    ang += ll1**2 * w**2
    n_u = (
        al**0.5 * channel_norm_l2(grid, U)
        + al**0.25 * channel_norm_l2(grid, dU[0], extra=ang / r**2)
        + channel_norm_l2(grid, np.stack(mode_laplacian(*zip(U, *dU), r, ll1)))
        + al * channel_norm_l2(grid, d3_channels(grid, U, dU[0]))
    )
    n_grad_p, pc = _gradient_norm(state.p)
    n_p = n_grad_p + channel_norm_l2(grid, grid.phase_profile(1.0, 0.0) * pc[None])  # p on the drop
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
    """Data-space norm surrogate, per row and total: L^2 for f, H^1 for g
    (|grad g| by Parseval, as |grad p| in ``norm_X``), and the Sobolev
    norms of the surface rows on their coefficients."""
    comps = {
        "f": norm_l2(y.f),
        "g": norm_l2(y.g) + _gradient_norm(y.g)[0],
        "h1": sobolev_norm(y.h1, H1_ORDER),
        "h2": _tangent_sobolev(y.h2, H2_ORDER),
        "a1": abs(y.a1),
        "a2": abs(y.a2),
        "h3": sobolev_norm(y.h3, H2_ORDER),
    }
    comps["total"] = sum(comps.values())
    return comps
