"""Two-phase Stokes/Oseen solver on the ball/exterior reference domain.

Per spherical-harmonic degree l the Stokes operator reduces to a radial
two-point boundary value problem for the spheroidal channels (P, v,
pressure) and the toroidal channel w, coupled through the interface
conditions at r = 1: continuous velocity, prescribed normal velocity,
prescribed tangential stress jump.  Both phases are discretized by
Chebyshev collocation on the nodal tables of ``radial`` (interior: parity
bases in r; exterior: polynomial in s = 1/r, which structurally excludes
the growing solution family), and each degree is a least-squares system.
The solver's constructor pseudo-inverts every degree once and keeps, per
channel, one stacked operator (L+1, n_out, n_in) from nodal data to nodal
profiles; a solve is one batched matmul per channel over all degrees and
the orders the grid carries, between the sphere transforms.

The drift (Oseen) term rho * lambda0 * d3 u is iterated: each Richardson
step moves it to the right-hand side of a pure Stokes solve.  The
contraction factor is O(lambda0), which is the regime the surrounding
fixed-point scheme operates in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import cutoff_unit, cutoff_unit_d1, cutoff_unit_d2
from .sphere import (
    SphereField,
    TangentField,
    integrate_sphere,
    normal_component_fields,
    synthesis_batch,
    tangent_synthesis_batch,
)
from .volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    _chan_radial_deriv,
    analysis_batch,
    d3,
    eval_radii,
    integrate_phase,
    norm_l2,
    scalar_gradient,
    vector_gradient,
    vector_laplacian,
    vsh_assemble,
    vsh_channels,
)

__all__ = [
    "PhysicalParams",
    "JumpData",
    "TwoPhaseSolution",
    "TwoPhaseStokesSolver",
    "solve_two_phase",
    "AuxiliaryField",
    "auxiliary_field",
    "axisym_leakage",
    "surface_traction_jump",
    "lambda0_value",
    "TruncatedAux",
    "truncate_field",
    "oseenlet",
    "RichardsonDivergence",
]


@dataclass
class PhysicalParams:
    """Nondimensional material parameters; rho1 + rho2 = 1 by convention."""

    mu1: float = 1.0
    mu2: float = 1.0
    sigma: float = 1.0
    rho_tilde: float = 0.0

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu2 <= 0 or self.sigma <= 0:
            raise ValueError("viscosities and surface tension must be positive")
        if abs(self.rho_tilde) >= 1.0:
            raise ValueError("|rho_tilde| must be below the total density 1")

    @property
    def rho1(self) -> float:
        return (1.0 + self.rho_tilde) / 2.0

    @property
    def rho2(self) -> float:
        return (1.0 - self.rho_tilde) / 2.0


@dataclass
class JumpData:
    """Right-hand-side element: volumetric, interface and scalar data."""

    f: VolumeField
    g: VolumeField
    h1: SphereField
    h2: TangentField
    a1: float = 0.0
    a2: float = 0.0
    h3: SphereField | None = None

    def compatibility_defect(self) -> float:
        """int_{B1} g dx - int_{S2} h1 dS (must vanish for solvability)."""
        return integrate_phase(self.g, INTERIOR) - integrate_sphere(self.h1)


@dataclass
class TwoPhaseSolution:
    u: VolumeField
    p: VolumeField
    diagnostics: dict = field(default_factory=dict)


class RichardsonDivergence(RuntimeError):
    def __init__(self, ratios):
        super().__init__(f"Oseen drift iteration diverged; ratios {ratios}")
        self.ratios = ratios


# ---------------------------------------------------------------------------
# per-degree collocation matrices, stacked into one solve operator per channel
# ---------------------------------------------------------------------------


def _radial_laplacian(rad, parity: int, l: int) -> np.ndarray:
    """d^2/dr^2 + (2/r) d/dr - l(l+1)/r^2 on one phase's basis of a parity."""
    B0, B1, B2 = rad.tables[parity]
    r = rad.r[:, None]
    return B2 + 2.0 / r * B1 - l * (l + 1.0) / r**2 * B0


def _spheroidal_block(rad, l: int, mu: float) -> np.ndarray:
    """Radial momentum, spheroidal momentum and divergence rows of one phase
    on its (P, v, p) coefficients; P and v have parity l + 1, p parity l."""
    r = rad.r[:, None]
    B0, B1, _ = rad.tables[(l + 1) % 2]
    C0, C1, _ = rad.tables[l % 2]
    ll1 = l * (l + 1.0)
    Dl = _radial_laplacian(rad, (l + 1) % 2, l)
    return np.block(
        [
            [-mu * (Dl - 2.0 / r**2 * B0), -mu * (2.0 * ll1 / r**2 * B0), C1],
            [-mu * 2.0 / r**2 * B0, -mu * Dl, C0 / r],
            [B1 + 2.0 / r * B0, -ll1 / r * B0, np.zeros_like(B0)],
        ]
    )


def _surface(rad, parity: int):
    """Basis values and r-derivatives at r = 1."""
    B0, B1, _ = rad.tables[parity]
    return B0[rad.i_surface], B1[rad.i_surface]


def _solve_operator(M, data_rows, bases, drop_rows=(), drop_cols=()) -> np.ndarray:
    """Nodal outputs from the right-hand side of M x = b on ``data_rows``
    (zero on the other rows).

    The least-squares system leaves out ``drop_rows`` and ``drop_cols`` (the
    dropped unknowns are zero) and scales each row to unit max.  ``bases``
    map consecutive blocks of x to nodal values.
    """
    rows = np.setdiff1d(np.arange(M.shape[0]), drop_rows)
    cols = np.setdiff1d(np.arange(M.shape[1]), drop_cols)
    A = M[np.ix_(rows, cols)]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    pinv = np.zeros(M.shape[::-1])
    pinv[np.ix_(cols, rows)] = np.linalg.pinv(A / scale[:, None], rcond=1e-13) / scale
    blocks = np.split(pinv[:, data_rows], np.cumsum([len(B) for B in bases])[:-1])
    return np.concatenate([B @ x for B, x in zip(bases, blocks)])


def _spheroidal_operator(gi, ge, l: int, mu1: float, mu2: float) -> np.ndarray:
    """Nodal (P, v, p) of the drop, then of the reservoir, from the nodal
    data (fP, fv, g) of each phase, h1 and h2s, at degree l."""
    Mi, Me = gi.n, ge.n
    n_x = 3 * (Mi + Me)
    c = np.cumsum([0, Mi, Mi, Mi, Me, Me, Me])  # unknown block k is c[k]:c[k+1]
    b0i, b1i = _surface(gi, (l + 1) % 2)
    b0e, b1e = _surface(ge, 0)
    # rows: momentum and divergence per phase, [[P]] = 0, P = h1, [[v]] = 0,
    # the tangential stress jump h2s, decay of (P, v, p) at infinity, and
    # the pressure mean.  The row order sets the rounding of the pseudo-
    # inverse: putting the data rows first moves lambda by 1.7e-11 relative.
    M = np.zeros((n_x + 8, n_x))
    M[: c[3], : c[3]] = _spheroidal_block(gi, l, mu1)
    M[c[3] : n_x, c[3] :] = _spheroidal_block(ge, l, mu2)
    M[n_x, c[0] : c[1]], M[n_x, c[3] : c[4]] = b0i, -b0e
    M[n_x + 1, c[0] : c[1]] = b0i
    M[n_x + 2, c[1] : c[2]], M[n_x + 2, c[4] : c[5]] = b0i, -b0e
    M[n_x + 3, c[0] : c[1]] = mu1 * b0i
    M[n_x + 3, c[1] : c[2]] = mu1 * (b1i - b0i)
    M[n_x + 3, c[3] : c[4]] = -mu2 * b0e
    M[n_x + 3, c[4] : c[5]] = -mu2 * (b1e - b0e)
    for k in range(3):
        M[n_x + 4 + k, c[3 + k] : c[4 + k]] = ge.basis_at_infinity
    B0i, C0i, B0e = gi.tables[(l + 1) % 2][0], gi.tables[l % 2][0], ge.tables[0][0]
    M[n_x + 7, c[2] : c[3]] = gi.wq @ C0i
    data_rows = np.r_[:n_x, n_x + 1, n_x + 3]
    bases = (B0i, B0i, C0i, B0e, B0e, B0e)
    if l == 0:  # no v: drop its unknowns, equations and data
        v = np.r_[c[1] : c[2], c[4] : c[5]]
        return _solve_operator(M, data_rows, bases, np.r_[v, n_x + 2, n_x + 3, n_x + 5], v)
    return _solve_operator(M, data_rows, bases, drop_rows=[n_x + 7])


def _toroidal_operator(gi, ge, l: int, mu1: float, mu2: float) -> np.ndarray:
    """Nodal w of each phase from the nodal fw of each phase and h2t (l >= 1)."""
    Mi, Me = gi.n, ge.n
    b0i, b1i = _surface(gi, l % 2)
    b0e, b1e = _surface(ge, 0)
    # rows: momentum per phase, [[w]] = 0, h2t, decay
    M = np.zeros((Mi + Me + 3, Mi + Me))
    M[:Mi, :Mi] = -mu1 * _radial_laplacian(gi, l % 2, l)
    M[Mi : Mi + Me, Mi:] = -mu2 * _radial_laplacian(ge, 0, l)
    M[Mi + Me, :Mi], M[Mi + Me, Mi:] = b0i, -b0e
    M[Mi + Me + 1, :Mi], M[Mi + Me + 1, Mi:] = mu1 * (b1i - b0i), -mu2 * (b1e - b0e)
    M[Mi + Me + 2, Mi:] = ge.basis_at_infinity
    data_rows = np.r_[: Mi + Me, Mi + Me + 1]
    return _solve_operator(M, data_rows, (gi.tables[l % 2][0], ge.tables[0][0]))


class TwoPhaseStokesSolver:
    """Solve operators of every degree for one (grid, mu1, mu2) triple.

    ``sph[l]`` maps the nodal spheroidal data of degree l (fP, fv, g in the
    drop, the same in the reservoir, then h1 and h2s) to the nodal (P, v, p)
    of the drop and then of the reservoir.  ``tor[l]`` maps (fw per phase,
    h2t) to w per phase.  At l = 0 the v and w blocks are zero.
    """

    def __init__(self, grid: VolumeGrid, mu1: float, mu2: float):
        self.grid = grid
        self.mu1 = mu1
        self.mu2 = mu2
        gi, ge = grid.interior, grid.exterior
        n = gi.n + ge.n
        L = grid.sphere.band_limit
        # filled one degree at a time: no per-degree pseudo-inverse is kept
        self.sph = np.zeros((L + 1, 3 * n, 3 * n + 2))
        self.tor = np.zeros((L + 1, n, n + 1))
        for l in range(L + 1):
            self.sph[l] = _spheroidal_operator(gi, ge, l, mu1, mu2)
            if l > 0:
                self.tor[l] = _toroidal_operator(gi, ge, l, mu1, mu2)

    def solve(self, data: JumpData, check_compat: bool = True) -> TwoPhaseSolution:
        """Pure Stokes solve (no drift) with pressure mean zero in the drop."""
        grid = self.grid
        g = grid.sphere
        L = g.band_limit
        if check_compat:
            defect = data.compatibility_defect()
            scale = max(
                1.0, data.g.max_abs(), np.max(np.abs(data.h1.values))
            )
            if abs(defect) > 1e-9 * scale:
                raise ValueError(
                    f"incompatible data: int g - int h1 = {defect:.3e}"
                )
        m = min(L, g.m_max)  # the grid carries no higher order
        ms = slice(L - m, L + m + 1)
        fPi, fvi, fwi = vsh_channels(data.f, INTERIOR)
        fPe, fve, fwe = vsh_channels(data.f, EXTERIOR)
        gmi = analysis_batch(g, data.g.blocks[INTERIOR], L)
        gme = analysis_batch(g, data.g.blocks[EXTERIOR], L)
        h1 = data.h1.with_band(L).coeffs
        h2s, h2t = data.h2.spec

        def apply(op, *blocks):
            """op[l] on the stacked data blocks (..., L+1, 2L+1) of every degree
            at once; returns the output profiles (n_out, L+1, 2L+1)."""
            x = np.concatenate([b[..., ms].reshape(-1, L + 1, 2 * m + 1) for b in blocks])
            out = np.zeros((op.shape[1], L + 1, 2 * L + 1))
            out[..., ms] = np.moveaxis(op @ np.moveaxis(x, 1, 0), 0, 1)
            return out

        Mi = grid.interior.n
        Pi, Vi, Qi, Pe, Ve, Qe = np.split(
            apply(self.sph, fPi, fvi, gmi, fPe, fve, gme, h1, h2s),
            np.cumsum([Mi, Mi, Mi, grid.exterior.n, grid.exterior.n]),
        )
        Wi, We = np.split(apply(self.tor, fwi, fwe, h2t), [Mi])
        u = VolumeField(
            grid,
            vsh_assemble(grid, INTERIOR, Pi, Vi, Wi),
            vsh_assemble(grid, EXTERIOR, Pe, Ve, We),
        )
        p = VolumeField(grid, synthesis_batch(g, Qi, L), synthesis_batch(g, Qe, L))
        return TwoPhaseSolution(u, p)


# ---------------------------------------------------------------------------
# Oseen drift by Richardson iteration
# ---------------------------------------------------------------------------


RICHARDSON_TOL = 1e-12  # stop once an update is below this share of the Stokes solve
RICHARDSON_MAX_ITER = 40


def solve_two_phase(
    data: JumpData,
    lambda0: float,
    params: PhysicalParams,
    solver: TwoPhaseStokesSolver,
) -> TwoPhaseSolution:
    """Solve the drifted two-phase system; drift handled by Richardson.

    The iteration solves Stokes with f - rho lambda0 d3(u_k) on the
    right; the recorded contraction ratios form the convergence
    certificate.  Divergence (ratio >= 1 three times running) raises.
    """
    sol = solver.solve(data)
    ratios = []
    if lambda0 != 0.0:
        prev_update = None
        u_prev = sol.u
        base = max(norm_l2(sol.u), 1e-300)
        for _ in range(RICHARDSON_MAX_ITER):
            drift = d3(u_prev).phasewise_scale(
                params.rho1 * lambda0, params.rho2 * lambda0
            )
            fd = VolumeField(
                data.f.grid,
                data.f.blocks[INTERIOR] - drift.blocks[INTERIOR],
                data.f.blocks[EXTERIOR] - drift.blocks[EXTERIOR],
            )
            nxt = solver.solve(
                JumpData(fd, data.g, data.h1, data.h2), check_compat=False
            )
            update = norm_l2(nxt.u - u_prev)
            if prev_update is not None and prev_update > 0:
                ratios.append(update / prev_update)
                if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
                    raise RichardsonDivergence(ratios[-3:])
            prev_update = update
            u_prev = nxt.u
            sol = nxt
            if update <= RICHARDSON_TOL * base:
                break
    sol.diagnostics["richardson_ratios"] = ratios
    return sol


def residual_report(u, p, data, lambda0, params, grid, mu1, mu2) -> dict:
    """Field-equation residual norms of a candidate solution."""
    lap = vector_laplacian(u)
    gp = scalar_gradient(p)
    mom = VolumeField(
        grid,
        -mu1 * lap.blocks[INTERIOR] + gp.blocks[INTERIOR] - data.f.blocks[INTERIOR],
        -mu2 * lap.blocks[EXTERIOR] + gp.blocks[EXTERIOR] - data.f.blocks[EXTERIOR],
    )
    if lambda0 != 0.0:
        drift = d3(u).phasewise_scale(params.rho1 * lambda0, params.rho2 * lambda0)
        mom = mom + drift
    from .volume import vector_divergence

    div = vector_divergence(u) - data.g
    jump_u = np.max(np.abs(u.jump()))
    h1_res = np.max(
        np.abs(
            np.einsum("iab,iab->ab", u.trace(INTERIOR), grid.sphere.unit_vectors()[0])
            - data.h1.values
        )
    )
    return {
        "momentum_l2": norm_l2(mom),
        "divergence_l2": norm_l2(div),
        "velocity_jump_max": jump_u,
        "normal_velocity_max": h1_res,
    }


# ---------------------------------------------------------------------------
# surface tractions and integrals
# ---------------------------------------------------------------------------


def _traction_modes(grid, phase, u: VolumeField, p: VolumeField, mu: float):
    g = grid.sphere
    L = g.band_limit
    P, v, w = vsh_channels(u, phase)
    pm = analysis_batch(g, p.blocks[phase], L)
    i0 = grid.radial(phase).i_surface
    dP = _chan_radial_deriv(grid, phase, P, 1, 1)[i0]
    dv = _chan_radial_deriv(grid, phase, v, 1, 1)[i0]
    dw = _chan_radial_deriv(grid, phase, w, 0, 1)[i0]
    t_r = 2.0 * mu * dP - pm[i0]
    t_s = mu * (dv + P[i0] - v[i0])
    t_t = mu * (dw - w[i0])
    return t_r, t_s, t_t


def _traction_nodal(grid, t_r, t_s, t_t):
    g = grid.sphere
    L = g.band_limit
    rhat, that, phat = g.unit_vectors()
    ur = synthesis_batch(g, t_r, L)
    tth, tph = tangent_synthesis_batch(g, t_s, t_t, L)
    return ur[None] * rhat + tth[None] * that + tph[None] * phat


def surface_traction_jump(u, p, grid, mu1, mu2):
    """[[T(u,p) n]]: drop-side minus reservoir-side traction, nodal (3, ...)."""
    ti = _traction_nodal(grid, *_traction_modes(grid, INTERIOR, u, p, mu1))
    te = _traction_nodal(grid, *_traction_modes(grid, EXTERIOR, u, p, mu2))
    return ti - te


def lambda0_value(rho_tilde: float, e3_drag: float) -> float:
    """First-order translation speed balancing buoyancy against the
    auxiliary-field stress-jump integral (linear in rho_tilde)."""
    return rho_tilde * (4.0 * np.pi / 3.0) / e3_drag


# ---------------------------------------------------------------------------
# auxiliary field
# ---------------------------------------------------------------------------


@dataclass
class AuxiliaryField:
    U: VolumeField
    P: VolumeField
    jacU: VolumeField
    drag: np.ndarray  # int [[T(U,P) n]] dS
    e3_drag: float
    dissipation: float
    traction_jump: np.ndarray  # nodal (3, n_theta, n_phi)
    normalization_constant: float
    checks: dict
    solver: TwoPhaseStokesSolver  # the solve operators U was solved with


def auxiliary_field(grid: VolumeGrid, params: PhysicalParams) -> AuxiliaryField:
    """Unit-translation two-phase Stokes field, normalized so that the
    surface integral of the normal stress jump vanishes."""
    g = grid.sphere
    _, _, n3 = normal_component_fields(g)
    data = JumpData(
        f=VolumeField.zeros(grid, rank=1),
        g=VolumeField.zeros(grid),
        h1=-1.0 * n3,
        h2=TangentField.zeros(g),
    )
    solver = TwoPhaseStokesSolver(grid, params.mu1, params.mu2)
    sol = solver.solve(data)
    U, P = sol.u, sol.p
    jump = surface_traction_jump(U, P, grid, params.mu1, params.mu2)
    rhat = g.unit_vectors()[0]
    normal_jump = np.einsum("iab,iab->ab", jump, rhat)
    c_norm = g.quad(normal_jump) / (4.0 * np.pi)
    # add the constant to the drop-phase pressure; the normal jump drops by it
    P = VolumeField(grid, P.blocks[INTERIOR] + c_norm, P.blocks[EXTERIOR])
    jump = jump - c_norm * rhat
    drag = np.einsum("ab,iab->i", g.weights, jump)
    jacU = vector_gradient(U)

    # dissipation: interior + exterior up to R_inf by quadrature; the
    # remote tail (forcing-free Stokes region) via the exact flux identity
    # 2 mu int_{r>R} |S|^2 = -int_{dB_R} u . T(u,p) rhat dS
    S_int = 0.5 * (jacU.blocks[INTERIOR] + np.einsum("ijrab->jirab", jacU.blocks[INTERIOR]))
    diss_int = 2.0 * params.mu1 * integrate_phase(
        VolumeField(grid, np.einsum("ijrab,ijrab->rab", S_int, S_int), np.zeros_like(jacU.blocks[EXTERIOR][0, 0])),
        INTERIOR,
    )
    S_ext = 0.5 * (jacU.blocks[EXTERIOR] + np.einsum("ijrab->jirab", jacU.blocks[EXTERIOR]))
    dens = np.einsum("ijrab,ijrab->rab", S_ext, S_ext)
    diss_range = 2.0 * params.mu2 * float(
        grid.exterior.integrate(np.einsum("ij,rij->r", g.weights, dens))
    )
    i_far = grid.exterior.i_far
    R_far = grid.exterior.r[i_far]
    u_far = U.blocks[EXTERIOR][:, i_far]
    S_far = S_ext[:, :, i_far]
    p_far = P.blocks[EXTERIOR][i_far]
    Tr = 2.0 * params.mu2 * np.einsum("ijab,jab->iab", S_far, rhat) - p_far[None] * rhat
    flux = R_far**2 * g.quad(np.einsum("iab,iab->ab", u_far, Tr))
    dissipation = diss_int + diss_range - flux

    tang = jump - np.einsum("iab,iab->ab", jump, rhat)[None] * rhat
    m_leak = axisym_leakage(U)
    checks = {
        "normal_velocity_defect": float(
            np.max(np.abs(np.einsum("iab,iab->ab", U.trace(INTERIOR), rhat) + n3.values))
        ),
        "tangential_jump_max": float(np.max(np.abs(tang))),
        "normalization_integral": float(g.quad(np.einsum("iab,iab->ab", jump, rhat))),
        "axisym_leakage": m_leak,
    }
    return AuxiliaryField(
        U, P, jacU, drag, float(drag[2]), dissipation, jump, c_norm, checks, solver
    )


def axisym_leakage(u: VolumeField, *coeffs: np.ndarray) -> float:
    """Largest m != 0 coefficient of the (P, v, w) channels of u in either
    phase and of any further coefficient arrays (..., L+1, 2L+1)."""
    arrays = [c for ph in (INTERIOR, EXTERIOR) for c in vsh_channels(u, ph)] + list(coeffs)
    leak = 0.0
    for a in arrays:
        off = np.abs(a)
        off[..., a.shape[-2] - 1] = 0.0  # remove m = 0
        leak = max(leak, float(off.max()))
    return leak


# ---------------------------------------------------------------------------
# truncation of the auxiliary field
# ---------------------------------------------------------------------------


ANNULUS_GAUSS_NODES = 48  # radial Gauss-Legendre rule on the cutoff annulus [R, 2R]


@dataclass
class TruncatedAux:
    R: float
    U_R: VolumeField
    P_R: VolumeField
    jac_UR: VolumeField
    divT: VolumeField  # Div T(U_R, P_R), supported in R <= |x| <= 2R
    aux: AuxiliaryField
    mu2: float = 1.0

    def divT_at(self, radii: np.ndarray) -> np.ndarray:
        """Div T(U_R, P_R) at arbitrary exterior radii, analytic in the cutoff."""
        grid = self.U_R.grid
        rhat = grid.sphere.unit_vectors()[0]
        radii = np.asarray(radii, float)
        return _cutoff_stress_divergence(
            eval_radii(self.aux.U, radii, EXTERIOR),
            eval_radii(self.aux.jacU, radii, EXTERIOR),
            eval_radii(self.aux.P, radii, EXTERIOR),
            radii,
            self.R,
            rhat,
            self.mu2,
        )

    def divT_norm_lq(self, q: float) -> float:
        """L^q norm of Div T(U_R, P_R) on its support annulus [R, 2R]."""
        xg, wg = np.polynomial.legendre.leggauss(ANNULUS_GAUSS_NODES)
        rr = self.R + (xg + 1.0) * self.R / 2.0
        wr = wg * self.R / 2.0
        vals = self.divT_at(rr)
        mag = np.sum(np.abs(vals) ** 2, axis=0) ** (q / 2.0)
        g = self.U_R.grid.sphere
        ang = np.einsum("ab,rab->r", g.weights, mag)
        return float(np.sum(wr * rr**2 * ang)) ** (1.0 / q)


def truncate_field(aux: AuxiliaryField, R: float, grid: VolumeGrid, mu2: float) -> TruncatedAux:
    """chi_R-truncated auxiliary fields with analytic cutoff derivatives."""
    if not (R > 4.0 and 2.0 * R <= grid.r_inf + 1e-12):
        raise ValueError(f"truncation radius must satisfy 4 < R <= R_inf/2, got {R}")
    U_R = VolumeField.zeros(grid, rank=1)
    P_R = VolumeField.zeros(grid)
    jac_UR = VolumeField.zeros(grid, rank=2)
    divT = VolumeField.zeros(grid, rank=1)
    rhat = grid.sphere.unit_vectors()[0]
    for ph in (INTERIOR, EXTERIOR):
        r = grid.radial(ph).r
        chi = cutoff_unit(r / R)[:, None, None]
        U_R.blocks[ph] = chi[None] * aux.U.blocks[ph]
        P_R.blocks[ph] = chi * aux.P.blocks[ph]
        dchi = (cutoff_unit_d1(r / R) / R)[:, None, None]
        gradchi = dchi[None] * rhat[:, None]
        jac_UR.blocks[ph] = chi[None, None] * aux.jacU.blocks[ph] + np.einsum(
            "irab,jrab->ijrab", aux.U.blocks[ph], gradchi
        )
    divT.blocks[EXTERIOR] = _cutoff_stress_divergence(
        aux.U.blocks[EXTERIOR],
        aux.jacU.blocks[EXTERIOR],
        aux.P.blocks[EXTERIOR],
        grid.exterior.r,
        R,
        rhat,
        mu2,
    )
    return TruncatedAux(R, U_R, P_R, jac_UR, divT, aux, mu2)


def _cutoff_stress_divergence(U, jac, P, r, R, rhat, mu2):
    """Div T(chi_R U, chi_R P) for a Stokes pair (U, P), analytic in the cutoff.

    ``U``, ``jac`` and ``P`` are the pair's velocity, Jacobian and pressure
    on the angular grid at exterior radii ``r``.
    """
    dchi = (cutoff_unit_d1(r / R) / R)[:, None, None]
    d2chi = (cutoff_unit_d2(r / R) / R**2)[:, None, None]
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


# ---------------------------------------------------------------------------
# Oseen fundamental solution
# ---------------------------------------------------------------------------


def _f1(s):
    """(1 - e^-s)/s with a series branch near 0."""
    s = np.asarray(s, float)
    small = s < 1e-4
    safe = np.where(small, 1.0, s)
    out = (1.0 - np.exp(-safe)) / safe
    ser = 1.0 - s / 2.0 + s**2 / 6.0 - s**3 / 24.0
    return np.where(small, ser, out)


def _f2(s):
    """d/ds of _f1 = (e^-s (1+s) - 1)/s^2 with a series branch near 0."""
    s = np.asarray(s, float)
    small = s < 1e-4
    safe = np.where(small, 1.0, s)
    out = (np.exp(-safe) * (1.0 + safe) - 1.0) / safe**2
    ser = -0.5 + s / 3.0 - s**2 / 8.0 + s**3 / 30.0
    return np.where(small, ser, out)


def oseenlet(x: np.ndarray, lam: float, mu: float = 1.0, rho: float = 0.5) -> np.ndarray:
    """Fundamental solution tensor of -mu lap u + rho lam d3 u + grad p = F delta.

    Reduces to the Stokeslet pointwise as lam -> 0.  ``x`` has shape
    (..., 3); the result (..., 3, 3) maps the point force to velocity.
    """
    x = np.asarray(x, float)
    if np.any(np.einsum("...i,...i->...", x, x) == 0.0):
        raise ValueError("oseenlet is singular at the origin")
    c = rho * lam
    if c < 0.0:
        M = np.diag([1.0, 1.0, -1.0])
        xr = x @ M
        G = oseenlet(xr, -lam, mu, rho)
        return np.einsum("ik,...kl,lj->...ij", M, G, M)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    xh = x / r[..., None]
    eye = np.eye(3)
    if c == 0.0:
        return (eye + np.einsum("...i,...j->...ij", xh, xh)) / (8.0 * np.pi * mu * r[..., None, None])
    k = c / (2.0 * mu)
    s = k * (r - x[..., 2])
    e3 = np.array([0.0, 0.0, 1.0])
    d = xh - e3
    G = eye * (np.exp(-s) / (4.0 * np.pi * mu * r))[..., None, None]
    G = G - (
        k * _f2(s)[..., None, None] * np.einsum("...i,...j->...ij", d, d)
        + (_f1(s) / r)[..., None, None]
        * (eye - np.einsum("...i,...j->...ij", xh, xh))
    ) / (8.0 * np.pi * mu)
    return G
