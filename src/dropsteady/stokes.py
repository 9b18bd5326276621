"""Two-phase Stokes/Oseen solver on the ball/exterior reference domain.

Per spherical-harmonic degree l the Stokes operator reduces to a radial
two-point boundary value problem for the spheroidal channels (P, v,
pressure) and the toroidal channel w, coupled through the interface
conditions at r = 1: continuous velocity, prescribed normal velocity,
prescribed tangential stress jump.  Both phases are discretized by
Chebyshev collocation (interior: parity bases in r; exterior: polynomial
in s = 1/r, which structurally excludes the growing solution family) and
solved in a single least-squares system per degree.

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
    "stokes_mode_solve",
    "solve_two_phase",
    "AuxiliaryField",
    "auxiliary_field",
    "axisym_leakage",
    "surface_traction_jump",
    "drag_integral",
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
# per-degree collocation matrices
# ---------------------------------------------------------------------------


def _interior_basis(rad, parity):
    p = parity & 1
    r = rad.r[:, None]
    B0 = (r**p) * rad.V
    B1 = p * rad.V + 4.0 * r ** (p + 1) * rad.V1 if p else 4.0 * r * rad.V1
    B2 = (
        4.0 * (2 * p + 1) * (r**p) * rad.V1 + 16.0 * r ** (p + 2) * rad.V2
    )
    return B0, B1, B2


def _exterior_basis(rad):
    s = rad.s[:, None]
    B0 = rad.V
    B1 = -rad.c_xi * s**2 * rad.V1
    B2 = 2.0 * rad.c_xi * s**3 * rad.V1 + rad.c_xi**2 * s**4 * rad.V2
    return B0, B1, B2


def _basis_at_infinity(rad, n):
    from numpy.polynomial import chebyshev as ncheb

    return ncheb.chebvander(np.array([rad.xi_infinity]), n - 1)[0]


def _pinv_layout(rows):
    """Stack named row blocks, scale every row to unit max and pseudo-invert.

    Returns the pseudo-inverse and a layout holding the row scales and the
    row slice of each named block, where its right-hand side goes.
    """
    M = np.vstack([blk for _, blk in rows])
    ends = np.cumsum([blk.shape[0] for _, blk in rows])
    row_sl = {name: slice(end - blk.shape[0], end) for (name, blk), end in zip(rows, ends)}
    scale = np.max(np.abs(M), axis=1)
    scale[scale == 0] = 1.0
    M = M / scale[:, None]
    pinv = np.linalg.pinv(M, rcond=1e-13)
    return pinv, {"rows": row_sl, "scale": scale}


class TwoPhaseStokesSolver:
    """Cached per-degree solve operators for one (grid, mu1, mu2) triple."""

    def __init__(self, grid: VolumeGrid, mu1: float, mu2: float):
        self.grid = grid
        self.mu1 = mu1
        self.mu2 = mu2
        self._sph = {}
        self._tor = {}

    # -- matrix assembly ----------------------------------------------------
    def _spheroidal(self, l: int):
        if l in self._sph:
            return self._sph[l]
        gi, ge = self.grid.interior, self.grid.exterior
        Mi, Me = gi.n, ge.n
        parPv = (l + 1) % 2
        parp = l % 2
        B0i, B1i, B2i = _interior_basis(gi, parPv)
        C0i, C1i, _ = _interior_basis(gi, parp)
        B0e, B1e, B2e = _exterior_basis(ge)
        ll1 = l * (l + 1.0)
        ri = gi.r[:, None]
        re = ge.r[:, None]
        mu1, mu2 = self.mu1, self.mu2

        has_v = l >= 1
        nPi, nvi, npi = Mi, Mi if has_v else 0, Mi
        nPe, nve, npe = Me, Me if has_v else 0, Me
        cols = np.cumsum([0, nPi, nvi, npi, nPe, nve, npe])
        sl = {
            "Pi": slice(cols[0], cols[1]),
            "vi": slice(cols[1], cols[2]),
            "pi": slice(cols[2], cols[3]),
            "Pe": slice(cols[3], cols[4]),
            "ve": slice(cols[4], cols[5]),
            "pe": slice(cols[5], cols[6]),
        }
        ncols = cols[-1]

        rows = []

        def row_block(n):
            return np.zeros((n, ncols))

        # interior momentum (radial): -mu1 [D_l P - 2P/r^2 + 2 ll1 v/r^2] + p'
        Dl_i = B2i + 2.0 / ri * B1i - ll1 / ri**2 * B0i
        blk = row_block(Mi)
        blk[:, sl["Pi"]] = -mu1 * (Dl_i - 2.0 / ri**2 * B0i)
        if has_v:
            blk[:, sl["vi"]] = -mu1 * (2.0 * ll1 / ri**2 * B0i)
        blk[:, sl["pi"]] = C1i
        rows.append(("mom_r_i", blk))
        # interior momentum (spheroidal): -mu1 [D_l v + 2P/r^2] + p/r
        if has_v:
            blk = row_block(Mi)
            blk[:, sl["vi"]] = -mu1 * Dl_i
            blk[:, sl["Pi"]] = -mu1 * 2.0 / ri**2 * B0i
            blk[:, sl["pi"]] = C0i / ri
            rows.append(("mom_t_i", blk))
        # interior divergence: P' + 2P/r - ll1 v / r
        blk = row_block(Mi)
        blk[:, sl["Pi"]] = B1i + 2.0 / ri * B0i
        if has_v:
            blk[:, sl["vi"]] = -ll1 / ri * B0i
        rows.append(("div_i", blk))

        Dl_e = B2e + 2.0 / re * B1e - ll1 / re**2 * B0e
        blk = row_block(Me)
        blk[:, sl["Pe"]] = -mu2 * (Dl_e - 2.0 / re**2 * B0e)
        if has_v:
            blk[:, sl["ve"]] = -mu2 * (2.0 * ll1 / re**2 * B0e)
        blk[:, sl["pe"]] = B1e
        rows.append(("mom_r_e", blk))
        if has_v:
            blk = row_block(Me)
            blk[:, sl["ve"]] = -mu2 * Dl_e
            blk[:, sl["Pe"]] = -mu2 * 2.0 / re**2 * B0e
            blk[:, sl["pe"]] = B0e / re
            rows.append(("mom_t_e", blk))
        blk = row_block(Me)
        blk[:, sl["Pe"]] = B1e + 2.0 / re * B0e
        if has_v:
            blk[:, sl["ve"]] = -ll1 / re * B0e
        rows.append(("div_e", blk))

        i0, e0 = gi.i_surface, ge.i_surface
        # interface: [[P]] = 0, P(1) = h1, [[v]] = 0, tangential stress jump
        blk = row_block(1)
        blk[0, sl["Pi"]] = B0i[i0]
        blk[0, sl["Pe"]] = -B0e[e0]
        rows.append(("jump_P", blk))
        blk = row_block(1)
        blk[0, sl["Pi"]] = B0i[i0]
        rows.append(("h1", blk))
        if has_v:
            blk = row_block(1)
            blk[0, sl["vi"]] = B0i[i0]
            blk[0, sl["ve"]] = -B0e[e0]
            rows.append(("jump_v", blk))
            blk = row_block(1)
            blk[0, sl["vi"]] = mu1 * (B1i[i0] - B0i[i0])
            blk[0, sl["Pi"]] = mu1 * B0i[i0]
            blk[0, sl["ve"]] = -mu2 * (B1e[e0] - B0e[e0])
            blk[0, sl["Pe"]] = -mu2 * B0e[e0]
            rows.append(("h2s", blk))

        Tinf = _basis_at_infinity(ge, Me)
        for name in ("Pe", "ve", "pe") if has_v else ("Pe", "pe"):
            blk = row_block(1)
            blk[0, sl[name]] = Tinf
            rows.append((f"decay_{name}", blk))

        if l == 0:
            # interior pressure mean: int_0^1 p r^2 dr = 0
            blk = row_block(1)
            blk[0, sl["pi"]] = gi.wq @ C0i
            rows.append(("pmean", blk))

        pinv, layout = _pinv_layout(rows)
        layout.update(
            sl=sl,
            has_v=has_v,
            B0={"Pi": B0i, "vi": B0i, "pi": C0i, "Pe": B0e, "ve": B0e, "pe": B0e},
        )
        self._sph[l] = (pinv, layout)
        return self._sph[l]

    def _toroidal(self, l: int):
        if l in self._tor:
            return self._tor[l]
        gi, ge = self.grid.interior, self.grid.exterior
        Mi, Me = gi.n, ge.n
        parw = l % 2
        B0i, B1i, B2i = _interior_basis(gi, parw)
        B0e, B1e, B2e = _exterior_basis(ge)
        ll1 = l * (l + 1.0)
        ri = gi.r[:, None]
        re = ge.r[:, None]
        ncols = Mi + Me
        sl = {"wi": slice(0, Mi), "we": slice(Mi, Mi + Me)}
        rows = []
        blk = np.zeros((Mi, ncols))
        blk[:, sl["wi"]] = -self.mu1 * (B2i + 2.0 / ri * B1i - ll1 / ri**2 * B0i)
        rows.append(("mom_w_i", blk))
        blk = np.zeros((Me, ncols))
        blk[:, sl["we"]] = -self.mu2 * (B2e + 2.0 / re * B1e - ll1 / re**2 * B0e)
        rows.append(("mom_w_e", blk))
        i0, e0 = gi.i_surface, ge.i_surface
        blk = np.zeros((1, ncols))
        blk[0, sl["wi"]] = B0i[i0]
        blk[0, sl["we"]] = -B0e[e0]
        rows.append(("jump_w", blk))
        blk = np.zeros((1, ncols))
        blk[0, sl["wi"]] = self.mu1 * (B1i[i0] - B0i[i0])
        blk[0, sl["we"]] = -self.mu2 * (B1e[e0] - B0e[e0])
        rows.append(("h2t", blk))
        blk = np.zeros((1, ncols))
        blk[0, sl["we"]] = _basis_at_infinity(ge, Me)
        rows.append(("decay_w", blk))

        pinv, layout = _pinv_layout(rows)
        layout.update(sl=sl, B0={"wi": B0i, "we": B0e})
        self._tor[l] = (pinv, layout)
        return self._tor[l]

    # -- solve --------------------------------------------------------------
    def solve_degree(self, l: int, fP, fv, fw, g, h1, h2s, h2t) -> dict:
        """Radial solve of degree l for a set of orders m at once.

        ``fP, fv, fw, g`` are (interior, exterior) pairs of nodal profiles
        shaped (n_r, n_m); ``h1, h2s, h2t`` are interface data shaped (n_m,).
        Returns the nodal profiles P, v, w, p as (interior, exterior) pairs
        (v and w vanish at l = 0) and the spheroidal coefficients.
        """
        pinv, lay = self._spheroidal(l)
        rows = lay["rows"]
        rhs = np.zeros((len(lay["scale"]), len(h1)))
        rhs[rows["mom_r_i"]], rhs[rows["mom_r_e"]] = fP
        rhs[rows["div_i"]], rhs[rows["div_e"]] = g
        rhs[rows["h1"]] = h1
        if lay["has_v"]:
            rhs[rows["mom_t_i"]], rhs[rows["mom_t_e"]] = fv
            rhs[rows["h2s"]] = h2s
        x = pinv @ (rhs / lay["scale"][:, None])
        out = {
            "P": _profiles(lay, x, "Pi", "Pe"),
            "p": _profiles(lay, x, "pi", "pe"),
            "coeffs": x,
        }
        if not lay["has_v"]:
            out["v"] = out["w"] = tuple(np.zeros_like(a) for a in out["P"])
            return out
        out["v"] = _profiles(lay, x, "vi", "ve")
        tpinv, tlay = self._toroidal(l)
        trows = tlay["rows"]
        trhs = np.zeros((len(tlay["scale"]), len(h1)))
        trhs[trows["mom_w_i"]], trhs[trows["mom_w_e"]] = fw
        trhs[trows["h2t"]] = h2t
        tx = tpinv @ (trhs / tlay["scale"][:, None])
        out["w"] = _profiles(tlay, tx, "wi", "we")
        return out

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
        fPi, fvi, fwi = vsh_channels(data.f, INTERIOR, L)
        fPe, fve, fwe = vsh_channels(data.f, EXTERIOR, L)
        gmi = analysis_batch(g, data.g.blocks[INTERIOR], L)
        gme = analysis_batch(g, data.g.blocks[EXTERIOR], L)
        h1m = data.h1.with_band(L).coeffs
        h2s, h2t = data.h2.spec
        Mi, Me = grid.interior.n, grid.exterior.n

        P = [np.zeros((Mi, L + 1, 2 * L + 1)), np.zeros((Me, L + 1, 2 * L + 1))]
        V = [np.zeros_like(P[0]), np.zeros_like(P[1])]
        W = [np.zeros_like(P[0]), np.zeros_like(P[1])]
        Q = [np.zeros_like(P[0]), np.zeros_like(P[1])]

        for l in range(L + 1):
            m = min(l, g.m_max)  # the grid carries no higher order
            ms = slice(L - m, L + m + 1)
            out = self.solve_degree(
                l,
                (fPi[:, l, ms], fPe[:, l, ms]),
                (fvi[:, l, ms], fve[:, l, ms]),
                (fwi[:, l, ms], fwe[:, l, ms]),
                (gmi[:, l, ms], gme[:, l, ms]),
                h1m[l, ms],
                h2s[l, ms],
                h2t[l, ms],
            )
            for arr, key in ((P, "P"), (V, "v"), (W, "w"), (Q, "p")):
                arr[INTERIOR][:, l, ms], arr[EXTERIOR][:, l, ms] = out[key]

        u = VolumeField(
            grid,
            vsh_assemble(grid, INTERIOR, P[0], V[0], W[0], L),
            vsh_assemble(grid, EXTERIOR, P[1], V[1], W[1], L),
        )
        p = VolumeField(
            grid,
            synthesis_batch(g, Q[0], L),
            synthesis_batch(g, Q[1], L),
        )
        return TwoPhaseSolution(u, p)


def _profiles(lay, x, name_i, name_e):
    """Nodal (interior, exterior) profiles of two column blocks of x."""
    return (lay["B0"][name_i] @ x[lay["sl"][name_i]], lay["B0"][name_e] @ x[lay["sl"][name_e]])


def stokes_mode_solve(
    solver: TwoPhaseStokesSolver,
    l: int,
    fP=None,
    fv=None,
    fw=None,
    gprof=None,
    h1=0.0,
    h2s=0.0,
    h2t=0.0,
):
    """Single-(l, m) radial solve; profile inputs are nodal (interior, exterior).

    Returns a dict with nodal profiles P, v, w, p per phase plus the raw
    coefficient vector of the spheroidal block.
    """
    grid = solver.grid
    z = (np.zeros(grid.interior.n), np.zeros(grid.exterior.n))

    def column(pair):
        return tuple(np.reshape(a, (-1, 1)) for a in (z if pair is None else pair))

    out = solver.solve_degree(
        l, column(fP), column(fv), column(fw), column(gprof),
        np.reshape(h1, 1), np.reshape(h2s, 1), np.reshape(h2t, 1),
    )
    res = {key: tuple(a[:, 0] for a in out[key]) for key in ("P", "v", "w", "p")}
    res["coeffs"] = out["coeffs"][:, 0]
    return res


# ---------------------------------------------------------------------------
# Oseen drift by Richardson iteration
# ---------------------------------------------------------------------------


def solve_two_phase(
    data: JumpData,
    lambda0: float,
    params: PhysicalParams,
    solver: TwoPhaseStokesSolver,
    tol_update: float = 1e-11,
    max_iter: int = 40,
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
        for it in range(max_iter):
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
            if update <= tol_update * base:
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
    P, v, w = vsh_channels(u, phase, L)
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


def drag_integral(u, p, grid, mu1, mu2) -> np.ndarray:
    """int_{S^2} [[T(u,p) n]] dS as a 3-vector."""
    jump = surface_traction_jump(u, p, grid, mu1, mu2)
    w = grid.sphere.weights
    return np.einsum("ab,iab->i", w, jump)


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
    solver: TwoPhaseStokesSolver  # the per-degree factorization U was solved with


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
    m_leak = axisym_leakage(U, grid)
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


def axisym_leakage(u: VolumeField, grid: VolumeGrid) -> float:
    """Largest m != 0 coefficient of the (P, v, w) channels in either phase."""
    g = grid.sphere
    L = g.band_limit
    leak = 0.0
    for ph in (INTERIOR, EXTERIOR):
        P, v, w = vsh_channels(u, ph, L)
        for arr in (P, v, w):
            a = arr.copy()
            a[:, :, L] = 0.0  # remove m = 0
            leak = max(leak, float(np.max(np.abs(a))))
    return leak


# ---------------------------------------------------------------------------
# truncation of the auxiliary field
# ---------------------------------------------------------------------------


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

    def divT_norm_lq(self, q: float, n_gauss: int = 48) -> float:
        """L^q norm of Div T(U_R, P_R) on its support annulus [R, 2R]."""
        xg, wg = np.polynomial.legendre.leggauss(n_gauss)
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
