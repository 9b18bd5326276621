"""Two-phase volume fields on R^3 minus the unit sphere.

A field lives on the product grid (radial nodes) x (sphere grid), one
block per phase.  A rank-r field is stored as nodal arrays with r leading
Cartesian axes of length 3: (3,)*r + (n_r, n_theta, n_phi).  Spectral
calculus (gradients, divergence, vector Laplacian, d/dx3) goes through
per-shell spherical-harmonic analysis and parity-aware radial Chebyshev
differentiation, which is exact for fields whose per-degree radial
profiles are polynomial (interior: in r, exterior: in 1/r).  A gradient
appends its derivative index as the last Cartesian axis, so the gradient
of a vector u is its Jacobian d_j u_i.  Every volume derivative runs at
the grid's band limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import ExteriorRadial, InteriorRadial
from .sphere import (
    SphereGrid,
    analysis_batch,
    synthesis_batch,
    tangent_analysis_batch,
    tangent_synthesis_batch,
)

__all__ = ["VolumeGrid", "VolumeField"]

INTERIOR, EXTERIOR = 0, 1


@dataclass(frozen=True)
class VolumeGrid:
    sphere: SphereGrid
    interior: InteriorRadial
    exterior: ExteriorRadial

    @classmethod
    def build(
        cls, band_limit: int, n_r_int: int, n_r_ext: int, r_inf: float, m_max: int | None = None
    ) -> "VolumeGrid":
        return cls(
            SphereGrid.build(band_limit, m_max=m_max),
            InteriorRadial(n_r_int),
            ExteriorRadial(n_r_ext, r_inf),
        )

    @property
    def r_inf(self) -> float:
        return self.exterior.r_inf

    def radial(self, phase: int):
        return self.interior if phase == INTERIOR else self.exterior

    def radius_mesh(self, phase: int) -> np.ndarray:
        """Radii broadcastable against a nodal block (n_r, 1, 1)."""
        return self.radial(phase).r[:, None, None]


class VolumeField:
    """Two-phase nodal field of any rank (0 scalar, 1 vector, 2 tensor)."""

    def __init__(self, grid: VolumeGrid, interior: np.ndarray, exterior: np.ndarray):
        self.grid = grid
        self.blocks = [np.asarray(interior, float), np.asarray(exterior, float)]
        self.rank = self.blocks[0].ndim - 3

    @classmethod
    def zeros(cls, grid: VolumeGrid, rank: int = 0) -> "VolumeField":
        sh = (3,) * rank
        g = grid.sphere
        return cls(
            grid,
            np.zeros(sh + (grid.interior.n, g.n_theta, g.n_phi)),
            np.zeros(sh + (grid.exterior.n, g.n_theta, g.n_phi)),
        )

    @classmethod
    def from_function(cls, grid: VolumeGrid, fn, rank: int = 0) -> "VolumeField":
        """Sample fn(x, y, z) -> scalar or (3,...) on all nodes."""
        out = cls.zeros(grid, rank)
        for ph in (INTERIOR, EXTERIOR):
            x, y, z = grid_points(grid, ph)
            out.blocks[ph] = np.asarray(fn(x, y, z), float)
        return out

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        return VolumeField(
            self.grid, self.blocks[0] + other.blocks[0], self.blocks[1] + other.blocks[1]
        )

    def __sub__(self, other):
        return VolumeField(
            self.grid, self.blocks[0] - other.blocks[0], self.blocks[1] - other.blocks[1]
        )

    def __mul__(self, a):
        if isinstance(a, VolumeField):
            return VolumeField(
                self.grid, self.blocks[0] * a.blocks[0], self.blocks[1] * a.blocks[1]
            )
        return VolumeField(self.grid, a * self.blocks[0], a * self.blocks[1])

    __rmul__ = __mul__

    def phasewise_scale(self, c_int: float, c_ext: float) -> "VolumeField":
        return VolumeField(self.grid, c_int * self.blocks[0], c_ext * self.blocks[1])

    def max_abs(self) -> float:
        return max(np.max(np.abs(self.blocks[0])), np.max(np.abs(self.blocks[1])))

    # -- traces at the interface (r = 1) ------------------------------------
    def trace(self, phase: int) -> np.ndarray:
        i = self.grid.radial(phase).i_surface
        return self.blocks[phase][..., i, :, :]

    def jump(self) -> np.ndarray:
        """Drop-side trace minus reservoir-side trace."""
        return self.trace(INTERIOR) - self.trace(EXTERIOR)


def grid_points(grid: VolumeGrid, phase: int):
    """Cartesian coordinates of the nodal points of one phase block."""
    g = grid.sphere
    r = grid.radius_mesh(phase)
    th, ph = g.nodes
    st, ct = np.sin(th), np.cos(th)
    x = r * (st * np.cos(ph))[None, :, :]
    y = r * (st * np.sin(ph))[None, :, :]
    z = r * ct[None, :, :]
    return x, y, z


# ---------------------------------------------------------------------------
# spectral helpers on one phase block
# ---------------------------------------------------------------------------


def _chan_radial_deriv(grid: VolumeGrid, phase: int, coeffs: np.ndarray, base_parity: int, order: int):
    """d^order/dr^order of per-mode profiles (..., n_r, L+1, 2L+1) with channel
    parity (l + base_parity) mod 2 (scalars and w: base 0; P, v: base 1), on
    the orders |m| <= min(L, m_max) the grid carries; other columns are zero."""
    rad = grid.radial(phase)
    L = coeffs.shape[-2] - 1
    M = min(L, grid.sphere.m_max)
    ms = slice(L - M, L + M + 1)
    out = np.zeros(coeffs.shape)
    prof, dest = np.moveaxis(coeffs, -3, 0), np.moveaxis(out, -3, 0)
    for par in (0, 1):
        ls = slice((par + base_parity) % 2, L + 1, 2)
        dest[..., ls, ms] = rad.deriv(prof[..., ls, ms], parity=par, order=order)
    return out


def spherical_to_cartesian(g: SphereGrid, fr, fth, fph, out=None) -> np.ndarray:
    """Cartesian components of fr rhat + fth that + fph phat for nodal
    arrays (..., n_theta, n_phi), written one component at a time."""
    rhat, that, phat = g.unit_vectors()
    if out is None:
        out = np.empty((3,) + np.shape(fr))
    for k in range(3):
        out[k] = fr * rhat[k] + fth * that[k] + fph * phat[k]
    return out


def _gradient_parts(f: VolumeField, phase: int):
    """(d_r f, d_theta f / r, d_phi f / (r sin theta)) of one phase block of
    a field of any rank: one analysis, one radial derivative, one scalar
    and one tangent synthesis."""
    grid = f.grid
    g = grid.sphere
    L = g.band_limit
    C = analysis_batch(g, f.blocks[phase], L)
    dr = synthesis_batch(g, _chan_radial_deriv(grid, phase, C, 0, 1), L)
    tth, tph = tangent_synthesis_batch(g, C, np.zeros_like(C), L)
    rinv = 1.0 / grid.radius_mesh(phase)
    return dr, rinv * tth, rinv * tph


def scalar_gradient(f: VolumeField) -> VolumeField:
    """Cartesian gradient of a field of any rank r: a rank r + 1 field whose
    last Cartesian axis is the derivative index (for a vector, d_j u_i)."""
    g = f.grid.sphere
    blocks = []
    for ph in (INTERIOR, EXTERIOR):
        shape = f.blocks[ph].shape
        out = np.empty(shape[:-3] + (3,) + shape[-3:])
        spherical_to_cartesian(g, *_gradient_parts(f, ph), out=np.moveaxis(out, -4, 0))
        blocks.append(out)
    return VolumeField(f.grid, *blocks)


def d3(f: VolumeField) -> VolumeField:
    """d f / d x3 = cos(theta) d_r f - sin(theta) d_theta f / r, any rank."""
    rhat, that, _ = f.grid.sphere.unit_vectors()
    blocks = []
    for ph in (INTERIOR, EXTERIOR):
        dr, dth, _ = _gradient_parts(f, ph)
        blocks.append(dr * rhat[2] + dth * that[2])
    return VolumeField(f.grid, *blocks)


def vector_gradient(u: VolumeField) -> VolumeField:
    """Jacobian (grad u)_{ij} = d u_i / d x_j as a rank-2 field."""
    return scalar_gradient(u)


def e3_column(jac: VolumeField) -> VolumeField:
    """d3 f read off the gradient ``jac`` = scalar_gradient(f), any rank."""
    return VolumeField(jac.grid, jac.blocks[0][..., 2, :, :, :], jac.blocks[1][..., 2, :, :, :])


def vsh_channels(u: VolumeField, phase: int):
    """Per-mode radial profiles (P, v, w) of a vector field block."""
    g = u.grid.sphere
    L = g.band_limit
    blk = u.blocks[phase]
    # u . rhat, u . that, u . phat
    ur, uth, uph = (blk[0] * e[0] + blk[1] * e[1] + blk[2] * e[2] for e in g.unit_vectors())
    P = analysis_batch(g, ur, L)
    v, w = tangent_analysis_batch(g, uth, uph, L)
    return P, v, w


def vsh_assemble(grid: VolumeGrid, phase: int, P, v, w) -> np.ndarray:
    g = grid.sphere
    L = g.band_limit
    ur = synthesis_batch(g, P, L)
    tth, tph = tangent_synthesis_batch(g, v, w, L)
    return spherical_to_cartesian(g, ur, tth, tph)


def vector_divergence(u: VolumeField) -> VolumeField:
    """div u via the per-mode identity P' + 2P/r - l(l+1) v / r."""
    grid = u.grid
    g = grid.sphere
    L = g.band_limit
    l = np.arange(L + 1, dtype=float)[None, :, None]
    blocks = []
    for ph in (INTERIOR, EXTERIOR):
        P, v, _ = vsh_channels(u, ph)
        dP = _chan_radial_deriv(grid, ph, P, 1, 1)
        rinv = 1.0 / grid.radial(ph).r[:, None, None]
        div = dP + 2.0 * rinv * P - l * (l + 1.0) * rinv * v
        blocks.append(synthesis_batch(g, div, L))
    return VolumeField(grid, blocks[0], blocks[1])


def vector_laplacian(u: VolumeField) -> VolumeField:
    """Vector Laplacian via the spheroidal/toroidal mode formulas."""
    grid = u.grid
    L = grid.sphere.band_limit
    l = np.arange(L + 1, dtype=float)[None, :, None]
    ll1 = l * (l + 1.0)
    blocks = []
    for ph in (INTERIOR, EXTERIOR):
        P, v, w = vsh_channels(u, ph)
        rinv = 1.0 / grid.radial(ph).r[:, None, None]

        def Dl(C, base):
            d1 = _chan_radial_deriv(grid, ph, C, base, 1)
            d2 = _chan_radial_deriv(grid, ph, C, base, 2)
            return d2 + 2.0 * rinv * d1 - ll1 * rinv**2 * C

        lapP = Dl(P, 1) - 2.0 * rinv**2 * P + 2.0 * ll1 * rinv**2 * v
        lapv = Dl(v, 1) + 2.0 * rinv**2 * P
        lapw = Dl(w, 0)
        blocks.append(vsh_assemble(grid, ph, lapP, lapv, lapw))
    return VolumeField(grid, blocks[0], blocks[1])


def tensor_divergence(T: VolumeField) -> VolumeField:
    """(div T)_i = d_j T_ij for a rank-2 field: the divergence of each row."""
    rows = [vector_divergence(VolumeField(T.grid, T.blocks[0][i], T.blocks[1][i])) for i in range(3)]
    blocks = [np.stack([row.blocks[ph] for row in rows]) for ph in (INTERIOR, EXTERIOR)]
    return VolumeField(T.grid, *blocks)


# ---------------------------------------------------------------------------
# integrals and norms
# ---------------------------------------------------------------------------


def integrate_phase(f: VolumeField, phase: int) -> float:
    """Volume integral of a scalar over one phase (exterior: up to R_inf)."""
    if f.rank != 0:
        raise ValueError("integrate expects a scalar field")
    g = f.grid.sphere
    ang = np.einsum("ij,rij->r", g.weights, f.blocks[phase])
    return float(f.grid.radial(phase).integrate(ang))


def norm_lq(f: VolumeField, q: float) -> float:
    """L^q norm over the truncated two-phase domain (all tensor components).

    The radial weights are moment-matched and not sign-definite, so the
    quadrature sum is clamped at zero (it can round below for fields at
    the machine-noise level).
    """
    total = 0.0
    for ph in (INTERIOR, EXTERIOR):
        blk = f.blocks[ph]
        mag = np.abs(blk) ** q
        while mag.ndim > 3:
            mag = mag.sum(axis=0)
        g = f.grid.sphere
        ang = np.einsum("ij,rij->r", g.weights, mag)
        total += float(f.grid.radial(ph).integrate(ang))
    return max(total, 0.0) ** (1.0 / q)


def norm_l2(f: VolumeField) -> float:
    return norm_lq(f, 2.0)


def eval_radii(f: VolumeField, radii: np.ndarray, phase: int) -> np.ndarray:
    """Evaluate a field on the angular grid at arbitrary radii of one phase.

    Returns (..., n_radii, n_theta, n_phi).  Exact for fields whose
    per-degree radial profiles lie in the phase's polynomial basis.
    """
    grid = f.grid
    g = grid.sphere
    L = g.band_limit
    rad = grid.radial(phase)
    blk = f.blocks[phase]
    lead = blk.shape[:-3]
    C = np.moveaxis(analysis_batch(g, blk, L), -3, 0)
    radii = np.atleast_1d(np.asarray(radii, float))
    out_modes = np.zeros(lead + (radii.size, L + 1, 2 * L + 1))
    for par in (0, 1):
        ls = slice(par, L + 1, 2)
        vals = rad.eval_at(rad.fit(C[..., ls, :], parity=par), radii, parity=par)
        out_modes[..., ls, :] = np.moveaxis(vals, 0, -3)  # from (n_radii, ..., l, m)
    return synthesis_batch(g, out_modes, L)
