"""Two-phase volume fields on R^3 minus the unit sphere.

A field lives on the product grid (radial nodes) x (sphere grid), with
one radial axis for both phases: the drop's nodes first, then the
reservoir's.  A rank-r field is stored as one nodal array with r leading
Cartesian axes of length 3: (3,)*r + (n_r, n_theta, n_phi).  Spectral
calculus (gradients, divergence, vector Laplacian, d/dx3) goes through
per-shell spherical-harmonic analysis and parity-aware radial Chebyshev
differentiation, which is exact for fields whose per-degree radial
profiles are polynomial (interior: in r, exterior: in 1/r).  A radial
derivative is one matmul per phase over all degrees: the drop's matrices
stacked by degree parity, the reservoir's one matrix.  Coefficient
arrays carry the orders |m| <= min(L, m_max) the grid holds, m = 0 in the
centre column (see ``sphere``).  A gradient
appends its derivative index as the last Cartesian axis, so the gradient
of a vector u is its Jacobian d_j u_i.  Every volume derivative runs at
the grid's band limit.

The per-mode formulas of the Stokes operator (``mode_laplacian``,
``mode_divergence``, ``mode_gradient``) take each channel as its values
and r-derivatives, so the same code acts on analysed profiles here, in the
one channel pass of ``stokes.minus_div_T``, and on the radial basis tables
of the Stokes solver's collocation blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .radial import ExteriorRadial, InteriorRadial
from .sphere import (
    SphereGrid,
    analysis_batch,
    spherical_to_cartesian,
    synthesis_batch,
    tangent_synthesis_batch,
    vector_channels,
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

    @cached_property
    def r(self) -> np.ndarray:
        """Radii of the whole radial axis: the drop's nodes, then the reservoir's."""
        return np.concatenate([self.interior.r, self.exterior.r])

    def radius_mesh(self) -> np.ndarray:
        """Radii broadcastable against the radial axis (n_r, 1, 1)."""
        return self.r[:, None, None]

    def phase_profile(self, c_int: float, c_ext: float) -> np.ndarray:
        """c_int on the drop's nodes and c_ext on the reservoir's, shaped
        (n_r, 1, 1) to broadcast against a nodal or channel array."""
        return np.repeat([c_int, c_ext], [self.interior.n, self.exterior.n])[:, None, None]

    @cached_property
    def _interior_deriv(self) -> dict:
        """Per derivative order, the drop's matrices stacked by degree parity:
        (L+2, n_int, n_int) with entry j = ``interior.D[order][j % 2]``, so
        the slice [b : b + L + 1] holds the matrix of degree l at entry l."""
        L = self.sphere.band_limit
        return {k: np.stack([self.interior.D[k][j % 2] for j in range(L + 2)]) for k in (1, 2)}

    @cached_property
    def ll1(self) -> np.ndarray:
        """l(l+1) per degree, shaped (L+1, 1) to broadcast against channel profiles."""
        l = np.arange(self.sphere.band_limit + 1.0)
        return (l * (l + 1.0))[:, None]

    @cached_property
    def _wq(self) -> np.ndarray:
        return np.concatenate([self.interior.wq, self.exterior.wq])

    def integrate(self, shells: np.ndarray) -> float:
        """Integral of per-shell values (n_r,) times r^2 dr over both phases."""
        return float(self._wq @ shells)


class VolumeField:
    """Two-phase nodal field of any rank (0 scalar, 1 vector, 2 tensor),
    held as one array ``values`` over the whole radial axis."""

    def __init__(self, grid: VolumeGrid, values: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, float)
        self.rank = self.values.ndim - 3

    @property
    def blocks(self) -> tuple:
        """(drop, reservoir) views of ``values``; writing through one changes the field."""
        n = self.grid.interior.n
        return self.values[..., :n, :, :], self.values[..., n:, :, :]

    @classmethod
    def zeros(cls, grid: VolumeGrid, rank: int = 0) -> "VolumeField":
        g = grid.sphere
        return cls(grid, np.zeros((3,) * rank + (grid.r.size, g.n_theta, g.n_phi)))

    @classmethod
    def from_function(cls, grid: VolumeGrid, fn, rank: int = 0) -> "VolumeField":
        """Sample fn(x, y, z) -> scalar or (3,...) on all nodes."""
        out = cls.zeros(grid, rank)
        out.values[...] = fn(*grid_points(grid))
        return out

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        return VolumeField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return VolumeField(self.grid, self.values - other.values)

    def __mul__(self, a):
        if isinstance(a, VolumeField):
            return VolumeField(self.grid, self.values * a.values)
        return VolumeField(self.grid, a * self.values)

    __rmul__ = __mul__

    def phasewise_scale(self, c_int: float, c_ext: float) -> "VolumeField":
        return VolumeField(self.grid, self.grid.phase_profile(c_int, c_ext) * self.values)

    def max_abs(self) -> float:
        return np.max(np.abs(self.values))

    # -- traces at the interface (r = 1) ------------------------------------
    def trace(self, phase: int) -> np.ndarray:
        i = self.grid.radial(phase).i_surface
        return self.blocks[phase][..., i, :, :]

    def jump(self) -> np.ndarray:
        """Drop-side trace minus reservoir-side trace."""
        return self.trace(INTERIOR) - self.trace(EXTERIOR)


def grid_points(grid: VolumeGrid, phase: int | None = None):
    """Cartesian coordinates of the nodal points of one phase, or of the
    whole radial axis when ``phase`` is None."""
    g = grid.sphere
    r = grid.radius_mesh() if phase is None else grid.radial(phase).r[:, None, None]
    th, ph = g.nodes
    st, ct = np.sin(th), np.cos(th)
    x = r * (st * np.cos(ph))[None, :, :]
    y = r * (st * np.sin(ph))[None, :, :]
    z = r * ct[None, :, :]
    return x, y, z


# ---------------------------------------------------------------------------
# spectral calculus on the whole radial axis
# ---------------------------------------------------------------------------


def chan_radial_deriv(grid: VolumeGrid, coeffs: np.ndarray, base_parity: int, order: int):
    """d^order/dr^order of per-mode profiles (..., n_r, L+1, orders) with
    channel parity (l + base_parity) mod 2 (scalars and w: base 0; P, v:
    base 1).  Each phase's derivative matrices act on that phase's rows of
    the radial axis, as one matmul per phase over all degrees."""
    n, shape = grid.interior.n, coeffs.shape
    out = np.empty(shape)
    D = grid._interior_deriv[order][base_parity : base_parity + shape[-2]]
    out[..., :n, :, :] = (D @ coeffs[..., :n, :, :].swapaxes(-3, -2)).swapaxes(-3, -2)
    # the reservoir has no parity: one product over all (l, m) columns
    ext = coeffs[..., n:, :, :].reshape(shape[:-3] + (-1, shape[-2] * shape[-1]))
    out[..., n:, :, :] = (grid.exterior.D[order][0] @ ext).reshape(out[..., n:, :, :].shape)
    return out


def _spherical_gradient(f: VolumeField):
    """(d_r f, d_theta f / r, d_phi f / (r sin theta)) of a field of any rank:
    one analysis, one radial derivative, one scalar and one tangent synthesis."""
    grid = f.grid
    g = grid.sphere
    L = g.band_limit
    C = analysis_batch(g, f.values, L)
    dr = synthesis_batch(g, chan_radial_deriv(grid, C, 0, 1), L)
    t = tangent_synthesis_batch(g, C, np.zeros_like(C), L)
    t *= 1.0 / grid.radius_mesh()
    return dr, *t


def scalar_gradient(f: VolumeField) -> VolumeField:
    """Cartesian gradient of a field of any rank r: a rank r + 1 field whose
    last Cartesian axis is the derivative index (for a vector, d_j u_i)."""
    shape = f.values.shape
    out = np.empty(shape[:-3] + (3,) + shape[-3:])
    spherical_to_cartesian(f.grid.sphere, *_spherical_gradient(f), out=np.moveaxis(out, -4, 0))
    return VolumeField(f.grid, out)


def d3(f: VolumeField) -> VolumeField:
    """d f / d x3 of a field of any rank, the e3 column of its gradient.
    The nodal reference for ``d3_channels``, which L's drift and the Stokes
    solve use."""
    return e3_column(scalar_gradient(f))


def d3_channels(grid: VolumeGrid, u: np.ndarray, du: np.ndarray | None = None) -> np.ndarray:
    """Channels of d3 u from the channels ``u`` of a vector field,
    (3, n_r, L+1, 2M+1) stacked (P, v, w) on the orders |m| <= M the grid
    carries: C (d_r u) + E (u / r) with the grid's
    probed angular coupling (``SphereGrid.d3_coupling``), as
    ``vsh_channels(d3(...))`` gives them, without a sphere transform.
    ``du`` is d_r u, ``vector_radial_deriv(grid, u, 1)``, when the caller
    holds it already."""
    B = grid.sphere.d3_coupling
    M = B.shape[0] - 1
    _, n_r, n, _ = u.shape
    if du is None:
        du = vector_radial_deriv(grid, u, 1)
    X = np.empty((M + 1, 2, 3, 2, n, n_r))  # (m, C|E, c, part: order +m | -m, l, r)
    for k, c in enumerate((du, u)):
        c = c.transpose(3, 0, 2, 1)  # (order column, c, l, r)
        X[:, k, :, 0] = c[M:]
        X[:, k, :, 1] = c[M::-1]
    X[:, 1] /= grid.r  # E acts on u / r, divided here to need no copy of u
    Y = (B @ X.reshape(M + 1, -1, n_r)).reshape(M + 1, 3, 2, n, n_r)
    out = np.empty((3, n_r, n, 2 * M + 1))
    out[..., M:] = Y[:, :, 0].transpose(1, 3, 2, 0)
    out[..., :M] = Y[:0:-1, :, 1].transpose(1, 3, 2, 0)
    return out


def vector_gradient(u: VolumeField) -> VolumeField:
    """Jacobian (grad u)_{ij} = d u_i / d x_j as a rank-2 field."""
    return scalar_gradient(u)


def e3_column(jac: VolumeField) -> VolumeField:
    """d3 f read off the gradient ``jac`` = scalar_gradient(f), any rank."""
    return VolumeField(jac.grid, jac.values[..., 2, :, :, :])


def vsh_channels(u: VolumeField) -> np.ndarray:
    """Per-mode radial profiles (P, v, w) of a vector field, one C-ordered
    array (3, n_r, L+1, 2M+1) (``sphere.vector_channels``)."""
    return vector_channels(u.grid.sphere, u.values)


def vsh_assemble(grid: VolumeGrid, P, v, w) -> np.ndarray:
    """Nodal Cartesian components of the vector field with channels (P, v, w)."""
    g = grid.sphere
    L = g.band_limit
    ur = synthesis_batch(g, P, L)
    tth, tph = tangent_synthesis_batch(g, v, w, L)
    return spherical_to_cartesian(g, ur, tth, tph)


def vector_radial_deriv(grid: VolumeGrid, u: np.ndarray, order: int) -> np.ndarray:
    """d^order/dr^order of stacked (P, v, w) channels (3, n_r, L+1, columns)."""
    return np.concatenate([chan_radial_deriv(grid, u[:2], 1, order), chan_radial_deriv(grid, u[2:], 0, order)])


def mode_laplacian(P, v, w, r, ll1):
    """Per-mode (P, v, w) channels of lap u from those of u, each given as its
    (profile, d/dr, d^2/dr^2); radii ``r`` and l(l+1) ``ll1`` broadcast."""

    def radial(c):  # d^2/dr^2 + (2/r) d/dr - l(l+1)/r^2
        return c[2] + 2.0 / r * c[1] - ll1 / r**2 * c[0]

    return (
        radial(P) - 2.0 / r**2 * P[0] + 2.0 * ll1 / r**2 * v[0],
        radial(v) + 2.0 / r**2 * P[0],
        radial(w),
    )


def mode_divergence(P, v, r, ll1):
    """Per-mode div u = P' + 2P/r - l(l+1) v / r from P's (profile, d/dr) and v's (profile, ...)."""
    return P[1] + 2.0 / r * P[0] - ll1 / r * v[0]


def mode_gradient(s, r):
    """Per-mode (P, v) channels (s', s/r) of grad s from s's (profile, d/dr); its w channel is 0."""
    return s[1], s[0] / r


def vector_divergence(u: VolumeField) -> VolumeField:
    """div u from the channels of u and the first r-derivative of P."""
    grid = u.grid
    P, v, _ = vsh_channels(u)
    div = mode_divergence((P, chan_radial_deriv(grid, P, 1, 1)), (v,), grid.radius_mesh(), grid.ll1)
    return VolumeField(grid, synthesis_batch(grid.sphere, div, grid.sphere.band_limit))


def vector_laplacian(u: VolumeField) -> VolumeField:
    """Vector Laplacian from the channels of u and their r-derivatives."""
    grid = u.grid
    U = vsh_channels(u)
    dU = (vector_radial_deriv(grid, U, k) for k in (1, 2))
    lap = mode_laplacian(*zip(U, *dU), grid.radius_mesh(), grid.ll1)
    return VolumeField(grid, vsh_assemble(grid, *lap))


def tensor_divergence(T: VolumeField) -> VolumeField:
    """(div T)_i = d_j T_ij for a rank-2 field: the divergence of each row."""
    rows = [vector_divergence(VolumeField(T.grid, T.values[i])).values for i in range(3)]
    return VolumeField(T.grid, np.stack(rows))


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


def _shell_total(grid: VolumeGrid, shells: np.ndarray) -> float:
    """Integral over both phases of per-shell angular integrals ``shells``
    (n_r,), clamped at zero; inf when the sum is not finite.

    The radial weights are moment-matched and not sign-definite, so the
    quadrature sum can round below zero for fields at the machine-noise
    level, and a sum that overflows can come out as -inf or NaN.  Every
    volume norm goes through here, under ``np.errstate`` that lets a norm
    overflow to inf without a warning.
    """
    total = grid.integrate(shells)
    return max(total, 0.0) if np.isfinite(total) else np.inf


def norm_l2(f: VolumeField) -> float:
    """L^2 norm over the truncated two-phase domain (all tensor components)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mag = f.values**2
        while mag.ndim > 3:
            mag = mag.sum(axis=0)
        return _shell_total(f.grid, np.einsum("ij,rij->r", f.grid.sphere.weights, mag)) ** 0.5


def channel_norm_l2(grid: VolumeGrid, u: np.ndarray, extra: np.ndarray | None = None) -> float:
    """norm_l2, by Parseval, of the field whose channels are ``u``: (k, n_r,
    L+1, columns) stacked (P, v, w), or their first k < 3 (a scalar's
    coefficients as P alone, a gradient's (s', s/r) as (P, v)).  On a shell
    the angular integral of |u|^2 is sum P^2 + l(l+1) (v^2 + w^2), and
    ``extra`` adds a per-mode density (n_r, L+1, columns)."""
    w = np.stack([np.ones_like(grid.ll1), grid.ll1, grid.ll1])[: len(u), :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        shells = np.einsum("crlm,crlm,cl->r", u, u, w)
        if extra is not None:
            shells += np.sum(extra, axis=(1, 2))
        return _shell_total(grid, shells) ** 0.5


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
    out_modes = np.empty(lead + (radii.size,) + C.shape[-2:])
    for par in (0, 1):
        ls = slice(par, L + 1, 2)
        vals = rad.eval_at(rad.fit(C[..., ls, :], parity=par), radii, parity=par)
        out_modes[..., ls, :] = np.moveaxis(vals, 0, -3)  # from (n_radii, ..., l, m)
    return synthesis_batch(g, out_modes, L)
