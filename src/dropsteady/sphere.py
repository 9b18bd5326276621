"""Spherical-harmonic calculus on the unit sphere.

Real orthonormal harmonics (int Y_lm Y_l'm' dS = delta) on a
Gauss-Legendre (colatitude) x equispaced (azimuth) grid.  Provides the
scalar transform pair, tangent-field (spheroidal/toroidal) transforms,
Laplace-Beltrami, surface gradient, quadrature, the projection onto the
degree-1 subspace and the inversion of the shifted operator
``lap_S + 2`` on its complement.

Vector fields on the grid are converted here and nowhere else, by two
inverse pairs: ``spherical_to_cartesian`` and ``cartesian_to_spherical``
between the (rhat, that, phat) and the Cartesian components, and
``vector_values`` and ``vector_channels`` between the (P, v, w) channels
and the Cartesian components.  ``SphereGrid.unit_vectors`` is the one
frame; the other modules build none of their own.

Conventions
-----------
* ``Y_{l,0} = Pbar_l^0(cos th)``,
  ``Y_{l,m>0} = sqrt(2) Pbar_l^m(cos th) cos(m ph)``,
  ``Y_{l,-m}  = sqrt(2) Pbar_l^m(cos th) sin(m ph)``,
  with ``Pbar`` the fully normalized associated Legendre functions
  (Condon-Shortley phase included).
* A transform of degree L carries the orders |m| <= M = min(L, m_max)
  and lays them out as ``a[..., l, m+M]``: L+1 rows and 2M+1 order
  columns, m = 0 in the centre column ``a.shape[-1] // 2``.  A synthesis
  takes any such layout.
* ``SphereField`` and ``TangentField`` are one shell's coefficients in
  that layout (``coeffs``, ``spec``), set when the field is built: a field
  given by nodal values is analysed then, once, and keeps those values bit
  for bit as its synthesis.  Sums and scalar multiples act on the
  coefficients; only the pointwise product of two fields uses values.
* A constant field c has ``a[0, M] = c*sqrt(4 pi)``.
* A transform is one matmul with a Fourier table (values <-> per-order
  cos/sin amplitudes) and one stacked matmul over all orders with a
  Legendre table; the tables are built once per grid (``_Tables``).
* A grid carries the orders |m| <= ``m_max`` (m-truncation, as in
  N. Schaeffer, arXiv:1202.6522) on ``n_phi = 2 m_max + 2`` azimuths.
  The default ``m_max = pad_limit`` is the full grid, which validate and
  the tests use; a solve runs on the axisymmetric band (``m_max = 2``,
  see ``driver.AXISYMMETRIC_M_MAX``), where a layout has at most
  2 m_max + 1 columns; on a full grid M = L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "SphereGrid",
    "SphereField",
    "TangentField",
    "integrate_sphere",
    "laplace_beltrami",
    "surface_gradient",
    "project_kernel",
    "project_complement",
    "solve_shifted",
    "sobolev_norm",
    "normal_component_fields",
    "rotate_about_z",
]


def _legendre_tables(lmax: int, x: np.ndarray, mmax: int | None = None):
    """Normalized associated Legendre Pbar_l^m(x), d/dtheta and m/sin tables.

    Returns three arrays of shape (mmax+1, lmax+1, len(x)) indexed [m, l, i]
    (``mmax`` defaults to ``lmax``); entries with l < m are zero.
    """
    mmax = lmax if mmax is None else mmax
    x = np.asarray(x, dtype=float)
    sin_th = np.sqrt(1.0 - x * x)
    P = np.zeros((mmax + 1, lmax + 1, x.size))
    P[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, mmax + 1):
        P[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_th * P[m - 1, m - 1]
    k = np.arange(min(mmax, lmax - 1) + 1)  # the orders m < lmax, which reach degree m + 1
    P[k, k + 1] = np.sqrt(2.0 * k + 3.0)[:, None] * x * P[k, k]
    # three-term recursion in l, all orders m <= l - 2 at once (a, b read only there)
    m, l = np.ogrid[: mmax + 1, : lmax + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(
            ((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)) / ((2.0 * l - 3.0) * (l * l - m * m))
        )
    for j in range(2, lmax + 1):
        o = slice(j - 1)  # the orders m <= j - 2
        P[o, j] = a[o, j, None] * x * P[o, j - 1] - b[o, j, None] * P[o, j - 2]

    # d Pbar_l^m / dtheta = (l x Pbar_l^m - c_lm Pbar_{l-1}^m) / sin(theta)
    c = np.sqrt((2.0 * l + 1.0) / np.abs(2.0 * l - 1.0)) * np.sqrt(np.maximum(l * l - m * m, 0.0))
    low = np.concatenate([np.zeros_like(P[:, :1]), P[:, :-1]], axis=1)
    dP = (l[..., None] * x * P - c[..., None] * low) / sin_th
    # m Pbar_l^m / sin(theta); safe on a Gauss grid (no poles)
    return P, dP, m[..., None] * P / sin_th


class _Tables(NamedTuple):
    """Transform tables of one grid, stacked over orders m = 0..m_max.

    Analysis tables carry the quadrature weights and normalisations (and,
    for D and E, the 1/(l(l+1)) of the spheroidal/toroidal split).
    """

    fourier_a: np.ndarray  # (m, 2, n_phi)  values -> cos/sin amplitudes
    fourier_s: np.ndarray  # (m, 2, n_phi)  cos/sin amplitudes -> values
    P_a: np.ndarray  # (m, n_theta, l)  P w
    P_s: np.ndarray  # (m, l, n_theta)  P
    DE_a: np.ndarray  # (m, n_theta, l, 2)  (D w, E w) / (l(l+1))
    DE_s: np.ndarray  # (m, l, 2, n_theta)  (D, E)


PAD = 1.5  # exact degree / band limit of a grid: dealiases cubic products


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x equispaced-azimuth quadrature grid.

    ``band_limit`` is the working band limit L_max; ``pad_limit`` is the
    largest degree the grid can transform exactly (used to dealias
    quadratic and cubic products); ``m_max`` is the largest order it
    carries (``pad_limit`` on a full grid).
    """

    band_limit: int
    pad_limit: int
    m_max: int
    theta: np.ndarray  # (n_theta,)
    phi: np.ndarray  # (n_phi,)
    x: np.ndarray  # cos(theta)
    wx: np.ndarray  # Gauss-Legendre weights for int dx
    n_theta: int
    n_phi: int

    @classmethod
    def build(cls, band_limit: int = 32, m_max: int | None = None) -> "SphereGrid":
        pad_limit = int(np.ceil(PAD * band_limit)) + 1
        m_max = pad_limit if m_max is None else int(m_max)
        if not 0 <= m_max <= pad_limit:
            raise ValueError(f"m_max must lie in [0, {pad_limit}], not {m_max}")
        n_theta = pad_limit + 2
        n_phi = 2 * m_max + 2
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)  # theta increasing from the north pole
        x, wx = x[order], wx[order]
        theta = np.arccos(x)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        return cls(band_limit, pad_limit, m_max, theta, phi, x, wx, n_theta, n_phi)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights per node (n_theta, n_phi); sum to 4 pi."""
        return np.outer(self.wx, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        th, ph = np.meshgrid(self.theta, self.phi, indexing="ij")
        return th, ph

    def unit_vectors(self) -> np.ndarray:
        """Cartesian components of (r_hat, theta_hat, phi_hat) on the grid,
        stacked (3, 3, n_theta, n_phi) (read-only, shared by every caller)."""
        return self._unit_vectors

    @cached_property
    def _unit_vectors(self) -> np.ndarray:
        th, ph = self.nodes
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        frame = np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, np.zeros_like(sp)]])
        frame.flags.writeable = False
        return frame

    @cached_property
    def _tables(self) -> "_Tables":
        """Per-order transform tables, built once per grid (see ``_Tables``)."""
        P, D, E = _legendre_tables(self.pad_limit, self.x, self.m_max)
        m = np.arange(self.m_max + 1)
        l = np.arange(self.pad_limit + 1)
        norm = np.where(m > 0, np.sqrt(2.0), 1.0)[:, None, None]
        # m*phi reduced mod 2 pi in integers, as an FFT's twiddle factors are
        angle = (2.0 * np.pi / self.n_phi) * (np.outer(m, np.arange(self.n_phi)) % self.n_phi)
        cs = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        Dw, Ew = (T * self.wx / np.maximum(l * (l + 1), 1)[:, None] for T in (D, E))
        return _Tables(
            fourier_a=(2.0 * np.pi / self.n_phi) * norm * cs,
            fourier_s=norm * cs,
            P_a=np.ascontiguousarray((P * self.wx).transpose(0, 2, 1)),
            P_s=P,
            DE_a=np.ascontiguousarray(np.stack([Dw, Ew], axis=-1).transpose(0, 2, 1, 3)),
            DE_s=np.stack([D, E], axis=2),
        )

    @cached_property
    def d3_coupling(self) -> np.ndarray:
        """Channel-space d/dx3 of the grid, built on first use (see
        ``_probe_d3_coupling``); read-only, shared by every caller."""
        B = _probe_d3_coupling(self)
        B.flags.writeable = False
        return B

    def quad(self, values: np.ndarray) -> float:
        """Surface quadrature of nodal values (n_theta, n_phi)."""
        return float(np.einsum("ij,ij->", self.weights, values))


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class SphereField:
    """Scalar function on the sphere: its coefficients ``coeffs`` on the
    orders |m| <= min(band, m_max) (a wider array is narrowed), and
    ``values``, the nodal values it was built from or else their synthesis.
    A scalar multiple of a field built from values is the band-limited
    synthesis of its scaled coefficients, not the scaled values."""

    def __init__(self, grid: SphereGrid, values=None, coeffs=None, band=None):
        self.grid = grid
        self.band = grid.band_limit if band is None else int(band)
        if self.band > grid.pad_limit:
            raise ValueError("band limit exceeds grid capacity")
        self._values = None
        if coeffs is not None:
            self.coeffs = _centred(np.asarray(coeffs, float), min(self.band, grid.m_max))
        elif values is not None:
            self._values = np.asarray(values, dtype=float)
            if self._values.shape != (grid.n_theta, grid.n_phi):
                raise ValueError("grid/values shape mismatch")
            self.coeffs = analysis_batch(grid, self._values, self.band)
        else:
            raise ValueError("need values or coeffs")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, grid: SphereGrid, band=None) -> "SphereField":
        band = grid.band_limit if band is None else band
        return cls(grid, coeffs=np.zeros((band + 1, 1)), band=band)

    @classmethod
    def constant(cls, grid: SphereGrid, c: float) -> "SphereField":
        a = np.zeros((grid.band_limit + 1, 1))
        a[0, 0] = c * np.sqrt(4.0 * np.pi)
        return cls(grid, coeffs=a)

    @classmethod
    def from_function(cls, grid: SphereGrid, fn, band=None) -> "SphereField":
        th, ph = grid.nodes
        return cls(grid, values=fn(th, ph), band=band)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = synthesis_batch(self.grid, self.coeffs, self.band)
        return self._values

    def with_band(self, band: int) -> "SphereField":
        """Project onto the first ``band`` degrees."""
        return SphereField(self.grid, coeffs=_degrees(self.coeffs, band), band=band)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "SphereField") -> "SphereField":
        b = max(self.band, other.band)
        return SphereField(self.grid, coeffs=self.with_band(b).coeffs + other.with_band(b).coeffs, band=b)

    def __sub__(self, other: "SphereField") -> "SphereField":
        return self + other * -1.0

    def __mul__(self, a):
        if isinstance(a, SphereField):
            return SphereField(self.grid, values=self.values * a.values)
        return SphereField(self.grid, coeffs=a * self.coeffs, band=self.band)

    __rmul__ = __mul__

    def copy(self) -> "SphereField":
        return SphereField(self.grid, coeffs=self.coeffs.copy(), band=self.band)


def _degrees(a: np.ndarray, band: int) -> np.ndarray:
    """Coefficients a[..., l, m] on the degrees l <= ``band``: rows beyond it
    are dropped, missing ones are zero."""
    out = np.zeros(a.shape[:-2] + (band + 1, a.shape[-1]))
    out[..., : min(a.shape[-2], band + 1), :] = a[..., : band + 1, :]
    return out


def _centred(a: np.ndarray, K: int) -> np.ndarray:
    """Coefficients a[..., l, m+k] on the 2K+1 order columns |m| <= K, centred
    on m = 0: columns beyond K are dropped, missing ones are zero."""
    k = a.shape[-1] // 2
    if k >= K:
        return a[..., k - K : k + K + 1]
    out = np.zeros(a.shape[:-1] + (2 * K + 1,))
    out[..., K - k : K + k + 1] = a
    return out


def _orders(grid: SphereGrid, band: int) -> int:
    """Number of orders m = 0, 1, ... a transform of degree ``band`` carries."""
    return min(band, grid.m_max) + 1


def _amplitudes(grid: SphereGrid, values: np.ndarray, band: int) -> np.ndarray:
    """Arrays (..., n_theta, n_phi) -> per-order amplitudes (n_m, 2*rows, n_theta).

    For each order m: the cosine amplitudes of every row, then the sine
    amplitudes.  One matmul with the grid's Fourier table.
    """
    n_m = _orders(grid, band)
    F = grid._tables.fourier_a[:n_m].reshape(-1, grid.n_phi)
    X = F @ values.reshape(-1, grid.n_phi).T
    return X.reshape(n_m, -1, grid.n_theta)


def _grid_values(grid: SphereGrid, amps: np.ndarray, lead: tuple) -> np.ndarray:
    """Inverse of ``_amplitudes``: amplitudes -> arrays (..., n_theta, n_phi)."""
    F = grid._tables.fourier_s[: amps.shape[0]].reshape(-1, grid.n_phi)
    V = amps.reshape(F.shape[0], -1).T @ F
    return V.reshape(lead + (grid.n_theta, grid.n_phi))


def _layout(res: np.ndarray, lead: tuple) -> np.ndarray:
    """Per-order results (M+1, 2*rows, L+1) [m, row, l] -> coefficients
    a[..., l, m+M] on the orders |m| <= M the results carry.

    The rows are ordered as ``_amplitudes`` returns them: cosine, then sine.
    """
    M, L = res.shape[0] - 1, res.shape[2] - 1
    rows = res.shape[1] // 2
    a = np.empty((rows, L + 1, 2 * M + 1))
    a[..., M:] = res[:, :rows].transpose(1, 2, 0)
    a[..., :M] = res[:0:-1, rows:].transpose(1, 2, 0)
    return a.reshape(lead + a.shape[1:])


def _unlayout(a: np.ndarray, M: int) -> np.ndarray:
    """Inverse of ``_layout``: a[..., l, m+K] -> (M+1, 2*rows, L+1) [m, row, l].

    The order columns are centred on m = 0, with K >= M: K = M as
    ``_layout`` returns them, and K = L in the dense layout.
    """
    K = a.shape[-1] // 2
    c = a.reshape((-1,) + a.shape[-2:]).transpose(2, 0, 1)
    res = np.concatenate([c[K : K + M + 1], c[K - M : K + 1][::-1]], axis=1)
    res[0, c.shape[1] :] = 0.0  # m = 0 has no sine part
    return res


# The toroidal basis is rhat x grad_S, so in either direction the E table
# acts on the four blocks (cos th, cos ph, sin th, sin ph) reversed and signed.
_ROTATE = np.array([-1.0, 1.0, 1.0, -1.0])[:, None, None]


def analysis_batch(grid: SphereGrid, values: np.ndarray, band: int) -> np.ndarray:
    """Scalar analysis on arrays shaped (..., n_theta, n_phi)."""
    X = _amplitudes(grid, values, band)
    return _layout(X @ grid._tables.P_a[: X.shape[0], :, : band + 1], values.shape[:-2])


def synthesis_batch(grid: SphereGrid, coeffs: np.ndarray, band: int) -> np.ndarray:
    """Scalar synthesis to arrays shaped (..., n_theta, n_phi)."""
    n_m = _orders(grid, band)
    Y = _unlayout(coeffs, n_m - 1)
    return _grid_values(grid, Y @ grid._tables.P_s[:n_m, : band + 1], coeffs.shape[:-2])


def tangent_analysis_batch(grid: SphereGrid, tth: np.ndarray, tph: np.ndarray, band: int) -> np.ndarray:
    """Spheroidal/toroidal analysis on component arrays (..., n_theta, n_phi);
    returns the coefficients stacked (2, ..., L+1, 2M+1)."""
    n = band + 1
    X = _amplitudes(grid, np.stack([tth, tph]), band)
    n_m = X.shape[0]
    DE_a = grid._tables.DE_a[:n_m, :, :n].reshape(n_m, grid.n_theta, 2 * n)
    DE = (X @ DE_a).reshape(n_m, 4, -1, n, 2)
    res = DE[..., 0] + _ROTATE * DE[:, ::-1, ..., 1]
    return _layout(res.reshape(n_m, -1, n), (2,) + tth.shape[:-2])


def tangent_synthesis_batch(grid: SphereGrid, s: np.ndarray, t: np.ndarray, band: int) -> np.ndarray:
    """Inverse of tangent_analysis_batch; returns (t_theta, t_phi) stacked (2, ..., n_theta, n_phi)."""
    n, n_m = band + 1, _orders(grid, band)
    Y = _unlayout(np.stack([s, t]), n_m - 1).reshape(n_m, 4, -1, n)
    Z = np.empty(Y.shape + (2,))
    Z[..., 0] = Y
    np.multiply(_ROTATE, Y[:, ::-1], out=Z[..., 1])
    DE_s = grid._tables.DE_s[:n_m, :n].reshape(n_m, 2 * n, grid.n_theta)
    amps = Z.reshape(n_m, -1, 2 * n) @ DE_s
    return _grid_values(grid, amps, (2,) + s.shape[:-2])


# ---------------------------------------------------------------------------
# vector fields: Cartesian components <-> (P, v, w) channels
# ---------------------------------------------------------------------------


def spherical_to_cartesian(g: SphereGrid, fr, fth, fph, out=None) -> np.ndarray:
    """Cartesian components of fr rhat + fth that + fph phat for nodal
    arrays (..., n_theta, n_phi), written one component at a time."""
    rhat, that, phat = g.unit_vectors()
    if out is None:
        out = np.empty((3,) + np.shape(fr))
    for k in range(3):
        np.multiply(fr, rhat[k], out=out[k])
        out[k] += fth * that[k]
        out[k] += fph * phat[k]
    return out


def cartesian_to_spherical(g: SphereGrid, cart: np.ndarray) -> np.ndarray:
    """Inverse of ``spherical_to_cartesian``: the components (u.rhat, u.that,
    u.phat) of Cartesian components ``cart`` (3, ..., n_theta, n_phi),
    stacked as one array (3, ..., n_theta, n_phi)."""
    return np.einsum("k...ab,skab->s...ab", cart, g.unit_vectors())


def vector_channels(g: SphereGrid, cart: np.ndarray) -> np.ndarray:
    """Coefficients (P, v, w) of u = P Y rhat + v grad_S Y + w rhat x grad_S Y
    from Cartesian components ``cart`` (3, ..., n_theta, n_phi), as one
    C-ordered array (3, ..., L+1, 2M+1): every consumer of channels reads
    this layout, and none stacks or copies it again."""
    L = g.band_limit
    ur, uth, uph = cartesian_to_spherical(g, cart)
    return np.concatenate([analysis_batch(g, ur, L)[None], tangent_analysis_batch(g, uth, uph, L)])


def vector_values(g: SphereGrid, ch, out=None) -> np.ndarray:
    """Inverse of ``vector_channels``: Cartesian components (3, ..., n_theta,
    n_phi) of the vector field with channels ``ch`` = (P, v, w), each
    (..., L+1, columns), written into ``out`` when given."""
    L = g.band_limit
    P, v, w = ch
    return spherical_to_cartesian(g, synthesis_batch(g, P, L), *tangent_synthesis_batch(g, v, w, L), out=out)


D3_REACH = 3  # largest degree step of d/dx3 in channels (1 on a full grid)


def _probe_d3_coupling(grid: SphereGrid) -> np.ndarray:
    """d/dx3 in channels, measured from the nodal transforms ``volume.d3`` runs.

    For channels ch (P, v, w) of u, the channels of d3 u = cos th d_r u -
    sin th d_th u / r are C (d_r ch) + E (ch / r) with C and E purely
    angular: C is the analysis at L of the Cartesian components, cos th
    times their synthesis, and the channel analysis; E the same with
    -sin th times the theta part of the tangent synthesis.  Both keep |m|,
    mix only the cos and sin parts of an order and move the degree by at
    most D3_REACH (l +- 1, and up to l +- 3 on a band grid, which drops
    the m_max + 1 content of the Cartesian components).  So one probe per
    channel, part and degree residue mod 2 D3_REACH + 1, carrying every
    order at once, recovers every entry (A. Curtis, M. Powell and J. Reid,
    IMA J. Appl. Math. 13, 1974), band truncation included.

    Returns [C | E] per order m = 0..M, M = min(L, m_max): (M+1, 6(L+1),
    12(L+1)), rows and columns ordered (channel, part, l) with part 0 the
    cos (column M + m) and 1 the sin (column M - m) amplitudes.
    """
    L, M = grid.band_limit, min(grid.band_limit, grid.m_max)
    n, K = L + 1, 2 * D3_REACH + 1
    l, m = np.arange(n), np.arange(M + 1)
    cols = np.stack([M + m, M - m], axis=1)  # (M+1, part)
    c, s = np.arange(3)[:, None, None, None], np.arange(2)[None, :, None, None]
    ll, mm = l[None, None, :, None], m[None, None, None, :]
    # (channel, part, l, m) slots that exist: l >= |m|, v and w from l = 1, sin from m = 1
    valid = (ll >= mm) & ((c == 0) | (ll >= 1)) & ((s == 0) | (mm >= 1))
    ci, si, li, mi = np.nonzero(valid)
    probes = np.zeros((3, 2, K, 3, n, 2 * M + 1))
    probes[ci, si, li % K, ci, li, cols[mi, si]] = 1.0
    probes = probes.reshape(6 * K, 3, n, 2 * M + 1)

    A = analysis_batch(grid, vector_values(grid, probes.swapaxes(0, 1)), L)
    rhat, that, _ = grid.unit_vectors()
    tth = tangent_synthesis_batch(grid, A, np.zeros_like(A), L)[0]
    parts = np.stack([rhat[2] * synthesis_batch(grid, A, L), that[2] * tth], axis=1)
    out = vector_channels(grid, parts)[..., cols]  # (c', C|E, probe, l', m, s')
    # response at (c', s', l', m) to input (c, s, l, m): probe (c, s, l mod K)
    G = out.reshape(3, 2, 3, 2, K, n, M + 1, 2)[:, :, :, :, l % K]
    G = G.transpose(6, 0, 7, 5, 1, 2, 3, 4)  # (m, c', s', l', C|E, c, s, l)
    vm = valid.transpose(3, 0, 1, 2)  # (m, c, s, l)
    near = np.abs(l[:, None] - l[None, :]) <= D3_REACH
    G = G * (vm[..., None, None, None, None] & near[:, None, None, None, :]) * vm[:, None, None, None, None]
    return np.ascontiguousarray(G.reshape(M + 1, 6 * n, 12 * n))


# ---------------------------------------------------------------------------
# tangent vector fields
# ---------------------------------------------------------------------------


class TangentField:
    """Tangent vector field ``sum s_lm grad_S Y_lm + t_lm (rhat x grad_S Y_lm)``
    (l >= 1): its coefficients ``spec`` = (s, t), one (2, band+1, 2K+1)
    array on the orders |m| <= K = min(band, m_max), and ``components``,
    the (theta, phi) components it was built from or else their synthesis."""

    def __init__(self, grid: SphereGrid, t_theta=None, t_phi=None, spec=None, band=None):
        self.grid = grid
        self.band = grid.band_limit if band is None else int(band)
        if self.band > grid.pad_limit:
            raise ValueError("band limit exceeds grid capacity")
        self._components = None
        if spec is not None:
            self.spec = _centred(np.asarray(spec, float), min(self.band, grid.m_max))
        elif t_theta is not None and t_phi is not None:
            self._components = np.asarray(t_theta, float), np.asarray(t_phi, float)
            self.spec = tangent_analysis_batch(grid, *self._components, self.band)
        else:
            raise ValueError("need (t_theta, t_phi) or spec")

    @classmethod
    def zeros(cls, grid: SphereGrid, band=None) -> "TangentField":
        band = grid.band_limit if band is None else band
        return cls(grid, spec=np.zeros((2, band + 1, 1)), band=band)

    @property
    def components(self):
        if self._components is None:
            self._components = tuple(tangent_synthesis_batch(self.grid, *self.spec, self.band))
        return self._components

    def cartesian(self) -> np.ndarray:
        """Cartesian components, shape (3, n_theta, n_phi)."""
        _, that, phat = self.grid.unit_vectors()
        tth, tph = self.components
        return tth * that + tph * phat

    def __add__(self, other: "TangentField") -> "TangentField":
        band = max(self.band, other.band)
        a, b = (_centred(_degrees(f.spec, band), min(band, self.grid.m_max)) for f in (self, other))
        return TangentField(self.grid, spec=a + b, band=band)

    def __mul__(self, a):
        return TangentField(self.grid, spec=a * self.spec, band=self.band)

    __rmul__ = __mul__

    def __sub__(self, other: "TangentField") -> "TangentField":
        return self + other * -1.0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def integrate_sphere(f: SphereField) -> float:
    """Quadrature-exact surface integral of a band-limited field."""
    return float(f.coeffs[0, f.coeffs.shape[-1] // 2] * np.sqrt(4.0 * np.pi))


def laplace_beltrami(f: SphereField) -> SphereField:
    l = np.arange(f.band + 1, dtype=float)[:, None]
    return SphereField(f.grid, coeffs=-l * (l + 1.0) * f.coeffs, band=f.band)


def surface_gradient(f: SphereField) -> TangentField:
    """grad_S f as a tangent field (spheroidal coefficients = f coefficients)."""
    s = f.coeffs.copy()
    s[0, :] = 0.0  # constants have no gradient
    return TangentField(f.grid, spec=(s, np.zeros_like(s)), band=f.band)


def project_kernel(f: SphereField) -> SphereField:
    """Orthogonal projection onto the l = 1 subspace (span of n_1, n_2, n_3);
    the l = 1 row holds nothing at |m| > 1."""
    c = np.zeros_like(f.coeffs)
    c[1] = f.coeffs[1]
    return SphereField(f.grid, coeffs=c, band=f.band)


def project_complement(f: SphereField) -> SphereField:
    c = f.coeffs.copy()
    c[1] = 0.0
    return SphereField(f.grid, coeffs=c, band=f.band)


def kernel_obstruction(f: SphereField) -> float:
    """Relative l = 1 content of f (must vanish for solve_shifted)."""
    num = np.linalg.norm(f.coeffs[1])
    den = np.linalg.norm(f.coeffs)
    return float(num / den) if den > 0 else 0.0


KERNEL_TOL = 1e-10  # largest relative l = 1 content solve_shifted accepts


def solve_shifted(f: SphereField) -> SphereField:
    """Solve (lap_S + 2) eta = f on the complement of the l = 1 kernel.

    Coefficient-wise division by (2 - l(l+1)); rejects data with
    non-negligible l = 1 content and reports the offending residual.
    """
    obs = kernel_obstruction(f)
    if obs > KERNEL_TOL:
        raise ValueError(
            f"shifted solve: data has l=1 content (relative residual {obs:.3e})"
        )
    L = f.band
    l = np.arange(L + 1, dtype=float)[:, None]
    denom = 2.0 - l * (l + 1.0)
    denom[1] = 1.0  # masked below
    out = f.coeffs / denom
    out[1, :] = 0.0
    return SphereField(f.grid, coeffs=out, band=L)


def sobolev_norm(f: SphereField, s: float) -> float:
    """Coefficient surrogate for the W^{s,2} norm: (sum (1+l(l+1))^s a^2)^{1/2}."""
    c = f.coeffs
    l = np.arange(f.band + 1, dtype=float)[:, None]
    w = (1.0 + l * (l + 1.0)) ** s
    return float(np.sqrt(np.sum(w * c * c)))


def normal_component_fields(grid: SphereGrid):
    """The three components of the outward normal as SphereFields.

    Built from their exact degree-1 coefficients so that kernel identities
    hold to machine precision:
    ``n1 = -c Y_{1,1}``, ``n2 = -c Y_{1,-1}``, ``n3 = c Y_{1,0}`` with
    ``c = sqrt(4 pi / 3)`` (the sign carries the Condon-Shortley phase).
    """
    L = grid.band_limit
    c = np.sqrt(4.0 * np.pi / 3.0)
    out = []
    for col, amp in ((2, -c), (0, -c), (1, c)):  # m = 1, -1, 0
        a = np.zeros((L + 1, 3))
        a[1, col] = amp
        out.append(SphereField(grid, coeffs=a, band=L))
    return tuple(out)


def rotate_about_z(f: SphereField, beta: float) -> SphereField:
    """Coefficients of x -> f(R_beta x), R_beta the rotation by beta about e3.

    For real harmonics the (m, -m) pair rotates by the 2x2 rotation of
    angle m*beta.
    """
    c = f.coeffs
    K = c.shape[-1] // 2
    out = c.copy()
    for m in range(1, K + 1):
        cm, sm = np.cos(m * beta), np.sin(m * beta)
        a, b = c[:, K + m], c[:, K - m]
        out[:, K + m] = cm * a + sm * b
        out[:, K - m] = -sm * a + cm * b
    return SphereField(f.grid, coeffs=out, band=f.band)
