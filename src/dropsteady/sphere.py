"""Spherical-harmonic calculus on the unit sphere.

Real orthonormal harmonics (int Y_lm Y_l'm' dS = delta) on a
Gauss-Legendre (colatitude) x equispaced (azimuth) grid.  Provides the
scalar transform pair, tangent-field (spheroidal/toroidal) transforms,
Laplace-Beltrami, surface gradient, quadrature, the projection onto the
degree-1 subspace and the inversion of the shifted operator
``lap_S + 2`` on its complement.

Conventions
-----------
* ``Y_{l,0} = Pbar_l^0(cos th)``,
  ``Y_{l,m>0} = sqrt(2) Pbar_l^m(cos th) cos(m ph)``,
  ``Y_{l,-m}  = sqrt(2) Pbar_l^m(cos th) sin(m ph)``,
  with ``Pbar`` the fully normalized associated Legendre functions
  (Condon-Shortley phase included).
* Coefficients are stored in a dense ``(L+1, 2L+1)`` array ``a[l, m+L]``.
* A constant field c has ``a[0,0] = c*sqrt(4 pi)``.
* A transform is one matmul with a Fourier table (values <-> per-order
  cos/sin amplitudes) and one stacked matmul over all orders with a
  Legendre table; the tables are built once per grid (``_Tables``).
* A grid carries the orders |m| <= ``m_max`` (m-truncation, as in
  N. Schaeffer, arXiv:1202.6522) on ``n_phi = 2 m_max + 2`` azimuths.
  The default ``m_max = pad_limit`` is the full grid, which validate and
  the tests use; a solve runs on the axisymmetric band (``m_max = 2``,
  see ``driver.AXISYMMETRIC_M_MAX``).  Coefficient arrays keep their
  dense layout, and the columns |m| > m_max of an analysis are zero.
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
    n = x.size
    P = np.zeros((mmax + 1, lmax + 1, n))
    P[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, mmax + 1):
        P[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_th * P[m - 1, m - 1]
    for m in range(mmax + 1):
        if m + 1 <= lmax:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * x * P[m, m]
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(
                ((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                / ((2.0 * l - 3.0) * (l * l - m * m))
            )
            P[m, l] = a * x * P[m, l - 1] - b * P[m, l - 2]

    # d Pbar_l^m / dtheta = (l x Pbar_l^m - c_lm Pbar_{l-1}^m) / sin(theta)
    m, l = np.ogrid[: mmax + 1, : lmax + 1]
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

    def unit_vectors(self):
        """Cartesian components of (r_hat, theta_hat, phi_hat) on the grid
        (read-only arrays shared by every caller)."""
        return self._unit_vectors

    @cached_property
    def _unit_vectors(self):
        th, ph = self.nodes
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        rhat = np.stack([st * cp, st * sp, ct])
        that = np.stack([ct * cp, ct * sp, -st])
        phat = np.stack([-sp, cp, np.zeros_like(sp)])
        for e in (rhat, that, phat):
            e.flags.writeable = False
        return rhat, that, phat

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

    def quad(self, values: np.ndarray) -> float:
        """Surface quadrature of nodal values (n_theta, n_phi)."""
        return float(np.einsum("ij,ij->", self.weights, values))


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class SphereField:
    """Scalar function on the sphere, dual grid-values / coefficients storage."""

    def __init__(self, grid: SphereGrid, values=None, coeffs=None, band=None):
        self.grid = grid
        self.band = grid.band_limit if band is None else int(band)
        if self.band > grid.pad_limit:
            raise ValueError("band limit exceeds grid capacity")
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        if self._values is None and self._coeffs is None:
            raise ValueError("need values or coeffs")
        if self._values is not None and self._values.shape != (
            grid.n_theta,
            grid.n_phi,
        ):
            raise ValueError("grid/values shape mismatch")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, grid: SphereGrid, band=None) -> "SphereField":
        band = grid.band_limit if band is None else band
        return cls(grid, coeffs=np.zeros((band + 1, 2 * band + 1)), band=band)

    @classmethod
    def constant(cls, grid: SphereGrid, c: float) -> "SphereField":
        f = cls.zeros(grid)
        f._coeffs[0, f.band] = c * np.sqrt(4.0 * np.pi)
        return f

    @classmethod
    def from_function(cls, grid: SphereGrid, fn, band=None) -> "SphereField":
        th, ph = grid.nodes
        return cls(grid, values=fn(th, ph), band=band)

    # -- storage sync ------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = synthesis_batch(self.grid, self._coeffs, self.band)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = analysis_batch(self.grid, self._values, self.band)
        return self._coeffs

    def with_band(self, band: int) -> "SphereField":
        """Project onto the first ``band`` degrees."""
        c = self.coeffs
        L, Lb = self.band, band
        out = np.zeros((Lb + 1, 2 * Lb + 1))
        lo = min(L, Lb)
        out[: lo + 1, Lb - lo : Lb + lo + 1] = c[: lo + 1, L - lo : L + lo + 1]
        return SphereField(self.grid, coeffs=out, band=Lb)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, SphereField):
            b = max(self.band, other.band)
            return SphereField(
                self.grid,
                coeffs=self.with_band(b).coeffs + other.with_band(b).coeffs,
                band=b,
            )
        return SphereField(self.grid, values=self.values + other, band=self.band)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, SphereField) else -other)

    def __mul__(self, a):
        if isinstance(a, SphereField):
            return SphereField(self.grid, values=self.values * a.values)
        return SphereField(
            self.grid,
            coeffs=None if self._coeffs is None else a * self._coeffs,
            values=None if self._coeffs is not None else a * self._values,
            band=self.band,
        )

    __rmul__ = __mul__

    def copy(self) -> "SphereField":
        return SphereField(self.grid, coeffs=self.coeffs.copy(), band=self.band)


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
    """Per-order results (M+1, 2*rows, L+1) [m, row, l] -> coefficients a[..., l, m+L].

    The rows are ordered as ``_amplitudes`` returns them: cosine, then sine.
    Columns with |m| > M are zero.
    """
    M, L = res.shape[0] - 1, res.shape[2] - 1
    rows = res.shape[1] // 2
    a = np.zeros((rows, L + 1, 2 * L + 1))
    a[..., L : L + M + 1] = res[:, :rows].transpose(1, 2, 0)
    a[..., L - M : L] = res[:0:-1, rows:].transpose(1, 2, 0)
    return a.reshape(lead + a.shape[1:])


def _unlayout(a: np.ndarray, M: int) -> np.ndarray:
    """Inverse of ``_layout``: a[..., l, m+L] -> (M+1, 2*rows, L+1) [m, row, l]."""
    L = a.shape[-2] - 1
    c = a.reshape((-1,) + a.shape[-2:]).transpose(2, 0, 1)
    res = np.concatenate([c[L : L + M + 1], c[L - M : L + 1][::-1]], axis=1)
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


def tangent_analysis_batch(grid: SphereGrid, tth: np.ndarray, tph: np.ndarray, band: int):
    """Spheroidal/toroidal analysis on component arrays (..., n_theta, n_phi)."""
    n = band + 1
    X = _amplitudes(grid, np.stack([tth, tph]), band)
    n_m = X.shape[0]
    DE_a = grid._tables.DE_a[:n_m, :, :n].reshape(n_m, grid.n_theta, 2 * n)
    DE = (X @ DE_a).reshape(n_m, 4, -1, n, 2)
    res = DE[..., 0] + _ROTATE * DE[:, ::-1, ..., 1]
    return tuple(_layout(res.reshape(n_m, -1, n), (2,) + tth.shape[:-2]))


def tangent_synthesis_batch(grid: SphereGrid, s: np.ndarray, t: np.ndarray, band: int):
    """Inverse of tangent_analysis_batch; returns (t_theta, t_phi)."""
    n, n_m = band + 1, _orders(grid, band)
    Y = _unlayout(np.stack([s, t]), n_m - 1).reshape(n_m, 4, -1, n)
    Z = np.empty(Y.shape + (2,))
    Z[..., 0] = Y
    np.multiply(_ROTATE, Y[:, ::-1], out=Z[..., 1])
    DE_s = grid._tables.DE_s[:n_m, :n].reshape(n_m, 2 * n, grid.n_theta)
    amps = Z.reshape(n_m, -1, 2 * n) @ DE_s
    return tuple(_grid_values(grid, amps, (2,) + s.shape[:-2]))


# ---------------------------------------------------------------------------
# tangent vector fields
# ---------------------------------------------------------------------------


class TangentField:
    """Tangent vector field, stored as (theta, phi) components on the grid.

    Spectral form: ``t = sum s_lm grad_S Y_lm + t_lm (rhat x grad_S Y_lm)``
    (spheroidal / toroidal split, l >= 1).
    """

    def __init__(self, grid: SphereGrid, t_theta=None, t_phi=None, spec=None, band=None):
        self.grid = grid
        self.band = grid.band_limit if band is None else int(band)
        self._tth = None if t_theta is None else np.asarray(t_theta, float)
        self._tph = None if t_phi is None else np.asarray(t_phi, float)
        self._spec = spec  # (s_coeffs, t_coeffs) as (L+1, 2L+1) arrays

    @classmethod
    def zeros(cls, grid: SphereGrid, band=None) -> "TangentField":
        band = grid.band_limit if band is None else band
        z = np.zeros((band + 1, 2 * band + 1))
        return cls(grid, spec=(z, z.copy()), band=band)

    @property
    def components(self):
        if self._tth is None:
            self._tth, self._tph = tangent_synthesis_batch(self.grid, *self._spec, self.band)
        return self._tth, self._tph

    @property
    def spec(self):
        if self._spec is None:
            self._spec = tangent_analysis_batch(self.grid, self._tth, self._tph, self.band)
        return self._spec

    def cartesian(self) -> np.ndarray:
        """Cartesian components, shape (3, n_theta, n_phi)."""
        _, that, phat = self.grid.unit_vectors()
        tth, tph = self.components
        return tth * that + tph * phat

    def __add__(self, other):
        a, b = self.components, other.components
        return TangentField(self.grid, a[0] + b[0], a[1] + b[1], band=max(self.band, other.band))

    def __mul__(self, a):
        tth, tph = self.components
        return TangentField(self.grid, a * tth, a * tph, band=self.band)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1.0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def integrate_sphere(f: SphereField) -> float:
    """Quadrature-exact surface integral of a band-limited field."""
    return float(f.coeffs[0, f.band] * np.sqrt(4.0 * np.pi))


def laplace_beltrami(f: SphereField) -> SphereField:
    c = f.coeffs.copy()
    l = np.arange(f.band + 1, dtype=float)[:, None]
    return SphereField(f.grid, coeffs=-l * (l + 1.0) * c, band=f.band)


def surface_gradient(f: SphereField) -> TangentField:
    """grad_S f as a tangent field (spheroidal coefficients = f coefficients)."""
    s = f.coeffs.copy()
    s[0, :] = 0.0  # constants have no gradient
    return TangentField(f.grid, spec=(s, np.zeros_like(s)), band=f.band)


def project_kernel(f: SphereField) -> SphereField:
    """Orthogonal projection onto the l = 1 subspace (span of n_1, n_2, n_3)."""
    c = np.zeros_like(f.coeffs)
    L = f.band
    c[1, L - 1 : L + 2] = f.coeffs[1, L - 1 : L + 2]
    return SphereField(f.grid, coeffs=c, band=L)


def project_complement(f: SphereField) -> SphereField:
    c = f.coeffs.copy()
    L = f.band
    c[1, L - 1 : L + 2] = 0.0
    return SphereField(f.grid, coeffs=c, band=L)


def kernel_obstruction(f: SphereField) -> float:
    """Relative l = 1 content of f (must vanish for solve_shifted)."""
    L = f.band
    num = np.linalg.norm(f.coeffs[1, L - 1 : L + 2])
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
    c = f.coeffs.copy()
    L = f.band
    l = np.arange(L + 1, dtype=float)[:, None]
    denom = 2.0 - l * (l + 1.0)
    denom[1] = 1.0  # masked below
    out = c / denom
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
    for col, amp in ((L + 1, -c), (L - 1, -c), (L, c)):
        a = np.zeros((L + 1, 2 * L + 1))
        a[1, col] = amp
        out.append(SphereField(grid, coeffs=a, band=L))
    return tuple(out)


def rotate_about_z(f: SphereField, beta: float) -> SphereField:
    """Coefficients of x -> f(R_beta x), R_beta the rotation by beta about e3.

    For real harmonics the (m, -m) pair rotates by the 2x2 rotation of
    angle m*beta.
    """
    c = f.coeffs.copy()
    L = f.band
    out = c.copy()
    for m in range(1, L + 1):
        cm, sm = np.cos(m * beta), np.sin(m * beta)
        a, b = c[:, L + m].copy(), c[:, L - m].copy()
        out[:, L + m] = cm * a + sm * b
        out[:, L - m] = -sm * a + cm * b
    return SphereField(f.grid, coeffs=out, band=L)
