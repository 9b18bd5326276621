"""Radial spectral bases for the two-phase ball/exterior geometry.

Interior (drop) phase: r in (0, 1], Chebyshev in rho = 2 r^2 - 1 with an
optional odd-parity prefactor r, so smooth fields (whose per-degree radial
profiles behave like r^l x even polynomial) are represented exactly.

Exterior (reservoir) phase: the algebraic map s = 1/r, s in [1/R_inf, 1],
Chebyshev in the affine image of s.  Polynomial decay in r is polynomial
in s, so the decaying exterior (Lamb) solutions lie in the trial space
while the growing ones do not.

Each phase builds its nodal tables once: for each parity p (0 even, 1
odd), ``tables[p] = (B0, B1, B2)`` hold the basis functions and their
first and second r-derivatives at the nodes, one column per basis
function.  The chain rule of the parity prefactor and of the map s = 1/r
is written only here.  ``fit`` applies B0^-1, ``deriv`` applies
D_k = B_k B0^-1, and the Stokes solver builds its collocation matrices
from the same tables.  The exterior basis has no parity, so its two
entries are the same.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as ncheb

__all__ = ["InteriorRadial", "ExteriorRadial"]


def _cheb_tables(t: np.ndarray, n: int):
    """T_k, T'_k, T''_k at points t (any real), k = 0..n-1; shape (len(t), n)."""
    V = ncheb.chebvander(t, n - 1)
    eye = np.eye(n)
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    for k in range(n):
        c1 = ncheb.chebder(eye[:, k])
        c2 = ncheb.chebder(c1) if c1.size else np.zeros(1)
        D1[: c1.size, k] = c1
        D2[: c2.size, k] = c2 if c2.size else 0.0
    V1 = ncheb.chebvander(t, n - 1) @ D1
    V2 = ncheb.chebvander(t, n - 1) @ D2
    return V, V1, V2


def _moment_weights(V: np.ndarray, t_g: np.ndarray, w_g: np.ndarray) -> np.ndarray:
    """Nodal quadrature weights matching the Chebyshev moments sum(w_g T_k(t_g)).

    ``t_g``/``w_g`` is a reference quadrature (in the basis variable, weight
    function folded into w_g) that integrates the target measure accurately.
    """
    n = V.shape[1]
    Tg = ncheb.chebvander(t_g, n - 1)
    mu = Tg.T @ w_g
    return np.linalg.solve(V.T, mu)


class _RadialBasis:
    """Fitting, differentiation and quadrature from a phase's nodal tables."""

    def _set_operators(self, B0inv):
        self.fit_matrix = B0inv
        self.D = {k: tuple(self.tables[p][k] @ B0inv[p] for p in (0, 1)) for k in (1, 2)}

    def fit(self, prof: np.ndarray, parity: int = 0) -> np.ndarray:
        """Chebyshev coefficients of nodal profiles (n, ...) over their parity prefactor."""
        return np.tensordot(self.fit_matrix[parity & 1], prof, axes=(1, 0))

    def integrate(self, prof: np.ndarray) -> np.ndarray:
        """Integral of prof r^2 dr over the phase (profiles sampled at the nodes)."""
        return np.tensordot(self.wq, prof, axes=(1, 0)) if prof.ndim > 1 else float(
            self.wq @ prof
        )


class InteriorRadial(_RadialBasis):
    """Nodal Chebyshev discretization of the unit ball's radial direction."""

    def __init__(self, n: int):
        self.n = n
        j = np.arange(n)
        self.rho = np.cos(j * np.pi / n)  # (-1, 1], excludes the center
        self.r = np.sqrt((1.0 + self.rho) / 2.0)
        V, V1, V2 = _cheb_tables(self.rho, n)
        # basis r^p T_k(2 r^2 - 1); d rho / dr = 4 r
        r = self.r[:, None]
        self.tables = tuple(
            (
                r**p * V,
                p * V + 4.0 * r ** (p + 1) * V1,
                4.0 * (2 * p + 1) * r**p * V1 + 16.0 * r ** (p + 2) * V2,
            )
            for p in (0, 1)
        )
        Vinv = np.linalg.inv(V)
        self._set_operators(tuple(Vinv / self.r**p for p in (0, 1)))
        # weights for int_0^1 f(r) r^2 dr; the reference rule works in r where
        # T_k(2r^2-1) r^2 is a polynomial, so the moments are Gauss-exact
        xg, wg = np.polynomial.legendre.leggauss(2 * n + 4)
        rg = (xg + 1.0) / 2.0
        self.wq = _moment_weights(V, 2.0 * rg**2 - 1.0, (wg / 2.0) * rg**2)
        self.i_surface = 0  # rho = 1 -> r = 1

    def deriv(self, prof: np.ndarray, parity: int, order: int = 1) -> np.ndarray:
        """d^order/dr^order (order 1 or 2) of nodal profiles (n, ...) with
        radial parity (0 even, 1 odd)."""
        return np.tensordot(self.D[order][parity & 1], prof, axes=(1, 0))

    def eval_at(self, coef: np.ndarray, r: np.ndarray, parity: int) -> np.ndarray:
        p = parity & 1
        rho = 2.0 * np.asarray(r) ** 2 - 1.0
        T = ncheb.chebvander(rho, self.n - 1)
        out = np.tensordot(T, coef, axes=(1, 0))
        if p:
            out = out * np.asarray(r).reshape(
                (-1,) + (1,) * (out.ndim - 1)
            )
        return out


class ExteriorRadial(_RadialBasis):
    """Nodal Chebyshev discretization of [1, R_inf] in the map s = 1/r."""

    def __init__(self, n: int, r_inf: float):
        self.n = n
        self.r_inf = float(r_inf)
        self.s_min = 1.0 / self.r_inf
        j = np.arange(n)
        self.xi = np.cos(j * np.pi / (n - 1))  # [1, -1], full Lobatto
        self.c_xi = 2.0 / (1.0 - self.s_min)  # d xi / d s
        self.s = self.s_min + (self.xi + 1.0) / self.c_xi
        self.r = 1.0 / self.s
        V, V1, V2 = _cheb_tables(self.xi, n)
        # d/dr = -s^2 d/ds = -c_xi s^2 d/dxi
        s, c = self.s[:, None], self.c_xi
        tables = (V, -c * s**2 * V1, 2.0 * c * s**3 * V1 + c**2 * s**4 * V2)
        self.tables = (tables, tables)
        Vinv = np.linalg.inv(V)
        self._set_operators((Vinv, Vinv))
        # weights for int_1^R f r^2 dr = int_{s_min}^1 f s^{-4} ds; the s^{-4}
        # pole at s = 0 sits close to s_min, so use geometric Gauss panels
        s_pts, s_wts = [], []
        edges = np.geomspace(self.s_min, 1.0, 9)
        xg, wg = np.polynomial.legendre.leggauss(24)
        for a, b in zip(edges[:-1], edges[1:]):
            sg = a + (xg + 1.0) * (b - a) / 2.0
            s_pts.append(sg)
            s_wts.append(wg * (b - a) / 2.0 * sg ** (-4.0))
        s_pts = np.concatenate(s_pts)
        s_wts = np.concatenate(s_wts)
        self.wq = _moment_weights(V, self.c_xi * (s_pts - self.s_min) - 1.0, s_wts)
        self.i_surface = 0  # xi = 1 -> s = 1 -> r = 1
        self.i_far = n - 1  # r = R_inf
        # the basis at r = infinity (s = 0, xi = -1 - c_xi s_min)
        self.basis_at_infinity = ncheb.chebvander(-1.0 - self.c_xi * self.s_min, n - 1)[0]

    def deriv(self, prof: np.ndarray, parity: int = 0, order: int = 1) -> np.ndarray:
        """d^order/dr^order (order 1 or 2) of nodal profiles (n, ...); the
        basis has no parity, which is accepted for interface symmetry."""
        return np.tensordot(self.D[order][parity & 1], prof, axes=(1, 0))

    def eval_at(self, coef: np.ndarray, r: np.ndarray, parity: int = 0) -> np.ndarray:
        s = 1.0 / np.asarray(r, dtype=float)
        xi = self.c_xi * (s - self.s_min) - 1.0
        T = ncheb.chebvander(xi, self.n - 1)
        return np.tensordot(T, coef, axes=(1, 0))
