"""Radial bases: differentiation, fitting and the nodal tables the Stokes
matrices are built from, on profiles that lie in each basis."""

import numpy as np
import pytest

from numpy.polynomial import chebyshev as ncheb

from dropsteady.radial import ExteriorRadial, InteriorRadial, _cheb_tables

PHASES = [InteriorRadial(12), InteriorRadial(20), ExteriorRadial(16, 64.0), ExteriorRadial(20, 64.0)]


def basis_profiles(rad):
    """(parity, exponent e) of the powers r^e in the phase's basis: r^(2k+p)
    inside the drop, r^-k outside, k <= n/2."""
    if isinstance(rad, InteriorRadial):
        return [(p, 2 * k + p) for p in (0, 1) for k in range(rad.n // 2 + 1)]
    return [(0, -k) for k in range(rad.n // 2 + 1)]


def power_deriv(r, e, order):
    c = e if order == 1 else e * (e - 1.0)
    return c * r ** (e - float(order))


@pytest.mark.parametrize("rad", PHASES, ids=lambda rad: f"{type(rad).__name__}{rad.n}")
def test_deriv_exact_on_basis_profiles(rad):
    for p, e in basis_profiles(rad):
        prof = rad.r**e
        for order in (1, 2):
            exact = power_deriv(rad.r, e, order)
            err = np.max(np.abs(rad.deriv(prof, p, order) - exact))
            assert err < 1e-10 * max(1.0, np.max(np.abs(exact))), (p, e, order)


@pytest.mark.parametrize("rad", PHASES, ids=lambda rad: f"{type(rad).__name__}{rad.n}")
def test_fit_then_eval_between_nodes(rad):
    mid = 0.5 * (rad.r[1:] + rad.r[:-1])
    for p, e in basis_profiles(rad):
        coef = rad.fit(rad.r**e, p)
        assert np.max(np.abs(rad.eval_at(coef, mid, p) - mid**e)) < 1e-13, (p, e)


@pytest.mark.parametrize("rad", PHASES, ids=lambda rad: f"{type(rad).__name__}{rad.n}")
def test_deriv_of_basis_table_is_derivative_tables(rad):
    for p in (0, 1):
        B0, B1, B2 = rad.tables[p]
        for order, Bk in ((1, B1), (2, B2)):
            assert np.max(np.abs(rad.deriv(B0, p, order) - Bk)) < 1e-13 * np.max(np.abs(Bk))
        # leading axes after the radial one are carried through
        got = rad.deriv(np.stack([B0, 2.0 * B0], axis=1), p, 1)
        assert np.max(np.abs(got - np.stack([B1, 2.0 * B1], axis=1))) < 1e-13 * np.max(np.abs(B1))


def _cheb_tables_by_column(t, n):
    """The tables with each T_k differentiated on its own, one column at a time."""
    V = ncheb.chebvander(t, n - 1)
    eye = np.eye(n)
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    for k in range(n):
        c1 = ncheb.chebder(eye[:, k])
        c2 = ncheb.chebder(c1) if c1.size else np.zeros(1)
        D1[: c1.size, k] = c1
        D2[: c2.size, k] = c2 if c2.size else 0.0
    return V, V @ D1, V @ D2


@pytest.mark.parametrize("n", [1, 2, 3, 24, 40])
def test_cheb_tables_equal_column_by_column_derivatives(n):
    t = np.cos(np.arange(n) * np.pi / max(n - 1, 1)) * 1.1
    for got, ref in zip(_cheb_tables(t, n), _cheb_tables_by_column(t, n)):
        assert np.array_equal(got, ref)
