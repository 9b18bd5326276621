"""Radial bases: differentiation, fitting and the nodal tables the Stokes
matrices are built from, on profiles that lie in each basis."""

import numpy as np
import pytest

from dropsteady.radial import ExteriorRadial, InteriorRadial

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
