"""Flat-interface kernel library: explicit multipliers vs analytic residuals."""

import numpy as np
import pytest

from dropsteady.halfspace import (
    FREQ_SPACING,
    TangentialSpectrum,
    dirichlet_stokes_halfspace,
    twophase_jump_halfspace,
    residual_check,
    traction_traces,
    x3_samples,
)


def single_mode(xi=(1.0, 0.5), vals=None, vector=False):
    xi = np.array([np.round(np.array(xi) / FREQ_SPACING) * FREQ_SPACING])
    if vals is None:
        vals = np.array([[0.0, 0.0, 1.0]]) if vector else np.array([1.0])
    return TangentialSpectrum(xi, vals)


def test_low_frequency_rejected():
    with pytest.raises(ValueError):
        TangentialSpectrum(np.array([[0.25, 0.0]]), np.array([1.0 + 0j]))


def test_off_lattice_rejected():
    with pytest.raises(ValueError):
        TangentialSpectrum(np.array([[1.03, 0.0]]), np.array([1.0 + 0j]))


def test_zero_data_gives_zero():
    rng = np.random.default_rng(0)
    b = TangentialSpectrum.random(5, rng, vector=True)
    z = TangentialSpectrum(b.modes, 0.0 * b.values)
    sol = dirichlet_stokes_halfspace(z)
    assert np.max(np.abs(sol.velocity(x3_samples()))) == 0.0


def test_single_mode_pressure_formula():
    # b_v = 0, b_w = 1: pressure amplitude is 2 mu sgn(x3) |xi'| e^{-|xi'||x3|}
    mu = 1.7
    b = single_mode(vals=np.array([[0.0, 0.0, 1.0]], dtype=complex), vector=True)
    sol = dirichlet_stokes_halfspace(b, mu_plus=mu, mu_minus=mu)
    k = sol.k[0]
    x3 = np.array([0.35, -0.35])
    p = sol.pressure(x3)
    assert abs(p[0, 0] - 2 * mu * k * np.exp(-k * 0.35)) < 1e-13
    assert abs(p[0, 1] + 2 * mu * k * np.exp(-k * 0.35)) < 1e-13


def test_dirichlet_random_residuals():
    rng = np.random.default_rng(1)
    b = TangentialSpectrum.random(40, rng, vector=True)
    sol = dirichlet_stokes_halfspace(b, mu_plus=2.0, mu_minus=0.5)
    rep = residual_check(sol, dirichlet=b)
    assert rep["momentum"] < 1e-10
    assert rep["divergence"] < 1e-10
    assert rep["trace"] < 1e-12
    assert rep["velocity_jump"] < 1e-12


def test_linearity():
    rng = np.random.default_rng(2)
    b1 = TangentialSpectrum.random(12, rng, vector=True)
    b2 = TangentialSpectrum(b1.modes, rng.standard_normal(b1.values.shape) + 0j)
    a = 1.37 - 0.4j
    s1 = dirichlet_stokes_halfspace(b1)
    s2 = dirichlet_stokes_halfspace(b2)
    s12 = dirichlet_stokes_halfspace(
        TangentialSpectrum(b1.modes, a * b1.values + b2.values)
    )
    combo = s1.scaled(a) + s2
    x3 = x3_samples()
    assert np.max(np.abs(s12.velocity(x3) - combo.velocity(x3))) < 1e-12
    assert np.max(np.abs(s12.pressure(x3) - combo.pressure(x3))) < 1e-12


def test_per_mode_decay():
    rng = np.random.default_rng(3)
    b = TangentialSpectrum.random(10, rng, vector=True)
    sol = dirichlet_stokes_halfspace(b)
    far = 6.0
    u_far = np.abs(sol.velocity(np.array([far])))[:, 0, :]
    bound = (
        np.abs(sol.alpha[0]) + far * np.abs(sol.beta[0])
    ) * np.exp(-far)
    assert np.all(u_far <= bound + 1e-14)


def test_dirichlet_mirror_symmetry():
    """Reflecting x3 -> -x3 swaps the half spaces: with the viscosities
    swapped and Rb = (b1, b2, -b3), the lower side for b is the mirror
    image of the upper side for Rb, exactly (R = diag(1, 1, -1))."""
    rng = np.random.default_rng(8)
    b = TangentialSpectrum.random(10, rng, vector=True)
    refl = np.array([1.0, 1.0, -1.0])
    mu_a, mu_b = 1.7, 0.6
    sol = dirichlet_stokes_halfspace(b, mu_plus=mu_a, mu_minus=mu_b)
    mirror = dirichlet_stokes_halfspace(
        TangentialSpectrum(b.modes, b.values * refl), mu_plus=mu_b, mu_minus=mu_a
    )
    x3 = np.geomspace(1e-3, 8.0, 20)
    assert np.max(np.abs(sol.velocity(-x3) - mirror.velocity(x3) * refl)) == 0.0
    assert np.max(np.abs(sol.pressure(-x3) - mirror.pressure(x3))) == 0.0


def test_twophase_reduces_to_dirichlet_for_h2_zero():
    # H2 = 0, single-mode H1: b = (0, H1) and b_w carries H1
    H1 = single_mode(vals=np.array([0.8 - 0.3j]))
    H2 = TangentialSpectrum(H1.modes, np.zeros((1, 3), complex))
    sol = twophase_jump_halfspace(H1, H2, mu_plus=1.0, mu_minus=3.0)
    assert np.max(np.abs(sol.boundary.values[:, :2])) == 0.0
    assert abs(sol.boundary.values[0, 2] - (0.8 - 0.3j)) < 1e-15
    rep = residual_check(sol, H1=H1, H2=H2)
    assert rep["normal_velocity"] < 1e-13
    assert rep["tangential_stress_jump"] < 1e-12


def test_twophase_random_jump_residuals():
    rng = np.random.default_rng(4)
    H1 = TangentialSpectrum.random(30, rng)
    h2v = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    h2v[:, 2] = 0.0
    H2 = TangentialSpectrum(H1.modes, h2v)
    for mup, mum in ((1.0, 1.0), (2.3, 0.4)):
        sol = twophase_jump_halfspace(H1, H2, mu_plus=mup, mu_minus=mum)
        rep = residual_check(sol, H1=H1, H2=H2)
        assert rep["momentum"] < 1e-10
        assert rep["divergence"] < 1e-10
        assert rep["velocity_jump"] < 1e-12
        assert rep["normal_velocity"] < 1e-12
        assert rep["tangential_stress_jump"] < 1e-10


def test_normal_h2_rejected():
    H1 = single_mode(vals=np.array([1.0 + 0j]))
    bad = TangentialSpectrum(H1.modes, np.array([[0.0, 0.0, 1.0 + 0j]]))
    with pytest.raises(ValueError):
        twophase_jump_halfspace(H1, bad)


def test_tangential_multiplier_identity():
    """(I - n x n)[[T n]] = -(mu+ + mu-)(|xi| I + xi x xi / |xi|) b_v."""
    rng = np.random.default_rng(5)
    b = TangentialSpectrum.random(15, rng, vector=True)
    mup, mum = 1.4, 0.6
    sol = dirichlet_stokes_halfspace(b, mu_plus=mup, mu_minus=mum)
    t_up, t_lo = traction_traces(sol)
    jump_t = (t_up - t_lo)[:, :2]
    xi = b.modes
    k = sol.k
    bv = b.values[:, :2]
    xidotb = xi[:, 0] * bv[:, 0] + xi[:, 1] * bv[:, 1]
    expect = -(mup + mum) * (k[:, None] * bv + (xidotb / k)[:, None] * xi)
    assert np.max(np.abs(jump_t - expect)) < 1e-11


def test_corrupted_pressure_detected():
    rng = np.random.default_rng(6)
    b = TangentialSpectrum.random(10, rng, vector=True)
    sol = dirichlet_stokes_halfspace(b)
    sol.p0 = 2.0 * sol.p0
    rep = residual_check(sol)
    assert rep["momentum"] > 0.1


def test_zero_on_interface_rejected():
    rng = np.random.default_rng(7)
    b = TangentialSpectrum.random(3, rng, vector=True)
    sol = dirichlet_stokes_halfspace(b)
    with pytest.raises(ValueError):
        sol.velocity(np.array([0.0]))
    with pytest.raises(ValueError):
        sol.pressure(np.array([0.0]))
