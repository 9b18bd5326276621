"""Spherical-harmonic layer: transforms, operators, kernel projections."""

import numpy as np
import pytest

from dropsteady.sphere import (
    _legendre_tables,
    analysis_batch,
    synthesis_batch,
    tangent_analysis_batch,
    tangent_synthesis_batch,
    SphereGrid,
    SphereField,
    TangentField,
    integrate_sphere,
    laplace_beltrami,
    surface_gradient,
    project_kernel,
    project_complement,
    solve_shifted,
    sobolev_norm,
    normal_component_fields,
    rotate_about_z,
    kernel_obstruction,
)


@pytest.fixture(scope="module", params=[16, 32])
def grid(request):
    return SphereGrid.build(request.param)


def random_field(grid, band, seed=0, lmin=0):
    rng = np.random.default_rng(seed)
    L = band
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(lmin, L + 1):
        c[l, L - l : L + l + 1] = rng.standard_normal(2 * l + 1)
    return SphereField(grid, coeffs=c, band=L)


# -- reference transforms: one einsum per order m ------------------------------


def ref_analysis(grid, values, L):
    P, _, _ = _legendre_tables(grid.pad_limit, grid.x)
    F = np.fft.rfft(values, axis=-1)
    nphi = grid.n_phi
    coeffs = np.zeros(values.shape[:-2] + (L + 1, 2 * L + 1))
    w = grid.wx
    A0 = F[..., 0].real / nphi
    coeffs[..., :, L] = 2.0 * np.pi * np.einsum("li,...i->...l", P[0, : L + 1] * w, A0)
    sq2pi = np.sqrt(2.0) * np.pi
    for m in range(1, L + 1):
        Am = 2.0 * F[..., m].real / nphi
        Bm = -2.0 * F[..., m].imag / nphi
        Pm = P[m, : L + 1] * w
        coeffs[..., :, L + m] = sq2pi * np.einsum("li,...i->...l", Pm, Am)
        coeffs[..., :, L - m] = sq2pi * np.einsum("li,...i->...l", Pm, Bm)
    return coeffs


def ref_synthesis(grid, coeffs, L):
    P, _, _ = _legendre_tables(grid.pad_limit, grid.x)
    nphi = grid.n_phi
    F = np.zeros(coeffs.shape[:-2] + (grid.n_theta, nphi // 2 + 1), dtype=complex)
    F[..., 0] = np.einsum("li,...l->...i", P[0, : L + 1], coeffs[..., :, L]) * nphi
    s2 = np.sqrt(2.0)
    for m in range(1, L + 1):
        Pm = P[m, : L + 1]
        Am = s2 * np.einsum("li,...l->...i", Pm, coeffs[..., :, L + m])
        Bm = s2 * np.einsum("li,...l->...i", Pm, coeffs[..., :, L - m])
        F[..., m] = (Am - 1j * Bm) * (nphi / 2.0)
    return np.fft.irfft(F, n=nphi, axis=-1)


def ref_tangent_analysis(grid, tth, tph, L):
    _, D, E = _legendre_tables(grid.pad_limit, grid.x)
    nphi = grid.n_phi
    w = grid.wx
    Fth = np.fft.rfft(tth, axis=-1)
    Fph = np.fft.rfft(tph, axis=-1)
    s = np.zeros(tth.shape[:-2] + (L + 1, 2 * L + 1))
    t = np.zeros_like(s)
    ll = np.arange(L + 1, dtype=float)
    fac = np.where(ll > 0, ll * (ll + 1.0), 1.0)
    dot = lambda M, a: np.einsum("li,...i->...l", M, a)
    D0 = D[0, : L + 1] * w
    s[..., :, L] = 2.0 * np.pi * dot(D0, Fth[..., 0].real / nphi) / fac
    t[..., :, L] = 2.0 * np.pi * dot(D0, Fph[..., 0].real / nphi) / fac
    sq2pi = np.sqrt(2.0) * np.pi
    for m in range(1, L + 1):
        Ath = 2.0 * Fth[..., m].real / nphi
        Bth = -2.0 * Fth[..., m].imag / nphi
        Aph = 2.0 * Fph[..., m].real / nphi
        Bph = -2.0 * Fph[..., m].imag / nphi
        Dm = D[m, : L + 1] * w
        Em = E[m, : L + 1] * w
        s[..., :, L + m] = sq2pi * (dot(Dm, Ath) - dot(Em, Bph)) / fac
        s[..., :, L - m] = sq2pi * (dot(Dm, Bth) + dot(Em, Aph)) / fac
        t[..., :, L + m] = sq2pi * (dot(Em, Bth) + dot(Dm, Aph)) / fac
        t[..., :, L - m] = sq2pi * (-dot(Em, Ath) + dot(Dm, Bph)) / fac
    s[..., 0, :] = 0.0
    t[..., 0, :] = 0.0
    return s, t


def ref_tangent_synthesis(grid, s, t, L):
    _, D, E = _legendre_tables(grid.pad_limit, grid.x)
    nphi = grid.n_phi
    Fth = np.zeros(s.shape[:-2] + (grid.n_theta, nphi // 2 + 1), dtype=complex)
    Fph = np.zeros_like(Fth)
    dot = lambda M, a: np.einsum("li,...l->...i", M, a)
    Fth[..., 0] = dot(D[0, : L + 1], s[..., :, L]) * nphi
    Fph[..., 0] = dot(D[0, : L + 1], t[..., :, L]) * nphi
    s2 = np.sqrt(2.0)
    for m in range(1, L + 1):
        Dm, Em = D[m, : L + 1], E[m, : L + 1]
        Ath = s2 * (dot(Dm, s[..., :, L + m]) - dot(Em, t[..., :, L - m]))
        Bth = s2 * (dot(Dm, s[..., :, L - m]) + dot(Em, t[..., :, L + m]))
        Aph = s2 * (dot(Em, s[..., :, L - m]) + dot(Dm, t[..., :, L + m]))
        Bph = s2 * (-dot(Em, s[..., :, L + m]) + dot(Dm, t[..., :, L - m]))
        Fth[..., m] = (Ath - 1j * Bth) * (nphi / 2.0)
        Fph[..., m] = (Aph - 1j * Bph) * (nphi / 2.0)
    return np.fft.irfft(Fth, n=nphi, axis=-1), np.fft.irfft(Fph, n=nphi, axis=-1)


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
@pytest.mark.parametrize(
    "grid_band, band", [(16, 0), (16, 1), (16, 8), (16, 16), (24, 24), (16, None)]
)
def test_transforms_match_per_order_reference(grid_band, band, lead):
    # band < band_limit, band = band_limit, and band = pad_limit (None)
    grid = SphereGrid.build(grid_band)
    L = grid.pad_limit if band is None else band
    rng = np.random.default_rng(L)
    v, w = rng.standard_normal((2,) + lead + (grid.n_theta, grid.n_phi))
    a, b = rng.standard_normal((2,) + lead + (L + 1, 2 * L + 1))
    pairs = [
        (analysis_batch(grid, v, L), ref_analysis(grid, v, L)),
        (synthesis_batch(grid, a, L), ref_synthesis(grid, a, L)),
        *zip(tangent_analysis_batch(grid, v, w, L), ref_tangent_analysis(grid, v, w, L)),
        *zip(tangent_synthesis_batch(grid, a, b, L), ref_tangent_synthesis(grid, a, b, L)),
    ]
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- the axisymmetric band: grids that carry orders |m| <= m_max -------------

BANDED = [(L, m_max) for L in (8, 16) for m_max in (0, 1, 2, 3)]


def banded_coeffs(rng, L, m_max, lead=(), lmin=0):
    """Random coefficients supported on l >= lmin and |m| <= m_max."""
    c = np.zeros(lead + (L + 1, 2 * L + 1))
    for l in range(lmin, L + 1):
        m = min(l, m_max)
        c[..., l, L - m : L + m + 1] = rng.standard_normal(lead + (2 * m + 1,))
    return c


def series(c, L):
    """fn(theta, phi) summing the real harmonic series c[l, m+L] term by term."""

    def fn(th, ph):
        P, _, _ = _legendre_tables(L, np.cos(th[:, 0]))
        out = (P[0].T @ c[:, L])[:, None] * np.ones_like(ph)
        for m in range(1, L + 1):
            cos_part = (P[m].T @ c[:, L + m])[:, None] * np.cos(m * ph)
            sin_part = (P[m].T @ c[:, L - m])[:, None] * np.sin(m * ph)
            out = out + np.sqrt(2.0) * (cos_part + sin_part)
        return out

    return fn


@pytest.mark.parametrize("L, m_max", BANDED)
def test_banded_round_trips_and_zero_off_band(L, m_max):
    # rounding bound as in test_round_trip_random: the full grid's round
    # trips at L = 16 already differ by 3e-14 (scalar) and 4e-14 (tangent)
    grid = SphereGrid.build(L, m_max=m_max)
    assert grid.n_phi == 2 * m_max + 2
    rng = np.random.default_rng(10 * L + m_max)
    c = banded_coeffs(rng, L, m_max)
    back = analysis_batch(grid, synthesis_batch(grid, c, L), L)
    assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))
    s, t = banded_coeffs(rng, L, m_max, (2,), lmin=1)
    s2, t2 = tangent_analysis_batch(grid, *tangent_synthesis_batch(grid, s, t, L), L)
    for new, ref in ((s2, s), (t2, t)):
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))
    # analyses of arbitrary grid values leave every column |m| > m_max at 0
    v, w = rng.standard_normal((2, grid.n_theta, grid.n_phi))
    off = np.abs(np.arange(-L, L + 1)) > m_max
    for a in (analysis_batch(grid, v, L), *tangent_analysis_batch(grid, v, w, L)):
        assert np.all(a[:, off] == 0.0)
    with pytest.raises(ValueError):
        SphereGrid.build(L, m_max=grid.pad_limit + 1)


@pytest.mark.parametrize("L, m_max", BANDED)
def test_banded_sampling_matches_full_grid(L, m_max):
    c = banded_coeffs(np.random.default_rng(L + m_max), L, m_max)
    fn = series(c, L)
    banded = SphereField.from_function(SphereGrid.build(L, m_max=m_max), fn).coeffs
    full = SphereField.from_function(SphereGrid.build(L), fn).coeffs
    assert np.max(np.abs(banded - full)) <= 1e-14 * np.max(np.abs(c))


def test_weights_sum_to_4pi(grid):
    assert abs(grid.weights.sum() - 4 * np.pi) < 1e-13 * 4 * np.pi


def test_constant_transform(grid):
    f = SphereField(grid, values=np.ones((grid.n_theta, grid.n_phi)))
    c = f.coeffs
    L = f.band
    assert abs(c[0, L] - np.sqrt(4 * np.pi)) < 1e-12
    c[0, L] = 0
    assert np.max(np.abs(c)) < 1e-12


def test_cos_theta_is_degree_one(grid):
    th, _ = grid.nodes
    f = SphereField(grid, values=np.cos(th))
    c = f.coeffs.copy()
    L = f.band
    assert abs(c[1, L] - np.sqrt(4 * np.pi / 3)) < 1e-12
    c[1, L] = 0
    assert np.max(np.abs(c)) < 1e-12


def test_round_trip_random(grid):
    f = random_field(grid, grid.band_limit, seed=1)
    g = SphereField(grid, values=f.values.copy(), band=grid.band_limit)
    err = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert err < 1e-12


def test_parseval(grid):
    f = random_field(grid, grid.band_limit, seed=2)
    quad = grid.quad(f.values**2)
    spec = np.sum(f.coeffs**2)
    assert abs(quad - spec) < 1e-12 * max(1.0, spec)


def test_normal_fields_match_samples(grid):
    th, ph = grid.nodes
    n1, n2, n3 = normal_component_fields(grid)
    assert np.max(np.abs(n1.values - np.sin(th) * np.cos(ph))) < 1e-13
    assert np.max(np.abs(n2.values - np.sin(th) * np.sin(ph))) < 1e-13
    assert np.max(np.abs(n3.values - np.cos(th))) < 1e-13


def test_laplace_beltrami_eigenvalues(grid):
    _, _, n3 = normal_component_fields(grid)
    out = laplace_beltrami(n3)
    assert np.max(np.abs(out.values + 2 * n3.values)) < 1e-12

    const = SphereField.constant(grid, 3.7)
    assert np.max(np.abs(laplace_beltrami(const).values)) < 1e-12

    f2 = random_field(grid, 2, seed=3, lmin=2)  # pure degree-2 harmonic
    out2 = laplace_beltrami(f2)
    assert np.max(np.abs(out2.values + 6 * f2.values)) < 1e-10


def test_surface_gradient_constant_and_n3(grid):
    const = SphereField.constant(grid, 2.0)
    g = surface_gradient(const)
    tth, tph = g.components
    assert np.max(np.abs(tth)) < 1e-13 and np.max(np.abs(tph)) < 1e-13

    # grad_S (cos th) = e3 - (e3.n) n, i.e. theta component -sin th
    th, _ = grid.nodes
    _, _, n3 = normal_component_fields(grid)
    tth, tph = surface_gradient(n3).components
    assert np.max(np.abs(tth + np.sin(th))) < 1e-12
    assert np.max(np.abs(tph)) < 1e-12


def test_gradient_is_tangential(grid):
    # n . grad_S f = 0 holds structurally; check Cartesian assembly
    f = random_field(grid, grid.band_limit, seed=4)
    t = surface_gradient(f)
    cart = t.cartesian()
    rhat, _, _ = grid.unit_vectors()
    ndot = np.einsum("kij,kij->ij", cart, rhat)
    assert np.max(np.abs(ndot)) < 1e-12 * max(1.0, np.max(np.abs(cart)))


def test_green_identity(grid):
    # int grad f . grad g dS = - int f lap g dS
    f = random_field(grid, grid.band_limit // 2, seed=5)
    g = random_field(grid, grid.band_limit // 2, seed=6)
    gf, gg = surface_gradient(f), surface_gradient(g)
    tfth, tfph = gf.components
    tgth, tgph = gg.components
    lhs = grid.quad(tfth * tgth + tfph * tgph)
    rhs = -grid.quad(f.values * laplace_beltrami(g).values)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_tangent_round_trip(grid):
    rng = np.random.default_rng(7)
    L = grid.band_limit
    s = np.zeros((L + 1, 2 * L + 1))
    t = np.zeros((L + 1, 2 * L + 1))
    for l in range(1, L + 1):
        s[l, L - l : L + l + 1] = rng.standard_normal(2 * l + 1)
        t[l, L - l : L + l + 1] = rng.standard_normal(2 * l + 1)
    v = TangentField(grid, spec=(s, t), band=L)
    tth, tph = v.components
    w = TangentField(grid, t_theta=tth, t_phi=tph, band=L)
    s2, t2 = w.spec
    assert np.max(np.abs(s2 - s)) < 1e-11
    assert np.max(np.abs(t2 - t)) < 1e-11


def test_integrate_examples(grid):
    one = SphereField.constant(grid, 1.0)
    assert abs(integrate_sphere(one) - 4 * np.pi) < 1e-12
    _, _, n3 = normal_component_fields(grid)
    assert abs(integrate_sphere(n3)) < 1e-12
    n3sq = SphereField(grid, values=n3.values**2)
    assert abs(integrate_sphere(n3sq) - 4 * np.pi / 3) < 1e-12


def test_projection_identities(grid):
    n1, _, _ = normal_component_fields(grid)
    p = project_kernel(n1)
    assert np.max(np.abs(p.values - n1.values)) < 1e-12

    const = SphereField.constant(grid, 1.0)
    assert np.max(np.abs(project_kernel(const).values)) < 1e-13

    f = random_field(grid, grid.band_limit, seed=9)
    total = project_kernel(f) + project_complement(f)
    assert np.max(np.abs(total.values - f.values)) < 1e-12
    # idempotent
    pp = project_kernel(project_kernel(f))
    assert np.max(np.abs(pp.values - project_kernel(f).values)) < 1e-13


def test_projection_matches_surface_integral_formula(grid):
    # orthogonal projector equals (3/4pi) n . int f n dS
    f = random_field(grid, grid.band_limit, seed=10)
    ns = normal_component_fields(grid)
    proj = np.zeros_like(f.values)
    for nk in ns:
        proj += (3.0 / (4 * np.pi)) * integrate_sphere(f * nk) * nk.values
    assert np.max(np.abs(proj - project_kernel(f).values)) < 1e-11


def test_kernel_identity(grid):
    # (lap_S + 2) y = 0 for every l = 1 field
    rng = np.random.default_rng(11)
    n1, n2, n3 = normal_component_fields(grid)
    y = rng.normal() * n1 + rng.normal() * n2 + rng.normal() * n3
    out = laplace_beltrami(y) + 2.0 * y
    assert np.max(np.abs(out.values)) < 1e-12


def test_solve_shifted(grid):
    const = SphereField.constant(grid, 1.0)
    eta = solve_shifted(const)
    assert np.max(np.abs(eta.values - 0.5)) < 1e-12

    f2 = random_field(grid, 2, seed=12, lmin=2)
    eta2 = solve_shifted(f2)
    assert np.max(np.abs(eta2.values + f2.values / 4)) < 1e-11

    _, _, n3 = normal_component_fields(grid)
    with pytest.raises(ValueError):
        solve_shifted(n3)
    assert kernel_obstruction(n3) > 0.99


def test_solve_shifted_round_trip(grid):
    f = project_complement(random_field(grid, grid.band_limit, seed=13))
    eta = solve_shifted(f)
    back = laplace_beltrami(eta) + 2.0 * eta
    assert np.max(np.abs(back.values - f.values)) < 1e-10
    assert kernel_obstruction(eta + SphereField.constant(grid, 1e-30)) < 1e-12


def test_rotation_equivariance(grid):
    f = random_field(grid, grid.band_limit, seed=14)
    k = 3
    beta = 2 * np.pi * k / grid.n_phi
    rotated = rotate_about_z(f, beta)
    shifted = np.roll(f.values, -k, axis=1)  # f(theta, phi + beta) on the grid
    assert np.max(np.abs(rotated.values - shifted)) < 1e-10


def test_sobolev_norm_scaling(grid):
    f = random_field(grid, grid.band_limit, seed=15)
    assert abs(sobolev_norm(2.0 * f, 1.5) - 2 * sobolev_norm(f, 1.5)) < 1e-10
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(np.sum(f.coeffs**2)))
