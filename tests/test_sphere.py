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


def _legendre_by_order_and_degree(lmax, x, mmax):
    """The reference recursion: one (m, l) entry at a time."""
    sin_th = np.sqrt(1.0 - x * x)
    P = np.zeros((mmax + 1, lmax + 1, x.size))
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
    return P


@pytest.mark.parametrize("band, m_max", [(16, None), (32, None), (16, 2), (24, 2)])
def test_legendre_tables_match_the_per_entry_recursion(band, m_max):
    """All orders advance in one slice per degree, bit for bit as entry by
    entry; the derivative tables are formed from P alone."""
    g = SphereGrid.build(band, m_max=m_max)
    P, _, _ = _legendre_tables(g.pad_limit, g.x, g.m_max)
    assert np.array_equal(P, _legendre_by_order_and_degree(g.pad_limit, g.x, g.m_max))


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


def tangent_series(s, t, L):
    """fn(theta, phi) -> (t_theta, t_phi) summing the spheroidal/toroidal
    series (s, t) term by term (the formulas of ref_tangent_synthesis)."""

    def fn(th, ph):
        _, D, E = _legendre_tables(L, np.cos(th[:, 0]))

        def dot(T, a):
            return (T.T @ a)[:, None]

        tth = dot(D[0], s[:, L]) * np.ones_like(ph)
        tph = dot(D[0], t[:, L]) * np.ones_like(ph)
        for m in range(1, L + 1):
            cm, sm = np.sqrt(2.0) * np.cos(m * ph), np.sqrt(2.0) * np.sin(m * ph)
            sp, sn, tp, tn = s[:, L + m], s[:, L - m], t[:, L + m], t[:, L - m]
            tth = tth + (dot(D[m], sp) - dot(E[m], tn)) * cm + (dot(D[m], sn) + dot(E[m], tp)) * sm
            tph = tph + (dot(E[m], sn) + dot(D[m], tp)) * cm + (dot(D[m], tn) - dot(E[m], sp)) * sm
        return tth, tph

    return fn


@pytest.mark.parametrize("L, m_max", BANDED)
def test_banded_round_trips_and_zero_off_band(L, m_max):
    # rounding bound as in test_round_trip_random: the full grid's round
    # trips at L = 16 already differ by 3e-14 (scalar) and 4e-14 (tangent)
    grid = SphereGrid.build(L, m_max=m_max)
    assert grid.n_phi == 2 * m_max + 2
    M = min(L, m_max)
    carried = slice(L - M, L + M + 1)  # the grid's orders in the dense layout
    rng = np.random.default_rng(10 * L + m_max)
    c = banded_coeffs(rng, L, m_max)
    back = analysis_batch(grid, synthesis_batch(grid, c, L), L)
    assert np.max(np.abs(back - c[:, carried])) <= 1e-12 * np.max(np.abs(c))
    s, t = banded_coeffs(rng, L, m_max, (2,), lmin=1)
    s2, t2 = tangent_analysis_batch(grid, *tangent_synthesis_batch(grid, s, t, L), L)
    for new, ref in ((s2, s), (t2, t)):
        assert np.max(np.abs(new - ref[..., carried])) <= 1e-12 * np.max(np.abs(ref))
    # an analysis has the 2 M + 1 order columns of the grid and equals the
    # full grid's analysis restricted to them, on content up to order M + 1:
    # the one order beyond M the grid's azimuths resolve is dropped, not folded
    c = banded_coeffs(rng, L, M + 1)
    s, t = banded_coeffs(rng, L, M + 1, lmin=1, lead=(2,))
    got, ref = (
        (
            analysis_batch(g, series(c, L)(*g.nodes), L),
            *tangent_analysis_batch(g, *tangent_series(s, t, L)(*g.nodes), L),
        )
        for g in (grid, SphereGrid.build(L))
    )
    for a, full in zip(got, ref):
        assert a.shape == (L + 1, 2 * M + 1)
        assert np.max(np.abs(a - full[:, carried])) <= 1e-13 * np.max(np.abs(full))
    with pytest.raises(ValueError):
        SphereGrid.build(L, m_max=grid.pad_limit + 1)


@pytest.mark.parametrize("L, m_max", BANDED)
def test_banded_sampling_matches_full_grid(L, m_max):
    c = banded_coeffs(np.random.default_rng(L + m_max), L, m_max)
    fn = series(c, L)
    banded = SphereField.from_function(SphereGrid.build(L, m_max=m_max), fn).coeffs
    full = SphereField.from_function(SphereGrid.build(L), fn).coeffs
    M = min(L, m_max)
    assert banded.shape == (L + 1, 2 * M + 1) and full.shape == (L + 1, 2 * L + 1)
    carried = np.s_[L - M : L + M + 1]  # the banded orders among the full grid's columns
    assert np.max(np.abs(banded - full[:, carried])) <= 1e-14 * np.max(np.abs(c))
    rest = np.delete(full, carried, axis=-1)
    assert np.max(np.abs(rest), initial=0.0) <= 1e-14 * np.max(np.abs(c))


def test_one_shell_fields_hold_only_the_grid_orders():
    """Every SphereField/TangentField path on the band keeps the
    2 min(band, m_max) + 1 order columns a transform returns."""
    grid = SphereGrid.build(16, m_max=2)
    L, P = grid.band_limit, grid.pad_limit

    def width(band):
        return 2 * min(band, grid.m_max) + 1

    f = SphereField(grid, coeffs=banded_coeffs(np.random.default_rng(5), L, 2, lmin=2), band=L)
    fields = {
        "zeros": SphereField.zeros(grid),
        "zeros(band=1)": SphereField.zeros(grid, band=1),
        "constant": SphereField.constant(grid, 2.0),
        "values->coeffs": SphereField(grid, values=f.values),
        "with_band(1)": f.with_band(1),
        "with_band(pad_limit)": f.with_band(P),
        "+": f + f.with_band(1),
        "laplace_beltrami": laplace_beltrami(f),
        "project_kernel": project_kernel(f),
        "project_complement": project_complement(f),
        "solve_shifted": solve_shifted(f),
        "rotate_about_z": rotate_about_z(f, 0.3),
        "band = pad_limit": SphereField(grid, values=f.values, band=P),
    }
    for name, h in fields.items():
        assert h.coeffs.shape == (h.band + 1, width(h.band)), name
    tangents = {
        "zeros": TangentField.zeros(grid),
        "surface_gradient": surface_gradient(f),
        "+": surface_gradient(f) + surface_gradient(f.with_band(1)),
        "components->spec": TangentField(grid, *surface_gradient(f).components),
        "band = pad_limit": TangentField(grid, *surface_gradient(f).components, band=P),
    }
    for name, t in tangents.items():
        assert all(h.shape == (t.band + 1, width(t.band)) for h in t.spec), name
    np.testing.assert_array_equal(rotate_about_z(f, 0.0).coeffs, f.coeffs)


def test_axisymmetric_grid_projectors():
    """On an m_max = 0 grid (one order column) the l = 1 projectors split a
    field, and the integral and the normal components are available."""
    grid = SphereGrid.build(8, m_max=0)
    f = SphereField(grid, coeffs=banded_coeffs(np.random.default_rng(6), 8, 0), band=8)
    assert f.coeffs.shape == (9, 1)
    split = project_kernel(f) + project_complement(f)
    np.testing.assert_array_equal(split.coeffs, f.coeffs)
    assert project_kernel(f).coeffs[1, 0] == f.coeffs[1, 0]
    assert abs(integrate_sphere(f) - grid.quad(f.values)) <= 1e-13 * np.max(np.abs(f.coeffs))
    n1, n2, n3 = normal_component_fields(grid)
    assert np.all(n1.coeffs == 0.0) and np.all(n2.coeffs == 0.0)
    assert np.max(np.abs(n3.values - np.cos(grid.nodes[0]))) <= 1e-14


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


@pytest.mark.parametrize("m_max", [None, 2])
def test_tangent_spec_is_one_array(m_max):
    """A tangent field's spec is one (2, L+1, 2M+1) array, M = min(L,
    m_max), centred on m = 0, whether it was given (as a pair, with order
    columns to pad or to drop) or analysed from components."""
    L = 6
    grid = SphereGrid.build(L, m_max=m_max)
    M = min(L, grid.m_max)
    rng = np.random.default_rng(2)
    given = TangentField(grid, spec=tuple(rng.standard_normal((2, L + 1, 2 * L + 1))), band=L)
    fields = {
        "given": given,
        "zeros": TangentField.zeros(grid),
        "analysed": TangentField(grid, *given.components, band=L),
    }
    for name, f in fields.items():
        assert isinstance(f.spec, np.ndarray) and f.spec.shape == (2, L + 1, 2 * M + 1), name


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
