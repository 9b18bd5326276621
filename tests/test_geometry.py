"""Coordinate map, pullback tensors and curvature split."""

import warnings

import numpy as np
import pytest

from dropsteady import geometry
from dropsteady.geometry import (
    ETA_SOBOLEV_ORDER,
    HeightFunction,
    build_map,
    harmonic_extension,
    curvature_total,
    transformed_stress,
    volume_identity_defect,
    smoothstep,
    cutoff,
)
from dropsteady.operators import matvec
from dropsteady.sphere import SphereField, rotate_about_z, normal_component_fields, sobolev_norm
from dropsteady.volume import (
    VolumeGrid,
    VolumeField,
    grid_points,
    tensor_divergence,
    vector_gradient,
    INTERIOR,
    EXTERIOR,
)


@pytest.fixture(scope="module")
def vg():
    return VolumeGrid.build(band_limit=10, n_r_int=18, n_r_ext=36, r_inf=16.0)


def small_eta(vg, seed=0, amp=5e-3, band=4):
    rng = np.random.default_rng(seed)
    L = vg.sphere.band_limit
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(0, band + 1):
        damp = (1.0 + l * (l + 1.0)) ** -2.0
        c[l, L - l : L + l + 1] = amp * damp * rng.standard_normal(2 * l + 1)
    return SphereField(vg.sphere, coeffs=c, band=L)


def identity_map(grid):
    return build_map(HeightFunction(SphereField.zeros(grid.sphere)), grid)


def lipschitz_fit_A(grid, pairs) -> float:
    """Fitted constant C in |A(eta1) - A(eta2)|_inf <= C |eta1 - eta2|."""
    best = 0.0
    for eta1, eta2 in pairs:
        m1 = build_map(HeightFunction(eta1), grid)
        m2 = build_map(HeightFunction(eta2), grid)
        num = (m1.A - m2.A).max_abs()
        den = sobolev_norm(eta1 - eta2, ETA_SOBOLEV_ORDER)
        if den > 0:
            best = max(best, num / den)
    return best


def _cutoff_ext(r):
    """The extension cutoff of build_map: 1 for r <= 2, 0 for r >= 3."""
    return cutoff(np.asarray(r, float) - 1.0)[0]


def test_cutoff_shape():
    assert _cutoff_ext(1.5) == 1.0
    assert _cutoff_ext(3.2) == 0.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    # C^2: values and first two derivatives vanish smoothly at the ends
    eps = 1e-6
    assert abs(_cutoff_ext(2 + eps) - 1.0) < 1e-15


def test_extension_cutoff_is_the_shifted_unit_cutoff(vg, monkeypatch):
    """build_map's extension cutoff chi(r - 1) is 1 - smoothstep(r - 2) bit
    for bit, on [0, 5] and on the grid's nodes."""
    r = np.linspace(0.0, 5.0, 50001)
    assert np.array_equal(_cutoff_ext(r), 1.0 - smoothstep(r - 2.0))
    calls = []

    def recording_cutoff(*args):
        calls.append(cutoff(*args))
        return calls[-1]

    monkeypatch.setattr(geometry, "cutoff", recording_cutoff)
    build_map(HeightFunction(small_eta(vg)), vg)  # the identity map evaluates no cutoff
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], 1.0 - smoothstep(vg.r - 2.0))


@pytest.mark.parametrize("R", [1.0, 6.4, 20.0])
def test_cutoff_derivatives_match_finite_differences(R):
    """chi' and chi'' against centred differences of chi and chi', across
    the transition R < r < 2R and both flat ends."""
    r = np.linspace(0.5 * R, 2.5 * R, 2001)
    h = 1e-5 * R
    chi, d1, d2 = cutoff(r, R)
    assert chi[0] == 1.0 and chi[-1] == 0.0
    fd1 = (cutoff(r + h, R)[0] - cutoff(r - h, R)[0]) / (2.0 * h)
    fd2 = (cutoff(r + h, R)[1] - cutoff(r - h, R)[1]) / (2.0 * h)
    assert np.max(np.abs(d1 - fd1)) < 1e-8 / R
    # chi''' jumps at r = R and 2R, where the centred difference is first order
    assert np.max(np.abs(d2 - fd2)) < 1e-3 / R**2
    smooth = np.abs(r / R - 1.5) < 0.5 - 2e-5
    assert np.max(np.abs(d2 - fd2)[smooth]) < 1e-8 / R**2
    assert np.max(np.abs(d1)) == pytest.approx(1.875 / R)  # 30/16 at the midpoint


def test_harmonic_extension_zero(vg):
    eta = SphereField.zeros(vg.sphere)
    H = harmonic_extension(HeightFunction(eta), vg)
    assert H.max_abs() == 0.0


def test_harmonic_extension_constant(vg):
    c = 0.01
    eta = SphereField.constant(vg.sphere, c)
    H = harmonic_extension(HeightFunction(eta), vg)
    assert np.max(np.abs(H.blocks[INTERIOR] - c)) < 1e-12
    # independent l = 0 radial solve: H = -c/3 + 4c/(3r) on [1, 4]
    r = vg.exterior.r
    expect = np.where(r <= 4.0, -c / 3.0 + 4.0 * c / (3.0 * r), 0.0)
    got = H.blocks[EXTERIOR][:, 0, 0]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_harmonic_extension_n3(vg):
    _, _, n3 = normal_component_fields(vg.sphere)
    eta = 0.01 * n3
    H = harmonic_extension(HeightFunction(eta), vg)
    x, y, z = grid_points(vg, INTERIOR)
    assert np.max(np.abs(H.blocks[INTERIOR] - 0.01 * z)) < 1e-12


def test_harmonic_extension_is_harmonic(vg):
    """FD-radial x spectral-angular Laplacian of H vanishes in each phase."""
    from dropsteady.geometry import _extension_modes
    from dropsteady.sphere import laplace_beltrami as lb, synthesis_batch

    eta = small_eta(vg, seed=1)
    h = 2e-2
    for phase, r0 in ((INTERIOR, 0.55), (EXTERIOR, 2.2)):
        radii = r0 + h * np.arange(-2, 3)
        modes, _ = _extension_modes(eta, radii, radii.size if phase == INTERIOR else 0)
        H = synthesis_batch(vg.sphere, modes, vg.sphere.band_limit)
        d2 = (-H[4] + 16 * H[3] - 30 * H[2] + 16 * H[1] - H[0]) / (12 * h * h)
        d1 = (H[0] - 8 * H[1] + 8 * H[3] - H[4]) / (12 * h)
        shell = SphereField(vg.sphere, values=H[2], band=vg.sphere.band_limit)
        lap = d2 + 2.0 / r0 * d1 + lb(shell).values / r0**2
        assert np.max(np.abs(lap)) < 1e-9


def test_build_map_identity(vg, monkeypatch):
    """eta = 0 maps by the identity, E = 0, F = A = F^{-1} = I and J = 1
    exactly, without the harmonic extension; its interface quantities are
    bit for bit the general formulas at A_surf = I."""

    def refuse(*args):
        raise AssertionError("the identity map built the harmonic extension")

    moved = build_map(HeightFunction(small_eta(vg)), vg)
    monkeypatch.setattr(geometry, "_extension_modes", refuse)
    mp = identity_map(vg)
    assert mp.identity and not moved.identity
    eye = np.eye(3)[:, :, None, None, None]
    assert not mp.E.values.any() and np.all(mp.J.values == 1.0)
    for T in (mp.F, mp.A, mp.F_inv):
        assert np.array_equal(T.values, np.broadcast_to(eye, T.values.shape))
    rhat = vg.sphere.unit_vectors()[0]
    A_surf = np.broadcast_to(eye[..., 0, :, :], (3, 3) + rhat.shape[1:])
    Ntil = np.einsum("jiab,jab->iab", A_surf, rhat)
    norm = np.sqrt(np.einsum("iab,iab->ab", Ntil, Ntil))
    P_eta = eye[..., 0, :, :] - np.einsum("iab,jab->ijab", Ntil, Ntil) / (norm**2)[None, None]
    expected = {"A_surf": A_surf, "Ntil": Ntil, "Ntil_norm": norm, "n_gamma": Ntil / norm[None], "P_eta": P_eta}
    for name, ref in expected.items():
        assert np.array_equal(getattr(mp, name), ref), name


def test_trace_property_constant(vg):
    c = 0.02
    eta = SphereField.constant(vg.sphere, c)
    mp = build_map(HeightFunction(eta), vg)
    rhat, _, _ = vg.sphere.unit_vectors()
    Etr = mp.E.trace(INTERIOR)
    assert np.max(np.abs(Etr - c * rhat)) < 1e-12


def test_cofactor_identity(vg):
    eta = small_eta(vg, seed=2, amp=8e-3)
    mp = build_map(HeightFunction(eta), vg)
    for ph in (INTERIOR, EXTERIOR):
        AF = np.einsum("ikrab,kjrab->ijrab", mp.A.blocks[ph], mp.F.blocks[ph])
        eye = np.eye(3)[:, :, None, None, None]
        assert np.max(np.abs(AF - mp.J.blocks[ph] * eye)) < 1e-10


@pytest.fixture(scope="module", params=[8, 16])
def random_map(request):
    """build_map of a random admissible eta carrying every degree up to L."""
    L = request.param
    grid = VolumeGrid.build(band_limit=L, n_r_int=12, n_r_ext=20, r_inf=16.0)
    return build_map(HeightFunction(small_eta(grid, seed=L, amp=2e-2, band=L)), grid)


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_closed_form_inverse_matches_lapack(random_map):
    """J, A and F^{-1} by cofactors agree with LAPACK det/inv of the same F."""
    mp = random_map
    for ph in (INTERIOR, EXTERIOR):
        Fm = np.moveaxis(mp.F.blocks[ph], (0, 1), (-2, -1))
        det = np.linalg.det(Fm)
        inv = np.moveaxis(np.linalg.inv(Fm), (-2, -1), (0, 1))
        assert _rel_err(mp.J.blocks[ph], det) < 1e-13
        assert _rel_err(mp.F_inv.blocks[ph], inv) < 1e-13
        assert _rel_err(mp.A.blocks[ph], det * inv) < 1e-13
        assert np.max(np.abs(det - 1.0)) > 1e-3  # a map away from the identity


def test_pointwise_products_match_einsum(random_map):
    """transformed_stress and matvec against their einsum forms."""
    mp = random_map
    grid = mp.grid
    rng = np.random.default_rng(3)
    rand = lambda rank: VolumeField(grid, rng.standard_normal(VolumeField.zeros(grid, rank).values.shape))
    jac_w, q, v = rand(2), rand(0), rand(1)
    mu = (0.7, 1.9)
    T = transformed_stress(jac_w, q, mp, *mu)
    Av = matvec(mp.A, v)
    eye = np.eye(3)[:, :, None, None, None]
    for ph in (INTERIOR, EXTERIOR):
        G = np.einsum("ikrab,kjrab->ijrab", jac_w.blocks[ph], mp.F_inv.blocks[ph])
        inner = mu[ph] * (G + np.einsum("jirab->ijrab", G)) - q.blocks[ph][None, None] * eye
        ref = np.einsum("ikrab,jkrab->ijrab", inner, mp.A.blocks[ph])
        assert _rel_err(T.blocks[ph], ref) < 1e-13
        ref = np.einsum("ijrab,jrab->irab", mp.A.blocks[ph], v.blocks[ph])
        assert _rel_err(Av.blocks[ph], ref) < 1e-13


def test_build_map_needs_no_lapack(vg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_map called LAPACK")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    mp = build_map(HeightFunction(small_eta(vg, seed=9, amp=8e-3)), vg)
    assert np.min(mp.J.blocks[INTERIOR]) > 0.5


def test_support_of_extension(vg):
    eta = small_eta(vg, seed=3)
    mp = build_map(HeightFunction(eta), vg)
    r = vg.exterior.r
    far = r >= 4.0
    assert np.max(np.abs(mp.E.blocks[EXTERIOR][:, far])) == 0.0
    F_far = mp.F.blocks[EXTERIOR][:, :, far]
    assert np.max(np.abs(F_far - np.eye(3)[:, :, None, None, None])) < 1e-15
    assert np.max(np.abs(mp.J.blocks[EXTERIOR][far] - 1.0)) < 1e-15


def test_extension_does_not_overflow_at_large_band_limit():
    """The reservoir branch alpha r^l + beta r^-(l+1) is evaluated on the
    radii up to the annulus edge only: at L = 180, r^l would overflow at
    the outer node r_inf = 64."""
    grid = VolumeGrid.build(180, 2, 4, 64.0, m_max=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_map(HeightFunction(SphereField.zeros(grid.sphere)), grid)


def test_piola_identity(vg):
    eta = small_eta(vg, seed=4, amp=5e-3)
    mp = build_map(HeightFunction(eta), vg)
    AT = VolumeField(vg, np.einsum("ijrab->jirab", mp.A.values))
    div = tensor_divergence(AT)
    scale = max(1e-30, (mp.A - identity_map(vg).A).max_abs())
    assert np.max(np.abs(div.blocks[INTERIOR])) < 1e-6 * max(1.0, scale)
    # exterior has the C^2 cutoff kinks; only discretization accuracy
    assert np.max(np.abs(div.blocks[EXTERIOR])) < 2e-2 * scale


def test_rotation_equivariance_of_extension(vg):
    eta = small_eta(vg, seed=5)
    k = 4
    beta = 2 * np.pi * k / vg.sphere.n_phi
    eta_rot = rotate_about_z(eta, beta)
    m1 = build_map(HeightFunction(eta_rot), vg)
    m2 = build_map(HeightFunction(eta), vg)
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb, 0.0], [sb, cb, 0.0], [0.0, 0.0, 1.0]])
    for ph in (INTERIOR, EXTERIOR):
        E2 = np.roll(m2.E.blocks[ph], -k, axis=-1)  # E(eta)(R x) on the grid
        rhs = np.einsum("ji,jrab->irab", R, E2)  # R^T E(eta)(Rx)
        assert np.max(np.abs(m1.E.blocks[ph] - rhs)) < 1e-11


def test_inadmissible_eta_rejected(vg):
    big = SphereField.constant(vg.sphere, 0.5)
    with pytest.raises(ValueError):
        HeightFunction(big)
    # bypass the norm gate: J <= 1/2 must still be caught
    hf = HeightFunction(SphereField.zeros(vg.sphere))
    hf.eta = SphereField.constant(vg.sphere, -0.9)
    with pytest.raises(ValueError, match="det"):
        build_map(hf, vg)


def test_transformed_stress_at_identity(vg):
    mp = identity_map(vg)
    w = VolumeField.zeros(vg, rank=1)
    q = VolumeField.from_function(vg, lambda x, y, z: np.ones_like(x))
    T = transformed_stress(vector_gradient(w), q, mp, mu1=1.0, mu2=1.0)
    eye = np.eye(3)[:, :, None, None, None]
    for ph in (INTERIOR, EXTERIOR):
        assert np.max(np.abs(T.blocks[ph] + eye)) < 1e-12

    # linear shear is representable only in the interior basis
    shear = VolumeField.from_function(
        vg, lambda x, y, z: np.stack([y, 0 * y, 0 * y]), rank=1
    )
    mu = 0.7
    T2 = transformed_stress(
        vector_gradient(shear), VolumeField.zeros(vg), mp, mu1=mu, mu2=mu
    )
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = mu
    got = T2.blocks[INTERIOR]
    assert np.max(np.abs(got - expect[:, :, None, None, None])) < 1e-11


def test_transformed_stress_piola_oracle(vg):
    """Div T^eta(w,q) = J (Div T(v,p)) o Phi for w = v o Phi, q = p o Phi."""
    eta = small_eta(vg, seed=6, amp=4e-3, band=2)
    mp = build_map(HeightFunction(eta), vg)
    mu = 1.3

    def v(x, y, z):
        return np.stack([y * z, x - z * z, x * y])

    def p(x, y, z):
        return x * y + z

    x, y, z = grid_points(vg, INTERIOR)
    E = mp.E.blocks[INTERIOR]
    xm, ym, zm = x + E[0], y + E[1], z + E[2]  # Phi(x)
    w = VolumeField.zeros(vg, rank=1)
    q = VolumeField.zeros(vg)
    w.blocks[INTERIOR][...] = v(xm, ym, zm)
    q.blocks[INTERIOR][...] = p(xm, ym, zm)
    T = transformed_stress(vector_gradient(w), q, mp, mu1=mu, mu2=mu)
    div = tensor_divergence(T)
    # Div T(v,p) = mu lap v - grad p = mu (0,-2,0) - (y, x, 1), composed with Phi
    exact = np.stack([-ym, mu * -2.0 - xm, -np.ones_like(zm)])
    rhs = mp.J.blocks[INTERIOR] * exact
    err = np.max(np.abs(div.blocks[INTERIOR] - rhs))
    assert err < 5e-7


def test_normal_projection(vg):
    eta = small_eta(vg, seed=7, amp=8e-3)
    mp = build_map(HeightFunction(eta), vg)
    ng, P = mp.n_gamma, mp.P_eta
    # projector annihilates the transformed normal and is idempotent
    PN = np.einsum("ijab,jab->iab", P, mp.Ntil)
    assert np.max(np.abs(PN)) < 1e-10
    PP = np.einsum("ikab,kjab->ijab", P, P)
    assert np.max(np.abs(PP - P)) < 1e-10
    nrm = np.einsum("iab,iab->ab", ng, ng)
    assert np.max(np.abs(nrm - 1.0)) < 1e-12

    mp0 = identity_map(vg)
    rhat, _, _ = vg.sphere.unit_vectors()
    P0 = np.eye(3)[:, :, None, None] - np.einsum("iab,jab->ijab", rhat, rhat)
    assert np.max(np.abs(mp0.P_eta - P0)) < 1e-13


def test_curvature_small_perturbation_series(vg):
    """For eta = eps n3: linear part is in the kernel, total is O(eps^2)."""
    _, _, n3 = normal_component_fields(vg.sphere)
    eps = 1e-3
    t1 = curvature_total(eps * n3).values
    t2 = curvature_total((eps / 2) * n3).values
    assert np.max(np.abs(t1)) < 10 * eps**2
    # quadratic-coefficient estimates from two eps agree to O(eps)
    a1 = t1 / eps**2
    a2 = t2 / (eps / 2) ** 2
    assert np.max(np.abs(a1 - a2)) < 50 * eps * max(1.0, np.max(np.abs(a1)))


def test_volume_identity(vg):
    eta = small_eta(vg, seed=8, amp=8e-3)
    mp = build_map(HeightFunction(eta), vg)
    assert abs(volume_identity_defect(mp)) < 1e-10


def test_lipschitz_fit_reported(vg):
    pairs = [
        (small_eta(vg, seed=10, amp=5e-3), small_eta(vg, seed=11, amp=5e-3)),
        (small_eta(vg, seed=12, amp=3e-3), small_eta(vg, seed=13, amp=6e-3)),
    ]
    C = lipschitz_fit_A(vg, pairs)
    assert np.isfinite(C) and C > 0
