"""Linear operator rows, constructive inverse, nonlinear assembly."""

from dataclasses import replace

import numpy as np
import pytest

from dropsteady.geometry import HeightFunction, build_map, curvature_nonlinear, stress, transformed_stress
from dropsteady.operators import (
    DropState,
    YElement,
    _tangent_from_cartesian,
    _traction_jump,
    apply_L,
    assemble_N,
    build_context,
    invert_L,
    matvec,
    norm_X,
    norm_Y,
)
from dropsteady.sphere import (
    SphereField,
    integrate_sphere,
    normal_component_fields,
    sobolev_norm,
)
from dropsteady.stokes import (
    PhysicalParams,
    auxiliary_field,
    lambda0_value,
    solve_two_phase,
)
from dropsteady.validate import random_state
from dropsteady.volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    analysis_batch,
    e3_column,
    integrate_phase,
    norm_l2,
    scalar_gradient,
    synthesis_batch,
    tensor_divergence,
    vector_divergence,
    vector_gradient,
    vector_laplacian,
    vsh_assemble,
    vsh_channels,
)

L_TEST = 10


@pytest.fixture(scope="module")
def vg():
    return VolumeGrid.build(band_limit=L_TEST, n_r_int=18, n_r_ext=28, r_inf=64.0)


@pytest.fixture(scope="module")
def ctx(vg):
    return build_context(vg, PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-3))


@pytest.fixture(scope="module")
def ctx0(vg, ctx):
    return build_context(vg, PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=0.0), aux=ctx.aux)


def test_context_on_shared_aux(vg, ctx):
    """A context built on another's auxiliary field keeps its own lambda0
    and ball radius; a field from another grid object or with other
    viscosities is refused, and the shared arrays cannot be written."""
    shared = build_context(vg, PhysicalParams(rho_tilde=2e-2), aux=ctx.aux)
    assert shared.aux is ctx.aux
    assert shared.lambda0 == lambda0_value(2e-2, ctx.aux.e3_drag)
    assert shared.ball_radius == 2e-2**0.8 != ctx.ball_radius
    twin = VolumeGrid.build(band_limit=L_TEST, n_r_int=18, n_r_ext=28, r_inf=64.0)
    for grid, params in ((twin, PhysicalParams()), (vg, PhysicalParams(mu1=2.0)), (vg, PhysicalParams(mu2=0.5))):
        with pytest.raises(ValueError, match="another grid or other viscosities"):
            build_context(grid, params, aux=ctx.aux)
    for arr in (*ctx.aux.U.blocks, *ctx.aux.P.blocks, *ctx.aux.jacU.blocks):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def random_sphere_field(g, seed, amp=1.0, damp=2.0, band=None):
    rng = np.random.default_rng(seed)
    L = g.band_limit if band is None else band
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(L + 1):
        w = amp * (1.0 + l * (l + 1.0)) ** (-damp)
        c[l, L - l : L + l + 1] = w * rng.standard_normal(2 * l + 1)
    return SphereField(g, coeffs=c, band=L)


def random_volume_scalar(vg, seed, amp=1.0):
    """Smooth decaying scalar: interior polynomial, exterior O(1/r^2)."""
    rng = np.random.default_rng(seed)

    def fn(x, y, z):
        r2 = x * x + y * y + z * z
        a, b, c = rng.standard_normal(3)
        inner = a + b * z + c * (x * y + z * z)
        return amp * inner * np.where(r2 <= 1.0 + 1e-12, 1.0, 1.0 / r2**2)

    # sample per phase with the same coefficients
    rng = np.random.default_rng(seed)
    return VolumeField.from_function(vg, fn)


def random_volume_vector(vg, seed, amp=1.0):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, 4))

    def fn(x, y, z):
        r2 = x * x + y * y + z * z
        decay = np.where(r2 <= 1.0 + 1e-12, 1.0, 1.0 / r2**2)
        comps = [
            (coef[i, 0] + coef[i, 1] * x + coef[i, 2] * z + coef[i, 3] * x * y) * decay
            for i in range(3)
        ]
        return amp * np.stack(comps)

    return VolumeField.from_function(vg, fn, rank=1)


# ---------------------------------------------------------------------------


def test_apply_zero(ctx):
    y = apply_L(DropState.zeros(ctx.grid), ctx)
    assert norm_Y(y)["total"] < 1e-12


def test_apply_kappa_only(ctx):
    st = DropState.zeros(ctx.grid)
    st.kappa = 1.0
    y = apply_L(st, ctx)
    assert abs(y.a1 - ctx.e3_drag) < 1e-12
    assert np.max(np.abs(y.h3.values + ctx.jumpU_n.values)) < 1e-12
    assert norm_Y(y)["f"] < 1e-12 and abs(y.a2) < 1e-14


def test_apply_eta_n3(ctx):
    _, _, n3 = normal_component_fields(ctx.grid.sphere)
    st = DropState.zeros(ctx.grid)
    st.eta = n3.copy()
    y = apply_L(st, ctx)
    # sigma (lap+2) n3 = 0 and the kernel term gives n3 / 3
    assert np.max(np.abs(y.h3.values - n3.values / 3.0)) < 1e-11
    assert abs(y.a2) < 1e-12


def test_invert_zero(ctx):
    st = invert_L(YElement.zeros(ctx.grid), ctx)
    assert norm_X(st, ctx.lambda0)["total"] < 1e-11


def test_invert_a1_only(ctx):
    y = YElement.zeros(ctx.grid)
    y.a1 = 0.7
    st = invert_L(y, ctx)
    assert abs(st.kappa - 0.7 / ctx.e3_drag) < 1e-10
    assert st.u.max_abs() < 1e-10
    # eta solves the kappa-stress term equation; row 7 must close
    back = apply_L(st, ctx)
    assert abs(back.a1 - 0.7) < 1e-9
    assert np.max(np.abs(back.h3.values)) < 1e-9


@pytest.mark.parametrize("lam0", [1e-3, 1e-2])
def test_round_trip_random(vg, lam0):
    params = PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-3)
    ctx = replace(build_context(vg, params), lambda0=lam0)
    errs = []
    a2_errs = []
    state_errs = []
    for seed in range(3):
        x0 = random_state(vg, np.random.default_rng(100 + 17 * seed))
        y = apply_L(x0, ctx)
        st = invert_L(y, ctx)
        back = apply_L(st, ctx)
        diff = back.combine(y, 1.0, -1.0)
        errs.append(norm_Y(diff)["total"] / norm_Y(y)["total"])
        a2_errs.append(abs(integrate_sphere(st.eta) - y.a2))
        # injectivity surrogate: the generating state is recovered
        dx = st.combine(x0, 1.0, -1.0)
        state_errs.append(
            norm_X(dx, lam0)["total"] / max(norm_X(x0, lam0)["total"], 1e-30)
        )
    assert max(errs) < 1e-7
    # row 6 reproduced without direct imposition
    assert max(a2_errs) < 1e-9
    assert max(state_errs) < 1e-6


def test_invert_L_recovers_a2_whatever_the_normal_jump_integral(vg, ctx):
    """Row 6 comes out of the pressure constant exactly even where the
    auxiliary field's normal traction jump does not integrate to zero: a
    constant planted in jumpU_n, which apply_L and invert_L both read,
    leaves int eta = a2 intact."""
    c = 0.25
    jump_n, jump_t = ctx.aux.traction_jump
    planted = replace(ctx, aux=replace(ctx.aux, traction_jump=(jump_n + SphereField.constant(vg.sphere, c), jump_t)))
    assert abs(integrate_sphere(planted.jumpU_n) - integrate_sphere(jump_n) - 4.0 * np.pi * c) < 1e-12
    x0 = random_state(vg, np.random.default_rng(3))
    y = apply_L(x0, planted)
    st = invert_L(y, planted)
    assert abs(st.kappa) > 0.1
    assert abs(integrate_sphere(st.eta) - y.a2) <= 1e-13


@pytest.mark.parametrize("m_max", [None, 2])
def test_stokes_solve_takes_L_rows_as_written(m_max):
    """The Stokes solve reads rows 1-4 as apply_L writes them (row 1 in
    stress form): on L of a random state, with Div u != 0, unequal
    viscosities and a drift, it returns the state's velocity, and its
    pressure up to the drop's constant.  Row 1 holds nothing the channels
    drop: its drift takes d3 on channels, as the solve does."""
    vg = VolumeGrid.build(8, 16, 24, 64.0, m_max=m_max)
    params = PhysicalParams(mu1=2.5, mu2=0.8, rho_tilde=1e-2)
    ctx = build_context(vg, params)
    x0 = random_state(vg, np.random.default_rng(11))
    y = apply_L(x0, ctx)
    assert ctx.lambda0 != 0.0 and y.g.max_abs() > 0.0
    assert np.max(np.abs(vsh_assemble(vg, *vsh_channels(y.f)) - y.f.values)) <= 1e-12 * y.f.max_abs()
    sol = solve_two_phase(y, ctx.lambda0, params, ctx.aux.solver)
    assert (sol.u - x0.u).max_abs() <= 1e-10 * x0.u.max_abs()
    drop, res = (sol.p - x0.p).blocks
    assert np.ptp(drop) <= 1e-10 * x0.p.max_abs()
    assert np.max(np.abs(res)) <= 1e-10 * x0.p.max_abs()


def test_N_zero_state_zero_rho(ctx0):
    y = assemble_N(DropState.zeros(ctx0.grid), ctx0)[0]
    assert norm_Y(y)["total"] < 1e-10


def test_N_zero_state_nonzero_rho(ctx):
    st = DropState.zeros(ctx.grid)
    y = assemble_N(st, ctx)[0]
    g = ctx.grid.sphere
    rhat = g.unit_vectors()[0]
    lam0 = ctx.lambda0
    # N7 = lambda0 n.[[T(U,P)n]] - rho~ e3.n at the zero state
    expect = lam0 * ctx.jumpU_n.values - ctx.params.rho_tilde * rhat[2]
    assert np.max(np.abs(y.h3.values - expect)) < 1e-10
    assert abs(y.a2) < 1e-14  # N6 = 0
    assert np.max(np.abs(y.h1.values)) < 1e-12  # N3 = 0 at eta = 0
    # the advection of the translating drop, lambda0^2 (grad U)(U + e3), is in row 1
    assert norm_Y(y)["f"] > 0


def test_N_constant_eta_row6(ctx):
    c = 5e-3
    st = DropState.zeros(ctx.grid)
    st.eta = SphereField.constant(ctx.grid.sphere, c)
    y = assemble_N(st, ctx)[0]
    expect = -4.0 * np.pi * (c**2 + c**3 / 3.0)
    assert abs(y.a2 - expect) < 1e-14


def test_N_compatibility_and_tangency(ctx):
    g = ctx.grid.sphere
    st = DropState.zeros(ctx.grid)
    st.u = random_volume_vector(ctx.grid, 7, amp=1e-3)
    st.p = random_volume_scalar(ctx.grid, 8, amp=1e-3)
    st.kappa = 1e-3
    st.eta = random_sphere_field(g, 9, amp=2e-3, damp=2.5)
    y = assemble_N(st, ctx)[0]
    scale = max(norm_Y(y)["total"], 1e-30)
    assert abs(y.compatibility_defect()) < 1e-10 * max(1.0, scale)
    # equivariance-lite: N of the zero state is axisymmetric
    st0 = DropState.zeros(ctx.grid)
    y0 = assemble_N(st0, ctx)[0]
    c3 = y0.h3.coeffs
    Lb = y0.h3.band
    m_leak = np.max(np.abs(np.delete(c3, Lb, axis=1)))
    assert m_leak < 1e-12


def test_N_lipschitz_fit(ctx):
    g = ctx.grid.sphere

    def mk(seed, amp):
        st = DropState.zeros(ctx.grid)
        st.u = random_volume_vector(ctx.grid, seed, amp=amp)
        st.p = random_volume_scalar(ctx.grid, seed + 1, amp=amp)
        st.kappa = amp * 0.3
        st.eta = random_sphere_field(g, seed + 2, amp=amp, damp=2.5)
        return st

    s1, s2 = mk(20, 2e-3), mk(30, 1e-3)
    y1, y2 = assemble_N(s1, ctx)[0], assemble_N(s2, ctx)[0]
    dy = norm_Y(y1.combine(y2, 1.0, -1.0))["total"]
    dx = norm_X(s1.combine(s2, 1.0, -1.0), ctx.lambda0)["total"]
    C = dy / dx
    assert np.isfinite(C) and C > 0


@pytest.mark.parametrize("rho", [1e-3, 0.3])
def test_N_at_the_translating_drop_skips_only_vanishing_terms(vg, ctx, rho):
    """At the translating drop eta = 0, the interface map is the identity and
    assemble_N leaves out the interface-map terms.  The general path at the
    same state with eta = 1e-30 Y_20 agrees row by row to 1e-20 of N's scale,
    its largest entry: h1 and a2 vanish at eta = 0, and h2, a1 and h3 are
    rounding-level there, since the drop meets the interface rows."""
    ctx = build_context(vg, PhysicalParams(rho_tilde=rho), aux=ctx.aux)
    drop = DropState.zeros(vg)
    K = vg.sphere.m_max
    c = np.zeros((vg.sphere.band_limit + 1, 2 * K + 1))
    c[2, K] = 1e-30
    tiny = replace(drop, eta=SphereField(vg.sphere, coeffs=c))
    (y_drop, at_drop), (y_tiny, at_tiny) = assemble_N(drop, ctx), assemble_N(tiny, ctx)
    assert at_drop.mp.identity and not at_tiny.mp.identity
    got, ref = _rows(y_drop), _rows(y_tiny)
    scale = max(np.max(np.abs(row)) for row in got)
    for name, a, b in zip(("f", "g", "h1", "h2", "a1", "a2", "h3"), got, ref):
        assert np.max(np.abs(a - b)) <= 1e-20 * scale, name


def _assemble_N_term_by_term(state, ctx):
    """N expanded in u and lambda U, each term on its own: the reference
    for assemble_N, which forms the same rows in w = u + lambda U."""
    grid, params = ctx.grid, ctx.params
    g = grid.sphere
    lam0 = ctx.lambda0
    kappa, eta = state.kappa, state.eta
    lam = lam0 + kappa
    mu1, mu2 = params.mu1, params.mu2
    mp = build_map(HeightFunction(eta), grid)
    eye = np.eye(3)[:, :, None, None, None]
    u, p = state.u, state.p
    jac_u = vector_gradient(u)
    U, P = ctx.aux.U, ctx.aux.P
    jacU = vector_gradient(U)
    T_eta_u = transformed_stress(jac_u, p, mp, mu1, mu2)
    mu = grid.phase_profile(mu1, mu2)
    T_flat_u = VolumeField(grid, stress(jac_u.values, p.values, mu))
    T_eta_U = transformed_stress(jacU, P, mp, mu1, mu2)
    T_flat_U = VolumeField(grid, stress(jacU.values, P.values, mu))
    divT_eta_U = tensor_divergence(T_eta_U - T_flat_U)  # Div T(U, P) = 0
    divT_diff_u = tensor_divergence(T_eta_u - T_flat_u)

    def rho_scale(fld):
        return fld.phasewise_scale(params.rho1, params.rho2)

    Au = matvec(mp.A, u)
    AU = matvec(mp.A, U)
    Ae3 = VolumeField(grid, mp.A.values[:, 2])
    e3f = VolumeField.zeros(grid, rank=1)
    e3f.values[2] = 1.0
    N1 = (
        lam * divT_eta_U
        + divT_diff_u
        - rho_scale(matvec(jac_u, Au))
        - lam * rho_scale(matvec(jac_u, AU) + matvec(jacU, Au))
        - lam**2 * rho_scale(matvec(jacU, AU))
        - kappa * rho_scale(matvec(jac_u, Ae3))
        - lam0 * rho_scale(matvec(jac_u, Ae3 - e3f))
        - lam**2 * rho_scale(matvec(jacU, Ae3))
    )
    ImA = VolumeField(grid, eye - mp.A.values)
    AmI_U = matvec(VolumeField(grid, mp.A.values - eye), U)
    N2 = vector_divergence(matvec(ImA, u)) - lam * (vector_divergence(AmI_U) + vector_divergence(U))
    rhat = g.unit_vectors()[0]
    u_surf = u.trace(INTERIOR)
    e3_surf = np.zeros_like(u_surf)
    e3_surf[2] = 1.0
    vec = u_surf + lam * (U.trace(INTERIOR) + e3_surf)
    N3 = SphereField(g, values=np.einsum("iab,iab->ab", vec, rhat - mp.Ntil))

    def jump(T):
        return _traction_jump(grid, T.trace(INTERIOR), T.trace(EXTERIOR))

    jump_u_flat = jump(T_flat_u)
    jn = np.einsum("iab,iab->ab", jump_u_flat, rhat)
    jump_eta_u = jump(T_eta_u)
    jump_eta_U = jump(T_eta_U)

    def A_Peta(x):
        return np.einsum("ijab,jab->iab", mp.A_surf, np.einsum("ijab,jab->iab", mp.P_eta, x))

    N4_vec = jump_u_flat - jn[None] * rhat - A_Peta(jump_eta_u) - lam * A_Peta(jump_eta_U)
    N4 = _tangent_from_cartesian(grid, N4_vec)
    w = g.weights
    N5 = lam * (ctx.e3_drag - float(np.einsum("ab,ab->", w, jump_eta_U[2]))) + float(
        np.einsum("ab,ab->", w, jump_u_flat[2] - jump_eta_u[2])
    )
    ev = eta.values
    N6 = -g.quad(ev**2 + ev**3 / 3.0)
    Ntil, Nnorm = mp.Ntil, mp.Ntil_norm

    def proj(x):
        return np.einsum("iab,iab->ab", Ntil, x) / Nnorm**2

    quart = 1.5 * ev**2 + ev**3 + 0.25 * ev**4
    int_quart = np.einsum("ab,ab,iab->i", w, quart, rhat)
    int_eta_n = np.einsum("ab,ab,iab->i", w, ev, rhat)
    nhat_gamma = Ntil / Nnorm[None]
    N7 = SphereField(
        g,
        values=proj(jump_eta_u)
        - jn
        + lam0 * proj(jump_eta_U)
        + kappa * (proj(jump_eta_U) - ctx.jumpU_n.values)
        - np.einsum("iab,i->ab", nhat_gamma, int_quart) / (4.0 * np.pi)
        + np.einsum("iab,i->ab", rhat - nhat_gamma, int_eta_n) / (4.0 * np.pi)
        - params.rho_tilde * (1.0 + ev) * rhat[2]
        + params.sigma * curvature_nonlinear(eta).values,
    )
    return YElement(N1, N2, N3, N4, N5, N6, N7)


def _rows(y):
    return [y.f.values, y.g.values, y.h1.values, np.stack(y.h2.components), y.a1, y.a2, y.h3.values]


@pytest.mark.parametrize("m_max", [None, 2])
def test_N_matches_term_by_term_reference(m_max):
    """assemble_N regroups the reference's terms in w = u + lambda U: each
    of the seven rows agrees to rounding, on a full grid and on the band,
    for a random state with a nonzero kappa."""
    vg = VolumeGrid.build(8, 16, 24, 64.0, m_max=m_max)
    aux = auxiliary_field(vg, PhysicalParams())
    for rho in (1e-3, 0.3):
        ctx = build_context(vg, PhysicalParams(rho_tilde=rho), aux=aux)
        st = random_state(vg, np.random.default_rng(3))
        st = st.combine(st, 1e-3, 0.0)
        assert st.kappa != 0.0
        for got, ref in zip(_rows(assemble_N(st, ctx)[0]), _rows(_assemble_N_term_by_term(st, ctx))):
            scale = np.max(np.abs(ref))
            assert scale > 0.0
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale


@pytest.mark.parametrize("m_max", [None, 2])
def test_N_interface_rows_at_the_identity_map_do_not_read_u_p(m_max):
    """At eta = 0 the interface map is the identity, and N's flat jump J and
    pulled-back J_eta come from the traces of one Jacobian: their (u, p)
    parts cancel, so rows 4, 5 and 7 of N are the same for any two states
    of equal kappa, on a full grid and on the band."""
    vg = VolumeGrid.build(8, 16, 24, 64.0, m_max=m_max)
    ctx = build_context(vg, PhysicalParams(mu1=2.5, mu2=0.8, rho_tilde=0.1))
    rows = []
    for seed in (4, 5):
        st = replace(random_state(vg, np.random.default_rng(seed)), kappa=1e-3, eta=SphereField.zeros(vg.sphere))
        y = assemble_N(st, ctx)[0]
        rows.append((np.stack(y.h2.components), y.a1, y.h3.values))
    for name, a, b in zip(("h2", "a1", "h3"), *rows):
        assert np.max(np.abs(a - b)) <= 1e-12, name


def test_rotation_equivariance_of_L_and_N(ctx):
    """Both operators commute with rotations about e3 (grid-aligned angle)."""
    vg = ctx.grid
    g = vg.sphere
    k = 3
    beta = 2 * np.pi * k / g.n_phi
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb, 0.0], [sb, cb, 0.0], [0.0, 0.0, 1.0]])

    def rot_scalar_vol(f):
        return VolumeField(vg, np.roll(f.values, -k, axis=-1))

    def rot_vector_vol(f):
        return VolumeField(vg, np.einsum("ji,jrab->irab", R, np.roll(f.values, -k, axis=-1)))

    def rot_sphere(fvals):
        return np.roll(fvals, -k, axis=-1)

    st = DropState.zeros(vg)
    st.u = random_volume_vector(vg, 61, amp=1e-3)
    st.p = random_volume_scalar(vg, 62, amp=1e-3)
    st.kappa = 1e-3
    st.eta = random_sphere_field(g, 63, amp=2e-3, damp=2.5)

    from dropsteady.sphere import rotate_about_z

    st_rot = DropState.zeros(vg)
    st_rot.u = rot_vector_vol(st.u)
    st_rot.p = rot_scalar_vol(st.p)
    st_rot.kappa = st.kappa
    st_rot.eta = rotate_about_z(st.eta, beta)

    for op in (apply_L, lambda state, ctx: assemble_N(state, ctx)[0]):
        y1 = op(st, ctx)
        y2 = op(st_rot, ctx)
        scale = max(norm_Y(y1)["total"], 1e-30)
        assert (y2.f - rot_vector_vol(y1.f)).max_abs() < 1e-10 * max(1.0, scale)
        assert (y2.g - rot_scalar_vol(y1.g)).max_abs() < 1e-10 * max(1.0, scale)
        assert np.max(np.abs(y2.h1.values - rot_sphere(y1.h1.values))) < 1e-10
        assert np.max(np.abs(y2.h3.values - rot_sphere(y1.h3.values))) < 1e-9
        t1, p1 = y1.h2.components
        t2, p2 = y2.h2.components
        assert np.max(np.abs(t2 - rot_sphere(t1))) < 1e-10
        assert np.max(np.abs(p2 - rot_sphere(p1))) < 1e-10
        assert abs(y2.a1 - y1.a1) < 1e-12 and abs(y2.a2 - y1.a2) < 1e-12


def test_norm_homogeneity(ctx):
    st = DropState.zeros(ctx.grid)
    st.u = random_volume_vector(ctx.grid, 50, amp=1.0)
    st.p = random_volume_scalar(ctx.grid, 51, amp=1.0)
    st.kappa = 0.3
    st.eta = random_sphere_field(ctx.grid.sphere, 52, amp=1e-3)
    n1 = norm_X(st, ctx.lambda0)["total"]
    n2 = norm_X(st.combine(DropState.zeros(ctx.grid), 2.0, 0.0), ctx.lambda0)["total"]
    assert abs(n2 - 2 * n1) < 1e-9 * n1
    # pure-eta state: only the height component contributes
    st_eta = DropState.zeros(ctx.grid)
    st_eta.eta = st.eta
    comps = norm_X(st_eta, ctx.lambda0)
    assert comps["total"] == pytest.approx(sobolev_norm(st.eta, 2.75))


def _nodal_norm_X(state, lambda0):
    """The u and p parts of norm_X on nodal fields: the Jacobian, vector
    Laplacian and pressure gradient synthesised on the grid."""
    al = abs(lambda0)
    u, p = state.u, state.p
    jac = vector_gradient(u)
    n_u = (
        al**0.5 * norm_l2(u)
        + al**0.25 * norm_l2(jac)
        + norm_l2(vector_laplacian(u))
        + al * norm_l2(e3_column(jac))
    )
    n_p = norm_l2(scalar_gradient(p)) + np.sqrt(max(integrate_phase(p * p, INTERIOR), 0.0))
    return {"u": n_u, "p": n_p}


def _inside_band_edge(vg, f: VolumeField) -> VolumeField:
    """``f`` (a scalar or a vector) with its coefficients or (P, v, w)
    channels cut to degrees l <= L - 1 and orders |m| <= M - 1, M the
    largest order the grid carries; the nodal Cartesian derivatives of
    what is left need no degree above L and no order above M."""
    g = vg.sphere
    L = g.band_limit
    c = vsh_channels(f) if f.rank else analysis_batch(g, f.values, L)
    c[..., L, :] = 0.0
    c[..., [0, -1]] = 0.0
    return VolumeField(vg, vsh_assemble(vg, *c) if f.rank else synthesis_batch(g, c, L))


@pytest.mark.parametrize("L, m_max", [(8, None), (8, 2), (16, 2)])
def test_parseval_norms_match_nodal_forms(L, m_max):
    """norm_X's u and p parts and norm_Y's g row, taken on channels by
    Parseval, equal the nodal forms on fields inside the band edge, on a
    full and on band grids."""
    vg = VolumeGrid.build(L, 16, 24, 64.0, m_max=m_max)
    st = random_state(vg, np.random.default_rng(5))
    st.u, st.p = _inside_band_edge(vg, st.u), _inside_band_edge(vg, st.p)
    got, want = norm_X(st, 0.3), _nodal_norm_X(st, 0.3)
    for key in ("u", "p"):
        assert abs(got[key] - want[key]) <= 1e-12 * want[key], key
    y = YElement.zeros(vg)
    y.g = st.p
    want_g = norm_l2(st.p) + norm_l2(scalar_gradient(st.p))
    assert abs(norm_Y(y)["g"] - want_g) <= 1e-12 * want_g
