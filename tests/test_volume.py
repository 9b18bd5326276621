"""Volume-field spectral calculus against closed-form fields."""

import warnings
from collections import Counter

import numpy as np
import pytest

from dropsteady.sphere import analysis_batch, tangent_analysis_batch, vector_channels
from dropsteady.volume import (
    VolumeGrid,
    VolumeField,
    grid_points,
    scalar_gradient,
    vector_gradient,
    e3_column,
    vector_divergence,
    vector_laplacian,
    tensor_divergence,
    d3,
    integrate_phase,
    norm_l2,
    eval_radii,
    INTERIOR,
    EXTERIOR,
    chan_radial_deriv,
    channel_norm_l2,
    vsh_channels,
)


@pytest.fixture(scope="module")
def vg():
    return VolumeGrid.build(band_limit=8, n_r_int=14, n_r_ext=20, r_inf=16.0)


def sample(vg, fn, rank=0):
    return VolumeField.from_function(vg, fn, rank=rank)


def test_scalar_gradient_interior_polynomial(vg):
    f = sample(vg, lambda x, y, z: x * z)
    g = scalar_gradient(f)
    x, y, z = grid_points(vg, INTERIOR)
    exact = np.stack([z, np.zeros_like(z), x])
    assert np.max(np.abs(g.blocks[INTERIOR] - exact)) < 1e-11


def test_scalar_gradient_exterior_decaying(vg):
    f = sample(vg, lambda x, y, z: z / (x * x + y * y + z * z) ** 1.5)
    g = scalar_gradient(f)
    x, y, z = grid_points(vg, EXTERIOR)
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    exact = np.stack([-3 * z * x / r**5, -3 * z * y / r**5, 1.0 / r**3 - 3 * z * z / r**5])
    assert np.max(np.abs(g.blocks[EXTERIOR] - exact)) < 1e-11


def test_divergence_examples(vg):
    u = sample(vg, lambda x, y, z: np.stack([x, y, z]), rank=1)
    div = vector_divergence(u)
    assert abs(div.blocks[INTERIOR] - 3.0).max() < 1e-11
    u2 = sample(vg, lambda x, y, z: np.stack([y, z, x]), rank=1)
    assert np.abs(vector_divergence(u2).blocks[INTERIOR]).max() < 1e-11
    # decaying exterior field: u = grad(1/r), div = laplace(1/r) = 0
    u3 = sample(
        vg,
        lambda x, y, z: np.stack([x, y, z]) / (x * x + y * y + z * z) ** 1.5 * -1.0,
        rank=1,
    )
    assert np.abs(vector_divergence(u3).blocks[EXTERIOR]).max() < 1e-11


def test_vector_laplacian(vg):
    u = sample(vg, lambda x, y, z: np.stack([x * x, y * y, z * z]), rank=1)
    lap = vector_laplacian(u)
    assert np.max(np.abs(lap.blocks[INTERIOR] - 2.0)) < 1e-9
    # harmonic decaying field
    u2 = sample(
        vg,
        lambda x, y, z: np.stack([x, y, z]) / (x * x + y * y + z * z) ** 1.5,
        rank=1,
    )
    assert np.max(np.abs(vector_laplacian(u2).blocks[EXTERIOR])) < 1e-9


def test_tensor_divergence(vg):
    def linear_e3(x, y, z):
        out = np.zeros((3, 3) + x.shape)
        for i, xi in enumerate((x, y, z)):
            out[i, 2] = xi
        return out

    def outer(x, y, z):
        xs = np.stack([x, y, z])
        return xs[:, None] * xs[None, :]

    cases = [
        # T_ij = x_i delta_j3: div = e3
        (linear_e3, lambda x, y, z: np.stack([0 * x, 0 * x, 1 + 0 * x]), INTERIOR),
        # T_ij = x_i x_j: div = 4 x
        (outer, lambda x, y, z: 4.0 * np.stack([x, y, z]), INTERIOR),
        # T_ij = x_i x_j / |x|^5: div = -x / |x|^5
        (
            lambda x, y, z: outer(x, y, z) / (x * x + y * y + z * z) ** 2.5,
            lambda x, y, z: -np.stack([x, y, z]) / (x * x + y * y + z * z) ** 2.5,
            EXTERIOR,
        ),
    ]
    for T, div_exact, phase in cases:
        div = tensor_divergence(sample(vg, T, rank=2))
        exact = div_exact(*grid_points(vg, phase))
        assert np.max(np.abs(div.blocks[phase] - exact)) < 1e-10


def test_d3(vg):
    f = sample(vg, lambda x, y, z: z * z)
    out = d3(f)
    x, y, z = grid_points(vg, INTERIOR)
    assert np.max(np.abs(out.blocks[INTERIOR] - 2 * z)) < 1e-11
    fe = sample(vg, lambda x, y, z: 1.0 / np.sqrt(x * x + y * y + z * z))
    out2 = d3(fe)
    x, y, z = grid_points(vg, EXTERIOR)
    r = np.sqrt(x * x + y * y + z * z)
    assert np.max(np.abs(out2.blocks[EXTERIOR] + z / r**3)) < 1e-11


@pytest.fixture(scope="module", params=[None, 2], ids=["full", "m_max=2"])
def any_grid(request):
    return VolumeGrid.build(band_limit=8, n_r_int=14, n_r_ext=20, r_inf=16.0, m_max=request.param)


def random_poly_field(grid, rank, seed):
    """Random combination, per component, of a few fields with m <= 2."""
    coef = np.random.default_rng(seed).standard_normal((3,) * rank + (4,))

    def fn(x, y, z):
        basis = np.stack([x * z, y * y, x * y * z, z / (x * x + y * y + z * z) ** 1.5])
        return np.tensordot(coef, basis, axes=1)

    return sample(grid, fn, rank)


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_gradient_of_any_rank_is_stacked_component_gradients(any_grid, rank):
    f = random_poly_field(any_grid, rank, seed=rank)
    grad = scalar_gradient(f)
    for ph in (INTERIOR, EXTERIOR):
        blk = f.blocks[ph]
        stacked = np.empty(blk.shape[:-3] + (3,) + blk.shape[-3:])
        for idx in np.ndindex(blk.shape[:-3]):
            comp = VolumeField(any_grid, f.values[idx])
            stacked[idx] = scalar_gradient(comp).blocks[ph]
        scale = np.max(np.abs(stacked))
        assert np.max(np.abs(grad.blocks[ph] - stacked)) <= 1e-13 * scale


@pytest.mark.parametrize("rank", [0, 1])
def test_d3_is_e3_column_of_gradient(any_grid, rank):
    f = random_poly_field(any_grid, rank, seed=10 + rank)
    got, ref = d3(f), e3_column(scalar_gradient(f))
    for ph in (INTERIOR, EXTERIOR):
        assert got.blocks[ph].shape == ref.blocks[ph].shape == f.blocks[ph].shape
        scale = np.max(np.abs(ref.blocks[ph]))
        assert np.max(np.abs(got.blocks[ph] - ref.blocks[ph])) <= 1e-14 * scale


def test_vector_gradient_closed_form(any_grid):
    u = sample(any_grid, lambda x, y, z: np.stack([x * z, y * y + z, x * y]), rank=1)
    x, y, z = grid_points(any_grid, INTERIOR)
    zero, one = np.zeros_like(x), np.ones_like(x)
    exact = np.array([[z, zero, x], [zero, 2 * y, one], [y, x, zero]])
    assert np.max(np.abs(vector_gradient(u).blocks[INTERIOR] - exact)) < 1e-11
    # decaying exterior field u = x / |x|^3
    u = sample(any_grid, lambda x, y, z: np.stack([x, y, z]) / (x * x + y * y + z * z) ** 1.5, rank=1)
    xs = np.stack(grid_points(any_grid, EXTERIOR))
    r = np.sqrt(np.sum(xs * xs, axis=0))
    exact = np.eye(3)[:, :, None, None, None] / r**3 - 3.0 * xs[:, None] * xs[None, :] / r**5
    assert np.max(np.abs(vector_gradient(u).blocks[EXTERIOR] - exact)) < 1e-11


def test_integrals(vg):
    one = sample(vg, lambda x, y, z: np.ones_like(x))
    assert abs(integrate_phase(one, INTERIOR) - 4 * np.pi / 3) < 1e-12
    R = vg.r_inf
    assert abs(integrate_phase(one, EXTERIOR) - 4 * np.pi / 3 * (R**3 - 1)) < 1e-8
    inv4 = sample(vg, lambda x, y, z: (x * x + y * y + z * z) ** -2.0)
    assert abs(integrate_phase(inv4, EXTERIOR) - 4 * np.pi * (1 - 1 / R)) < 1e-10


def test_norm_l2(vg):
    only_int = sample(vg, lambda x, y, z: np.ones_like(x))
    only_int.blocks[EXTERIOR][...] = 0.0
    assert abs(norm_l2(only_int) - np.sqrt(4 * np.pi / 3)) < 1e-10


def test_overflowing_norm_is_inf_without_a_warning():
    """A field of 1e200 on the reservoir's r = 1 shell, whose radial weight
    is negative, squares to inf there; the radial sum is then -inf, which
    the clamp at zero used to read as a norm of 0.  Both norms read inf,
    and numpy warns of nothing."""
    grid = VolumeGrid.build(8, 24, 40, 64.0, m_max=2)
    n = grid.interior.n
    assert grid.r[n] == 1.0 and grid.exterior.wq[0] < 0.0
    f = VolumeField.zeros(grid, rank=1)
    f.values[:, n] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm_l2(f) == np.inf
        assert channel_norm_l2(grid, vsh_channels(f)) == np.inf


def test_blocks_are_views_of_one_array(vg):
    f = VolumeField.zeros(vg, rank=1)
    assert f.values.shape == (3, vg.interior.n + vg.exterior.n) + f.values.shape[-2:]
    f.blocks[INTERIOR][...] = 1.0
    f.blocks[EXTERIOR][2] = 2.0
    n = vg.interior.n
    assert np.all(f.values[:, :n] == 1.0)
    assert np.all(f.values[:2, n:] == 0.0) and np.all(f.values[2, n:] == 2.0)
    for ph in (INTERIOR, EXTERIOR):
        with pytest.raises(TypeError):
            f.blocks[ph] = np.zeros_like(f.blocks[ph])


@pytest.mark.parametrize("zero_phase", [INTERIOR, EXTERIOR])
def test_derivatives_keep_a_zero_phase_zero(any_grid, zero_phase):
    """A radial derivative that mixed the phases of the joined radial axis
    would leak the other phase into the zero one."""
    for rank in (0, 1):
        f = random_poly_field(any_grid, rank, seed=20 + rank)
        f.blocks[zero_phase][...] = 0.0
        outs = [scalar_gradient(f), d3(f)]
        if rank == 1:
            outs += [vector_divergence(f), vector_laplacian(f)]
        for out in outs:
            assert np.all(out.blocks[zero_phase] == 0.0)
            assert np.any(out.blocks[1 - zero_phase] != 0.0)


def _chan_radial_deriv_per_parity(grid, coeffs, base_parity, order):
    """Reference radial derivative: one product per phase and degree parity."""
    L = coeffs.shape[-2] - 1
    out = np.empty(coeffs.shape)
    prof, dest = np.moveaxis(coeffs, -3, 0), np.moveaxis(out, -3, 0)
    n = grid.interior.n
    for rad, rows in ((grid.interior, slice(None, n)), (grid.exterior, slice(n, None))):
        for par in (0, 1):
            ls = slice((par + base_parity) % 2, L + 1, 2)
            dest[rows, ..., ls, :] = rad.deriv(prof[rows, ..., ls, :], parity=par, order=order)
    return out


KERNEL_GRIDS = {
    "L8 m_max=2": dict(band_limit=8, n_r_int=12, n_r_ext=20, m_max=2),
    "L12 full": dict(band_limit=12, n_r_int=10, n_r_ext=16),
    "L8 14+20": dict(band_limit=8, n_r_int=14, n_r_ext=20),
    "1 interior node": dict(band_limit=4, n_r_int=1, n_r_ext=6),
}


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_radial_deriv_matches_per_parity_products(name):
    grid = VolumeGrid.build(r_inf=16.0, **KERNEL_GRIDS[name])
    L, K = grid.sphere.band_limit, min(grid.sphere.band_limit, grid.sphere.m_max)
    stacked = np.random.default_rng(7).standard_normal((3, 3, grid.r.size, L + 1, 2 * K + 1))
    strided = stacked[:, 1]  # one channel of a stacked (3, ...) array
    assert not strided.flags.c_contiguous
    for C in (stacked[0, 0], stacked[0], stacked, strided):
        for base in (0, 1):
            for order in (1, 2):
                got = chan_radial_deriv(grid, C, base, order)
                ref = _chan_radial_deriv_per_parity(grid, C, base, order)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_frame_projection_is_the_three_term_sums(any_grid):
    g = any_grid.sphere
    L = g.band_limit
    cart = random_poly_field(any_grid, 2, seed=30).values
    ur, uth, uph = (cart[0] * e[0] + cart[1] * e[1] + cart[2] * e[2] for e in g.unit_vectors())
    expect = (analysis_batch(g, ur, L), *tangent_analysis_batch(g, uth, uph, L))
    for got, ref in zip(vector_channels(g, cart), expect):
        assert np.array_equal(got, ref)


def test_picard_solve_makes_no_per_parity_products(monkeypatch):
    """Every radial derivative is one matmul per phase: a warm Picard solve
    calls neither np.tensordot nor the per-parity ``deriv`` of a phase."""
    from dropsteady.driver import SolveConfig, picard_solve
    from dropsteady.radial import ExteriorRadial, InteriorRadial

    cfg = SolveConfig(band_limit=8, n_r_int=12, n_r_ext=20)
    picard_solve(cfg)
    calls = Counter()
    for owner, name in ((np, "tensordot"), (InteriorRadial, "deriv"), (ExteriorRadial, "deriv")):

        def counting(*args, _fn=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    picard_solve(cfg)
    assert calls == Counter()


def eval_shell(f: VolumeField, r: float) -> np.ndarray:
    """A scalar/vector field on the full angular grid at radius r."""
    ph = INTERIOR if r <= 1.0 else EXTERIOR
    return eval_radii(f, np.array([r]), ph)[..., 0, :, :]


def test_eval_shell(vg):
    f = sample(vg, lambda x, y, z: x * z)
    vals = eval_shell(f, 0.5)
    g = vg.sphere
    th, ph = g.nodes
    x = 0.5 * np.sin(th) * np.cos(ph)
    z = 0.5 * np.cos(th)
    assert np.max(np.abs(vals - x * z)) < 1e-11
    fe = sample(vg, lambda x, y, z: z / (x * x + y * y + z * z) ** 1.5)
    vals2 = eval_shell(fe, 5.0)
    z5 = 5.0 * np.cos(th)
    assert np.max(np.abs(vals2 - z5 / 125.0)) < 1e-11


def test_picard_step_carries_only_the_grid_orders(monkeypatch):
    """Every coefficient array the volume layer forms in a Picard step on an
    m_max = 2 grid has the 2 min(L, m_max) + 1 order columns the grid carries,
    not the dense 2L + 1."""
    import importlib
    import pkgutil

    import dropsteady
    from dropsteady import sphere, volume
    from dropsteady.driver import SolveConfig
    from dropsteady.operators import (
        DropState,
        assemble_N,
        build_context,
        invert_L,
        norm_X,
    )

    cfg = SolveConfig(band_limit=8, n_r_int=12, n_r_ext=20)
    ctx = build_context(cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
    x = invert_L(assemble_N(DropState.zeros(ctx.grid), ctx)[0], ctx)
    modules = [
        importlib.import_module(f"dropsteady.{m.name}") for m in pkgutil.iter_modules(dropsteady.__path__)
    ]
    targets = {
        "analysis_batch": sphere,
        "tangent_analysis_batch": sphere,
        "chan_radial_deriv": volume,
    }
    widths = {}
    for name, mod in targets.items():
        fn = getattr(mod, name)

        def recording(*args, _fn=fn, _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            arrays = out if isinstance(out, tuple) else (out,)
            widths.setdefault(_name, set()).update(a.shape[-1] for a in arrays)
            return out

        for m in modules:
            if getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, recording)
    x_new = invert_L(assemble_N(x, ctx)[0], ctx)
    norm_X(x_new.combine(x, 1.0, -1.0), ctx.lambda0)
    assert widths == {name: {2 * min(8, 2) + 1} for name in targets}
