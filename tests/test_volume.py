"""Volume-field spectral calculus against closed-form fields."""

import numpy as np
import pytest

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
    norm_lq,
    eval_radii,
    INTERIOR,
    EXTERIOR,
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
            comp = VolumeField(any_grid, f.blocks[INTERIOR][idx], f.blocks[EXTERIOR][idx])
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


def test_norm_lq(vg):
    one = sample(vg, lambda x, y, z: np.ones_like(x))
    q = 4.0 / 3.0
    expect_int = (4 * np.pi / 3) ** (1 / q)
    only_int = VolumeField(vg, one.blocks[INTERIOR], 0 * one.blocks[EXTERIOR])
    assert abs(norm_lq(only_int, q) - expect_int) < 1e-10


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
