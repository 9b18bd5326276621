"""The validation suite's random data and the solvers its checks build."""

import numpy as np
import pytest

from dropsteady import stokes, validate
from dropsteady.sphere import SphereField, synthesis_batch
from dropsteady.validate import _random_triangle, random_state
from dropsteady.volume import VolumeField, VolumeGrid, vsh_assemble


def _triangle_by_degree(rng, scale):
    """The reference draw: one standard_normal call per degree."""
    L = len(scale) - 1
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(L + 1):
        c[l, L - l : L + l + 1] = scale[l] * rng.standard_normal(2 * l + 1)
    return c


def _random_state_by_degree(vg, rng):
    """random_state written with a per-degree draw and a per-degree parity
    prefactor: the reference the one-call form must reproduce bit for bit."""
    g = vg.sphere
    L = g.band_limit
    Mi, Me = vg.interior.n, vg.exterior.n
    ri, se = vg.interior.r, vg.exterior.s
    scale = [(1.0 + l * (l + 1.0)) ** -2.0 for l in range(L + 1)]

    def interior(parity_base):
        prof = np.zeros((Mi, L + 1, 2 * L + 1))
        rho = 2.0 * ri**2 - 1.0
        for k in range(4):
            Tk = np.cos(k * np.arccos(np.clip(rho, -1, 1)))
            prof += Tk[:, None, None] * _triangle_by_degree(rng, scale) * 0.5**k
        for l in range(L + 1):
            prof[:, l, :] *= ri[:, None] ** ((l + parity_base) % 2)
        return prof

    def exterior():
        prof = np.zeros((Me, L + 1, 2 * L + 1))
        for k in range(4):
            prof += (se ** (k + 1))[:, None, None] * _triangle_by_degree(rng, scale) * 0.5**k
        return prof

    u_int = np.stack([interior(1) for _ in range(3)])
    p_int = interior(0)
    u_ext = np.stack([exterior() for _ in range(3)])
    p_ext = exterior()
    gap = u_int[:, vg.interior.i_surface] - u_ext[:, vg.exterior.i_surface]
    u_ext += gap[:, None] * (se**2)[:, None, None]
    u = VolumeField(vg, vsh_assemble(vg, *np.concatenate([u_int, u_ext], axis=1)))
    p = VolumeField(vg, synthesis_batch(g, np.concatenate([p_int, p_ext]), L))
    eta = SphereField(g, coeffs=_triangle_by_degree(rng, scale), band=L)
    return u, p, float(rng.normal()), eta


@pytest.mark.parametrize("seed", [0, 1])
def test_random_triangle_is_the_per_degree_draw(seed):
    scale = np.array([(1.0 + l) ** -1.0 for l in range(13)])
    got = _random_triangle(np.random.default_rng(seed), scale)
    assert np.array_equal(got, _triangle_by_degree(np.random.default_rng(seed), scale))


@pytest.mark.parametrize("m_max", [None, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_state_is_the_per_degree_draw(seed, m_max):
    vg = VolumeGrid.build(12, 8, 10, 16.0, m_max=m_max)
    st = random_state(vg, np.random.default_rng(seed))
    u, p, kappa, eta = _random_state_by_degree(vg, np.random.default_rng(seed))
    assert np.array_equal(st.u.values, u.values)
    assert np.array_equal(st.p.values, p.values)
    assert st.kappa == kappa
    assert np.array_equal(st.eta.coeffs, eta.coeffs)


def test_validate_solves_the_drop_oracle_on_a_degree_2_grid(monkeypatch):
    """The shared equal-viscosity field is on the full grid; the kappa = 0.1
    and 10 oracle fields are of degree 1 and are solved on a degree-2 grid."""
    bands = []
    init = stokes.TwoPhaseStokesSolver.__init__

    def recording(self, grid, mu1, mu2):
        bands.append(grid.sphere.band_limit)
        init(self, grid, mu1, mu2)

    monkeypatch.setattr(stokes.TwoPhaseStokesSolver, "__init__", recording)
    checks = validate.run_validation(seed=0)
    assert all(c.passed for c in checks)
    assert bands == [12, 2, 2]
