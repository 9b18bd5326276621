"""The interface rows of L on coefficients against their nodal forms.

The references below form the flat traction jump [[T(u,p) n]] and the
kernel term (1/4pi) n . int eta n dS on the angular grid: the traction
modes of each side synthesised to Cartesian components and subtracted,
and the kernel term summed over the three normal components.  The rows
read the same quantities from coefficients, so the two agree to rounding.
"""

import numpy as np
import pytest

from dropsteady.sphere import (
    analysis_batch,
    integrate_sphere,
    normal_component_fields,
    project_kernel,
    synthesis_batch,
    tangent_synthesis_batch,
)
from dropsteady.stokes import minus_div_T, traction_force
from dropsteady.validate import random_state
from dropsteady.volume import VolumeGrid, chan_radial_deriv, vsh_channels

GRIDS = {"L8-full": (8, 16, 24, None), "L16-band": (16, 24, 40, 2)}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def vg(request):
    L, n_int, n_ext, m_max = GRIDS[request.param]
    return VolumeGrid.build(L, n_int, n_ext, 64.0, m_max=m_max)


def _nodal_traction_jump(u, p, mu1, mu2):
    """[[T(u,p) n]] as Cartesian components (3, n_theta, n_phi)."""
    grid = u.grid
    g = grid.sphere
    L = g.band_limit
    P, v, w = vsh_channels(u)
    pm = analysis_batch(g, p.values, L)
    dP = chan_radial_deriv(grid, P, 1, 1)
    dv = chan_radial_deriv(grid, v, 1, 1)
    dw = chan_radial_deriv(grid, w, 0, 1)
    rhat, that, phat = g.unit_vectors()
    sides = []
    for i0, mu in ((grid.interior.i_surface, mu1), (grid.interior.n + grid.exterior.i_surface, mu2)):
        t_r = 2.0 * mu * dP[i0] - pm[i0]
        t_s = mu * (dv[i0] + P[i0] - v[i0])
        t_t = mu * (dw[i0] - w[i0])
        tth, tph = tangent_synthesis_batch(g, t_s, t_t, L)
        sides.append(synthesis_batch(g, t_r, L)[None] * rhat + tth[None] * that + tph[None] * phat)
    return sides[0] - sides[1]


def _nodal_kernel_term(eta):
    """(1/4pi) n . int eta n dS at the nodes, one normal component at a time."""
    g = eta.grid
    out = np.zeros((g.n_theta, g.n_phi))
    for nk in normal_component_fields(g):
        out += integrate_sphere(eta * nk) * nk.values / (4.0 * np.pi)
    return out


@pytest.mark.parametrize("mu1, mu2", [(1.0, 1.0), (2.5, 0.4)])
def test_traction_jump_parts_match_nodal_projection(vg, mu1, mu2):
    g = vg.sphere
    rhat, that, phat = g.unit_vectors()
    st = random_state(vg, np.random.default_rng(5))
    ref = _nodal_traction_jump(st.u, st.p, mu1, mu2)
    normal, tangent = minus_div_T(st.u, st.p, mu1, mu2)[2]
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    for got, e in ((normal.values, rhat), *zip(tangent.components, (that, phat))):
        assert np.max(np.abs(got - np.einsum("iab,iab->ab", ref, e))) <= 1e-12 * scale
    force = np.einsum("ab,iab->i", g.weights, ref)
    assert np.max(np.abs(force)) > 1e-3 * scale
    assert np.max(np.abs(traction_force((normal, tangent)) - force)) <= 1e-12 * scale


def test_kernel_term_is_a_third_of_the_projector(vg):
    eta = random_state(vg, np.random.default_rng(6)).eta
    ref = _nodal_kernel_term(eta)
    assert np.max(np.abs(ref)) > 0.0
    got = (1.0 / 3.0) * project_kernel(eta)
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_random_state_eta_carries_only_the_grid_orders():
    """On a band grid the drawn eta holds no order the grid drops, so its
    coefficients are those of its nodal values."""
    vg = VolumeGrid.build(8, 16, 24, 64.0, m_max=2)
    eta = random_state(vg, np.random.default_rng(3)).eta
    assert eta.coeffs.shape == (9, 5)
    assert np.max(np.abs(eta.coeffs - analysis_batch(vg.sphere, eta.values, 8))) <= 1e-13
