"""Interface geometry: height function, coordinate map and curvature.

The interface is the graph {(1 + eta(zeta)) zeta : zeta on S^2}.  A
harmonic extension of eta (ball + annulus with outer Dirichlet zero),
cut off between radii 2 and 3, defines the displacement field E and the
map Phi(x) = x + E(x).  F = I + grad E is evaluated pointwise from
analytic radial profiles, so no spectral differentiation of the cutoff
is involved, and J = det F, A = J F^{-1} = adj F and F^{-1} = adj F / J
follow from it in closed form (cofactors), node by node.

Curvature of the deformed interface splits as
``(H + 2) o Phi = lap_S eta + 2 eta - G(eta)`` with G collecting every
term beyond linear order; H(unit sphere) = -2 in this sign convention.

Two formulas the other modules share live here: ``cutoff`` evaluates the
quintic cutoff and its first two derivatives (the extension cutoff above
and the truncation U_R = chi_R U in ``validate.divT_norm_lq``), and
``stress`` is the stress law mu (G + G^T) - q I, with G = grad w F^{-1}
in ``transformed_stress`` and G = grad w in the flat stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import (
    SphereField,
    laplace_beltrami,
    sobolev_norm,
    spherical_to_cartesian,
    surface_gradient,
    synthesis_batch,
    tangent_synthesis_batch,
)
from .volume import INTERIOR, VolumeField, VolumeGrid, grid_points, integrate_phase

__all__ = [
    "ADMISSIBLE_NORM",
    "ETA_SOBOLEV_ORDER",
    "HeightFunction",
    "MapData",
    "smoothstep",
    "cutoff",
    "harmonic_extension",
    "build_map",
    "stress",
    "transformed_stress",
    "metric_pieces",
    "curvature_linear",
    "curvature_nonlinear",
    "curvature_total",
    "volume_identity_defect",
]

ADMISSIBLE_NORM = 0.1  # surrogate-norm threshold keeping det(F) > 1/2
ETA_SOBOLEV_ORDER = 2.75  # 3 - 1/r at the nominal r = 4


class HeightFunction:
    """Interface displacement with cached surrogate norm and admissibility."""

    def __init__(self, eta: SphereField):
        self.eta = eta
        self.norm_bound = sobolev_norm(eta, ETA_SOBOLEV_ORDER)
        if self.norm_bound >= ADMISSIBLE_NORM:
            raise ValueError(
                f"height function norm {self.norm_bound:.3e} exceeds "
                f"admissibility threshold {ADMISSIBLE_NORM}"
            )
        if np.min(1.0 + eta.values) <= 0.0:
            raise ValueError("1 + eta must be positive")


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic C^2 smoothstep: 0 at t<=0, 1 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def cutoff(r, R: float = 1.0):
    """chi(r / R) = 1 - smoothstep(r / R - 1), 1 for r <= R and 0 for r >= 2R,
    and its first two derivatives in r: returns (chi, chi', chi'').

    The truncation U_R = chi_R U whose stress residue ``validate.divT_norm_lq``
    measures takes it at scale R; the interface map's
    extension cutoff is chi(r - 1), 1 for r <= 2 and 0 for r >= 3.
    """
    t = np.asarray(r, float) / R - 1.0
    tt = np.clip(t, 0.0, 1.0)
    inside = (t > 0) & (t < 1)
    d1 = -np.where(inside, 30.0 * tt**2 * (tt - 1.0) ** 2, 0.0) / R
    d2 = -np.where(inside, 60.0 * tt * (2.0 * tt - 1.0) * (tt - 1.0), 0.0) / R**2
    return 1.0 - smoothstep(t), d1, d2


# ---------------------------------------------------------------------------
# harmonic extension of the height function
# ---------------------------------------------------------------------------


def _extension_scalar_at(eta: SphereField, r: np.ndarray, n_drop: int):
    """H, dH/dr and the tangential gradient of H at radii r, of which the
    first ``n_drop`` lie in the drop and the others in the reservoir.

    Returns nodal arrays H (n_r, nth, nph), dHdr, and (tth, tph) of
    grad_S H per shell (without the 1/r factor).  The phase of a radius
    selects the branch at r = 1, where dH/dr jumps.  Radii beyond the annulus edge
    r = 4 get zeros (the annulus problem ends there and the extension
    cutoff already vanishes for r >= 3).
    """
    g = eta.grid
    L = eta.band
    C = eta.coeffs
    l = np.arange(L + 1, dtype=float)
    beta = 1.0 / (1.0 - 4.0 ** (-(2.0 * l + 1.0)))
    alpha = 1.0 - beta  # alpha + beta = 1, alpha 4^l + beta 4^{-l-1} = 0
    up = np.maximum(l - 1.0, 0.0)
    # drop: r^l; reservoir: alpha r^l + beta r^-(l+1) up to the annulus edge,
    # evaluated on those radii only (r^l overflows beyond it for large l)
    ri = r[:n_drop, None]
    ext = n_drop + np.flatnonzero(r[n_drop:] <= 4.0 + 1e-12)
    re = r[ext, None]
    prof, dprof = np.zeros((2, len(r), L + 1))
    prof[:n_drop], dprof[:n_drop] = ri**l, l * ri**up * (l > 0)
    prof[ext] = alpha * re**l + beta * re ** -(l + 1.0)
    dprof[ext] = alpha * l * re**up * (l > 0) - beta * (l + 1.0) * re ** -(l + 2.0)
    modes = prof[:, :, None] * C[None, :, :]
    dmodes = dprof[:, :, None] * C[None, :, :]
    H = synthesis_batch(g, modes, L)
    dHdr = synthesis_batch(g, dmodes, L)
    tth, tph = tangent_synthesis_batch(g, modes, np.zeros_like(modes), L)
    return H, dHdr, tth, tph


def harmonic_extension(eta_h: HeightFunction, grid: VolumeGrid) -> VolumeField:
    """The scalar harmonic extension H_eta sampled on the volume grid."""
    return VolumeField(grid, _extension_scalar_at(eta_h.eta, grid.r, grid.interior.n)[0])


@dataclass
class MapData:
    """Pullback tensors of Phi(x) = x + E(x) and interface quantities.

    ``identity`` marks the map of a height function with no coefficients,
    the unit sphere: E = 0, F = A = F^{-1} = I and J = 1 exactly, held as
    read-only arrays."""

    eta: HeightFunction
    grid: VolumeGrid
    E: VolumeField  # rank 1
    F: VolumeField  # rank 2, F = I + grad E
    J: VolumeField  # rank 0
    A: VolumeField  # rank 2, A = J F^{-1} (so A^T n is the Nanson vector)
    F_inv: VolumeField  # rank 2
    # single-valued interface fields (n_theta, n_phi)-shaped
    Ntil: np.ndarray  # A^T n on S^2
    Ntil_norm: np.ndarray
    n_gamma: np.ndarray  # unit normal of the deformed interface (pulled back)
    P_eta: np.ndarray  # tangential projector of the deformed interface
    A_surf: np.ndarray  # drop-side trace of A
    identity: bool = False


def _adjugate(F: np.ndarray) -> np.ndarray:
    """Pointwise adjugate of a (3, 3, ...) field: adj F = det(F) F^{-1}.

    Entry (i, j) is the cofactor of F_ji, i.e. the 2x2 minor on the
    cyclic successors of row j and column i.
    """
    adj = np.empty_like(F)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[i, j] = F[j1, i1] * F[j2, i2] - F[j1, i2] * F[j2, i1]
    return adj


def build_map(eta_h: HeightFunction, grid: VolumeGrid) -> MapData:
    """Assemble E, F, J, A, F^{-1} and interface quantities for eta.

    J = det F, A = adj F and F^{-1} = A / J are taken by cofactors, node
    by node.  A height function with no coefficients maps by the identity,
    which needs no harmonic extension; its interface quantities still come
    from A_surf = I by the formulas below.
    """
    g = grid.sphere
    rhat = g.unit_vectors()[0]
    identity = not eta_h.eta.coeffs.any()
    if identity:
        shape = grid.r.shape + rhat.shape[1:]
        eye = np.broadcast_to(np.eye(3)[:, :, None, None, None], (3, 3) + shape)
        E, F, J = VolumeField.zeros(grid, rank=1), VolumeField(grid, eye), VolumeField(grid, np.ones(shape))
        A = F_inv = F
    else:
        E, F, J, A, F_inv = _extension_map(eta_h, grid, rhat)

    A_surf = A.trace(INTERIOR)
    Ntil = np.einsum("jiab,jab->iab", A_surf, rhat)
    Ntil_norm = np.sqrt(np.einsum("iab,iab->ab", Ntil, Ntil))
    n_gamma = Ntil / Ntil_norm[None]
    P_eta = np.eye(3)[:, :, None, None] - np.einsum(
        "iab,jab->ijab", Ntil, Ntil
    ) / (Ntil_norm**2)[None, None]
    return MapData(
        eta_h, grid, E, F, J, A, F_inv, Ntil, Ntil_norm, n_gamma, P_eta, A_surf, identity
    )


def _extension_map(eta_h: HeightFunction, grid: VolumeGrid, rhat: np.ndarray) -> tuple:
    """E, F, J, A and F^{-1} of the cut-off harmonic extension of eta."""
    g = grid.sphere
    r = grid.r
    H, dHdr, tth, tph = _extension_scalar_at(eta_h.eta, r, grid.interior.n)
    chi, dchi, _ = (c[:, None, None] for c in cutoff(r - 1.0))
    x = grid_points(grid)  # (3, n_r, nth, nph)
    rinv = 1.0 / grid.radius_mesh()
    gradH = spherical_to_cartesian(g, dHdr, rinv * tth, rinv * tph)
    chiH, dchiH = chi * H, dchi * H
    # d_j (chi H x_i) = chi' H x_i rhat_j + chi x_i d_j H + chi H d_ij
    F = np.empty((3, 3) + H.shape)
    for i in range(3):
        for j in range(3):
            F[i, j] = dchiH * (x[i] * rhat[j]) + chi * (x[i] * gradH[j])
        F[i, i] += chiH
        F[i, i] += 1.0
    A = _adjugate(F)
    J = F[0, 0] * A[0, 0] + F[0, 1] * A[1, 0] + F[0, 2] * A[2, 0]
    if np.min(J) <= 0.5:
        raise ValueError(f"inadmissible height function: min det(F) = {np.min(J):.4f} <= 1/2")
    return tuple(VolumeField(grid, a) for a in (chiH[None] * x, F, J, A, A / J))


def stress(G: np.ndarray, q: np.ndarray, mu) -> np.ndarray:
    """The stress law mu (G + G^T) - q I of a velocity gradient G (3, 3, ...)
    and a pressure q (...); ``mu`` is a number or a phase profile."""
    T = mu * (G + G.swapaxes(0, 1))
    for i in range(3):
        T[i, i] -= q
    return T


def transformed_stress(
    jac_w: VolumeField, q: VolumeField, mp: MapData, mu1: float, mu2: float
) -> VolumeField:
    """T^eta(w, q) = stress(grad w F^{-1}, q) A^T.

    ``jac_w`` is the Jacobian field (d_j w_i); at eta = 0 this reduces to
    the Cauchy stress 2 mu S(w) - q I.
    """
    G = np.einsum("ikrab,kjrab->ijrab", jac_w.values, mp.F_inv.values)
    T = stress(G, q.values, mp.grid.phase_profile(mu1, mu2))
    return VolumeField(mp.grid, np.einsum("ikrab,jkrab->ijrab", T, mp.A.values))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def metric_pieces(eta: SphereField):
    """eta's values, the (theta, phi) components of grad_S eta and the
    interface metric (1 + eta)^2 + |grad_S eta|^2."""
    vals = eta.values
    if np.min(1.0 + vals) <= 0.0:
        raise ValueError("1 + eta must be positive")
    grad = surface_gradient(eta)
    tth, tph = grad.components
    metric = (1.0 + vals) ** 2 + tth**2 + tph**2
    if np.min(metric) <= 0.0:
        raise ValueError("degenerate interface metric")
    return vals, tth, tph, metric


def curvature_linear(eta: SphereField) -> SphereField:
    """lap_S eta + 2 eta."""
    return laplace_beltrami(eta) + 2.0 * eta


def curvature_nonlinear(eta: SphereField) -> SphereField:
    """All terms of (H+2) o Phi beyond the linearization (with its sign:
    (H+2) o Phi = curvature_linear - curvature_nonlinear)."""
    g = eta.grid
    vals, tth, tph, metric = metric_pieces(eta)
    sg = np.sqrt(metric)
    lap = laplace_beltrami(eta).values
    inv_sg = SphereField(g, values=1.0 / sg, band=g.pad_limit)
    gth, gph = surface_gradient(inv_sg).components
    one_p = 1.0 + vals
    term1 = -(1.0 / one_p) * ((1.0 - one_p * sg) / sg) * lap
    term2 = -(1.0 / one_p) * (gth * tth + gph * tph)
    term3 = (2.0 - 2.0 * (1.0 - vals) * sg) / sg
    return SphereField(g, values=term1 + term2 + term3, band=g.pad_limit)


def curvature_total(eta: SphereField) -> SphereField:
    """(H + 2) o Phi, vanishing on the unit sphere."""
    lin = curvature_linear(eta)
    return SphereField(
        eta.grid, values=lin.values - curvature_nonlinear(eta).values, band=eta.grid.pad_limit
    )


# ---------------------------------------------------------------------------
# integral identities used as diagnostics
# ---------------------------------------------------------------------------


def volume_identity_defect(mp: MapData) -> float:
    """int_{B1} J dx - (4 pi/3 + (1/3) int ((1+eta)^3 - 1) dS)."""
    lhs = integrate_phase(mp.J, INTERIOR)
    g = mp.grid.sphere
    eta_vals = mp.eta.eta.values
    surf = g.quad((1.0 + eta_vals) ** 3 - 1.0)
    return lhs - (4.0 * np.pi / 3.0 + surf / 3.0)
