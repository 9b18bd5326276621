"""Exact solution operators for the twofold-half-space Stokes problems.

The flat-interface model problem: Stokes flow in the union of the upper
and lower half spaces with coupling conditions on x3 = 0.  Orientation:
the interface normal is n = e3, the "drop" side is x3 > 0, and jumps are
upper-trace minus lower-trace; with this convention the displayed
multiplier identities hold sign-for-sign, e.g.

    (I - n x n) [[T(u,p) n]] = -(mu+ + mu-)(|xi| I + xi x xi / |xi|) b_v

for the Dirichlet solution with boundary value b.  Viscosities may
differ per half space; the velocity formula is viscosity-free while the
pressure and stress pick up the local viscosity.

Everything is frequency-local: each tangential mode xi' (on a torus of
side 16 pi, spacing 1/8, supported in |xi'| >= 1) evolves independently
in x3 as (alpha + beta x3) exp(-|xi'| |x3|), which makes analytic
residual evaluation exact.  A solution holds each coefficient as one
array with a leading side axis, upper half space first; ``SIDES`` gives
sgn(x3) along that axis, so every formula is written once for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TORUS_SIDE",
    "FREQ_SPACING",
    "SIDES",
    "TangentialSpectrum",
    "HalfspaceSolution",
    "dirichlet_stokes_halfspace",
    "twophase_jump_halfspace",
    "residual_check",
    "traction_traces",
    "x3_samples",
]

TORUS_SIDE = 16.0 * np.pi
FREQ_SPACING = 2.0 * np.pi / TORUS_SIDE  # = 1/8
RANDOM_KMAX = 6.0  # largest |xi'| of TangentialSpectrum.random
SIDES = np.array([1.0, -1.0])  # sgn(x3) of the (upper, lower) half spaces


@dataclass
class TangentialSpectrum:
    """Modal data on the tangential torus: frequencies and amplitudes.

    ``values`` has shape (M,) for scalar data or (M, 3) for vector data.
    The low-frequency support exclusion |xi'| >= 1 is asserted (the
    solution multipliers are singular at xi' = 0).
    """

    modes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.modes = np.atleast_2d(np.asarray(self.modes, float))
        self.values = np.asarray(self.values, complex)
        if self.modes.shape[1] != 2:
            raise ValueError("modes must be (M, 2)")
        if np.any(self.k < 1.0 - 1e-12):
            raise ValueError("low-frequency content: modes with |xi'| < 1 present")
        # snap check: frequencies live on the torus lattice
        lat = self.modes / FREQ_SPACING
        if np.max(np.abs(lat - np.round(lat))) > 1e-9:
            raise ValueError("modes must lie on the 1/8-spaced torus lattice")

    @property
    def k(self) -> np.ndarray:
        return np.hypot(self.modes[:, 0], self.modes[:, 1])

    @classmethod
    def random(cls, n_modes: int, rng, vector: bool = False):
        """Random admissible modes (|xi'| in [1, RANDOM_KMAX]) with unit-scale amps."""
        picked = []
        while len(picked) < n_modes:
            ij = rng.integers(-int(RANDOM_KMAX / FREQ_SPACING), int(RANDOM_KMAX / FREQ_SPACING), 2)
            xi = ij * FREQ_SPACING
            if 1.0 <= np.hypot(*xi) <= RANDOM_KMAX:
                picked.append(xi)
        modes = np.array(picked)
        shape = (n_modes, 3) if vector else (n_modes,)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cls(modes, vals)


@dataclass
class HalfspaceSolution:
    """Per-mode solution u = (alpha + beta x3) e^{-k |x3|}, p = p0 e^{-k |x3|},
    each coefficient with a leading (upper, lower) side axis."""

    modes: np.ndarray  # (M, 2)
    mu: np.ndarray  # (2,)
    alpha: np.ndarray  # (2, M, 3)
    beta: np.ndarray  # (2, M, 3)
    p0: np.ndarray  # (2, M)
    boundary: TangentialSpectrum | None = None

    @property
    def k(self) -> np.ndarray:
        return np.hypot(self.modes[:, 0], self.modes[:, 1])

    def _side(self, x3: np.ndarray):
        """Side index of each sample (0 upper, 1 lower) and its decay e^{-k|x3|}."""
        x3 = np.asarray(x3, float)
        if np.any(x3 == 0.0):
            raise ValueError("fields live on the twofold half space; x3 != 0")
        return np.where(x3 > 0, 0, 1), np.exp(-self.k[:, None] * np.abs(x3)[None, :])

    def velocity(self, x3: np.ndarray) -> np.ndarray:
        """Modal velocity amplitudes, shape (M, len(x3), 3)."""
        side, decay = self._side(x3)
        a = self.alpha.transpose(1, 0, 2)[:, side]
        b = self.beta.transpose(1, 0, 2)[:, side]
        return (a + b * np.asarray(x3, float)[None, :, None]) * decay[..., None]

    def pressure(self, x3: np.ndarray) -> np.ndarray:
        side, decay = self._side(x3)
        return self.p0.T[:, side] * decay

    def scaled(self, a: complex) -> "HalfspaceSolution":
        return replace(self, alpha=a * self.alpha, beta=a * self.beta, p0=a * self.p0, boundary=None)

    def __add__(self, other: "HalfspaceSolution") -> "HalfspaceSolution":
        if self.modes.shape != other.modes.shape or np.any(self.modes != other.modes):
            raise ValueError("mode sets differ")
        return replace(
            self,
            alpha=self.alpha + other.alpha,
            beta=self.beta + other.beta,
            p0=self.p0 + other.p0,
            boundary=None,
        )


def x3_samples() -> np.ndarray:
    """Geometric x3 grid clustered at the interface, excluding 0: 20 points
    per side from 1e-3 to 8."""
    pos = np.geomspace(1e-3, 8.0, 20)
    return np.concatenate([-pos[::-1], pos])


def _xi_dot(xi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """xi' . v' over the tangential components of v (..., M, >=2)."""
    return xi[:, 0] * v[..., 0] + xi[:, 1] * v[..., 1]


def dirichlet_stokes_halfspace(
    b: TangentialSpectrum, mu_plus: float = 1.0, mu_minus: float = 1.0
) -> HalfspaceSolution:
    """Solve the two-sided Dirichlet Stokes problem with trace b on x3 = 0.

    Velocity per mode and side: the singular multiplier is the reason for
    the |xi'| >= 1 support hypothesis.  The velocity is continuous across
    the interface (both traces equal b); the pressure amplitude carries
    the local viscosity.
    """
    if b.values.ndim != 2 or b.values.shape[1] != 3:
        raise ValueError("Dirichlet data must be vector-valued (M, 3)")
    xi = b.modes
    k = b.k
    sgn = SIDES[:, None]
    mu = np.array([mu_plus, mu_minus], float)
    c = sgn * k * b.values[:, 2] - 1j * _xi_dot(xi, b.values)
    beta = np.empty((2, k.size, 3), complex)
    beta[..., :2] = c[..., None] * (-1j * sgn[..., None] * xi) / k[:, None]
    beta[..., 2] = c
    alpha = np.stack([b.values, b.values])
    return HalfspaceSolution(xi, mu, alpha, beta, 2.0 * mu[:, None] * c, boundary=b)


def twophase_jump_halfspace(
    H1: TangentialSpectrum,
    H2: TangentialSpectrum,
    mu_plus: float = 1.0,
    mu_minus: float = 1.0,
) -> HalfspaceSolution:
    """Solve the flat-interface two-phase problem.

    Conditions on x3 = 0: no velocity jump, u.n = H1, tangential stress
    jump = H2 (H2 . e3 = 0 required).  Reduces to the Dirichlet solve
    with b_w = H1 and b_v = -(1/((mu+ + mu-)|xi|)) (I - xi x xi / (2|xi|^2)) H2.
    """
    if H1.modes.shape != H2.modes.shape or np.any(H1.modes != H2.modes):
        raise ValueError("H1/H2 mode sets must coincide")
    if H2.values.ndim != 2 or H2.values.shape[1] != 3:
        raise ValueError("H2 must be vector-valued")
    if np.max(np.abs(H2.values[:, 2])) > 1e-12 * max(1.0, np.max(np.abs(H2.values))):
        raise ValueError("H2 has a normal component (H2 . e3 must vanish)")
    xi = H1.modes
    k = H1.k
    h2 = H2.values[:, :2]
    msum = mu_plus + mu_minus
    bv = -(h2 - 0.5 * (_xi_dot(xi, h2) / k**2)[:, None] * xi) / (msum * k[:, None])
    b = TangentialSpectrum(xi, np.concatenate([bv, H1.values[:, None]], axis=1))
    return dirichlet_stokes_halfspace(b, mu_plus, mu_minus)


# ---------------------------------------------------------------------------
# analytic residual oracle
# ---------------------------------------------------------------------------


def _mode_residuals(sol: HalfspaceSolution):
    """Coefficient-level PDE residuals per side and mode: momentum (2, M, 3)
    and the constant and linear-in-x3 divergence amplitudes (2, M) each.

    With u = (alpha + beta x3) e^{sgn*(-k) x3}:
      momentum: mu (d33 - k^2) u - (i xi', d3) p  has the x3-independent
      amplitude  -2 k mu beta * sgn - (i xi', -k sgn) p0  times the decay;
      divergence has a constant and a linear-in-x3 amplitude.
    """
    xi = sol.modes
    sgn_k = SIDES[:, None] * sol.k
    alpha, beta, p0 = sol.alpha, sol.beta, sol.p0
    mom = np.empty_like(beta)
    coef = -2.0 * sgn_k * sol.mu[:, None]
    mom[..., :2] = coef[..., None] * beta[..., :2] - 1j * xi * p0[..., None]
    mom[..., 2] = coef * beta[..., 2] + sgn_k * p0
    div0 = 1j * _xi_dot(xi, alpha) + beta[..., 2] - sgn_k * alpha[..., 2]
    div1 = 1j * _xi_dot(xi, beta) - sgn_k * beta[..., 2]
    return mom, div0, div1


def traction_traces(sol: HalfspaceSolution):
    """(T(u,p) e3) at x3 -> 0+ and 0-, shape (M, 3) each."""
    alpha = sol.alpha
    mu = sol.mu[:, None]
    d3u = sol.beta - (SIDES[:, None] * sol.k)[..., None] * alpha  # d3 u at 0
    t = np.empty_like(d3u)
    t[..., :2] = mu[..., None] * (d3u[..., :2] + 1j * sol.modes * alpha[..., 2:])
    t[..., 2] = 2.0 * mu * d3u[..., 2] - sol.p0
    return t[0], t[1]


def residual_check(
    sol: HalfspaceSolution,
    H1: TangentialSpectrum | None = None,
    H2: TangentialSpectrum | None = None,
    dirichlet: TangentialSpectrum | None = None,
) -> dict:
    """Max-norm residual report: PDE, divergence, trace and jump conditions."""
    mom, div0, div1 = _mode_residuals(sol)
    upper = sol.alpha[0]
    report = {
        "momentum": np.max(np.abs(mom)),
        "divergence": np.max(np.max(np.abs(div0), axis=1) + np.max(np.abs(div1), axis=1)),
        "velocity_jump": np.max(np.abs(upper - sol.alpha[1])),
    }
    t_up, t_lo = traction_traces(sol)
    jump = t_up - t_lo
    if dirichlet is not None:
        report["trace"] = np.max(np.abs(upper - dirichlet.values))
    if H1 is not None:
        report["normal_velocity"] = np.max(np.abs(upper[:, 2] - H1.values))
    if H2 is not None:
        tang = jump.copy()
        tang[:, 2] = 0.0
        report["tangential_stress_jump"] = np.max(np.abs(tang - H2.values))
    report["normal_stress_jump"] = np.max(np.abs(jump[:, 2]))
    return report
