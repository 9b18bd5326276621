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
residual evaluation exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TORUS_SIDE",
    "FREQ_SPACING",
    "TangentialSpectrum",
    "HalfspaceSolution",
    "dirichlet_stokes_halfspace",
    "twophase_jump_halfspace",
    "residual_check",
    "x3_samples",
]

TORUS_SIDE = 16.0 * np.pi
FREQ_SPACING = 2.0 * np.pi / TORUS_SIDE  # = 1/8
RANDOM_KMAX = 6.0  # largest |xi'| of TangentialSpectrum.random


@dataclass
class TangentialSpectrum:
    """Modal data on the tangential torus: frequencies and amplitudes.

    ``values`` has shape (M,) for scalar data or (M, 3) for vector data.
    With ``enforce_gap`` the low-frequency support exclusion |xi'| >= 1
    is asserted (the solution multipliers are singular at xi' = 0).
    """

    modes: np.ndarray
    values: np.ndarray
    enforce_gap: bool = True

    def __post_init__(self):
        self.modes = np.atleast_2d(np.asarray(self.modes, float))
        self.values = np.asarray(self.values, complex)
        if self.modes.shape[1] != 2:
            raise ValueError("modes must be (M, 2)")
        k = np.hypot(self.modes[:, 0], self.modes[:, 1])
        if self.enforce_gap and np.any(k < 1.0 - 1e-12):
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
    """Per-mode solution u = (alpha + beta x3) e^{-k |x3|}, p = p0 e^{-k |x3|}."""

    modes: np.ndarray  # (M, 2)
    mu_plus: float
    mu_minus: float
    alpha_plus: np.ndarray  # (M, 3)
    beta_plus: np.ndarray
    alpha_minus: np.ndarray
    beta_minus: np.ndarray
    p_plus: np.ndarray  # (M,)
    p_minus: np.ndarray
    boundary: TangentialSpectrum | None = None

    @property
    def k(self) -> np.ndarray:
        return np.hypot(self.modes[:, 0], self.modes[:, 1])

    def velocity(self, x3: np.ndarray) -> np.ndarray:
        """Modal velocity amplitudes, shape (M, len(x3), 3)."""
        x3 = np.asarray(x3, float)
        if np.any(x3 == 0.0):
            raise ValueError("fields live on the twofold half space; x3 != 0")
        k = self.k[:, None, None]
        up = x3 > 0
        a = np.where(up[None, :, None], self.alpha_plus[:, None], self.alpha_minus[:, None])
        b = np.where(up[None, :, None], self.beta_plus[:, None], self.beta_minus[:, None])
        return (a + b * x3[None, :, None]) * np.exp(-k * np.abs(x3)[None, :, None])

    def pressure(self, x3: np.ndarray) -> np.ndarray:
        x3 = np.asarray(x3, float)
        k = self.k[:, None]
        p0 = np.where(x3[None, :] > 0, self.p_plus[:, None], self.p_minus[:, None])
        return p0 * np.exp(-k * np.abs(x3)[None, :])

    def scaled(self, a: complex) -> "HalfspaceSolution":
        return HalfspaceSolution(
            self.modes,
            self.mu_plus,
            self.mu_minus,
            a * self.alpha_plus,
            a * self.beta_plus,
            a * self.alpha_minus,
            a * self.beta_minus,
            a * self.p_plus,
            a * self.p_minus,
        )

    def __add__(self, other: "HalfspaceSolution") -> "HalfspaceSolution":
        if self.modes.shape != other.modes.shape or np.any(self.modes != other.modes):
            raise ValueError("mode sets differ")
        return HalfspaceSolution(
            self.modes,
            self.mu_plus,
            self.mu_minus,
            self.alpha_plus + other.alpha_plus,
            self.beta_plus + other.beta_plus,
            self.alpha_minus + other.alpha_minus,
            self.beta_minus + other.beta_minus,
            self.p_plus + other.p_plus,
            self.p_minus + other.p_minus,
        )


def x3_samples() -> np.ndarray:
    """Geometric x3 grid clustered at the interface, excluding 0: 20 points
    per side from 1e-3 to 8."""
    pos = np.geomspace(1e-3, 8.0, 20)
    return np.concatenate([-pos[::-1], pos])


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
    bv = b.values[:, :2]
    bw = b.values[:, 2]
    i_xi_dot_bv = 1j * (xi[:, 0] * bv[:, 0] + xi[:, 1] * bv[:, 1])
    c_plus = k * bw - i_xi_dot_bv
    c_minus = -k * bw - i_xi_dot_bv
    beta_plus = np.empty((k.size, 3), complex)
    beta_plus[:, 0] = c_plus * (-1j * xi[:, 0]) / k
    beta_plus[:, 1] = c_plus * (-1j * xi[:, 1]) / k
    beta_plus[:, 2] = c_plus
    beta_minus = np.empty_like(beta_plus)
    beta_minus[:, 0] = c_minus * (1j * xi[:, 0]) / k
    beta_minus[:, 1] = c_minus * (1j * xi[:, 1]) / k
    beta_minus[:, 2] = c_minus
    alpha = b.values.copy()
    return HalfspaceSolution(
        xi,
        mu_plus,
        mu_minus,
        alpha,
        beta_plus,
        alpha.copy(),
        beta_minus,
        2.0 * mu_plus * c_plus,
        2.0 * mu_minus * c_minus,
        boundary=b,
    )


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
    xidoth2 = xi[:, 0] * h2[:, 0] + xi[:, 1] * h2[:, 1]
    msum = mu_plus + mu_minus
    bv = -(h2 - 0.5 * (xidoth2 / k**2)[:, None] * xi) / (msum * k[:, None])
    b = TangentialSpectrum(
        xi, np.concatenate([bv, H1.values[:, None]], axis=1), enforce_gap=H1.enforce_gap
    )
    return dirichlet_stokes_halfspace(b, mu_plus, mu_minus)


# ---------------------------------------------------------------------------
# analytic residual oracle
# ---------------------------------------------------------------------------


def _mode_residuals(sol: HalfspaceSolution):
    """Coefficient-level PDE residuals per mode and side.

    With u = (alpha + beta x3) e^{sgn*(-k) x3}:
      momentum: mu (d33 - k^2) u - (i xi', d3) p  has the x3-independent
      amplitude  -2 k mu beta * sgn - (i xi', -k sgn) p0  times the decay;
      divergence has a constant and a linear-in-x3 amplitude.
    """
    xi = sol.modes
    k = sol.k
    out = {}
    for side, alpha, beta, p0, mu, sgn in (
        ("plus", sol.alpha_plus, sol.beta_plus, sol.p_plus, sol.mu_plus, 1.0),
        ("minus", sol.alpha_minus, sol.beta_minus, sol.p_minus, sol.mu_minus, -1.0),
    ):
        mom = np.empty((k.size, 3), complex)
        mom[:, 0] = -2.0 * sgn * k * mu * beta[:, 0] - 1j * xi[:, 0] * p0
        mom[:, 1] = -2.0 * sgn * k * mu * beta[:, 1] - 1j * xi[:, 1] * p0
        mom[:, 2] = -2.0 * sgn * k * mu * beta[:, 2] + sgn * k * p0
        div0 = (
            1j * (xi[:, 0] * alpha[:, 0] + xi[:, 1] * alpha[:, 1])
            + beta[:, 2]
            - sgn * k * alpha[:, 2]
        )
        div1 = 1j * (xi[:, 0] * beta[:, 0] + xi[:, 1] * beta[:, 1]) - sgn * k * beta[:, 2]
        out[side] = (mom, div0, div1)
    return out


def traction_traces(sol: HalfspaceSolution):
    """(T(u,p) e3) at x3 -> 0+ and 0-, shape (M, 3) each."""
    xi = sol.modes
    k = sol.k
    out = []
    for alpha, beta, p0, mu, sgn in (
        (sol.alpha_plus, sol.beta_plus, sol.p_plus, sol.mu_plus, 1.0),
        (sol.alpha_minus, sol.beta_minus, sol.p_minus, sol.mu_minus, -1.0),
    ):
        d3u = beta - sgn * k[:, None] * alpha  # d3 u at 0
        t = np.empty((k.size, 3), complex)
        t[:, 0] = mu * (d3u[:, 0] + 1j * xi[:, 0] * alpha[:, 2])
        t[:, 1] = mu * (d3u[:, 1] + 1j * xi[:, 1] * alpha[:, 2])
        t[:, 2] = 2.0 * mu * d3u[:, 2] - p0
        out.append(t)
    return out[0], out[1]


def residual_check(
    sol: HalfspaceSolution,
    H1: TangentialSpectrum | None = None,
    H2: TangentialSpectrum | None = None,
    dirichlet: TangentialSpectrum | None = None,
) -> dict:
    """Max-norm residual report: PDE, divergence, trace and jump conditions."""
    res = _mode_residuals(sol)
    report = {
        "momentum": max(
            np.max(np.abs(res["plus"][0])), np.max(np.abs(res["minus"][0]))
        ),
        "divergence": max(
            np.max(np.abs(res[s][1])) + np.max(np.abs(res[s][2]))
            for s in ("plus", "minus")
        ),
        "velocity_jump": np.max(np.abs(sol.alpha_plus - sol.alpha_minus)),
    }
    t_up, t_lo = traction_traces(sol)
    jump = t_up - t_lo
    if dirichlet is not None:
        report["trace"] = np.max(np.abs(sol.alpha_plus - dirichlet.values))
    if H1 is not None:
        report["normal_velocity"] = np.max(np.abs(sol.alpha_plus[:, 2] - H1.values))
    if H2 is not None:
        tang = jump.copy()
        tang[:, 2] = 0.0
        report["tangential_stress_jump"] = np.max(np.abs(tang - H2.values))
    report["normal_stress_jump"] = np.max(np.abs(jump[:, 2]))
    return report
