"""Closed-form translating-drop flow (the classical two-sphere-phase Stokes
solution for a drop settling at unit speed, written in the frame where the
far fluid is at rest).

Independent of the numerical solver by construction: everything here is
explicit algebra, derived from the degree-1 interior/exterior solution
families with no-slip, zero tangential stress jump, boundary normal
velocity U.n = -e3.n and decay at infinity.

Radial profiles of the degree-(1,0) harmonic channel (Y = sqrt(3/4pi) cos th):
    interior:  P = A + B r^2,  v = A + 2 B r^2,   p = 10 mu1 B r
    exterior:  P = -2C/r^3 + D/r,  v = C/r^3 + D/(2r),  p = mu2 D / r^2
with   C = -c mu1 / (4 (mu1 + mu2)),  D = 2C - c,
       B = 2C + c/2,  A = -c - B,  c = sqrt(4 pi / 3).

The vertical component of the interface stress-jump integral is
    -2 pi mu2 (2 + 3 kappa) / (1 + kappa),  kappa = mu1 / mu2,
(drag 5 pi mu at equal viscosities and unit speed).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coefficients",
    "radial_profiles",
    "velocity",
    "pressure",
    "drag_e3",
    "stream_function",
    "surface_speed",
]

C_NORM = np.sqrt(4.0 * np.pi / 3.0)  # cos(theta) = C_NORM * Y_{1,0}


def coefficients(mu1: float, mu2: float) -> dict:
    c = C_NORM
    C = -c * mu1 / (4.0 * (mu1 + mu2))
    D = 2.0 * C - c
    B = 2.0 * C + c / 2.0
    A = -c - B
    return {"A": A, "B": B, "C": C, "D": D, "c": c}


def radial_profiles(r: np.ndarray, mu1: float, mu2: float):
    """(P, v, p) profiles of the Y_{1,0} channel at radii r (piecewise)."""
    k = coefficients(mu1, mu2)
    r = np.asarray(r, float)
    inside = r <= 1.0
    P = np.where(inside, k["A"] + k["B"] * r**2, -2.0 * k["C"] / r**3 + k["D"] / r)
    v = np.where(
        inside, k["A"] + 2.0 * k["B"] * r**2, k["C"] / r**3 + k["D"] / (2.0 * r)
    )
    p = np.where(
        inside,
        10.0 * mu1 * k["B"] * r,
        mu2 * k["D"] / r**2,
    )
    return P, v, p


def velocity(x, y, z, mu1: float, mu2: float):
    """Cartesian velocity of the unit-speed drop flow (far field at rest)."""
    x, y, z = np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    )
    r = np.sqrt(x * x + y * y + z * z)
    r = np.where(r == 0, 1e-300, r)
    P, v, _ = radial_profiles(r, mu1, mu2)
    c = C_NORM
    # U = P Y rhat + v grad_S Y with Y = cos(theta)/c:
    #   U = (P - v) (cos th / c) rhat + (v / c) e3   [grad_S cos th = e3 - cos th rhat]
    ct = z / r
    rad = (P - v) * ct / c
    out = np.stack([rad * x / r, rad * y / r, rad * z / r + v / c])
    return out


def pressure(x, y, z, mu1: float, mu2: float):
    x, y, z = np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    )
    r = np.sqrt(x * x + y * y + z * z)
    r = np.where(r == 0, 1e-300, r)
    _, _, p = radial_profiles(r, mu1, mu2)
    return p * (z / r) / C_NORM


def drag_e3(mu1: float, mu2: float) -> float:
    """e3 . int_{S^2} [[T(U,P) n]] dS for the unit-speed drop flow."""
    kappa = mu1 / mu2
    return -2.0 * np.pi * mu2 * (2.0 + 3.0 * kappa) / (1.0 + kappa)


def stream_function(r, theta, mu1: float, mu2: float):
    """Stokes stream function psi with u_r = (d_theta psi)/(r^2 sin th)."""
    P, _, _ = radial_profiles(np.asarray(r, float), mu1, mu2)
    return P * np.asarray(r) ** 2 * np.sin(theta) ** 2 / (2.0 * C_NORM)


def surface_speed(theta, mu1: float, mu2: float):
    """Tangential surface speed profile |u_theta| at r = 1."""
    _, v, _ = radial_profiles(np.array([1.0]), mu1, mu2)
    return -v[0] * np.sin(theta) / C_NORM
