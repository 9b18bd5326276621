"""Two-phase Stokes/Oseen solver on the ball/exterior reference domain.

It solves rows 1-4 of the linear operator L as L writes them (``YElement``):
-Div T(u, p) [+ rho lambda0 d3 u] = f, Div u = g, the normal velocity h1
and the tangential stress jump h2.  As -Div T(u, p) = -mu lap u + grad p -
mu grad g, ``analyse`` adds mu grad g to f on channels and the collocation
rows are those of -mu lap u + grad p.

Per spherical-harmonic degree l the operator reduces to a radial two-point
boundary value problem for the spheroidal channels (P, v, pressure) and the
toroidal channel w, coupled at r = 1 by continuous velocity, the normal
velocity and the tangential stress jump.  Its collocation rows are the
volume layer's per-mode operator (``mode_laplacian``, ``mode_divergence``,
``mode_gradient``) and ``_surface_traction`` applied to the nodal basis
tables of ``radial`` (interior: parity bases in r; exterior: polynomial in
s = 1/r, which excludes the growing solutions), the same formulas that
``minus_div_T`` and ``traction_jump`` apply to channels.  Each degree
is a least-squares system, factored phase by phase (``_staircase_pinv``).
The constructor keeps, per channel, one stacked operator (L+1, n_out, n_in)
from nodal data to nodal profiles, and writes each degree's products with
the nodal bases straight into its rows and columns; a solve is batched
matmuls over all degrees and orders between the sphere transforms, each
reading one right-hand side and writing into the array it returns.

The drift rho lambda0 d3 u is inverted by GMRES in channel space, with
the Stokes solve as preconditioner: d3 acts through the grid's probed
channel coupling and each Krylov step through the force block of the
operators only, so the sphere transforms of a drifted solve do not grow
with its steps.

-Div T(u, p) = -mu lap u + grad (p - mu div u) is one pass on the channels
of u and the coefficients of p (``minus_div_T``), which also reads
[[T(u,p) n]] off them at r = 1 as scalar (normal part) and
spheroidal/toroidal (tangential part) coefficients, as the solver's
``traction_jump`` does off a solve's; ``traction_force`` integrates it
from its degree-1 coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .sphere import (
    SphereField,
    TangentField,
    analysis_batch,
    integrate_sphere,
    normal_component_fields,
    synthesis_batch,
)
from .volume import (
    INTERIOR,
    VolumeField,
    VolumeGrid,
    chan_radial_deriv,
    d3_channels,
    integrate_phase,
    mode_divergence,
    mode_gradient,
    mode_laplacian,
    norm_l2,
    vector_gradient,
    vector_radial_deriv,
    vsh_assemble,
    vsh_channels,
)

__all__ = [
    "PhysicalParams",
    "YElement",
    "TwoPhaseSolution",
    "TwoPhaseStokesSolver",
    "solve_two_phase",
    "minus_div_T",
    "AuxiliaryField",
    "auxiliary_field",
    "axisym_leakage",
    "traction_force",
    "lambda0_value",
    "oseenlet",
]


@dataclass
class PhysicalParams:
    """Nondimensional material parameters; rho1 + rho2 = 1 by convention."""

    mu1: float = 1.0
    mu2: float = 1.0
    sigma: float = 1.0
    rho_tilde: float = 0.0

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu2 <= 0 or self.sigma <= 0:
            raise ValueError("viscosities and surface tension must be positive")
        if abs(self.rho_tilde) >= 1.0:
            raise ValueError("|rho_tilde| must be below the total density 1")

    @property
    def rho1(self) -> float:
        return (1.0 + self.rho_tilde) / 2.0

    @property
    def rho2(self) -> float:
        return (1.0 - self.rho_tilde) / 2.0


@dataclass
class YElement:
    """Data-space element of the linear operator: the seven rows (f, g, h1,
    h2, a1, a2, h3).  The Stokes solve reads the first four."""

    f: VolumeField
    g: VolumeField
    h1: SphereField
    h2: TangentField
    a1: float = 0.0
    a2: float = 0.0
    h3: SphereField | None = None

    @classmethod
    def zeros(cls, grid: VolumeGrid) -> "YElement":
        g = grid.sphere
        return cls(
            VolumeField.zeros(grid, rank=1),
            VolumeField.zeros(grid),
            SphereField.zeros(g),
            TangentField.zeros(g),
            h3=SphereField.zeros(g),
        )

    def combine(self, other: "YElement", a: float, b: float) -> "YElement":
        """a self + b other, row by row."""
        return YElement(*(a * getattr(self, k.name) + b * getattr(other, k.name) for k in fields(self)))

    def compatibility_defect(self) -> float:
        """int_{B1} g dx - int_{S2} h1 dS (must vanish for solvability)."""
        return integrate_phase(self.g, INTERIOR) - integrate_sphere(self.h1)


@dataclass
class TwoPhaseSolution:
    u: VolumeField
    p: VolumeField
    diagnostics: dict = field(default_factory=dict)
    channels: tuple = ()  # (u, p) in the layout of solve_channels, synthesised into u and p


# ---------------------------------------------------------------------------
# per-degree collocation matrices, stacked into one solve operator per channel
# ---------------------------------------------------------------------------


def _surface_traction(P, v, w, p, mu):
    """T(u, p) rhat at r = 1 per mode, (2 mu P' - p, mu (P + v' - v), mu (w' - w)),
    from each velocity channel's (value, d/dr) and the pressure's value there."""
    return 2.0 * mu * P[1] - p, mu * (P[0] + v[1] - v[0]), mu * (w[1] - w[0])


def _padded_tables(rad):
    """Per parity, the basis tables of P and of v on the unknowns [P | v]:
    each channel is zero on the other's columns.  A basis without parity
    (the exterior's) is padded once."""
    z = np.zeros((rad.n, rad.n))
    pad = {id(B): ([np.hstack([b, z]) for b in B], [np.hstack([z, b]) for b in B]) for B in rad.tables}
    return [pad[id(B)] for B in rad.tables]


def _phase_rows(rad, l: int, mu: float, padded):
    """One phase's rows at degree l, the per-mode operator applied to its
    basis tables: the spheroidal block (-mu lap u + grad p and div u on the
    (P, v, p) coefficients), the toroidal block (-mu lap w on w's) and the
    tangential stress rows at r = 1 on (P, v) and on w.  P and v have
    parity l + 1, p and w parity l; ``padded`` is ``_padded_tables(rad)``."""
    r, ll1, i, n = rad.r[:, None], l * (l + 1.0), rad.i_surface, rad.n
    (P, v), w = padded[(l + 1) % 2], rad.tables[l % 2]
    lapP, lapv, lapw = mode_laplacian(P, v, w, r, ll1)
    sph = np.zeros((3 * n, 3 * n))
    sph[:n, : 2 * n], sph[n : 2 * n, : 2 * n] = -mu * lapP, -mu * lapv
    sph[2 * n :, : 2 * n] = mode_divergence(P, v, r, ll1)
    sph[:n, 2 * n :], sph[n : 2 * n, 2 * n :] = mode_gradient(w, r)  # the pressure's basis is w's
    _, t_s, t_w = _surface_traction(*([c[i] for c in X[:2]] for X in (P, v, w)), 0.0, mu)
    return sph, -mu * lapw, t_s, t_w


RANK_RTOL = 1e-13  # smallest 1 / cond of a collocation block (the pinv rcond)
UPPER_INVERSE_LEAF = 32  # _upper_inverse inverts blocks up to this size directly


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular R by 2 x 2 blocks, matmuls only:
    [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]].  numpy has no
    triangular solve, and an LU factorisation ignores the triangle."""
    n = R.shape[0]
    if n <= UPPER_INVERSE_LEAF:
        return np.linalg.inv(R)
    k = n // 2
    Ai, Di = _upper_inverse(R[:k, :k]), _upper_inverse(R[k:, k:])
    out = np.zeros_like(R)
    out[:k, :k], out[k:, k:] = Ai, Di
    out[:k, k:] = -(Ai @ R[:k, k:]) @ Di
    return out


def _staircase_pinv(A: np.ndarray, k: int):
    """X = R^-1 Q^T from a QR of A taken in two stages (a staircase QR, A.
    Bjorck, Numerical Methods for Least Squares Problems, 1996, 6.3), and
    |R|_F; the first k columns of A touch only some of its rows.

    A complete QR Q1 [R11; 0] of those columns over the rows that touch
    them turns Q1^T of those rows into [[R11, R12], [0, C]], and a thin QR
    Q2 R22 of C stacked on the other rows finishes it.  R = [[R11, R12],
    [0, R22]] is the R of a QR of A with its rows reordered, and Q^T is Q1^T
    followed by Q2^T.  Both stages have full rank if A has.  X's last rows
    are R22^-1 Q2^T (on the rows of C, through Q1), its first R11^-1 (Q1^T
    - R12 X_2).  With k = 0 this is one thin QR of A."""
    m, n = A.shape
    s1 = np.any(A[:, :k] != 0, axis=1)
    m1 = np.count_nonzero(s1)
    if m < n or m1 < k:
        raise np.linalg.LinAlgError("fewer rows than unknowns")
    Q1, R1 = np.linalg.qr(A[s1, :k], mode="complete")
    top = Q1.T @ A[s1, k:]
    Q2, R22 = np.linalg.qr(np.vstack([top[k:], A[~s1, k:]]))
    T = np.empty((n - k, m))  # the last rows of Q^T
    T[:, s1] = Q2[: m1 - k].T @ Q1[:, k:].T
    T[:, ~s1] = Q2[m1 - k :].T
    X = np.empty((n, m))
    X[k:] = _upper_inverse(R22) @ T
    X[:k] = -top[:k] @ X[k:]
    X[:k, s1] += Q1[:, :k].T
    X[:k] = _upper_inverse(R1[:k]) @ X[:k]
    return X, np.sqrt(sum(np.linalg.norm(B) ** 2 for B in (R1[:k], top[:k], R22)))


def _solve_operator(M, data_rows, bases, out, drop_rows=(), drop_cols=()) -> None:
    """Writes into ``out`` the nodal outputs from the right-hand side of M
    x = b on ``data_rows`` (zero on the other rows), one column per data
    row in their order and the rows of basis k into ``out[k]``.

    The least-squares system leaves out ``drop_rows`` and ``drop_cols`` (the
    dropped unknowns are zero) and scales each row to unit max.  ``bases``
    map consecutive blocks of x to nodal values.  The unknowns of their
    first half are the drop's, which only the drop's rows and the
    transmission rows touch, so the system is factored phase by phase by
    ``_staircase_pinv`` (a single basis is one QR).  It has full column
    rank, so X = R^-1 Q^T is its pseudo-inverse.  As |X|_2 = |R^-1|_2,
    |R|_F |X|_F bounds the block's condition number from above; a block
    whose bound exceeds 1 / RANK_RTOL raises LinAlgError (an unpivoted R's
    diagonal does not reveal rank).
    """
    keep_r = np.ones(M.shape[0], bool)
    keep_r[np.asarray(drop_rows, int)] = False
    keep_c = np.ones(M.shape[1], bool)
    keep_c[np.asarray(drop_cols, int)] = False
    n_r = np.count_nonzero(keep_r)
    # only trailing rows, none of them a data row, dropped: A is a row prefix of M
    prefix = keep_c.all() and keep_r[:n_r].all() and keep_r[data_rows].all()
    cols = np.flatnonzero(keep_c)
    A = M[:n_r] if prefix else M[keep_r][:, cols]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    k = np.count_nonzero(keep_c[: sum(B.shape[1] for B in bases[: len(bases) // 2])])
    try:
        X, norm_R = _staircase_pinv(A / scale[:, None], k)
        cond = norm_R * np.linalg.norm(X)
    except np.linalg.LinAlgError:  # fewer rows than unknowns, or a singular R
        cond = np.inf
    if not cond * RANK_RTOL <= 1.0:  # an inf or NaN bound fails too
        raise np.linalg.LinAlgError(
            f"rank-deficient collocation block: condition bound {cond:.1e}"
        )
    at = (np.cumsum(keep_r) - 1)[data_rows]  # the data rows among A's rows
    if prefix:
        x = X[:, at]
        x /= scale[at]
    else:
        x = np.zeros((M.shape[1], len(data_rows)))
        x[cols] = X[:, at] / scale[at]
        x[:, ~keep_r[data_rows]] = 0.0  # a dropped data row has a zero column
    for B, o, end in zip(bases, out, np.cumsum([B.shape[1] for B in bases])):
        np.matmul(B, x[end - B.shape[1] : end], out=o)


def _spheroidal_operator(gi, ge, l: int, drop, res, out) -> None:
    """Writes into ``out`` the nodal (P, v, p), each over the joined radial
    axis, from the nodal data (fP, fv, g) of the joined axis, h1 and h2s,
    at degree l; ``drop`` and ``res`` are the phases' ``_phase_rows``."""
    Mi, Me = gi.n, ge.n
    n_x = 3 * (Mi + Me)
    c = np.cumsum([0, Mi, Mi, Mi, Me, Me, Me])  # unknown block k is c[k]:c[k+1]
    (Ai, _, ti, _), (Ae, _, te, _) = drop, res
    B0i, C0i, B0e = gi.tables[(l + 1) % 2][0], gi.tables[l % 2][0], ge.tables[0][0]
    b0i, b0e = B0i[gi.i_surface], B0e[ge.i_surface]
    # rows: momentum and divergence per phase, [[P]] = 0, P = h1, [[v]] = 0,
    # the tangential stress jump h2s, decay of (P, v, p) at infinity, and
    # the pressure mean.  The row order sets the rounding of the pseudo-
    # inverse: putting the data rows first moves lambda by 1.7e-11 relative.
    M = np.zeros((n_x + 8, n_x))
    M[: c[3], : c[3]], M[c[3] : n_x, c[3] :] = Ai, Ae
    M[n_x, c[0] : c[1]], M[n_x, c[3] : c[4]] = b0i, -b0e
    M[n_x + 1, c[0] : c[1]] = b0i
    M[n_x + 2, c[1] : c[2]], M[n_x + 2, c[4] : c[5]] = b0i, -b0e
    M[n_x + 3, c[0] : c[2]], M[n_x + 3, c[3] : c[5]] = ti, -te
    for k in range(3):
        M[n_x + 4 + k, c[3 + k] : c[4 + k]] = ge.basis_at_infinity
    M[n_x + 7, c[2] : c[3]] = gi.wq @ C0i
    # out runs each channel over the joined radial axis: its columns are
    # the data rows of fP, fv and g, each the drop's then the reservoir's,
    # then h1 and h2s, and each basis writes its rows of that channel
    data_rows = np.r_[
        c[0] : c[1], c[3] : c[4], c[1] : c[2], c[4] : c[5], c[2] : c[3], c[5] : n_x, n_x + 1, n_x + 3
    ]
    n = Mi + Me
    blocks = [out[j * n + a : j * n + b] for a, b in ((0, Mi), (Mi, n)) for j in range(3)]
    bases = (B0i, B0i, C0i, B0e, B0e, B0e)
    if l == 0:  # no v: drop its unknowns, equations and data
        v = np.r_[c[1] : c[2], c[4] : c[5]]
        _solve_operator(M, data_rows, bases, blocks, np.r_[v, n_x + 2, n_x + 3, n_x + 5], v)
    else:
        _solve_operator(M, data_rows, bases, blocks, drop_rows=[n_x + 7])


def _toroidal_operator(gi, ge, l: int, drop, res, out) -> None:
    """Writes into ``out`` the nodal w of each phase from the nodal fw of
    each phase and h2t (l >= 1)."""
    Mi, Me = gi.n, ge.n
    (_, Ai, _, ti), (_, Ae, _, te) = drop, res
    B0i, B0e = gi.tables[l % 2][0], ge.tables[0][0]
    # rows: momentum per phase, [[w]] = 0, h2t, decay
    M = np.zeros((Mi + Me + 3, Mi + Me))
    M[:Mi, :Mi], M[Mi : Mi + Me, Mi:] = Ai, Ae
    M[Mi + Me, :Mi], M[Mi + Me, Mi:] = B0i[gi.i_surface], -B0e[ge.i_surface]
    M[Mi + Me + 1, :Mi], M[Mi + Me + 1, Mi:] = ti, -te
    M[Mi + Me + 2, Mi:] = ge.basis_at_infinity
    data_rows = np.r_[: Mi + Me, Mi + Me + 1]
    _solve_operator(M, data_rows, (B0i, B0e), (out[:Mi], out[Mi:]))


class TwoPhaseStokesSolver:
    """Solve operators of every degree for one (grid, mu1, mu2) triple.

    ``sph[l]`` maps the nodal spheroidal data of degree l (fP, fv and g,
    each over the whole radial axis, then h1 and h2s) to the nodal (P, v,
    p), each over the whole radial axis.  ``tor[l]`` maps (fw, h2t) to w.
    At l = 0 the v and w blocks are zero.  Channel arrays carry the orders
    |m| <= M = min(L, m_max) of the grid, centred on m = 0.  ``solve`` is
    ``analyse``, ``solve_channels`` (batched matmuls that read one right-hand
    side each) and ``synthesise``; ``solve_two_phase`` adds the drift's
    Krylov steps through ``force_velocity``.
    """

    def __init__(self, grid: VolumeGrid, mu1: float, mu2: float):
        self.grid = grid
        self.mu1 = mu1
        self.mu2 = mu2
        gi, ge = grid.interior, grid.exterior
        n = gi.n + ge.n
        L = grid.sphere.band_limit
        # filled one degree at a time: no per-degree pseudo-inverse is kept
        self.sph = np.zeros((L + 1, 3 * n, 3 * n + 2))
        self.tor = np.zeros((L + 1, n, n + 1))
        pad_i, pad_e = _padded_tables(gi), _padded_tables(ge)
        for l in range(L + 1):
            rows = _phase_rows(gi, l, mu1, pad_i), _phase_rows(ge, l, mu2, pad_e)
            _spheroidal_operator(gi, ge, l, *rows, self.sph[l])
            if l > 0:
                _toroidal_operator(gi, ge, l, *rows, self.tor[l])
        # shared by every solve that uses this solver, sweep threads included
        self.sph.flags.writeable = False
        self.tor.flags.writeable = False

    def analyse(self, data: YElement):
        """After checking int g = int h1, the right-hand sides of ``sph``,
        the rows (fP, fv, g, h1, h2s) (3 n_r + 2, L+1, 2M+1), and of ``tor``,
        (fw, h2t) (n_r + 1, L+1, 2M+1), each one concatenation; row 1 is read
        in stress form, so (fP, fv, fw) are the channels of f + mu grad g."""
        grid = self.grid
        L = grid.sphere.band_limit
        defect = data.compatibility_defect()
        scale = max(1.0, data.g.max_abs(), np.max(np.abs(data.h1.values)))
        if abs(defect) > 1e-9 * scale:
            raise ValueError(f"incompatible data: int g - int h1 = {defect:.3e}")
        g = analysis_batch(grid.sphere, data.g.values, L)
        mu = grid.phase_profile(self.mu1, self.mu2)
        f = vsh_channels(data.f)
        for c, grad in zip(f, mode_gradient((g, chan_radial_deriv(grid, g, 0, 1)), grid.radius_mesh())):
            c += mu * grad
        h1, h2 = data.h1.with_band(L).coeffs, data.h2.spec
        return np.concatenate([f[0], f[1], g, h1[None], h2[:1]]), np.concatenate([f[2], h2[1:]])

    @staticmethod
    def _apply(op, x, out=None):
        """op[l] on the rows x (n_in, L+1, 2M+1) of every degree at once: the
        output profiles (n_out, L+1, 2M+1), which the matmul writes through
        a transposed view into ``out`` or into a new C-ordered array."""
        if out is None:
            out = np.empty((op.shape[1],) + x.shape[1:])
        np.matmul(op, x.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
        return out

    def solve_channels(self, data):
        """Channels of the solution from the right-hand sides of ``analyse``,
        in C order: u (3, n_r, L+1, 2M+1), into whose (P, v) and w rows the
        matmuls write, and p (n_r, L+1, 2M+1)."""
        sph, tor = data
        n = self.grid.r.size
        u = np.empty((3, n) + sph.shape[1:])
        rows = u.reshape((3 * n,) + sph.shape[1:])
        self._apply(self.sph[:, : 2 * n], sph, rows[: 2 * n])
        self._apply(self.tor, tor, rows[2 * n :])
        return u, self._apply(self.sph[:, 2 * n :], sph)

    def force_velocity(self, f):
        """Velocity channels of the solve whose only data are the force
        channels ``f``: the force block, the force columns of the velocity
        rows (views of ``sph`` and ``tor``), on a view of f's (P, v) rows.
        Each Krylov step applies it, and allocates only the u it returns."""
        n, shape = self.grid.r.size, f.shape[2:]
        u = np.empty(f.shape)
        rows = u.reshape((3 * n,) + shape)
        self._apply(self.sph[:, : 2 * n, : 2 * n], f[:2].reshape((2 * n,) + shape), rows[: 2 * n])
        self._apply(self.tor[:, :, :n], f[2], rows[2 * n :])
        return u

    def force_pressure(self, f):
        """Pressure channels of the solve whose only data are the force channels ``f``."""
        n = self.grid.r.size
        return self._apply(self.sph[:, 2 * n :, : 2 * n], f[:2].reshape((2 * n,) + f.shape[2:]))

    def synthesise(self, u, p) -> TwoPhaseSolution:
        """Nodal velocity and pressure from the channels of solve_channels."""
        grid = self.grid
        return TwoPhaseSolution(
            VolumeField(grid, vsh_assemble(grid, *u)),
            VolumeField(grid, synthesis_batch(grid.sphere, p, grid.sphere.band_limit)),
            channels=(u, p),
        )

    def traction_jump(self, u, p):
        """[[T(u, p) n]] at r = 1 (normal SphereField, tangential TangentField)
        from the channels of a solution in the layout of solve_channels."""
        grid = self.grid
        i_s = _surface_rows(grid)
        return _traction_jump(
            grid, u[:, i_s], vector_radial_deriv(grid, u, 1)[:, i_s], p[i_s], self.mu1, self.mu2
        )

    def solve(self, data: YElement) -> TwoPhaseSolution:
        """Pure Stokes solve (no drift) with pressure mean zero in the drop."""
        return self.synthesise(*self.solve_channels(self.analyse(data)))


# ---------------------------------------------------------------------------
# Oseen drift by GMRES
# ---------------------------------------------------------------------------


KRYLOV_TOL = 1e-12  # stop once the residual is below this share of the Stokes solve
KRYLOV_MAX_STEPS = 40


def solve_two_phase(
    data: YElement,
    lambda0: float,
    params: PhysicalParams,
    solver: TwoPhaseStokesSolver,
) -> TwoPhaseSolution:
    """Solve -Div T(u, p) + rho lambda0 d3 u = f and rows 2-4 of ``data``.

    The solve is linear, so its velocity channels solve (I + K) u = u_0,
    u_0 the Stokes solve of the data and K u = S_f(rho lambda0 d3 u), S_f
    the solver's force block (``force_velocity``).  Unrestarted GMRES (Y.
    Saad and M. Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) solves this
    Stokes-preconditioned system in the Euclidean inner product of the
    channel coefficients.  The channels are one C-ordered array, so a
    Krylov vector is a row of the basis V, one matrix whose rows double
    when it is full; classical Gram-Schmidt applied twice is two products
    with V, and u = y V.  Then p = p_0 - S_p(rho lambda0 d3 u), and u and
    p are synthesised once.
    ``diagnostics["stokes_solves"]`` counts 1 + Krylov steps.  A Krylov
    vector that is not finite raises LinAlgError at once, and so does a
    residual above KRYLOV_TOL |u_0| after KRYLOV_MAX_STEPS steps.  Zero
    data give the zero solve and non-finite data the non-finite Stokes
    solve, both without steps, as at lambda0 = 0.
    """
    grid = solver.grid
    u, p = solver.solve_channels(solver.analyse(data))
    beta, steps = np.linalg.norm(u), 0
    if lambda0 != 0.0 and 0.0 < beta < np.inf:
        rho = grid.phase_profile(params.rho1 * lambda0, params.rho2 * lambda0)
        V = (u / beta).reshape(1, -1)  # the Krylov basis: a vector in each of its first `steps` rows
        H = np.zeros((KRYLOV_MAX_STEPS + 1, KRYLOV_MAX_STEPS))
        e1 = beta * (np.arange(KRYLOV_MAX_STEPS + 1) == 0)
        for steps in range(1, KRYLOV_MAX_STEPS + 1):
            v = V[steps - 1].reshape(u.shape)
            w = (v + solver.force_velocity(rho * d3_channels(grid, v))).ravel()
            for _ in range(2):  # classical Gram-Schmidt, applied twice
                h = V[:steps] @ w
                w -= h @ V[:steps]
                H[:steps, steps - 1] += h
            H[steps, steps - 1] = np.linalg.norm(w)
            if not np.isfinite(H[: steps + 1, steps - 1]).all():
                raise np.linalg.LinAlgError(f"Oseen drift solve: Krylov vector {steps} is not finite")
            y = np.linalg.lstsq(H[: steps + 1, :steps], e1[: steps + 1], rcond=None)[0]
            residual = np.linalg.norm(H[: steps + 1, :steps] @ y - e1[: steps + 1])
            if residual <= KRYLOV_TOL * beta or H[steps, steps - 1] == 0.0:
                break
            if steps == len(V):  # full: double the rows, so that no step copies the whole basis
                grown = np.empty((2 * steps, V.shape[1]))
                grown[:steps] = V
                V = grown
            V[steps] = w / H[steps, steps - 1]
        if not residual <= KRYLOV_TOL * beta:
            raise np.linalg.LinAlgError(
                f"Oseen drift solve: residual {residual / beta:.1e} of u_0 after {steps} Krylov steps"
            )
        u = (y @ V[:steps]).reshape(u.shape)
        p = p - solver.force_pressure(rho * d3_channels(grid, u))
    sol = solver.synthesise(u, p)
    sol.diagnostics["stokes_solves"] = 1 + steps
    return sol


def minus_div_T(u: VolumeField, p: VolumeField, mu1: float, mu2: float, drift=(0.0, 0.0)):
    """-Div T(u, p) = -mu lap u + grad (p - mu div u) with each phase's mu,
    plus drift d3 u with the phase pair ``drift`` = (rho1 lambda0, rho2
    lambda0) when it is nonzero, div u, and [[T(u, p) n]] as the solver's
    ``traction_jump``, in one pass on the channels of u and the
    coefficients of p.  The drift's d3 is the channel coupling the Stokes
    solve inverts (``d3_channels``)."""
    grid, g = u.grid, u.grid.sphere
    r, ll1, mu = grid.radius_mesh(), grid.ll1, grid.phase_profile(mu1, mu2)
    U = vsh_channels(u)
    dU = [vector_radial_deriv(grid, U, k) for k in (1, 2)]
    div = mode_divergence((U[0], dU[0][0]), (U[1],), r, ll1)
    f = -mu * np.stack(mode_laplacian(*zip(U, *dU), r, ll1))
    pc = analysis_batch(g, p.values, g.band_limit)
    i_s = _surface_rows(grid)
    jump = _traction_jump(grid, U[:, i_s], dU[0][:, i_s], pc[i_s], mu1, mu2)
    s = pc - mu * div
    for c, grad in zip(f, mode_gradient((s, chan_radial_deriv(grid, s, 0, 1)), r)):
        c += grad
    if any(drift):
        f += grid.phase_profile(*drift) * d3_channels(grid, U, dU[0])
    divu = VolumeField(grid, synthesis_batch(g, div, g.band_limit))
    return VolumeField(grid, vsh_assemble(grid, *f)), divu, jump


def residual_report(u, p, data, lambda0, params) -> dict:
    """Residual norms of a candidate solution in the rows the solver
    solves: -Div T(u, p) + rho lambda0 d3 u = f, with the solve's channel
    d3, Div u = g and the interface rows."""
    grid = u.grid
    drift = (params.rho1 * lambda0, params.rho2 * lambda0)
    mom, divu, _ = minus_div_T(u, p, params.mu1, params.mu2, drift)
    mom = mom - data.f
    div = divu - data.g
    jump_u = np.max(np.abs(u.jump()))
    h1_res = np.max(
        np.abs(
            np.einsum("iab,iab->ab", u.trace(INTERIOR), grid.sphere.unit_vectors()[0])
            - data.h1.values
        )
    )
    return {
        "momentum_l2": norm_l2(mom),
        "divergence_l2": norm_l2(div),
        "velocity_jump_max": jump_u,
        "normal_velocity_max": h1_res,
    }


# ---------------------------------------------------------------------------
# surface tractions and integrals
# ---------------------------------------------------------------------------


def _surface_rows(grid: VolumeGrid) -> list:
    """The rows of r = 1 on the radial axis, (drop, reservoir)."""
    return [grid.interior.i_surface, grid.interior.n + grid.exterior.i_surface]


def _traction_jump(grid: VolumeGrid, U, dU, p, mu1: float, mu2: float):
    """[[T(u,p) n]] from the (P, v, w) channels of u, their r-derivatives
    and the coefficients of p, each on the ``_surface_rows``."""
    g = grid.sphere
    L = g.band_limit
    sides = _surface_traction(*zip(U, dU), p, np.array([mu1, mu2])[:, None, None])
    t_r, t_s, t_t = (drop - res for drop, res in sides)
    return SphereField(g, coeffs=t_r, band=L), TangentField(g, spec=(t_s, t_t), band=L)


def traction_force(jump) -> np.ndarray:
    """int [[T n]] dS of a jump (normal, tangential) from its degree-1
    coefficients: e_i = n_i rhat + grad_S n_i and lap_S n_i = -2 n_i give
    e_i . int [[T n]] dS = int (normal + 2 s) n_i dS, s the spheroidal part."""
    normal, tangent = jump
    c = normal.coeffs[1] + 2.0 * tangent.spec[0][1]
    return np.array([n.coeffs[1] @ c for n in normal_component_fields(normal.grid)])


def lambda0_value(rho_tilde: float, e3_drag: float) -> float:
    """First-order translation speed balancing buoyancy against the
    auxiliary-field stress-jump integral (linear in rho_tilde).  The + 0.0
    makes it +0.0 at rho_tilde = 0 (e3_drag < 0) and changes no other value."""
    return rho_tilde * (4.0 * np.pi / 3.0) / e3_drag + 0.0


# ---------------------------------------------------------------------------
# auxiliary field
# ---------------------------------------------------------------------------


@dataclass
class AuxiliaryField:
    U: VolumeField
    P: VolumeField
    jacU: VolumeField
    drag: np.ndarray  # int [[T(U,P) n]] dS
    e3_drag: float
    traction_jump: tuple  # [[T(U,P) n]] as the solver's (normal, tangential)
    solver: TwoPhaseStokesSolver  # the solve operators U was solved with


def auxiliary_field(grid: VolumeGrid, params: PhysicalParams) -> AuxiliaryField:
    """Unit-translation two-phase Stokes field.  Its data are of degree 1,
    so the solve's drop pressure (mean zero) has no degree-0 part and the
    surface integral of the normal stress jump vanishes without a shift."""
    g = grid.sphere
    _, _, n3 = normal_component_fields(g)
    data = YElement(
        f=VolumeField.zeros(grid, rank=1),
        g=VolumeField.zeros(grid),
        h1=-1.0 * n3,
        h2=TangentField.zeros(g),
    )
    solver = TwoPhaseStokesSolver(grid, params.mu1, params.mu2)
    sol = solver.solve(data)
    U, P = sol.u, sol.p
    jump = solver.traction_jump(*sol.channels)
    drag = traction_force(jump)
    jacU = vector_gradient(U)
    for fld in (U, P, jacU):  # shared like the solver
        fld.values.flags.writeable = False
    return AuxiliaryField(U, P, jacU, drag, float(drag[2]), jump, solver)


def axisym_leakage(u: VolumeField, *coeffs: np.ndarray) -> float:
    """Largest m != 0 coefficient of the (P, v, w) channels of u and of any
    further coefficient arrays (..., L+1, 2K+1), m = 0 in the centre column."""
    arrays = [*vsh_channels(u), *coeffs]
    leak = 0.0
    for a in arrays:
        off = np.abs(a)
        off[..., a.shape[-1] // 2] = 0.0  # remove m = 0
        leak = max(leak, float(off.max()))
    return leak


# ---------------------------------------------------------------------------
# Oseen fundamental solution
# ---------------------------------------------------------------------------


def _f1(s):
    """(1 - e^-s)/s with a series branch near 0."""
    s = np.asarray(s, float)
    small = s < 1e-4
    safe = np.where(small, 1.0, s)
    out = (1.0 - np.exp(-safe)) / safe
    ser = 1.0 - s / 2.0 + s**2 / 6.0 - s**3 / 24.0
    return np.where(small, ser, out)


def _f2(s):
    """d/ds of _f1 = (e^-s (1+s) - 1)/s^2 with a series branch near 0."""
    s = np.asarray(s, float)
    small = s < 1e-4
    safe = np.where(small, 1.0, s)
    out = (np.exp(-safe) * (1.0 + safe) - 1.0) / safe**2
    ser = -0.5 + s / 3.0 - s**2 / 8.0 + s**3 / 30.0
    return np.where(small, ser, out)


def oseenlet(x: np.ndarray, lam: float, mu: float = 1.0, rho: float = 0.5) -> np.ndarray:
    """Fundamental solution tensor of -mu lap u + rho lam d3 u + grad p = F delta.

    The wake trails along sign(rho lam) e3; at lam = 0 (k = s = 0) it is the
    Stokeslet.  ``x`` has shape (..., 3); the result (..., 3, 3) maps the
    point force to velocity.
    """
    x = np.asarray(x, float)
    if np.any(np.einsum("...i,...i->...", x, x) == 0.0):
        raise ValueError("oseenlet is singular at the origin")
    c = rho * lam
    sig = np.sign(c)
    k = abs(c) / (2.0 * mu)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    xh = x / r[..., None]
    eye = np.eye(3)
    s = k * (r - sig * x[..., 2])
    d = xh - sig * eye[2]
    G = eye * (np.exp(-s) / (4.0 * np.pi * mu * r))[..., None, None]
    G = G - (
        k * _f2(s)[..., None, None] * np.einsum("...i,...j->...ij", d, d)
        + (_f1(s) / r)[..., None, None]
        * (eye - np.einsum("...i,...j->...ij", xh, xh))
    ) / (8.0 * np.pi * mu)
    return G
