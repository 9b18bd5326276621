"""Two-phase solver against manufactured solutions and the closed-form drop flow."""

import gc
import tracemalloc

import numpy as np
import pytest

from dropsteady import dropflow, stokes
from dropsteady.sphere import SphereField, SphereGrid, TangentField, integrate_sphere, normal_component_fields
from dropsteady.stokes import (
    PhysicalParams,
    TwoPhaseStokesSolver,
    YElement,
    auxiliary_field,
    axisym_leakage,
    lambda0_value,
    oseenlet,
    residual_report,
    solve_two_phase,
)
from dropsteady.validate import _cutoff_stress_divergence, dissipation, divT_norm_lq, random_state
from dropsteady.volume import (
    EXTERIOR,
    INTERIOR,
    VolumeField,
    VolumeGrid,
    analysis_batch,
    d3,
    d3_channels,
    eval_radii,
    mode_divergence,
    mode_gradient,
    mode_laplacian,
    norm_l2,
    scalar_gradient,
    synthesis_batch,
    vector_divergence,
    vector_laplacian,
    vsh_assemble,
    vsh_channels,
)


@pytest.fixture(scope="module")
def vg():
    return VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=30, r_inf=64.0)


@pytest.fixture(scope="module")
def solver(vg):
    return TwoPhaseStokesSolver(vg, mu1=1.0, mu2=1.0)


@pytest.fixture(scope="module")
def solver_unequal(vg):
    return TwoPhaseStokesSolver(vg, mu1=2.5, mu2=0.8)


# -- manufactured per-mode solutions ----------------------------------------


class ModeExact:
    """Monomial radial profiles with analytic operator application.

    interior: P = a1 r^(l-1) + a2 r^(l+1), v = a3 r^(l-1) + a4 r^(l+1),
              p = a5 r^l, w = a6 r^l       (regular parity classes)
    exterior: decaying powers matched for velocity continuity at r = 1.
    """

    def __init__(self, l, mu1, mu2, seed=0):
        rng = np.random.default_rng(seed)
        self.l = l
        self.mu = (mu1, mu2)
        if l == 0:
            ai = [0.0, rng.normal(), 0.0, 0.0, rng.normal(), 0.0]
            ai[1] = rng.normal()
            # interior P = a2 r (parity-regular l=0 radial velocity)
            self.int_terms = {
                "P": [(ai[1], 1.0)],
                "v": [],
                "p": [(ai[4], 0.0)],
                "w": [],
            }
            Pint1 = ai[1]
            self.ext_terms = {
                "P": [(Pint1, -2.0)],
                "v": [],
                "p": [(rng.normal(), -1.0)],
                "w": [],
            }
        else:
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            if l == 1:
                # P(0) = v(0): u regular at the origin, so g (and its
                # gradient, which the solve takes) has no 1/r term
                a[2] = a[0]
            self.int_terms = {
                "P": [(a[0], l - 1.0), (a[1], l + 1.0)],
                "v": [(a[2], l - 1.0), (a[3], l + 1.0)],
                "p": [(a[4], float(l))],
                "w": [(a[5], float(l))],
            }
            # exterior decaying; scale to match interior values at r = 1
            Pe = [(b[0], -l - 2.0), (b[1], -l * 1.0)]
            ve = [(b[2], -l - 2.0), (b[3], -l * 1.0)]
            we = [(b[5], -l - 1.0)]
            sP = (a[0] + a[1]) / (b[0] + b[1])
            sv = (a[2] + a[3]) / (b[2] + b[3])
            sw = a[5] / b[5]
            self.ext_terms = {
                "P": [(c * sP, e) for c, e in Pe],
                "v": [(c * sv, e) for c, e in ve],
                "p": [(b[4], -l - 1.0)],
                "w": [(c * sw, e) for c, e in we],
            }

    @staticmethod
    def _ev(terms, r, der=0):
        out = np.zeros_like(np.asarray(r, float))
        for c, e in terms:
            if der == 0:
                out = out + c * r**e
            elif der == 1:
                out = out + c * e * r ** (e - 1.0)
            else:
                out = out + c * e * (e - 1.0) * r ** (e - 2.0)
        return out

    def profiles(self, r, phase):
        t = self.int_terms if phase == INTERIOR else self.ext_terms
        return {k: self._ev(v, r) for k, v in t.items()}

    def forcing(self, r, phase):
        """(fP, fv, fw, g) from the analytic operator in stress form:
        f = -Div T(u, p) = -mu lap u + grad p - mu grad g, g = div u (the
        gradient of g has channels d_r g and g / r)."""
        t = self.int_terms if phase == INTERIOR else self.ext_terms
        mu = self.mu[phase]
        l = self.l
        ll1 = l * (l + 1.0)
        P, dP, d2P = (self._ev(t["P"], r, d) for d in (0, 1, 2))
        p, dp = (self._ev(t["p"], r, d) for d in (0, 1))
        DlP = d2P + 2.0 / r * dP - ll1 / r**2 * P
        if l == 0:
            g = dP + 2.0 / r * P
            dg = d2P + 2.0 / r * dP - 2.0 / r**2 * P
            fP = -mu * (DlP - 2.0 / r**2 * P) + dp - mu * dg
            return fP, None, None, g
        v, dv, d2v = (self._ev(t["v"], r, d) for d in (0, 1, 2))
        w, dw, d2w = (self._ev(t["w"], r, d) for d in (0, 1, 2))
        Dlv = d2v + 2.0 / r * dv - ll1 / r**2 * v
        Dlw = d2w + 2.0 / r * dw - ll1 / r**2 * w
        g = dP + 2.0 / r * P - ll1 / r * v
        dg = d2P + 2.0 / r * dP - 2.0 / r**2 * P - ll1 * (dv / r - v / r**2)
        fP = -mu * (DlP - 2.0 / r**2 * P + 2.0 * ll1 / r**2 * v) + dp - mu * dg
        fv = -mu * (Dlv + 2.0 / r**2 * P) + p / r - mu * g / r
        fw = -mu * Dlw
        return fP, fv, fw, g

    def interface_data(self):
        l, (mu1, mu2) = self.l, self.mu
        one = np.array([1.0])
        h1 = float(self._ev(self.int_terms["P"], one)[0])
        if l == 0:
            return h1, 0.0, 0.0
        trac = []
        for t, mu in ((self.int_terms, mu1), (self.ext_terms, mu2)):
            v1 = float(self._ev(t["v"], one)[0])
            dv1 = float(self._ev(t["v"], one, 1)[0])
            P1 = float(self._ev(t["P"], one)[0])
            w1 = float(self._ev(t["w"], one)[0])
            dw1 = float(self._ev(t["w"], one, 1)[0])
            trac.append((mu * (dv1 + P1 - v1), mu * (dw1 - w1)))
        h2s = trac[0][0] - trac[1][0]
        h2t = trac[0][1] - trac[1][1]
        return h1, h2s, h2t


def manufactured(vg, modes, mu1, mu2):
    """Stokes rows (a YElement, f in stress form) of a sum of ModeExact modes (l, m, seed) on the grid, the
    exact velocity, and the exact channels {"P", "v", "w", "p"} per phase
    (the drop pressure with mean zero)."""
    L = vg.sphere.band_limit
    names = ("P", "v", "w", "p", "fP", "fv", "fw", "g")
    ch = {k: [np.zeros((vg.radial(ph).n, L + 1, 2 * L + 1)) for ph in (0, 1)] for k in names}
    h = np.zeros((3, L + 1, 2 * L + 1))
    for l, m, seed in modes:
        ex = ModeExact(l, mu1, mu2, seed=seed)
        for phase, r in ((INTERIOR, vg.interior.r), (EXTERIOR, vg.exterior.r)):
            prof = ex.profiles(r, phase)
            if l == 0 and phase == INTERIOR:
                rad = vg.interior
                prof["p"] = prof["p"] - rad.integrate(prof["p"]) / rad.integrate(np.ones_like(r))
            for k, a in [*prof.items(), *zip(names[4:], ex.forcing(r, phase))]:
                if a is not None:
                    ch[k][phase][:, l, L + m] += a
        h[:, l, L + m] += ex.interface_data()
    g = vg.sphere
    joined = {k: np.concatenate(a) for k, a in ch.items()}  # the drop's radii first
    data = YElement(
        VolumeField(vg, vsh_assemble(vg, joined["fP"], joined["fv"], joined["fw"])),
        VolumeField(vg, synthesis_batch(g, joined["g"], L)),
        SphereField(g, coeffs=h[0], band=L),
        TangentField(g, spec=(h[1], h[2]), band=L),
    )
    u = VolumeField(vg, vsh_assemble(vg, joined["P"], joined["v"], joined["w"]))
    return data, u, ch


def assert_channels_match(sol, ch, scale):
    """Every (P, v, w) coefficient of sol.u within 2e-9 * scale of the exact
    channels, and every pressure coefficient within 5e-9 * scale; the exact
    channels hold nothing beyond the orders |m| <= M the grid carries."""
    grid = sol.u.grid
    L = grid.sphere.band_limit
    M = min(L, grid.sphere.m_max)
    carried = np.abs(np.arange(-L, L + 1)) <= M
    got = (*vsh_channels(sol.u), analysis_batch(grid.sphere, sol.p.values, L))
    n = grid.interior.n
    for phase, rows in ((INTERIOR, slice(None, n)), (EXTERIOR, slice(n, None))):
        for k, a, tol in zip("Pvwp", got, (2e-9, 2e-9, 2e-9, 5e-9)):
            assert a.shape[-1] == 2 * M + 1
            assert np.all(ch[k][phase][..., ~carried] == 0.0), (k, phase)
            assert np.max(np.abs(a[rows] - ch[k][phase][..., carried])) < tol * scale, (k, phase)


@pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12])
def test_mode_solver_manufactured(vg, solver_unequal, l):
    m = (l // 2) * (-1) ** l
    data, _, ch = manufactured(vg, [(l, m, l)], 2.5, 0.8)
    scale = max(np.max(np.abs(ch["P"][INTERIOR])), 1.0)
    assert_channels_match(solver_unequal.solve(data), ch, scale)


def test_banded_solve_every_degree_and_order():
    """One mode at every degree and every order the m_max = 2 band carries."""
    vg2 = VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=30, r_inf=64.0, m_max=2)
    modes = [(l, m, 100 * l + m + 2) for l in range(13) for m in range(-min(l, 2), min(l, 2) + 1)]
    data, _, ch = manufactured(vg2, modes, 2.5, 0.8)
    scale = max(np.max(np.abs(ch["P"][INTERIOR])), 1.0)
    assert_channels_match(TwoPhaseStokesSolver(vg2, 2.5, 0.8).solve(data), ch, scale)


def _write_nodal(pinv, data_rows, bases, out):
    """Writes each basis block of the data columns of ``pinv``, mapped to
    nodal values, into its block of ``out``."""
    blocks = np.split(pinv[:, data_rows], np.cumsum([len(B) for B in bases])[:-1])
    for B, x, o in zip(bases, blocks, out):
        o[...] = B @ x


def _pinv_operator(M, data_rows, bases, out, drop_rows=(), drop_cols=()):
    """The solve operator by SVD pseudo-inverse of the row-scaled block."""
    rows = np.setdiff1d(np.arange(M.shape[0]), drop_rows)
    cols = np.setdiff1d(np.arange(M.shape[1]), drop_cols)
    A = M[np.ix_(rows, cols)]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    pinv = np.zeros(M.shape[::-1])
    pinv[np.ix_(cols, rows)] = np.linalg.pinv(A / scale[:, None], rcond=1e-13) / scale
    _write_nodal(pinv, data_rows, bases, out)


@pytest.mark.parametrize("m_max", [None, 2])
def test_qr_operators_match_svd_pseudo_inverse(monkeypatch, m_max):
    """Every degree's spheroidal and toroidal operator from the thin QR
    equals the SVD pseudo-inverse form to rounding."""
    vg8 = VolumeGrid.build(band_limit=8, n_r_int=12, n_r_ext=20, r_inf=64.0, m_max=m_max)
    qr = TwoPhaseStokesSolver(vg8, 2.5, 0.8)
    monkeypatch.setattr(stokes, "_solve_operator", _pinv_operator)
    svd = TwoPhaseStokesSolver(vg8, 2.5, 0.8)
    for a, b in ((qr.sph, svd.sph), (qr.tor, svd.tor)):
        tol = 1e-9 * np.max(np.abs(b))
        for l in range(9):
            assert np.max(np.abs(a[l] - b[l])) <= tol, l


def _joint_qr_operator(M, data_rows, bases, out, drop_rows=(), drop_cols=()):
    """The solve operator from one thin QR of the whole row-scaled block."""
    rows = np.setdiff1d(np.arange(M.shape[0]), drop_rows)
    cols = np.setdiff1d(np.arange(M.shape[1]), drop_cols)
    A = M[np.ix_(rows, cols)]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    Q, R = np.linalg.qr(A / scale[:, None])
    X = stokes._upper_inverse(R) @ Q.T
    cond = np.linalg.norm(R) * np.linalg.norm(X)
    if not cond * stokes.RANK_RTOL <= 1.0:
        raise np.linalg.LinAlgError(f"rank-deficient collocation block: condition bound {cond:.1e}")
    pinv = np.zeros(M.shape[::-1])
    pinv[np.ix_(cols, rows)] = X / scale
    _write_nodal(pinv, data_rows, bases, out)


@pytest.mark.parametrize("L, n_int, n_ext, m_max", [(8, 12, 20, None), (12, 20, 30, 2)])
def test_phase_by_phase_operators_match_joint_qr(monkeypatch, L, n_int, n_ext, m_max):
    """Every degree's operators, l = 0 included, from the two-stage QR
    equal those of one QR of the joint block to rounding."""
    grid = VolumeGrid.build(band_limit=L, n_r_int=n_int, n_r_ext=n_ext, r_inf=64.0, m_max=m_max)
    staircase = TwoPhaseStokesSolver(grid, 2.5, 0.8)
    monkeypatch.setattr(stokes, "_solve_operator", _joint_qr_operator)
    joint = TwoPhaseStokesSolver(grid, 2.5, 0.8)
    for a, b in ((staircase.sph, joint.sph), (staircase.tor, joint.tor)):
        tol = 1e-11 * np.max(np.abs(b))
        for l in range(L + 1):
            assert np.max(np.abs(a[l] - b[l])) <= tol, l


def _reference_phase_rows(rad, l, mu, padded):
    """Reference ``_phase_rows``: the [P | v] tables padded with zeros at
    each degree and the spheroidal block assembled by ``np.block``."""
    r, ll1, i = rad.r[:, None], l * (l + 1.0), rad.i_surface
    B, w = rad.tables[(l + 1) % 2], rad.tables[l % 2]
    z = np.zeros_like(B[0])
    P, v = [np.hstack([b, z]) for b in B], [np.hstack([z, b]) for b in B]
    lapP, lapv, lapw = mode_laplacian(P, v, w, r, ll1)
    gP, gv = mode_gradient(w, r)
    sph = np.block([[-mu * lapP, gP], [-mu * lapv, gv], [mode_divergence(P, v, r, ll1), z]])
    _, t_s, t_w = stokes._surface_traction(*([c[i] for c in X[:2]] for X in (P, v, w)), 0.0, mu)
    return sph, -mu * lapw, t_s, t_w


def _reference_solve_operator(M, data_rows, bases, out, drop_rows=(), drop_cols=()):
    """Reference ``_solve_operator`` on the data rows in ascending order:
    the kept block gathered by masks, the data columns through a zeroed
    array, and the concatenated products of the bases, whose rows and
    columns are then copied into ``out`` in the order of ``data_rows``."""
    order = np.argsort(data_rows)
    keep_r = np.ones(M.shape[0], bool)
    keep_r[np.asarray(drop_rows, int)] = False
    keep_c = np.ones(M.shape[1], bool)
    keep_c[np.asarray(drop_cols, int)] = False
    cols = np.flatnonzero(keep_c)
    A = M[keep_r][:, cols]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    k = np.count_nonzero(keep_c[: sum(B.shape[1] for B in bases[: len(bases) // 2])])
    X, _ = stokes._staircase_pinv(A / scale[:, None], k)
    at = (np.cumsum(keep_r) - 1)[data_rows[order]]
    x = np.zeros((M.shape[1], len(data_rows)))
    x[cols] = X[:, at] / scale[at]
    x[:, ~keep_r[data_rows[order]]] = 0.0
    blocks = np.split(x, np.cumsum([B.shape[1] for B in bases])[:-1])
    op = np.concatenate([B @ b for B, b in zip(bases, blocks)])
    ends = np.cumsum([len(o) for o in out])
    for o, end in zip(out, ends):
        o[:, order] = op[end - len(o) : end]


_FULL_12 = VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=30, r_inf=64.0)
BIT_GRIDS = {
    "band L4": VolumeGrid.build(band_limit=4, n_r_int=8, n_r_ext=12, r_inf=64.0, m_max=2),
    "band L8": VolumeGrid.build(band_limit=8, n_r_int=24, n_r_ext=40, r_inf=64.0, m_max=2),
    "band L16": VolumeGrid.build(band_limit=16, n_r_int=24, n_r_ext=40, r_inf=64.0, m_max=2),
    "full L12": _FULL_12,
    "degree 2": VolumeGrid(SphereGrid.build(2), _FULL_12.interior, _FULL_12.exterior),
}


@pytest.mark.parametrize("mus", [(1.0, 1.0), (2.5, 0.8), (0.1, 1.0)])
@pytest.mark.parametrize("name", sorted(BIT_GRIDS))
def test_operators_equal_the_reference_assembly_bit_for_bit(monkeypatch, name, mus):
    """Writing each degree's rows and products in place leaves every
    operator, l = 0 and its dropped rows and columns included, equal bit
    for bit to the padded, concatenated and reordered assembly."""
    grid = BIT_GRIDS[name]
    got = TwoPhaseStokesSolver(grid, *mus)
    monkeypatch.setattr(stokes, "_phase_rows", _reference_phase_rows)
    monkeypatch.setattr(stokes, "_solve_operator", _reference_solve_operator)
    ref = TwoPhaseStokesSolver(grid, *mus)
    assert np.array_equal(got.sph, ref.sph)
    assert np.array_equal(got.tor, ref.tor)


def test_solver_build_leaves_no_garbage_and_a_small_peak():
    """A build leaves no cyclic garbage behind, and its traced peak stays
    within 1.5 times the bytes of the operators it keeps."""
    grid = BIT_GRIDS["band L16"]
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            s = TwoPhaseStokesSolver(grid, 2.5, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert peak <= 1.5 * (s.sph.nbytes + s.tor.nbytes)


def _solve_all_rows(M, bases):
    """``_solve_operator`` with every row of M a data row, into scratch blocks."""
    stokes._solve_operator(M, np.arange(len(M)), bases, [np.empty((len(B), len(M))) for B in bases])


@pytest.mark.parametrize("drop_rows", [2, 1], ids=["dependent transmission row", "too few drop rows"])
def test_transmission_rows_leaving_drop_rank_deficient_raise(drop_rows):
    """Blocks on 3 drop and 3 reservoir unknowns whose reservoir rows have
    full rank and whose drop columns do not: the transmission row adds
    nothing to two drop rows, or one drop row leaves too few rows."""
    rng = np.random.default_rng(5)
    M = np.zeros((drop_rows + 6, 6))
    M[:drop_rows, :3] = rng.standard_normal((drop_rows, 3))
    M[drop_rows] = rng.standard_normal(6)  # the transmission row
    M[drop_rows + 1 :, 3:] = rng.standard_normal((5, 3))
    if drop_rows == 2:
        M[2, :3] = M[:2, :3].T @ rng.standard_normal(2)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        _solve_all_rows(M, (np.eye(3), np.eye(3)))


def test_no_factored_block_spans_both_phases(monkeypatch):
    """Each QR of the set-up covers at most one phase's unknowns."""
    grid = VolumeGrid.build(band_limit=6, n_r_int=12, n_r_ext=20, r_inf=64.0)
    qr, widths = np.linalg.qr, []

    def recording_qr(a, *args, **kwargs):
        widths.append(a.shape[1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    TwoPhaseStokesSolver(grid, 2.5, 0.8)
    assert widths and max(widths) <= 3 * grid.exterior.n


@pytest.mark.parametrize("n", [17, 64, 128, 192])
def test_upper_inverse_matches_inv(n):
    """The blocked triangular inverse equals LAPACK's inverse, at leaf
    sizes, odd and even splits."""
    rng = np.random.default_rng(n)
    R = np.triu(rng.standard_normal((n, n))) / np.sqrt(n) + np.diag(2.0 + rng.random(n))
    ref = np.linalg.inv(R)
    assert np.max(np.abs(stokes._upper_inverse(R) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rank_deficient_block_raises():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 5))
    M[:, 4] = M[:, 1]  # a duplicated column
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        _solve_all_rows(M, (np.eye(5),))


def test_ill_conditioned_block_with_unit_diagonal_raises():
    """I minus the strict upper ones is its own R, with a unit diagonal, yet
    its condition number grows as 2^n: the check must see the inverse."""
    n = 60
    M = np.eye(n) - np.triu(np.ones((n, n)), 1)
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        _solve_all_rows(M, (np.eye(n),))


def test_solve_operators_are_read_only(solver):
    for op in (solver.sph, solver.tor):
        with pytest.raises(ValueError):
            op[0, 0, 0] = 1.0


def test_zero_data_zero_solution(vg, solver):
    g = vg.sphere
    data = YElement(
        VolumeField.zeros(vg, rank=1),
        VolumeField.zeros(vg),
        SphereField.zeros(g),
        TangentField.zeros(g),
    )
    sol = solver.solve(data)
    assert sol.u.max_abs() < 1e-14
    assert sol.p.max_abs() < 1e-12


def test_incompatible_data_rejected(vg, solver):
    g = vg.sphere
    data = YElement(
        VolumeField.zeros(vg, rank=1),
        VolumeField.from_function(vg, lambda x, y, z: np.ones_like(x)),
        SphereField.zeros(g),
        TangentField.zeros(g),
    )
    with pytest.raises(ValueError):
        solver.solve(data)


def test_solver_linearity_and_determinism(vg, solver):
    data, _, _ = manufactured(vg, [(2, 1, 42)], 1.0, 1.0)
    o1, o2 = solver.solve(data), solver.solve(data)
    assert all(np.array_equal(a, b) for a, b in zip(o1.u.blocks + o1.p.blocks, o2.u.blocks + o2.p.blocks))
    half = solver.solve(YElement(0.5 * data.f, 0.5 * data.g, 0.5 * data.h1, 0.5 * data.h2))
    for a, b in zip(half.u.blocks + half.p.blocks, o1.u.blocks + o1.p.blocks):
        assert np.max(np.abs(a - 0.5 * b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


# -- auxiliary field vs the closed form --------------------------------------


def _aux_checks(aux):
    """The auxiliary field's boundary conditions and normalization: the
    normal velocity U.n = -e3.n at r = 1, the tangential traction jump, the
    surface integral of the normal traction jump and the m != 0 content."""
    g = aux.U.grid.sphere
    n3 = normal_component_fields(g)[2]
    un = np.einsum("iab,iab->ab", aux.U.trace(INTERIOR), g.unit_vectors()[0])
    normal, tangent = aux.traction_jump
    return {
        "normal_velocity_defect": float(np.max(np.abs(un + n3.values))),
        "tangential_jump_max": float(np.max(np.hypot(*tangent.components))),
        "normalization_integral": integrate_sphere(normal),
        "axisym_leakage": axisym_leakage(aux.U),
    }


@pytest.mark.parametrize("mus", [(1.0, 1.0), (0.1, 1.0), (10.0, 1.0)])
def test_auxiliary_field_matches_closed_form(vg, mus):
    mu1, mu2 = mus
    params = PhysicalParams(mu1=mu1, mu2=mu2)
    aux = auxiliary_field(vg, params)
    # the velocity and the e3 drag against the closed form are validate's
    # drop-flow group; the transverse drag vanishes
    assert abs(aux.drag[0]) < 1e-9 and abs(aux.drag[1]) < 1e-9
    # boundary conditions and normalization
    checks = _aux_checks(aux)
    assert checks["normal_velocity_defect"] < 1e-10
    assert checks["tangential_jump_max"] < 1e-9
    assert abs(checks["normalization_integral"]) < 1e-10
    assert checks["axisym_leakage"] < 1e-12


def test_normalization_check_reads_a_missing_pressure_shift(vg, monkeypatch):
    """A drop pressure off by a constant c puts -c into the normal traction
    jump.  auxiliary_field shifts nothing out, so the check reads -4 pi c:
    the offset is caught, not normalized away."""
    params = PhysicalParams(mu1=2.5, mu2=0.8)
    c = 0.25
    solve = TwoPhaseStokesSolver.solve

    def offset_solve(self, data):
        sol = solve(self, data)
        sol.p.blocks[INTERIOR][...] += c
        p = sol.channels[1]  # the l = 0 coefficient of c is c sqrt(4 pi)
        p[: self.grid.interior.n, 0, p.shape[-1] // 2] += c * np.sqrt(4.0 * np.pi)
        return sol

    monkeypatch.setattr(TwoPhaseStokesSolver, "solve", offset_solve)
    check = _aux_checks(auxiliary_field(vg, params))["normalization_integral"]
    assert abs(check + 4.0 * np.pi * c) < 1e-9


def test_energy_identity(vg):
    # drag vs dissipation is validate's energy group; here dissipation vs
    # the closed-form drag it equals
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    D = dissipation(auxiliary_field(vg, params))
    assert abs(D + dropflow.drag_e3(1.0, 1.0)) < 1e-8 * D


def test_lambda0_law():
    # linearity and the equal-viscosity value are validate's energy group;
    # at rho_tilde = 0 the speed is +0.0, not -0.0, so that it prints as 0
    drag = dropflow.drag_e3(1.0, 1.0)
    assert drag < 0.0
    assert np.copysign(1.0, lambda0_value(0.0, drag)) == 1.0
    assert lambda0_value(1e-3, drag) == 1e-3 * (4.0 * np.pi / 3.0) / drag


def test_pressure_matches_closed_form(vg):
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    aux = auxiliary_field(vg, params)
    r0 = 1.6
    got = eval_radii(aux.P, np.array([r0]), EXTERIOR)[0]
    th, ph = vg.sphere.nodes
    exact = dropflow.pressure(
        r0 * np.sin(th) * np.cos(ph), r0 * np.sin(th) * np.sin(ph), r0 * np.cos(th), 1.0, 1.0
    )
    assert np.max(np.abs(got - exact)) < 1e-9


# -- drift ---------------------------------------------------------------------


def test_solve_two_phase_with_drift_manufactured(vg, solver):
    params = PhysicalParams(mu1=1.0, mu2=1.0, rho_tilde=1e-2)
    lam = 3e-3
    # manufactured multi-mode field from the per-mode profiles
    modes = [(l, m, 10 * l + m) for l, m in ((1, 0), (2, 1), (3, -2))]
    stokes_data, u_exact, _ = manufactured(vg, modes, 1.0, 1.0)
    drift = d3(u_exact).phasewise_scale(params.rho1 * lam, params.rho2 * lam)
    data = YElement(stokes_data.f + drift, stokes_data.g, stokes_data.h1, stokes_data.h2)
    sol = solve_two_phase(data, lam, params, solver)
    err = (sol.u - u_exact).max_abs() / u_exact.max_abs()
    assert err < 1e-7
    assert sol.diagnostics["stokes_solves"] > 1  # the drift took Krylov steps
    # the interface rows hold to roundoff (momentum_l2 and divergence_l2 go
    # through norm_l2, which reads 0.0 here; see _shell_total)
    rep = residual_report(sol.u, sol.p, data, lam, params)
    assert rep["velocity_jump_max"] < 1e-12
    assert rep["normal_velocity_max"] < 1e-12


BANDS = {"L8-full": (8, None), "L16-band": (16, 2)}


@pytest.fixture(scope="module", params=sorted(BANDS))
def band_solver(request):
    """A solver on an L = 8 full grid and on an L = 16, m_max = 2 grid."""
    L, m_max = BANDS[request.param]
    return TwoPhaseStokesSolver(VolumeGrid.build(L, 12, 20, 64.0, m_max=m_max), 2.5, 0.8)


def _random_channels(vg, rng):
    """Random (P, v, w) channels on every slot (l, |m| <= l) the grid
    carries, in the solver's layout (3, n_r, L+1, 2M+1)."""
    g = vg.sphere
    L, M = g.band_limit, min(g.band_limit, g.m_max)
    l, m = np.arange(L + 1)[:, None], np.arange(-M, M + 1)[None, :]
    out = []
    for ph in (INTERIOR, EXTERIOR):
        ch = rng.standard_normal((3, vg.radial(ph).n, L + 1, 2 * M + 1)) * (np.abs(m) <= l)
        ch[1:, :, 0] = 0.0  # no v or w at l = 0
        out.append(ch)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("L, m_max", [(8, 2), (12, None)])
def test_channels_are_one_c_ordered_array(L, m_max):
    """The vector analysis and the Stokes solver's outputs (the solve's u
    and p, the force block's velocity and pressure) are C-ordered arrays in
    the channel layout, on a band and on a full grid, so no consumer
    stacks them or forces their order."""
    vg = VolumeGrid.build(L, 12, 20, 64.0, m_max=m_max)
    solver = TwoPhaseStokesSolver(vg, 2.5, 0.8)
    ch = _random_channels(vg, np.random.default_rng(3))
    data = _drop_data(vg)
    data.f = VolumeField(vg, vsh_assemble(vg, *ch))
    u, p = solver.solve_channels(solver.analyse(data))
    outs = {
        "vsh_channels": vsh_channels(data.f),
        "solve u": u,
        "solve p": p,
        "force_velocity": solver.force_velocity(ch),
        "force_pressure": solver.force_pressure(ch),
    }
    for name, a in outs.items():
        assert isinstance(a, np.ndarray) and a.flags.c_contiguous, name
    assert outs["vsh_channels"].shape == u.shape == outs["force_velocity"].shape == ch.shape
    assert p.shape == outs["force_pressure"].shape == ch.shape[1:]


@pytest.mark.parametrize("L, n_r_int, n_r_ext, m_max", [(8, 24, 40, 2), (12, 20, 30, None)])
def test_stokes_outputs_allocate_only_what_they_return(L, n_r_int, n_r_ext, m_max):
    """A warm call of the force block (velocity and pressure) and of the
    solve of analysed data peaks at 1.1 x the bytes it returns, on the
    sweep's band grid and the validation's full grid: its matmuls read
    their right-hand side in place and write their output where it is
    returned, so a Krylov step concatenates, splits and stacks nothing.
    The slack covers the array headers and the matmul's iterator, about
    1.5 kB per call."""
    vg = VolumeGrid.build(L, n_r_int, n_r_ext, 64.0, m_max=m_max)
    solver = TwoPhaseStokesSolver(vg, 2.5, 0.8)
    ch = _random_channels(vg, np.random.default_rng(3))
    data = _drop_data(vg)
    data.f = VolumeField(vg, vsh_assemble(vg, *ch))
    rhs = solver.analyse(data)
    calls = {
        "force_velocity": lambda: solver.force_velocity(ch),
        "force_pressure": lambda: solver.force_pressure(ch),
        "solve_channels": lambda: solver.solve_channels(rhs),
    }
    for name, call in calls.items():
        call()
        gc.collect()
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
        assert peak <= 1.1 * returned, f"{name}: peak {peak / returned:.2f} x its output"


def test_d3_channels_match_nodal_d3(band_solver):
    """The probed channel-space d3 equals the channels of the nodal d3,
    band truncation included, in both phases."""
    vg = band_solver.grid
    ch = _random_channels(vg, np.random.default_rng(5))
    u = VolumeField(vg, vsh_assemble(vg, *ch))
    got = d3_channels(vg, ch)
    ref = vsh_channels(d3(u))
    assert ref.shape == got.shape
    n = vg.interior.n
    for ph, rows in ((INTERIOR, slice(None, n)), (EXTERIOR, slice(n, None))):
        assert np.max(np.abs(got[:, rows] - ref[:, rows])) <= 1e-12 * np.max(np.abs(ref[:, rows])), ph


@pytest.mark.parametrize("m_max", [None, 2])
def test_minus_div_T_matches_nodal_composition(m_max):
    """The one channel pass of minus_div_T equals the nodal composition
    -mu (lap u + grad div u) + grad p, its div u the nodal divergence and
    its traction jump the Stokes solver's reading of the same channels,
    with unequal viscosities on a full and a band grid."""
    vg = VolumeGrid.build(8, 16, 24, 64.0, m_max=m_max)
    x0 = random_state(vg, np.random.default_rng(13))
    mu1, mu2 = 2.5, 0.8
    got, divu, (jump_n, jump_t) = stokes.minus_div_T(x0.u, x0.p, mu1, mu2)
    solver = TwoPhaseStokesSolver(vg, mu1, mu2)
    pc = analysis_batch(vg.sphere, x0.p.values, vg.sphere.band_limit)
    ref_n, ref_t = solver.traction_jump(vsh_channels(x0.u), pc)
    assert np.max(np.abs(jump_n.coeffs - ref_n.coeffs)) <= 1e-13 * np.max(np.abs(ref_n.coeffs))
    for a, b in zip(jump_t.spec, ref_t.spec):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    div_ref = vector_divergence(x0.u)
    lap, grad_div, grad_p = vector_laplacian(x0.u), scalar_gradient(div_ref), scalar_gradient(x0.p)
    ref = -vg.phase_profile(mu1, mu2) * (lap.values + grad_div.values) + grad_p.values
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert (divu - div_ref).max_abs() <= 1e-12 * div_ref.max_abs()


NODAL_RICHARDSON_TOL, NODAL_RICHARDSON_SWEEPS = 1e-12, 40


def _nodal_richardson(data, lam, params, solver):
    """A reference drift solve of another kind, on nodal fields: Richardson
    sweeps u_{k+1} = S(f - rho lam d3 u_k), d3 and the stop test on the
    grid, one full Stokes solve (analysis, operators, synthesis) per sweep."""
    sol = solver.solve(data)
    ratios, base = [], norm_l2(sol.u)
    prev = None
    for _ in range(NODAL_RICHARDSON_SWEEPS):
        drift = d3(sol.u).phasewise_scale(params.rho1 * lam, params.rho2 * lam)
        nxt = solver.solve(YElement(data.f - drift, data.g, data.h1, data.h2))
        update = norm_l2(nxt.u - sol.u)
        if prev is not None and prev > 0:
            ratios.append(update / prev)
        prev, sol = update, nxt
        if update <= NODAL_RICHARDSON_TOL * base:
            return sol, ratios
    raise AssertionError("the nodal reference did not converge")


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 5e-2])
def test_drifted_solve_matches_nodal_richardson(band_solver, lam):
    vg = band_solver.grid
    ch = _random_channels(vg, np.random.default_rng(7))
    f = VolumeField(vg, vsh_assemble(vg, *ch))
    data = _drop_data(vg)
    data.f = f
    params = PhysicalParams(mu1=2.5, mu2=0.8, rho_tilde=0.3)
    ref, ratios = _nodal_richardson(data, lam, params, band_solver)
    sol = solve_two_phase(data, lam, params, band_solver)
    # GMRES needs no more operator applications than the sweeps (1 + sweeps)
    assert 1 < sol.diagnostics["stokes_solves"] <= len(ratios) + 2
    for got, want in ((sol.u, ref.u), (sol.p, ref.p)):
        assert (got - want).max_abs() <= 1e-11 * want.max_abs()


def _drop_data(vg):
    _, _, n3 = normal_component_fields(vg.sphere)
    return YElement(
        VolumeField.zeros(vg, rank=1), VolumeField.zeros(vg), -1.0 * n3, TangentField.zeros(vg.sphere)
    )


def test_lambda0_continuity(vg, solver):
    """lambda0 -> 0 limit of the drifted solve matches the Stokes solve."""
    data = _drop_data(vg)
    params = PhysicalParams(mu1=1.0, mu2=1.0)
    s0 = solver.solve(data)
    s1 = solve_two_phase(data, 1e-9, params, solver)
    assert (s1.u - s0.u).max_abs() < 1e-8 * s0.u.max_abs()


def _counting_solve(monkeypatch, solver, poison_from=None):
    """Count the Stokes operator applications: the solve of the data
    (solver.solve_channels) and each Krylov step's force block
    (solver.force_velocity); from call ``poison_from`` on, return NaN
    velocity channels."""
    calls = []
    orig_solve, orig_force = solver.solve_channels, solver.force_velocity

    def poisoned(u):
        calls.append(1)
        if poison_from is not None and len(calls) >= poison_from:
            return np.full_like(u, np.nan)
        return u

    def solve_channels(data):
        u, p = orig_solve(data)
        return poisoned(u), p

    monkeypatch.setattr(solver, "solve_channels", solve_channels)
    monkeypatch.setattr(solver, "force_velocity", lambda f: poisoned(orig_force(f)))
    return calls


def test_drift_on_non_finite_data_skips_sweeps(vg, solver, monkeypatch):
    """NaN data give the NaN Stokes solve at once, without Krylov steps, as
    without drift."""
    data = _drop_data(vg)
    data.f.blocks[INTERIOR][0, 0, 0, 0] = np.nan
    calls = _counting_solve(monkeypatch, solver)
    sol = solve_two_phase(data, 1e-3, PhysicalParams(rho_tilde=1e-3), solver)
    assert len(calls) == 1
    assert sol.diagnostics["stokes_solves"] == 1
    assert not np.isfinite(sol.u.max_abs())


def test_drift_non_finite_update_raises(vg, solver, monkeypatch):
    """A Krylov vector that goes non-finite on finite data raises one clear
    LinAlgError at once, before the small least-squares solve (whose SVD
    would fail on NaN with another message)."""
    calls = _counting_solve(monkeypatch, solver, poison_from=2)
    with pytest.raises(np.linalg.LinAlgError, match="Krylov vector 1 is not finite"):
        solve_two_phase(_drop_data(vg), 1e-3, PhysicalParams(rho_tilde=1e-3), solver)
    assert len(calls) == 2


# -- truncation ----------------------------------------------------------------


@pytest.fixture(scope="module")
def aux(vg):
    return auxiliary_field(vg, PhysicalParams(mu1=1.0, mu2=1.0))


def test_truncation_support(vg, aux):
    """Div T(chi_R U, chi_R P) is supported in the cutoff annulus R < r < 2R,
    and divT_norm_lq takes only radii with 4 < R <= r_inf/2; the decay slope
    of its norm is validate's truncation group."""
    for R in (3.0, 40.0):
        with pytest.raises(ValueError):
            divT_norm_lq(aux, R, 4.0 / 3.0)
    r = vg.exterior.r
    rhat = vg.sphere.unit_vectors()[0]
    U, jacU, P = (f.blocks[EXTERIOR] for f in (aux.U, aux.jacU, aux.P))
    for R in (8.0, 16.0, 32.0):
        divT = _cutoff_stress_divergence(U, jacU, P, r, R, rhat, aux.solver.mu2)
        bend = (r > R) & (r < 2.0 * R)
        assert np.max(np.abs(divT[:, ~bend])) == 0.0
        assert np.max(np.abs(divT[:, bend])) > 0.0


# -- Oseen fundamental solution --------------------------------------------------


def test_oseenlet_rotation_symmetry():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3) * 2.0
    beta = 0.7
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb, 0], [sb, cb, 0], [0, 0, 1.0]])
    G1 = oseenlet(x, 0.8, mu=1.2, rho=0.5)
    G2 = oseenlet(R @ x, 0.8, mu=1.2, rho=0.5)
    assert np.max(np.abs(R.T @ G2 @ R - G1)) < 1e-12


def test_oseenlet_stokeslet_limit():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((20, 3)) * 1.5
    mu = 0.9
    G = oseenlet(pts, 1e-6, mu=mu, rho=0.5)
    r = np.linalg.norm(pts, axis=1)
    xh = pts / r[:, None]
    S = (np.eye(3) + np.einsum("ni,nj->nij", xh, xh)) / (8 * np.pi * mu * r[:, None, None])
    assert np.max(np.abs(G - S)) < 1e-5
    G0 = oseenlet(pts, 0.0, mu=mu, rho=0.5)
    assert np.max(np.abs(G0 - S)) < 1e-14


def test_oseenlet_negative_drift_reflection():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3) * 2
    M = np.diag([1.0, 1.0, -1.0])
    G1 = oseenlet(x, -0.6, mu=1.0, rho=0.5)
    G2 = oseenlet(M @ x, 0.6, mu=1.0, rho=0.5)
    assert np.max(np.abs(G1 - M @ G2 @ M)) < 1e-13


def oseenlet_pressure(x: np.ndarray) -> np.ndarray:
    """Pressure vector of the fundamental solution: p_j = x_j / (4 pi |x|^3)."""
    x = np.asarray(x, float)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    return x / (4.0 * np.pi * r**3)[..., None]


def test_oseenlet_momentum_residual_fd():
    """6th-order finite differences: -mu lap G + c d3 G + grad p = 0 off origin."""
    mu, rho, lam = 1.1, 0.5, 0.9
    c = rho * lam
    x0 = np.array([0.9, -0.6, 1.4])
    h = 0.03
    w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    offs = np.arange(-3, 4)

    def G(p):
        return oseenlet(p, lam, mu=mu, rho=rho)

    lap = np.zeros((3, 3))
    for ax in range(3):
        for o, wgt in zip(offs, w2):
            p = x0.copy()
            p[ax] += o * h
            lap += wgt * G(p)
    lap /= h * h
    dz = np.zeros((3, 3))
    for o, wgt in zip(offs, w1):
        p = x0.copy()
        p[2] += o * h
        dz += wgt * G(p)
    dz /= h
    gradp = np.zeros((3, 3))
    for i in range(3):
        for o, wgt in zip(offs, w1):
            p = x0.copy()
            p[i] += o * h
            gradp[i] += wgt * oseenlet_pressure(p)
    gradp /= h
    res = -mu * lap + c * dz + gradp
    assert np.max(np.abs(res)) < 1e-9


def test_drag_via_volume_vs_surface(vg):
    """Energy identity restated: surface drag equals volume dissipation."""
    params = PhysicalParams(mu1=3.0, mu2=0.5)
    aux = auxiliary_field(vg, params)
    assert abs(-aux.e3_drag - dissipation(aux)) < 1e-8 * abs(aux.e3_drag)
    # and the components along e1, e2 vanish by symmetry
    assert np.max(np.abs(aux.drag[:2])) < 1e-9


def test_axisym_leakage_reads_the_orders_off_m0():
    """On an m_max = 2 grid axisym_leakage reads a planted coefficient at
    m = 1 and at m = -2, in the channels of a velocity field and in a
    (dense) eta coefficient array, and nothing of pure m = 0 content."""
    vg = VolumeGrid.build(8, 12, 20, 64.0, m_max=2)
    rng = np.random.default_rng(4)
    K = 2  # the m = 0 column of the grid's 2 m_max + 1 order columns
    ch = np.zeros((3, vg.r.size, 9, 2 * K + 1))
    ch[0, :, :, K] = rng.standard_normal((vg.r.size, 9))
    ch[1:, :, 1:, K] = rng.standard_normal((2, vg.r.size, 8))
    eta = np.zeros((9, 17))
    eta[:, 8] = rng.standard_normal(9)
    axisym = VolumeField(vg, vsh_assemble(vg, *ch))
    assert stokes.axisym_leakage(axisym) <= 1e-14 * np.max(np.abs(ch))
    assert stokes.axisym_leakage(axisym, eta) <= 1e-14 * np.max(np.abs(ch))
    for c, l, col in ((0, 3, K + 1), (1, 4, K - 2)):
        planted = ch.copy()
        planted[c, :, l, col] = 1e-6
        u = VolumeField(vg, vsh_assemble(vg, *planted))
        assert abs(stokes.axisym_leakage(u) - 1e-6) <= 1e-12, (c, l, col)
    for l, col in ((3, 8 + 1), (4, 8 - 2)):
        planted = eta.copy()
        planted[l, col] = 1e-6
        assert abs(stokes.axisym_leakage(axisym, planted) - 1e-6) <= 1e-12, (l, col)
