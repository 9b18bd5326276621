"""Fixed-point driver: trivial solution, convergence, symmetry, diagnostics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dropsteady.driver import (
    AXISYMMETRIC_M_MAX,
    NonContraction,
    SolveConfig,
    FARFIELD_SHELLS,
    diagnostics,
    farfield_fit,
    lambda_error_bar,
    midshell_residual,
    mirror_defect,
    picard_solve,
)
from dropsteady.operators import (
    DropState,
    apply_L,
    assemble_N,
    build_context,
    invert_L,
    norm_X,
    norm_Y,
)
from dropsteady.sphere import SphereField, project_kernel, sobolev_norm
from dropsteady.stokes import oseenlet
from dropsteady.volume import EXTERIOR, INTERIOR, VolumeField, VolumeGrid, eval_radii, grid_points, integrate_phase


CFG = SolveConfig(rho_tilde=1e-3, band_limit=12, n_r_int=20, n_r_ext=32, r_inf=64.0)


@pytest.fixture(scope="module")
def solved():
    return picard_solve(CFG)


@pytest.fixture(scope="module")
def solved_zero():
    return picard_solve(dataclasses.replace(CFG, rho_tilde=0.0))


@pytest.fixture(scope="module")
def solved_mirror():
    return picard_solve(dataclasses.replace(CFG, rho_tilde=-CFG.rho_tilde))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(alpha=0.5)
    assert SolveConfig(r_inf=1e30).r_inf == 1e30  # the largest r_inf accepted
    # the table bound, read from the fields alone: no grid is built here
    assert SolveConfig(band_limit=600).band_limit == 600  # 9.2e8 bytes
    for bad in (
        dict(band_limit=0),
        dict(band_limit=700),  # 1.2e9 bytes
        dict(n_r_int=500, n_r_ext=500),  # 1.2e9 bytes
        dict(band_limit=10**6),
        dict(n_r_int=0),
        dict(n_r_ext=1),
        dict(r_inf=8.0),
        dict(r_inf=1e31),
        dict(max_iters=0),
        dict(tol_fixed_point=0.0),
        dict(mu1=0.0),
        dict(rho_tilde=1.0),
    ):
        with pytest.raises(ValueError):
            SolveConfig(**bad)


def test_non_finite_update_stops_iteration():
    """A NaN in the state makes the update NaN, which no ratio or tolerance
    test catches; the loop must stop at once instead of running max_iters."""
    cfg = SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12, max_iters=5)
    ctx = build_context(cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
    x = DropState.zeros(ctx.grid)
    x.u.blocks[0][0, 0, 0, 0] = np.nan
    with pytest.raises(NonContraction) as e:
        picard_solve(cfg, ctx=ctx, initial=x)
    assert len(e.value.history) == 1


def test_trivial_solution_zero_density_contrast(solved_zero):
    """At rho_tilde = 0 the zero state is the quiescent sphere, the fixed
    point: the loop takes two updates of exactly 0 and converges."""
    b = solved_zero
    assert b.converged
    assert [h["update"] for h in b.history] == [0.0, 0.0]
    assert b.lam == 0.0
    assert norm_X(b.state, 0.0)["total"] == 0.0
    rep = diagnostics(b)
    assert rep["volume_defect"] == 0.0
    assert rep["force_e3_defect_rel"] == 0.0


def test_zero_density_contrast_reports_every_key(solved, solved_zero):
    """A solve at rho_tilde = 0 reports the keys of any other solve, each
    finite except lambda_error_bar, which is inf without a measured ratio,
    and wake_remainder_slope, which is nan without a remainder."""
    rep0 = diagnostics(solved_zero)
    assert sorted(rep0) == sorted(diagnostics(solved))
    assert rep0["lambda_error_bar"] == np.inf and rep0["contraction_ratios"] == []
    assert np.isnan(rep0["wake_remainder_slope"])
    for k, v in rep0.items():
        assert k in ("lambda_error_bar", "wake_remainder_slope") or np.all(np.isfinite(np.asarray(v, float))), k


def test_wake_slope_of_a_tiny_remainder():
    """Each shell's remainder is scaled before it is squared: at rho_tilde =
    1e-300 and 1e-200 the squares would underflow, yet the slope is that at
    1e-100, where they do not."""
    cfg = SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12)
    *tiny, ref = [
        farfield_fit(picard_solve(dataclasses.replace(cfg, rho_tilde=rho)))["wake_remainder_slope"]
        for rho in (1e-300, 1e-200, 1e-100)
    ]
    for slope in tiny:
        assert abs(slope - ref) <= 1e-9 * abs(ref)


def test_negative_contrast_on_the_readme_grid_converges():
    """At rho_tilde = -0.3 on the README grid, where a sweep of the drift
    alone (Richardson) does not contract, the drifted Stokes solve and the
    Picard solve converge, to a fixed-point residual below the acceptance
    bound 1e-8."""
    b = picard_solve(SolveConfig(rho_tilde=-0.3))
    assert b.converged
    assert diagnostics(b)["fixed_point_residual"] < 1e-8


def test_zero_density_contrast_from_a_nonzero_start(solved_zero):
    """At rho_tilde = 0 an admissible nonzero start converges to the zero
    state, the quiescent sphere, like any other start to its fixed point."""
    cfg, ctx = solved_zero.config, solved_zero.ctx
    guess = DropState.zeros(ctx.grid)
    guess.eta = 1e-4 * SphereField.constant(ctx.grid.sphere, 1.0)
    guess.kappa = 1e-5
    b = picard_solve(cfg, ctx=ctx, initial=guess)
    assert b.converged and b.history[0]["update"] > 0.0
    assert norm_X(b.state, 0.0)["total"] < 10 * cfg.tol_fixed_point
    assert abs(b.lam) < 10 * cfg.tol_fixed_point


def test_context_for_other_physics_is_refused(solved):
    """A context carries its own rho_tilde and viscosities; a config that
    names others is refused rather than solved with the context's."""
    for other in (dict(rho_tilde=0.0), dict(rho_tilde=2e-3), dict(mu2=2.0)):
        with pytest.raises(ValueError, match="context was built for"):
            picard_solve(dataclasses.replace(CFG, **other), ctx=solved.ctx)


def test_convergence_and_ball(solved):
    b = solved
    assert b.converged
    ratios = b.report["contraction_ratios"]
    assert ratios and all(r < 1 for r in ratios)
    assert b.report["ball_norm"] <= b.report["ball_radius"]
    assert b.report["fixed_point_residual"] < 1e-8
    assert b.report["lambda_nonzero"]


def test_first_iterate_structure():
    """One hand iteration from zero, the translating drop: the leading
    deformation is degree-1, and since the zero state already holds the
    response lambda0 (U, P), linear in rho_tilde, the first update is
    quadratic in rho_tilde at leading order (halving it gives 0.2501)."""
    import dropsteady.operators as op

    ctx = op.build_context(CFG.build_grid(), CFG.params(), alpha=CFG.alpha)
    x0 = DropState.zeros(ctx.grid)
    y0 = assemble_N(x0, ctx)[0]
    x1 = invert_L(y0, ctx)
    eta1 = x1.eta
    par = project_kernel(eta1)
    total = sobolev_norm(eta1, 2.75)
    if total > 0:
        assert sobolev_norm(par, 2.75) <= total + 1e-15
    # the first update scales as rho_tilde^2 at leading order
    params2 = dataclasses.replace(CFG, rho_tilde=CFG.rho_tilde / 2).params()
    ctx2 = op.build_context(ctx.grid, params2, alpha=CFG.alpha)
    y02 = assemble_N(DropState.zeros(ctx.grid), ctx2)[0]
    x12 = invert_L(y02, ctx2)
    # compare with a common weight so the scaling is meaningful
    r = norm_X(x12, ctx.lambda0)["total"] / norm_X(x1, ctx.lambda0)["total"]
    assert abs(r - 0.25) < 0.01


def test_contraction_improves_with_smaller_rho():
    b1 = picard_solve(CFG)
    b2 = picard_solve(dataclasses.replace(CFG, rho_tilde=CFG.rho_tilde / 2))
    r1 = b1.report["contraction_ratios"][0]
    r2 = b2.report["contraction_ratios"][0]
    assert r2 < r1


def test_uniqueness_in_ball(solved):
    """A different admissible initial guess lands on the same fixed point."""
    b = solved
    ctx = b.ctx
    guess = DropState.zeros(ctx.grid)
    guess.eta = 1e-4 * SphereField.constant(ctx.grid.sphere, 1.0)
    guess.kappa = 1e-5
    b2 = picard_solve(CFG, ctx=ctx, initial=guess)
    diff = b2.state.combine(b.state, 1.0, -1.0)
    assert norm_X(diff, b.ctx.lambda0)["total"] < 10 * CFG.tol_fixed_point


def test_reconstruction_residual(solved):
    assert midshell_residual(solved) < 1e-6
    # at the fixed point the physical field on the sphere satisfies the
    # kinematic condition w.n = -lam e3.n
    w = solved.physical.w
    g = solved.ctx.grid.sphere
    rhat = g.unit_vectors()[0]
    wn = np.einsum("iab,iab->ab", w.trace(0), rhat)
    assert np.max(np.abs(wn + solved.lam * rhat[2])) < 1e-9


def test_diagnostics_report(solved):
    rep = diagnostics(solved)
    assert abs(rep["volume_defect"]) < 1e-8
    assert rep["force_e3_defect_rel"] < 1e-6
    assert rep["force_transverse_max"] < 1e-9
    assert rep["axisym_leakage"] < 1e-9
    assert rep["wake_rel_error"] < 0.10
    assert rep["wake_remainder_slope"] < -1.0
    assert np.max(np.abs(rep["barycenter"])) < 1e-9


def test_diagnostics_read_the_residual_pass_fields(solved, monkeypatch):
    """The diagnostics build no interface map and differentiate nothing:
    the barycenter is that of the bundle's own MapData object, and the
    mid-shell residual reads the physical pair the final residual pass
    formed."""

    def refuse(*args, **kwargs):
        raise AssertionError("diagnostics derived the converged state again")

    for name in ("geometry.build_map", "operators.build_map", "volume.vector_gradient"):
        monkeypatch.setattr(f"dropsteady.{name}", refuse)
    monkeypatch.setattr(type(solved.ctx), "physical_pair", refuse)
    rep = diagnostics(solved)
    mp = solved.physical.mp
    assert mp.eta.eta is solved.eta
    grid = solved.ctx.grid
    moment = (grid_points(grid) + mp.E.values) * mp.J.values
    barycenter = [integrate_phase(VolumeField(grid, m), INTERIOR) for m in moment]
    assert np.array_equal(rep["barycenter"], barycenter)
    assert rep["midshell_residual"] == midshell_residual(solved)


def test_force_defect_reads_rounding_level(readme_default):
    """The pull-back force reads the Jacobian of the final residual pass,
    whose lambda U part is the auxiliary field's: at the README default the
    force balances the buoyancy to 1.2e-15."""
    assert diagnostics(readme_default[0])["force_e3_defect_rel"] <= 1e-13


def test_farfield_fit_matches_the_per_shell_fit(solved):
    """All shells fitted at once agree with the fit summed shell by shell,
    to the rounding of the reordered sums."""
    ctx, g = solved.ctx, solved.ctx.grid.sphere
    w, _ = ctx.physical_pair(solved.state)
    radii = np.linspace(ctx.grid.r_inf / 4.0, ctx.grid.r_inf / 2.0, FARFIELD_SHELLS)
    vals = eval_radii(w, radii, EXTERIOR)
    th, phg = g.nodes
    num = den = 0.0
    G3 = np.zeros_like(vals)
    for i, r0 in enumerate(radii):
        pts = np.stack(
            [r0 * np.sin(th) * np.cos(phg), r0 * np.sin(th) * np.sin(phg), r0 * np.cos(th)], axis=-1
        )
        G = oseenlet(pts, solved.lam, mu=ctx.params.mu2, rho=ctx.params.rho2)
        G3[:, i] = np.moveaxis(G[..., :, 2], -1, 0)
        num += np.einsum("ab,iab,iab->", g.weights, vals[:, i], G3[:, i])
        den += np.einsum("ab,iab,iab->", g.weights, G3[:, i], G3[:, i])
    c_fit = num / den
    rem = vals - c_fit * G3
    rms = [np.sqrt(np.einsum("ab,iab,iab->", g.weights, rem[:, i], rem[:, i])) for i in range(len(radii))]
    slope = np.polyfit(np.log(radii), np.log(rms), 1)[0]
    fit = farfield_fit(solved)
    assert abs(fit["wake_coefficient"] - c_fit) <= 1e-13 * abs(c_fit)
    assert abs(fit["wake_remainder_slope"] - slope) <= 1e-10 * abs(slope)


def test_mirror_symmetry(solved, solved_mirror):
    d = mirror_defect(solved, solved_mirror)
    assert d["eta"] < 1e-8
    assert d["lambda"] < 1e-8
    assert d["velocity"] < 1e-8


def test_fixed_point_residual_rows(solved, solved_zero):
    """The report carries the seven rows of the final residual; they are
    finite and sum to fixed_point_residual, and read 0.0 at rho_tilde = 0."""
    rows = [f"fixed_point_residual_{k}" for k in ("f", "g", "h1", "h2", "a1", "a2", "h3")]
    values = [solved.report[k] for k in rows]
    assert all(np.isfinite(v) and v >= 0.0 for v in values)
    assert sum(values) == pytest.approx(solved.report["fixed_point_residual"], rel=1e-14, abs=0.0)
    assert [solved_zero.report[k] for k in rows] == [0.0] * 7


def test_fixed_point_residual_direct(solved):
    """Direct substitution into the operator equation."""
    b = solved
    res = apply_L(b.state, b.ctx).combine(assemble_N(b.state, b.ctx)[0], 1.0, -1.0)
    assert norm_Y(res)["total"] < 1e-8


def test_banded_solve_matches_full_m():
    """A solve runs on the axisymmetric band; the full-m solve of the same
    config is its reference.  The bounds are 10x the largest deltas measured
    at L = 8, 16 and rho_tilde = +-1e-3, 5e-4, 2.5e-4."""
    cfg = SolveConfig()
    assert cfg.build_grid().sphere.n_phi == 2 * AXISYMMETRIC_M_MAX + 2
    full_grid = VolumeGrid.build(cfg.band_limit, cfg.n_r_int, cfg.n_r_ext, cfg.r_inf)
    full = picard_solve(cfg, ctx=build_context(full_grid, cfg.params(), alpha=cfg.alpha))
    rep = diagnostics(full)
    assert rep["axisym_leakage"] < 1e-9
    assert rep["force_transverse_max"] < 1e-9
    banded = picard_solve(cfg)
    assert banded.converged and full.converged
    assert len(banded.history) == len(full.history)
    assert abs(banded.lam - full.lam) <= 5e-12 * abs(full.lam)
    M, L = AXISYMMETRIC_M_MAX, cfg.band_limit
    band_eta, full_eta = banded.eta.coeffs, full.eta.coeffs
    assert band_eta.shape == (L + 1, 2 * M + 1) and full_eta.shape == (L + 1, 2 * L + 1)
    carried = np.s_[L - M : L + M + 1]  # the band's orders among the full grid's columns
    assert np.max(np.abs(band_eta - full_eta[:, carried])) <= 3e-15
    assert np.max(np.abs(np.delete(full_eta, carried, axis=-1))) <= 3e-15


def test_lambda_error_bar_formula():
    """q / (1 - q) times the last update, q the largest measured ratio; inf
    when no ratio was measured or the largest is not below 1."""
    assert lambda_error_bar([0.1, 0.25, 0.2], 3e-9) == 0.25 / 0.75 * 3e-9
    assert lambda_error_bar([0.0], 1e-3) == 0.0
    for ratios in ([], [0.5, 1.0], [2.0]):
        assert lambda_error_bar(ratios, 1e-12) == np.inf


@pytest.fixture(scope="module")
def readme_default():
    """The README default solved as configured and, as the reference, to
    tol_fixed_point = 1e-12, which takes a third update."""
    cfg = SolveConfig()
    ctx = build_context(cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
    ref = picard_solve(dataclasses.replace(cfg, tol_fixed_point=1e-12), ctx=ctx)
    return picard_solve(cfg, ctx=ctx), ref


def test_zero_state_is_the_translating_drop(readme_default):
    """The state is the perturbation of lambda (U, P), so the zero state,
    where a solve starts, is the translating drop lambda0 (U, P) bit for bit:
    the centre of the paper's ball.  The README default converges from it
    in 2 Picard iterations."""
    b, _ = readme_default
    assert b.converged and len(b.history) == 2
    w, q = b.ctx.physical_pair(DropState.zeros(b.ctx.grid))
    aux, lam0 = b.ctx.aux, b.ctx.lambda0
    assert np.array_equal(w.values, lam0 * aux.U.values)
    assert np.array_equal(q.values, lam0 * aux.P.values)


# Picard iterations each point took on the L8 band grid when the solve
# truncated the auxiliary field at r_inf/2 and started at the translating drop
TRANSLATING_DROP_ITERS = [
    # the six sweep-L8 points of the benchmark's seed 1
    *((dict(rho_tilde=r), 2) for r in (
        -4.93807962040742e-4, 9.27915806121572e-4, -3.139777030875321e-4,
        5.180199515899542e-4, -7.435811808921555e-4, 7.889789315013107e-4,
    )),
    (dict(rho_tilde=2e-2), 4),
    (dict(rho_tilde=-2e-2), 4),
    (dict(rho_tilde=0.1), 6),
    (dict(rho_tilde=-0.1, mu1=2.5, mu2=0.8), 6),
]


@pytest.mark.parametrize(
    "physics, iters",
    TRANSLATING_DROP_ITERS,
    ids=["-".join(f"{v:g}" for v in physics.values()) for physics, _ in TRANSLATING_DROP_ITERS],
)
def test_translating_drop_start_matches_zero_start(physics, iters):
    """On the L8 band grid a solve from the default start, the zero state,
    converges to a fixed-point residual below 1e-8 in no more Picard
    iterations than the truncated formulation took."""
    b = picard_solve(SolveConfig(band_limit=8, **physics))
    assert b.converged
    assert len(b.history) <= iters
    assert b.report["fixed_point_residual"] < 1e-8


def test_converged_solve_has_measured_a_ratio():
    """At rho_tilde = -1e-5 the first update from the translating drop is
    already below tol_fixed_point; the solve takes a second one, so that its
    error bar is finite and lambda counts as nonzero."""
    b = picard_solve(SolveConfig(band_limit=8, rho_tilde=-1e-5))
    assert b.history[0]["update"] <= b.config.tol_fixed_point
    assert b.converged and len(b.history) == 2
    assert np.isfinite(b.report["lambda_error_bar"])
    assert b.report["lambda_nonzero"]


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of what it allocated."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_step_holds_one_iterate():
    """A warm solve peaks barely above one assemble_N of its final state: no
    N, update or stale iterate of one step stays alive into the next."""
    cfg = SolveConfig(band_limit=8, n_r_int=16, n_r_ext=24)
    ctx = build_context(cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
    picard_solve(cfg, ctx)  # builds the grid's tables on first use
    bundle, solve_peak = _traced_peak(picard_solve, cfg, ctx)
    _, step_peak = _traced_peak(assemble_N, bundle.state, ctx)
    assert solve_peak <= 1.12 * step_peak


def test_lambda_error_bar_of_a_solve(readme_default):
    """The reported bar is the bound of the solve's own history; without a
    measured ratio it is inf and lambda does not count as nonzero.  Solved
    to tol_fixed_point = 1e-12, the README default's bar reads 3.0e-18, and
    the default solve's lambda lies within its own bar (1.2e-14) of it."""
    b, ref = readme_default
    ratios = [h["ratio"] for h in b.history[1:]]
    assert b.report["lambda_error_bar"] == lambda_error_bar(ratios, b.history[-1]["update"])
    assert len(ref.history) == len(b.history) + 1
    assert 0.0 < ref.report["lambda_error_bar"] < 1e-14  # it reads 3.0e-18
    assert abs(b.lam - ref.lam) <= b.report["lambda_error_bar"]
    assert b.report["lambda_nonzero"]
    one = picard_solve(dataclasses.replace(CFG, max_iters=1))
    assert one.report["lambda_error_bar"] == np.inf
    assert not one.report["lambda_nonzero"]


def test_lambda_error_bar_bounds_an_early_stop():
    """Stopped early, a drifted L8 solve is within its bar of the converged lambda."""
    cfg = SolveConfig(band_limit=8, rho_tilde=0.1)
    ref = picard_solve(cfg)
    early = picard_solve(dataclasses.replace(cfg, tol_fixed_point=1e-6))
    assert len(early.history) < len(ref.history)
    assert abs(early.lam - ref.lam) <= early.report["lambda_error_bar"]
