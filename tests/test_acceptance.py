"""Acceptance criteria, one test per criterion at its stated tolerance.

Criteria 1-7 and 11 run the check groups of ``dropsteady validate``
(``validate.CHECK_GROUPS``) at the acceptance grid and sample counts;
criteria 8-10 check converged fixed points.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import dataclasses

import numpy as np
import pytest

from dropsteady.driver import SolveConfig, diagnostics, mirror_defect, picard_solve
from dropsteady.stokes import PhysicalParams, auxiliary_field
from dropsteady.validate import CHECK_GROUPS
from dropsteady.volume import VolumeGrid


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def report_checks(num, checks):
    """One acceptance line from validate Check rows; passes if all of them do."""
    detail = "; ".join(f"{c.name} {c.value:.2e} (<{c.bound:g})" for c in checks)
    report(num, bool(checks) and all(c.passed for c in checks), detail)


@pytest.fixture(scope="module")
def desk_grid():
    return VolumeGrid.build(band_limit=12, n_r_int=20, n_r_ext=32, r_inf=64.0)


@pytest.fixture(scope="module")
def desk_aux(desk_grid):
    """The equal-viscosity auxiliary field the check groups on desk_grid share."""
    return auxiliary_field(desk_grid, PhysicalParams())


@pytest.fixture(scope="module")
def energy_checks(desk_grid, desk_aux):
    """The energy group: its first row is criterion 5, the others criterion 6."""
    return CHECK_GROUPS["energy"](np.random.default_rng(5), desk_grid, desk_aux)


@pytest.fixture(scope="module")
def fixed_points():
    """Criterion-8 solves at L_max = 16 for the three densities."""
    out = {}
    for rho in (1e-3, 5e-4, 2.5e-4):
        cfg = SolveConfig(
            rho_tilde=rho, alpha=0.8, band_limit=16, n_r_int=24, n_r_ext=40
        )
        out[rho] = picard_solve(cfg)
    return out


def test_criterion_1_curvature_identity():
    report_checks(1, CHECK_GROUPS["curvature"](np.random.default_rng(1)))


def test_criterion_2_kernel_inversion():
    report_checks(2, CHECK_GROUPS["kernel"](np.random.default_rng(2)))


def test_criterion_3_halfspace_kernels():
    report_checks(3, CHECK_GROUPS["halfspace"](np.random.default_rng(3)))


def test_criterion_4_drop_flow_oracle(desk_grid, desk_aux):
    report_checks(4, CHECK_GROUPS["drop-flow"](np.random.default_rng(4), desk_grid, desk_aux))


def test_criterion_5_energy_identity(energy_checks):
    report_checks(5, energy_checks[:1])


def test_criterion_6_lambda0_law(energy_checks):
    report_checks(6, energy_checks[1:])


def test_criterion_7_operator_round_trip(desk_grid, desk_aux):
    rng = np.random.default_rng(7)
    report_checks(7, CHECK_GROUPS["roundtrip"](rng, desk_grid, desk_aux, samples=10))


def test_criterion_8_fixed_point(fixed_points):
    lines = []
    ok = True
    prev_ratio = None
    for rho in (1e-3, 5e-4, 2.5e-4):
        b = fixed_points[rho]
        ratios = b.report["contraction_ratios"]
        ratio0 = ratios[0]
        cond = (
            b.converged
            and all(r < 1 for r in ratios)
            and b.report["ball_norm"] <= b.report["ball_radius"]
            and b.report["fixed_point_residual"] < 1e-8
        )
        if prev_ratio is not None:
            cond = cond and ratio0 < prev_ratio
        prev_ratio = ratio0
        ok = ok and cond
        lines.append(f"rho={rho:g}: ratio {ratio0:.2e}, resid {b.report['fixed_point_residual']:.1e}")
    report(8, ok, "; ".join(lines))


def test_criterion_9_constraint_suite(fixed_points):
    b = fixed_points[1e-3]
    rep = diagnostics(b)
    mirror_cfg = dataclasses.replace(b.config, rho_tilde=-b.config.rho_tilde)
    b_m = picard_solve(mirror_cfg)
    md = mirror_defect(b, b_m)
    ok = (
        abs(rep["volume_defect"]) < 1e-8
        and rep["force_e3_defect_rel"] < 1e-6
        and rep["force_transverse_max"] < 1e-9
        and rep["axisym_leakage"] < 1e-9
        and max(md.values()) < 1e-8
    )
    report(
        9,
        ok,
        f"volume {rep['volume_defect']:.1e} (<1e-8); e3 force {rep['force_e3_defect_rel']:.1e} (<1e-6); "
        f"e1/e2 force {rep['force_transverse_max']:.1e} (<1e-9); axisym {rep['axisym_leakage']:.1e} (<1e-9); "
        f"mirror {max(md.values()):.1e} (<1e-8)",
    )


def test_criterion_10_farfield_wake(fixed_points):
    rep = diagnostics(fixed_points[1e-3])
    ok = rep["wake_rel_error"] < 0.10 and rep["wake_remainder_slope"] < -1.0
    report(
        10,
        ok,
        f"wake coefficient within {rep['wake_rel_error']:.2%} of (4pi/3)rho (<10%); "
        f"remainder slope {rep['wake_remainder_slope']:.2f} (< -1)",
    )


def test_criterion_11_truncation_slope(desk_grid, desk_aux):
    report_checks(11, CHECK_GROUPS["truncation"](np.random.default_rng(11), desk_grid, desk_aux))
