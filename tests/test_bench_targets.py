"""The benchmark's span tracer (bench/spans.py) finds every function it wraps.

The tracer wraps package functions by name from outside the package, so a
renamed or deleted target breaks the benchmark's traced run
(``bench/run.py --trace 1``).  This test keeps that contract in the
package's own suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from spans import SPHERE_TRANSFORMS, TARGETS, Tracer, span_name  # noqa: E402


def _bindings() -> dict:
    """Every name bound in a dropsteady module, in a target class, or in
    validate.CHECK_GROUPS, keyed by where it is bound."""
    mods = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "dropsteady" or name.startswith("dropsteady.")
    }
    out = {(name, key): val for name, mod in mods.items() for key, val in vars(mod).items()}
    for layer, path in TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mods[f"dropsteady.{layer}"], cls_name)
            out[(layer, path)] = cls.__dict__[attr]
    for group, fn in mods["dropsteady.validate"].CHECK_GROUPS.items():
        out[("CHECK_GROUPS", group)] = fn
    return out


def test_tracer_targets_resolve_and_restore():
    for layer in [*(layer for layer, _ in TARGETS), "validate"]:
        importlib.import_module(f"dropsteady.{layer}")
    before = _bindings()
    groups = sys.modules["dropsteady.validate"].CHECK_GROUPS
    tracer = Tracer()
    try:
        tracer.install()  # raises if a target no longer resolves
        expected = [span_name(layer, path) for layer, path in TARGETS]
        expected += [f"validate.{group}" for group in groups]
        assert tracer.names == expected
        for layer, path in TARGETS:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(sys.modules[f"dropsteady.{layer}"], cls_name)
                now = cls.__dict__[attr]
            else:
                now = getattr(sys.modules[f"dropsteady.{layer}"], path)
            key = (layer, path) if "." in path else (f"dropsteady.{layer}", path)
            assert now.__wrapped__ is before[key], f"{layer}.{path} is not wrapped"
        for group in groups:
            assert groups[group].__wrapped__ is before[("CHECK_GROUPS", group)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, f"bindings not restored: {changed}"


STAGES = (
    "build_context",
    "picard_solve",
    "diagnostics",
    "norm_X",
    "tensor_divergence",
    "assemble_N",
    "invert_L",
    "apply_L",
)


@pytest.fixture(scope="module")
def traced():
    """A solve at band_limit = 8 under the tracer, one rep per stage (the
    rep number is the index in STAGES); returns the per-rep call counts,
    the Picard iteration count, the bundle and the tracer."""
    from dropsteady import driver, operators, volume

    cfg = driver.SolveConfig(band_limit=8, n_r_int=16, n_r_ext=24)
    tracer = Tracer()

    def stage(name, fn, *args, **kwargs):
        tracer.open_rep(STAGES.index(name))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close_rep()

    with tracer:  # the wrapped functions are reached through their modules
        ctx = stage("build_context", operators.build_context, cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
        bundle = stage("picard_solve", driver.picard_solve, cfg, ctx=ctx)
        stage("diagnostics", driver.diagnostics, bundle)
        stage("norm_X", operators.norm_X, bundle.state, ctx.lambda0)
        stage("tensor_divergence", volume.tensor_divergence, ctx.aux.jacU)
        N, _ = stage("assemble_N", operators.assemble_N, bundle.state, ctx)
        assert N.g.max_abs() > 0.0
        stage("invert_L", operators.invert_L, N, ctx)
        stage("apply_L", operators.apply_L, bundle.state, ctx)
    calls = {}
    for rep, name in enumerate(STAGES):
        functions = tracer.rep_summary(rep)["functions"]
        calls[name] = {fn: row["calls"] for fn, row in functions.items()}
    iters = tracer.rep_summary(STAGES.index("picard_solve"))["counters"]["driver.picard_iters"]
    return calls, iters, bundle, tracer


def test_solve_builds_each_object_once(traced):
    """A traced solve builds one Stokes solver, runs no residual report,
    maps the interface once per assembly and not again for the diagnostics,
    which read the final residual pass's map, and takes one X-norm per
    Picard step plus one of the final state for the ball norm; the set-up
    and the diagnostics assemble nothing and take no X-norm."""
    calls, iters, bundle, _ = traced
    setup, solve, diag = calls["build_context"], calls["picard_solve"], calls["diagnostics"]
    assert bundle.converged, bundle.failure
    assert iters == len(bundle.history) >= 1
    assert setup["stokes.TwoPhaseStokesSolver"] == 1
    assert "stokes.TwoPhaseStokesSolver" not in solve | diag
    assert "stokes.residual_report" not in setup | solve | diag
    assert "geometry.build_map" not in setup
    assert solve["geometry.build_map"] == solve["operators.assemble_N"]
    assert "geometry.build_map" not in diag
    assert "operators.assemble_N" not in setup | diag
    assert solve["operators.norm_X"] == iters + 1
    assert "operators.norm_X" not in setup | diag


def test_each_field_differentiated_once(traced):
    """d3 of a field whose Jacobian is at hand is read off that Jacobian,
    the diagnostics differentiate nothing (they read the Jacobian of the
    physical velocity that the final residual pass formed), a
    tensor divergence is the vector divergence of each row, and norm_X
    reads every term off the channels of u and the coefficients of p by
    Parseval: no nodal Jacobian, Laplacian or pressure gradient."""
    calls = traced[0]
    assert "volume.d3" not in calls["build_context"]
    assert calls["norm_X"]["operators.norm_X"] == 1
    nodal = ("volume.scalar_gradient", "volume.vector_gradient", "volume.vector_laplacian", "volume.d3")
    assert not [fn for fn in nodal if fn in calls["norm_X"]]
    assert "volume.scalar_gradient" not in calls["tensor_divergence"]
    assert calls["tensor_divergence"]["volume.vector_divergence"] == 3
    assert "volume.vector_gradient" not in calls["diagnostics"]
    assert "volume.d3" not in calls["diagnostics"]


def test_invert_L_takes_no_nodal_gradient(traced):
    """invert_L hands L's rows to the Stokes solve as they are: data with
    g != 0 cost no nodal gradient of g (the solve adds mu grad g on
    channels), and the traction jump comes from the solve's own channels,
    so u is analysed only inside the solve."""
    calls, _, _, tracer = traced
    assert calls["invert_L"]["stokes.solve_two_phase"] == 1
    assert "volume.scalar_gradient" not in calls["invert_L"]
    rep = STAGES.index("invert_L")
    inside = tracer.descendants_count(rep, "stokes.solve_two_phase", ["volume.vsh_channels"])
    assert calls["invert_L"]["volume.vsh_channels"] == inside


def test_apply_L_analyses_u_once_per_row(traced):
    """-Div T, the drift and the traction jump of the interface rows are one
    pass on the channels of u: apply_L takes no nodal gradient, Laplacian,
    divergence or d3, and analyses u once for all its rows."""
    calls = traced[0]["apply_L"]
    nodal = ("volume.scalar_gradient", "volume.vector_laplacian", "volume.vector_divergence", "volume.d3")
    assert not [fn for fn in nodal if fn in calls]
    assert calls["volume.vsh_channels"] == 1  # minus_div_T, which also gives the jump


def test_assemble_N_forms_each_term_once(traced):
    """N is written in the physical perturbation w = u + lambda U: one
    interface map, one Jacobian, one transformed stress and its tensor
    divergence, and one divergence of (I - A) w."""
    calls = traced[0]
    assemble = calls["assemble_N"]
    once = ("geometry.build_map", "geometry.transformed_stress", "volume.tensor_divergence", "volume.vector_gradient")
    assert {fn: assemble[fn] for fn in once} == dict.fromkeys(once, 1)
    assert assemble["volume.vector_divergence"] == 4  # three rows of the stress, then (I - A) w


def test_drift_sweeps_run_no_sphere_transform():
    """The drift iteration stays in channel space: one drifted solve makes
    the same sphere-transform calls at lambda0 = 1e-3 and 1e-2, although
    the second takes more sweeps."""
    from dropsteady import stokes
    from dropsteady.sphere import TangentField, normal_component_fields
    from dropsteady.volume import VolumeField, VolumeGrid

    grid = VolumeGrid.build(8, 12, 20, 64.0, m_max=2)
    solver = stokes.TwoPhaseStokesSolver(grid, 1.0, 1.0)
    n3 = normal_component_fields(grid.sphere)[2]
    data = stokes.YElement(
        VolumeField.zeros(grid, rank=1), VolumeField.zeros(grid), -1.0 * n3, TangentField.zeros(grid.sphere)
    )
    params = stokes.PhysicalParams(rho_tilde=0.3)
    stokes.solve_two_phase(data, 1e-3, params, solver)  # builds the grid's d3 coupling
    tracer = Tracer()
    solves = []
    with tracer:
        for rep, lam in enumerate((1e-3, 1e-2)):
            tracer.open_rep(rep)
            try:
                sol = stokes.solve_two_phase(data, lam, params, solver)
            finally:
                tracer.close_rep()
            solves.append(sol.diagnostics["stokes_solves"])
    transforms = [tracer.descendants_count(rep, "stokes.solve_two_phase", SPHERE_TRANSFORMS) for rep in (0, 1)]
    assert solves[0] < solves[1]
    assert transforms[0] == transforms[1] > 0


L8_SWEEP = "[discretization]\nband_limit = 8\nn_r_int = 16\nn_r_ext = 24\n"


def _solver_builds(fn, *args, **kwargs) -> int:
    """Stokes solver constructions, in any thread, while fn runs traced."""
    tracer = Tracer()
    with tracer:
        tracer.open_rep(0)
        try:
            fn(*args, **kwargs)
        finally:
            tracer.close_rep()
    return tracer.rep_summary(0)["functions"].get("stokes.TwoPhaseStokesSolver", {"calls": 0})["calls"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_builds_stokes_operators_once(tmp_path, threads):
    """The operators depend on the grid and the viscosities only, so a
    sweep builds them once and every point shares them."""
    from dropsteady import cli

    cfg = tmp_path / "l8.cfg"
    cfg.write_text(L8_SWEEP)
    argv = ["--threads", threads, "sweep", "--config", str(cfg), "--out", str(tmp_path), "--rho-grid", "1e-3,-5e-4,2e-4"]
    assert _solver_builds(cli.main, argv) == 1
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["ok"] * 3


def test_validate_builds_one_solver_per_viscosity_pair():
    """validate's groups share the equal-viscosity field: one build for each
    of kappa = 0.1, 1 and 10."""
    from dropsteady import validate

    assert _solver_builds(validate.run_validation, seed=0) == 3


def test_bench_sweep_rep_records_every_point(tmp_path, monkeypatch):
    """The benchmark's sweep workload takes each point's bundle from
    driver.picard_solve as the sweep calls it; a sweep that stops calling it
    there would count every point as failed."""
    import importlib.util

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins them on import; undone after the test
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    points = run.sweep_points(1)[:2]
    cfg = tmp_path / "input.cfg"
    cfg.write_text(run.config_text({"band_limit": 8, "rho_tilde": points[0]}))
    res = run.sweep_rep(run.import_package(), cfg, tmp_path / "out", points)
    assert (res.ops, res.failed) == (2, 0), res.failures
