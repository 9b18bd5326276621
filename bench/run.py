"""dropsteady benchmark: time to solution on four workloads, plus a traced run.

    python3 bench/run.py --workload solve-L16 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in this one process with BLAS pinned to one thread:
first one cold set-up, then one warm-up rep that is discarded, then
measured reps until ``--seconds`` have passed, then warm set-ups until
there are SETUP_SAMPLES of them.  Each rep's outputs are checked; a rep
that fails a check counts in ``failed``.

With ``--trace 0`` the metrics are the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` traced and untraced reps alternate,
and the metrics are the per-layer numbers of the traced reps (medians
over reps) named in BENCHMARK.json; the tracing overhead is the median
traced rep minus the median untraced rep.  The line before the last is a
report with every number the run took, its sample counts and the
environment; the spans go to .bench_out/<workload>-<seed>.spans.jsonl.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so that a rep runs on one core.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SPHERE_TRANSFORMS, Tracer, span_cost  # noqa: E402

# README default config.  Solve workloads run it as is (the seed does not
# change their inputs); only band_limit differs between them.
BASE_CONFIG = {
    "physics": {"rho_tilde": 1e-3, "mu1": 1.0, "mu2": 1.0, "sigma": 1.0},
    "discretization": {"band_limit": 16, "n_r_int": 24, "n_r_ext": 40, "r_inf": 64.0},
    "iteration": {"alpha": 0.8, "max_iters": 60, "tol_fixed_point": 1e-9},
}
WORKLOADS = {
    "solve-L16": {"kind": "solve", "band_limit": 16},
    "solve-L24": {"kind": "solve", "band_limit": 24},
    "sweep-L8": {"kind": "sweep", "band_limit": 8},
    "validate-suite": {"kind": "validate"},
}
SWEEP_POINTS = 6
SWEEP_THREADS = 2
SWEEP_RHO_RANGE = (2.5e-4, 1e-3)
# validate's roundtrip group builds this context on every pass; it is the
# validate-suite workload's set-up.
VALIDATE_SETUP = {"band_limit": 12, "n_r_int": 20, "n_r_ext": 30, "r_inf": 64.0}
SETUP_SAMPLES = 5

# Acceptance criterion 7 bounds the fixed-point residual by 1e-8.  Lambda
# is compared with the closed-form first-order speed; the solves here
# differ from it by at most 1.74e-7 relative (at |rho_tilde| = 1e-3).
RESIDUAL_BOUND = 1e-8
LAMBDA_RTOL = 1e-6


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import every dropsteady module the workloads drive, from src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import dropsteady.cli
    import dropsteady.driver
    import dropsteady.dropflow
    import dropsteady.io
    import dropsteady.operators
    import dropsteady.stokes
    import dropsteady.validate

    return dropsteady


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def config_text(overrides: dict) -> str:
    lines = []
    for section, keys in BASE_CONFIG.items():
        lines.append(f"[{section}]")
        for key, val in keys.items():
            lines.append(f"{key} = {overrides.get(key, val)!r}")
        lines.append("")
    return "\n".join(lines)


def sweep_points(seed: int) -> list[float]:
    """Seeded rho_tilde draw: half of each sign, one magnitude from each of
    SWEEP_POINTS equal slices of the range, in random order.

    The Stokes inner iterations grow with |rho_tilde|; one point per slice
    keeps a sweep's total work about the same from seed to seed.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(*SWEEP_RHO_RANGE, SWEEP_POINTS + 1)
    mags = rng.permutation(rng.uniform(edges[:-1], edges[1:]))
    signs = rng.permutation([1.0, -1.0] * (SWEEP_POINTS // 2))
    return [float(s * m) for s, m in zip(signs, mags)]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _numbers(value):
    if isinstance(value, (bool, str)) or value is None:
        return []
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    try:
        return [float(x) for x in np.ravel(np.asarray(value, dtype=float))]
    except (TypeError, ValueError):
        return []


def closed_form_lambda(pkg, rho_tilde: float, mu1: float, mu2: float) -> float:
    return pkg.stokes.lambda0_value(rho_tilde, pkg.dropflow.drag_e3(mu1, mu2))


def solve_failures(converged, lam: float, residual: float, reported, lam_ref: float) -> list[str]:
    """Why a solve counts as failed; empty when it passes every check.

    ``converged`` and ``residual`` come from the solution bundle itself,
    ``reported`` holds every value the solve reports to its user.
    """
    out = []
    if converged is not True:
        out.append("not converged")
    if not all(math.isfinite(x) for x in _numbers(reported) + [lam]):
        out.append("non-finite reported value")
    if not residual < RESIDUAL_BOUND:
        out.append(f"fixed_point_residual {residual:.3e}")
    rel = abs(lam - lam_ref) / abs(lam_ref)
    if not rel <= LAMBDA_RTOL:
        out.append(f"lambda off closed form by {rel:.3e}")
    return out


# ---------------------------------------------------------------------------
# reps
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RepResult:
    wall: float
    ops: int  # operations attempted (solves, sweep points, validate passes)
    failed: int
    failures: list[str]
    setup: float | None = None
    bytes_written: int = 0
    detail: dict = dataclasses.field(default_factory=dict)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_rep(pkg, cfg) -> float:
    """Config -> ready OperatorContext, as picard_solve does it."""
    t0 = time.perf_counter()
    grid = cfg.build_grid()
    pkg.operators.build_context(grid, cfg.params(), alpha=cfg.alpha)
    return time.perf_counter() - t0


def solve_rep(pkg, cfg_path: Path, out_dir: Path) -> RepResult:
    """config -> build_context -> picard_solve -> diagnostics -> artifacts."""
    fresh_dir(out_dir)
    t0 = time.perf_counter()
    try:
        cfg = pkg.io.load_config(str(cfg_path))
        t1 = time.perf_counter()
        grid = cfg.build_grid()
        ctx = pkg.operators.build_context(grid, cfg.params(), alpha=cfg.alpha)
        t2 = time.perf_counter()
        bundle = pkg.driver.picard_solve(cfg, ctx=ctx)
        report = pkg.driver.diagnostics(bundle)
        pkg.io.solve_artifacts(str(out_dir), cfg, bundle, report)
        wall = time.perf_counter() - t0
    except Exception:  # a rep that raises is a failed operation
        return RepResult(time.perf_counter() - t0, 1, 1, [traceback.format_exc(limit=3)])
    lam_ref = closed_form_lambda(pkg, cfg.rho_tilde, cfg.mu1, cfg.mu2)
    why = solve_failures(
        bundle.converged, bundle.lam, bundle.report["fixed_point_residual"], report, lam_ref
    )
    return RepResult(
        wall,
        1,
        int(bool(why)),
        why,
        setup=t2 - t1,
        bytes_written=dir_bytes(out_dir),
        detail={
            "lambda": bundle.lam,
            "lambda_rel_err": abs(bundle.lam - lam_ref) / abs(lam_ref),
            "iters": len(bundle.history),
            "fixed_point_residual": bundle.report["fixed_point_residual"],
        },
    )


def sweep_rep(pkg, cfg_path: Path, out_dir: Path, points: list[float]) -> RepResult:
    """`dropsteady --threads 2 sweep`; each point is checked from its bundle.

    The sweep's status column and exit code do not say whether a point
    converged, so the bundles are taken from driver.picard_solve as the
    sweep calls it (one extra Python call per point).
    """
    fresh_dir(out_dir)
    bundles = {}
    solve = pkg.driver.picard_solve

    def recording_solve(config, *args, **kwargs):
        bundle = solve(config, *args, **kwargs)
        bundles[config.rho_tilde] = (
            bundle.converged, bundle.lam, bundle.report["fixed_point_residual"], dict(bundle.report)
        )
        return bundle

    # "--rho-grid=" keeps a leading minus sign from reading as an option
    argv = [
        "--threads", str(SWEEP_THREADS), "sweep", "--config", str(cfg_path),
        "--rho-grid=" + ",".join(repr(r) for r in points), "--out", str(out_dir),
    ]
    pkg.driver.picard_solve = recording_solve
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(argv)
    except (Exception, SystemExit):  # argparse exits on a rejected argument
        n = len(points)
        return RepResult(time.perf_counter() - t0, n, n, [traceback.format_exc(limit=3)])
    finally:
        pkg.driver.picard_solve = solve
    wall = time.perf_counter() - t0
    failures = []
    with open(out_dir / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, ln.strip().split(","))) for ln in fh if ln.strip()]
    by_rho = {float(r["rho_tilde"]): r for r in rows}
    cfg = pkg.io.load_config(str(cfg_path))
    errs = []
    for rho in points:
        row = by_rho.get(rho)
        if row is None or rho not in bundles:
            failures.append(f"rho {rho!r}: no result")
            continue
        converged, lam, residual, report = bundles[rho]
        csv_values = [float(v) for k, v in row.items() if k != "status"]
        lam_ref = closed_form_lambda(pkg, rho, cfg.mu1, cfg.mu2)
        errs.append(abs(lam - lam_ref) / abs(lam_ref))
        why = solve_failures(converged, lam, residual, [report, csv_values], lam_ref)
        if row["status"] != "ok":
            why.append(f"status {row['status']}")
        if code != 0:
            why.append(f"sweep exit code {code}")
        if why:
            failures.append(f"rho {rho!r}: " + "; ".join(why))
    return RepResult(
        wall,
        len(points),
        len(failures),
        failures,
        bytes_written=dir_bytes(out_dir),
        detail={
            "converged_points": len(points) - len(failures),
            "lambda_rel_err_max": max(errs, default=float("nan")),
        },
    )


def validate_rep(pkg, seed: int) -> RepResult:
    """`dropsteady validate --seed <seed>`: passes only if every Check did."""
    t0 = time.perf_counter()
    try:
        checks = pkg.validate.run_validation(seed=seed)
    except Exception:
        return RepResult(time.perf_counter() - t0, 1, 1, [traceback.format_exc(limit=3)])
    wall = time.perf_counter() - t0
    bad = [c.row() for c in checks if not c.passed]
    if not checks:
        bad.append("no checks ran")
    return RepResult(wall, 1, int(bool(bad)), bad, detail={"checks": len(checks)})


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, pkg, name: str, seed: int):
        self.pkg, self.name, self.seed = pkg, name, seed
        spec = WORKLOADS[name]
        self.kind = spec["kind"]
        self.dir = fresh_dir(WORK / f"{name}-{seed}")
        self.out = self.dir / "out"
        self.points = None
        if self.kind == "validate":
            self.inputs = f"validate --seed {seed}"
            self.setup_cfg = pkg.driver.SolveConfig(**VALIDATE_SETUP)
            return
        overrides = {"band_limit": spec["band_limit"]}
        if self.kind == "sweep":
            self.points = sweep_points(seed)
            overrides["rho_tilde"] = self.points[0]
            self.inputs = {"rho_tilde": self.points, "threads": SWEEP_THREADS}
        else:
            self.inputs = "fixed config; the seed does not change it"
        self.cfg_path = self.dir / "input.cfg"
        self.cfg_path.write_text(config_text(overrides))
        self.setup_cfg = pkg.io.load_config(str(self.cfg_path))

    # Each rep and set-up starts after a full collection, outside its timing.
    def rep(self, warmup: bool = False) -> RepResult:
        gc.collect()
        if self.kind == "solve":
            return solve_rep(self.pkg, self.cfg_path, self.out)
        if self.kind == "sweep":
            # the warm-up is a two-point sweep: same code paths and threads
            pts = self.points[:SWEEP_THREADS] if warmup else self.points
            return sweep_rep(self.pkg, self.cfg_path, self.out, pts)
        return validate_rep(self.pkg, self.seed)

    def setup(self) -> float:
        gc.collect()
        return setup_rep(self.pkg, self.setup_cfg)


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples
    beyond it (none below 11 samples)."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "values": values}
    if n >= 11:
        pct = math.floor(100.0 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def environment(pkg) -> dict:
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # numpy < 1.26 has no mode=
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    src = ROOT / "src" / "dropsteady"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "package_version": pkg.__version__,
    }


def layer_metrics(tracer: Tracer, rep_id: int, res: RepResult) -> dict:
    """Per-layer numbers of one traced rep."""
    summ = tracer.rep_summary(rep_id)
    fns, counters = summ["functions"], summ["counters"]
    out = {}
    for name in tracer.names:
        row = fns.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + row["self_s"]
    out["bench.self_s"] = fns["rep"]["self_s"]
    for key in ("sphere.shells", "sphere.legendre_flops", "driver.picard_iters"):
        out[key] = counters.get(key, 0)
    iters = counters.get("driver.picard_iters", 0)
    in_picard = tracer.descendants_count(rep_id, "driver.picard_solve", SPHERE_TRANSFORMS)
    out["volume.transforms_per_picard_step"] = in_picard / iters if iters else 0.0
    out["stokes.solver_builds"] = fns.get("stokes.TwoPhaseStokesSolver", {}).get("calls", 0)
    n_inv = fns.get("stokes.solve_two_phase", {}).get("calls", 0)
    inner = tracer.descendants_count(
        rep_id, "stokes.solve_two_phase", ["stokes.TwoPhaseStokesSolver.solve"]
    )
    out["stokes.solves_per_inverse"] = inner / n_inv if n_inv else 0.0
    out["io.bytes_written"] = res.bytes_written
    # sweep wall time, and the share of the pool's threads busy in a point
    sweep_wall = fns.get("cli.cmd_sweep", {}).get("total_s", 0.0)
    point_wall = fns.get("cli._sweep_point", {}).get("total_s", 0.0)
    out["cli.sweep_wall_s"] = sweep_wall
    out["cli.sweep_parallel_efficiency"] = (
        point_wall / (SWEEP_THREADS * sweep_wall) if sweep_wall else 0.0
    )
    out["trace.spans"] = sum(row["calls"] for row in fns.values())
    return out


def run(args) -> tuple[dict, dict, int, int]:
    pkg = import_package()
    wl = Workload(pkg, args.workload, args.seed)
    setup_cold = wl.setup()
    warmup = wl.rep(warmup=True)
    tracer = Tracer() if args.trace else None
    measured, traced, layer_rows = [], [], []

    def traced_rep():
        rep_id = len(traced)
        with tracer:
            tracer.open_rep(rep_id)
            res = wl.rep()
            tracer.close_rep()
        traced.append(res)
        layer_rows.append(layer_metrics(tracer, rep_id, res))

    t_end = time.perf_counter() + args.seconds
    while True:
        # traced and untraced reps pair up, alternating which runs first
        traced_first = tracer is not None and len(measured) % 2 == 0
        if traced_first:
            traced_rep()
        measured.append(wl.rep())
        if tracer is not None and not traced_first:
            traced_rep()
        if time.perf_counter() >= t_end:
            break
    setups = [r.setup for r in measured if r.setup is not None]
    while len(setups) < SETUP_SAMPLES:
        setups.append(wl.setup())

    results = [warmup, *measured, *traced]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    failures = [f for r in results for f in r.failures]
    walls = [r.wall for r in measured]
    e2e = {
        "time_to_solution_s": summary(walls),
        "setup_s": summary(setups),
        "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1},
    }
    info = {
        "setup_cold_s": setup_cold,
        "failed_fraction": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "io_bytes_per_rep": statistics.median(r.bytes_written for r in measured),
        "rep_detail": measured[-1].detail,
    }
    if wl.kind == "sweep":
        info["sweep_points_per_s"] = summary(
            [r.detail.get("converged_points", 0) / r.wall for r in measured]
        )
    if wl.kind == "validate":
        info["validate_s"] = e2e["time_to_solution_s"]
    layers = {}
    if tracer is not None:
        layers = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        t_med = statistics.median(r.wall for r in traced)
        u_med = statistics.median(walls)
        layers["trace.overhead_s"] = t_med - u_med
        layers["trace.overhead_pct"] = 100.0 * (t_med - u_med) / u_med
        layers["trace.span_cost_s"] = layers["trace.spans"] * span_cost()
        info["traced_reps"] = len(traced)
        tracer.write_jsonl(str(WORK / f"{args.workload}-{args.seed}.spans.jsonl"))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": wl.inputs,
        "end_to_end": e2e,
        "info": info,
        "per_layer": layers,
        "environment": environment(pkg),
    }
    shutil.rmtree(wl.dir, ignore_errors=True)
    return report, {k: v["median"] for k, v in e2e.items()} | layers, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dropsteady" / "__init__.py").is_file():
        print(f"no dropsteady package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    WORK.mkdir(exist_ok=True)
    report, values, attempted, failed = run(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
