"""Command-line entry points: solve, validate, sweep.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 validation failure.
Thread count comes from --threads or the DROP_STEADY_THREADS variable;
sweeps run points concurrently, each in an isolated solve context.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4


def _threads(args) -> int:
    source, raw = "--threads", args.threads
    if raw is None:
        source, raw = "DROP_STEADY_THREADS", os.environ.get("DROP_STEADY_THREADS") or "1"
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{source} must be an integer, not {raw!r}") from None
    if n < 1:
        raise ValueError(f"{source} must be at least 1, not {n}")
    return n


def _make_out(path: str) -> None:
    """Create the --out directory before any work, so that a path that cannot
    be created is a config error and not a traceback after the solve."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ValueError(f"cannot create output directory {path}: {e.strerror}") from None


def cmd_solve(args) -> int:
    from .driver import FIXED_POINT_RESIDUAL_BOUND, diagnostics, picard_solve
    from .io import load_config, solve_artifacts

    try:
        cfg = load_config(args.config)
        _make_out(args.out)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        bundle = picard_solve(cfg)
        report = diagnostics(bundle)
    except (ValueError, RuntimeError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    files = solve_artifacts(args.out, cfg, bundle, report, emit_modes=args.emit_modes)
    if bundle.failure == "Unresolved":
        print(f"solver failure: fixed-point residual {report['fixed_point_residual']:.3e} "
              f"is not below {FIXED_POINT_RESIDUAL_BOUND:g} although the update met "
              f"tol_fixed_point; the grid is under-resolved (artifacts in {args.out})",
              file=sys.stderr)
        return EXIT_SOLVER
    if not bundle.converged:
        print(f"solver failure: no convergence in {len(bundle.history)} iterations "
              f"(artifacts in {args.out})", file=sys.stderr)
        return EXIT_SOLVER
    print(f"solved rho_tilde={cfg.rho_tilde:g}: lambda={bundle.lam:.9e}, "
          f"iters={len(bundle.history)}, residual={report['fixed_point_residual']:.3e}")
    print(f"artifacts in {args.out}: {', '.join(sorted(files.values()))}")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import check_groups, run_validation

    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, not {args.seed}")
        check_groups(args.only)
        if args.out:
            _make_out(args.out)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    checks = run_validation(only=args.only, seed=args.seed)
    lines = [c.row() for c in checks]
    failed = [c for c in checks if not c.passed]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    for ln in lines:
        print(ln)
    if args.out:
        with open(os.path.join(args.out, "validation_report.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if not failed else EXIT_VALIDATION


SWEEP_COLUMNS = (
    "rho_tilde",
    "lambda",
    "eta_norm",
    "contraction_ratio",
    "wake_coefficient",
    "force_defect",
    "iterations",
    "fixed_point_residual",
    "status",
)


def _failed_row(rho, err) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, float("nan"))
    row.update(rho_tilde=rho, status=f"failed: {type(err).__name__}")
    return row


def _sweep_point(cfg, rho, aux):
    """One sweep row; the point's context is built on the shared ``aux``."""
    from . import driver
    from .operators import build_context

    try:
        point = dataclasses.replace(cfg, rho_tilde=rho)
        ctx = build_context(aux.solver.grid, point.params(), alpha=point.alpha, aux=aux)
        # looked up at call time, so that a wrapper set on the module is used
        bundle = driver.picard_solve(point, ctx=ctx)
        rep = driver.diagnostics(bundle)
        ratios = rep["contraction_ratios"] or [float("nan")]
        return {
            "rho_tilde": rho,
            "lambda": bundle.lam,
            "eta_norm": rep["eta_norm"],
            "contraction_ratio": max(ratios),  # the slowest step the iteration took
            "wake_coefficient": rep["wake_coefficient"],
            "force_defect": rep["force_e3_defect_rel"],
            "iterations": len(bundle.history),
            "fixed_point_residual": rep["fixed_point_residual"],
            "status": "ok" if bundle.converged else f"failed: {bundle.failure}",
        }
    except (ValueError, RuntimeError) as e:
        return _failed_row(rho, e)


def cmd_sweep(args) -> int:
    from .io import load_config, write_csv
    from .stokes import auxiliary_field

    try:
        cfg = load_config(args.config)
        grid = [float(tok) for tok in args.rho_grid.split(",") if tok.strip()]
        n = _threads(args)
        _make_out(args.out)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    # the Stokes operators and the auxiliary field depend on the grid and
    # the viscosities only: built once, read-only, shared by every point
    try:
        aux = auxiliary_field(cfg.build_grid(), cfg.params()) if grid else None
    except (ValueError, RuntimeError) as e:
        rows = [_failed_row(r, e) for r in grid]
    else:
        with ThreadPoolExecutor(max_workers=n) as ex:
            rows = list(ex.map(lambda r: _sweep_point(cfg, r, aux), grid))
    path = os.path.join(args.out, "sweep.csv")
    write_csv(path, SWEEP_COLUMNS, ([row[k] for k in SWEEP_COLUMNS] for row in rows))
    ok = sum(1 for row in rows if row["status"] == "ok")
    print(f"sweep: {ok}/{len(rows)} points converged -> {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as one config error line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dropsteady",
        description="Steady falling-drop spectral solver",
    )
    ap.add_argument("--threads", type=int, default=None, help="worker threads (or DROP_STEADY_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run one steady-state solve")
    s.add_argument("--config", required=True, help="config file (or a run manifest to re-run)")
    s.add_argument("--out", default="out", help="output directory")
    s.add_argument(
        "--emit-modes", action="store_true", help="also write per-mode coefficient tables"
    )
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("validate", help="run the oracle/identity check suite")
    v.add_argument("--only", default=None, help="run only groups whose name contains this")
    v.add_argument("--out", default=None, help="also write the pass/fail table here")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_validate)

    w = sub.add_parser("sweep", help="density-contrast sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--out", default="out")
    w.add_argument("--rho-grid", required=True, help="comma-separated rho_tilde values")
    w.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a grid that starts with a minus sign as an option
    if "--rho-grid" in argv[:-1]:
        i = argv.index("--rho-grid")
        argv[i : i + 2] = [f"--rho-grid={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
