"""The benchmark's span tracer (bench/spans.py) finds every function it wraps.

The tracer wraps package functions by name from outside the package, so a
renamed or deleted target breaks the benchmark's traced run
(``bench/run.py --trace 1``).  This test keeps that contract in the
package's own suite.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import TARGETS, Tracer, span_name  # noqa: E402


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


def test_solve_builds_each_object_once():
    """A traced solve builds one Stokes solver, runs no residual report,
    maps the interface once per assembly plus once for the diagnostics,
    and takes two X-norms per Picard step."""
    from dropsteady import driver, operators

    cfg = driver.SolveConfig(band_limit=8, n_r_int=12, n_r_ext=20)
    tracer = Tracer()
    with tracer:  # the wrapped functions are reached through their modules
        tracer.open_rep(0)
        try:
            ctx = operators.build_context(cfg.build_grid(), cfg.params(), alpha=cfg.alpha)
            bundle = driver.picard_solve(cfg, ctx=ctx)
            driver.diagnostics(bundle)
        finally:
            tracer.close_rep()
    summary = tracer.rep_summary(0)
    calls = {name: row["calls"] for name, row in summary["functions"].items()}
    iters = summary["counters"]["driver.picard_iters"]
    assert iters == len(bundle.history) >= 1
    assert calls["stokes.TwoPhaseStokesSolver"] == 1
    assert calls.get("stokes.residual_report", 0) == 0
    assert calls["geometry.build_map"] == calls["operators.assemble_N"] + 1
    assert calls["operators.norm_X"] == 2 * iters
