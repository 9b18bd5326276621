"""Self-tests of the benchmark, kept out of the package's test discovery.

    python3 -m pytest -q bench/tests/selftest_bench.py

They run small L=8 solves (a few seconds each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from spans import Tracer, span_cost  # noqa: E402

SMALL = {"band_limit": 8}


@pytest.fixture(scope="module")
def pkg():
    return bench.import_package()


def _config(tmp_path: Path, **overrides) -> Path:
    path = tmp_path / "input.cfg"
    path.write_text(bench.config_text({**SMALL, **overrides}))
    return path


def _traced_solve(pkg, tracer: Tracer, rep: int, cfg: Path, out: Path):
    with tracer:
        tracer.open_rep(rep)
        t0 = time.perf_counter()
        res = bench.solve_rep(pkg, cfg, out)
        tracer.close_rep()
        wall = time.perf_counter() - t0
    return res, wall


def test_traced_counts_repeat(pkg, tmp_path):
    cfg = _config(tmp_path)
    tracer = Tracer()
    rows = []
    for rep in range(2):
        res, _ = _traced_solve(pkg, tracer, rep, cfg, tmp_path / "out")
        assert res.failed == 0, res.failures
        rows.append(bench.layer_metrics(tracer, rep, res))
    # io.bytes_written is left out: the manifest holds timings and a timestamp
    exact = [k for k in rows[0] if k.endswith(".calls")] + [
        "sphere.shells", "sphere.legendre_flops", "driver.picard_iters",
        "volume.transforms_per_picard_step", "stokes.solver_builds", "stokes.solves_per_inverse",
    ]
    counts = [{k: row[k] for k in exact} for row in rows]
    assert counts[0] == counts[1]
    assert counts[0]["driver.picard_iters"] == 3
    assert counts[0]["sphere.shells"] > 0


def test_self_times_sum_to_wall(pkg, tmp_path):
    tracer = Tracer()
    res, wall = _traced_solve(pkg, tracer, 0, _config(tmp_path), tmp_path / "out")
    assert res.failed == 0, res.failures
    selfs = tracer.self_times()
    assert all(st >= 0.0 for st in selfs)
    # the measured tracing overhead of the rep: its spans times one span's cost
    assert abs(wall - sum(selfs)) <= len(tracer.spans) * span_cost()


def test_unconverged_solve_counts_as_failed(pkg, tmp_path):
    res = bench.solve_rep(pkg, _config(tmp_path, max_iters=1), tmp_path / "out")
    assert res.ops == 1 and res.failed == 1
    assert "not converged" in res.failures


def test_sweep_counts_points(pkg, tmp_path):
    points = bench.sweep_points(0)[:2]
    cfg = _config(tmp_path, rho_tilde=points[0])
    res = bench.sweep_rep(pkg, cfg, tmp_path / "out", points)
    assert (res.ops, res.failed) == (2, 0), res.failures


def test_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "solve-L16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
