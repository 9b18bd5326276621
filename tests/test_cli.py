"""Config parsing, artifacts, manifest reproducibility, CLI exit codes."""

import dataclasses
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from dropsteady import dropflow
from dropsteady.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from dropsteady.driver import R_INF_MAX, SolveConfig, picard_solve
from dropsteady.io import _SECTIONS, ConfigError, dump_config, fmt, load_config
from dropsteady.volume import vsh_channels

SMALL = """
[physics]
rho_tilde = 1e-3

[discretization]
band_limit = 10
n_r_int = 18
n_r_ext = 28

[iteration]
max_iters = 30
"""


@pytest.fixture(scope="module")
def cfgfile(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "run.cfg"
    p.write_text(SMALL)
    return str(p)


@pytest.fixture(scope="module")
def solved_out(cfgfile, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    assert main(["solve", "--config", cfgfile, "--out", out, "--emit-modes"]) == EXIT_OK
    return out


def test_config_round_trip(tmp_path):
    cfg = SolveConfig(rho_tilde=2e-3, band_limit=10, n_r_int=18, n_r_ext=28)
    p = tmp_path / "c.cfg"
    p.write_text(dump_config(cfg))
    back = load_config(str(p))
    assert back == cfg


def test_config_sections_are_the_config_fields(tmp_path):
    """The config file's sections name every SolveConfig field once, and a
    config with every field off its default survives dump and load with
    its values and their types."""
    keys = [key for section in _SECTIONS.values() for key in section]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(SolveConfig))
    assert len(set(keys)) == len(keys)
    cfg = SolveConfig(
        rho_tilde=-2.5e-3, mu1=1.5, mu2=0.7, sigma=2.25, alpha=0.8123456789012345,
        band_limit=10, n_r_int=18, n_r_ext=28, r_inf=48.5, max_iters=30, tol_fixed_point=3e-10,
    )
    default = SolveConfig()
    assert all(getattr(cfg, key) != getattr(default, key) for key in keys)
    p = tmp_path / "c.cfg"
    p.write_text(dump_config(cfg))
    back = load_config(str(p))
    assert back == cfg
    assert all(type(getattr(back, key)) is type(getattr(default, key)) for key in keys)


def test_malformed_config_reports_key(tmp_path):
    bad = "[physics]\nrho_tilde = 1e-3\nbogus_key = 2\n"
    p = tmp_path / "bad.cfg"
    p.write_text(bad)
    m = tmp_path / "manifest.txt"
    m.write_text(
        "# --- begin embedded config (extractable) ---\n"
        + bad
        + "# --- end embedded config ---\n"
    )
    for path in (p, m):
        with pytest.raises(ConfigError) as e:
            load_config(str(path))
        assert "bogus_key" in str(e.value)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("line", ["band_limit = 0", "r_inf = 8"])
def test_out_of_range_value_is_config_error(tmp_path, line):
    p = tmp_path / "range.cfg"
    p.write_text(f"[discretization]\n{line}\n")
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert line.split()[0] in str(e.value)
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("command", [[], ["sweep", "--rho-grid", "1e-3"]])
def test_huge_r_inf_is_config_error(tmp_path, capsys, command):
    """An r_inf far above the bound would overflow the cutoff's R**2 with a
    traceback; it is a config error, reported on one line."""
    text = dump_config(SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12))
    p = tmp_path / "far.cfg"
    p.write_text(re.sub(r"(?m)^r_inf = .*$", "r_inf = 1e160", text))
    argv = (command or ["solve"]) + ["--config", str(p), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and "r_inf" in lines[0]


@pytest.mark.parametrize(
    "value, code",
    [
        ("0", EXIT_CONFIG),
        ("-1", EXIT_CONFIG),
        ("1e-300", EXIT_CONFIG),
        (repr(np.nextafter(1e-100, 0.0)), EXIT_CONFIG),
        ("1e-100", None),
        ("1e100", None),
        (repr(np.nextafter(1e100, np.inf)), EXIT_CONFIG),
        ("1e300", EXIT_CONFIG),
    ],
)
@pytest.mark.parametrize("key", ["mu1", "mu2", "sigma"])
def test_material_domain(tmp_path, capsys, key, value, code):
    """Each of mu1, mu2 and sigma either lies in MATERIAL_RANGE, where a
    band_limit-4 solve solves or fails with one line and no numpy warning,
    or is a config error; sigma = 1e-300 and mu1 = 1e300 used to print a
    RuntimeWarning before the failure line."""
    text = dump_config(SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12))
    p = tmp_path / "material.cfg"
    p.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert got == code if code is not None else got in (EXIT_OK, EXIT_SOLVER)
    assert not caught and "Traceback" not in out + err
    lines = err.splitlines()
    assert len(lines) <= 1
    if got == EXIT_CONFIG:
        assert lines[0].startswith("config error:")


@pytest.mark.parametrize("rho", [-0.5, -0.9])
def test_overflowing_drift_norm_is_one_line(tmp_path, capsys, rho):
    """At r_inf = R_INF_MAX the drift iteration diverges at these rho_tilde,
    and its update norm overflows: the norm reads inf without a numpy
    warning, and the failure is one line."""
    text = dump_config(SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12, r_inf=R_INF_MAX, rho_tilde=rho))
    p = tmp_path / "overflow.cfg"
    p.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert got == EXIT_SOLVER
    assert not caught, [str(w.message) for w in caught]
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure:")


FLOAT_KEYS = [key for key, value in vars(SolveConfig()).items() if isinstance(value, float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_value_is_config_error(tmp_path, capsys, key, value):
    """NaN passes a range check written as a comparison, and +inf passes
    some: either is a config error before any operator is built."""
    text = dump_config(SolveConfig(band_limit=4, n_r_int=8, n_r_ext=12))
    p = tmp_path / "nonfinite.cfg"
    p.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and key in lines[0]


def test_bad_value_reports_context(tmp_path):
    p = tmp_path / "bad2.cfg"
    p.write_text("[physics]\nrho_tilde = not_a_number\n")
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert "rho_tilde" in str(e.value)


def test_missing_config_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_solver_failure_exit_code(tmp_path):
    p = tmp_path / "huge.cfg"
    p.write_text(
        "[physics]\nrho_tilde = 0.4\n\n[discretization]\nband_limit = 8\n"
        "n_r_int = 14\nn_r_ext = 22\n\n[iteration]\nmax_iters = 6\n"
    )
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_SOLVER


def test_non_contraction_is_one_line(tmp_path, cfgfile, monkeypatch, capsys):
    """An iteration that stops contracting fails the solve with one stderr
    line that carries the iteration count and the last update."""
    from dropsteady import driver

    history = [{"iter": k, "update": u} for k, u in enumerate((1e-3, 2e-3, 5e-3))]

    def fail(*args, **kwargs):
        raise driver.NonContraction(history)

    monkeypatch.setattr(driver, "picard_solve", fail)
    capsys.readouterr()
    assert main(["solve", "--config", cfgfile, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["solver failure: fixed-point iteration stopped contracting after 3 iterations (last update 5.000e-03)"]


def test_unconverged_solve_is_solver_failure(tmp_path, capsys):
    p = tmp_path / "short.cfg"
    p.write_text(SMALL.replace("max_iters = 30", "max_iters = 1"))
    out = tmp_path / "out1"
    capsys.readouterr()
    assert main(["solve", "--config", str(p), "--out", str(out)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "converged = False" in (out / "manifest.txt").read_text()
    assert (out / "interface_shape.csv").exists()
    sw = tmp_path / "sw1"
    assert main(["sweep", "--config", str(p), "--out", str(sw), "--rho-grid", "1e-3"]) == EXIT_OK
    lines = (sw / "sweep.csv").read_text().strip().splitlines()
    assert lines[1].endswith("failed: NotConverged")


def test_under_resolved_solve_is_solver_failure(tmp_path, capsys):
    """On this grid the update meets tol_fixed_point while the fixed-point
    residual stays near 9e-3: the solve is not resolved, so it fails."""
    p = tmp_path / "coarse.cfg"
    p.write_text("[discretization]\nband_limit = 2\nn_r_int = 1\nn_r_ext = 2\n")
    capsys.readouterr()
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "residual" in err[0]
    sw = tmp_path / "sw"
    assert main(["sweep", "--config", str(p), "--out", str(sw), "--rho-grid", "1e-3"]) == EXIT_OK
    lines = (sw / "sweep.csv").read_text().strip().splitlines()
    assert lines[1].endswith("failed: Unresolved")


def test_default_config_solves(tmp_path):
    p = tmp_path / "default.cfg"
    p.write_text("[physics]\nrho_tilde = 1e-3\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_trivial_solution_artifacts(tmp_path, capsys):
    """At rho_tilde = 0 the solve takes two updates of 0 and prints lambda
    as +0, without a sign."""
    p = tmp_path / "zero.cfg"
    p.write_text(SMALL.replace("rho_tilde = 1e-3", "rho_tilde = 0"))
    out = tmp_path / "out0"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == EXIT_OK
    assert "lambda=0.000000000e+00, iters=2," in capsys.readouterr().out
    shape = np.loadtxt(out / "interface_shape.csv", delimiter=",", skiprows=1)
    assert np.all(shape[:, 1] == 0.0)


def test_solve_artifacts_exist(solved_out):
    with open(os.path.join(solved_out, "manifest.txt")) as fh:
        listed = fh.read().split("[files]")[1]  # the manifest's file index
    for name in ("interface_shape.csv", "shell_profiles.csv", "diagnostics.txt", "mode_tables.csv"):
        assert os.path.exists(os.path.join(solved_out, name))
        assert f"= {name}" in listed


def test_residual_rows_are_flat_report_keys(solved_out):
    """diagnostics.txt and the manifest give each row of the final residual
    as its own full-precision number, and the rows add up to the total."""
    for name in ("diagnostics.txt", "manifest.txt"):
        with open(os.path.join(solved_out, name)) as fh:
            found = dict(re.findall(r"(?m)^(fixed_point_residual\w*) = (\S+)$", fh.read()))
        total = float(found.pop("fixed_point_residual"))
        assert sorted(found) == sorted(f"fixed_point_residual_{k}" for k in ("f", "g", "h1", "h2", "a1", "a2", "h3"))
        assert sum(float(v) for v in found.values()) == pytest.approx(total, rel=1e-14, abs=0.0)


def test_mode_tables_hold_the_m0_channels(solved_out, cfgfile):
    """--emit-modes on the band grid writes the m = 0 profiles of
    vsh_channels(u), every nonzero one and nothing else."""
    bundle = picard_solve(load_config(cfgfile))
    grid = bundle.ctx.grid
    n = grid.interior.n
    want = {}
    for cname, arr in zip(("radial", "spheroidal", "toroidal"), vsh_channels(bundle.state.u)):
        for phase, sel in (("drop", slice(None, n)), ("reservoir", slice(n, None))):
            for l in range(arr.shape[-2]):
                col = arr[sel, l, arr.shape[-1] // 2]
                if np.any(col != 0.0):
                    want[(phase, cname, l)] = list(zip(grid.r[sel], col))
    got = {}
    with open(os.path.join(solved_out, "mode_tables.csv")) as fh:
        next(fh)
        for line in fh:
            phase, cname, l, m, r, v = line.strip().split(",")
            if phase != "eta":
                assert m == "0"
                got.setdefault((phase, cname, int(l)), []).append((float(r), float(v)))
    assert want and got == want


def test_manifest_reproduces_run(solved_out, cfgfile, tmp_path):
    # a manifest is recognised by its embedded config block, not its file name
    for name in ("manifest.txt", "rerun.txt"):
        manifest = tmp_path / name
        shutil.copy(os.path.join(solved_out, "manifest.txt"), manifest)
        assert load_config(str(manifest)) == load_config(cfgfile)
        out2 = tmp_path / f"out-{name}"
        code = main(["solve", "--config", str(manifest), "--out", str(out2)])
        assert code == EXIT_OK
        for csv in ("interface_shape.csv", "shell_profiles.csv"):
            with open(os.path.join(solved_out, csv), "rb") as a, open(out2 / csv, "rb") as b:
                assert a.read() == b.read()


def test_validate_filter_and_fault(capsys, monkeypatch):
    assert main(["validate", "--only", "curvature"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "curvature" in out and "PASS" in out
    # an oracle that reads a reservoir viscosity 2% off: drop-flow must fail
    velocity, drag_e3 = dropflow.velocity, dropflow.drag_e3
    monkeypatch.setattr(dropflow, "velocity", lambda x, y, z, mu1, mu2: velocity(x, y, z, mu1, 1.02 * mu2))
    monkeypatch.setattr(dropflow, "drag_e3", lambda mu1, mu2: drag_e3(mu1, 1.02 * mu2))
    assert main(["validate", "--only", "oseenlet"]) == EXIT_OK
    assert main(["validate", "--only", "drop-flow"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv, word",
    [(["--seed", "-1"], "--seed"), (["--only", "no-such-group"], "no-such-group")],
    ids=["negative seed", "unmatched filter"],
)
def test_validate_bad_arguments_are_config_errors(monkeypatch, capsys, argv, word):
    """Rejected before any check runs, with one line and exit 2."""

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("dropsteady.validate.run_validation", no_run)
    capsys.readouterr()
    assert main(["validate", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and word in err[0]


@pytest.mark.parametrize(
    "argv",
    [["--threads", "abc", "validate"], ["validate", "--seed", "x"], ["solve"], [], ["no-such-command"]],
    ids=["threads not an integer", "seed not an integer", "solve without config", "no command", "unknown command"],
)
def test_rejected_arguments_are_one_config_error_line(capsys, argv):
    """What argparse rejects is reported like any other config error: one
    line, no usage text, exit 2 returned, not raised."""
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "usage:" not in err[0]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_validate_default_report(tmp_path):
    assert main(["validate", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "validation_report.txt").read_text().splitlines()
    assert lines[-1] == "21/21 checks passed"


def test_bad_thread_count_is_config_error(tmp_path, cfgfile, monkeypatch, capsys):
    monkeypatch.setenv("DROP_STEADY_THREADS", "abc")
    capsys.readouterr()
    code = main(["sweep", "--config", cfgfile, "--out", str(tmp_path), "--rho-grid", "1e-3"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "DROP_STEADY_THREADS" in err[0]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_is_config_error(tmp_path, cfgfile, monkeypatch, capsys, threads):
    # an explicit --threads is checked, not read as unset or clamped
    monkeypatch.setenv("DROP_STEADY_THREADS", "4")
    capsys.readouterr()
    argv = ["--threads", threads, "sweep", "--config", cfgfile, "--out", str(tmp_path), "--rho-grid", "1e-3"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "--threads" in err[0]


def _ran_before_out_was_made(*args, **kwargs):
    raise AssertionError("the command did work before creating --out")


@pytest.mark.parametrize(
    "argv, work",
    [
        (["solve", "--config", "CFG"], "dropsteady.driver.picard_solve"),
        (["validate"], "dropsteady.validate.run_validation"),
        (["sweep", "--config", "CFG", "--rho-grid", "1e-3"], "dropsteady.stokes.auxiliary_field"),
    ],
    ids=["solve", "validate", "sweep"],
)
def test_out_that_cannot_be_created_is_config_error(tmp_path, cfgfile, monkeypatch, capsys, argv, work):
    """--out under a regular file fails with one config-error line before
    any solve or check runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    monkeypatch.setattr(work, _ran_before_out_was_made)
    capsys.readouterr()
    argv = [cfgfile if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and out in err[0]


def test_sweep(tmp_path, cfgfile):
    out = tmp_path / "sw"
    code = main(["sweep", "--config", cfgfile, "--out", str(out), "--rho-grid", "1e-3,0.4,1.0"])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[1].endswith("ok")
    assert lines[2].endswith("ok")  # converges although R is clamped to 4.5
    assert lines[3].endswith("failed: ValueError")  # |rho_tilde| >= 1 is rejected
    # a grid that starts with a minus sign is a value, not an option
    neg = tmp_path / "neg"
    code = main(["sweep", "--config", cfgfile, "--out", str(neg), "--rho-grid", "-1e-3,0"])
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in (neg / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["-0.001", "0"]
    assert all(r[-1] == "ok" for r in rows)
    assert float(rows[0][1]) > 0.0  # a lighter drop rises


def test_sweep_bytes_independent_of_threads(tmp_path, cfgfile):
    csv = []
    for n in ("1", "2"):
        out = tmp_path / f"t{n}"
        argv = ["--threads", n, "sweep", "--config", cfgfile, "--out", str(out), "--rho-grid", "1e-3,-5e-4"]
        assert main(argv) == EXIT_OK
        csv.append((out / "sweep.csv").read_bytes())
    assert csv[0] == csv[1]


def test_sweep_empty_grid(tmp_path, cfgfile):
    out = tmp_path / "sw0"
    assert main(["sweep", "--config", cfgfile, "--out", str(out), "--rho-grid", ""]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_lambda_scaling(tmp_path, cfgfile):
    out = tmp_path / "sw2"
    assert main(
        ["sweep", "--config", cfgfile, "--out", str(out), "--rho-grid", "1e-3,5e-4"]
    ) == EXIT_OK
    rows = np.genfromtxt(out / "sweep.csv", delimiter=",", skip_header=1, usecols=(0, 1))
    ratio = rows[0, 1] / rows[1, 1]
    assert abs(ratio - 2.0) < 0.1  # lambda approximately linear in rho_tilde


@pytest.mark.parametrize(
    "name, value, message, error",
    [
        ("RICHARDSON_MAX_ITER", 2, "no convergence in 2 iterations", "RichardsonDivergence"),
        ("RANK_RTOL", 1.0, "rank-deficient collocation block", "LinAlgError"),
    ],
)
def test_stokes_failure_is_solver_failure(tmp_path, cfgfile, monkeypatch, capsys, name, value, message, error):
    """An Oseen drift iteration that runs out of sweeps, or a collocation
    block that fails the rank check, fails the solve with one line and
    fails every sweep point, instead of returning a result."""
    from dropsteady import stokes

    monkeypatch.setattr(stokes, name, value)
    capsys.readouterr()
    assert main(["solve", "--config", cfgfile, "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "solved" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    sw = tmp_path / "sw"
    argv = ["sweep", "--config", cfgfile, "--out", str(sw), "--rho-grid", "1e-3,5e-4"]
    assert main(argv) == EXIT_OK
    lines = (sw / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3 and all(ln.endswith(f"failed: {error}") for ln in lines[1:])


def test_sweep_contraction_ratio_is_largest(tmp_path, cfgfile):
    """The contraction_ratio column is the largest Picard ratio of the point,
    which at rho_tilde = 0.1 is not the first."""
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfgfile, "--out", str(out), "--rho-grid", "1e-3,0.1"]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    col = lines[0].split(",").index("contraction_ratio")
    cfg = load_config(cfgfile)
    for line, rho in zip(lines[1:], (1e-3, 0.1)):
        ratios = picard_solve(dataclasses.replace(cfg, rho_tilde=rho)).report["contraction_ratios"]
        assert line.split(",")[col] == fmt(max(ratios))
    assert max(ratios) > ratios[0]


def test_sweep_iterations_and_residual_columns(tmp_path):
    """Each sweep row carries the point's Picard count and fixed-point
    residual, as picard_solve reports them, before the status field; a
    failed point reads NaN in both, so that every non-status field parses
    as a number."""
    from dropsteady.cli import SWEEP_COLUMNS, _failed_row

    cfg = SolveConfig(band_limit=8)
    p = tmp_path / "l8.cfg"
    p.write_text(dump_config(cfg))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(p), "--out", str(out), "--rho-grid", "1e-3,-5e-4"]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[-3:] == ["iterations", "fixed_point_residual", "status"]
    for line, rho in zip(lines[1:], (1e-3, -5e-4)):
        row = dict(zip(header, line.split(",")))
        bundle = picard_solve(dataclasses.replace(cfg, rho_tilde=rho))
        assert row["status"] == "ok"
        assert row["iterations"] == str(len(bundle.history))
        assert row["fixed_point_residual"] == fmt(bundle.report["fixed_point_residual"])
    failed = _failed_row(1.0, ValueError("rejected"))
    assert list(failed) == list(SWEEP_COLUMNS)
    assert np.isnan(failed["iterations"]) and np.isnan(failed["fixed_point_residual"])
