"""Config files, run manifests and CSV artifacts.

Config format: flat key = value text with sections (configparser
syntax).  All numeric output is CSV with a header row and 17 significant
digits, so identical configs reproduce identical bytes at a fixed
thread count.
"""

from __future__ import annotations

import configparser
import os
import time
from dataclasses import asdict
from typing import get_type_hints

import numpy as np

from . import __version__
from .driver import SolveConfig
from .sphere import cartesian_to_spherical
from .volume import EXTERIOR, eval_radii, vsh_channels

__all__ = [
    "ConfigError",
    "load_config",
    "dump_config",
    "write_manifest",
    "write_csv",
    "fmt",
]

_SECTIONS = {
    "physics": ("rho_tilde", "mu1", "mu2", "sigma"),
    "discretization": ("band_limit", "n_r_int", "n_r_ext", "r_inf"),
    "iteration": ("alpha", "max_iters", "tol_fixed_point"),
}
_INT_KEYS = {key for key, kind in get_type_hints(SolveConfig).items() if kind is int}
_BEGIN_CONFIG = "# --- begin embedded config (extractable) ---"
_END_CONFIG = "# --- end embedded config ---"


class ConfigError(ValueError):
    pass


def fmt(x) -> str:
    """Full-precision text for a float (17 significant digits)."""
    return format(float(x), ".17g")


def load_config(path: str) -> SolveConfig:
    """Parse a config file, or the config block embedded in a run manifest;
    every fault is a ConfigError naming ``path``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: config file not found or unreadable") from e
    if _BEGIN_CONFIG in text:
        text = text.split(_BEGIN_CONFIG)[1].split(_END_CONFIG)[0]
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=path)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    kwargs = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
            try:
                kwargs[key] = int(raw) if key in _INT_KEYS else float(raw)
            except ValueError as e:
                raise ConfigError(
                    f"{path}: key '{key}' in [{section}]: bad value {raw!r}"
                ) from e
    try:
        return SolveConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def dump_config(cfg: SolveConfig) -> str:
    d = asdict(cfg)
    out = []
    for section, keys in _SECTIONS.items():
        out.append(f"[{section}]")
        for k in keys:
            v = d[k]
            out.append(f"{k} = {v if k in _INT_KEYS else fmt(v)}")
        out.append("")
    return "\n".join(out)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in row) + "\n")


def _fmt_value(v):
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    if isinstance(v, np.ndarray):
        return "[" + " ".join(fmt(x) for x in v.ravel()) + "]"
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(fmt(x) for x in v) + "]"
    return str(v)


def write_manifest(path: str, cfg: SolveConfig, bundle, report: dict, files: dict) -> None:
    """Structured-text manifest; the embedded config block reproduces the run."""
    lines = ["# dropsteady run manifest", ""]
    lines.append("[manifest]")
    lines.append(f"version = {__version__}")
    lines.append(f"written_unix = {time.time():.3f}")
    lines.append("")
    lines.append(_BEGIN_CONFIG)
    lines.append(dump_config(cfg))
    lines.append(_END_CONFIG)
    lines.append("")
    lines.append("[timing]")
    for k, v in bundle.timing.items():
        lines.append(f"{k} = {_fmt_value(v)}")
    lines.append("")
    lines.append("[convergence]")
    lines.append(f"converged = {bundle.converged}")
    lines.append(f"iterations = {len(bundle.history)}")
    for h in bundle.history:
        ratio = h.get("ratio", float("nan"))
        lines.append(
            f"iter_{h['iter']} = update {fmt(h['update'])} ratio {fmt(ratio)}"
        )
    lines.append("")
    lines.append("[diagnostics]")
    for k in sorted(report):
        lines.append(f"{k} = {_fmt_value(report[k])}")
    lines.append("")
    lines.append("[files]")
    for k, v in files.items():
        lines.append(f"{k} = {v}")
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def solve_artifacts(
    out_dir: str, cfg: SolveConfig, bundle, report: dict, emit_modes: bool = False
) -> dict:
    """Write the solve outputs, with the per-mode tables if ``emit_modes``;
    returns the file index, which the manifest lists."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    g = bundle.ctx.grid.sphere
    eta = bundle.eta

    # interface shape: phi-averaged height profile
    shape_path = os.path.join(out_dir, "interface_shape.csv")
    prof = eta.values.mean(axis=1)
    write_csv(shape_path, ["theta", "eta"], zip(g.theta, prof))
    files["interface_shape"] = os.path.basename(shape_path)

    # velocity / pressure profiles on a set of shells (phi-averaged)
    w, q = bundle.physical.w, bundle.physical.q
    radii = np.array([1.5, 2.0, 4.0, 8.0, 16.0, 32.0])
    radii = radii[radii < bundle.ctx.grid.r_inf]
    u = cartesian_to_spherical(g, eval_radii(w, radii, EXTERIOR)).mean(axis=-1)
    pr = eval_radii(q, radii, EXTERIOR).mean(axis=-1)
    rr, th = np.meshgrid(radii, g.theta, indexing="ij")
    rows = zip(*(a.ravel() for a in (rr, th, *u, pr)))
    prof_path = os.path.join(out_dir, "shell_profiles.csv")
    write_csv(prof_path, ["r", "theta", "u_r", "u_theta", "u_phi", "pressure"], rows)
    files["shell_profiles"] = os.path.basename(prof_path)

    diag_path = os.path.join(out_dir, "diagnostics.txt")
    with open(diag_path, "w") as fh:
        for k in sorted(report):
            fh.write(f"{k} = {_fmt_value(report[k])}\n")
    files["diagnostics"] = os.path.basename(diag_path)
    if emit_modes:
        files["mode_tables"] = emit_mode_tables(out_dir, bundle)

    manifest_path = os.path.join(out_dir, "manifest.txt")
    write_manifest(manifest_path, cfg, bundle, report, files)
    files["manifest"] = os.path.basename(manifest_path)
    return files


def emit_mode_tables(out_dir: str, bundle) -> str:
    """Opt-in per-mode coefficient tables for offline visualization."""
    grid = bundle.ctx.grid
    g = grid.sphere
    L = g.band_limit
    ec = bundle.eta.coeffs
    K = ec.shape[-1] // 2  # m = 0 column
    rows = [("eta", "coeff", l, k - K, 0.0, ec[l, k]) for l, k in zip(*np.nonzero(ec))]
    chans = vsh_channels(bundle.state.u)
    n = grid.interior.n
    for name, sel in (("drop", slice(None, n)), ("reservoir", slice(n, None))):
        radii = grid.r[sel]
        for cname, arr in zip(("radial", "spheroidal", "toroidal"), chans[:, sel]):
            for l in range(L + 1):
                col = arr[:, l, arr.shape[-1] // 2]  # axisymmetric channel
                if np.max(np.abs(col)) == 0.0:
                    continue
                for r, v in zip(radii, col):
                    rows.append((name, cname, l, 0, r, v))
    path = os.path.join(out_dir, "mode_tables.csv")
    write_csv(path, ["phase", "channel", "l", "m", "r", "value"], rows)
    return os.path.basename(path)
