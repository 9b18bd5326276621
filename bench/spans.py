"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``dropsteady`` layers from the
outside: each wrapper is installed in every ``dropsteady`` module that
binds the function by name (``from .volume import scalar_gradient`` makes
a second binding), so calls made through any of those names are seen.
Nothing in the package itself is changed, and ``uninstall`` restores
every original binding.

A span records its name, start, end, parent span, thread and rep id.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its children in the same thread; the
children of one span in one thread run one after another, so their
durations never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
import threading
import time

# (layer module, attribute path).  A span is named "<layer>.<path>", with a
# constructor named after its class; the "validate" layer's spans are the
# entries of validate.CHECK_GROUPS, named "validate.<group>".
TARGETS = [
    ("sphere", "analysis_batch"),
    ("sphere", "synthesis_batch"),
    ("sphere", "tangent_analysis_batch"),
    ("sphere", "tangent_synthesis_batch"),
    ("radial", "InteriorRadial.deriv"),
    ("radial", "ExteriorRadial.deriv"),
    ("volume", "scalar_gradient"),
    ("volume", "d3"),
    ("volume", "vector_gradient"),
    ("volume", "vector_divergence"),
    ("volume", "vector_laplacian"),
    ("volume", "tensor_divergence"),
    ("volume", "vsh_channels"),
    ("volume", "vsh_assemble"),
    ("geometry", "build_map"),
    ("geometry", "transformed_stress"),
    ("geometry", "curvature_nonlinear"),
    ("stokes", "auxiliary_field"),
    ("stokes", "solve_two_phase"),
    ("stokes", "TwoPhaseStokesSolver.__init__"),
    ("stokes", "TwoPhaseStokesSolver.solve"),
    ("stokes", "residual_report"),
    ("operators", "build_context"),
    ("operators", "assemble_N"),
    ("operators", "invert_L"),
    ("operators", "invert_L_with_tail"),
    ("operators", "apply_L"),
    ("operators", "norm_X"),
    ("operators", "norm_Y"),
    ("driver", "picard_solve"),
    ("driver", "diagnostics"),
    ("io", "load_config"),
    ("io", "solve_artifacts"),
    ("cli", "cmd_sweep"),
    ("cli", "_sweep_point"),
    ("halfspace", "residual_check"),
    ("halfspace", "twophase_jump_halfspace"),
    ("halfspace", "dirichlet_stokes_halfspace"),
    ("dropflow", "drag_e3"),
]

SPHERE_TRANSFORMS = (
    "sphere.analysis_batch",
    "sphere.synthesis_batch",
    "sphere.tangent_analysis_batch",
    "sphere.tangent_synthesis_batch",
)


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.removesuffix('.__init__')}"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    thread: int
    rep: int


def _legendre_flops(name: str, args, kwargs) -> tuple[int, int]:
    """Rows transformed and Legendre-stage flops of one sphere transform.

    Computed from array shapes, not measured: each (m, l) dot product over
    n_theta Gauss nodes costs 2 n_theta flops per row.  A scalar transform
    does 2L+1 such products per degree; a tangent transform does 2 for m=0
    and 8 for each m >= 1.
    """
    grid, arr = args[0], args[1]
    band = kwargs["band"] if "band" in kwargs else args[-1]
    rows = math.prod(arr.shape[:-2])
    dots = 2 * band + 1 if name in SPHERE_TRANSFORMS[:2] else 2 + 8 * band
    return rows, 2 * rows * grid.n_theta * (band + 1) * dots


class Tracer:
    """Collects spans and counters while installed and a rep is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.rep: int | None = None
        self.names: list[str] = []  # span names of the installed wrappers
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, key: str, value: float) -> None:
        if self.rep is None:
            return
        with self._lock:
            k = (self.rep, key)
            self.counters[k] = self.counters.get(k, 0) + value

    def wrap(self, name: str, fn):
        tracer = self
        if name not in self.names:
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rep = tracer.rep
            if rep is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, 0.0, parent, threading.get_ident(), rep)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in SPHERE_TRANSFORMS:
                rows, flops = _legendre_flops(name, args, kwargs)
                tracer.count("sphere.shells", rows)
                tracer.count("sphere.legendre_flops", flops)
            elif name == "driver.picard_solve":
                tracer.count("driver.picard_iters", len(result.history))
            return result

        return wrapper

    def open_rep(self, rep: int) -> int:
        """Start a rep and its root span; returns the root span index."""
        self.rep = rep
        span = Span("rep", time.perf_counter(), 0.0, None, threading.get_ident(), rep)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        self._stack().append(idx)
        return idx

    def close_rep(self) -> None:
        idx = self._stack().pop()
        self.spans[idx].end = time.perf_counter()
        self.rep = None

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in every dropsteady module that binds it."""
        for layer in [*(layer for layer, _ in TARGETS), "validate"]:
            importlib.import_module(f"dropsteady.{layer}")
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "dropsteady" or name.startswith("dropsteady.")
        }
        for layer, path in TARGETS:
            mod = mods[f"dropsteady.{layer}"]
            name = span_name(layer, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        groups = mods["dropsteady.validate"].CHECK_GROUPS
        for group, fn in list(groups.items()):
            self._set(groups, group, self.wrap(f"validate.{group}", fn), item=True)

    def _set(self, owner, key, value, item: bool = False) -> None:
        if item:
            self._restore.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig, item in reversed(self._restore):
            if item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``spans``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].thread == s.thread:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def rep_summary(self, rep: int) -> dict:
        """Calls, self seconds and total seconds per span name, plus counters."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s, st in zip(self.spans, selfs):
            if s.rep != rep:
                continue
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += st
            row["total_s"] += s.end - s.start
        counters = {k: v for (r, k), v in self.counters.items() if r == rep}
        return {"functions": out, "counters": counters}

    def descendants_count(self, rep: int, ancestor: str, names) -> int:
        """Spans named in ``names`` that have an ``ancestor`` span above them."""
        names = set(names)
        n = 0
        for s in self.spans:
            if s.rep != rep or s.name not in names:
                continue
            p = s.parent
            while p is not None:
                if self.spans[p].name == ancestor:
                    n += 1
                    break
                p = self.spans[p].parent
        return n

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds, measured on n calls of a wrapped no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    tracer.open_rep(0)
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    tracer.close_rep()
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    return max(traced - (time.perf_counter() - t0), 0.0) / n
