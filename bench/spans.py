"""Spans around the package's layer boundaries, recorded from outside.

The tracer rebinds module attributes at the names their callers resolve
(for example `qmarginal.marginal.partial_trace`, which the qudit constraint
closures look up at call time), so the package itself is not edited.  A span
is (name, parent, start, end, value); value carries a count read from the
call: iterations, reduction steps, constraint count or bytes written.
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import json
from array import array
from time import perf_counter

import numpy as np

from qmarginal import _engine, channels, cli, gallery, marginal, reduction, sector


def _iterations(args, kwargs, out) -> int:
    return out.iterations


def _steps(args, kwargs, out) -> int:
    return len(out[1].steps)


def _constraints(args, kwargs, out) -> int:
    system = args[0] if args else kwargs["system"]
    return len(system.constraints)


def _bytes(args, kwargs, out) -> int:
    return len(out.encode("utf-8"))


CASE = "bench.case"
SETUP = "bench.setup"
MAPS = ("hilbert.partial_trace.marginal", "hilbert.partial_trace.sector",
        "hilbert.embed_with_identity.marginal", "hilbert.embed_with_identity.sector")

# (module, attribute, span name, value reader)
WRAPS = (
    (_engine, "solve_feasible", "engine.solve_feasible", _iterations),
    (_engine, "project_affine", "engine.project_affine", _constraints),
    (_engine, "descent_direction_core", "engine.descent_direction_core", None),
    (_engine, "step_length_core", "engine.step_length_core", None),
    (_engine, "residual_report", "engine.residual_report", None),
    (_engine, "reduce_core", "engine.reduce_core", _steps),
    (_engine, "psd_project", "numerics.psd_project", None),
    (_engine, "support_basis", "hilbert.support_basis", None),
    (_engine, "numerical_rank", "numerics.numerical_rank", None),
    (marginal, "partial_trace", "hilbert.partial_trace.marginal", None),
    (marginal, "embed_with_identity", "hilbert.embed_with_identity.marginal", None),
    (sector, "partial_trace", "hilbert.partial_trace.sector", None),
    (sector, "embed_with_identity", "hilbert.embed_with_identity.sector", None),
    (sector, "sector_isometry", "hilbert.sector_isometry", None),
    (cli, "load_document", "documents.load_document", None),
    (cli, "dump_document", "documents.dump_document", _bytes),
    (np.linalg, "lstsq", "numpy.lstsq", None),
    # wiring entry points, at every name a caller resolves them by
    (marginal, "find_feasible", "marginal.find_feasible", None),
    (channels, "find_feasible", "marginal.find_feasible", None),
    (cli, "find_feasible", "marginal.find_feasible", None),
    (reduction, "reduce_rank", "reduction.reduce_rank", None),
    (channels, "reduce_rank", "reduction.reduce_rank", None),
    (cli, "reduce_rank", "reduction.reduce_rank", None),
    (cli, "find_feasible_sector", "sector.find_feasible_sector", None),
    (cli, "reduce_rank_sector", "sector.reduce_rank_sector", None),
    (cli, "reduce_kraus_rank", "channels.reduce_kraus_rank", None),
    (cli, "main", "cli.main", None),
    (gallery, "random_feasible_instance", "gallery.random_feasible_instance", None),
)


class Tracer:
    """Span recorder; install() rebinds the WRAPS names for its duration."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if reader is not None:
                self.value[idx] = reader(args, kwargs, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def install(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPS]
        try:
            for (mod, attr, name, reader), (_, _, fn) in zip(WRAPS, originals):
                setattr(mod, attr, self.wrap(fn, name, reader))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "value": self.value.tolist()}, fh)


def _nearest(tracer: Tracer, nid: int | None) -> list[int]:
    """For each span, the nearest span (itself included) with name id nid."""
    out = [-1] * len(tracer)
    if nid is None:
        return out
    for i, (n, p) in enumerate(zip(tracer.name, tracer.parent)):
        out[i] = i if n == nid else (out[p] if p >= 0 else -1)
    return out


def case_counts(tracer: Tracer) -> list[dict]:
    """Per case span, in order: solver iterations, reduction steps and
    hilbert map calls made under it."""
    ids = tracer._ids
    case_id = ids.get(CASE)
    owner = _nearest(tracer, case_id)
    cases: dict[int, dict] = {}
    iters_id, steps_id = ids.get("engine.solve_feasible"), ids.get("engine.reduce_core")
    map_ids = {ids[m] for m in MAPS if m in ids}
    for i, n in enumerate(tracer.name):
        c = owner[i]
        if c < 0:
            continue
        rec = cases.setdefault(c, {"iters": 0, "steps": 0, "map_calls": 0})
        if n == iters_id:
            rec["iters"] += tracer.value[i]
        elif n == steps_id:
            rec["steps"] += tracer.value[i]
        elif n in map_ids:
            rec["map_calls"] += 1
    return [cases[i] for i, n in enumerate(tracer.name) if n == case_id]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls, total seconds, self seconds and counts per span name, reduced to
    the per-layer metrics of BENCHMARK.json."""
    k = len(tracer.names)
    calls = [0] * k
    total = [0.0] * k
    child = [0.0] * len(tracer)
    value = [0] * k
    for i in range(len(tracer)):
        d = tracer.end[i] - tracer.start[i]
        n = tracer.name[i]
        calls[n] += 1
        total[n] += d
        value[n] += tracer.value[i]
        p = tracer.parent[i]
        if p >= 0:
            child[p] += d
    self_s = [0.0] * k
    for i in range(len(tracer)):
        self_s[tracer.name[i]] += tracer.end[i] - tracer.start[i] - child[i]

    def get(name, what):
        nid = tracer._ids.get(name)
        if nid is None:
            return 0
        return {"calls": calls, "s": total, "self_s": self_s, "value": value}[what][nid]

    ids = tracer._ids
    pa = ids.get("engine.project_affine")
    under_pa = _nearest(tracer, pa)
    map_ids = {ids[m] for m in MAPS if m in ids}
    maps_in_pa = sum(1 for i, n in enumerate(tracer.name)
                     if n in map_ids and under_pa[i] >= 0)
    rc = ids.get("engine.reduce_core")
    repair = sum(1 for i, n in enumerate(tracer.name)
                 if n == pa and tracer.parent[i] >= 0
                 and tracer.name[tracer.parent[i]] == rc)
    pa_constraints = get("engine.project_affine", "value")
    descents = get("engine.descent_direction_core", "calls")

    m = {
        "engine.descent_direction_core.calls": descents,
        "engine.descent_direction_core.self_s": get("engine.descent_direction_core", "self_s"),
        "numpy.lstsq.calls": get("numpy.lstsq", "calls"),
        "numpy.lstsq.s": get("numpy.lstsq", "s"),
        "engine.lstsq_per_descent": get("numpy.lstsq", "calls") / descents if descents else 0.0,
        "engine.step_length_core.s": get("engine.step_length_core", "s"),
        "engine.residual_report.calls": get("engine.residual_report", "calls"),
        "engine.residual_report.self_s": get("engine.residual_report", "self_s"),
        "engine.reduce_core.steps": get("engine.reduce_core", "value"),
        "engine.reduce_core.self_s": get("engine.reduce_core", "self_s"),
        "engine.solve_feasible.iters": get("engine.solve_feasible", "value"),
        "engine.solve_feasible.self_s": get("engine.solve_feasible", "self_s"),
        "engine.project_affine.calls": get("engine.project_affine", "calls"),
        "engine.project_affine.self_s": get("engine.project_affine", "self_s"),
        # forward+adjoint pairs per constraint per call: 1 + CG iterations
        # (+1 when warm-started)
        "engine.project_affine.gram_per_call":
            maps_in_pa / (2 * pa_constraints) if pa_constraints else 0.0,
        "engine.project_affine.repair_calls": repair,
        "numerics.psd_project.calls": get("numerics.psd_project", "calls"),
        "numerics.psd_project.s": get("numerics.psd_project", "s"),
        "numerics.numerical_rank.calls": get("numerics.numerical_rank", "calls"),
        "numerics.numerical_rank.s": get("numerics.numerical_rank", "s"),
    }
    for fn in ("partial_trace", "embed_with_identity"):
        for caller in ("marginal", "sector"):
            m[f"hilbert.{fn}.{caller}.calls"] = get(f"hilbert.{fn}.{caller}", "calls")
            m[f"hilbert.{fn}.{caller}.s"] = get(f"hilbert.{fn}.{caller}", "s")
    for name in ("hilbert.support_basis", "hilbert.sector_isometry"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    for name in ("marginal.find_feasible", "reduction.reduce_rank",
                 "sector.find_feasible_sector", "sector.reduce_rank_sector",
                 "channels.reduce_kraus_rank", "cli.main"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["documents.load_document.s"] = get("documents.load_document", "s")
    m["documents.dump_document.s"] = get("documents.dump_document", "s")
    m["documents.bytes_out"] = get("documents.dump_document", "value")
    m["gallery.random_feasible_instance.s"] = get("gallery.random_feasible_instance", "s")
    m["trace.spans"] = len(tracer) - get(CASE, "calls") - get(SETUP, "calls")
    return m
