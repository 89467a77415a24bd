"""JSON documents for instances, states, solutions, and channels.

Matrices are stored as separate real and imaginary parts, row-major nested
lists, so every file is valid JSON with no encoding ambiguity.  Parsing
raises DocumentError with enough position context to fix the file.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from ._engine import FeasibilityResult, ReductionTrace, ResidualReport
from .channels import ChannelInstance, ChannelRepr, LocalChannel
from .marginal import ConsistencyInstance, MarginalConstraint
from .sector import SectorInstance

__all__ = ["DocumentError", "load_document", "loads_document", "dump_document",
           "matrix_to_doc", "matrix_from_doc", "instance_to_doc",
           "instance_from_doc", "state_to_doc", "state_from_doc",
           "solution_to_doc", "channel_to_doc", "channel_from_doc",
           "kraus_to_doc", "channel_instance_to_doc",
           "channel_instance_from_doc", "channel_solution_to_doc"]


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from None
    return loads_document(text, source=path)


def loads_document(text: str, source: str = "<string>") -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"{source}: invalid JSON at line {err.lineno} column {err.colno}: "
            f"{err.msg}") from None
    if not isinstance(obj, dict):
        raise DocumentError(f"{source}: top-level value must be an object")
    return obj


def dump_document(doc: dict, path: str | None) -> str:
    """The document's text, also written to path when given: one line with
    sorted keys and compact separators, which json encodes in C (indent
    would force its pure-Python encoder).  Floats print as their repr, so
    the text parses back to the same object."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def matrix_to_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _expect(obj: Any, key: str, kind, context: str):
    if not isinstance(obj, dict) or key not in obj:
        raise DocumentError(f"{context}: missing field {key!r}")
    val = obj[key]
    # JSON true/false load as bool, which Python counts as an int
    if kind is not None and (not isinstance(val, kind)
                             or kind is int and isinstance(val, bool)):
        raise DocumentError(
            f"{context}: field {key!r} has type {type(val).__name__}")
    return val


def matrix_from_doc(obj: Any, context: str = "matrix") -> np.ndarray:
    re = _expect(obj, "re", list, context)
    im = _expect(obj, "im", list, context)
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.array(im, dtype=float)
    except (TypeError, ValueError) as err:
        raise DocumentError(f"{context}: non-numeric entries ({err})") from None
    if re_arr.ndim != 2 or re_arr.shape[0] != re_arr.shape[1]:
        raise DocumentError(f"{context}: 're' must be a square 2-D array, "
                            f"got shape {re_arr.shape}")
    if im_arr.shape != re_arr.shape:
        raise DocumentError(f"{context}: 're' shape {re_arr.shape} and 'im' "
                            f"shape {im_arr.shape} differ")
    return re_arr + 1j * im_arr


def _int_list(obj: Any, key: str, context: str) -> list[int]:
    raw = _expect(obj, key, list, context)
    out = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int):
            raise DocumentError(f"{context}: {key!r} must hold integers")
        out.append(v)
    return out


def instance_to_doc(instance: ConsistencyInstance | SectorInstance) -> dict:
    if isinstance(instance, SectorInstance):
        return {"kind": instance.statistics,
                "N": instance.particles,
                "d": instance.levels,
                "k": instance.marginal_particles,
                "constraints": [{"matrix": matrix_to_doc(instance.target)}]}
    return {"kind": "qudit",
            "dims": list(instance.dims),
            "constraints": [{"subsystems": list(c.subsystems),
                             "matrix": matrix_to_doc(c.target)}
                            for c in instance.constraints]}


def instance_from_doc(obj: dict) -> ConsistencyInstance | SectorInstance:
    kind = obj.get("kind", "qudit")
    if kind in ("fermionic", "bosonic"):
        n = _expect(obj, "N", int, "instance")
        d = _expect(obj, "d", int, "instance")
        k = _expect(obj, "k", int, "instance")
        cons = _expect(obj, "constraints", list, "instance")
        if len(cons) != 1:
            raise DocumentError("instance: sector instances take exactly one constraint")
        target = matrix_from_doc(_expect(cons[0], "matrix", dict, "constraint"),
                                 "constraint matrix")
        try:
            return SectorInstance(kind, n, d, k, target)
        except ValueError as err:
            raise DocumentError(f"instance: {err}") from None
    if kind != "qudit":
        raise DocumentError(f"instance: unknown kind {kind!r}")
    dims = _int_list(obj, "dims", "instance")
    cons_raw = _expect(obj, "constraints", list, "instance")
    constraints = []
    for i, c in enumerate(cons_raw):
        ctx = f"constraint {i}"
        subs = _int_list(c, "subsystems", ctx)
        target = matrix_from_doc(_expect(c, "matrix", dict, ctx), f"{ctx} matrix")
        try:
            constraints.append(MarginalConstraint(tuple(subs), target))
        except ValueError as err:
            raise DocumentError(f"{ctx}: {err}") from None
    try:
        return ConsistencyInstance(tuple(dims), tuple(constraints))
    except ValueError as err:
        raise DocumentError(f"instance: {err}") from None


def state_to_doc(matrix: np.ndarray, dims, **extra) -> dict:
    doc = {"dims": list(int(d) for d in dims), "matrix": matrix_to_doc(matrix)}
    doc.update(extra)
    return doc


def state_from_doc(obj: dict) -> np.ndarray:
    return matrix_from_doc(_expect(obj, "matrix", dict, "state"), "state matrix")


def _steps_to_doc(trace: ReductionTrace) -> list[dict]:
    return [{"rank_before": s.rank_before, "rank_after": s.rank_after,
             "lambda": s.step_length, "sign": s.sign,
             "residual_after": s.residual_after} for s in trace.steps]


def _feasibility_to_doc(found: FeasibilityResult) -> dict:
    return {"iterations": found.iterations, "factor_rank": found.factor_rank,
            "message": found.message,
            "residual_history": list(found.residual_history)}


def solution_to_doc(matrix: np.ndarray, report: ResidualReport,
                    bounds: dict[str, int], options: dict,
                    trace: ReductionTrace | None = None,
                    feasibility: FeasibilityResult | None = None) -> dict:
    """The solution document; feasibility, when given, is the search that
    found the starting state: its iterations, factor width, stop message
    and per-iteration best residual."""
    w = np.linalg.eigvalsh(matrix)
    doc = {"matrix": matrix_to_doc(matrix),
           "rank": bounds["achieved"],
           "eigenvalues": w.tolist(),
           "residuals": list(report.residuals),
           "psd_violation": report.psd_violation,
           "trace_error": report.trace_error,
           "bounds": bounds,
           "options": options,
           "trace": [] if trace is None else _steps_to_doc(trace)}
    if trace is not None:
        doc["null_space_exhausted"] = trace.null_space_exhausted
    if feasibility is not None:
        doc["feasibility"] = _feasibility_to_doc(feasibility)
    return doc


def channel_to_doc(channel: ChannelRepr) -> dict:
    return {"in_dims": list(channel.in_dims),
            "out_dims": list(channel.out_dims),
            "choi": matrix_to_doc(channel.choi)}


def channel_from_doc(obj: dict) -> ChannelRepr:
    in_dims = _int_list(obj, "in_dims", "channel")
    out_dims = _int_list(obj, "out_dims", "channel")
    choi = matrix_from_doc(_expect(obj, "choi", dict, "channel"), "choi matrix")
    try:
        return ChannelRepr(tuple(in_dims), tuple(out_dims), choi)
    except ValueError as err:
        raise DocumentError(f"channel: {err}") from None


def kraus_to_doc(kraus, in_dims, out_dims) -> dict:
    return {"in_dims": list(int(d) for d in in_dims),
            "out_dims": list(int(d) for d in out_dims),
            "kraus": [matrix_to_doc(k) for k in kraus]}


def channel_instance_to_doc(instance: ChannelInstance) -> dict:
    return {"in_dims": list(instance.in_dims),
            "out_dims": list(instance.out_dims),
            "locals": [{"in_subsystems": list(lc.in_subsystems),
                        "out_subsystems": list(lc.out_subsystems),
                        "choi": matrix_to_doc(lc.channel.choi)}
                       for lc in instance.locals]}


def channel_instance_from_doc(obj: dict) -> ChannelInstance:
    in_dims = _int_list(obj, "in_dims", "channel instance")
    out_dims = _int_list(obj, "out_dims", "channel instance")
    locals_raw = _expect(obj, "locals", list, "channel instance")
    locals_parsed = []
    for i, lc in enumerate(locals_raw):
        ctx = f"local channel {i}"
        ins = _int_list(lc, "in_subsystems", ctx)
        outs = _int_list(lc, "out_subsystems", ctx)
        choi = matrix_from_doc(_expect(lc, "choi", dict, ctx), f"{ctx} choi")
        try:
            sub = ChannelRepr(tuple(in_dims[i] for i in ins),
                              tuple(out_dims[o] for o in outs), choi)
            locals_parsed.append(LocalChannel(tuple(ins), tuple(outs), sub))
        except (ValueError, IndexError) as err:
            raise DocumentError(f"{ctx}: {err}") from None
    try:
        return ChannelInstance(tuple(in_dims), tuple(out_dims), tuple(locals_parsed))
    except ValueError as err:
        raise DocumentError(f"channel instance: {err}") from None


def channel_solution_to_doc(channel: ChannelRepr, kraus,
                            trace: ReductionTrace, options: dict) -> dict:
    bounds = dict(trace.notes)
    bounds["achieved"] = trace.final_rank
    return {"channel": channel_to_doc(channel),
            "kraus": [matrix_to_doc(k) for k in kraus],
            "kraus_count": len(kraus),
            "bounds": bounds,
            "trace": _steps_to_doc(trace),
            "options": options}
