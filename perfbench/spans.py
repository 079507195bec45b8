"""Span tracer that wraps polyvar's public functions from outside the package.

Modules bind imported functions by name (``invariance`` holds its own
``solve`` and ``lower_bound``; ``cli`` holds its own ``lower_bound``,
``verify`` and ``synthesize``), so a function is replaced at every module
attribute that refers to it, not only where it is defined.  Each call records
a span ``[name, start, end, parent, info]`` in memory; self time is a span's
duration minus that of its direct children.  ``oracle`` is never wrapped.
"""

from __future__ import annotations

import sys
import time
from statistics import median

# Span name -> functions it covers, as (module, attribute) under ``polyvar``.
LAYERS = {
    "cli": (("cli", "main"),),
    "files.load": (("files", "load_problem"), ("files", "load_model"), ("files", "load_polytope")),
    "files.write": (("files", "write_json"),),
    "polynomial.bernstein": (("polynomial", "bernstein_coefficients"),),
    "polynomial.facet_objective": (("polynomial", "facet_objective"),),
    "relaxation.lower_bound": (("relaxation", "lower_bound"),),
    "relaxation.precheck": (("relaxation", "region_is_feasible"),),
    "relaxation.assemble": (("relaxation", "build_reduced_lp"),),
    "lpsolve.solve": (("lpsolve", "solve"),),
    "invariance.synthesize": (("invariance", "synthesize"),),
    "invariance.verify": (("invariance", "verify"),),
    "invariance.improve": (("invariance", "improve_offsets"),),
    "invariance.repair": (("invariance", "repair_offsets"),),
    "invariance.contain": (("invariance", "template_within_rect"),),
    "invariance.nonempty": (("invariance", "polytope_nonempty"), ("invariance", "facet_nonempty")),
}

# The innermost wrapped span around an ``lpsolve.solve`` call names its caller.
CALLERS = {
    "relaxation.lower_bound": "bound",
    "relaxation.precheck": "precheck",
    "invariance.repair": "support",
    "invariance.nonempty": "nonempty",
    "invariance.improve": "improve",
    "invariance.contain": "contain",
}
UNATTRIBUTED = "unattributed"

_COUNTED = ("files.load", "relaxation.assemble", "relaxation.precheck", "relaxation.lower_bound",
            "polynomial.bernstein", "polynomial.facet_objective", "invariance.verify",
            "invariance.repair", "invariance.improve", "invariance.contain", "invariance.nonempty")
_SELF_TIMED = ("cli", "files.load", "files.write", "relaxation.assemble", "relaxation.precheck",
               "relaxation.lower_bound", "polynomial.bernstein", "polynomial.facet_objective",
               "invariance.verify", "invariance.repair", "invariance.improve", "invariance.contain",
               "invariance.synthesize")

# Every per-layer metric, in report order.
METRICS = (
    ("lpsolve.solve.calls", "count"),
    ("lpsolve.solve.self_s", "s"),
    ("lpsolve.cells", "count"),
    ("lpsolve.rows", "count"),
    *((f"lpsolve.solve.calls.{c}", "count") for c in (*CALLERS.values(), UNATTRIBUTED)),
    *((f"lpsolve.solve.s.{c}", "s") for c in (*CALLERS.values(), UNATTRIBUTED)),
    ("lpsolve.useful_ratio", "ratio"),
    ("lpsolve.infeasible", "count"),
    ("lpsolve.failed", "count"),
    ("relaxation.precheck.feasible_ratio", "ratio"),
    *((f"{name}.calls", "count") for name in _COUNTED),
    *((f"{name}.self_s", "s") for name in _SELF_TIMED),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _solve_info(args, kwargs, result, error):
    lp = args[0] if args else kwargs["lp"]
    rows = lp.m_ineq + lp.m_eq
    status = getattr(result, "status", None)
    return {"rows": rows, "cells": rows * lp.n_vars, "status": status, "failed": error is not None}


def _precheck_info(args, kwargs, result, error):
    return {"feasible": bool(result) if error is None else False}


_INFO = {"lpsolve.solve": _solve_info, "relaxation.precheck": _precheck_info}


class Tracer:
    """Collects spans while ``enabled``; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn):
        spans, stack, info_of = self.spans, self._stack, _INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if info_of is not None:
                    span[4] = info_of(args, kwargs, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Replace every covered function at every ``polyvar`` module binding."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polyvar" or key.startswith("polyvar."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                home = sys.modules.get(f"polyvar.{module_name}")
                original = getattr(home, attr, None)
                if original is None:
                    continue  # the layer no longer has this function
                wrapped = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans) -> dict:
    """Per-layer counts and times for one traced pass, as ``{name: value}``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = {}
    self_s: dict = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - inner)

    callers = (*CALLERS.values(), UNATTRIBUTED)
    by_caller_calls = dict.fromkeys(callers, 0)
    by_caller_s = dict.fromkeys(callers, 0.0)
    rows = cells = infeasible = failed = feasible = 0
    for name, start, end, parent, info in spans:
        if name == "lpsolve.solve":
            caller = CALLERS.get(spans[parent][0], UNATTRIBUTED) if parent >= 0 else UNATTRIBUTED
            by_caller_calls[caller] += 1
            by_caller_s[caller] += end - start
            rows += info["rows"]
            cells += info["cells"]
            infeasible += info["status"] == "infeasible"
            failed += info["failed"]
        elif name == "relaxation.precheck":
            feasible += info["feasible"]

    n_solve = calls.get("lpsolve.solve", 0)
    n_pre = calls.get("relaxation.precheck", 0)
    out = {
        "lpsolve.solve.calls": n_solve,
        "lpsolve.solve.self_s": self_s.get("lpsolve.solve", 0.0),
        "lpsolve.cells": cells,
        "lpsolve.rows": rows,
        "lpsolve.useful_ratio": by_caller_calls["bound"] / n_solve if n_solve else 0.0,
        "lpsolve.infeasible": infeasible,
        "lpsolve.failed": failed,
        "relaxation.precheck.feasible_ratio": feasible / n_pre if n_pre else 0.0,
        "trace.spans": len(spans),
    }
    for caller in callers:
        out[f"lpsolve.solve.calls.{caller}"] = by_caller_calls[caller]
        out[f"lpsolve.solve.s.{caller}"] = by_caller_s[caller]
    for name in _COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in _SELF_TIMED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out


def combine(per_pass: list, overhead_s: float) -> dict:
    """Median over traced passes of each metric, plus the tracing overhead."""
    out = {key: median(m[key] for m in per_pass) for key in per_pass[0]}
    out["trace.overhead_s"] = overhead_s
    return out
