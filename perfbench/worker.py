"""Timed process for one benchmark run: import polyvar, then run passes.

Usage: ``python3 perfbench/worker.py <spec.json> <result.json>``.  The spec
lists each item's ``polyvar`` argv, with ``{out}`` standing for the pass's
output directory.  A pass calls ``polyvar.cli.main`` once per item, in order,
in this one process and thread; passes repeat until ``seconds`` would be
exceeded.  The reference kernel of ``calib`` runs after every item, outside
the item's timing, for a share of the item's time, so that each pass has a
host-speed sample of its own.  With ``trace`` set, passes alternate
untraced / traced, so the tracing overhead is measured in the same process.
The result file gets the import time, per-item exit codes and times, the
kernel times, per-pass layer metrics and the peak RSS, which is read before
any check runs.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import spans

KERNEL_SHARE = 0.02  # kernel time after an item, as a share of the item's time
KERNEL_MAX_RUNS = 20


def _argv(template, out_dir) -> list:
    return [arg.replace("{out}", str(out_dir)) for arg in template]


def _call(cli, argv):
    """One user-path call; an exception counts as exit code ``None``."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None
    except Exception as exc:  # a crash is a failed item, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, error


def _kernel_after(calib, item_s) -> list:
    """At least one kernel run, more after a long item."""
    runs = [calib.kernel_s()]
    while len(runs) < KERNEL_MAX_RUNS and sum(runs) < KERNEL_SHARE * item_s:
        runs.append(calib.kernel_s())
    return runs


def run(spec: dict) -> dict:
    start = time.perf_counter()
    cli = importlib.import_module("polyvar.cli")
    setup_s = time.perf_counter() - start
    import calib  # after the timed import: it loads numpy

    items = spec["items"]
    out_root = Path(spec["out"])
    tracer = spans.Tracer()
    if spec["trace"]:
        tracer.install()
    warm = out_root / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    _call(cli, _argv(items[0]["argv"], warm))

    passes = []
    budget = float(spec["seconds"])
    min_passes = 2 if spec["trace"] else 1
    began = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(spec["trace"]) and index % 2 == 1
        out_dir = out_root / f"pass{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        argvs = [_argv(item["argv"], out_dir) for item in items]
        tracer.enabled = traced
        pass_start = time.perf_counter()
        results, kernel = [], []
        for argv in argvs:
            results.append(_call(cli, argv))
            kernel.extend(_kernel_after(calib, results[-1][1]))
        wall = time.perf_counter() - pass_start
        tracer.enabled = False
        record = {"traced": traced, "items": results, "kernel_s": kernel, "dir": str(out_dir)}
        if traced:
            recorded = tracer.take()
            record["layers"] = spans.layer_metrics(recorded)
            (out_root / "spans.json").write_text(json.dumps(recorded), encoding="utf-8")
        passes.append(record)
        elapsed = time.perf_counter() - began
        if len(passes) >= min_passes and elapsed + wall > budget:
            break
    tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_kb / 1024.0}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        result = run(spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
