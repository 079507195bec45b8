"""polyvar benchmark: seeded workloads through ``polyvar.cli.main``, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bound-small --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` and written as problem / model JSON
files; the program sees nothing else.  A separate worker process imports
polyvar and runs closed-loop passes over the items (one process, one thread,
BLAS and OpenMP pinned to one thread) for ``--seconds``.  Every result is
then checked here, outside the timed region.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Outputs go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("bound-small", "bound-dense", "synth")
SETUP_PROBES = 4  # import probes on each side of the worker
# The worker stops once another pass would exceed --seconds; the margin
# covers its import, the warm-up call and a pass that overruns.
WORKER_MARGIN_S = 120
IMPORT_PROBE = (
    "import statistics, sys, time; t = time.perf_counter(); import polyvar.cli; "
    "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import calib; "
    "print(d, statistics.median(calib.kernel_s() for _ in range(9)))"
)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_s.p50", "s"),
              ("certified_frac", "ratio"), ("bound_gap", "ratio"), ("peak_rss_mb", "MB"))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup_samples(env, count) -> list:
    """Fresh-process import times of polyvar, numpy and jsonschema included,
    each scaled by the reference kernel timed in the same process."""
    import calib

    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        import_s, kernel_s = map(float, out.stdout.split())
        samples.append(import_s * calib.scale([kernel_s]))
    return samples


def _item_argv(item, input_path) -> list:
    name = item["name"]
    if item["command"] == "bound":
        return ["bound", str(input_path), "--report", f"{{out}}/{name}.report.json"]
    return ["synthesize", str(input_path), "--report", f"{{out}}/{name}.report.json",
            "--polytope", f"{{out}}/{name}.polytope.json"]


def _load(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _comparable(report):
    if isinstance(report, dict):
        report = {k: v for k, v in report.items() if k != "wall_time_s"}
    return report


def _check_items(items, paths, first_pass, refs) -> list:
    """Check each item's first-pass outputs; returns ``(ok, reason, gaps, certified)``."""
    import check
    import polyvar.cli

    out_dir = Path(first_pass["dir"])
    verdicts = []
    for item, path, (code, _, error) in zip(items, paths, first_pass["items"]):
        name = item["name"]
        if error is not None:
            verdicts.append((False, error, [], False))
            continue
        report = _load(out_dir / f"{name}.report.json")
        if item["command"] == "bound":
            ok, reason, gap = check.check_bound(item["payload"], code, report, refs[name])
            verdicts.append((ok, reason, [] if gap is None else [gap], ok))
            continue
        polytope_path = out_dir / f"{name}.polytope.json"
        polytope = _load(polytope_path)
        reverify = None
        if polytope is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                reverify = polyvar.cli.main(["verify", str(path), "--polytope", str(polytope_path)])
        verdicts.append(check.check_synth(item["payload"], code, report, polytope, reverify))
    return verdicts


def _same_outputs(item, first_dir, other_dir) -> bool:
    name = item["name"]
    for suffix in ("report", "polytope"):
        a = _load(Path(first_dir) / f"{name}.{suffix}.json")
        b = _load(Path(other_dir) / f"{name}.{suffix}.json")
        if _comparable(a) != _comparable(b):
            return False
    return True


def _tally(items, passes, verdicts) -> dict:
    """Count attempts, failures and certified results over all passes.

    An item fails when its first-pass check failed, or, in a later pass, when
    its exit code or outputs differ from the first pass.
    """
    attempted = failed = certified = 0
    reasons = {}
    first = passes[0]
    for p in passes:
        for i, (item, (code, _, _), verdict) in enumerate(zip(items, p["items"], verdicts)):
            ok = verdict[0] and (p is first or (code == first["items"][i][0]
                                                and _same_outputs(item, first["dir"], p["dir"])))
            attempted += 1
            failed += not ok
            certified += ok and verdict[3]
            if not ok:
                reasons.setdefault(item["name"], verdict[1] or "output differs from the first pass")
    return {"attempted": attempted, "failed": failed, "certified": certified, "reasons": reasons}


def _scaled_passes(passes, traced: bool) -> list:
    """Item times of each pass with the given tracing, host-scaled by the
    kernel runs of that same pass.

    Other tenants of a shared machine slow it in phases of seconds to
    minutes, so the host speed is taken per pass rather than per run.
    """
    import calib

    return [[t * calib.scale(p["kernel_s"]) for _, t, _ in p["items"]]
            for p in passes if p["traced"] == traced]


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]

    if not (SRC / "polyvar" / "cli.py").is_file():
        return _fail(f"no polyvar sources under {SRC}")
    if not MODELS.is_dir():
        return _fail(f"no bundled models under {MODELS}")

    import gen

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    items = gen.generate(args.workload, args.seed, MODELS)
    paths = gen.write_items(items, run_dir / "inputs")
    spec = {
        "items": [{"name": it["name"], "argv": _item_argv(it, p)} for it, p in zip(items, paths)],
        "out": str(run_dir / "outputs"),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")

    env = _child_env()
    # The first import compiles bytecode and is discarded; the probes are
    # split around the worker so they sample the machine across the run.
    before = _setup_samples(env, SETUP_PROBES + 1)[1:]
    result_path = run_dir / "worker.json"
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                       env=env, cwd=ROOT, timeout=args.seconds + WORKER_MARGIN_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return _fail(f"worker failed: {exc}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    import calib
    import check

    kernel = [k for p in result["passes"] for k in p["kernel_s"]]
    host = calib.scale(kernel)
    setup = before + [result["setup_s"] * host] + _setup_samples(env, SETUP_PROBES)

    refs = {it["name"]: check.bound_reference(it["payload"], it["x0"])
            for it in items if it["command"] == "bound"}
    passes = result["passes"]
    verdicts = _check_items(items, paths, passes[0], refs)

    tally = _tally(items, passes, verdicts)
    attempted, failed, certified = (tally[k] for k in ("attempted", "failed", "certified"))
    gaps = [g for v in verdicts for g in v[2]]
    untraced = _scaled_passes(passes, traced=False)
    wall = median(sum(pass_times) for pass_times in untraced)
    times = [median(item_times) for item_times in zip(*untraced)]
    per_pass = f"median of {len(untraced)} passes"
    per_item = f"{len(times)} items, {per_pass} each"
    raw_wall = median(sum(t for _, t, _ in p["items"]) for p in passes if not p["traced"])

    values = {
        "setup_s": (median(setup), f"{len(setup)} imports"),
        "wall_s": (wall, per_pass),
        "item_s.p50": (median(times), per_item),
        "certified_frac": (certified / attempted, f"{certified}/{attempted} items"),
        # With no checked program at all, report the loosest possible gap.
        "bound_gap": (sum(gaps) / len(gaps) if gaps else 1.0, f"{len(gaps)} bound programs"),
        "peak_rss_mb": (result["peak_rss_mb"], "1 process"),
    }
    end_to_end = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
    printed = dict(end_to_end)
    if len(times) >= 100:
        printed["item_s.p90"] = (quantiles(times, n=10, method="inclusive")[-1], "s", per_item)
    printed["failed_frac"] = (failed / attempted, "ratio", f"{failed}/{attempted} items")
    printed["host_factor"] = (1.0 / host, "ratio",
                              f"{len(kernel)} kernel runs, unscaled wall_s {raw_wall:.4g} s")

    environment = _environment()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment.items() if k != "threads")
          + " threads=1")
    for name, (value, unit, count) in printed.items():
        print(f"{name:<16} {value:<14.6g} {unit:<6} n={count}")
    for name, reason in list(tally["reasons"].items())[:10]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)

    if args.trace:
        import spans

        traced = [p for p in passes if p["traced"]]
        overhead = median(sum(t) for t in _scaled_passes(passes, traced=True)) - wall
        layers = spans.combine([p["layers"] for p in traced], overhead)
        units = dict(spans.METRICS)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in spans.METRICS}
        for name, value in layers.items():
            print(f"{name:<36} {value:.6g}")
        if layers["lpsolve.solve.calls.unattributed"]:
            print("warning: lpsolve.solve calls outside every known caller", file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in end_to_end.items()}

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(
        json.dumps({**summary, "printed": printed, "environment": environment,
                    "setup_samples": setup}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
