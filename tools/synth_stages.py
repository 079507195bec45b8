"""Time the LP stages of ``polyvar synthesize`` on the items of the ``synth`` benchmark workload.

Each item goes through ``polyvar.cli.main(["synthesize", <file>, "--report",
..., "--polytope", ...])`` in this process, ``PASSES`` times (default 10),
with these ``lpsolve`` functions wrapped by name so that each call adds its
own time, less that of the wrapped calls inside it, to a stage:

    dual_start   _dual_start (the slack bases of a cold solve)
    dual_loops   _dual_loops (the dual simplex pivots, cold or restarted)
    degenerate   _activate_degenerate_rows (the degenerate-row pass)
    solutions    _solutions (the dual refinement and the KKT self-check)
    restart      _restart (the right-hand side column of a warm restart)
    other        the rest of the call: the polynomial work, LP assembly,
                 the bounds, the offset step, the reports

Each line is ``<seed> <item> <total>ms <stage>=<ms>/<share>% ...``, every
time the median over the passes, and each share that stage's part of the
item's median total.  A last line ``<seed> total <ms>ms <stage>=<share>%
...`` sums the item times and gives each stage's share of the sum:

    python tools/synth_stages.py 3

The inputs come from ``perfbench/gen.py`` and ``models/`` of this checkout,
which the script only reads; the reports go to a temporary directory.  Run
it in two checkouts to compare their layer costs.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from polyvar import cli, lpsolve  # noqa: E402

STAGES = {
    "dual_start": "_dual_start",
    "dual_loops": "_dual_loops",
    "degenerate": "_activate_degenerate_rows",
    "solutions": "_solutions",
    "restart": "_restart",
}


class Clock:
    """Own seconds per stage since the last ``reset``; ``inner`` holds, for
    each wrapped call still running, the seconds of the wrapped calls made
    inside it so far."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.inner = []


CLOCK = Clock()


def timed(stage, name):
    real = getattr(lpsolve, name)

    def wrapper(*args, **kwargs):
        CLOCK.inner.append(0.0)
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            CLOCK.seconds[stage] += spent - CLOCK.inner.pop()
            if CLOCK.inner:
                CLOCK.inner[-1] += spent

    setattr(lpsolve, name, wrapper)


def install() -> None:
    for stage, name in STAGES.items():
        timed(stage, name)


def item_stages(argv) -> dict:
    """``{stage: seconds}`` of one call of ``argv``, ``other`` included."""
    CLOCK.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
    if code not in (0, 1):  # 1: a synthesis that found no invariant
        raise SystemExit(f"synth_stages.py: {argv[1]} exited {code}")
    stages = dict(CLOCK.seconds)
    stages["other"] = total - sum(stages.values())
    return stages


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: synth_stages.py SEED [PASSES]", file=sys.stderr)
        return 2
    seed = int(argv[0])
    passes = int(argv[1]) if len(argv) == 2 else 10
    items = gen.synth(seed, ROOT / "models")
    install()
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.write_items(items, Path(tmp) / "inputs")

        def argvs(out):
            """Each item's argv, its reports going to their own files in ``out``."""
            out.mkdir()
            return [["synthesize", str(path), "--report", str(out / f"{item['name']}.report.json"),
                     "--polytope", str(out / f"{item['name']}.polytope.json")]
                    for item, path in zip(items, paths)]

        item_stages(argvs(Path(tmp) / "warmup")[0])
        runs = [[item_stages(a) for a in argvs(Path(tmp) / f"pass{p}")] for p in range(passes)]
    sums = dict.fromkeys([*STAGES, "other"], 0.0)
    for i, item in enumerate(items):
        medians = {s: statistics.median(run[i][s] for run in runs) for s in sums}
        total = statistics.median(sum(run[i].values()) for run in runs)
        for s, t in medians.items():
            sums[s] += t
        times = " ".join(f"{s}={t * 1e3:.3f}/{100.0 * t / total:.1f}%" for s, t in medians.items())
        print(f"{seed} {item['name']} {total * 1e3:.3f}ms {times}", flush=True)
    total = sum(sums.values())
    shares = " ".join(f"{s}={100.0 * t / total:.1f}%" for s, t in sums.items())
    print(f"{seed} total {total * 1e3:.3f}ms {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
