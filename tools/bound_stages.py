"""Time the stages of ``polyvar bound`` on the items of a ``bound`` benchmark workload.

Each item goes through ``polyvar.cli.main(["bound", <file>, "--report", ...])``
in this process, ``PASSES`` times (default 10), with these functions wrapped
by name so that each call adds its time to a stage:

    read       files._load_json and files._validate (JSON read, schema check)
    terms      files._poly_from_terms (term records to polynomial)
    bernstein  relaxation.bernstein_coefficients
    values     relaxation.class_constraint_values
    lp         relaxation.certify (the LP and the bound its duals certify)
    write      files.write_json (the report)
    other      the rest of the call: argument parsing, the rectangle and the
               constraint rows, LP assembly, printing

Each line is ``<seed> <item> <stage>=<us> ... lp_solved=<0|1>``, every time
the median over the passes in microseconds, and ``lp_solved=0`` for a
program that ``certify`` answered without an LP.  Each pass writes its
reports to a directory of its own, one file per item, as
``perfbench/worker.py`` does: rewriting one file in place costs more than
writing a fresh one, so a shared report path would overstate ``write``.  A last line ``<seed>
total`` sums the item times, gives each stage's share of the sum in
percent, and counts the programs answered without an LP:

    python tools/bound_stages.py 3 bound-dense

The inputs come from ``perfbench/gen.py`` of this checkout, which the script
only reads; the reports go to a temporary directory.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyvar import cli, files, relaxation  # noqa: E402

STAGES = {
    "read": ((files, "_load_json"), (files, "_validate")),
    "terms": ((files, "_poly_from_terms"),),
    "bernstein": ((relaxation, "bernstein_coefficients"),),
    "values": ((relaxation, "class_constraint_values"),),
    "lp": ((relaxation, "certify"),),
    "write": ((files, "write_json"),),
}
WORKLOADS = ("bound-small", "bound-dense")


class Clock:
    """Seconds per stage, and LP solves, since the last ``reset``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.solves = 0


CLOCK = Clock()


def timed(module, name, stage):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            CLOCK.seconds[stage] += time.perf_counter() - start

    setattr(module, name, wrapper)


def install() -> None:
    for stage, targets in STAGES.items():
        for module, name in targets:
            timed(module, name, stage)
    solve = relaxation.solve_dual_stack

    def counted(stack, *args):
        CLOCK.solves += len(stack)
        return solve(stack, *args)

    relaxation.solve_dual_stack = counted


def load_gen():
    """``perfbench/gen.py``, loaded outside sys.modules, as the tests load it."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def item_stages(argv) -> tuple:
    """``({stage: seconds}, solves)`` of one call of ``argv``."""
    CLOCK.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"bound_stages.py: {argv[1]} exited {code}")
    stages = dict(CLOCK.seconds)
    stages["other"] = total - sum(stages.values())
    return stages, CLOCK.solves


def main(argv) -> int:
    if len(argv) not in (2, 3) or argv[1] not in WORKLOADS:
        print("usage: bound_stages.py SEED {bound-small|bound-dense} [PASSES]", file=sys.stderr)
        return 2
    seed, workload = int(argv[0]), argv[1]
    passes = int(argv[2]) if len(argv) == 3 else 10
    gen = load_gen()
    items = gen.generate(workload, seed, ROOT / "models")
    install()
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.write_items(items, Path(tmp) / "inputs")

        def argvs(out):
            """Each item's argv, its report going to its own file in ``out``."""
            out.mkdir()
            return [["bound", str(path), "--report", str(out / f"{item['name']}.report.json")]
                    for item, path in zip(items, paths)]

        item_stages(argvs(Path(tmp) / "warmup")[0])
        runs = [[item_stages(a) for a in argvs(Path(tmp) / f"pass{p}")] for p in range(passes)]
    sums = dict.fromkeys([*STAGES, "other"], 0.0)
    known = 0
    for i, item in enumerate(items):
        medians = {s: statistics.median(run[i][0][s] for run in runs) for s in sums}
        solved = runs[0][i][1]
        known += solved == 0
        for s, t in medians.items():
            sums[s] += t
        times = " ".join(f"{s}={t * 1e6:.0f}" for s, t in medians.items())
        print(f"{seed} {item['name']} {times} lp_solved={solved}", flush=True)
    total = sum(sums.values())
    shares = " ".join(f"{s}={100.0 * t / total:.1f}%" for s, t in sums.items())
    print(f"{seed} total {total * 1e3:.3f}ms {shares} no_lp={known}/{len(items)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
