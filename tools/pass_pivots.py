"""Print the LP work of every pass of every ``synth`` benchmark item of a seed.

Each line is (wrapped here)

    <seed> <item> pass=<p> cold=<c> facet_pivots=<x> cold_pivots=<w> facet_ms=<t>/<u>
        support=<s>/<y> fallbacks=<a> improve=<l>/<z> step=<k>

for verification pass ``p``, the offset step and the repair sweep that
follow it (pass 0 is the repair of the start offsets, before the first
pass).  Every LP starts cold from its dual start, or restarts warm from an
earlier end tableau (the facet programs of a synthesis).  ``<c>`` counts
the facet programs started cold rather than restarted warm, and ``<x>`` is
the pass's pivots per facet program, every pivot counted: a dual start's or
a restart's dual loop, and the degenerate-row pass.  ``<w>`` is the pivots
per facet program of a fresh ``verify`` of the pass's offsets, every
program started cold, and ``<t>`` and ``<u>`` are the milliseconds of the
pass's ``verify`` and of that fresh one (0 for pass 0).  ``<s>`` counts the
cold dual starts of the repair sweep, one per direction, and ``<y>`` is its
pivots per direction.  ``<a>`` counts the facet stacks whose warm restart
failed and that were solved again cold.  ``<l>`` counts the cold dual
starts of the improvement LPs of the offset step
(``invariance.improve_offsets``), one per LP, and ``<z>`` their pivots in
all, and ``<k>`` is the step taken (``least_move`` or ``capped``), ``-``
where the pass takes none.  The containment sweeps of the offset caps,
before the start repair, are not counted.  The inputs come from
``perfbench/gen.py`` and ``models/`` of this checkout, which the script only
reads; run it in two checkouts to compare them:

    python tools/pass_pivots.py 3
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from polyvar import files, invariance, lpsolve, relaxation  # noqa: E402

KEYS = (
    "facet", "support", "improve", "cold", "fallbacks",
    "dual_cold", "dual_support", "dual_improve", "verify_s",
)


class Counts:
    """Per-pass counts of one synthesis, by caller: ``facet`` inside
    ``verify``, ``cold`` inside a cold dual start there, ``support`` inside
    ``repair_offsets``, ``improve`` inside ``improve_offsets``; solves
    outside them are not counted.  ``steps`` holds each pass's step kind."""

    def __init__(self):
        self.passes = [dict.fromkeys(KEYS, 0)]
        self.steps = ["-"]
        self.caller = None

    def add(self, key, count):
        if self.caller is not None:
            self.passes[-1][key.format(self.caller)] += count


COUNTS = Counts()


def wrap(module, name, before=None, count=None, after=None):
    """Replace ``module.name`` by a wrapper that calls ``before(*args)`` and
    sets the caller it returns for the call, or adds ``count(*args)`` to its
    ``(key, n)``, and then passes the result to ``after``."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        if count is not None:
            COUNTS.add(*count(*args))
        outer = COUNTS.caller
        if before is not None:
            COUNTS.caller = before(*args)
        try:
            out = real(*args, **kwargs)
        finally:
            COUNTS.caller = outer
        if after is not None:
            after(out)
        return out

    setattr(module, name, wrapper)


def fallbacks(module, name):
    """Count the calls of ``module.name`` that were given the end tableaux of
    an earlier solve in a ``Restart`` and still ran cold."""
    real = getattr(module, name)

    def wrapper(*args):
        restart = next((a for a in args if isinstance(a, lpsolve.Restart)), None)
        kept = restart is not None and restart.tab is not None
        out = real(*args)
        if kept and not restart.warm:
            COUNTS.add("fallbacks", 1)
        return out

    setattr(module, name, wrapper)


def new_pass(*args):
    COUNTS.passes.append(dict.fromkeys(KEYS, 0))
    COUNTS.steps.append("-")
    return "facet"


def timed(module, name):
    """Add the seconds of each call of ``module.name`` to its pass's
    ``verify_s``."""
    real = getattr(module, name)

    def wrapper(*args):
        start = time.perf_counter()
        out = real(*args)
        COUNTS.passes[-1]["verify_s"] += time.perf_counter() - start
        return out

    setattr(module, name, wrapper)


def fresh(model, offsets) -> tuple:
    """``(pivots, seconds)`` of a fresh ``verify`` of ``model`` at
    ``offsets``, every facet program started cold."""
    global COUNTS
    outer, COUNTS = COUNTS, Counts()
    try:
        invariance.verify(model.field, model.rectangle, model.template.with_offsets(offsets))
        c = COUNTS.passes[-1]
    finally:
        COUNTS = outer
    return c["facet"] + c["cold"], c["verify_s"]


def record_step(step):
    COUNTS.steps[-1] = step.kind


def install() -> None:
    timed(invariance, "verify")
    wrap(invariance, "verify", before=new_pass)
    wrap(invariance, "repair_offsets", before=lambda *args: "support")
    wrap(invariance, "improve_offsets", before=lambda *args: "improve", after=record_step)
    wrap(lpsolve, "_pivot", count=lambda st, row, slot: ("{}", 1))
    wrap(lpsolve, "_pivot_all", count=lambda st, rows, slots: ("{}", len(rows)))
    wrap(lpsolve, "_cold_dual",
         before=lambda *args: "cold" if COUNTS.caller == "facet" else COUNTS.caller)
    wrap(lpsolve, "_dual_start", count=lambda stack, *args: ("dual_{}", len(stack)))
    fallbacks(relaxation, "solve_dual_stack")


def main(argv) -> int:
    global COUNTS
    if len(argv) != 1:
        print("usage: pass_pivots.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    install()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for item in gen.synth(seed, ROOT / "models"):
            path.write_text(json.dumps(item["payload"]), encoding="utf-8")
            model = files.load_model(path)
            COUNTS = Counts()
            trace = invariance.synthesize(
                model.field, model.rectangle, model.template, model.params
            )
            m = model.template.m
            synthesis = COUNTS
            cold = [(0, 0.0)] + [fresh(model, rec.offsets) for rec in trace.records]
            for p, (c, (pivots, seconds)) in enumerate(zip(synthesis.passes, cold)):
                print(
                    f"{seed} {item['name']} pass={p} cold={c['dual_cold']} "
                    f"facet_pivots={(c['facet'] + c['cold']) / m:.2f} cold_pivots={pivots / m:.2f} "
                    f"facet_ms={c['verify_s'] * 1e3:.3f}/{seconds * 1e3:.3f} "
                    f"support={c['dual_support']}/{c['support'] / m:.2f} "
                    f"fallbacks={c['fallbacks']} improve={c['dual_improve']}/{c['improve']} "
                    f"step={synthesis.steps[p]}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
