"""Print the LP work of every pass of every ``synth`` benchmark item of a seed.

Each line is

    <seed> <item> pass=<p> phase1=<f>/<s> facet_pivots=<x> support_pivots=<y> fallbacks=<a>/<b>

for verification pass ``p`` and the repair sweep that follows it (pass 0 is
the repair of the start offsets, before the first pass).  ``<f>`` and
``<s>`` count phase-1 runs, one per facet program and one per sweep, of the
facet programs and of the repair sweep.  ``<x>`` is the pass's pivots per
facet program and ``<y>`` the sweep's pivots per direction, every pivot
counted: phase 1, the artificial drive-out, phase 2 or a restart's dual
loop, and the degenerate-row pass.  ``<a>`` and ``<b>`` count the facet
stacks and sweeps whose warm restart failed and that were solved again from
phase 1.  The containment sweeps of the offset caps, before the start
repair, are not counted.  The inputs come from ``perfbench/gen.py`` and
``models/`` of this checkout, which the script only reads; run it in two
checkouts to compare them:

    python tools/pass_pivots.py 3
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from polyvar import files, invariance, lpsolve, relaxation  # noqa: E402

KEYS = (
    "phase1_facet", "phase1_support", "facet", "support", "fallbacks_facet", "fallbacks_support"
)


class Counts:
    """Per-pass counts of one synthesis, by caller: ``facet`` inside
    ``verify``, ``support`` inside ``repair_offsets``; solves outside both
    are not counted."""

    def __init__(self):
        self.passes = [dict.fromkeys(KEYS, 0)]
        self.caller = None

    def add(self, key, count):
        if self.caller is not None:
            self.passes[-1][key.format(self.caller)] += count


COUNTS = Counts()


def wrap(module, name, before=None, count=None):
    """Replace ``module.name`` by a wrapper that calls ``before(*args)`` and
    sets the caller it returns for the call, or adds ``count(*args)`` to its
    ``(key, n)``."""
    real = getattr(module, name)

    def wrapper(*args):
        if count is not None:
            COUNTS.add(*count(*args))
        if before is None:
            return real(*args)
        outer, COUNTS.caller = COUNTS.caller, before(*args)
        try:
            return real(*args)
        finally:
            COUNTS.caller = outer

    setattr(module, name, wrapper)


def fallbacks(module, name, key):
    """Count the calls of ``module.name`` that were given the end tableaux of
    an earlier solve in a ``Restart`` and still ran from phase 1."""
    real = getattr(module, name)
    kind = getattr(lpsolve, "Restart", None)

    def wrapper(*args):
        restart = next((a for a in args if kind is not None and isinstance(a, kind)), None)
        kept = restart is not None and restart.tabs is not None
        out = real(*args)
        if kept and not restart.warm:
            COUNTS.add(key, 1)
        return out

    setattr(module, name, wrapper)


def new_pass(*args):
    COUNTS.passes.append(dict.fromkeys(KEYS, 0))
    return "facet"


def install() -> None:
    wrap(invariance, "verify", before=new_pass)
    wrap(invariance, "repair_offsets", before=lambda *args: "support")
    wrap(lpsolve, "_pivot", count=lambda st, row, slot: ("{}", 1))
    wrap(lpsolve, "_pivot_all", count=lambda st, rows, slots: ("{}", len(rows)))
    wrap(lpsolve, "_phase_one", count=lambda stack: ("phase1_{}", len(stack)))
    fallbacks(relaxation, "solve_stack", "fallbacks_facet")
    fallbacks(invariance, "solve_many", "fallbacks_support")


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
            invariance.synthesize(model.field, model.rectangle, model.template, model.params)
            m = model.template.m
            for p, c in enumerate(COUNTS.passes):
                print(
                    f"{seed} {item['name']} pass={p} "
                    f"phase1={c['phase1_facet']}/{c['phase1_support']} "
                    f"facet_pivots={c['facet'] / m:.2f} support_pivots={c['support'] / m:.2f} "
                    f"fallbacks={c['fallbacks_facet']}/{c['fallbacks_support']}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
