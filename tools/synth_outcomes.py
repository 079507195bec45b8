"""Print the outcome of every ``synth`` benchmark item over a range of seeds.

Each line is ``<seed> <item> <status> iterations=<n> worst_d_star=<d>``,
where ``<d>`` is the least ``d_star`` of the last verification pass (``nan``
when that pass has no feasible facet) and ``<status>`` is ``error:<type>``
for a synthesis that raised.  The inputs come from ``perfbench/gen.py`` and
``models/`` of this checkout, which the script only reads, so running it in
two checkouts and diffing the outputs shows which syntheses changed their
outcome:

    python tools/synth_outcomes.py 1 200 > outcomes.txt   # seeds 1 to 200

A synthesis that only re-rounds moves ``worst_d_star`` in its last bits; a
changed status or iteration count is a changed trajectory.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from polyvar import files  # noqa: E402
from polyvar.invariance import EmptyPolytope, synthesize  # noqa: E402
from polyvar.lpsolve import NumericalFailure  # noqa: E402
from polyvar.relaxation import InfeasiblePolytope  # noqa: E402


def outcome(path: Path) -> str:
    """``<status> iterations=<n> worst_d_star=<d>`` of one model file."""
    model = files.load_model(path)
    try:
        trace = synthesize(model.field, model.rectangle, model.template, model.params)
    except (ValueError, EmptyPolytope, InfeasiblePolytope, NumericalFailure) as exc:
        return f"error:{type(exc).__name__}"
    d_star = trace.records[-1].d_star
    worst = float(np.nanmin(d_star)) if np.isfinite(d_star).any() else float("nan")
    return f"{trace.status} iterations={trace.n_iterations} worst_d_star={worst!r}"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: synth_outcomes.py FIRST_SEED LAST_SEED", file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for seed in range(first, last + 1):
            for item in gen.synth(seed, ROOT / "models"):
                path.write_text(json.dumps(item["payload"]), encoding="utf-8")
                print(f"{seed} {item['name']} {outcome(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
