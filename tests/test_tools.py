"""Smoke tests for the comparison scripts in ``tools/``.

The scripts wrap engine functions by name, so a rename makes them crash or
count nothing; each runs here as a subprocess, since ``pass_pivots.py``
patches modules in place.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*argv) -> list:
    """The output lines of ``tools/<argv[0]>`` run with the other arguments."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.splitlines()


def synth_items(seed) -> dict:
    """``{name: facet count}`` of the ``synth`` benchmark items of a seed."""
    # loaded outside sys.modules: Hypothesis draws constants from every local
    # module there, so importing gen would change the property tests' examples
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {item["name"]: len(item["payload"]["template"]["normals"])
            for item in gen.synth(seed, ROOT / "models")}


PASS_LINE = re.compile(
    r"3 (\S+) pass=(\d+) phase1=(\d+)/(\d+) facet_pivots=([\d.]+) "
    r"support_pivots=([\d.]+) fallbacks=(\d+)/(\d+)"
)


def test_pass_pivots_counts_one_phase_one_per_facet():
    items = synth_items(3)
    passes = {}
    for line in run_tool("pass_pivots.py", "3"):
        name, p, facet, support, facet_pivots, _, *fallbacks = PASS_LINE.fullmatch(line).groups()
        passes.setdefault(name, []).append((int(p), int(facet), int(support), float(facet_pivots)))
        assert fallbacks == ["0", "0"], line
    assert passes.keys() == items.keys()
    for name, counts in passes.items():
        assert [c[0] for c in counts] == list(range(len(counts)))
        assert counts[0][1:3] == (0, 1)  # the start repair's sweep
        assert counts[1][1:3] == (items[name], 0) and counts[1][3] > 0
        assert all(c[1:3] == (0, 0) for c in counts[2:]), name  # every later pass warm


def test_synth_outcomes_prints_one_line_per_item():
    lines = run_tool("synth_outcomes.py", "3", "3")
    assert [line.split()[:2] for line in lines] == [["3", name] for name in synth_items(3)]
    for line in lines:
        assert re.fullmatch(r"3 \S+ \w+ iterations=\d+ worst_d_star=\S+", line), line


def test_report_digest_line_format():
    lines = run_tool("report_digest.py", str(ROOT / "models" / "linear_decay.json"))
    runs = ["verify linear_decay"] + [
        "synthesize linear_decay" + spec
        for spec in ["", *(f" uniform:{m}" for m in (3, 4, 5, 6, 7, 8, 32, 64))]
    ]
    assert len(lines) == 1 + 3 * (len(runs) - 1)
    pattern = re.compile(
        r"[0-9a-f]{64}  (verify|synthesize) linear_decay( uniform:\d+)? "
        r"(report exit=0( status=invariant_found iterations=1)?|polytope|reverify exit=0)"
    )
    for line in lines:
        assert pattern.fullmatch(line), line
    reports = [line for line in lines if " report exit=" in line]
    assert [line.split("  ")[1].split(" report")[0] for line in reports] == runs
