"""Smoke tests for the comparison scripts in ``tools/``.

The scripts wrap engine functions by name, so a rename makes them crash or
count nothing; each runs here as a subprocess, since ``pass_pivots.py``,
``bound_stages.py`` and ``synth_stages.py`` patch modules in place.
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


def benchmark_items(workload, seed) -> list:
    """The items of a benchmark workload for a seed."""
    # gen is loaded outside sys.modules: Hypothesis draws constants from every
    # local module there, so importing gen would change the property tests'
    # examples
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate(workload, seed, ROOT / "models")


def synth_items(seed) -> dict:
    """``{name: facet count}`` of the ``synth`` benchmark items of a seed."""
    return {item["name"]: len(item["payload"]["template"]["normals"])
            for item in benchmark_items("synth", seed)}


PASS_LINE = re.compile(
    r"3 (\S+) pass=(\d+) cold=(\d+) facet_pivots=([\d.]+) cold_pivots=([\d.]+) "
    r"facet_ms=([\d.]+)/([\d.]+) support=(\d+)/([\d.]+) fallbacks=(\d+) "
    r"improve=(\d+)/(\d+) step=(least_move|capped|-)"
)


def test_pass_pivots_counts_cold_dual_starts_per_facet():
    items = synth_items(3)
    passes = {}
    for line in run_tool("pass_pivots.py", "3"):
        (name, p, cold, facet_pivots, cold_pivots, _, _, support, _, fallbacks,
         lps, improve_pivots, step) = PASS_LINE.fullmatch(line).groups()
        passes.setdefault(name, []).append((int(p), int(cold), float(facet_pivots), float(cold_pivots)))
        assert fallbacks == "0", line
        # the offset step solves two LPs, each from its dual start
        assert lps == ("0" if step == "-" else "2"), line
        assert (improve_pivots == "0") == (step == "-"), line
        # a repair sweep, one dual start per direction, follows the start
        # offsets and every step
        assert int(support) == (0 if step == "-" and p != "0" else items[name]), line
    assert passes.keys() == items.keys()
    for name, counts in passes.items():
        assert [c[0] for c in counts] == list(range(len(counts)))
        assert counts[0][1:] == (0, 0.0, 0.0)
        # the first pass starts every facet program cold, as a fresh verify does
        assert counts[1][1] == items[name] and counts[1][2] == counts[1][3] > 0
        assert all(c[1] == 0 and c[3] > 0 for c in counts[2:]), name  # every later pass warm


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


STAGE_LINE = re.compile(
    r"3 (\S+) read=\d+ terms=\d+ bernstein=\d+ values=\d+ lp=\d+ write=\d+ other=-?\d+ "
    r"lp_solved=([01])"
)
TOTAL_LINE = re.compile(
    r"3 total [\d.]+ms read=([\d.]+)% terms=([\d.]+)% bernstein=([\d.]+)% values=([\d.]+)% "
    r"lp=([\d.]+)% write=([\d.]+)% other=(-?[\d.]+)% no_lp=(\d+)/(\d+)"
)


def test_bound_stages_prints_one_line_per_item():
    for workload in ("bound-dense", "bound-small"):
        *lines, total = run_tool("bound_stages.py", "3", workload, "1")
        items = benchmark_items(workload, 3)
        matches = [STAGE_LINE.fullmatch(line) for line in lines]
        assert all(matches), lines
        assert [m.group(1) for m in matches] == [item["name"] for item in items]
        shares = TOTAL_LINE.fullmatch(total)
        assert shares, total
        assert abs(sum(map(float, shares.groups()[:7])) - 100.0) < 0.5
        no_lp = [m.group(2) for m in matches].count("0")
        assert shares.groups()[7:] == (str(no_lp), str(len(items)))
        # every dense program has an equality row, so each one is solved
        assert (no_lp == 0) == (workload == "bound-dense")


SYNTH_STAGES = ("dual_start", "dual_loops", "degenerate", "solutions", "restart", "other")
SYNTH_STAGE_LINE = re.compile(
    r"3 (\S+) ([\d.]+)ms " + " ".join(rf"{s}=(-?[\d.]+)/(-?[\d.]+)%" for s in SYNTH_STAGES)
)
SYNTH_TOTAL_LINE = re.compile(
    r"3 total ([\d.]+)ms " + " ".join(rf"{s}=(-?[\d.]+)%" for s in SYNTH_STAGES)
)


def test_synth_stages_prints_one_line_per_item():
    *lines, total = run_tool("synth_stages.py", "3", "1")
    matches = [SYNTH_STAGE_LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert [m.group(1) for m in matches] == list(synth_items(3))
    for m in matches:
        ms = [float(v) for v in m.groups()[2::2]]
        shares = [float(v) for v in m.groups()[3::2]]
        assert abs(sum(ms) - float(m.group(2))) < 0.01 * len(ms), m.group(0)
        assert abs(sum(shares) - 100.0) < 0.5, m.group(0)
        # every synthesis starts its facet programs cold and restarts them warm
        assert min(ms[:5]) > 0.0, m.group(0)
    shares = SYNTH_TOTAL_LINE.fullmatch(total)
    assert shares, total
    assert abs(sum(map(float, shares.groups()[1:])) - 100.0) < 0.5
