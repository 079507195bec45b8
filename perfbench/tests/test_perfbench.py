"""Tests of the benchmark itself: generators, checks, tally, tracer, metadata.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import polyvar  # noqa: E402
import polyvar.cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return polyvar.cli.main(argv)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    first = gen.generate(workload, 7, ROOT / "models")
    again = gen.generate(workload, 7, ROOT / "models")
    other = gen.generate(workload, 8, ROOT / "models")
    assert first == again
    assert [it["payload"] for it in first] != [it["payload"] for it in other]
    a = gen.write_items(first, tmp_path / "a")
    b = gen.write_items(again, tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_bound_inputs_hold_their_interior_point():
    for workload in ("bound-small", "bound-dense"):
        for item in gen.generate(workload, 3, ROOT / "models"):
            x0, payload = item["x0"], item["payload"]
            box = payload["rectangle"]
            assert all(lo < x < hi for lo, x, hi in zip(box["lower"], x0, box["upper"]))
            for row in payload.get("inequalities", []):
                lhs = sum(a * x for a, x in zip(row["a"], x0))
                assert lhs < row["b"] if row["op"] == "<=" else lhs > row["b"]
            for row in payload.get("equalities", []):
                assert sum(c * x for c, x in zip(row["c"], x0)) == pytest.approx(row["d"], abs=1e-12)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64


def _bound_item(tmp_path):
    item = gen.bound_small(11)[0]
    path = gen.write_items([item], tmp_path)[0]
    report_path = tmp_path / "report.json"
    code = _cli(["bound", str(path), "--report", str(report_path)])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return item, code, report, check.bound_reference(item["payload"], item["x0"])


def test_bound_check_accepts_the_program_and_rejects_corruption(tmp_path):
    item, code, report, ref = _bound_item(tmp_path)
    ok, reason, gap = check.check_bound(item["payload"], code, report, ref)
    assert ok, reason
    assert gap >= 0.0

    raised = dict(report, d_star=ref + 1e-3 * (1.0 + abs(ref)))
    assert not check.check_bound(item["payload"], code, raised, ref)[0]
    shifted = dict(report, d_star=report["d_star"] - 1e-6 * (1.0 + abs(report["d_star"])))
    assert not check.check_bound(item["payload"], code, shifted, ref)[0]
    if report["lambda"]:
        negative = dict(report, **{"lambda": [-1e-3] + report["lambda"][1:]})
        assert not check.check_bound(item["payload"], code, negative, ref)[0]
    assert not check.check_bound(item["payload"], 2, report, ref)[0]


def test_recomputed_bound_matches_program_on_dense_problem(tmp_path):
    item = gen.bound_dense(1)[0]
    path = gen.write_items([item], tmp_path)[0]
    report_path = tmp_path / "report.json"
    assert _cli(["bound", str(path), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    ref = check.bound_reference(item["payload"], item["x0"])
    assert check.check_bound(item["payload"], 0, report, ref)[0]


@pytest.fixture(scope="module")
def synth_result(tmp_path_factory):
    """FitzHugh-Nagumo with the 32-facet template: certifies in a few rounds."""
    tmp = tmp_path_factory.mktemp("synth")
    item = next(it for it in gen.synth(5, ROOT / "models") if it["name"] == "fhn-uniform32")
    path = gen.write_items([item], tmp)[0]
    report_path, poly_path = tmp / "report.json", tmp / "polytope.json"
    code = _cli(["synthesize", str(path), "--report", str(report_path), "--polytope", str(poly_path)])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    polytope = json.loads(poly_path.read_text(encoding="utf-8"))
    reverify = _cli(["verify", str(path), "--polytope", str(poly_path)])
    return item, code, report, polytope, reverify


def test_synth_check_accepts_the_program(synth_result):
    item, code, report, polytope, reverify = synth_result
    ok, reason, gaps, certified = check.check_synth(item["payload"], code, report, polytope, reverify)
    assert ok, reason
    assert certified and len(gaps) == 32


def test_synth_check_rejects_flipped_verdicts(synth_result):
    item, code, report, polytope, reverify = synth_result
    model = item["payload"]
    assert not check.check_synth(model, 1, report, polytope, reverify)[0]
    stalled = dict(report, status="stalled")
    assert not check.check_synth(model, code, stalled, polytope, reverify)[0]
    flipped = copy.deepcopy(report)
    flipped["iterations"][-1]["invariant"] = False
    assert not check.check_synth(model, code, flipped, polytope, reverify)[0]
    raised = copy.deepcopy(report)
    raised["iterations"][-1]["d_star"][0] = 1e3
    assert not check.check_synth(model, code, raised, polytope, reverify)[0]
    # Just above the smallest sampled -n_0 . f, still below the largest: an
    # unsound facet bound that only the minimum over the facet catches.
    last = report["iterations"][-1]
    points = check.facet_points(np.asarray(model["template"]["normals"]),
                                np.asarray(last["offsets"]), np.asarray(model["rectangle"]["lower"]),
                                np.asarray(model["rectangle"]["upper"]), 0, np.random.default_rng(0))
    flow = check._flow_along(model, np.asarray(model["template"]["normals"][0]), points)
    lowest, highest = float(-flow.max()), float(-flow.min())
    above = lowest + 1e-6 * (1.0 + abs(lowest))
    assert last["d_star"][0] <= lowest < above < highest
    unsound = copy.deepcopy(report)
    unsound["iterations"][-1]["d_star"][0] = above
    assert not check.check_synth(model, code, unsound, polytope, reverify)[0]
    moved = dict(polytope, offsets=[b + 1e-3 for b in polytope["offsets"]])
    assert not check.check_synth(model, code, report, moved, reverify)[0]
    assert not check.check_synth(model, code, report, polytope, 1)[0]


def test_tally_counts_failed_and_changed_items(tmp_path):
    items = [{"name": "a"}, {"name": "b"}]
    dirs = [tmp_path / "p0", tmp_path / "p1"]
    for d in dirs:
        d.mkdir()
        for it in items:
            (d / f"{it['name']}.report.json").write_text(json.dumps({"d_star": 1.0, "wall_time_s": 0.1}))
    (dirs[1] / "b.report.json").write_text(json.dumps({"d_star": 2.0, "wall_time_s": 0.1}))
    passes = [{"traced": False, "dir": str(d), "items": [[0, 0.1, None], [0, 0.2, None]]} for d in dirs]
    verdicts = [(True, "", [], True), (True, "", [], True)]
    tally = run._tally(items, passes, verdicts)
    assert (tally["attempted"], tally["failed"], tally["certified"]) == (4, 1, 3)

    verdicts = [(False, "d_star above reference", [], False), (True, "", [], True)]
    tally = run._tally(items, passes, verdicts)
    assert tally["failed"] == 3 and tally["reasons"]["a"] == "d_star above reference"


def test_host_scale_is_nominal_over_median_kernel_time():
    assert calib.kernel_s() > 0.0
    slow = [2.0 * calib.NOMINAL_S, 3.0 * calib.NOMINAL_S, 100.0]
    assert calib.scale(slow) == pytest.approx(1.0 / 3.0)


def test_self_time_subtracts_direct_children():
    spans_in = [
        ["cli", 0.0, 10.0, -1, None],
        ["relaxation.lower_bound", 1.0, 9.0, 0, None],
        ["relaxation.precheck", 1.5, 2.5, 1, {"feasible": True}],
        ["lpsolve.solve", 1.6, 2.4, 2, {"rows": 2, "cells": 6, "status": "optimal", "failed": False}],
        ["lpsolve.solve", 3.0, 7.0, 1, {"rows": 9, "cells": 27, "status": "optimal", "failed": False}],
    ]
    m = spans.layer_metrics(spans_in)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["relaxation.lower_bound.self_s"] == pytest.approx(3.0)
    assert m["relaxation.precheck.self_s"] == pytest.approx(0.2)
    assert m["lpsolve.solve.self_s"] == pytest.approx(4.8)
    assert m["lpsolve.solve.calls.precheck"] == m["lpsolve.solve.calls.bound"] == 1
    assert m["lpsolve.cells"] == 33 and m["lpsolve.rows"] == 11
    assert m["lpsolve.useful_ratio"] == pytest.approx(0.5)


def test_tracer_attributes_every_solve_and_restores(tmp_path, synth_result):
    originals = {(mod, attr): getattr(getattr(polyvar, mod), attr)
                 for targets in spans.LAYERS.values() for mod, attr in targets}
    item = synth_result[0]
    path = gen.write_items([item], tmp_path)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert _cli(["synthesize", str(path)]) == 0
        tracer.enabled = False
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.take())
    callers = [f"lpsolve.solve.calls.{c}" for c in (*spans.CALLERS.values(), spans.UNATTRIBUTED)]
    assert m["lpsolve.solve.calls"] == sum(m[c] for c in callers) > 0
    assert m["lpsolve.solve.calls.unattributed"] == 0
    assert m["lpsolve.solve.calls.precheck"] == m["lpsolve.solve.calls.bound"] > 0
    assert m["invariance.verify.calls"] == len(synth_result[2]["iterations"])
    assert m["cli.self_s"] >= 0.0
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(polyvar, mod), attr) is fn
    assert polyvar.invariance.solve is polyvar.lpsolve.solve
    assert polyvar.cli.lower_bound is polyvar.relaxation.lower_bound


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
