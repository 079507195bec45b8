"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import itertools
import time

import numpy as np
import pytest

from polyvar.cli import main
from polyvar.invariance import (
    INVARIANT_FOUND,
    PolytopeTemplate,
    SynthesisParams,
    synthesize,
    verify,
)
from polyvar.oracle import (
    bernstein_evaluate,
    blossom_eval,
    build_full_lp,
    grid_min,
    sensitivity_bound,
    vertex_min,
)
from polyvar.polynomial import (
    MultiPoly,
    Rectangle,
    bernstein_coefficients,
    evaluate,
)
from polyvar.relaxation import (
    ConstraintSet,
    build_reduced_lp,
    certify,
    lower_bound,
    pad_for_constraints,
)

from conftest import (
    field_values,
    fitzhugh_nagumo,
    highs,
    phytoplankton,
    random_feasible_constraints,
    random_multi_affine,
    random_poly,
    random_rectangle,
    sample_facet_points,
)


def gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def constrained_3d():
    p = MultiPoly(
        3,
        {
            (1, 1, 1): 1.0,
            (2, 0, 0): 1.0,
            (1, 1, 0): -2.0,
            (1, 0, 1): -3.0,
            (0, 1, 1): 5.0,
            (0, 0, 2): -1.0,
            (0, 1, 0): 5.0,
            (0, 0, 1): 1.0,
        },
    )
    rect = Rectangle([2.0, 0.0, 4.0], [5.0, 10.0, 8.0])
    cs = ConstraintSet(
        3,
        inequalities=[
            (np.array([4.0, 3.0, 1.0]), 20.0),
            (np.array([-1.0, -2.0, -1.0]), -1.0),
        ],
    )
    return p, rect, cs


def test_01_constrained_benchmark(models_dir, capsys):
    start = time.perf_counter()
    code = main(["bound", str(models_dir / "constrained_3d.json")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    d_star = float(out.splitlines()[0].split("=")[1])
    with capsys.disabled():
        gate(
            1,
            "constrained 3-D benchmark",
            code == 0 and abs(d_star - (-120.0)) <= 1e-6 and elapsed < 1.0,
            f"d*={d_star!r}, {elapsed:.3f}s",
        )


def test_02_quartic_benchmark(models_dir, capsys):
    start = time.perf_counter()
    code = main(["bound", str(models_dir / "quartic_unconstrained.json")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    d_star = float(out.splitlines()[0].split("=")[1])
    with capsys.disabled():
        gate(
            2,
            "quartic benchmark",
            code == 0
            and abs(d_star - (-837.5)) <= 1e-6
            and d_star <= -7.5
            and elapsed < 1.0,
            f"d*={d_star!r}, {elapsed:.3f}s",
        )


def test_03_full_vs_reduced_equivalence(capsys):
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        p = random_poly(rng, n, 3)
        rect = random_rectangle(rng, n)
        cs = random_feasible_constraints(
            rng, rect, int(rng.integers(0, 4)), int(rng.integers(0, 2))
        )
        padded = pad_for_constraints(p, cs)
        full = -highs(build_full_lp(padded, rect, cs))[1]
        reduced = certify(build_reduced_lp(padded, rect, cs)).d_star
        worst = max(worst, abs(full - reduced))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            3,
            "full/reduced program equivalence",
            worst <= 1e-7 and elapsed < 30.0,
            f"worst gap {worst:.2e}, {elapsed:.1f}s",
        )


def test_04_soundness_suite(capsys):
    rng = np.random.default_rng(1004)
    violations = 0
    worst_slack = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, 3)
        rect = random_rectangle(rng, n)
        cs = random_feasible_constraints(
            rng, rect, int(rng.integers(0, 5)), int(rng.integers(0, 2))
        )
        res = lower_bound(p, rect, cs)
        sampled, _ = grid_min(p, rect, cs, steps_per_axis=51)
        slack = sampled - res.d_star
        worst_slack = min(worst_slack, slack)
        if slack < -1e-7:
            violations += 1
    with capsys.disabled():
        gate(
            4,
            "soundness on 200 random instances",
            violations == 0,
            f"worst slack {worst_slack:.2e}",
        )


def test_05_multi_affine_exactness(capsys):
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = random_multi_affine(rng, n)
        rect = random_rectangle(rng, n)
        res = lower_bound(p, rect, ConstraintSet(n))
        exact, _ = vertex_min(p, rect)
        worst = max(worst, abs(res.d_star - exact))
    with capsys.disabled():
        gate(5, "multi-affine exactness", worst <= 1e-9, f"worst gap {worst:.2e}")


def test_06_polar_form_oracle(capsys):
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, 4)
        rect = random_rectangle(rng, n)
        values = bernstein_coefficients(p, rect)
        for cls in itertools.product(*(range(d + 1) for d in p.degrees)):
            rep = (
                np.concatenate(
                    [
                        np.concatenate(
                            [np.full(l, rect.upper[k]), np.full(d - l, rect.lower[k])]
                        )
                        for k, (l, d) in enumerate(zip(cls, p.degrees))
                    ]
                )
                if sum(p.degrees)
                else np.zeros(0)
            )
            oracle = blossom_eval(p, rep)
            if values[cls] != pytest.approx(oracle, rel=1e-9, abs=1e-9):
                ok = False
        for x in rng.uniform(rect.lower, rect.upper, size=(100, n)):
            if bernstein_evaluate(values, rect, x) != pytest.approx(evaluate(p, x), rel=1e-8, abs=1e-8):
                ok = False
    with capsys.disabled():
        gate(6, "polar form / Bernstein oracle", ok)


def _synthesis_certificates(fld, rect, tpl, rng) -> tuple[bool, float]:
    """Certified verdict plus the worst sampled facet flow (1000 points/facet)."""
    report = verify(fld, rect, tpl)
    worst_flow = np.inf
    for k in range(tpl.m):
        pts = sample_facet_points(tpl, rect, k, 1000, rng)
        if pts is None:
            return False, -np.inf
        flow = -(field_values(fld, pts) @ tpl.normals[k])
        worst_flow = min(worst_flow, float(flow.min()))
    return report.invariant, worst_flow


def test_07_neuron_model_synthesis(models_dir, tmp_path, capsys):
    fld, rect, normals, ref = fitzhugh_nagumo()
    start = time.perf_counter()
    trace = synthesize(
        fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref)
    )
    elapsed = time.perf_counter() - start
    found = trace.status == INVARIANT_FOUND and trace.n_iterations <= 50
    final = PolytopeTemplate(normals, trace.final_offsets)
    inv, worst_flow = _synthesis_certificates(fld, rect, final, np.random.default_rng(1007))
    # the synthesized polytope must also pass through the CLI verifier
    poly_path = tmp_path / "neuron_polytope.json"
    from polyvar.files import polytope_payload, write_json

    write_json(poly_path, polytope_payload(final))
    code = main(
        ["verify", str(models_dir / "fitzhugh_nagumo.json"), "--polytope", str(poly_path)]
    )
    capsys.readouterr()
    with capsys.disabled():
        gate(
            7,
            "neuron-model synthesis",
            found and elapsed < 10.0 and inv and code == 0 and worst_flow >= -1e-7,
            f"{trace.n_iterations} iterations, {elapsed:.2f}s, worst facet flow {worst_flow:.2e}",
        )


def test_08_plankton_model_synthesis(models_dir, tmp_path, capsys):
    fld, rect, normals, ref = phytoplankton()
    start = time.perf_counter()
    trace = synthesize(
        fld,
        rect,
        PolytopeTemplate(normals),
        SynthesisParams(reference_point=ref, epsilon=0.1),
    )
    elapsed = time.perf_counter() - start
    found = trace.status == INVARIANT_FOUND and trace.n_iterations <= 50
    final = PolytopeTemplate(normals, trace.final_offsets)
    inv, worst_flow = _synthesis_certificates(fld, rect, final, np.random.default_rng(1008))
    poly_path = tmp_path / "plankton_polytope.json"
    from polyvar.files import polytope_payload, write_json

    write_json(poly_path, polytope_payload(final))
    code = main(
        ["verify", str(models_dir / "phytoplankton.json"), "--polytope", str(poly_path)]
    )
    capsys.readouterr()
    with capsys.disabled():
        gate(
            8,
            "plankton-model synthesis",
            found and elapsed < 30.0 and inv and code == 0 and worst_flow >= -1e-7,
            f"{trace.n_iterations} iterations, {elapsed:.2f}s, worst facet flow {worst_flow:.2e}",
        )


def test_09_sensitivity_validity(capsys):
    p, rect, cs = constrained_3d()
    base = lower_bound(p, rect, cs)
    rng = np.random.default_rng(1009)
    worst = np.inf
    ok = True
    for _ in range(100):
        alpha = rng.uniform(-1.0, 1.0, size=2)
        perturbed = ConstraintSet(
            3,
            inequalities=[
                (np.array([4.0, 3.0, 1.0]), 20.0 + alpha[0]),
                (np.array([-1.0, -2.0, -1.0]), -1.0 + alpha[1]),
            ],
        )
        resolved = lower_bound(p, rect, perturbed)
        margin = resolved.d_star - sensitivity_bound(base, alpha)
        worst = min(worst, margin)
        if margin < -1e-7:
            ok = False
    with capsys.disabled():
        gate(9, "sensitivity validity", ok, f"worst margin {worst:.2e}")


def test_10_repair_idempotence_and_set_preservation(capsys):
    from polyvar.invariance import repair_offsets

    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 4))
        rect = Rectangle([-2.0] * n, [2.0] * n)
        m = int(rng.integers(4, 9))
        normals = rng.normal(size=(m, n))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        x0 = rng.uniform(-1.0, 1.0, size=n)
        offsets = normals @ x0 + rng.uniform(0.05, 1.0, size=m)
        tpl = PolytopeTemplate(normals, offsets)
        once = repair_offsets(tpl, rect)
        twice = repair_offsets(tpl.with_offsets(once), rect)
        if np.abs(twice - once).max() > 1e-9:
            ok = False
        pts = rng.uniform(rect.lower, rect.upper, size=(1000, n))
        inside = pts @ normals.T
        if not np.array_equal(
            np.all(inside <= offsets, axis=1), np.all(inside <= once, axis=1)
        ):
            ok = False
    with capsys.disabled():
        gate(10, "repair idempotence and set preservation", ok)
