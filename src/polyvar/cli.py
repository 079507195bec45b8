"""Command-line front end.

Exit-code contract: 0 = success (for ``verify``/``synthesize``: certified
invariant), 1 = verification or synthesis did not certify (a conservative
failure, not an error), 2 = malformed input or an infeasible/empty problem.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import files
from .files import InputError
from .invariance import (
    INVARIANT_FOUND,
    EmptyPolytope,
    PolytopeTemplate,
    synthesize,
    template_within_rect,
    verify,
)
from .lpsolve import NumericalFailure
from .oracle import NoFeasibleSample, grid_min
from .relaxation import InfeasiblePolytope, lower_bound


def polygon_vertices(tpl: PolytopeTemplate, tol: float = 1e-9) -> np.ndarray:
    """Vertices of a 2-D template polytope in strict counterclockwise order.

    Pairwise facet intersection followed by feasibility filtering; duplicate
    and collinear points are removed so consecutive edges always turn left.
    Each facet row is divided by its normal's length first, so the normals'
    scale does not matter; two facets cross unless their unit normals are
    parallel to within 1e-12.  Each tolerance is ``tol`` times the largest
    normalized offset, which shrinks with a polygon about the origin; a point
    within it of one kept before it, in facet pair order, is a duplicate.
    """
    if tpl.n != 2:
        raise ValueError("polygon extraction only applies to 2-D templates")
    lengths = np.hypot(tpl.normals[:, 0], tpl.normals[:, 1])
    normals, offsets = tpl.normals / lengths[:, None], tpl.offsets / lengths
    scale = float(np.abs(offsets).max())
    pairs = np.column_stack(np.triu_indices(tpl.m, 1))
    mats = normals[pairs]
    crossing = np.abs(np.linalg.det(mats)) >= 1e-12
    pairs, mats = pairs[crossing], mats[crossing]
    pts = np.linalg.solve(mats, offsets[pairs][:, :, None])[:, :, 0]
    pts = pts[np.all(pts @ normals.T <= offsets + tol * scale, axis=1)]
    unique = []
    while pts.shape[0]:
        unique.append(pts[0])
        pts = pts[1:][np.linalg.norm(pts[1:] - pts[0], axis=1) > tol * scale]
    pts = np.array(unique).reshape(-1, 2)
    if pts.shape[0] < 3:
        return pts
    centroid = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0]))
    pts = pts[order]
    # Drop collinear middle points so the CCW order is strict.
    u = pts - np.roll(pts, 1, axis=0)
    v = np.roll(pts, -1, axis=0) - pts
    keep = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] > tol * scale
    return pts[keep] if keep.any() else pts


def _print_vector(name: str, vec) -> None:
    body = ", ".join(repr(float(v)) for v in np.asarray(vec, dtype=float))
    print(f"{name} = [{body}]")


def _cmd_bound(args) -> int:
    start = time.perf_counter()
    poly, rect, cs = files.load_problem(args.problem)
    res = lower_bound(poly, rect, cs)
    print(f"d_star = {res.d_star!r}")
    _print_vector("lambda", res.lam)
    _print_vector("mu", res.mu)
    payload = {
        "schema_version": files.SCHEMA_VERSION,
        "command": "bound",
        "d_star": res.d_star,
        "lambda": res.lam,
        "mu": res.mu,
    }
    if args.oracle:
        value, witness = grid_min(poly, rect, cs, steps_per_axis=args.steps)
        print(f"grid_min = {value!r} (certified bound <= true minimum <= grid_min)")
        _print_vector("grid_witness", witness)
        payload["oracle"] = {
            "value": value,
            "witness": witness,
            "steps_per_axis": args.steps,
        }
    payload["wall_time_s"] = time.perf_counter() - start
    if args.report:
        files.write_json(args.report, payload)
    return 0


def _report_facets(report) -> list:
    facets = []
    for k in range(report.d_star.size):
        if report.facet_feasible[k] and k not in report.failures:
            facets.append(
                {
                    "d_star": report.d_star[k],
                    "lambda": report.multipliers[k],
                    "feasible": True,
                }
            )
        else:
            entry = {"d_star": None, "lambda": None, "feasible": bool(report.facet_feasible[k])}
            if k in report.failures:
                entry["error"] = report.failures[k]
            facets.append(entry)
    return facets


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    model = files.load_model(args.model)
    tpl = model.template
    if args.polytope:
        tpl = files.load_polytope(args.polytope)
        if tpl.n != model.field.n:
            raise InputError("polytope file dimension does not match the model")
    if tpl.offsets is None:
        raise InputError("verify requires a template with explicit offsets")
    if not template_within_rect(tpl, model.rectangle):
        raise InputError("template polytope is not contained in the rectangle")
    report = verify(model.field, model.rectangle, tpl)
    verdict = "invariant" if report.invariant else "not_verified"
    print(f"verdict = {verdict}")
    for k in range(tpl.m):
        if report.facet_feasible[k] and k not in report.failures:
            print(f"facet {k}: d_star = {float(report.d_star[k])!r}")
        elif not report.facet_feasible[k]:
            print(f"facet {k}: empty")
        else:
            print(f"facet {k}: failed ({report.failures[k]})")
    payload = {
        "schema_version": files.SCHEMA_VERSION,
        "command": "verify",
        "verdict": verdict,
        "facets": _report_facets(report),
        "wall_time_s": time.perf_counter() - start,
    }
    if args.report:
        files.write_json(args.report, payload)
    return 0 if report.invariant else 1


def _iteration_payload(trace) -> list:
    out = []
    for rec in trace.records:
        out.append(
            {
                "offsets": rec.offsets,
                "d_star": rec.d_star,
                "feasible": rec.facet_feasible,
                "invariant": rec.invariant,
                "t_star": rec.t_star,
                "alpha": rec.alpha,
                "repaired_offsets": rec.repaired_offsets,
                "failures": {str(k): v for k, v in rec.failures.items()},
            }
        )
    return out


def _cmd_synthesize(args) -> int:
    start = time.perf_counter()
    model = files.load_model(args.model)
    tpl = model.template
    if args.template:
        tpl = _uniform_template(args.template, model.field.n)
    trace = synthesize(model.field, model.rectangle, tpl, model.params)
    print(f"status = {trace.status}")
    print(f"iterations = {trace.n_iterations}")
    _print_vector("final_offsets", trace.final_offsets)
    payload = {
        "schema_version": files.SCHEMA_VERSION,
        "command": "synthesize",
        "status": trace.status,
        "verdict": "invariant" if trace.status == INVARIANT_FOUND else "not_verified",
        "iterations": _iteration_payload(trace),
        "final_offsets": trace.final_offsets,
        "wall_time_s": time.perf_counter() - start,
    }
    if args.report:
        files.write_json(args.report, payload)
    if trace.status != INVARIANT_FOUND:
        return 1
    if args.polytope:
        final = tpl.with_offsets(trace.final_offsets)
        vertices = polygon_vertices(final) if final.n == 2 else None
        files.write_json(args.polytope, files.polytope_payload(final, vertices))
    return 0


def _uniform_template(spec_text: str, n: int) -> PolytopeTemplate:
    """Parse ``uniform:<m>``: m evenly rotated unit normals (2-D only)."""
    prefix, _, count = spec_text.partition(":")
    if prefix != "uniform" or not count.isdigit() or int(count) < 3:
        raise InputError(f"unsupported template spec '{spec_text}' (use uniform:<m>, m >= 3)")
    if n != 2:
        raise InputError("uniform templates are only generated for 2-D models")
    m = int(count)
    angles = 2.0 * np.pi * np.arange(m) / m
    return PolytopeTemplate(np.column_stack([np.cos(angles), np.sin(angles)]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvar",
        description=(
            "Certified lower bounds of polynomials on polytopes, and LP-based "
            "verification/synthesis of polytopic invariant sets for polynomial ODEs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="certified lower bound for a problem file")
    p_bound.add_argument("problem", help="problem JSON file")
    p_bound.add_argument("--oracle", action="store_true", help="also report a grid-sampling minimum")
    p_bound.add_argument("--steps", type=int, default=50, help="grid steps per axis for --oracle")
    p_bound.add_argument("--report", help="write a JSON report here")

    p_verify = sub.add_parser("verify", help="verify invariance of a model's polytope")
    p_verify.add_argument("model", help="model JSON file")
    p_verify.add_argument("--polytope", help="polytope JSON file overriding the model template")
    p_verify.add_argument("--report", help="write a JSON report here")

    p_synth = sub.add_parser("synthesize", help="iteratively synthesize an invariant polytope")
    p_synth.add_argument("model", help="model JSON file")
    p_synth.add_argument("--template", help="generated template, e.g. uniform:8 (2-D only)")
    p_synth.add_argument("--report", help="write a JSON report here")
    p_synth.add_argument("--polytope", help="write the final polytope here on success")
    return parser


# Built once per process; parsing keeps no state in it, so every call of
# ``main`` starts from the same defaults.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler = {"bound": _cmd_bound, "verify": _cmd_verify, "synthesize": _cmd_synthesize}[
        args.command
    ]
    try:
        return handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePolytope as exc:
        print(f"error: infeasible constraint region: {exc}", file=sys.stderr)
        return 2
    except EmptyPolytope as exc:
        print(f"error: empty polytope: {exc}", file=sys.stderr)
        return 2
    except NoFeasibleSample as exc:
        print(f"error: oracle sampling failed: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
