"""Per-item correctness checks and bound-gap references.

Everything here runs outside the timed and traced regions.  The checks read
the reports the program wrote and recompute what they claim from the input
files alone, with code of their own.  The package serves only as a
reference through ``polyvar.oracle.grid_min`` and, for an exported polytope,
``polyvar verify``.

Tolerances: a recomputed bound must match within ``1e-9 * (1 + |d_star|)``;
a certified value may exceed a sampled reference by at most
``1e-9 * (1 + |ref|)``, the feasibility tolerance ``grid_min`` itself applies;
an inequality multiplier may read as low as ``-1e-9``.  The simplex returns
multipliers such as ``-1e-15`` on a few percent of small problems, so the
bound is recomputed with them clipped at 0, which is a valid certificate,
and must still match.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-9
GRID_POINTS = 40_000
FACET_SAMPLES = 64


def _terms(terms) -> list:
    return [(tuple(t["exponents"]), float(t["coefficient"])) for t in terms]


def eval_terms(terms, points) -> np.ndarray:
    """Value of the polynomial ``terms`` at each row of ``points``."""
    points = np.atleast_2d(points)
    out = np.zeros(points.shape[0])
    for exps, coeff in _terms(terms):
        out += coeff * np.prod(points ** np.asarray(exps, dtype=float), axis=1)
    return out


def bernstein(terms, lower, upper, degrees) -> np.ndarray:
    """Bernstein coefficients over the box at the given degrees.

    Per axis: the affine substitution ``x = lower + width * y`` as a matrix on
    the monomial coefficients, then the change to the degree-``d`` Bernstein
    basis on [0, 1], ``b_l = sum_i C(l, i) / C(d, i) a_i``.
    """
    coeffs = np.zeros(tuple(d + 1 for d in degrees))
    for exps, coeff in _terms(terms):
        coeffs[exps] += coeff
    for axis, d in enumerate(degrees):
        lo, width = float(lower[axis]), float(upper[axis] - lower[axis])
        shift = np.zeros((d + 1, d + 1))
        to_bern = np.zeros((d + 1, d + 1))
        for e in range(d + 1):
            for j in range(e + 1):
                shift[j, e] = math.comb(e, j) * lo ** (e - j) * width**j
        for l in range(d + 1):
            for i in range(l + 1):
                to_bern[l, i] = math.comb(l, i) / math.comb(d, i)
        coeffs = np.moveaxis(np.tensordot(to_bern @ shift, coeffs, axes=(1, axis)), 0, axis)
    return coeffs


def relative_gap(ref, bound) -> float:
    """``g / (1 + g)`` with ``g = (ref - bound) / (1 + |ref|)``: 0 when tight,
    approaching 1 when loose.  ``g`` itself spans 0 to about 50 on the small
    problems, so its median moves by more than a tenth between seeds, while
    the mean of this bounded form moves by about a twentieth."""
    g = (ref - bound) / (1.0 + abs(ref))
    return g / (1.0 + g)


def problem_arrays(payload) -> dict:
    """The problem in ``<=`` form with the lift degrees the bound uses."""
    lower = np.asarray(payload["rectangle"]["lower"], dtype=float)
    upper = np.asarray(payload["rectangle"]["upper"], dtype=float)
    n = lower.size
    a, b = [], []
    for row in payload.get("inequalities", ()):
        sign = -1.0 if row.get("op", "<=") == ">=" else 1.0
        a.append(sign * np.asarray(row["a"], dtype=float))
        b.append(sign * float(row["b"]))
    c = [np.asarray(row["c"], dtype=float) for row in payload.get("equalities", ())]
    d = [float(row["d"]) for row in payload.get("equalities", ())]
    a = np.asarray(a, dtype=float).reshape(-1, n)
    c = np.asarray(c, dtype=float).reshape(-1, n)
    degrees = [max((e[k] for e, _ in _terms(payload["polynomial"])), default=0) for k in range(n)]
    touched = np.any(np.vstack([a, c]) != 0.0, axis=0)
    degrees = tuple(max(dk, 1) if t else dk for dk, t in zip(degrees, touched))
    return {"lower": lower, "upper": upper, "a": a, "b": np.asarray(b), "c": c,
            "d": np.asarray(d), "degrees": degrees}


def bound_reference(payload, x0) -> float:
    """Upper bound on the true minimum: ``grid_min`` and the known interior
    point ``x0``, whichever is lower."""
    from polyvar.oracle import NoFeasibleSample, grid_min
    from polyvar.polynomial import MultiPoly, Rectangle
    from polyvar.relaxation import ConstraintSet

    arr = problem_arrays(payload)
    n = arr["lower"].size
    poly = MultiPoly(n, dict(_terms(payload["polynomial"])))
    cs = ConstraintSet(n, list(zip(arr["a"], arr["b"])), list(zip(arr["c"], arr["d"])))
    ref = float(eval_terms(payload["polynomial"], np.asarray(x0, dtype=float))[0])
    steps = max(2, min(201, int(round(GRID_POINTS ** (1.0 / n)))))
    try:
        value, _ = grid_min(poly, Rectangle(arr["lower"], arr["upper"]), cs, steps_per_axis=steps)
    except NoFeasibleSample:
        return ref
    return min(ref, value)


def recomputed_bound(payload, lam, mu) -> float:
    """``min_c (B_c + lam . g(c) + mu . h(c))`` over the vertex classes ``c``."""
    arr = problem_arrays(payload)
    lower, upper, degrees = arr["lower"], arr["upper"], arr["degrees"]
    values = bernstein(payload["polynomial"], lower, upper, degrees)
    grids = [lower[k] + (np.arange(dk + 1) / dk if dk else np.zeros(1)) * (upper[k] - lower[k])
             for k, dk in enumerate(degrees)]
    points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, len(degrees))
    total = values.reshape(-1).copy()
    if arr["a"].size:
        total += (points @ arr["a"].T - arr["b"]) @ np.asarray(lam, dtype=float)
    if arr["c"].size:
        total += (points @ arr["c"].T - arr["d"]) @ np.asarray(mu, dtype=float)
    return float(total.min())


def check_bound(payload, code, report, ref) -> tuple:
    """``(ok, reason, gap)`` for one ``polyvar bound`` result."""
    if code != 0:
        return False, f"exit code {code}", None
    if report is None:
        return False, "no report written", None
    d_star = report.get("d_star")
    lam = report.get("lambda") or []
    mu = report.get("mu") or []
    if not isinstance(d_star, (int, float)) or not math.isfinite(d_star):
        return False, f"d_star is {d_star!r}", None
    if any(v < -TOL for v in lam):
        return False, f"negative inequality multiplier {min(lam)!r}", None
    if d_star > ref + TOL * (1.0 + abs(ref)):
        return False, f"d_star {d_star!r} above reference minimum {ref!r}", None
    # Clipping at 0 makes the certificate valid; it must still give d_star.
    recomputed = recomputed_bound(payload, [max(v, 0.0) for v in lam], mu)
    if abs(recomputed - d_star) > TOL * (1.0 + abs(d_star)):
        return False, f"d_star {d_star!r} but multipliers give {recomputed!r}", None
    return True, "", relative_gap(ref, d_star)


def facet_points(normals, offsets, lower, upper, k, rng) -> np.ndarray:
    """Points of facet ``k`` of ``{normals @ x <= offsets}`` within the box:
    the facet's vertices and random convex combinations of them."""
    n = normals.shape[1]
    planes = np.vstack([normals, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([offsets, upper, -lower])
    combos = np.asarray(list(itertools.combinations(range(planes.shape[0]), n)))
    combos = combos[np.any(combos == k, axis=1)]
    mats = planes[combos]
    regular = np.abs(np.linalg.det(mats)) > 1e-12
    verts = np.linalg.solve(mats[regular], rhs[combos[regular]][..., None])[..., 0]
    scale = 1.0 + np.abs(rhs).max()
    verts = verts[np.all(verts @ planes.T <= rhs + TOL * scale, axis=1)]
    if verts.shape[0] == 0:
        return verts
    weights = rng.dirichlet(np.ones(verts.shape[0]), size=FACET_SAMPLES)
    return np.vstack([verts, weights @ verts])


def _flow_along(model, normal, points) -> np.ndarray:
    """``normal . f(x)`` at each point."""
    values = np.column_stack([eval_terms(comp, points) for comp in model["field"]])
    return values @ normal


def check_synth(model, code, report, polytope, reverify_code) -> tuple:
    """``(ok, reason, gaps, certified)`` for one ``polyvar synthesize`` result.

    ``gaps`` holds one entry per facet program of the final verification:
    the certified facet bound against the smallest sampled value of
    ``-n_k . f`` on that facet.
    """
    if code not in (0, 1):
        return False, f"exit code {code}", [], False
    if report is None:
        return False, "no report written", [], False
    status = report.get("status")
    found = status == "invariant_found"
    if found != (code == 0):
        return False, f"status {status} with exit code {code}", [], False
    records = report.get("iterations") or []
    if not records:
        return False, "no iterations reported", [], False
    last = records[-1]
    d_star = last["d_star"]
    complete = all(last["feasible"]) and not last.get("failures") and None not in d_star
    if last["invariant"] != (complete and all(v >= 0.0 for v in d_star)):
        return False, "invariant flag disagrees with the facet bounds", [], False
    if found != last["invariant"]:
        return False, f"status {status} but last iteration invariant={last['invariant']}", [], False

    normals = np.asarray(model["template"]["normals"], dtype=float)
    offsets = np.asarray(last["offsets"], dtype=float)
    lower = np.asarray(model["rectangle"]["lower"], dtype=float)
    upper = np.asarray(model["rectangle"]["upper"], dtype=float)
    rng = np.random.default_rng(0)
    gaps = []
    for k, dk in enumerate(d_star):
        if dk is None:
            continue
        points = facet_points(normals, offsets, lower, upper, k, rng)
        if points.shape[0] == 0:
            return False, f"no point found on nonempty facet {k}", gaps, False
        flow = _flow_along(model, normals[k], points)
        # d_star bounds -n_k . f from below on the facet: the reference is
        # the smallest sampled value of -n_k . f, that is -max(n_k . f).
        ref = float(-flow.max())
        if dk > ref + TOL * (1.0 + abs(ref)):
            return False, f"facet {k}: d_star {dk!r} above sampled minimum {ref!r}", gaps, False
        if found and flow.max() > TOL:
            return False, f"facet {k}: flow points outward ({float(flow.max())!r})", gaps, False
        gaps.append(relative_gap(ref, dk))

    if found:
        if polytope is None:
            return False, "no polytope exported", gaps, False
        if polytope["offsets"] != report["final_offsets"] or polytope["offsets"] != last["offsets"]:
            return False, "exported offsets differ from the certified ones", gaps, False
        if reverify_code != 0:
            return False, f"exported polytope re-verifies with exit code {reverify_code}", gaps, False
    return True, "", gaps, found
