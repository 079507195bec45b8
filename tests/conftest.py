"""Shared builders for the test suite: random instances, case-study models,
a hit-and-run facet sampler used by the certificate soundness checks, and
HiGHS as the independent solver of programs the LP engine does not take."""

from pathlib import Path

import numpy as np
import pytest

from polyvar.invariance import (
    PolytopeTemplate,
    SynthesisParams,
    VectorField,
    facet_programs,
    synthesize,
    verify,
)
from polyvar.lpsolve import INFEASIBLE, OPTIMAL, NumericalFailure
from polyvar.oracle import box_point
from polyvar.polynomial import MultiPoly, Rectangle, evaluate_many
from polyvar.relaxation import ConstraintSet, InfeasiblePolytope, certify

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # One profile for the whole suite: every property draws the same cases on
    # every run, keeps no example database and has no per-example deadline.
    settings.register_profile("polyvar", derandomize=True, database=None, deadline=None)
    settings.load_profile("polyvar")


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS_DIR


# HiGHS's status for an unbounded program, which the LP engine, whose costs
# are nonnegative, never returns
UNBOUNDED = "unbounded"
HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def highs(lp, **options):
    """``(status, optimum, x)`` of ``lp`` from HiGHS, with ``lpsolve``'s
    status names and ``UNBOUNDED``; a test without scipy skips itself.  It
    solves the programs with costs of either sign, such as the oracle's
    ``free_lp`` forms, that the engine does not take."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(
        lp.c,
        A_ub=lp.G if lp.m_ineq else None,
        b_ub=lp.h if lp.m_ineq else None,
        A_eq=lp.A if lp.m_eq else None,
        b_eq=lp.d if lp.m_eq else None,
        bounds=(0, None),
        method="highs",
        options=options,
    )
    assert res.status in HIGHS_STATUS, res.message
    return HIGHS_STATUS[res.status], res.fun, res.x


def random_rectangle(rng, n, min_width=0.5, max_width=4.0) -> Rectangle:
    lo = rng.uniform(-3.0, 0.0, size=n)
    return Rectangle(lo, lo + rng.uniform(min_width, max_width, size=n))


def random_poly(rng, n, max_degree, n_terms=None) -> MultiPoly:
    degrees = rng.integers(0, max_degree + 1, size=n)
    if degrees.sum() == 0:
        degrees[rng.integers(0, n)] = 1
    if n_terms is None:
        n_terms = int(rng.integers(2, 7))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(int(rng.integers(0, degrees[k] + 1)) for k in range(n))
        terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2.0, 2.0))
    # guarantee every sampled degree is actually attained
    for k in range(n):
        if degrees[k] > 0:
            exps = [0] * n
            exps[k] = int(degrees[k])
            terms.setdefault(tuple(exps), float(rng.uniform(-2.0, 2.0)))
    return MultiPoly(n, terms)


def random_multi_affine(rng, n) -> MultiPoly:
    terms = {}
    for _ in range(int(rng.integers(2, min(2**n, 6) + 2))):
        exps = tuple(int(b) for b in rng.integers(0, 2, size=n))
        terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2.0, 2.0))
    return MultiPoly(n, terms)


def random_feasible_constraints(rng, rect, n_ineq, n_eq) -> ConstraintSet:
    """Constraints guaranteed to admit grid samples: they pass near the
    rectangle's center with generous inequality slack."""
    n = rect.n
    center = (rect.lower + rect.upper) / 2.0
    x0 = center + rng.uniform(-0.05, 0.05, size=n) * rect.width
    ineqs = []
    for _ in range(n_ineq):
        a = rng.normal(size=n)
        slack = rng.uniform(0.2, 1.0) * (1.0 + np.linalg.norm(a))
        ineqs.append((a, float(a @ x0 + slack)))
    eqs = []
    for _ in range(n_eq):
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        eqs.append((c, float(c @ x0)))
    return ConstraintSet(n, inequalities=ineqs, equalities=eqs)


def fitzhugh_nagumo() -> tuple[VectorField, Rectangle, np.ndarray, np.ndarray]:
    """Neuron model with stimulus 7/8, its rectangle, 8 uniform normals, and
    the equilibrium used as reference point."""
    fld = VectorField(
        (
            MultiPoly(2, {(1, 0): 1.0, (3, 0): -1.0 / 3.0, (0, 1): -1.0, (0, 0): 0.875}),
            MultiPoly(2, {(1, 0): 0.08, (0, 1): -0.064, (0, 0): 0.056}),
        )
    )
    rect = Rectangle([-2.5, -1.5], [2.5, 3.5])
    angles = 2.0 * np.pi * np.arange(8) / 8
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    return fld, rect, normals, np.array([0.0, 0.875])


def fitzhugh_nagumo_iterate64() -> tuple[VectorField, Rectangle, PolytopeTemplate]:
    """The 64-facet FitzHugh-Nagumo polytope after one synthesis step from the
    box: some of its facets touch it at a single vertex, with a dozen rows
    tight there up to rounding."""
    fld, rect, _, ref = fitzhugh_nagumo()
    angles = 2.0 * np.pi * np.arange(64) / 64
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    trace = synthesize(
        fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref, max_iter=2)
    )
    return fld, rect, PolytopeTemplate(normals, trace.records[1].offsets)


def tiny_entry_facets() -> tuple[VectorField, Rectangle, PolytopeTemplate]:
    """The bundled FitzHugh-Nagumo field and template on a rectangle where
    facet 5's program has a degenerate row (right-hand side 0) with an entry
    of 3.45e-9, which an absolute pivot tolerance admits as a pivot."""
    fld, _, normals, _ = fitzhugh_nagumo()
    offsets = [2.4244868517041693, 3.7426406871192874, 3.3888888888888884, 4.089289614847649,
               2.4524464230483383, 2.3284271247461916, 1.5000000000000002, 2.7343153804954032]
    rect = Rectangle(
        [float.fromhex("-0x1.39e9c3b681a7ap+1"), -1.5],
        [float.fromhex("0x1.365595d42e031p+1"), float.fromhex("0x1.b1c71c7b33ed9p+1")],
    )
    return fld, rect, PolytopeTemplate(normals, offsets)


def assert_verify_matches_members_alone(fld: VectorField, rect: Rectangle, tpl: PolytopeTemplate):
    """``verify``, which certifies the facet programs in stacked solves, must
    give bit for bit the report that ``certify`` gives on each member of
    ``facet_programs`` alone; returns the report."""
    m = tpl.m
    d_star = np.full(m, np.nan)
    multipliers = np.full((m, m), np.nan)
    feasible = np.ones(m, dtype=bool)
    failures = {}
    members = [lp for stack in facet_programs(fld, rect, tpl) for lp in stack]
    assert len(members) == m
    for k, lp in enumerate(members):
        try:
            res = certify(lp)
        except InfeasiblePolytope:
            feasible[k] = False
            continue
        except NumericalFailure as exc:
            failures[k] = str(exc)
            continue
        d_star[k] = res.d_star
        multipliers[k] = np.insert(res.lam, k, res.mu[0])
    report = verify(fld, rect, tpl)
    assert report.d_star.tobytes() == d_star.tobytes()
    assert report.multipliers.tobytes() == multipliers.tobytes()
    assert report.facet_feasible.tobytes() == feasible.tobytes()
    assert report.failures == failures
    return report


def term_by_term_objective(fld: VectorField, normal) -> MultiPoly:
    """``-normal . f`` summed term by term, at the field's lift degrees."""
    terms = {}
    for w, f in zip(normal, fld.components):
        for exps, coeff in f.terms.items():
            terms[exps] = terms.get(exps, 0.0) - w * coeff
    return MultiPoly(fld.n, terms, degrees=fld.degrees)


def phytoplankton() -> tuple[VectorField, Rectangle, np.ndarray, np.ndarray]:
    """Plankton growth model, its rectangle, the 18-facet template
    (axis and pairwise-diagonal normals), and the stable equilibrium."""
    fld = VectorField(
        (
            MultiPoly(3, {(0, 0, 0): 1.0, (1, 0, 0): -1.0, (1, 1, 0): -0.25}),
            MultiPoly(3, {(0, 1, 1): 2.0, (0, 1, 0): -1.0}),
            MultiPoly(3, {(1, 0, 0): 0.25, (0, 0, 2): -2.0}),
        )
    )
    rect = Rectangle([0.0, -0.1, 0.0], [3.0, 2.0, 0.6])
    normals = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        normals.append(e.copy())
        normals.append(-e)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(3)
                    v[i], v[j] = si, sj
                    normals.append(v)
    ref = np.array([1.0, 0.0, np.sqrt(1.0 / 8.0)])
    return fld, rect, np.array(normals), ref


def field_values(fld: VectorField, points) -> np.ndarray:
    """The field at every row of ``points``, one column per component."""
    return np.column_stack([evaluate_many(f, points) for f in fld.components])


def sample_facet_points(tpl: PolytopeTemplate, rect: Rectangle, k: int, n_points: int, rng):
    """Hit-and-run samples on facet k (within the rectangle); None if empty."""
    a = tpl.normals[k]
    others = [i for i in range(tpl.m) if i != k]
    facet = slice(k, k + 1)
    G, h = tpl.normals[others], tpl.offsets[others]
    x = box_point(rect, G, h, tpl.normals[facet], tpl.offsets[facet])
    if x is None:
        return None
    basis = np.linalg.qr(np.column_stack([a / np.linalg.norm(a), np.eye(tpl.n)]))[0][:, 1 : tpl.n]
    rows = [(tpl.normals[i], tpl.offsets[i]) for i in others]
    for j in range(tpl.n):
        e = np.zeros(tpl.n)
        e[j] = 1.0
        rows.append((e, rect.upper[j]))
        rows.append((-e, -rect.lower[j]))
    points = np.empty((n_points, tpl.n))
    for s in range(n_points):
        d = basis @ rng.normal(size=basis.shape[1]) if basis.size else np.zeros(tpl.n)
        t_max, t_min = np.inf, -np.inf
        for g, h in rows:
            gd = float(g @ d)
            slack = float(h - g @ x)
            if gd > 1e-12:
                t_max = min(t_max, slack / gd)
            elif gd < -1e-12:
                t_min = max(t_min, slack / gd)
        if np.isfinite(t_max) and np.isfinite(t_min) and t_max >= t_min:
            x = x + rng.uniform(t_min, t_max) * d
        points[s] = x
    return points
