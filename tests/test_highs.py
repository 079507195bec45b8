"""Bounding programs against an independent solver (HiGHS through scipy)."""

import numpy as np
import pytest

from polyvar.cli import polygon_vertices
from polyvar.invariance import facet_programs, verify
from polyvar.lpsolve import INFEASIBLE, OPTIMAL, solve
from polyvar.relaxation import (
    ConstraintSet,
    InfeasiblePolytope,
    build_reduced_lp,
    lower_bound,
    pad_for_constraints,
)

from conftest import (
    fitzhugh_nagumo_iterate64,
    random_feasible_constraints,
    random_poly,
    random_rectangle,
)

linprog = pytest.importorskip("scipy.optimize").linprog


def highs(lp):
    """``(feasible, optimum)`` of a bounding program from HiGHS."""
    res = linprog(
        lp.c,
        A_ub=lp.G if lp.m_ineq else None,
        b_ub=lp.h if lp.m_ineq else None,
        A_eq=lp.A,
        b_eq=lp.d,
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0, res.fun


def random_constraints(rng, rect):
    """Feasible constraints, or ones that leave a gap of at least 1e-7 of the
    box's extent between two opposite halfspaces, or an equality plane
    passing outside the box."""
    n = rect.n
    cs = random_feasible_constraints(rng, rect, int(rng.integers(0, 4)), int(rng.integers(0, 2)))
    kind = rng.integers(0, 3)
    if kind == 0:
        return cs, True
    a = rng.normal(size=n)
    lo = float(np.minimum(a * rect.lower, a * rect.upper).sum())
    hi = float(np.maximum(a * rect.lower, a * rect.upper).sum())
    gap = 10.0 ** rng.uniform(-7, -1) * (hi - lo)
    ineqs = list(zip(cs.a, cs.b))
    eqs = list(zip(cs.c, cs.d))
    if kind == 1:
        cut = lo + rng.uniform(0.2, 0.8) * (hi - lo)
        ineqs += [(a, cut), (-a, -(cut + gap))]
    else:
        eqs.append((a, hi + gap))
    return ConstraintSet(n, inequalities=ineqs, equalities=eqs), False


def test_random_bounding_programs_match_highs():
    rng = np.random.default_rng(173)
    verdicts = set()
    for _ in range(150):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, 3)
        rect = random_rectangle(rng, n)
        cs, feasible = random_constraints(rng, rect)
        lp = build_reduced_lp(pad_for_constraints(p, cs), rect, cs)
        ref_feasible, ref = highs(lp)
        ours = solve(lp)
        assert ref_feasible == feasible
        assert (ours.status == OPTIMAL) == ref_feasible
        verdicts.add(ref_feasible)
        if not ref_feasible:
            assert ours.status == INFEASIBLE
            with pytest.raises(InfeasiblePolytope):
                lower_bound(p, rect, cs)
            continue
        assert abs(ours.objective - ref) <= 1e-9 * (1.0 + abs(ref))
        assert lower_bound(p, rect, cs).d_star <= ref + 1e-9
    assert verdicts == {True, False}


def test_single_vertex_facets_stay_feasible():
    # after one step from the box, the 64-facet FitzHugh-Nagumo polytope has
    # facets that touch it at a single vertex, with a dozen rows tight there
    # up to rounding; each facet program must stay feasible and bounded
    fld, rect, tpl = fitzhugh_nagumo_iterate64()
    vertices = polygon_vertices(tpl)
    tight = np.abs(vertices @ tpl.normals.T - tpl.offsets) <= 1e-9
    single = [k for k in range(tpl.m) if tight[:, k].sum() == 1]
    assert max(tight[tight[:, k]].sum() for k in single) >= 3
    report = verify(fld, rect, tpl)
    assert report.complete
    assert np.all(np.isfinite(report.d_star))
    programs = list(facet_programs(fld, rect, tpl))
    for k in single:
        ref_feasible, ref_value = highs(programs[k])
        assert ref_feasible
        assert report.d_star[k] <= ref_value + 1e-9
