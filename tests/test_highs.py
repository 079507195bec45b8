"""The LP engine against an independent solver (HiGHS through scipy): the
bounding programs, and general programs drawn by hypothesis."""

import numpy as np
import pytest

from polyvar.cli import polygon_vertices
from polyvar.invariance import (
    CAPPED,
    LEAST_MOVE,
    LEAST_MOVE_SHARE,
    PolytopeTemplate,
    VerificationReport,
    _least_move,
    _max_min,
    facet_programs,
    improve_offsets,
    support_values,
    verify,
)
from polyvar.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    LPProblem,
    LPStack,
    NumericalFailure,
    kkt_residuals,
    solve,
    solve_sweep,
)
from polyvar.polynomial import Rectangle
from polyvar.relaxation import (
    ConstraintSet,
    InfeasiblePolytope,
    bounding_program,
    build_reduced_lp,
    certify,
    lower_bound,
    pad_for_constraints,
)

from conftest import (
    UNBOUNDED,
    fitzhugh_nagumo_iterate64,
    highs,
    random_feasible_constraints,
    random_poly,
    random_rectangle,
    tiny_entry_facets,
)

linprog = pytest.importorskip("scipy.optimize").linprog


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
        ref_status, ref, _ = highs(lp)
        assert ref_status != UNBOUNDED
        ref_feasible = ref_status == OPTIMAL
        assert ref_feasible == feasible
        verdicts.add(ref_feasible)
        if not ref_feasible:
            with pytest.raises(InfeasiblePolytope):
                certify(lp)
            with pytest.raises(InfeasiblePolytope):
                lower_bound(p, rect, cs)
            continue
        assert abs(certify(lp).d_star - ref) <= 1e-9 * (1.0 + abs(ref))
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
    programs = [lp for stack in facet_programs(fld, rect, tpl) for lp in stack]
    for k in single:
        ref_status, ref_value, _ = highs(programs[k])
        assert ref_status == OPTIMAL
        assert report.d_star[k] <= ref_value + 1e-9


def test_tiny_degenerate_entry_facets_match_highs():
    # facet 5's program carries an entry of 3.45e-9 in a degenerate row; from
    # its dual start it comes out optimal at HiGHS's 1.0893247742688756, and
    # every facet's bound matches HiGHS at tight tolerances
    fld, rect, tpl = tiny_entry_facets()
    report = verify(fld, rect, tpl)
    assert report.complete and report.failures == {}
    assert abs(report.d_star[5] - 1.0893247742688756) <= 1e-9 * (1.0 + 1.0893247742688756)
    programs = [lp for stack in facet_programs(fld, rect, tpl) for lp in stack]
    for k, lp in enumerate(programs):
        status, value, _ = highs(lp, **TIGHT)
        assert status == OPTIMAL
        assert abs(report.d_star[k] - value) <= 1e-9 * (1.0 + abs(value)), k


# General programs.  HiGHS is the reference at tolerances below the smallest
# gap drawn and without presolve, whose own tolerances misjudge slivers of
# width 1e-7; a badly scaled program is referenced by the same program before
# its rows were scaled, since row scaling leaves the answer as it is.
TIGHT = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": False,
}
KINDS = ("badly scaled", "near-infeasible", "degenerate", "redundant", "plain")


def general_lps(st):
    """Strategy of ``(kind, lp, reference)``: a program in the one form with
    nonnegative costs and a feasible point ``x0``, made one of ``KINDS``, and
    the program HiGHS solves for it.

    Degenerate: extra rows tight at the reference optimum.  Redundant:
    duplicated inequality rows and equalities.  Badly scaled: every row
    scaled by ``10**k``, ``|k| <= 6``.  Near-infeasible: two opposite rows
    with a gap of 1e-7 to 1e-1 between them, or a sliver that wide.
    """
    # HiGHS drops matrix entries of magnitude 1e-9 and below, so the
    # reference programs have none: every coefficient is 0 or at least 1e-3.
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
    cost = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    zero_or = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

    def vector(draw, size, elements=coeff):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)

    def matrix(draw, rows, cols):
        return np.array([vector(draw, cols) for _ in range(rows)]).reshape(rows, cols)

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 4))
        m, m_eq = draw(st.integers(0, 4)), draw(st.integers(0, 2))
        x0 = 2.0 * vector(draw, n, zero_or)
        G = matrix(draw, m, n)
        h = G @ x0 + vector(draw, m, zero_or)
        A = matrix(draw, m_eq, n)
        d = A @ x0
        if draw(st.booleans()):
            G = np.vstack([G, np.ones((1, n))])
            h = np.append(h, x0.sum() + draw(st.floats(0.0, 3.0)))
        c = vector(draw, n, cost)
        kind = draw(st.sampled_from(KINDS))
        if kind == "degenerate":
            status, _, x_ref = highs(LPProblem(c, G=G, h=h, A=A, d=d), **TIGHT)
            if status == OPTIMAL:
                extra = matrix(draw, draw(st.integers(1, 3)), n)
                G, h = np.vstack([G, extra]), np.concatenate([h, extra @ x_ref])
        elif kind == "redundant":
            rows = []
            if len(h):
                rows = draw(st.lists(st.integers(0, len(h) - 1), min_size=1, max_size=3))
            G, h = np.vstack([G, G[rows]]), np.concatenate([h, h[rows]])
            A, d = np.vstack([A, A[:1]]), np.concatenate([d, d[:1]])
        elif kind == "near-infeasible":
            normal = st.lists(coeff, min_size=n, max_size=n)
            a = np.array(draw(normal.filter(lambda v: max(map(abs, v)) > 0.1)))
            b = a @ x0
            gap = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-7.0, -1.0))
            G, h = np.vstack([G, a, -a]), np.concatenate([h, [b, -(b + gap)]])
        reference = LPProblem(c, G=G, h=h, A=A, d=d)
        if kind != "badly scaled":
            return kind, reference, reference
        s = 10.0 ** vector(draw, len(h), st.integers(-6, 6))
        t = 10.0 ** vector(draw, len(d), st.integers(-6, 6))
        return kind, LPProblem(c, G=G * s[:, None], h=h * s, A=A * t[:, None], d=d * t), reference

    return cases()


def bounding_programs(st):
    """Strategy of ``(kind, lp)``: a ``bounding_program`` over 1 to 12 vertex
    classes with 0 to 6 inequality rows and 0 to 2 equality rows besides the
    weight row.  Each row is plain, degenerate (entries of 1e-8 to 1e-5
    beside zeros, the kind whose tiny entries broke the phase-1 ratio test;
    HiGHS drops entries of 1e-9 and below) or positive at every class, which
    no weighting meets; ``kind`` says whether one class meets every other
    row, so the program is feasible."""
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))
    tiny = st.one_of(st.just(0.0), st.floats(1e-8, 1e-5), st.floats(-1e-5, -1e-8))

    @st.composite
    def cases(draw):
        K = draw(st.integers(1, 12))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=K, max_size=K)), dtype=float)

        met = draw(st.one_of(st.none(), st.integers(0, K - 1)))  # the class meeting every row

        def block(rows, equality):
            values = np.zeros((K, rows))
            for i in range(rows):
                kind = draw(st.sampled_from(("plain", "plain", "degenerate", "positive")))
                if kind == "positive":
                    values[:, i] = np.abs(column(coeff)) + 1e-3
                    continue
                values[:, i] = column(tiny if kind == "degenerate" else coeff)
                if met is not None:
                    values[met, i] = 0.0 if equality else -abs(values[met, i])
            return values

        g, h = block(draw(st.integers(0, 6)), False), block(draw(st.integers(0, 2)), True)
        kind = "plain" if met is None else "feasible class"
        return kind, bounding_program(3.0 * column(coeff), g, h)

    return cases()


def test_bounding_programs_from_dual_starts_match_highs():
    # certify against HiGHS at tight tolerances: the same verdict, and a
    # bound within 1e-9 (1 + |v|) of HiGHS's optimum, never above it by more
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    verdicts = set()

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None)
    @hypothesis.given(bounding_programs(st))
    def check(case):
        kind, lp = case
        hypothesis.event(kind)
        ref_status, ref, _ = highs(lp, **TIGHT)
        assert ref_status in (OPTIMAL, INFEASIBLE)
        verdicts.add(ref_status)
        if ref_status == INFEASIBLE:
            with pytest.raises(InfeasiblePolytope):
                certify(lp)
            return
        d_star = certify(lp).d_star
        assert abs(d_star - ref) <= 1e-9 * (1.0 + abs(ref)), kind

    check()
    assert verdicts == {OPTIMAL, INFEASIBLE}


def test_general_programs_match_highs():
    # the same status as HiGHS, the optimum within 1e-9 (1 + |v|) and the
    # KKT self-check passed; NumericalFailure is the only other outcome
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=400)
    @hypothesis.given(general_lps(st))
    def check(case):
        kind, lp, reference = case
        hypothesis.event(kind)
        ref_status, ref, _ = highs(reference, **TIGHT)
        try:
            sol = solve(lp)
        except NumericalFailure:
            hypothesis.event("NumericalFailure")
            return
        assert sol.status == ref_status, kind
        if ref_status == OPTIMAL:
            assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref)), kind
            res = kkt_residuals(lp, sol)
            assert max(res["primal"], res["dual"], res["gap"]) <= 1e-6, kind

    check()


def test_cost_sweeps_match_highs():
    # one drawn region and five costs over it (the drawn cost first), solved
    # in one stack (solve_sweep); each cost is checked against HiGHS as a
    # program of its own
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))

    @st.composite
    def sweeps(draw):
        kind, lp, reference = draw(general_lps(st))
        extra = draw(st.lists(st.lists(coeff, min_size=lp.n_vars, max_size=lp.n_vars),
                              min_size=4, max_size=4))
        return kind, lp, reference, np.vstack([lp.c, np.reshape(extra, (4, lp.n_vars))])

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(sweeps())
    def check(case):
        kind, lp, reference, costs = case
        hypothesis.event(kind)
        rows = (np.broadcast_to(a, (len(costs),) + a.shape) for a in (lp.G, lp.h, lp.A, lp.d))
        for cost, sol in zip(costs, solve_sweep(LPStack(costs, *rows))):
            if isinstance(sol, NumericalFailure):
                hypothesis.event("NumericalFailure")
                continue
            ref_status, ref, _ = highs(
                LPProblem(cost, G=reference.G, h=reference.h, A=reference.A, d=reference.d), **TIGHT
            )
            assert sol.status == ref_status, kind
            if ref_status == OPTIMAL:
                assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref)), kind
                res = kkt_residuals(LPProblem(cost, G=lp.G, h=lp.h, A=lp.A, d=lp.d), sol)
                assert max(res["primal"], res["dual"], res["gap"]) <= 1e-6, kind

    check()


def offset_steps(st):
    """Strategy of ``(report, template, epsilon, b_lo, b_hi)`` for
    ``improve_offsets``: facet bounds, multiplier rows with ``lambda >= 0``
    off the diagonal and a free ``mu`` on it, offsets and caps around them."""
    value = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    width = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))

    @st.composite
    def cases(draw):
        m = draw(st.integers(1, 6))

        def vector(elements):
            return np.array(draw(st.lists(elements, min_size=m, max_size=m)), dtype=float)

        rows = np.array([vector(weight) for _ in range(m)]).reshape(m, m)
        np.fill_diagonal(rows, vector(value))
        d = vector(st.floats(-1.0, 2.0))
        b = vector(value)
        report = VerificationReport(d, rows, np.ones(m, dtype=bool))
        tpl = PolytopeTemplate(np.ones((m, 2)), b)
        epsilon = draw(st.floats(0.01, 1.0))
        return report, tpl, epsilon, b - vector(width), b + vector(width)

    return cases()


def test_offset_step_programs_match_highs():
    # the largest worst prediction within the caps (t_big), the same within
    # epsilon of the offsets (the capped step's t_star), and the least move
    # keeping every prediction above the margin, against HiGHS on programs
    # posed over alpha directly: t free, alpha boxed, |alpha| <= u
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    kinds = set()

    def max_min(report, lo, hi):
        m = lo.size
        res = linprog(np.eye(1, 1 + m)[0] * -1.0,
                      A_ub=np.hstack([np.ones((m, 1)), report.multipliers]), b_ub=report.d_star,
                      bounds=[(None, None)] + list(zip(lo, hi)), method="highs", options=TIGHT)
        assert res.status == 0, res.message
        return -res.fun

    def least_move(report, lo, hi, tau):
        m, eye = lo.size, np.eye(lo.size)
        res = linprog(np.concatenate([np.zeros(m), np.ones(m)]),
                      A_ub=np.vstack([np.hstack([report.multipliers, np.zeros((m, m))]),
                                      np.hstack([eye, -eye]), np.hstack([-eye, -eye])]),
                      b_ub=np.concatenate([report.d_star - tau, np.zeros(2 * m)]),
                      bounds=list(zip(lo, hi)) + [(0, None)] * m, method="highs", options=TIGHT)
        assert res.status == 0, res.message
        return res.fun

    def close(ours, ref):
        return abs(ours - ref) <= 1e-9 * (1.0 + abs(ref))

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(offset_steps(st))
    def check(case):
        report, tpl, epsilon, b_lo, b_hi = case
        lo, hi = b_lo - tpl.offsets, b_hi - tpl.offsets
        step = improve_offsets(report, tpl, epsilon, b_lo, b_hi)
        kinds.add(step.kind)
        hypothesis.event(step.kind)
        assert np.all((lo <= step.alpha) & (step.alpha <= hi))
        assert step.t_star == (report.d_star - report.multipliers @ step.alpha).min()
        t_big = max_min(report, lo, hi)
        assert close(step.t_big, t_big)
        assert close(_max_min(report, lo, hi)[0], t_big)
        capped_lo, capped_hi = np.maximum(lo, -epsilon), np.minimum(hi, epsilon)
        capped = max_min(report, capped_lo, capped_hi)
        assert close(_max_min(report, capped_lo, capped_hi)[0], capped)
        if step.kind == CAPPED:
            assert t_big <= 1e-9 and close(step.t_star, capped)
            return
        tau = LEAST_MOVE_SHARE * step.t_big
        alpha = _least_move(report, lo, hi, tau)
        assert np.array_equal(np.clip(alpha, lo, hi), step.alpha)
        assert close(np.abs(alpha).sum(), least_move(report, lo, hi, tau))
        assert step.t_star >= tau - 1e-9 * (1.0 + np.abs(report.d_star).max())

    check()
    assert kinds == {LEAST_MOVE, CAPPED}


def test_support_values_match_highs():
    # support values within a rectangle (posed from each direction's box
    # corner) and without one (a point, then one LP dual per direction),
    # against HiGHS maximizing d . x over the polytope directly; some
    # polytopes are empty, some unbounded without the rectangle
    rng = np.random.default_rng(227)
    seen = set()
    for _ in range(150):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        normals = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        offsets = normals @ x0 + rng.uniform(-0.3, 2.0, size=m)
        tpl = PolytopeTemplate(normals, offsets)
        rect = Rectangle(x0 - rng.uniform(0.5, 2.0, n), x0 + rng.uniform(0.5, 2.0, n))
        directions = np.vstack([normals, rng.normal(size=(3, n))])
        for box in (rect, None):
            values = support_values(tpl, directions, box)
            bounds = [(None, None)] * n if box is None else list(zip(box.lower, box.upper))
            for d, value in zip(directions, values):
                res = linprog(-d, A_ub=normals, b_ub=offsets, bounds=bounds, method="highs",
                              options=TIGHT)
                assert res.status in (0, 2, 3), res.message
                seen.add((box is None, res.status))
                if res.status == 2:
                    assert value == -np.inf
                elif res.status == 3:
                    assert value == np.inf
                else:
                    assert abs(value + res.fun) <= 1e-9 * (1.0 + abs(res.fun))
    assert seen == {(False, 0), (False, 2), (True, 0), (True, 2), (True, 3)}
