import itertools
from fractions import Fraction

import numpy as np
import pytest

from polyvar import lpsolve
from polyvar.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    LPProblem,
    LPSolution,
    LPStack,
    NumericalFailure,
    kkt_residuals,
    solve,
    solve_sweep,
)
from polyvar.invariance import (
    PolytopeTemplate,
    SynthesisParams,
    _swept,
    facet_lift,
    facet_programs,
    support_values,
    synthesize,
)
from polyvar.oracle import box_corner, box_lp, complementary_slackness, free_lp
from polyvar.polynomial import Rectangle

import dense_reference
from conftest import UNBOUNDED, fitzhugh_nagumo, highs, tiny_entry_facets


def brute_force_optimum(lp: LPProblem):
    """Vertex-enumeration oracle: intersect every n-subset of constraint
    hyperplanes (including the faces ``x_j = 0``), filter feasibility,
    minimize."""
    n = lp.n_vars
    rows = [(lp.G[i], lp.h[i]) for i in range(lp.m_ineq)]
    rows += [(-np.eye(n)[j], 0.0) for j in range(n)]
    rows += [(lp.A[j], lp.d[j]) for j in range(lp.m_eq)]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        x = np.linalg.solve(mat, rhs)
        if lp.m_ineq and (lp.G @ x - lp.h).max() > 1e-7:
            continue
        if lp.m_eq and np.abs(lp.A @ x - lp.d).max() > 1e-7:
            continue
        if np.any(x < -1e-7):
            continue
        val = float(lp.c @ x)
        best = val if best is None else min(best, val)
    return best


def exact_basis_duals(lp: LPProblem, sol) -> np.ndarray:
    """``[lam; mu]`` of the basis ``sol`` ends at, in exact rationals: zero on
    inactive rows, and ``c_j + G^T lam + A^T mu = 0`` on the columns with
    ``x_j > 0``.  Needs a nondegenerate optimum, where these equations are
    as many as the unknowns."""
    active = np.flatnonzero(lp.h - lp.G @ sol.x <= 1e-9)
    rows = np.vstack([lp.G[active], lp.A])
    basic = np.flatnonzero(sol.x > 1e-9)
    assert basic.size == rows.shape[0]
    # Gauss-Jordan on [rows[:, basic]^T | -c_basic]
    M = [[Fraction(v) for v in rows[:, j]] + [Fraction(-lp.c[j])] for j in basic]
    for k in range(len(M)):
        p = next(i for i in range(k, len(M)) if M[i][k] != 0)
        M[k], M[p] = M[p], M[k]
        M[k] = [v / M[k][k] for v in M[k]]
        for i in range(len(M)):
            if i != k:
                M[i] = [a - M[i][k] * b for a, b in zip(M[i], M[k])]
    y = np.array([float(row[-1]) for row in M])
    lam = np.zeros(lp.m_ineq)
    lam[active] = y[: active.size]
    return np.concatenate([lam, y[active.size :]])


def random_box_program(rng):
    """``(c, rect, G, h, A, d)``: a random program over a box around a
    feasible point; half of them maximize, posed as minimizing ``-c``."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    x0 = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    h = G @ x0 + rng.uniform(0.0, 2.0, size=m)
    lo = x0 - rng.uniform(0.5, 3.0, size=n)
    hi = x0 + rng.uniform(0.5, 3.0, size=n)
    m_eq = int(rng.integers(0, 2)) if n >= 2 else 0
    A = rng.normal(size=(m_eq, n))
    d = A @ x0
    sign = 1.0 if rng.integers(0, 2) else -1.0
    return sign * rng.normal(size=n), Rectangle(lo, hi), G, h, A, d


def random_boxed_lp(rng):
    """``random_box_program`` in the one form, from the cost's box corner."""
    return box_lp(*random_box_program(rng))


def solve_read(lp: LPProblem) -> LPSolution:
    """``lp`` solved as the bounding programs are, whose multipliers are
    read: ``solve_dual_stack``, degenerate-row pass included."""
    (out,) = lpsolve.solve_dual_stack(LPStack.of(lp))
    if isinstance(out, NumericalFailure):
        raise out
    return out


class TestBasics:
    def test_single_active_constraint_with_duals(self):
        # min x with x >= 1 and x >= 2
        lp = LPProblem([1.0], G=[[-1.0], [-1.0]], h=[-1.0, -2.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x == pytest.approx([2.0])
        assert sol.objective == pytest.approx(2.0)
        assert sol.ineq_duals == pytest.approx([0.0, 1.0])

    def test_unbounded(self):
        # nonnegative costs bound every program below, an unbounded region
        # included; a negative cost, which could make it unbounded, is refused
        assert solve(LPProblem([1.0, 0.0], G=[[-1.0, 1.0]], h=[1.0])).objective == 0.0
        with pytest.raises(ValueError, match="nonnegative costs"):
            solve(LPProblem([-1.0]))

    def test_infeasible(self):
        lp = LPProblem([0.0], G=[[1.0]], h=[-1.0])
        assert solve(lp).status == INFEASIBLE

    def test_equality_with_free_variable(self):
        # min y with y - x = 1 and x >= 2, for x = x+ - x- free at no cost:
        # y = 3, with the multiplier -1 on the equality row and 1 on x >= 2
        lp = LPProblem(
            [1.0, 0.0, 0.0],
            G=[[0.0, -1.0, 1.0]],
            h=[-2.0],
            A=[[1.0, -1.0, 1.0]],
            d=[1.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0)
        assert sol.eq_duals == pytest.approx([-1.0])
        assert sol.ineq_duals == pytest.approx([1.0])

    def test_degenerate_redundant_rows(self):
        # same halfspace stacked five times plus its boundary as equality;
        # max x1 on [-5, 5]^2, posed from the corner (5, -5) as min y1 for
        # y1 = 5 - x1, is 5 - 1
        lp = box_lp(
            [-1.0, 0.0],
            Rectangle([-5.0, -5.0], [5.0, 5.0]),
            G=[[1.0, 0.0]] * 5,
            h=[1.0] * 5,
            A=[[1.0, 0.0]],
            d=[1.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(4.0)

    def test_cycling_prone_degenerate_lp(self):
        # Beale's program, which cycles under naive most-negative pricing from
        # the all-slack basis, in its LP dual form, whose costs (Beale's
        # right-hand sides) are nonnegative: min h.y with -G^T y <= c; its
        # optimum is minus Beale's -0.05, and the dual loop must end
        G = np.array([
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        lp = LPProblem([0.0, 0.0, 1.0], G=-G.T, h=[-0.75, 150.0, -0.02, 6.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.05, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LPProblem([np.nan])

    @pytest.mark.parametrize(
        "G, h",
        # x = 0 is optimal for the first, which would solve as unbounded;
        # the second would end its pivot loop on an empty ratio test
        [([[np.inf]], [1.0]), ([[1.0]], [np.inf]), ([[-np.inf]], [1.0])],
        ids=["G-inf", "h-inf", "G-minus-inf"],
    )
    def test_infinity_rejected(self, G, h):
        with pytest.raises(ValueError, match="non-finite"):
            LPProblem([-1.0], G=G, h=h)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LPProblem([1.0], G=[[1.0, 2.0]], h=[1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        lp = random_boxed_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


class TestUpperBoundOnly:
    """Variables with an upper bound only: a free column pair plus one row,
    whose costs have both signs, so HiGHS solves them, against the engine
    on the same program posed from the cost's box corner."""

    def test_single_variable(self):
        assert highs(free_lp([-1.0], G=[[1.0]], h=[3.0]))[:2] == (OPTIMAL, pytest.approx(-3.0))
        assert highs(free_lp([1.0], G=[[1.0]], h=[3.0]))[0] == UNBOUNDED
        with pytest.raises(ValueError, match="nonnegative costs"):
            solve(free_lp([-1.0], G=[[1.0]], h=[3.0]))

    def test_random_battery_against_vertex_oracle(self):
        # the same boxed programs over free variables, with every lower bound
        # and then every upper bound as a row of G; the references are the
        # boxed program's optimum from the engine and from vertex enumeration,
        # each shifted back by c at the box corner it is posed from
        rng = np.random.default_rng(43)
        for _ in range(100):
            c, rect, G, h, A, d = random_box_program(rng)
            n = rect.n
            lp = free_lp(
                c,
                G=np.vstack([G, -np.eye(n), np.eye(n)]),
                h=np.concatenate([h, -rect.lower, rect.upper]),
                A=A,
                d=d,
            )
            status, value, x = highs(lp)
            assert status == OPTIMAL
            boxed = box_lp(c, rect, G, h, A, d)
            shift = c @ box_corner(c, rect)
            assert value == pytest.approx(brute_force_optimum(boxed) + shift, abs=1e-6)
            assert value == pytest.approx(solve(boxed).objective + shift, abs=1e-6)


class TestCertificates:
    def test_random_battery_against_vertex_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lp = random_boxed_lp(rng)
            sol = solve(lp)
            assert sol.status == OPTIMAL
            reference = brute_force_optimum(lp)
            assert reference is not None
            assert sol.objective == pytest.approx(reference, abs=1e-6)

    def test_kkt_invariants_on_random_solves(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            lp = random_boxed_lp(rng)
            sol = solve(lp)
            res = kkt_residuals(lp, sol)
            assert res["primal"] <= 1e-8
            assert res["dual"] <= 1e-8
            assert res["gap"] <= 1e-7
            assert complementary_slackness(lp, sol) <= 1e-6

    def test_duals_exact_after_a_small_pivot(self):
        # an equality row with an entry of 2.1e-5, over the box [0, 2]^4
        # posed from the cost's corner: the refined duals are the exact
        # duals of the end basis
        c = [-0.16600436170542032, -0.8247995492058817, -0.02625746050788247, 0.9971984704084642]
        g = [-0.14573132676012546, -0.13339080409256865, -0.34185341209509934, 0.7719441227062529]
        a = [-0.017576082134149518, 2.1418044866048316e-05, 0.055215305329331166, -0.961957497877004]
        rect = Rectangle(np.zeros(4), np.full(4, 2.0))
        lp = box_lp(c, rect, G=[g], h=[0.23568216454195653], A=[a], d=[8.258363381093087e-06])
        sol = solve(lp)
        exact = exact_basis_duals(lp, sol)
        got = np.concatenate([sol.ineq_duals, sol.eq_duals])
        assert np.abs(got - exact).max() <= 1e-14 * (1.0 + np.abs(exact).max())

    def test_weak_duality_sign(self):
        # the dual objective never exceeds the primal
        rng = np.random.default_rng(99)
        for _ in range(50):
            lp = random_boxed_lp(rng)
            sol = solve(lp)
            lam, mu = sol.ineq_duals, sol.eq_duals
            assert np.all(lam >= -1e-12)
            dual_obj = -lam @ lp.h - mu @ lp.d
            primal_obj = lp.c @ sol.x
            assert dual_obj <= primal_obj + 1e-7 * (1 + abs(primal_obj))


def degenerate_variant(rng, lp):
    """``lp`` plus random rows tight at its optimum, so several rows are
    active at the optimal vertex and some slacks sit in the basis at zero."""
    x_opt = solve(lp).x
    extra = rng.normal(size=(int(rng.integers(1, 4)), lp.n_vars))
    return LPProblem(
        lp.c,
        G=np.vstack([lp.G, extra]),
        h=np.concatenate([lp.h, extra @ x_opt]),
        A=lp.A,
        d=lp.d,
    )


class TestDegenerateRowMultipliers:
    """The post-optimal pass of ``solve_dual_stack`` changes which optimal
    duals come back, never x; ``solve`` returns the plain basis duals."""

    def test_x_and_objective_unchanged(self):
        rng = np.random.default_rng(47)
        programs = []
        for _ in range(100):
            lp = random_boxed_lp(rng)
            programs += [lp, degenerate_variant(rng, lp)]
        with_pass = [solve_read(lp) for lp in programs]
        without_pass = [solve(lp) for lp in programs]
        moved = 0
        for lp, sol, plain in zip(programs, with_pass, without_pass):
            assert sol.status == OPTIMAL
            np.testing.assert_array_equal(sol.x, plain.x)
            assert sol.objective == plain.objective
            assert sol.objective == pytest.approx(brute_force_optimum(lp), abs=1e-6)
            res = kkt_residuals(lp, sol)
            assert res["primal"] <= 1e-8 and res["dual"] <= 1e-8 and res["gap"] <= 1e-7
            assert np.all(sol.ineq_duals >= 0.0)
            moved += not np.array_equal(sol.ineq_duals, plain.ineq_duals)
        assert moved > 0

    def test_weakly_active_row_gets_largest_multiplier(self):
        # min x over x >= 0 with the row -x <= 0: every multiplier in [0, 1]
        # is optimal for the row; the basis alone returns 0, the pass 1
        sol = solve_read(LPProblem([1.0], G=[[-1.0]], h=[0.0]))
        assert sol.x.tolist() == [0.0]
        assert sol.ineq_duals.tolist() == [1.0]

    def test_only_programs_whose_duals_are_read_take_the_pass(self, monkeypatch):
        # solve and a sweep read only x: they keep the plain basis duals, and
        # the same x as the pass leaves
        lp = LPProblem([1.0], G=[[-1.0]], h=[0.0])
        alone = solve(lp)
        assert alone.x.tolist() == [0.0] and alone.ineq_duals.tolist() == [0.0]

        def entered(*args):
            raise AssertionError("degenerate-row pass entered")

        monkeypatch.setattr(lpsolve, "_activate_degenerate_rows", entered)
        rng = np.random.default_rng(199)
        for _ in range(20):
            solve_sweep(random_sweep(rng))
            solve(random_boxed_lp(rng))
        with pytest.raises(AssertionError, match="pass entered"):
            solve_read(lp)


class TestKKTSelfCheck:
    def test_nan_residual_fails(self):
        # the bounding program of p = x over [0, 1] with the subnormal row
        # -2.225073858507e-311 x <= 0: the row stays below unit scale after
        # scaling by 2**1000, and the multiplier the degenerate-row pass gives
        # it overflows to NaN, which no residual threshold may let through
        lp = LPProblem(
            [0.0, 1.0], G=[[-0.0, -2.225073858507e-311]], h=[0.0], A=[[1.0, 1.0]], d=[1.0]
        )
        with pytest.warns(RuntimeWarning):  # the overflow, then NaN arithmetic
            with pytest.raises(
                NumericalFailure,
                match=r"KKT self-check: primal=0\.00e\+00 dual=nan gap=nan",
            ):
                solve_read(lp)


class TestRowScaling:
    """Rows far from unit scale are rescaled inside ``solve``, so a program
    and its copy with rows scaled by ``10**k`` have the same answer."""

    def test_single_variable_with_a_tiny_equality(self):
        # x = 2.7535554213561694e-05 / 1.6857112402553815e-05 is forced by the
        # tiny equality; unscaled, phase 1 stopped at the large row's vertex
        lp = LPProblem(
            [0.7533058773219917],
            G=[[-788862.0762168143], [10000.0]],
            h=[-565904.169834939, 42076.89333393684],
            A=[[1.6857112402553815e-05]],
            d=[2.7535554213561694e-05],
        )
        sol = solve(lp)
        x = 2.7535554213561694e-05 / 1.6857112402553815e-05
        assert sol.x == pytest.approx([x], rel=1e-12)
        assert sol.objective == pytest.approx(0.7533058773219917 * x, rel=1e-12)

    def test_random_battery_against_unscaled(self):
        rng = np.random.default_rng(181)
        for _ in range(300):
            lp = random_boxed_lp(rng)
            s = 10.0 ** rng.integers(-6, 7, size=lp.m_ineq)
            t = 10.0 ** rng.integers(-6, 7, size=lp.m_eq)
            scaled = LPProblem(
                lp.c, G=lp.G * s[:, None], h=lp.h * s, A=lp.A * t[:, None], d=lp.d * t
            )
            sol, ref = solve(scaled), solve(lp)
            assert sol.status == ref.status == OPTIMAL
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            assert sol.ineq_duals * s == pytest.approx(ref.ineq_duals, rel=1e-6, abs=1e-9)


def random_sweep(rng) -> LPStack:
    """Six nonnegative costs over one boxed region, as a stack over views of
    its rows, with a gap between two opposite rows in one region of five."""
    lp = random_boxed_lp(rng)
    if rng.integers(0, 5) == 0:
        a = rng.normal(size=lp.n_vars)
        b = float(rng.normal())
        lp = LPProblem(
            lp.c,
            G=np.vstack([lp.G, a, -a]),
            h=np.concatenate([lp.h, [b, -(b + rng.uniform(1e-3, 1.0))]]),
            A=lp.A,
            d=lp.d,
        )
    return swept(lp, np.abs(rng.normal(size=(6, lp.n_vars))))


def swept(lp: LPProblem, costs) -> LPStack:
    """``costs`` over the rows of ``lp``, as a stack over views of them."""
    costs = np.asarray(costs, dtype=float)
    rows = (np.broadcast_to(a, (len(costs),) + a.shape) for a in (lp.G, lp.h, lp.A, lp.d))
    return LPStack(costs, *rows)


class TestSolveMany:
    """Many costs over one region's rows, solved as one stack of dual starts
    (``solve_sweep``), as the support sweeps are: each answer is the cold
    one."""

    def test_matches_a_cold_solve_per_cost(self):
        # each cost's status, x and objective are the cold solve's bit for
        # bit, and permuting the costs permutes the answers bit for bit, the
        # plain basis duals included
        rng = np.random.default_rng(191)
        statuses = set()
        for _ in range(400):
            stack = random_sweep(rng)
            order = rng.permutation(len(stack))
            sols = solve_sweep(stack)
            permuted = solve_sweep(swept(stack[0], stack.c[order]))
            for sol, moved in zip([sols[i] for i in order], permuted):
                assert moved.status == sol.status
                if sol.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(moved, field).tobytes() == getattr(sol, field).tobytes()
            for k, sol in enumerate(sols):
                ref = solve(stack[k])
                assert sol.status == ref.status
                statuses.add(sol.status)
                if ref.status == OPTIMAL:
                    assert sol.x.tobytes() == ref.x.tobytes()
                    assert sol.objective == ref.objective
                    res = kkt_residuals(stack[k], sol)
                    assert max(res["primal"], res["dual"], res["gap"]) <= 1e-6
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_empty_region_is_infeasible_for_every_cost(self):
        stack = swept(LPProblem([0.0], G=[[1.0]], h=[-1.0]), [[1.0], [0.0]])
        assert [s.status for s in solve_sweep(stack)] == [INFEASIBLE] * 2

    def test_nan_cost_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            support_values(PolytopeTemplate(np.eye(2), [1.0, 1.0]), [[1.0, 0.0], [np.nan, 0.0]])

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            support_values(PolytopeTemplate(np.eye(2), [1.0, 1.0]), [[1.0, 0.0], [-np.inf, 0.0]],
                           Rectangle([-2.0, -2.0], [2.0, 2.0]))

    @staticmethod
    def long_sweep() -> LPStack:
        """20 costs over a bounded region whose tableau is large enough that
        a stack within ``STACK_BYTES`` holds seven of them."""
        rng = np.random.default_rng(197)
        G = rng.uniform(-1.0, 1.0, (75, 60))
        lp = LPProblem(np.zeros(60), G=G, h=G @ rng.uniform(0.0, 0.05, 60) + rng.uniform(0.0, 0.1, 75))
        assert lpsolve.stack_members(60, 75, 0) == 7
        return swept(lp, rng.uniform(0.0, 1.0, (20, 60)))

    def test_chunked_duals_match_one_cost_at_a_time(self, monkeypatch):
        # three stacks of costs (``invariance._swept``); with stacks of one
        # cost, each cost pivots alone
        stack = self.long_sweep()
        chunked = _swept(stack, lpsolve.stack_members(60, 75, 0))
        monkeypatch.setattr(lpsolve, "STACK_BYTES", 1)
        assert lpsolve.stack_members(60, 75, 0) == 1
        for sol, one in zip(chunked, _swept(stack, 1), strict=True):
            assert sol.status == one.status == OPTIMAL
            for field in ("x", "ineq_duals", "eq_duals"):
                assert getattr(sol, field).tobytes() == getattr(one, field).tobytes()
            assert sol.objective == one.objective

    @pytest.mark.parametrize(
        "kkt, run, raised",
        [
            (9, None, r"KKT self-check: primal=1\.00e\+00"),
            (None, 10, "injected"),
            (9, 11, r"KKT self-check: primal=1\.00e\+00"),
            (11, 9, "injected"),
        ],
    )
    def test_failure_in_the_second_chunk_raises_in_order(self, monkeypatch, kkt, run, raised):
        # costs 7-13 form the second stack: the first cost in order to fail
        # raises, whether its KKT self-check or its pivots fail, as when each
        # cost is solved alone
        stack = self.long_sweep()
        costs = stack.c
        real_kkt, real_dual_phase = lpsolve.kkt_residuals, lpsolve._dual_phase
        solved = [0]

        def kkt_residuals(rows, sol):
            res = real_kkt(rows, sol)
            if kkt is not None:
                hit = (np.atleast_2d(rows.c) == costs[kkt]).all(axis=1)
                res["primal"] = np.where(hit, 1.0, res["primal"])
            return res

        def dual_phase(*args):
            out = real_dual_phase(*args)
            first, solved[0] = solved[0], solved[0] + len(out)
            if run is not None and first <= run < solved[0]:
                out[run - first] = NumericalFailure("injected")
            return out

        monkeypatch.setattr(lpsolve, "kkt_residuals", kkt_residuals)
        monkeypatch.setattr(lpsolve, "_dual_phase", dual_phase)
        messages = []
        for per_stack in (lpsolve.stack_members(60, 75, 0), 1):
            solved[0] = 0
            with pytest.raises(NumericalFailure, match=raised) as exc:
                _swept(stack, per_stack)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestSolveStack:
    """Stacks solved by ``solve_dual_stack``: each member as ``solve_read``
    gives it alone, bit for bit."""

    @staticmethod
    def random_stack(rng, kinds):
        """Programs of one shape (4 columns with nonnegative costs, 3
        inequality rows, one equality row with d >= 0), each optimal or
        infeasible."""
        c, G, h, A, d = [], [], [], [], []
        for kind in kinds:
            g = rng.uniform(-2.0, 2.0, (3, 4))
            a = rng.uniform(0.1, 2.0, (1, 4))
            x0 = rng.uniform(0.0, 0.2, 4)
            rhs = [float(a[0] @ x0)]
            if kind == "infeasible":  # -a.x = 1 has no solution with x >= 0
                a, rhs = -a, [1.0]
            rows = (rng.uniform(0.0, 1.0, 4), g, g @ x0 + rng.uniform(0.0, 0.5, 3), a, rhs)
            for arrays, value in zip((c, G, h, A, d), rows):
                arrays.append(value)
        return lpsolve.LPStack(*map(np.array, (c, G, h, A, d)))

    def test_members_match_their_solve_alone(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(40):
            kinds = rng.choice(["optimal", "optimal", "infeasible"], size=5)
            stack = self.random_stack(rng, kinds)
            for k, out in enumerate(lpsolve.solve_dual_stack(stack)):
                alone = solve_read(stack[k])
                assert out.status == alone.status
                seen.add(out.status)
                if out.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()
                    assert out.objective == alone.objective
        assert seen == {OPTIMAL, INFEASIBLE}

    @staticmethod
    def posed(c, G, h, A=None):
        """A program over 8 columns, 7 inequality rows and the equality row
        ``x_7 = 1`` (or ``A.x = 1``), its data placed in the leading entries;
        unused inequality rows read ``0 <= 1``."""
        program = [np.zeros(8), np.zeros((7, 8)), np.ones(7), np.zeros((1, 8)), np.ones(1)]
        program[0][: len(c)] = c
        for i, row in enumerate(G):
            program[1][i, : len(row)] = row
        program[2][: len(h)] = h
        program[3][0, -1] = 1.0
        if A is not None:
            program[3][0, : len(A)] = A
        return program

    def beale(self, blocks):
        """Beale's cycling program in its LP dual form, ``min h.y`` subject to
        ``-G^T y <= c``; each block adds a column that its own row, far
        below zero, must take in, which the first pivots do, so the program
        ends one step later per block."""
        G = np.array([[0.25, -60.0, -1 / 25, 9.0], [0.5, -90.0, -1 / 50, 3.0], [0.0, 0.0, 1.0, 0.0]])
        c, G, h, A, d = self.posed([0.0, 0.0, 1.0], -G.T, [-0.75, 150.0, -0.02, 6.0])
        for i in range(blocks):
            c[3 + i], G[4 + i, 3 + i], h[4 + i] = 1.0, -1.0, -1000.0
        return c, G, h, A, d

    def test_members_ending_at_different_steps_match_their_solve_alone(self, monkeypatch):
        rng = np.random.default_rng(11)
        members = [self.beale(blocks) for blocks in (0, 1, 2)]
        # optimal at x = 0 with the slacks of -x_0 <= 0 and -x_1 <= 0 basic at
        # zero: the degenerate-row pass gives both rows a multiplier
        members.append(self.posed(np.arange(1.0, 8.0), [[-1.0], [0.0, -1.0], [1.0, 1.0, 1.0]], [0.0] * 3))
        members += [self.degenerate(rng, 4) for _ in range(6)]
        members.append(self.posed([0.0], [[1.0]], [1.0], A=-np.ones(8)))  # -sum x = 1: infeasible
        order = rng.permutation(len(members))
        stack = lpsolve.LPStack(*(np.array(block) for block in zip(*(members[k] for k in order))))

        pivots = []
        real_pivot = lpsolve._pivot

        def pivot(*args):
            pivots[-1] += 1
            return real_pivot(*args)

        outs = lpsolve.solve_dual_stack(stack)
        monkeypatch.setattr(lpsolve, "_pivot", pivot)
        for k, out in enumerate(outs):
            pivots.append(0)
            alone = solve_read(stack[k])
            assert out.status == alone.status
            if out.status == OPTIMAL:
                for field in ("x", "ineq_duals", "eq_duals"):
                    assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()
                assert out.objective == alone.objective
        statuses = [out.status for out in outs]
        assert statuses.count(INFEASIBLE) == 1
        # Beale's programs, which cycle under Dantzig's rule in the primal
        # simplex, end in 4 dual pivots under the normalized leaving-row
        # rule, and each block adds one
        beale = [int(np.flatnonzero(order == b)[0]) for b in range(3)]
        assert [pivots[k] for k in beale] == [4, 5, 6]
        assert max(np.delete(pivots, beale)) < 20 and len(set(pivots)) > 5
        degenerate = outs[int(np.flatnonzero(order == 3)[0])]
        assert degenerate.ineq_duals[:2].tolist() == [1.0, 2.0]

    def degenerate(self, rng, rows):
        """A program of ``rows`` random rows with ``7 - rows`` more rows
        through its optimum, so some slacks end basic at zero."""
        G = -rng.uniform(0.1, 2.0, (rows, 7))
        lp = LPProblem(rng.uniform(0.0, 1.0, 7), G=G, h=-rng.uniform(0.5, 2.0, rows))
        x = solve(lp).x
        extra = rng.normal(size=(7 - rows, 7))
        extra *= np.where(extra @ x < 0.0, -1.0, 1.0)[:, None]
        return self.posed(lp.c, np.vstack([G, extra]), np.concatenate([lp.h, extra @ x]))

    @staticmethod
    def assert_members_alone(members):
        """``solve_dual_stack`` over ``members`` gives each its ``solve_read``
        alone, bit for bit."""
        stack = lpsolve.LPStack(*(np.array(block) for block in zip(*members)))
        for k, out in enumerate(lpsolve.solve_dual_stack(stack)):
            alone = solve_read(stack[k])
            assert out.status == alone.status
            if out.status == OPTIMAL:
                for field in ("x", "ineq_duals", "eq_duals"):
                    assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()

    def test_degenerate_rows_visited_as_alone(self):
        # each member's degenerate-row pass visits its rows in the order of
        # their basic columns, which phase 2 has moved away from row order
        rng = np.random.default_rng(13)
        for _ in range(30):
            self.assert_members_alone([self.degenerate(rng, r) for r in rng.integers(1, 5, 6)])

    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_last_member_keeps_its_degenerate_count(self, blocks):
        # the short member ends before Beale's program, which finishes in the
        # plain loop, its degenerate count carried over, as alone
        rng = np.random.default_rng(17 + blocks)
        for _ in range(5):
            self.assert_members_alone([self.beale(blocks), self.degenerate(rng, 4)])

    def test_redundant_equality_rows_as_alone(self):
        # three equality rows through x = 0, the third the sum of the first
        # two, and rows that keep x off 0: split rows basic at zero, which the
        # degenerate-row pass visits, a pair at a time
        rng = np.random.default_rng(29)
        for _ in range(20):
            members = []
            for _ in range(5):
                A = rng.integers(-1, 2, (3, 6)).astype(float)
                A[2] = A[0] + A[1]
                G, h = -rng.uniform(0.0, 2.0, (2, 6)), -rng.uniform(0.0, 1.0, 2)
                members.append((rng.uniform(0.0, 1.0, 6), G, h, A, np.zeros(3)))
            self.assert_members_alone(members)

    def test_failed_member_leaves_its_stack_as_each_member_alone(self):
        # FitzHugh-Nagumo facet programs with a degenerate row that carries an
        # entry of 3.45e-9 in facet 5, from their dual starts (costs less their
        # least); a NaN in facet 5's least Bernstein class stops its dual
        # simplex loop, and the seven other facets are optimal, each as alone
        (stack,) = facet_programs(*tiny_entry_facets())
        c = stack.c - stack.c.min(axis=1, keepdims=True)
        G = stack.G.copy()
        G[5, 0, np.argmin(c[5])] = np.nan
        stack = lpsolve.LPStack(c, G, stack.h, stack.A, stack.d)
        outs = lpsolve.solve_dual_stack(stack)
        for k, out in enumerate(outs):
            (alone,) = lpsolve.solve_dual_stack(member(stack, k))
            if k == 5:
                assert isinstance(out, NumericalFailure) and isinstance(alone, NumericalFailure)
                assert str(out) == str(alone) == "dual simplex met a NaN"
                continue
            assert out.status == alone.status == OPTIMAL
            for field in ("x", "ineq_duals", "eq_duals"):
                assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()


def member(stack, k):
    """Member ``k`` of ``stack`` as a stack of one over views of its arrays,
    whatever its entries (``stack[k]`` refuses a NaN)."""
    return lpsolve.LPStack(*(a[k : k + 1] for a in (stack.c, stack.G, stack.h, stack.A, stack.d)))


class TestLockstepPivots:
    """The batched Jordan exchanges, against ``_pivot`` on each member alone,
    and ``_pivot`` against the full tableau's rank-1 update."""

    @staticmethod
    def tableaux(rng, special=True):
        """Six condensed tableaux of 4 rows over 8 columns, with signed zeros
        and, if ``special``, infinities and NaN about: the state
        ``(T, basis, cols)`` of a stack.  Row ``i``'s basic column is
        ``basis[:, i]``."""
        order = np.argsort(rng.random((6, 8)), axis=1)
        basis, cols = order[:, :4], np.hstack([order[:, 4:], np.full((6, 1), 8)])
        T = rng.normal(size=(6, 5, 5))
        T[rng.random(T.shape) < 0.2] = 0.0
        T[rng.random(T.shape) < 0.2] = -0.0
        if special:
            T[0, 1, 2], T[3, 3, 1], T[5, 0, 0] = np.inf, -np.inf, np.nan
        return T, basis, cols

    @staticmethod
    def copy(st):
        return tuple(a.copy() for a in st)

    @staticmethod
    def assert_same(st, ref):
        for a, b in zip(st, ref):
            assert a.tobytes() == b.tobytes()

    def test_pivot_all_is_pivot_per_member(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            st = self.tableaux(rng)
            rows, slots = rng.integers(0, 4, 6), rng.integers(0, 4, 6)
            ref = self.copy(st)
            with np.errstate(all="ignore"):  # zero pivots and inf - inf
                for k in range(6):
                    lpsolve._pivot(lpsolve._part(ref, k), rows[k], slots[k])
                lpsolve._pivot_all(st, rows, slots)
            self.assert_same(st, ref)

    def test_pivot_some_leaves_the_others_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            st = self.tableaux(rng)
            go = rng.random(6) < 0.5
            rows, slots = rng.integers(0, 4, 6), rng.integers(0, 4, 6)
            ref = self.copy(st)
            with np.errstate(all="ignore"):  # zero pivots and inf - inf
                for k in np.flatnonzero(go):
                    lpsolve._pivot(lpsolve._part(ref, k), rows[k], slots[k])
                lpsolve._pivot_some(st, go, rows, slots)
            self.assert_same(st, ref)

    def test_pivot_is_the_full_tableau_pivot(self):
        # on finite entries and a nonzero pivot, every stored entry, -0.0
        # included, is the full tableau's after the same pivot, and so is
        # every reduced cost but the basic columns' zeros, which may differ
        # in sign; the entering column becomes a unit vector there
        rng = np.random.default_rng(31)
        members = np.arange(6)
        for _ in range(200):
            T, basis, cols = st = self.tableaux(rng, False)
            rows, slots = rng.integers(0, 4, 6), rng.integers(0, 4, 6)
            T[members, rows, slots] = rng.choice([-1.0, 1.0], 6) * rng.uniform(1e-3, 2.0, 6)
            enter = cols[members, slots]
            full = self.full(st)
            lpsolve._pivot_all(st, rows, slots)
            for k in members:
                dense_reference._pivot(full[k], basis[k].copy(), rows[k], enter[k], {"x": 0}, "x")
            ours = self.full(st)
            basic = np.zeros(ours.shape, dtype=bool)
            basic[members[:, None], -1, basis] = True
            assert ours[~basic].tobytes() == full[~basic].tobytes()
            assert (full[basic] == 0.0).all() and (ours[basic] == 0.0).all()

    @staticmethod
    def full(st):
        """The full tableaux of the state ``st``: the stored columns
        scattered, the basic columns unit vectors with a reduced cost of
        +0.0."""
        T, basis, cols = st
        members = np.arange(len(T))[:, None]
        full = np.zeros((len(T), 5, 9))
        full[members, :, cols] = T.swapaxes(1, 2)
        full[members, np.arange(4), basis] = 1.0
        return full


class TestWarmRestart:
    """A solve given the end tableaux of an earlier solve at other
    right-hand sides restarts from them, with a dual simplex loop, and falls
    back to a cold solve when the restart fails."""

    @staticmethod
    def moved(lp, u, v):
        """``lp`` with each right-hand side moved by its share ``u`` or ``v``
        of the row's own size, so a row scaled by ``s`` moves ``s`` times as
        far."""
        def size(M, b):
            return np.abs(b) + np.abs(M).sum(axis=1)

        return LPProblem(lp.c, G=lp.G, h=lp.h + u * size(lp.G, lp.h),
                         A=lp.A, d=lp.d + v * size(lp.A, lp.d))

    def test_moved_right_hand_sides_match_cold_and_highs(self):
        # the five kinds of test_highs, solved from their dual starts, then
        # moved and restarted from their end tableaux: the cold solve's
        # status, the cold and HiGHS optimum within 1e-9 (1 + |v|), and an
        # infeasible move always ends infeasible through a cold solve
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from test_highs import TIGHT, general_lps

        share = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))

        @st.composite
        def cases(draw):
            kind, lp, reference = draw(general_lps(st))
            u = np.array(draw(st.lists(share, min_size=lp.m_ineq, max_size=lp.m_ineq)))
            v = np.array(draw(st.lists(share, min_size=lp.m_eq, max_size=lp.m_eq)))
            return kind, lp, reference, u.reshape(-1), v.reshape(-1)

        seen = {"warm": 0, "infeasible": 0}

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            kind, lp, reference, u, v = case
            hypothesis.event(kind)
            restart = lpsolve.Restart()
            try:
                lpsolve.solve_dual_stack(LPStack.of(lp), restart)
                moved = self.moved(lp, u, v)
                cold = solve(moved)
            except NumericalFailure:
                hypothesis.event("NumericalFailure")
                return
            if restart.tab is None:
                return
            one = LPStack.of(moved)
            (out,) = lpsolve.solve_dual_stack(one, restart)
            assert not isinstance(out, NumericalFailure), kind
            assert out.status == cold.status, kind
            if cold.status == INFEASIBLE:
                assert not restart.warm and restart.tab is None, kind
                seen["infeasible"] += 1
                return
            assert abs(out.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
            status, value, _ = highs(self.moved(reference, u, v), **TIGHT)
            assert status == OPTIMAL, kind
            assert abs(out.objective - value) <= 1e-9 * (1.0 + abs(value)), kind
            seen["warm"] += restart.warm

        check()
        assert min(seen.values()) > 0, seen

    def test_first_solve_is_the_cold_solve(self):
        # keeping the end tableaux changes nothing in the solve that keeps them
        rng = np.random.default_rng(5)
        for _ in range(50):
            stack = random_dual_stack(rng, rng.choice(["optimal"] * 3 + ["infeasible"], size=4))
            restart = lpsolve.Restart()
            ours = lpsolve.solve_dual_stack(stack, restart)
            ref = lpsolve.solve_dual_stack(stack)
            for a, b in zip(ours, ref, strict=True):
                assert a.status == b.status
                if b.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
            assert restart.warm is False
            assert (restart.tab is None) == any(s.status != OPTIMAL for s in ref)

    def test_failed_restart_runs_cold(self, monkeypatch):
        # a restart that fails leaves the stack to a cold solve from its dual start
        lp = LPProblem([1.0, 2.0], G=[[-1.0, -1.0], [1.0, 0.0]], h=[-1.0, 3.0])
        restart = lpsolve.Restart()
        lpsolve.solve_dual_stack(LPStack.of(lp), restart)
        moved = LPProblem(lp.c, G=lp.G, h=[-2.0, 3.0])
        one = LPStack.of(moved)
        (cold,) = lpsolve.solve_dual_stack(one)
        monkeypatch.setattr(
            lpsolve, "_restart", lambda tab, stack: [NumericalFailure("injected")] * len(stack)
        )
        (out,) = lpsolve.solve_dual_stack(one, restart)
        assert not restart.warm and restart.tab is not None
        assert out.x.tobytes() == cold.x.tobytes() == solve(moved).x.tobytes()


def assert_same_solution(ours, ref):
    """Two optimal solutions of one program are the same, bit for bit."""
    assert ours.status == ref.status == OPTIMAL
    for field in ("x", "ineq_duals", "eq_duals"):
        assert getattr(ours, field).tobytes() == getattr(ref, field).tobytes(), field
    assert np.float64(ours.objective).tobytes() == np.float64(ref.objective).tobytes()


class TestStoredSlacks:
    """The dual refinement and a warm restart read the basis inverse off the
    slack columns that an end tableau stores (``_stored_slacks``), the
    other slacks being basic."""

    def test_programs_without_rows_cold_and_restarted(self):
        stack = LPStack(np.array([[1.0, 2.0], [0.0, 0.5], [3.0, 0.0]]), np.zeros((3, 0, 2)),
                        np.zeros((3, 0)), np.zeros((3, 0, 2)), np.zeros((3, 0)))
        restart = lpsolve.Restart()
        cold = lpsolve.solve_dual_stack(stack, restart)
        assert restart.tab is not None and not restart.warm
        warm = lpsolve.solve_dual_stack(stack, restart)
        assert restart.warm
        for k in range(3):
            assert cold[k].x.tolist() == [0.0, 0.0] and cold[k].objective == 0.0
            assert cold[k].ineq_duals.shape == cold[k].eq_duals.shape == (0,)
            assert_same_solution(warm[k], cold[k])
            assert_same_solution(solve(stack[k]), cold[k])

    def test_every_slack_basic(self):
        # positive right-hand sides: the slack basis is optimal, and no row
        # is degenerate, so the end tableau stores no slack, and a restart
        # at other such right-hand sides takes them as they are
        lp = LPProblem([1.0, 2.0], G=[[1.0, 1.0], [1.0, -1.0], [-1.0, 2.0]], h=[1.0, 0.5, 3.0])
        restart = lpsolve.Restart()
        (out,) = lpsolve.solve_dual_stack(LPStack.of(lp), restart)
        slack, _, reduced = lpsolve._stored_slacks(restart.tab)
        assert (slack == 3).all() and (reduced == 0.0).all()
        ref, _ = dense_reference.solve(lp, duals=True)
        assert_same_solution(out, ref)
        assert out.ineq_duals.tolist() == [0.0, 0.0, 0.0] and out.x.tolist() == [0.0, 0.0]
        h = np.array([2.0, 0.25, 1.0])
        (warm,) = lpsolve.solve_dual_stack(LPStack.of(LPProblem(lp.c, G=lp.G, h=h)), restart)
        assert restart.warm
        assert restart.tab.T[0, :-1, -1].tobytes() == h[restart.tab.basis[0] - 2].tobytes()
        assert warm.x.tolist() == [0.0, 0.0]

    def test_products_round_as_the_full_inverse(self):
        # condensed tableaux of random bases with entries over sixteen orders
        # of magnitude: v B^-T over the gathered columns of a stack is, at
        # each stored slack, bit for bit v B^-T over the full inverse of the
        # member's full tableau, laid out as dense_reference lays it out
        rng = np.random.default_rng(43)
        for _ in range(300):
            S, m, n = 4, int(rng.integers(1, 30)), int(rng.integers(1, 10))
            order = np.argsort(rng.random((S, n + m)), axis=1)
            basis, cols = order[:, :m], np.hstack([order[:, m:], np.full((S, 1), n + m)])
            T = rng.normal(size=(S, m + 1, n + 1)) * 10.0 ** rng.uniform(-8, 8, (S, m + 1, n + 1))
            v = rng.normal(size=(S, m)) * 10.0 ** rng.uniform(-5, 5, (S, m))
            tab = lpsolve._Tableau(T, basis, cols, np.ones((S, m)), 0)
            slack, columns, reduced = lpsolve._stored_slacks(tab)
            ours = lpsolve._vm(v, columns.swapaxes(1, 2))
            for k in range(S):
                full = np.zeros((m + 1, n + m + 1))
                full[:, cols[k]] = T[k]
                full[np.arange(m), basis[k]] = 1.0
                inverse = np.ascontiguousarray(full[:-1, n:-1].T)[None]
                ref = lpsolve._vm(v[k : k + 1], inverse.swapaxes(1, 2))[0]
                real = slack[k] < m
                assert sorted(slack[k, real]) == sorted(cols[k][cols[k] >= n][:-1] - n)
                assert ours[k, real].tobytes() == ref[slack[k, real]].tobytes()
                assert reduced[k, real].tobytes() == full[-1, n + slack[k, real]].tobytes()

    @staticmethod
    def random_stack(rng, m, size):
        """``size`` feasible programs of 6 columns and ``m`` inequality rows
        whose sizes span four orders of magnitude; the first one's slack
        basis is optimal."""
        c = rng.uniform(0.0, 2.0, (size, 6))
        G = rng.normal(size=(size, m, 6)) * 10.0 ** rng.uniform(-2.0, 2.0, (size, m, 1))
        h = np.einsum("kij,kj->ki", G, rng.uniform(0.0, 1.0, (size, 6)))
        h += rng.uniform(0.0, 0.3, (size, m))
        h[0] = np.abs(h[0])
        return LPStack(c, G, h, np.zeros((size, 0, 6)), np.zeros((size, 0)))

    @pytest.mark.parametrize("m", [9, 10, 11, 12])
    def test_members_storing_different_slack_counts_match_alone(self, m):
        # every member, cold and restarted at moved right-hand sides, bit for
        # bit as alone, whichever slacks the others store; m covers each
        # count of rows past a multiple of four
        rng = np.random.default_rng(40 + m)
        counts, warm = set(), 0
        for _ in range(12):
            stack = self.random_stack(rng, m, 6)
            moved = LPStack(stack.c, stack.G, stack.h * rng.uniform(0.9, 1.1, stack.h.shape),
                            stack.A, stack.d)
            restart = lpsolve.Restart()
            cold = lpsolve.solve_dual_stack(stack, restart)
            slack, _, _ = lpsolve._stored_slacks(restart.tab)
            counts.update((slack < m).sum(axis=1).tolist())
            restarted = lpsolve.solve_dual_stack(moved, restart)
            for k in range(len(stack)):
                alone = lpsolve.Restart()
                (out,) = lpsolve.solve_dual_stack(member(stack, k), alone)
                assert_same_solution(cold[k], out)
                (out,) = lpsolve.solve_dual_stack(member(moved, k), alone)
                if restart.warm and alone.warm:
                    assert_same_solution(restarted[k], out)
                    warm += 1
        assert {0, 1, 2, 3, 4, 5} <= counts and warm > 0, (counts, warm)

    def test_restart_right_hand_side_solves_the_basis(self, monkeypatch):
        # each facet stack of a 64-facet FitzHugh-Nagumo synthesis, restarted
        # from its end tableau at the next pass's offsets: before any pivot,
        # the right-hand side column is B^-1 b of the end basis B, within
        # 1e-12 relative of np.linalg.solve
        fld, rect, _, ref = fitzhugh_nagumo()
        angles = np.arange(64) * np.pi / 32
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        trace = synthesize(fld, rect, PolytopeTemplate(normals),
                           SynthesisParams(reference_point=ref, max_iter=4))
        offsets = [record.offsets for record in trace.records]
        lift = facet_lift(fld, rect, PolytopeTemplate(normals, offsets[0]))
        restarted = []
        real_dual_phase = lpsolve._dual_phase

        def dual_phase(tab, out):
            restarted.append((tab.T[:, :-1, -1].copy(), tab.basis.copy()))
            return real_dual_phase(tab, out)

        checked = 0
        for before, after in zip(offsets, offsets[1:]):
            stacks = [facet_programs(fld, rect, PolytopeTemplate(normals, b), lift)
                      for b in (before, after)]
            for old, new in zip(*stacks, strict=True):
                restart = lpsolve.Restart()
                lpsolve.solve_dual_stack(LPStack(old.c - old.c.min(axis=1, keepdims=True),
                                                 old.G, old.h, old.A, old.d), restart)
                tab, split = restart.tab, lpsolve._split(new)
                with monkeypatch.context() as patch:
                    patch.setattr(lpsolve, "_dual_phase", dual_phase)
                    lpsolve._restart(tab, split)
                value, basis = restarted.pop()
                S, m, n = split.G.shape
                for k in range(S):
                    rows = np.hstack([split.G[k] * tab.row_scale[k][:, None], np.eye(m)])
                    exact = np.linalg.solve(rows[:, basis[k]], split.h[k] * tab.row_scale[k])
                    assert np.abs(value[k] - exact).max() <= 1e-12 * (1.0 + np.abs(exact).max())
                    checked += 1
        assert len(offsets) > 1 and checked >= 64, checked


def outcome_or_failure(fn):
    """``fn()``, or the NumericalFailure it raised."""
    try:
        return fn()
    except NumericalFailure as exc:
        return exc


def random_dual_stack(rng, kinds):
    """Programs of one shape with nonnegative costs, as the bounding programs
    are posed once their costs are shifted: 6 columns, 3 inequality rows
    with right-hand side 0 (some of them degenerate: entries of 1e-8 to 1e-5
    beside zeros), a weight row ``sum x = 1`` and one more equality row with
    right-hand side 0; member ``k`` is optimal, one class meeting every row,
    or, where ``kinds[k]`` says so, infeasible (an equality row that is
    positive on every column)."""
    c, G, h, A, d = [], [], [], [], []
    for kind in kinds:
        g = rng.normal(size=(3, 6))
        tiny = rng.random(3) < 0.4
        size = rng.choice([-1.0, 1.0], (tiny.sum(), 6)) * 10.0 ** rng.uniform(-8, -5, 6)
        g[tiny] = np.where(rng.random((tiny.sum(), 6)) < 0.5, 0.0, size)
        eq = rng.normal(size=6)
        j = rng.integers(6)  # a class that meets every row: the program is feasible
        eq[j], g[:, j] = 0.0, -np.abs(g[:, j])
        if kind == "infeasible":
            eq = np.abs(eq) + 0.1
        cost = np.where(rng.random(6) < 0.2, 0.0, rng.uniform(0.0, 2.0, 6))
        rows = (cost, g, np.zeros(3), np.vstack([np.ones(6), eq]), [1.0, 0.0])
        for arrays, value in zip((c, G, h, A, d), rows):
            arrays.append(value)
    return lpsolve.LPStack(*map(np.array, (c, G, h, A, d)))


class TestDualStart:
    """Programs solved cold from their slack bases by the dual simplex, each
    equality row split in two (``solve_dual_stack``)."""

    def test_stacked_cold_start_matches_each_member_alone(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(60):
            kinds = rng.choice(["optimal"] * 3 + ["infeasible"], size=int(rng.integers(2, 7)))
            stack = random_dual_stack(rng, kinds)
            for k, (out, kind) in enumerate(zip(lpsolve.solve_dual_stack(stack), kinds)):
                (alone,) = lpsolve.solve_dual_stack(member(stack, k))
                assert out.status == alone.status
                assert (out.status == INFEASIBLE) == (kind == "infeasible")
                seen.add(out.status)
                if out.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()
                    assert out.objective == alone.objective
                    assert out.eq_duals.shape == (2,) and out.ineq_duals.shape == (3,)
        assert seen == {OPTIMAL, INFEASIBLE}

    def test_matches_solve(self):
        # the same status, x and optimum as solve, whose duals skip the
        # degenerate-row pass, and the optimum of HiGHS on the unsplit rows
        rng = np.random.default_rng(29)
        for _ in range(40):
            stack = random_dual_stack(rng, rng.choice(["optimal", "infeasible"], size=4))
            for k, out in enumerate(lpsolve.solve_dual_stack(stack)):
                ref = solve(stack[k])
                status, value, _ = highs(stack[k])
                assert out.status == ref.status == status
                if ref.status == OPTIMAL:
                    assert out.x.tobytes() == ref.x.tobytes() and out.objective == ref.objective
                    assert abs(out.objective - value) <= 1e-9 * (1.0 + abs(value))
                    assert kkt_residuals(stack[k], out)["dual"] <= 1e-9

    def test_lone_loop_takes_the_lockstep_steps(self):
        # each member that a lockstep dual loop runs ends, tableau and basis,
        # bit for bit as the lone loop leaves it; members end at different
        # steps, and the last one running finishes in the lone loop
        rng = np.random.default_rng(31)
        for _ in range(40):
            stack = random_dual_stack(rng, rng.choice(["optimal", "infeasible"], size=5))
            split = lpsolve._split(stack)
            tab = lpsolve._dual_start(split, 2)
            ref = [lpsolve._part(tuple(a.copy() for a in tab.state), k) for k in range(len(stack))]
            outs = lpsolve._dual_loops(tab.state, list(range(len(stack))))
            for k, st in enumerate(ref):
                assert lpsolve._dual_loop(st) == outs[k]
                for ours, alone in zip(lpsolve._part(tab.state, k), st):
                    assert ours.tobytes() == alone.tobytes()

    @staticmethod
    def feasible_stack(rng, size):
        """``size`` programs of 5 columns and 6 inequality rows whose slack
        bases are optimal: every right-hand side is positive."""
        return LPStack(rng.uniform(0.0, 2.0, (size, 5)), rng.normal(size=(size, 6, 5)),
                       rng.uniform(0.1, 1.0, (size, 6)), np.zeros((size, 0, 5)), np.zeros((size, 0)))

    @staticmethod
    def refuse(monkeypatch, *names):
        """Make each named ``lpsolve`` function fail the test if called."""
        for name in names:
            def refused(*args, name=name):
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(lpsolve, name, refused)

    def test_members_that_start_optimal_stop_at_once(self, monkeypatch):
        # no member has a row below zero: the lockstep loop ends them all in
        # its first step, with no row choice, no ratio test and no pivot, and
        # each comes out bit for bit as alone, cold and restarted at other
        # such right-hand sides
        rng = np.random.default_rng(37)
        self.refuse(monkeypatch, "_pivot_all", "_first")
        for _ in range(10):
            stack = self.feasible_stack(rng, 5)
            moved = LPStack(stack.c, stack.G, rng.uniform(0.1, 1.0, stack.h.shape), stack.A, stack.d)
            restart = lpsolve.Restart()
            outs = [lpsolve.solve_dual_stack(stack, restart), lpsolve.solve_sweep(stack)]
            outs.append(lpsolve.solve_dual_stack(moved, restart))
            assert restart.warm
            for k in range(len(stack)):
                alone = lpsolve.Restart()
                assert_same_solution(outs[0][k], lpsolve.solve_dual_stack(member(stack, k), alone)[0])
                assert_same_solution(outs[1][k], solve(stack[k]))
                assert_same_solution(outs[2][k], lpsolve.solve_dual_stack(member(moved, k), alone)[0])
                assert outs[0][k].x.tolist() == [0.0] * 5

    def test_nan_member_fails_where_the_others_stop(self, monkeypatch):
        # one member's right-hand side is NaN and the others start optimal:
        # the step that ends them fails that member alone
        rng = np.random.default_rng(41)
        self.refuse(monkeypatch, "_pivot_all")
        stack = self.feasible_stack(rng, 4)
        stack.h[2, 3] = np.nan
        for outs in (lpsolve.solve_dual_stack(stack), lpsolve.solve_sweep(stack)):
            for k, out in enumerate(outs):
                (alone,) = lpsolve.solve_dual_stack(member(stack, k))
                if k == 2:
                    assert isinstance(out, NumericalFailure) and isinstance(alone, NumericalFailure)
                    assert str(out) == str(alone) == "dual simplex met a NaN"
                else:
                    assert_same_solution(out, alone)

    def test_stacks_without_equality_rows_over_views_match_alone(self):
        # G as a view that repeats one block and as a transposed block, its
        # rows spanning six orders of magnitude: the split rows are
        # C-contiguous, and each member comes out bit for bit as a
        # contiguous copy of it does alone
        rng = np.random.default_rng(47)
        statuses = set()
        for _ in range(20):
            G = rng.normal(size=(7, 4)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
            transposed = rng.normal(size=(5, 4, 7)) * 10.0 ** rng.uniform(-3, 3, (5, 1, 7))
            c, h = rng.uniform(0.0, 2.0, (5, 4)), rng.normal(size=(5, 7))
            for block in (np.broadcast_to(G, (5, 7, 4)), transposed.swapaxes(1, 2)):
                stack = LPStack(c, block, h, np.zeros((5, 0, 4)), np.zeros((5, 0)))
                split = lpsolve._split(stack)
                assert not block.flags.c_contiguous
                assert split.G.flags.c_contiguous and split.h.flags.c_contiguous
                read, swept = lpsolve.solve_dual_stack(stack), lpsolve.solve_sweep(stack)
                for k in range(len(stack)):
                    copy = LPProblem(c[k].copy(), G=block[k].copy(), h=h[k].copy())
                    for ours, ref in ((read[k], solve_read(copy)), (swept[k], solve(copy))):
                        assert ours.status == ref.status
                        statuses.add(ref.status)
                        if ref.status == OPTIMAL:
                            assert_same_solution(ours, ref)
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_least_class_enters_first(self, monkeypatch):
        # the split weight row is the only row below zero at the start, and
        # its least ratio is the least cost: one pivot answers a program
        # whose least class meets every other row strictly
        stack = lpsolve.LPStack(
            np.array([[2.0, 0.5, 1.0]]), -np.ones((1, 1, 3)), np.zeros((1, 1)),
            np.ones((1, 1, 3)), np.ones((1, 1)),
        )
        pivots = []
        real = lpsolve._pivot

        def pivot(st, row, slot):
            pivots.append(int(st[2][slot]))
            return real(st, row, slot)

        monkeypatch.setattr(lpsolve, "_pivot", pivot)
        (out,) = lpsolve.solve_dual_stack(stack)
        assert pivots == [1] and out.x.tolist() == [0.0, 1.0, 0.0] and out.objective == 0.5


def klee_minty(n=7) -> LPProblem:
    """The LP dual of the ``n``-D Klee–Minty cube ``max c . x`` subject to
    ``A x <= b`` and ``x >= 0``, for ``c_j = 10^(n-1-j)``, row ``i`` of ``A x``
    being ``2 sum_{j<i} 10^(i-j) x_j + x_i`` and ``b_i = 100^i``: ``min b .
    y`` subject to ``-A^T y <= -c`` and ``y >= 0``, whose costs are
    nonnegative.  Its optimum is the cube's, ``100^(n-1)``."""
    i, j = np.indices((n, n))
    A = np.where(j < i, 2.0 * 10.0 ** (i - j), np.eye(n))
    return LPProblem(100.0 ** np.arange(n), G=-A.T, h=-(10.0 ** np.arange(n - 1, -1, -1)))


def basic_programs() -> list:
    """The programs of ``TestBasics``, Beale's LP dual among them."""
    beale = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return [
        LPProblem([1.0], G=[[-1.0], [-1.0]], h=[-1.0, -2.0]),
        LPProblem([1.0, 0.0], G=[[-1.0, 1.0]], h=[1.0]),
        LPProblem([0.0], G=[[1.0]], h=[-1.0]),
        LPProblem([1.0, 0.0, 0.0], G=[[0.0, -1.0, 1.0]], h=[-2.0], A=[[1.0, -1.0, 1.0]], d=[1.0]),
        box_lp([-1.0, 0.0], Rectangle([-5.0, -5.0], [5.0, 5.0]),
               G=[[1.0, 0.0]] * 5, h=[1.0] * 5, A=[[1.0, 0.0]], d=[1.0]),
        LPProblem([0.0, 0.0, 1.0], G=-beale.T, h=[-0.75, 150.0, -0.02, 6.0]),
    ]


class TestBlandRule:
    """After more than ``5 * size`` degenerate pivots the dual loop picks the
    leaving row below zero whose basic column comes first (Bland's rule)."""

    @pytest.mark.parametrize("k", range(len(basic_programs()) + 1))
    def test_matches_the_default_rule(self, monkeypatch, k):
        # from the dual start with the degenerate count past the switch, the
        # same status and optimum as the normalized rule
        lp = (basic_programs() + [klee_minty()])[k]
        pivots = []
        real = lpsolve._pivot
        monkeypatch.setattr(lpsolve, "_pivot", lambda *args: pivots.append(real(*args)))
        ends = []
        for bland in (False, True):
            tab = lpsolve._dual_start(lpsolve._split(LPStack.of(lp)), lp.m_eq)
            st = lpsolve._part(tab.state, 0)
            size = st[0].shape[0] - 1 + lpsolve._width(st[0])
            pivots.clear()
            status = lpsolve._dual_loop(st, 5 * size + 1 if bland else 0)
            ends.append((status, -st[0][-1, -1], len(pivots)))
        (status, value, default), (bland_status, bland_value, taken) = ends
        assert bland_status == status
        if status == OPTIMAL:
            assert abs(bland_value - value) <= 1e-9 * abs(value)
        if k == len(basic_programs()):
            # every row of the Klee–Minty dual starts below zero: Bland's
            # rule leaves by other rows than the normalized one
            assert status == OPTIMAL and taken != default

    @pytest.mark.parametrize("k", range(len(basic_programs()) + 1))
    def test_lockstep_members_past_the_switch_end_as_alone(self, monkeypatch, k):
        # a stack of the program and three copies with moved right-hand
        # sides, started in lockstep past the switch: each member ends,
        # tableau and basis, bit for bit as the lone loop leaves it from the
        # same count, so the lockstep step takes the Bland row too
        lp = (basic_programs() + [klee_minty()])[k]
        rng = np.random.default_rng(59 + k)
        members = [lp] + [
            LPProblem(lp.c, G=lp.G, h=lp.h + rng.normal(0.0, 0.1, lp.m_ineq) * (1.0 + np.abs(lp.h)),
                      A=lp.A, d=lp.d + rng.normal(0.0, 0.1, lp.m_eq) * (1.0 + np.abs(lp.d)))
            for _ in range(3)
        ]
        stack = LPStack(*(np.array([getattr(m, f) for m in members]) for f in "cGhAd"))
        tab = lpsolve._dual_start(lpsolve._split(stack), lp.m_eq)
        size = tab.T.shape[1] - 1 + lpsolve._width(tab.T)
        alone = [lpsolve._part(tuple(a.copy() for a in tab.state), j) for j in range(len(stack))]
        steps = []
        real = lpsolve._pivot_all
        monkeypatch.setattr(lpsolve, "_pivot_all", lambda *args: steps.append(real(*args)))
        outs = lpsolve._dual_loops(tab.state, list(range(len(stack))), 5 * size + 1)
        for j, st in enumerate(alone):
            ours = outs[j]
            ref = lpsolve._dual_loop(st, 5 * size + 1)
            assert str(ours) == str(ref) and type(ours) is type(ref)
            for a, b in zip(lpsolve._part(tab.state, j), st):
                assert a.tobytes() == b.tobytes()
        if k == len(basic_programs()):
            # every member starts with all its rows below zero and steps in
            # lockstep, where Bland's rule takes other pivots than the
            # normalized rule from a count of 0
            assert steps and all(out == OPTIMAL for out in outs.values())
            bland = len(steps)
            tab = lpsolve._dual_start(lpsolve._split(stack), lp.m_eq)
            steps.clear()
            lpsolve._dual_loops(tab.state, list(range(len(stack))))
            assert len(steps) != bland


class TestSolve:
    """``solve``: one program with nonnegative costs, by the dual simplex
    from its slack basis, its equality rows split."""

    def test_matches_highs(self):
        rng = np.random.default_rng(211)
        statuses = set()
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            c = np.where(rng.uniform(size=n) < 0.2, 0.0, rng.uniform(0.0, 2.0, size=n))
            m_eq = int(rng.integers(0, 2))
            lp = LPProblem(c, G=rng.normal(size=(m, n)), h=rng.normal(size=m),
                           A=rng.normal(size=(m_eq, n)), d=rng.normal(size=m_eq))
            sol = solve(lp)
            status, value, _ = highs(lp)
            statuses.add(sol.status)
            assert sol.status == status
            if status == OPTIMAL:
                assert abs(sol.objective - value) <= 1e-9 * (1.0 + abs(value))
                assert np.all(lp.G @ sol.x <= lp.h + 1e-9) and np.all(sol.x >= 0.0)
                assert np.all(np.abs(lp.A @ sol.x - lp.d) <= 1e-9)
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_klee_minty_cube_as_its_dual(self):
        # the 7-D cube, with costs up to 1e12, at HiGHS's optimum
        lp = klee_minty()
        sol = solve(lp)
        status, value, _ = highs(lp)
        assert sol.status == status == OPTIMAL
        assert abs(sol.objective - 1e12) <= 1e-9 * 1e12
        assert abs(sol.objective - value) <= 1e-9 * abs(value)

    def test_refuses_negative_costs(self):
        with pytest.raises(ValueError, match="nonnegative costs"):
            solve(LPProblem([1.0, -1.0], G=[[1.0, 1.0]], h=[1.0]))
        sol = solve(LPProblem([1.0, 2.0], A=[[1.0, 1.0]], d=[1.0]))
        assert sol.x.tolist() == [1.0, 0.0] and sol.eq_duals.tolist() == [-1.0]
