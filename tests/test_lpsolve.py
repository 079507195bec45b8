import itertools
from fractions import Fraction

import numpy as np
import pytest

from polyvar import lpsolve
from polyvar.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    NumericalFailure,
    kkt_residuals,
    solve,
    solve_many,
)
from polyvar.invariance import PolytopeTemplate, facet_programs
from polyvar.oracle import box_lp, complementary_slackness, free_lp
from polyvar.polynomial import Rectangle

import dense_reference
from conftest import fitzhugh_nagumo


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
    """``random_box_program`` in the one form, shifted to ``y = x - lo``."""
    return box_lp(*random_box_program(rng))


class TestBasics:
    def test_single_active_constraint_with_duals(self):
        # max x over free x with x <= 1 and x <= 2
        lp = free_lp([-1.0], G=[[1.0], [1.0]], h=[1.0, 2.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0::2] - sol.x[1::2] == pytest.approx([1.0])
        assert sol.objective == pytest.approx(-1.0)
        assert sol.ineq_duals == pytest.approx([1.0, 0.0])

    def test_unbounded(self):
        lp = LPProblem([-1.0])
        assert solve(lp).status == UNBOUNDED

    def test_infeasible(self):
        lp = LPProblem([0.0], G=[[1.0]], h=[-1.0])
        assert solve(lp).status == INFEASIBLE

    def test_equality_with_free_variable(self):
        # min x1 + x2 with x1 + x2 = 2, x1 in [-1, 5] shifted to y1 = x1 + 1
        # (its upper side a row), x2 = x2+ - x2- free; the objective is
        # y1 + x2 = (x1 + x2) + 1
        lp = LPProblem(
            [1.0, 1.0, -1.0],
            G=[[1.0, 0.0, 0.0]],
            h=[6.0],
            A=[[1.0, 1.0, -1.0]],
            d=[3.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2.0 + 1.0)
        assert sol.eq_duals == pytest.approx([-1.0])

    def test_degenerate_redundant_rows(self):
        # same halfspace stacked five times plus its boundary as equality;
        # max x1 on [-5, 5]^2 is min -(y1 - 5) with y = x + 5, so -(1 + 5)
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
        assert sol.objective == pytest.approx(-6.0)

    def test_cycling_prone_degenerate_lp(self):
        # classic example that cycles under naive most-negative pricing from
        # the all-slack basis; the degenerate-pivot fallback must terminate it
        lp = LPProblem(
            [-0.75, 150.0, -0.02, 6.0],
            G=[
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            h=[0.0, 0.0, 1.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

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
    """Variables with an upper bound only: a free column pair plus one row."""

    def test_single_variable(self):
        assert solve(free_lp([-1.0], G=[[1.0]], h=[3.0])).objective == pytest.approx(-3.0)
        assert solve(free_lp([1.0], G=[[1.0]], h=[3.0])).status == UNBOUNDED

    def test_random_battery_against_vertex_oracle(self):
        # the same boxed programs over free variables, with every lower bound
        # and then every upper bound as a row of G; the reference is the
        # boxed program's optimum, shifted back by c . lo
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
            sol = solve(lp)
            assert sol.status == OPTIMAL
            reference = brute_force_optimum(box_lp(c, rect, G, h, A, d)) + c @ rect.lower
            assert sol.objective == pytest.approx(reference, abs=1e-6)
            assert kkt_residuals(lp, sol)["primal"] <= 1e-8


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
        # Phase 1 pivots on the 2.1e-5 entry of the equality row, and the
        # tableau's entries grow by about its inverse; duals read off the
        # reduced-cost row alone were 5.2e-12 (relative) from the basis duals
        c = [-0.16600436170542032, -0.8247995492058817, -0.02625746050788247, 0.9971984704084642]
        g = [-0.14573132676012546, -0.13339080409256865, -0.34185341209509934, 0.7719441227062529]
        a = [-0.017576082134149518, 2.1418044866048316e-05, 0.055215305329331166, -0.961957497877004]
        G = np.vstack([g, np.eye(4)])  # and the box x <= 2
        h = [0.23568216454195653, 2.0, 2.0, 2.0, 2.0]
        lp = LPProblem(c, G=G, h=h, A=[a], d=[8.258363381093087e-06])
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
    """The post-optimal pass changes which optimal duals come back, never x."""

    def test_x_and_objective_unchanged(self, monkeypatch):
        rng = np.random.default_rng(47)
        programs = []
        for _ in range(100):
            lp = random_boxed_lp(rng)
            programs += [lp, degenerate_variant(rng, lp)]
        with_pass = [solve(lp) for lp in programs]
        monkeypatch.setattr(lpsolve, "_activate_degenerate_rows", lambda *args: None)
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
        sol = solve(LPProblem([1.0], G=[[-1.0]], h=[0.0]))
        assert sol.x.tolist() == [0.0]
        assert sol.ineq_duals.tolist() == [1.0]

    def test_only_programs_whose_duals_are_read_take_the_pass(self, monkeypatch):
        # a sweep reads only x: it keeps the plain basis duals, and the same
        # x as the pass leaves
        lp = LPProblem([1.0], G=[[-1.0]], h=[0.0])
        (swept,) = solve_many(lp, [[1.0]])
        assert swept.x.tolist() == [0.0] and swept.ineq_duals.tolist() == [0.0]

        def entered(*args):
            raise AssertionError("degenerate-row pass entered")

        monkeypatch.setattr(lpsolve, "_activate_degenerate_rows", entered)
        rng = np.random.default_rng(199)
        for _ in range(20):
            sweep, costs = random_sweep(rng)
            solve_many(sweep, costs)
        with pytest.raises(AssertionError, match="pass entered"):
            solve(lp)
        with pytest.raises(AssertionError, match="pass entered"):
            lpsolve.solve_stack(lpsolve.LPStack.of(lp))


class TestKKTSelfCheck:
    def test_nan_residual_fails(self):
        # the bounding program of p = x over [0, 1] with the subnormal row
        # -2.225073858507e-311 x <= 0: the row stays below unit scale after
        # scaling by 2**1000, and its dual overflows to NaN, which no
        # residual threshold may let through
        lp = LPProblem(
            [0.0, 1.0], G=[[-0.0, -2.225073858507e-311]], h=[0.0], A=[[1.0, 1.0]], d=[1.0]
        )
        with pytest.warns(RuntimeWarning):  # the overflow, then NaN arithmetic
            with pytest.raises(
                NumericalFailure,
                match=r"KKT self-check: primal=0\.00e\+00 dual=nan gap=nan",
            ):
                solve(lp)


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


def random_sweep(rng):
    """``(lp, costs)``: six costs over one region, boxed or free, with a gap
    between two opposite rows in one region of five."""
    if rng.integers(0, 2):
        lp = random_boxed_lp(rng)
        costs = rng.normal(size=(6, lp.n_vars))
    else:
        # few rows over free variables: some directions are unbounded
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x0 = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        lp = free_lp(np.zeros(n), G=G, h=G @ x0 + rng.uniform(0.0, 2.0, size=m))
        costs = np.repeat(rng.normal(size=(6, n)), 2, axis=1) * np.tile([1.0, -1.0], n)
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
    return lp, costs


class TestSolveMany:
    """One phase 1, then the costs pivot as stacks from its tableau: each
    answer is the cold one."""

    def test_matches_a_cold_solve_per_cost(self):
        # each direction's status, x and objective are the cold solve's bit
        # for bit, and permuting the costs permutes the answers bit for bit,
        # the plain basis duals included
        rng = np.random.default_rng(191)
        statuses = set()
        for _ in range(400):
            lp, costs = random_sweep(rng)
            order = rng.permutation(len(costs))
            sols = solve_many(lp, costs)
            for sol, permuted in zip([sols[i] for i in order], solve_many(lp, costs[order])):
                assert permuted.status == sol.status
                if sol.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(permuted, field).tobytes() == getattr(sol, field).tobytes()
            for cost, sol in zip(costs, sols):
                program = LPProblem(cost, G=lp.G, h=lp.h, A=lp.A, d=lp.d)
                ref = solve(program)
                assert sol.status == ref.status
                statuses.add(sol.status)
                if ref.status == OPTIMAL:
                    assert sol.x.tobytes() == ref.x.tobytes()
                    assert sol.objective == ref.objective
                    res = kkt_residuals(program, sol)
                    assert max(res["primal"], res["dual"], res["gap"]) <= 1e-6
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_first_cost_is_the_cold_solve(self):
        rng = np.random.default_rng(193)
        for _ in range(50):
            lp, costs = random_sweep(rng)
            first = solve_many(lp, costs)[0]
            cold = solve(LPProblem(costs[0], G=lp.G, h=lp.h, A=lp.A, d=lp.d))
            assert first.status == cold.status
            if cold.status == OPTIMAL:
                np.testing.assert_array_equal(first.x, cold.x)
                np.testing.assert_array_equal(first.ineq_duals, cold.ineq_duals)
                np.testing.assert_array_equal(first.eq_duals, cold.eq_duals)
                assert first.objective == cold.objective

    def test_rows_only(self):
        # the program's own cost plays no part; no costs, no answers
        lp = free_lp([5.0], G=[[1.0], [-1.0]], h=[1.0, 2.0])
        sols = solve_many(lp, [[-1.0, 1.0], [1.0, -1.0]])
        assert [s.objective for s in sols] == pytest.approx([-1.0, -2.0])
        assert solve_many(lp, np.zeros((0, 2))) == []

    def test_empty_region_is_infeasible_for_every_cost(self):
        lp = LPProblem([0.0], G=[[1.0]], h=[-1.0])
        assert [s.status for s in solve_many(lp, [[1.0], [-1.0]])] == [INFEASIBLE] * 2

    def test_nan_cost_rejected(self):
        with pytest.raises(ValueError):
            solve_many(LPProblem([1.0]), [[1.0], [np.nan]])

    def test_infinite_cost_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_many(LPProblem([1.0], G=[[1.0]], h=[1.0]), [[1.0], [-np.inf]])


    @staticmethod
    def long_sweep():
        """``(lp, costs)``: 20 costs over a bounded region whose tableau is
        large enough that a chunk of ``solve_many`` holds seven of them."""
        rng = np.random.default_rng(197)
        lp = LPProblem(np.zeros(60), G=rng.uniform(0.1, 1.0, (75, 60)), h=rng.uniform(1.0, 2.0, 75))
        assert lpsolve.stack_members(60, 75, 0) == 7
        return lp, rng.normal(size=(20, 60))

    def test_chunked_duals_match_one_cost_at_a_time(self, monkeypatch):
        # three chunks of stacked costs; with a chunk of one cost, each cost
        # pivots alone
        lp, costs = self.long_sweep()
        chunked = solve_many(lp, costs)
        monkeypatch.setattr(lpsolve, "STACK_BYTES", 1)
        assert lpsolve.stack_members(60, 75, 0) == 1
        for sol, one in zip(chunked, solve_many(lp, costs), strict=True):
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
        # costs 7-13 form the second chunk: the first cost in order to fail
        # raises, whether its KKT self-check or its pivots fail, as when each
        # cost is solved alone
        lp, costs = self.long_sweep()
        real_kkt, real_phase_two = lpsolve.kkt_residuals, lpsolve._phase_two
        solved = [0]

        def kkt_residuals(rows, sol):
            res = real_kkt(rows, sol)
            if kkt is not None:
                hit = (np.atleast_2d(rows.c) == costs[kkt]).all(axis=1)
                res["primal"] = np.where(hit, 1.0, res["primal"])
            return res

        def phase_two(*args):
            out = real_phase_two(*args)
            first, solved[0] = solved[0], solved[0] + len(out)
            if run is not None and first <= run < solved[0]:
                out[run - first] = NumericalFailure("injected")
            return out

        monkeypatch.setattr(lpsolve, "kkt_residuals", kkt_residuals)
        monkeypatch.setattr(lpsolve, "_phase_two", phase_two)
        messages = []
        for stack_bytes in (lpsolve.STACK_BYTES, 1):
            monkeypatch.setattr(lpsolve, "STACK_BYTES", stack_bytes)
            solved[0] = 0
            with pytest.raises(NumericalFailure, match=raised) as exc:
                solve_many(lp, costs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestSolveStack:
    @staticmethod
    def random_stack(rng, kinds):
        """Programs of one shape (4 columns, 3 inequality rows with h >= 0,
        one equality row with d >= 0), each optimal, infeasible or unbounded."""
        c, G, h, A, d = [], [], [], [], []
        for kind in kinds:
            g = rng.uniform(0.1, 2.0, (3, 4))
            a = rng.uniform(0.1, 2.0, (1, 4))
            cost = rng.uniform(-1.0, 1.0, 4)
            if kind == "infeasible":  # -a.x = 1 has no solution with x >= 0
                a, rhs = -a, [1.0]
            elif kind == "unbounded":  # x grows without limit, the cost falls
                g, a, rhs, cost = -g, np.zeros((1, 4)), [0.0], -np.abs(cost) - 0.1
            else:
                rhs = [float(a[0] @ rng.uniform(0.0, 0.2, 4))]
            for arrays, value in zip((c, G, h, A, d), (cost, g, rng.uniform(0.5, 2.0, 3), a, rhs)):
                arrays.append(value)
        return lpsolve.LPStack(*map(np.array, (c, G, h, A, d)))

    def test_members_match_their_solve_alone(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(40):
            kinds = rng.choice(["optimal", "optimal", "infeasible", "unbounded"], size=5)
            stack = self.random_stack(rng, kinds)
            for k, out in enumerate(lpsolve.solve_stack(stack)):
                alone = solve(stack[k])
                assert out.status == alone.status
                seen.add(out.status)
                if out.status == OPTIMAL:
                    for field in ("x", "ineq_duals", "eq_duals"):
                        assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()
                    assert out.objective == alone.objective
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_members_need_equally_many_artificial_columns(self):
        stack = self.random_stack(np.random.default_rng(8), ["optimal", "optimal"])
        stack.h[1, 0] = -1.0  # flips a row of the second member only
        with pytest.raises(ValueError, match="equally many artificial columns"):
            lpsolve.solve_stack(stack)

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
        """Beale's cycling program, where Dantzig's rule cycles until the
        switch to Bland's; each block adds a column its own row caps, which
        the first pivots take, so the switch comes one step later per block."""
        c, G, h, A, d = self.posed(
            [-0.75, 150.0, -0.02, 6.0],
            [[0.25, -60.0, -1 / 25, 9.0], [0.5, -90.0, -1 / 50, 3.0], [0.0, 0.0, 1.0, 0.0]],
            [0.0, 0.0, 1.0],
        )
        for i in range(blocks):
            c[4 + i], G[3 + i, 4 + i] = -1000.0, 1.0
        return c, G, h, A, d

    def test_members_ending_at_different_steps_match_their_solve_alone(self, monkeypatch):
        rng = np.random.default_rng(11)
        members = [self.beale(blocks) for blocks in (0, 1, 2)]
        # optimal at x = 0 with the slacks of -x_0 <= 0 and -x_1 <= 0 basic at
        # zero: the degenerate-row pass gives both rows a multiplier
        members.append(self.posed(np.arange(1.0, 8.0), [[-1.0], [0.0, -1.0], [1.0, 1.0, 1.0]], [0.0] * 3))
        members += [self.degenerate(rng, 4) for _ in range(6)]
        members.append(self.posed([0.0], [[1.0]], [1.0], A=-np.ones(8)))  # -sum x = 1: infeasible
        members.append(self.posed([-1.0, 1.0], [[-1.0, 1.0]], [1.0]))  # x_0 grows: unbounded
        order = rng.permutation(len(members))
        stack = lpsolve.LPStack(*(np.array(block) for block in zip(*(members[k] for k in order))))

        pivots = []
        real_pivot = lpsolve._pivot

        def pivot(*args):
            pivots[-1] += 1
            return real_pivot(*args)

        outs = lpsolve.solve_stack(stack)
        monkeypatch.setattr(lpsolve, "_pivot", pivot)
        for k, out in enumerate(outs):
            pivots.append(0)
            alone = solve(stack[k])
            assert out.status == alone.status
            if out.status == OPTIMAL:
                for field in ("x", "ineq_duals", "eq_duals"):
                    assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()
                assert out.objective == alone.objective
        statuses = [out.status for out in outs]
        assert statuses.count(INFEASIBLE) == statuses.count(UNBOUNDED) == 1
        # Beale's programs pass the 5 * (rows + columns) = 120 degenerate
        # pivots after which Bland's rule takes over; the others end sooner
        beale = [int(np.flatnonzero(order == b)[0]) for b in range(3)]
        assert [pivots[k] for k in beale] == [127, 128, 129]
        assert max(np.delete(pivots, beale)) < 20 and len(set(pivots)) > 5
        degenerate = outs[int(np.flatnonzero(order == 3)[0])]
        assert degenerate.ineq_duals[:2].tolist() == [1.0, 2.0]

    def degenerate(self, rng, rows):
        """A program of ``rows`` random rows with ``7 - rows`` more rows
        through its optimum, so some slacks end basic at zero."""
        G = rng.uniform(0.1, 2.0, (rows, 7))
        lp = LPProblem(rng.uniform(-1.0, 1.0, 7), G=G, h=rng.uniform(0.5, 2.0, rows))
        x = solve(lp).x
        extra = rng.normal(size=(7 - rows, 7))
        extra *= np.where(extra @ x < 0.0, -1.0, 1.0)[:, None]
        return self.posed(lp.c, np.vstack([G, extra]), np.concatenate([lp.h, extra @ x]))

    @staticmethod
    def assert_members_alone(members):
        """``solve_stack`` over ``members`` gives each its ``solve`` alone,
        bit for bit."""
        stack = lpsolve.LPStack(*(np.array(block) for block in zip(*members)))
        for k, out in enumerate(lpsolve.solve_stack(stack)):
            alone = solve(stack[k])
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
        # the short member ends long before Beale's program switches to
        # Bland's rule, in the plain loop it finishes in alone
        rng = np.random.default_rng(17 + blocks)
        for _ in range(5):
            self.assert_members_alone([self.beale(blocks), self.degenerate(rng, 4)])

    def test_artificials_driven_out_as_alone(self):
        # three equality rows through x = 0, the third the sum of the first
        # two: phase 1 ends with artificial columns basic at zero, which the
        # drive-out pivots out, or zeroes the redundant row, in row order
        rng = np.random.default_rng(29)
        for _ in range(20):
            members = []
            for _ in range(5):
                A = rng.integers(-1, 2, (3, 6)).astype(float)
                A[2] = A[0] + A[1]
                G, h = rng.uniform(0.1, 2.0, (2, 6)), rng.uniform(0.5, 2.0, 2)
                members.append((rng.normal(size=6), G, h, A, np.zeros(3)))
            self.assert_members_alone(members)

    def test_failed_member_leaves_its_stack_as_each_member_alone(self):
        # FitzHugh-Nagumo facet 5: phase 1 pivots on an element of 3.45e-9
        # and then reports unbounded; the seven other facets are optimal
        fld, _, normals, _ = fitzhugh_nagumo()
        offsets = [2.4244868517041693, 3.7426406871192874, 3.3888888888888884, 4.089289614847649,
                   2.4524464230483383, 2.3284271247461916, 1.5000000000000002, 2.7343153804954032]
        rect = Rectangle(
            [float.fromhex("-0x1.39e9c3b681a7ap+1"), -1.5],
            [float.fromhex("0x1.365595d42e031p+1"), float.fromhex("0x1.b1c71c7b33ed9p+1")],
        )
        (stack,) = facet_programs(fld, rect, PolytopeTemplate(normals, offsets))
        outs = lpsolve.solve_stack(stack)
        for k, out in enumerate(outs):
            if k == 5:
                assert isinstance(out, NumericalFailure)
                with pytest.raises(NumericalFailure, match=str(out)):
                    solve(stack[k])
                continue
            alone = solve(stack[k])
            assert out.status == alone.status == OPTIMAL
            for field in ("x", "ineq_duals", "eq_duals"):
                assert getattr(out, field).tobytes() == getattr(alone, field).tobytes()


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
    back to phase 1 when the restart fails."""

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
        # the five kinds of test_highs, solved, then moved and restarted from
        # their end tableaux, alone and as one cost of a two-cost sweep: the
        # cold solve's status, the cold and HiGHS optimum within 1e-9 (1 + |v|),
        # and an infeasible move always ends infeasible through phase 1
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from test_highs import TIGHT, general_lps, highs

        share = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))
        coeff = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))

        @st.composite
        def cases(draw):
            kind, lp, reference = draw(general_lps(st))
            u = np.array(draw(st.lists(share, min_size=lp.m_ineq, max_size=lp.m_ineq)))
            v = np.array(draw(st.lists(share, min_size=lp.m_eq, max_size=lp.m_eq)))
            c2 = np.array(draw(st.lists(coeff, min_size=lp.n_vars, max_size=lp.n_vars)))
            return kind, lp, reference, u.reshape(-1), v.reshape(-1), c2

        seen = {"warm": 0, "infeasible": 0}

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            kind, lp, reference, u, v, c2 = case
            hypothesis.event(kind)
            restart, sweep = lpsolve.Restart(), lpsolve.Restart()
            costs = np.vstack([lp.c, c2])
            try:
                lpsolve.solve_stack(lpsolve.LPStack.of(lp), restart)
                lpsolve.solve_many(lp, costs, sweep)
                moved = self.moved(lp, u, v)
                cold = [solve(LPProblem(c, G=moved.G, h=moved.h, A=moved.A, d=moved.d))
                        for c in costs]
            except NumericalFailure:
                hypothesis.event("NumericalFailure")
                return
            ref_moved = self.moved(reference, u, v)
            one = lpsolve.LPStack.of(moved)
            for kept, warm in (
                (restart, lambda: lpsolve.solve_stack(one, restart, one)),
                (sweep, lambda: lpsolve.solve_many(moved, costs, sweep)),
            ):
                if kept.tabs is None:
                    continue
                outs = warm()
                for c, out, ref in zip(costs, outs, cold):
                    assert not isinstance(out, NumericalFailure), kind
                    assert out.status == ref.status, kind
                    if ref.status == INFEASIBLE:
                        assert not kept.warm and kept.tabs is None, kind
                        seen["infeasible"] += 1
                        continue
                    assert abs(out.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))
                    status, value, _ = highs(
                        LPProblem(c, G=ref_moved.G, h=ref_moved.h, A=ref_moved.A, d=ref_moved.d),
                        **TIGHT,
                    )
                    assert status == OPTIMAL, kind
                    assert abs(out.objective - value) <= 1e-9 * (1.0 + abs(value)), kind
                    seen["warm"] += kept.warm

        check()
        assert min(seen.values()) > 0, seen

    def test_first_solve_is_the_cold_solve(self):
        # keeping the end tableaux changes nothing in the solve that keeps them
        rng = np.random.default_rng(5)
        for _ in range(50):
            lp, costs = random_sweep(rng)
            restart = lpsolve.Restart()
            ours = outcome_or_failure(lambda: solve_many(lp, costs, restart))
            ref = outcome_or_failure(lambda: solve_many(lp, costs))
            if isinstance(ref, NumericalFailure):
                assert str(ours) == str(ref)
                continue
            for a, b in zip(ours, ref, strict=True):
                assert a.status == b.status
                if b.status == OPTIMAL:
                    assert a.x.tobytes() == b.x.tobytes()
            assert restart.warm is False
            assert (restart.tabs is None) == any(s.status != OPTIMAL for s in ref)

    def test_failed_restart_runs_cold(self, monkeypatch):
        # a restart whose dual loop fails leaves the stack to phase 1
        lp = LPProblem([1.0, 2.0], G=[[-1.0, -1.0], [1.0, 0.0]], h=[-1.0, 3.0])
        restart = lpsolve.Restart()
        lpsolve.solve_stack(lpsolve.LPStack.of(lp), restart)
        monkeypatch.setattr(
            lpsolve, "_dual_loops",
            lambda st, n_enter, members: dict.fromkeys(members, NumericalFailure("injected")),
        )
        moved = LPProblem(lp.c, G=lp.G, h=[-2.0, 3.0])
        one = lpsolve.LPStack.of(moved)
        (out,) = lpsolve.solve_stack(one, restart, one)
        assert not restart.warm and restart.tabs is not None
        assert out.x.tobytes() == solve(moved).x.tobytes()


def outcome_or_failure(fn):
    """``fn()``, or the NumericalFailure it raised."""
    try:
        return fn()
    except NumericalFailure as exc:
        return exc
