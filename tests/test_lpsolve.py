import itertools

import numpy as np
import pytest

from polyvar.lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    kkt_residuals,
    solve,
)


def brute_force_optimum(lp: LPProblem):
    """Vertex-enumeration oracle: intersect every n-subset of constraint
    hyperplanes (including bound faces), filter feasibility, extremize."""
    n = lp.n_vars
    rows = [(lp.G[i], lp.h[i]) for i in range(lp.m_ineq)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.hi[j]):
            rows.append((e, lp.hi[j]))
        if np.isfinite(lp.lo[j]):
            rows.append((-e, -lp.lo[j]))
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
        if np.any(lp.lo - x > 1e-7) or np.any(x - lp.hi > 1e-7):
            continue
        val = float(lp.c @ x)
        if best is None:
            best = val
        elif lp.sense == "min":
            best = min(best, val)
        else:
            best = max(best, val)
    return best


def random_boxed_lp(rng):
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
    return LPProblem(
        "min" if rng.integers(0, 2) else "max",
        rng.normal(size=n),
        G=G,
        h=h,
        A=A if m_eq else None,
        d=d if m_eq else None,
        lo=lo,
        hi=hi,
    )


class TestBasics:
    def test_single_active_constraint_with_duals(self):
        lp = LPProblem("max", [1.0], G=[[1.0], [1.0]], h=[1.0, 2.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.x == pytest.approx([1.0])
        assert sol.objective == pytest.approx(1.0)
        assert sol.ineq_duals == pytest.approx([1.0, 0.0])

    def test_unbounded(self):
        lp = LPProblem("max", [1.0], lo=[0.0])
        assert solve(lp).status == UNBOUNDED

    def test_infeasible(self):
        lp = LPProblem("min", [0.0], G=[[1.0]], h=[-1.0], lo=[0.0])
        assert solve(lp).status == INFEASIBLE

    def test_crossing_bounds_infeasible(self):
        lp = LPProblem("min", [1.0], lo=[2.0], hi=[1.0])
        assert solve(lp).status == INFEASIBLE

    def test_equality_with_free_variable(self):
        lp = LPProblem(
            "min",
            [1.0, 1.0],
            A=[[1.0, 1.0]],
            d=[2.0],
            lo=[-1.0, -np.inf],
            hi=[5.0, np.inf],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2.0)
        assert sol.eq_duals == pytest.approx([-1.0])

    def test_degenerate_redundant_rows(self):
        # same halfspace stacked five times plus its boundary as equality
        lp = LPProblem(
            "max",
            [1.0, 0.0],
            G=[[1.0, 0.0]] * 5,
            h=[1.0] * 5,
            A=[[1.0, 0.0]],
            d=[1.0],
            lo=[-5.0, -5.0],
            hi=[5.0, 5.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_cycling_prone_degenerate_lp(self):
        # classic example that cycles under naive most-negative pricing from
        # the all-slack basis; the degenerate-pivot fallback must terminate it
        lp = LPProblem(
            "min",
            [-0.75, 150.0, -0.02, 6.0],
            G=[
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            h=[0.0, 0.0, 1.0],
            lo=[0.0, 0.0, 0.0, 0.0],
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LPProblem("min", [np.nan])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LPProblem("min", [1.0], G=[[1.0, 2.0]], h=[1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        lp = random_boxed_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


class TestUpperBoundOnly:
    def test_single_variable(self):
        assert solve(LPProblem("max", [1.0], hi=[3.0])).objective == pytest.approx(3.0)
        assert solve(LPProblem("min", [1.0], hi=[3.0])).status == UNBOUNDED

    def test_random_battery_against_vertex_oracle(self):
        # the same boxed programs with every lower bound moved into G, so each
        # variable keeps only its upper bound
        rng = np.random.default_rng(43)
        for _ in range(100):
            boxed = random_boxed_lp(rng)
            n = boxed.n_vars
            lp = LPProblem(
                boxed.sense,
                boxed.c,
                G=np.vstack([boxed.G, -np.eye(n)]),
                h=np.concatenate([boxed.h, -boxed.lo]),
                A=boxed.A,
                d=boxed.d,
                hi=boxed.hi,
            )
            sol = solve(lp)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(brute_force_optimum(lp), abs=1e-6)
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
            assert res["slackness"] <= 1e-6

    def test_weak_duality_sign(self):
        # for min problems the dual objective never exceeds the primal
        rng = np.random.default_rng(99)
        for _ in range(50):
            lp = random_boxed_lp(rng)
            sol = solve(lp)
            lam, mu = sol.ineq_duals, sol.eq_duals
            assert np.all(lam >= -1e-12)
            c = lp.c if lp.sense == "min" else -lp.c
            r = c + lp.G.T @ lam + lp.A.T @ mu
            dual_obj = (
                -lam @ lp.h
                - mu @ lp.d
                + np.where(np.isfinite(lp.lo), lp.lo, 0.0) @ np.maximum(r, 0.0)
                - np.where(np.isfinite(lp.hi), lp.hi, 0.0) @ np.maximum(-r, 0.0)
            )
            primal_obj = lp.c @ sol.x if lp.sense == "min" else -(lp.c @ sol.x)
            assert dual_obj <= primal_obj + 1e-7 * (1 + abs(primal_obj))
