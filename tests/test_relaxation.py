import numpy as np
import pytest

import polyvar.relaxation
from polyvar.cli import main
from polyvar.files import dump_json
from polyvar.lpsolve import solve, solve_dual_stack
from polyvar.oracle import (
    SizeGuardError,
    build_full_lp,
    build_primal_lp,
    enumerate_classes,
    grid_min,
    lifted_dot,
    region_is_feasible,
    sensitivity_bound,
    vertex_min,
)
from polyvar.polynomial import MultiPoly, Rectangle, bernstein_coefficients, evaluate
from polyvar.relaxation import (
    BoundResult,
    ConstraintSet,
    DegreeZeroConflict,
    InfeasiblePolytope,
    bounding_program,
    build_reduced_lp,
    certify,
    lower_bound,
    pad_for_constraints,
)

from conftest import (
    random_feasible_constraints,
    random_multi_affine,
    random_poly,
    random_rectangle,
)


def quartic_problem():
    p = MultiPoly(1, {(4,): 1.0, (3,): -3.0, (2,): -1.5, (1,): 10.0})
    return p, Rectangle([-5.0], [5.0]), ConstraintSet(1)


def constrained_3d_problem():
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
            (np.array([-1.0, -2.0, -1.0]), -1.0),  # x1 + 2x2 + x3 >= 1, negated
        ],
    )
    return p, rect, cs


class TestEnumerateClasses:
    def test_counts(self):
        assert len(enumerate_classes((2, 1, 2))) == 18
        assert len(enumerate_classes((4,))) == 5
        assert enumerate_classes((0, 0)) == [(0, 0)]

    def test_lexicographic_order(self):
        classes = enumerate_classes((1, 2))
        assert classes == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


class TestLiftedDot:
    def test_unit_case(self):
        assert lifted_dot([1.0], Rectangle([0.0], [1.0]), (1,), (1,)) == pytest.approx(1.0)

    def test_interior_class(self):
        assert lifted_dot([1.0], Rectangle([-5.0], [5.0]), (4,), (3,)) == pytest.approx(2.5)

    def test_all_lower_vertex(self):
        rect = Rectangle([2.0, 0.0, 4.0], [5.0, 10.0, 8.0])
        assert lifted_dot([4.0, 3.0, 1.0], rect, (2, 1, 2), (0, 0, 0)) == pytest.approx(12.0)

    def test_degree_zero_conflict(self):
        with pytest.raises(DegreeZeroConflict):
            lifted_dot([1.0, 1.0], Rectangle([0, 0], [1, 1]), (1, 0), (1, 0))

    def test_degree_zero_with_zero_coefficient_ok(self):
        v = lifted_dot([1.0, 0.0], Rectangle([0, 0], [1, 1]), (1, 0), (1, 0))
        assert v == pytest.approx(1.0)


class TestBuildReducedLp:
    """The paper's reduced LP in primal form (`oracle.build_primal_lp`)."""

    def test_quartic_size(self):
        lp = build_primal_lp(*quartic_problem())
        assert lp.n_vars == 2  # t as a free column pair
        assert lp.m_ineq == 5

    def test_constrained_3d_size(self):
        p, rect, cs = constrained_3d_problem()
        lp = build_primal_lp(p, rect, cs)
        assert lp.n_vars == 2 * 3  # t and two multipliers, each a free column pair
        assert lp.m_ineq == 18 + 2

    def test_multi_affine_unconstrained_reduces_to_vertex_min(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_multi_affine(rng, n)
            rect = random_rectangle(rng, n)
            lp = build_primal_lp(p, rect, ConstraintSet(n))
            sol = solve(lp)
            ref, _ = vertex_min(p, rect)
            assert -sol.objective == pytest.approx(ref, abs=1e-9)


class TestReducedLpAssembly:
    """The vectorized primal-form program (`oracle.build_primal_lp`) against
    the scalar per-class definition."""

    @staticmethod
    def scalar_rows(p, rect, cs):
        values = bernstein_coefficients(p, rect)
        rows, rhs = [], []
        for cls in enumerate_classes(p.degrees):
            row = [1.0]
            row += [-(lifted_dot(a, rect, p.degrees, cls) - b) for a, b in zip(cs.a, cs.b)]
            row += [-(lifted_dot(c, rect, p.degrees, cls) - d) for c, d in zip(cs.c, cs.d)]
            rows.append(row)
            rhs.append(values[cls])
        for i in range(cs.m_ineq):
            row = np.zeros(1 + cs.m_ineq + cs.m_eq)
            row[1 + i] = -1.0
            rows.append(row)
            rhs.append(0.0)
        return np.array(rows, dtype=float).reshape(len(rhs), -1), np.array(rhs)

    def test_matches_scalar_loop_row_for_row(self):
        # the assembly repeats the scalar arithmetic, so rows must be equal
        rng = np.random.default_rng(151)
        kinds = set()
        for _ in range(40):
            n = int(rng.integers(1, 5))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            # constraints on a random subset of axes, so some stay at degree 0
            # and others are padded from 0 to 1
            mask = (rng.random(n) < 0.6).astype(float)
            ineqs = [(rng.normal(size=n) * mask, float(rng.normal()))
                     for _ in range(int(rng.integers(0, 4)))]
            eqs = [(rng.normal(size=n) * mask, float(rng.normal()))
                   for _ in range(int(rng.integers(0, 3)))]
            cs = ConstraintSet(n, inequalities=ineqs, equalities=eqs)
            padded = pad_for_constraints(p, cs)
            kinds |= {"zero" for d in padded.degrees if d == 0}
            kinds |= {"padded" for d, e in zip(p.degrees, padded.degrees) if d != e}
            lp = build_primal_lp(padded, rect, cs)
            rows, rhs = self.scalar_rows(padded, rect, cs)
            # max t over free (t, lam, mu), posed as min -t over column pairs
            assert lp.c.tolist() == [-1.0, 1.0] + [0.0] * (2 * (cs.m_ineq + cs.m_eq))
            assert lp.m_eq == 0
            np.testing.assert_array_equal(lp.G[:, 0::2], rows)
            np.testing.assert_array_equal(lp.G[:, 1::2], -rows)
            np.testing.assert_array_equal(lp.h, rhs)
        assert kinds == {"zero", "padded"}

    def test_degree_zero_conflict(self):
        p = MultiPoly(2, {(2, 0): 1.0})
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        for cs in (
            ConstraintSet(2, inequalities=[(np.array([1.0, 1.0]), 1.0)]),
            ConstraintSet(2, equalities=[(np.array([0.0, 2.0]), 1.0)]),
        ):
            with pytest.raises(DegreeZeroConflict):
                build_primal_lp(p, rect, cs)


class TestReducedLpDualForm:
    """The dual form: one column per vertex class, 1 + m rows."""

    def test_quartic_shape(self):
        lp = build_reduced_lp(*quartic_problem())
        assert lp.n_vars == 5
        assert lp.m_ineq == 0 and lp.m_eq == 1

    def test_constrained_3d_shape(self):
        p, rect, cs = constrained_3d_problem()
        lp = build_reduced_lp(p, rect, cs)
        assert lp.n_vars == 18
        assert lp.m_ineq == 2 and lp.m_eq == 1

    def test_negated_transpose_of_primal_form(self):
        rng = np.random.default_rng(163)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            mask = (rng.random(n) < 0.6).astype(float)
            ineqs = [(rng.normal(size=n) * mask, float(rng.normal()))
                     for _ in range(int(rng.integers(0, 4)))]
            eqs = [(rng.normal(size=n) * mask, float(rng.normal()))
                   for _ in range(int(rng.integers(0, 3)))]
            cs = ConstraintSet(n, inequalities=ineqs, equalities=eqs)
            padded = pad_for_constraints(p, cs)
            dual = build_reduced_lp(padded, rect, cs)
            primal = build_primal_lp(padded, rect, cs)
            n_cls = dual.n_vars
            m_i = cs.m_ineq
            rows = primal.G[:, 0::2]
            np.testing.assert_array_equal(dual.G, -rows[:n_cls, 1 : 1 + m_i].T)
            np.testing.assert_array_equal(dual.A[1:], -rows[:n_cls, 1 + m_i :].T)
            np.testing.assert_array_equal(dual.A[0], np.ones(n_cls))
            np.testing.assert_array_equal(
                dual.c, bernstein_coefficients(padded, rect).reshape(-1)
            )
            np.testing.assert_array_equal(dual.c, primal.h[:n_cls])
            assert dual.h.tolist() == [0.0] * m_i
            assert dual.d.tolist() == [1.0] + [0.0] * cs.m_eq

    def test_degree_zero_conflict(self):
        p = MultiPoly(2, {(2, 0): 1.0})
        cs = ConstraintSet(2, inequalities=[(np.array([1.0, 1.0]), 1.0)])
        with pytest.raises(DegreeZeroConflict):
            build_reduced_lp(p, UNIT_SQUARE, cs)


class TestBuildFullLp:
    def test_quartic_shape(self):
        p, rect, cs = quartic_problem()
        lp = build_full_lp(p, rect, cs)
        # t plus the three adjacent-difference multipliers, each a free column pair
        assert lp.n_vars == 2 * (1 + 3)
        assert lp.m_ineq == 16  # 2**4 lifted vertices

    def test_size_guard(self):
        p = MultiPoly(2, {(15, 11): 1.0})
        with pytest.raises(SizeGuardError):
            build_full_lp(p, Rectangle([0, 0], [1, 1]), ConstraintSet(2))

    def test_degree_one_everywhere_matches_reduced(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_multi_affine(rng, n)
            rect = random_rectangle(rng, n)
            cs = random_feasible_constraints(rng, rect, 2, 0)
            p2 = pad_for_constraints(p, cs)
            full = solve(build_full_lp(p2, rect, cs))
            red = solve(build_reduced_lp(p2, rect, cs))
            assert -full.objective == pytest.approx(red.objective, abs=1e-9)

    def test_random_equivalence_with_reduced(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            cs = random_feasible_constraints(
                rng, rect, int(rng.integers(0, 4)), int(rng.integers(0, 2))
            )
            p2 = pad_for_constraints(p, cs)
            full = solve(build_full_lp(p2, rect, cs))
            red = solve(build_reduced_lp(p2, rect, cs))
            assert -full.objective == pytest.approx(red.objective, abs=1e-7)


class TestLowerBound:
    def test_constrained_3d_benchmark(self):
        res = lower_bound(*constrained_3d_problem())
        assert res.d_star == pytest.approx(-120.0, abs=1e-6)

    def test_quartic_benchmark(self):
        res = lower_bound(*quartic_problem())
        assert res.d_star == pytest.approx(-837.5, abs=1e-6)
        assert res.lam.size == 0 and res.mu.size == 0

    def test_constant_polynomial(self):
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        cs = ConstraintSet(2, inequalities=[(np.array([1.0, 1.0]), 1.5)])
        res = lower_bound(MultiPoly(2, {(0, 0): 4.25}), rect, cs)
        assert res.d_star == pytest.approx(4.25, abs=1e-9)
        assert res.lam == pytest.approx([0.0])

    def test_equality_constrained_parabola(self):
        # p = x^2 on [-1,1] restricted to x = 1/2; the optimal multiplier
        # balances the two nearest class rows at exactly 0 (hand-derived),
        # below the true minimum 1/4
        p = MultiPoly(1, {(2,): 1.0})
        rect = Rectangle([-1.0], [1.0])
        cs = ConstraintSet(1, equalities=[(np.array([1.0]), 0.5)])
        res = lower_bound(p, rect, cs)
        assert res.d_star == pytest.approx(0.0, abs=1e-9)
        assert res.d_star <= 0.25

    def test_infeasible_region_raises(self):
        rect = Rectangle([0.0], [1.0])
        cs = ConstraintSet(1, inequalities=[(np.array([1.0]), -1.0)])
        with pytest.raises(InfeasiblePolytope):
            lower_bound(MultiPoly(1, {(1,): 1.0}), rect, cs)

    def test_unconstrained_bound_is_min_bernstein_coefficient(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            res = lower_bound(p, rect, ConstraintSet(n))
            values = bernstein_coefficients(p, rect)
            assert res.d_star == pytest.approx(values.min(), abs=1e-9)

    def test_soundness_small_battery(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            cs = random_feasible_constraints(
                rng, rect, int(rng.integers(0, 5)), int(rng.integers(0, 2))
            )
            res = lower_bound(p, rect, cs)
            sampled, _ = grid_min(p, rect, cs, steps_per_axis=21)
            assert res.d_star <= sampled + 1e-7

    def test_multi_affine_exactness(self):
        rng = np.random.default_rng(127)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = random_multi_affine(rng, n)
            rect = random_rectangle(rng, n)
            res = lower_bound(p, rect, ConstraintSet(n))
            ref, _ = vertex_min(p, rect)
            assert res.d_star == pytest.approx(ref, abs=1e-9)


UNIT_SQUARE = Rectangle([0.0, 0.0], [1.0, 1.0])
SADDLE = MultiPoly(2, {(1, 1): 1.0, (2, 0): -1.0, (0, 1): 0.5})


class TestEmptyRegion:
    """Emptiness is read off the bounding program itself: it is infeasible
    exactly when no point of the rectangle satisfies the constraints."""

    @pytest.mark.parametrize(
        "cs",
        [
            ConstraintSet(2, inequalities=[(np.array([1.0, 1.0]), -1e-9)]),
            ConstraintSet(2, inequalities=[(np.array([1e6, 0.0]), -1e-3)]),
            ConstraintSet(2, equalities=[(np.array([1.0, 1.0]), 2.0 + 1e-9)]),
        ],
        ids=["x+y<=-1e-9", "1e6x<=-1e-3", "x+y=2+1e-9"],
    )
    def test_region_just_outside_the_box_raises(self, cs):
        with pytest.raises(InfeasiblePolytope):
            lower_bound(SADDLE, UNIT_SQUARE, cs)

    @pytest.mark.parametrize(
        "cs, point",
        [
            (ConstraintSet(2, inequalities=[(np.array([1.0, 1.0]), 0.0)]), (0.0, 0.0)),
            (ConstraintSet(2, equalities=[(np.array([1.0, 1.0]), 2.0)]), (1.0, 1.0)),
        ],
        ids=["x+y<=0", "x+y=2"],
    )
    def test_single_point_region_is_bounded(self, cs, point):
        res = lower_bound(SADDLE, UNIT_SQUARE, cs)
        assert res.d_star <= evaluate(SADDLE, point) + 1e-9

    def test_cli_exit_2(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1, 1], "coefficient": 1.0}],
            "rectangle": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "inequalities": [{"a": [1.0, 1.0], "b": -1e-9}],
        }
        path = tmp_path / "outside.json"
        path.write_text(dump_json(payload))
        assert main(["bound", str(path)]) == 2
        assert "infeasible constraint region" in capsys.readouterr().err

    def test_agrees_with_phase_one_reference(self):
        # a pair of opposite halfspaces either overlaps in a band or leaves a
        # gap of at least 1e-4 of the box's extent along it; the other rows
        # are redundant
        rng = np.random.default_rng(157)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(1, 4))
            rect = random_rectangle(rng, n)
            p = random_poly(rng, n, 2)
            a = rng.normal(size=n)
            lo = float(np.minimum(a * rect.lower, a * rect.upper).sum())
            hi = float(np.maximum(a * rect.lower, a * rect.upper).sum())
            cut = lo + rng.uniform(0.2, 0.8) * (hi - lo)
            gap = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-4, 0) * (hi - lo)
            ineqs = [(a, cut), (-a, -(cut + gap))]
            for _ in range(int(rng.integers(0, 3))):
                g = rng.normal(size=n)
                ineqs.append((g, float(np.maximum(g * rect.lower, g * rect.upper).sum()) + 0.1))
            cs = ConstraintSet(n, inequalities=ineqs)
            expected = region_is_feasible(rect, cs)
            assert expected == (gap < 0)
            outcomes.add(expected)
            if expected:
                lower_bound(p, rect, cs)
            else:
                with pytest.raises(InfeasiblePolytope):
                    lower_bound(p, rect, cs)
        assert outcomes == {True, False}


class TestLpCount:
    def test_lower_bound_solves_one_lp(self, monkeypatch):
        calls = []

        def counting_solve(stack, *args):
            calls.extend(stack)
            return solve_dual_stack(stack, *args)

        monkeypatch.setattr(polyvar.relaxation, "solve_dual_stack", counting_solve)
        lower_bound(*constrained_3d_problem())
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(InfeasiblePolytope):
            lower_bound(SADDLE, UNIT_SQUARE, ConstraintSet(2, inequalities=[(np.ones(2), -1.0)]))
        assert len(calls) == 1


PARABOLA = MultiPoly(1, {(2,): 1.0})
SYMMETRIC = Rectangle([-1.0], [1.0])


def x_at_most(b):
    return ConstraintSet(1, inequalities=[(np.array([1.0]), b)])


class TestMultiplierChoice:
    """Active rows carry a multiplier even where the basis is degenerate."""

    def test_active_row_gets_its_multiplier(self):
        # x^2 on [-1, 1] with x <= 0: the class rows are 1 - lam, -1 and
        # 1 + lam, so every lam in [0, 2] certifies -1 and 2 is the end that
        # tells the step how the bound moves with the offset
        res = lower_bound(PARABOLA, SYMMETRIC, x_at_most(0.0))
        assert res.d_star == -1.0
        assert res.lam.tolist() == [2.0]

    def test_sensitivity_predicts_the_moved_offset(self):
        res = lower_bound(PARABOLA, SYMMETRIC, x_at_most(0.0))
        moved = lower_bound(PARABOLA, SYMMETRIC, x_at_most(-0.5))
        assert sensitivity_bound(res, [-0.5]) == moved.d_star == 0.0

    def test_multipliers_nonnegative_and_certify_d_star(self):
        rng = np.random.default_rng(167)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            cs = random_feasible_constraints(
                rng, rect, int(rng.integers(1, 5)), int(rng.integers(0, 2))
            )
            res = lower_bound(p, rect, cs)
            assert np.all(res.lam >= 0.0)
            assert not np.any(np.signbit(res.lam))
            padded = pad_for_constraints(p, cs)
            lp = build_reduced_lp(padded, rect, cs)
            certified = lp.c + lp.G.T @ res.lam + lp.A[1:].T @ res.mu
            assert res.d_star == float(certified.min())
            assert res.d_star == pytest.approx(solve(lp).objective, abs=1e-9)


class TestKnownAnswer:
    """A least Bernstein class that satisfies every inequality row strictly,
    with no equality row, answers the program without an LP."""

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []

        def counting_solve(stack, *args):
            calls.extend(stack)
            return solve_dual_stack(stack, *args)

        monkeypatch.setattr(polyvar.relaxation, "solve_dual_stack", counting_solve)
        return calls

    def test_strictly_feasible_least_class_makes_no_solve(self, monkeypatch):
        # x^2 on [-1, 1]: B = (1, -1, 1), least at the class point 0
        calls = self.counted(monkeypatch)
        for cs in (x_at_most(0.5), ConstraintSet(1)):
            res = lower_bound(PARABOLA, SYMMETRIC, cs)
            assert res.d_star == -1.0
            assert res.lam.tolist() == [0.0] * cs.m_ineq and res.mu.size == 0
            assert not np.signbit(res.lam).any()
        assert calls == []

    def test_boundary_or_equality_still_solved(self, monkeypatch):
        calls = self.counted(monkeypatch)
        # the least class on the row x <= 0, and an equality row
        lower_bound(PARABOLA, SYMMETRIC, x_at_most(0.0))
        lower_bound(PARABOLA, SYMMETRIC, ConstraintSet(1, equalities=[(np.array([1.0]), 0.0)]))
        assert len(calls) == 2

    def test_negative_zero_least_coefficient_reads_zero(self):
        # as in the certificate sum of a solved program, which adds +0.0
        res = certify(bounding_program(np.array([-0.0, 1.0]), np.zeros((2, 0)), np.zeros((2, 0))))
        assert res.d_star == 0.0 and not np.signbit(res.d_star)


class TestSensitivityBound:
    def test_zero_perturbation_returns_d_star(self):
        res = lower_bound(*constrained_3d_problem())
        assert sensitivity_bound(res, [0.0, 0.0]) == pytest.approx(res.d_star)

    def test_perturbed_resolve_dominates(self):
        p, rect, _ = constrained_3d_problem()
        res = lower_bound(*constrained_3d_problem())
        rng = np.random.default_rng(131)
        for _ in range(20):
            alpha = rng.uniform(-1.0, 1.0, size=2)
            cs = ConstraintSet(
                3,
                inequalities=[
                    (np.array([4.0, 3.0, 1.0]), 20.0 + alpha[0]),
                    (np.array([-1.0, -2.0, -1.0]), -1.0 + alpha[1]),
                ],
            )
            resolved = lower_bound(p, rect, cs)
            assert sensitivity_bound(res, alpha) <= resolved.d_star + 1e-7

    def test_inactive_rows_give_exact_value(self):
        res = BoundResult(d_star=-2.0, lam=np.array([0.0, 3.0]), mu=np.zeros(0))
        assert sensitivity_bound(res, [5.0, 0.0]) == pytest.approx(-2.0)

    def test_length_validation(self):
        res = lower_bound(*quartic_problem())
        with pytest.raises(ValueError):
            sensitivity_bound(res, [1.0])

    def test_beta_required_with_equalities(self):
        p = MultiPoly(1, {(2,): 1.0})
        rect = Rectangle([-1.0], [1.0])
        cs = ConstraintSet(1, equalities=[(np.array([1.0]), 0.5)])
        res = lower_bound(p, rect, cs)
        with pytest.raises(ValueError):
            sensitivity_bound(res, [])
        shifted = sensitivity_bound(res, [], beta=[0.1])
        resolved = lower_bound(p, rect, ConstraintSet(1, equalities=[(np.array([1.0]), 0.6)]))
        assert shifted <= resolved.d_star + 1e-7


class TestConcurrency:
    def test_parallel_bounds_match_sequential(self):
        # all inputs are immutable and solves share no state, so threaded
        # evaluation must reproduce the sequential results exactly
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(137)
        jobs = []
        for _ in range(12):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            cs = random_feasible_constraints(rng, rect, 2, 0)
            jobs.append((p, rect, cs))
        sequential = [lower_bound(*job).d_star for job in jobs]
        with ThreadPoolExecutor(max_workers=6) as pool:
            threaded = list(pool.map(lambda job: lower_bound(*job).d_star, jobs))
        assert threaded == sequential


class TestDegreePadding:
    def test_pads_constrained_variables_only(self):
        p = MultiPoly(3, {(2, 0, 0): 1.0})
        cs = ConstraintSet(3, inequalities=[(np.array([0.0, 1.0, 0.0]), 1.0)])
        padded = pad_for_constraints(p, cs)
        assert padded.degrees == (2, 1, 0)

    def test_bound_with_variable_missing_from_objective(self):
        # objective ignores x2 entirely; the constraint still must lift
        p = MultiPoly(2, {(2, 0): 1.0})
        rect = Rectangle([-1.0, -1.0], [1.0, 1.0])
        cs = ConstraintSet(2, inequalities=[(np.array([0.0, 1.0]), 0.5)])
        res = lower_bound(p, rect, cs)
        assert res.d_star <= 0.0 + 1e-9
