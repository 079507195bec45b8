import numpy as np
import pytest

from polyvar.oracle import NoFeasibleSample, NotMultiAffine, grid_min, vertex_min
from polyvar.polynomial import MultiPoly, Rectangle, evaluate
from polyvar.relaxation import ConstraintSet

from conftest import random_multi_affine, random_rectangle


class TestGridMin:
    def test_parabola(self):
        value, witness = grid_min(MultiPoly(1, {(2,): 1.0}), Rectangle([-1.0], [1.0]), steps_per_axis=201)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert witness == pytest.approx([0.0], abs=1e-12)

    def test_constrained_3d_sandwich(self):
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
        value, _ = grid_min(p, rect, cs, steps_per_axis=50)
        assert value >= -119.0 - 1e-9
        assert abs(value - (-119.0)) <= 2.0

    def test_quartic_true_minimum(self):
        p = MultiPoly(1, {(4,): 1.0, (3,): -3.0, (2,): -1.5, (1,): 10.0})
        value, witness = grid_min(p, Rectangle([-5.0], [5.0]), steps_per_axis=1001)
        assert abs(value - (-7.5)) <= 0.05
        assert abs(witness[0] - (-1.0)) <= 0.05

    def test_equality_projection(self):
        # minimize x + y on the line x = y inside the unit box: optimum 0 at origin
        p = MultiPoly(2, {(1, 0): 1.0, (0, 1): 1.0})
        cs = ConstraintSet(2, equalities=[(np.array([1.0, -1.0]), 0.0)])
        value, witness = grid_min(p, Rectangle([0.0, 0.0], [1.0, 1.0]), cs, steps_per_axis=11)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert witness == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_tiny_row_keeps_its_own_tolerance(self):
        # an absolute tolerance of 1e-9 (1 + max|b|) let the grid point 3.46
        # pass 1.54e-285 x <= 5.27e-285, where x is at most 3.4221
        cs = ConstraintSet(1, inequalities=[(np.array([1.54e-285]), 5.27e-285)])
        value, witness = grid_min(MultiPoly(1, {(1,): -1.0}), Rectangle([3.36], [3.46]), cs)
        assert 1.54e-285 * witness[0] <= 5.27e-285
        assert value == -witness[0] and 3.42 < witness[0] < 3.4221

    def test_no_feasible_sample(self):
        cs = ConstraintSet(1, inequalities=[(np.array([1.0]), -10.0)])
        with pytest.raises(NoFeasibleSample):
            grid_min(MultiPoly(1, {(1,): 1.0}), Rectangle([0.0], [1.0]), cs)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            grid_min(MultiPoly(1, {(1,): 1.0}), Rectangle([0.0], [1.0]), steps_per_axis=1)

    def test_refinement_monotone_on_nested_grids(self):
        # halving the step size keeps all old grid points, so the minimum
        # cannot deteriorate beyond roundoff
        rng = np.random.default_rng(211)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            terms = {
                tuple(int(e) for e in rng.integers(0, 4, size=n)): float(rng.uniform(-2, 2))
                for _ in range(5)
            }
            p = MultiPoly(n, terms)
            rect = random_rectangle(rng, n)
            coarse, _ = grid_min(p, rect, steps_per_axis=9)
            fine, _ = grid_min(p, rect, steps_per_axis=17)
            assert fine <= coarse + 1e-9

    def test_lexicographic_tie_break(self):
        # symmetric polynomial, two global minimizers on the grid
        p = MultiPoly(1, {(2,): 1.0})
        cs = ConstraintSet(1, inequalities=[(np.array([0.0]), 1.0)])
        value, witness = grid_min(p, Rectangle([-1.0], [1.0]), cs, steps_per_axis=2)
        assert value == pytest.approx(1.0)
        assert witness == pytest.approx([-1.0])


class TestVertexMin:
    def test_bilinear_tie(self):
        value, vertex = vertex_min(MultiPoly(2, {(1, 1): 1.0}), Rectangle([-1, -1], [1, 1]))
        assert value == pytest.approx(-1.0)
        assert vertex == pytest.approx([-1.0, 1.0])  # lexicographically smallest tie

    def test_linear_sum(self):
        value, vertex = vertex_min(
            MultiPoly(2, {(1, 0): 1.0, (0, 1): 1.0}), Rectangle([0, 0], [1, 1])
        )
        assert value == pytest.approx(0.0)
        assert vertex == pytest.approx([0.0, 0.0])

    def test_rejects_higher_degree(self):
        with pytest.raises(NotMultiAffine):
            vertex_min(MultiPoly(1, {(2,): 1.0}), Rectangle([0.0], [1.0]))

    def test_agrees_with_grid(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            p = random_multi_affine(rng, 3)
            rect = random_rectangle(rng, 3)
            v_vertex, _ = vertex_min(p, rect)
            v_grid, _ = grid_min(p, rect, steps_per_axis=41)
            assert v_vertex == pytest.approx(v_grid, abs=1e-6)

    def test_lemma_vertex_dominates_samples(self):
        rng = np.random.default_rng(227)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            p = random_multi_affine(rng, n)
            rect = random_rectangle(rng, n)
            value, _ = vertex_min(p, rect)
            pts = rng.uniform(rect.lower, rect.upper, size=(1000, n))
            for x in pts[:: max(1, len(pts) // 100)]:
                assert value <= evaluate(p, x) + 1e-9
