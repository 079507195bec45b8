import itertools

import numpy as np
import pytest

from polyvar.oracle import blossom_eval
from polyvar.polynomial import (
    BernsteinTensor,
    MultiPoly,
    Rectangle,
    bernstein_coefficients,
    evaluate,
    evaluate_many,
    facet_objective,
    to_unit_box,
)

from conftest import random_poly, random_rectangle


def cubic_mix() -> MultiPoly:
    # 3*x1 + 2*x2^3 + x1^2*x2^2
    return MultiPoly(2, {(1, 0): 3.0, (0, 3): 2.0, (2, 2): 1.0})


class TestMultiPoly:
    def test_degrees_computed(self):
        p = cubic_mix()
        assert p.degrees == (2, 3)

    def test_zero_coefficients_dropped(self):
        p = MultiPoly(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert p.terms == {(0, 1): 2.0}
        assert p.degrees == (0, 1)

    def test_zero_polynomial(self):
        p = MultiPoly.zero(3)
        assert p.is_zero()
        assert p.degrees == (0, 0, 0)
        assert evaluate(p, [1.0, 2.0, 3.0]) == 0.0

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): 1.0})

    def test_padding_keeps_terms(self):
        p = cubic_mix().pad_degrees((3, 3))
        assert p.degrees == (3, 3)
        assert evaluate(p, [1.0, 1.0]) == 6.0

    def test_padding_below_natural_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(2, 0): 1.0}, degrees=(1, 0))


class TestRectangle:
    def test_strict_bounds_required(self):
        with pytest.raises(ValueError):
            Rectangle([0.0, 0.0], [1.0, 0.0])

    def test_contains(self):
        r = Rectangle([0.0], [1.0])
        assert r.contains([0.5])
        assert not r.contains([1.5])


class TestEvaluate:
    def test_all_ones_sums_coefficients(self):
        assert evaluate(cubic_mix(), [1.0, 1.0]) == pytest.approx(6.0)

    def test_zero_polynomial(self):
        assert evaluate(MultiPoly.zero(2), [3.0, -4.0]) == 0.0

    def test_three_var_benchmark_point(self):
        # x1x2x3 + x1^2 - 2x1x2 - 3x1x3 + 5x2x3 - x3^2 + 5x2 + x3 at (3,0,8):
        # 9 - 72 - 64 + 8 = -119
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
        assert evaluate(p, [3.0, 0.0, 8.0]) == pytest.approx(-119.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(cubic_mix(), [1.0])

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 3, 3)
        pts = rng.uniform(-2, 2, size=(40, 3))
        many = evaluate_many(p, pts)
        for row, val in zip(pts, many):
            assert val == pytest.approx(evaluate(p, row), rel=1e-12, abs=1e-12)


class TestBlossomEval:
    def test_diagonal_known_polynomial(self):
        p = cubic_mix()
        for t in (0.0, 1.0, 2.0):
            q = blossom_eval(p, [t] * 5)
            assert q == pytest.approx(3 * t + 2 * t**3 + t**4, abs=1e-12)

    def test_hand_expanded_value(self):
        # (3/2)(z11 + z12) with the remaining blocks zeroed out
        assert blossom_eval(cubic_mix(), [1.0, 2.0, 0.0, 0.0, 0.0]) == pytest.approx(4.5)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            blossom_eval(cubic_mix(), [1.0, 2.0, 3.0])

    def test_symmetry_under_block_permutations(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 3)
            total = sum(p.degrees)
            z = rng.uniform(-2.0, 2.0, size=total)
            zp = z.copy()
            off = 0
            for d in p.degrees:
                zp[off : off + d] = rng.permutation(zp[off : off + d])
                off += d
            assert blossom_eval(p, zp) == pytest.approx(blossom_eval(p, z), rel=1e-11, abs=1e-11)

    def test_diagonal_property_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            x = rng.uniform(-2.0, 2.0, size=n)
            z = np.concatenate([np.full(d, x[k]) for k, d in enumerate(p.degrees)])
            expected = evaluate(p, x)
            assert blossom_eval(p, z) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_multi_affine_blossom_is_identity(self):
        rng = np.random.default_rng(13)
        p = MultiPoly(2, {(1, 1): 1.5, (1, 0): -2.0, (0, 0): 0.5})
        x = rng.uniform(-1, 1, size=2)
        assert blossom_eval(p, x) == pytest.approx(evaluate(p, x), abs=1e-12)


class TestToUnitBox:
    def test_identity_rectangle(self):
        p = MultiPoly(1, {(1,): 1.0})
        q = to_unit_box(p, Rectangle([0.0], [1.0]))
        assert q.terms == {(1,): 1.0}

    def test_affine_map_read_off(self):
        p = MultiPoly(1, {(1,): 1.0})
        q = to_unit_box(p, Rectangle([-5.0], [5.0]))
        assert q.terms == {(0,): -5.0, (1,): 10.0}

    def test_square_expansion(self):
        # (2 + 3y)^2 = 4 + 12y + 9y^2
        p = MultiPoly(1, {(2,): 1.0})
        q = to_unit_box(p, Rectangle([2.0], [5.0]))
        assert q.terms == {(0,): 4.0, (1,): 12.0, (2,): 9.0}

    def test_degrees_preserved_under_padding(self):
        p = MultiPoly(2, {(1, 0): 1.0}, degrees=(2, 1))
        q = to_unit_box(p, Rectangle([0.0, 0.0], [2.0, 2.0]))
        assert q.degrees == (2, 1)

    def test_substitution_agrees_pointwise(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 3)
            rect = random_rectangle(rng, n)
            q = to_unit_box(p, rect)
            y = rng.uniform(0.0, 1.0, size=n)
            x = rect.lower + rect.width * y
            assert evaluate(q, y) == pytest.approx(evaluate(p, x), rel=1e-10, abs=1e-10)


class TestBernsteinCoefficients:
    def test_constant(self):
        p = MultiPoly.constant(2, 3.5)
        bt = bernstein_coefficients(p, Rectangle([0.0, -1.0], [1.0, 4.0]))
        assert bt.values.shape == (1, 1)
        assert bt.value((0, 0)) == pytest.approx(3.5)

    def test_linear_unit_interval(self):
        p = MultiPoly(1, {(1,): 1.0})
        bt = bernstein_coefficients(p, Rectangle([0.0], [1.0]))
        assert bt.value((0,)) == pytest.approx(0.0)
        assert bt.value((1,)) == pytest.approx(1.0)

    def test_quartic_against_polar_form(self):
        # values frozen from the independent polar-form evaluation at class
        # representatives (l copies of 5, 4 - l copies of -5)
        p = MultiPoly(1, {(4,): 1.0, (3,): -3.0, (2,): -1.5, (1,): 10.0})
        rect = Rectangle([-5.0], [5.0])
        bt = bernstein_coefficients(p, rect)
        expected = [912.5, -837.5, 637.5, -412.5, 262.5]
        assert bt.values == pytest.approx(expected)
        for l in range(5):
            rep = [5.0] * l + [-5.0] * (4 - l)
            assert bt.value((l,)) == pytest.approx(blossom_eval(p, rep), rel=1e-12)

    def test_class_count(self):
        rng = np.random.default_rng(19)
        p = random_poly(rng, 3, 3)
        bt = bernstein_coefficients(p, random_rectangle(rng, 3))
        assert bt.values.size == np.prod([d + 1 for d in p.degrees])

    def test_matches_polar_form_at_class_representatives(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            bt = bernstein_coefficients(p, rect)
            for cls in itertools.product(*(range(d + 1) for d in p.degrees)):
                rep = np.concatenate(
                    [
                        np.concatenate([np.full(l, rect.upper[k]), np.full(d - l, rect.lower[k])])
                        for k, (l, d) in enumerate(zip(cls, p.degrees))
                    ]
                ) if sum(p.degrees) else np.zeros(0)
                oracle = blossom_eval(p, rep)
                assert bt.value(cls) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_reconstruction_at_random_points(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            bt = bernstein_coefficients(p, rect)
            pts = rng.uniform(rect.lower, rect.upper, size=(100, n))
            for x in pts:
                expected = evaluate(p, x)
                assert bt.evaluate(x) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_range_enclosure(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 3))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            bt = bernstein_coefficients(p, rect)
            axes = [np.linspace(rect.lower[k], rect.upper[k], 40) for k in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([m.ravel() for m in mesh])
            grid_min = evaluate_many(p, pts).min()
            assert grid_min >= bt.min() - 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BernsteinTensor(Rectangle([0.0], [1.0]), (2,), np.zeros(2))


class TestFacetObjective:
    def test_linear_field(self):
        f = [MultiPoly(2, {(1, 0): -1.0}), MultiPoly(2, {(0, 1): -1.0})]
        q = facet_objective(f, [1.0, 0.0])
        assert q.terms == {(1, 0): 1.0}
        assert q.degrees == (1, 1)

    def test_neuron_model_first_facet(self):
        # -f1 = -x1 + x1^3/3 + x2 - 7/8 with unified degrees (3, 1)
        f = [
            MultiPoly(2, {(1, 0): 1.0, (3, 0): -1.0 / 3.0, (0, 1): -1.0, (0, 0): 0.875}),
            MultiPoly(2, {(1, 0): 0.08, (0, 1): -0.064, (0, 0): 0.056}),
        ]
        q = facet_objective(f, [1.0, 0.0])
        assert q.degrees == (3, 1)
        assert q.terms == pytest.approx(
            {(1, 0): -1.0, (3, 0): 1.0 / 3.0, (0, 1): 1.0, (0, 0): -0.875}
        )

    def test_plankton_model_third_axis(self):
        f = [
            MultiPoly(3, {(0, 0, 0): 1.0, (1, 0, 0): -1.0, (1, 1, 0): -0.25}),
            MultiPoly(3, {(0, 1, 1): 2.0, (0, 1, 0): -1.0}),
            MultiPoly(3, {(1, 0, 0): 0.25, (0, 0, 2): -2.0}),
        ]
        q = facet_objective(f, [0.0, 0.0, 1.0])
        assert q.degrees == (1, 1, 2)
        assert q.terms == pytest.approx({(1, 0, 0): -0.25, (0, 0, 2): 2.0})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            facet_objective([MultiPoly(2, {(1, 0): 1.0})], [1.0, 0.0])
