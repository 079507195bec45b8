import itertools
import math

import numpy as np
import pytest

from polyvar.invariance import PolytopeTemplate, VectorField, facet_programs
from polyvar.oracle import bernstein_evaluate, blossom_eval, to_unit_box
from polyvar.polynomial import (
    LIFT_MAX_CLASSES,
    LIFT_MAX_DEGREE,
    MultiPoly,
    Rectangle,
    bernstein_coefficients,
    check_lift,
    evaluate,
    evaluate_many,
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
        p = MultiPoly(3, {})
        assert not p.terms
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


class TestTermArrays:
    """The stored form: distinct exponent rows in first-appearance order,
    nonzero finite coefficients."""

    def test_equal_rows_summed_in_row_order(self):
        # 1e16 + 1.0 rounds back to 1e16, so the order of the sum shows
        rows = [[2, 0], [0, 1], [2, 0], [2, 0]]
        ahead = MultiPoly.from_arrays(2, rows, [1e16, 3.0, -1e16, 1.0])
        behind = MultiPoly.from_arrays(2, rows, [1.0, 3.0, 1e16, -1e16])
        assert ahead.terms == {(2, 0): 1.0, (0, 1): 3.0}
        assert list(ahead.terms) == [(2, 0), (0, 1)]
        assert behind.terms == {(0, 1): 3.0}

    def test_zero_sum_lowers_the_degree(self):
        p = MultiPoly.from_arrays(2, [[3, 0], [1, 2], [3, 0]], [1.5, 1.0, -1.5])
        assert p.terms == {(1, 2): 1.0}
        assert p.degrees == (1, 2)

    def test_dict_constructor_gives_the_same_arrays(self):
        terms = {(1, 0): 3.0, (0, 3): 2.0, (2, 2): 1.0, (4, 4): 0.0}
        p = MultiPoly(2, terms)
        q = MultiPoly.from_arrays(2, list(terms), list(terms.values()))
        for name in ("exponents", "coefficients"):
            assert getattr(p, name).tobytes() == getattr(q, name).tobytes()
        assert p.exponents.dtype == np.int64 and p.exponents.shape == (3, 2)
        assert p.degrees == q.degrees == (2, 3)

    def test_arrays_are_read_only(self):
        p = cubic_mix()
        for arr in (p.exponents, p.coefficients, p.pad_degrees((4, 4)).coefficients):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_non_finite_sum_refused(self):
        with pytest.raises(ValueError, match=r"coefficient of \(1,\) must be finite, got inf"):
            MultiPoly.from_arrays(1, [[1], [1]], [1e308, 1e308])

    def test_empty(self):
        p = MultiPoly.from_arrays(3, np.zeros((0, 3)), [])
        assert p.terms == {} and p.degrees == (0, 0, 0)


class TestRectangle:
    def test_strict_bounds_required(self):
        with pytest.raises(ValueError):
            Rectangle([0.0, 0.0], [1.0, 0.0])


class TestEvaluate:
    def test_all_ones_sums_coefficients(self):
        assert evaluate(cubic_mix(), [1.0, 1.0]) == pytest.approx(6.0)

    def test_zero_polynomial(self):
        assert evaluate(MultiPoly(2, {}), [3.0, -4.0]) == 0.0

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


class TestCheckLift:
    # 10 classes on each of 5 axes make exactly LIFT_MAX_CLASSES = 10**5
    def test_caps_are_inclusive(self):
        assert LIFT_MAX_CLASSES == 10**5
        check_lift((LIFT_MAX_DEGREE,), "p")
        check_lift((9,) * 5, "p")

    def test_degree_above_the_cap(self):
        with pytest.raises(ValueError, match=rf"^p: lift degree {LIFT_MAX_DEGREE + 1} on axis 1 "):
            check_lift((0, LIFT_MAX_DEGREE + 1), "p")

    def test_class_count_above_the_cap(self):
        with pytest.raises(ValueError, match=r"^f: lift degrees \(9, 9, 9, 9, 10\) give 110000 "):
            check_lift((9, 9, 9, 9, 10), "f")


class TestBernsteinCoefficients:
    @pytest.mark.parametrize(
        "terms, lower",
        [({(30,): 1.0}, 1e12), ({(2,): 1e300}, 1e5)],
        ids=["power-overflow", "coefficient-overflow"],
    )
    def test_leaving_the_float_range_raises_value_error(self, terms, lower):
        # lower**30 overflows in the shift matrix; 1e300 * lower**2 only in
        # the coefficients
        rect = Rectangle([lower], [lower + 1.0])
        with pytest.raises(ValueError, match=r"^f: Bernstein coefficients over the rectangle "):
            bernstein_coefficients(MultiPoly(1, terms), rect, "f")

    def test_constant(self):
        p = MultiPoly(2, {(0, 0): 3.5})
        values = bernstein_coefficients(p, Rectangle([0.0, -1.0], [1.0, 4.0]))
        assert values.shape == (1, 1)
        assert values[0, 0] == pytest.approx(3.5)

    def test_linear_unit_interval(self):
        p = MultiPoly(1, {(1,): 1.0})
        values = bernstein_coefficients(p, Rectangle([0.0], [1.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(1.0)

    def test_quartic_against_polar_form(self):
        # values frozen from the independent polar-form evaluation at class
        # representatives (l copies of 5, 4 - l copies of -5)
        p = MultiPoly(1, {(4,): 1.0, (3,): -3.0, (2,): -1.5, (1,): 10.0})
        rect = Rectangle([-5.0], [5.0])
        values = bernstein_coefficients(p, rect)
        expected = [912.5, -837.5, 637.5, -412.5, 262.5]
        assert values == pytest.approx(expected)
        for l in range(5):
            rep = [5.0] * l + [-5.0] * (4 - l)
            assert values[l] == pytest.approx(blossom_eval(p, rep), rel=1e-12)

    def test_class_count(self):
        rng = np.random.default_rng(19)
        p = random_poly(rng, 3, 3)
        values = bernstein_coefficients(p, random_rectangle(rng, 3))
        assert values.shape == tuple(d + 1 for d in p.degrees)
        assert values.size == np.prod([d + 1 for d in p.degrees])

    def test_matches_polar_form_at_class_representatives(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            values = bernstein_coefficients(p, rect)
            for cls in itertools.product(*(range(d + 1) for d in p.degrees)):
                rep = np.concatenate(
                    [
                        np.concatenate([np.full(l, rect.upper[k]), np.full(d - l, rect.lower[k])])
                        for k, (l, d) in enumerate(zip(cls, p.degrees))
                    ]
                ) if sum(p.degrees) else np.zeros(0)
                oracle = blossom_eval(p, rep)
                assert values[cls] == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_matches_term_by_term_rescale(self):
        # reference: expand every term on the unit box, then convert; the
        # per-axis matrices sum in another order, so agreement is to rounding
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            p = p.pad_degrees([d + int(rng.integers(0, 2)) for d in p.degrees])
            rect = random_rectangle(rng, n)
            unit = to_unit_box(p, rect)
            ref = np.zeros(tuple(d + 1 for d in p.degrees))
            for exps, coeff in unit.terms.items():
                ref[exps] = coeff
            for axis, d in enumerate(p.degrees):
                conv = np.array(
                    [[math.comb(l, i) / math.comb(d, i) if i <= l else 0.0 for i in range(d + 1)]
                     for l in range(d + 1)]
                )
                ref = np.moveaxis(np.tensordot(conv, ref, axes=(1, axis)), 0, axis)
            scale = 1.0 + np.abs(ref).max()
            np.testing.assert_allclose(
                bernstein_coefficients(p, rect), ref, rtol=0.0, atol=1e-12 * scale
            )

    def test_reconstruction_at_random_points(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            values = bernstein_coefficients(p, rect)
            pts = rng.uniform(rect.lower, rect.upper, size=(100, n))
            for x in pts:
                expected = evaluate(p, x)
                assert bernstein_evaluate(values, rect, x) == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_range_enclosure(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(1, 3))
            p = random_poly(rng, n, 4)
            rect = random_rectangle(rng, n)
            values = bernstein_coefficients(p, rect)
            axes = [np.linspace(rect.lower[k], rect.upper[k], 40) for k in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.column_stack([m.ravel() for m in mesh])
            grid_min = evaluate_many(p, pts).min()
            assert grid_min >= values.min() - 1e-9

    def test_shape_validation(self):
        # the reconstruction refuses coefficients of another dimension
        with pytest.raises(ValueError):
            bernstein_evaluate(np.zeros((3, 2)), Rectangle([0.0], [1.0]), [0.5])


class TestFacetObjective:
    """The facet tensor ``-(n @ B)`` that ``verify`` assembles from the
    per-component Bernstein coefficients ``B`` equals the Bernstein
    coefficients of the polynomial ``-n . f`` at the shared lift degrees."""

    @staticmethod
    def assert_facet_tensor(components, normal, expected):
        n = len(components)
        rect = Rectangle(-1.5 + 0.25 * np.arange(n), 2.0 + 0.5 * np.arange(n))
        tpl = PolytopeTemplate([normal], [0.0])
        tensor = next(facet_programs(VectorField(tuple(components)), rect, tpl))[0].c
        ref = bernstein_coefficients(expected, rect).reshape(-1)
        assert tensor.shape == ref.shape
        assert np.abs(tensor - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_linear_field(self):
        f = [MultiPoly(2, {(1, 0): -1.0}), MultiPoly(2, {(0, 1): -1.0})]
        expected = MultiPoly(2, {(1, 0): 1.0}, degrees=(1, 1))
        self.assert_facet_tensor(f, [1.0, 0.0], expected)

    def test_neuron_model_first_facet(self):
        # -f1 = -x1 + x1^3/3 + x2 - 7/8 with unified degrees (3, 1)
        f = [
            MultiPoly(2, {(1, 0): 1.0, (3, 0): -1.0 / 3.0, (0, 1): -1.0, (0, 0): 0.875}),
            MultiPoly(2, {(1, 0): 0.08, (0, 1): -0.064, (0, 0): 0.056}),
        ]
        expected = MultiPoly(
            2, {(1, 0): -1.0, (3, 0): 1.0 / 3.0, (0, 1): 1.0, (0, 0): -0.875}, degrees=(3, 1)
        )
        self.assert_facet_tensor(f, [1.0, 0.0], expected)

    def test_plankton_model_third_axis(self):
        f = [
            MultiPoly(3, {(0, 0, 0): 1.0, (1, 0, 0): -1.0, (1, 1, 0): -0.25}),
            MultiPoly(3, {(0, 1, 1): 2.0, (0, 1, 0): -1.0}),
            MultiPoly(3, {(1, 0, 0): 0.25, (0, 0, 2): -2.0}),
        ]
        expected = MultiPoly(3, {(1, 0, 0): -0.25, (0, 0, 2): 2.0}, degrees=(1, 1, 2))
        self.assert_facet_tensor(f, [0.0, 0.0, 1.0], expected)

    def test_length_mismatch(self):
        fld = VectorField((MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 1): 1.0})))
        with pytest.raises(ValueError):
            facet_programs(fld, Rectangle([0.0, 0.0], [1.0, 1.0]), PolytopeTemplate([[1.0]], [0.0]))
