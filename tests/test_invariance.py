import numpy as np
import pytest

import polyvar.invariance
import polyvar.relaxation
from polyvar.invariance import (
    INVARIANT_FOUND,
    STALLED,
    EmptyPolytope,
    PolytopeTemplate,
    SynthesisParams,
    VectorField,
    _confining_caps,
    improve_offsets,
    repair_offsets,
    support_values,
    synthesize,
    template_within_rect,
    verify,
)
from polyvar.lpsolve import solve
from polyvar.oracle import facet_nonempty
from polyvar.polynomial import MultiPoly, Rectangle

from conftest import fitzhugh_nagumo, phytoplankton, sample_facet_points


def linear_decay(n=2) -> VectorField:
    comps = []
    for j in range(n):
        exps = [0] * n
        exps[j] = 1
        comps.append(MultiPoly(n, {tuple(exps): -1.0}))
    return VectorField(tuple(comps))


def unit_square_template(offsets=(1.0, 1.0, 1.0, 1.0)) -> PolytopeTemplate:
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return PolytopeTemplate(normals, np.asarray(offsets, dtype=float))


def diamond_normals() -> np.ndarray:
    s = np.sqrt(0.5)
    return np.array([[s, s], [-s, s], [-s, -s], [s, -s]])


def rotated_hexagon_normals() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(6) / 6 + np.radians(3.0)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def count_solves(monkeypatch) -> list:
    calls = []

    def counting_solve(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(polyvar.invariance, "solve", counting_solve)
    return calls


class TestVectorField:
    def test_unified_degrees(self):
        fld, _, _, _ = phytoplankton()
        assert fld.degrees == (1, 1, 2)

    def test_component_count_checked(self):
        with pytest.raises(ValueError):
            VectorField((MultiPoly(2, {(1, 0): 1.0}),))

    def test_eval(self):
        fld = linear_decay()
        assert fld.eval([2.0, -3.0]) == pytest.approx([-2.0, 3.0])


class TestTemplate:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            PolytopeTemplate(np.array([[0.0, 0.0]]), [1.0])

    def test_support_in_rectangle(self):
        tpl = unit_square_template()
        rect = Rectangle([-2.0, -1.0], [3.0, 4.0])
        assert tpl.support_in(rect) == pytest.approx([3.0, 4.0, 2.0, 1.0])

    def test_within_rect(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        assert template_within_rect(unit_square_template(), rect)
        assert not template_within_rect(unit_square_template((3.0, 1.0, 1.0, 1.0)), rect)


class TestSupportValues:
    def test_values_in_rectangle(self):
        tpl = unit_square_template((1.0, 1.0, 1.0, 1.0))
        rect = Rectangle([-2.0, -0.5], [2.0, 2.0])
        values = support_values(tpl, [[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], rect)
        assert values == pytest.approx([1.0, 0.5, 2.0], abs=1e-12)

    def test_empty_polytope_is_minus_infinity(self):
        tpl = unit_square_template((1.0, 1.0, -2.0, 0.0))  # x >= 2 and x <= 1
        values = support_values(tpl, np.eye(2))
        assert np.all(values == -np.inf)

    def test_unbounded_slab_is_plus_infinity(self):
        slab = PolytopeTemplate(np.array([[1.0, 0.0], [-1.0, 0.0]]), [1.0, 1.0])
        values = support_values(slab, [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert values[0] == pytest.approx(1.0)
        assert values[1] == np.inf and values[2] == np.inf


class TestConfiningCaps:
    @pytest.mark.parametrize("normals", [diamond_normals(), rotated_hexagon_normals()])
    def test_scaled_caps_are_contained_and_maximal(self, normals, monkeypatch):
        rect = Rectangle([-2.0, -1.0], [2.0, 3.0])
        ref = np.array([0.25, 0.5])
        tpl = PolytopeTemplate(normals)
        raw = tpl.support_in(rect)
        assert not template_within_rect(tpl.with_offsets(raw), rect)
        calls = count_solves(monkeypatch)
        caps = _confining_caps(tpl, rect, ref)
        assert len(calls) <= 6 * tpl.n
        capped = tpl.with_offsets(caps)
        assert template_within_rect(capped, rect, tol=0.0)
        reach = support_values(capped, np.vstack([np.eye(2), -np.eye(2)]))
        gaps = np.concatenate([rect.upper - 1e-9 - reach[:2], -reach[2:] - (rect.lower + 1e-9)])
        assert np.all(gaps >= -1e-12)
        assert np.min(np.abs(gaps)) <= 1e-12

    def test_raw_caps_kept_when_contained(self):
        rect = Rectangle([-2.0, -1.0], [2.0, 3.0])
        tpl = unit_square_template()
        assert np.array_equal(_confining_caps(tpl, rect, None), tpl.support_in(rect))


class TestFacetNonempty:
    def test_quarter_square_all_facets(self):
        tpl = unit_square_template((1.0, 1.0, 0.0, 0.0))  # [0,1]^2
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        assert all(facet_nonempty(tpl, rect, k) for k in range(4))

    def test_empty_polytope_has_no_facets(self):
        tpl = unit_square_template((1.0, 1.0, -2.0, 0.0))  # x >= 2 and x <= 1
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        assert not any(facet_nonempty(tpl, rect, k) for k in range(4))

    def test_offset_pulled_past_opposite_face(self):
        # fifth halfspace sits strictly outside the square: its facet is empty
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 1.5])
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        assert all(facet_nonempty(tpl, rect, k) for k in range(4))
        assert not facet_nonempty(tpl, rect, 4)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            facet_nonempty(unit_square_template(), Rectangle([-2, -2], [2, 2]), 7)


class TestVerify:
    def test_linear_inward_field_is_exact(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template((1.0, 0.5, 1.5, 0.25))
        report = verify(linear_decay(), rect, tpl)
        assert report.invariant
        # the facet bound of the decay field equals the facet offset
        assert report.d_star == pytest.approx(tpl.offsets, abs=1e-9)

    def test_certificate_soundness_by_facet_sampling(self):
        rng = np.random.default_rng(301)
        fld = linear_decay()
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template((1.2, 0.8, 0.9, 1.1))
        report = verify(fld, rect, tpl)
        assert report.invariant
        for k in range(tpl.m):
            pts = sample_facet_points(tpl, rect, k, 200, rng)
            flow = -(fld.eval_many(pts) @ tpl.normals[k])
            assert flow.min() >= -1e-7
            assert report.d_star[k] <= flow.min() + 1e-7

    def test_empty_facet_marks_not_verified(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 1.5])
        report = verify(linear_decay(), Rectangle([-2, -2], [2, 2]), tpl)
        assert not report.facet_feasible[4]
        assert not report.invariant
        assert np.isnan(report.d_star[4])

    def test_requires_offsets(self):
        with pytest.raises(ValueError):
            verify(linear_decay(), Rectangle([-2, -2], [2, 2]), PolytopeTemplate(np.eye(2)))

    def test_facet_just_outside_rectangle_is_empty_not_failed(self):
        # facet 2 lies on x = -1e-9, outside [0,1]^2 by less than the simplex
        # feasibility tolerance
        tpl = unit_square_template((1.0, 1.0, 1e-9, 0.0))
        report = verify(linear_decay(), Rectangle([0.0, 0.0], [1.0, 1.0]), tpl)
        assert not report.facet_feasible[2]
        assert report.failures == {}
        assert report.facet_feasible[[0, 1, 3]].all()

    def test_one_lp_per_nonempty_facet(self, monkeypatch):
        calls = []

        def counting_solve(lp):
            calls.append(lp)
            return solve(lp)

        monkeypatch.setattr(polyvar.relaxation, "solve", counting_solve)
        monkeypatch.setattr(polyvar.invariance, "solve", counting_solve)
        fld, rect, normals, _ = fitzhugh_nagumo()
        tpl = PolytopeTemplate(normals, np.ones(len(normals)))
        report = verify(fld, rect, tpl)
        assert report.facet_feasible.all() and report.failures == {}
        assert len(calls) == tpl.m == 8


class TestImproveOffsets:
    def test_zero_step_is_admissible_when_invariant(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        t_star, alpha = improve_offsets(report, tpl, 0.1, tpl.offsets - 1.0, tpl.offsets + 1.0)
        assert t_star >= report.min_bound - 1e-9
        assert np.all(np.abs(alpha) <= 0.1 + 1e-12)

    def test_zero_multipliers_pin_t_at_min_bound(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        report.multipliers[:] = 0.0
        report.d_star[:] = [-0.5, 1.0, 1.0, 1.0]
        t_star, _ = improve_offsets(report, tpl, 0.1, tpl.offsets - 1.0, tpl.offsets + 1.0)
        assert t_star == pytest.approx(-0.5, abs=1e-9)

    def test_respects_caps(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        b = tpl.offsets
        t_star, alpha = improve_offsets(report, tpl, 0.5, b - 0.05, b + 0.02)
        assert np.all(alpha >= -0.05 - 1e-12)
        assert np.all(alpha <= 0.02 + 1e-12)

    def test_incomplete_report_rejected(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 1.5])
        report = verify(linear_decay(), Rectangle([-2, -2], [2, 2]), tpl)
        with pytest.raises(ValueError):
            improve_offsets(report, tpl, 0.1, tpl.offsets - 1, tpl.offsets + 1)


class TestRepairOffsets:
    def test_already_tight_is_fixed_point(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template((2.0, 2.0, 2.0, 2.0))  # the rectangle itself
        assert repair_offsets(tpl, rect) == pytest.approx(tpl.offsets, abs=1e-9)

    def test_redundant_fifth_halfspace(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 10.0])
        repaired = repair_offsets(tpl, Rectangle([-2.0, -2.0], [2.0, 2.0]))
        assert repaired == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0], abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(307)
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        for _ in range(20):
            normals = rng.normal(size=(6, 2))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            x0 = rng.uniform(-1.0, 1.0, size=2)
            offsets = normals @ x0 + rng.uniform(0.05, 1.0, size=6)
            tpl = PolytopeTemplate(normals, offsets)
            once = repair_offsets(tpl, rect)
            twice = repair_offsets(tpl.with_offsets(once), rect)
            assert twice == pytest.approx(once, abs=1e-9)

    def test_preserves_membership(self):
        rng = np.random.default_rng(311)
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 5.0])
        repaired = tpl.with_offsets(repair_offsets(tpl, rect))
        pts = rng.uniform(rect.lower, rect.upper, size=(1000, 2))
        assert np.array_equal(tpl.contains(pts), repaired.contains(pts))

    def test_empty_polytope_raises(self):
        tpl = unit_square_template((1.0, 1.0, -2.0, 0.0))
        with pytest.raises(EmptyPolytope):
            repair_offsets(tpl, Rectangle([-2.0, -2.0], [2.0, 2.0]))

    def test_one_lp_per_facet(self, monkeypatch):
        calls = count_solves(monkeypatch)
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        repair_offsets(PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 5.0]), Rectangle([-2, -2], [2, 2]))
        assert len(calls) == 5

    def test_empty_polytope_costs_one_lp(self, monkeypatch):
        calls = count_solves(monkeypatch)
        with pytest.raises(EmptyPolytope):
            repair_offsets(unit_square_template((1.0, 1.0, -2.0, 0.0)), Rectangle([-2, -2], [2, 2]))
        assert len(calls) == 1


class TestSynthesize:
    def test_trivial_linear_model_first_iteration(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        trace = synthesize(
            linear_decay(),
            rect,
            unit_square_template(),
            SynthesisParams(reference_point=[0.0, 0.0]),
        )
        assert trace.status == INVARIANT_FOUND
        assert trace.n_iterations == 1

    def test_neuron_model_within_budget(self):
        fld, rect, normals, ref = fitzhugh_nagumo()
        trace = synthesize(
            fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref)
        )
        assert trace.status == INVARIANT_FOUND
        assert trace.n_iterations <= 50
        report = verify(fld, rect, PolytopeTemplate(normals, trace.final_offsets))
        assert report.invariant

    def test_zero_leverage_field_stalls(self):
        # constant drift: every facet bound is offset-independent, so the
        # improvement value cannot move and the loop must report a stall
        fld = VectorField((MultiPoly(1, {(0,): 1.0}),))
        rect = Rectangle([-1.0], [1.0])
        tpl = PolytopeTemplate(np.array([[1.0], [-1.0]]), [0.5, 0.5])
        trace = synthesize(fld, rect, tpl, SynthesisParams(reference_point=[0.0]))
        assert trace.status == STALLED

    def test_empty_initial_polytope_raises(self):
        tpl = unit_square_template((1.0, 1.0, -2.0, 0.0))
        with pytest.raises(EmptyPolytope):
            synthesize(
                linear_decay(),
                Rectangle([-2, -2], [2, 2]),
                tpl,
                SynthesisParams(reference_point=[0.0, 0.0]),
            )

    def test_template_outside_rectangle_rejected(self):
        tpl = unit_square_template((3.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            synthesize(
                linear_decay(),
                Rectangle([-2, -2], [2, 2]),
                tpl,
                SynthesisParams(reference_point=[0.0, 0.0]),
            )

    def test_diamond_template_caps_auto_confined(self):
        # the raw support caps of a 45-degree template poke out of the box
        # corners; the default caps must shrink so every iterate stays inside
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        s = np.sqrt(0.5)
        normals = np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
        raw = PolytopeTemplate(normals).support_in(rect)
        assert not template_within_rect(PolytopeTemplate(normals, raw), rect)
        trace = synthesize(
            linear_decay(), rect, PolytopeTemplate(normals), SynthesisParams(reference_point=[0.0, 0.0])
        )
        assert trace.status == INVARIANT_FOUND
        final = PolytopeTemplate(normals, trace.final_offsets)
        assert template_within_rect(final, rect)

    def test_non_confining_template_rejected(self):
        # a slab template is unbounded orthogonally and can never sit inside
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            synthesize(
                linear_decay(),
                Rectangle([-2, -2], [2, 2]),
                PolytopeTemplate(normals),
                SynthesisParams(reference_point=[0.0, 0.0]),
            )

    def test_explicit_loose_caps_rejected(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        s = np.sqrt(0.5)
        normals = np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
        raw = PolytopeTemplate(normals).support_in(rect)
        with pytest.raises(ValueError):
            synthesize(
                linear_decay(),
                rect,
                PolytopeTemplate(normals),
                SynthesisParams(reference_point=[0.0, 0.0], b_hi=raw),
            )

    def test_normals_immutable_across_trace(self):
        fld, rect, normals, ref = fitzhugh_nagumo()
        tpl = PolytopeTemplate(normals)
        before = tpl.normals.copy()
        synthesize(fld, rect, tpl, SynthesisParams(reference_point=ref))
        assert np.array_equal(tpl.normals, before)

    def test_trace_offsets_chain(self):
        # each iteration's starting offsets are the previous repaired offsets
        fld, rect, normals, ref = fitzhugh_nagumo()
        trace = synthesize(fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref))
        for prev, cur in zip(trace.records, trace.records[1:]):
            assert cur.offsets == pytest.approx(prev.repaired_offsets, abs=1e-12)

    def test_sensitivity_consistency_across_step(self):
        # after applying the chosen step, re-verified bounds must dominate
        # the first-order prediction
        fld, rect, normals, ref = fitzhugh_nagumo()
        b_hi = PolytopeTemplate(normals).support_in(rect)
        tpl = PolytopeTemplate(normals, b_hi)
        report = verify(fld, rect, tpl)
        assert not report.invariant
        t_star, alpha = improve_offsets(report, tpl, 0.25, normals @ ref, b_hi)
        # the zero step is always admissible, so the improvement value can
        # only raise the worst certified bound
        assert t_star >= report.min_bound - 1e-9
        stepped = tpl.with_offsets(tpl.offsets + alpha)
        after = verify(fld, rect, stepped)
        assert after.complete
        predicted = report.d_star - report.multipliers @ alpha
        assert np.all(after.d_star >= predicted - 1e-6)


class TestPlanktonModel:
    def test_synthesis_and_certificate(self):
        fld, rect, normals, ref = phytoplankton()
        trace = synthesize(
            fld,
            rect,
            PolytopeTemplate(normals),
            SynthesisParams(reference_point=ref, epsilon=0.1),
        )
        assert trace.status == INVARIANT_FOUND
        assert trace.n_iterations <= 50
        report = verify(fld, rect, PolytopeTemplate(normals, trace.final_offsets))
        assert report.invariant
