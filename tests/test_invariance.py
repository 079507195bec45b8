import numpy as np
import pytest

import polyvar.invariance
import polyvar.relaxation
from polyvar import lpsolve
from polyvar.files import load_model
from polyvar.invariance import (
    CAPPED,
    INVARIANT_FOUND,
    LEAST_MOVE,
    LEAST_MOVE_SHARE,
    STALLED,
    EmptyPolytope,
    PolytopeTemplate,
    SynthesisParams,
    VectorField,
    _confining_caps,
    _reach,
    improve_offsets,
    repair_offsets,
    support_values,
    synthesize,
    template_within_rect,
    verify,
)
from polyvar.oracle import facet_nonempty
from polyvar.polynomial import MultiPoly, Rectangle, bernstein_coefficients, evaluate
from polyvar.relaxation import ConstraintSet, certify_stack, class_constraint_values, lower_bound

from conftest import (
    MODELS_DIR,
    assert_verify_matches_members_alone,
    field_values,
    fitzhugh_nagumo,
    fitzhugh_nagumo_iterate64,
    phytoplankton,
    sample_facet_points,
    term_by_term_objective,
)


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


def count_phases(monkeypatch) -> dict:
    """Count the LP engine's cold dual starts, its only start: ``stacks``
    counts the stacked solves, ``dual_start`` their members, one per program
    solved cold by the dual simplex."""
    counts = {"stacks": 0, "dual_start": 0}
    real = lpsolve._dual_start

    def dual_start(*args):
        tab = real(*args)
        counts["stacks"] += 1
        counts["dual_start"] += len(tab.T)
        return tab

    monkeypatch.setattr(lpsolve, "_dual_start", dual_start)
    return counts


class TestVectorField:
    def test_unified_degrees(self):
        fld, _, _, _ = phytoplankton()
        assert fld.degrees == (1, 1, 2)

    def test_component_count_checked(self):
        with pytest.raises(ValueError):
            VectorField((MultiPoly(2, {(1, 0): 1.0}),))

    def test_eval(self):
        fld = linear_decay()
        assert [evaluate(f, [2.0, -3.0]) for f in fld.components] == pytest.approx([-2.0, 3.0])


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

    def test_polytope_outside_the_rectangle_is_not_within(self):
        # the unit square moved to [10, 11]^2: nonempty and wholly outside
        # the rectangle, so its reach is finite and it is not inside; within
        # the rectangle there is nothing to support
        tpl = unit_square_template((11.0, 11.0, -10.0, -10.0))
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        reach = support_values(tpl, np.vstack([np.eye(2), -np.eye(2)]))
        assert reach == pytest.approx([11.0, 11.0, -10.0, -10.0], abs=1e-12)
        assert not template_within_rect(tpl, rect)
        assert np.all(support_values(tpl, np.eye(2), rect) == -np.inf)

    def test_sweeps_skip_the_degenerate_row_pass(self, monkeypatch):
        # support values read only x; the facet programs, whose multipliers
        # are read, still take the pass
        def entered(*args):
            raise AssertionError("degenerate-row pass entered")

        fld, rect, normals, _ = fitzhugh_nagumo()
        tpl = PolytopeTemplate(normals, np.ones(len(normals)))
        monkeypatch.setattr(lpsolve, "_activate_degenerate_rows", entered)
        assert np.all(np.isfinite(support_values(tpl, normals)))
        assert np.all(np.isfinite(support_values(tpl, normals, rect)))
        repair_offsets(tpl, rect)
        for stack in polyvar.invariance.facet_programs(fld, rect, tpl):
            with pytest.raises(AssertionError, match="pass entered"):
                certify_stack(stack)


class TestTinyScale:
    """The support programs are posed in units of the rectangle or of the
    offsets, so a polytope 1e-10 wide is measured to its own scale."""

    # the triangle x + y <= b0, x >= -b1, y >= -b2 within [0, 1e-10]^2
    RECT = Rectangle([0.0, 0.0], [1e-10, 1e-10])
    TRIANGLE = PolytopeTemplate(
        np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        [1.1764705874117647e-10, -1.764705884117647e-11, -1.764705884117647e-11],
    )

    def test_reach_is_the_vertices(self):
        # x = 0 violates the rows x, y >= 1.76e-11 by less than the LP's
        # feasibility tolerance at unit scale, which would read the reach
        # of the triangle grown to the origin
        reach = _reach(self.TRIANGLE)
        b = self.TRIANGLE.offsets
        assert reach == pytest.approx([b[0] + b[2], b[0] + b[1], b[1], b[2]], rel=1e-12)

    def test_support_within_the_rectangle_is_tight(self):
        values = support_values(self.TRIANGLE, self.TRIANGLE.normals, self.RECT)
        assert values == pytest.approx(self.TRIANGLE.offsets, rel=1e-12)


class TestConfiningCaps:
    @pytest.mark.parametrize("normals", [diamond_normals(), rotated_hexagon_normals()])
    def test_scaled_caps_are_contained_and_maximal(self, normals, monkeypatch):
        rect = Rectangle([-2.0, -1.0], [2.0, 3.0])
        ref = np.array([0.25, 0.5])
        tpl = PolytopeTemplate(normals)
        raw = tpl.support_in(rect)
        assert not template_within_rect(tpl.with_offsets(raw), rect)
        phases = count_phases(monkeypatch)
        caps = _confining_caps(tpl, rect, ref)
        assert 0 < phases["dual_start"] <= 6 * tpl.n
        capped = tpl.with_offsets(caps)
        assert template_within_rect(capped, rect, tol=0.0)
        reach = support_values(capped, np.vstack([np.eye(2), -np.eye(2)]))
        gaps = np.concatenate([rect.upper - 1e-9 - reach[:2], -reach[2:] - (rect.lower + 1e-9)])
        assert np.all(gaps >= -1e-12)
        assert np.min(np.abs(gaps)) <= 1e-12

    def test_scaled_caps_sweep_the_reach_once(self, monkeypatch):
        # the reach of Q = P - ref is the raw caps' reach, which the
        # containment test has swept, shifted by ref: one reach sweep, then
        # the containment check of the scaled caps; each solves one stacked
        # LP dual per direction +-e_i from the origin, a point of both cap
        # polytopes
        rect = Rectangle([-2.0, -1.0], [2.0, 3.0])
        tpl = PolytopeTemplate(diamond_normals())
        phases = count_phases(monkeypatch)
        _confining_caps(tpl, rect, np.array([0.25, 0.5]))
        assert phases == {"stacks": 2, "dual_start": 2 * (2 * tpl.n)}

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
            flow = -(field_values(fld, pts) @ tpl.normals[k])
            assert flow.min() >= -1e-7
            assert report.d_star[k] <= flow.min() + 1e-7

    @pytest.mark.parametrize(
        "normals, offsets, lower",
        [
            # the product n_0 . x is 2e308 at x = 2
            ([[1e308], [-1.0]], [1e308, 0.0], 0.0),
            # the products are finite, but facet 1's row n_0 . x - b_0 is
            # -1.7e308 - 1.7e308 at x = -1
            ([[1.7e308], [-1.7e308]], [1.7e308, 1.7e308], -1.0),
        ],
        ids=["product", "offset"],
    )
    def test_facet_values_beyond_the_float_range_raise(self, normals, offsets, lower):
        fld = VectorField((MultiPoly(1, {(1,): -1e-300}),))
        tpl = PolytopeTemplate(normals, offsets)
        with pytest.raises(ValueError, match="^vector field: facet values at the class points"):
            verify(fld, Rectangle([lower], [lower + 2.0]), tpl)

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
        # per pass: one LP per facet, all in one stacked solve, one Bernstein
        # conversion per field component and one matrix of constraint values
        # for all facets
        calls = {"solve": 0, "bernstein": 0, "values": 0}
        stacks = [0]

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def solve_dual_stack(stack, *args):
            stacks[0] += 1
            calls["solve"] += len(stack)
            return lpsolve.solve_dual_stack(stack, *args)

        monkeypatch.setattr(polyvar.relaxation, "solve_dual_stack", solve_dual_stack)
        for name in ("solve", "solve_sweep"):
            monkeypatch.setattr(polyvar.invariance, name, counted("solve", getattr(lpsolve, name)))
        monkeypatch.setattr(
            polyvar.invariance, "bernstein_coefficients", counted("bernstein", bernstein_coefficients)
        )
        monkeypatch.setattr(
            polyvar.invariance, "class_constraint_values", counted("values", class_constraint_values)
        )
        fld, rect, normals, _ = fitzhugh_nagumo()
        tpl = PolytopeTemplate(normals, np.ones(len(normals)))
        assert tpl.m == 8
        for passes in (1, 2):
            report = verify(fld, rect, tpl)
            assert report.facet_feasible.all() and report.failures == {}
            assert calls == {"solve": passes * tpl.m, "bernstein": passes * fld.n, "values": passes}
            assert stacks[0] == passes


def facet_constraints(tpl: PolytopeTemplate, k: int) -> ConstraintSet:
    """Facet ``k`` as an equality, the other facets as inequalities."""
    others = [i for i in range(tpl.m) if i != k]
    return ConstraintSet(
        tpl.n,
        inequalities=[(tpl.normals[i], tpl.offsets[i]) for i in others],
        equalities=[(tpl.normals[k], tpl.offsets[k])],
    )


def bundled_iterates(name):
    """Field, rectangle and the first three synthesis iterates of a bundled model."""
    model = load_model(MODELS_DIR / f"{name}.json")
    params = model.params
    params.max_iter = 3
    trace = synthesize(model.field, model.rectangle, model.template, params)
    tpls = [model.template.with_offsets(rec.offsets) for rec in trace.records]
    return model.field, model.rectangle, tpls


def uniform_normals(m) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def chain_8d() -> tuple[VectorField, Rectangle, PolytopeTemplate]:
    """The 8-D chain dx_i = -x_i + 0.3 x_{i+1}^2 + 0.2 x_{i-1} x_i (indices
    cyclic) on [-1.5, 1.5]^8 with a box template: 3^8 = 6561 vertex classes."""
    n = 8
    comps = []
    for i in range(n):
        terms = {}
        for exps, coeff in (({i: 1}, -1.0), ({(i + 1) % n: 2}, 0.3), ({(i - 1) % n: 1, i: 1}, 0.2)):
            key = [0] * n
            for j, e in exps.items():
                key[j] = e
            terms[tuple(key)] = coeff
        comps.append(MultiPoly(n, terms))
    eye = np.eye(n)
    tpl = PolytopeTemplate(np.vstack([eye, -eye]), np.full(2 * n, 1.0))
    return VectorField(tuple(comps)), Rectangle(np.full(n, -1.5), np.full(n, 1.5)), tpl


class TestStackedVerify:
    """``verify`` certifies the facet programs in stacked solves; every
    report must equal, bit for bit, ``certify`` on each member alone."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_fitzhugh_nagumo_uniform(self, m):
        fld, rect, _, ref = fitzhugh_nagumo()
        trace = synthesize(
            fld, rect, PolytopeTemplate(uniform_normals(m)),
            SynthesisParams(reference_point=ref, max_iter=3),
        )
        for rec in trace.records:
            assert_verify_matches_members_alone(
                fld, rect, PolytopeTemplate(uniform_normals(m), rec.offsets)
            )

    def test_phytoplankton(self):
        fld, rect, tpls = bundled_iterates("phytoplankton")
        for tpl in tpls:
            assert_verify_matches_members_alone(fld, rect, tpl)

    def test_single_vertex_facets_over_many_stacks(self):
        fld, rect, tpl = fitzhugh_nagumo_iterate64()
        assert len(list(polyvar.invariance.facet_programs(fld, rect, tpl))) > 1
        assert assert_verify_matches_members_alone(fld, rect, tpl).complete

    def test_8d_box(self):
        fld, rect, tpl = chain_8d()
        report = assert_verify_matches_members_alone(fld, rect, tpl)
        assert report.complete

    def test_empty_facet_mid_stack(self):
        # facet 2 (x <= 1.5) never touches the polytope, which x <= 1 bounds
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.5, 1.0, 1.0])
        fld, rect = linear_decay(), Rectangle([-2.0, -2.0], [2.0, 2.0])
        report = assert_verify_matches_members_alone(fld, rect, tpl)
        assert report.facet_feasible.tolist() == [True, True, False, True, True]
        assert report.failures == {}
        assert np.all(np.isfinite(report.d_star[[0, 1, 3, 4]]))

    @pytest.mark.parametrize("m", [64, 200])
    def test_stacked_tableau_within_cap(self, monkeypatch, m):
        # the largest arrays a pass holds are a stack's tableau and the
        # full-width rows and basis inverses that its pricing and dual
        # refinement multiply by; each stays within STACK_BYTES while it
        # spans two or more members, and one member alone may exceed it only
        # when it cannot be split (the operands at m = 200 here)
        sizes, members, operands = [], [], []
        real_dual_start, real_vm = lpsolve._dual_start, lpsolve._vm

        def dual_start(stack, *args):
            tab = real_dual_start(stack, *args)
            sizes.append((len(stack), tab.T.nbytes))
            return tab

        def solve_dual_stack(stack, *args):
            members.append(len(stack))
            return lpsolve.solve_dual_stack(stack, *args)

        def vm(v, M):
            operands.append((len(M), M.nbytes))
            return real_vm(v, M)

        monkeypatch.setattr(lpsolve, "_dual_start", dual_start)
        monkeypatch.setattr(lpsolve, "_vm", vm)
        monkeypatch.setattr(polyvar.relaxation, "solve_dual_stack", solve_dual_stack)
        fld, rect, _, _ = fitzhugh_nagumo()
        tpl = PolytopeTemplate(uniform_normals(m))
        tpl = tpl.with_offsets(tpl.support_in(rect))
        report = verify(fld, rect, tpl)
        assert report.complete
        assert sum(members) == m and len(members) > 1
        assert len(sizes) == len(members)
        one = max(size // count for count, size in sizes)
        for count, size in sizes + operands:
            assert size <= lpsolve.STACK_BYTES or count == 1
        if one <= lpsolve.STACK_BYTES // 2:
            assert max(members) > 1  # small members do share stacks
        if max(size // count for count, size in operands) <= lpsolve.STACK_BYTES // 2:
            assert max(count for count, _ in operands) > 1  # and chunks


class TestSynthesisLift:
    """A synthesis builds the facet lift of its normals once.  Its first
    pass must be, bit for bit, the ``verify`` that builds its own; the later
    passes restart from the previous pass's tableaux, so they must reach the
    same optimum, with the same feasible facets and failures and each
    ``d_star`` within 1e-12 (1 + |d|)."""

    @pytest.mark.parametrize("name, m", [("phytoplankton", None), ("fitzhugh_nagumo", 8)])
    def test_records_match_a_fresh_verify(self, monkeypatch, name, m):
        model = load_model(MODELS_DIR / f"{name}.json")
        tpl = model.template if m is None else PolytopeTemplate(uniform_normals(m))
        lifts = [0]

        def facet_lift(*args):
            lifts[0] += 1
            return lift(*args)

        lift = polyvar.invariance.facet_lift
        monkeypatch.setattr(polyvar.invariance, "facet_lift", facet_lift)
        trace = synthesize(model.field, model.rectangle, tpl, model.params)
        assert lifts[0] == 1 and trace.n_iterations > 1
        for i, rec in enumerate(trace.records):
            report = verify(model.field, model.rectangle, tpl.with_offsets(rec.offsets))
            if i == 0:
                assert report.d_star.tobytes() == rec.d_star.tobytes()
            else:
                gap = np.abs(report.d_star - rec.d_star)
                assert np.all(gap <= 1e-12 * (1.0 + np.abs(report.d_star))), gap.max()
            assert report.facet_feasible.tobytes() == rec.facet_feasible.tobytes()
            assert report.failures == rec.failures
        assert lifts[0] == 1 + trace.n_iterations  # a lone verify builds its own


class TestWarmPasses:
    """Every pass of a synthesis after its first restarts its facet
    programs from the previous pass's end tableaux; the repair sweeps run
    cold."""

    # the bundled template and the uniform 8-facet one certify in two passes,
    # the uniform 6-facet one stalls after 13
    @pytest.mark.parametrize(
        "name, m", [("phytoplankton", None), ("fitzhugh_nagumo", 8), ("fitzhugh_nagumo", 6)]
    )
    def test_later_passes_run_no_phase_one_and_half_the_pivots(self, monkeypatch, name, m):
        model = load_model(MODELS_DIR / f"{name}.json")
        tpl = model.template if m is None else PolytopeTemplate(uniform_normals(m))
        phases = count_phases(monkeypatch)
        pivots = [0]
        steps = []  # (name, cold dual starts, pivots) at each entry and exit

        def counted(fn, count):
            def wrapper(*args):
                pivots[0] += count(*args)
                return fn(*args)

            return wrapper

        def marked(key, fn):
            def wrapper(*args):
                steps.append((key, phases["dual_start"], pivots[0]))
                out = fn(*args)
                steps.append((key, phases["dual_start"], pivots[0]))
                return out

            return wrapper

        monkeypatch.setattr(lpsolve, "_pivot", counted(lpsolve._pivot, lambda *args: 1))
        monkeypatch.setattr(
            lpsolve, "_pivot_all", counted(lpsolve._pivot_all, lambda st, rows, slots: len(rows))
        )
        monkeypatch.setattr(polyvar.invariance, "verify", marked("verify", verify))
        monkeypatch.setattr(polyvar.invariance, "repair_offsets", marked("repair", repair_offsets))
        trace = synthesize(model.field, model.rectangle, tpl, model.params)
        assert trace.n_iterations >= (3 if m == 6 else 2)
        spans = [(a[0], *(y - x for x, y in zip(a[1:], b[1:])))
                 for a, b in zip(steps[::2], steps[1::2])]
        verifies = [s for s in spans if s[0] == "verify"]
        assert len(verifies) == trace.n_iterations
        assert [s[1] for s in verifies[1:]] == [0] * (len(verifies) - 1)  # no cold facet program
        repairs = [s for s in spans if s[0] == "repair"]
        assert [s[1] for s in repairs] == [tpl.m] * len(repairs)  # a cold sweep, one per facet
        assert verifies[0][1] == tpl.m  # the first pass starts every facet program cold
        warm = sum(s[2] for s in verifies[1:])
        pivots[0] = 0
        for rec in trace.records[1:]:
            verify(model.field, model.rectangle, tpl.with_offsets(rec.offsets))
        assert 2 * warm <= pivots[0], (warm, pivots[0])

    def test_nothing_kept_runs_every_pass_cold(self, monkeypatch):
        # without room for tableaux every pass is, bit for bit, a fresh verify
        monkeypatch.setattr(polyvar.invariance, "KEEP_BYTES", 0)
        model = load_model(MODELS_DIR / "fitzhugh_nagumo.json")
        tpl = PolytopeTemplate(uniform_normals(6))
        trace = synthesize(model.field, model.rectangle, tpl, model.params)
        assert trace.n_iterations > 2
        for rec in trace.records:
            report = verify(model.field, model.rectangle, tpl.with_offsets(rec.offsets))
            assert report.d_star.tobytes() == rec.d_star.tobytes()

    def test_stacks_past_the_limit_run_cold(self, monkeypatch):
        # room for the first facet stack: the other stacks start cold, from
        # their dual starts, in every pass
        fld, rect, _, ref = fitzhugh_nagumo()
        tpl = PolytopeTemplate(uniform_normals(64))
        K = polyvar.invariance.facet_lift(fld, rect, tpl.normals).products.shape[0]
        first = lpsolve.stack_members(K, 63, 2)
        monkeypatch.setattr(polyvar.invariance, "KEEP_BYTES", first * lpsolve.tableau_bytes(K, 63, 2))
        phases = count_phases(monkeypatch)
        passes = []
        real = polyvar.invariance.verify

        def counted(*args):
            before = phases["dual_start"]
            out = real(*args)
            passes.append(phases["dual_start"] - before)
            return out

        monkeypatch.setattr(polyvar.invariance, "verify", counted)
        trace = synthesize(fld, rect, tpl, SynthesisParams(reference_point=ref, max_iter=3))
        assert 0 < first < 64 and trace.n_iterations > 1
        assert passes == [64] + [64 - first] * (trace.n_iterations - 1)


class TestBadlyScaledCostRow:
    def test_facet_bound_is_tight(self):
        # f_x = 1e-11 - x + 1e10 x^2 and f_y = 1e-11 - y on [0, 1e-10]^2:
        # facet 1 (x = 0) has -n . f = f_x = 1e-11 there, which mu = -1
        # certifies, though the cost row is far below the pivot tolerance
        fld = VectorField((
            MultiPoly(2, {(0, 0): 1e-11, (1, 0): -1.0, (2, 0): 1e10}),
            MultiPoly(2, {(0, 0): 1e-11, (0, 1): -1.0}),
        ))
        rect = Rectangle([0.0, 0.0], [1e-10, 1e-10])
        tpl = PolytopeTemplate(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), [1e-10, 0.0, 0.0])
        report = verify(fld, rect, tpl)
        assert report.complete
        assert report.d_star[1] == pytest.approx(1e-11, rel=1e-6)


class TestFacetPrograms:
    @pytest.mark.parametrize("case", ["fitzhugh_nagumo", "phytoplankton", "fhn_iterate64"])
    def test_verify_matches_term_by_term_lower_bound(self, case):
        # verify slices every facet program out of per-template arrays; the
        # same program built from the polynomial -n_k . f must certify the
        # same bound with the same multipliers
        if case == "fhn_iterate64":
            fld, rect, tpl = fitzhugh_nagumo_iterate64()
            tpls = [tpl]
        else:
            fld, rect, tpls = bundled_iterates(case)
        for tpl in tpls:
            report = verify(fld, rect, tpl)
            assert report.complete
            for k in range(tpl.m):
                res = lower_bound(
                    term_by_term_objective(fld, tpl.normals[k]), rect, facet_constraints(tpl, k)
                )
                tol = 1e-12 * (1.0 + abs(res.d_star))
                assert abs(report.d_star[k] - res.d_star) <= tol
                expected = np.insert(res.lam, k, res.mu[0])
                assert np.abs(report.multipliers[k] - expected).max() <= tol


class TestImproveOffsets:
    def test_zero_step_is_admissible_when_invariant(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        step = improve_offsets(report, tpl, 0.1, tpl.offsets - 1.0, tpl.offsets + 1.0)
        assert step.t_star >= report.d_star[np.isfinite(report.d_star)].min() - 1e-9
        # every bound is already positive: the least move stays put
        assert step.kind == LEAST_MOVE and np.all(step.alpha == 0.0)

    def test_zero_multipliers_pin_t_at_min_bound(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        report.multipliers[:] = 0.0
        report.d_star[:] = [-0.5, 1.0, 1.0, 1.0]
        step = improve_offsets(report, tpl, 0.1, tpl.offsets - 1.0, tpl.offsets + 1.0)
        assert step.kind == CAPPED
        assert step.t_big == pytest.approx(-0.5, abs=1e-9)
        assert step.t_star == pytest.approx(-0.5, abs=1e-9)

    def test_respects_caps(self):
        rect = Rectangle([-2.0, -2.0], [2.0, 2.0])
        tpl = unit_square_template()
        report = verify(linear_decay(), rect, tpl)
        b = tpl.offsets
        alpha = improve_offsets(report, tpl, 0.5, b - 0.05, b + 0.02).alpha
        assert np.all(alpha >= -0.05 - 1e-12)
        assert np.all(alpha <= 0.02 + 1e-12)

    def test_incomplete_report_rejected(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 1.5])
        report = verify(linear_decay(), Rectangle([-2, -2], [2, 2]), tpl)
        with pytest.raises(ValueError):
            improve_offsets(report, tpl, 0.1, tpl.offsets - 1, tpl.offsets + 1)


class TestStepCertificates:
    """The step's prediction ``d_k - row_k . alpha`` is the certificate of the
    old multipliers at the stepped offsets, for every step."""

    @pytest.mark.parametrize("name, m", [("phytoplankton", None), ("fitzhugh_nagumo", None),
                                         ("fitzhugh_nagumo", 6)])
    def test_prediction_is_the_old_multipliers_certificate(self, monkeypatch, name, m):
        model = load_model(MODELS_DIR / f"{name}.json")
        tpl0 = model.template if m is None else PolytopeTemplate(uniform_normals(m))
        steps = []
        real = polyvar.invariance.improve_offsets

        def kept(report, tpl, *args):
            step = real(report, tpl, *args)
            steps.append((report, tpl.offsets, step))
            return step

        monkeypatch.setattr(polyvar.invariance, "improve_offsets", kept)
        trace = synthesize(model.field, model.rectangle, tpl0, model.params)
        assert len(steps) == trace.n_iterations - (trace.status == INVARIANT_FOUND)
        kinds = {step.kind for _, _, step in steps}
        assert kinds == ({CAPPED} if m else {LEAST_MOVE})
        lift = polyvar.invariance.facet_lift(model.field, model.rectangle, tpl0.normals)
        for report, b, step in steps:
            rows = report.multipliers
            values = lift.products - (b + step.alpha)
            certified = (lift.costs + rows @ values.T).min(axis=1)
            predicted = report.d_star - rows @ step.alpha
            np.testing.assert_array_less(
                np.abs(certified - predicted), 1e-12 * (1.0 + np.abs(report.d_star))
            )
            assert step.t_star == predicted.min()
            if step.kind == LEAST_MOVE:
                # the facets that bind the least move land on the margin,
                # up to the rounding of the certificate
                margin = LEAST_MOVE_SHARE * step.t_big - 1e-12 * (1.0 + np.abs(report.d_star))
                assert np.all(certified >= margin)
                assert np.any(certified <= LEAST_MOVE_SHARE * step.t_big + 1e-12)


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
        inside = pts @ normals.T
        assert np.array_equal(
            np.all(inside <= tpl.offsets, axis=1), np.all(inside <= repaired.offsets, axis=1)
        )

    def test_empty_polytope_raises(self):
        tpl = unit_square_template((1.0, 1.0, -2.0, 0.0))
        with pytest.raises(EmptyPolytope):
            repair_offsets(tpl, Rectangle([-2.0, -2.0], [2.0, 2.0]))

    def test_one_lp_per_facet(self, monkeypatch):
        # one stacked solve, one dual start per facet direction
        phases = count_phases(monkeypatch)
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        repair_offsets(PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 5.0]), Rectangle([-2, -2], [2, 2]))
        assert phases == {"stacks": 1, "dual_start": 5}

    def test_empty_polytope_costs_one_lp(self, monkeypatch):
        # one stacked solve, every direction of which ends infeasible
        phases = count_phases(monkeypatch)
        with pytest.raises(EmptyPolytope):
            repair_offsets(unit_square_template((1.0, 1.0, -2.0, 0.0)), Rectangle([-2, -2], [2, 2]))
        assert phases == {"stacks": 1, "dual_start": 4}


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

    @pytest.mark.parametrize(
        "offsets, sweeps",
        [
            # above b_hi: only the b_hi containment sweep of the parameter
            # checks runs (one LP dual per direction +-e_i)
            ((1.5, 1.0, 1.0, 1.0), {"stacks": 1, "dual_start": 4}),
            # below b_lo = normals @ ref: the repair sweep (one program per
            # facet) runs first, since an empty start must raise EmptyPolytope
            ((-0.5, 1.0, 1.0, 1.0), {"stacks": 2, "dual_start": 8}),
        ],
    )
    def test_offsets_outside_caps_rejected(self, offsets, sweeps, monkeypatch):
        phases = count_phases(monkeypatch)
        with pytest.raises(ValueError, match="b_lo <= offsets <= b_hi"):
            synthesize(
                linear_decay(),
                Rectangle([-2, -2], [2, 2]),
                unit_square_template(offsets),
                SynthesisParams(reference_point=[0.0, 0.0], b_hi=[1.2] * 4),
            )
        assert phases == sweeps

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
        step = improve_offsets(report, tpl, 0.25, normals @ ref, b_hi)
        alpha = step.alpha
        # the zero step is always admissible, so the improvement value can
        # only raise the worst certified bound
        assert step.t_star >= report.d_star[np.isfinite(report.d_star)].min() - 1e-9
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
