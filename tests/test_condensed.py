"""The condensed tableau against the dense one (``dense_reference``): the
same outcomes bit for bit, after the same pivots per phase, from ``solve``,
``solve_sweep`` and ``solve_dual_stack``."""

import numpy as np
import pytest

from polyvar import lpsolve
from polyvar.invariance import PolytopeTemplate, SynthesisParams, facet_lift, facet_programs, synthesize
from polyvar.lpsolve import OPTIMAL, LPProblem, LPStack, NumericalFailure

import dense_reference
from conftest import fitzhugh_nagumo
from test_highs import general_lps

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@pytest.fixture
def pivots(monkeypatch) -> dict:
    """Count ``lpsolve``'s pivots per phase, as ``dense_reference`` does;
    the test resets the counts between solves."""
    counts = dict.fromkeys(dense_reference.PHASES, 0)
    phase = []

    def within(name, fn):
        def wrapper(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()

        return wrapper

    def counted(fn, pivots_of):
        def wrapper(st, rows, slots):
            counts[phase[-1]] += pivots_of(rows)
            return fn(st, rows, slots)

        return wrapper

    for name, fn in [("dual", "_dual_phase"), ("degenerate", "_activate_degenerate_rows")]:
        monkeypatch.setattr(lpsolve, fn, within(name, getattr(lpsolve, fn)))
    monkeypatch.setattr(lpsolve, "_pivot", counted(lpsolve._pivot, lambda row: 1))
    monkeypatch.setattr(lpsolve, "_pivot_all", counted(lpsolve._pivot_all, len))
    return counts


def taken(counts) -> dict:
    """The counts so far, which are then reset."""
    out = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    return out


def assert_same(ours, ref):
    """Two outcomes of one program are the same, bit for bit."""
    assert type(ours) is type(ref)
    if isinstance(ref, NumericalFailure):
        assert str(ours) == str(ref)
        return
    assert ours.status == ref.status
    if ref.status == OPTIMAL:
        for field in ("x", "ineq_duals", "eq_duals"):
            assert getattr(ours, field).tobytes() == getattr(ref, field).tobytes(), field
        assert np.float64(ours.objective).tobytes() == np.float64(ref.objective).tobytes()


def outcome(fn, *args):
    """``fn(*args)``, or the NumericalFailure it raised."""
    try:
        return fn(*args)
    except NumericalFailure as exc:
        return exc


def test_general_programs_match_the_dense_tableau(pivots):
    # the five kinds of test_highs, alone, with the degenerate-row pass as a
    # stack of one, again under a second cost, and a sweep of five costs over
    # each drawn program's rows; the extra costs have -0.0 entries
    coeff = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-3, 3.0))

    @st.composite
    def cases(draw):
        kind, lp, _ = draw(general_lps(st))
        extra = draw(st.lists(st.lists(coeff, min_size=lp.n_vars, max_size=lp.n_vars),
                              min_size=4, max_size=4))
        return kind, lp, np.vstack([lp.c, np.reshape(extra, (4, lp.n_vars))])

    seen = dict.fromkeys(dense_reference.PHASES, 0)

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        kind, lp, costs = case
        hypothesis.event(kind)
        taken(pivots)
        for program in (lp, LPProblem(costs[1], G=lp.G, h=lp.h, A=lp.A, d=lp.d)):
            ref, ref_counts = dense_reference.solve(program)
            assert_same(outcome(lpsolve.solve, program), ref)
            assert taken(pivots) == ref_counts
            ref, ref_counts = dense_reference.solve(program, duals=True)
            (stacked,) = lpsolve.solve_dual_stack(LPStack.of(program))
            assert_same(stacked, ref)
            assert taken(pivots) == ref_counts
            for phase, count in ref_counts.items():
                seen[phase] += count

        rows = (np.broadcast_to(a, (len(costs),) + a.shape) for a in (lp.G, lp.h, lp.A, lp.d))
        expected = dict.fromkeys(dense_reference.PHASES, 0)
        for ours, c in zip(lpsolve.solve_sweep(LPStack(costs, *rows)), costs, strict=True):
            ref, ref_counts = dense_reference.solve(LPProblem(c, G=lp.G, h=lp.h, A=lp.A, d=lp.d))
            assert_same(ours, ref)
            if isinstance(ref, NumericalFailure):
                hypothesis.event("NumericalFailure")
            for phase, count in ref_counts.items():
                expected[phase] += count
        assert taken(pivots) == expected

    check()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("m", [32, 64])
def test_facet_stacks_match_the_dense_tableau(pivots, m):
    # every facet program of the first passes of a FitzHugh-Nagumo
    # synthesis with m facets, in the stacks that verify solves, with their
    # costs less their least, as certify_stack poses them; a stack pivots
    # its members in lockstep, and its pivots are theirs
    fld, rect, _, ref = fitzhugh_nagumo()
    angles = 2.0 * np.pi * np.arange(m) / m
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    trace = synthesize(
        fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref, max_iter=4)
    )
    lift = facet_lift(fld, rect, normals)
    sizes = []
    for record in trace.records:
        tpl = PolytopeTemplate(normals, record.offsets)
        for stack in facet_programs(fld, rect, tpl, lift):
            stack = LPStack(stack.c - stack.c.min(axis=1, keepdims=True),
                            stack.G, stack.h, stack.A, stack.d)
            sizes.append(len(stack))
            taken(pivots)
            outs = lpsolve.solve_dual_stack(stack)
            counts = taken(pivots)
            expected = dict.fromkeys(counts, 0)
            for k, out in enumerate(outs):
                ref_out, ref_counts = dense_reference.solve(stack[k], duals=True)
                assert_same(out, ref_out)
                for phase, count in ref_counts.items():
                    expected[phase] += count
            assert counts == expected
    assert len(trace.records) > 1 and max(sizes) > 1
