"""The documented NumericalFailure paths: the solver's KKT gate, a failed
facet inside ``verify``'s stacked solve and ``synthesize``, a failed
direction of a support sweep, and the CLI's exit codes.

Monkeypatching only injects the failure; everything around it runs as is.
"""

import json

import jsonschema
import numpy as np
import pytest

from polyvar import invariance, lpsolve
from polyvar.cli import main
from polyvar.files import REPORT_SCHEMA
from polyvar.invariance import (
    STALLED,
    PolytopeTemplate,
    SynthesisParams,
    repair_offsets,
    synthesize,
    verify,
)
from polyvar.lpsolve import LPProblem, NumericalFailure, solve
from polyvar.polynomial import Rectangle

from conftest import fitzhugh_nagumo, fitzhugh_nagumo_iterate64

CLEAN = {"primal": 0.0, "dual": 0.0, "gap": 0.0, "slackness": 0.0}


def residuals(**worse):
    """A stand-in for ``kkt_residuals``: the given residuals, clean otherwise,
    for each member of the stack it checks."""
    values = {**CLEAN, **worse}
    return lambda lp, sol: {key: np.full(len(lp.c), value) for key, value in values.items()}


def fail_facet_programs(monkeypatch, members):
    """Make the given (0-based) facet programs of ``verify`` fail inside its
    stacked solves, counted in facet order across passes: the dual simplex
    phase that ends the program's pivots (``_dual_phase``), from a cold dual
    start or a warm restart, hands back a NumericalFailure for it, as for a
    member whose pivots failed, and the solve goes on with the other members
    of its stack.  A failed restart solves its stack again cold, where the
    program fails once more."""
    seen = [0]
    failing = []
    real_certify = invariance.certify_stack

    def certify_stack(stack, *args):
        failing[:] = [k - seen[0] for k in members if seen[0] <= k < seen[0] + len(stack)]
        seen[0] += len(stack)
        try:
            return real_certify(stack, *args)
        finally:
            failing.clear()

    def ending(real):
        def wrapper(*args):
            out = real(*args)
            for k in failing:
                if out[k] is None:
                    out[k] = NumericalFailure("injected")
            return out

        return wrapper

    monkeypatch.setattr(invariance, "certify_stack", certify_stack)
    monkeypatch.setattr(lpsolve, "_dual_phase", ending(lpsolve._dual_phase))


def fail_dual_runs(monkeypatch, runs) -> list:
    """Make the given (0-based) dual simplex runs of the LP engine fail,
    counted over the members of its stacks: the run hands back the
    NumericalFailure ``injected at <run>``.  Returns the run counter."""
    count = [0]
    real = lpsolve._dual_phase

    def dual_phase(*args):
        out = real(*args)
        for k in range(len(out)):
            if count[0] in runs:
                out[k] = NumericalFailure(f"injected at {count[0]}")
            count[0] += 1
        return out

    monkeypatch.setattr(lpsolve, "_dual_phase", dual_phase)
    return count


def fitzhugh_nagumo_invariant():
    """Bundled FitzHugh-Nagumo data and its synthesized invariant octagon."""
    fld, rect, normals, ref = fitzhugh_nagumo()
    trace = synthesize(fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref))
    return fld, rect, PolytopeTemplate(normals, trace.final_offsets)


class TestKktGate:
    LP = LPProblem([1.0, 2.0], G=[[-1.0, -1.0]], h=[-1.0])

    @pytest.mark.parametrize("key", ["primal", "dual", "gap"])
    def test_residual_above_threshold_raises(self, monkeypatch, key):
        monkeypatch.setattr(lpsolve, "kkt_residuals", residuals(**{key: 1.01e-6}))
        with pytest.raises(NumericalFailure, match=f"KKT self-check.*{key}="):
            solve(self.LP)

    def test_residuals_at_threshold_pass(self, monkeypatch):
        monkeypatch.setattr(
            lpsolve, "kkt_residuals", residuals(primal=1e-6, dual=1e-6, gap=1e-6, slackness=1.0)
        )
        assert solve(self.LP).objective == 1.0


class TestFailedFacet:
    def test_verify_records_the_facet_and_keeps_the_others(self, monkeypatch):
        fld, rect, tpl = fitzhugh_nagumo_invariant()
        clean = verify(fld, rect, tpl)
        assert clean.invariant
        fail_facet_programs(monkeypatch, {2})
        report = verify(fld, rect, tpl)
        assert report.failures == {2: "injected"}
        assert not report.complete and not report.invariant
        others = np.arange(tpl.m) != 2
        np.testing.assert_array_equal(report.d_star[others], clean.d_star[others])
        np.testing.assert_array_equal(report.multipliers[others], clean.multipliers[others])
        assert np.isnan(report.d_star[2]) and np.all(np.isnan(report.multipliers[2]))
        assert report.facet_feasible.all()

    def test_failures_across_stacks_leave_the_others_bit_equal(self, monkeypatch):
        # the 64 facets go in stacks of six: 5 and 6 end and start a stack
        fld, rect, tpl = fitzhugh_nagumo_iterate64()
        clean = verify(fld, rect, tpl)
        assert clean.complete
        failed = [0, 5, 6, 31, 63]
        fail_facet_programs(monkeypatch, set(failed))
        report = verify(fld, rect, tpl)
        assert report.failures == dict.fromkeys(failed, "injected")
        others = np.setdiff1d(np.arange(tpl.m), failed)
        assert report.d_star[others].tobytes() == clean.d_star[others].tobytes()
        assert report.multipliers[others].tobytes() == clean.multipliers[others].tobytes()
        assert np.isnan(report.d_star[failed]).all() and report.facet_feasible.all()

    def test_synthesize_stalls_with_the_failure_recorded(self, monkeypatch):
        fld, rect, normals, ref = fitzhugh_nagumo()
        m = normals.shape[0]
        fail_facet_programs(monkeypatch, {m + 1})  # facet 1 of the second pass
        trace = synthesize(
            fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref)
        )
        assert trace.status == STALLED
        assert trace.n_iterations == 2
        assert trace.records[0].failures == {}
        assert trace.records[1].failures == {1: "injected"}
        assert not trace.records[1].invariant and trace.records[1].t_star is None


class TestFailedPhaseTwo:
    """A failed dual simplex run: a support direction, or the facet program
    of a later pass."""

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_repair_raises_and_ends_the_sweep(self, monkeypatch, k):
        # the directions fail at k and at 4: the first in order raises
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        tpl = PolytopeTemplate(normals, [1.0, 1.0, 1.0, 1.0, 5.0])
        count = fail_dual_runs(monkeypatch, {k, 4})
        with pytest.raises(NumericalFailure, match=f"^injected at {k}$"):
            repair_offsets(tpl, Rectangle([-2.0, -2.0], [2.0, 2.0]))
        assert count[0] == 5

    def test_synthesize_stalls_on_a_failed_facet_program(self, monkeypatch):
        # the failure hits the dual simplex phase of facet 1's program in the
        # second pass
        fld, rect, normals, ref = fitzhugh_nagumo()
        real = invariance.verify
        passes = [0]

        def verify_pass(*args):
            passes[0] += 1
            if passes[0] == 2:
                fail_facet_programs(monkeypatch, {1})
            return real(*args)

        monkeypatch.setattr(invariance, "verify", verify_pass)
        trace = synthesize(
            fld, rect, PolytopeTemplate(normals), SynthesisParams(reference_point=ref)
        )
        assert trace.status == STALLED
        assert trace.n_iterations == 2
        assert trace.records[0].failures == {}
        assert trace.records[1].failures == {1: "injected"}


class TestCli:
    def test_verify_reports_the_failed_facet(self, models_dir, tmp_path, monkeypatch, capsys):
        model = str(models_dir / "fitzhugh_nagumo.json")
        poly_path = tmp_path / "polytope.json"
        report_path = tmp_path / "report.json"
        assert main(["synthesize", model, "--polytope", str(poly_path)]) == 0
        capsys.readouterr()
        fail_facet_programs(monkeypatch, {3})
        code = main(["verify", model, "--polytope", str(poly_path), "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict = not_verified" in out
        assert "facet 3: failed (injected)" in out
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        facet = report["facets"][3]
        assert facet["error"] == "injected" and facet["d_star"] is None
        others = [f for i, f in enumerate(report["facets"]) if i != 3]
        assert all("error" not in f and f["d_star"] is not None for f in others)

    def test_bound_exits_2(self, models_dir, monkeypatch, capsys):
        monkeypatch.setattr(lpsolve, "kkt_residuals", residuals(gap=1.0))
        code = main(["bound", str(models_dir / "constrained_3d.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: numerical failure: optimal basis failed the KKT")
        assert captured.out == ""
