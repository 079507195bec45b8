import copy
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from polyvar import files
from polyvar.cli import main, polygon_vertices
from polyvar.files import (
    MODEL_SCHEMA,
    POLYTOPE_SCHEMA,
    PROBLEM_SCHEMA,
    REPORT_SCHEMA,
    InputError,
    dump_json,
    load_model,
    load_polytope,
    load_problem,
)
from polyvar.invariance import PolytopeTemplate, _reach


def write_json(path, payload) -> str:
    path.write_text(dump_json(payload))
    return str(path)


def constant_problem(tmp_path, value=4.25):
    payload = {
        "schema_version": "1",
        "polynomial": [{"exponents": [0, 0], "coefficient": value}],
        "rectangle": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    return write_json(tmp_path / "constant.json", payload)


def schema_message(path, schema):
    """jsonschema's verdict on the file at ``path``: its best-matching error
    message, or None when the file is valid."""
    try:
        jsonschema.validate(json.loads(Path(path).read_text()), schema)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def term_cases(n):
    """``(id, record)`` for term records in ``n`` variables, each malformed
    in one way, except that the schema takes the exponent ``2.0`` as an
    integer, so that record is valid."""
    pad = [0] * (n - 1)
    return [
        ("coefficient-bool", {"exponents": [1, *pad], "coefficient": True}),
        ("coefficient-string", {"exponents": [1, *pad], "coefficient": "1.0"}),
        ("coefficient-null", {"exponents": [1, *pad], "coefficient": None}),
        ("exponent-float-integral", {"exponents": [2.0, *pad], "coefficient": 1.0}),
        ("exponent-float", {"exponents": [0.5, *pad], "coefficient": 1.0}),
        ("exponent-negative", {"exponents": [-1, *pad], "coefficient": 1.0}),
        ("exponent-bool", {"exponents": [True, *pad], "coefficient": 1.0}),
        ("exponents-not-array", {"exponents": 1, "coefficient": 1.0}),
        ("missing-coefficient", {"exponents": [1, *pad]}),
        ("missing-exponents", {"coefficient": 1.0}),
        ("extra-key", {"exponents": [1, *pad], "coefficient": 1.0, "note": "x"}),
        ("term-number", 1.0),
        ("term-array", [[1, *pad], 1.0]),
        ("term-null", None),
    ]


TERM = {"exponents": [1], "coefficient": 1.0}
PLANAR_TERM = {"exponents": [0, 1], "coefficient": -1.0}


def problem_with(*terms, polynomial=None, **extra) -> dict:
    """A one-variable problem whose polynomial is ``TERM`` and ``terms``
    (or ``polynomial`` when given), with ``extra`` top-level members."""
    return {
        "schema_version": "1",
        "polynomial": [TERM, *terms] if polynomial is None else polynomial,
        "rectangle": {"lower": [0.0], "upper": [1.0]},
        **extra,
    }


class TestBoundCommand:
    def test_constrained_3d_benchmark(self, models_dir, capsys):
        code = main(["bound", str(models_dir / "constrained_3d.json")])
        out = capsys.readouterr().out
        assert code == 0
        d_star = float(out.splitlines()[0].split("=")[1])
        assert d_star == pytest.approx(-120.0, abs=1e-6)

    def test_quartic_benchmark(self, models_dir, capsys):
        code = main(["bound", str(models_dir / "quartic_unconstrained.json")])
        out = capsys.readouterr().out
        assert code == 0
        d_star = float(out.splitlines()[0].split("=")[1])
        assert d_star == pytest.approx(-837.5, abs=1e-6)

    def test_constant_polynomial(self, tmp_path, capsys):
        code = main(["bound", constant_problem(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(4.25)

    def test_oracle_flag_and_report(self, models_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "bound",
                str(models_dir / "constrained_3d.json"),
                "--oracle",
                "--steps",
                "21",
                "--report",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "grid_min" in out
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["oracle"]["value"] >= report["d_star"] - 1e-9

    def test_oracle_grid_too_large_exit_2(self, models_dir, capsys):
        # 10**18 grid points: refused before any allocation
        argv = ["bound", str(models_dir / "constrained_3d.json"), "--oracle", "--steps", "1000000"]
        assert main(argv) == 2
        assert "steps_per_axis" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bound", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"schema_version": "1"})
        assert main(["bound", path]) == 2

    def test_infeasible_region_exit_2(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": 1.0}],
            "rectangle": {"lower": [0.0], "upper": [1.0]},
            "inequalities": [{"a": [1.0], "b": -5.0}],
        }
        path = write_json(tmp_path / "infeasible.json", payload)
        assert main(["bound", path]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_nan_certificate_exit_2_without_report(self, tmp_path):
        # the subnormal row overflows its dual to NaN, which the KKT
        # self-check refuses; run in a process of its own, where NumPy's
        # overflow warning stays a warning
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": 1.0}],
            "rectangle": {"lower": [0.0], "upper": [1.0]},
            "inequalities": [{"a": [-2.225073858507e-311], "b": 0.0, "op": "<="}],
        }
        path = write_json(tmp_path / "subnormal_row.json", payload)
        report = tmp_path / "report.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "polyvar.cli", "bound", path, "--report", str(report)],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 2
        assert run.stderr.splitlines()[-1] == (
            "error: numerical failure: optimal basis failed the KKT self-check: "
            "primal=0.00e+00 dual=nan gap=nan"
        )
        assert run.stdout == ""
        assert not report.exists()

    def test_ge_rows_negated(self, tmp_path):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": 1.0}],
            "rectangle": {"lower": [-1.0], "upper": [1.0]},
            "inequalities": [{"a": [1.0], "op": ">=", "b": 0.25}],
        }
        _, _, cs = load_problem(write_json(tmp_path / "ge.json", payload))
        assert np.allclose(cs.a, [[-1.0]])
        assert cs.b == pytest.approx([-0.25])


class TestTermRecords:
    """Each term record is read once; equal exponents are summed in record
    order, and a sum of exactly 0 is dropped before the degrees are taken."""

    def load(self, tmp_path, polynomial):
        problem = {**problem_with(polynomial=polynomial), "rectangle": {
            "lower": [0.0, 0.0], "upper": [1.0, 1.0]}}
        poly, _, _ = load_problem(write_json(tmp_path / "terms.json", problem))
        return poly

    def test_duplicates_summed_in_record_order(self, tmp_path):
        records = [([2, 1], 1.0), ([0, 1], 3.0), ([2.0, 1], 1e16), ([2, 1], -1e16)]
        poly = self.load(tmp_path, [{"exponents": e, "coefficient": c} for e, c in records])
        # (1.0 + 1e16) - 1e16 is 0.0 in floats
        assert poly.terms == {(0, 1): 3.0}
        assert poly.degrees == (0, 1)
        records = [([2.0, 1], 1e16), ([0, 1], 3.0), ([2, 1], -1e16), ([2, 1], 1.0)]
        poly = self.load(tmp_path, [{"exponents": e, "coefficient": c} for e, c in records])
        assert list(poly.terms.items()) == [((2, 1), 1.0), ((0, 1), 3.0)]
        assert poly.degrees == (2, 1)

    def test_zero_sum_lowers_the_degree(self, tmp_path):
        records = [([3, 0], 1.5), ([1, 2], 1.0), ([3, 0], -1.5)]
        poly = self.load(tmp_path, [{"exponents": e, "coefficient": c} for e, c in records])
        assert poly.terms == {(1, 2): 1.0}
        assert poly.degrees == (1, 2)

    @pytest.mark.parametrize("exponent", [2**63, 10**400, 1e300])
    def test_exponent_beyond_int64_is_above_the_lift_cap(self, tmp_path, exponent):
        polynomial = [{"exponents": [1, 0], "coefficient": 1.0},
                      {"exponents": [0, exponent], "coefficient": 2.0}]
        with pytest.raises(InputError, match=r"polynomial: term 1 has an exponent on axis 1 "
                                             r"above the lift cap 100$"):
            self.load(tmp_path, polynomial)

    def test_first_faulty_record_named(self, tmp_path):
        # a coefficient beyond the floats before a record of the wrong length
        polynomial = [{"exponents": [1, 0], "coefficient": 10**400},
                      {"exponents": [1], "coefficient": 1.0}]
        with pytest.raises(InputError, match=r"polynomial: term \[1, 0\] coefficient: "):
            self.load(tmp_path, polynomial)
        with pytest.raises(InputError, match=r"polynomial: term \[1\] has 1 exponents, "):
            self.load(tmp_path, polynomial[::-1])


class TestVerifyCommand:
    def test_linear_model_invariant(self, models_dir, capsys):
        code = main(["verify", str(models_dir / "linear_decay.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict = invariant" in out

    def test_not_certified_exit_1(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        # reverse the flow: outward field is never certified
        model["field"] = [
            [{"exponents": [1, 0], "coefficient": 1.0}],
            [{"exponents": [0, 1], "coefficient": 1.0}],
        ]
        path = write_json(tmp_path / "outward.json", model)
        report_path = tmp_path / "report.json"
        code = main(["verify", path, "--report", str(report_path)])
        assert code == 1
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["verdict"] == "not_verified"

    def test_polytope_outside_rectangle_exit_2(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["template"]["offsets"] = [3.0, 1.0, 1.0, 1.0]
        path = write_json(tmp_path / "outside.json", model)
        assert main(["verify", path]) == 2
        assert "not contained" in capsys.readouterr().err

    def test_missing_offsets_exit_2(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        del model["template"]["offsets"]
        path = write_json(tmp_path / "no_offsets.json", model)
        assert main(["verify", path]) == 2

    def test_report_written_and_valid(self, models_dir, tmp_path):
        report_path = tmp_path / "verify.json"
        assert main(["verify", str(models_dir / "linear_decay.json"), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert all(f["feasible"] for f in report["facets"])


class TestSynthesizeCommand:
    def test_trivial_linear_model(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        del model["template"]["offsets"]
        path = write_json(tmp_path / "lin.json", model)
        report_path = tmp_path / "report.json"
        code = main(["synthesize", path, "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status = invariant_found" in out
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert len(report["iterations"]) == 1

    def test_neuron_model_round_trip(self, models_dir, tmp_path, capsys):
        poly_path = tmp_path / "polytope.json"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "synthesize",
                str(models_dir / "fitzhugh_nagumo.json"),
                "--report",
                str(report_path),
                "--polytope",
                str(poly_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        polytope = json.loads(poly_path.read_text())
        jsonschema.validate(polytope, POLYTOPE_SCHEMA)
        # two of the eight diagonal facets touch the polygon at a corner
        assert len(polytope["vertices"]) == 6
        # round trip: the synthesized polytope must verify
        code = main(
            ["verify", str(models_dir / "fitzhugh_nagumo.json"), "--polytope", str(poly_path)]
        )
        capsys.readouterr()
        assert code == 0

    def test_polygon_validity(self, models_dir, tmp_path, capsys):
        poly_path = tmp_path / "polytope.json"
        main(["synthesize", str(models_dir / "fitzhugh_nagumo.json"), "--polytope", str(poly_path)])
        capsys.readouterr()
        data = json.loads(poly_path.read_text())
        normals = np.array(data["normals"])
        offsets = np.array(data["offsets"])
        verts = np.array(data["vertices"])
        # every vertex satisfies every inequality
        assert np.all(verts @ normals.T <= offsets[None, :] + 1e-8)
        # strict counterclockwise order
        m = len(verts)
        for i in range(m):
            u = verts[i] - verts[i - 1]
            v = verts[(i + 1) % m] - verts[i]
            assert u[0] * v[1] - u[1] * v[0] > 0.0

    def test_uniform_template_flag(self, models_dir, tmp_path, capsys):
        poly_path = tmp_path / "poly.json"
        code = main(
            [
                "synthesize",
                str(models_dir / "fitzhugh_nagumo.json"),
                "--template",
                "uniform:12",
                "--polytope",
                str(poly_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(poly_path.read_text())
        assert len(data["normals"]) == 12

    def test_plankton_model_halfspace_export(self, models_dir, tmp_path, capsys):
        poly_path = tmp_path / "poly3d.json"
        code = main(
            ["synthesize", str(models_dir / "phytoplankton.json"), "--polytope", str(poly_path)]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(poly_path.read_text())
        jsonschema.validate(data, POLYTOPE_SCHEMA)
        assert len(data["normals"]) == 18
        assert "vertices" not in data  # polygon export is 2-D only

    def test_empty_initial_polytope_exit_2(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["template"]["offsets"] = [1.0, 1.0, -2.0, 1.0]
        path = write_json(tmp_path / "empty.json", model)
        assert main(["synthesize", path]) == 2
        assert "empty" in capsys.readouterr().err.lower()

    def test_iteration_limit_exit_1(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "fitzhugh_nagumo.json").read_text())
        model["params"] = {"max_iter": 1}
        path = write_json(tmp_path / "budget.json", model)
        report_path = tmp_path / "report.json"
        code = main(["synthesize", path, "--report", str(report_path)])
        capsys.readouterr()
        assert code == 1
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["status"] == "iteration_limit"
        assert report["verdict"] == "not_verified"

    def test_schema_version_mismatch_exit_2(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["schema_version"] = "2"
        path = write_json(tmp_path / "vers.json", model)
        assert main(["verify", path]) == 2

    def test_report_determinism(self, models_dir, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["synthesize", str(models_dir / "fitzhugh_nagumo.json"), "--report", str(r1)])
        main(["synthesize", str(models_dir / "fitzhugh_nagumo.json"), "--report", str(r2)])
        capsys.readouterr()
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert dump_json(a) == dump_json(b)


# Status and iteration count of every bundled synthesis.  The offsets move in
# their last bits whenever the pivot path of a support or offset-step program
# changes, and that can change a trajectory, so these are pinned.
BUNDLED_OUTCOMES = [
    ("fitzhugh_nagumo", None, "invariant_found", 2),
    ("phytoplankton", None, "invariant_found", 2),
    ("linear_decay", None, "invariant_found", 1),
    ("fitzhugh_nagumo", "uniform:3", "stalled", 8),
    ("fitzhugh_nagumo", "uniform:4", "stalled", 4),
    ("fitzhugh_nagumo", "uniform:5", "stalled", 9),
    ("fitzhugh_nagumo", "uniform:6", "stalled", 13),
    ("fitzhugh_nagumo", "uniform:8", "invariant_found", 2),
    ("fitzhugh_nagumo", "uniform:32", "invariant_found", 2),
    ("fitzhugh_nagumo", "uniform:64", "invariant_found", 2),
]


@pytest.mark.parametrize("model, template, status, iterations", BUNDLED_OUTCOMES)
def test_bundled_synthesis_outcome(models_dir, tmp_path, capsys, model, template, status, iterations):
    path = str(models_dir / f"{model}.json")
    report_path, poly_path = tmp_path / "report.json", tmp_path / "polytope.json"
    argv = ["synthesize", path, "--report", str(report_path), "--polytope", str(poly_path)]
    code = main(argv + (["--template", template] if template else []))
    report = json.loads(report_path.read_text())
    assert (report["status"], len(report["iterations"])) == (status, iterations)
    assert code == (0 if status == "invariant_found" else 1)
    if code == 0:
        assert main(["verify", path, "--polytope", str(poly_path)]) == 0
    capsys.readouterr()


def small_triangle_model(tmp_path, offsets=None) -> str:
    """``f_x = 0.1 - 1e10 x + 1e20 x^2``, ``f_y = 0.1 - 1e10 y`` on
    ``[0, 1e-10]^2`` with the triangle normals ``(1, 1)``, ``-e_1`` and
    ``-e_2``.  The polytope of the offsets ``(1.5e-10, 0, 0)`` leaves the
    rectangle at ``(1.5e-10, 0)``, where ``n.f = 0.95 > 0`` on its first
    facet."""
    model = {
        "schema_version": "1",
        "variables": ["x", "y"],
        "field": [
            [{"coefficient": 0.1, "exponents": [0, 0]},
             {"coefficient": -1e10, "exponents": [1, 0]},
             {"coefficient": 1e20, "exponents": [2, 0]}],
            [{"coefficient": 0.1, "exponents": [0, 0]},
             {"coefficient": -1e10, "exponents": [0, 1]}],
        ],
        "rectangle": {"lower": [0.0, 0.0], "upper": [1e-10, 1e-10]},
        "reference_point": [3e-11, 3e-11],
        "template": {"normals": [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]},
    }
    if offsets is not None:
        model["template"]["offsets"] = offsets
    return write_json(tmp_path / "triangle.json", model)


class TestSmallRectangle:
    """Containment is measured by the rectangle: a polytope half a width
    outside a rectangle 1e-10 wide is outside, as it is at width 1."""

    def test_verify_refuses_the_polytope_outside(self, tmp_path, capsys):
        assert main(["verify", small_triangle_model(tmp_path, [1.5e-10, 0.0, 0.0])]) == 2
        assert "not contained" in capsys.readouterr().err

    def test_synthesize_keeps_every_polytope_inside(self, tmp_path, capsys):
        path = small_triangle_model(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["synthesize", path, "--report", str(report_path)])
        capsys.readouterr()
        assert code in (0, 1)
        report = json.loads(report_path.read_text())
        model = load_model(path)
        sides = np.concatenate([model.rectangle.upper, -model.rectangle.lower])
        for offsets in [rec["offsets"] for rec in report["iterations"]] + [report["final_offsets"]]:
            assert np.all(_reach(model.template.with_offsets(np.array(offsets))) <= sides)


class TestSchemas:
    def test_model_files_validate(self, models_dir):
        for name in ("fitzhugh_nagumo.json", "phytoplankton.json", "linear_decay.json"):
            raw = json.loads((models_dir / name).read_text())
            jsonschema.validate(raw, MODEL_SCHEMA)
            load_model(models_dir / name)

    def test_problem_files_validate(self, models_dir):
        for name in ("constrained_3d.json", "quartic_unconstrained.json"):
            raw = json.loads((models_dir / name).read_text())
            jsonschema.validate(raw, PROBLEM_SCHEMA)
            load_problem(models_dir / name)

    def test_reference_point_inside_enforced(self, models_dir, tmp_path):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["reference_point"] = [5.0, 0.0]
        path = write_json(tmp_path / "ref.json", model)
        assert main(["verify", path]) == 2


class TestPublishedSchemas:
    def test_docs_match_source_constants(self, models_dir):
        docs = models_dir.parent / "docs"
        from polyvar.files import MODEL_SCHEMA, POLYTOPE_SCHEMA, PROBLEM_SCHEMA, REPORT_SCHEMA

        published = {
            "problem.schema.json": PROBLEM_SCHEMA,
            "model.schema.json": MODEL_SCHEMA,
            "report.schema.json": REPORT_SCHEMA,
            "polytope.schema.json": POLYTOPE_SCHEMA,
        }
        for name, schema in published.items():
            assert json.loads((docs / name).read_text()) == schema

    def test_schemas_match_their_metaschema(self):
        for schema in (PROBLEM_SCHEMA, MODEL_SCHEMA, REPORT_SCHEMA, POLYTOPE_SCHEMA):
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_loads_never_recheck_the_schema(self, models_dir, tmp_path, monkeypatch):
        def refuse(schema):
            raise AssertionError("check_schema called on load")

        for schema in (PROBLEM_SCHEMA, MODEL_SCHEMA, POLYTOPE_SCHEMA):
            monkeypatch.setattr(jsonschema.validators.validator_for(schema), "check_schema", refuse)
        load_problem(models_dir / "constrained_3d.json")
        load_model(models_dir / "linear_decay.json")
        poly = {"schema_version": "1", "normals": [[1.0, 0.0], [-1.0, 0.0]], "offsets": [1.0, 1.0]}
        load_polytope(write_json(tmp_path / "poly.json", poly))
        with pytest.raises(InputError):
            load_problem(write_json(tmp_path / "bad.json", {"schema_version": "1"}))

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema_version": "1"},
            {"schema_version": "2", "polynomial": [], "rectangle": {"lower": [0], "upper": [1]}},
            {"schema_version": "1", "polynomial": [{"exponents": [-1], "coefficient": 1}],
             "rectangle": {"lower": [0], "upper": [1]}, "extra": 1},
        ]
        + [pytest.param(problem_with(term), id=name) for name, term in term_cases(1)]
        + [
            pytest.param(problem_with(polynomial=TERM), id="polynomial-object"),
            pytest.param(problem_with(polynomial="x^2"), id="polynomial-string"),
            pytest.param(
                {"schema_version": "1", "rectangle": {"lower": [0], "upper": [1]}},
                id="no-polynomial",
            ),
            pytest.param(
                problem_with({"exponents": [1], "coefficient": "1"}, extra=1),
                id="bad-term-and-extra-key",
            ),
            pytest.param(
                {"schema_version": "1", "polynomial": [{"exponents": [-1], "coefficient": 1}]},
                id="bad-term-and-no-rectangle",
            ),
        ],
    )
    def test_error_text_is_the_best_match(self, tmp_path, payload):
        path = write_json(tmp_path / "bad.json", payload)
        message = schema_message(path, PROBLEM_SCHEMA)
        if message is None:
            load_problem(path)
            return
        with pytest.raises(InputError) as raised:
            load_problem(path)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"field": [[PLANAR_TERM], [PLANAR_TERM, term]]}, id=name)
            for name, term in term_cases(2)
        ]
        + [
            pytest.param({"field": PLANAR_TERM}, id="field-object"),
            pytest.param({"field": [[PLANAR_TERM], PLANAR_TERM]}, id="component-object"),
            pytest.param(
                {"field": [[PLANAR_TERM], [{"exponents": [0, -1], "coefficient": 1}]],
                 "rectangle": {"lower": [0.0, 0.0]}},
                id="bad-term-and-bad-rectangle",
            ),
        ],
    )
    def test_model_error_text_is_the_best_match(self, models_dir, tmp_path, edit):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        path = write_json(tmp_path / "bad.json", {**model, **edit})
        message = schema_message(path, MODEL_SCHEMA)
        if message is None:
            load_model(path)
            return
        with pytest.raises(InputError) as raised:
            load_model(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_schema_work_does_not_grow_with_the_term_count(self, tmp_path, monkeypatch):
        # an accepted file never reaches jsonschema: no descend call for a
        # problem, a model or a polytope, at 1 term (facet) and at 2000
        validator_class = jsonschema.validators.validator_for(PROBLEM_SCHEMA)
        descend = validator_class.descend
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return descend(self, *args, **kwargs)

        monkeypatch.setattr(validator_class, "descend", counting)
        box = {"lower": [-1.0] * 3, "upper": [1.0] * 3}
        for count in (1, 2000):
            terms = [{"exponents": [k % 7, k // 7 % 7, k // 49], "coefficient": 0.5 + k}
                     for k in range(count)]
            problem = {**problem_with(polynomial=terms), "rectangle": box}
            load_problem(write_json(tmp_path / "problem.json", problem))
            model = {
                "schema_version": "1", "variables": ["x", "y", "z"], "field": [terms] * 3,
                "rectangle": box, "template": {"normals": np.vstack([np.eye(3), -np.eye(3)])},
                "reference_point": [0.0] * 3,
            }
            load_model(write_json(tmp_path / "model.json", model))
            normals = np.column_stack([np.cos(np.arange(count + 2)), np.sin(np.arange(count + 2))])
            polytope = {"schema_version": "1", "normals": normals, "offsets": [1.0] * (count + 2)}
            load_polytope(write_json(tmp_path / "polytope.json", polytope))
        assert calls == []
        with pytest.raises(InputError):
            load_problem(write_json(tmp_path / "bad.json", problem_with(extra=1)))
        assert calls

    def test_jsonschema_imported_only_for_a_rejection(self, models_dir, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"schema_version": "1"})
        script = (
            "import contextlib, io, sys\n"
            "import polyvar.cli\n"
            "seen = ['jsonschema' in sys.modules]\n"
            "for path in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        with contextlib.redirect_stderr(io.StringIO()):\n"
            "            code = polyvar.cli.main(['bound', path])\n"
            "    seen.append((code, 'jsonschema' in sys.modules))\n"
            "print(seen)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        out = subprocess.run(
            [sys.executable, "-c", script, str(models_dir / "constrained_3d.json"), bad],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.strip() == "[False, (0, False), (2, True)]"

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "number", "maximum": 1},
            {"type": "integer", "multipleOf": 2},
            {"type": "string", "pattern": "^x"},
            {"type": "array", "items": {"type": "number"}, "maxItems": 2},
            {"type": "array", "items": {"type": "number", "exclusiveMaximum": 0}},
            {"type": "object", "properties": {}, "additionalProperties": {"type": "number"}},
            {"type": "object", "properties": {"a": {"$ref": "#"}}},
            {"type": "object", "patternProperties": {"^x": {"type": "number"}}},
            {"type": ["number", "null"]},
            {"type": "boolean"},
            {"const": 1},
            {"enum": ["<=", 0]},
            {"const": "1", "enum": ["1", "2"]},
            {},
        ],
    )
    def test_plain_check_refuses_unknown_keywords(self, schema):
        # a schema edit that the plain check cannot follow fails at import,
        # instead of leaving the check looser than the schema
        with pytest.raises(ValueError, match="no plain check"):
            files._compile(schema)

    def test_bundled_files_take_the_plain_check(self, models_dir):
        paths = sorted(models_dir.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            raw = json.loads(path.read_text())
            assert files._ACCEPTS["problem" if "polynomial" in raw else "model"](raw), path.name


class TestSharedParser:
    """``main`` reuses one argument parser; no call may see another's flags."""

    def test_bound_oracle_flags_do_not_carry_over(self, models_dir, tmp_path, capsys):
        problem = str(models_dir / "constrained_3d.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["bound", problem, "--oracle", "--steps", "7", "--report", str(a)]) == 0
        assert main(["bound", problem, "--report", str(b)]) == 0
        capsys.readouterr()
        assert json.loads(a.read_text())["oracle"]["steps_per_axis"] == 7
        assert "oracle" not in json.loads(b.read_text())

    def test_synthesize_template_does_not_carry_over(self, models_dir, tmp_path, capsys):
        model = str(models_dir / "linear_decay.json")
        first, second, fresh = (tmp_path / f"{name}.json" for name in ("first", "second", "fresh"))
        assert main(["synthesize", model, "--template", "uniform:8", "--report", str(first)]) == 0
        assert main(["synthesize", model, "--report", str(second)]) == 0
        capsys.readouterr()
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        subprocess.run(
            [sys.executable, "-m", "polyvar.cli", "synthesize", model, "--report", str(fresh)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        reports = [json.loads(path.read_text()) for path in (first, second, fresh)]
        for report in reports:
            report.pop("wall_time_s")
        assert len(reports[0]["final_offsets"]) == 8
        assert dump_json(reports[1]) == dump_json(reports[2])


def power_file(tmp_path, command, exponents) -> str:
    """A ``bound`` problem, or a model for the other commands, over
    ``len(exponents)`` variables with the single term ``x^exponents`` (in
    every field component of the model, which has a box template)."""
    n = len(exponents)
    rect = {"lower": [-2.0] * n, "upper": [2.0] * n}
    term = {"exponents": list(exponents), "coefficient": 1.0}
    if command == "bound":
        payload = {"schema_version": "1", "polynomial": [term], "rectangle": rect}
    else:
        eye = np.eye(n)
        payload = {
            "schema_version": "1",
            "variables": [f"x{k}" for k in range(n)],
            "field": [[term] for _ in range(n)],
            "rectangle": rect,
            "template": {"normals": np.vstack([eye, -eye]), "offsets": [1.0] * (2 * n)},
            "reference_point": [0.0] * n,
        }
    return write_json(tmp_path / f"{command}.json", payload)


class TestLiftCaps:
    """Oversized lifts are refused before their arrays exist (exit 2)."""

    @pytest.mark.parametrize(
        "command, name",
        [("bound", "polynomial"), ("verify", "vector field"), ("synthesize", "vector field")],
    )
    @pytest.mark.parametrize(
        "exponents, what",
        [
            ((1600,), "term 0 has an exponent on axis 0 above the lift cap 100"),
            ((800, 0), "term 0 has an exponent on axis 0 above the lift cap 100"),
            ((3,) * 9, "262144 vertex classes"),
        ],
        ids=["degree-1600", "degree-800", "classes-4^9"],
    )
    def test_refused_fast_with_exit_2(self, tmp_path, capsys, command, name, exponents, what):
        path = power_file(tmp_path, command, exponents)
        start = time.perf_counter()
        code = main([command, path])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        # an exponent above the degree cap is refused as the file loads, with
        # the file and the term named; too many classes, as the lift forms
        if max(exponents) > 100:
            name = f"{path}: " + ("polynomial" if command == "bound" else "field[0]")
        assert err.startswith(f"error: {name}: ") and what in err
        assert elapsed < 1.0


class TestFarBox:
    """``x^30`` over [1e12, 1e12 + 1] leaves the float range in the Bernstein
    conversion: exit 2 with an error line that names the polynomial or the
    field component, and no traceback."""

    @pytest.mark.parametrize(
        "command, name",
        [
            ("bound", "polynomial"),
            ("verify", "vector field component 0"),
            ("synthesize", "vector field component 0"),
        ],
    )
    def test_exit_2(self, tmp_path, capsys, command, name):
        lo = 1e12
        term = {"exponents": [30], "coefficient": 1.0}
        rect = {"lower": [lo], "upper": [lo + 1.0]}
        if command == "bound":
            payload = {"schema_version": "1", "polynomial": [term], "rectangle": rect}
        else:
            payload = {
                "schema_version": "1",
                "variables": ["x"],
                "field": [[term]],
                "rectangle": rect,
                "template": {"normals": [[1.0], [-1.0]], "offsets": [lo + 0.75, -(lo + 0.25)]},
                "reference_point": [lo + 0.5],
            }
        code = main([command, write_json(tmp_path / "far.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {name}: Bernstein coefficients over the rectangle")
        assert captured.out == ""


class TestOverflowingLift:
    """Constraint or facet values at the class points beyond the float range,
    though every input number is finite: exit 2 with one error line naming
    the polynomial or the field, and no warning."""

    def test_bound(self, tmp_path, capsys):
        # x^2 - x on [0, 2] with 1e308 x <= 1e308: the region x <= 1 is
        # nonempty, but the class point x = 2 gives 2e308
        payload = problem_with(
            polynomial=[
                {"exponents": [2], "coefficient": 1.0},
                {"exponents": [1], "coefficient": -1.0},
            ],
            inequalities=[{"a": [1e308], "b": 1e308}],
        )
        payload["rectangle"] = {"lower": [0.0], "upper": [2.0]}
        code = main(["bound", write_json(tmp_path / "over.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: polynomial: constraint values at the class points overflow the float range\n"
        )
        assert captured.out == ""

    def test_verify(self, tmp_path, capsys):
        # facet 0's cost -n . f = 1e308 x reaches 2e308 at x = 2
        payload = {
            "schema_version": "1",
            "variables": ["x"],
            "field": [[{"exponents": [1], "coefficient": -1.0}]],
            "rectangle": {"lower": [0.0], "upper": [2.0]},
            "template": {"normals": [[1e308], [-1.0]], "offsets": [1e308, 0.0]},
            "reference_point": [0.5],
        }
        code = main(["verify", write_json(tmp_path / "over.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: vector field: facet costs overflow the float range\n"

    def test_synthesize_caps_name_the_normals(self, tmp_path, capsys):
        # no offsets: the default caps are the rectangle's support values,
        # and 1e308 x reaches 2e308 at x = 2
        payload = {
            "schema_version": "1",
            "variables": ["x"],
            "field": [[{"exponents": [1], "coefficient": -1.0}]],
            "rectangle": {"lower": [0.0], "upper": [2.0]},
            "template": {"normals": [[1e308], [-1.0]]},
            "reference_point": [1.0],
        }
        code = main(["synthesize", write_json(tmp_path / "over.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: template normals: rectangle support values overflow the float range\n"
        )

    def test_verify_containment_residuals(self, tmp_path, capsys):
        # the containment sweep's slack h - G x of the row -1.7e308 x <=
        # 1.7e308 at x = 1 is 3.4e308: a loose row, whose slack overflows
        # to inf without a warning
        payload = {
            "schema_version": "1",
            "variables": ["x"],
            "field": [[{"exponents": [1], "coefficient": -1.0}]],
            "rectangle": {"lower": [-1.0], "upper": [1.0]},
            "template": {"normals": [[1.7e308], [-1.7e308]], "offsets": [1.7e308, 1.7e308]},
            "reference_point": [0.0],
        }
        code = main(["verify", write_json(tmp_path / "over.json", payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: vector field: facet values at the class points overflow the float range\n"
        )


class TestInputValidation:
    def test_non_utf8_file_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": "1", "note": "\xff"}')
        with pytest.raises(InputError, match="latin1.json"):
            load_problem(path)
        assert main(["bound", str(path)]) == 2
        assert f"error: {path} is not UTF-8 text" in capsys.readouterr().err

    def test_polytope_dimension_mismatch_exit_2(self, models_dir, tmp_path, capsys):
        poly = {
            "schema_version": "1",
            "normals": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            "offsets": [1.0, 1.0],
        }
        path = write_json(tmp_path / "poly3.json", poly)
        assert main(["verify", str(models_dir / "linear_decay.json"), "--polytope", path]) == 2

    def test_term_exponent_length_checked(self, tmp_path):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1, 2], "coefficient": 1.0}],
            "rectangle": {"lower": [0.0], "upper": [1.0]},
        }
        assert main(["bound", write_json(tmp_path / "bad_term.json", payload)]) == 2

    def test_degenerate_rectangle_rejected(self, tmp_path):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": 1.0}],
            "rectangle": {"lower": [1.0], "upper": [1.0]},
        }
        assert main(["bound", write_json(tmp_path / "flat.json", payload)]) == 2

    def test_field_component_count_checked(self, models_dir, tmp_path):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["field"] = model["field"][:1]
        assert main(["verify", write_json(tmp_path / "short.json", model)]) == 2

    def test_ragged_model_normals_exit_2(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["template"] = {"normals": [[1.0, 0.0], [1.0]], "offsets": [1.0, 1.0]}
        path = write_json(tmp_path / "ragged.json", model)
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert path in err and "template.normals" in err

    def test_ragged_polytope_normals_exit_2(self, models_dir, tmp_path, capsys):
        poly = {"schema_version": "1", "normals": [[1.0, 0.0], [1.0]], "offsets": [1.0, 1.0]}
        path = write_json(tmp_path / "ragged.json", poly)
        assert main(["verify", str(models_dir / "linear_decay.json"), "--polytope", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: normals" in err

    def test_params_cap_length_checked(self, models_dir, tmp_path):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["params"] = {"b_hi": [1.0, 2.0]}
        assert main(["synthesize", write_json(tmp_path / "caps.json", model)]) == 2


class TestNonFiniteInput:
    """Python's json reads Infinity and NaN; the loaders must reject them."""

    def run_quietly(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        return code, capsys.readouterr().err

    def test_infinite_inequality_offset(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": 1.0}],
            "rectangle": {"lower": [0.0], "upper": [1.0]},
            "inequalities": [{"a": [1.0], "b": float("inf")}],
        }
        path = tmp_path / "b_inf.json"
        path.write_text(json.dumps(payload))
        code, err = self.run_quietly(["bound", str(path)], capsys)
        assert code == 2
        assert "b must be finite" in err

    def test_infinite_coefficient(self, tmp_path, capsys):
        payload = {
            "schema_version": "1",
            "polynomial": [{"exponents": [1], "coefficient": float("inf")}],
            "rectangle": {"lower": [0.0], "upper": [1.0]},
        }
        path = tmp_path / "coef_inf.json"
        path.write_text(json.dumps(payload))
        code, err = self.run_quietly(["bound", str(path)], capsys)
        assert code == 2
        assert "coefficient" in err and "must be finite" in err

    def test_infinite_template_offset(self, models_dir, tmp_path, capsys):
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["template"]["offsets"][0] = float("inf")
        path = tmp_path / "offset_inf.json"
        path.write_text(json.dumps(model))
        code, err = self.run_quietly(["verify", str(path)], capsys)
        assert code == 2
        assert "offsets must be finite" in err

    @pytest.mark.parametrize(
        "model_name, key, value",
        [
            ("linear_decay", "b_hi", [float("inf"), 2.0, 2.0, 2.0]),
            ("phytoplankton", "b_lo", [float("nan")] * 18),
            ("phytoplankton", "epsilon", float("nan")),
            ("phytoplankton", "epsilon", float("inf")),
            ("phytoplankton", "stall_tol", float("nan")),
        ],
        ids=["b_hi-inf", "b_lo-nan", "epsilon-nan", "epsilon-inf", "stall_tol-nan"],
    )
    def test_non_finite_params(self, models_dir, tmp_path, capsys, model_name, key, value):
        model = json.loads((models_dir / f"{model_name}.json").read_text())
        model["template"].pop("offsets", None)
        model.setdefault("params", {})[key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(model))
        code, err = self.run_quietly(["synthesize", str(path)], capsys)
        assert code == 2
        assert f"params.{key} must be finite" in err


class TestOutOfRangeInput:
    """An integer literal beyond the float range, or JSON nested too deep to
    parse: exit 2 with an error line naming the file and the field, and no
    traceback."""

    HUGE = 10**400
    POLYTOPE = {
        "schema_version": "1",
        "normals": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "offsets": [1.0, 1.0, 1.0, 1.0],
    }

    def files_for(self, models_dir, command):
        """``(argv, document)``: the arguments of ``command``, with
        ``{file}`` standing for the path of the edited ``document``."""
        if command == "bound":
            problem = json.loads((models_dir / "constrained_3d.json").read_text())
            problem["equalities"] = [{"c": [1.0, 0.0, 0.0], "d": 0.5}]
            return ["bound", "{file}"], problem
        model = json.loads((models_dir / "linear_decay.json").read_text())
        model["params"] = {"epsilon": 0.1, "b_lo": [0.5] * 4}
        if command == "verify --polytope":
            model_path = str(models_dir / "linear_decay.json")
            return ["verify", model_path, "--polytope", "{file}"], self.POLYTOPE
        return [command, "{file}"], model

    @pytest.mark.parametrize(
        "command, path, field",
        [
            ("bound", ("polynomial", 0, "coefficient"), "polynomial: term"),
            ("bound", ("rectangle", "lower", 1), "rectangle"),
            ("bound", ("inequalities", 0, "a", 2), "inequality vector a"),
            ("bound", ("inequalities", 1, "b"), "inequality bound b"),
            ("bound", ("equalities", 0, "c", 0), "equality vector c"),
            ("bound", ("equalities", 0, "d"), "equality value d"),
        ]
        + [
            (command, path, field)
            for command in ("verify", "synthesize")
            for path, field in [
                (("field", 1, 0, "coefficient"), "field[1]: term"),
                (("rectangle", "upper", 0), "rectangle"),
                (("template", "normals", 2, 1), "template.normals"),
                (("template", "offsets", 3), "template.offsets"),
                (("reference_point", 0), "reference_point"),
                (("params", "epsilon"), "params.epsilon"),
                (("params", "b_lo", 1), "params.b_lo"),
            ]
        ]
        + [
            ("verify --polytope", ("normals", 1, 0), "normals"),
            ("verify --polytope", ("offsets", 2), "offsets"),
        ],
    )
    def test_integer_beyond_the_floats_exit_2(
        self, models_dir, tmp_path, capsys, command, path, field
    ):
        argv, doc = self.files_for(models_dir, command)
        doc = copy.deepcopy(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = self.HUGE
        file = write_json(tmp_path / "huge.json", doc)
        code = main([arg.format(file=file) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {file}: {field}")
        assert captured.out == ""

    @pytest.mark.parametrize("exponent", [101, HUGE])
    @pytest.mark.parametrize(
        "command, path, field",
        [
            ("bound", ("polynomial", 1), "polynomial"),
            ("verify", ("field", 1, 0), "field[1]"),
            ("synthesize", ("field", 1, 0), "field[1]"),
        ],
    )
    def test_exponent_above_the_lift_cap_exit_2(
        self, models_dir, tmp_path, capsys, command, path, field, exponent
    ):
        # refused at load, naming the file and the term, not with the
        # exponent's digits from deep inside the lift
        argv, doc = self.files_for(models_dir, command)
        doc = copy.deepcopy(doc)
        term = doc
        for key in path:
            term = term[key]
        term["exponents"][-1] = exponent
        file = write_json(tmp_path / "steep.json", doc)
        code = main([arg.format(file=file) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        axis = len(term["exponents"]) - 1
        assert captured.err == (
            f"error: {file}: {field}: term {path[-1]} has an exponent on axis {axis} "
            "above the lift cap 100\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["bound", "verify", "synthesize", "verify --polytope"])
    def test_deep_nesting_exit_2(self, models_dir, tmp_path, capsys, command):
        argv, doc = self.files_for(models_dir, command)
        key = min(doc)
        file = tmp_path / "deep.json"
        file.write_text(dump_json({**doc, key: None}).replace("null", "[" * 100000 + "]" * 100000))
        code = main([arg.format(file=file) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {file}: JSON nested too deep to parse\n"


def reference_polygon_vertices(tpl: PolytopeTemplate, tol: float = 1e-9) -> np.ndarray:
    """``polygon_vertices`` one facet pair and one point at a time."""
    lengths = np.hypot(tpl.normals[:, 0], tpl.normals[:, 1])
    normals, offsets = tpl.normals / lengths[:, None], tpl.offsets / lengths
    crossing = [
        (i, j) for i in range(tpl.m) for j in range(i + 1, tpl.m)
        if abs(np.linalg.det(normals[[i, j]])) >= 1e-12
    ]
    # the interior point: the mean of the intersections within tol times the
    # largest offset, with the offsets measured from the origin
    near = [
        x for x in (np.linalg.solve(normals[[i, j]], offsets[[i, j]]) for i, j in crossing)
        if np.all(normals @ x <= offsets + tol * np.abs(offsets).max())
    ]
    center = np.mean(near, axis=0) if near else np.zeros(2)
    shifted = offsets - normals @ center
    scale = float(np.abs(shifted).max())
    points = []
    for i, j in crossing:
        rel = np.linalg.solve(normals[[i, j]], shifted[[i, j]])
        if np.all(normals @ rel <= shifted + tol * scale):
            points.append((np.linalg.solve(normals[[i, j]], offsets[[i, j]]), rel))
    if not points:
        return np.zeros((0, 2))
    unique: list[tuple] = []
    for x, rel in points:
        if not any(np.linalg.norm(rel - u) <= tol * scale for _, u in unique):
            unique.append((x, rel))
    pts = np.array([x for x, _ in unique])
    if pts.shape[0] < 3:
        return pts
    centroid = pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0]))]
    keep = []
    m = pts.shape[0]
    for i in range(m):
        u, v = pts[i] - pts[i - 1], pts[(i + 1) % m] - pts[i]
        if u[0] * v[1] - u[1] * v[0] > tol * scale**2:
            keep.append(i)
    return pts[keep] if keep else pts


def random_polygon_template(rng, kind):
    """A 2-D template of one kind: ``random`` (a polygon around a point),
    ``parallel`` (some normals repeated, scaled or reversed), ``concurrent``
    (extra facets through a vertex, and repeated edges) or ``empty`` (two
    opposite facets with a gap between them)."""
    m = int(rng.integers(3, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    x0 = rng.normal(size=2)
    offsets = normals @ x0 + rng.uniform(0.1, 2.0, size=m)
    if kind == "parallel":
        pick = rng.integers(0, m, size=int(rng.integers(1, 4)))
        factor = rng.choice([1.0, 2.5, -1.0, -0.5], size=pick.size)
        extra = factor[:, None] * normals[pick]
        shift = np.where(rng.integers(0, 2, size=pick.size) == 1, 0.0, rng.uniform(-1.0, 1.0, size=pick.size))
        normals = np.vstack([normals, extra])
        offsets = np.concatenate([offsets, factor * offsets[pick] + np.abs(factor) * shift])
    elif kind == "concurrent":
        verts = reference_polygon_vertices(PolytopeTemplate(normals, offsets))
        vertex = verts[int(rng.integers(0, len(verts)))]
        extra = rng.normal(size=(int(rng.integers(1, 4)), 2))
        # keep only lines through the vertex that miss the polygon's interior
        extra = np.array([a for a in extra if np.all(verts @ a <= a @ vertex + 1e-12)]).reshape(-1, 2)
        pick = rng.integers(0, m, size=2)
        normals = np.vstack([normals, extra, normals[pick]])
        offsets = np.concatenate([offsets, extra @ vertex, offsets[pick]])
    elif kind == "empty":
        a = normals[0]
        normals = np.vstack([normals, -a])
        offsets = np.append(offsets, -(offsets[0] + rng.uniform(1e-6, 1.0)))
    order = rng.permutation(len(offsets))
    return PolytopeTemplate(normals[order], offsets[order])


class TestPolygonVertices:
    @pytest.mark.parametrize("kind", ["random", "parallel", "concurrent", "empty"])
    def test_matches_the_pairwise_reference(self, kind):
        rng = np.random.default_rng(["random", "parallel", "concurrent", "empty"].index(kind))
        counts = set()
        for _ in range(150):
            tpl = random_polygon_template(rng, kind)
            verts = polygon_vertices(tpl)
            np.testing.assert_array_equal(verts, reference_polygon_vertices(tpl))
            counts.add(len(verts))
        assert (counts == {0}) == (kind == "empty")

    def test_square(self):
        tpl = PolytopeTemplate(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
            [1.0, 2.0, 3.0, 4.0],
        )
        verts = polygon_vertices(tpl)
        assert verts.shape == (4, 2)
        assert {tuple(v) for v in np.round(verts, 9)} == {
            (1.0, 2.0),
            (-3.0, 2.0),
            (-3.0, -4.0),
            (1.0, -4.0),
        }

    def test_redundant_halfspace_ignored(self):
        tpl = PolytopeTemplate(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
            [1.0, 1.0, 1.0, 1.0, 10.0],
        )
        verts = polygon_vertices(tpl)
        assert verts.shape == (4, 2)

    @pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-9, 1e-7, 1.0, 1e6, 1e12])
    def test_hexagon_at_any_scale(self, scale):
        # each row is divided by its normal's length, so scaling normals and
        # offsets together keeps every vertex
        angles = np.arange(6) * np.pi / 3
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        unscaled = polygon_vertices(PolytopeTemplate(normals, np.ones(6)))
        assert unscaled.shape == (6, 2)
        verts = polygon_vertices(PolytopeTemplate(scale * normals, scale * np.ones(6)))
        np.testing.assert_allclose(verts, unscaled, rtol=0.0, atol=1e-12)
        # the tolerances follow the polygon's own size, so a scaled polygon
        # keeps every vertex too
        sized = polygon_vertices(PolytopeTemplate(normals, scale * np.ones(6)))
        np.testing.assert_allclose(sized, scale * unscaled, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("corner", [0.0, 1.0, -3.0, 1e3])
    def test_small_triangle_anywhere(self, corner):
        # a triangle 2e-10 across keeps its three vertices at the origin and
        # far from it: the tolerances are measured from the triangle itself
        normals = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        offsets = np.array([2.0 * corner + 2e-10, -corner, -corner])
        verts = polygon_vertices(PolytopeTemplate(normals, offsets))
        assert verts.shape == (3, 2)
        expected = corner + np.array([[0.0, 0.0], [2e-10, 0.0], [0.0, 2e-10]])
        np.testing.assert_allclose(verts, expected, rtol=0.0, atol=1e-15 * (1 + abs(corner)))

    @pytest.mark.parametrize("size", [1.0, 1e-3, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_blunt_apex_at_any_size(self, size):
        # the apex between two facets 0.1 degrees off the horizontal turns by
        # 0.2 degrees: it is a vertex at every size, and the strict
        # counterclockwise check keeps all five
        a = np.radians(0.1)
        normals = np.array([(0, -1), (1, 0), (np.sin(a), np.cos(a)), (-np.sin(a), np.cos(a)), (-1, 0)])
        verts = polygon_vertices(PolytopeTemplate(normals, np.full(5, size)))
        assert verts.shape == (5, 2)
        u = verts - np.roll(verts, 1, axis=0)
        v = np.roll(verts, -1, axis=0) - verts
        assert np.all(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] > 0.0)

    def test_requires_two_dimensions(self):
        tpl = PolytopeTemplate(np.eye(3), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            polygon_vertices(tpl)


def test_bound_and_verify_run_no_phase_one(models_dir, tmp_path, capsys, monkeypatch):
    # every bounding program starts dual feasible: `bound` on the seed-3
    # bound-small and bound-dense benchmark inputs, and verify on the bundled
    # models and on a synthesized FitzHugh-Nagumo polytope, start every LP
    # from the slack basis of its split rows, with nonnegative costs, the
    # LP engine's only start
    from polyvar import lpsolve
    from polyvar.invariance import verify
    from test_tools import benchmark_items

    fhn, polytope = models_dir / "fitzhugh_nagumo.json", tmp_path / "polytope.json"
    assert main(["synthesize", str(fhn), "--polytope", str(polytope)]) == 0
    models = [files.load_model(models_dir / f"{name}.json")
              for name in ("fitzhugh_nagumo", "linear_decay")]
    models[0].template = files.load_polytope(polytope)
    calls = []
    real = lpsolve._dual_start

    def dual_start(stack, pairs):
        calls.append(bool((stack.c >= 0.0).all()) and stack.A.shape[1] == 0)
        return real(stack, pairs)

    monkeypatch.setattr(lpsolve, "_dual_start", dual_start)
    items = benchmark_items("bound-small", 3) + benchmark_items("bound-dense", 3)
    for item in items:
        path = write_json(tmp_path / f"{item['name']}.json", item["payload"])
        code = main(["bound", path, "--report", str(tmp_path / f"{item['name']}.report.json")])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and "infeasible constraint region" in err), err
    for model in models:
        assert verify(model.field, model.rectangle, model.template).invariant
    assert calls and all(calls) and len(items) == 205
