import json
import warnings

import jsonschema
import numpy as np
import pytest

from polyvar.cli import main, polygon_vertices
from polyvar.files import (
    MODEL_SCHEMA,
    POLYTOPE_SCHEMA,
    PROBLEM_SCHEMA,
    REPORT_SCHEMA,
    dump_json,
    load_model,
    load_problem,
)
from polyvar.invariance import PolytopeTemplate


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
        assert len(polytope["vertices"]) == 8
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


class TestInputValidation:
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


class TestPolygonVertices:
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

    def test_requires_two_dimensions(self):
        tpl = PolytopeTemplate(np.eye(3), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            polygon_vertices(tpl)
