"""JSON file formats: problem files, model files, reports, polytope exports.

All formats carry ``schema_version`` "1" and are validated against the
schemas below before any numeric cross-checks.  Reals are emitted at full
round-trip precision and keys are sorted, so identical inputs produce
byte-identical files (the wall-time field aside).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import jsonschema
import numpy as np

from .invariance import PolytopeTemplate, SynthesisParams, VectorField
from .polynomial import MultiPoly, Rectangle
from .relaxation import ConstraintSet

SCHEMA_VERSION = "1"


class InputError(Exception):
    """Malformed or inconsistent input file (CLI exit code 2)."""


_TERM_SCHEMA = {
    "type": "object",
    "required": ["exponents", "coefficient"],
    "properties": {
        "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "coefficient": {"type": "number"},
    },
    "additionalProperties": False,
}

_POLYNOMIAL_SCHEMA = {"type": "array", "items": _TERM_SCHEMA}

_RECTANGLE_SCHEMA = {
    "type": "object",
    "required": ["lower", "upper"],
    "properties": {
        "lower": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "upper": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "additionalProperties": False,
}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "polynomial", "rectangle"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "polynomial": _POLYNOMIAL_SCHEMA,
        "rectangle": _RECTANGLE_SCHEMA,
        "inequalities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b"],
                "properties": {
                    "a": {"type": "array", "items": {"type": "number"}},
                    "op": {"enum": ["<=", ">="]},
                    "b": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
        "equalities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["c", "d"],
                "properties": {
                    "c": {"type": "array", "items": {"type": "number"}},
                    "d": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "variables", "field", "rectangle", "template", "reference_point"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "variables": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "field": {"type": "array", "items": _POLYNOMIAL_SCHEMA, "minItems": 1},
        "rectangle": _RECTANGLE_SCHEMA,
        "template": {
            "type": "object",
            "required": ["normals"],
            "properties": {
                "normals": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                    "minItems": 1,
                },
                "offsets": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
        "reference_point": {"type": "array", "items": {"type": "number"}},
        "params": {
            "type": "object",
            "properties": {
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "stall_tol": {"type": "number", "exclusiveMinimum": 0},
                "b_lo": {"type": "array", "items": {"type": "number"}},
                "b_hi": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

POLYTOPE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "normals", "offsets"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "normals": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
            "minItems": 1,
        },
        "offsets": {"type": "array", "items": {"type": "number"}},
        "vertices": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
    },
    "additionalProperties": False,
}

_FACET_SCHEMA = {
    "type": "object",
    "required": ["d_star", "lambda", "feasible"],
    "properties": {
        "d_star": {"type": ["number", "null"]},
        "lambda": {"type": ["array", "null"], "items": {"type": "number"}},
        "feasible": {"type": "boolean"},
        "error": {"type": "string"},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "wall_time_s"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["bound", "verify", "synthesize"]},
        "wall_time_s": {"type": "number"},
        "d_star": {"type": "number"},
        "lambda": {"type": "array", "items": {"type": "number"}},
        "mu": {"type": "array", "items": {"type": "number"}},
        "oracle": {
            "type": "object",
            "required": ["value", "witness", "steps_per_axis"],
            "properties": {
                "value": {"type": "number"},
                "witness": {"type": "array", "items": {"type": "number"}},
                "steps_per_axis": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "verdict": {"enum": ["invariant", "not_verified"]},
        "facets": {"type": "array", "items": _FACET_SCHEMA},
        "status": {"enum": ["invariant_found", "iteration_limit", "stalled"]},
        "iterations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["offsets", "d_star", "feasible", "invariant"],
                "properties": {
                    "offsets": {"type": "array", "items": {"type": "number"}},
                    "d_star": {"type": "array", "items": {"type": ["number", "null"]}},
                    "feasible": {"type": "array", "items": {"type": "boolean"}},
                    "invariant": {"type": "boolean"},
                    "t_star": {"type": ["number", "null"]},
                    "alpha": {"type": ["array", "null"], "items": {"type": "number"}},
                    "repaired_offsets": {"type": ["array", "null"], "items": {"type": "number"}},
                    "failures": {"type": "object"},
                },
                "additionalProperties": False,
            },
        },
        "final_offsets": {"type": "array", "items": {"type": "number"}},
    },
    "additionalProperties": False,
}


@dataclass(eq=False)
class ModelData:
    variables: list
    field: VectorField
    rectangle: Rectangle
    template: PolytopeTemplate
    reference_point: np.ndarray
    params: SynthesisParams


def _validate(instance, schema, label: str):
    try:
        jsonschema.validate(instance=instance, schema=schema)
    except jsonschema.ValidationError as exc:
        raise InputError(f"{label}: {exc.message}") from exc


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _poly_from_terms(terms, n_vars: int, label: str) -> MultiPoly:
    table = {}
    for record in terms:
        exps = tuple(record["exponents"])
        if len(exps) != n_vars:
            raise InputError(
                f"{label}: term {list(exps)} has {len(exps)} exponents, expected {n_vars}"
            )
        table[exps] = table.get(exps, 0.0) + float(record["coefficient"])
    try:
        return MultiPoly(n_vars, table)
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from exc


def poly_to_terms(p: MultiPoly) -> list:
    return [
        {"exponents": list(exps), "coefficient": coeff}
        for exps, coeff in sorted(p.terms.items())
    ]


def _rectangle_from(obj, label: str) -> Rectangle:
    try:
        return Rectangle(obj["lower"], obj["upper"])
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from exc


def load_problem(path) -> tuple[MultiPoly, Rectangle, ConstraintSet]:
    """Parse a bound-problem file; ``>=`` rows are negated into ``<=`` form."""
    raw = _load_json(path)
    _validate(raw, PROBLEM_SCHEMA, f"{path}")
    rect = _rectangle_from(raw["rectangle"], f"{path}: rectangle")
    n = rect.n
    poly = _poly_from_terms(raw["polynomial"], n, f"{path}: polynomial")
    ineqs = []
    for row in raw.get("inequalities", ()):
        a = np.asarray(row["a"], dtype=float)
        if a.size != n:
            raise InputError(f"{path}: inequality vector a has wrong length")
        b = float(row["b"])
        if row.get("op", "<=") == ">=":
            a, b = -a, -b
        ineqs.append((a, b))
    eqs = []
    for row in raw.get("equalities", ()):
        c = np.asarray(row["c"], dtype=float)
        if c.size != n:
            raise InputError(f"{path}: equality vector c has wrong length")
        eqs.append((c, float(row["d"])))
    try:
        return poly, rect, ConstraintSet(n, inequalities=ineqs, equalities=eqs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_model(path) -> ModelData:
    """Parse and cross-validate a model file."""
    raw = _load_json(path)
    _validate(raw, MODEL_SCHEMA, f"{path}")
    variables = list(raw["variables"])
    n = len(variables)
    rect = _rectangle_from(raw["rectangle"], f"{path}: rectangle")
    if rect.n != n:
        raise InputError(f"{path}: rectangle dimension != number of variables")
    if len(raw["field"]) != n:
        raise InputError(f"{path}: field must have exactly {n} components")
    try:
        fld = VectorField(
            tuple(
                _poly_from_terms(comp, n, f"{path}: field[{j}]")
                for j, comp in enumerate(raw["field"])
            )
        )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    normals = np.asarray(raw["template"]["normals"], dtype=float)
    if normals.ndim != 2 or normals.shape[1] != n:
        raise InputError(f"{path}: template normals must be rows of length {n}")
    offsets = raw["template"].get("offsets")
    if offsets is not None and len(offsets) != normals.shape[0]:
        raise InputError(f"{path}: template offsets length != number of normals")
    try:
        template = PolytopeTemplate(normals, offsets)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    ref = np.asarray(raw["reference_point"], dtype=float)
    if ref.size != n:
        raise InputError(f"{path}: reference_point has wrong length")
    if not (np.all(ref > rect.lower) and np.all(ref < rect.upper)):
        raise InputError(f"{path}: reference_point must lie strictly inside the rectangle")
    p = raw.get("params", {})
    for key in ("b_lo", "b_hi"):
        if key in p and len(p[key]) != normals.shape[0]:
            raise InputError(f"{path}: params.{key} length != number of facets")
    params = SynthesisParams(
        epsilon=p.get("epsilon"),
        b_lo=np.asarray(p["b_lo"], dtype=float) if "b_lo" in p else None,
        b_hi=np.asarray(p["b_hi"], dtype=float) if "b_hi" in p else None,
        max_iter=int(p.get("max_iter", 50)),
        stall_tol=float(p.get("stall_tol", 1e-9)),
        reference_point=ref,
    )
    return ModelData(
        variables=variables,
        field=fld,
        rectangle=rect,
        template=template,
        reference_point=ref,
        params=params,
    )


def load_polytope(path) -> PolytopeTemplate:
    raw = _load_json(path)
    _validate(raw, POLYTOPE_SCHEMA, f"{path}")
    normals = np.asarray(raw["normals"], dtype=float)
    offsets = np.asarray(raw["offsets"], dtype=float)
    if offsets.size != normals.shape[0]:
        raise InputError(f"{path}: offsets length != number of normals")
    try:
        return PolytopeTemplate(normals, offsets)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _clean(value):
    """Recursively convert numpy scalars/arrays and NaN into JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def dump_json(obj: dict) -> str:
    """Deterministic serialization: sorted keys, round-trip float precision."""
    return json.dumps(_clean(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))


def polytope_payload(tpl: PolytopeTemplate, vertices=None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "normals": tpl.normals,
        "offsets": tpl.offsets,
    }
    if vertices is not None:
        payload["vertices"] = vertices
    return payload
