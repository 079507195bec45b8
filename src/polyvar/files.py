"""JSON file formats: problem files, model files, reports, polytope exports.

All formats carry ``schema_version`` "1" and are validated against the
schemas below before any numeric cross-checks.  Reals are emitted at full
round-trip precision and keys are sorted, so identical inputs produce
byte-identical files (the wall-time field aside).

Validation runs in this order.  Each input schema (problem, model,
polytope) is compiled once, at import, into a plain-Python predicate
(``_compile``) that accepts a document only if jsonschema would.  A document
the predicate accepts is valid, and jsonschema is never imported for it.
Any other document goes to jsonschema, imported and given a validator for
that schema on the first such load, and its best-matching error becomes the
message; if jsonschema finds no error (the predicate is stricter, as with an
exponent ``2.0``), the document is valid.  So jsonschema alone decides every
rejection and words every error.  The numeric cross-checks come after, and a
number beyond the float range, a polynomial whose degree exceeds the lift
cap (``polynomial.LIFT_MAX_DEGREE``), or JSON nested too deep to parse, is
an InputError like any other malformed input.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .invariance import PolytopeTemplate, SynthesisParams, VectorField
from .polynomial import LIFT_MAX_DEGREE, MultiPoly, Rectangle
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
                    "t_big": {"type": ["number", "null"]},
                    "step": {"enum": ["least_move", "capped", None]},
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


# The schema keywords ``_compile`` implements, by the ``type`` they go with;
# ``None`` is a schema without a ``type``, which holds one ``const`` or ``enum``.
_KEYWORDS = {
    None: {"const", "enum"},
    "string": {"type"},
    "integer": {"type", "minimum", "exclusiveMinimum"},
    "number": {"type", "minimum", "exclusiveMinimum"},
    "array": {"type", "items", "minItems"},
    "object": {"type", "required", "properties", "additionalProperties"},
}


def _compile(schema):
    """A plain-Python predicate that accepts a JSON value only if ``schema``
    accepts it.

    The schema becomes one boolean expression, compiled once, so a check
    makes no Python-level call per node and costs about what a hand-written
    one would.  The predicate is stricter than jsonschema in two ways: an
    integer must be an ``int`` (jsonschema also takes ``2.0``), and no bound
    holds for NaN.  A keyword, or a keyword value, that it does not
    implement raises ValueError, so a schema edit cannot loosen it.
    """
    constants = {}

    def expression(schema, x: str, depth: int) -> str:
        # true exactly when the value of the expression ``x`` passes
        kind = schema.get("type")
        keywords = None if isinstance(kind, list) else _KEYWORDS.get(kind)
        if (
            keywords is None
            or not schema.keys() <= keywords
            or (kind is None and len(schema) != 1)
            or type(schema.get("additionalProperties", True)) is not bool
        ):
            raise ValueError(f"no plain check for the schema {schema}")
        if kind is None:
            values = schema["enum"] if "enum" in schema else [schema["const"]]
            if not all(type(v) is str for v in values):
                raise ValueError(f"no plain check for the schema {schema}")
            name = f"_values{len(constants)}"
            constants[name] = frozenset(values)
            return f"(type({x}) is str and {x} in {name})"
        if kind == "string":
            return f"type({x}) is str"
        if kind in ("integer", "number"):
            terms = [f"type({x}) is int" if kind == "integer" else f"type({x}) in (int, float)"]
            if "minimum" in schema:
                terms.append(f"{x} >= {schema['minimum']!r}")
            if "exclusiveMinimum" in schema:
                terms.append(f"{x} > {schema['exclusiveMinimum']!r}")
        elif kind == "array":
            terms = [f"type({x}) is list"]
            if "minItems" in schema:
                terms.append(f"len({x}) >= {schema['minItems']!r}")
            if "items" in schema:
                item = f"item{depth}"
                test = expression(schema["items"], item, depth + 1)
                terms.append(f"all({test} for {item} in {x})")
        else:
            required = schema.get("required", [])
            properties = schema.get("properties", {})
            terms = [f"type({x}) is dict", *(f"{key!r} in {x}" for key in required)]
            if schema.get("additionalProperties", True) is False:
                # with every property required, the count rules out extra keys
                if set(required) == properties.keys():
                    terms.append(f"len({x}) == {len(properties)}")
                else:
                    name = f"_names{len(constants)}"
                    constants[name] = frozenset(properties)
                    terms.append(f"{x}.keys() <= {name}")
            for key, sub in properties.items():
                term = expression(sub, f"{x}[{key!r}]", depth)
                terms.append(term if key in required else f"({key!r} not in {x} or {term})")
        return f"({' and '.join(terms)})"

    source = f"def accepts(x):\n    return {expression(schema, 'x', 0)}\n"
    exec(source, constants)
    return constants["accepts"]


_INPUT_SCHEMAS = {"problem": PROBLEM_SCHEMA, "model": MODEL_SCHEMA, "polytope": POLYTOPE_SCHEMA}
_ACCEPTS = {name: _compile(schema) for name, schema in _INPUT_SCHEMAS.items()}


@functools.cache
def _validator(name: str):
    """jsonschema's validator for an input schema, built at the first rejection."""
    import jsonschema

    schema = _INPUT_SCHEMAS[name]
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(instance, name: str, label: str) -> None:
    """Raise InputError with jsonschema's best-matching message unless
    ``instance`` is valid under the input schema ``name``.  jsonschema is
    consulted only when the plain check refuses ``instance``."""
    if _ACCEPTS[name](instance):
        return
    from jsonschema.exceptions import best_match

    error = best_match(_validator(name).iter_errors(instance))
    if error is not None:
        raise InputError(f"{label}: {error.message}") from error


def _floats(values, label: str) -> np.ndarray:
    """``values`` as a float array; an integer beyond the float range (an
    OverflowError in numpy) is an InputError naming ``label``."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{label}: {exc}") from exc


def _normals(rows, label: str) -> np.ndarray:
    if len({len(row) for row in rows}) > 1:
        raise InputError(f"{label}: rows must all have the same length")
    return _floats(rows, label)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deep to parse") from exc


def _poly_from_terms(terms, n_vars: int, label: str) -> MultiPoly:
    """The polynomial of the term records ``terms``, each read once: their
    exponents go into one flat list and their coefficients into another,
    which ``MultiPoly.from_arrays`` takes as its arrays."""
    flat, coefficients = [], []
    for record in terms:
        exponents = record["exponents"]
        if len(exponents) != n_vars:
            _refuse_terms(terms, n_vars, label)
        flat += exponents
        coefficients.append(record["coefficient"])
    try:
        poly = MultiPoly.from_arrays(n_vars, flat, coefficients)
    except OverflowError:  # a coefficient beyond the floats, or an exponent beyond int64
        _refuse_terms(terms, n_vars, label)
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from exc
    if max(poly.degrees) > LIFT_MAX_DEGREE:
        _refuse_terms(terms, n_vars, label)
    return poly


def _refuse_terms(terms, n_vars: int, label: str):
    """Raise the InputError of the first faulty term record: one with the
    wrong number of exponents or a coefficient beyond the floats, or else
    one with an exponent above the lift cap, which no lift can hold (the
    term is named, since the exponent's digits may run to hundreds)."""
    for record in terms:
        exps = record["exponents"]
        if len(exps) != n_vars:
            raise InputError(
                f"{label}: term {list(exps)} has {len(exps)} exponents, expected {n_vars}"
            )
        try:
            float(record["coefficient"])
        except OverflowError as exc:
            raise InputError(f"{label}: term {list(exps)} coefficient: {exc}") from exc
    i, axis = next(
        (i, axis)
        for i, record in enumerate(terms)
        for axis, e in enumerate(record["exponents"])
        if e > LIFT_MAX_DEGREE
    )
    raise InputError(
        f"{label}: term {i} has an exponent on axis {axis} above the lift cap {LIFT_MAX_DEGREE}"
    )


def _rectangle_from(obj, label: str) -> Rectangle:
    try:
        return Rectangle(obj["lower"], obj["upper"])
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{label}: {exc}") from exc


def load_problem(path) -> tuple[MultiPoly, Rectangle, ConstraintSet]:
    """Parse a bound-problem file; ``>=`` rows are negated into ``<=`` form."""
    raw = _load_json(path)
    _validate(raw, "problem", f"{path}")
    rect = _rectangle_from(raw["rectangle"], f"{path}: rectangle")
    n = rect.n
    poly = _poly_from_terms(raw["polynomial"], n, f"{path}: polynomial")
    ineqs = []
    for row in raw.get("inequalities", ()):
        a = _floats(row["a"], f"{path}: inequality vector a")
        if a.size != n:
            raise InputError(f"{path}: inequality vector a has wrong length")
        b = float(_floats(row["b"], f"{path}: inequality bound b"))
        if row.get("op", "<=") == ">=":
            a, b = -a, -b
        ineqs.append((a, b))
    eqs = []
    for row in raw.get("equalities", ()):
        c = _floats(row["c"], f"{path}: equality vector c")
        if c.size != n:
            raise InputError(f"{path}: equality vector c has wrong length")
        eqs.append((c, float(_floats(row["d"], f"{path}: equality value d"))))
    try:
        return poly, rect, ConstraintSet(n, inequalities=ineqs, equalities=eqs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_model(path) -> ModelData:
    """Parse and cross-validate a model file."""
    raw = _load_json(path)
    _validate(raw, "model", f"{path}")
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
    normals = _normals(raw["template"]["normals"], f"{path}: template.normals")
    if normals.ndim != 2 or normals.shape[1] != n:
        raise InputError(f"{path}: template normals must be rows of length {n}")
    offsets = raw["template"].get("offsets")
    if offsets is not None:
        offsets = _floats(offsets, f"{path}: template.offsets")
        if len(offsets) != normals.shape[0]:
            raise InputError(f"{path}: template offsets length != number of normals")
    try:
        template = PolytopeTemplate(normals, offsets)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    ref = _floats(raw["reference_point"], f"{path}: reference_point")
    if ref.size != n:
        raise InputError(f"{path}: reference_point has wrong length")
    if not (np.all(ref > rect.lower) and np.all(ref < rect.upper)):
        raise InputError(f"{path}: reference_point must lie strictly inside the rectangle")
    p = raw.get("params", {})
    for key in ("b_lo", "b_hi"):
        if key in p and len(p[key]) != normals.shape[0]:
            raise InputError(f"{path}: params.{key} length != number of facets")
    for key in ("epsilon", "stall_tol", "b_lo", "b_hi"):
        if key in p and not np.all(np.isfinite(_floats(p[key], f"{path}: params.{key}"))):
            raise InputError(f"{path}: params.{key} must be finite")
    params = SynthesisParams(
        epsilon=p.get("epsilon"),
        **{key: np.asarray(p[key], dtype=float) for key in ("b_lo", "b_hi") if key in p},
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
    _validate(raw, "polytope", f"{path}")
    normals = _normals(raw["normals"], f"{path}: normals")
    offsets = _floats(raw["offsets"], f"{path}: offsets")
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
        return None if v != v else v
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
