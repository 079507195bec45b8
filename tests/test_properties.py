"""Property tests (skipped without hypothesis), drawn deterministically by
the suite's hypothesis profile in ``conftest``."""

import jsonschema
import numpy as np
import pytest

from polyvar import files
from polyvar.invariance import PolytopeTemplate, VectorField, facet_programs
from polyvar.oracle import grid_min
from polyvar.polynomial import MultiPoly, Rectangle, bernstein_coefficients
from polyvar.relaxation import (
    ConstraintSet,
    InfeasiblePolytope,
    lift_degrees,
    lower_bound,
    sensitivity_bound,
)

from conftest import assert_verify_matches_members_alone, term_by_term_objective

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COEFF = st.floats(-4.0, 4.0, allow_nan=False)
# grid_min accepts grid points within an absolute 1e-9 (1 + max|b|) of the
# constraints, so constraint coefficients are 0 or at least 1e-3 in size
ROW_COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


def polynomials(draw, n, count):
    """``count`` polynomials in ``n`` variables sharing degrees <= 3."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    exponents = st.tuples(*(st.integers(0, d) for d in degrees))
    return tuple(
        MultiPoly(n, draw(st.dictionaries(exponents, COEFF, max_size=6))) for _ in range(count)
    )


def box(draw, n):
    lower = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    return Rectangle(lower, lower + width)


@st.composite
def problems(draw, min_rows=0):
    """``(p, rect, cs)`` with n <= 3, degree <= 3 and ``min_rows`` to three
    inequalities that the box center satisfies with some slack."""
    n = draw(st.integers(1, 3))
    (p,), rect = polynomials(draw, n, 1), box(draw, n)
    center = (rect.lower + rect.upper) / 2.0
    ineqs = []
    for _ in range(draw(st.integers(min_rows, 3))):
        a = np.array(draw(st.lists(ROW_COEFF, min_size=n, max_size=n).filter(any)))
        slack = draw(st.floats(0.01, 0.5)) * float(np.abs(a) @ rect.width)
        ineqs.append((a, float(a @ center) + slack))
    return p, rect, ConstraintSet(n, inequalities=ineqs)


@st.composite
def facets(draw):
    """A field with n <= 3 components of degree <= 3, a nonzero normal and a box."""
    n = draw(st.integers(1, 3))
    fld = VectorField(polynomials(draw, n, n))
    normal = np.array(draw(st.lists(COEFF, min_size=n, max_size=n).filter(any)))
    return fld, normal, box(draw, n)


def test_suite_profile_is_deterministic():
    current = hypothesis.settings()
    assert current.derandomize and current.database is None and current.deadline is None


@hypothesis.settings(max_examples=100)
@hypothesis.given(facets())
def test_facet_tensor_is_linear_in_the_normal(case):
    # -(n @ B) from the per-component coefficients equals B(-n . f), to
    # 1e-12 of the coefficient scale sum_i |n_i| max|B(f_i)|
    fld, normal, rect = case
    tpl = PolytopeTemplate([normal], [0.0])
    tensor = next(facet_programs(fld, rect, tpl))[0].c
    degrees = lift_degrees(fld.degrees, tpl.normals)
    ref = bernstein_coefficients(term_by_term_objective(fld, normal).pad_degrees(degrees), rect)
    parts = [bernstein_coefficients(f.pad_degrees(degrees), rect).values for f in fld.components]
    scale = 1.0 + np.abs(normal) @ np.array([np.abs(b).max() for b in parts])
    assert np.abs(tensor - ref.values.reshape(-1)).max() <= 1e-12 * scale


@st.composite
def templates(draw):
    """``(fld, rect, tpl)``: a field as in ``facets`` and one to twelve facets
    whose offsets leave the box center inside by a drawn slack, or outside;
    some facets come out empty, and sometimes the whole polytope."""
    n = draw(st.integers(1, 3))
    fld, rect = VectorField(polynomials(draw, n, n)), box(draw, n)
    center = (rect.lower + rect.upper) / 2.0
    m = draw(st.integers(1, 12))
    rows = st.lists(ROW_COEFF, min_size=n, max_size=n).filter(any)
    normals = np.array([draw(rows) for _ in range(m)])
    slack = np.array(draw(st.lists(st.floats(-0.2, 0.6), min_size=m, max_size=m)))
    offsets = normals @ center + slack * (np.abs(normals) @ rect.width)
    return fld, rect, PolytopeTemplate(normals, offsets)


@hypothesis.settings(max_examples=100)
@hypothesis.given(templates())
def test_stacked_verify_matches_each_member_alone(case):
    # verify certifies all facet programs of a pass in stacked solves; its
    # report is bit for bit that of certify on each member alone
    assert_verify_matches_members_alone(*case)


@hypothesis.settings(max_examples=100)
@hypothesis.given(problems())
def test_bound_never_exceeds_the_grid_minimum(case):
    # d_star <= min over the region <= min over its grid points, to 1e-9 of
    # the coefficient scale max|B|
    p, rect, cs = case
    d_star = lower_bound(p, rect, cs).d_star
    value, _ = grid_min(p, rect, cs, steps_per_axis=21)
    scale = 1.0 + np.abs(bernstein_coefficients(p, rect).values).max()
    assert d_star <= value + 1e-9 * scale


@hypothesis.settings(max_examples=100)
@hypothesis.given(problems(min_rows=1), st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
def test_sensitivity_bound_below_the_resolved_bound(case, steps):
    # by weak duality the multipliers at offsets b certify d_star - lam . alpha
    # at offsets b + alpha, so the re-solved bound is at least that much
    p, rect, cs = case
    alpha = np.array(steps[: cs.m_ineq]) * (np.abs(cs.a) @ rect.width)
    res = lower_bound(p, rect, cs)
    moved = ConstraintSet(p.n_vars, inequalities=list(zip(cs.a, cs.b + alpha)))
    try:
        resolved = lower_bound(p, rect, moved).d_star
    except InfeasiblePolytope:
        return
    assert sensitivity_bound(res, alpha) <= resolved + 1e-9 * (1.0 + abs(resolved))


# JSON values a term record or one of its members can take: 2.0 is an
# integer to the schema, True is a number to Python but not to the schema
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from([2.0, 0.5]), st.text(max_size=1)
)
MEMBERS = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2))
EXPONENT_EDITS = st.sampled_from([2.0, 0.0, 0.5, -1, True, False, None, "1", [1]])
RECTANGLE = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}


@st.composite
def term_lists(draw):
    """Plain two-variable terms, one of them perhaps edited in one way, or
    (rarely) something other than a list."""
    if draw(st.integers(0, 9)) == 0:
        return draw(MEMBERS)
    terms = [
        {"exponents": draw(st.lists(st.integers(0, 3), min_size=2, max_size=2)),
         "coefficient": draw(st.one_of(COEFF, st.integers(-3, 3)))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    if terms and draw(st.booleans()):
        term = terms[draw(st.integers(0, len(terms) - 1))]
        edit = draw(st.sampled_from(["exponent", "member", "drop", "add"]))
        key = draw(st.sampled_from(["exponents", "coefficient"]))
        if edit == "exponent":
            term["exponents"][draw(st.integers(0, 1))] = draw(EXPONENT_EDITS)
        elif edit == "member":
            term[key] = draw(MEMBERS)
        elif edit == "drop":
            del term[key]
        else:
            term["note"] = draw(MEMBERS)
    if draw(st.integers(0, 4)) == 0:
        terms.append(draw(MEMBERS))
    return terms


@st.composite
def documents(draw):
    """``(document, schema, validator, key, nested)``: a problem or model
    with drawn term lists and, in one draw of four, one error elsewhere or
    no term lists at all."""
    if draw(st.booleans()):
        doc = {"schema_version": "1", "polynomial": draw(term_lists()), "rectangle": RECTANGLE}
        spec = (files.PROBLEM_SCHEMA, files._PROBLEM_VALIDATOR, "polynomial", False)
    else:
        doc = {
            "schema_version": "1",
            "variables": ["x", "y"],
            "field": [draw(term_lists()) for _ in range(draw(st.integers(0, 2)))],
            "rectangle": RECTANGLE,
            "template": {"normals": [[1.0, 0.0]]},
            "reference_point": [0.5, 0.5],
        }
        spec = (files.MODEL_SCHEMA, files._MODEL_VALIDATOR, "field", True)
    if draw(st.integers(0, 3)) == 0:
        edit = draw(st.sampled_from(
            [None, {"extra": 1}, {"schema_version": "2"}, {"rectangle": {"lower": [0.0, 0.0]}}]
        ))
        if edit is None:
            del doc[spec[2]]
        else:
            doc.update(edit)
    return (doc, *spec)


@hypothesis.settings(max_examples=300)
@hypothesis.given(documents())
def test_term_checks_agree_with_jsonschema(case):
    # _validate raises exactly when jsonschema reports an error, with the
    # same message; the plain term check only ever speeds up acceptance
    doc, schema, validator, key, nested = case
    try:
        jsonschema.validate(doc, schema)
        expected = None
    except jsonschema.ValidationError as exc:
        expected = f"doc: {exc.message}"
    try:
        files._validate(doc, validator, "doc", key, nested)
        raised = None
    except files.InputError as exc:
        raised = str(exc)
    assert raised == expected
