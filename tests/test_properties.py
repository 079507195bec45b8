"""Property tests (skipped without hypothesis), drawn deterministically by
the suite's hypothesis profile in ``conftest``."""

import math

import jsonschema
import numpy as np
import pytest

from polyvar import files
from polyvar.invariance import PolytopeTemplate, VectorField, facet_programs
from polyvar.lpsolve import OPTIMAL, LPProblem, LPStack, solve_dual_stack
from polyvar.oracle import enumerate_classes, grid_min, lifted_dot, sensitivity_bound
from polyvar.polynomial import MultiPoly, Rectangle, bernstein_coefficients
from polyvar.relaxation import (
    ConstraintSet,
    InfeasiblePolytope,
    bounding_program,
    build_reduced_lp,
    certify,
    class_constraint_values,
    lift_degrees,
    lower_bound,
    pad_for_constraints,
)

from conftest import assert_verify_matches_members_alone, term_by_term_objective

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COEFF = st.floats(-4.0, 4.0, allow_nan=False)
# constraint coefficients are 0 or at least 1e-3 in size: the solver scales
# rows by at most 2**1000, and the duals of a row whose entries all lie
# below 2**-1000 overflow to NaN
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
    parts = [bernstein_coefficients(f.pad_degrees(degrees), rect) for f in fld.components]
    scale = 1.0 + np.abs(normal) @ np.array([np.abs(b).max() for b in parts])
    assert np.abs(tensor - ref.reshape(-1)).max() <= 1e-12 * scale


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
    scale = 1.0 + np.abs(bernstein_coefficients(p, rect)).max()
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


@hypothesis.settings(max_examples=100)
@hypothesis.given(problems(), st.data())
def test_reduced_lp_blocks_match_one_call_per_block(case, data):
    # build_reduced_lp walks the class lattice once for the inequality and
    # equality rows together; its program equals the one built from one
    # class_constraint_values call per block, bit for bit and in layout
    p, rect, ineqs = case
    n = p.n_vars
    rows = st.lists(ROW_COEFF, min_size=n, max_size=n)
    count = data.draw(st.integers(0, 2))
    eqs = [(np.array(data.draw(rows)), data.draw(COEFF)) for _ in range(count)]
    cs = ConstraintSet(n, inequalities=zip(ineqs.a, ineqs.b), equalities=eqs)
    padded = pad_for_constraints(p, cs)
    lp = build_reduced_lp(padded, rect, cs)
    g = class_constraint_values(padded.degrees, rect, cs.a, cs.b)
    h = class_constraint_values(padded.degrees, rect, cs.c, cs.d)
    ref = bounding_program(bernstein_coefficients(padded, rect).reshape(-1), g, h)
    for name in ("c", "G", "h", "A", "d"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


def per_term_bernstein(p, rect) -> np.ndarray:
    """The Bernstein conversion with a loop over the terms and the tables
    built afresh on every call."""
    vals = np.zeros(tuple(d + 1 for d in p.degrees))
    for exps, coeff in p.terms.items():
        vals[exps] = coeff
    for axis, d in enumerate(p.degrees):
        lower, width = float(rect.lower[axis]), float(rect.width[axis])
        to_bernstein, shift = np.zeros((d + 1, d + 1)), np.zeros((d + 1, d + 1))
        for l in range(d + 1):
            for i in range(l + 1):
                to_bernstein[l, i] = math.comb(l, i) / math.comb(d, i)
        for e in range(d + 1):
            for j in range(e + 1):
                shift[j, e] = math.comb(e, j) * lower ** (e - j) * width**j
        vals = np.moveaxis(np.tensordot(to_bernstein @ shift, vals, axes=(1, axis)), 0, axis)
    return vals


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_bernstein_coefficients_match_the_per_term_loop(data):
    # the terms go in with one indexed assignment and the change of basis is
    # a table cached per degree; the coefficients are the loop's bit for bit
    n = data.draw(st.integers(1, 3))
    (p,), rect = polynomials(data.draw, n, 1), box(data.draw, n)
    pad = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    p = p.pad_degrees([d + k for d, k in zip(p.degrees, pad)])
    assert bernstein_coefficients(p, rect).tobytes() == per_term_bernstein(p, rect).tobytes()


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_term_rows_match_the_record_loop(data):
    # from_arrays, as a problem file's records reach it: equal rows summed in
    # row order, a sum of 0 dropped, the rows in first-appearance order
    n = data.draw(st.integers(1, 3))
    row = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    coeff = st.sampled_from([1.0, -1.0, 0.5, 1e16, -1e16, 0.0])
    records = data.draw(st.lists(st.tuples(row, coeff), max_size=8))
    table = {}
    for exps, c in records:
        table[exps] = table.get(exps, 0.0) + c
    expected = {exps: c for exps, c in table.items() if c != 0.0}
    p = MultiPoly.from_arrays(n, [r for r, _ in records], [c for _, c in records])
    assert list(p.terms.items()) == list(expected.items())
    assert p.degrees == (tuple(map(max, zip(*expected))) if expected else (0,) * n)


@hypothesis.settings(max_examples=100)
@hypothesis.given(st.data())
def test_class_constraint_values_match_lifted_dot(data):
    # each axis's side values broadcast along the others repeat the scalar
    # per-class arithmetic of oracle.lifted_dot bit for bit
    n = data.draw(st.integers(1, 4))
    degrees = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    rect, m = box(data.draw, n), data.draw(st.integers(0, 3))
    rows = [data.draw(st.lists(ROW_COEFF, min_size=n, max_size=n)) for _ in range(m)]
    mat = np.where(np.array(degrees) > 0, np.array(rows).reshape(m, n), 0.0)
    rhs = np.array([data.draw(COEFF) for _ in range(m)])
    values = class_constraint_values(degrees, rect, mat, rhs)
    ref = [
        [lifted_dot(a, rect, degrees, cls) - b for a, b in zip(mat, rhs)]
        for cls in enumerate_classes(degrees)
    ]
    assert values.tobytes() == np.array(ref).reshape(values.shape).tobytes()


@hypothesis.settings(max_examples=100)
@hypothesis.given(problems())
def test_known_answer_matches_the_lp(case):
    # where the least class satisfies every row strictly, certify answers
    # without an LP: the solved program, its costs less their least as
    # certify_stack poses them, has the same bound, with zero multipliers
    p, rect, cs = case
    lp = build_reduced_lp(pad_for_constraints(p, cs), rect, cs)
    hypothesis.assume(np.all(lp.G[:, np.argmin(lp.c)] < 0.0))
    shifted = LPProblem(lp.c - lp.c.min(), G=lp.G, h=lp.h, A=lp.A, d=lp.d)
    res, (sol,) = certify(lp), solve_dual_stack(LPStack.of(shifted))
    assert sol.status == OPTIMAL
    assert res.d_star == float((lp.c + lp.G.T @ sol.ineq_duals).min()) == lp.c.min()
    assert res.lam.tolist() == sol.ineq_duals.tolist() == [0.0] * cs.m_ineq


# JSON values an edit can put anywhere in a document: 2.0 is an integer to
# the schema, True is a number to Python but not to the schema, NaN passes
# every bound to jsonschema, and 10**400 is a JSON number beyond the floats
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.text(max_size=1),
    st.sampled_from([2.0, 0.5, 0.0, -0.5, math.nan, 10**400, -10**400, "1", "2"]),
)
MEMBERS = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2))
NUMBERS = st.one_of(COEFF, st.integers(-3, 3))


def term_lists(draw, n):
    return [
        {"exponents": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
         "coefficient": draw(NUMBERS)}
        for _ in range(draw(st.integers(0, 3)))
    ]


def valid_document(draw, kind):
    """A two-variable document that the schema ``kind`` accepts, with ints
    and floats mixed and some optional members left out."""
    vector = st.lists(NUMBERS, min_size=2, max_size=2)
    rectangle = {"lower": [0.0, 0], "upper": [1, 1.0]}
    if kind == "problem":
        doc = {
            "schema_version": "1", "polynomial": term_lists(draw, 2), "rectangle": rectangle,
            "inequalities": [{"a": draw(vector), "op": draw(st.sampled_from(["<=", ">="])),
                              "b": draw(NUMBERS)}],
            "equalities": [{"c": draw(vector), "d": draw(NUMBERS)}],
        }
    elif kind == "model":
        doc = {
            "schema_version": "1", "variables": ["x", "y"],
            "field": [term_lists(draw, 2) for _ in range(draw(st.integers(1, 2)))],
            "rectangle": rectangle,
            "template": {"normals": [draw(vector), draw(vector)], "offsets": draw(vector)},
            "reference_point": [0.5, 0.5],
            "params": {"epsilon": 0.1, "max_iter": 5, "stall_tol": 1, "b_lo": draw(vector),
                       "b_hi": draw(vector)},
        }
    else:
        doc = {"schema_version": "1", "normals": [draw(vector), draw(vector)],
               "offsets": draw(vector), "vertices": [draw(vector)]}
    for key in ("inequalities", "equalities", "params", "vertices"):
        if key in doc and draw(st.integers(0, 3)) == 0:
            del doc[key]
    return doc


def nodes(value, path=()):
    """``(path, value)`` for ``value`` and everything inside it."""
    yield path, value
    if isinstance(value, dict):
        members = value.items()
    else:
        members = enumerate(value) if isinstance(value, list) else ()
    for key, member in members:
        yield from nodes(member, (*path, key))


DROP = object()
# Edits the schemas single out: bool, float and int swapped, an
# integral-float exponent or iteration count, a wrong version or operator,
# empty arrays where one item is the least, parameters at or below their
# bounds, NaN and integers beyond the floats where only the type is checked,
# a missing required key (``DROP``) and an extra key
TARGETED = [
    (("polynomial", 0, "exponents", 0), 2.0), (("field", 0, 0, "exponents", 1), 2.0),
    (("polynomial", 0, "exponents", 1), -1), (("field", 1, 0, "exponents", 0), 0.5),
    (("polynomial", 0, "coefficient"), True), (("normals", 0, 0), True),
    (("reference_point", 1), False), (("variables", 0), 1), (("inequalities", 0, "op"), "<"),
    (("schema_version",), "2"), (("schema_version",), 1), (("rectangle", "lower"), []),
    (("variables",), []), (("field",), []), (("template", "normals"), []), (("normals",), []),
    (("params", "epsilon"), 0), (("params", "epsilon"), -0.5), (("params", "stall_tol"), 0.0),
    (("params", "epsilon"), math.nan), (("params", "max_iter"), 0), (("params", "max_iter"), 2.0),
    (("params", "max_iter"), 10**400), (("rectangle", "upper", 0), 10**400),
    (("offsets", 1), math.nan), (("polynomial", 0, "coefficient"), -10**400),
    (("schema_version",), DROP), (("rectangle",), DROP), (("template", "normals"), DROP),
    (("polynomial", 0, "coefficient"), DROP), (("field", 0, 0, "exponents"), DROP),
    (("inequalities", 0, "b"), DROP), (("normals",), DROP),
    (("extra",), 1), (("rectangle", "note"), 1), (("polynomial", 0, "note"), 1),
    (("field", 0, 0, "note"), 1), (("inequalities", 0, "note"), 1),
    (("equalities", 0, "op"), "<="), (("template", "note"), 1), (("params", "note"), 1),
]


def settable(parent, key) -> bool:
    return (isinstance(parent, dict) and isinstance(key, str)) or (
        isinstance(parent, list) and isinstance(key, int) and key < len(parent)
    )


@st.composite
def documents(draw):
    """``(document, schema, name, edited)``: a valid problem, model or
    polytope document, then up to two edits anywhere in it: one of
    ``TARGETED``, a member replaced or dropped, a member added to a
    container or a container emptied, or the whole document replaced."""
    name, schema = draw(st.sampled_from(
        [("problem", files.PROBLEM_SCHEMA), ("model", files.MODEL_SCHEMA),
         ("polytope", files.POLYTOPE_SCHEMA)]
    ))
    doc = valid_document(draw, name)
    edits = draw(st.sampled_from([1, 2, 0]))
    for _ in range(edits):
        found = dict(nodes(doc))
        edit = draw(st.one_of(
            st.just("targeted"), st.sampled_from(["replace", "drop", "add", "empty", "root"])
        ))
        members = [path for path in found if path]
        containers = [value for value in found.values() if isinstance(value, (dict, list))]
        if not (containers if edit in ("add", "empty") else members):
            continue
        if edit in ("add", "empty"):
            value = draw(st.sampled_from(containers))
            if edit == "empty":
                value.clear()
            elif isinstance(value, dict):
                value[draw(st.sampled_from(["note", "lower", "epsilon"]))] = draw(MEMBERS)
            else:
                value.append(draw(MEMBERS))
            continue
        if edit == "root":
            doc = draw(MEMBERS)
            continue
        if edit == "targeted":
            fits = [(path, new) for path, new in TARGETED
                    if settable(found.get(path[:-1]), path[-1])]
            if not fits:
                continue
            path, new = draw(st.sampled_from(fits))
        else:
            path = draw(st.sampled_from(members))
            new = draw(MEMBERS) if edit == "replace" else DROP
        parent = found[path[:-1]]
        if new is not DROP:
            parent[path[-1]] = new
        elif isinstance(parent, dict):
            parent.pop(path[-1], None)
        else:
            del parent[path[-1]]
    return doc, schema, name, edits > 0


@hypothesis.settings(max_examples=1000)
@hypothesis.given(documents())
def test_term_checks_agree_with_jsonschema(case):
    # _validate raises exactly when jsonschema reports an error, with the
    # same message; the compiled predicate accepts only what jsonschema
    # accepts, and it accepts every unedited document
    doc, schema, name, edited = case
    try:
        jsonschema.validate(doc, schema)
        expected = None
    except jsonschema.ValidationError as exc:
        expected = f"doc: {exc.message}"
    try:
        files._validate(doc, name, "doc")
        raised = None
    except files.InputError as exc:
        raised = str(exc)
    assert raised == expected
    accepted = files._ACCEPTS[name](doc)
    assert not accepted or expected is None
    assert accepted or edited
