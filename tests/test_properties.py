"""Property tests, drawn deterministically (skipped without hypothesis)."""

import numpy as np
import pytest

from polyvar.invariance import PolytopeTemplate, VectorField, facet_programs
from polyvar.polynomial import MultiPoly, Rectangle, bernstein_coefficients
from polyvar.relaxation import lift_degrees

from conftest import term_by_term_objective

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COEFF = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def facets(draw):
    """A field with n <= 3 components of degree <= 3, a nonzero normal and a box."""
    n = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    exponents = st.tuples(*(st.integers(0, d) for d in degrees))
    fld = VectorField(
        tuple(MultiPoly(n, draw(st.dictionaries(exponents, COEFF, max_size=6))) for _ in range(n))
    )
    normal = np.array(draw(st.lists(COEFF, min_size=n, max_size=n).filter(any)))
    lower = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    return fld, normal, Rectangle(lower, lower + width)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(facets())
def test_facet_tensor_is_linear_in_the_normal(case):
    # -(n @ B) from the per-component coefficients equals B(-n . f), to
    # 1e-12 of the coefficient scale sum_i |n_i| max|B(f_i)|
    fld, normal, rect = case
    tpl = PolytopeTemplate([normal], [0.0])
    tensor = next(facet_programs(fld, rect, tpl)).c
    degrees = lift_degrees(fld.degrees, tpl.normals)
    ref = bernstein_coefficients(term_by_term_objective(fld, normal).pad_degrees(degrees), rect)
    parts = [bernstein_coefficients(f.pad_degrees(degrees), rect).values for f in fld.components]
    scale = 1.0 + np.abs(normal) @ np.array([np.abs(b).max() for b in parts])
    assert np.abs(tensor - ref.values.reshape(-1)).max() <= 1e-12 * scale
