"""Sparse multivariate polynomials, their polar forms, and Bernstein coefficients.

A polynomial is stored as an exponent matrix and a coefficient vector, one
row and one entry per term, together with a per-variable degree vector.  The degree vector may be padded
above the largest stored exponent; this is what lets a family of polynomials
(e.g. the components of a vector field) share one index set of vertex classes.
Bernstein conversion is linear, so at shared degrees the coefficients of a
weighted sum of polynomials are the same weighted sum of their coefficients;
no combined polynomial needs to be formed.

All types here are immutable after construction and all operations are pure,
so they are safe to use concurrently without locking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Largest lift accepted: the per-axis degree, and the class count
# prod(d_i + 1), which sizes every lift array (the Bernstein coefficients, the
# class constraint values and the bounding program's columns).
LIFT_MAX_DEGREE = 100
LIFT_MAX_CLASSES = 10**5


@dataclass(frozen=True, eq=False, init=False)
class MultiPoly:
    """Sparse polynomial in ``n_vars`` variables.

    Stored as an exponent matrix and a coefficient vector: row ``t`` of
    ``exponents`` (int64, shape ``(T, n_vars)``) holds the exponents of term
    ``t`` and ``coefficients[t]`` its coefficient.  The rows are distinct, in
    the order the terms first appear, and every coefficient is finite and
    nonzero; both arrays are read-only.  ``degrees`` defaults to the largest
    exponent of each variable, but may be passed explicitly to pad the
    formal degree upward.

    ``MultiPoly(n_vars, {exponent tuple: coefficient})`` builds one from a
    mapping, ``from_arrays`` from the two arrays, and ``terms`` gives the
    mapping back.
    """

    n_vars: int
    exponents: np.ndarray
    coefficients: np.ndarray
    degrees: tuple

    def __init__(self, n_vars, terms=None, degrees=None):
        n = int(n_vars)
        if n < 1:
            raise ValueError("n_vars must be a positive integer")
        terms = {} if terms is None else terms
        keys = []
        for exps in terms:
            key = tuple(map(int, exps))
            if len(key) != n:
                raise ValueError(f"exponent tuple {key} has length {len(key)}, expected {n}")
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            keys.append(key)
        try:
            exponents = np.array(keys, dtype=np.int64).reshape(len(keys), n)
        except OverflowError as exc:
            raise ValueError(f"an exponent does not fit in 64 bits: {exc}") from exc
        coefficients = np.array([float(c) for c in terms.values()])
        _set(self, n, *_distinct_nonzero(exponents, coefficients), degrees)

    @classmethod
    def from_arrays(cls, n_vars: int, exponents, coefficients) -> "MultiPoly":
        """The polynomial with the nonnegative integer exponent rows
        ``exponents`` and the coefficients ``coefficients``; the coefficients
        of equal rows are summed in row order, and a sum of 0 is dropped."""
        poly = cls.__new__(cls)
        exponents = np.array(exponents, dtype=np.int64).reshape(-1, int(n_vars))
        coefficients = np.array(coefficients, dtype=float)
        _set(poly, int(n_vars), *_distinct_nonzero(exponents, coefficients), None)
        return poly

    @property
    def terms(self) -> dict:
        """The terms as a new mapping from exponent tuples to coefficients."""
        return dict(zip(map(tuple, self.exponents.tolist()), self.coefficients.tolist()))

    def pad_degrees(self, degrees) -> "MultiPoly":
        """Return the same polynomial with degrees raised to at least ``degrees``."""
        padded = tuple(max(d, int(g)) for d, g in zip(self.degrees, degrees))
        if padded == self.degrees:
            return self
        poly = MultiPoly.__new__(MultiPoly)
        _set(poly, self.n_vars, self.exponents, self.coefficients, padded)
        return poly


def _distinct_nonzero(exponents: np.ndarray, coefficients: np.ndarray) -> tuple:
    """The terms with distinct rows, in the order the rows first appear, the
    coefficients of equal rows summed in row order; a coefficient that is not
    finite raises ValueError, and one of 0 is dropped."""
    rows = list(map(tuple, exponents.tolist()))
    if len(set(rows)) < len(rows):
        table = {}
        for row, coeff in zip(rows, coefficients.tolist()):
            table[row] = table.get(row, 0.0) + coeff
        exponents = np.array(list(table), dtype=np.int64)
        coefficients = np.array(list(table.values()))
    finite = np.isfinite(coefficients)
    if not finite.all():
        bad = int(np.argmin(finite))
        key = tuple(exponents[bad].tolist())
        raise ValueError(f"coefficient of {key} must be finite, got {coefficients[bad]}")
    nonzero = coefficients != 0.0
    if not nonzero.all():
        exponents, coefficients = exponents[nonzero], coefficients[nonzero]
    return exponents, coefficients


def _set(poly: MultiPoly, n: int, exponents, coefficients, degrees) -> None:
    """Set the fields of ``poly`` from terms in stored form, with the
    optional padded ``degrees``."""
    natural = tuple(exponents.max(axis=0).tolist()) if coefficients.size else (0,) * n
    if degrees is None:
        degrees = natural
    else:
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != n:
            raise ValueError("degrees length must equal n_vars")
        if any(d < nat for d, nat in zip(degrees, natural)):
            raise ValueError(f"degrees {degrees} below the stored exponents {natural}")
    exponents.setflags(write=False)
    coefficients.setflags(write=False)
    object.__setattr__(poly, "n_vars", n)
    object.__setattr__(poly, "exponents", exponents)
    object.__setattr__(poly, "coefficients", coefficients)
    object.__setattr__(poly, "degrees", degrees)


@dataclass(frozen=True, eq=False)
class Rectangle:
    """Axis-aligned box ``prod_k [lower_k, upper_k]`` with strict lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.size != hi.size or lo.size < 1:
            raise ValueError("lower and upper must be equal-length nonempty vectors")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("rectangle bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("rectangle requires lower < upper on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def check_lift(degrees, name: str) -> None:
    """Refuse lift degrees above ``LIFT_MAX_DEGREE`` on an axis, or with more
    than ``LIFT_MAX_CLASSES`` vertex classes, before any lift array exists."""
    for axis, d in enumerate(degrees):
        if d > LIFT_MAX_DEGREE:
            raise ValueError(
                f"{name}: lift degree {d} on axis {axis} is above the cap {LIFT_MAX_DEGREE}"
            )
    classes = math.prod(d + 1 for d in degrees)
    if classes > LIFT_MAX_CLASSES:
        raise ValueError(
            f"{name}: lift degrees {tuple(degrees)} give {classes} vertex classes, "
            f"above the cap {LIFT_MAX_CLASSES}"
        )


def evaluate(p: MultiPoly, x) -> float:
    """Evaluate ``p`` at the point ``x``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != p.n_vars:
        raise ValueError(f"point has {x.size} coordinates, expected {p.n_vars}")
    total = 0.0
    for exps, coeff in zip(p.exponents.tolist(), p.coefficients.tolist()):
        term = coeff
        for k, e in enumerate(exps):
            if e:
                term *= x[k] ** e
        total += term
    return total


def evaluate_many(p: MultiPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate ``p`` at every row of ``points`` (shape ``(m, n_vars)``)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != p.n_vars:
        raise ValueError(f"points must have shape (m, {p.n_vars})")
    out = np.zeros(pts.shape[0])
    for exps, coeff in zip(p.exponents.tolist(), p.coefficients.tolist()):
        term = np.full(pts.shape[0], coeff)
        for k, e in enumerate(exps):
            if e:
                term *= pts[:, k] ** e
        out += term
    return out


@functools.cache
def _monomial_to_bernstein(degree: int) -> np.ndarray:
    """Lower-triangular change of basis on [0,1]: b_l = sum_i C(l,i)/C(d,i) c_i.

    Built once per degree; the table is read-only, since every caller shares it.
    """
    m = np.zeros((degree + 1, degree + 1))
    for l in range(degree + 1):
        for i in range(l + 1):
            m[l, i] = math.comb(l, i) / math.comb(degree, i)
    m.setflags(write=False)
    return m


def _shift_to_unit(degree: int, lower: float, width: float) -> np.ndarray:
    """Monomial coefficients in ``y`` from those in ``x = lower + width * y``:
    ``x^e = sum_j C(e, j) lower^(e-j) width^j y^j``."""
    d = degree + 1
    return np.array(
        [
            [math.comb(e, j) * lower ** (e - j) * width**j if j <= e else 0.0 for e in range(d)]
            for j in range(d)
        ]
    )


def bernstein_coefficients(
    p: MultiPoly, rect: Rectangle, name: str = "polynomial"
) -> np.ndarray:
    """Bernstein coordinates of ``p`` over ``rect`` at its formal degrees.

    Entry ``[l_1, ..., l_n]`` of the returned array, of shape
    ``(d_1 + 1, ..., d_n + 1)``, is the polar form of ``p`` at the vertex
    class with ``l_k`` arguments at ``upper_k`` and ``d_k - l_k`` at
    ``lower_k``.

    The monomial coefficient tensor goes through one (d+1)x(d+1) matrix per
    axis: the affine rescale of that axis to [0, 1], then the triangular
    change to the Bernstein basis.  This never expands the polar form, whose
    explicit expression can have exponentially many terms.  A conversion
    that leaves the float range (a high power of a far-off or wide box side)
    raises ValueError naming ``name``.
    """
    if rect.n != p.n_vars:
        raise ValueError("rectangle dimension must equal n_vars")
    vals = np.zeros(tuple(d + 1 for d in p.degrees))
    vals[tuple(p.exponents.T)] = p.coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for axis, d in enumerate(p.degrees):
                conv = _monomial_to_bernstein(d) @ _shift_to_unit(
                    d, float(rect.lower[axis]), float(rect.width[axis])
                )
                # np.tensordot(conv, vals, axes=(1, axis)) with the axis put
                # back, in the same steps: one product over that axis, first
                front = [axis, *range(axis), *range(axis + 1, vals.ndim)]
                lead = vals.transpose(front)
                vals = np.dot(conv, lead.reshape(d + 1, -1)).reshape(lead.shape)
                vals = vals.transpose(np.argsort(front))
        except OverflowError:
            vals = None
    if vals is None or not np.isfinite(vals).all():
        raise ValueError(
            f"{name}: Bernstein coefficients over the rectangle overflow the float range"
        )
    return vals
