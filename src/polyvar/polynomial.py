"""Sparse multivariate polynomials, their polar forms, and Bernstein coefficients.

A polynomial is stored as a map from exponent tuples to float coefficients,
together with a per-variable degree vector.  The degree vector may be padded
above the largest stored exponent; this is what lets a family of polynomials
(e.g. the components of a vector field) share one index set of vertex classes.
Bernstein conversion is linear, so at shared degrees the coefficients of a
weighted sum of polynomials are the same weighted sum of their coefficients;
no combined polynomial needs to be formed.

All types here are immutable after construction and all operations are pure,
so they are safe to use concurrently without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Exponent = tuple[int, ...]

# Largest lift accepted: the per-axis degree, and the class count
# prod(d_i + 1), which sizes every lift array (the Bernstein coefficients, the
# class constraint values and the bounding program's columns).
LIFT_MAX_DEGREE = 100
LIFT_MAX_CLASSES = 10**5


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Sparse polynomial in ``n_vars`` variables.

    ``terms`` maps exponent tuples to nonzero coefficients (zero coefficients
    are dropped on construction).  ``degrees`` defaults to the largest
    exponent of each variable, but may be passed explicitly to pad the formal
    degree upward.
    """

    n_vars: int
    terms: dict = field(default_factory=dict)
    degrees: tuple = None

    def __post_init__(self):
        if int(self.n_vars) < 1:
            raise ValueError("n_vars must be a positive integer")
        object.__setattr__(self, "n_vars", int(self.n_vars))
        clean: dict[Exponent, float] = {}
        for exps, coeff in self.terms.items():
            key = tuple(map(int, exps))
            if len(key) != self.n_vars:
                raise ValueError(
                    f"exponent tuple {key} has length {len(key)}, expected "
                    f"{self.n_vars}"
                )
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient of {key} must be finite, got {coeff}")
            clean[key] = clean.get(key, 0.0) + coeff
        clean = {k: c for k, c in clean.items() if c != 0.0}
        # one pass over the terms for every variable's largest exponent
        natural = tuple(map(max, zip(*clean))) if clean else (0,) * self.n_vars
        if self.degrees is None:
            degrees = natural
        else:
            degrees = tuple(int(d) for d in self.degrees)
            if len(degrees) != self.n_vars:
                raise ValueError("degrees length must equal n_vars")
            if any(d < nat for d, nat in zip(degrees, natural)):
                raise ValueError(
                    f"degrees {degrees} below the stored exponents {natural}"
                )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "degrees", degrees)

    def pad_degrees(self, degrees) -> "MultiPoly":
        """Return the same polynomial with degrees raised to at least ``degrees``."""
        padded = tuple(max(d, int(g)) for d, g in zip(self.degrees, degrees))
        if padded == self.degrees:
            return self
        return MultiPoly(self.n_vars, self.terms, degrees=padded)


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
    for exps, coeff in p.terms.items():
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
    for exps, coeff in p.terms.items():
        term = np.full(pts.shape[0], coeff)
        for k, e in enumerate(exps):
            if e:
                term *= pts[:, k] ** e
        out += term
    return out


def _monomial_to_bernstein(degree: int) -> np.ndarray:
    """Lower-triangular change of basis on [0,1]: b_l = sum_i C(l,i)/C(d,i) c_i."""
    m = np.zeros((degree + 1, degree + 1))
    for l in range(degree + 1):
        for i in range(l + 1):
            m[l, i] = math.comb(l, i) / math.comb(degree, i)
    return m


def _shift_to_unit(degree: int, lower: float, width: float) -> np.ndarray:
    """Monomial coefficients in ``y`` from those in ``x = lower + width * y``:
    ``x^e = sum_j C(e, j) lower^(e-j) width^j y^j``."""
    m = np.zeros((degree + 1, degree + 1))
    for e in range(degree + 1):
        for j in range(e + 1):
            m[j, e] = math.comb(e, j) * lower ** (e - j) * width**j
    return m


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
    for exps, coeff in p.terms.items():
        vals[exps] = coeff
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for axis, d in enumerate(p.degrees):
                conv = _monomial_to_bernstein(d) @ _shift_to_unit(
                    d, float(rect.lower[axis]), float(rect.width[axis])
                )
                vals = np.moveaxis(np.tensordot(conv, vals, axes=(1, axis)), 0, axis)
        except OverflowError:
            vals = None
    if vals is None or not np.isfinite(vals).all():
        raise ValueError(
            f"{name}: Bernstein coefficients over the rectangle overflow the float range"
        )
    return vals
