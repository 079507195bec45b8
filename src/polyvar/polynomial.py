"""Sparse multivariate polynomials, their polar forms, and Bernstein coefficients.

A polynomial is stored as a map from exponent tuples to float coefficients,
together with a per-variable degree vector.  The degree vector may be padded
above the largest stored exponent; this is what lets a family of polynomials
(e.g. the components of a vector field) share one index set of vertex classes.

All types here are immutable after construction and all operations are pure,
so they are safe to use concurrently without locking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

Exponent = tuple[int, ...]


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
            key = tuple(int(e) for e in exps)
            if len(key) != self.n_vars:
                raise ValueError(
                    f"exponent tuple {key} has length {len(key)}, expected "
                    f"{self.n_vars}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient of {key} must be finite, got {coeff}")
            clean[key] = clean.get(key, 0.0) + coeff
        clean = {k: c for k, c in clean.items() if c != 0.0}
        natural = tuple(
            max((e[k] for e in clean), default=0) for k in range(self.n_vars)
        )
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

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultiPoly":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def is_multi_affine(self) -> bool:
        return all(d <= 1 for d in self.degrees)

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

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class BernsteinTensor:
    """Polar-form values on vertex classes = Bernstein coordinates over a box.

    ``values[l1, ..., ln]`` is the polar form evaluated at the class with
    ``l_k`` arguments at ``upper_k`` and ``degrees_k - l_k`` at ``lower_k``.
    """

    rectangle: Rectangle
    degrees: tuple
    values: np.ndarray

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        vals = np.asarray(self.values, dtype=float)
        shape = tuple(d + 1 for d in degrees)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != expected {shape}")
        if len(degrees) != self.rectangle.n:
            raise ValueError("degree vector length must match rectangle dimension")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "values", vals)

    def value(self, class_index) -> float:
        return float(self.values[tuple(int(i) for i in class_index)])

    def min(self) -> float:
        return float(self.values.min())

    def evaluate(self, x) -> float:
        """Reconstruct the polynomial value at ``x`` from the Bernstein expansion."""
        x = np.asarray(x, dtype=float)
        if x.size != self.rectangle.n:
            raise ValueError("point dimension mismatch")
        y = (x - self.rectangle.lower) / self.rectangle.width
        acc = self.values
        for k, d in enumerate(self.degrees):
            acc = np.tensordot(bernstein_basis(d, y[k]), acc, axes=(0, 0))
        return float(acc)


def bernstein_basis(degree: int, y: float) -> np.ndarray:
    """Values of the degree-``degree`` Bernstein basis polynomials at ``y``."""
    ls = np.arange(degree + 1)
    binom = np.array([math.comb(degree, int(l)) for l in ls], dtype=float)
    return binom * y**ls * (1.0 - y) ** (degree - ls)


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


def to_unit_box(p: MultiPoly, rect: Rectangle) -> MultiPoly:
    """Substitute ``x_k = lower_k + width_k * y_k`` so the box becomes [0,1]^n."""
    if rect.n != p.n_vars:
        raise ValueError("rectangle dimension must equal n_vars")
    lo = rect.lower
    wid = rect.width
    out: dict[Exponent, float] = {}
    for exps, coeff in p.terms.items():
        per_var = []
        for k, e in enumerate(exps):
            per_var.append(
                [math.comb(e, j) * lo[k] ** (e - j) * wid[k] ** j for j in range(e + 1)]
            )
        for js in itertools.product(*(range(e + 1) for e in exps)):
            w = coeff
            for k, j in enumerate(js):
                w *= per_var[k][j]
            out[js] = out.get(js, 0.0) + w
    return MultiPoly(p.n_vars, out, degrees=p.degrees)


def _monomial_to_bernstein(degree: int) -> np.ndarray:
    """Lower-triangular change of basis on [0,1]: b_l = sum_i C(l,i)/C(d,i) c_i."""
    m = np.zeros((degree + 1, degree + 1))
    for l in range(degree + 1):
        for i in range(l + 1):
            m[l, i] = math.comb(l, i) / math.comb(degree, i)
    return m


def bernstein_coefficients(p: MultiPoly, rect: Rectangle) -> BernsteinTensor:
    """Bernstein coordinates of ``p`` over ``rect`` at its formal degrees.

    Computed by the affine rescale to the unit box followed by one triangular
    basis conversion per axis; this avoids ever expanding the polar form,
    whose explicit expression can have exponentially many terms.
    """
    if rect.n != p.n_vars:
        raise ValueError("rectangle dimension must equal n_vars")
    unit = to_unit_box(p, rect)
    shape = tuple(d + 1 for d in p.degrees)
    coeffs = np.zeros(shape)
    for exps, coeff in unit.terms.items():
        coeffs[exps] = coeff
    vals = coeffs
    for axis, d in enumerate(p.degrees):
        conv = _monomial_to_bernstein(d)
        vals = np.moveaxis(
            np.tensordot(conv, np.moveaxis(vals, axis, 0), axes=(1, 0)), 0, axis
        )
    return BernsteinTensor(rect, p.degrees, vals)


def linear_combination(polys, weights, degrees=None) -> MultiPoly:
    """Weighted sum of polynomials sharing one variable set."""
    polys = list(polys)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if len(polys) != weights.size or not polys:
        raise ValueError("need one weight per polynomial")
    n_vars = polys[0].n_vars
    if any(q.n_vars != n_vars for q in polys):
        raise ValueError("polynomials must share n_vars")
    acc: dict[Exponent, float] = {}
    for w, q in zip(weights, polys):
        if w == 0.0:
            continue
        for exps, coeff in q.terms.items():
            acc[exps] = acc.get(exps, 0.0) + w * coeff
    return MultiPoly(n_vars, acc, degrees=degrees)


def facet_objective(components, normal) -> MultiPoly:
    """Objective ``-normal . f`` padded to the unified componentwise degrees.

    The degree vector of the result is the maximum, over all components, of
    the component's degree in each variable, so every facet of a template
    shares one set of vertex classes regardless of its normal.
    """
    components = list(components)
    normal = np.asarray(normal, dtype=float).reshape(-1)
    if len(components) != normal.size:
        raise ValueError("normal length must equal the number of components")
    n_vars = components[0].n_vars
    if any(f.n_vars != n_vars for f in components):
        raise ValueError("components must share n_vars")
    unified = tuple(
        max(f.degrees[k] for f in components) for k in range(n_vars)
    )
    return linear_combination(components, -normal, degrees=unified)
