"""Independent references: grid minima, vertex minima and scalar LP assembly.

These are deliberately naive.  The test suite sandwiches the certified bound
between them (bound <= true minimum <= sampled minimum), so they must share no
code path with the bounding programs.  The class enumeration, the per-class
lifted constraint value and the phase-1 region check are the scalar
definitions that the vectorized bounding program is compared against.
"""

from __future__ import annotations

import itertools

import numpy as np

from .lpsolve import OPTIMAL, LPProblem, solve
from .polynomial import MultiPoly, Rectangle, evaluate, evaluate_many
from .relaxation import ConstraintSet, DegreeZeroConflict

VERTEX_ENUM_MAX_VARS = 24


class NoFeasibleSample(Exception):
    """No grid point survived feasibility filtering."""


class NotMultiAffine(ValueError):
    """Vertex minimization requires degree <= 1 in every variable."""


def grid_min(
    p: MultiPoly,
    rect: Rectangle,
    cs: ConstraintSet = None,
    steps_per_axis: int = 50,
) -> tuple[float, np.ndarray]:
    """Minimum of ``p`` over feasible grid points; ties pick the
    lexicographically smallest witness.

    Equality constraints are handled by orthogonally projecting every grid
    point onto their affine subspace before filtering: a plain grid almost
    never contains exact equality points.  Points pushed outside the
    rectangle by the projection are discarded.
    """
    if steps_per_axis < 2:
        raise ValueError("steps_per_axis must be at least 2")
    if cs is None:
        cs = ConstraintSet(p.n_vars)
    if cs.n_vars != p.n_vars or rect.n != p.n_vars:
        raise ValueError("dimension mismatch")
    axes = [np.linspace(rect.lower[k], rect.upper[k], steps_per_axis) for k in range(rect.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    if cs.m_eq:
        residual = pts @ cs.c.T - cs.d
        pts = pts - residual @ np.linalg.pinv(cs.c).T
        keep = np.abs(pts @ cs.c.T - cs.d).max(axis=1) <= 1e-6
    else:
        keep = np.ones(pts.shape[0], dtype=bool)
    box_tol = 1e-9 * (1.0 + np.abs(rect.upper - rect.lower).max())
    keep &= np.all(pts >= rect.lower - box_tol, axis=1)
    keep &= np.all(pts <= rect.upper + box_tol, axis=1)
    if cs.m_ineq:
        ineq_tol = 1e-9 * (1.0 + np.abs(cs.b).max(initial=0.0))
        keep &= np.all(pts @ cs.a.T <= cs.b + ineq_tol, axis=1)
    if not keep.any():
        raise NoFeasibleSample("no grid point satisfies the constraints")
    feas = pts[keep]
    vals = evaluate_many(p, feas)
    vmin = vals.min()
    witnesses = feas[vals == vmin]
    witness = min(map(tuple, witnesses))
    return float(vmin), np.asarray(witness)


def vertex_min(p: MultiPoly, rect: Rectangle) -> tuple[float, np.ndarray]:
    """Exact minimum of a multi-affine polynomial over the rectangle.

    Enumerates the ``2**n`` vertices in lexicographic order (lower bound
    first on each axis); the first minimizer encountered is returned, which
    is the lexicographically smallest one.
    """
    if rect.n != p.n_vars:
        raise ValueError("dimension mismatch")
    if not p.is_multi_affine():
        raise NotMultiAffine(f"degrees {p.degrees} exceed 1")
    if p.n_vars > VERTEX_ENUM_MAX_VARS:
        raise ValueError(f"vertex enumeration guarded at n <= {VERTEX_ENUM_MAX_VARS}")
    best_val = None
    best_vertex = None
    for vertex in itertools.product(*zip(rect.lower, rect.upper)):
        val = evaluate(p, vertex)
        if best_val is None or val < best_val:
            best_val = val
            best_vertex = vertex
    return float(best_val), np.asarray(best_vertex)


def enumerate_classes(degrees) -> list[tuple[int, ...]]:
    """All class indices ``(l_1, ..., l_n)`` with ``0 <= l_k <= degrees[k]``, in
    lexicographic order.  The order is part of the external contract."""
    return list(itertools.product(*(range(int(d) + 1) for d in degrees)))


def lifted_dot(a, rect: Rectangle, degrees, class_index) -> float:
    """Value of the lifted row vector at the vertex class ``class_index``.

    Each variable contributes its average lifted coordinate, which equals
    ``(l_k * upper_k + (degrees_k - l_k) * lower_k) / degrees_k``.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size != rect.n or len(degrees) != rect.n or len(class_index) != rect.n:
        raise ValueError("dimension mismatch in lifted_dot")
    total = 0.0
    for k in range(rect.n):
        dk = int(degrees[k])
        lk = int(class_index[k])
        if dk == 0:
            if a[k] != 0.0:
                raise DegreeZeroConflict(
                    f"constraint touches variable {k} which has lift degree 0; "
                    "pad the polynomial degrees first"
                )
            continue
        if not 0 <= lk <= dk:
            raise ValueError(f"class index {class_index} out of range for {degrees}")
        total += (a[k] / dk) * (lk * rect.upper[k] + (dk - lk) * rect.lower[k])
    return total


def region_is_feasible(rect: Rectangle, cs: ConstraintSet) -> bool:
    """Phase-1 check that some ``x`` in the rectangle satisfies ``cs``."""
    lp = LPProblem(
        "min",
        np.zeros(cs.n_vars),
        G=cs.a if cs.m_ineq else None,
        h=cs.b if cs.m_ineq else None,
        A=cs.c if cs.m_eq else None,
        d=cs.d if cs.m_eq else None,
        lo=rect.lower,
        hi=rect.upper,
    )
    return solve(lp).status == OPTIMAL
