"""Independent references: grid minima, vertex minima and scalar LP assembly.

These are deliberately naive.  The test suite sandwiches the certified bound
between them (bound <= true minimum <= sampled minimum), so they must share no
code path with the bounding programs.  The class enumeration, the per-class
lifted constraint value and the phase-1 region check are the scalar
definitions that the vectorized bounding program is compared against; the
polar form and the full lifted-vertex program cross-check the Bernstein
coefficients and the reduced program; the phase-1 facet check cross-checks
the support-value repair.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .invariance import PolytopeTemplate
from .lpsolve import OPTIMAL, LPProblem, solve
from .polynomial import MultiPoly, Rectangle, evaluate, evaluate_many
from .relaxation import ConstraintSet, DegreeZeroConflict

VERTEX_ENUM_MAX_VARS = 24
FULL_LP_MAX_VERTICES = 2**20


class NoFeasibleSample(Exception):
    """No grid point survived feasibility filtering."""


class NotMultiAffine(ValueError):
    """Vertex minimization requires degree <= 1 in every variable."""


class SizeGuardError(ValueError):
    """The full lifted program would exceed the hard vertex-count guard."""


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


def blossom_eval(p: MultiPoly, z) -> float:
    """Polar form of ``p`` at ``z``.

    ``z`` concatenates one block of ``degrees[k]`` arguments per variable;
    variables of degree zero contribute no entries.  The polar form is the
    unique symmetric multi-affine function agreeing with ``p`` on the
    diagonal; each monomial block evaluates to the elementary symmetric sum
    of the block normalized by the binomial coefficient.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    total_deg = sum(p.degrees)
    if z.size != total_deg:
        raise ValueError(f"argument vector has {z.size} entries, expected {total_deg}")
    sym: list[np.ndarray] = []
    offset = 0
    for d in p.degrees:
        block = z[offset : offset + d]
        offset += d
        e = np.zeros(d + 1)
        e[0] = 1.0
        for i in range(d):
            e[1 : i + 2] = e[1 : i + 2] + block[i] * e[0 : i + 1]
        binom = np.array([math.comb(d, l) for l in range(d + 1)])
        sym.append(e / binom)
    q = 0.0
    for exps, coeff in p.terms.items():
        term = coeff
        for k, l in enumerate(exps):
            term *= sym[k][l]
        q += term
    return q


def build_full_lp(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> LPProblem:
    """Unreduced bounding program with one row per lifted box vertex.

    Exponential in the total degree; guarded, and used only as an equivalence
    oracle for the reduced program.  Extra variables: one multiplier per
    adjacent-argument symmetry constraint of the lift.
    """
    if cs.n_vars != p.n_vars or rect.n != p.n_vars:
        raise ValueError("dimension mismatch")
    degrees = p.degrees
    total_deg = sum(degrees)
    if 2**total_deg > FULL_LP_MAX_VERTICES:
        raise SizeGuardError(f"2**{total_deg} lifted vertices exceed the guard")
    m_i, m_j = cs.m_ineq, cs.m_eq

    slot_var = [k for k in range(p.n_vars) for _ in range(degrees[k])]
    lifted_a = np.zeros((m_i, total_deg))
    for i in range(m_i):
        for s, k in enumerate(slot_var):
            lifted_a[i, s] = cs.a[i, k] / degrees[k]
        for k in range(p.n_vars):
            if degrees[k] == 0 and cs.a[i, k] != 0.0:
                raise DegreeZeroConflict(f"constraint {i} touches degree-0 variable {k}")
    lifted_c = np.zeros((m_j, total_deg))
    for j in range(m_j):
        for s, k in enumerate(slot_var):
            lifted_c[j, s] = cs.c[j, k] / degrees[k]
        for k in range(p.n_vars):
            if degrees[k] == 0 and cs.c[j, k] != 0.0:
                raise DegreeZeroConflict(f"equality {j} touches degree-0 variable {k}")

    # Adjacent-argument difference rows within each variable block.
    sym_rows = []
    offset = 0
    for k in range(p.n_vars):
        for l in range(degrees[k] - 1):
            sym_rows.append((offset + l, offset + l + 1))
        offset += degrees[k]
    n_alpha = len(sym_rows)

    n_lp = 1 + m_i + m_j + n_alpha
    choices = [(rect.lower[k], rect.upper[k]) for k in slot_var]
    n_vertices = 2**total_deg
    rows = np.zeros((n_vertices + m_i, n_lp))
    rhs = np.zeros(n_vertices + m_i)
    for r, vertex in enumerate(itertools.product(*choices)):
        v = np.asarray(vertex)
        rows[r, 0] = 1.0
        for i in range(m_i):
            rows[r, 1 + i] = -(lifted_a[i] @ v - cs.b[i])
        for j in range(m_j):
            rows[r, 1 + m_i + j] = -(lifted_c[j] @ v - cs.d[j])
        for s, (u, w) in enumerate(sym_rows):
            rows[r, 1 + m_i + m_j + s] = -(v[u] - v[w])
        rhs[r] = blossom_eval(p, v)
    for i in range(m_i):
        rows[n_vertices + i, 1 + i] = -1.0
    obj = np.zeros(n_lp)
    obj[0] = 1.0
    return LPProblem("max", obj, G=rows, h=rhs)


def facet_nonempty(tpl: PolytopeTemplate, rect: Rectangle, k: int) -> bool:
    """Phase-1 check that facet ``k`` contains a point of the rectangle."""
    if not 0 <= k < tpl.m:
        raise ValueError(f"facet index {k} out of range")
    others = [i for i in range(tpl.m) if i != k]
    lp = LPProblem(
        "min",
        np.zeros(tpl.n),
        G=tpl.normals[others],
        h=tpl.offsets[others],
        A=tpl.normals[k : k + 1],
        d=tpl.offsets[k : k + 1],
        lo=rect.lower,
        hi=rect.upper,
    )
    return solve(lp).status == OPTIMAL
