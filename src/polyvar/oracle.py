"""Independent references: grid minima, vertex minima and scalar LP assembly.

These are deliberately naive.  The test suite sandwiches the certified bound
between them (bound <= true minimum <= sampled minimum), so they must share no
code path with the bounding programs.  The class enumeration, the per-class
lifted constraint value and the phase-1 region check are the scalar
definitions that the vectorized bounding program is compared against; the
polar form, the term-by-term rescale to the unit box and the reconstruction
of values from the Bernstein basis cross-check the Bernstein coefficients;
``sensitivity_bound``, the first-order prediction of a bound after its
offsets move, is checked against re-solved bounds; the full lifted-vertex
program cross-checks the value of the bounding program; its primal form
(one row per class) is built from the same class values and coefficients,
so it cross-checks the LP and its duals rather than the assembly; the
phase-1 facet check cross-checks the support-value repair.  ``free_lp`` and ``box_lp`` pose free and boxed
variables in the LP engine's one form for these references and the tests,
and ``complementary_slackness`` measures the one optimality condition that
the engine's self-check does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .invariance import PolytopeTemplate
from .lpsolve import OPTIMAL, LPProblem, LPSolution, solve
from .polynomial import MultiPoly, Rectangle, bernstein_coefficients, evaluate, evaluate_many
from .relaxation import BoundResult, ConstraintSet, DegreeZeroConflict, class_constraint_values

VERTEX_ENUM_MAX_VARS = 24
GRID_MAX_POINTS = 10**7
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
    rectangle by the projection are discarded.  A grid of more than
    ``GRID_MAX_POINTS`` points is refused before anything is allocated.
    """
    if steps_per_axis < 2:
        raise ValueError("steps_per_axis must be at least 2")
    if int(steps_per_axis) ** rect.n > GRID_MAX_POINTS:
        raise ValueError(f"steps_per_axis={steps_per_axis} gives over {GRID_MAX_POINTS} points")
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
        # each row's tolerance scales with the size of its own terms over the
        # box, so a row of tiny coefficients is not swamped by a unit one
        reach = np.maximum(np.abs(rect.lower), np.abs(rect.upper))
        ineq_tol = 1e-9 * (np.abs(cs.b) + np.abs(cs.a) @ reach)
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
    if any(d > 1 for d in p.degrees):
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


def free_lp(c, G=None, h=None, A=None, d=None) -> LPProblem:
    """``min c.v`` over free ``v``, posed with ``v = v+ - v-`` in adjacent
    columns; ``x[0::2] - x[1::2]`` maps a solution back."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    sign = np.tile([1.0, -1.0], c.size)

    def split(mat):
        return None if mat is None else np.repeat(np.reshape(mat, (-1, c.size)), 2, axis=1) * sign

    return LPProblem(np.repeat(c, 2) * sign, G=split(G), h=h, A=split(A), d=d)


def complementary_slackness(lp: LPProblem, sol: LPSolution) -> float:
    """Largest complementarity product of an optimal solution, scaled as
    ``kkt_residuals`` scales its residuals: ``lam * (h - G x)`` and
    ``x * (c + G^T lam + A^T mu)``, both zero at an exact optimum."""
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    scale = 1.0 + np.abs(np.concatenate([lp.h, lp.d, x, lp.c])).max(initial=0.0)
    reduced = lp.c + lp.G.T @ lam + lp.A.T @ mu
    products = np.abs(np.concatenate([lam * (lp.h - lp.G @ x), x * reduced]))
    return float(products.max(initial=0.0)) / scale


def box_lp(c, rect: Rectangle, G=None, h=None, A=None, d=None) -> LPProblem:
    """``min c.x`` over ``x`` in ``rect`` with ``G x <= h`` and ``A x = d``.

    Posed in ``y = x - rect.lower >= 0``, with the box's upper sides as rows
    after ``G``; add ``rect.lower`` to a solution to map it back.
    """
    n = rect.n
    G = np.vstack([np.reshape(np.zeros((0, n)) if G is None else G, (-1, n)), np.eye(n)])
    h = np.concatenate([np.zeros(0) if h is None else h, rect.upper]) - G @ rect.lower
    A = np.reshape(np.zeros((0, n)) if A is None else A, (-1, n))
    d = (np.zeros(0) if d is None else np.asarray(d, dtype=float)) - A @ rect.lower
    return LPProblem(c, G=G, h=h, A=A, d=d)


def box_point(rect: Rectangle, G=None, h=None, A=None, d=None):
    """Phase-1 point of ``{x in rect : G x <= h, A x = d}``, or None if empty."""
    sol = solve(box_lp(np.zeros(rect.n), rect, G, h, A, d))
    return sol.x + rect.lower if sol.status == OPTIMAL else None


def region_is_feasible(rect: Rectangle, cs: ConstraintSet) -> bool:
    """Phase-1 check that some ``x`` in the rectangle satisfies ``cs``."""
    return box_point(rect, cs.a, cs.b, cs.c, cs.d) is not None


def to_unit_box(p: MultiPoly, rect: Rectangle) -> MultiPoly:
    """Substitute ``x_k = lower_k + width_k * y_k`` so the box becomes [0,1]^n."""
    if rect.n != p.n_vars:
        raise ValueError("rectangle dimension must equal n_vars")
    lo = rect.lower
    wid = rect.width
    out: dict = {}
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


def bernstein_basis(degree: int, y: float) -> np.ndarray:
    """Values of the degree-``degree`` Bernstein basis polynomials at ``y``."""
    ls = np.arange(degree + 1)
    binom = np.array([math.comb(degree, int(l)) for l in ls], dtype=float)
    return binom * y**ls * (1.0 - y) ** (degree - ls)


def bernstein_evaluate(coeffs: np.ndarray, rect: Rectangle, x) -> float:
    """The polynomial value at ``x`` reconstructed from its Bernstein
    coefficients ``coeffs`` over ``rect`` (``bernstein_coefficients``)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != rect.n or coeffs.ndim != rect.n:
        raise ValueError("point dimension mismatch")
    y = (x - rect.lower) / rect.width
    acc = coeffs
    for k, size in enumerate(coeffs.shape):
        acc = np.tensordot(bernstein_basis(size - 1, y[k]), acc, axes=(0, 0))
    return float(acc)


def sensitivity_bound(res: BoundResult, alpha, beta=None) -> float:
    """Lower bound on the bound after offsets move by ``alpha`` (and ``beta``).

    Valid whenever the perturbed region stays feasible; exact when no
    perturbed row carries a multiplier.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.size != res.lam.size:
        raise ValueError("alpha length must match the number of inequalities")
    shift = float(res.lam @ alpha)
    if beta is not None:
        beta = np.asarray(beta, dtype=float).reshape(-1)
        if beta.size != res.mu.size:
            raise ValueError("beta length must match the number of equalities")
        shift += float(res.mu @ beta)
    elif res.mu.size:
        raise ValueError("beta required when equalities are present")
    return res.d_star - shift


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


def build_primal_lp(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> LPProblem:
    """The LP dual of ``relaxation.build_reduced_lp``: ``max t`` over free
    ``(t, lam, mu)`` with one row ``t - lam . g(c) - mu . h(c) <= B_c`` per
    vertex class ``c`` and then the ``lam >= 0`` rows, posed as ``min -t``
    by ``free_lp``.

    Its optimum is minus the reduced program's whenever the region is
    nonempty, and it is unbounded when the region is empty; its class block
    is the negated transpose of the reduced program's constraint block.
    """
    g = class_constraint_values(p.degrees, rect, cs.a, cs.b)
    h = class_constraint_values(p.degrees, rect, cs.c, cs.d)
    bern = bernstein_coefficients(p, rect).reshape(-1)
    n_cls = bern.size
    m_i, m_j = cs.m_ineq, cs.m_eq
    rows = np.zeros((n_cls + m_i, 1 + m_i + m_j))
    rows[:n_cls, 0] = 1.0
    rows[:n_cls, 1 : 1 + m_i] = -g
    rows[:n_cls, 1 + m_i :] = -h
    rows[n_cls:, 1 : 1 + m_i] = -np.eye(m_i)
    rhs = np.concatenate([bern, np.zeros(m_i)])
    obj = np.zeros(1 + m_i + m_j)
    obj[0] = -1.0
    return free_lp(obj, G=rows, h=rhs)


def build_full_lp(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> LPProblem:
    """Unreduced bounding program with one row per lifted box vertex.

    Exponential in the total degree; guarded, and used only as an equivalence
    oracle for the reduced program.  Extra variables: one multiplier per
    adjacent-argument symmetry constraint of the lift.  Posed like
    ``build_primal_lp``, as ``min -t`` over free variables.
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
    obj[0] = -1.0
    return free_lp(obj, G=rows, h=rhs)


def facet_nonempty(tpl: PolytopeTemplate, rect: Rectangle, k: int) -> bool:
    """Phase-1 check that facet ``k`` contains a point of the rectangle."""
    if not 0 <= k < tpl.m:
        raise ValueError(f"facet index {k} out of range")
    others = np.arange(tpl.m) != k
    facet = slice(k, k + 1)
    point = box_point(
        rect, tpl.normals[others], tpl.offsets[others], tpl.normals[facet], tpl.offsets[facet]
    )
    return point is not None
