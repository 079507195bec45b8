"""Certified lower bounds for polynomial minimization over a polytope in a box.

The bound comes from a linear program over one convex weight per vertex class
of the lifted box: minimize the weighted Bernstein coefficients over the
weightings whose class points satisfy the constraints on average.  It has one
row per polytope constraint plus the weight row, and its duals are the
Lagrange multipliers that certify the bound.  The same program decides
whether the constraint region is empty: it is infeasible exactly when no
point of the rectangle satisfies the constraints, so no separate feasibility
check is solved.  ``bounding_program`` assembles it from arrays and
``certify`` solves it; ``lower_bound`` does both for one polynomial.
``certify_stack`` certifies a stack of such programs in one stacked solve,
reading all their bounds off in one step; ``invariance.facet_programs``
gathers the stacks of a verification pass from arrays computed once per
synthesis (``invariance.facet_lift``).  Its LP dual over ``(t, lam, mu)``
with one row per class, and the exponentially larger program over the full
set of lifted vertices, which have the same optimal value, live in
``oracle`` as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    LPProblem,
    LPSolution,
    LPStack,
    NumericalFailure,
    Restart,
    solve_dual_stack,
)
from .polynomial import MultiPoly, Rectangle, bernstein_coefficients, check_lift


class DegreeZeroConflict(ValueError):
    """A constraint references a variable absent from the lift (degree zero)."""


class InfeasiblePolytope(Exception):
    """No point of the rectangle satisfies the constraint set."""


class ConstraintSet:
    """Linear constraints ``a_i . x <= b_i`` and ``c_j . x = d_j``.

    Either list may be empty.  Inequalities must already be in ``<=`` form;
    parsing of ``>=`` input happens at the file boundary.
    """

    def __init__(self, n_vars: int, inequalities=(), equalities=()):
        self.n_vars = int(n_vars)
        if self.n_vars < 1:
            raise ValueError("n_vars must be positive")
        ineqs = list(inequalities)
        eqs = list(equalities)
        self.a = np.array([np.asarray(a, dtype=float).reshape(-1) for a, _ in ineqs]).reshape(
            len(ineqs), self.n_vars
        )
        self.b = np.array([float(b) for _, b in ineqs])
        self.c = np.array([np.asarray(c, dtype=float).reshape(-1) for c, _ in eqs]).reshape(
            len(eqs), self.n_vars
        )
        self.d = np.array([float(d) for _, d in eqs])
        for name, arr in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"constraint data {name} must be finite")
        self.a.setflags(write=False)
        self.b.setflags(write=False)
        self.c.setflags(write=False)
        self.d.setflags(write=False)

    @property
    def m_ineq(self) -> int:
        return self.a.shape[0]

    @property
    def m_eq(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Certified lower bound ``d_star`` with the multipliers that witness it.

    ``lam >= 0`` and ``mu`` are the multipliers of the inequality and
    equality constraints, read off the duals of the bounding program, and
    ``d_star = min_c (B_c + lam . g(c) + mu . h(c))`` is the bound they
    certify.  Moving the offsets ``b`` by ``alpha`` and ``d`` by ``beta``
    shifts that bound by ``-(lam . alpha + mu . beta)``, which is what the
    offset step of ``invariance.improve_offsets`` predicts with.
    """

    d_star: float
    lam: np.ndarray
    mu: np.ndarray


def lift_degrees(degrees, *rows) -> tuple:
    """``degrees`` raised to >= 1 on every axis that a row of one of the
    constraint matrices ``rows`` touches (see ``certify`` for why)."""
    touched = np.zeros(len(degrees), dtype=bool)
    for mat in rows:
        touched |= np.any(mat != 0.0, axis=0)
    return tuple(max(d, 1) if t else d for d, t in zip(degrees, touched))


def pad_for_constraints(p: MultiPoly, cs: ConstraintSet) -> MultiPoly:
    """Raise ``p``'s formal degree to >= 1 on every variable a constraint touches."""
    return p.pad_degrees(lift_degrees(p.degrees, cs.a, cs.c))


def class_constraint_values(degrees, rect: Rectangle, mat, rhs) -> np.ndarray:
    """Values ``mat_i . x - rhs_i`` at every class point, one column per row.

    Requires degrees >= 1 on every constrained variable (``lift_degrees``).
    Rows are the classes in lexicographic order.  An affine constraint takes
    the same value on every lifted vertex of class ``l``, namely its value at
    the class point ``lower + (l/d) * width``.  A value that leaves the float
    range comes out infinite or NaN, without a warning; the callers refuse
    it, naming what they lift.
    """
    if len(degrees) != rect.n or mat.shape[1] != rect.n:
        raise ValueError("dimension mismatch")
    touched = np.any(mat != 0.0, axis=0)
    conflict = np.flatnonzero(touched & (np.asarray(degrees) == 0))
    if conflict.size:
        raise DegreeZeroConflict(
            f"constraint touches variable {int(conflict[0])} which has lift degree 0; "
            "pad the polynomial degrees first"
        )
    # Summing axis by axis in index order, with the class point written as
    # (l*upper + (d-l)*lower)/d, repeats the float operations of the scalar
    # per-class definition (oracle.lifted_dot) bit for bit; a BLAS product
    # would round differently.  Each axis's side values broadcast along the
    # other axes of a (d_1+1) x ... x (d_n+1) x m accumulator, whose rows in
    # C order are the classes in lexicographic order.
    n, m = len(degrees), mat.shape[0]
    lattice = tuple(d + 1 for d in degrees)
    acc = np.zeros((*lattice, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, d in enumerate(degrees):
            if d:
                level = np.arange(d + 1.0)
                side = level * rect.upper[k] + (d - level) * rect.lower[k]
                along = [1] * (n + 1)
                along[k] = d + 1
                acc += side.reshape(along) * (mat[:, k] / d)
        return acc.reshape(math.prod(lattice), m) - rhs


def bounding_program(bern: np.ndarray, g: np.ndarray, h: np.ndarray) -> LPProblem:
    """Bounding program over one convex weight ``w_c`` per vertex class.

    ``min sum_c w_c B_c`` subject to ``sum_c w_c = 1``,
    ``sum_c w_c g_i(c) <= 0``, ``sum_c w_c h_j(c) = 0`` and ``w >= 0``, with
    ``bern`` the Bernstein coefficients and the columns of ``g`` and ``h``
    the constraint values at the class points (``class_constraint_values``).
    Row order of ``A``: the weight row, then the equalities.
    """
    return bounding_programs(bern[None], g[None], h[None])[0]


def bounding_programs(bern: np.ndarray, g: np.ndarray, h: np.ndarray) -> LPStack:
    """``bounding_program`` of every row of ``bern`` with the blocks ``g[k]``
    and ``h[k]``, as one stack.

    Member ``k``'s ``G`` is a transposed view of ``g[k]``, so it keeps the
    layout of its block, and ``stack[k]`` solves alone bit for bit as it
    does in the stack.  Like ``LPStack``, the arrays are used as given.
    """
    S, K = bern.shape
    weights = np.ones((S, 1 + h.shape[2], K))
    weights[:, 1:] = h.swapaxes(1, 2)
    total = np.zeros((S, 1 + h.shape[2]))
    total[:, 0] = 1.0
    return LPStack(bern, g.swapaxes(1, 2), np.zeros((S, g.shape[2])), weights, total)


def build_reduced_lp(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> LPProblem:
    """``bounding_program`` of ``p`` over ``{x in rect : cs holds}`` at ``p``'s
    formal degrees, which must already cover the constrained variables."""
    check_lift(p.degrees, "polynomial")
    # One lattice walk for both blocks.  Each column is computed on its own,
    # so the blocks equal one call per block bit for bit; the copies keep
    # each block C-contiguous, the layout the solver's rounding assumes.
    values = class_constraint_values(
        p.degrees, rect, np.vstack([cs.a, cs.c]), np.concatenate([cs.b, cs.d])
    )
    if not np.isfinite(values).all():
        raise ValueError(
            "polynomial: constraint values at the class points overflow the float range"
        )
    g, h = values[:, : cs.m_ineq].copy(), values[:, cs.m_ineq :].copy()
    return bounding_program(bernstein_coefficients(p, rect).reshape(-1), g, h)


def certify(lp: LPProblem) -> BoundResult:
    """Solve a ``bounding_program`` and return the bound its duals certify.

    The duals are multipliers ``lam >= 0`` and ``mu``; by weak duality every
    such pair certifies ``min_c (B_c + lam . g(c) + mu . h(c))``, the returned
    ``d_star``.  Along every constrained axis the class points include both
    ends of the box side, so their convex hull covers the rectangle there:
    an infeasible program means no point of the rectangle satisfies the
    constraints, and raises InfeasiblePolytope.

    The program's dual is always feasible (``lam = 0`` and ``mu = 0``
    certify ``min B``), so it is solved by the dual simplex from a basis
    that is dual feasible before any pivot, with no phase 1
    (``certify_stack``).  A program with no equality row besides the weight
    row, whose least Bernstein class satisfies every inequality row
    strictly, is not solved: that class's weight alone is optimal, so the
    bound is ``min B``, and by complementary slackness ``lam = 0`` are its
    only optimal multipliers.
    """
    if lp.m_eq == 1:
        least = int(np.argmin(lp.c))
        if (lp.G[:, least] < lp.h).all():
            # + 0.0 as in the certificate sum, so a least B of -0.0 reads 0.0
            return BoundResult(
                d_star=float(lp.c[least]) + 0.0, lam=np.zeros(lp.m_ineq), mu=np.zeros(0)
            )
    (outcome,) = certify_stack(LPStack.of(lp))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def certify_stack(stack: LPStack, restart: Restart = None) -> list:
    """``certify`` for every member of a stack of bounding programs, with one
    stacked solve from their dual-feasible starts (``solve_dual_stack``).

    Each member's costs are shifted by their least, ``B - min B >= 0``,
    which moves the objective by the constant ``min B`` since the weights
    sum to 1, so the slack basis of the program posed with inequality rows
    only is dual feasible, and the first dual pivot brings the least
    Bernstein class in through the weight row; no phase 1 runs, and an
    infeasible program is one whose dual is unbounded.  The shift leaves
    every multiplier of a row of ``G`` and of an equality row after the
    weight row as it is, and the bound is certified over the unshifted
    costs, so it holds whatever rounding the shift adds.

    Returns one outcome per member: its BoundResult, or the
    InfeasiblePolytope or NumericalFailure that ``certify`` would raise for
    it alone.  Every member comes out bit for bit as ``certify`` gives it.
    A member may have nonzero right-hand sides ``h`` and ``d[1:]``, as the
    facet programs of a later pass have (``invariance.facet_programs``): its
    bound is then ``certify``'s certificate less ``lam . h + mu . d[1:]``.
    With a ``restart``, the solve restarts from the end tableaux of an
    earlier solve of the same rows (see ``solve_dual_stack``).
    """
    return _certified(stack, solve_dual_stack(_shifted(stack), restart))


def _shifted(stack: LPStack) -> LPStack:
    """``stack`` with each member's costs less their least."""
    return LPStack(stack.c - stack.c.min(axis=1, keepdims=True), stack.G, stack.h, stack.A, stack.d)


def _certified(stack: LPStack, sols) -> list:
    """The outcome of ``certify`` for each member, from its solver outcome;
    the bounds of all members are read off in one stacked step."""
    optimal = [isinstance(sol, LPSolution) and sol.status == OPTIMAL for sol in sols]
    lam = np.zeros(stack.G.shape[:2])
    mu = np.zeros((len(stack), stack.A.shape[1] - 1))
    for k, sol in enumerate(sols):
        if optimal[k]:
            lam[k], mu[k] = sol.ineq_duals, sol.eq_duals[1:]
    terms = (
        stack.c
        + np.matmul(stack.G.swapaxes(1, 2), lam[:, :, None])[:, :, 0]
        + np.matmul(stack.A[:, 1:].swapaxes(1, 2), mu[:, :, None])[:, :, 0]
    )
    rhs = np.matmul(lam[:, None], stack.h[:, :, None])[:, 0, 0]
    rhs += np.matmul(mu[:, None], stack.d[:, 1:, None])[:, 0, 0]
    d_star = (terms.min(axis=1) - rhs).tolist()
    out = []
    for k, sol in enumerate(sols):
        if optimal[k]:
            out.append(BoundResult(d_star=d_star[k], lam=sol.ineq_duals, mu=sol.eq_duals[1:]))
        elif isinstance(sol, NumericalFailure):
            out.append(sol)
        elif sol.status == INFEASIBLE:
            out.append(InfeasiblePolytope("no feasible point in the rectangle"))
        else:
            out.append(NumericalFailure(f"bounding program unexpectedly {sol.status}"))
    return out


def lower_bound(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> BoundResult:
    """Certified lower bound of ``p`` over ``{x in rect : cs holds}`` (see
    ``certify``); degrees are padded for the constrained variables."""
    return certify(build_reduced_lp(pad_for_constraints(p, cs), rect, cs))
