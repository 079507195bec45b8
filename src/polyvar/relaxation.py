"""Certified lower bounds for polynomial minimization over a polytope in a box.

The bound comes from a linear program over one multiplier per polytope
constraint plus a single epigraph variable, with one row per vertex class of
the lifted box.  The same program decides whether the constraint region is
empty: it is always feasible, and by LP duality it is unbounded exactly when
no point of the rectangle satisfies the constraints, so no separate
feasibility check is solved.  The exponentially larger program over the full
set of lifted vertices, which has the same optimal value, lives in ``oracle``
as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lpsolve import OPTIMAL, UNBOUNDED, LPProblem, NumericalFailure, solve
from .polynomial import MultiPoly, Rectangle, bernstein_coefficients


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

    def is_empty(self) -> bool:
        return self.m_ineq == 0 and self.m_eq == 0


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Certified lower bound ``d_star`` with the multipliers that witness it.

    ``lam`` and ``mu`` are the optimal multipliers of the inequality and
    equality rows; they are decision variables of the bounding program itself,
    so they feed sensitivity analysis without any sign conversion.
    """

    d_star: float
    lam: np.ndarray
    mu: np.ndarray
    status: str = OPTIMAL


def pad_for_constraints(p: MultiPoly, cs: ConstraintSet) -> MultiPoly:
    """Raise ``p``'s formal degree to >= 1 on every variable a constraint touches."""
    touched = np.zeros(p.n_vars, dtype=bool)
    if cs.m_ineq:
        touched |= np.any(cs.a != 0.0, axis=0)
    if cs.m_eq:
        touched |= np.any(cs.c != 0.0, axis=0)
    wanted = tuple(max(d, 1) if t else d for d, t in zip(p.degrees, touched))
    return p.pad_degrees(wanted)


def build_reduced_lp(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> LPProblem:
    """Bounding program over ``(t, lam, mu)`` with one row per vertex class.

    Requires degrees already padded so every constrained variable has degree
    >= 1 (see ``pad_for_constraints``).  Row order: classes in lexicographic
    order, then the ``lam >= 0`` rows.  An affine constraint takes the same
    value on every lifted vertex of class ``l``, namely its value at the class
    point ``lower + (l/d) * width``, so each constraint block is the class
    points times the constraint matrix, for all classes at once.
    """
    if cs.n_vars != p.n_vars or rect.n != p.n_vars:
        raise ValueError("dimension mismatch")
    touched = np.any(cs.a != 0.0, axis=0) | np.any(cs.c != 0.0, axis=0)
    conflict = np.flatnonzero(touched & (np.asarray(p.degrees) == 0))
    if conflict.size:
        raise DegreeZeroConflict(
            f"constraint touches variable {int(conflict[0])} which has lift degree 0; "
            "pad the polynomial degrees first"
        )
    tensor = bernstein_coefficients(p, rect)
    grid = np.meshgrid(*(np.arange(d + 1.0) for d in p.degrees), indexing="ij")
    levels = [g.reshape(-1) for g in grid]
    n_cls = tensor.values.size

    def class_values(mat, rhs):
        # Summing axis by axis in index order, with the class point written
        # as (l*upper + (d-l)*lower)/d, repeats the float operations of the
        # scalar per-class definition (oracle.lifted_dot), so the program and
        # its optimal multipliers are bit for bit those of the scalar
        # assembly; a BLAS product would round differently.
        acc = np.zeros((n_cls, mat.shape[0]))
        for k, d in enumerate(p.degrees):
            if d:
                side = levels[k] * rect.upper[k] + (d - levels[k]) * rect.lower[k]
                acc += np.outer(side, mat[:, k] / d)
        return -(acc - rhs)

    m_i, m_j = cs.m_ineq, cs.m_eq
    rows = np.zeros((n_cls + m_i, 1 + m_i + m_j))
    rows[:n_cls, 0] = 1.0
    rows[:n_cls, 1 : 1 + m_i] = class_values(cs.a, cs.b)
    rows[:n_cls, 1 + m_i :] = class_values(cs.c, cs.d)
    rows[n_cls:, 1 : 1 + m_i] = -np.eye(m_i)
    rhs = np.concatenate([tensor.values.reshape(-1), np.zeros(m_i)])
    obj = np.zeros(1 + m_i + m_j)
    obj[0] = 1.0
    return LPProblem("max", obj, G=rows, h=rhs)


def lower_bound(p: MultiPoly, rect: Rectangle, cs: ConstraintSet) -> BoundResult:
    """Certified lower bound of ``p`` over ``{x in rect : cs holds}``.

    Degrees are padded automatically for constrained variables.  The bounding
    program also decides whether the region is empty.  It is always feasible
    (``t = min B``, ``lam = mu = 0``), and by LP duality it is unbounded
    exactly when no convex combination of the class points satisfies ``cs``.
    Along every constrained axis the class points include both ends of the
    box side, so their convex hull covers the whole rectangle there; an
    unbounded program thus means no point of the rectangle satisfies ``cs``,
    and raises InfeasiblePolytope (the bound would be vacuously +inf).
    """
    padded = pad_for_constraints(p, cs)
    sol = solve(build_reduced_lp(padded, rect, cs))
    if sol.status == UNBOUNDED:
        raise InfeasiblePolytope("no feasible point in the rectangle")
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"bounding program unexpectedly {sol.status}")
    m_i = cs.m_ineq
    lam = sol.x[1 : 1 + m_i].copy()
    mu = sol.x[1 + m_i :].copy()
    return BoundResult(d_star=float(sol.objective), lam=lam, mu=mu)


def sensitivity_bound(res: BoundResult, alpha, beta=None) -> float:
    """Lower bound on the bound after offsets move by ``alpha`` (and ``beta``).

    Valid whenever the perturbed region stays feasible; exact when no
    perturbed row carries a multiplier.
    """
    if res.status != OPTIMAL:
        raise ValueError("sensitivity_bound requires an optimal BoundResult")
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
