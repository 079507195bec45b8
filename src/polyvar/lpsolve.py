"""Dense two-phase simplex for small linear programs, with dual extraction.

Every program has one form, ``min c.x`` subject to ``G x <= h``, ``A x = d``
and ``x >= 0``; callers pose free and boxed variables in it themselves.
Every program this package builds has at most a few dozen rows; the bounding
programs have one column per vertex class, up to a few thousand.  A dense
tableau is fast enough at that shape and carries its own duals: its last
row holds the reduced costs, which every pivot updates with the rest, and
the columns that formed the start basis hold the basis inverse, so a row's
dual is minus the reduced cost of its start column, refined once against
the program's own rows.  Rows far from unit scale are rescaled by powers of
two first.  Pricing is Dantzig's rule, switching to Bland's rule after too
many degenerate pivots to rule out cycling.  Among the optimal duals, an
active inequality row gets a nonzero multiplier where one exists (see
``_activate_degenerate_rows``): the bounding program's multipliers are its
duals, and a zero multiplier on an active facet hides how the bound reacts
to moving that facet.

``solve_many`` solves one set of rows under many costs, as the support
queries of one polytope do: phase 1 runs once, and each cost's phase 2
prices the reduced-cost row at the basis where the previous cost's ended,
which is still primal feasible.  ``solve`` is ``solve_many`` with the
program's own cost, so there is one phase-1 and one phase-2 code path.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-10


class NumericalFailure(RuntimeError):
    """The solver could not certify a result at its tolerances."""


@dataclass(eq=False)
class LPProblem:
    """``min c.x`` subject to ``G x <= h``, ``A x = d`` and ``x >= 0``.

    The one form every program is posed in: a free variable is the
    difference of two adjacent nonnegative columns, and a boxed one is
    shifted to its lower bound with its upper bound as a row of ``G``.
    Either row block may be omitted.
    """

    c: np.ndarray
    G: np.ndarray = None
    h: np.ndarray = None
    A: np.ndarray = None
    d: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.size
        G = np.zeros((0, n)) if self.G is None else np.asarray(self.G, dtype=float).reshape(-1, n)
        h = np.zeros(0) if self.h is None else np.atleast_1d(np.asarray(self.h, dtype=float))
        A = np.zeros((0, n)) if self.A is None else np.asarray(self.A, dtype=float).reshape(-1, n)
        d = np.zeros(0) if self.d is None else np.atleast_1d(np.asarray(self.d, dtype=float))
        if G.shape[0] != h.size or A.shape[0] != d.size:
            raise ValueError("constraint matrix and right-hand side sizes disagree")
        for arr in (c, G, h, A, d):
            if arr.size and np.isnan(arr).any():
                raise ValueError("NaN in problem data")
        self.c, self.G, self.h, self.A, self.d = c, G, h, A, d

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def m_ineq(self) -> int:
        return self.G.shape[0]

    @property
    def m_eq(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class LPSolution:
    """Solver output; primal/dual data is populated only when status is optimal.

    ``ineq_duals`` are the multipliers ``lam >= 0`` of the ``G x <= h`` rows
    and ``eq_duals`` the free multipliers ``mu`` of the ``A x = d`` rows.  At
    the optimum the reduced costs ``c + G^T lam + A^T mu`` are nonnegative and
    ``c.x = -(lam.h + mu.d)``.
    """

    status: str
    x: np.ndarray = None
    objective: float = None
    ineq_duals: np.ndarray = None
    eq_duals: np.ndarray = None


def _pivot(T, basis, row, col):
    """Pivot tableau ``T`` in place on ``(row, col)``; ``col`` enters the basis.

    The rank-1 update covers the reduced-cost row too, so it stays current.
    """
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    basis[row] = col


def _price(T, basis, cost):
    """Set the reduced-cost row of ``T`` (its last) to ``cost`` at ``basis``."""
    T[-1] = np.append(cost, 0.0) - cost[basis] @ T[:-1]


def _pivot_loop(T, basis, n_enter):
    """Run simplex pivots on tableau ``T`` in place, letting only its first
    ``n_enter`` columns enter; returns 'optimal'/'unbounded'."""
    size = T.shape[0] + T.shape[1] - 2  # constraint rows plus columns
    degenerate = 0
    for _ in range(1000 + 50 * size):
        r = T[-1, :n_enter]
        # Dantzig's rule; Bland's (the first improving column) once
        # degenerate pivots pile up
        enter = int(np.argmax(r < -PIVOT_TOL) if degenerate > 5 * size else np.argmin(r))
        if r[enter] >= -PIVOT_TOL:
            return OPTIMAL
        col = T[:-1, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])
        degenerate += best <= 1e-12
        if abs(T[leave, enter]) < PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        _pivot(T, basis, leave, enter)
    raise NumericalFailure("simplex iteration limit exceeded")


def _activate_degenerate_rows(T, basis, first_slack, n_enter):
    """Give weakly active inequality rows a multiplier, keeping ``x`` optimal.

    A row whose slack is basic at zero is active but carries a zero basis
    dual, the end of the optimal multiplier set that says nothing about the
    row.  One dual-simplex pivot per such row moves its slack out of the
    basis: the entering column (one of the first ``n_enter``) minimizes
    ``r_j / |T[row, j]|`` over ``T[row, j] < 0``, so every reduced cost stays
    nonnegative, the basic values (hence ``x`` and the objective) stay as
    they are, and the row's multiplier becomes that ratio.  Rows where the
    ratio is zero are left.  The rows are selected once: a pivot row's value
    is zeroed first, so a pivot changes no other row's value.
    """
    slack = (basis >= first_slack) & (basis < n_enter)
    rows = np.flatnonzero(slack & (np.abs(T[:-1, -1]) <= 1e-12))
    for row in rows[np.argsort(basis[rows])]:
        cand = np.flatnonzero(T[row, :n_enter] < -PIVOT_TOL)
        if cand.size == 0:
            continue
        ratios = T[-1, cand] / -T[row, cand]
        best = int(np.argmin(ratios))
        if ratios[best] > 0.0:
            T[row, -1] = 0.0  # round-off below the degeneracy threshold
            _pivot(T, basis, row, int(cand[best]))


@dataclass(eq=False)
class _Tableau:
    """A primal feasible basis of the shared rows, ready for any cost.

    ``T`` holds the constraint rows over the structural, slack and phase-1
    artificial columns, then the reduced-cost row; ``basis`` lists the basic
    columns.  ``start[i]``, row ``i``'s basic column at the start, is its
    column of the basis inverse, and its reduced cost is minus the row's
    dual, mapped back to the program's row by ``row_scale``.
    """

    T: np.ndarray
    basis: np.ndarray
    start: np.ndarray
    row_scale: np.ndarray


def _phase_one(lp: LPProblem):
    """Feasible start for the rows of ``lp``, or None when they are infeasible."""
    n = lp.n_vars
    m_ineq = lp.m_ineq
    m = m_ineq + lp.m_eq
    n_std = n + m_ineq

    # Standard form rows: [ineq | eq], slack column per inequality row.
    A0 = np.zeros((m, n_std))
    A0[:m_ineq, :n] = lp.G
    A0[:m_ineq, n:] = np.eye(m_ineq)
    A0[m_ineq:, :n] = lp.A
    b0 = np.concatenate([lp.h, lp.d])

    # Rows more than a factor 64 off unit scale are scaled by a power of two,
    # which is exact, so that the absolute tolerances below mean the same in
    # every row; rows within that band are left exactly as posed.
    size = np.maximum(np.abs(A0[:, :n]).max(axis=1, initial=0.0), np.abs(b0))
    far = (size > 0.0) & ((size < 2.0**-6) | (size > 2.0**6))
    shift = np.clip(np.round(np.log2(np.where(far, size, 1.0))), -1000, 1000)
    row_scale = np.ldexp(1.0, -shift.astype(int))
    A0[:, :n] *= row_scale[:, None]
    b0 *= row_scale

    neg = b0 < 0
    A0[neg] *= -1.0
    b0[neg] *= -1.0
    row_scale[neg] *= -1.0

    # Initial basis: unflipped slacks; artificial columns everywhere else.
    basis = np.full(m, -1)
    slack_rows = np.flatnonzero(~neg[:m_ineq])
    basis[slack_rows] = n + slack_rows
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    T = np.zeros((m + 1, n_std + n_art + 1))
    T[:m, :n_std] = A0
    basis[art_rows] = n_std + np.arange(n_art)
    T[art_rows, basis[art_rows]] = 1.0
    T[:m, -1] = b0
    start = basis.copy()

    if n_art:
        scale = 1.0 + max(np.abs(b0).max(initial=0.0), np.abs(A0).max(initial=0.0))
        cost1 = np.zeros(n_std + n_art)
        cost1[n_std:] = 1.0
        _price(T, basis, cost1)
        if _pivot_loop(T, basis, n_std + n_art) != OPTIMAL:
            raise NumericalFailure("phase-1 subproblem reported unbounded")
        art_level = float(cost1[basis] @ T[:-1, -1])
        if art_level > FEAS_TOL * scale:
            return None
        # Pivot remaining artificials out.  A row where none can go is
        # redundant: zero up to round-off, it is set to zero and never pivots.
        for i in range(m):
            if basis[i] < n_std:
                continue
            row = np.abs(T[i, :n_std])
            row[basis[basis < n_std]] = 0.0
            j = int(np.argmax(row))
            if row[j] > PIVOT_TOL:
                _pivot(T, basis, i, j)
            else:
                T[i, :n_std] = 0.0
    return _Tableau(T, basis, start, row_scale)


def _phase_two(tab: _Tableau, lp: LPProblem, c: np.ndarray) -> LPSolution:
    """Minimize ``c`` over the rows of ``lp`` from the tableau's basis, which
    is left at the end basis: still primal feasible, so the next cost can
    start from it.  Artificial columns never enter."""
    lp = copy(lp)  # the rows of lp under the checked cost c
    lp.c = c
    n, m_ineq = lp.n_vars, lp.m_ineq
    n_std = n + m_ineq
    T, basis, start, row_scale = tab.T, tab.basis, tab.start, tab.row_scale
    cost = np.zeros(T.shape[1] - 1)
    cost[:n] = c
    _price(T, basis, cost)
    if _pivot_loop(T, basis, n_std) == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)
    _activate_degenerate_rows(T, basis, n, n_std)

    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:-1, -1]

    # The multipliers [lam; mu] come off the reduced-cost row.  Pivots on
    # small elements leave round-off in T, which a bound reads through the
    # multipliers, so one refinement step follows: the reduced costs of the
    # basic columns, recomputed from the rows of lp, should be zero, and the
    # start columns of T, the basis inverse, map them to the correction.
    w = T[-1, start] * row_scale
    r = np.zeros_like(cost)
    r[:n] = c + lp.G.T @ w[:m_ineq] + lp.A.T @ w[m_ineq:]
    r[n:n_std] = w[:m_ineq] / np.abs(row_scale[:m_ineq])
    w -= (r[basis] @ T[:-1, start]) * row_scale
    sol = LPSolution(
        status=OPTIMAL,
        x=x[:n],
        objective=float(c @ x[:n]),
        ineq_duals=np.maximum(w[:m_ineq], 0.0),
        eq_duals=w[m_ineq:],
    )
    res = kkt_residuals(lp, sol)
    if res["primal"] > 1e-6 or res["dual"] > 1e-6 or res["gap"] > 1e-6:
        raise NumericalFailure(
            "optimal basis failed the KKT self-check: "
            f"primal={res['primal']:.2e} dual={res['dual']:.2e} gap={res['gap']:.2e}"
        )
    return sol


def solve_many(lp: LPProblem, costs) -> list:
    """Solve the rows of ``lp`` once per cost vector in ``costs``, in order.

    Only the rows of ``lp`` are used, not its cost.  Phase 1 runs once; each
    cost's phase 2 starts from the basis where the previous one ended, which
    is primal feasible since only the cost changed.  Every cost gets its own
    degenerate-row pass, duals and KKT self-check, and a NumericalFailure in
    any of them ends the sweep.  Deterministic for a fixed input.
    """
    costs = np.asarray(costs, dtype=float).reshape(-1, lp.n_vars)
    if np.isnan(costs).any():
        raise ValueError("NaN in problem data")
    tab = _phase_one(lp)
    if tab is None:
        return [LPSolution(status=INFEASIBLE) for _ in costs]
    return [_phase_two(tab, lp, c) for c in costs]


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``; deterministic for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    return solve_many(lp, [lp.c])[0]


def kkt_residuals(lp: LPProblem, sol: LPSolution) -> dict:
    """Scaled primal/dual feasibility residuals, duality gap, and slackness.

    Only meaningful for an optimal solution.  With reduced costs
    ``r = c + G^T lam + A^T mu``, the dual is feasible when ``lam >= 0`` and
    ``r >= 0``, the gap is ``|c.x + lam.h + mu.d|``, and slackness covers
    both ``lam * (h - G x)`` and ``x * r``.
    """
    if sol.status != OPTIMAL:
        raise ValueError("kkt_residuals requires an optimal solution")
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    scale = 1.0 + max(
        np.abs(lp.h).max(initial=0.0),
        np.abs(lp.d).max(initial=0.0),
        np.abs(x).max(initial=0.0),
        np.abs(lp.c).max(initial=0.0),
    )
    slack = lp.h - lp.G @ x
    primal = max(
        float(np.maximum(-x, 0.0).max(initial=0.0)),
        float(np.maximum(-slack, 0.0).max(initial=0.0)),
        float(np.abs(lp.A @ x - lp.d).max(initial=0.0)),
    )
    r = lp.c + lp.G.T @ lam + lp.A.T @ mu
    dual = max(
        float(np.maximum(-lam, 0.0).max(initial=0.0)),
        float(np.maximum(-r, 0.0).max(initial=0.0)),
    )
    gap = abs(float(lp.c @ x) + float(lam @ lp.h) + float(mu @ lp.d))
    comp = max(
        float(np.abs(lam * slack).max(initial=0.0)),
        float(np.abs(x * r).max(initial=0.0)),
    )
    return {
        "primal": primal / scale,
        "dual": dual / scale,
        "gap": gap / scale,
        "slackness": comp / scale,
    }
