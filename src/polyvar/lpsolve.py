"""Dense two-phase simplex for small linear programs, with dual extraction.

Every program this package builds has at most a few dozen rows; the bounding
programs have one column per vertex class, up to a few thousand.  A dense
tableau is fast enough at that shape and the most direct way to read exact
basis duals back out.  Pricing is Dantzig's rule, switching to Bland's rule
after too many degenerate pivots to rule out cycling.  Among the optimal
duals, an active inequality row gets a nonzero multiplier where one exists
(see ``_activate_degenerate_rows``): the bounding program's multipliers are
its duals, and a zero multiplier on an active facet hides how the bound
reacts to moving that facet.
"""

from __future__ import annotations

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
    """min or max of ``c.x`` subject to ``G x <= h``, ``A x = d``, ``lo <= x <= hi``.

    ``lo`` entries may be ``-inf`` and ``hi`` entries ``+inf``; both default to
    free variables.
    """

    sense: str
    c: np.ndarray
    G: np.ndarray = None
    h: np.ndarray = None
    A: np.ndarray = None
    d: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.size
        G = np.zeros((0, n)) if self.G is None else np.asarray(self.G, dtype=float).reshape(-1, n)
        h = np.zeros(0) if self.h is None else np.atleast_1d(np.asarray(self.h, dtype=float))
        A = np.zeros((0, n)) if self.A is None else np.asarray(self.A, dtype=float).reshape(-1, n)
        d = np.zeros(0) if self.d is None else np.atleast_1d(np.asarray(self.d, dtype=float))
        lo = np.full(n, -np.inf) if self.lo is None else np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.full(n, np.inf) if self.hi is None else np.atleast_1d(np.asarray(self.hi, dtype=float))
        if G.shape[0] != h.size or A.shape[0] != d.size:
            raise ValueError("constraint matrix and right-hand side sizes disagree")
        if lo.size != n or hi.size != n:
            raise ValueError("bound vectors must have one entry per variable")
        for arr in (c, G, h, A, d):
            if arr.size and np.isnan(arr).any():
                raise ValueError("NaN in problem data")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("NaN in bounds")
        self.c, self.G, self.h, self.A, self.d, self.lo, self.hi = c, G, h, A, d, lo, hi

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

    ``ineq_duals`` are the nonnegative multipliers of the ``G x <= h`` rows and
    ``eq_duals`` the free multipliers of the ``A x = d`` rows, in the
    complementary-slack Lagrangian convention for the problem's own sense.
    """

    status: str
    x: np.ndarray = None
    objective: float = None
    ineq_duals: np.ndarray = None
    eq_duals: np.ndarray = None


def _pivot(T, basis, row, col):
    """Pivot tableau ``T`` in place on ``(row, col)``; ``col`` enters the basis."""
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    basis[row] = col


def _pivot_loop(T, basis, cost, max_degenerate, max_iter):
    """Run simplex pivots on tableau ``T`` in place; returns 'optimal'/'unbounded'."""
    m = T.shape[0]
    ncols = T.shape[1] - 1
    bland = False
    degenerate = 0
    basis_arr = basis
    for _ in range(max_iter):
        r = cost - cost[basis_arr] @ T[:, :ncols]
        r[basis_arr] = 0.0
        if bland:
            below = np.flatnonzero(r < -PIVOT_TOL)
            if below.size == 0:
                return OPTIMAL
            enter = int(below[0])
        else:
            enter = int(np.argmin(r))
            if r[enter] >= -PIVOT_TOL:
                return OPTIMAL
        col = T[:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, ncols] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis_arr[ties])])
        if best <= 1e-12:
            degenerate += 1
            if degenerate > max_degenerate:
                bland = True
        if abs(T[leave, enter]) < PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        _pivot(T, basis_arr, leave, enter)
    raise NumericalFailure("simplex iteration limit exceeded")


def _activate_degenerate_rows(T, basis, cost, first_slack, n_rows):
    """Give weakly active caller rows a multiplier, keeping ``x`` optimal.

    A row whose slack is basic at zero is active but carries a zero basis
    dual, the end of the optimal multiplier set that says nothing about the
    row.  One dual-simplex pivot per such row moves its slack out of the
    basis: the entering column minimizes ``r_j / |T[row, j]|`` over
    ``T[row, j] < 0``, so every reduced cost stays nonnegative, the basic
    values (hence ``x`` and the objective) stay as they are, and the row's
    multiplier becomes that ratio.  Rows where the ratio is zero are left.
    """
    ncols = T.shape[1] - 1
    rows = np.flatnonzero((basis >= first_slack) & (basis < first_slack + n_rows))
    for row in rows[np.argsort(basis[rows])]:
        if abs(T[row, -1]) > 1e-12:
            continue
        cand = np.flatnonzero(T[row, :ncols] < -PIVOT_TOL)
        if cand.size == 0:
            continue
        r = cost - cost[basis] @ T[:, :ncols]
        ratios = r[cand] / -T[row, cand]
        best = int(np.argmin(ratios))
        if ratios[best] > 0.0:
            T[row, -1] = 0.0  # round-off below the degeneracy threshold
            _pivot(T, basis, row, int(cand[best]))


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``; deterministic for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    n = lp.n_vars
    c_int = lp.c.copy() if lp.sense == "min" else -lp.c

    if np.any(lp.lo > lp.hi):
        return LPSolution(status=INFEASIBLE)

    # Transform to nonnegative variables: shift at a finite lower bound and
    # split the others into a difference of two adjacent columns.  Finite
    # upper bounds become ordinary inequality rows after the caller's.
    shifted = np.isfinite(lp.lo)
    upper = np.flatnonzero(np.isfinite(lp.hi))
    bound_rows = np.zeros((upper.size, n))
    bound_rows[np.arange(upper.size), upper] = 1.0
    G = np.vstack([lp.G, bound_rows])
    h = np.concatenate([lp.h, lp.hi[upper]])
    width = np.where(shifted, 1, 2)
    col_of_var = np.cumsum(width) - width  # first transformed column of each variable
    src = np.repeat(np.arange(n), width)  # variable behind each transformed column
    sign = np.ones(src.size)
    sign[col_of_var[~shifted] + 1] = -1.0
    cols_c = c_int[src] * sign
    n_t = src.size
    lo_shift = np.where(shifted, lp.lo, 0.0)

    def transform_rows(mat, rhs):
        return mat[:, src] * sign, rhs - mat @ lo_shift

    ineq_mat, ineq_rhs = transform_rows(G, h)
    A_t, d_t = transform_rows(lp.A, lp.d)

    m_ineq = G.shape[0]
    m_eq = lp.m_eq
    m = m_ineq + m_eq

    # Standard form rows: [ineq | eq], slack column per inequality row.
    n_slack = m_ineq
    A0 = np.zeros((m, n_t + n_slack))
    b0 = np.zeros(m)
    A0[:m_ineq, :n_t] = ineq_mat
    A0[:m_ineq, n_t : n_t + n_slack] = np.eye(n_slack)
    b0[:m_ineq] = ineq_rhs
    A0[m_ineq:, :n_t] = A_t
    b0[m_ineq:] = d_t

    row_sign = np.ones(m)
    neg = b0 < 0
    row_sign[neg] = -1.0
    A0[neg] *= -1.0
    b0[neg] *= -1.0

    # Initial basis: unflipped slacks; artificial columns everywhere else.
    needs_art = np.ones(m, dtype=bool)
    basis = np.full(m, -1, dtype=int)
    for i in range(m_ineq):
        if not neg[i]:
            basis[i] = n_t + i
            needs_art[i] = False
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.size
    ncols_p1 = n_t + n_slack + n_art
    T = np.zeros((m, ncols_p1 + 1))
    T[:, : n_t + n_slack] = A0
    for k, i in enumerate(art_rows):
        T[i, n_t + n_slack + k] = 1.0
        basis[i] = n_t + n_slack + k
    T[:, -1] = b0

    max_degenerate = 5 * (m + ncols_p1)
    max_iter = 1000 + 50 * (m + ncols_p1)
    scale = 1.0 + max(
        np.abs(b0).max(initial=0.0), np.abs(A0).max(initial=0.0)
    )

    if n_art:
        cost1 = np.zeros(ncols_p1)
        cost1[n_t + n_slack :] = 1.0
        status = _pivot_loop(T, basis, cost1, max_degenerate, max_iter)
        if status != OPTIMAL:
            raise NumericalFailure("phase-1 subproblem reported unbounded")
        art_level = float(cost1[basis] @ T[:, -1])
        if art_level > FEAS_TOL * scale:
            return LPSolution(status=INFEASIBLE)
        # Pivot remaining artificials out; drop rows that prove redundant.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] < n_t + n_slack:
                continue
            row = np.abs(T[i, : n_t + n_slack])
            row[basis[basis < n_t + n_slack]] = 0.0
            j = int(np.argmax(row))
            if row[j] > PIVOT_TOL:
                _pivot(T, basis, i, j)
            else:
                keep[i] = False
        if not keep.all():
            T = T[keep]
            basis = basis[keep]
            kept_rows = np.flatnonzero(keep)
        else:
            kept_rows = np.arange(m)
    else:
        kept_rows = np.arange(m)

    # Phase 2 on the original columns only.
    T = np.hstack([T[:, : n_t + n_slack], T[:, -1:]])
    cost2 = np.concatenate([cols_c, np.zeros(n_slack)])
    status = _pivot_loop(T, basis, cost2, max_degenerate, max_iter)
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)
    _activate_degenerate_rows(T, basis, cost2, n_t, lp.m_ineq)

    x_std = np.zeros(n_t + n_slack)
    x_std[basis] = T[:, -1]
    x = x_std[col_of_var] + lo_shift
    x[~shifted] -= x_std[col_of_var[~shifted] + 1]

    # Basis duals of the standard form, mapped back through row flips.
    y_full = np.zeros(m)
    if kept_rows.size:
        basis_mat = A0[kept_rows][:, basis]
        try:
            y_kept = np.linalg.solve(basis_mat.T, cost2[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis at optimum") from exc
        y_full[kept_rows] = y_kept
    y_full *= row_sign
    ineq_duals = np.maximum(-y_full[: lp.m_ineq], 0.0)
    eq_duals = -y_full[m_ineq : m_ineq + m_eq]

    objective = float(lp.c @ x)
    sol = LPSolution(
        status=OPTIMAL,
        x=x,
        objective=objective,
        ineq_duals=ineq_duals,
        eq_duals=eq_duals,
    )
    res = kkt_residuals(lp, sol)
    if res["primal"] > 1e-6 or res["dual"] > 1e-6 or res["gap"] > 1e-6:
        raise NumericalFailure(
            "optimal basis failed the KKT self-check: "
            f"primal={res['primal']:.2e} dual={res['dual']:.2e} gap={res['gap']:.2e}"
        )
    return sol


def kkt_residuals(lp: LPProblem, sol: LPSolution) -> dict:
    """Scaled primal/dual feasibility residuals, duality gap, and slackness.

    Only meaningful for an optimal solution.  Works in the minimization
    convention internally; a max problem is checked through its negated
    objective, under which the reported duals are unchanged.
    """
    if sol.status != OPTIMAL:
        raise ValueError("kkt_residuals requires an optimal solution")
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    c = lp.c if lp.sense == "min" else -lp.c
    obj = lp.c @ x if lp.sense == "min" else -(lp.c @ x)
    scale = 1.0 + max(
        np.abs(lp.h).max(initial=0.0),
        np.abs(lp.d).max(initial=0.0),
        np.abs(x).max(initial=0.0),
        np.abs(c).max(initial=0.0),
    )

    primal = 0.0
    if lp.m_ineq:
        primal = max(primal, float((lp.G @ x - lp.h).max(initial=0.0)))
    if lp.m_eq:
        primal = max(primal, float(np.abs(lp.A @ x - lp.d).max(initial=0.0)))
    finite_lo = np.isfinite(lp.lo)
    finite_hi = np.isfinite(lp.hi)
    if finite_lo.any():
        primal = max(primal, float((lp.lo[finite_lo] - x[finite_lo]).max(initial=0.0)))
    if finite_hi.any():
        primal = max(primal, float((x[finite_hi] - lp.hi[finite_hi]).max(initial=0.0)))

    r = c + lp.G.T @ lam + lp.A.T @ mu
    z_lo = np.maximum(r, 0.0)
    z_hi = np.maximum(-r, 0.0)
    dual = float(np.maximum(-lam, 0.0).max(initial=0.0))
    if (~finite_lo).any():
        dual = max(dual, float(z_lo[~finite_lo].max(initial=0.0)))
    if (~finite_hi).any():
        dual = max(dual, float(z_hi[~finite_hi].max(initial=0.0)))

    dual_obj = -float(lam @ lp.h) - float(mu @ lp.d)
    dual_obj += float(np.where(finite_lo, lp.lo, 0.0) @ z_lo)
    dual_obj -= float(np.where(finite_hi, lp.hi, 0.0) @ z_hi)
    gap = abs(float(obj) - dual_obj)

    comp = 0.0
    if lp.m_ineq:
        comp = float(np.abs(lam * (lp.h - lp.G @ x)).max(initial=0.0))
    comp = max(comp, float(np.abs(z_lo * np.where(finite_lo, x - lp.lo, 0.0)).max(initial=0.0)))
    comp = max(comp, float(np.abs(z_hi * np.where(finite_hi, lp.hi - x, 0.0)).max(initial=0.0)))

    return {
        "primal": primal / scale,
        "dual": dual / scale,
        "gap": gap / scale,
        "slackness": comp / scale,
    }
