"""Dense two-phase simplex for small linear programs, with dual extraction.

Every program this package builds has at most a few dozen variables and
constraints, so a dense tableau is both fast enough and the most direct way
to read exact basis duals back out.  Pricing is Dantzig's rule, switching to
Bland's rule after too many degenerate pivots to rule out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


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
        piv = T[leave, enter]
        if abs(piv) < PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        T[leave] /= piv
        factor = T[:, enter].copy()
        factor[leave] = 0.0
        T -= np.outer(factor, T[leave])
        basis_arr[leave] = enter
    raise NumericalFailure("simplex iteration limit exceeded")


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``; deterministic for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    n = lp.n_vars
    c_int = lp.c.copy() if lp.sense == "min" else -lp.c

    if np.any(lp.lo > lp.hi):
        return LPSolution(status=INFEASIBLE)

    # Transform to nonnegative variables: shift at a finite lower bound and
    # split the others into a difference of two.  Finite upper bounds become
    # ordinary inequality rows after the caller's.
    shifted = np.isfinite(lp.lo)
    upper = np.flatnonzero(np.isfinite(lp.hi))
    G = np.vstack([lp.G, np.eye(n)[upper]])
    h = np.concatenate([lp.h, lp.hi[upper]])
    cols_c = []
    col_of_var = []  # first transformed column of each variable
    for j in range(n):
        col_of_var.append(len(cols_c))
        cols_c.append(c_int[j])
        if not shifted[j]:
            cols_c.append(-c_int[j])
    n_t = len(cols_c)

    def transform_rows(mat, rhs):
        out = np.zeros((mat.shape[0], n_t))
        rhs_t = rhs.astype(float).copy()
        for j in range(n):
            col = col_of_var[j]
            out[:, col] = mat[:, j]
            if shifted[j]:
                rhs_t -= mat[:, j] * lp.lo[j]
            else:
                out[:, col + 1] = -mat[:, j]
        return out, rhs_t

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
                piv = T[i, j]
                T[i] /= piv
                factor = T[:, j].copy()
                factor[i] = 0.0
                T -= np.outer(factor, T[i])
                basis[i] = j
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
    cost2 = np.concatenate([np.asarray(cols_c, dtype=float), np.zeros(n_slack)])
    status = _pivot_loop(T, basis, cost2, max_degenerate, max_iter)
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)

    x_std = np.zeros(n_t + n_slack)
    x_std[basis] = T[:, -1]
    x = np.zeros(n)
    for j in range(n):
        col = col_of_var[j]
        x[j] = lp.lo[j] + x_std[col] if shifted[j] else x_std[col] - x_std[col + 1]

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
