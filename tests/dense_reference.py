"""A reference LP engine: the dense dual simplex on one program.

It keeps the whole tableau, unit basic columns included, and rewrites every
entry at every pivot: the engine that ``lpsolve``'s condensed tableau
replaced.  ``solve`` follows ``lpsolve``'s steps on a stack of one, from the
same slack basis of the program with its equality rows split, with the same
row scaling, pivot rules, tie-breaks, degenerate-row pass, dual refinement
and KKT self-check, and counts its pivots per phase, so that a test can
require ``lpsolve`` to give the same results bit for bit after the same
number of pivots.  It lists the nonbasic columns in the order the condensed
tableau stores them, the leaving column taking the entering column's place,
since the length of a row, which the leaving-row rule reads, is summed in
that order.
"""

from __future__ import annotations

import numpy as np

from polyvar.lpsolve import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    LPProblem,
    LPSolution,
    LPStack,
    NumericalFailure,
)

PHASES = ("dual", "degenerate")


def _pivot(T, basis, row, col, counts, phase):
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= factor[:, None] * T[row]
    basis[row] = col
    counts[phase] += 1


def _exchange(T, basis, order, row, col, counts, phase):
    """``_pivot``, the leaving column taking ``col``'s place in ``order``."""
    order[order == col] = basis[row]
    _pivot(T, basis, row, col, counts, phase)


def _mv(M, v):
    return np.matmul(M, v[..., None])[..., 0]


def _vm(v, M):
    return np.matmul(v[..., None, :], M)[..., 0, :]


def _dot(a, b):
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _top(a):
    return np.maximum.reduce(a, axis=-1, initial=0.0) + 0.0


def _least_basic(rows, basis):
    """The row among ``rows`` whose basic column comes first."""
    return int(rows[basis[rows].argmin()])


def _start(one: LPStack):
    """``(T, basis, order, row_scale)``: the slack basis of the stack of one
    ``one``, whose rows are all inequalities, with each row scaled by the
    power of two that brings its largest entry to about 1 where that lies
    more than a factor 64 off."""
    _, m, n = one.G.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = one.G[0]
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = one.h[0]
    size = np.abs(one.G[0]).max(axis=1, initial=0.0)
    far = (size > 0.0) & ((size < 2.0**-6) | (size > 2.0**6))
    shift = np.log2(np.where(far, size, 1.0)).round().clip(-1000, 1000)
    row_scale = np.ldexp(1.0, -shift.astype(int))
    T[:m, :n] *= row_scale[:, None]
    T[:m, -1] *= row_scale
    T[m, :n] = one.c[0]
    return T, n + np.arange(m), np.arange(n), row_scale


def _dual_loop(T, basis, order, counts):
    """Dual simplex pivots from a basis whose reduced costs are nonnegative."""
    m = T.shape[0] - 1
    size = m + T.shape[1] - 1
    degenerate = 0
    for _ in range(1000 + 50 * size):
        value = T[:-1, -1]
        low = value < -FEAS_TOL
        if np.isnan(value).any():
            return NumericalFailure("dual simplex met a NaN")
        if not low.any():
            return OPTIMAL
        rows = T[:-1][:, order]  # the nonbasic columns, in stored order
        lows = low.nonzero()[0]
        if lows.size == 1 and not np.isnan(rows[lows[0]]).any():
            row = int(lows[0])
        elif degenerate > 5 * size:
            row = _least_basic(lows, basis)
        else:
            with np.errstate(divide="ignore"):
                key = np.divide(value, np.sqrt(np.einsum("ij,ij->i", rows, rows)),
                                out=np.full(value.shape, np.inf), where=low)
            row = _least_basic((low & (key == key.min())).nonzero()[0], basis)
        cand = order[T[row, order] < -PIVOT_TOL]
        if not cand.size:
            return INFEASIBLE
        ratios = T[-1, cand] / -T[row, cand]
        best = ratios.min()
        if best != best:
            return NumericalFailure("dual simplex met a NaN")
        degenerate += best <= 1e-12
        _exchange(T, basis, order, row, int(cand[ratios <= best + 1e-12].min()), counts, "dual")
    return NumericalFailure("simplex iteration limit exceeded")


def _activate_degenerate_rows(T, basis, order, first_slack, end_slack, counts):
    """``lpsolve._activate_degenerate_rows`` on one dense tableau."""
    W = T.shape[1] - 1
    zero = np.abs(T[:-1, -1]) <= 1e-12
    rows = (basis >= first_slack) & (basis < end_slack) & zero
    pairs = (W - end_slack) // 2
    if pairs:
        half = basis - end_slack
        pair = np.where(half >= 0, half % pairs, pairs)
        both = np.append(np.bincount(pair, minlength=pairs + 1)[:pairs] == 2, False)
        rows |= zero & both[pair]
    rows = rows.nonzero()[0]
    for row in rows[basis[rows].argsort(kind="stable")]:
        a = T[row, order]
        cand = a < -PIVOT_TOL
        ratios = np.divide(T[-1, order], -a, out=np.full(a.shape, np.inf), where=cand)
        least = ratios.min()
        tied = cand & (ratios == least if least == least else np.isnan(ratios))
        if not tied.any():
            continue
        col = int(order[tied].min())
        if least > 0.0 and col < end_slack:
            T[row, -1] = 0.0
            _exchange(T, basis, order, row, col, counts, "degenerate")


def _solution(rows: LPStack, T, basis, row_scale):
    """The LPSolution of the stack of one ``rows``, whose rows are all
    inequalities, at the optimal end basis of ``T``, after one refinement
    step of its duals, or the KKT self-check's failure."""
    (m, n), W = rows.G.shape[1:], T.shape[1] - 1
    start = n + np.arange(m)
    members = np.zeros((1, 1), dtype=int)
    x = np.zeros((1, W))
    x[members, basis[None]] = T[None, :-1, -1]
    inverse = T[None][members, :-1, start[None]]
    dual = T[None][members, -1, start[None]] * row_scale
    r = np.zeros((1, W))
    r[:, :n] = rows.c + _mv(rows.G.swapaxes(1, 2), dual) + _mv(rows.A.swapaxes(1, 2), dual[:, m:])
    r[:, n:] = dual / row_scale
    w = dual - _vm(r[members, basis[None]], inverse.swapaxes(1, 2)) * row_scale
    x, lam = x[:, :n], np.maximum(w, 0.0)
    objective = _dot(rows.c, x)
    scale = 1.0 + np.maximum(_top(np.abs(rows.h)), _top(np.abs(np.concatenate([x, rows.c], axis=-1))))
    primal = _top(np.concatenate([-x, -(rows.h - _mv(rows.G, x))], axis=-1))
    reduced = rows.c + _mv(rows.G.swapaxes(-1, -2), lam) + _mv(rows.A.swapaxes(-1, -2), w[:, m:])
    dual_residual = _top(np.concatenate([-lam, -reduced], axis=-1))
    gap = np.abs(_dot(rows.c, x) + _dot(lam, rows.h) + _dot(w[:, m:], rows.d))
    primal, dual_residual, gap = (v[0] / scale[0] for v in (primal, dual_residual, gap))
    if not (primal <= 1e-6 and dual_residual <= 1e-6 and gap <= 1e-6):
        return NumericalFailure(
            "optimal basis failed the KKT self-check: "
            f"primal={primal:.2e} dual={dual_residual:.2e} gap={gap:.2e}"
        )
    return LPSolution(status=OPTIMAL, x=x[0], objective=float(objective[0]), ineq_duals=lam[0])


def solve(lp: LPProblem, duals: bool = False):
    """``(outcome, counts)``: ``lp``'s LPSolution or NumericalFailure, as
    ``lpsolve.solve`` gives it, or with ``duals`` as ``solve_dual_stack``
    gives it on a stack of one, past the degenerate-row pass; and the
    pivots it made per phase."""
    counts = dict.fromkeys(PHASES, 0)
    n, m_ineq, p = lp.n_vars, lp.m_ineq, lp.m_eq
    split = LPStack.of(LPProblem(lp.c, G=np.vstack([lp.G, -lp.A, lp.A]),
                                 h=np.concatenate([lp.h, -lp.d, lp.d])))
    T, basis, order, row_scale = _start(split)
    res = _dual_loop(T, basis, order, counts)
    if isinstance(res, NumericalFailure):
        return res, counts
    if res == INFEASIBLE:
        return LPSolution(status=INFEASIBLE), counts
    if duals:
        _activate_degenerate_rows(T, basis, order, n, n + m_ineq, counts)
    sol = _solution(split, T, basis, row_scale)
    if isinstance(sol, LPSolution):
        lam = sol.ineq_duals
        sol.ineq_duals, sol.eq_duals = lam[:m_ineq], lam[m_ineq + p :] - lam[m_ineq : m_ineq + p]
    return sol, counts
