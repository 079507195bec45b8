"""A reference LP engine: the dense two-phase simplex on one program.

It keeps the whole tableau, unit basic columns included, and rewrites every
entry at every pivot: the engine that ``lpsolve``'s condensed tableau
replaced.  ``solve`` and ``solve_many`` follow ``lpsolve``'s steps on a
stack of one, with the same pivot rules, tie-breaks, row scaling, dual
refinement and KKT self-check, and count their pivots per phase, so that a
test can require ``lpsolve`` to give the same results bit for bit after the
same number of pivots.
"""

from __future__ import annotations

import numpy as np

from polyvar.lpsolve import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LPProblem,
    LPSolution,
    LPStack,
    NumericalFailure,
)

PHASES = ("phase_one", "drive_out", "phase_two", "degenerate")


def _pivot(T, basis, row, col, counts, phase):
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= factor[:, None] * T[row]
    basis[row] = col
    counts[phase] += 1


def _mv(M, v):
    return np.matmul(M, v[..., None])[..., 0]


def _vm(v, M):
    return np.matmul(v[..., None, :], M)[..., 0, :]


def _dot(a, b):
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _top(a):
    return np.maximum.reduce(a, axis=-1, initial=0.0)


def _price(T, basis, cost):
    """The reduced-cost row of the stacked tableau ``T`` at ``cost``."""
    v = _vm(cost[np.arange(T.shape[0])[:, None], basis], T[:, :-1])
    T[:, -1, :-1] = cost - v[:, :-1]
    T[:, -1, -1] = 0.0 - v[:, -1]


def _pivot_loop(T, basis, n_enter, counts, phase):
    size = T.shape[0] + T.shape[1] - 2
    degenerate = 0
    for _ in range(1000 + 50 * size):
        r = T[-1, :n_enter]
        enter = int((r < -PIVOT_TOL).argmax() if degenerate > 5 * size else r.argmin())
        if r[enter] >= -PIVOT_TOL:
            return OPTIMAL
        col = T[:-1, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[basis[ties].argmin()])
        degenerate += best <= 1e-12
        _pivot(T, basis, leave, enter, counts, phase)
    return NumericalFailure("simplex iteration limit exceeded")


def _activate_degenerate_rows(T, basis, first_slack, n_enter, counts):
    slack = (basis >= first_slack) & (basis < n_enter)
    rows = (slack & (np.abs(T[:-1, -1]) <= 1e-12)).nonzero()[0]
    for row in rows[basis[rows].argsort()]:
        cand = (T[row, :n_enter] < -PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            continue
        ratios = T[-1, cand] / -T[row, cand]
        best = int(ratios.argmin())
        if ratios[best] > 0.0:
            T[row, -1] = 0.0
            _pivot(T, basis, row, int(cand[best]), counts, "degenerate")


def _drive_out_artificials(T, basis, n_std, counts):
    for i in (basis >= n_std).nonzero()[0]:
        row = np.abs(T[i, :n_std])
        row[basis[basis < n_std]] = 0.0
        j = int(np.argmax(row))
        if row[j] > PIVOT_TOL:
            _pivot(T, basis, i, j, counts, "drive_out")
        else:
            T[i, :n_std] = 0.0


def _phase_one(one: LPStack, counts):
    """``(T, basis, start, row_scale, ended)`` of the stack of one ``one``."""
    S, m_ineq, n = one.G.shape
    m = m_ineq + one.A.shape[1]
    n_std = n + m_ineq
    A0 = np.zeros((S, m, n_std))
    A0[:, :m_ineq, :n] = one.G
    A0[:, :m_ineq, n:] = np.eye(m_ineq)
    A0[:, m_ineq:, :n] = one.A
    b0 = np.concatenate([one.h, one.d], axis=1)
    size = np.maximum(np.abs(A0[:, :, :n]).max(axis=2, initial=0.0), np.abs(b0))
    far = (size > 0.0) & ((size < 2.0**-6) | (size > 2.0**6))
    shift = np.log2(np.where(far, size, 1.0)).round().clip(-1000, 1000)
    row_scale = np.ldexp(1.0, -shift.astype(int))
    A0[:, :, :n] *= row_scale[:, :, None]
    b0 *= row_scale
    neg = b0 < 0
    A0[neg] *= -1.0
    b0[neg] *= -1.0
    row_scale[neg] *= -1.0
    art = neg.copy()
    art[:, m_ineq:] = True
    n_art = int(art.sum())
    basis = np.where(art, n_std - 1 + art.cumsum(axis=1), n + np.arange(m))
    T = np.zeros((S, m + 1, n_std + n_art + 1))
    T[:, :m, :n_std] = A0
    member, row = np.nonzero(art)
    T[member, row, basis[member, row]] = 1.0
    T[:, :m, -1] = b0
    start = basis.copy()
    ended = None
    if n_art:
        scale = 1.0 + np.maximum(
            np.abs(b0).max(axis=1, initial=0.0), np.abs(A0).reshape(S, -1).max(axis=1, initial=0.0)
        )
        cost1 = np.zeros((S, n_std + n_art))
        cost1[:, n_std:] = 1.0
        _price(T, basis, cost1)
        res = _pivot_loop(T[0], basis[0], n_std + n_art, counts, "phase_one")
        if res == UNBOUNDED:
            res = NumericalFailure("phase-1 subproblem reported unbounded")
        if isinstance(res, NumericalFailure):
            ended = res
        elif _dot(cost1[0, basis], T[:, :-1, -1])[0] > FEAS_TOL * scale[0]:
            ended = LPSolution(status=INFEASIBLE)
        else:
            _drive_out_artificials(T[0], basis[0], n_std, counts)
    return T, basis, start, row_scale, ended


def _phase_two(T, basis, one: LPStack, cost_row, counts):
    """None when optimal, else the unbounded LPSolution or NumericalFailure."""
    S, m_ineq, n = one.G.shape
    cost = np.zeros((S, T.shape[2] - 1))
    cost[:, :n] = cost_row
    _price(T, basis, cost)
    res = _pivot_loop(T[0], basis[0], n + m_ineq, counts, "phase_two")
    if isinstance(res, NumericalFailure):
        return res
    return LPSolution(status=UNBOUNDED) if res == UNBOUNDED else None


def _solution(rows: LPStack, T, basis, start, row_scale):
    """The LPSolution of ``rows`` at the optimal end basis of ``T``, after
    one refinement step of its duals, or the KKT self-check's failure."""
    S, (m_ineq, n) = 1, rows.G.shape[1:]
    n_std = n + m_ineq
    members = np.arange(S)[:, None]
    values = T[:, :-1, -1].copy()
    inverse = T[members, :-1, start]
    reduced = T[members, -1, start]
    costs, width = rows.c, T.shape[2] - 1
    x = np.zeros((S, width))
    x[members, basis] = values
    w = reduced * row_scale
    r = np.zeros((S, width))
    r[:, :n] = (
        costs
        + _mv(rows.G.swapaxes(1, 2), w[:, :m_ineq])
        + _mv(rows.A.swapaxes(1, 2), w[:, m_ineq:])
    )
    r[:, n:n_std] = w[:, :m_ineq] / np.abs(row_scale[:, :m_ineq])
    w -= _vm(r[members, basis], inverse.swapaxes(1, 2)) * row_scale
    x, lam, mu = x[:, :n], np.maximum(w[:, :m_ineq], 0.0), w[:, m_ineq:]
    objective = _dot(costs, x)
    scale = 1.0 + np.maximum(
        _top(np.abs(np.concatenate([rows.h, rows.d], axis=-1))),
        _top(np.abs(np.concatenate([x, rows.c], axis=-1))),
    )
    slack = rows.h - _mv(rows.G, x)
    primal = _top(np.concatenate([-x, -slack, np.abs(_mv(rows.A, x) - rows.d)], axis=-1))
    rc = rows.c + _mv(rows.G.swapaxes(-1, -2), lam) + _mv(rows.A.swapaxes(-1, -2), mu)
    dual = _top(np.concatenate([-lam, -rc], axis=-1))
    gap = np.abs(_dot(rows.c, x) + _dot(lam, rows.h) + _dot(mu, rows.d))
    primal, dual, gap = primal[0] / scale[0], dual[0] / scale[0], gap[0] / scale[0]
    if not (primal <= 1e-6 and dual <= 1e-6 and gap <= 1e-6):
        return NumericalFailure(
            "optimal basis failed the KKT self-check: "
            f"primal={primal:.2e} dual={dual:.2e} gap={gap:.2e}"
        )
    return LPSolution(
        status=OPTIMAL, x=x[0], objective=float(objective[0]), ineq_duals=lam[0], eq_duals=mu[0]
    )


def solve(lp: LPProblem):
    """``(outcome, counts)``: ``lp``'s LPSolution or NumericalFailure, as
    ``lpsolve.solve`` gives it, and the pivots it made per phase."""
    counts = dict.fromkeys(PHASES, 0)
    one = LPStack.of(lp)
    T, basis, start, row_scale, ended = _phase_one(one, counts)
    if ended is not None:
        return ended, counts
    out = _phase_two(T, basis, one, one.c, counts)
    if out is not None:
        return out, counts
    m_ineq, n = one.G.shape[1:]
    _activate_degenerate_rows(T[0], basis[0], n, n + m_ineq, counts)
    return _solution(one, T, basis, start, row_scale), counts


def solve_many(lp: LPProblem, costs):
    """``(outcomes, counts)``: ``lpsolve.solve_many`` of ``lp`` over
    ``costs``, each cost's phase 2 from a copy of the phase-1 tableau, up to
    and including the first NumericalFailure, which is returned in place
    rather than raised, and the pivots per phase."""
    counts = dict.fromkeys(PHASES, 0)
    costs = np.asarray(costs, dtype=float).reshape(-1, lp.n_vars)
    one = LPStack.of(lp)
    T, basis, start, row_scale, ended = _phase_one(one, counts)
    if ended is not None:
        if isinstance(ended, NumericalFailure):
            return [ended], counts
        return [LPSolution(status=INFEASIBLE) for _ in costs], counts
    out = []
    for c in costs:
        Tc, basis_c = T.copy(), basis.copy()
        res = _phase_two(Tc, basis_c, one, c[None], counts)
        if res is None:
            rows = LPStack(c[None], one.G, one.h, one.A, one.d)
            res = _solution(rows, Tc, basis_c, start, row_scale)
        out.append(res)
        if isinstance(res, NumericalFailure):
            break
    return out, counts
