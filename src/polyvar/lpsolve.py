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

The engine works on stacks (``LPStack``): programs of one shape, such as
the facet programs of one verification pass, solved together.  Row
scaling, the tableau with its artificial columns, the pricing of the
reduced-cost row, the dual refinement and the KKT self-check run once over
the stacked arrays; the pivots run member by member, on each member's own
2-D tableau.  A stacked product is ``np.matmul`` over operands laid out as
the member's own, which rounds exactly as ``@`` on that member alone, so a
member comes out of a stack bit for bit as it would alone, and a member
that fails numerically leaves the others as they are.

``solve_stack`` solves each member under its own cost.  ``solve_many``
solves one set of rows under many costs, as the support queries of one
polytope do: phase 1 runs once, and each cost's phase 2 prices the
reduced-cost row at the basis where the previous cost's ended, which is
still primal feasible.  ``solve`` is ``solve_many`` with the program's own
cost.  Both are a stack of one, so there is one phase-1 and one phase-2
code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-10

# Largest stacked tableau, in bytes, that a caller builds: programs whose
# tableaux together would exceed it go in several stacks, and a program
# whose tableau alone exceeds it in a stack of one.  At 256 KiB the peak
# memory of a synthesis stays where one facet program at a time left it.
STACK_BYTES = 256 * 1024


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


@dataclass(eq=False)
class LPStack:
    """Programs of one shape, member ``k`` being ``min c[k].x`` subject to
    ``G[k] x <= h[k]``, ``A[k] x = d[k]`` and ``x >= 0``.

    Each array has one more leading axis than ``LPProblem``'s, and the arrays
    are used as given: whoever builds a stack checks its data.  ``stack[k]``
    is member ``k`` as an ``LPProblem`` over views of the same arrays, which
    solves alone bit for bit as it does in the stack.
    """

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    A: np.ndarray
    d: np.ndarray

    @classmethod
    def of(cls, lp: LPProblem) -> "LPStack":
        """``lp`` as a stack of one."""
        return cls(lp.c[None], lp.G[None], lp.h[None], lp.A[None], lp.d[None])

    def __len__(self) -> int:
        return self.c.shape[0]

    def __getitem__(self, k) -> LPProblem:
        return LPProblem(self.c[k], G=self.G[k], h=self.h[k], A=self.A[k], d=self.d[k])


def stack_members(n_vars: int, m_ineq: int, m_eq: int) -> int:
    """How many programs of this shape one stack holds within ``STACK_BYTES``
    (at least one), when no right-hand side is negative: their tableaux then
    have artificial columns on the equality rows only."""
    rows = m_ineq + m_eq + 1
    cols = n_vars + m_ineq + m_eq + 1
    return max(1, STACK_BYTES // (8 * rows * cols))


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
    """Set the reduced-cost row of each member's tableau ``T[k]`` (its last)
    to ``cost[k]`` at ``basis[k]``."""
    v = _vm(cost[np.arange(T.shape[0])[:, None], basis], T[:, :-1])
    T[:, -1, :-1] = cost - v[:, :-1]
    T[:, -1, -1] = 0.0 - v[:, -1]


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


def _mv(M, v):
    """``M @ v`` member by member, for one program or a stack of them.

    ``np.matmul`` runs each member's product as ``@`` runs it on that member
    alone, so a stacked product rounds as the per-member one does, as long
    as each member's operands are laid out alike (see ``_phase_two``).
    """
    return np.matmul(M, v[..., None])[..., 0]


def _vm(v, M):
    """``v @ M`` member by member (see ``_mv``)."""
    return np.matmul(v[..., None, :], M)[..., 0, :]


def _dot(a, b):
    """``a @ b`` of two vectors, member by member (see ``_mv``)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _top(a):
    """The largest entry of each member's vector ``a``, or 0."""
    return np.maximum.reduce(a, axis=-1, initial=0.0)


@dataclass(eq=False)
class _Tableau:
    """Primal feasible bases of the rows of a stack's members, ready for any
    costs.

    ``T[k]`` holds member ``k``'s constraint rows over the structural, slack
    and phase-1 artificial columns, then its reduced-cost row; ``basis[k]``
    lists its basic columns.  ``start[k, i]``, row ``i``'s basic column at
    the start, is its column of the basis inverse, and its reduced cost is
    minus the row's dual, mapped back to the program's row by
    ``row_scale[k, i]``.  ``ended[k]`` is None while member ``k`` has a
    feasible basis, else its outcome: an infeasible LPSolution or the
    NumericalFailure that ended phase 1.
    """

    T: np.ndarray
    basis: np.ndarray
    start: np.ndarray
    row_scale: np.ndarray
    ended: list


def _drive_out_artificials(T, basis, n_std):
    """Pivot the artificial columns left in a phase-1 basis out of it.  A row
    where none can go is redundant: zero up to round-off, it is set to zero
    and never pivots."""
    # a pivot on row i changes only basis[i], so the rows to visit are known
    for i in (basis >= n_std).nonzero()[0]:
        row = np.abs(T[i, :n_std])
        row[basis[basis < n_std]] = 0.0
        j = int(np.argmax(row))
        if row[j] > PIVOT_TOL:
            _pivot(T, basis, i, j)
        else:
            T[i, :n_std] = 0.0


def _phase_one(stack: LPStack) -> _Tableau:
    """Feasible starts for the rows of every member of ``stack``."""
    S, m_ineq, n = stack.G.shape
    m = m_ineq + stack.A.shape[1]
    n_std = n + m_ineq

    # Standard form rows: [ineq | eq], slack column per inequality row.
    A0 = np.zeros((S, m, n_std))
    A0[:, :m_ineq, :n] = stack.G
    A0[:, :m_ineq, n:] = np.eye(m_ineq)
    A0[:, m_ineq:, :n] = stack.A
    b0 = np.concatenate([stack.h, stack.d], axis=1)

    # Rows more than a factor 64 off unit scale are scaled by a power of two,
    # which is exact, so that the absolute tolerances below mean the same in
    # every row; rows within that band are left exactly as posed.
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

    # Initial basis: unflipped slacks; artificial columns everywhere else,
    # numbered in row order.  The members share the tableau's shape, so they
    # need equally many.
    art = neg.copy()
    art[:, m_ineq:] = True
    counts = art.sum(axis=1)
    n_art = int(counts[0])
    if S > 1 and (counts != n_art).any():
        raise ValueError("stack members need equally many artificial columns")
    basis = np.where(art, n_std - 1 + art.cumsum(axis=1), n + np.arange(m))
    T = np.zeros((S, m + 1, n_std + n_art + 1))
    T[:, :m, :n_std] = A0
    member, row = np.nonzero(art)
    T[member, row, basis[member, row]] = 1.0
    T[:, :m, -1] = b0
    start = basis.copy()
    ended = [None] * S

    if n_art:
        scale = 1.0 + np.maximum(
            np.abs(b0).max(axis=1, initial=0.0), np.abs(A0).reshape(S, -1).max(axis=1, initial=0.0)
        )
        cost1 = np.zeros((S, n_std + n_art))
        cost1[:, n_std:] = 1.0
        _price(T, basis, cost1)
        for k in range(S):
            try:
                if _pivot_loop(T[k], basis[k], n_std + n_art) != OPTIMAL:
                    raise NumericalFailure("phase-1 subproblem reported unbounded")
            except NumericalFailure as exc:
                ended[k] = exc
        art_level = _dot(cost1[0, basis], T[:, :-1, -1])
        for k in range(S):
            if ended[k] is None and art_level[k] > FEAS_TOL * scale[k]:
                ended[k] = LPSolution(status=INFEASIBLE)
            if ended[k] is None:
                _drive_out_artificials(T[k], basis[k], n_std)
            else:
                T[k] = 0.0  # never pivots again; keeps the stacked steps finite
    return _Tableau(T, basis, start, row_scale, ended)


def _phase_two(tab: _Tableau, stack: LPStack, costs: np.ndarray) -> list:
    """Minimize each member's row of ``costs`` over its rows, from its basis
    in the tableau, which is left at the end basis: still primal feasible,
    so the next costs can start from it.  Artificial columns never enter.

    Returns one outcome per member: its LPSolution, or the NumericalFailure
    that ended it; a member that phase 1 ended keeps that outcome.  The
    pivots run member by member on ``T[k]``; the pricing, the duals with
    their refinement and the KKT self-check run once over the stack.
    """
    S, m_ineq, n = stack.G.shape
    n_std = n + m_ineq
    T, basis, start, row_scale = tab.T, tab.basis, tab.start, tab.row_scale
    out = list(tab.ended)
    cost = np.zeros((S, T.shape[2] - 1))
    cost[:, :n] = costs
    _price(T, basis, cost)
    for k in range(S):
        if out[k] is not None:
            continue
        try:
            if _pivot_loop(T[k], basis[k], n_std) == UNBOUNDED:
                out[k] = LPSolution(status=UNBOUNDED)
            else:
                _activate_degenerate_rows(T[k], basis[k], n, n_std)
        except NumericalFailure as exc:
            out[k] = exc
            T[k] = 0.0  # never pivots again; keeps the stacked steps finite

    members = np.arange(S)[:, None]
    x = np.zeros(cost.shape)
    x[members, basis] = T[:, :-1, -1]

    # The multipliers [lam; mu] come off the reduced-cost row.  Pivots on
    # small elements leave round-off in T, which a bound reads through the
    # multipliers, so one refinement step follows: the reduced costs of the
    # basic columns, recomputed from the rows of the program, should be zero,
    # and the start columns of T, the basis inverse, map them to the
    # correction.  ``T[members, :-1, start]`` lists each member's start
    # columns as rows; read transposed, it is laid out as NumPy lays out
    # ``T[k][:-1, start[k]]`` of one member, so it rounds the same.
    w = T[members, -1, start] * row_scale
    r = np.zeros(cost.shape)
    r[:, :n] = (
        costs
        + _mv(stack.G.swapaxes(1, 2), w[:, :m_ineq])
        + _mv(stack.A.swapaxes(1, 2), w[:, m_ineq:])
    )
    r[:, n:n_std] = w[:, :m_ineq] / np.abs(row_scale[:, :m_ineq])
    w -= _vm(r[members, basis], T[members, :-1, start].swapaxes(1, 2)) * row_scale
    sol = LPSolution(
        status=OPTIMAL,
        x=x[:, :n],
        objective=_dot(costs, x[:, :n]),
        ineq_duals=np.maximum(w[:, :m_ineq], 0.0),
        eq_duals=w[:, m_ineq:],
    )
    res = kkt_residuals(LPStack(costs, stack.G, stack.h, stack.A, stack.d), sol)
    primal, dual, gap = res["primal"], res["dual"], res["gap"]
    for k in range(S):
        if out[k] is not None:
            continue
        if primal[k] > 1e-6 or dual[k] > 1e-6 or gap[k] > 1e-6:
            out[k] = NumericalFailure(
                "optimal basis failed the KKT self-check: "
                f"primal={primal[k]:.2e} dual={dual[k]:.2e} gap={gap[k]:.2e}"
            )
        else:
            out[k] = LPSolution(
                status=OPTIMAL,
                x=sol.x[k],
                objective=float(sol.objective[k]),
                ineq_duals=sol.ineq_duals[k],
                eq_duals=sol.eq_duals[k],
            )
    return out


def _raised(outcome):
    """``outcome``, unless it is a NumericalFailure, which is raised."""
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


def solve_stack(stack: LPStack) -> list:
    """Solve every member of ``stack`` under its own cost ``stack.c[k]``.

    One phase 1 and one phase 2 over the stack: the row scaling, the
    tableau, the pricing, the dual refinement and the KKT self-check run
    once over the stacked arrays, the pivots member by member.  Returns one
    outcome per member, its LPSolution or the NumericalFailure that ended
    it; every member comes out bit for bit as it would alone.  The arrays
    are used as given (no NaN check), and the tableau is ``len(stack)``
    times one member's, which callers keep within ``STACK_BYTES``.
    """
    return _phase_two(_phase_one(stack), stack, stack.c)


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
    stack = LPStack.of(lp)
    tab = _phase_one(stack)
    if tab.ended[0] is not None:
        _raised(tab.ended[0])
        return [LPSolution(status=INFEASIBLE) for _ in costs]
    return [_raised(_phase_two(tab, stack, c[None])[0]) for c in costs]


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``; deterministic for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    return solve_many(lp, [lp.c])[0]


def kkt_residuals(lp, sol: LPSolution) -> dict:
    """Scaled primal/dual feasibility residuals, duality gap, and slackness.

    Only meaningful for an optimal solution.  With reduced costs
    ``r = c + G^T lam + A^T mu``, the dual is feasible when ``lam >= 0`` and
    ``r >= 0``, the gap is ``|c.x + lam.h + mu.d|``, and slackness covers
    both ``lam * (h - G x)`` and ``x * r``.  ``lp`` may be an ``LPStack``
    with ``sol`` holding one row per member; each value is then an array
    with one entry per member.
    """
    if sol.status != OPTIMAL:
        raise ValueError("kkt_residuals requires an optimal solution")
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    scale = 1.0 + _top(np.abs(np.concatenate([lp.h, lp.d, x, lp.c], axis=-1)))
    slack = lp.h - _mv(lp.G, x)
    primal = _top(np.concatenate([-x, -slack, np.abs(_mv(lp.A, x) - lp.d)], axis=-1))
    r = lp.c + _mv(lp.G.swapaxes(-1, -2), lam) + _mv(lp.A.swapaxes(-1, -2), mu)
    dual = _top(np.concatenate([-lam, -r], axis=-1))
    gap = np.abs(_dot(lp.c, x) + _dot(lam, lp.h) + _dot(mu, lp.d))
    comp = _top(np.abs(np.concatenate([lam * slack, x * r], axis=-1)))
    return {
        "primal": primal / scale,
        "dual": dual / scale,
        "gap": gap / scale,
        "slackness": comp / scale,
    }
