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
many degenerate pivots to rule out cycling.

The programs whose duals are read (``solve_stack``, hence ``solve``) get
one more pass: among the optimal duals, an active inequality row gets a
nonzero multiplier where one exists (see ``_activate_degenerate_rows``).
The bounding program's multipliers are its duals, and a zero multiplier on
an active facet hides how the bound reacts to moving that facet.  The pass
changes only the multipliers, so ``solve_many``, whose callers read only
``x``, skips it and returns plain basis duals.

The engine works on stacks (``LPStack``): programs of one shape, such as
the facet programs of one verification pass, solved together.  Row
scaling, the tableau with its artificial columns, the pricing of the
reduced-cost row, the pivots, the dual refinement and the KKT self-check
run once over the stacked arrays.  The members pivot in lockstep: one step
picks every running member's entering and leaving columns with batched
``argmin``s, under that member's own pricing rule, and applies all their
rank-1 updates at once; a member that ends drops out untouched.  Every
step is elementwise the one a member takes alone, and a stacked product is
``np.matmul`` over operands laid out as the member's own, which rounds
exactly as ``@`` on that member alone, so a member comes out of a stack bit
for bit as it would alone, and a member that fails numerically leaves the
others as they are.  A stack of one pivots in a plain loop on its 2-D
tableau, which costs less per pivot than a batched step.

``solve_stack`` solves each member under its own cost; ``solve`` is a stack
of one.  ``solve_many`` solves one set of rows under many costs, as the
support queries of one polytope do: phase 1 runs once, and each cost's
phase 2 prices the reduced-cost row at the basis where the previous cost's
ended, which is still primal feasible.  That chain is sequential; what the
duals and the KKT self-check read of each end basis is kept, and they run
once per chunk of costs.  Every path shares one phase-1 and one phase-2
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
    T -= factor[:, None] * T[row]
    basis[row] = col


def _pivot_all(T, basis, rows, cols):
    """``_pivot`` on every member of the stacked tableau ``T`` at once, member
    ``k`` on ``(rows[k], cols[k])``, with the same elementwise steps."""
    k = np.arange(T.shape[0])
    T[k, rows] /= T[k, rows, cols][:, None]
    factor = T[k, :, cols]
    factor[k, rows] = 0.0
    T -= factor[:, :, None] * T[k, rows][:, None, :]
    basis[k, rows] = cols


def _pivot_some(T, basis, go, rows, cols):
    """``_pivot_all`` on the members of ``T`` that ``go`` marks.  The others
    take the same rank-1 update with a zero factor and a zero pivot row,
    which subtracts ``+0.0`` from every entry and so leaves them bit for bit
    as they were."""
    k, rows, cols = np.flatnonzero(go), rows[go], cols[go]
    prow = np.zeros((T.shape[0], T.shape[2]))
    prow[k] = T[k, rows] / T[k, rows, cols][:, None]
    T[k, rows] = prow[k]
    factor = np.zeros(T.shape[:2])
    factor[k] = T[k, :, cols]
    factor[k, rows] = 0.0
    T -= factor[:, :, None] * prow[:, None, :]
    basis[k, rows] = cols


def _price(T, basis, cost):
    """Set the reduced-cost row of each member's tableau ``T[k]`` (its last)
    to ``cost[k]`` at ``basis[k]``."""
    v = _vm(cost[np.arange(T.shape[0])[:, None], basis], T[:, :-1])
    T[:, -1, :-1] = cost - v[:, :-1]
    T[:, -1, -1] = 0.0 - v[:, -1]


def _pivot_limit(T) -> int:
    """The pivots a loop on one member of ``T`` may make."""
    return 1000 + 50 * (T.shape[-2] + T.shape[-1] - 2)  # rows plus columns


def _pivot_loop(T, basis, n_enter, degenerate=0, step=0):
    """Run simplex pivots on one member's tableau ``T`` in place, letting only
    its first ``n_enter`` columns enter; returns 'optimal', 'unbounded' or
    the NumericalFailure that ended it.  ``degenerate`` and ``step`` carry
    on a loop begun in ``_pivot_loops``.

    The leaving row has the least ratio, ties going to the row whose basic
    column comes first; its pivot element exceeds ``PIVOT_TOL`` by choice.
    """
    size = T.shape[0] + T.shape[1] - 2  # constraint rows plus columns
    for _ in range(step, _pivot_limit(T)):
        r = T[-1, :n_enter]
        # Dantzig's rule; Bland's (the first improving column) once
        # degenerate pivots pile up
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
        _pivot(T, basis, leave, enter)
    return NumericalFailure("simplex iteration limit exceeded")


def _pivot_loops(T, basis, n_enter, members) -> dict:
    """``_pivot_loop`` on each member ``T[k]``, ``k`` in ``members``, in
    lockstep; returns ``{k: 'optimal', 'unbounded' or its NumericalFailure}``.

    One step picks every running member's entering and leaving columns with
    batched ``argmin``s, each member under its own rule and degenerate
    count, and pivots them all at once.  A member that ends drops out, left
    as its last step left it; the last one running finishes in
    ``_pivot_loop``, which costs less per pivot than a step of one.
    """
    if len(members) == 1:
        k = members[0]
        return {k: _pivot_loop(T[k], basis[k], n_enter)}
    out = {}
    members = np.asarray(members, dtype=int)
    size = T.shape[1] + T.shape[2] - 2
    # the running members' tableaux: T itself while all of them run
    W, B = (T, basis) if members.size == T.shape[0] else (T[members], basis[members])
    degenerate = np.zeros(members.size, dtype=int)
    step, limit = 0, _pivot_limit(T)
    while members.size > 1 and step < limit:
        k = np.arange(members.size)
        r = W[:, -1, :n_enter]
        enter = r.argmin(axis=1)
        bland = degenerate > 5 * size
        if bland.any():
            enter[bland] = (r[bland] < -PIVOT_TOL).argmax(axis=1)
        optimal = r[k, enter] >= -PIVOT_TOL
        col = W[k, :-1, enter]
        up = col > PIVOT_TOL
        going = up.any(axis=1) & ~optimal
        if not going.all():
            for i in np.flatnonzero(~going):
                out[members[i]] = OPTIMAL if optimal[i] else UNBOUNDED
            if W is not T:
                T[members[~going]], basis[members[~going]] = W[~going], B[~going]
            W, B, members = W[going], B[going], members[going]
            degenerate, enter, col, up = degenerate[going], enter[going], col[going], up[going]
            if not members.size:
                break
        ratios = np.divide(W[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=up)
        best = ratios.min(axis=1)
        if np.isnan(best).any():  # no tied row, where _pivot_loop's argmin raises
            raise ValueError("attempt to get argmin of an empty sequence")
        ties = up & (ratios <= (best + 1e-12)[:, None])
        leave = np.where(ties, B, T.shape[2]).argmin(axis=1)
        degenerate += best <= 1e-12
        _pivot_all(W, B, leave, enter)
        step += 1
    if members.size == 1:
        out[members[0]] = _pivot_loop(W[0], B[0], n_enter, degenerate[0], step)
    else:
        for k in members:
            out[k] = NumericalFailure("simplex iteration limit exceeded")
    if W is not T:
        T[members], basis[members] = W, B
    return out


def _row_steps(rows, key, members):
    """Walk the marked ``rows`` of each member in ``members`` in the order of
    ``key``, one row per member per step; yields ``(at, row)``: which
    members have a row at this step, and the row each visits."""
    mine = np.zeros(rows.shape[0], dtype=bool)
    mine[members] = True
    rows = rows & mine[:, None]
    order = np.where(rows, key, np.iinfo(int).max).argsort(axis=1, kind="stable")
    counts = rows.sum(axis=1)
    for step in range(counts.max(initial=0)):
        yield counts > step, order[:, step]


def _activate_degenerate_rows(T, basis, first_slack, n_enter, members):
    """Give weakly active inequality rows a multiplier, keeping ``x`` optimal,
    in each member ``T[k]``, ``k`` in ``members``.

    A row whose slack is basic at zero is active but carries a zero basis
    dual, the end of the optimal multiplier set that says nothing about the
    row.  One dual-simplex pivot per such row moves its slack out of the
    basis: the entering column (one of the first ``n_enter``) minimizes
    ``r_j / |T[row, j]|`` over ``T[row, j] < 0``, so every reduced cost stays
    nonnegative, the basic values (hence ``x`` and the objective) stay as
    they are, and the row's multiplier becomes that ratio.  Rows where the
    ratio is zero are left.  The rows are selected once and visited in the
    order of their basic columns: a pivot row's value is zeroed first, so a
    pivot changes no other row's value.  The members step through their
    rows in lockstep, one row each per step.
    """
    if len(members) == 1:
        return _activate_rows_of(T[members[0]], basis[members[0]], first_slack, n_enter)
    k = np.arange(T.shape[0])
    rows = (basis >= first_slack) & (basis < n_enter) & (np.abs(T[:, :-1, -1]) <= 1e-12)
    for at, row in _row_steps(rows, basis, members):
        a = T[k, row, :n_enter]
        cand = (a < -PIVOT_TOL) & at[:, None]
        ratios = np.divide(T[:, -1, :n_enter], -a, out=np.full(a.shape, np.inf), where=cand)
        best = ratios.argmin(axis=1)
        # the first candidate, where every candidate's ratio is infinite
        best = np.where(cand[k, best], best, cand.argmax(axis=1))
        go = cand[k, best] & (ratios[k, best] > 0.0)
        if go.any():
            T[k[go], row[go], -1] = 0.0  # round-off below the degeneracy threshold
            _pivot_some(T, basis, go, row, best)


def _activate_rows_of(T, basis, first_slack, n_enter):
    """``_activate_degenerate_rows`` on one member's tableau ``T``."""
    slack = (basis >= first_slack) & (basis < n_enter)
    rows = (slack & (np.abs(T[:-1, -1]) <= 1e-12)).nonzero()[0]
    for row in rows[basis[rows].argsort()]:
        cand = (T[row, :n_enter] < -PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            continue
        ratios = T[-1, cand] / -T[row, cand]
        best = int(ratios.argmin())
        if ratios[best] > 0.0:
            T[row, -1] = 0.0  # round-off below the degeneracy threshold
            _pivot(T, basis, row, int(cand[best]))


def _drive_out_artificials(T, basis, n_std, members):
    """Pivot the artificial columns left in the phase-1 basis of each member
    ``T[k]``, ``k`` in ``members``, out of it.  A row where none can go is
    redundant: zero up to round-off, it is set to zero and never pivots.
    The members step through their rows in lockstep, one row each per step.
    """
    if len(members) == 1:
        return _drive_out_of(T[members[0]], basis[members[0]], n_std)
    k = np.arange(T.shape[0])
    # a pivot on row i changes only basis[i], so the rows to visit are known
    for at, row in _row_steps(basis >= n_std, np.arange(basis.shape[1]), members):
        a = np.zeros((k.size, n_std + 1))
        a[:, :n_std] = np.abs(T[k, row, :n_std])
        a[k[:, None], np.where(basis < n_std, basis, n_std)] = 0.0
        j = a[:, :n_std].argmax(axis=1)
        go = at & (a[k, j] > PIVOT_TOL)
        if go.any():
            _pivot_some(T, basis, go, row, j)
        T[k[at & ~go], row[at & ~go], :n_std] = 0.0


def _drive_out_of(T, basis, n_std):
    """``_drive_out_artificials`` on one member's tableau ``T``."""
    for i in (basis >= n_std).nonzero()[0]:
        row = np.abs(T[i, :n_std])
        row[basis[basis < n_std]] = 0.0
        j = int(np.argmax(row))
        if row[j] > PIVOT_TOL:
            _pivot(T, basis, i, j)
        else:
            T[i, :n_std] = 0.0


def _mv(M, v):
    """``M @ v`` member by member, for one program or a stack of them.

    ``np.matmul`` runs each member's product as ``@`` runs it on that member
    alone, so a stacked product rounds as the per-member one does, as long
    as each member's operands are laid out alike (see ``_solutions``).
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
        for k, res in _pivot_loops(T, basis, n_std + n_art, range(S)).items():
            if res == UNBOUNDED:
                res = NumericalFailure("phase-1 subproblem reported unbounded")
            if isinstance(res, NumericalFailure):
                ended[k] = res
        art_level = _dot(cost1[0, basis], T[:, :-1, -1])
        for k in range(S):
            if ended[k] is None and art_level[k] > FEAS_TOL * scale[k]:
                ended[k] = LPSolution(status=INFEASIBLE)
        _drive_out_artificials(T, basis, n_std, [k for k in range(S) if ended[k] is None])
        # the ended never pivot again; zeros keep the stacked steps finite
        T[[k for k in range(S) if ended[k] is not None]] = 0.0
    return _Tableau(T, basis, start, row_scale, ended)


def _phase_two(tab: _Tableau, stack: LPStack, costs: np.ndarray) -> list:
    """Minimize each member's row of ``costs`` over its rows, from its basis
    in the tableau, which is left at the end basis: still primal feasible,
    so the next costs can start from it.  Artificial columns never enter.

    Returns one outcome per member: None where it ended optimal, its
    solution to be read off the tableau (``_solutions``) at plain basis
    duals, else an unbounded LPSolution or the NumericalFailure that ended
    it; a member that phase 1 ended keeps that outcome.  The members pivot
    in lockstep.
    """
    S, m_ineq, n = stack.G.shape
    n_std = n + m_ineq
    T, basis = tab.T, tab.basis
    out = list(tab.ended)
    cost = np.zeros((S, T.shape[2] - 1))
    cost[:, :n] = costs
    _price(T, basis, cost)
    running = [k for k in range(S) if out[k] is None]
    for k, res in _pivot_loops(T, basis, n_std, running).items():
        if isinstance(res, NumericalFailure):
            out[k] = res
            T[k] = 0.0  # never pivots again; keeps the stacked steps finite
        elif res == UNBOUNDED:
            out[k] = LPSolution(status=UNBOUNDED)
    return out


def _end_bases(tab: _Tableau) -> tuple:
    """What ``_solutions`` reads of each member's end basis: the basic
    columns, their values, the start columns (the basis inverse) listed as
    rows, and the reduced costs of the start columns."""
    members = np.arange(tab.T.shape[0])[:, None]
    return (
        tab.basis.copy(),
        tab.T[:, :-1, -1].copy(),
        tab.T[members, :-1, tab.start],
        tab.T[members, -1, tab.start],
    )


def _solutions(stack: LPStack, tab: _Tableau, ends: tuple, out: list) -> list:
    """``out`` with each None entry, a member that ended optimal, replaced by
    its LPSolution or by the NumericalFailure of the KKT self-check.

    ``ends`` is ``_end_bases`` of the members, taken from ``tab``; member
    ``k`` minimizes ``stack.c[k]`` over its rows in ``stack``, or over the
    rows of a stack of one shared by all.  The duals, their refinement and
    the KKT self-check run once over all members.
    """
    basis, values, inverse, reduced = ends
    S, (m_ineq, n) = len(stack.c), stack.G.shape[1:]
    n_std = n + m_ineq
    costs, row_scale, width = stack.c, tab.row_scale, tab.T.shape[2] - 1
    members = np.arange(S)[:, None]
    x = np.zeros((S, width))
    x[members, basis] = values

    # The multipliers [lam; mu] come off the reduced-cost row.  Pivots on
    # small elements leave round-off in T, which a bound reads through the
    # multipliers, so one refinement step follows: the reduced costs of the
    # basic columns, recomputed from the rows of the program, should be zero,
    # and the start columns of T, the basis inverse, map them to the
    # correction.  ``inverse`` lists each member's start columns as rows;
    # read transposed, it is laid out as NumPy lays out ``T[k][:-1, start[k]]``
    # of one member, so it rounds the same.
    w = reduced * row_scale
    r = np.zeros((S, width))
    r[:, :n] = (
        costs
        + _mv(stack.G.swapaxes(1, 2), w[:, :m_ineq])
        + _mv(stack.A.swapaxes(1, 2), w[:, m_ineq:])
    )
    r[:, n:n_std] = w[:, :m_ineq] / np.abs(row_scale[:, :m_ineq])
    w -= _vm(r[members, basis], inverse.swapaxes(1, 2)) * row_scale
    sol = LPSolution(
        status=OPTIMAL,
        x=x[:, :n],
        objective=_dot(costs, x[:, :n]),
        ineq_duals=np.maximum(w[:, :m_ineq], 0.0),
        eq_duals=w[:, m_ineq:],
    )
    res = kkt_residuals(stack, sol)
    primal, dual, gap = res["primal"], res["dual"], res["gap"]
    out = list(out)
    for k in range(S):
        if out[k] is not None:
            continue
        # written so that a NaN residual fails
        if not (primal[k] <= 1e-6 and dual[k] <= 1e-6 and gap[k] <= 1e-6):
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
    """Solve every member of ``stack`` under its own cost ``stack.c[k]``,
    with the multipliers its callers read.

    One phase 1 and one phase 2 over the stack: the row scaling, the
    tableau, the pricing, the pivots, the degenerate-row pass
    (``_activate_degenerate_rows``), the dual refinement and the KKT
    self-check run once over the stacked arrays, the pivots in lockstep
    (``_pivot_loops``).  Returns one outcome per member, its LPSolution or
    the NumericalFailure that ended it; every member comes out bit for bit
    as it would alone.  The arrays are used as given (no NaN check), and the
    tableau is ``len(stack)`` times one member's, which callers keep within
    ``STACK_BYTES``.
    """
    S, m_ineq, n = stack.G.shape
    tab = _phase_one(stack)
    out = _phase_two(tab, stack, stack.c)
    optimal = [k for k in range(S) if out[k] is None]
    _activate_degenerate_rows(tab.T, tab.basis, n, n + m_ineq, optimal)
    return _solutions(stack, tab, _end_bases(tab), out)


def solve_many(lp: LPProblem, costs) -> list:
    """Solve the rows of ``lp`` once per cost vector in ``costs``, in order,
    for the optimal ``x`` of each.

    Only the rows of ``lp`` are used, not its cost.  Phase 1 runs once; each
    cost's phase 2 starts from the basis where the previous one ended, which
    is primal feasible since only the cost changed.  The duals are the plain
    basis duals: no degenerate-row pass, whose pivots would change only the
    multipliers.  The end bases are kept, and the duals and the KKT
    self-check run once per chunk of costs, as many as tableaux fit in
    ``STACK_BYTES``.  The first cost to fail numerically raises its
    NumericalFailure and ends the sweep.  Deterministic for a fixed input.
    """
    costs = np.asarray(costs, dtype=float).reshape(-1, lp.n_vars)
    if np.isnan(costs).any():
        raise ValueError("NaN in problem data")
    one = LPStack.of(lp)
    tab = _phase_one(one)
    if tab.ended[0] is not None:
        _raised(tab.ended[0])
        return [LPSolution(status=INFEASIBLE) for _ in costs]
    chunk = stack_members(lp.n_vars, lp.m_ineq, lp.m_eq)
    out = []
    while len(out) < len(costs):
        first, at, ends = len(out), [], []
        for c in costs[first:]:
            (res,) = _phase_two(tab, one, c[None])
            if res is None:  # optimal: its duals wait for the chunk
                at.append(len(out))
                ends.append(_end_bases(tab))
            out.append(res)
            if isinstance(res, NumericalFailure) or len(at) == chunk:
                break
        if at:
            rows = LPStack(costs[at], one.G, one.h, one.A, one.d)
            ends = tuple(np.concatenate(parts) for parts in zip(*ends))
            for i, res in zip(at, _solutions(rows, tab, ends, [None] * len(at))):
                out[i] = res
        for res in out[first:]:
            _raised(res)
    return out


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``, with the multipliers of ``solve_stack``; deterministic
    for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    (outcome,) = solve_stack(LPStack.of(lp))
    return _raised(outcome)


def kkt_residuals(lp, sol: LPSolution) -> dict:
    """Scaled primal/dual feasibility residuals, duality gap, and slackness.

    Only meaningful for an optimal solution.  With reduced costs
    ``r = c + G^T lam + A^T mu``, the dual is feasible when ``lam >= 0`` and
    ``r >= 0``, the gap is ``|c.x + lam.h + mu.d|``, and slackness covers
    both ``lam * (h - G x)`` and ``x * r``.  ``lp`` may be an ``LPStack``
    with ``sol`` holding one row per member; each value is then an array
    with one entry per member.  Its rows may be a stack of one, shared by
    all members.
    """
    if sol.status != OPTIMAL:
        raise ValueError("kkt_residuals requires an optimal solution")
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    scale = 1.0 + np.maximum(
        _top(np.abs(np.concatenate([lp.h, lp.d], axis=-1))),
        _top(np.abs(np.concatenate([x, lp.c], axis=-1))),
    )
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
