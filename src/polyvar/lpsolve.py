"""Dual simplex for small linear programs with nonnegative costs, with dual
extraction.

Every program has one form, ``min c.x`` subject to ``G x <= h``, ``A x = d``
and ``x >= 0``, with ``c >= 0``; callers pose free and boxed variables in
it themselves, and a program with costs of either sign as a program with
nonnegative ones (see ``invariance.support_values``, ``invariance._max_min``
and ``oracle.box_lp``).  Each equality row is posed as two inequality rows
(``_split``), so the slack basis, whose reduced costs are the costs, is
dual feasible whatever the right-hand sides, and the dual simplex
(``_dual_loops``) starts there (``_dual_start``; Lemke, *The dual method
of solving the linear programming problem*, 1954): no phase 1 runs, and
'infeasible', a row below zero with no entering column, is a verdict.  The
costs bound the objective below by 0, so no program is unbounded.

Every program this package builds has at most a few hundred rows; the
bounding programs have one column per vertex class, up to a few thousand.
A tableau is fast enough at that shape and carries its own duals: its
reduced costs are updated by every pivot, and the slack columns that formed
the start basis hold the basis inverse, so a row's dual is minus the
reduced cost of its slack, refined once against the program's own rows.
Rows far from unit scale are rescaled by powers of two first.  The leaving
row is the most negative one relative to its length, switching to Bland's
rule after too many degenerate pivots to rule out cycling.

The tableau is condensed, in the dictionary form of the simplex method
(Chvátal, *Linear Programming*, 1983, ch. 2-3): a basic column is a unit
vector, so the rows are stored over the nonbasic columns and the right-hand
side only, and a pivot is a Jordan exchange, the leaving column taking the
entering column's slot.  A program with far more rows than columns, such as
a facet program of a template with many facets, updates a few columns per
pivot instead of all.  Every entry takes the full tableau's float
operations and equals its entry (see ``_Tableau``), and every pivot choice
compares the stored columns and breaks ties by column index (``_first``),
so it is the full tableau's choice over its whole row.  The basis inverse,
whose columns are the slacks', a basic one a unit vector, is never formed:
the dual refinement and a warm restart read the stored slack columns only
(``_stored_slacks``), and round as over the full inverse.

The engine works on stacks (``LPStack``): programs of one shape, such as
the facet programs of one verification pass or the directions of one
support sweep, solved together.  Row scaling, the tableau, the dual
refinement and the KKT self-check run once over the stacked arrays, and
the members pivot in lockstep, a member that ends dropping out untouched.
Every step is elementwise the one a member takes alone, and a stacked
product is ``np.matmul`` over operands laid out as the member's own, which
rounds as ``@`` on that member alone, so a member comes out of a stack bit
for bit as it would alone.  A lone member pivots in a plain loop, which
costs less per pivot.

``solve_dual_stack`` solves the bounding programs, whose duals are read,
with one more pass: among the optimal duals, an active inequality row gets
a nonzero multiplier where one exists (see ``_activate_degenerate_rows``).
A bounding program's multipliers are its duals, and a zero multiplier on an
active facet hides how the bound reacts to moving that facet.
``solve_sweep`` solves a stack without that pass, at plain basis duals, for
the support and reach sweeps, which read ``x`` or the objective; ``solve``
is its stack of one, for the offset step's programs and
``oracle.box_point``.

``solve_dual_stack`` also restarts warm, when a caller passes the
``Restart`` that an earlier solve of the same costs and rows at other
right-hand sides filled with its end tableaux.  Only the right-hand side
column of an end tableau depends on the right-hand sides: it is recomputed
(``_restart``), the basis stays dual feasible, and the dual simplex
makes it primal feasible again, the pivots that a cold solve spends saved
where the right-hand sides moved little.  A stack in which any member's
restart fails is solved cold, bit for bit as without a restart, so a
restart decides no emptiness and adds no failure; a restart's answers are
optimal ones, though not bit for bit the cold solve's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-10
_NO_COLUMN = np.iinfo(np.intp).max  # above every column, for ``_first``

# Largest stacked tableau, in bytes, that a caller builds: programs whose
# condensed tableaux together would exceed it go in several stacks, and a
# program whose tableau alone exceeds it in a stack of one.  The slack
# columns that the dual refinement and a warm restart gather from a stack
# (``_stored_slacks``) number at most five more than the tableau's columns.
STACK_BYTES = 256 * 1024


class NumericalFailure(RuntimeError):
    """The solver could not certify a result at its tolerances."""


@dataclass(eq=False)
class LPProblem:
    """``min c.x`` subject to ``G x <= h``, ``A x = d`` and ``x >= 0``.

    The one form every program is posed in: a free variable is the
    difference of two adjacent nonnegative columns, and a boxed one is
    shifted to a bound with its other bound as a row of ``G``.  Either row
    block may be omitted.  Every entry must be finite: a NaN or an infinity
    raises ValueError.  ``solve`` needs ``c >= 0``.
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
            if not np.isfinite(arr).all():
                raise ValueError("non-finite value (NaN or inf) in problem data")
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
    (at least one)."""
    return max(1, STACK_BYTES // tableau_bytes(n_vars, m_ineq, m_eq))


def tableau_bytes(n_vars: int, m_ineq: int, m_eq: int) -> int:
    """The bytes of one program's condensed tableau: ``n_vars + 1`` columns
    of ``m_ineq + 2 m_eq + 1`` rows, each equality row posed as two
    inequality rows (``_split``)."""
    return 8 * (m_ineq + 2 * m_eq + 1) * (n_vars + 1)


# A tableau's state is the tuple ``(T, basis, cols)`` of one member
# (2-D ``T``) or of a stack (3-D ``T``); see ``_Tableau``.


def _part(st, members) -> tuple:
    """The state of ``members`` of a stacked state: views for one member
    or a slice, copies for an index array or mask."""
    T, basis, cols = st
    return T[members], basis[members], cols[members]


def _put(st, members, part) -> None:
    """Write ``part``, taken with ``_part(st, members)``, back into ``st``."""
    for a, b in zip(st, part):
        a[members] = b


def _width(T) -> int:
    """The column count ``W`` of a member of the tableau ``T``."""
    return T.shape[-2] + T.shape[-1] - 2


def _pivot(st, row, slot):
    """Pivot one member's tableau ``st`` in place on ``(row, slot)``: the
    variable stored at ``slot`` enters the basis, and the one basic in
    ``row`` leaves it, its new column taking the slot.

    The full tableau's float operations: the pivot row is divided by the
    pivot ``p``, and every other row, the reduced costs included, takes
    ``x - f * prow``.  The leaving column was a unit vector with a zero
    reduced cost, so it comes out as ``0.0 - f * (1.0 / p)``, ``1.0 / p`` at
    the pivot row.
    """
    T, basis, cols = st
    factor = T[:, slot].copy()
    p = factor[row]
    factor[row] = 0.0
    T[:, slot] = 0.0
    T[row, slot] = 1.0
    T[row] /= p
    T -= factor[:, None] * T[row]
    cols[slot], basis[row] = basis[row], cols[slot]


def _pivot_all(st, rows, slots):
    """``_pivot`` on every member of the stacked state ``st`` at once,
    member ``k`` on ``(rows[k], slots[k])``, with the same elementwise
    steps."""
    T, basis, cols = st
    k = np.arange(T.shape[0])
    factor = T[k, :, slots]
    p = factor[k, rows]
    factor[k, rows] = 0.0
    prow = T[k, rows]
    prow[k, slots] = 1.0
    prow /= p[:, None]
    T[k, :, slots] = 0.0
    T[k, rows] = prow
    T -= factor[:, :, None] * prow[:, None, :]
    cols[k, slots], basis[k, rows] = basis[k, rows], cols[k, slots]


def _pivot_some(st, go, rows, slots):
    """``_pivot_all`` on the members of ``st`` that ``go`` marks; the others
    are left as they are."""
    if go.all():
        _pivot_all(st, rows, slots)
        return
    k = np.flatnonzero(go)
    part = _part(st, k)
    _pivot_all(part, rows[go], slots[go])
    _put(st, k, part)


def _first(marked, cols):
    """Where the least column of ``cols`` that ``marked`` marks sits (0 if none)."""
    return np.where(marked, cols, _NO_COLUMN).argmin(axis=-1)


def _least(values):
    """Where ``values`` is least over the last axis, or NaN if its least is:
    with ``_first``, the choice among tied values."""
    least = values.min(axis=-1, keepdims=True)
    return np.where(least == least, values == least, np.isnan(values))


def _pivot_limit(T) -> int:
    """The pivots a loop on one member of ``T`` may make."""
    return 1000 + 50 * (T.shape[-2] - 1 + _width(T))  # rows plus columns


class _Running:
    """The running members of a stacked state ``st``, ``members`` being their
    indices there: ``state`` is ``st`` itself while all of them run, else a
    copy of the running ones, which ``keep`` and ``restore`` write back.
    Only a stack of two or more members, which fits ``STACK_BYTES``, is ever
    copied, and a copy holds each entry as it is, as in place.
    """

    def __init__(self, st, members):
        self.st, self.members = st, np.asarray(members, dtype=int)
        whole = np.array_equal(self.members, np.arange(len(st[0])))
        self.state = st if whole else _part(st, self.members)

    @property
    def n(self) -> int:
        return self.members.size

    def keep(self, going) -> None:
        """Keep running the members that ``going`` marks, in their order."""
        self.restore(~going)
        self.state, self.members = _part(self.state, going), self.members[going]

    def restore(self, ended=slice(None)) -> None:
        """Write the running members that ``ended`` marks back into ``st``."""
        if self.state is not self.st:
            _put(self.st, self.members[ended], _part(self.state, ended))


def _dual_loop(st, degenerate=0, step=0):
    """Dual simplex pivots on one member's tableau ``st`` in place, from a
    basis whose reduced costs are nonnegative; returns 'optimal',
    'infeasible' or the NumericalFailure that ended it.  ``degenerate`` and
    ``step`` carry on a loop begun in ``_dual_loops``, whose steps, choices
    and outcomes these are, member by member.
    """
    T, basis, cols = st
    size = T.shape[0] - 1 + _width(T)
    r, stored = T[-1, :-1], cols[:-1]
    for _ in range(step, _pivot_limit(T)):
        value = T[:-1, -1]
        low = value < -FEAS_TOL
        if np.isnan(value).any():
            return NumericalFailure("dual simplex met a NaN")
        if not low.any():
            return OPTIMAL
        lows = low.nonzero()[0]
        if lows.size == 1 and not np.isnan(T[lows[0], :-1]).any():
            row = lows[0]  # the one row below zero; its key, not NaN, is the least
        elif degenerate > 5 * size:
            row = _first(low, basis)
        else:
            rows = T[:-1, :-1]
            with np.errstate(divide="ignore"):  # a row of zeros below zero comes first
                key = np.divide(value, np.sqrt(np.einsum("ij,ij->i", rows, rows)),
                                out=np.full(value.shape, np.inf), where=low)
            row = _first(low & (key == key.min()), basis)
        a = T[row, :-1]
        cand = (a < -PIVOT_TOL).nonzero()[0]  # _dual_loops' ratios, divided at the candidates only
        if not cand.size:
            return INFEASIBLE
        ratios = r[cand] / -a[cand]
        best = ratios.min()
        if best != best:
            return NumericalFailure("dual simplex met a NaN")
        degenerate += best <= 1e-12
        ties = cand[ratios <= best + 1e-12]
        _pivot(st, row, ties[stored[ties].argmin()])
    return NumericalFailure("simplex iteration limit exceeded")


def _dual_loops(st, members) -> dict:
    """Dual simplex pivots on each member of the stacked state ``st``, for
    ``k`` in ``members``, in lockstep, from a basis whose reduced costs are
    nonnegative; returns ``{k: 'optimal', 'infeasible' or its
    NumericalFailure}``.  'optimal' means every basic value is at least
    ``-FEAS_TOL``; 'infeasible' that a row below it has no entering column.

    The leaving row has the most negative value relative to the length of
    its row over the stored columns, ties going to the row whose basic
    column comes first: on the second pass of a 48-facet 8-D synthesis this
    normalized pricing took 42 pivots per facet program where the most
    negative value alone took 70.  The entering column has the least ratio
    ``r_j / |T[row, j]|`` over the entries ``T[row, j] < -PIVOT_TOL`` (the
    ratio test of ``_activate_degenerate_rows``), ties within 1e-12 going
    to the first column, so the reduced costs stay nonnegative.  After too
    many degenerate pivots the leaving row is the one below zero whose
    basic column comes first (Bland's rule).  One step picks every running
    member's leaving row and entering column with batched ``argmin``s, each
    member under its own rule and degenerate count, and pivots them all at
    once.  A member that ends drops out, left as its last step left it, and
    the others go on in a copy (``_Running``).  A lone member, or the last
    one running, pivots in ``_dual_loop``, which takes the same steps for
    less per pivot: stepped here instead, a lone member took the
    ``bound-small`` benchmark +36% and ``synth`` +59% in wall time.
    """
    if st[0].shape[1] == 1:  # no rows
        return dict.fromkeys(members, OPTIMAL)
    if len(members) == 1:
        return {members[0]: _dual_loop(_part(st, members[0]))}
    out = {}
    size = st[0].shape[1] - 1 + _width(st[0])
    run = _Running(st, members)
    degenerate = np.zeros(run.n, dtype=int)
    step, limit = 0, _pivot_limit(st[0])
    while run.n > 1 and step < limit:
        T, B, cols = run.state
        k = np.arange(run.n)
        value = T[:, :-1, -1]
        low = value < -FEAS_TOL
        bland = degenerate > 5 * size
        rows = T[:, :-1, :-1]
        with np.errstate(divide="ignore"):  # a row of zeros below zero comes first
            key = np.divide(value, np.sqrt(np.einsum("kij,kij->ki", rows, rows)),
                            out=np.full(value.shape, np.inf), where=low)
        least = key.min(axis=1)
        first = low & ((key == least[:, None]) | bland[:, None])
        row = _first(first, B)
        a = T[k, row, :-1]
        cand = a < -PIVOT_TOL
        ratios = np.divide(T[:, -1, :-1], -a, out=np.full(a.shape, np.inf), where=cand)
        best = ratios.min(axis=1)
        ties = cand & (ratios <= (best + 1e-12)[:, None])
        slot = _first(ties, cols[:, :-1])
        feasible = ~low.any(axis=1)
        stuck = ~cand.any(axis=1)
        broken = np.isnan(value).any(axis=1) | (~feasible & ~stuck & np.isnan(best))
        going = ~(feasible | stuck | broken)
        if not going.all():
            for i in np.flatnonzero(~going):
                out[run.members[i]] = (
                    NumericalFailure("dual simplex met a NaN") if broken[i]
                    else OPTIMAL if feasible[i] else INFEASIBLE
                )
            run.keep(going)
            degenerate, row, slot, best = degenerate[going], row[going], slot[going], best[going]
            if not run.n:
                break
        degenerate += best <= 1e-12
        _pivot_all(run.state, row, slot)
        step += 1
    if run.n == 1:
        out[run.members[0]] = _dual_loop(_part(run.state, 0), degenerate[0], step)
    else:
        for k in run.members:
            out[k] = NumericalFailure("simplex iteration limit exceeded")
    run.restore()
    return out


def _row_steps(rows, key, members):
    """Walk the marked ``rows`` of each member in ``members`` in the order of
    ``key``, one row per member per step; yields ``(at, row)``: which
    members have a row at this step, and the row each visits."""
    mine = np.zeros(rows.shape[0], dtype=bool)
    mine[members] = True
    rows = rows & mine[:, None]
    order = np.where(rows, key, np.inf).argsort(axis=1, kind="stable")
    counts = rows.sum(axis=1)
    for step in range(counts.max(initial=0)):
        yield counts > step, order[:, step]


def _activate_degenerate_rows(st, first_slack, end_slack, members):
    """Give weakly active inequality rows a multiplier, keeping ``x`` optimal,
    in each member of the stacked state ``st``, for ``k`` in ``members``.

    A row whose slack is basic at zero is active but carries a zero basis
    dual, the end of the optimal multiplier set that says nothing about the
    row.  One dual-simplex pivot per such row, the rows being those whose
    slack is a column from ``first_slack`` to ``end_slack``, moves its slack
    out of the basis: the entering column minimizes ``r_j / |T[row, j]|``
    over ``T[row, j] < 0``, so every reduced cost stays nonnegative, the
    basic values (hence ``x`` and the objective) stay as they are, and the
    row's multiplier becomes that ratio.  Rows where the ratio is zero are
    left.  The rows are selected once and visited in the order of their
    basic columns: a pivot row's value is zeroed first, so a pivot changes
    no other row's value.  The members step through their rows in lockstep,
    one row each per step.

    The columns from ``end_slack`` on are the slacks of split equality rows
    (``_split``), the ``-`` halves first.  They take part in the ratio
    test, which keeps their reduced costs nonnegative, but never enter: a
    row whose least ratio falls on one is left.  A split row is visited
    only where both of its halves are basic, so that the equality row it
    poses carries no multiplier at all; its ``-`` half comes first, and
    once it pivots, the ``+`` half's row is the negated ``-`` row, zero up
    to round-off, where no column enters.  Where one half is nonbasic, the
    pair's multiplier is already that half's, and neither is visited.
    """
    T, basis, cols = st
    k = np.arange(T.shape[0])
    zero = np.abs(T[:, :-1, -1]) <= 1e-12
    rows = (basis >= first_slack) & (basis < end_slack) & zero
    pairs = (_width(T) - end_slack) // 2
    # the halves of a pair are never both nonbasic, so a pair whose halves
    # are both basic leaves fewer nonbasic halves than pairs
    if pairs and (cols[:, :-1] >= end_slack).sum(axis=1).min() < pairs:
        half = basis - end_slack
        pair = np.where(half >= 0, half % pairs, pairs)
        both = (pair[:, :, None] == np.arange(pairs)).sum(axis=1) == 2
        both = np.append(both, np.zeros((len(T), 1), dtype=bool), axis=1)  # a column for no pair
        rows |= zero & both[k[:, None], pair]
    if not rows.any():
        return
    for at, row in _row_steps(rows, basis, members):
        a = T[k, row, :-1]
        cand = (a < -PIVOT_TOL) & at[:, None]
        ratios = np.divide(T[:, -1, :-1], -a, out=np.full(a.shape, np.inf), where=cand)
        # the least ratio, NaN first, and the first candidate if all are infinite
        tied = cand & _least(ratios)
        slot = _first(tied, cols[:, :-1])
        go = tied.any(axis=1) & (ratios.min(axis=1) > 0.0) & (cols[k, slot] < end_slack)
        if go.any():
            T[k[go], row[go], -1] = 0.0  # round-off below the degeneracy threshold
            _pivot_some(st, go, row, slot)


def _mv(M, v):
    """``M @ v`` member by member, for one program or a stack of them.

    ``np.matmul`` runs each member's product as ``@`` runs it on that member
    alone, so a stacked product rounds as the per-member one does, as long
    as each member's operands are laid out alike (see ``_stored_slacks``).
    """
    return np.matmul(M, v[..., None])[..., 0]


def _vm(v, M):
    """``v @ M`` member by member (see ``_mv``)."""
    return np.matmul(v[..., None, :], M)[..., 0, :]


def _dot(a, b):
    """``a @ b`` of two vectors, member by member (see ``_mv``)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _top(a):
    """The largest entry of each member's vector ``a``, or 0 (never -0.0,
    which ``np.maximum`` can return against an initial 0.0)."""
    return np.maximum.reduce(a, axis=-1, initial=0.0) + 0.0


@dataclass(eq=False)
class _Tableau:
    """The tableaux of a stack's members, from their dual starts
    (``_dual_start``), in condensed form.

    Member ``k`` has ``m`` inequality rows over ``W = n + m`` columns:
    structural, then one slack per row.  ``basis[k]`` lists its basic
    column per row, and ``cols[k]`` the others, then ``W`` for the
    right-hand side.  ``T[k]`` holds the rows over ``cols[k]`` as the full
    tableau holds them, then those columns' reduced costs and minus the
    objective.  Row ``i``'s slack, basic in it at the start, is its column
    of the basis inverse (``_stored_slacks``), and its reduced cost is minus
    the row's dual, mapped back to the program's row by ``row_scale[k, i]``.
    ``pairs`` counts the equality rows posed as two inequality rows each,
    the last ``2 * pairs`` rows (``_split``).

    A basic column is not stored: off its own row it is ``+0.0``, with a
    reduced cost of ``+0.0``, as in the full tableau, and a leaving column
    comes out of that (see ``_pivot``).  So every pivot is the full
    tableau's, and the results equal its results bit for bit on every
    program that ``tests/test_condensed.py`` compares with the dense engine.
    """

    T: np.ndarray
    basis: np.ndarray
    cols: np.ndarray
    row_scale: np.ndarray
    pairs: int

    @property
    def state(self) -> tuple:
        return self.T, self.basis, self.cols


def _row_scale(size):
    """The power of two that scales each row whose largest entry ``size``
    lies more than a factor 64 off unit scale to about 1, and 1 for the
    rows within that band, or None where every row is within it.  Scaling
    by a power of two is exact, and it makes the absolute tolerances mean
    the same in every row; rows within the band stay exactly as posed."""
    far = (size > 0.0) & ((size < 2.0**-6) | (size > 2.0**6))
    if not far.any():
        return None
    shift = np.log2(np.where(far, size, 1.0)).round().clip(-1000, 1000)
    return np.ldexp(1.0, -shift.astype(int))


def _split(stack: LPStack) -> LPStack:
    """``stack`` with inequality rows only: after ``G x <= h`` come
    ``A x <= d`` and ``-A x <= -d``, each equality row posed as two.  The
    rows come out in C order whatever the layout of ``stack``'s arrays,
    such as views that repeat one program's rows, so that a stacked product
    over them rounds as the member's own (see ``_mv``)."""
    S, _, n = stack.G.shape
    G = np.ascontiguousarray(np.concatenate([stack.G, -stack.A, stack.A], axis=1))
    h = np.ascontiguousarray(np.concatenate([stack.h, -stack.d, stack.d], axis=1))
    return LPStack(stack.c, G, h, np.zeros((S, 0, n)), np.zeros((S, 0)))


def _dual_start(stack: LPStack, pairs: int) -> _Tableau:
    """The slack bases of the members of ``stack``, whose rows are all
    inequalities and whose costs are nonnegative, the last ``2 * pairs``
    rows being split equality rows (``_split``).

    Each member's reduced costs are its costs, so the basis is dual
    feasible whatever the right-hand sides, which the tableau holds as
    posed: the dual simplex (``_dual_loops``) starts there.  The rows are
    scaled by ``_row_scale`` of their largest entry, the right-hand side
    left out, so the scaling depends only on the rows' matrix, as a warm
    restart at other right-hand sides needs.
    """
    S, m, n = stack.G.shape
    T = np.zeros((S, m + 1, n + 1))
    T[:, :m, :n] = stack.G
    T[:, :m, -1] = stack.h
    row_scale = _row_scale(np.abs(stack.G).max(axis=2, initial=0.0))
    if row_scale is None:
        row_scale = np.ones((S, m))
    else:
        T[:, :m] *= row_scale[:, :, None]
    T[:, m, :n] = stack.c
    basis = np.broadcast_to(n + np.arange(m), (S, m)).copy()
    cols = np.empty((S, n + 1), dtype=int)
    cols[:, :n], cols[:, -1] = np.arange(n), n + m
    return _Tableau(T, basis, cols, row_scale, pairs)


def _dual_phase(tab: _Tableau, out: list) -> list:
    """``out`` with each None entry, a member whose basis in ``tab`` is dual
    feasible, replaced by the outcome of its dual simplex pivots
    (``_dual_loops``): None where it ended optimal, its solution to be read
    off the tableau (``_solutions``), else an infeasible LPSolution or the
    NumericalFailure that ended it.  The tableau is left at the end bases."""
    out = list(out)
    running = [k for k in range(len(out)) if out[k] is None]
    for k, res in _dual_loops(tab.state, running).items():
        if isinstance(res, NumericalFailure):
            out[k] = res
            tab.T[k] = 0.0  # never pivots again; keeps the stacked steps finite
        elif res == INFEASIBLE:
            out[k] = LPSolution(status=INFEASIBLE)
    return out


def _stored_slacks(tab: _Tableau) -> tuple:
    """``(slack, columns, reduced)``: the slack columns that each member's
    tableau stores, the others being basic, unit columns with a zero reduced
    cost.  ``slack[k, p]`` is the slack's row (``m`` for none), and
    ``columns[k, p]`` and ``reduced[k, p]`` its entries in ``T[k]``.

    ``np.matmul``'s BLAS product sums blocks of four columns, a tail of two
    and a tail of one each in its own order, so they fall as the full
    inverse's do, and a product rounds each as over it: the stored slacks of
    the first ``4 * (m // 4)`` rows in order, padded to a multiple of four
    (to four before a lone tail, else summed as a dot), then the last ``m % 4``."""
    T, basis, cols = tab.state
    S, m = basis.shape
    k, head = np.arange(S)[:, None], m - m % 4
    slot = np.full((S, _width(T) + 1), -1)
    slot[k, cols[:, :-1]] = np.arange(cols.shape[1] - 1)
    slot = slot[:, _width(T) - m :]  # each slack's slot, -1 where basic, and -1 at m
    stored = np.where(slot[:, :head] >= 0, np.arange(head), m)
    stored.sort(axis=1)
    width = max(-(-(stored < m).sum(axis=1).max(initial=0) // 4) * 4, 4 * (head and m % 4 == 1))
    slack = np.empty((S, width + m - head), dtype=int)
    slack[:, :width], slack[:, width:] = stored[:, :width], np.arange(head, m)
    at = slot[k, slack]
    none = at < 0
    columns, reduced = T[k, :-1, at], T[k, -1, at]
    columns[none], reduced[none], slack[none] = 0.0, 0.0, m
    return slack, columns, reduced


def _restart(tab: _Tableau, stack: LPStack) -> list:
    """Minimize each member of ``stack``, split by ``_split``, from its end
    tableau in ``tab``, an optimal basis that a solve of the same costs and
    rows left at other right-hand sides; the tableau is left at the new end
    basis.

    Only the right-hand side column changes: it becomes ``B^-1 b`` for the
    stack's scaled right-hand sides ``b``, a row's own ``b`` where its slack
    is basic plus the stored slack columns (``_stored_slacks``) times their
    ``b``, and the objective entry follows.  The reduced costs stay, so the
    basis stays dual feasible, and dual simplex pivots (``_dual_loops``)
    restore primal feasibility (``_dual_phase``), whose outcomes this
    returns; 'infeasible' is a verdict, as from a dual start.
    """
    T, basis = tab.T, tab.basis
    S, m, n = stack.G.shape
    k = np.arange(S)[:, None]
    b = np.zeros((S, m + 1))  # 0 at m, for no slack
    b[:, :m] = stack.h * tab.row_scale
    slack, columns, _ = _stored_slacks(tab)
    T[:, :-1, -1] = b[k, np.where(basis >= n, basis - n, m)] + _vm(b[k, slack], columns)
    cost = np.zeros((S, _width(T) + 1))
    cost[:, :n] = stack.c
    T[:, -1, -1] = -_dot(cost[k, basis], T[:, :-1, -1])
    return _dual_phase(tab, [None] * S)


def _solutions(stack: LPStack, tab: _Tableau, out: list) -> list:
    """``out`` with each None entry, a member that ended optimal, replaced by
    its LPSolution or by the NumericalFailure of the KKT self-check.

    Member ``k`` minimizes ``stack.c[k]`` over its rows in ``stack``, split
    by ``_split``, at its end basis in ``tab``.  The dual refinement reads
    only the stored slack columns (``_stored_slacks``).  The self-check
    runs on the split rows, and each pair's multiplier is read as the free
    multiplier ``lam+ - lam-`` of the equality row it poses.
    """
    T, basis = tab.T, tab.basis
    S, m = basis.shape
    m_ineq, n = stack.G.shape[1:]
    costs, width = stack.c, _width(T)
    members = np.arange(S)[:, None]
    x = np.zeros((S, width))
    x[members, basis] = T[:, :-1, -1]

    # The multipliers lam come off the reduced costs of the start columns.
    # Pivots on small elements leave round-off in T, which a bound reads
    # through the multipliers, so one refinement step follows: the reduced
    # costs r_B of the basic columns, recomputed from the rows of the
    # program, should be zero, and r_B B^-T is the correction.  At a basic
    # slack both are 0, its r_B entry being its zero reduced cost.
    slack, columns, reduced = _stored_slacks(tab)
    at = np.zeros((S, m + 1))  # each row's value at its stored slack, 0 elsewhere
    at[members, slack] = reduced
    dual = at[:, :m] * tab.row_scale
    G, A = stack.G.swapaxes(1, 2), stack.A.swapaxes(1, 2)
    r = np.zeros((S, width))
    r[:, :n] = costs + _mv(G, dual[:, :m_ineq]) + _mv(A, dual[:, m_ineq:])
    r[:, n:] = dual[:, :m_ineq] / tab.row_scale[:, :m_ineq]
    at[members, slack] = _vm(r[members, basis], columns.swapaxes(1, 2))
    w = dual - at[:, :m] * tab.row_scale
    sol = LPSolution(
        status=OPTIMAL,
        x=x[:, :n],
        objective=_dot(costs, x[:, :n]),
        ineq_duals=np.maximum(w[:, :m_ineq], 0.0),
        eq_duals=w[:, m_ineq:],
    )
    res = kkt_residuals(stack, sol)
    primal, dual, gap = res["primal"], res["dual"], res["gap"]
    if tab.pairs:
        lam, p = sol.ineq_duals, tab.pairs
        sol.ineq_duals, sol.eq_duals = lam[:, : -2 * p], lam[:, -p:] - lam[:, -2 * p : -p]
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


@dataclass(eq=False)
class Restart:
    """End tableaux that one solve leaves for the next solve of the same
    costs and rows at other right-hand sides: a warm restart.

    A caller whose programs keep their costs and matrices while their
    right-hand sides move creates one and passes it to each solve.  ``tab``
    holds the last solve's end tableaux, or None before the first solve and
    after one where a member did not end optimal.  ``warm`` says whether
    the last solve restarted from them; a solve whose restart failed on any
    member ran cold, from its dual start.
    """

    tab: _Tableau = None
    warm: bool = False


def _restarted(tab: _Tableau, stack: LPStack):
    """``stack``'s outcomes restarted from ``tab`` (``_restart``), with
    ``solve_dual_stack``'s multipliers; None unless every member ended
    optimal and passed the KKT self-check.  ``stack`` is split by
    ``_split``, as ``tab`` was built."""
    S, m_ineq, n = stack.G.shape
    out = _restart(tab, stack)
    if any(res is not None for res in out):
        return None
    _activate_degenerate_rows(tab.state, n, n + m_ineq - 2 * tab.pairs, list(range(S)))
    out = _solutions(stack, tab, out)
    return None if any(isinstance(res, NumericalFailure) for res in out) else out


def _cold_dual(stack: LPStack, duals: bool) -> tuple:
    """``(tab, outcomes)`` of every member of ``stack`` solved from its dual
    start (``_dual_start`` of ``_split(stack)``), with the degenerate-row
    pass when ``duals`` is set."""
    S, m_ineq, n = stack.G.shape
    split = _split(stack)
    tab = _dual_start(split, stack.A.shape[1])
    out = _dual_phase(tab, [None] * S)
    if duals:
        optimal = [k for k in range(S) if out[k] is None]
        _activate_degenerate_rows(tab.state, n, n + m_ineq, optimal)
    return tab, _solutions(split, tab, out)


def solve_dual_stack(stack: LPStack, restart: Restart = None) -> list:
    """Solve every member of ``stack``, whose costs are nonnegative, by the
    dual simplex from its slack basis, with the multipliers of the
    degenerate-row pass.

    Each equality row is posed as two inequality rows (``_split``), so the
    slack basis is dual feasible whatever the right-hand sides
    (``_dual_start``), and 'infeasible', a row below zero with no entering
    column, is a verdict.  The row scaling, the pivots (``_dual_loops``),
    the degenerate-row pass (over the rows of ``G``, and over a split row
    only where both its halves are basic; see ``_activate_degenerate_rows``),
    the dual refinement and the KKT self-check run once over the stacked
    arrays.  An equality row's multiplier is the difference of its halves'.
    Returns one outcome per member, its LPSolution or the NumericalFailure
    that ended it; every member comes out bit for bit as it would alone.
    The arrays are used as given (no NaN or sign check), and the tableau is
    ``len(stack)`` times one member's, which callers keep within
    ``STACK_BYTES`` (``stack_members``).

    With a ``restart`` that holds the end tableaux of an earlier solve of
    the same costs and rows, the members restart from them (``_restart``)
    at ``stack``'s right-hand sides, past the degenerate-row pass, the
    refinement and the KKT self-check; if any member's restart fails, the
    whole stack is solved cold, as without a restart.  Either way
    ``restart`` keeps the end tableaux.
    """
    if restart is not None:
        restart.warm = False
        if restart.tab is not None:
            out = _restarted(restart.tab, _split(stack))
            if out is not None:
                restart.warm = True
                return out
    tab, out = _cold_dual(stack, duals=True)
    if restart is not None:
        optimal = all(isinstance(res, LPSolution) and res.status == OPTIMAL for res in out)
        restart.tab = tab if optimal else None
    return out


def solve_sweep(stack: LPStack) -> list:
    """Solve every member of ``stack``, whose costs are nonnegative, by the
    dual simplex from its slack basis, at plain basis duals: the stacked
    cold start of ``solve_dual_stack`` without its degenerate-row pass,
    whose pivots change only the multipliers, for callers that read ``x``
    or the objective.

    Returns one outcome per member, its LPSolution or the NumericalFailure
    that ended it; every member comes out bit for bit as it would alone.
    The arrays are used as given, and the tableau is ``len(stack)`` times
    one member's, which callers keep within ``STACK_BYTES``.
    """
    return _cold_dual(stack, duals=False)[1]


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``, whose costs are nonnegative, as a stack of one of
    ``solve_sweep``: its equality rows split, from its dual start, at plain
    basis duals; deterministic for a fixed input.

    Raises ValueError on a negative cost, and NumericalFailure instead of
    ever returning an uncertified answer.
    """
    if (lp.c < 0.0).any():
        raise ValueError("a dual start needs nonnegative costs")
    (outcome,) = solve_sweep(LPStack.of(lp))
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


def kkt_residuals(lp, sol: LPSolution) -> dict:
    """Scaled primal and dual feasibility residuals and duality gap: what
    the self-check gates on.

    Only meaningful for an optimal solution.  With reduced costs
    ``r = c + G^T lam + A^T mu``, the dual is feasible when ``lam >= 0`` and
    ``r >= 0``, and the gap is ``|c.x + lam.h + mu.d|``.  ``lp`` may be an
    ``LPStack`` with ``sol`` holding one row per member; each value is then
    an array with one entry per member.  Overflow raises no warning: a
    residual that overflows is ``inf``, which the self-check refuses.
    """
    if sol.status != OPTIMAL:
        raise ValueError("kkt_residuals requires an optimal solution")
    x, lam, mu = sol.x, sol.ineq_duals, sol.eq_duals
    with np.errstate(over="ignore"):
        scale = 1.0 + np.maximum(
            _top(np.abs(np.concatenate([lp.h, lp.d], axis=-1))),
            _top(np.abs(np.concatenate([x, lp.c], axis=-1))),
        )
        slack = lp.h - _mv(lp.G, x)
        primal = _top(np.concatenate([-x, -slack, np.abs(_mv(lp.A, x) - lp.d)], axis=-1))
        r = lp.c + _mv(lp.G.swapaxes(-1, -2), lam) + _mv(lp.A.swapaxes(-1, -2), mu)
        dual = _top(np.concatenate([-lam, -r], axis=-1))
        gap = np.abs(_dot(lp.c, x) + _dot(lam, lp.h) + _dot(mu, lp.d))
    return {"primal": primal / scale, "dual": dual / scale, "gap": gap / scale}
