"""Two-phase simplex for small linear programs, with dual extraction.

Every program has one form, ``min c.x`` subject to ``G x <= h``, ``A x = d``
and ``x >= 0``; callers pose free and boxed variables in it themselves.
Every program this package builds has at most a few hundred rows; the
bounding programs have one column per vertex class, up to a few thousand.
A tableau is fast enough at that shape and carries its own duals: its
reduced costs are updated by every pivot, and the columns that formed the
start basis hold the basis inverse, so a row's dual is minus the reduced
cost of its start column, refined once against the program's own rows.
Rows far from unit scale are rescaled by powers of two first.  Pricing is
Dantzig's rule, switching to Bland's rule after too many degenerate pivots
to rule out cycling.

The tableau is condensed, in the dictionary form of the simplex method
(Chvátal, *Linear Programming*, 1983, ch. 2-3): a basic column is a unit
vector, so the rows are stored over the nonbasic columns and the right-hand
side only, and a pivot is a Jordan exchange, the leaving column taking the
entering column's slot.  A program with far more rows than columns, such as
a facet program of a template with many facets, updates a few columns per
pivot instead of all.  Every entry takes the full tableau's float
operations and equals its entry, up to the sign of a zero that a basic
column held (see ``_Tableau``).  Only pricing and the dual refinement
multiply at full width, since ``np.matmul`` rounds a column subset of
``v @ M`` differently from the full product.  Every pivot choice compares
the stored columns and breaks ties by column index (``_first``), so it is
the full tableau's choice over its whole row.

The programs whose duals are read (``solve_stack``, hence ``solve``) get
one more pass: among the optimal duals, an active inequality row gets a
nonzero multiplier where one exists (see ``_activate_degenerate_rows``).
The bounding program's multipliers are its duals, and a zero multiplier on
an active facet hides how the bound reacts to moving that facet.  The pass
changes only the multipliers, so ``solve_many``, whose callers read only
``x``, skips it and returns plain basis duals.

The engine works on stacks (``LPStack``): programs of one shape, such as
the facet programs of one verification pass, solved together.  Row
scaling, the tableau, pricing, the dual refinement and the KKT self-check
run once over the stacked arrays, and the members pivot in lockstep, a
member that ends dropping out untouched.  Every step is elementwise the one
a member takes alone, and a stacked product is ``np.matmul`` over operands
laid out as the member's own, which rounds as ``@`` on that member alone,
so a member comes out of a stack bit for bit as it would alone.  A lone
member pivots in a plain loop, which costs less per pivot.

``solve_stack`` solves each member under its own cost; ``solve`` is a stack
of one.  ``solve_many`` solves one set of rows under many costs, as the
support queries of one polytope do: phase 1 runs once, and its tableau is
repeated for a chunk of costs, which pivot in lockstep as a stack over the
shared rows, so each cost's ``x`` is the one ``solve`` returns for it.
Every path shares one phase-1 and one phase-2 code path.

Both also restart warm, when a caller passes the ``Restart`` that an
earlier solve of the same costs and rows at other right-hand sides filled
with its end tableaux.  Only the right-hand side column of an end tableau
depends on the right-hand sides: it is recomputed from the basis inverse,
the basis stays dual feasible, and dual simplex pivots in lockstep
(``_dual_loops``) make it primal feasible again, the pivots that a cold
solve spends on phase 1 and phase 2 saved where the right-hand sides moved
little.  A stack in which any member's restart fails is solved cold, so a
restart decides no emptiness and adds no failure; its answers are optimal
ones, though not bit for bit the cold solve's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-10
_NO_COLUMN = np.iinfo(np.intp).max  # above every column, for ``_first``

# Largest stacked tableau, in bytes, that a caller builds: programs whose
# condensed tableaux together would exceed it go in several stacks, and a
# program whose tableau alone exceeds it in a stack of one.  The full-width
# rows of pricing and the basis inverses of the dual refinement are built a
# chunk of members at a time within the same size.
STACK_BYTES = 256 * 1024


class NumericalFailure(RuntimeError):
    """The solver could not certify a result at its tolerances."""


@dataclass(eq=False)
class LPProblem:
    """``min c.x`` subject to ``G x <= h``, ``A x = d`` and ``x >= 0``.

    The one form every program is posed in: a free variable is the
    difference of two adjacent nonnegative columns, and a boxed one is
    shifted to its lower bound with its upper bound as a row of ``G``.
    Either row block may be omitted.  Every entry must be finite: a NaN or
    an infinity raises ValueError.
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
    (at least one), when no right-hand side is negative."""
    return max(1, STACK_BYTES // tableau_bytes(n_vars, m_ineq, m_eq))


def tableau_bytes(n_vars: int, m_ineq: int, m_eq: int, flipped: int = 0) -> int:
    """The bytes of one program's condensed tableau when ``flipped`` of its
    inequality rows have a negative right-hand side: ``n_vars + flipped +
    1`` columns of ``m_ineq + m_eq + 1`` rows."""
    return 8 * (m_ineq + m_eq + 1) * (n_vars + flipped + 1)


def _per_chunk(cells: int) -> int:
    """How many members' arrays of ``cells`` floats each fit in
    ``STACK_BYTES`` (at least one)."""
    return max(1, STACK_BYTES // (8 * max(1, cells)))


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


def _price(st, cost):
    """Set the reduced costs of each member ``k`` to ``cost[k]``, which has
    one more entry, 0, for the right-hand side, at its basis.  The product
    runs over the constraint rows at full width, as the full tableau's does,
    its basic columns left zero since only the stored ones are read off."""
    T, basis, cols = st
    S, m = basis.shape
    width = _width(T) + 1
    step = _per_chunk(m * width)
    for lo in range(0, S, step):
        at = slice(lo, lo + step)
        part, c, stored = T[at], cost[at], cols[at]
        k = np.arange(c.shape[0])[:, None]
        rows = np.zeros((k.size, m, width))
        rows[k, :, stored] = part[:, :-1].swapaxes(1, 2)
        part[:, -1] = (c - _vm(c[k, basis[at]], rows))[k, stored]


def _first(marked, cols):
    """Where the least column of ``cols`` that ``marked`` marks sits (0 if none)."""
    return np.where(marked, cols, _NO_COLUMN).argmin(axis=-1)


def _least(values):
    """Where ``values`` is least over the last axis, or NaN if its least is:
    with ``_first``, the choice among tied values."""
    least = values.min(axis=-1, keepdims=True)
    return np.where(least == least, values == least, np.isnan(values))


def _entering(r, cols, n_enter):
    """Bland's entering slot of one member with reduced costs ``r`` at its
    stored columns ``cols``, or None at the optimum: the first of the first
    ``n_enter`` columns below ``-PIVOT_TOL``, else the first column if its
    reduced cost is NaN."""
    key = np.where((cols < n_enter) & (r < -PIVOT_TOL), cols, n_enter)
    slot = key.argmin()
    if key[slot] < n_enter:
        return slot
    # no improving column: the first column, a NaN there going ahead
    first = np.flatnonzero(cols == 0)
    return first[0] if first.size and r[first[0]] != r[first[0]] else None


def _allowed(T, cols, n_enter):
    """``cols < n_enter`` over each member's stored columns, or None where
    every column of ``T`` may enter; fixed for a loop, since an artificial
    column neither enters nor leaves in phase 2."""
    return None if n_enter >= _width(T) else cols[..., :-1] < n_enter


def _pivot_limit(T) -> int:
    """The pivots a loop on one member of ``T`` may make."""
    return 1000 + 50 * (T.shape[-2] - 1 + _width(T))  # rows plus columns


def _pivot_loop(st, n_enter, degenerate=0, step=0):
    """Run simplex pivots on one member's tableau ``st`` in place, letting
    only its first ``n_enter`` columns enter; returns 'optimal', 'unbounded'
    or the NumericalFailure that ended it.  ``degenerate`` and ``step``
    carry on a loop begun in ``_pivot_loops``.

    The entering column has the least reduced cost (Dantzig's rule, ties by
    ``_least``) until degenerate pivots pile up, then ``_entering``'s.  The
    leaving row has the least ratio, ties going to the row whose basic
    column comes first; its pivot element exceeds ``PIVOT_TOL`` by choice.
    """
    T, basis, cols = st
    size = T.shape[0] - 1 + _width(T)  # constraint rows plus columns
    r, stored, allowed = T[-1, :-1], cols[:-1], _allowed(T, cols, n_enter)
    for _ in range(step, _pivot_limit(T)):
        if degenerate > 5 * size:
            slot = _entering(r, stored, n_enter)
        else:
            values = r if allowed is None else np.where(allowed, r, np.inf)
            slot = values.argmin()
            if values[slot] >= -PIVOT_TOL:
                slot = None
            elif slot != r.size - 1 - values[::-1].argmin():  # tied, or NaN twice
                slot = _first(_least(values), stored)
        if slot is None:
            return OPTIMAL
        col = T[:-1, slot]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[basis[ties].argmin()])
        degenerate += best <= 1e-12
        _pivot(st, leave, slot)
    return NumericalFailure("simplex iteration limit exceeded")


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


def _pivot_loops(st, n_enter, members) -> dict:
    """``_pivot_loop`` on each member of the stacked state ``st``, for
    ``k`` in ``members``, in lockstep; returns ``{k: 'optimal', 'unbounded'
    or its NumericalFailure}``.

    One step picks every running member's entering and leaving columns with
    batched ``argmin``s, each member under its own rule and degenerate
    count, and pivots them all at once.  A member that ends drops out, left
    as its last step left it, and the others go on in a copy (``_Running``).
    A lone member, or the last one running, pivots in ``_pivot_loop``, which
    costs less per pivot than a step of one: stepped here instead, a lone
    member took the ``bound-small`` benchmark +36% and ``synth`` +59% in
    wall time.
    """
    if len(members) == 1:
        return {members[0]: _pivot_loop(_part(st, members[0]), n_enter)}
    out = {}
    size = st[0].shape[1] - 1 + _width(st[0])
    run = _Running(st, members)
    degenerate = np.zeros(run.n, dtype=int)
    step, limit = 0, _pivot_limit(st[0])
    allowed = _allowed(run.state[0], run.state[2], n_enter)
    while run.n > 1 and step < limit:
        T, B, cols = run.state
        k = np.arange(run.n)
        r, stored = T[:, -1, :-1], cols[:, :-1]
        values = r if allowed is None else np.where(allowed, r, np.inf)
        slot = values.argmin(axis=1)
        optimal = values[k, slot] >= -PIVOT_TOL
        tied = slot != values.shape[1] - 1 - values[:, ::-1].argmin(axis=1)
        if tied.any():
            slot[tied] = _first(_least(values[tied]), stored[tied])
        for i in np.flatnonzero(degenerate > 5 * size):  # as _pivot_loop has it
            chosen = _entering(r[i], stored[i], n_enter)
            optimal[i] = chosen is None
            slot[i] = 0 if chosen is None else chosen
        col = T[k, :-1, slot]
        up = col > PIVOT_TOL
        going = up.any(axis=1) & ~optimal
        if not going.all():
            for i in np.flatnonzero(~going):
                out[run.members[i]] = OPTIMAL if optimal[i] else UNBOUNDED
            run.keep(going)
            degenerate, slot, col, up = degenerate[going], slot[going], col[going], up[going]
            allowed = allowed if allowed is None else allowed[going]
            if not run.n:
                break
            T, B = run.state[:2]
        ratios = np.divide(T[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=up)
        best = ratios.min(axis=1)
        if np.isnan(best).any():  # no tied row, where _pivot_loop's argmin raises
            raise ValueError("attempt to get argmin of an empty sequence")
        ties = up & (ratios <= (best + 1e-12)[:, None])
        leave = _first(ties, B)
        degenerate += best <= 1e-12
        _pivot_all(run.state, leave, slot)
        step += 1
    if run.n == 1:
        out[run.members[0]] = _pivot_loop(_part(run.state, 0), n_enter, degenerate[0], step)
    else:
        for k in run.members:
            out[k] = NumericalFailure("simplex iteration limit exceeded")
    run.restore()
    return out


def _dual_loops(st, n_enter, members) -> dict:
    """Dual simplex pivots on each member of the stacked state ``st``, for
    ``k`` in ``members``, in lockstep, from a basis whose reduced costs are
    nonnegative; returns ``{k: 'optimal', 'infeasible' or its
    NumericalFailure}``.  'optimal' means every basic value is at least
    ``-FEAS_TOL``; 'infeasible' that a row below it has no entering column.

    The leaving row has the most negative value relative to the length of
    its row over the stored columns, ties going to the row whose basic
    column comes first: on the second pass of a 48-facet 8-D synthesis this
    normalized pricing took 42 pivots per facet program where the most
    negative value alone took 70.  The entering column, one of the first
    ``n_enter``, has the least ratio ``r_j / |T[row, j]|`` over the entries
    ``T[row, j] < -PIVOT_TOL`` (the ratio test of
    ``_activate_degenerate_rows``), ties within 1e-12 going to the first
    column, so the reduced costs stay nonnegative.  After too many
    degenerate pivots the leaving row is the one below zero whose basic
    column comes first (Bland's rule), and the pivot limit is
    ``_pivot_loop``'s.  A member that ends drops out, as in ``_pivot_loops``.
    """
    if st[0].shape[1] == 1:  # no rows
        return dict.fromkeys(members, OPTIMAL)
    out = {}
    size = st[0].shape[1] - 1 + _width(st[0])
    run = _Running(st, members)
    degenerate = np.zeros(run.n, dtype=int)
    step, limit = 0, _pivot_limit(st[0])
    allowed = _allowed(run.state[0], run.state[2], n_enter)
    while run.n and step < limit:
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
        if allowed is not None:
            cand &= allowed
        ratios = np.divide(T[:, -1, :-1], -a, out=np.full(a.shape, np.inf), where=cand)
        best = ratios.min(axis=1)
        ties = cand & (ratios <= (best + 1e-12)[:, None])
        slot = _first(ties, cols[:, :-1])
        feasible = ~low.any(axis=1)
        stuck = ~cand.any(axis=1)
        broken = np.isnan(best) | np.isnan(value).any(axis=1)
        going = ~(feasible | stuck | broken)
        if not going.all():
            for i in np.flatnonzero(~going):
                out[run.members[i]] = (
                    NumericalFailure("dual simplex met a NaN") if broken[i]
                    else OPTIMAL if feasible[i] else INFEASIBLE
                )
            run.keep(going)
            degenerate, row, slot, best = degenerate[going], row[going], slot[going], best[going]
            allowed = allowed if allowed is None else allowed[going]
            if not run.n:
                break
        degenerate += best <= 1e-12
        _pivot_all(run.state, row, slot)
        step += 1
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


def _activate_degenerate_rows(st, first_slack, n_enter, members):
    """Give weakly active inequality rows a multiplier, keeping ``x`` optimal,
    in each member of the stacked state ``st``, for ``k`` in ``members``.

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
    T, basis, cols = st
    k = np.arange(T.shape[0])
    rows = (basis >= first_slack) & (basis < n_enter) & (np.abs(T[:, :-1, -1]) <= 1e-12)
    for at, row in _row_steps(rows, basis, members):
        a = T[k, row, :-1]
        cand = (a < -PIVOT_TOL) & (cols[:, :-1] < n_enter) & at[:, None]
        ratios = np.divide(T[:, -1, :-1], -a, out=np.full(a.shape, np.inf), where=cand)
        # the least ratio, NaN first, and the first candidate if all are infinite
        tied = cand & _least(ratios)
        go = tied.any(axis=1) & (ratios.min(axis=1) > 0.0)
        if go.any():
            T[k[go], row[go], -1] = 0.0  # round-off below the degeneracy threshold
            _pivot_some(st, go, row, _first(tied, cols[:, :-1]))


def _drive_out_artificials(st, n_std, members):
    """Pivot the artificial columns left in the phase-1 basis of each member
    of the stacked state ``st``, for ``k`` in ``members``, out of it.  A row
    where none can go is redundant: zero up to round-off, it is set to zero
    and never pivots.  The members step through their rows in lockstep, one
    row each per step.
    """
    T, basis, cols = st
    k = np.arange(T.shape[0])
    # a pivot on row i changes only basis[i], so the rows to visit are known
    for at, row in _row_steps(basis >= n_std, np.arange(basis.shape[1]), members):
        a = np.where(cols[:, :-1] < n_std, np.abs(T[k, row, :-1]), 0.0)
        largest = a.max(axis=1)
        go = at & (largest > PIVOT_TOL)
        if go.any():
            _pivot_some(st, go, row, _first(a == largest[:, None], cols[:, :-1]))
        done = k[at & ~go]
        T[done, row[done]] = np.where(cols[done] < n_std, 0.0, T[done, row[done]])


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
    costs, in condensed form.

    Member ``k`` has ``m`` rows over ``W`` columns: structural, slack and
    phase-1 artificial.  ``basis[k]`` lists its basic column per row, and
    ``cols[k]`` the others, then ``W`` for the right-hand side.  ``T[k]``
    holds the rows over ``cols[k]`` as the full tableau holds them, then
    those columns' reduced costs and minus the objective.  ``start[k, i]``,
    row ``i``'s basic column at the start, is its column of the basis
    inverse, and its reduced cost is minus the row's dual, mapped back to
    the program's row by ``row_scale[k, i]``.  ``ended[k]`` is None while
    member ``k`` has a feasible basis, else its outcome: an infeasible
    LPSolution or the NumericalFailure that ended phase 1.

    A basic column is not stored: off its own row it is taken as ``+0.0``,
    with a reduced cost of ``+0.0``, and a leaving column comes out of that
    (see ``_pivot``).  The full tableau can hold a ``-0.0`` there instead: in
    phase 1, a row flipped for its negative right-hand side holds one in the
    slack columns of the unflipped rows.  Such an entry differs from the full
    tableau's only in the sign of a zero, and no pivot choice reads that
    sign: the entering, leaving, degenerate-row and drive-out choices compare
    entries with tolerances.  So every pivot is the full tableau's, and the
    results equal its results bit for bit on every program that
    ``tests/test_condensed.py`` compares with the dense engine.
    """

    T: np.ndarray
    basis: np.ndarray
    cols: np.ndarray
    start: np.ndarray
    row_scale: np.ndarray
    ended: list

    @property
    def state(self) -> tuple:
        return self.T, self.basis, self.cols


def _phase_one(stack: LPStack) -> _Tableau:
    """Feasible starts for the rows of every member of ``stack``."""
    S, m_ineq, n = stack.G.shape
    m = m_ineq + stack.A.shape[1]
    n_std = n + m_ineq

    # Standard form rows: [ineq | eq], slack column per inequality row.
    A0 = np.concatenate([stack.G, stack.A], axis=1)
    b0 = np.concatenate([stack.h, stack.d], axis=1)

    # Rows more than a factor 64 off unit scale are scaled by a power of two,
    # which is exact, so that the absolute tolerances below mean the same in
    # every row; rows within that band are left exactly as posed.
    size = np.maximum(np.abs(A0).max(axis=2, initial=0.0), np.abs(b0))
    far = (size > 0.0) & ((size < 2.0**-6) | (size > 2.0**6))
    row_scale = np.ones(b0.shape)
    if far.any():
        shift = np.log2(np.where(far, size, 1.0)).round().clip(-1000, 1000)
        row_scale = np.ldexp(1.0, -shift.astype(int))
        A0 *= row_scale[:, :, None]
        b0 *= row_scale
        size = np.maximum(np.abs(A0).max(axis=2, initial=0.0), np.abs(b0))

    flip = b0 < 0
    flips = flip.any()
    if flips:
        A0[flip] *= -1.0
        b0[flip] *= -1.0
        row_scale[flip] *= -1.0

    # Initial basis: unflipped slacks; artificial columns everywhere else,
    # numbered in row order.  The members share the tableau's shape, so they
    # need equally many.  Stored are the structural columns and the flipped
    # rows' slacks: -1 in their own row, -0.0 in the other flipped rows.
    art = flip.copy()
    art[:, m_ineq:] = True
    counts = art.sum(axis=1)
    n_art = int(counts[0])
    if S > 1 and (counts != n_art).any():
        raise ValueError("stack members need equally many artificial columns")
    basis = np.where(art, n_std - 1 + art.cumsum(axis=1), n + np.arange(m))
    W, n_flip = n_std + n_art, n_art - (m - m_ineq)
    T = np.zeros((S, m + 1, n + n_flip + 1))
    T[:, :m, :n] = A0
    T[:, :m, -1] = b0
    cols = np.empty((S, n + n_flip + 1), dtype=int)
    cols[:, :n], cols[:, -1] = np.arange(n), W
    if flips:
        flipped = np.nonzero(flip[:, :m_ineq])[1].reshape(S, n_flip)
        cols[:, n:-1] = n + flipped
        T[:, :m, n:-1] = np.where(flip[:, :, None], -0.0, 0.0)
        T[np.arange(S)[:, None], flipped, n + np.arange(n_flip)] = -1.0
    tab = _Tableau(T, basis, cols, basis.copy(), row_scale, [None] * S)

    if n_art:
        # the largest entry of the rows, the slacks' unit entries included
        scale = 1.0 + np.maximum(size.max(axis=1, initial=0.0), min(m_ineq, 1))
        cost1 = np.zeros((S, W + 1))
        cost1[:, n_std:W] = 1.0
        _price(tab.state, cost1)
        ended = tab.ended
        for k, res in _pivot_loops(tab.state, W, range(S)).items():
            if res == UNBOUNDED:
                res = NumericalFailure("phase-1 subproblem reported unbounded")
            if isinstance(res, NumericalFailure):
                ended[k] = res
        art_level = _dot(cost1[0, basis], T[:, :-1, -1])
        for k in range(S):
            if ended[k] is None and art_level[k] > FEAS_TOL * scale[k]:
                ended[k] = LPSolution(status=INFEASIBLE)
        _drive_out_artificials(tab.state, n_std, [k for k in range(S) if ended[k] is None])
        # the ended never pivot again; zeros keep the stacked steps finite
        out = [k for k in range(S) if ended[k] is not None]
        if out:
            T[out] = 0.0
    return tab


def _phase_two(tab: _Tableau, stack: LPStack, costs: np.ndarray) -> list:
    """Minimize each member's row of ``costs`` over its rows, from its basis
    in the tableau, which is left at the end basis.  Artificial columns
    never enter.

    Returns one outcome per member: None where it ended optimal, its
    solution to be read off the tableau (``_solutions``) at plain basis
    duals, else an unbounded LPSolution or the NumericalFailure that ended
    it; a member that phase 1 ended keeps that outcome.  The members pivot
    in lockstep.
    """
    S, m_ineq, n = stack.G.shape
    n_std = n + m_ineq
    out = list(tab.ended)
    cost = np.zeros((S, _width(tab.T) + 1))
    cost[:, :n] = costs
    _price(tab.state, cost)
    running = [k for k in range(S) if out[k] is None]
    for k, res in _pivot_loops(tab.state, n_std, running).items():
        if isinstance(res, NumericalFailure):
            out[k] = res
            tab.T[k] = 0.0  # never pivots again; keeps the stacked steps finite
        elif res == UNBOUNDED:
            out[k] = LPSolution(status=UNBOUNDED)
    return out


def _restart(tab: _Tableau, stack: LPStack) -> list:
    """Minimize each member of ``stack`` from its end tableau in ``tab``, an
    optimal basis that a solve of the same costs and rows left at other
    right-hand sides; the tableau is left at the new end basis.

    Only the right-hand side column changes: it becomes ``B^-1 b`` for the
    stack's scaled right-hand sides ``b``, with ``B^-1`` read off the start
    columns, and the objective entry follows.  The reduced costs stay, so
    the basis stays dual feasible, and dual simplex pivots (``_dual_loops``)
    restore primal feasibility.  Returns one outcome per member as
    ``_phase_two`` does: None where it ended optimal, else an infeasible
    LPSolution (its dual loop found no entering column, or a basic
    artificial column is off zero) or the NumericalFailure that ended it.
    A phase-1 rule decides neither: the callers solve such a member again
    from phase 1.
    """
    T, basis, cols = tab.state
    S, m_ineq, n = stack.G.shape
    n_std = n + m_ineq
    b = np.concatenate([stack.h, stack.d], axis=1) * tab.row_scale
    step = _per_chunk(basis.shape[1] ** 2)
    for lo in range(0, S, step):
        at = slice(lo, lo + step)
        inverse, _ = _start_columns(T[at], basis[at], cols[at], tab.start[at])
        T[at, :-1, -1] = _vm(b[at], inverse)
    cost = np.zeros((S, _width(T) + 1))
    cost[:, :n] = stack.c
    T[:, -1, -1] = -_dot(cost[np.arange(S)[:, None], basis], T[:, :-1, -1])
    out = [None] * S
    # a basic artificial column sits in a row of zeros, where no pivot moves it
    stray = ((basis >= n_std) & (np.abs(T[:, :-1, -1]) > FEAS_TOL)).any(axis=1)
    for k in np.flatnonzero(stray):
        out[k] = LPSolution(status=INFEASIBLE)
    running = [k for k in range(S) if out[k] is None]
    for k, res in _dual_loops(tab.state, n_std, running).items():
        if res != OPTIMAL:
            out[k] = res if isinstance(res, NumericalFailure) else LPSolution(status=res)
    return out


def _start_columns(T, basis, cols, start) -> tuple:
    """Each member's start columns of the full tableau, the basis inverse,
    listed as rows, and their reduced costs (0 where basic)."""
    k = np.arange(len(T))[:, None]
    slots = np.full((len(T), _width(T) + 1), -1)
    slots[k, cols] = np.arange(cols.shape[1])
    slot = slots[k, start]
    inverse = (start[:, :, None] == basis[:, None, :]).astype(float)
    kk, ii = np.nonzero(slot >= 0)
    inverse[kk, ii] = T[kk, :-1, slot[kk, ii]]
    return inverse, np.where(slot >= 0, T[k, -1, slot], 0.0)


def _solutions(stack: LPStack, tab: _Tableau, out: list) -> list:
    """``out`` with each None entry, a member that ended optimal, replaced by
    its LPSolution or by the NumericalFailure of the KKT self-check.

    Member ``k`` minimizes ``stack.c[k]`` over its rows in ``stack``, at its
    end basis in ``tab``.  The refinement runs a chunk of members at a time.
    """
    T, basis, cols = tab.state
    S, m = basis.shape
    m_ineq, n = stack.G.shape[1:]
    n_std = n + m_ineq
    costs, width = stack.c, _width(T)
    start, row_scale = tab.start, tab.row_scale
    members = np.arange(S)[:, None]
    x = np.zeros((S, width))
    x[members, basis] = T[:, :-1, -1]

    # The multipliers [lam; mu] come off the reduced costs of the start
    # columns.  Pivots on small elements leave round-off in T, which a bound
    # reads through the multipliers, so one refinement step follows: the
    # reduced costs of the basic columns, recomputed from the rows of the
    # program, should be zero, and the basis inverse maps them to the
    # correction.  ``_start_columns`` lists the start columns as rows; read
    # transposed, it is laid out as NumPy lays out ``T[:-1, start]`` of one
    # member's full tableau ``T``, so it rounds the same.
    w = np.empty((S, m))
    step = _per_chunk(m * (m + T.shape[2]))
    for lo in range(0, S, step):
        at = slice(lo, lo + step)
        inverse, reduced = _start_columns(T[at], basis[at], cols[at], start[at])
        k, scale = np.arange(len(inverse))[:, None], row_scale[at]
        G, A = stack.G[at], stack.A[at]
        dual = reduced * scale
        r = np.zeros((k.size, width))
        r[:, :n] = (
            costs[at]
            + _mv(G.swapaxes(1, 2), dual[:, :m_ineq])
            + _mv(A.swapaxes(1, 2), dual[:, m_ineq:])
        )
        r[:, n:n_std] = dual[:, :m_ineq] / np.abs(scale[:, :m_ineq])
        w[at] = dual - _vm(r[k, basis[at]], inverse.swapaxes(1, 2)) * scale
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


@dataclass(eq=False)
class Restart:
    """End tableaux that one solve leaves for the next solve of the same
    costs and rows at other right-hand sides: a warm restart.

    A caller whose programs keep their costs and matrices while their
    right-hand sides move creates one and passes it to each solve.  ``tabs``
    holds the last solve's end tableaux, one per stack it ran, or None before
    the first solve and after one where a member did not end optimal.
    ``warm`` says whether the last solve restarted from them; a solve whose
    restart failed on any member ran cold, from phase 1.
    """

    tabs: list = None
    warm: bool = False


def _restarted(tab: _Tableau, stack: LPStack, duals: bool):
    """``stack``'s outcomes restarted from ``tab`` (``_restart``), with
    ``solve_stack``'s multipliers when ``duals`` is set, else
    ``solve_many``'s; None unless every member ended optimal and passed the
    KKT self-check."""
    S, m_ineq, n = stack.G.shape
    out = _restart(tab, stack)
    if any(res is not None for res in out):
        return None
    if duals:
        _activate_degenerate_rows(tab.state, n, n + m_ineq, list(range(S)))
    out = _solutions(stack, tab, out)
    return None if any(isinstance(res, NumericalFailure) for res in out) else out


def _kept(tabs: list, outcomes: list):
    """``tabs``, if every outcome is an optimal LPSolution, else None."""
    optimal = all(isinstance(res, LPSolution) and res.status == OPTIMAL for res in outcomes)
    return tabs if optimal else None


def solve_stack(stack: LPStack, restart: Restart = None, rows: LPStack = None) -> list:
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
    ``STACK_BYTES`` (``stack_members``).

    With a ``restart`` that holds the end tableaux of an earlier solve, the
    members restart from them (``_restart``) on ``rows``: the same programs
    posed on the rows those tableaux were built on, with the right-hand
    sides that make them the programs of ``stack``.  The outcomes are then
    ``rows``' solutions, past the degenerate-row pass, the refinement and
    the KKT self-check; if any member's restart fails, the whole stack is
    solved cold, as without a restart.  Either way ``restart`` keeps the
    end tableaux.
    """
    S, m_ineq, n = stack.G.shape
    if restart is not None:
        restart.warm = False
        if restart.tabs is not None and rows is not None:
            out = _restarted(restart.tabs[0], rows, duals=True)
            if out is not None:
                restart.warm = True
                return out
    tab = _phase_one(stack)
    out = _phase_two(tab, stack, stack.c)
    optimal = [k for k in range(S) if out[k] is None]
    _activate_degenerate_rows(tab.state, n, n + m_ineq, optimal)
    out = _solutions(stack, tab, out)
    if restart is not None:
        restart.tabs = _kept([tab], out)
    return out


def solve_many(lp: LPProblem, costs, restart: Restart = None) -> list:
    """Solve the rows of ``lp`` once per cost vector in ``costs``, for the
    optimal ``x`` of each.

    Only the rows of ``lp`` are used, not its cost.  Phase 1 runs once; its
    feasible tableau is repeated for a chunk of costs, as many as tableaux
    fit in ``STACK_BYTES``, and the chunk is solved as a stack over views of
    the shared rows.  So each cost's status and ``x`` are ``solve``'s for
    that cost, bit for bit, whatever the order of the costs.  The duals are
    the plain basis duals: no degenerate-row pass, whose pivots would change
    only the multipliers.  The first cost, in order, to fail numerically
    raises its NumericalFailure.

    With a ``restart`` that holds the end tableaux of an earlier sweep of
    the same costs over rows with the same ``G`` and ``A``, each cost
    restarts from its own at this ``h`` and ``d`` (``_restart``), past the
    refinement and the KKT self-check; if any cost's restart fails, the
    sweep runs cold, as without a restart.  Either way ``restart`` keeps the
    end tableaux.
    """
    costs = np.asarray(costs, dtype=float).reshape(-1, lp.n_vars)
    if not np.isfinite(costs).all():
        raise ValueError("non-finite value (NaN or inf) in problem data")
    one = LPStack.of(lp)

    def rows(lo, S):
        """The stack of costs ``lo`` to ``lo + S`` over views of the rows."""
        return LPStack(costs[lo : lo + S], *(np.broadcast_to(a, (S,) + a.shape[1:]) for a in
                                             (one.G, one.h, one.A, one.d)))

    if restart is not None:
        restart.warm = False
        if restart.tabs is not None:
            out, lo = [], 0
            for part in restart.tabs:
                S = len(part.T)
                res = _restarted(part, rows(lo, S), duals=False)
                if res is None:
                    break
                out += res
                lo += S
            if lo == len(costs):
                restart.warm = True
                return out
            restart.tabs = None
    tab = _phase_one(one)
    if tab.ended[0] is not None:
        _raised(tab.ended[0])
        return [LPSolution(status=INFEASIBLE) for _ in costs]
    chunk = _per_chunk(tab.T[0].size)
    out, parts = [], []
    for lo in range(0, len(costs), chunk):
        c = costs[lo : lo + chunk]
        S = len(c)
        part = _Tableau(*(a.repeat(S, axis=0) for a in
                          (tab.T, tab.basis, tab.cols, tab.start, tab.row_scale)), [None] * S)
        stack = rows(lo, S)
        out += map(_raised, _solutions(stack, part, _phase_two(part, stack, c)))
        parts.append(part)
    if restart is not None:
        restart.tabs = _kept(parts, out)
    return out


def solve(lp: LPProblem) -> LPSolution:
    """Solve ``lp``, with the multipliers of ``solve_stack``; deterministic
    for a fixed input.

    Raises NumericalFailure instead of ever returning an uncertified answer.
    """
    (outcome,) = solve_stack(LPStack.of(lp))
    return _raised(outcome)


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

