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
column held (see ``_Tableau``), and a step that reads a whole row reads it
at full width: ``np.matmul`` rounds a column subset of ``v @ M``
differently from the full product, so pricing and the dual refinement
multiply by full-width operands, and every pivot choice breaks ties by
column index.

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
so a member comes out of a stack bit for bit as it would alone.  A stack of
one pivots in a plain loop, which costs less per pivot.

``solve_stack`` solves each member under its own cost; ``solve`` is a stack
of one.  ``solve_many`` solves one set of rows under many costs, as the
support queries of one polytope do: phase 1 runs once, and each cost's
phase 2 starts at the basis where the previous cost's ended, which is still
primal feasible; the duals and the KKT self-check run once per chunk of
costs.  Every path shares one phase-1 and one phase-2 code path.
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
    (at least one), when no right-hand side is negative: their condensed
    tableaux then store ``n_vars + 1`` columns of ``m_ineq + m_eq + 1``
    rows."""
    return _per_chunk((m_ineq + m_eq + 1) * (n_vars + 1))


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


def _slot_of(cols, var):
    """The stored slot of nonbasic variable ``var`` in each member's ``cols``."""
    return (cols == np.asarray(var)[..., None]).argmax(axis=-1)


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
    k = np.flatnonzero(go)
    part = _part(st, k)
    _pivot_all(part, rows[go], slots[go])
    _put(st, k, part)


def _row_full(T, cols, row) -> np.ndarray:
    """Row ``row[k]`` of each member of ``T`` over all columns, zero at the
    basic ones."""
    k = np.arange(T.shape[0])
    out = np.zeros((T.shape[0], _width(T) + 1))
    out[k[:, None], cols] = T[k, row]
    return out


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
        if k.size == 1:  # the same scatter, cheaper on one member's rows
            rows[0][:, stored[0]] = part[0, :-1]
        else:
            rows[k, :, stored] = part[:, :-1].swapaxes(1, 2)
        part[:, -1] = (c - _vm(c[k, basis[at]], rows))[k, stored]


def _entering(r, cols, n_enter, bland, allowed=None):
    """The entering slot of one member with reduced costs ``r`` at its
    stored columns ``cols`` (``allowed`` being ``cols < n_enter``, or None
    if all are), or None at the optimum: the full tableau's choice over its
    row, zero at the basic columns.  Dantzig's rule takes the least of the
    first ``n_enter`` reduced costs, NaN first and ties to the first column;
    Bland's the first below ``-PIVOT_TOL``, else the first column; the
    choice stands unless its reduced cost is at least ``-PIVOT_TOL``.
    """
    if bland:
        key = np.where((cols < n_enter) & (r < -PIVOT_TOL), cols, n_enter)
        slot = key.argmin()
        if key[slot] < n_enter:
            return slot
        # no improving column: the first column, a NaN there going ahead
        first = np.flatnonzero(cols == 0)
        return first[0] if first.size and r[first[0]] != r[first[0]] else None
    values = r if allowed is None else np.where(allowed, r, np.inf)
    slot = values.argmin()
    least = values[slot]
    if least >= -PIVOT_TOL:
        return None
    if slot != values.size - 1 - values[::-1].argmin():  # tied, or NaN twice
        same = values == least if least == least else np.isnan(values)
        slot = np.where(same, cols, n_enter).argmin()
    return slot


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

    The entering column is ``_entering``'s, by Dantzig's rule until
    degenerate pivots pile up, then Bland's.  The leaving row has the least
    ratio, ties going to the row whose basic column comes first; its pivot
    element exceeds ``PIVOT_TOL`` by choice.
    """
    T, basis, cols = st
    size = T.shape[0] - 1 + _width(T)  # constraint rows plus columns
    r, stored, allowed = T[-1, :-1], cols[:-1], _allowed(T, cols, n_enter)
    for _ in range(step, _pivot_limit(T)):
        if degenerate > 5 * size:
            slot = _entering(r, stored, n_enter, True)
        else:  # _entering's Dantzig rule, its usual case inline
            values = r if allowed is None else np.where(allowed, r, np.inf)
            slot = values.argmin()
            if values[slot] >= -PIVOT_TOL:
                slot = None
            elif slot != r.size - 1 - values[::-1].argmin():
                slot = _entering(r, stored, n_enter, False, allowed)
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


def _pivot_loops(st, n_enter, members) -> dict:
    """``_pivot_loop`` on each member of the stacked state ``st``, for
    ``k`` in ``members``, in lockstep; returns ``{k: 'optimal', 'unbounded'
    or its NumericalFailure}``.

    One step picks every running member's entering and leaving columns with
    batched ``argmin``s, each member under its own rule and degenerate
    count, and pivots them all at once.  A member that ends drops out, left
    as its last step left it; the last one running finishes in
    ``_pivot_loop``, which costs less per pivot than a step of one.
    """
    if len(members) == 1:
        k = members[0]
        return {k: _pivot_loop(_part(st, k), n_enter)}
    out = {}
    members = np.asarray(members, dtype=int)
    size = st[0].shape[1] - 1 + _width(st[0])
    # the running members' state: st itself while all of them run
    run = st if members.size == st[0].shape[0] else _part(st, members)
    degenerate = np.zeros(members.size, dtype=int)
    step, limit = 0, _pivot_limit(st[0])
    allowed = _allowed(run[0], run[2], n_enter)
    while members.size > 1 and step < limit:
        T, B, cols = run
        k = np.arange(members.size)
        r, stored = T[:, -1, :-1], cols[:, :-1]
        values = r if allowed is None else np.where(allowed, r, np.inf)
        slot = values.argmin(axis=1)
        least = values[k, slot]
        optimal = least >= -PIVOT_TOL
        odd = degenerate > 5 * size
        tied = slot != values.shape[1] - 1 - values[:, ::-1].argmin(axis=1)
        if tied.any():  # the first column of the least
            same = values[tied] == least[tied, None]
            slot[tied] = np.where(same, stored[tied], n_enter).argmin(axis=1)
            odd |= tied & (least != least)
        if odd.any():  # Bland's rule, and NaN twice: as _pivot_loop has it
            for i in np.flatnonzero(odd):
                chosen = _entering(r[i], stored[i], n_enter, degenerate[i] > 5 * size,
                                   None if allowed is None else allowed[i])
                optimal[i] = chosen is None
                slot[i] = 0 if chosen is None else chosen
        col = T[k, :-1, slot]
        up = col > PIVOT_TOL
        going = up.any(axis=1) & ~optimal
        if not going.all():
            for i in np.flatnonzero(~going):
                out[members[i]] = OPTIMAL if optimal[i] else UNBOUNDED
            if run is not st:
                _put(st, members[~going], _part(run, ~going))
            run, members = _part(run, going), members[going]
            degenerate, slot, col, up = degenerate[going], slot[going], col[going], up[going]
            allowed = allowed if allowed is None else allowed[going]
            if not members.size:
                break
            T, B = run[0], run[1]
        ratios = np.divide(T[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=up)
        best = ratios.min(axis=1)
        if np.isnan(best).any():  # no tied row, where _pivot_loop's argmin raises
            raise ValueError("attempt to get argmin of an empty sequence")
        ties = up & (ratios <= (best + 1e-12)[:, None])
        leave = np.where(ties, B, _width(T)).argmin(axis=1)
        degenerate += best <= 1e-12
        _pivot_all(run, leave, slot)
        step += 1
    if members.size == 1:
        out[members[0]] = _pivot_loop(_part(run, 0), n_enter, degenerate[0], step)
    else:
        for k in members:
            out[k] = NumericalFailure("simplex iteration limit exceeded")
    if run is not st:
        _put(st, members, run)
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
    if len(members) == 1:
        return _activate_rows_of(_part(st, members[0]), first_slack, n_enter)
    T, basis, cols = st
    k = np.arange(T.shape[0])
    rows = (basis >= first_slack) & (basis < n_enter) & (np.abs(T[:, :-1, -1]) <= 1e-12)
    for at, row in _row_steps(rows, basis, members):
        a = _row_full(T, cols, row)[:, :n_enter]
        reduced = _row_full(T, cols, np.full(k.size, -1))[:, :n_enter]
        cand = (a < -PIVOT_TOL) & at[:, None]
        ratios = np.divide(reduced, -a, out=np.full(a.shape, np.inf), where=cand)
        best = ratios.argmin(axis=1)
        # the first candidate, where every candidate's ratio is infinite
        best = np.where(cand[k, best], best, cand.argmax(axis=1))
        go = cand[k, best] & (ratios[k, best] > 0.0)
        if go.any():
            T[k[go], row[go], -1] = 0.0  # round-off below the degeneracy threshold
            _pivot_some(st, go, row, _slot_of(cols, best))


def _activate_rows_of(st, first_slack, n_enter):
    """``_activate_degenerate_rows`` on one member's tableau ``st``."""
    T, basis, cols = st
    slack = (basis >= first_slack) & (basis < n_enter)
    rows = (slack & (np.abs(T[:-1, -1]) <= 1e-12)).nonzero()[0]
    for row in rows[basis[rows].argsort()]:
        a, reduced = np.zeros((2, _width(T) + 1))
        a[cols], reduced[cols] = T[row], T[-1]
        cand = (a[:n_enter] < -PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            continue
        ratios = reduced[cand] / -a[cand]
        best = int(ratios.argmin())
        if ratios[best] > 0.0:
            T[row, -1] = 0.0  # round-off below the degeneracy threshold
            _pivot(st, row, int(_slot_of(cols, cand[best])))


def _drive_out_artificials(st, n_std, members):
    """Pivot the artificial columns left in the phase-1 basis of each member
    of the stacked state ``st``, for ``k`` in ``members``, out of it.  A row
    where none can go is redundant: zero up to round-off, it is set to zero
    and never pivots.  The members step through their rows in lockstep, one
    row each per step.
    """
    if len(members) == 1:
        return _drive_out_of(_part(st, members[0]), n_std)
    T, basis, cols = st
    k = np.arange(T.shape[0])
    # a pivot on row i changes only basis[i], so the rows to visit are known
    for at, row in _row_steps(basis >= n_std, np.arange(basis.shape[1]), members):
        a = np.abs(_row_full(T, cols, row)[:, :n_std])
        j = a.argmax(axis=1)
        go = at & (a[k, j] > PIVOT_TOL)
        if go.any():
            _pivot_some(st, go, row, _slot_of(cols, j))
        done = k[at & ~go]
        T[done, row[done]] = np.where(cols[done] < n_std, 0.0, T[done, row[done]])


def _drive_out_of(st, n_std):
    """``_drive_out_artificials`` on one member's tableau ``st``."""
    T, basis, cols = st
    for i in (basis >= n_std).nonzero()[0]:
        row = np.zeros(_width(T) + 1)
        row[cols] = np.abs(T[i])
        j = int(np.argmax(row[:n_std]))
        if row[j] > PIVOT_TOL:
            _pivot(st, i, int(_slot_of(cols, j)))
        else:
            T[i, cols < n_std] = 0.0


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


def _end_bases(tab: _Tableau) -> tuple:
    """What ``_solutions`` reads of each member's end basis, copied."""
    return tab.T.copy(), tab.basis.copy(), tab.cols.copy()


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


def _solutions(stack: LPStack, tab: _Tableau, ends: tuple, out: list) -> list:
    """``out`` with each None entry, a member that ended optimal, replaced by
    its LPSolution or by the NumericalFailure of the KKT self-check.

    ``ends`` is ``_end_bases`` of the members, taken from ``tab``, or the
    tableau's own arrays when it pivots no more; member ``k`` minimizes
    ``stack.c[k]`` over its rows in ``stack``, or over the rows of a stack of
    one shared by all.  The refinement runs a chunk of members at a time.
    """
    T, basis, cols = ends
    S, m = basis.shape
    m_ineq, n = stack.G.shape[1:]
    n_std = n + m_ineq
    costs, width = stack.c, _width(T)
    start, row_scale = tab.start, tab.row_scale
    if len(start) != S:  # a stack of one's rows, under many costs
        start, row_scale = start.repeat(S, axis=0), row_scale.repeat(S, axis=0)
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
        G, A = (stack.G, stack.A) if len(stack.G) == 1 else (stack.G[at], stack.A[at])
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
    ``STACK_BYTES`` (``stack_members``).
    """
    S, m_ineq, n = stack.G.shape
    tab = _phase_one(stack)
    out = _phase_two(tab, stack, stack.c)
    optimal = [k for k in range(S) if out[k] is None]
    _activate_degenerate_rows(tab.state, n, n + m_ineq, optimal)
    return _solutions(stack, tab, tab.state, out)


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
    if not np.isfinite(costs).all():
        raise ValueError("non-finite value (NaN or inf) in problem data")
    one = LPStack.of(lp)
    tab = _phase_one(one)
    if tab.ended[0] is not None:
        _raised(tab.ended[0])
        return [LPSolution(status=INFEASIBLE) for _ in costs]
    chunk = _per_chunk(tab.T[0].size)  # end tableaux kept per chunk
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
    """Scaled primal and dual feasibility residuals and duality gap: what
    the self-check gates on.

    Only meaningful for an optimal solution.  With reduced costs
    ``r = c + G^T lam + A^T mu``, the dual is feasible when ``lam >= 0`` and
    ``r >= 0``, and the gap is ``|c.x + lam.h + mu.d|``.  ``lp`` may be an
    ``LPStack`` with ``sol`` holding one row per member; each value is then
    an array with one entry per member.  Its rows may be a stack of one,
    shared by all members.
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
    return {"primal": primal / scale, "dual": dual / scale, "gap": gap / scale}

