"""Verification and synthesis of polytopic invariant sets for polynomial ODEs.

A polytope with fixed facet normals is invariant when, on every facet, the
flow points inward; each facet check is one certified lower-bound program.
A verification pass gathers all of them into stacks of a bounded size
(``facet_programs``), from arrays that depend only on the field, the
rectangle and the normals (``facet_lift``, built once per synthesis), and
certifies each stack in one stacked solve.  When verification fails, the
facet multipliers say how the per-facet bounds react to moving the offsets,
and small LPs pick the offset step: the least move after which the old
multipliers certify every facet, or else the capped step that maximizes
the worst predicted bound (``improve_offsets``).
Offsets are re-tightened to their support values after every step so no
facet is ever empty.  Between the passes of a synthesis only the offsets
move, which are right-hand sides of the facet programs up to the weight
row: every pass after the first restarts them from the previous pass's end
tableaux (``_Passes``).  Every program here, the support sweeps included,
is posed with nonnegative costs, so it starts dual feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    LPProblem,
    LPStack,
    NumericalFailure,
    Restart,
    solve,
    solve_sweep,
    stack_members,
    tableau_bytes,
)
from .polynomial import Rectangle, bernstein_coefficients, check_lift
from .relaxation import (
    InfeasiblePolytope,
    bounding_programs,
    certify_stack,
    class_constraint_values,
    lift_degrees,
)

# The most bytes of end tableaux that a synthesis keeps for its restarts
# (``_Passes``).  A 64-facet template in the plane keeps about 0.3 MB, and a
# 48-facet 8-D template over 3^8 vertex classes 131 MB; the facet stacks
# past the limit, in facet order, are solved cold, from their dual starts,
# in every pass.
KEEP_BYTES = 128 * 1024 * 1024

# The least-move step keeps every predicted facet bound at least this share
# of ``t_big``.  At 0 the step lands on bounds of exactly 0, which the next
# pass reads as about -1e-16: the bundled syntheses then stall.
LEAST_MOVE_SHARE = 0.25

LEAST_MOVE = "least_move"
CAPPED = "capped"

INVARIANT_FOUND = "invariant_found"
ITERATION_LIMIT = "iteration_limit"
STALLED = "stalled"


class EmptyPolytope(Exception):
    """The template polytope has no point inside the rectangle."""


@dataclass(frozen=True, eq=False)
class VectorField:
    """Polynomial ODE right-hand side: one component polynomial per variable."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        n = comps[0].n_vars
        if len(comps) != n or any(f.n_vars != n for f in comps):
            raise ValueError("need exactly one component per variable")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def degrees(self) -> tuple:
        """Componentwise-maximal degree of each variable (shared lift degrees)."""
        return tuple(
            max(f.degrees[k] for f in self.components) for k in range(self.n)
        )


@dataclass(frozen=True, eq=False)
class PolytopeTemplate:
    """Fixed facet normals with adjustable offsets: ``{x : normals @ x <= offsets}``."""

    normals: np.ndarray
    offsets: np.ndarray = None

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim != 2 or normals.shape[0] < 1:
            raise ValueError("normals must be a (m_K, n) matrix")
        if not np.all(np.isfinite(normals)):
            raise ValueError("template normals must be finite")
        if np.any(np.all(normals == 0.0, axis=1)):
            raise ValueError("every facet normal must be nonzero")
        normals = normals.copy()
        normals.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        if self.offsets is not None:
            offsets = np.asarray(self.offsets, dtype=float).reshape(-1).copy()
            if offsets.size != normals.shape[0]:
                raise ValueError("one offset per facet required")
            if not np.all(np.isfinite(offsets)):
                raise ValueError("template offsets must be finite")
            offsets.setflags(write=False)
            object.__setattr__(self, "offsets", offsets)

    @property
    def m(self) -> int:
        return self.normals.shape[0]

    @property
    def n(self) -> int:
        return self.normals.shape[1]

    def with_offsets(self, offsets) -> "PolytopeTemplate":
        return PolytopeTemplate(self.normals, offsets)

    def support_in(self, rect: Rectangle) -> np.ndarray:
        """Per-facet support values of the rectangle: ``max_{x in rect} a_k . x``.

        Raises ValueError where one leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            caps = np.where(self.normals > 0, self.normals * rect.upper, self.normals * rect.lower)
            caps = caps.sum(axis=1)
        if not np.isfinite(caps).all():
            raise ValueError("template normals: rectangle support values overflow the float range")
        return caps


@dataclass(eq=False)
class VerificationReport:
    """Per-facet bounds and multipliers from one verification pass.

    Row ``k`` of ``multipliers`` holds the full-length multiplier vector of
    facet ``k``'s program: entry ``k`` is the equality multiplier, the others
    are the (nonnegative) inequality multipliers.  Facets that turned out
    empty have ``facet_feasible`` False and NaN data.
    """

    d_star: np.ndarray
    multipliers: np.ndarray
    facet_feasible: np.ndarray
    failures: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.facet_feasible.all()) and not self.failures

    @property
    def invariant(self) -> bool:
        return self.complete and bool(np.all(self.d_star >= 0.0))


@dataclass(eq=False)
class IterationRecord:
    offsets: np.ndarray
    d_star: np.ndarray
    facet_feasible: np.ndarray
    invariant: bool
    failures: dict
    t_star: float = None
    alpha: np.ndarray = None
    repaired_offsets: np.ndarray = None
    t_big: float = None
    step: str = None


@dataclass(eq=False)
class OffsetStep:
    """An offset step of ``improve_offsets``: ``alpha``, ``kind`` (LEAST_MOVE
    or CAPPED), ``t_big``, the largest worst predicted facet bound within the
    offset caps, and ``t_star``, the worst predicted bound at ``alpha``."""

    alpha: np.ndarray
    t_star: float
    t_big: float
    kind: str


@dataclass(eq=False)
class SynthesisTrace:
    records: list
    status: str
    final_offsets: np.ndarray

    @property
    def n_iterations(self) -> int:
        return len(self.records)


@dataclass(eq=False)
class SynthesisParams:
    """Tuning knobs for ``synthesize``; every None gets a scale-aware default.

    ``epsilon`` caps the fallback offset step of ``improve_offsets``, taken
    when the old multipliers cannot certify every facet within the offset
    caps; the least-move step is bounded by the caps alone.  It defaults to
    5% of the shortest rectangle side, ``b_hi`` to the rectangle's per-facet
    support (keeping the polytope inside), and ``b_lo`` to the support of
    ``reference_point`` (keeping the polytope nonempty, with the reference
    point always a member).
    """

    epsilon: float = None
    b_lo: np.ndarray = None
    b_hi: np.ndarray = None
    max_iter: int = 50
    stall_tol: float = 1e-9
    reference_point: np.ndarray = None


def support_values(tpl: PolytopeTemplate, directions, rect: Rectangle = None) -> np.ndarray:
    """Support function ``max d . x`` of the template polytope along each row ``d``.

    The polytope is ``{x : normals @ x <= offsets}``, intersected with ``rect``
    when one is given.  Every program is posed with nonnegative costs, so
    it starts dual feasible, and the directions are solved as stacks
    (``lpsolve.solve_sweep``): within a rectangle by ``_box_support``, else
    by ``_free_support``.  An entry is ``+inf`` where the polytope is
    unbounded along its direction.  Every entry is ``-inf`` when the
    polytope is empty.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if not np.isfinite(directions).all():
        raise ValueError("non-finite value (NaN or inf) in support directions")
    if rect is None:
        return _free_support(tpl, directions)
    return _box_support(tpl, directions, rect)


def _swept(stack: LPStack, per_stack: int) -> list:
    """The outcomes of ``lpsolve.solve_sweep`` over ``stack``, in stacks of
    ``per_stack`` members; the first member, in order, to fail raises."""
    out = []
    for lo in range(0, len(stack), per_stack):
        at = slice(lo, lo + per_stack)
        out += solve_sweep(LPStack(*(a[at] for a in (stack.c, stack.G, stack.h, stack.A, stack.d))))
    for res in out:
        if isinstance(res, NumericalFailure):
            raise res
    return out


def _unit(size: float) -> float:
    """The power of two nearest ``size``, or 1 where it is 0: the unit a
    support program is posed in, so that the LP's absolute tolerances are
    relative to the scale of the rectangle or the polytope (a rectangle
    1e-10 wide asks for that), and scaling by it is exact."""
    return float(np.ldexp(1.0, int(np.log2(size).round().clip(-1000, 1000)))) if size > 0.0 else 1.0


def _box_support(tpl: PolytopeTemplate, directions, rect: Rectangle) -> np.ndarray:
    """``support_values`` within ``rect``.

    Direction ``d`` starts at the box corner ``c`` that maximizes ``d . x``:
    with ``x = c + t S z``, for ``S = diag(-1 where d > 0, else +1)`` and
    ``t`` the ``_unit`` of the widest side, the program is ``min |d| . z``
    subject to ``N S z <= (b - N c) / t`` and ``z <= w / t``, for the normals
    ``N``, the offsets ``b`` and the box widths ``w``, and the support value
    is ``d . c - t |d| . z``.  Its costs are nonnegative, and an infeasible
    program is an empty polytope.
    """
    N, b = tpl.normals, tpl.offsets
    (D, n), m = directions.shape, tpl.m
    t = _unit(rect.width.max())
    up = directions > 0.0
    corner = np.where(up, rect.upper, rect.lower)
    G = np.empty((D, m + n, n))
    G[:, :m] = N * np.where(up, -1.0, 1.0)[:, None, :]
    G[:, m:] = np.eye(n)
    h = np.concatenate([b - corner @ N.T, np.broadcast_to(rect.width, (D, n))], axis=1) / t
    stack = LPStack(np.abs(directions), G, h, np.zeros((D, 0, n)), np.zeros((D, 0)))
    sols = _swept(stack, stack_members(n, m + n, 0))
    if any(sol.status == INFEASIBLE for sol in sols):
        return np.full(D, -np.inf)
    reach = np.array([sol.objective for sol in sols])
    return np.einsum("ij,ij->i", directions, corner) - t * reach


def _free_support(tpl: PolytopeTemplate, directions) -> np.ndarray:
    """``support_values`` without a rectangle.

    Posed over ``u = x / t``, for ``t`` the ``_unit`` of the largest
    offset.  First a point ``u0`` of the polytope: the origin where no
    offset is negative, else from a program with zero costs over ``u = u+ -
    u-``, none meaning an empty polytope.  Then, for
    each direction ``d``, the LP dual of ``max d . v`` subject to ``N v <=
    s`` over free ``v = u - u0``: ``min s . y`` subject to ``N^T y = d`` and
    ``y >= 0``, with ``s = max(b / t - N u0, 0)``, so its costs are
    nonnegative.  The support value is ``t`` times ``d . u0`` plus its
    optimum, and ``+inf`` where it is infeasible.
    """
    N, (D, n), m = tpl.normals, directions.shape, tpl.m
    t = _unit(np.abs(tpl.offsets).max())
    b = tpl.offsets / t
    u0 = np.zeros(n)
    if (b < 0.0).any():
        sign = np.tile([1.0, -1.0], n)
        point = LPProblem(np.zeros(2 * n), G=np.repeat(N, 2, axis=1) * sign, h=b)
        (found,) = _swept(LPStack.of(point), 1)
        if found.status == INFEASIBLE:
            return np.full(D, -np.inf)
        u0 = found.x[0::2] - found.x[1::2]
    s = np.maximum(b - N @ u0, 0.0)
    stack = LPStack(
        np.broadcast_to(s, (D, m)),
        np.zeros((D, 0, m)),
        np.zeros((D, 0)),
        np.broadcast_to(N.T, (D, n, m)),
        directions,
    )
    out = directions @ u0
    for k, sol in enumerate(_swept(stack, stack_members(m, 0, n))):
        out[k] = np.inf if sol.status == INFEASIBLE else out[k] + sol.objective
    return t * out


def _reach(tpl: PolytopeTemplate) -> np.ndarray:
    """The polytope's support values along ``e_1..e_n``, then ``-e_1..-e_n``."""
    eye = np.eye(tpl.n)
    return support_values(tpl, np.vstack([eye, -eye]))


def _side_tol(rect: Rectangle, tol: float) -> np.ndarray:
    """``tol`` per side of the rectangle, in ``_reach``'s order, times the
    side's width where that is below 1: a small rectangle's own scale."""
    return tol * np.minimum(1.0, np.tile(rect.width, 2))


def _within(reach, rect: Rectangle, tol: float) -> bool:
    """Whether a ``_reach`` stays inside the rectangle, up to ``_side_tol``."""
    return bool(np.all(reach <= np.concatenate([rect.upper, -rect.lower]) + _side_tol(rect, tol)))


def template_within_rect(tpl: PolytopeTemplate, rect: Rectangle, tol: float = 1e-9) -> bool:
    """Support-function test that the template polytope fits inside the rectangle.

    An empty polytope is vacuously inside.
    """
    return _within(_reach(tpl), rect, tol)


@dataclass(frozen=True, eq=False)
class FacetLift:
    """What every verification pass of one set of normals shares, whatever
    the offsets (``facet_lift``).

    ``costs[k]`` is facet ``k``'s Bernstein coefficients ``-n_k @ B``, for
    the stacked coefficients ``B`` of the field components at the shared
    lift degrees, and ``products[c, i]`` is ``n_i . p(c)`` at class point
    ``c``; a pass subtracts its offsets from the products.
    """

    costs: np.ndarray
    products: np.ndarray


def facet_lift(fld: VectorField, rect: Rectangle, normals) -> FacetLift:
    """The ``FacetLift`` of the facet programs of ``normals``: the lift
    degrees and their size check, the stacked Bernstein coefficients, the
    facet costs and the class-point products, computed once."""
    normals = np.asarray(normals, dtype=float)
    if normals.shape[1] != fld.n or rect.n != fld.n:
        raise ValueError("dimension mismatch")
    degrees = lift_degrees(fld.degrees, normals)
    check_lift(degrees, "vector field")
    padded = [f.pad_degrees(degrees) for f in fld.components]
    bern = np.stack(
        [
            bernstein_coefficients(f, rect, f"vector field component {j}").ravel()
            for j, f in enumerate(padded)
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        costs = -np.matmul(normals[:, None, :], bern)[:, 0]
    if not np.isfinite(costs).all():
        raise ValueError("vector field: facet costs overflow the float range")
    # the values at right-hand side 0 are the products, bit for bit; one
    # beyond the float range is refused with the pass's values
    return FacetLift(costs, class_constraint_values(degrees, rect, normals, 0.0))


def _facet_values(lift: FacetLift, offsets) -> np.ndarray:
    """The class values ``n_i . p(c) - b_i`` of ``lift`` at the offsets ``b``."""
    with np.errstate(over="ignore"):
        values = lift.products - offsets
    if not np.isfinite(values).all():
        raise ValueError(
            "vector field: facet values at the class points overflow the float range"
        )
    return values


def _others(m: int) -> np.ndarray:
    """Row ``k``: every facet but ``k``, in order."""
    return np.arange(1, m) - (np.arange(1, m) <= np.arange(m)[:, None])


def _facet_stack(lift: FacetLift, values: np.ndarray, ks) -> LPStack:
    """The bounding programs of facets ``ks`` at the class values ``values``."""
    K, m = values.shape
    g = values[np.arange(K)[:, None], _others(m)[ks][:, None, :]]
    return bounding_programs(lift.costs[ks], g, values.T[ks][:, :, None])


def facet_programs(
    fld: VectorField, rect: Rectangle, tpl: PolytopeTemplate, lift: FacetLift = None
):
    """The bounding program of every facet, as ``LPStack`` chunks in facet order.

    Facet ``k`` minimizes ``-n_k . f`` subject to ``n_k . x = b_k`` and the
    other facets' inequalities.  All facets share the lift degrees, hence the
    class points, and their costs and constraint values come off ``lift``,
    ``facet_lift`` of the template's normals, which is built here when not
    given: a pass only subtracts its offsets from the class-point products.
    Each chunk is gathered from these shared arrays by
    ``relaxation.bounding_programs``, and holds as many facets as keep its
    tableau within ``lpsolve.STACK_BYTES`` (at least one).  Member ``i`` of
    a chunk (``stack[i]``) is its facet's program as ``bounding_program``
    poses it alone.
    """
    if tpl.offsets is None:
        raise ValueError("template needs offsets to verify")
    if lift is None:
        lift = facet_lift(fld, rect, tpl.normals)
    values = _facet_values(lift, tpl.offsets)
    m, K = tpl.m, values.shape[0]
    # facet k's bound needs m - 1 inequality rows and two equality rows (the
    # weights and the facet), all with right-hand side 0 or 1
    per_stack = stack_members(K, m - 1, 2)
    return (
        _facet_stack(lift, values, np.arange(lo, min(lo + per_stack, m)))
        for lo in range(0, m, per_stack)
    )


class _Passes:
    """What a synthesis carries from one pass to the next: the end tableaux
    of each facet stack, with the offsets its tableaux were built at,
    within ``KEEP_BYTES`` in all.

    The tableau of a facet program built at offsets ``b`` has the rows
    ``n_i . p(c) - b_i``; through the weight row, the program at offsets
    ``b'`` is the program over those rows with right-hand sides
    ``b'_i - b_i``, so a later pass restarts from it at those right-hand
    sides (``lpsolve.solve_dual_stack``).  A stack solved cold is built at
    the pass's own offsets.  Each facet stack is charged its tableaux when
    the first pass meets it; what does not fit runs cold in every pass.
    """

    def __init__(self):
        self.room = KEEP_BYTES
        self.stacks = []  # per facet stack: [Restart or None, offsets built at]
        self._base = (None, None)  # the last offsets built at, and their class values

    def certify(self, i: int, stack: LPStack, lift: FacetLift, ks, offsets) -> list:
        """``certify_stack`` of the ``i``-th stack of a pass at ``offsets``,
        the facets ``ks`` of ``lift``, from the tableaux of the previous
        pass's."""
        if i == len(self.stacks):
            S, m_ineq, K = stack.G.shape
            size = S * tableau_bytes(K, m_ineq, stack.A.shape[1])
            fits = size <= self.room
            if fits:
                self.room -= size
            self.stacks.append([Restart() if fits else None, None])
        restart, base = self.stacks[i]
        if restart is None:
            return certify_stack(stack)
        rows = None
        if restart.tab is not None:
            if self._base[0] is not base:
                self._base = (base, _facet_values(lift, base))
            built = _facet_stack(lift, self._base[1], ks)
            others = _others(len(offsets))[ks]
            h = offsets[others] - base[others]
            d = built.d.copy()
            d[:, 1] = offsets[ks] - base[ks]
            rows = LPStack(built.c, built.G, h, built.A, d)
        results = certify_stack(stack, restart, rows)
        if not restart.warm:
            self.stacks[i][1] = offsets
        return results


def verify(
    fld: VectorField,
    rect: Rectangle,
    tpl: PolytopeTemplate,
    lift: FacetLift = None,
    passes: _Passes = None,
) -> VerificationReport:
    """One certified bound per facet; invariant iff all bounds are nonnegative.

    The facet programs are certified chunk by chunk, each chunk in one
    stacked solve (``relaxation.certify_stack``).  ``lift`` is
    ``facet_lift`` of the template's normals, which a synthesis builds once
    for all its passes; a lone call builds it itself.  A synthesis also
    passes its ``_Passes``, from which every pass after its first restarts
    the facet programs.  A facet whose program fails numerically is recorded
    and skipped; the report then cannot certify invariance but the other
    facets keep their data, bit for bit.
    """
    m = tpl.m
    d_star = np.full(m, np.nan)
    multipliers = np.full((m, m), np.nan)
    feasible = np.ones(m, dtype=bool)
    failures: dict = {}
    k = 0
    for i, stack in enumerate(facet_programs(fld, rect, tpl, lift)):
        if passes is None:
            results = certify_stack(stack)
        else:
            results = passes.certify(i, stack, lift, np.arange(k, k + len(stack)), tpl.offsets)
        for res in results:
            if isinstance(res, InfeasiblePolytope):
                feasible[k] = False
            elif isinstance(res, NumericalFailure):
                failures[k] = str(res)
            else:
                d_star[k] = res.d_star
                multipliers[k, :k] = res.lam[:k]
                multipliers[k, k] = res.mu[0]
                multipliers[k, k + 1 :] = res.lam[k:]
            k += 1
    return VerificationReport(
        d_star=d_star,
        multipliers=multipliers,
        facet_feasible=feasible,
        failures=failures,
    )


def _max_min(
    report: VerificationReport, alpha_lo: np.ndarray, alpha_hi: np.ndarray
) -> tuple[float, np.ndarray]:
    """``(t, alpha)`` of ``max t`` subject to ``t <= d_k - row_k . alpha``
    for every facet ``k`` and ``alpha_lo <= alpha <= alpha_hi``, for the
    report's bounds ``d`` and multiplier rows ``M``.

    Over ``s = t - t0 >= 0`` and ``a = alpha - alpha_lo >= 0``, for ``t0``
    the least facet right-hand side ``d_k - row_k . alpha_lo``, the value at
    ``a = 0``, it is ``max s`` subject to ``s + M a <= f`` and ``a <= w``,
    with ``f = d - M alpha_lo - t0 >= 0`` and ``w = alpha_hi - alpha_lo >=
    0``.  Its LP dual, ``min f . lam + w . nu`` subject to ``sum(lam) >= 1``
    and ``M^T lam + nu >= 0`` over ``lam, nu >= 0``, has nonnegative costs,
    so it starts dual feasible (``lpsolve.solve``), and ``s`` and ``a`` are
    its row multipliers, the plain basis duals.
    """
    m = alpha_lo.size
    M = report.multipliers
    facet = report.d_star - M @ alpha_lo
    t0 = facet.min()
    G = np.vstack([np.concatenate([-np.ones(m), np.zeros(m)]), np.hstack([-M.T, -np.eye(m)])])
    h = np.concatenate([[-1.0], np.zeros(m)])
    sol = solve(LPProblem(np.concatenate([facet - t0, alpha_hi - alpha_lo]), G=G, h=h))
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"offset-improvement program {sol.status}")
    return float(t0 + sol.ineq_duals[0]), alpha_lo + sol.ineq_duals[1:]


def _least_move(
    report: VerificationReport, alpha_lo: np.ndarray, alpha_hi: np.ndarray, tau: float
) -> np.ndarray:
    """The least ``||alpha||_1`` subject to ``d_k - row_k . alpha >= tau``
    for every facet ``k`` and ``alpha_lo <= alpha <= alpha_hi``.

    Posed over ``alpha = p - q`` with ``p, q >= 0`` at the cost ``sum(p + q)``.
    The costs are nonnegative, so the slack basis is dual feasible and the
    dual simplex starts there (``lpsolve.solve``), whatever the signs of the
    right-hand sides.
    """
    M, eye = report.multipliers, np.eye(alpha_lo.size)
    G = np.vstack([np.hstack([M, -M]), np.hstack([eye, -eye]), np.hstack([-eye, eye])])
    h = np.concatenate([report.d_star - tau, alpha_hi, -alpha_lo])
    sol = solve(LPProblem(np.ones(2 * alpha_lo.size), G=G, h=h))
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"least-move program {sol.status}")
    return sol.x[: alpha_lo.size] - sol.x[alpha_lo.size :]


def improve_offsets(
    report: VerificationReport,
    tpl: PolytopeTemplate,
    epsilon: float,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
) -> OffsetStep:
    """The offset step ``alpha`` of a synthesis from the offsets ``b`` of
    ``tpl``, within the caps ``b_lo <= b + alpha <= b_hi``.

    Facet ``k``'s bound at ``b + alpha`` is predicted as ``d_k - row_k .
    alpha``, for row ``k`` of the report's multipliers.  That is the
    certificate of the old multipliers at ``b + alpha``, exact for every
    ``alpha``, since ``lambda . alpha`` is the same at every class point.
    First ``t_big``, the largest worst prediction within the caps alone
    (``_max_min``).  If it is positive, the old multipliers certify every
    facet somewhere within the caps, and the step is the least move that
    keeps every prediction at least ``LEAST_MOVE_SHARE * t_big``
    (``_least_move``).  Otherwise it maximizes the worst prediction within
    ``epsilon`` of ``b`` as well: ``epsilon`` caps only this fallback.  Both
    programs start dual feasible, and ``alpha`` is clipped to the caps,
    which it meets up to the LP's tolerances.  Always feasible: ``alpha =
    0`` keeps the current worst bound.
    """
    if not report.complete:
        raise ValueError("improvement requires a complete verification report")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    b = tpl.offsets
    b_lo = np.asarray(b_lo, dtype=float).reshape(-1)
    b_hi = np.asarray(b_hi, dtype=float).reshape(-1)
    if b_lo.size != tpl.m or b_hi.size != tpl.m:
        raise ValueError("b_lo and b_hi need one entry per facet")
    alpha_lo, alpha_hi = b_lo - b, b_hi - b
    if np.any(alpha_lo > alpha_hi + 1e-12):
        raise ValueError("offset caps violate b_lo <= b_hi")
    alpha_lo = np.minimum(alpha_lo, alpha_hi)
    t_big, alpha = _max_min(report, alpha_lo, alpha_hi)
    if t_big > 0.0:
        kind = LEAST_MOVE
        alpha = _least_move(report, alpha_lo, alpha_hi, LEAST_MOVE_SHARE * t_big)
    else:
        kind = CAPPED
        lo, hi = np.maximum(-epsilon, alpha_lo), np.minimum(epsilon, alpha_hi)
        _, alpha = _max_min(report, np.minimum(lo, hi), hi)
    alpha = np.clip(alpha, alpha_lo, alpha_hi)
    t_star = float((report.d_star - report.multipliers @ alpha).min())
    return OffsetStep(alpha, t_star, t_big, kind)


def repair_offsets(tpl: PolytopeTemplate, rect: Rectangle) -> np.ndarray:
    """Tighten every offset to its support value, leaving the set unchanged.

    After repair each retained inequality is tight at some point of the
    polytope, so every facet is nonempty.  Raises EmptyPolytope when there is
    nothing to support.
    """
    if tpl.offsets is None:
        raise ValueError("template needs offsets to repair")
    tightened = support_values(tpl, tpl.normals, rect)
    if np.isneginf(tightened).any():
        raise EmptyPolytope("cannot repair an empty polytope")
    return tightened


def _confining_caps(tpl: PolytopeTemplate, rect: Rectangle, ref) -> np.ndarray:
    """Largest offset caps whose polytope stays inside the rectangle.

    Capping offsets only bounds each halfspace's reach in its own direction;
    the cap polytope can still poke out of the rectangle when the template
    lacks confining normals.  Since lowering offsets shrinks the set, it is
    enough to make the cap polytope itself contained: every later iterate is
    then contained too.  When the raw support caps fail the test, they are
    scaled toward the reference point.  With ``base = normals @ ref``, the
    caps ``base + s * (support - base)`` describe exactly ``ref + s * Q`` for
    ``Q = {y : normals @ y <= support - base}``, so the reach along every axis
    is linear in ``s`` and the largest admissible scale is read off the
    reach of ``Q = P - ref``, for the raw cap polytope ``P``: the reach of
    ``P``, swept once for the containment test, minus ``[ref; -ref]``.
    """
    support = tpl.support_in(rect)
    reach = _reach(tpl.with_offsets(support))
    if _within(reach, rect, 1e-9):
        return support
    if ref is None:
        raise ValueError(
            "the template cannot be confined to the rectangle by support caps "
            "alone; supply explicit b_hi or a reference_point"
        )
    base = tpl.normals @ ref
    reach = reach - np.concatenate([ref, -ref])
    # A strict inner margin keeps the caps inside the rectangle rather than
    # within tolerance of its boundary.
    room = np.concatenate([rect.upper - ref, ref - rect.lower]) - _side_tol(rect, 1e-9)
    if not (np.all(np.isfinite(reach)) and np.all(room > 0.0)):
        raise ValueError(
            "template normals do not confine a polytope inside the rectangle; "
            "add confining directions (e.g. the box normals)"
        )
    scale = min(1.0, float(np.min(room / reach)))
    caps = base + scale * (support - base)
    if not template_within_rect(tpl.with_offsets(caps), rect, tol=0.0):
        raise NumericalFailure("scaled offset caps left the rectangle after rounding")
    return caps


def _resolve_params(tpl: PolytopeTemplate, rect: Rectangle, params: SynthesisParams):
    normals = tpl.normals
    ref = params.reference_point
    if ref is not None:
        ref = np.asarray(ref, dtype=float).reshape(-1)
        if ref.size != tpl.n:
            raise ValueError("reference point dimension mismatch")
        if not (np.all(ref > rect.lower) and np.all(ref < rect.upper)):
            raise ValueError("reference point must lie strictly inside the rectangle")
    if params.b_hi is not None:
        b_hi = np.asarray(params.b_hi, dtype=float).reshape(-1)
        if b_hi.size == tpl.m and not template_within_rect(tpl.with_offsets(b_hi), rect):
            raise ValueError(
                "b_hi caps admit polytopes outside the rectangle; tighten them"
            )
    else:
        b_hi = _confining_caps(tpl, rect, ref)
    if params.b_lo is not None:
        b_lo = np.asarray(params.b_lo, dtype=float).reshape(-1)
    else:
        if ref is None:
            raise ValueError("either b_lo or a reference_point is required")
        b_lo = normals @ ref
    if b_lo.size != tpl.m or b_hi.size != tpl.m:
        raise ValueError("b_lo and b_hi need one entry per facet")
    if tpl.offsets is not None:
        offsets0 = tpl.offsets
    else:
        # Start from the largest template polytope inside the rectangle and
        # shrink: the bound is tightest near the rectangle's boundary, while
        # small polytopes sit in a flat, heavily conservative region where
        # the improvement step has no useful signal.
        offsets0 = b_hi.copy()
    epsilon = (
        float(params.epsilon)
        if params.epsilon is not None
        else 0.05 * float(rect.width.min())
    )
    return offsets0, b_lo, b_hi, epsilon


def synthesize(
    fld: VectorField,
    rect: Rectangle,
    tpl0: PolytopeTemplate,
    params: SynthesisParams = None,
) -> SynthesisTrace:
    """Iterate verify / improve / repair until a certified invariant appears.

    Terminates with INVARIANT_FOUND on success, ITERATION_LIMIT after
    ``max_iter`` verification rounds, or STALLED when the improvement value
    moves by less than ``stall_tol`` for three consecutive rounds (or a facet
    program breaks down).
    """
    params = params or SynthesisParams()
    offsets0, b_lo, b_hi, epsilon = _resolve_params(tpl0, rect, params)
    # Offsets never exceed b_hi, and the b_hi cap polytope is contained in
    # the rectangle, so every iterate stays contained as well.
    if np.any(offsets0 > b_hi + 1e-12):
        raise ValueError("initial offsets must satisfy b_lo <= offsets <= b_hi")
    # Tighten up-front: user offsets may carry empty facets, which the facet
    # programs would report as infeasible rather than bounding.  This also
    # raises EmptyPolytope for an empty start, so b_lo is checked after it:
    # with b_lo = normals @ ref, every empty start is below b_lo somewhere.
    tpl = tpl0.with_offsets(repair_offsets(tpl0.with_offsets(offsets0), rect))
    if np.any(b_lo > offsets0 + 1e-12):
        raise ValueError("initial offsets must satisfy b_lo <= offsets <= b_hi")

    lift = facet_lift(fld, rect, tpl.normals)
    passes = _Passes()
    records: list[IterationRecord] = []
    status = ITERATION_LIMIT
    prev_t = None
    stall_run = 0
    for _ in range(int(params.max_iter)):
        report = verify(fld, rect, tpl, lift, passes)
        rec = IterationRecord(
            offsets=tpl.offsets.copy(),
            d_star=report.d_star.copy(),
            facet_feasible=report.facet_feasible.copy(),
            invariant=report.invariant,
            failures=dict(report.failures),
        )
        records.append(rec)
        if report.invariant:
            status = INVARIANT_FOUND
            break
        if not report.complete:
            status = STALLED
            break
        step = improve_offsets(report, tpl, epsilon, np.minimum(b_lo, tpl.offsets), b_hi)
        t_star = rec.t_star = step.t_star
        rec.alpha, rec.t_big, rec.step = step.alpha, step.t_big, step.kind
        stepped = tpl.with_offsets(tpl.offsets + step.alpha)
        repaired = repair_offsets(stepped, rect)
        rec.repaired_offsets = repaired
        tpl = tpl.with_offsets(repaired)
        if prev_t is not None and t_star - prev_t < params.stall_tol:
            stall_run += 1
        else:
            stall_run = 0
        prev_t = t_star
        if stall_run >= 3:
            status = STALLED
            break
    return SynthesisTrace(records=records, status=status, final_offsets=tpl.offsets.copy())
