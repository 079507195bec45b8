"""Verification and synthesis of polytopic invariant sets for polynomial ODEs.

A polytope with fixed facet normals is invariant when, on every facet, the
flow points inward; each facet check is one certified lower-bound program.
A verification pass gathers all of them into stacks of a bounded size
(``facet_programs``), from arrays that depend only on the field, the
rectangle and the normals (``facet_lift``, built once per synthesis), and
certifies each stack in one stacked solve.  When verification fails, the
facet multipliers say how the per-facet bounds react to moving the offsets,
and a small LP picks the offset step that maximizes the worst predicted
bound.
Offsets are re-tightened to their support values after every step so no
facet is ever empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    NumericalFailure,
    solve,
    solve_many,
    stack_members,
)
from .polynomial import Rectangle, bernstein_coefficients, check_lift
from .relaxation import (
    InfeasiblePolytope,
    bounding_programs,
    certify_stack,
    class_constraint_values,
    lift_degrees,
)

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
        """Per-facet support values of the rectangle: ``max_{x in rect} a_k . x``."""
        return np.where(self.normals > 0, self.normals * rect.upper, self.normals * rect.lower).sum(axis=1)


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

    ``epsilon`` defaults to 5% of the shortest rectangle side, ``b_hi`` to the
    rectangle's per-facet support (keeping the polytope inside), and ``b_lo``
    to the support of ``reference_point`` (keeping the polytope nonempty, with
    the reference point always a member).
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
    when one is given.  All directions share one ``solve_many`` sweep: one
    phase 1 for the polytope, then one warm phase 2 per direction, read
    only for its optimal ``x``.  An entry is ``+inf`` where the polytope is
    unbounded along its direction.  Every entry is ``-inf`` when the
    polytope is empty.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if rect is None:  # free x = x+ - x- in adjacent columns
        sign = np.tile([1.0, -1.0], tpl.n)
        G, h = np.repeat(tpl.normals, 2, axis=1) * sign, tpl.offsets
        costs = -np.repeat(directions, 2, axis=1) * sign
    else:  # y = x - lower >= 0, with the box's upper sides as rows
        G = np.vstack([tpl.normals, np.eye(tpl.n)])
        h = np.concatenate([tpl.offsets, rect.upper]) - G @ rect.lower
        costs = -directions
    sols = solve_many(LPProblem(np.zeros(G.shape[1]), G=G, h=h), costs)
    out = np.empty(directions.shape[0])
    for k, (d, sol) in enumerate(zip(directions, sols)):
        if sol.status == INFEASIBLE:
            return np.full(directions.shape[0], -np.inf)
        if sol.status == UNBOUNDED:
            out[k] = np.inf
        else:
            out[k] = d @ (sol.x[0::2] - sol.x[1::2] if rect is None else sol.x + rect.lower)
    return out


def _reach(tpl: PolytopeTemplate) -> np.ndarray:
    """The polytope's support values along ``e_1..e_n``, then ``-e_1..-e_n``."""
    eye = np.eye(tpl.n)
    return support_values(tpl, np.vstack([eye, -eye]))


def _within(reach, rect: Rectangle, tol: float) -> bool:
    """Whether a ``_reach`` stays inside the rectangle, up to ``tol``."""
    return bool(np.all(reach <= np.concatenate([rect.upper, -rect.lower]) + tol))


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
    with np.errstate(over="ignore"):
        values = lift.products - tpl.offsets
    if not np.isfinite(values).all():
        raise ValueError(
            "vector field: facet values at the class points overflow the float range"
        )
    m, K = tpl.m, values.shape[0]
    # others[k]: every facet but k, in order
    others = np.arange(1, m) - (np.arange(1, m) <= np.arange(m)[:, None])
    # facet k's bound needs m - 1 inequality rows and two equality rows (the
    # weights and the facet), all with right-hand side 0 or 1
    per_stack = stack_members(K, m - 1, 2)

    def stack(ks):
        g = values[np.arange(K)[:, None], others[ks][:, None, :]]
        return bounding_programs(lift.costs[ks], g, values.T[ks][:, :, None])

    return (stack(np.arange(lo, min(lo + per_stack, m))) for lo in range(0, m, per_stack))


def verify(
    fld: VectorField, rect: Rectangle, tpl: PolytopeTemplate, lift: FacetLift = None
) -> VerificationReport:
    """One certified bound per facet; invariant iff all bounds are nonnegative.

    The facet programs are certified chunk by chunk, each chunk in one
    stacked solve (``relaxation.certify_stack``).  ``lift`` is
    ``facet_lift`` of the template's normals, which a synthesis builds once
    for all its passes; a lone call builds it itself.  A facet whose
    program fails numerically is recorded and skipped; the report then
    cannot certify invariance but the other facets keep their data, bit for
    bit.
    """
    m = tpl.m
    d_star = np.full(m, np.nan)
    multipliers = np.full((m, m), np.nan)
    feasible = np.ones(m, dtype=bool)
    failures: dict = {}
    k = 0
    for stack in facet_programs(fld, rect, tpl, lift):
        for res in certify_stack(stack):
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


def improve_offsets(
    report: VerificationReport,
    tpl: PolytopeTemplate,
    epsilon: float,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Offset step maximizing the worst first-order-predicted facet bound.

    Solves ``max_t,alpha t`` (as ``min -t``) subject to
    ``t <= d_k - lambda_k . alpha`` per facet and per-facet step caps derived
    from ``epsilon``, ``b_lo`` and ``b_hi``.  Always feasible: ``alpha = 0``
    yields the current worst bound.
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
    alpha_lo = np.maximum(-epsilon, b_lo - b)
    alpha_hi = np.minimum(epsilon, b_hi - b)
    if np.any(alpha_lo > alpha_hi + 1e-12):
        raise ValueError("offset caps violate b_lo <= offsets <= b_hi")
    alpha_lo = np.minimum(alpha_lo, alpha_hi)
    m = tpl.m
    # t = t+ - t- is free; alpha = alpha_lo + a with a >= 0 and the rows
    # a <= alpha_hi - alpha_lo after the facet rows
    G = np.vstack([np.hstack([np.ones((m, 1)), report.multipliers]), np.eye(m, 1 + m, 1)])
    h = np.concatenate([report.d_star, alpha_hi]) - G @ np.concatenate([[0.0], alpha_lo])
    c = np.concatenate([[-1.0, 1.0], np.zeros(m)])
    sol = solve(LPProblem(c, G=np.insert(G, 1, -G[:, 0], axis=1), h=h))
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"offset-improvement program {sol.status}")
    return float(sol.x[0] - sol.x[1]), sol.x[2:] + alpha_lo


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
    room = np.concatenate([rect.upper - ref, ref - rect.lower]) - 1e-9
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
    records: list[IterationRecord] = []
    status = ITERATION_LIMIT
    prev_t = None
    stall_run = 0
    for _ in range(int(params.max_iter)):
        report = verify(fld, rect, tpl, lift)
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
        t_star, alpha = improve_offsets(
            report, tpl, epsilon, np.minimum(b_lo, tpl.offsets), b_hi
        )
        rec.t_star = t_star
        rec.alpha = alpha
        stepped = tpl.with_offsets(tpl.offsets + alpha)
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
