"""Verification and synthesis of polytopic invariant sets for polynomial ODEs.

A polytope with fixed facet normals is invariant when, on every facet, the
flow points inward; each facet check is one certified lower-bound program.
When verification fails, the facet multipliers say how the per-facet bounds
react to moving the offsets, and a small LP picks the offset step that
maximizes the worst predicted bound.  Offsets are re-tightened to their
support values after every step so no facet is ever empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lpsolve import INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, NumericalFailure, solve
from .polynomial import Rectangle, evaluate, evaluate_many, facet_objective
from .relaxation import ConstraintSet, InfeasiblePolytope, lower_bound

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

    def eval(self, x) -> np.ndarray:
        return np.array([evaluate(f, x) for f in self.components])

    def eval_many(self, points) -> np.ndarray:
        return np.column_stack([evaluate_many(f, points) for f in self.components])


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

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of which rows of ``points`` satisfy every inequality."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all(pts @ self.normals.T <= self.offsets + tol, axis=1)


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

    @property
    def min_bound(self) -> float:
        ok = self.facet_feasible & ~np.isnan(self.d_star)
        return float(self.d_star[ok].min()) if ok.any() else float("nan")


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
    when one is given.  An entry is ``+inf`` where the polytope is unbounded
    along its direction.  Every entry is ``-inf`` when the polytope is empty:
    the first infeasible program ends the sweep.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    lo, hi = (None, None) if rect is None else (rect.lower, rect.upper)
    out = np.empty(directions.shape[0])
    for k, d in enumerate(directions):
        sol = solve(LPProblem("max", d, G=tpl.normals, h=tpl.offsets, lo=lo, hi=hi))
        if sol.status == INFEASIBLE:
            return np.full(directions.shape[0], -np.inf)
        out[k] = np.inf if sol.status == UNBOUNDED else sol.objective
    return out


def template_within_rect(tpl: PolytopeTemplate, rect: Rectangle, tol: float = 1e-9) -> bool:
    """Support-function test that the template polytope fits inside the rectangle.

    An empty polytope is vacuously inside.
    """
    eye = np.eye(tpl.n)
    reach = support_values(tpl, np.vstack([eye, -eye]))
    return bool(np.all(reach <= np.concatenate([rect.upper, -rect.lower]) + tol))


def verify(fld: VectorField, rect: Rectangle, tpl: PolytopeTemplate) -> VerificationReport:
    """One certified bound per facet; invariant iff all bounds are nonnegative.

    A facet whose program fails numerically is recorded and skipped; the
    report then cannot certify invariance but the other facets keep their
    data.
    """
    if tpl.offsets is None:
        raise ValueError("template needs offsets to verify")
    if tpl.n != fld.n or rect.n != fld.n:
        raise ValueError("dimension mismatch")
    m = tpl.m
    d_star = np.full(m, np.nan)
    multipliers = np.full((m, m), np.nan)
    feasible = np.ones(m, dtype=bool)
    failures: dict = {}
    for k in range(m):
        objective = facet_objective(fld.components, tpl.normals[k])
        others = [i for i in range(m) if i != k]
        cs = ConstraintSet(
            fld.n,
            inequalities=[(tpl.normals[i], tpl.offsets[i]) for i in others],
            equalities=[(tpl.normals[k], tpl.offsets[k])],
        )
        try:
            res = lower_bound(objective, rect, cs)
        except InfeasiblePolytope:
            feasible[k] = False
            continue
        except NumericalFailure as exc:
            failures[k] = str(exc)
            continue
        d_star[k] = res.d_star
        row = np.empty(m)
        row[others] = res.lam
        row[k] = res.mu[0]
        multipliers[k] = row
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

    Solves ``max_t,alpha t`` subject to ``t <= d_k - lambda_k . alpha`` per
    facet and per-facet step caps derived from ``epsilon``, ``b_lo`` and
    ``b_hi``.  Always feasible: ``alpha = 0`` yields the current worst bound.
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
    obj = np.zeros(1 + m)
    obj[0] = 1.0
    rows = np.hstack([np.ones((m, 1)), report.multipliers])
    lo = np.concatenate([[-np.inf], alpha_lo])
    hi = np.concatenate([[np.inf], alpha_hi])
    sol = solve(LPProblem("max", obj, G=rows, h=report.d_star, lo=lo, hi=hi))
    if sol.status != OPTIMAL:
        raise NumericalFailure(f"offset-improvement program {sol.status}")
    return float(sol.objective), sol.x[1:].copy()


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
    reach of ``Q``.
    """
    support = tpl.support_in(rect)
    if template_within_rect(tpl.with_offsets(support), rect):
        return support
    if ref is None:
        raise ValueError(
            "the template cannot be confined to the rectangle by support caps "
            "alone; supply explicit b_hi or a reference_point"
        )
    base = tpl.normals @ ref
    eye = np.eye(tpl.n)
    reach = support_values(tpl.with_offsets(support - base), np.vstack([eye, -eye]))
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
    # Tighten up-front: user offsets may carry empty facets, which the facet
    # programs would report as infeasible rather than bounding.  This also
    # raises EmptyPolytope for an empty start.
    repaired = repair_offsets(tpl0.with_offsets(offsets0), rect)
    # Offsets never exceed b_hi, and the b_hi cap polytope is contained in
    # the rectangle, so every iterate stays contained as well.
    if np.any(b_lo > offsets0 + 1e-12) or np.any(offsets0 > b_hi + 1e-12):
        raise ValueError("initial offsets must satisfy b_lo <= offsets <= b_hi")
    tpl = tpl0.with_offsets(repaired)

    records: list[IterationRecord] = []
    status = ITERATION_LIMIT
    prev_t = None
    stall_run = 0
    for _ in range(int(params.max_iter)):
        report = verify(fld, rect, tpl)
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
