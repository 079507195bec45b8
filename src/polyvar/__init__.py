"""Certified polynomial lower bounds on polytopes and polytopic invariant sets.

The public surface mirrors the module layout:

- ``polynomial``: sparse polynomials and their Bernstein coefficients
- ``lpsolve``: two-phase simplex on a condensed tableau, with dual extraction
- ``relaxation``: the certified lower-bound programs and their multipliers
- ``invariance``: per-facet invariance verification and offset synthesis
- ``oracle``: naive references for the tests (grid and vertex minima, the
  Bernstein reconstruction, the sensitivity prediction, scalar LP assembly)
- ``cli``: the ``polyvar`` command-line front end

The package exports what the command-line paths use.  The cross-checks live
in ``oracle`` and the tests, and only ``cli`` imports ``oracle``, for the
grid minimum of ``bound --oracle``: import ``polyvar.oracle`` to use them.
"""

from .invariance import (
    INVARIANT_FOUND,
    ITERATION_LIMIT,
    STALLED,
    EmptyPolytope,
    PolytopeTemplate,
    SynthesisParams,
    SynthesisTrace,
    VectorField,
    VerificationReport,
    improve_offsets,
    repair_offsets,
    support_values,
    synthesize,
    verify,
)
from .lpsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    LPSolution,
    NumericalFailure,
    solve,
    solve_many,
)
from .polynomial import MultiPoly, Rectangle, bernstein_coefficients, evaluate
from .relaxation import (
    BoundResult,
    ConstraintSet,
    DegreeZeroConflict,
    InfeasiblePolytope,
    build_reduced_lp,
    lower_bound,
)

__version__ = "0.1.0"
