"""Certified polynomial lower bounds on polytopes and polytopic invariant sets.

The public surface mirrors the module layout:

- ``polynomial``: sparse polynomials, polar forms, Bernstein coefficients
- ``lpsolve``: two-phase simplex on a condensed tableau, with dual extraction
- ``relaxation``: the certified lower-bound programs and sensitivity bounds
- ``invariance``: per-facet invariance verification and offset synthesis
- ``oracle``: brute-force grid / vertex references for testing and diagnostics
- ``cli``: the ``polyvar`` command-line front end
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
from .oracle import NoFeasibleSample, NotMultiAffine, grid_min, vertex_min
from .polynomial import (
    BernsteinTensor,
    MultiPoly,
    Rectangle,
    bernstein_coefficients,
    evaluate,
)
from .relaxation import (
    BoundResult,
    ConstraintSet,
    DegreeZeroConflict,
    InfeasiblePolytope,
    build_reduced_lp,
    lower_bound,
    sensitivity_bound,
)

__version__ = "0.1.0"
