"""The numerical thresholds of the package, one field per decision.

Two numbers carry the design: how accurately the iterative solvers compute
(``solver``) and how close a result must be to an exact identity to count
as certified (``certify``); the CLI keeps the certification tolerance
strictly above the solver tolerance. The other fields are the cutoffs that
decide ranks, structural flags and convergence. Modules read the fields of
``TOL`` directly, and every CLI report echoes it as ``config.tolerances``.

"Relative" cutoffs are scaled by max(1, norm) of the object they test.
Iteration budgets and guards used inside a single algorithm stay next to it
as module constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Accuracy of iterative results: the projection's dual gradient stops
    # here, members and other solver output are checked against it (corner
    # leakage, fixed basis elements, the idempotent flag, Hermitian UCP inputs).
    solver: float = 1e-8
    # Default certification tolerance: minimality bounds, report residuals and
    # the consistency checks on a finished result.
    certify: float = 1e-6
    # Residual allowed when a map must be unital, CP or idempotent before an
    # algorithm uses it; also the spectral/iterative Cesaro agreement.
    ucp: float = 1e-7
    # Singular values above it count toward a rank: of a superoperator or a
    # Choi matrix, and (relative) of an exposing vector.
    rank: float = 1e-7
    # Structural flags (relative): Hermitian, CP, unital, trace preserving,
    # identity in the span, span closed under the adjoint.
    structure: float = 1e-9
    # Input guard of the Hermitian eigensolver (relative).
    hermiticity: float = 1e-9
    # Singular values of S - I below it, relative to ||S||, span the fixed
    # space of the map with superoperator S.
    fixed_space: float = 1e-9
    # A matrix adds to a span when what is left after removing the span so far
    # exceeds this fraction of the largest input (relative).
    span_rtol: float = 1e-10
    # Stopping residual of the iterative Cesaro squaring.
    cesaro: float = 1e-10
    # PSD gap at which alternating projections have found an exposing vector.
    pocs: float = 1e-10
    # Relative singular-value cutoff of the compressed affine system: the
    # law rows the projection keeps and their null space alike; it also
    # decides the span in which facial reduction looks for an exposing vector.
    affine_rcond: float = 1e-12
    # Default width at which a cb-norm bracket counts as converged.
    cb_norm: float = 1e-3


TOL = Tolerances()
