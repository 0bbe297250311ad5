"""Fixed spaces of unital channels and the idempotents absorbed by them.

For a unital CP map phi, the members of {theta UCP : phi . theta = theta,
theta(x) = x on E} form a compact convex semigroup whose idempotents have
ranges inside the fixed space F_phi; the Cesaro idempotent of phi itself
belongs to it. A minimal idempotent there carries the boundary structure:
its range together with the multiplication x . y = e(x y) is the
noncommutative Poisson boundary of phi relative to E, and the inclusion of
E in it is rigid. This one set decides both: the minimality bound over it
also bounds e . theta . e - e over every UCP theta fixing E.

Normality hypotheses on phi are vacuous at matrix scale; nothing is imposed.
No bidual construction is attempted (the bidual of B(H) is not injective,
so the infinite-dimensional theory does not reduce to this artifact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelMap,
    ErgodicResult,
    cesaro_idempotent,
    check_absorption,
)
from .envelope import (
    ChoiEffrosTable,
    choi_effros_table,
    descend_to_minimal,
)
from .linalg import OperatorSubspace, frobenius, matrix_to_json
from .spectrahedron import FeasibleSet, build_system_set
from .tolerances import TOL


def build_T_set(
    space: OperatorSubspace, phi: ChannelMap, cesaro: ErgodicResult | None = None
) -> FeasibleSet:
    """Feasible set {theta UCP : phi . theta = theta, theta fixes ``space``}.

    Requires every basis element of the space to be fixed by ``phi``; members
    fix the space pointwise, so a violation would make the set empty (theta
    fixing x forces phi(x) = phi(theta(x)) = theta(x) = x). Once it holds,
    the Cesaro idempotent of ``phi`` is a member, and the set keeps it as the
    known member its affine slice is measured from. ``cesaro`` is
    ``cesaro_idempotent(phi)``, which checks that phi is unital CP, computed
    here when the caller has none; it also gives the absorb law's span W.
    """
    cesaro = cesaro_idempotent(phi) if cesaro is None else cesaro
    if phi.dim_in != space.n:
        raise ValueError("build_T_set: channel and space have different ambient dimensions")
    for k, x in enumerate(space.mats):
        res = frobenius(phi.apply(x) - x)
        if res > TOL.solver:
            raise ValueError(
                f"build_T_set: basis element {k} is not fixed by the channel "
                f"(residual {res:.3e} > {TOL.solver:.1e})"
            )
    return build_system_set(space, absorb=phi, cesaro=cesaro)


@dataclass(frozen=True)
class BoundaryResult:
    """Minimal absorbed idempotent of a channel over a fixed subspace.

    ``residuals`` carries the three defining checks: the boundary basis
    lies in F_phi ("range_in_fixed"), the idempotent is absorbed by the
    channel ("absorbed"), and the space is fixed by the channel
    ("space_in_fixed"). ``absorption_violation`` is max_k ||e phi^k e - e||
    for k up to ``ABSORPTION_POWERS``. ``rigidity_violation`` bounds
    sup ||e . theta . e - e||_F over every UCP theta fixing the space.
    """

    channel: ChannelMap
    space: OperatorSubspace
    fixed_space: OperatorSubspace
    idempotent: ChannelMap
    boundary_space: OperatorSubspace
    choi_effros: ChoiEffrosTable
    rigidity_violation: float
    absorption_violation: float
    certificate: str
    descent_trace: tuple[tuple[int, int, float], ...]
    residuals: dict[str, float]
    tol: float

    @property
    def rank(self) -> int:
        return self.boundary_space.dim

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "fixed_space_dim": self.fixed_space.dim,
            "certificate": self.certificate,
            "rigidity_violation": float(self.rigidity_violation),
            "absorption_violation": float(self.absorption_violation),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "idempotent": self.idempotent.to_json(),
            "boundary_basis": [matrix_to_json(m) for m in self.boundary_space.mats],
            "fixed_basis": [matrix_to_json(m) for m in self.fixed_space.mats],
            "descent_trace": [[it, rk, float(res)] for it, rk, res in self.descent_trace],
            "choi_effros": self.choi_effros.to_json(),
            "tol": self.tol,
        }


def compute_boundary(
    space: OperatorSubspace,
    phi: ChannelMap,
    seed: int = 0,
    tol: float = TOL.certify,
) -> BoundaryResult:
    """Minimal idempotent of the absorbed semigroup, with certificates.

    One descent step from the T-set's known member m, the Cesaro idempotent
    of phi, gives e with e . m = e (``descend_to_minimal``). Its bound,
    ``probe_minimality`` over the T-set T, is ``rigidity_violation``, and it
    also covers the plain system set P of ``space``: T lies in P; for theta
    in P, m . theta is in T (phi . m = m, and m fixes E); so
    e . (m . theta) . e = e . theta . e, and the sup of ||e . theta . e - e||
    over P is the sup over T. A certified e is minimal among the
    E-projections of M_n up to tol, and rigid over E. ``seed`` is unused
    (the descent is deterministic) and kept for callers that still pass it.
    """
    # one SVD of I - S_phi gives the T-set's known member, its span W and F_phi
    ces = cesaro_idempotent(phi)
    tset = build_T_set(space, phi, ces)
    des = descend_to_minimal(tset, ces.idempotent, tol=tol)
    e = des.idempotent
    boundary = e.range_basis()
    f_phi = ces.fixed_space
    residuals = {
        "range_in_fixed": max(f_phi.distance(m) for m in boundary.mats),
        "absorbed": frobenius(phi.superop @ e.superop - e.superop),
        "space_in_fixed": max(
            frobenius(phi.apply(x) - x) for x in space.mats
        ),
        "membership": tset.membership(e).worst,
    }
    return BoundaryResult(
        channel=phi,
        space=space,
        fixed_space=f_phi,
        idempotent=e,
        boundary_space=boundary,
        choi_effros=choi_effros_table(e, boundary),
        rigidity_violation=des.violation,
        absorption_violation=check_absorption(e, phi, boundary),
        certificate=des.certificate,
        descent_trace=des.trace,
        residuals=residuals,
        tol=tol,
    )
