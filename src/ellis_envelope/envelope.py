"""Injective envelopes as ranges of minimal idempotent channels.

The feasible set of unital CP maps fixing an operator system E is a compact
convex semigroup; minimal idempotents in it exist, and their ranges are the
injective envelopes of E. This module finds one by rank descent: starting
from the ergodic idempotent of a sampled member, it bounds the compression
violation sup ||e . theta . e - e|| over members theta exactly (the map is
affine in theta, and the set lies in a known affine slice), and while the
bound exceeds tolerance, builds a member theta along the violating direction
and replaces e by the ergodic idempotent of e . theta . e, which has
strictly smaller rank whenever it differs from e.

Plain operator spaces (not unital or not selfadjoint) are handled through
the two-by-two corner lift: E is embedded off-diagonally into an operator
system in M_{2n}, the system machinery runs there, and the envelope is read
back off the upper-right corner of the minimal idempotent.

"certified" means the bound on sup ||e . theta . e - e|| is at most the
tolerance: a proof of minimality up to the facial-reduction and solver
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelMap,
    NonConvergenceError,
    _require_unital_cp,
    cesaro_idempotent,
    compose,
)
from .linalg import SubspaceBasis, frobenius, herm, hermitian_eig, matrix_to_json
from .spectrahedron import FeasibleSet, OperatorSubspace, build_system_set, sample
from .tolerances import TOL

# Fixed-space thresholds ``seed_idempotent`` tries in turn, finest first.
SEED_SV_RTOLS = (TOL.fixed_space, 1e-6)


# ------------------------------------------------------------------------
# two-by-two corner lift


def paulsen_lift(space: OperatorSubspace) -> OperatorSubspace:
    """Operator system in M_{2n} generated by E placed in the corners.

    Returns span{ [[a I, x], [y*, b I]] : x, y in E }, which is unital and
    selfadjoint by construction. The four blocks are pairwise orthogonal, so
    the dimension is exactly 2 dim(E) + 2.
    """
    n = space.ambient
    gens = [_embed_diag(np.eye(n), 0, n), _embed_diag(np.eye(n), 1, n)]
    for x in space.basis.mats:
        gens.append(_embed_corner(x, n))
        gens.append(_embed_corner(x, n).conj().T)
    return OperatorSubspace.from_matrices(gens)


def _embed_corner(x: np.ndarray, n: int) -> np.ndarray:
    z = np.zeros((2 * n, 2 * n), dtype=complex)
    z[:n, n:] = x
    return z


def _embed_diag(x: np.ndarray, which: int, n: int) -> np.ndarray:
    z = np.zeros((2 * n, 2 * n), dtype=complex)
    blk = slice(n, 2 * n) if which else slice(0, n)
    z[blk, blk] = x
    return z


def corner_extract(big: ChannelMap) -> ChannelMap:
    """Upper-right corner compression x -> [big([[0, x], [0, 0]])]_{12}.

    ``big`` must fix the two corner projections (automatic for maps fixing a
    lifted system); such maps hold the projections in their multiplicative
    domain, so the image of a corner-supported matrix must stay in that
    corner. Mass appearing outside it means ``big`` does not respect the
    block structure, and that is reported as an error rather than truncated.
    """
    if big.dim_in != big.dim_out or big.dim_in % 2:
        raise ValueError("corner_extract: need a square map on M_{2n}")
    n = big.dim_in // 2
    for which in (0, 1):
        p = _embed_diag(np.eye(n), which, n)
        drift = frobenius(big.apply(p) - p)
        if drift > TOL.certify:
            raise ValueError(
                f"corner_extract: map moves corner projection {which} by {drift:.3e}"
            )
    s = np.zeros((n * n, n * n), dtype=complex)
    worst = 0.0
    for r in range(n):
        for q in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[r, q] = 1.0
            z = big.apply(_embed_corner(unit, n))
            block = z[:n, n:]
            rest = z.copy()
            rest[:n, n:] = 0.0
            worst = max(worst, frobenius(rest))
            s[:, r * n + q] = block.reshape(-1)
    if worst > TOL.solver:
        raise ValueError(f"corner_extract: corner leakage {worst:.3e} > {TOL.solver:.1e}")
    return ChannelMap.from_superop(s, n, n)


# ------------------------------------------------------------------------
# exact minimality test and rank descent


def _violation(e: ChannelMap, theta: ChannelMap) -> float:
    se = e.superop
    return frobenius(se @ theta.superop @ se - se)


def probe_minimality(e: ChannelMap, fset: FeasibleSet) -> tuple[float, np.ndarray | None]:
    """Upper bound on sup ||e . theta . e - e||_F over the members theta of ``fset``.

    g(theta) = S_e S_theta S_e - S_e is affine in theta, and every member is
    theta0 + D for the reference member theta0 = ``fset.center`` and some D
    in the span of ``fset.null_directions``. A member's Choi matrix is PSD
    with trace n, so ||D||_F <= 2n, and with sigma the largest singular
    value of D -> S_e S_D S_e on that span,

        ||g(theta)|| <= ||g(theta0)|| + 2 n sigma.

    Returns that bound and the unit Choi direction attaining sigma (None
    when the slice is a single point). The bound is a proof up to the
    facial-reduction and solver tolerances, not a search result.
    """
    se = e.superop
    bound = _violation(e, fset.center)
    dirs = fset.null_directions
    if not len(dirs):
        return bound, None
    k, n = len(dirs), fset.n
    s_dirs = dirs.reshape(k, n, n, n, n).transpose(0, 2, 4, 1, 3).reshape(k, n * n, n * n)
    g = (se @ s_dirs @ se).reshape(k, -1)
    u, sv, _ = np.linalg.svd(np.hstack([g.real, g.imag]), full_matrices=False)
    direction = np.tensordot(u[:, 0], dirs, axes=1)
    return bound + 2 * n * float(sv[0]), direction


def _smaller_idempotent(
    e: ChannelMap, fset: FeasibleSet, direction: np.ndarray
) -> tuple[ChannelMap, float] | None:
    """An idempotent member of strictly smaller rank than e, or None.

    Steps from theta0 = ``fset.center`` along ``direction`` by half the
    largest step keeping the compressed Choi matrix PSD (one eigenvalue
    problem against the Cholesky factor of Y0), trying both signs. The
    ergodic idempotent f of e . theta . e has rank(f) < rank(e) unless
    e . theta . e = e. None means no member along the direction could be
    built: Y0 is singular (the face is incomplete) or no step dropped the
    rank. Returns f with the violation of the theta that produced it.
    """
    theta0 = fset.center
    try:
        chol = np.linalg.cholesky(fset.compress(theta0.choi))
    except np.linalg.LinAlgError:
        return None
    linv = np.linalg.inv(chol)
    mu = hermitian_eig(herm(linv @ fset.compress(direction) @ linv.conj().T)).values
    for sign in (1.0, -1.0):
        worst = float(np.max(-sign * mu))  # Y0 + t sign D is PSD iff t * worst <= 1
        if worst <= 0:
            continue
        theta = ChannelMap(fset.n, fset.n, herm(theta0.choi + (0.5 * sign / worst) * direction))
        if not fset.membership(theta).ok:
            continue
        try:
            f = seed_idempotent(compose(e, compose(theta, e)), fset)
        except NonConvergenceError:
            continue
        if f.rank() < e.rank():
            return f, _violation(e, theta)
    return None


def _member_idempotent(e: ChannelMap, fset: FeasibleSet) -> bool:
    try:
        _require_unital_cp(e, "idempotent")
    except ValueError:
        return False
    return (
        fset.membership(e, tol=TOL.certify).ok
        and frobenius(e.superop @ e.superop - e.superop) <= TOL.ucp
    )


def seed_idempotent(theta: ChannelMap, fset: FeasibleSet) -> ChannelMap:
    """Ergodic idempotent of a member, robust to projection-level noise.

    Projected members are exact to rounding, but if noise lifts a fixed
    direction of S_theta - I above the finest threshold (near-identity
    samples from very rigid sets), retry with the coarser one until the
    result is an idempotent unital CP member to the tolerances
    ``choi_effros_table`` requires later; every rung is checked, so
    loosening cannot produce a bad seed.
    """
    failures: list[tuple[int, float]] = []
    for k, sv_rtol in enumerate(SEED_SV_RTOLS):
        try:
            e = cesaro_idempotent(theta, sv_rtol=sv_rtol).idempotent
        except (ValueError, NonConvergenceError):
            failures.append((k, np.inf))
            continue
        if _member_idempotent(e, fset):
            return e
        failures.append((k, fset.membership(e).worst))
    raise NonConvergenceError(
        "seed_idempotent: no threshold produced an idempotent member", failures
    )


@dataclass(frozen=True)
class DescentResult:
    """Outcome of the rank descent.

    certificate: "certified" (``violation``, the bound of
    ``probe_minimality`` on sup ||e . theta . e - e||, is at most tol) or
    "unverified" (the bound exceeds tol, but no member along the violating
    direction could be built). ``trace`` holds (round, rank, violation of
    the member that drove the step), starting with (0, rank(e0), 0.0).
    """

    idempotent: ChannelMap
    certificate: str
    violation: float
    trace: tuple[tuple[int, int, float], ...]


def descend_to_minimal(fset: FeasibleSet, e0: ChannelMap, tol: float = TOL.certify) -> DescentResult:
    """Rank descent from the idempotent member ``e0`` to a minimal one.

    Each round bounds the violation exactly; above tol, a member theta along
    the violating direction gives the ergodic idempotent f of e . theta . e,
    with f = e f e and rank(f) < rank(e). Strict rank decrease bounds the
    number of rounds by rank(e0).
    """
    if not _member_idempotent(e0, fset):
        raise ValueError(
            "descend_to_minimal: e0 is not an idempotent member of the set "
            f"(membership worst {fset.membership(e0).worst:.3e}, "
            f"idempotency {frobenius(e0.superop @ e0.superop - e0.superop):.3e})"
        )
    e = e0
    trace: list[tuple[int, int, float]] = [(0, e.rank(), 0.0)]
    while True:
        bound, direction = probe_minimality(e, fset)
        if bound <= tol:
            return DescentResult(e, "certified", bound, tuple(trace))
        step = None if direction is None else _smaller_idempotent(e, fset, direction)
        if step is None:
            return DescentResult(e, "unverified", bound, tuple(trace))
        e, v = step
        trace.append((len(trace), e.rank(), v))


# ------------------------------------------------------------------------
# multiplication table on the range of an idempotent


@dataclass(frozen=True)
class ChoiEffrosTable:
    """Structure constants of x . y := e(x y) on an orthonormal basis of F.

    For a unital CP idempotent e with range F this is an associative product
    with unit e(I); the residuals measure how far the computed e is from
    that ideal. An associativity residual above ``TOL.certify`` flags that e
    is not an idempotent UCP map to tolerance.
    """

    coefficients: np.ndarray
    associativity_residual: float
    unit_residual: float
    closure_residual: float

    @property
    def ok(self) -> bool:
        return self.associativity_residual <= TOL.certify

    def to_json(self) -> dict:
        return {
            "coefficients_re": np.round(self.coefficients.real, 14).tolist(),
            "coefficients_im": np.round(self.coefficients.imag, 14).tolist(),
            "associativity_residual": float(self.associativity_residual),
            "unit_residual": float(self.unit_residual),
            "closure_residual": float(self.closure_residual),
        }


def choi_effros_table(e: ChannelMap, f_basis: SubspaceBasis) -> ChoiEffrosTable:
    """Expand x . y = e(x y) over the basis of F = range(e)."""
    _require_unital_cp(e, "choi_effros_table")
    mats = f_basis.mats
    drift = max(frobenius(e.apply(m) - m) for m in mats)
    if drift > TOL.certify:
        raise ValueError(
            f"choi_effros_table: basis is not fixed by e (drift {drift:.3e}); "
            "pass the range of e"
        )
    d = len(mats)
    prods = [[e.apply(mats[i] @ mats[j]) for j in range(d)] for i in range(d)]
    c = np.zeros((d, d, d), dtype=complex)
    closure = 0.0
    for i in range(d):
        for j in range(d):
            recon = np.zeros_like(prods[i][j])
            for k in range(d):
                c[i, j, k] = np.trace(mats[k].conj().T @ prods[i][j])
                recon = recon + c[i, j, k] * mats[k]
            closure = max(closure, frobenius(prods[i][j] - recon))
    assoc = 0.0
    for i in range(d):
        for j in range(d):
            for l in range(d):
                left = e.apply(prods[i][j] @ mats[l])
                right = e.apply(mats[i] @ prods[j][l])
                assoc = max(assoc, frobenius(left - right))
    u = e.apply(np.eye(e.dim_in))
    unit = 0.0
    for m in mats:
        unit = max(unit, frobenius(e.apply(u @ m) - m), frobenius(e.apply(m @ u) - m))
    return ChoiEffrosTable(c, assoc, unit, closure)


# ------------------------------------------------------------------------
# envelope assembly


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope of an operator space, with its certificates.

    In system mode ``idempotent`` acts on the ambient M_n and
    ``envelope_space`` is its range. In space mode the idempotent acts on
    the lifted M_{2n}, ``corner_map`` is its upper-right compression, and
    ``envelope_space`` is the corner map's range (the envelope of E itself);
    the multiplication table always lives on the idempotent's range.
    """

    space: OperatorSubspace
    mode: str
    idempotent: ChannelMap
    envelope_space: SubspaceBasis
    corner_map: ChannelMap | None
    inclusion_residual: float
    rigidity_violation: float
    certificate: str
    descent_trace: tuple[tuple[int, int, float], ...]
    choi_effros: ChoiEffrosTable
    seed: int
    tol: float

    @property
    def rank(self) -> int:
        return self.envelope_space.dim

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "rank": self.rank,
            "certificate": self.certificate,
            "rigidity_violation": float(self.rigidity_violation),
            "inclusion_residual": float(self.inclusion_residual),
            "idempotent": self.idempotent.to_json(),
            "envelope_basis": [matrix_to_json(m) for m in self.envelope_space.mats],
            "descent_trace": [[it, rk, float(res)] for it, rk, res in self.descent_trace],
            "choi_effros": self.choi_effros.to_json(),
            "seed": self.seed,
            "tol": self.tol,
        }
        if self.corner_map is not None:
            out["corner_map"] = self.corner_map.to_json()
        return out


def compute_envelope(
    space: OperatorSubspace,
    mode: str = "auto",
    seed: int = 0,
    tol: float = TOL.certify,
) -> EnvelopeResult:
    """Injective envelope of an operator space or system.

    mode "auto" dispatches on the structure flags: unital selfadjoint spaces
    run directly ("system"), everything else goes through the corner lift
    ("space"). ``seed`` picks the sampled member the descent starts from.
    The returned certificate is inherited from the descent.
    """
    if mode not in ("auto", "system", "space"):
        raise ValueError(f"compute_envelope: unknown mode {mode!r}")
    if mode == "auto":
        mode = "system" if (space.unital and space.selfadjoint) else "space"
    if mode == "space":
        lifted = paulsen_lift(space)
        inner = compute_envelope(lifted, mode="system", seed=seed, tol=tol)
        corner = corner_extract(inner.idempotent)
        env = corner.range_basis()
        inclusion = max(env.distance(x) for x in space.basis.mats)
        return EnvelopeResult(
            space=space,
            mode="space",
            idempotent=inner.idempotent,
            envelope_space=env,
            corner_map=corner,
            inclusion_residual=inclusion,
            rigidity_violation=inner.rigidity_violation,
            certificate=inner.certificate,
            descent_trace=inner.descent_trace,
            choi_effros=inner.choi_effros,
            seed=seed,
            tol=tol,
        )
    fset = build_system_set(space)
    e0 = seed_idempotent(sample(fset, seed), fset)
    des = descend_to_minimal(fset, e0, tol=tol)
    e = des.idempotent
    f_basis = e.range_basis()
    inclusion = max(f_basis.distance(x) for x in space.basis.mats)
    table = choi_effros_table(e, f_basis)
    return EnvelopeResult(
        space=space,
        mode="system",
        idempotent=e,
        envelope_space=f_basis,
        corner_map=None,
        inclusion_residual=inclusion,
        rigidity_violation=des.violation,
        certificate=des.certificate,
        descent_trace=des.trace,
        choi_effros=table,
        seed=seed,
        tol=tol,
    )
