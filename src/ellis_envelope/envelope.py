"""Injective envelopes as ranges of minimal idempotent channels.

The feasible set of unital CP maps fixing an operator system E is a compact
convex semigroup; minimal idempotents in it exist, and their ranges are the
injective envelopes of E (Hamana 1979). By Ellis' lemma one lies below any
idempotent. Here one ergodic projection takes the search there: from the
set's known idempotent member m (the identity for envelopes), f is the
ergodic idempotent of m . theta0 . m for the set's center theta0, the
member nearest the trace state x -> tr(x) I/n (``FeasibleSet.center``).
Then f . theta0 . f = f, which makes f minimal when theta0 lies in the
set's relative interior (``descend_to_minimal``). The start and the step
are deterministic. This module then bounds the compression violation
sup ||f . theta . f - f|| over members theta exactly (the map is affine in
theta, the set lies in a known affine slice, and f itself is the reference
member, so a bound that certifies reads no other member).

On the range of the minimal idempotent, x . y = e(x y) is an associative
product (Choi-Effros 1977); ``choi_effros_table`` tabulates it over an
orthonormal basis, batched in vec coordinates.

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

from .channels import ChannelMap, NonConvergenceError, _require_unital_cp, cesaro_idempotent
from .linalg import OperatorSubspace, frobenius, herm, matrix_to_json
from .spectrahedron import FeasibleSet, _face_pairs, build_system_set
from .tolerances import TOL

# ------------------------------------------------------------------------
# two-by-two corner lift


def paulsen_lift(space: OperatorSubspace) -> OperatorSubspace:
    """Operator system in M_{2n} generated by E placed in the corners.

    Returns span{ [[a I, x], [y*, b I]] : x, y in E }, which is unital and
    selfadjoint by construction. The four blocks are pairwise orthogonal, so
    the dimension is exactly 2 dim(E) + 2.
    """
    n = space.n
    gens = [_embed_diag(np.eye(n), 0, n), _embed_diag(np.eye(n), 1, n)]
    for x in space.mats:
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
    # columns of S_big at the corner units: rows (a, n+b) are the map, the rest leaks
    cols = big.superop.reshape(2 * n, 2 * n, 2 * n, 2 * n)[:, :, :n, n:]
    s = cols[:n, n:].reshape(n * n, n * n)
    leak = np.abs(cols) ** 2
    leak[:n, n:] = 0.0
    worst = float(np.sqrt(leak.sum(axis=(0, 1)).max()))
    if worst > TOL.solver:
        raise ValueError(f"corner_extract: corner leakage {worst:.3e} > {TOL.solver:.1e}")
    return ChannelMap.from_superop(s, n, n)


# ------------------------------------------------------------------------
# exact minimality test and rank descent


def probe_minimality(e: ChannelMap, fset: FeasibleSet) -> float:
    """Upper bound on sup ||e . theta . e - e||_F over the members theta of ``fset``.

    e must be unital CP and a member of ``fset`` (to tolerance); it is its
    own reference point. g(theta) = S_e S_theta S_e - S_e is affine in
    theta. Every member's Choi matrix lies in the affine slice J_p + H,
    J_p = ``fset.member`` and H the Hermitian part of range(P), P the law
    projector of ``FeasibleSet``; let eps = ||(I - Pi_H)(J_e - J_p)||_F be
    the measured distance of e from the slice. For a member theta,

        J_theta - J_e = D + (I - Pi_H)(J_p - J_e),   D = Pi_H(J_theta - J_e),

    and ||D||_F <= ||J_theta - J_e||_F <= 2n, since both Choi matrices are
    PSD with trace n. X -> S_e S_X S_e has Frobenius gain ||S_e||_2^2 <= n:
    for unital CP e, Kadison-Schwarz gives ||e(x)||_2 <= sqrt(n) ||x||_2
    (see ``check_absorption``), and ||S_X||_F = ||X||_F. With sigma a bound
    on the gain of L: D -> S_e S_D S_e on H, ||L(D)||_F <= sigma ||D||_F,

        ||g(theta)|| <= ||g(e)|| + 2 n sigma + n eps.

    The eps term keeps this a proof when e is a member only to
    ``TOL.certify``. J_p is on the slice: S = I for the identity, and a
    T-set's J_p = Ces(phi) and W = (vec F_phi)^perp come from one cut of one
    SVD, so W^* S_{J_p} = 0 to rounding. Returns that bound: a proof up to
    the facial-reduction and solver tolerances, not a search result,
    reading no member but e and J_p.

    On a proper face, D = sum_i c_i D_i over a real-orthonormal basis D_i
    of H with ||c|| = ||D||_F, so ||L(D)||_F <= ||D||_F ||G||_F by
    Cauchy-Schwarz, G the stack of the L(D_i), and sigma = ||G||_F.
    ``_slice_probe`` computes it without the basis, in face coordinates
    D = V Y V^*:

    - Complex kernel. The law map Y -> (S_D U, W^* S_D) is complex linear,
      and its kernel H_C is closed under Y -> Y^* (P is
      Hermitian-preserving), so H_C = H + iH. tr(Y_i Y_j) is real on H, so
      the D_i are a complex-orthonormal basis of H_C, and ||G||_F is the
      Hilbert-Schmidt norm of L on H_C: ||Pi^T Z||_F, with row (k, l) of
      Z holding L(V E_kl V^*) and Pi the orthogonal projector onto H_C.
    - Kronecker form. For v_k = vec M_k, v_k v_l^* = V E_kl V^* has
      S[(a,b),(i,j)] = M_k[i,a] conj(M_l[j,b]), the map X -> K_k X K_l^*
      with K_k = M_k^T (``FeasibleSet.face_factors``). The law
      coefficients and Z are pairings <A, K_k B K_l^*> of n x n matrices
      (``_face_pairs``). With Q = ``fset.face_law_span``,
      Pi = I - conj(Q) Q^T and ||Pi^T Z||_F = ||Z - Q Q^* Z||_F.
    - The tau term. With S_e = O diag(s) R^*, ||S_e X S_e||_F =
      ||B X C||_F for B = diag(s) R^* and C = O diag(s). Keeping the rho
      singular values above float eps times s_0 leaves S_e = S' + T with
      ||T||_2 = tau, which moves ||S_e X S_e||_F by at most
      (2 s_0 tau + tau^2) ||X||_F. So Z needs rho^2 columns, and
      sigma = ||Z - Q Q^* Z||_F + 2 s_0 tau + tau^2.

    eps is an orthogonal split: V herm(Pi y) V^*, y = vec V^*(J_e - J_p)V,
    is the projection of J_e - J_p onto H, and the rest is off the slice.

    On the full face, range(P) =
    {D : S_D = (I - W W^*) S_D (I - U U^*)}, U and W the set's ``span_in``
    and ``span_out``, so L(D) = A S_D B with A = S_e (I - W W^*) and
    B = (I - U U^*) S_e; as U spans vec E, B = 0 exactly when range(e) lies
    in E. Over complex D in range(P), which contains H, the sup of
    ||L(D)||_F / ||D||_F is ||A||_2 ||B||_2, attained at S_D = v_A u_B^*
    (top right singular vector of A, top left one of B). It is also the
    least sigma on H: P is Hermitian-preserving, so range(P) = H + iH, and
    for X, Y in H and CP e the maps L(X), L(Y) have Hermitian Choi matrices
    with a real inner product, so ||L(X + iY)||^2 = ||L(X)||^2 +
    ||L(Y)||^2 <= s^2 ||X + iY||^2 with s the gain on H, and one Hermitian
    part of the attaining D attains s. As P is an orthogonal projector,
    eps = ||``fset.law_project``(J_e - J_p)||_F there.
    """
    probe = _full_face_probe if fset.face_dim == fset.choi_dim else _slice_probe
    eps, sigma = probe(e, fset)
    se = e.superop
    return frobenius(se @ se @ se - se) + fset.n * eps + 2 * fset.n * sigma


def _slice_probe(e: ChannelMap, fset: FeasibleSet) -> tuple[float, float]:
    """eps and sigma of ``probe_minimality`` in face coordinates, from Q = ``fset.face_law_span``."""
    n, r, v, q = fset.n, fset.face_dim, fset.face, fset.face_law_span
    u, s, vh = np.linalg.svd(e.superop)
    rho = int(np.sum(s > np.finfo(float).eps * s[0]))
    tau = s[rho] if rho < len(s) else 0.0
    left = (s[:rho, None] * vh[:rho]).conj().reshape(rho, n, n)  # conj rows of B_e
    right = (u[:, :rho] * s[:rho]).T.reshape(rho, n, n)  # columns of C_e
    z = _face_pairs(left, fset.face_factors, right)
    sigma = frobenius(z - q @ (q.conj().T @ z)) + float(2 * s[0] * tau + tau**2)
    off = e.choi - fset.member
    y = (v.conj().T @ off @ v).reshape(-1)
    on_slice = herm((y - q.conj() @ (q.T @ y)).reshape(r, r))
    return frobenius(off - v @ on_slice @ v.conj().T), sigma


def _full_face_probe(e: ChannelMap, fset: FeasibleSet) -> tuple[float, float]:
    """eps and sigma of ``probe_minimality`` in closed form on the full face:
    A = S_e (I - W W^*) and B = (I - U U^*) S_e, U, W = ``span_in``, ``span_out``."""
    se, u, w = e.superop, fset.span_in, fset.span_out
    eps = frobenius(fset.law_project(e.choi - fset.member))
    a = se - (se @ w) @ w.conj().T
    b = se - u @ (u.conj().T @ se)
    return eps, float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))


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
    """Ergodic idempotent of a member, checked to be an idempotent unital CP member.

    The check applies the tolerances ``choi_effros_table`` requires later.
    A Cesaro failure, or a result that fails the check, raises
    ``NonConvergenceError`` with history [(0, residual)]: the worst
    membership residual, or inf when no idempotent was produced.
    """
    try:
        e = cesaro_idempotent(theta).idempotent
    except (ValueError, NonConvergenceError):
        worst = np.inf
    else:
        if _member_idempotent(e, fset):
            return e
        worst = fset.membership(e).worst
    raise NonConvergenceError("seed_idempotent: the ergodic idempotent is not an idempotent member", [(0, worst)])


@dataclass(frozen=True)
class DescentResult:
    """Outcome of the one-step rank descent.

    certificate: "certified" (``violation``, the bound of
    ``probe_minimality`` on sup ||e . theta . e - e||, is at most tol) or
    "unverified" (the bound exceeds tol). ``trace`` holds the two rows
    (0, rank(e0), 0.0) and (1, rank(f), ||e0 . theta0 . e0 - e0||_F).
    """

    idempotent: ChannelMap
    certificate: str
    violation: float
    trace: tuple[tuple[int, int, float], ...]


def descend_to_minimal(fset: FeasibleSet, e0: ChannelMap, tol: float = TOL.certify) -> DescentResult:
    """One step from the idempotent member ``e0`` to f = Ces(e0 . theta0 . e0).

    Ellis' lemma with one fixed member, theta0 = ``fset.center``, in a
    single ergodic projection. f is the ergodic idempotent of
    p = e0 . theta0 . e0, a limit of averages of the powers p^k =
    e0 . (theta0 . e0)^k, so e0 . f = f . e0 = f, and f absorbs p: f . p = f.
    Hence f . theta0 . f = (f . e0) . theta0 . (e0 . f) = f . p . f = f, and
    a second step from f would return f: there is none to take. For a
    boundary, e0 = Ces(phi), and f . e0 = f makes the bound cover the plain
    system set (``compute_boundary``) and gives f . phi = f (``check_absorption``).

    f . theta0 . f = f makes f minimal when the compression of theta0 is
    positive definite, which puts theta0 in the set's relative interior:
    every member theta gives theta0 = t theta + (1 - t) theta' with t > 0
    and theta' a member. range(f) with x . y = f(x y) is a C*-algebra
    (Choi-Effros 1977) whose unitaries are extreme in its unit ball
    (Kadison 1951), so the identity there is extreme among unital CP
    self-maps, and f . theta . f = f for every member theta. A singular
    compression gives no such guarantee, and ``probe_minimality`` decides:
    "certified" if its bound on f is at most tol, otherwise "unverified".
    A Cesaro failure raises ``NonConvergenceError`` (``seed_idempotent``).
    """
    if not _member_idempotent(e0, fset):
        raise ValueError(
            "descend_to_minimal: e0 is not an idempotent member of the set "
            f"(membership worst {fset.membership(e0).worst:.3e}, "
            f"idempotency {frobenius(e0.superop @ e0.superop - e0.superop):.3e})"
        )
    se = e0.superop
    sp = se @ (fset.center.superop @ se)
    f = seed_idempotent(ChannelMap.from_superop(sp, fset.n, fset.n), fset)
    bound = probe_minimality(f, fset)
    certificate = "certified" if bound <= tol else "unverified"
    trace = ((0, e0.rank(), 0.0), (1, f.rank(), frobenius(sp - se)))
    return DescentResult(f, certificate, bound, trace)


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
            "coefficients_re": np.round(self.coefficients.real, 14),
            "coefficients_im": np.round(self.coefficients.imag, 14),
            "associativity_residual": float(self.associativity_residual),
            "unit_residual": float(self.unit_residual),
            "closure_residual": float(self.closure_residual),
        }


def _max_row_norm(a: np.ndarray) -> float:
    """Largest Euclidean norm of a row of a: the Frobenius norm of the matrix it vectorizes."""
    sq = np.ascontiguousarray(a).view(np.float64)
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", sq, sq), initial=0.0)))


def _product_maps(e: ChannelMap, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x -> e(x m) and x -> e(m x) for each m of a stack, as right factors on row-major vec(x).

    vec(x m) = vec(x) (I (x) m), vec(m x) = vec(x) (m^T (x) I), and e acts
    as vec(y) -> vec(y) S_e^T. Both stacks have shape (k, n^2, n^2).
    """
    k, n = len(mats), e.dim_in
    eye = np.eye(n)
    st = e.superop.T
    right = np.einsum("pq,kab->kpaqb", eye, mats).reshape(k, n * n, n * n) @ st
    left = np.einsum("kqp,ab->kpaqb", mats, eye).reshape(k, n * n, n * n) @ st
    return right, left


def choi_effros_table(e: ChannelMap, f_basis: OperatorSubspace) -> ChoiEffrosTable:
    """Expand x . y = e(x y) over the basis m_1..m_d of F = range(e).

    Batched over the basis in row-major vec coordinates (``_product_maps``).
    Concatenated over l, the maps x -> e(x m_l) form one (n^2, d n^2)
    matrix R, so the products e(m_i m_j) are the rows of vecs R, and the
    coefficients c[i, j, k] = <m_k, e(m_i m_j)> and their reconstruction
    are one product each. Each residual is a maximum over the same terms as
    the entrywise definition: closure over (i, j), unit over m_k (both
    sides), and associativity ||e(e(m_i m_j) m_l) - e(m_i e(m_j m_l))||_F
    over (i, j, l), taken one i at a time so that memory stays at d^2 n^2.
    """
    _require_unital_cp(e, "choi_effros_table")
    n, d, vecs = e.dim_in, f_basis.dim, f_basis.vecs()
    drift = _max_row_norm(vecs @ e.superop.T - vecs)
    if drift > TOL.certify:
        raise ValueError(
            f"choi_effros_table: basis is not fixed by e (drift {drift:.3e}); "
            "pass the range of e"
        )
    times, times_left = _product_maps(e, f_basis.mats)
    times = times.transpose(1, 0, 2).reshape(n * n, d * n * n)  # R
    prods = (vecs @ times).reshape(d * d, n * n)  # row (i, j): e(m_i m_j)
    c = prods @ vecs.conj().T
    closure = _max_row_norm(prods - c @ vecs)
    assoc = 0.0
    for i in range(d):
        left = (prods[i * d : (i + 1) * d] @ times).reshape(d * d, n * n)  # row (j, l): e(e(m_i m_j) m_l)
        right = prods @ times_left[i]  # row (j, l): e(m_i e(m_j m_l))
        assoc = max(assoc, _max_row_norm(left - right))
    unit_right, unit_left = _product_maps(e, e.apply(np.eye(n))[None])
    unit = max(_max_row_norm(vecs @ unit_left[0] - vecs), _max_row_norm(vecs @ unit_right[0] - vecs))
    return ChoiEffrosTable(c.reshape(d, d, d), assoc, unit, closure)


# ------------------------------------------------------------------------
# envelope assembly


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope of an operator space, with its certificates.

    In system mode ``idempotent`` acts on the ambient M_n and
    ``envelope_space`` is its range. In space mode the idempotent acts on
    the lifted M_{2n}, ``corner_map`` is its upper-right compression, and
    ``envelope_space`` is the corner map's range (the envelope of E itself);
    the multiplication table always lives on the idempotent's range,
    ``idempotent_range``, over which the report factors the idempotent.
    """

    space: OperatorSubspace
    mode: str
    idempotent: ChannelMap
    idempotent_range: OperatorSubspace
    envelope_space: OperatorSubspace
    corner_map: ChannelMap | None
    inclusion_residual: float
    rigidity_violation: float
    certificate: str
    descent_trace: tuple[tuple[int, int, float], ...]
    choi_effros: ChoiEffrosTable
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
            "idempotent": self.idempotent.to_json(self.idempotent_range),
            "envelope_basis": [matrix_to_json(m) for m in self.envelope_space.mats],
            "descent_trace": [[it, rk, float(res)] for it, rk, res in self.descent_trace],
            "choi_effros": self.choi_effros.to_json(),
            "tol": self.tol,
        }
        if self.corner_map is not None:
            out["corner_map"] = self.corner_map.to_json(self.envelope_space)
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
    ("space"). The descent steps once from the identity, the set's known
    member, so the result is deterministic and ``seed`` is unused: it is
    accepted only for callers that still pass one. The returned certificate
    is inherited from the descent.
    """
    if mode not in ("auto", "system", "space"):
        raise ValueError(f"compute_envelope: unknown mode {mode!r}")
    if mode == "auto":
        mode = "system" if (space.unital and space.selfadjoint) else "space"
    if mode == "space":
        lifted = paulsen_lift(space)
        inner = compute_envelope(lifted, mode="system", tol=tol)
        corner = corner_extract(inner.idempotent)
        env = corner.range_basis()
        inclusion = max(env.distance(x) for x in space.mats)
        return EnvelopeResult(
            space=space,
            mode="space",
            idempotent=inner.idempotent,
            idempotent_range=inner.idempotent_range,
            envelope_space=env,
            corner_map=corner,
            inclusion_residual=inclusion,
            rigidity_violation=inner.rigidity_violation,
            certificate=inner.certificate,
            descent_trace=inner.descent_trace,
            choi_effros=inner.choi_effros,
            tol=tol,
        )
    fset = build_system_set(space)
    des = descend_to_minimal(fset, ChannelMap(fset.n, fset.n, fset.member), tol=tol)
    e = des.idempotent
    f_basis = e.range_basis()
    inclusion = max(f_basis.distance(x) for x in space.mats)
    table = choi_effros_table(e, f_basis)
    return EnvelopeResult(
        space=space,
        mode="system",
        idempotent=e,
        idempotent_range=f_basis,
        envelope_space=f_basis,
        corner_map=None,
        inclusion_residual=inclusion,
        rigidity_violation=des.violation,
        certificate=des.certificate,
        descent_trace=des.trace,
        choi_effros=table,
        tol=tol,
    )
