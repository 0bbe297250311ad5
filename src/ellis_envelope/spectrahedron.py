"""Feasible sets of Choi matrices: affine constraints intersected with the PSD cone.

A set of unital CP maps with prescribed fixed points (and optionally a
left-absorption law psi . phi = phi) is a spectrahedron in Choi coordinates.
The fixed points span an operator system E, given as a
``linalg.OperatorSubspace``.
This module represents such sets, projects onto them exactly with a dual
semismooth Newton method, samples members and ascends linear functionals.

Each affine law is kept as the matrix that defines it: x for phi(x) = x,
S_psi - I for psi . phi = phi. Every law is a superoperator identity, read
on S = ``channels.choi_to_superop``(J): S vec x = vec x and
(S_psi - I) S = 0. The fix laws act on S from the right and the absorb law
from the left, so the directions every law leaves at zero are exactly
{(I - W W^*) S (I - U U^*)} for orthonormal columns U spanning vec E and W
spanning (vec F_psi)^perp, from the SVD that ``cesaro_idempotent`` takes,
and the orthogonal projection onto them is two products. The cone face comes
from the structure of E in closed form: for a PSD a in E with kernel
projection K, every member satisfies tr(K phi(a)) = tr(K a) = 0, so its
Choi matrix J is annihilated by the PSD matrix kron(a^T, K) (Choi 1974,
read as facial reduction in the sense of Permenter-Parrilo 2018). A known
member J_p (the identity channel, or psi's Cesaro idempotent) fixes the
affine slice. The projection's dual lives in full Choi coordinates and its
primal on the face J = V Y V^*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import (
    ChannelMap,
    ErgodicResult,
    NonConvergenceError,
    _hermitian_vecs,
    cesaro_idempotent,
    choi_to_superop,
    superop_to_choi,
)
from .channels import cb_norm_bracket  # noqa: F401  (the benchmark's traced run binds this name)
from .linalg import OperatorSubspace, as_matrix, frobenius, herm, hermitian_eig
from .tolerances import TOL

# Random combinations of E's Hermitian elements (fixed seed) that join the
# elements themselves in exposing the first face.
FACE_COMBINATIONS = 4

# Iteration budget of the dual Newton projection.
NEWTON_MAX_ITER = 200

# Smallest increase an ascent step must make to be accepted.
ASCENT_MIN_GAIN = 1e-12


# ------------------------------------------------------------------------
# constraint laws
#
# Each law is (name, matrix) and acts on the superoperator S of phi. A fix
# law with matrix x says phi(x) = x, i.e. S vec(x) = vec(x); "unital" is the
# fix law of I. The absorb law with matrix m = S_psi - I says psi . phi =
# phi, i.e. m S = 0.


def _row_span(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns u with ker(a) = range(I - u u^*).

    Singular values of a count when above ``TOL.affine_rcond`` times the largest.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[: int(np.sum(s > TOL.affine_rcond * s[0]))].conj().T


def _face_pairs(left: np.ndarray, k: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row (k, l), column (a, b): <left_a, K_k right_b K_l^*>, for stacks of n x n
    matrices, as <L_a K_l, K_k R_b>: two batched products and one matrix product."""
    r, n = len(k), k.shape[-1]
    kr = (k[:, None] @ right[None]).reshape(-1, n * n)  # row (k, b): K_k R_b
    lk = (left[None] @ k[:, None]).reshape(-1, n * n)  # row (l, a): L_a K_l
    pairs = (kr @ lk.conj().T).reshape(r, len(right), r, len(left))
    return pairs.transpose(0, 2, 3, 1).reshape(r * r, -1)


def _structural_face(laws, n: int) -> np.ndarray:
    """Isometry (n^2, r) onto a cone face holding every member's Choi matrix.

    Every member phi fixes each a in E. If a is PSD with kernel projection K,
    phi(a) is PSD and tr(K phi(a)) = tr(K a) = 0, which reads <W, J> = 0 for
    the PSD matrix W = kron(a^T, K); so J lies in ker W (Choi's
    multiplicative-domain argument read as facial reduction). The elements a
    are lambda_max I - x and x - lambda_min I for the Hermitian and
    skew-Hermitian parts x of the fix laws' matrices (E is selfadjoint, so
    they lie in E), scalars skipped, and ``FACE_COMBINATIONS`` random
    combinations of them; the face is the kernel of the sum of their W. Each
    kernel is cut at ``TOL.rank`` relative to max(1, lambda_max). The absorb
    law adds nothing. The identity channel fixes E, so its Choi matrix
    vec(I) vec(I)^* must lie in the face: a face missing it raises.
    """
    parts = []
    for name, m in laws:
        if name == "absorb":
            continue
        for x in (herm(m), herm(-1j * m)):
            if frobenius(x - np.trace(x).real / n * np.eye(n)) > TOL.structure * max(1.0, frobenius(x)):
                parts.append(x)
    if not parts:
        return np.eye(n * n, dtype=complex)
    if len(parts) > 1:
        coef = np.random.default_rng(0).standard_normal((FACE_COMBINATIONS, len(parts)))
        parts += list(np.einsum("ck,kij->cij", coef, np.stack(parts)))
    w = np.zeros((n * n, n * n), dtype=complex)
    for x in parts:
        eig = hermitian_eig(x)
        # both elements a share x's eigenvectors; these are their eigenvalues
        for a in (eig.values[-1] - eig.values, eig.values - eig.values[0]):
            kernel = eig.vectors[:, a <= TOL.rank * max(1.0, float(a.max()))]
            w += np.kron(((eig.vectors * a) @ eig.vectors.conj().T).T, kernel @ kernel.conj().T)
    eig = hermitian_eig(w)
    v = eig.vectors[:, eig.values <= TOL.rank * max(1.0, float(eig.values[-1]))]
    vec_eye = np.eye(n, dtype=complex).reshape(-1)
    miss = float(np.linalg.norm(vec_eye - v @ (v.conj().T @ vec_eye)))
    if miss > TOL.solver:
        raise RuntimeError(f"structural face misses the identity channel (residual {miss:.3e})")
    return v


@dataclass(frozen=True)
class MembershipReport:
    residuals: dict[str, float]
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def worst(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class FeasibleSet:
    """{Choi J : J PSD, the constraint laws hold}, facially reduced.

    Membership is always checked against the laws in full coordinates, each
    applied to the superoperator S of J. The directions every law leaves at
    zero are the range of P, which acts on J through S as
    P(S) = (I - W W^*) S (I - U U^*), where U = ``span_in`` spans vec E and
    carries the unital and fix laws, and W = ``span_out`` spans
    (vec F_psi)^perp, cut where ``cesaro_idempotent`` cuts F_psi, and carries
    the absorb law (W is empty without one). Both are orthonormal columns, so
    ``law_project``, which applies I - P, costs O(d^2 k) for spans of dimension k.
    P is self-adjoint, idempotent and Hermitian-preserving, and
    the members are the PSD matrices of J_p + range(P) for the known member
    J_p = ``member``. Projection works on the cone face J = V Y V^*, where V spans
    the face that E's structure exposes (``_structural_face``), found in one
    pass: feasible sets of interest often consist entirely of rank-deficient
    Choi matrices (zero Slater margin); on the face the set has relative
    interior. The nearest point in Y coordinates is the nearest point in J
    coordinates, because the set lies inside the span of {V Y V^*}. Should
    the face ever be larger than the smallest one, the set still lies in it:
    projections stall and minimality bounds are taken over a superset, so
    the failure is loud (``unverified`` or non-convergence), never a false
    certificate.
    """

    n: int
    laws: tuple[tuple[str, np.ndarray], ...]
    face: np.ndarray = field(repr=False, compare=False)  # (d, r) isometry V
    span_in: np.ndarray = field(repr=False, compare=False)  # (d, k) columns U: vec E
    span_out: np.ndarray = field(repr=False, compare=False)  # (d, k') columns W: (vec F_psi)^perp
    member: np.ndarray = field(repr=False, compare=False)  # (d, d) Choi matrix J_p of a member

    @classmethod
    def from_laws(cls, n: int, laws, member: np.ndarray, span_out: np.ndarray) -> "FeasibleSet":
        """The set of the laws, given a member's Choi matrix (not checked here) and W."""
        laws = tuple(laws)
        fixes = [m.reshape(-1) for name, m in laws if name != "absorb"]
        span_in = _row_span(np.stack(fixes)).conj()
        return cls(n, laws, _structural_face(laws, n), span_in, span_out, as_matrix(member, n * n, n * n))

    @property
    def choi_dim(self) -> int:
        return self.n * self.n

    @property
    def face_dim(self) -> int:
        return self.face.shape[1]

    def compress(self, j: np.ndarray) -> np.ndarray:
        return self.face.conj().T @ j @ self.face

    def expand(self, y: np.ndarray) -> np.ndarray:
        return self.face @ y @ self.face.conj().T

    @property
    def face_factors(self) -> np.ndarray:
        """K_k = M_k^T, shape (r, n, n), for the columns v_k = vec M_k of V: the face
        direction V E_kl V^* is the map X -> K_k X K_l^* (``probe_minimality``)."""
        return self.face.T.reshape(-1, self.n, self.n).transpose(0, 2, 1)

    @cached_property
    def face_law_span(self) -> np.ndarray:
        """Orthonormal columns Q (r^2, q): P(V Y V^*) = V Y V^* exactly when Q^T vec Y = 0.

        Q spans the range of the law map's coefficient matrix, whose row (k, l)
        holds S_D U and W^* S_D at Y = E_kl (``_face_pairs``), from one thin
        SVD cut at ``TOL.affine_rcond``; q is the law map's complex rank.
        """
        n, k = self.n, self.face_factors
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        fix = _face_pairs(units, k, self.span_in.T.reshape(-1, n, n))  # S_D U
        absorb = _face_pairs(self.span_out.T.reshape(-1, n, n), k, units)  # W^* S_D, empty without the law
        u, s, _ = np.linalg.svd(np.concatenate([fix, absorb], axis=1), full_matrices=False)
        return u[:, : int(np.sum(s > TOL.affine_rcond * s[0]))]

    @cached_property
    def center(self) -> ChannelMap:
        """The one member the descent step uses.

        The Frobenius-nearest member to the Choi matrix I/n of the trace
        state x -> tr(x) I/n, computed on first use. It is deterministic,
        and it is I/n itself whenever the trace state is a member (span{I}
        and its T-sets). A positive definite compression puts it in the
        set's relative interior, where the step of ``descend_to_minimal``
        reaches a minimal idempotent; that holds on every pinned test set.

        A proper face on which the laws leave no direction (``face_law_span``
        has face_dim^2 columns) holds one point, the known member, which is
        returned as is: Newton would only approach it to its own tolerance.
        The full face is not checked, since its ``face_law_span`` is an SVD
        with n^4 rows.
        """
        if self.face_dim < self.choi_dim and self.face_law_span.shape[1] == self.face_dim**2:
            return ChannelMap(self.n, self.n, self.member)
        return dykstra_project(np.eye(self.choi_dim) / self.n, self)

    def law_project(self, j: np.ndarray) -> np.ndarray:
        """(I - P)(J), for a matrix or a stack: the part of J that the laws see.

        Formed as a = S U U^*, then a + W W^* (S - a), on the superoperator
        S of J and converted back: its rounding stays in the range of I - P,
        while J - P(J) would leave rounding of the size of J in range(P).
        """
        n, u, w = self.n, self.span_in, self.span_out
        s = choi_to_superop(j, n, n)
        a = (s @ u) @ u.conj().T
        if w.shape[1]:  # only the absorb law acts from the left
            a = a + w @ (w.conj().T @ (s - a))
        return superop_to_choi(a, n, n)

    def project_affine_compressed(self, y: np.ndarray) -> np.ndarray:
        """V^*(J_p + P(V y V^* - J_p))V: the start of the projection's dual at y."""
        j = self.expand(herm(y))
        return self.compress(j - self.law_project(j - self.member))

    def membership(self, j, tol: float = TOL.solver) -> MembershipReport:
        j = j.choi if isinstance(j, ChannelMap) else as_matrix(j, self.choi_dim, self.choi_dim)
        h = herm(j)
        s = choi_to_superop(h, self.n, self.n)
        res: dict[str, float] = {"hermitian": frobenius(j - j.conj().T)}
        for name, m in self.laws:
            defect = m @ s if name == "absorb" else s @ m.reshape(-1) - m.reshape(-1)
            res[name] = frobenius(defect)
        res["psd"] = max(0.0, -float(hermitian_eig(h).values[0]))
        return MembershipReport(res, tol)


def build_system_set(
    space: OperatorSubspace, absorb: ChannelMap | None = None, cesaro: ErgodicResult | None = None
) -> FeasibleSet:
    """UCP maps fixing ``space`` pointwise; optionally also absorbed by ``absorb``.

    With ``absorb`` = psi, adds the affine law psi . phi = phi (the feasible
    set used for noncommutative Poisson boundaries), whose known member
    Ces(psi) and W come from psi's ``ErgodicResult`` ``cesaro`` (computed
    here if None); else the known member is the identity. Its membership is
    checked here and certifies that the set is nonempty. The unital law is
    implied by the fix laws (I is in ``space``) but kept as its own check.
    """
    if not (space.unital and space.selfadjoint):
        raise ValueError(
            "build_system_set: need a unital selfadjoint subspace (operator system); "
            "plain operator spaces go through the two-by-two corner lift first"
        )
    n = space.n
    laws = [("unital", np.eye(n, dtype=complex))]
    laws += [(f"fix:{k}", x) for k, x in enumerate(space.mats)]
    member, span_out = ChannelMap.identity(n), np.zeros((n * n, 0), dtype=complex)
    if absorb is not None:
        if absorb.dim_in != n or absorb.dim_out != n:
            raise ValueError("build_system_set: absorbing channel must act on the same ambient M_n")
        laws.append(("absorb", absorb.superop - np.eye(n * n)))
        cesaro = cesaro_idempotent(absorb) if cesaro is None else cesaro
        member, span_out = cesaro.idempotent, _hermitian_vecs(cesaro.complement, n)
    fset = FeasibleSet.from_laws(n, laws, member.choi, span_out)
    rep = fset.membership(member)
    if not rep.ok:
        raise RuntimeError(f"build_system_set: the known member fails membership ({rep.residuals})")
    return fset


# ------------------------------------------------------------------------
# projection, sampling, linear ascent


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real Frobenius inner product Re tr(a^* b)."""
    return float(np.vdot(a, b).real)


def _dual_point(c: np.ndarray, y_p: np.ndarray, fset: FeasibleSet, w: np.ndarray):
    """theta at W = c + V^* Z V, its gradient (I - P)(V X V^* - J_p), eig(W) and X = Pi_+(W).

    J_p = V y_p V^* lies in the face, so <Z, J_p> = <W - c, y_p> and theta is
    a function of W alone.
    """
    eig = hermitian_eig(w)
    wp = np.clip(eig.values, 0.0, None)
    x = (eig.vectors * wp) @ eig.vectors.conj().T
    theta = 0.5 * float(wp @ wp) - _inner(w - c, y_p)
    return theta, herm(fset.law_project(fset.expand(x) - fset.member)), eig, x


def _newton_direction(fset: FeasibleSet, eig, g: np.ndarray) -> np.ndarray:
    """CG solve of ((I - P) V dPi_+(W)[V^* . V] V^* + eps I) D = -g, eps = ``TOL.solver``.

    dPi_+(W)[H] = Q (Omega o Q^* H Q) Q^*, Omega the Loewner divided
    differences of max(w, 0) at the eigenvalues of W = Q diag(w) Q^*. eps
    keeps the system definite where many w < 0 make it singular, without
    shortening the long steps the dual takes there. Directions D with
    V^* D V = 0 see only eps, but g has no component along them and the
    operator maps into their complement, so CG never enters them. The
    direction is returned exactly Hermitian: the anti-Hermitian rounding of
    the iterates also sees only eps, and would otherwise grow across Newton
    steps. CG stops at relative residual min(0.1, ||g||^(1/2)), or after r^2
    steps, the real dimension of the face (exact).
    """
    w, q = eig.values, eig.vectors
    wp = np.clip(w, 0.0, None)
    dw = w[:, None] - w[None, :]
    same = dw == 0
    omega = np.where(same, w[:, None] > 0, (wp[:, None] - wp[None, :]) / np.where(same, 1.0, dw))
    vq = fset.face @ q
    vqh = vq.conj().T
    d, res = np.zeros_like(g), -g
    step, rr = res.copy(), _inner(g, g)
    stop = min(0.01, np.sqrt(rr)) * rr
    for _ in range(fset.face_dim**2):
        if rr <= stop:
            break
        hv = vq @ (omega * (vqh @ step @ vq)) @ vqh
        hs = fset.law_project(hv) + TOL.solver * step
        alpha = rr / _inner(step, hs)
        d, res = d + alpha * step, res - alpha * hs
        rr, rr_prev = _inner(res, res), rr
        step = res + (rr / rr_prev) * step
    return herm(d)


def dykstra_project(j0: np.ndarray, fset: FeasibleSet) -> ChannelMap:
    """Frobenius-nearest member of the set, by a dual semismooth Newton method.

    The name is kept from the Dykstra iteration this replaced because the
    benchmark calls and times it. For the compressed input c, the member is
    V X V^* with X = Pi_+(c + V^* Z V) at the minimizer of the convex dual
    theta(Z) = 1/2 ||Pi_+(c + V^* Z V)||^2 - <Z, J_p> over Z in the range of
    I - P (Malick 2004; Qi-Sun 2006): PSD by construction, with the gradient
    as its affine residual. Newton directions live in full Choi
    coordinates, where the laws are the one projector P; Z itself is kept
    only as W = c + V^* Z V, which the start makes the affine projection
    ``project_affine_compressed(c)``. A Newton-CG step is halved until it
    halves ||grad|| or meets Armijo; the first test still accepts steps once
    theta's decrease is below rounding. X is returned once two consecutive
    gradients are within ``TOL.solver`` (the step between them leaves it at
    rounding level) and membership holds, or at once at the start, whose
    Z already lies in the range of I - P (a member input is returned as
    is); ``history`` holds (iteration, ||grad||).
    """
    d = fset.choi_dim
    c = fset.compress(herm(as_matrix(j0, d, d)))
    y_p = fset.compress(fset.member)
    w = herm(fset.project_affine_compressed(c))
    theta, g, eig, x = _dual_point(c, y_p, fset, w)
    history: list[tuple[int, float]] = []
    within = True  # the start needs one small gradient, every later point two
    for it in range(1, NEWTON_MAX_ITER + 1):
        gnorm = frobenius(g)
        history.append((it, gnorm))
        if within and gnorm <= TOL.solver:
            full = fset.expand(x)
            if fset.membership(full).ok:
                return ChannelMap(fset.n, fset.n, herm(full))
        within = gnorm <= TOL.solver
        step = _newton_direction(fset, eig, g)
        dw = fset.compress(step)
        slope, t = _inner(g, step), 1.0
        floor = np.finfo(float).eps * max(1.0, frobenius(w))
        while True:
            trial = _dual_point(c, y_p, fset, w + t * dw)
            if frobenius(trial[1]) < 0.5 * gnorm or trial[0] <= theta + 1e-4 * t * slope:
                break
            if t * frobenius(dw) <= floor:
                break  # the step no longer moves W; the budget decides
            t *= 0.5
        w = w + t * dw
        theta, g, eig, x = trial
    raise NonConvergenceError(
        f"dykstra_project: dual gradient {history[-1][1]:.3e} > {TOL.solver:.1e} "
        f"after {NEWTON_MAX_ITER} Newton iterations",
        history,
    )


def sample(fset: FeasibleSet, seed: int) -> ChannelMap:
    """Random member: project a Gaussian Hermitian perturbation of Choi(id).

    No computation of the library draws one; the descent and
    ``maximize_linear`` start from the deterministic ``FeasibleSet.center``.
    """
    rng = np.random.default_rng(seed)
    d = fset.choi_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return dykstra_project(ChannelMap.identity(fset.n).choi + herm(g), fset)


def maximize_linear(fset: FeasibleSet, objective: np.ndarray, steps: int = 60) -> tuple[ChannelMap, float]:
    """Best-effort maximizer of Re<objective, J> over the set.

    Projected gradient ascent with backtracking from ``fset.center``.
    Convex maximization peaks at extreme points and this is a heuristic
    lower bound on the true maximum, not a certificate.
    """
    d = fset.choi_dim
    c = herm(as_matrix(objective, d, d))

    def value(j: np.ndarray) -> float:
        return float(np.real(np.trace(c.conj().T @ j)))

    j = fset.center.choi
    v = value(j)
    step = 1.0
    for _ in range(steps):
        cand = dykstra_project(j + step * c, fset).choi
        cv = value(cand)
        if cv > v + ASCENT_MIN_GAIN:
            j, v = cand, cv
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-8:
                break
    return ChannelMap(fset.n, fset.n, j), v
