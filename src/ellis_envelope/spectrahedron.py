"""Feasible sets of Choi matrices: affine constraints intersected with the PSD cone.

A set of unital CP maps with prescribed fixed points (and optionally a
left-absorption law psi . phi = phi) is a spectrahedron in Choi coordinates.
This module represents such sets, projects onto them exactly with a dual
semismooth Newton method, samples members, ascends linear functionals, and
brackets the completely bounded norm.

Each affine law is kept as the matrix that defines it: x for phi(x) = x,
S_psi - I for psi . phi = phi. Membership applies the laws to the full Choi
matrix as operators. Projection works on a cone face J = V Y V^*, where the
laws become real rows over Y in the coordinates (diag, sqrt(2) Re upper,
sqrt(2) Im upper) of a Hermitian matrix, a Frobenius isometry, so affine
projections stay exactly Hermitian and hermiticity preservation of the
represented maps is structural rather than a penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .channels import ChannelMap, NonConvergenceError
from .linalg import (
    SubspaceBasis,
    as_matrix,
    frobenius,
    herm,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    orthonormalize,
    psd_project,
)
from .tolerances import TOL

# Sampled members averaged into ``FeasibleSet.center``.
CENTER_SAMPLES = 4

# Alternating projections for an exposing vector: a start is not given up
# before POCS_PATIENCE iterations, and runs up to ten times as many while its
# PSD gap keeps shrinking.
POCS_PATIENCE = 600

# Iteration budget of the dual Newton projection.
NEWTON_MAX_ITER = 200

# Smallest increase an ascent step must make to be accepted.
ASCENT_MIN_GAIN = 1e-12

# cb-norm witness ascent: random unitary starts (besides two fixed ones) and
# steps per start; the draws use a fixed seed.
WITNESS_STARTS = 3
WITNESS_ITERS = 60

# Block completion by alternating projections: budget per bisection step and
# the accuracy at which a completion counts as found.
COMPLETION_ITERS = 3000
COMPLETION_TOL = 1e-9


# ------------------------------------------------------------------------
# real coordinates for Hermitian matrices


@cache
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a d x d matrix (read-only)."""
    iu = np.triu_indices(d, 1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def herm_to_real(j: np.ndarray) -> np.ndarray:
    upper = j[_triu(j.shape[0])]
    return np.concatenate(
        [np.real(np.diag(j)), np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    )


def real_to_herm(r: np.ndarray, d: int) -> np.ndarray:
    k = d * (d - 1) // 2
    j = np.zeros((d, d), dtype=complex)
    j[_triu(d)] = (r[d : d + k] + 1j * r[d + k :]) / np.sqrt(2.0)
    j = j + j.conj().T
    j[np.diag_indices(d)] = r[:d]
    return j


def _rows_to_real(t: np.ndarray, rhs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex rows over vec(J) -> real rows over Hermitian coordinates of J."""
    iu_r, iu_c = _triu(d)
    u = t[:, iu_r * d + iu_c]  # coefficients of J[p,q], p < q
    v = t[:, iu_c * d + iu_r]  # coefficients of J[q,p]
    ac = np.concatenate(
        [
            t[:, np.arange(d) * d + np.arange(d)],
            (u + v) / np.sqrt(2.0),
            1j * (u - v) / np.sqrt(2.0),
        ],
        axis=1,
    )
    return np.vstack([ac.real, ac.imag]), np.concatenate([rhs.real, rhs.imag])


# ------------------------------------------------------------------------
# operator subspaces (the E of the feasible sets)


@dataclass(frozen=True)
class OperatorSubspace:
    """A subspace of M_n given by an orthonormal matrix basis, with structure flags.

    Flags are verified on construction: ``unital`` means I is in the span,
    ``selfadjoint`` means the span is closed under the adjoint.
    """

    ambient: int
    basis: SubspaceBasis
    unital: bool
    selfadjoint: bool

    def __post_init__(self):
        n = self.ambient
        if self.basis.n != n:
            raise ValueError(f"OperatorSubspace: basis is {self.basis.n}x{self.basis.n}, ambient {n}")
        eye_dist = self.basis.distance(np.eye(n))
        if self.unital != bool(eye_dist <= TOL.structure * np.sqrt(n)):
            raise ValueError(f"OperatorSubspace: unital flag contradicts basis (distance {eye_dist:.3e})")
        adj_dist = max(self.basis.distance(m.conj().T) for m in self.basis.mats)
        if self.selfadjoint != bool(adj_dist <= TOL.structure):
            raise ValueError(f"OperatorSubspace: selfadjoint flag contradicts basis (distance {adj_dist:.3e})")

    @classmethod
    def from_matrices(cls, mats) -> "OperatorSubspace":
        stack = np.stack([np.asarray(m, dtype=complex) for m in mats])
        basis = orthonormalize(stack)
        n = basis.n
        unital = basis.distance(np.eye(n)) <= TOL.structure * np.sqrt(n)
        selfadjoint = max(basis.distance(m.conj().T) for m in basis.mats) <= TOL.structure
        return cls(n, basis, bool(unital), bool(selfadjoint))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def to_json(self, mode: str = "system") -> dict:
        return {
            "ambient": self.ambient,
            "basis": [matrix_to_json(m) for m in self.basis.mats],
            "mode": mode,
        }

    @classmethod
    def from_json(cls, obj: dict) -> tuple["OperatorSubspace", str]:
        try:
            n = int(obj["ambient"])
            mats = [matrix_from_json(m) for m in obj["basis"]]
            mode = obj.get("mode", "system")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"operator space json: missing field ({exc})") from exc
        if mode not in ("system", "space"):
            raise ValueError(f"operator space json: unknown mode {mode!r}")
        space = cls.from_matrices(mats)
        if space.ambient != n:
            raise ValueError(f"operator space json: basis is {space.ambient}x{space.ambient}, ambient says {n}")
        return space, mode


# ------------------------------------------------------------------------
# constraint laws
#
# Each law is (name, matrix) and acts on the Choi matrix through
# J4[i,a,j,b] = J[(i,a),(j,b)]. A fix law with matrix x says phi(x) = x:
# sum_ij x[i,j] J4[i,a,j,b] = x[a,b] for each (a,b); "unital" is the fix law of
# I. The absorb law with matrix m = S_psi - I says psi . phi = phi, i.e.
# (S_psi - I) S_phi = 0: sum_ab m[k,ab] J4[i,a,j,b] = 0 for each (k,i,j).


def _face_system(laws, n: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real rows and right-hand side of the laws over Y, where J = V Y V^*.

    Law by law, the real parts of a law's rows come before the imaginary ones.
    """
    r = v.shape[1]
    v3 = v.reshape(n, n, r)
    rows, rhss = [], []
    for name, m in laws:
        if name == "absorb":
            t = np.einsum("kab,iap,jbq->kijpq", m.reshape(-1, n, n), v3, v3.conj(), optimize=True)
            rhs = np.zeros(m.shape[0] * n * n, dtype=complex)
        else:
            t = np.einsum("ij,iap,jbq->abpq", m, v3, v3.conj(), optimize=True)
            rhs = m.reshape(-1)
        a, b = _rows_to_real(t.reshape(-1, r * r), rhs, r)
        rows.append(a)
        rhss.append(b)
    return np.vstack(rows), np.concatenate(rhss)


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


def _find_exposing_vector(q: np.ndarray, d: int) -> np.ndarray | None:
    """A PSD matrix W != 0 with <W, J> = 0 for every J in the affine set, if any.

    Such a W certifies that the whole feasible set lies in the face
    {J PSD : W J = 0} of the cone. Candidates live in the span of the
    constraint normals A^T y restricted to y . b = 0, given by the orthonormal
    columns of ``q`` in real Hermitian coordinates, normalized to trace 1;
    alternating projections between that affine slice and the PSD cone either
    find one or stall, in which case None is returned (no reduction claimed).
    The PSD gap is tested every hundred iterations and a start returns as
    soon as it has converged. Past ``POCS_PATIENCE`` iterations a start goes
    on, up to ten times as long, only while its gap shrinks by a tenth every
    hundred iterations: a linear rate means the two sets meet, a flat gap
    that they do not.
    """
    if q.shape[1] == 0:
        return None
    tr_vec = np.zeros(d * d)
    tr_vec[:d] = 1.0  # trace functional in real Hermitian coordinates
    c = q.T @ tr_vec
    if np.linalg.norm(c) < 1e-12:
        return None

    def onto_slice(w: np.ndarray) -> np.ndarray:
        z = q.T @ w
        z = z + c * (1.0 - c @ z) / (c @ c)
        return q @ z

    for start in range(3):
        rng = np.random.default_rng(start)
        w = rng.standard_normal(d * d) if start else tr_vec / d
        last_gap = np.inf
        for it in range(1, 10 * POCS_PATIENCE + 1):
            w = onto_slice(w)
            w = herm_to_real(psd_project(real_to_herm(w, d)))
            if it % 100:
                continue
            wm = herm(real_to_herm(onto_slice(w), d))
            gap = max(0.0, -float(hermitian_eig(wm).values[0]))
            if gap <= TOL.pocs and abs(np.trace(wm).real - 1.0) <= TOL.solver:
                return wm
            if it > POCS_PATIENCE and gap > 0.9 * last_gap:
                break
            last_gap = gap
    return None


def _b_orth_complement(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {y : y . b = 0} as columns (identity if b = 0).

    The Householder reflection H sending b to a multiple of the first unit
    vector is orthogonal and symmetric, so its other columns are orthonormal
    and orthogonal to b.
    """
    rows = b.shape[0]
    nb = np.linalg.norm(b)
    if nb < 1e-14:
        return np.eye(rows)
    w = b / nb
    w[0] += 1.0 if w[0] >= 0 else -1.0
    h = np.eye(rows) - np.outer(w, w) * (2.0 / (w @ w))
    return h[:, 1:]


@dataclass(frozen=True)
class FeasibleSet:
    """{Choi J : J PSD, the constraint laws hold}, facially reduced.

    Membership is always checked against the laws in full coordinates, each
    applied to J as the operator its matrix defines. Projection works in
    compressed coordinates J = V Y V^*, where V spans the smallest cone face
    found to contain the set: feasible sets of interest often consist
    entirely of rank-deficient Choi matrices (zero Slater margin); after
    reduction the compressed set has relative interior. On the face the laws
    read Q y = beta for y = herm_to_real(Y): ``law_rows`` Q has orthonormal
    rows, from the SVD facial reduction takes of the last face.
    The nearest point in Y coordinates is the nearest point in J coordinates,
    because the set lies inside the span of {V Y V^*}.
    """

    n: int
    laws: tuple[tuple[str, np.ndarray], ...]
    face: np.ndarray = field(repr=False, compare=False)  # (d, r) isometry
    law_rows: np.ndarray = field(repr=False, compare=False)  # (k, r*r) orthonormal rows Q
    law_rhs: np.ndarray = field(repr=False, compare=False)  # beta: members satisfy Q y = beta

    @classmethod
    def from_laws(cls, n: int, laws) -> "FeasibleSet":
        laws = tuple(laws)
        v = np.eye(n * n, dtype=complex)
        while True:  # a pass either stops or shrinks the face, so r = 1 stops it at the latest
            r = v.shape[1]
            a, b = _face_system(laws, n, v)
            # one SVD per face, cut at TOL.affine_rcond: svd(A^T) = V S U^T for A = U S V^T
            vt, s, ut = np.linalg.svd(a.T, full_matrices=False)
            k = int(np.sum(s > TOL.affine_rcond * s[0]))
            vt, s, ut = vt[:, :k], s[:k], ut[:k]
            if r == 1:
                break
            # a member exists, so b = U c lies in range(A), and the normals
            # A^T y with y . b = 0 are V w with w orthogonal to c / s
            w = _find_exposing_vector(vt @ _b_orth_complement(ut @ b / s), r)
            if w is None:
                break
            eig = hermitian_eig(herm(w))
            keep = eig.values <= TOL.rank * max(1.0, float(eig.values[-1]))
            if not keep.any() or keep.all():
                break
            v, _ = np.linalg.qr(v @ eig.vectors[:, keep])
        return cls(n, laws, v, vt.T, (ut @ b) / s)

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

    @cached_property
    def null_directions(self) -> np.ndarray:
        """Orthonormal basis, shape (k, d, d), of the Choi directions V D V^* with Q D = 0.

        Every member differs from every other by a combination of these:
        they span the affine slice the set lies in.
        """
        k = self.law_rows.shape[0]
        basis, _ = np.linalg.qr(self.law_rows.T, mode="complete")
        return np.array([self.expand(real_to_herm(col, self.face_dim)) for col in basis[:, k:].T])

    @cached_property
    def center(self) -> ChannelMap:
        """Average of ``CENTER_SAMPLES`` sampled members (fixed seeds).

        Interior to the face whenever the facial reduction found the smallest
        face, so its compression is then positive definite.
        """
        choi = sum(sample(self, k).choi for k in range(CENTER_SAMPLES)) / CENTER_SAMPLES
        return ChannelMap(self.n, self.n, herm(choi))

    def project_affine_compressed(self, y: np.ndarray) -> np.ndarray:
        r = herm_to_real(herm(y))
        r = r - self.law_rows.T @ (self.law_rows @ r - self.law_rhs)
        return real_to_herm(r, self.face_dim)

    def membership(self, j, tol: float = TOL.solver) -> MembershipReport:
        j = j.choi if isinstance(j, ChannelMap) else as_matrix(j, self.choi_dim, self.choi_dim)
        n = self.n
        h = herm(j)
        j4 = h.reshape(n, n, n, n)
        res: dict[str, float] = {"hermitian": frobenius(j - j.conj().T)}
        for name, m in self.laws:
            if name == "absorb":
                defect = np.einsum("kab,iajb->kij", m.reshape(-1, n, n), j4)
            else:
                defect = np.einsum("ij,iajb->ab", m, j4) - m
            res[name] = float(np.linalg.norm(defect))
        res["psd"] = max(0.0, -float(hermitian_eig(h).values[0]))
        return MembershipReport(res, tol)


def build_system_set(
    space: OperatorSubspace, absorb: ChannelMap | None = None
) -> FeasibleSet:
    """UCP maps fixing ``space`` pointwise; optionally also absorbed by ``absorb``.

    With ``absorb`` = psi, adds the affine law psi . phi = phi (the feasible
    set used for noncommutative Poisson boundaries). Nonemptiness of the plain
    system set is certified by checking the identity channel's membership.
    The unital law is implied by the fix laws (I is in ``space``) but kept as
    its own check.
    """
    if not (space.unital and space.selfadjoint):
        raise ValueError(
            "build_system_set: need a unital selfadjoint subspace (operator system); "
            "plain operator spaces go through the two-by-two corner lift first"
        )
    n = space.ambient
    laws = [("unital", np.eye(n, dtype=complex))]
    laws += [(f"fix:{k}", x) for k, x in enumerate(space.basis.mats)]
    if absorb is not None:
        if absorb.dim_in != n or absorb.dim_out != n:
            raise ValueError("build_system_set: absorbing channel must act on the same ambient M_n")
        laws.append(("absorb", absorb.superop - np.eye(n * n)))
    fset = FeasibleSet.from_laws(n, laws)
    if absorb is None:
        rep = fset.membership(ChannelMap.identity(n))
        if not rep.ok:
            raise RuntimeError(f"build_system_set: identity fails membership ({rep.residuals})")
    return fset


# ------------------------------------------------------------------------
# projection, sampling, linear ascent


def _dual_point(c: np.ndarray, fset: FeasibleSet, lam: np.ndarray):
    """theta(lam), its gradient Q X - beta, the eigendecomposition of W and X = Pi_+(W)."""
    eig = hermitian_eig(real_to_herm(c + fset.law_rows.T @ lam, fset.face_dim))
    wp = np.clip(eig.values, 0.0, None)
    x = herm_to_real((eig.vectors * wp) @ eig.vectors.conj().T)
    theta = 0.5 * float(wp @ wp) - float(fset.law_rhs @ lam)
    return theta, fset.law_rows @ x - fset.law_rhs, eig, x


def _newton_direction(fset: FeasibleSet, eig, g: np.ndarray) -> np.ndarray:
    """CG solve of (Q dPi_+(W) Q^T + eps I) d = -g, eps = ``TOL.solver``.

    dPi_+(W)[H] = P (Omega o P^* H P) P^*, Omega the Loewner divided
    differences of max(w, 0) at the eigenvalues of W = P diag(w) P^*. eps
    keeps the system definite where many w < 0 make it singular, without
    shortening the long steps the dual takes there. CG stops at relative
    residual min(0.1, ||g||^(1/2)), or after k = len(g) steps (exact).
    """
    w, p = eig.values, eig.vectors
    wp = np.clip(w, 0.0, None)
    dw = w[:, None] - w[None, :]
    same = dw == 0
    omega = np.where(same, w[:, None] > 0, (wp[:, None] - wp[None, :]) / np.where(same, 1.0, dw))
    q, r = fset.law_rows, fset.face_dim
    d, res = np.zeros_like(g), -g
    step, rr = res.copy(), float(g @ g)
    stop = min(0.01, np.sqrt(rr)) * rr
    for _ in range(len(g)):
        if rr <= stop:
            break
        m = p.conj().T @ real_to_herm(q.T @ step, r) @ p
        hs = q @ herm_to_real(p @ (omega * m) @ p.conj().T) + TOL.solver * step
        alpha = rr / float(step @ hs)
        d, res = d + alpha * step, res - alpha * hs
        rr, rr_prev = float(res @ res), rr
        step = res + (rr / rr_prev) * step
    return d


def dykstra_project(j0: np.ndarray, fset: FeasibleSet) -> ChannelMap:
    """Frobenius-nearest member of the set, by a dual semismooth Newton method.

    The name is kept from the Dykstra iteration this replaced because the
    benchmark calls and times it. For the compressed input c, the member is
    X = Pi_+(c + Q^T lam) at the minimizer of the convex dual theta(lam) =
    1/2 ||Pi_+(c + Q^T lam)||^2 - beta . lam (Malick 2004; Qi-Sun 2006):
    PSD by construction, with the gradient as its affine residual. The
    start makes W the affine projection of c. A Newton-CG step is halved
    until it halves ||grad|| or meets Armijo; the first test still accepts
    steps once theta's decrease is below rounding. X is returned once two
    consecutive gradients are within ``TOL.solver`` (the step between them
    leaves it at rounding level) and membership holds; ``history`` holds
    (iteration, ||grad||).
    """
    d = fset.choi_dim
    y = fset.compress(herm(as_matrix(j0, d, d)))
    c = herm_to_real(herm(y))
    lam = fset.law_rows @ (herm_to_real(fset.project_affine_compressed(y)) - c)
    theta, g, eig, x = _dual_point(c, fset, lam)
    history: list[tuple[int, float]] = []
    within = False
    for it in range(1, NEWTON_MAX_ITER + 1):
        gnorm = float(np.linalg.norm(g))
        history.append((it, gnorm))
        if within and gnorm <= TOL.solver:
            full = fset.expand(real_to_herm(x, fset.face_dim))
            if fset.membership(full).ok:
                return ChannelMap(fset.n, fset.n, herm(full))
        within = gnorm <= TOL.solver
        step = _newton_direction(fset, eig, g)
        slope, t = float(g @ step), 1.0
        floor = np.finfo(float).eps * max(1.0, float(np.linalg.norm(lam)))
        while True:
            trial = _dual_point(c, fset, lam + t * step)
            if np.linalg.norm(trial[1]) < 0.5 * gnorm or trial[0] <= theta + 1e-4 * t * slope:
                break
            if t * np.linalg.norm(step) <= floor:
                break  # the step no longer moves lam; the budget decides
            t *= 0.5
        lam = lam + t * step
        theta, g, eig, x = trial
    raise NonConvergenceError(
        f"dykstra_project: dual gradient {history[-1][1]:.3e} > {TOL.solver:.1e} "
        f"after {NEWTON_MAX_ITER} Newton iterations",
        history,
    )


def sample(fset: FeasibleSet, seed: int) -> ChannelMap:
    """Random member: project a Gaussian Hermitian perturbation of Choi(id)."""
    rng = np.random.default_rng(seed)
    d = fset.choi_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return dykstra_project(ChannelMap.identity(fset.n).choi + herm(g), fset)


def maximize_linear(
    fset: FeasibleSet,
    objective: np.ndarray,
    n_starts: int = 8,
    seed: int = 0,
    steps: int = 60,
) -> tuple[ChannelMap, float]:
    """Best-effort maximizer of Re<objective, J> over the set.

    Projected gradient ascent with backtracking from ``n_starts`` random
    members. Convex maximization peaks at extreme points and this is a
    heuristic lower bound on the true maximum, not a certificate.
    """
    d = fset.choi_dim
    c = herm(as_matrix(objective, d, d))

    def value(j: np.ndarray) -> float:
        return float(np.real(np.trace(c.conj().T @ j)))

    best_j, best_v = None, -np.inf
    for k in range(n_starts):
        j = sample(fset, seed + k).choi
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
        if v > best_v:
            best_j, best_v = j, v
    return ChannelMap(fset.n, fset.n, best_j), best_v


# ------------------------------------------------------------------------
# completely bounded norm


def _apply_extended(phi: ChannelMap, x: np.ndarray) -> np.ndarray:
    """(phi (x) id_n)(x) for x in M_n (x) M_n, blocks indexed (i,a),(j,b)."""
    n, m = phi.dim_in, phi.dim_out
    s4 = phi.superop.reshape(m, m, n, n)
    x4 = x.reshape(n, n, n, n)
    return np.einsum("cdij,iajb->cadb", s4, x4).reshape(m * n, m * n)


def _swap_matrix(n: int) -> np.ndarray:
    x = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for a in range(n):
            x[i * n + a, a * n + i] = 1.0
    return x


def witness_lower_bound(phi: ChannelMap) -> tuple[float, np.ndarray]:
    """Certified lower bound on ||phi||_cb by ascent over norm-1 witnesses.

    Alternates (a) the top singular pair of (phi (x) id)(X) and (b) the
    norm-ball maximizer X = U V^* of the linearized objective. Every iterate
    is feasible, so the best value found is always a valid lower bound.
    Starts: the swap witness, the maximally entangled witness, random unitaries.
    """
    n = phi.dim_in
    rng = np.random.default_rng(0)
    vec_eye = np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n)
    starts = [_swap_matrix(n), np.outer(vec_eye, vec_eye.conj())]
    for _ in range(WITNESS_STARTS):
        g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        q, r = np.linalg.qr(g)
        starts.append(q * (np.diag(r) / np.abs(np.diag(r))))
    s4 = phi.superop.reshape(phi.dim_out, phi.dim_out, n, n)
    best_v, best_x = -np.inf, starts[0]
    for x in starts:
        val = _spectral_top(_apply_extended(phi, x))[0]
        for _ in range(WITNESS_ITERS):
            sigma, eta, xi = _spectral_top(_apply_extended(phi, x))
            g = np.einsum(
                "ca,cdij,db->iajb",
                eta.reshape(phi.dim_out, n),
                s4.conj(),
                xi.conj().reshape(phi.dim_out, n),
            ).reshape(n * n, n * n)
            u, sv, vh = np.linalg.svd(g)
            x_new = u @ vh
            new_val = _spectral_top(_apply_extended(phi, x_new))[0]
            if new_val <= val + ASCENT_MIN_GAIN:
                break
            x, val = x_new, new_val
        if val > best_v:
            best_v, best_x = val, x
    return float(best_v), best_x


def _spectral_top(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(y)
    return float(s[0]), u[:, 0], vh[0].conj()


def _partial_trace_in(y: np.ndarray, n: int, m: int) -> np.ndarray:
    return np.einsum("iaib->ab", y.reshape(n, m, n, m))


def polar_dual_upper_bound(phi: ChannelMap) -> float:
    """Upper bound on ||phi||_cb from the polar-decomposition block completion.

    [[ (JJ*)^1/2, J ], [ J*, (J*J)^1/2 ]] is PSD for any J, and rescaling the
    two blocks by s^2 and 1/s^2 balances the partial-trace norms, so the
    geometric mean of ||Tr_in (JJ*)^1/2|| and ||Tr_in (J*J)^1/2|| bounds the
    cb norm. Exact for CP maps and for the transpose.
    """
    n, m = phi.dim_in, phi.dim_out
    u, s, vh = np.linalg.svd(phi.choi)
    y0 = (u * s) @ u.conj().T  # (J J*)^1/2
    y1 = (vh.conj().T * s) @ vh  # (J* J)^1/2
    a = _spectral_norm_h(_partial_trace_in(y0, n, m))
    b = _spectral_norm_h(_partial_trace_in(y1, n, m))
    return float(np.sqrt(a * b))


def _spectral_norm_h(a: np.ndarray) -> float:
    return float(np.abs(hermitian_eig(herm(a)).values).max())


def _clip_above(y: np.ndarray, t: float) -> np.ndarray:
    eig = hermitian_eig(herm(y))
    return (eig.vectors * np.minimum(eig.values, t)) @ eig.vectors.conj().T


def _block_completion(phi: ChannelMap, t: float) -> tuple[float, np.ndarray] | None:
    """Alternating projections for: exists PSD [[Y0, J],[J*, Y1]] with
    Tr_in Y_i <= t I. Returns None when the budget runs out (not an
    infeasibility proof).

    The iterate z found to tolerance is PSD, but its corner z01 only meets J
    to within ``COMPLETION_TOL``. With delta = ||z01 - J||_2 the repaired
    block [[z00 + delta I, J], [J*, z11 + delta I]] is z plus the PSD matrix
    [[delta I, J - z01], [(J - z01)*, delta I]], hence PSD with the corner J
    exactly, and its partial traces are those of z shifted by n delta. So on
    success the returned t' = max_i lambda_max(Tr_in z_ii) + n delta is a
    proven upper bound on ||phi||_cb; the repaired block is its certificate.
    """
    n, m = phi.dim_in, phi.dim_out
    d = n * m
    j = phi.choi
    z = np.zeros((2 * d, 2 * d), dtype=complex)
    z[:d, d:] = j
    z[d:, :d] = j.conj().T
    z[:d, :d] = np.eye(d) * t / m
    z[d:, d:] = np.eye(d) * t / m
    for _ in range(COMPLETION_ITERS):
        # pin the corners
        z[:d, d:] = j
        z[d:, :d] = j.conj().T
        # clip both partial traces from above at t (exact Frobenius projection
        # onto the preimage, since Tr_in Tr_in^* = n I)
        for blk in (slice(0, d), slice(d, 2 * d)):
            y = z[blk, blk]
            tr = _partial_trace_in(y, n, m)
            delta = _clip_above(tr, t) - tr
            z[blk, blk] = y + np.kron(np.eye(n), delta) / n
        z = psd_project(z)
        corner = frobenius(z[:d, d:] - j)
        top = max(
            float(hermitian_eig(herm(_partial_trace_in(z[blk, blk], n, m))).values[-1])
            for blk in (slice(0, d), slice(d, 2 * d))
        )
        if corner <= COMPLETION_TOL and top - t <= COMPLETION_TOL:
            delta = float(np.linalg.norm(z[:d, d:] - j, 2))
            z[:d, d:] = j
            z[d:, :d] = j.conj().T
            z[np.diag_indices(2 * d)] += delta
            return top + n * delta, z
    return None


@dataclass(frozen=True)
class CbNormBracket:
    lower: float
    upper: float
    tol: float
    bisections: int

    @property
    def converged(self) -> bool:
        return self.upper - self.lower <= self.tol


def cb_norm_bracket(phi: ChannelMap, tol: float = TOL.cb_norm) -> CbNormBracket:
    """Two-sided bracket on ||phi||_cb.

    Lower: witness ascent (always valid). Upper: polar-dual completion,
    refined by bisection whenever alternating projections find a completion
    at a smaller scale; the completion is repaired to an exactly PSD block
    (``_block_completion``), and its partial traces give the new upper end.
    The bracket collapses immediately for CP maps, for the transpose, and for
    their scalar multiples.
    """
    lo, _ = witness_lower_bound(phi)
    hi = polar_dual_upper_bound(phi)
    if hi < lo:  # both are valid bounds; order can flip only by roundoff
        lo, hi = min(lo, hi), max(lo, hi)
    rounds = 0
    search_lo = lo
    while hi - lo > tol and rounds < 40 and hi - search_lo > 0.25 * tol:
        mid = 0.5 * (search_lo + hi)
        found = _block_completion(phi, mid)
        if found is not None:
            hi = min(hi, found[0])
        else:
            search_lo = mid
        rounds += 1
    return CbNormBracket(lo, hi, tol, rounds)


def cb_norm(phi: ChannelMap, tol: float = TOL.cb_norm) -> float:
    """Upper estimate of the completely bounded norm.

    CP maps use ||phi(I)|| (exact). Otherwise returns the upper end of
    ``cb_norm_bracket``, an upper bound proven by an explicit PSD block
    completion (up to floating-point rounding).
    """
    choi = phi.choi
    scale = max(1.0, frobenius(choi))
    if frobenius(choi - choi.conj().T) <= TOL.structure * scale:
        wmin = float(hermitian_eig(herm(choi)).values[0])
        if phi.cp_hint or wmin >= -TOL.structure * scale:
            return _spectral_norm_h(phi.apply(np.eye(phi.dim_in)))
    return cb_norm_bracket(phi, tol=tol).upper
