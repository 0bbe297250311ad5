"""Linear maps on matrix algebras: Choi matrices, superoperators, ergodic averages, cb norms.

Conventions, frozen across the package:

- ``vec`` is row-major (numpy reshape order).
- The Choi matrix of phi: M_n -> M_m is ``choi = sum_ij E_ij (x) phi(E_ij)``
  with the matrix units E_ij enumerated row-major; it is (n*m) x (n*m) and
  phi is completely positive iff choi is PSD.
- The superoperator S is m^2 x n^2 with ``vec(phi(x)) = S @ vec(x)``.
- The two representations are entrywise reshuffles of each other:
  ``S[(a,b),(i,j)] = choi[(i,a),(j,b)]``. ``choi_to_superop`` and
  ``superop_to_choi`` are the only code that converts between the two index
  orders; every other module states its laws on S and converts through them.

Compositions multiply superoperators; the Hilbert-Schmidt adjoint is the
conjugate transpose of the superoperator. The Cesaro path computes on the
real B^* S B, B the Hermitian basis of ``linalg.hermitian_basis_plan``.

The completely bounded norm of a map is bracketed by one pair of density
matrices (rho0, rho1) on the output, which gives both ends: the trace norm of
(I (x) rho0^1/2) J (I (x) rho1^1/2) from below (Watrous 2009, 2013) and a PSD
block [[Y0, J], [J^*, Y1]] from above. ``check_structure`` reads the upper
end for maps that are not CP; for CP maps ||phi||_cb = ||phi(I)|| exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    OperatorSubspace,
    as_matrix,
    frobenius,
    herm,
    hermitian_basis_plan,
    hermitian_eig,
    json_dim,
    matrix_from_json,
    matrix_to_json,
    unvec,
    vec,
)
from .tolerances import TOL

# Iterative Cesaro averaging: doubling cap on the power of the map.
CESARO_MAX_N = 2**20

# check_absorption compares e phi^k e with e for k = 1 .. ABSORPTION_POWERS.
ABSORPTION_POWERS = 20

# cb-norm density-pair ascent: steps (each updates rho0, then rho1) before
# the bracket is reported open, and the weight of I/m mixed into each density
# matrix so that rho^{-1/2}, and with it the upper end, exists.
CB_ASCENT_STEPS = 200
CB_REGULARIZATION = 1e-9


class NonConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget; carries (step, residual) history."""

    def __init__(self, message: str, history: list[tuple[int, float]]):
        super().__init__(message)
        self.history = history


def choi_to_superop(choi: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """S[(a,b),(i,j)] = choi[(i,a),(j,b)], for a matrix or a stack (leading axes kept)."""
    c = choi.reshape(-1, dim_in, dim_out, dim_in, dim_out).transpose(0, 2, 4, 1, 3)
    return c.reshape(choi.shape[:-2] + (dim_out * dim_out, dim_in * dim_in))


def superop_to_choi(s: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """The inverse of ``choi_to_superop``, for a matrix or a stack."""
    c = s.reshape(-1, dim_out, dim_out, dim_in, dim_in).transpose(0, 3, 1, 4, 2)
    return c.reshape(s.shape[:-2] + (dim_in * dim_out, dim_in * dim_out))


@dataclass(frozen=True)
class ChannelMap:
    """A linear map M_{dim_in} -> M_{dim_out} stored by its Choi matrix."""

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self):
        d = self.dim_in * self.dim_out
        object.__setattr__(self, "choi", as_matrix(self.choi, d, d))

    @cached_property
    def superop(self) -> np.ndarray:
        return choi_to_superop(self.choi, self.dim_in, self.dim_out)

    @classmethod
    def from_superop(cls, s: np.ndarray, dim_in: int, dim_out: int) -> "ChannelMap":
        s = as_matrix(s, dim_out * dim_out, dim_in * dim_in)
        return cls(dim_in, dim_out, superop_to_choi(s, dim_in, dim_out))

    @classmethod
    def from_kraus(cls, kraus, dim_in: int | None = None, dim_out: int | None = None) -> "ChannelMap":
        """Build phi(x) = sum_k K_k x K_k^*; CP by construction."""
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("from_kraus: need at least one Kraus operator")
        m, n = ops[0].shape
        dim_in = n if dim_in is None else dim_in
        dim_out = m if dim_out is None else dim_out
        d = dim_in * dim_out
        choi = np.zeros((d, d), dtype=complex)
        for k in ops:
            if k.shape != (dim_out, dim_in):
                raise ValueError(f"from_kraus: operator shape {k.shape} != {(dim_out, dim_in)}")
            w = vec(k.T)  # w[(i,a)] = K[a,i]
            choi += np.outer(w, w.conj())
        return cls(dim_in, dim_out, choi)

    @classmethod
    def identity(cls, n: int) -> "ChannelMap":
        return cls.from_kraus([np.eye(n, dtype=complex)])

    @classmethod
    def conjugation(cls, u: np.ndarray) -> "ChannelMap":
        """x -> u x u^*."""
        return cls.from_kraus([as_matrix(u)])

    @classmethod
    def pinching(cls, n: int) -> "ChannelMap":
        """Projection onto the diagonal: x -> sum_i E_ii x E_ii."""
        eye = np.eye(n, dtype=complex)
        return cls.from_kraus([np.outer(eye[i], eye[i]) for i in range(n)])

    @classmethod
    def transpose_map(cls, n: int) -> "ChannelMap":
        """x -> x^T; the canonical positive, not completely positive map."""
        choi = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                choi[i * n + j, j * n + i] = 1.0  # E_ij (x) E_ji summed = swap
        return cls(n, n, choi)

    @classmethod
    def trace_state(cls, n: int) -> "ChannelMap":
        """x -> (tr x / n) I, the maximally depolarizing unital channel."""
        eye = np.eye(n, dtype=complex)
        return cls.from_kraus([np.outer(eye[i], eye[j]) / np.sqrt(n) for i in range(n) for j in range(n)])

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, self.dim_in, self.dim_in)
        return unvec(self.superop @ vec(x), self.dim_out, self.dim_out)

    def adjoint(self) -> "ChannelMap":
        """Hilbert-Schmidt adjoint: <phi*(y), x> = <y, phi(x)>."""
        return ChannelMap.from_superop(self.superop.conj().T, self.dim_out, self.dim_in)

    def rank(self) -> int:
        """Number of superoperator singular values above ``TOL.rank``."""
        return int(np.sum(np.linalg.svd(self.superop, compute_uv=False) > TOL.rank))

    def range_basis(self) -> OperatorSubspace:
        """Orthonormal basis (as matrices) of the range of the map."""
        u, s, _ = np.linalg.svd(self.superop)
        r = int(np.sum(s > TOL.rank))
        mats = [unvec(u[:, k], self.dim_out, self.dim_out) for k in range(r)]
        return OperatorSubspace(np.stack(mats))

    def to_json(self, range_basis: OperatorSubspace | None = None) -> dict:
        """The Choi matrix, or, given an orthonormal basis M_i of the range,
        the factored form S = sum_i vec(M_i) vec(G_i)^* with G_i = phi^*(M_i):
        phi(x) = sum_i tr(G_i^* x) M_i, r (dim_in^2 + dim_out^2) numbers for a rank-r map."""
        out = {"dim_in": self.dim_in, "dim_out": self.dim_out}
        if range_basis is None:
            return {**out, "repr": "choi", "choi": matrix_to_json(self.choi)}
        q = range_basis.vecs()
        dual = (q @ self.superop.conj()).reshape(-1, self.dim_in, self.dim_in)
        return {
            **out,
            "repr": "factored",
            "range": [matrix_to_json(m) for m in range_basis.mats],
            "dual": [matrix_to_json(g) for g in dual],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChannelMap":
        try:
            n, m = (json_dim(obj[k], f"channel json: {k}") for k in ("dim_in", "dim_out"))
            rep = obj["repr"]
            if rep == "choi":
                return cls(n, m, matrix_from_json(obj["choi"]))
            if rep == "kraus":
                return cls.from_kraus([matrix_from_json(k) for k in obj["kraus"]], n, m)
            if rep == "factored":
                return cls.from_superop(_factored_from_json(obj["range"], obj["dual"], n, m), n, m)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"channel json: missing or malformed field ({exc})") from exc
        raise ValueError(f"channel json: unknown repr {rep!r}")


def _factored_from_json(ranges, duals, n: int, m: int) -> np.ndarray:
    """S = sum_i vec(M_i) vec(G_i)^*, M_i in M_m from ``ranges`` and G_i in M_n
    from ``duals``; the count is checked before any matrix is decoded."""
    if not (type(ranges) is list and type(duals) is list and 0 < len(ranges) == len(duals)):
        raise ValueError("channel json: range and dual must be lists of equal, non-zero length")
    cap = min(n, m) ** 2
    if len(ranges) > cap:
        raise ValueError(f"channel json: {len(ranges)} range matrices exceed min(dim_in, dim_out)^2 = {cap}")

    def stack(key: str, mats: list, dim: int) -> np.ndarray:
        out = np.empty((len(mats), dim * dim), dtype=complex)
        for i, mat in enumerate(mats):
            try:
                out[i] = vec(as_matrix(matrix_from_json(mat), dim, dim))
            except ValueError as exc:
                raise ValueError(f"channel json: {key}[{i}]: {exc}") from exc
        return out

    return stack("range", ranges, m).T @ stack("dual", duals, n).conj()


def compose(f: ChannelMap, g: ChannelMap) -> ChannelMap:
    """The composition f . g (apply g first)."""
    if g.dim_out != f.dim_in:
        raise ValueError(f"compose: dimension mismatch ({f.dim_in} vs {g.dim_out})")
    return ChannelMap.from_superop(f.superop @ g.superop, g.dim_in, f.dim_out)


def _spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _partial_trace_gram(u: np.ndarray, s: np.ndarray, n: int, m: int) -> np.ndarray:
    """Tr_in (U diag(s) U^*) for U with n*m rows, without forming the product."""
    u3 = u.reshape(n, m, -1)
    return np.einsum("iak,ibk->ab", u3 * s, u3.conj())


def _roots(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho^1/2 and rho^-1/2 of a positive definite density matrix."""
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(w)) @ v.conj().T, (v / np.sqrt(w)) @ v.conj().T


def _sandwich(x: np.ndarray, a: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """(I (x) a) x (I (x) b) for an nm x nm matrix x, by reshaping."""
    d = n * m
    x = (a @ x.reshape(n, m, d)).reshape(d, d)
    return (x.reshape(d, n, m) @ b).reshape(d, d)


def _pair_bounds(
    j: np.ndarray, n: int, m: int, rho0: np.ndarray, rho1: np.ndarray
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """Both ends of the cb-norm bracket at one pair of full-rank density matrices.

    With M = (I (x) rho0^1/2) J (I (x) rho1^1/2), ||M||_1 is the lower end
    (Watrous 2009). Congruence of the PSD block [[|M^*|, M], [M^*, |M|]] by
    I (x) rho_i^{-1/2} gives the PSD block [[Y0, J], [J^*, Y1]] with J in its
    corner, so sqrt(lmax(Tr_in Y0) lmax(Tr_in Y1)) is the upper end, where
    Tr_in Y0 = rho0^{-1/2} Tr_in|M^*| rho0^{-1/2} and likewise for Y1 with |M|.
    Also returned: the linear forms of Re tr(W^* M) in rho0^1/2 and rho1^1/2,
    W the polar factor of M, which are rho0^{-1/2} Tr_in|M^*| and
    Tr_in|M| rho1^{-1/2}. I (x) A is applied by reshaping. The block is PSD
    only up to rounding amplified by ||rho_i^-1||; ``_shifted_upper`` checks it.
    """
    (s0, i0), (s1, i1) = _roots(rho0), _roots(rho1)
    u, sv, vh = np.linalg.svd(_sandwich(j, s0, s1, n, m))
    t0 = _partial_trace_gram(u, sv, n, m)
    t1 = _partial_trace_gram(vh.conj().T, sv, n, m)
    top0 = np.linalg.eigvalsh(herm(i0 @ t0 @ i0))[-1]
    top1 = np.linalg.eigvalsh(herm(i1 @ t1 @ i1))[-1]
    return float(sv.sum()), float(np.sqrt(top0 * top1)), (i0 @ t0, t1 @ i1)


def _shifted_upper(j: np.ndarray, n: int, m: int, rho0: np.ndarray, rho1: np.ndarray) -> tuple[float, float]:
    """The block's negative defect delta at one density pair, and the upper end it proves.

    Forms Y0, Y1 of ``_pair_bounds`` explicitly and takes one eigvalsh of
    [[Y0, J], [J^*, Y1]]. Shifting both diagonal blocks by delta makes the
    block PSD and adds n delta I to each Tr_in Y_i, so
    sqrt((a + n delta)(b + n delta)) bounds ||phi||_cb, with a, b the top
    eigenvalues of Tr_in Y0 and Tr_in Y1.
    """
    (s0, i0), (s1, i1) = _roots(rho0), _roots(rho1)
    u, sv, vh = np.linalg.svd(_sandwich(j, s0, s1, n, m))
    y0 = herm(_sandwich((u * sv) @ u.conj().T, i0, i0, n, m))
    y1 = herm(_sandwich((vh.conj().T * sv) @ vh, i1, i1, n, m))
    delta = max(0.0, -float(np.linalg.eigvalsh(np.block([[y0, j], [j.conj().T, y1]]))[0]))
    a, b = (float(np.linalg.eigvalsh(np.einsum("iaib->ab", y.reshape(n, m, n, m)))[-1]) for y in (y0, y1))
    return delta, float(np.sqrt((a + n * delta) * (b + n * delta)))


@dataclass(frozen=True)
class CbNormBracket:
    """lower <= ||phi||_cb <= upper.

    ``bisections`` counts ascent steps (the name is kept for trace readers).
    ``densities`` is the pair (rho0, rho1) whose block certifies ``upper``;
    ``history`` holds the (step, upper - lower) pairs.
    """

    lower: float
    upper: float
    tol: float
    bisections: int
    densities: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    history: tuple[tuple[int, float], ...] = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.upper - self.lower <= self.tol


def cb_norm_bracket(phi: ChannelMap, tol: float = TOL.cb_norm) -> CbNormBracket:
    """Two-sided bracket on ||phi||_cb from one pair of density matrices.

    ||phi||_cb is the maximum of ||(I (x) rho0^1/2) J (I (x) rho1^1/2)||_1
    over density matrices rho0, rho1 on the output (Watrous 2009, 2013).
    Starting from rho0 = rho1 = I/m, the ascent fixes the polar factor of M
    and replaces rho0^1/2, then rho1^1/2, by the maximiser of the resulting
    linear form: the positive part of its Hermitian part, normalised to
    Frobenius norm 1. Each density matrix is mixed with CB_REGULARIZATION of
    I/m to keep it full rank. Every pair gives both ends (``_pair_bounds``);
    the best of each is kept until upper - lower <= tol or
    CB_ASCENT_STEPS run out. The block of the best pair is then checked
    once (``_shifted_upper``): a negative eigenvalue, which rounding
    amplified by ||rho_i^-1|| can leave when the optimal pair is
    rank-deficient, raises the upper end to the bound of the shifted block,
    so the upper end is proven whatever the pair. The bracket closes at
    step 0 for CP maps, the transpose and their scalar multiples.
    """
    n, m = phi.dim_in, phi.dim_out
    rho = [np.eye(m, dtype=complex) / m] * 2
    lower, upper, best = 0.0, np.inf, tuple(rho)
    history = []
    for half in range(2 * CB_ASCENT_STEPS + 1):
        lo, hi, forms = _pair_bounds(phi.choi, n, m, *rho)
        lower = max(lower, lo)
        if hi < upper:
            upper, best = hi, tuple(rho)
        step = (half + 1) // 2
        history.append((step, upper - lower))
        if upper - lower <= tol or half == 2 * CB_ASCENT_STEPS:
            break
        k = half % 2
        w, v = np.linalg.eigh(herm(forms[k]))
        a = np.clip(w, 0.0, None)
        norm = np.linalg.norm(a)
        if norm > 0.0:  # the form has a positive part unless J = 0
            r = (v * (a / norm) ** 2) @ v.conj().T
            rho[k] = (1.0 - CB_REGULARIZATION) * r + CB_REGULARIZATION / m * np.eye(m)
    delta, shifted = _shifted_upper(phi.choi, n, m, *best)
    if delta > 0.0:  # the block of the best pair is PSD only after the shift
        upper = max(upper, shifted)
        history[-1] = (step, upper - lower)
    if upper < lower:  # both are valid bounds; order can flip only by roundoff
        lower, upper = upper, lower
    return CbNormBracket(lower, upper, tol, step, best, tuple(history))


@dataclass(frozen=True)
class StructureReport:
    cp: bool
    unital: bool
    trace_preserving: bool
    idempotent: bool | None
    cb_contraction: bool
    choi_min_eig: float
    unital_residual: float
    trace_residual: float
    idempotent_residual: float | None
    cb_bound: float
    choi_rank: int


def check_structure(phi: ChannelMap) -> StructureReport:
    """Structural flags with their residuals; a 'bad' map is reported, not refused.

    ``choi_rank`` counts the Choi matrix's singular values above
    ``TOL.rank``; for a Hermitian Choi matrix they are the absolute values
    of the eigenvalues already computed, so no SVD is taken. CP is decided
    from the same eigenvalues, once. ``cb_bound`` is ||phi(I)|| for a CP map
    and otherwise the upper end of ``cb_norm_bracket``, proven by the PSD
    block of its density pair (up to floating-point rounding). Raises
    NonConvergenceError, with the (step, upper - lower) history, when that
    bracket stays wider than ``TOL.cb_norm``.
    """
    n, m = phi.dim_in, phi.dim_out
    tol = TOL.structure
    hermitian = _is_hermitian(phi.choi, tol)
    eigs = np.linalg.eigvalsh(herm(phi.choi))
    sv = np.abs(eigs) if hermitian else np.linalg.svd(phi.choi, compute_uv=False)
    choi_min = float(eigs[0])
    cp = hermitian and choi_min >= -tol * max(1.0, frobenius(phi.choi))
    unital_res = frobenius(phi.apply(np.eye(n)) - np.eye(m))
    c4 = phi.choi.reshape(n, m, n, m)
    trace_res = frobenius(np.einsum("iaja->ij", c4) - np.eye(n))
    idem_res = None
    if n == m:
        idem_res = frobenius(phi.superop @ phi.superop - phi.superop)
    if cp:
        cb = _spectral_norm(phi.apply(np.eye(n)))
    else:
        bracket = cb_norm_bracket(phi)
        if not bracket.converged:
            raise NonConvergenceError(
                f"cb_norm: bracket [{bracket.lower:.6g}, {bracket.upper:.6g}] still wider than "
                f"{bracket.tol:.1e} after {bracket.bisections} ascent steps",
                list(bracket.history),
            )
        cb = bracket.upper
    return StructureReport(
        cp=bool(cp),
        unital=bool(unital_res <= tol * max(1.0, np.sqrt(m))),
        trace_preserving=bool(trace_res <= tol * max(1.0, np.sqrt(n))),
        idempotent=None if idem_res is None else bool(idem_res <= TOL.solver),
        cb_contraction=bool(cb <= 1.0 + TOL.certify),
        choi_min_eig=choi_min,
        unital_residual=unital_res,
        trace_residual=trace_res,
        idempotent_residual=idem_res,
        cb_bound=cb,
        choi_rank=int(np.sum(sv > TOL.rank)),
    )


def _is_hermitian(a: np.ndarray, tol: float) -> bool:
    return frobenius(a - a.conj().T) <= tol * max(1.0, frobenius(a))


def _require_unital_cp(phi: ChannelMap, who: str) -> None:
    if phi.dim_in != phi.dim_out:
        raise ValueError(f"{who}: map must be square (got {phi.dim_in} -> {phi.dim_out})")
    n = phi.dim_in
    unital_res = frobenius(phi.apply(np.eye(n)) - np.eye(n))
    if unital_res > TOL.ucp:
        raise ValueError(f"{who}: map is not unital (residual {unital_res:.3e})")
    if not _is_hermitian(phi.choi, TOL.solver):
        raise ValueError(f"{who}: Choi matrix is not Hermitian")
    j, c = herm(phi.choi), TOL.ucp * max(1.0, frobenius(phi.choi))
    try:  # CP iff herm(J) + c I is PSD; only the error message needs the eigenvalue
        np.linalg.cholesky(j + c * np.eye(len(j)))
    except np.linalg.LinAlgError:
        wmin = float(np.linalg.eigvalsh(j)[0])
        if wmin < -c:
            raise ValueError(f"{who}: map is not CP (min Choi eigenvalue {wmin:.3e})") from None


def _to_hermitian_coords(s: np.ndarray, n: int) -> np.ndarray:
    """Re(B^* S B) for a superoperator S on M_n, B of ``hermitian_basis_plan``.
    A Hermitian-preserving S (Hermitian Choi matrix) has B^* S B real."""
    (c0, c1), (w0, w1), _, _ = hermitian_basis_plan(n)
    sb = s.take(c0, axis=1) * w0 + s.take(c1, axis=1) * w1
    out = sb.take(c0, axis=0) * w0.conj()[:, None] + sb.take(c1, axis=0) * w1.conj()[:, None]
    return out.real.copy()


def _hermitian_vecs(p: np.ndarray, n: int) -> np.ndarray:
    """B P for a real P with n^2 rows; each column is vec of a Hermitian matrix."""
    _, _, (r0, r1), (w0, w1) = hermitian_basis_plan(n)
    return p.take(r0, axis=0) * w0[:, None] + p.take(r1, axis=0) * w1[:, None]


def _from_hermitian_coords(p: np.ndarray, n: int) -> np.ndarray:
    """B P B^* for a real P, the inverse of ``_to_hermitian_coords``;
    Hermitian-preserving exactly, since rows v and v^T of B are conjugate."""
    _, _, (r0, r1), (w0, w1) = hermitian_basis_plan(n)
    x = _hermitian_vecs(p, n)
    return x.take(r0, axis=1) * w0.conj() + x.take(r1, axis=1) * w1.conj()


def _ergodic_kernels(s: np.ndarray, who: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Orthonormal columns spanning ker(I - s), ker((I - s)^*) and ran((I - s)^*), and the cut.

    Singular values of I - s below ``TOL.fixed_space * max(1, ||I - s||)``
    count as zero. The scale is that SVD's own largest singular value, which
    also sets its backward error, so no second factorization is needed. The
    scale is within a factor of 2 of max(1, ||s||), since
    ||s|| - 1 <= ||I - s|| <= 1 + ||s||.
    The first block is vec F_phi; the second is ran(I - s)^perp, along whose
    complement the ergodic projection maps onto F_phi; the third is its complement.
    The cut is unitarily invariant: the same in every orthonormal basis.
    """
    d = s.shape[0]
    u, sv, vh = np.linalg.svd(np.eye(d) - s)
    thresh = TOL.fixed_space * max(1.0, sv[0])
    r = int(np.sum(sv < thresh))
    if r == 0:
        raise ValueError(f"{who}: no fixed points found (eigenvalue 1 is not in the spectrum)")
    kept = f"{sv[d - r - 1]:.3e}" if r < d else "none"
    cut = f"spectral cut {thresh:.3e} of I - S_R between {sv[d - r]:.3e} (zero) and {kept} (kept)"
    return vh[d - r :].conj().T, u[:, d - r :], vh[: d - r].conj().T, cut


@dataclass(frozen=True)
class ErgodicResult:
    """Ergodic projection of a unital CP map.

    ``idempotent`` is the limit of the Cesaro averages (1/N) sum_{k=1..N} phi^k,
    i.e. the projection onto the fixed space along the range of (id - phi).
    """

    idempotent: ChannelMap
    fixed_space: OperatorSubspace
    complement: np.ndarray = field(repr=False, compare=False)  # F_phi^perp, real, in Hermitian coordinates
    method: str
    residuals: dict[str, float]
    agreement: float | None = None


def _iterative_ergodic_projection(s: np.ndarray, cut: str = "") -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Cesaro average, then repeated squaring.

    The plain average tau_N converges only at rate O(1/N) when s has
    peripheral spectrum besides 1. But every eigenvalue of tau_N other than 1
    lies strictly inside the unit disk (|sum_{k<N} lambda^k| < N for lambda != 1
    on the closed disk), and tau_N commutes with the ergodic projection with
    zero cross terms, so squaring tau_N squares the error. The loop computes a
    cluster point of products of Cesaro means; it converges doubly
    geometrically, uniformly over unital CP inputs.
    """
    d = s.shape[0]
    ssum = np.eye(d)  # sum_{k=0..N-1} s^k, N = 1
    spow = s.copy()  # s^N
    n = 1
    while True:
        ssum = ssum + spow @ ssum
        n *= 2
        if n == 64:  # s^64 would go unread
            break
        spow = spow @ spow
    b = ssum / n
    history: list[tuple[int, float]] = []
    total = n  # highest power of s folded in so far
    while total < CESARO_MAX_N:
        b2 = b @ b
        res = frobenius(b2 - b)
        history.append((total, res))
        if res <= TOL.cesaro:
            return b2, history
        b = b2
        total *= 2
    raise NonConvergenceError(
        f"cesaro_idempotent: no convergence to {TOL.cesaro:.1e} within a power budget of {CESARO_MAX_N}{cut}",
        history,
    )


def cesaro_idempotent(phi: ChannelMap, mode: str = "spectral") -> ErgodicResult:
    """Ergodic (Cesaro) idempotent of a unital CP map.

    mode: "spectral" (exact up to linear algebra, default), "iterative"
    (doubling Cesaro averages), or "both" (run both, cross-check to ``TOL.ucp``,
    report the spectral result with the agreement distance). The SVD, both
    projections and the residuals run on the real S_R = B^* S B of
    ``_to_hermitian_coords``. B is unitary, so the cut at ``TOL.fixed_space``
    and every Frobenius norm are those of S; the fixed basis is Hermitian.
    A doubling that runs out of powers names that cut and the values beside it.
    """
    if mode not in ("spectral", "iterative", "both"):
        raise ValueError(f"cesaro_idempotent: unknown mode {mode!r}")
    _require_unital_cp(phi, "cesaro_idempotent")
    n = phi.dim_in
    s = _to_hermitian_coords(phi.superop, n)
    # one SVD of I - s serves the spectral projection, the fixed basis and its complement
    k, l, complement, cut = _ergodic_kernels(s, "cesaro_idempotent")
    agreement = None
    if mode == "iterative":
        p, _ = _iterative_ergodic_projection(s, f"; {cut}")
    else:  # onto ker(I - s) along ran(I - s)
        p = k @ np.linalg.solve(l.T @ k, l.T)
    if mode == "both":
        agreement = frobenius(p - _iterative_ergodic_projection(s, f"; {cut}")[0])
        if agreement > TOL.ucp:
            raise NonConvergenceError(
                f"cesaro_idempotent: spectral and iterative modes disagree ({agreement:.3e})",
                [(0, agreement)],
            )
    residuals = {
        "idempotent": frobenius(p @ p - p),
        "absorb_left": frobenius(s @ p - p),
        "absorb_right": frobenius(p @ s - p),
    }
    return ErgodicResult(
        idempotent=ChannelMap(n, n, superop_to_choi(_from_hermitian_coords(p, n), n, n)),
        fixed_space=OperatorSubspace(_hermitian_vecs(k, n).T.reshape(-1, n, n)),
        complement=complement,
        method=mode,
        residuals=residuals,
        agreement=agreement,
    )


def unitalize_kraus(kraus) -> list[np.ndarray]:
    """Rescale Kraus operators so that sum_k B_k B_k^* = I (unital channel).

    B_k = M^{-1/2} A_k with M = sum_k A_k A_k^*; requires M nonsingular.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    m = sum(a @ a.conj().T for a in ops)
    eig = hermitian_eig(herm(m))
    if eig.values[0] <= 1e-12 * max(1.0, eig.values[-1]):
        raise ValueError("unitalize_kraus: sum_k A_k A_k^* is singular")
    inv_half = (eig.vectors * (eig.values**-0.5)) @ eig.vectors.conj().T
    return [inv_half @ a for a in ops]


def random_unital_channel(rng: np.random.Generator, n: int, n_kraus: int = 3) -> ChannelMap:
    """Random unital CP map on M_n from complex-Gaussian Kraus operators, unitalized."""
    ops = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(n_kraus)]
    return ChannelMap.from_kraus(unitalize_kraus(ops))


def _absorption_bounds(
    e: ChannelMap, phi: ChannelMap, basis: OperatorSubspace | None = None
) -> tuple[dict[str, float], float]:
    """Proven upper bounds behind ``check_absorption``: the three preconditions
    (idempotent, absorb_left, absorb_right) and max_k ||e phi^k e - e||_F."""
    se, sp = e.superop, phi.superop
    if se.shape != sp.shape:
        raise ValueError("check_absorption: dimension mismatch")
    if basis is None:
        basis = e.range_basis()
    if basis.n != e.dim_in:
        raise ValueError(f"check_absorption: basis lives in M_{basis.n}, not M_{e.dim_in}")
    q = basis.vecs().T  # d x r
    y = q.conj().T @ se  # r x d
    delta = se - q @ y
    dn = frobenius(delta)
    sqrt_n = float(np.sqrt(e.dim_in))
    work = np.empty_like(se)

    def known_part(row: np.ndarray, col: np.ndarray) -> float:
        # || S_e S^k S_e - S_e - Delta S^k Delta ||_F from row = Y S^k, col = S^k Q,
        # as one rank-2r product [Q, Delta S^k Q] [Y S^k Q Y + Y S^k Delta; Y] - S_e
        left = np.hstack([q, delta @ col])
        right = np.vstack([(row @ q) @ y + row @ delta, y])
        np.matmul(left, right, out=work)
        np.subtract(work, se, out=work)
        return frobenius(work)

    row, col = y @ sp, sp @ q
    preconditions = {
        "idempotent": known_part(y, q) + dn * dn,
        "absorb_left": frobenius((col - q) @ y) + (sqrt_n + 1.0) * dn,
        "absorb_right": frobenius(q @ (row - y)) + (sqrt_n + 1.0) * dn,
    }
    out = known_part(row, col)
    for _ in range(ABSORPTION_POWERS - 1):
        row, col = row @ sp, sp @ col
        out = max(out, known_part(row, col))
    return preconditions, out + sqrt_n * dn * dn


def check_absorption(e: ChannelMap, phi: ChannelMap, basis: OperatorSubspace | None = None) -> float:
    """Upper bound on max_{1<=k<=ABSORPTION_POWERS} || e phi^k e - e ||_F for an
    ergodic idempotent e of a unital CP map phi on M_n.

    Preconditions (checked to ``TOL.ucp``): e is idempotent and absorbs phi on
    both sides, which makes the returned value a numerical-consistency
    certificate. ``basis`` is an orthonormal basis of the range of e (for a
    Cesaro idempotent, the fixed space of phi); when omitted,
    ``e.range_basis()`` supplies it. Any basis keeps the bounds below valid;
    one that spans the range keeps delta at rounding level.

    No d x d by d x d product is formed (d = n^2). Let Q (d x r) hold the
    basis, Y = Q^* S_e and Delta = S_e - Q Y; the split S_e = Q Y + Delta is
    exact for any Q, and delta = ||Delta||_F is measured. Then

        S_e S^k S_e = Q (Y S^k Q) Y + Q (Y S^k) Delta + Delta (S^k Q) Y + Delta S^k Delta,

    and the row block Y S^k and column block S^k Q advance by one r x d by
    d x d product each per power, O(r d^2). Every term but the last is
    formed. For a unital CP psi = phi^k, Kadison-Schwarz gives
    psi(x)^* psi(x) <= psi(x^* x), so ||psi(x)||_2^2 <= <psi_*(I), x^* x>
    <= n ||x||_2^2, because psi_*(I) is PSD with trace tr psi(I) = n. Hence
    ||Delta S^k Delta||_F <= ||Delta||_op ||S^k||_{2->2} ||Delta||_F
    <= sqrt(n) delta^2, and the value returned is the largest norm of the
    formed terms plus sqrt(n) delta^2: an upper bound on the dense value,
    and at most 2 sqrt(n) delta^2 above it. The unital-CP hypothesis is
    the caller's (``cesaro_idempotent`` checks it).

    The preconditions are bounded the same way: idempotency by the k = 0
    formed terms plus ||Delta Delta||_F <= delta^2; absorption by
    ||(S Q - Q) Y||_F and ||Q (Y S - Y)||_F, each plus
    ||S Delta - Delta||_F, ||Delta S - Delta||_F <= (sqrt(n) + 1) delta.
    """
    preconditions, out = _absorption_bounds(e, phi, basis)
    worst = max(preconditions.values())
    if worst > TOL.ucp:
        raise ValueError(f"check_absorption: precondition violated (residual {worst:.3e})")
    return out
