"""Dense complex-matrix primitives shared by every other module.

Matrices are numpy ``complex128`` arrays, row-major, and ``vec`` always means
row-major flattening (``m.reshape(-1)``).  Every subspace of M_n, input or
result, is an ``OperatorSubspace``: a stack of matrices that are orthonormal
under the Frobenius inner product ``<a, b> = tr(a^* b)``, which coincides
with the l2 inner product of their vectorizations. Its structure flags are
read off that basis.

Tolerances: every threshold shared across the package is a field of
``tolerances.TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .tolerances import TOL


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


@cache
def hermitian_basis_plan(n: int) -> tuple[np.ndarray, ...]:
    """The unitary B with columns vec E_kk for k = 0..n-1, then
    vec (E_kl + E_lk)/sqrt(2) for k < l in row-major order, then
    vec i(E_kl - E_lk)/sqrt(2) in the same order, as read-only gathers
    (col, wc, row, wr) of shape (2, n^2): column p of B is
    wc[0, p] e_{col[0, p]} + wc[1, p] e_{col[1, p]}, and row v the same
    with row, wr. Rows v and v^T of B are conjugate."""
    d, m, c = n * n, n * (n + 1) // 2, np.sqrt(0.5)
    k, l = np.triu_indices(n, 1)
    dg, up, lo = np.arange(n) * (n + 1), k * n + l, l * n + k
    col = np.stack([np.r_[dg, up, up], np.r_[dg, lo, lo]])
    wc = np.full((2, d), c, dtype=complex)
    wc[:, :n], wc[0, m:], wc[1, m:] = [[1.0], [0.0]], 1j * c, -1j * c
    row, wr = np.zeros((2, d), dtype=np.intp), np.zeros((2, d), dtype=complex)
    imag = (np.arange(d) >= m).astype(np.intp)
    for a in (1, 0):  # transpose the columns; a = 0 goes last, so the diagonal keeps weight 1
        row[imag, col[a]], wr[imag, col[a]] = np.arange(d), wc[a]
    for x in (col, wc, row, wr):
        x.setflags(write=False)
    return col, wc, row, wr


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^*)/2."""
    return 0.5 * (a + a.conj().T)


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(rows, cols)


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2d complex128 array, optionally enforcing the shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if rows is not None and m.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition a = V diag(w) V^* with w ascending and V unitary."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input is not square or deviates from Hermitian
    by more than ``TOL.structure * max(1, ||a||_F)``.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"hermitian_eig: matrix is {n}x{m}, not square")
    dev = frobenius(a - a.conj().T)
    if dev > TOL.structure * max(1.0, frobenius(a)):
        raise ValueError(f"hermitian_eig: not Hermitian (||a - a^*||_F = {dev:.3e})")
    w, v = np.linalg.eigh(herm(a))
    return HermitianEig(values=w, vectors=v)


def psd_project(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative eigenvalues."""
    eig = hermitian_eig(a)
    w = np.clip(eig.values, 0.0, None)
    return herm((eig.vectors * w) @ eig.vectors.conj().T)


@dataclass(frozen=True)
class OperatorSubspace:
    """A subspace E of M_n, held as a Frobenius-orthonormal basis ``mats`` of shape (dim, n, n).

    A stack whose Gram matrix is further than ``TOL.structure`` from I
    (entrywise) raises; ``from_matrices`` takes arbitrary matrices. The
    structure flags are read off the basis at ``TOL.structure``: ``unital``
    means I is in the span, ``selfadjoint`` means the span is closed under
    the adjoint. Both hold for an operator system, and so for the range of
    every unital CP idempotent (Choi-Effros 1977).
    """

    mats: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError(f"OperatorSubspace: expected (k, n, n) stack, got {m.shape}")
        v = m.reshape(m.shape[0], m.shape[1] * m.shape[2])
        off = float(np.abs(v.conj() @ v.T - np.eye(len(v))).max(initial=0.0))
        if off > TOL.structure:
            raise ValueError(f"OperatorSubspace: basis is not orthonormal (max |Gram - I| = {off:.3e})")
        object.__setattr__(self, "mats", m)

    @classmethod
    def from_matrices(cls, mats) -> "OperatorSubspace":
        """Span of arbitrary matrices, by Gram-Schmidt.

        Modified Gram-Schmidt with one reorthogonalization pass; vectors
        whose residual norm falls below ``TOL.span_rtol * max input norm``
        are dropped, so the dimension is the numerical rank of the span.
        """
        arr = [as_matrix(m) for m in mats]
        if not arr:
            raise ValueError("from_matrices: empty input")
        n = arr[0].shape[0]
        for m in arr:
            if m.shape != (n, n):
                raise ValueError("from_matrices: mixed matrix shapes")
        scale = max(frobenius(m) for m in arr)
        if scale == 0.0:
            raise ValueError("from_matrices: all inputs are zero")
        kept: list[np.ndarray] = []
        for m in arr:
            v = vec(m)
            for _ in range(2):
                for b in kept:
                    v = v - (b.conj() @ v) * b
            norm = np.linalg.norm(v)
            if norm >= TOL.span_rtol * scale:
                kept.append(v / norm)
        if not kept:
            raise ValueError("from_matrices: span is numerically zero")
        return cls(np.stack(kept).reshape(len(kept), n, n))

    @property
    def dim(self) -> int:
        return self.mats.shape[0]

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    @cached_property
    def unital(self) -> bool:
        return bool(self.distance(np.eye(self.n)) <= TOL.structure * np.sqrt(self.n))

    @cached_property
    def selfadjoint(self) -> bool:
        return bool(max(self.distance(m.conj().T) for m in self.mats) <= TOL.structure)

    def vecs(self) -> np.ndarray:
        """Row-stacked vectorizations, shape (dim, n^2)."""
        return self.mats.reshape(self.dim, -1)

    def project(self, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a matrix onto the subspace."""
        v = self.vecs()
        coeff = v.conj() @ vec(a)
        return unvec(coeff @ v, self.n, self.n)

    def distance(self, a: np.ndarray) -> float:
        """Frobenius distance from a matrix to the subspace."""
        return frobenius(as_matrix(a, self.n, self.n) - self.project(a))

    def to_json(self, mode: str = "system") -> dict:
        return {
            "ambient": self.n,
            "basis": [matrix_to_json(m) for m in self.mats],
            "mode": mode,
        }

    @classmethod
    def from_json(cls, obj: dict) -> tuple["OperatorSubspace", str]:
        try:
            n = json_dim(obj["ambient"], "operator space json: ambient")
            mats = [matrix_from_json(m) for m in obj["basis"]]
            mode = obj.get("mode", "system")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"operator space json: missing field ({exc})") from exc
        if mode not in ("system", "space"):
            raise ValueError(f"operator space json: unknown mode {mode!r}")
        space = cls.from_matrices(mats)
        if space.n != n:
            raise ValueError(f"operator space json: basis is {space.n}x{space.n}, ambient says {n}")
        return space, mode


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a matrix as {"rows", "cols", "data"} with row-major [re, im] pairs.

    ``data`` is the (rows * cols, 2) float64 view of the contiguous complex
    matrix, read-only since it shares the matrix's memory: no number is copied
    until ``jsonio.report_chunks`` writes it. ``json.dumps`` needs
    ``default=np.ndarray.tolist`` for it, and ``matrix_from_json`` reads it
    as it reads the lists that ``json.loads`` gives.
    """
    a = np.ascontiguousarray(as_matrix(a))
    data = a.reshape(-1).view(np.float64).reshape(-1, 2)
    data.flags.writeable = False
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def json_dim(value, name: str) -> int:
    """A size declared in JSON: an integer of at least 1. A bool, float or
    string is refused, not cast."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = (json_dim(obj[k], f"matrix json: {k}") for k in ("rows", "cols"))
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix json: missing field ({exc})") from exc
    if len(data) != rows * cols:
        raise ValueError(f"matrix json: expected {rows * cols} entries, got {len(data)}")
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError("matrix json: entries must be [re, im] number pairs") from exc
    if not np.isfinite(flat).all():
        raise ValueError("matrix json: entries must be finite (no NaN or Infinity)")
    return flat.reshape(rows, cols)
