"""Dense reference for the affine slice, kept for the tests.

The package bounds the minimality probe's slice term in face coordinates
(``FeasibleSet.face_law_span``, ``envelope._slice_probe``). This module is
the dense route it replaced: an orthonormal Hermitian basis of the slice
directions, one d x d matrix each, found as the kernel of the face law map
over the real coordinates of Y (J = V Y V^*). It is slow and large, and
serves only as an independent oracle.
"""

import numpy as np

from ellis_envelope.channels import choi_to_superop
from ellis_envelope.linalg import frobenius
from ellis_envelope.tolerances import TOL


def triu(d):
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    return np.triu_indices(d, 1)


def real_to_herm(r, d):
    """Hermitian matrix (or stack) from isometric real coordinates: the diagonal, then
    sqrt(2) Re and sqrt(2) Im of the strict upper triangle, row-major."""
    k = d * (d - 1) // 2
    j = np.zeros(r.shape[:-1] + (d, d), dtype=complex)
    j[(..., *triu(d))] = (r[..., d : d + k] + 1j * r[..., d + k :]) / np.sqrt(2.0)
    j = j + np.swapaxes(j, -1, -2).conj()
    j[..., np.arange(d), np.arange(d)] = r[..., :d]
    return j


def herm_to_real(j):
    """Real coordinates of a Hermitian matrix, the inverse of ``real_to_herm``."""
    upper = j[triu(j.shape[0])]
    return np.concatenate([np.real(np.diag(j)), np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag])


def null_directions(fset):
    """Orthonormal Hermitian basis, shape (k, d, d), of the face directions D with P(D) = D.

    The kernel of the face law map Y -> (S_D U, W^* S_D), S_D the
    superoperator of D = V Y V^*, over the real coordinates of Y: an SVD of
    r^2 rows, cut at ``TOL.affine_rcond``.
    """
    n, r = fset.n, fset.face_dim
    rows = choi_to_superop(fset.expand(real_to_herm(np.eye(r * r), r)), n, n)
    defect = np.concatenate(
        [(rows @ fset.span_in).reshape(r * r, -1), (fset.span_out.conj().T @ rows).reshape(r * r, -1)],
        axis=1,
    )
    u, s, _ = np.linalg.svd(np.concatenate([defect.real, defect.imag], axis=1))
    rank = int(np.sum(s > TOL.affine_rcond * s[0]))
    return fset.expand(real_to_herm(u[:, rank:].T, r))


def face_null_space(fset):
    """The set's null directions in the real coordinates of Y, J = V Y V^*."""
    dirs = null_directions(fset)
    return np.array([herm_to_real(y) for y in fset.compress(dirs)]).reshape(len(dirs), fset.face_dim**2)


def slice_probe(e, fset):
    """eps and sigma = ||G||_F of ``probe_minimality``, G the stack of S_e S_D S_e over the basis."""
    dirs = null_directions(fset)
    flat = dirs.reshape(len(dirs), fset.choi_dim**2)
    off = (e.choi - fset.member).reshape(-1)
    eps = frobenius(off - (flat.conj() @ off).real @ flat)
    return eps, frobenius(e.superop @ choi_to_superop(dirs, fset.n, fset.n) @ e.superop)


def slice_svd_sigma(e, fset):
    """The gain of D -> S_e S_D S_e on the slice: the top singular value of
    [Re G | Im G], G the stack of S_e S_D S_e over the basis."""
    dirs = null_directions(fset)
    if not len(dirs):
        return 0.0
    g = (e.superop @ choi_to_superop(dirs, fset.n, fset.n) @ e.superop).reshape(len(dirs), -1)
    return float(np.linalg.svd(np.hstack([g.real, g.imag]), compute_uv=False)[0])


def off_slice(fset, y):
    """The part of y orthogonal to the real span of the basis, by least squares."""
    dirs = null_directions(fset)
    basis = dirs.reshape(len(dirs), -1).T
    a = np.vstack([basis.real, basis.imag])
    b = np.concatenate([y.real.reshape(-1), y.imag.reshape(-1)])
    r = b - a @ np.linalg.lstsq(a, b, rcond=None)[0]
    return (r[: len(r) // 2] + 1j * r[len(r) // 2 :]).reshape(y.shape)
