import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellis_envelope.linalg import (
    OperatorSubspace,
    frobenius,
    herm,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    psd_project,
    unvec,
    vec,
)

from conftest import I2, SX, SZ, random_hermitian, subspace_equal


def test_hermitian_eig_identity():
    eig = hermitian_eig(np.eye(2))
    assert np.allclose(eig.values, [1.0, 1.0])


def test_hermitian_eig_diagonal_sorted_ascending():
    eig = hermitian_eig(np.diag([3.0, -1.0]))
    assert np.allclose(eig.values, [-1.0, 3.0])


def test_hermitian_eig_pauli_x():
    # characteristic polynomial t^2 - 1 by hand
    eig = hermitian_eig(SX)
    assert np.allclose(eig.values, [-1.0, 1.0])


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        a = random_hermitian(rng, n)
        eig = hermitian_eig(a)
        re = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert frobenius(re - a) <= 1e-9 * max(1.0, frobenius(a))
        # V unitary
        assert frobenius(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((2, 3)))


def test_psd_project_fixes_psd():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = x @ x.conj().T
    assert frobenius(psd_project(p) - p) <= 1e-9 * frobenius(p)


def test_psd_project_clips_diagonal():
    out = psd_project(np.diag([2.0, -3.0]))
    assert np.allclose(out, np.diag([2.0, 0.0]))


def test_psd_project_pauli_x():
    # sx = (+1) on (1,1)/sqrt2 and (-1) on (1,-1)/sqrt2; clipping keeps the + part
    out = psd_project(SX)
    assert np.allclose(out, 0.5 * np.array([[1, 1], [1, 1]]))


def test_psd_project_is_nearest():
    # Frobenius optimality against random PSD competitors
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 3)
    p = psd_project(a)
    d0 = frobenius(a - p)
    for _ in range(30):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        comp = x @ x.conj().T
        assert d0 <= frobenius(a - comp) + 1e-12


def test_psd_project_idempotent():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 4)
    p = psd_project(a)
    assert frobenius(psd_project(p) - p) <= 1e-10


def test_orthonormalize_dedups_parallel():
    basis = OperatorSubspace.from_matrices([I2, 2 * I2])
    assert basis.dim == 1
    assert np.allclose(basis.mats[0], I2 / np.sqrt(2))


def test_orthonormalize_keeps_orthogonal_pair():
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    basis = OperatorSubspace.from_matrices([e11, e22])
    assert basis.dim == 2
    assert np.allclose(basis.mats[0], e11)
    assert np.allclose(basis.mats[1], e22)


def test_orthonormalize_rank_matches_svd():
    rng = np.random.default_rng(19)
    for _ in range(20):
        k = rng.integers(1, 7)
        mats = [random_hermitian(rng, 3) for _ in range(k)]
        # make some deliberate dependencies
        if k >= 3:
            mats[-1] = mats[0] + 0.5 * mats[1]
        basis = OperatorSubspace.from_matrices(mats)
        stacked = np.stack([vec(m) for m in mats])
        rank = np.linalg.matrix_rank(stacked, tol=1e-9)
        assert basis.dim == rank
        gram = basis.vecs() @ basis.vecs().conj().T
        assert frobenius(gram - np.eye(basis.dim)) <= 1e-10


def test_operator_subspace_rejects_a_basis_that_is_not_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSubspace(np.stack([2 * I2]))
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSubspace(np.stack([I2 / np.sqrt(2), (I2 + SZ) / 2]))
    assert OperatorSubspace(np.stack([I2 / np.sqrt(2)])).dim == 1
    assert OperatorSubspace(np.zeros((0, 2, 2))).dim == 0


def test_subspace_equal_same_span_different_basis():
    a = OperatorSubspace.from_matrices([I2, SZ])
    b = OperatorSubspace.from_matrices([I2 + SZ, I2 - SZ])
    eq, dist = subspace_equal(a, b)
    assert eq and dist <= 1e-10


def test_subspace_equal_distance_orthogonal_lines():
    # span{I} vs span{sz}: rank-1 projectors onto orthogonal lines, distance sqrt(2)
    eq, dist = subspace_equal(OperatorSubspace.from_matrices([I2]), OperatorSubspace.from_matrices([SZ]))
    assert not eq
    assert abs(dist - np.sqrt(2)) <= 1e-10


def test_subspace_projection_and_distance():
    basis = OperatorSubspace.from_matrices([I2, SZ])
    diag = np.diag([2.0, 5.0])
    assert basis.distance(diag) <= 1e-12
    assert abs(basis.distance(SX) - np.sqrt(2)) <= 1e-12  # ||sx||_F with no diag part


def test_vec_row_major():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(m), [1, 2, 3, 4])
    assert np.allclose(unvec(vec(m), 2, 2), m)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.allclose(back, m)


def test_matrix_json_rejects_bad_length():
    with pytest.raises(ValueError, match="entries"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_projection_contracts(n, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    p = psd_project(a)
    w = hermitian_eig(p).values
    assert w.min() >= -1e-10 * max(1.0, frobenius(p))
    # a - p is negative semidefinite and orthogonal to p
    assert hermitian_eig(a - p).values.max() <= 1e-10 * max(1.0, frobenius(a))
    assert abs(np.trace(p.conj().T @ (a - p))) <= 1e-9 * max(1.0, frobenius(a)) ** 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_herm_is_projection_onto_hermitians(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = herm(x)
    assert frobenius(h - h.conj().T) <= 1e-12
    assert frobenius(herm(h) - h) <= 1e-12
