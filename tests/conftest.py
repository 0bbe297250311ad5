import numpy as np
import pytest

from ellis_envelope.channels import ChannelMap, unitalize_kraus

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def paulis():
    return I2, SX, SY, SZ


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    x = random_complex(rng, n, n)
    return 0.5 * (x + x.conj().T)


def noncp_draw(n):
    """The benchmark's `noncp` map on M_n: a random Hermitian Choi matrix over n, not CP."""
    rng = np.random.default_rng(20 + n)
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return ChannelMap(n, n, 0.5 * (g + g.conj().T) / n)


def nearfix(delta):
    """(id + Ad u)/2 on M_3, u = diag(1, e^{i delta}, e^{2 pi i / 3}): F_phi is the
    diagonal for every delta > 0, but I - S_phi has a singular value delta / 2."""
    u = np.diag([1.0, np.exp(1j * delta), np.exp(2j * np.pi / 3)])
    return ChannelMap(3, 3, 0.5 * (ChannelMap.identity(3).choi + ChannelMap.conjugation(u).choi))


def schur_map(m):
    """Entrywise multiplier x -> m .* x (CP iff m is PSD)."""
    n = len(m)
    choi = np.zeros((n * n, n * n), dtype=complex)
    choi[np.ix_(np.arange(n) * (n + 1), np.arange(n) * (n + 1))] = m
    return ChannelMap(n, n, choi)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def subspace_equal(a, b, tol=1e-6):
    """Compare subspaces via their orthogonal projectors.

    Returns (equal within tol, Frobenius distance of the projectors).
    """
    if a.n != b.n:
        raise ValueError("subspace_equal: ambient dimensions differ")
    va, vb = a.vecs(), b.vecs()
    dist = float(np.linalg.norm(va.T @ va.conj() - vb.T @ vb.conj()))
    return dist <= tol, dist


def random_unital_kraus(rng, n, n_kraus=3):
    """Kraus operators of the channel ``random_unital_channel(rng, n, n_kraus)`` draws."""
    return unitalize_kraus([random_complex(rng, n, n) for _ in range(n_kraus)])


def lift_kraus(kraus):
    """id_2 (x) phi on M_2(M_n): [[A, X], [Y, B]] -> [[phi(A), phi(X)], [phi(Y), phi(B)]]."""
    return ChannelMap.from_kraus([np.kron(np.eye(2), k) for k in kraus])
