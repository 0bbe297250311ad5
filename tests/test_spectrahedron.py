"""Feasible-set tests.

The set of unital CP maps on M_2 fixing the diagonal algebra has a complete
closed-form description (Schur multipliers by 2x2 correlation matrices), so
its Frobenius projection reduces to clipping one complex number to the unit
disk. That closed form, and the one for the T-set of a diagonal unitary
(one density matrix per diagonal block), are rebuilt here and used as exact
oracles for the dual Newton projection; everything else is checked by
membership residuals and by values evaluated at independently known feasible
points.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellis_envelope.boundary import build_T_set
from ellis_envelope.channels import (
    ChannelMap,
    NonConvergenceError,
    cesaro_idempotent,
    choi_to_superop,
    compose,
    random_unital_channel,
)
from ellis_envelope import channels, spectrahedron
from ellis_envelope.envelope import compute_envelope, paulsen_lift
from ellis_envelope.linalg import frobenius, herm, hermitian_eig
from ellis_envelope.spectrahedron import (
    FeasibleSet,
    OperatorSubspace,
    _pair_bounds,
    _structural_face,
    build_system_set,
    cb_norm,
    cb_norm_bracket,
    dykstra_project,
    maximize_linear,
    sample,
)

from conftest import I2, SX, SZ, nearfix, noncp_draw, random_complex, random_hermitian, schur_map, subspace_equal
from dense_slice import face_null_space, herm_to_real, null_directions, real_to_herm

E01 = np.array([[0, 1], [0, 0]], dtype=complex)


def schur_choi(c):
    """Choi matrix of the Schur multiplier by [[1, c], [conj(c), 1]] on M_2."""
    j = np.zeros((4, 4), dtype=complex)
    j[0, 0] = j[3, 3] = 1.0
    j[0, 3] = c
    j[3, 0] = np.conj(c)
    return j


def d2_projection_oracle(j0):
    """Exact Frobenius projection onto the UCP-fixing-D_2 set.

    Members are exactly schur_choi(c) for |c| <= 1, so the squared distance
    from a Hermitian j0 splits into a constant plus 2|j0[0,3] - c|^2; the
    minimizer clips j0[0,3] to the closed unit disk.
    """
    c = herm(j0)[0, 3]
    if abs(c) > 1.0:
        c = c / abs(c)
    return schur_choi(c)


def density_projection(b):
    """Frobenius-nearest density matrix to a Hermitian b: eigenvalues onto the simplex."""
    eig = hermitian_eig(herm(b))
    u = np.sort(eig.values)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.nonzero(u - css / np.arange(1, len(u) + 1) > 0)[0][-1]
    w = np.clip(eig.values - css[k] / (k + 1), 0.0, None)
    return (eig.vectors * w) @ eig.vectors.conj().T


def t_set_projection_oracle(j0, n):
    """Exact Frobenius projection onto the T-set of a distinct-phase diagonal unitary.

    Over span{I}, the members are sum_a rho_a^T (x) e_aa with rho_a density
    matrices: in the J4[i,a,j,b] layout only the blocks J4[:, a, :, a] are
    nonzero, and each is a density matrix. The distance splits over the
    blocks, so each block of herm(j0) goes to its nearest density matrix
    and everything else to zero.
    """
    h = herm(j0).reshape(n, n, n, n)
    out = np.zeros_like(h)
    for a in range(n):
        out[:, a, :, a] = density_projection(h[:, a, :, a])
    return out.reshape(n * n, n * n)


def t_set_draw(n, seed, noise=0.05):
    """A T-set over span{I} in M_n and a noisy unital channel estimate to project."""
    rng = np.random.default_rng(seed)
    u = np.diag(np.exp(2j * np.pi * rng.random(n)))
    fset = build_T_set(OperatorSubspace.from_matrices([np.eye(n)]), ChannelMap.conjugation(u))
    phi = random_unital_channel(rng, n)
    return fset, phi.choi + noise * herm(random_complex(rng, n * n, n * n))


def diag_units(n):
    return [np.diag([1.0 if k == i else 0.0 for k in range(n)]).astype(complex) for i in range(n)]


def matrix_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


@pytest.fixture(scope="module")
def d2_set():
    return build_system_set(OperatorSubspace.from_matrices(diag_units(2)))


@pytest.fixture(scope="module")
def ucp2_set():
    return build_system_set(OperatorSubspace.from_matrices([I2]))


@pytest.fixture(scope="module")
def singleton_set():
    return build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ]))


# --------------------------------- reference rows over vec of the Choi matrix
#
# Dense complex rows with n^4 columns, built entry by entry from the defining
# sums; the package builds no law rows at all, only the projector onto their
# null space.


def _rows_to_real(t, rhs, d):
    """Complex rows over vec(J) -> real rows over the Hermitian coordinates of J."""
    iu_r, iu_c = np.triu_indices(d, 1)
    u = t[:, iu_r * d + iu_c]  # coefficients of J[p,q], p < q
    v = t[:, iu_c * d + iu_r]  # coefficients of J[q,p]
    ac = np.concatenate(
        [t[:, np.arange(d) * d + np.arange(d)], (u + v) / np.sqrt(2.0), 1j * (u - v) / np.sqrt(2.0)],
        axis=1,
    )
    return np.vstack([ac.real, ac.imag]), np.concatenate([rhs.real, rhs.imag])


def unital_rows(n):
    """phi(I) = I: for each (a,b), sum_i J[(i,a),(i,b)] = delta_ab."""
    d = n * n
    t = np.zeros((n * n, d * d), dtype=complex)
    rhs = np.zeros(n * n, dtype=complex)
    for a in range(n):
        for b in range(n):
            row = a * n + b
            for i in range(n):
                t[row, (i * n + a) * d + (i * n + b)] += 1.0
            rhs[row] = 1.0 if a == b else 0.0
    return t, rhs


def fix_rows(x, n):
    """phi(x) = x: for each (a,b), sum_ij x[i,j] J[(i,a),(j,b)] = x[a,b]."""
    d = n * n
    t = np.zeros((n * n, d * d), dtype=complex)
    rhs = np.zeros(n * n, dtype=complex)
    for a in range(n):
        for b in range(n):
            row = a * n + b
            for i in range(n):
                for j in range(n):
                    t[row, (i * n + a) * d + (j * n + b)] += x[i, j]
            rhs[row] = x[a, b]
    return t, rhs


def absorb_rows(s_psi, n):
    """psi . phi = phi: for each (k,i,j), sum_ab (S_psi - I)[k,ab] J[(i,a),(j,b)] = 0."""
    d = n * n
    m = s_psi - np.eye(d)
    t = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for i in range(n):
            for j in range(n):
                for a in range(n):
                    for b in range(n):
                        t[k * d + i * n + j, (i * n + a) * d + (j * n + b)] += m[k, a * n + b]
    return t, np.zeros(d * d, dtype=complex)


def reference_face_system(n, xs, s_psi, v):
    """Real rows over Y (J = V Y V^*) of the reference rows, law by law."""
    d, r = n * n, v.shape[1]
    groups = [unital_rows(n)] + [fix_rows(x, n) for x in xs]
    if s_psi is not None:
        groups.append(absorb_rows(s_psi, n))
    rows, rhss = [], []
    for t, rhs in groups:
        compressed = np.array([(v.T @ row.reshape(d, d) @ v.conj()).reshape(-1) for row in t])
        a, b = _rows_to_real(compressed, rhs, r)
        rows.append(a)
        rhss.append(b)
    return np.vstack(rows), np.concatenate(rhss)


def laws_of(n, xs, s_psi):
    laws = [("unital", np.eye(n, dtype=complex))] + [(f"fix:{k}", x) for k, x in enumerate(xs)]
    if s_psi is not None:
        laws.append(("absorb", s_psi - np.eye(n * n)))
    return laws


def reference_null_space(a):
    """Orthonormal rows spanning the kernel of a tall real matrix (relative cut 1e-10)."""
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[int(np.sum(s > 1e-10 * s[0])) :]


def reference_row_space(a):
    """Orthonormal rows spanning the row space of a real matrix (relative cut 1e-10), by a thin SVD."""
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[: int(np.sum(s > 1e-10 * s[0]))]


def face_law_rows(fset):
    """Orthonormal real rows over the real coordinates of Y (J = V Y V^*) spanning the
    functionals Q^T vec Y, Q = ``fset.face_law_span``: the slice is their common kernel."""
    q = fset.face_law_span
    return reference_row_space(_rows_to_real(q.T, np.zeros(q.shape[1]), fset.face_dim)[0])


def law_rank(fset):
    """Complex rank of the law map on the face: r^2 less the real dimension of the slice."""
    return fset.face_law_span.shape[1]


def same_row_space(a, b, tol):
    """Equal spans of two stacks of orthonormal rows, within tol.

    For equal dimensions ||a - (a b^T) b||_2 = ||a^T a - b^T b||_2, which
    bounds every entry of a^T a - b^T b; no Gram matrix of the columns is formed.
    """
    return a.shape == b.shape and (not len(a) or np.linalg.norm(a - (a @ b.T) @ b, 2) <= tol)


# ------------------------------------------------------- real coordinates


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_real_coordinates_are_a_frobenius_isometry(d, seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, d)
    r = herm_to_real(m)
    assert r.shape == (d * d,)
    assert np.linalg.norm(r) == pytest.approx(frobenius(m), abs=1e-12)
    assert frobenius(real_to_herm(r, d) - m) < 1e-13


def test_constraint_rows_match_complex_form():
    # the real rows must agree with Re/Im of the complex rows on every
    # Hermitian matrix, which is the only place they are ever applied
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        t = random_complex(rng, 5, d * d)
        rhs = random_complex(rng, 5)
        a, b = _rows_to_real(t, rhs, d)
        for _ in range(10):
            m = random_hermitian(rng, d)
            lhs_c = t @ m.reshape(-1) - rhs
            lhs_r = a @ herm_to_real(m) - b
            assert np.allclose(lhs_r, np.concatenate([lhs_c.real, lhs_c.imag]), atol=1e-12)


# ------------------------------------------------------ operator subspaces


def test_subspace_flags_computed_from_basis():
    d2 = OperatorSubspace.from_matrices(diag_units(2))
    assert d2.unital and d2.selfadjoint and d2.dim == 2
    off = OperatorSubspace.from_matrices([E01])
    assert not off.unital and not off.selfadjoint
    sx_only = OperatorSubspace.from_matrices([SX])
    assert not sx_only.unital and sx_only.selfadjoint
    sys3 = OperatorSubspace.from_matrices([I2, SX, SZ])
    assert sys3.unital and sys3.selfadjoint and sys3.dim == 3


def test_subspace_json_roundtrip():
    space = OperatorSubspace.from_matrices([I2, SX])
    back, mode = OperatorSubspace.from_json(space.to_json(mode="space"))
    assert mode == "space"
    eq, _ = subspace_equal(space, back)
    assert eq
    assert back.unital and back.selfadjoint


def test_subspace_json_errors():
    good = OperatorSubspace.from_matrices([I2]).to_json()
    with pytest.raises(ValueError, match="missing"):
        OperatorSubspace.from_json({"basis": good["basis"]})
    with pytest.raises(ValueError, match="mode"):
        OperatorSubspace.from_json({**good, "mode": "weird"})
    with pytest.raises(ValueError, match="ambient"):
        OperatorSubspace.from_json({**good, "ambient": 3})


# ------------------------------------------------------- set construction


def test_system_set_requires_operator_system():
    with pytest.raises(ValueError, match="corner lift"):
        build_system_set(OperatorSubspace.from_matrices([E01]))
    with pytest.raises(ValueError, match="unital"):
        build_system_set(OperatorSubspace.from_matrices([SX]))


def test_d2_set_contains_the_named_maps(d2_set):
    for phi in (
        ChannelMap.identity(2),
        ChannelMap.pinching(2),
        schur_map(np.array([[1.0, 0.3 - 0.4j], [0.3 + 0.4j, 1.0]])),
    ):
        rep = d2_set.membership(phi)
        assert rep.ok, rep.residuals
    # transpose fixes D_2 but is not CP: only the cone residual may fail
    rep = d2_set.membership(ChannelMap.transpose_map(2))
    assert not rep.ok
    assert rep.residuals["psd"] == pytest.approx(1.0, abs=1e-12)


def test_identity_is_member_of_every_plain_system_set(d2_set, ucp2_set, singleton_set):
    for fset in (d2_set, ucp2_set, singleton_set):
        assert fset.membership(ChannelMap.identity(2)).ok


def test_face_dimensions(d2_set, ucp2_set, singleton_set):
    # sets made of singular Choi matrices get compressed onto their face;
    # the full UCP set has interior members and keeps the ambient dimension
    assert d2_set.face_dim == 2
    assert ucp2_set.face_dim == 4
    assert singleton_set.face_dim == 1
    d3 = build_system_set(OperatorSubspace.from_matrices(diag_units(3)))
    assert d3.face_dim == 3
    full = build_system_set(OperatorSubspace.from_matrices(matrix_units(2)))
    assert full.face_dim == 1


def test_face_system_matches_compressed_reference_rows():
    # random complex laws (an adjoint-closed pair and a conjugation), so a
    # transposed or swapped index changes the null space; on every face V,
    # the kernel of the face law map is the null space of the reference rows.
    # W, the absorb law's span, is the complement of F_psi from psi's Cesaro SVD
    rng = np.random.default_rng(4)
    for n in (2, 3):
        d = n * n
        a = random_complex(rng, n, n)
        xs = [a, a.conj().T]
        u, _ = np.linalg.qr(random_complex(rng, n, n))
        psi = ChannelMap.conjugation(u)
        s_psi = psi.superop
        w = channels._hermitian_vecs(cesaro_idempotent(psi).complement, n)
        base = FeasibleSet.from_laws(n, laws_of(n, xs, s_psi), np.zeros((d, d)), w)
        for r in (d, d - 1, 2):
            v, _ = np.linalg.qr(random_complex(rng, d, r))
            fset = dataclasses.replace(base, face=v)
            a_ref, _ = reference_face_system(n, xs, s_psi, v)
            assert same_row_space(face_null_space(fset), reference_null_space(a_ref), 1e-12)
            assert same_row_space(face_law_rows(fset), reference_row_space(a_ref), 1e-12)
        full = dataclasses.replace(base, face=np.eye(d))
        assert len(null_directions(full)) == (d - 3) * n
        assert d * d - law_rank(full) == (d - 3) * n


def test_membership_residuals_match_reference_rows(d2_set):
    rng = np.random.default_rng(8)
    for n in (2, 3):
        d = n * n
        xs = [random_complex(rng, n, n) for _ in range(2)]
        s_psi = random_complex(rng, d, d)
        fset = dataclasses.replace(d2_set, n=n, laws=tuple(laws_of(n, xs, s_psi)))
        groups = [unital_rows(n)] + [fix_rows(x, n) for x in xs] + [absorb_rows(s_psi, n)]
        for _ in range(3):
            j = random_hermitian(rng, d)
            res = fset.membership(j).residuals
            for (name, _), (t, rhs) in zip(fset.laws, groups):
                a, b = _rows_to_real(t, rhs, d)
                assert res[name] == pytest.approx(np.linalg.norm(a @ herm_to_real(j) - b), rel=1e-12)


def diag_unitary(n):
    return ChannelMap.conjugation(np.diag(np.exp(2j * np.pi * np.arange(n) / n)))


SHIFT3 = np.roll(np.eye(3), 1, axis=0).astype(complex)

# (name, builder, face dim, law rank): the faces and ranks of the law map on
# the face that the set construction has kept since facial reduction first
# reached them (the law rank was the number of law rows kept)
ACCEPTANCE_SETS = [
    ("rigid", lambda: build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ])), 1, 1),
    ("full M_2", lambda: build_system_set(OperatorSubspace.from_matrices(matrix_units(2))), 1, 1),
    (
        "corner lift",
        lambda: build_system_set(paulsen_lift(OperatorSubspace.from_matrices([E01]))),
        5,
        9,
    ),
    *[
        (f"diag M_{n}", lambda n=n: build_system_set(OperatorSubspace.from_matrices(diag_units(n))), n, n)
        for n in range(2, 8)
    ],
    *[
        (f"span{{I}} M_{n}", lambda n=n: build_system_set(OperatorSubspace.from_matrices([np.eye(n)])), n * n, n * n)
        for n in range(2, 8)
    ],
    *[
        (f"T_{n}", lambda n=n: build_T_set(OperatorSubspace.from_matrices([np.eye(n)]), diag_unitary(n)), n * n, rows)
        for n, rows in ((3, 57), (4, 196), (5, 505))
    ],
    (
        "shift M_3",
        lambda: build_T_set(OperatorSubspace.from_matrices([np.eye(3)]), ChannelMap.conjugation(SHIFT3)),
        9,
        57,
    ),
    ("conj sz", lambda: build_T_set(OperatorSubspace.from_matrices([I2]), ChannelMap.conjugation(SZ)), 4, 10),
]
# each builder runs once per session: the tests below share one set and its
# cached law span
ACCEPTANCE_SETS = [(name, functools.cache(build), face, rows) for name, build, face, rows in ACCEPTANCE_SETS]


@pytest.mark.parametrize("name, build, face, rows", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS])
def test_face_and_law_rows_of_acceptance_sets(name, build, face, rows):
    fset = build()
    assert (fset.face_dim, law_rank(fset)) == (face, rows)


def span_i_m3():
    return OperatorSubspace.from_matrices([np.eye(3)])


# the T-sets among them, and T-sets of nearfix(delta) on both sides of the
# fixed-space cut and inside the window where two cuts once disagreed
T_SETS = [(name, build) for name, build, _, _ in ACCEPTANCE_SETS if name.startswith("T_")]
T_SETS += [(name, build) for name, build, _, _ in ACCEPTANCE_SETS if name in ("shift M_3", "conj sz")]
T_SETS += [
    (f"nearfix {delta:.0e}", lambda delta=delta: build_T_set(span_i_m3(), nearfix(delta)))
    for delta in (1e-15, 1e-12, 3e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-6, 1e-2)
]


@pytest.mark.parametrize("name, build", T_SETS, ids=[s[0] for s in T_SETS])
def test_known_member_of_a_t_set_is_on_its_slice(name, build):
    # W is the complement of the F_phi whose projection J_p is, from one
    # SVD, so W^* S_{J_p} = 0 to rounding and the eps term of
    # ``probe_minimality`` measures e alone
    fset = build()
    w = fset.span_out
    assert w.shape[1] > 0
    assert frobenius(w.conj().T @ choi_to_superop(fset.member, fset.n, fset.n)) <= 1e-13


@pytest.mark.parametrize("name, build, face, rows", ACCEPTANCE_SETS, ids=[s[0] for s in ACCEPTANCE_SETS])
def test_law_projector_matches_reference_rows(name, build, face, rows):
    # the face law map's row space is that of the reference rows, built
    # entry by entry; I - P (and with it P) is a self-adjoint,
    # idempotent, Hermitian-preserving map, and the set's known member
    # passes membership
    fset = build()
    n, d = fset.n, fset.choi_dim
    laws = dict(fset.laws)
    xs = [m for key, m in fset.laws if key.startswith("fix")]
    s_psi = laws["absorb"] + np.eye(d) if "absorb" in laws else None
    a_ref, _ = reference_face_system(n, xs, s_psi, fset.face)
    assert same_row_space(face_law_rows(fset), reference_row_space(a_ref), 1e-12)
    rng = np.random.default_rng(len(name))
    a, b = random_complex(rng, d, d), random_complex(rng, d, d)
    pa, pb = fset.law_project(a), fset.law_project(b)
    assert abs(np.vdot(a, pb) - np.vdot(pa, b)) <= 1e-12 * d
    assert frobenius(fset.law_project(pa) - pa) <= 1e-12 * d
    h = herm(a)
    ph = fset.law_project(h)
    assert frobenius(ph - ph.conj().T) <= 1e-12 * d
    assert fset.membership(fset.member).ok


# span{I, x} in M_n: a member may only move the middle eigenvectors of x onto
# the extreme ones, so the face has dimension n^2 - 2(n - 1). The next three
# sets are where the exposing-vector search this replaced stopped at n^2.


def test_face_of_span_i_x_hypothesis_draw():
    # the property test's draw with seed 2972: eigenvalues -3.57, 0.71, 1.11
    x = random_hermitian(np.random.default_rng(2972), 3)
    assert build_system_set(OperatorSubspace.from_matrices([np.eye(3), x])).face_dim == 5


def test_face_of_span_i_random_diagonal_m5():
    d = np.random.default_rng(1).standard_normal(5)
    fset = build_system_set(OperatorSubspace.from_matrices([np.eye(5), np.diag(d)]))
    assert (fset.face_dim, law_rank(fset)) == (17, 32)


def test_envelope_of_span_i_near_degenerate_diagonal_is_certified():
    # two eigenvalues 1e-3 apart: the envelope is still C^2
    space = OperatorSubspace.from_matrices([np.eye(3), np.diag([0.0, 1.0, 1.0 + 1e-3])])
    assert build_system_set(space).face_dim == 5
    res = compute_envelope(space, seed=0)
    assert res.certificate == "certified"
    assert res.rank == 2


def test_structural_face_holds_members_built_by_hand():
    # x = U diag(l1 < l2 < l3) U^* complex, so a transposed kernel projection
    # in kron(a^T, K) would show. Members: y -> P1 y P1 + P3 y P3 + w(y) P2,
    # with w the state t <u1, y u1> + (1 - t) <u3, y u3> that gives w(x) = l2,
    # and conjugations by unitaries diagonal in x's eigenbasis
    rng = np.random.default_rng(5)
    x = random_hermitian(rng, 3)
    fset = build_system_set(OperatorSubspace.from_matrices([np.eye(3), x]))
    assert fset.face_dim == 5
    lam, u = np.linalg.eigh(x)
    t = (lam[2] - lam[1]) / (lam[2] - lam[0])
    cols = [u[:, [k]] for k in range(3)]
    kraus = [
        cols[0] @ cols[0].conj().T,
        cols[2] @ cols[2].conj().T,
        np.sqrt(t) * cols[1] @ cols[0].conj().T,
        np.sqrt(1 - t) * cols[1] @ cols[2].conj().T,
    ]
    members = [ChannelMap.from_kraus(kraus)]
    members.append(ChannelMap.conjugation(u @ np.diag(np.exp(2j * np.pi * rng.random(3))) @ u.conj().T))
    p = fset.face @ fset.face.conj().T
    for phi in members:
        assert fset.membership(phi).ok
        assert frobenius(phi.choi - p @ phi.choi @ p) <= 1e-10


def test_structural_face_that_misses_the_identity_raises(monkeypatch):
    # no eigenvalue passes a negative rank cut, so every kernel is empty and
    # the face would be {0}; the guard refuses it instead of building on it
    monkeypatch.setattr(spectrahedron, "TOL", dataclasses.replace(spectrahedron.TOL, rank=-1.0))
    laws = [("unital", np.eye(2, dtype=complex)), ("fix:0", SZ)]
    with pytest.raises(RuntimeError, match="identity"):
        _structural_face(laws, 2)


def test_null_directions_span_the_affine_slice(d2_set, ucp2_set, singleton_set):
    # D_2: members are schur_choi(c), a slice of real dimension 2
    assert null_directions(d2_set).shape == (2, 4, 4)
    assert null_directions(singleton_set).shape[0] == 0
    for fset in (d2_set, ucp2_set):
        dirs = null_directions(fset)
        gram = np.einsum("kij,lij->kl", dirs.conj(), dirs)
        assert np.max(np.abs(gram - np.eye(len(dirs)))) <= 1e-12
        for dj in dirs:
            assert frobenius(dj - dj.conj().T) <= 1e-12
            moved = fset.membership(fset.center.choi + 0.1 * dj).residuals
            assert max(v for k, v in moved.items() if k != "psd") <= 1e-12


def test_center_is_an_interior_member(d2_set, ucp2_set):
    # the member nearest I/n has a positive definite compression on every
    # pinned set; where the trace state x -> tr(x) I/n is a member (span{I}
    # and its T-sets), it is that member
    sets = [("diag fixture", d2_set), ("span{I} fixture", ucp2_set)]
    sets += [(name, build()) for name, build, _, _ in ACCEPTANCE_SETS]
    for name, fset in sets:
        center = fset.center
        assert fset.membership(center).ok, name
        y0 = fset.compress(center.choi)
        assert float(hermitian_eig(herm(y0)).values[0]) > 1e-3, name
        if name.startswith(("span{I}", "T_", "shift", "conj")):
            assert frobenius(center.choi - np.eye(fset.choi_dim) / fset.n) <= 1e-12, name


def test_span_i_center_is_its_start_without_a_newton_step(monkeypatch):
    # I/n is a member of span{I}'s set, so the projection returns its start:
    # one small gradient there meets the optimality conditions
    def no_step(*args, **kwargs):
        raise AssertionError("dykstra_project took a Newton step")

    monkeypatch.setattr(spectrahedron, "_newton_direction", no_step)
    for n in range(2, 9):
        center = build_system_set(OperatorSubspace.from_matrices([np.eye(n)])).center
        assert frobenius(center.choi - np.eye(n * n) / n) <= 1e-12, n


# ------------------------------------------------------------- projection


def test_projection_matches_closed_form_interior(d2_set):
    rng = np.random.default_rng(11)
    j0 = ChannelMap.pinching(2).choi + 0.4 * random_hermitian(rng, 4)
    assert abs(herm(j0)[0, 3]) < 1.0  # interior of the disk for this seed
    out = dykstra_project(j0, d2_set)
    assert frobenius(out.choi - d2_projection_oracle(j0)) < 1e-9


def test_projection_matches_closed_form_boundary(d2_set):
    rng = np.random.default_rng(12)
    j0 = ChannelMap.identity(2).choi + 0.4 * random_hermitian(rng, 4)
    j0 = j0 + 1.5 * (schur_choi(1.0) - np.diag([1.0, 0, 0, 1.0]))
    assert abs(herm(j0)[0, 3]) > 1.0  # clipped to the circle
    out = dykstra_project(j0, d2_set)
    assert frobenius(out.choi - d2_projection_oracle(j0)) < 1e-7


@pytest.mark.parametrize("n, seed", [(3, 1007), (4, 1000), (5, 1008), (7, 1009), (8, 1010)])
def test_projection_matches_closed_form_t_set(n, seed):
    # n = 3..5: draws where the active-face polish of the former Dykstra
    # solver returned a member 4e-4 to 8e-4 away from the nearest one;
    # n = 7, 8: sizes whose set construction took 14 s / 631 MB and
    # 37 s / 1.7 GB while the laws were factored as rows
    fset, j0 = t_set_draw(n, seed)
    out = dykstra_project(j0, fset)
    assert frobenius(out.choi - t_set_projection_oracle(j0, n)) <= 1e-8


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.05, 0.5, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_t_set_projection_property(n, seed, noise):
    fset, j0 = t_set_draw(n, seed, noise)
    out = dykstra_project(j0, fset)
    assert frobenius(out.choi - t_set_projection_oracle(j0, n)) <= 1e-8


def test_feasible_input_is_returned_unchanged(d2_set):
    j0 = ChannelMap.pinching(2).choi
    out = dykstra_project(j0, d2_set)
    assert frobenius(out.choi - j0) < 1e-8


def test_singleton_sets_project_to_identity(singleton_set):
    rng = np.random.default_rng(5)
    j0 = ChannelMap.identity(2).choi + 0.3 * random_hermitian(rng, 4)
    out = dykstra_project(j0, singleton_set)
    assert frobenius(out.choi - ChannelMap.identity(2).choi) < 1e-7

    full = build_system_set(OperatorSubspace.from_matrices(matrix_units(2)))
    out = dykstra_project(random_hermitian(rng, 4), full)
    assert frobenius(out.choi - ChannelMap.identity(2).choi) < 1e-7


def test_projection_is_idempotent_on_its_output(d2_set, ucp2_set):
    rng = np.random.default_rng(21)
    for fset in (d2_set, ucp2_set):
        first = dykstra_project(random_hermitian(rng, 4), fset).choi
        again = dykstra_project(first, fset).choi
        assert frobenius(again - first) < 1e-8


def test_small_perturbation_projects_to_member(d2_set):
    rng = np.random.default_rng(3)
    j0 = ChannelMap.identity(2).choi + 0.01 * random_hermitian(rng, 4)
    out = dykstra_project(j0, d2_set)
    rep = d2_set.membership(out)
    assert rep.ok and rep.worst <= 1e-8


def test_nonconvergence_carries_residual_history(d2_set, monkeypatch):
    # |j0[0,3]| > 1, so the start (the affine projection of j0) is not PSD
    rng = np.random.default_rng(12)
    j0 = ChannelMap.identity(2).choi + 0.4 * random_hermitian(rng, 4)
    j0 = j0 + 1.5 * (schur_choi(1.0) - np.diag([1.0, 0, 0, 1.0]))
    monkeypatch.setattr(spectrahedron, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        dykstra_project(j0, d2_set)
    history = exc.value.history
    assert len(history) == 1
    assert history[-1][1] > 1e-8


# --------------------------------------------------------------- sampling


def test_sample_is_deterministic_per_seed(d2_set):
    a = sample(d2_set, seed=7)
    b = sample(d2_set, seed=7)
    assert frobenius(a.choi - b.choi) == 0.0


def test_samples_are_members_and_distinct(ucp2_set):
    maps = [sample(ucp2_set, seed=s) for s in range(10)]
    for phi in maps:
        rep = ucp2_set.membership(phi)
        assert rep.ok, rep.residuals
    for i in range(10):
        for j in range(i + 1, 10):
            assert frobenius(maps[i].choi - maps[j].choi) > 1e-3


def test_sample_from_singleton_is_identity():
    full = build_system_set(OperatorSubspace.from_matrices(matrix_units(2)))
    for seed in (0, 1, 2):
        phi = sample(full, seed)
        assert frobenius(phi.choi - ChannelMap.identity(2).choi) < 1e-7


def test_sample_d2_seed_zero_fix_residuals(d2_set):
    rep = d2_set.membership(sample(d2_set, seed=0))
    assert rep.residuals["fix:0"] <= 1e-8
    assert rep.residuals["fix:1"] <= 1e-8
    assert rep.ok


# ------------------------------------------------------ closure invariants


def test_membership_closed_under_composition(d2_set, ucp2_set):
    for fset in (d2_set, ucp2_set):
        t1 = sample(fset, seed=1)
        t2 = sample(fset, seed=2)
        rep = fset.membership(compose(t1, t2), tol=2e-8)
        assert rep.ok, rep.residuals


def test_membership_closed_under_convex_combination(ucp2_set):
    t1 = sample(ucp2_set, seed=3)
    t2 = sample(ucp2_set, seed=4)
    mix = 0.3 * t1.choi + 0.7 * t2.choi
    rep = ucp2_set.membership(mix, tol=2e-8)
    assert rep.ok, rep.residuals


# ------------------------------------------------------------ linear ascent


def test_maximize_on_singleton_returns_its_point(singleton_set):
    rng = np.random.default_rng(9)
    c = random_hermitian(rng, 4)
    phi, val = maximize_linear(singleton_set, c)
    j_id = ChannelMap.identity(2).choi
    assert frobenius(phi.choi - j_id) < 1e-6
    assert val == pytest.approx(float(np.real(np.trace(c @ j_id))), abs=1e-6)


def test_maximize_zero_objective(ucp2_set):
    phi, val = maximize_linear(ucp2_set, np.zeros((4, 4)))
    assert val == pytest.approx(0.0, abs=1e-12)
    assert ucp2_set.membership(phi).ok


def test_maximize_beats_known_feasible_point(ucp2_set):
    # objective J_pinch - J_id evaluates to 0 at the pinching map; the ascent
    # value must certify at least that, and the true maximum is 2 (attained
    # by conjugation with sigma_z), which bounds it from above
    c = ChannelMap.pinching(2).choi - ChannelMap.identity(2).choi
    pinch_value = float(np.real(np.trace(c @ ChannelMap.pinching(2).choi)))
    phi, val = maximize_linear(ucp2_set, c)
    assert val >= pinch_value - 1e-8
    assert val <= 2.0 + 1e-6
    assert ucp2_set.membership(phi).ok


# ------------------------------------------------------------- absorb sets


@pytest.fixture(scope="module")
def absorb_set():
    # UCP maps absorbed by conjugation with sigma_z, i.e. maps into D_2
    return build_system_set(
        OperatorSubspace.from_matrices([I2]), absorb=ChannelMap.conjugation(SZ)
    )


def test_absorb_set_contains_cesaro_idempotent(absorb_set):
    e = cesaro_idempotent(ChannelMap.conjugation(SZ)).idempotent
    rep = absorb_set.membership(e)
    assert rep.ok and rep.worst <= 1e-9


def test_absorb_member_fixed_space_inside_absorber(absorb_set):
    f_psi = cesaro_idempotent(ChannelMap.conjugation(SZ)).fixed_space
    for seed in (3, 4):
        theta = sample(absorb_set, seed)
        for m in cesaro_idempotent(theta).fixed_space.mats:
            assert f_psi.distance(m) < 1e-6
    pinch_fixed = cesaro_idempotent(ChannelMap.pinching(2)).fixed_space
    assert pinch_fixed.dim == 2
    assert max(f_psi.distance(m) for m in pinch_fixed.mats) < 1e-9


def test_absorb_set_closed_under_composition(absorb_set):
    t1 = sample(absorb_set, seed=5)
    t2 = sample(absorb_set, seed=6)
    rep = absorb_set.membership(compose(t1, t2), tol=2e-8)
    assert rep.ok, rep.residuals


def test_absorb_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="ambient"):
        build_system_set(
            OperatorSubspace.from_matrices([I2]), absorb=ChannelMap.identity(3)
        )


# ---------------------------------------------------------------- cb norm


def random_density(rng, m):
    g = random_complex(rng, m, m)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_cb_norm_of_cp_maps_is_output_norm():
    halve = ChannelMap.from_kraus([I2 / np.sqrt(2.0)])
    for phi, value in ((ChannelMap.identity(2), 1.0), (ChannelMap.pinching(2), 1.0), (halve, 0.5)):
        assert cb_norm(phi) == pytest.approx(value, abs=1e-9)
        # the bracket itself closes at I/m on CP maps
        b = cb_norm_bracket(phi)
        assert b.converged and b.bisections == 0
        assert b.lower <= b.upper
        assert b.lower == pytest.approx(value, abs=1e-9)
        assert b.upper == pytest.approx(value, abs=1e-9)


def test_cb_norm_of_transpose():
    for n in range(2, 6):
        tn = ChannelMap.transpose_map(n)
        assert cb_norm(tn, tol=1e-3) == pytest.approx(n, abs=1e-3)
        bracket = cb_norm_bracket(tn, tol=1e-3)
        assert bracket.converged and bracket.bisections == 0
        assert bracket.lower <= bracket.upper
        assert bracket.lower == pytest.approx(n, abs=1e-9)
        assert bracket.upper == pytest.approx(n, abs=1e-9)


def test_transpose_witness_oracle():
    # the swap unitary is a norm-1 witness on which (T (x) id) attains 2:
    # transposing the first leg sends swap to the rank-one matrix vv* with
    # v = vec(I), whose norm is ||v||^2 = 2
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for a in range(2):
            swap[i * 2 + a, a * 2 + i] = 1.0
    transposed = swap.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    assert np.linalg.norm(swap, ord=2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(transposed, ord=2) == pytest.approx(2.0, abs=1e-12)
    # the lower end reaches the witness value, and no upper end at any
    # density pair goes below it
    t2 = ChannelMap.transpose_map(2)
    assert cb_norm_bracket(t2).lower >= 2.0 - 1e-9
    rng = np.random.default_rng(5)
    for _ in range(5):
        _, upper, _ = _pair_bounds(t2.choi, 2, 2, random_density(rng, 2), random_density(rng, 2))
        assert upper >= 2.0 - 1e-9


def test_cb_norm_scaling_and_mixtures():
    t2 = ChannelMap.transpose_map(2)
    scaled = ChannelMap(2, 2, 0.7 * t2.choi)
    b = cb_norm_bracket(scaled, tol=1e-3)
    assert b.lower == pytest.approx(1.4, abs=1e-9)
    assert b.upper == pytest.approx(1.4, abs=1e-9)
    mixed = ChannelMap(2, 2, ChannelMap.identity(2).choi - 0.5 * t2.choi)
    b = cb_norm_bracket(mixed, tol=1e-3)
    assert b.converged
    assert b.upper == pytest.approx(1.5, abs=1e-3)


def test_witness_never_exceeds_dual_bound():
    # weak duality: the lower end at one density pair never exceeds the
    # upper end at another, on Hermitian, non-Hermitian and non-square maps
    rng = np.random.default_rng(17)
    maps = [ChannelMap(2, 2, random_hermitian(rng, 4)) for _ in range(5)]
    maps += [ChannelMap(n, m, random_complex(rng, n * m, n * m)) for n, m in ((2, 3), (3, 2), (3, 3))]
    for phi in maps:
        n, m = phi.dim_in, phi.dim_out
        for _ in range(4):
            lower, _, _ = _pair_bounds(phi.choi, n, m, random_density(rng, m), random_density(rng, m))
            _, upper, _ = _pair_bounds(phi.choi, n, m, random_density(rng, m), random_density(rng, m))
            assert lower <= upper + 1e-9 * max(1.0, upper)


@pytest.mark.parametrize("n, value", [(2, 1.958801), (3, 2.652554), (4, 3.684799)])
def test_cb_bracket_converges_on_noncp_draws(n, value):
    b = cb_norm_bracket(noncp_draw(n), tol=1e-3)
    assert b.converged
    assert b.lower <= b.upper
    assert b.lower - 1e-6 <= value <= b.upper + 1e-6


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
def test_cb_bracket_converges_on_non_square_maps(n, m):
    phi = ChannelMap(n, m, random_complex(np.random.default_rng(5), n * m, n * m))
    b = cb_norm_bracket(phi, tol=1e-3)
    assert b.converged
    assert b.lower <= b.upper
    assert b.densities[0].shape == b.densities[1].shape == (m, m)


def test_cb_bracket_of_zero_map_is_zero():
    zero = ChannelMap(2, 3, np.zeros((6, 6), dtype=complex))
    b = cb_norm_bracket(zero)
    assert (b.lower, b.upper, b.bisections) == (0.0, 0.0, 0)
    assert b.converged
    # an unreachable width makes the ascent run: the zero linear form has no
    # positive part to normalise, and the pair must stay finite
    b = cb_norm_bracket(zero, tol=-1.0)
    assert (b.lower, b.upper) == (0.0, 0.0)
    assert b.bisections == spectrahedron.CB_ASCENT_STEPS
    assert all(np.isfinite(rho).all() for rho in b.densities)


def test_completion_upper_end_is_a_repaired_psd_certificate():
    # The upper end comes with a block [[Y0, J], [J*, Y1]] built from the
    # final density pair: exactly J in the corner, PSD up to rounding (which
    # the congruence by I (x) rho_i^{-1/2} amplifies by up to ||rho_i^{-1}||),
    # and sqrt(lmax Tr_in Y0 * lmax Tr_in Y1) equal to the upper end.
    t2 = ChannelMap.transpose_map(2)
    noncp = ChannelMap(2, 2, random_hermitian(np.random.default_rng(17), 4))
    for phi in (t2, noncp, noncp_draw(3)):
        n = m = phi.dim_in
        d = n * m
        bracket = cb_norm_bracket(phi, tol=1e-6)
        assert bracket.converged
        roots, inv_roots, amplification = [], [], 1.0
        for rho in bracket.densities:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            w, v = np.linalg.eigh(rho)
            assert w[0] > 0.0
            amplification = max(amplification, 1.0 / w[0])
            roots.append(np.kron(np.eye(n), (v * np.sqrt(w)) @ v.conj().T))
            inv_roots.append(np.kron(np.eye(n), (v / np.sqrt(w)) @ v.conj().T))
        u, s, vh = np.linalg.svd(roots[0] @ phi.choi @ roots[1])
        y0 = inv_roots[0] @ (u * s) @ u.conj().T @ inv_roots[0]
        y1 = inv_roots[1] @ (vh.conj().T * s) @ vh @ inv_roots[1]
        z = np.block([[y0, phi.choi], [phi.choi.conj().T, y1]])
        assert np.array_equal(z[:d, d:], phi.choi)
        assert np.linalg.eigvalsh(herm(z))[0] >= -1e-14 * s[0] * amplification
        tops = [
            np.linalg.eigvalsh(herm(np.einsum("iaib->ab", y.reshape(n, m, n, m))))[-1]
            for y in (y0, y1)
        ]
        assert np.sqrt(tops[0] * tops[1]) == pytest.approx(bracket.upper, rel=1e-9)


def test_upper_end_is_proven_when_the_density_pair_is_near_singular():
    # At tol 1e-6 the best pair of this map has min eigenvalue about 2e-9,
    # and the block [[Y0, J], [J*, Y1]] rebuilt from it has a negative
    # eigenvalue (-3.7e-8) far above rounding. The upper end is that of the
    # block shifted by its defect, sqrt((a + n delta)(b + n delta)), and
    # stays above the best lower end the full ascent budget reaches.
    n, m = 2, 3
    d = n * m
    phi = ChannelMap(n, m, random_complex(np.random.default_rng(5), d, d))
    bracket = cb_norm_bracket(phi, tol=1e-6)
    assert bracket.converged and bracket.lower <= bracket.upper
    assert bracket.history[-1][1] == bracket.upper - bracket.lower
    roots, inv_roots = [], []
    for rho in bracket.densities:
        w, v = np.linalg.eigh(rho)
        assert w[0] < 1e-8
        roots.append(np.kron(np.eye(n), (v * np.sqrt(w)) @ v.conj().T))
        inv_roots.append(np.kron(np.eye(n), (v / np.sqrt(w)) @ v.conj().T))
    u, s, vh = np.linalg.svd(roots[0] @ phi.choi @ roots[1])
    y0 = inv_roots[0] @ (u * s) @ u.conj().T @ inv_roots[0]
    y1 = inv_roots[1] @ (vh.conj().T * s) @ vh @ inv_roots[1]
    assert np.linalg.eigvalsh(herm(np.block([[y0, phi.choi], [phi.choi.conj().T, y1]])))[0] < -1e-9
    delta, shifted = spectrahedron._shifted_upper(phi.choi, n, m, *bracket.densities)
    assert delta > 1e-9
    tops = [np.linalg.eigvalsh(herm(np.einsum("iaib->ab", y.reshape(n, m, n, m))))[-1] for y in (y0, y1)]
    assert shifted >= np.sqrt(tops[0] * tops[1]) + delta
    assert bracket.upper >= shifted
    assert bracket.upper >= cb_norm_bracket(phi, tol=-1.0).lower


def test_cb_bracket_reports_gap_when_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(23)
    phi = ChannelMap(2, 2, random_hermitian(rng, 4))
    monkeypatch.setattr(spectrahedron, "CB_ASCENT_STEPS", 1)
    bracket = cb_norm_bracket(phi, tol=1e-12)
    assert bracket.lower <= bracket.upper
    assert not bracket.converged
    assert bracket.bisections == 1
    with pytest.raises(NonConvergenceError) as exc:
        cb_norm(phi, tol=1e-12)
    assert exc.value.history[-1] == (1, pytest.approx(bracket.upper - bracket.lower))
    monkeypatch.undo()
    full = cb_norm_bracket(phi)
    assert full.converged
    # each step keeps the best end of each side, so the width never grows
    widths = [w for _, w in full.history]
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    assert widths[-1] == full.upper - full.lower
    upper = cb_norm(phi)
    assert upper == full.upper
    assert upper >= bracket.lower - 1e-9
