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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellis_envelope.boundary import build_T_set
from ellis_envelope.channels import (
    ChannelMap,
    NonConvergenceError,
    cesaro_idempotent,
    compose,
    fixed_space,
    random_unital_channel,
)
from ellis_envelope import spectrahedron
from ellis_envelope.linalg import frobenius, herm, hermitian_eig
from ellis_envelope.spectrahedron import (
    OperatorSubspace,
    _b_orth_complement,
    _face_system,
    _rows_to_real,
    build_system_set,
    cb_norm,
    cb_norm_bracket,
    dykstra_project,
    herm_to_real,
    maximize_linear,
    polar_dual_upper_bound,
    real_to_herm,
    sample,
    witness_lower_bound,
)

from conftest import I2, SX, SZ, random_complex, random_hermitian, subspace_equal

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
# sums; the package builds only the compressed rows of each face.


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


def test_subspace_rejects_contradictory_flags():
    basis = OperatorSubspace.from_matrices(diag_units(2)).basis
    with pytest.raises(ValueError, match="unital"):
        OperatorSubspace(2, basis, unital=False, selfadjoint=True)
    with pytest.raises(ValueError, match="selfadjoint"):
        OperatorSubspace(2, basis, unital=True, selfadjoint=False)


def test_subspace_json_roundtrip():
    space = OperatorSubspace.from_matrices([I2, SX])
    back, mode = OperatorSubspace.from_json(space.to_json(mode="space"))
    assert mode == "space"
    eq, _ = subspace_equal(space.basis, back.basis)
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
        ChannelMap.schur(np.array([[1.0, 0.3 - 0.4j], [0.3 + 0.4j, 1.0]])),
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
    # random complex laws, so a transposed or swapped index changes the rows
    rng = np.random.default_rng(4)
    for n in (2, 3):
        d = n * n
        xs = [random_complex(rng, n, n) for _ in range(2)]
        s_psi = random_complex(rng, d, d)
        for r in (d, d - 1, 2):
            v, _ = np.linalg.qr(random_complex(rng, d, r))
            a, b = _face_system(laws_of(n, xs, s_psi), n, v)
            a_ref, b_ref = reference_face_system(n, xs, s_psi, v)
            assert a.shape == a_ref.shape == ((3 + n * n) * n * n * 2, r * r)
            assert np.max(np.abs(a - a_ref)) <= 1e-12
            assert np.array_equal(b, b_ref)


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


def test_b_orth_complement_is_orthonormal_and_orthogonal_to_b():
    # the stacked right-hand side of a random rigid span{I, x, y} in M_2 is
    # where an unpivoted QR of I - u u^T kept a column 1.5e-3 off the
    # complement; the other vectors cover both signs of the leading entry
    rng = np.random.default_rng(0)
    x, y = (random_complex(rng, 2, 2) for _ in range(2))
    space = OperatorSubspace.from_matrices([I2, x + x.conj().T, y + y.conj().T])
    _, rhs = _face_system(laws_of(2, space.basis.mats, None), 2, np.eye(4, dtype=complex))
    for b in (rhs, rng.standard_normal(7), -np.abs(rng.standard_normal(7)), np.eye(7)[-1]):
        q = _b_orth_complement(b)
        assert q.shape == (len(b), len(b) - 1)
        assert np.max(np.abs(q.T @ q - np.eye(len(b) - 1))) <= 1e-12
        assert np.linalg.norm(q.T @ b) <= 1e-12 * np.linalg.norm(b)


def test_null_directions_span_the_affine_slice(d2_set, ucp2_set, singleton_set):
    # D_2: members are schur_choi(c), a slice of real dimension 2
    assert d2_set.null_directions.shape == (2, 4, 4)
    assert singleton_set.null_directions.shape[0] == 0
    for fset in (d2_set, ucp2_set):
        dirs = fset.null_directions
        gram = np.einsum("kij,lij->kl", dirs.conj(), dirs)
        assert np.max(np.abs(gram - np.eye(len(dirs)))) <= 1e-12
        for dj in dirs:
            assert frobenius(dj - dj.conj().T) <= 1e-12
            moved = fset.membership(fset.center.choi + 0.1 * dj).residuals
            assert max(v for k, v in moved.items() if k != "psd") <= 1e-12


def test_center_is_an_interior_member(d2_set, ucp2_set):
    for fset in (d2_set, ucp2_set):
        assert fset.membership(fset.center).ok
        y0 = fset.compress(fset.center.choi)
        assert float(hermitian_eig(herm(y0)).values[0]) > 1e-3


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


@pytest.mark.parametrize("n, seed", [(3, 1007), (4, 1000), (5, 1008)])
def test_projection_matches_closed_form_t_set(n, seed):
    # draws where the active-face polish of the former Dykstra solver
    # returned a member 4e-4 to 8e-4 away from the nearest one
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
    phi, val = maximize_linear(singleton_set, c, n_starts=2)
    j_id = ChannelMap.identity(2).choi
    assert frobenius(phi.choi - j_id) < 1e-6
    assert val == pytest.approx(float(np.real(np.trace(c @ j_id))), abs=1e-6)


def test_maximize_zero_objective(ucp2_set):
    phi, val = maximize_linear(ucp2_set, np.zeros((4, 4)), n_starts=2)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert ucp2_set.membership(phi).ok


def test_maximize_beats_known_feasible_point(ucp2_set):
    # objective J_pinch - J_id evaluates to 0 at the pinching map; the ascent
    # value must certify at least that, and the true maximum is 2 (attained
    # by conjugation with sigma_z), which bounds it from above
    c = ChannelMap.pinching(2).choi - ChannelMap.identity(2).choi
    pinch_value = float(np.real(np.trace(c @ ChannelMap.pinching(2).choi)))
    phi, val = maximize_linear(ucp2_set, c, n_starts=3)
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
    f_psi = fixed_space(ChannelMap.conjugation(SZ))
    for seed in (3, 4):
        theta = sample(absorb_set, seed)
        for m in fixed_space(theta).mats:
            assert f_psi.distance(m) < 1e-6
    pinch_fixed = fixed_space(ChannelMap.pinching(2))
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


def test_cb_norm_of_cp_maps_is_output_norm():
    assert cb_norm(ChannelMap.identity(2)) == pytest.approx(1.0, abs=1e-9)
    assert cb_norm(ChannelMap.pinching(2)) == pytest.approx(1.0, abs=1e-9)
    halve = ChannelMap.from_kraus([I2 / np.sqrt(2.0)])
    assert cb_norm(halve) == pytest.approx(0.5, abs=1e-9)


def test_cb_norm_of_transpose():
    t2 = ChannelMap.transpose_map(2)
    assert cb_norm(t2, tol=1e-3) == pytest.approx(2.0, abs=1e-3)
    bracket = cb_norm_bracket(t2, tol=1e-3)
    assert bracket.converged
    assert cb_norm(ChannelMap.transpose_map(3), tol=1e-3) == pytest.approx(3.0, abs=1e-3)


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
    val, witness = witness_lower_bound(ChannelMap.transpose_map(2))
    assert val >= 2.0 - 1e-9
    assert np.linalg.norm(witness, ord=2) <= 1.0 + 1e-9


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
    rng = np.random.default_rng(17)
    for _ in range(5):
        phi = ChannelMap(2, 2, random_hermitian(rng, 4))
        lo, _ = witness_lower_bound(phi)
        assert lo <= polar_dual_upper_bound(phi) + 1e-9


def test_completion_upper_end_is_a_repaired_psd_certificate():
    # The upper end t' comes with a block [[Y0, J], [J*, Y1]]: exactly J in
    # the corner, PSD to roundoff, and Tr_in Y_i <= t' I.
    t2 = ChannelMap.transpose_map(2)
    noncp = ChannelMap(2, 2, random_hermitian(np.random.default_rng(17), 4))
    lo, _ = witness_lower_bound(noncp)
    for phi, t in ((t2, 2.0), (noncp, 0.5 * (lo + polar_dual_upper_bound(noncp)))):
        found = spectrahedron._block_completion(phi, t)
        assert found is not None
        upper, z = found
        d = 4
        scale = max(1.0, frobenius(z))
        assert np.array_equal(z[:d, d:], phi.choi)
        assert np.array_equal(z[d:, :d], phi.choi.conj().T)
        assert np.linalg.eigvalsh(herm(z))[0] >= -1e-12 * scale
        for blk in (slice(0, d), slice(d, 2 * d)):
            tr = np.einsum("iaib->ab", z[blk, blk].reshape(2, 2, 2, 2))
            assert np.linalg.eigvalsh(herm(tr))[-1] <= upper + 1e-12 * scale
        assert t - 1e-12 <= upper <= t + 1e-7


def test_cb_bracket_reports_gap_when_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(23)
    phi = ChannelMap(2, 2, random_hermitian(rng, 4))
    monkeypatch.setattr(spectrahedron, "COMPLETION_ITERS", 1)
    bracket = cb_norm_bracket(phi, tol=1e-12)
    assert bracket.lower <= bracket.upper
    assert not bracket.converged
    monkeypatch.undo()
    accepted = []
    complete = spectrahedron._block_completion

    def recording(phi_, t):
        found = complete(phi_, t)
        if found is not None:
            accepted.append(found[0])
        return found

    monkeypatch.setattr(spectrahedron, "_block_completion", recording)
    upper = cb_norm(phi)
    assert upper >= bracket.lower - 1e-9
    # every accepted completion moves the upper end to its proven bound t'
    assert accepted and upper == min(accepted)
