"""Absorbed semigroups and noncommutative boundaries.

Oracles: fixed spaces of unitary conjugations are commutants computed by
hand (diagonals for sigma_z, circulants for the cyclic shift), minimal
absorbed idempotents for scalar E are state maps x -> tr(rho x) I whose
compression violation vanishes identically.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import nearfix, random_unitary, subspace_equal

from ellis_envelope import boundary, channels, envelope, spectrahedron
from ellis_envelope.channels import (
    ChannelMap,
    cesaro_idempotent,
    random_unital_channel,
)
from ellis_envelope.boundary import build_T_set, compute_boundary
from ellis_envelope.envelope import probe_minimality
from ellis_envelope.linalg import OperatorSubspace, frobenius
from ellis_envelope.spectrahedron import build_system_set, sample

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def diag_units(n):
    return [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]


def matrix_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            u = np.zeros((n, n), dtype=complex)
            u[i, j] = 1.0
            out.append(u)
    return out


def shift_matrix(n):
    return np.roll(np.eye(n), 1, axis=0).astype(complex)


def circulant_basis(n):
    c = shift_matrix(n)
    mats, p = [], np.eye(n, dtype=complex)
    for _ in range(n):
        mats.append(p / np.sqrt(n))
        p = p @ c
    return OperatorSubspace(np.stack(mats))


@pytest.fixture(scope="module")
def span_i():
    return OperatorSubspace.from_matrices([I2])


@pytest.fixture(scope="module")
def conj_sz():
    return ChannelMap.conjugation(SZ)


@pytest.fixture(scope="module")
def sz_boundary(span_i, conj_sz):
    return compute_boundary(span_i, conj_sz)


# ------------------------------------------------------------------------
# the absorbed feasible set


def test_t_set_under_identity_is_plain_system_set(span_i):
    tset = build_T_set(span_i, ChannelMap.identity(2))
    # absorption by the identity is vacuous: any unital CP map is a member
    rng = np.random.default_rng(1)
    assert tset.membership(ChannelMap.pinching(2)).ok
    assert tset.membership(random_unital_channel(rng, 2)).ok


def test_t_set_absorption_constrains_members(span_i):
    tset = build_T_set(span_i, ChannelMap.pinching(2))
    assert tset.membership(ChannelMap.pinching(2)).ok
    # the identity fixes span{I} but is not absorbed by the pinching
    rep = tset.membership(ChannelMap.identity(2))
    assert not rep.ok
    assert rep.worst > 0.1


def test_t_set_members_are_absorbed(span_i, conj_sz):
    phi_half = ChannelMap.from_superop(
        0.5 * (ChannelMap.identity(2).superop + conj_sz.superop), 2, 2
    )
    tset = build_T_set(span_i, phi_half)
    assert tset.membership(ChannelMap.pinching(2)).ok
    for seed in range(3):
        theta = sample(tset, seed=seed)
        assert frobenius(phi_half.superop @ theta.superop - theta.superop) <= 2e-8


def test_t_set_requires_fixed_space(conj_sz):
    space = OperatorSubspace.from_matrices([I2, SX])
    with pytest.raises(ValueError, match="basis element 1 is not fixed"):
        build_T_set(space, conj_sz)


def test_t_set_requires_matching_ambient(conj_sz):
    space = OperatorSubspace.from_matrices([np.eye(3, dtype=complex)])
    with pytest.raises(ValueError, match="ambient"):
        build_T_set(space, conj_sz)


def test_t_set_requires_unital_cp(span_i):
    with pytest.raises(ValueError, match="unital"):
        build_T_set(span_i, ChannelMap.from_kraus([I2 / 2.0]))


# ------------------------------------------------------------------------
# boundaries


def test_boundary_of_identity_channel_is_everything():
    space = OperatorSubspace.from_matrices(matrix_units(2))
    res = compute_boundary(space, ChannelMap.identity(2))
    assert res.certificate == "certified"
    assert res.rank == 4
    assert res.fixed_space.dim == 4
    assert frobenius(res.idempotent.superop - np.eye(4)) <= 1e-8


def test_boundary_of_sigma_z_conjugation(sz_boundary):
    res = sz_boundary
    assert res.certificate == "certified"
    assert res.fixed_space.dim == 2
    assert subspace_equal(res.fixed_space, OperatorSubspace(np.stack(diag_units(2))), tol=1e-9)[0]
    # minimal absorbed idempotents for scalar E are states: rank one
    assert res.rank == 1
    assert res.descent_trace[0][1] == 2
    assert res.descent_trace[-1][1] == 1
    assert res.descent_trace[-1][2] > 0.5  # a genuine violation drove the step
    for value in res.residuals.values():
        assert value <= 1e-8
    assert res.rigidity_violation <= 1e-6
    assert res.absorption_violation <= 1e-7
    assert res.choi_effros.ok
    # the boundary sits inside the fixed space
    for m in res.boundary_space.mats:
        assert res.fixed_space.distance(m) <= 1e-7


def test_boundary_of_cyclic_shift_m3():
    space = OperatorSubspace.from_matrices([np.eye(3, dtype=complex)])
    phi = ChannelMap.conjugation(shift_matrix(3))
    res = compute_boundary(space, phi)
    # e . e0 = e is what makes the T-set bound cover the plain system set:
    # e . (e0 . theta) . e = e . theta . e, with e0 . theta in the T-set
    e0 = cesaro_idempotent(phi).idempotent
    assert frobenius(res.idempotent.superop @ e0.superop - res.idempotent.superop) <= 1e-8
    assert res.certificate == "certified"
    assert res.fixed_space.dim == 3
    assert subspace_equal(res.fixed_space, circulant_basis(3), tol=1e-9)[0]
    assert res.rank == 1
    assert res.rigidity_violation <= 1e-6
    assert res.absorption_violation <= 1e-7
    for value in res.residuals.values():
        assert value <= 1e-7


def half_sz():
    return ChannelMap.from_superop(
        0.5 * (ChannelMap.identity(2).superop + ChannelMap.conjugation(SZ).superop), 2, 2
    )


def span_eye(n):
    return OperatorSubspace.from_matrices([np.eye(n, dtype=complex)])


def diag_space(n):
    return OperatorSubspace.from_matrices(diag_units(n))


# the boundary pairs of scripts/make_inputs.py
SAMPLE_PAIRS = {
    "conj_sz": lambda: (span_eye(2), ChannelMap.conjugation(SZ)),
    "half_sz": lambda: (span_eye(2), half_sz()),
    "shift_m3": lambda: (span_eye(3), ChannelMap.conjugation(shift_matrix(3))),
    "trace_state": lambda: (span_eye(2), ChannelMap.trace_state(2)),
    "pinching_span_i": lambda: (span_eye(2), ChannelMap.pinching(2)),
    "pinching_diag": lambda: (diag_space(2), ChannelMap.pinching(2)),
}


@pytest.mark.parametrize("name", list(SAMPLE_PAIRS))
def test_rigidity_violation_is_the_t_set_bound(name):
    # one feasible set decides a boundary: the reported rigidity bound is
    # the descent's minimality bound over the T-set, not a second probe
    space, phi = SAMPLE_PAIRS[name]()
    res = compute_boundary(space, phi)
    assert res.certificate == "certified"
    assert res.rigidity_violation == probe_minimality(res.idempotent, build_T_set(space, phi))


@pytest.mark.parametrize("name", list(SAMPLE_PAIRS))
def test_boundary_factors_i_minus_s_phi_once(name, monkeypatch):
    # one SVD of I - S_phi serves the T-set's known member, its absorb span W
    # and the reported F_phi; the other Cesaro call is the descent step's.
    # No other SVD of S_phi - I, in either coordinate system, and one
    # unital-CP check of phi
    space, phi = SAMPLE_PAIRS[name]()
    n, d = phi.dim_in, phi.superop.shape[0]
    s_r = channels._to_hermitian_coords(phi.superop, n)
    laws = (np.eye(d) - phi.superop, np.eye(d) - s_r)
    kernels, outside, checks, inside = [], [], [], []
    ergodic_kernels, svd, require = channels._ergodic_kernels, np.linalg.svd, channels._require_unital_cp

    def counted(s, who):
        kernels.append(s)
        inside.append(who)
        try:
            return ergodic_kernels(s, who)
        finally:
            inside.pop()

    def counting_svd(a, *args, **kwargs):
        if not inside and any(
            np.shape(a) == m.shape and min(frobenius(a - m), frobenius(a + m)) <= 1e-12 for m in laws
        ):
            outside.append(1)
        return svd(a, *args, **kwargs)

    def counting_require(psi, who):
        if psi is phi:
            checks.append(who)
        return require(psi, who)

    monkeypatch.setattr(channels, "_ergodic_kernels", counted)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # also where a module holds the check under its own name
    for module in (channels, boundary, envelope, spectrahedron):
        if hasattr(module, "_require_unital_cp"):
            monkeypatch.setattr(module, "_require_unital_cp", counting_require)
    res = compute_boundary(space, phi)
    monkeypatch.undo()
    assert len(kernels) == 2
    assert np.array_equal(kernels[0], s_r)
    assert outside == []
    assert checks == ["cesaro_idempotent"]
    # the same SVD as ``cesaro_idempotent``, so the reported basis keeps its bytes
    assert np.array_equal(res.fixed_space.mats, cesaro_idempotent(phi).fixed_space.mats)


@given(st.floats(min_value=-15.0, max_value=-2.0))
@example(-11.5)
@example(-10.0)
@example(-9.0)
@settings(max_examples=25, deadline=None)
def test_nearfix_boundary_is_a_certified_state_map(log_delta):
    # I - S_phi has a singular value delta / 2, so F_phi is the diagonal
    # (dim 3) above the fixed-space cut and dim 5 below it; either way the
    # T-set's span W is the complement of that F_phi, Ces(phi) lies on the
    # slice, and the minimal idempotent over span{I} is a state map
    res = compute_boundary(span_eye(3), nearfix(10.0**log_delta))
    assert (res.rank, res.certificate) == (1, "certified")
    assert res.fixed_space.dim in (3, 5)
    assert res.rigidity_violation <= 1e-13


@pytest.mark.parametrize("name", list(SAMPLE_PAIRS))
def test_boundary_and_fixed_spaces_are_operator_systems(name):
    # both are ranges of unital CP idempotents (the boundary idempotent and Ces(phi))
    res = compute_boundary(*SAMPLE_PAIRS[name]())
    for sub in (res.boundary_space, res.fixed_space):
        assert sub.unital and sub.selfadjoint


PROOF_PAIRS = {
    "conj_sz": SAMPLE_PAIRS["conj_sz"],
    "half_sz": SAMPLE_PAIRS["half_sz"],
    "shift_m3": SAMPLE_PAIRS["shift_m3"],
    "pinching_diag_m3": lambda: (diag_space(3), ChannelMap.pinching(3)),
    "diag_unitary_m4": lambda: (
        span_eye(4),
        ChannelMap.conjugation(np.diag(np.exp(2j * np.pi * np.arange(4) / 4.37))),
    ),
}


@pytest.mark.parametrize("name", list(PROOF_PAIRS))
def test_t_set_bound_covers_the_plain_system_set(name):
    # for theta in the plain system set P of E, m . theta lies in the T-set,
    # m = Ces(phi); so for e = m, and for the boundary idempotent e with
    # e . m = e, e . (m . theta) . e = e . theta . e and the T-set bound
    # covers every member of P. The slack absorbs rounding in the sampled
    # members, which the bound itself does not carry.
    space, phi = PROOF_PAIRS[name]()
    tset = build_T_set(space, phi)
    plain = build_system_set(space)
    thetas = [sample(plain, seed=s).superop for s in range(6)]
    for e in (cesaro_idempotent(phi).idempotent, compute_boundary(space, phi).idempotent):
        bound = probe_minimality(e, tset)
        se = e.superop
        worst = max(frobenius(se @ st @ se - se) for st in thetas)
        assert worst <= bound + 1e-8, (worst, bound)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5, 9) for m in (n, n + 0.37)])
def test_diagonal_unitary_boundary_is_a_state_map(n, m):
    # conjugation by diag(exp(2 pi i k / m)) has distinct phases, so its
    # fixed space is the diagonal algebra and the minimal absorbed
    # idempotents over span{I} are the rank-1 maps x -> rho(x) I; the
    # descent step from the center reaches one in a single round
    u = np.diag(np.exp(2j * np.pi * np.arange(n) / m))
    res = compute_boundary(OperatorSubspace.from_matrices([np.eye(n)]), ChannelMap.conjugation(u))
    assert res.certificate == "certified"
    assert res.rank == 1
    assert res.fixed_space.dim == n
    assert [rk for _, rk, _ in res.descent_trace] == [n, 1]
    assert res.rigidity_violation <= 1e-6
    for value in res.residuals.values():
        assert value <= 1e-7


def perturbed(u, seed, size=1e-8):
    """u exp(i size H) for a random Hermitian H of unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    w, q = np.linalg.eigh(g + g.conj().T)
    w /= np.linalg.norm(w)
    return u @ (q * np.exp(1j * size * w)) @ q.conj().T


@pytest.mark.parametrize(
    "u",
    [SZ, shift_matrix(3), np.diag(np.exp(2j * np.pi * np.arange(5) / 5.37))],
    ids=["conj_sz", "shift_m3", "diag_unitary_m5"],
)
def test_boundary_idempotent_is_stable_under_perturbation(u):
    # the descent steps from the center alone, so a 1e-8 change of the
    # unitary cannot pick a different rank-1 idempotent, even where the
    # minimality bound's top singular value is degenerate
    n = len(u)
    space = OperatorSubspace.from_matrices([np.eye(n)])
    base = compute_boundary(space, ChannelMap.conjugation(u)).idempotent
    for seed in range(5):
        res = compute_boundary(space, ChannelMap.conjugation(perturbed(u, seed)))
        assert res.certificate == "certified"
        assert res.rank == 1
        assert frobenius(res.idempotent.choi - base.choi) <= 1e-6, seed


def test_sampled_member_fixed_spaces_stay_inside_f_phi(span_i, conj_sz):
    tset = build_T_set(span_i, conj_sz)
    f_phi = cesaro_idempotent(conj_sz).fixed_space
    for seed in range(4):
        theta = sample(tset, seed=seed)
        # theta = phi.theta forces range(theta), hence F_theta, into F_phi
        f_theta = cesaro_idempotent(theta).fixed_space
        for m in f_theta.mats:
            assert f_phi.distance(m) <= 1e-6


def test_boundary_is_deterministic(span_i, conj_sz, sz_boundary):
    again = compute_boundary(span_i, conj_sz)
    assert again.descent_trace == sz_boundary.descent_trace
    assert json.dumps(again.to_json(), default=np.ndarray.tolist, sort_keys=True) == json.dumps(
        sz_boundary.to_json(), default=np.ndarray.tolist, sort_keys=True
    )


def test_boundary_to_json_shape(sz_boundary):
    obj = sz_boundary.to_json()
    for key in (
        "rank",
        "fixed_space_dim",
        "certificate",
        "rigidity_violation",
        "absorption_violation",
        "residuals",
        "idempotent",
        "boundary_basis",
        "fixed_basis",
        "descent_trace",
        "choi_effros",
        "tol",
    ):
        assert key in obj
    assert "seed" not in obj  # the descent is deterministic; no seed is recorded
    json.dumps(obj, default=np.ndarray.tolist)


def test_boundary_respects_random_unitary_commutant():
    # conjugation by a random diagonalizable unitary with distinct phases:
    # the fixed space is the commutant, here the eigenbasis diagonal
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 2)
    w = u @ np.diag(np.exp(1j * np.array([0.9, 2.3]))) @ u.conj().T
    phi = ChannelMap.conjugation(w)
    f = cesaro_idempotent(phi).fixed_space
    assert f.dim == 2
    projs = [u @ np.diag(np.eye(2)[i]).astype(complex) @ u.conj().T for i in range(2)]
    assert subspace_equal(f, OperatorSubspace(np.stack([p for p in projs])), tol=1e-8)[0]
