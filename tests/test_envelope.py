"""Envelope machinery: corner lift, rank descent, multiplication tables.

Oracle strategy: the lift dimensions follow from block orthogonality
(2 dim E + 2, checked against hand-built embeddings), and the envelopes of
the worked examples are known subalgebras reachable without the solver:
the diagonal algebra for diagonal systems, the ambient identity map for
rigid systems, a one-dimensional corner for span{E_12}. Multiplication
tables are compared against directly expanded matrix products and against
``reference_choi_effros_table``, the entrywise definition with one
``e.apply`` per term.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest
from conftest import lift_kraus, random_hermitian, random_unital_kraus, random_unitary, subspace_equal

from ellis_envelope.boundary import build_T_set, compute_boundary
from ellis_envelope.channels import (
    ChannelMap,
    cesaro_idempotent,
    check_structure,
    compose,
    random_unital_channel,
)
from ellis_envelope import envelope, spectrahedron
from ellis_envelope.channels import _require_unital_cp
from ellis_envelope.envelope import (
    ChoiEffrosTable,
    choi_effros_table,
    compute_envelope,
    corner_extract,
    descend_to_minimal,
    paulsen_lift,
    probe_minimality,
    seed_idempotent,
)
from ellis_envelope.linalg import OperatorSubspace, frobenius
from ellis_envelope.spectrahedron import build_system_set, sample
from ellis_envelope.tolerances import TOL
from test_spectrahedron import ACCEPTANCE_SETS
from dense_slice import off_slice, slice_probe, slice_svd_sigma

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


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


def corner_embed(x):
    n = x.shape[0]
    z = np.zeros((2 * n, 2 * n), dtype=complex)
    z[:n, n:] = x
    return z


@pytest.fixture(scope="module")
def d2_space():
    return OperatorSubspace.from_matrices(diag_units(2))


@pytest.fixture(scope="module")
def d2_set(d2_space):
    return build_system_set(d2_space)


@pytest.fixture(scope="module")
def d2_result(d2_space):
    return compute_envelope(d2_space, seed=0)


@pytest.fixture(scope="module")
def span_i_m2_set():
    return build_system_set(OperatorSubspace.from_matrices([I2]))


@pytest.fixture(scope="module")
def corner_lift_set():
    return build_system_set(paulsen_lift(OperatorSubspace.from_matrices([E12])))


@pytest.fixture(scope="module")
def diag_unitary_t3_set():
    # UCP maps on M_3 absorbed by conjugation with diag(1, w, w^2), w^3 = 1
    u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    return build_T_set(OperatorSubspace.from_matrices([np.eye(3)]), ChannelMap.conjugation(u))


# ------------------------------------------------------------------------
# corner lift


def test_lift_dimensions_are_two_dim_plus_two():
    cases = [
        ([I2], 4),
        ([E12], 4),
        (matrix_units(2), 10),
    ]
    for mats, want in cases:
        lifted = paulsen_lift(OperatorSubspace.from_matrices(mats))
        assert lifted.n == 2 * mats[0].shape[0]
        assert lifted.dim == want
        assert lifted.unital and lifted.selfadjoint


def test_lift_contains_corner_embeddings():
    space = OperatorSubspace.from_matrices([E12, I2 + 0.3 * SX])
    lifted = paulsen_lift(space)
    for x in space.mats:
        z = corner_embed(x)
        assert lifted.distance(z) <= 1e-12
        assert lifted.distance(z.conj().T) <= 1e-12
    assert lifted.distance(np.eye(4, dtype=complex)) <= 1e-12


def test_lift_map_is_ucp_and_fixes_block_projections():
    big = lift_kraus(random_unital_kraus(np.random.default_rng(7), 2))
    rep = check_structure(big)
    assert rep.cp and rep.unital
    p0 = np.diag([1, 1, 0, 0]).astype(complex)
    p1 = np.diag([0, 0, 1, 1]).astype(complex)
    assert frobenius(big.apply(p0) - p0) <= 1e-12
    assert frobenius(big.apply(p1) - p1) <= 1e-12


def test_lift_corner_roundtrip_is_exact():
    rng = np.random.default_rng(3)
    for k in range(4):
        kraus = random_unital_kraus(rng, 2, n_kraus=2 + k)
        phi = ChannelMap.from_kraus(kraus)
        back = corner_extract(lift_kraus(kraus))
        assert frobenius(back.choi - phi.choi) <= 1e-10


def test_corner_of_ambient_identity_is_identity():
    back = corner_extract(ChannelMap.identity(4))
    assert frobenius(back.superop - np.eye(4)) <= 1e-12


def test_corner_of_diagonal_pinching_is_zero():
    back = corner_extract(ChannelMap.pinching(4))
    assert frobenius(back.superop) <= 1e-12


def test_corner_extract_rejects_block_swappers():
    swap = np.zeros((4, 4), dtype=complex)
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = np.eye(2)
    with pytest.raises(ValueError, match="corner projection"):
        corner_extract(ChannelMap.conjugation(swap))


def test_corner_extract_rejects_leakage():
    # transpose fixes both diagonal projections but reflects the corner
    # into the opposite block, so all corner mass leaks
    with pytest.raises(ValueError, match="leakage"):
        corner_extract(ChannelMap.transpose_map(4))


def corner_by_loop(big):
    """Reference corner map and leakage: one ``big.apply`` per matrix unit of the corner."""
    n = big.dim_in // 2
    s = np.zeros((n * n, n * n), dtype=complex)
    worst = 0.0
    for r in range(n):
        for q in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[r, q] = 1.0
            z = big.apply(corner_embed(unit))
            s[:, r * n + q] = z[:n, n:].reshape(-1)
            z[:n, n:] = 0.0
            worst = max(worst, frobenius(z))
    return s, worst


@pytest.mark.parametrize("seed", [0, 3])
def test_corner_extract_matches_the_loop_on_lifted_idempotents(seed):
    big = compute_envelope(OperatorSubspace.from_matrices([E12]), seed=seed).idempotent
    s, worst = corner_by_loop(big)
    assert worst <= TOL.solver
    assert np.max(np.abs(corner_extract(big).superop - s)) <= 1e-15


def test_corner_extract_measures_leakage_as_the_loop_does():
    # (1 - t) id + t transpose fixes both corner projections and leaks t of
    # every corner unit into the opposite corner
    ident, transpose = ChannelMap.identity(4), ChannelMap.transpose_map(4)
    for t, leaks in ((0.5 * TOL.solver, False), (1.5 * TOL.solver, True)):
        big = ChannelMap(4, 4, (1 - t) * ident.choi + t * transpose.choi)
        s, worst = corner_by_loop(big)
        assert worst == pytest.approx(t, rel=1e-9)
        if leaks:
            with pytest.raises(ValueError, match=f"leakage {worst:.3e}"):
                corner_extract(big)
        else:
            assert np.max(np.abs(corner_extract(big).superop - s)) <= 1e-15


def test_corner_extract_needs_even_ambient():
    with pytest.raises(ValueError, match="M_.2n."):
        corner_extract(ChannelMap.identity(3))


# ------------------------------------------------------------------------
# exact minimality test


def violation(e, theta):
    se = e.superop
    return frobenius(se @ theta.superop @ se - se)


@pytest.mark.parametrize("set_name", ["d2_set", "span_i_m2_set", "corner_lift_set", "diag_unitary_t3_set"])
def test_minimality_bound_dominates_every_sampled_member(request, set_name):
    # the bound of e dominates the violation at every member, for the set's
    # known member J_p (not minimal: the identity, or the absorbing channel's
    # Cesaro idempotent) and for the certified idempotent; and it still does
    # when e's Choi matrix sits 1e-7 off the affine slice, which the n eps
    # term of the bound pays for
    fset = request.getfixturevalue(set_name)
    n = fset.n
    members = [sample(fset, seed=seed) for seed in range(20)]
    minimal = descend_to_minimal(fset, seed_idempotent(members[0], fset))
    assert minimal.certificate == "certified"
    known = ChannelMap(n, n, fset.member)
    assert probe_minimality(known, fset) > 1e-3
    assert probe_minimality(minimal.idempotent, fset) <= 1e-9
    off = fset.law_project(random_hermitian(np.random.default_rng(1), n * n))
    off *= 1e-7 / frobenius(off)
    for e in (known, minimal.idempotent):
        for shift in (0.0, off):
            moved = ChannelMap(n, n, e.choi + shift)
            bound = probe_minimality(moved, fset)
            for theta in members:
                assert violation(moved, theta) <= bound + 1e-10


@pytest.mark.parametrize("set_name", ["d2_set", "span_i_m2_set", "corner_lift_set", "diag_unitary_t3_set"])
def test_center_fixes_exactly_the_certified_idempotents(request, set_name):
    # the descent's step rests on this: with the center theta0 in the set's
    # relative interior, e . theta0 . e = e holds exactly when e is minimal,
    # so wherever the bound is above tol the center's step lowers the rank;
    # the set's known member J_p is an idempotent that is never minimal here
    fset = request.getfixturevalue(set_name)
    n, theta0 = fset.n, fset.center
    starts = [ChannelMap(n, n, fset.member)] + [sample(fset, seed=seed) for seed in range(20)]
    for theta in starts:
        e = seed_idempotent(theta, fset)
        if probe_minimality(e, fset) > TOL.certify:
            assert violation(e, theta0) >= 1e-3
        else:
            assert violation(e, theta0) <= 1e-10


def diag_unitary_t_set(n):
    u = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return build_T_set(OperatorSubspace.from_matrices([np.eye(n)]), ChannelMap.conjugation(u))


FULL_FACE_SETS = [
    *[(f"span_i_m{n}", lambda n=n: build_system_set(OperatorSubspace.from_matrices([np.eye(n)]))) for n in (2, 3, 4)],
    *[(f"diag_unitary_t{n}", lambda n=n: diag_unitary_t_set(n)) for n in (3, 4)],
    # the rigid system without facial reduction: a full face with fix laws
    # beyond the unit, where sigma is 1 at the identity
    (
        "rigid_unreduced",
        lambda: dataclasses.replace(
            build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ])), face=np.eye(4, dtype=complex)
        ),
    ),
]


def measure_prepare(n):
    """x -> x_00 (I - E_{n-1,n-1}) + x_11 E_{n-1,n-1}: unital CP, not trace preserving.
    On x = E_00 - E_11 its traceless part has gain sqrt(2 (n - 1) / n)."""
    kraus = np.zeros((n, n, n), dtype=complex)
    kraus[np.arange(n), np.arange(n), [0] * (n - 1) + [1]] = 1.0
    return ChannelMap.from_kraus(list(kraus))


@pytest.mark.parametrize("build", [b for _, b in FULL_FACE_SETS], ids=[name for name, _ in FULL_FACE_SETS])
def test_full_face_closed_form_equals_the_slice_svd(build):
    # on the full face, sigma = ||S_e (I - W W^*)||_2 ||(I - U U^*) S_e||_2
    # and eps = ||law_project(J_e - J_p)||_F are the values the SVD over the
    # dense basis of the slice (``dense_slice``) gives, at every e, not only
    # at a minimal one; the slice probe's ||G||_F is at least that sigma
    fset = build()
    n = fset.n
    assert fset.face_dim == fset.choi_dim
    theta = sample(fset, seed=0)
    candidates = [
        ChannelMap.identity(n),
        ChannelMap.pinching(n),
        ChannelMap.trace_state(n),
        ChannelMap(n, n, fset.member),
        cesaro_idempotent(theta).idempotent,
        seed_idempotent(theta, fset),
        random_unital_channel(np.random.default_rng(n), n),  # complex, with sigma != 1
        measure_prepare(n),
    ]
    if n > 2:  # span{I} and its T-sets: ||(I - U U^*) S_e||_2 > 1 for a unital map that loses trace
        b = (np.eye(n * n) - fset.span_in @ fset.span_in.conj().T) @ candidates[-1].superop
        assert np.linalg.norm(b, 2) == pytest.approx(np.sqrt(2 * (n - 1) / n), rel=1e-12)
    for e in candidates:
        eps, sigma = envelope._full_face_probe(e, fset)
        eps_ref, sigma_fro = envelope._slice_probe(e, fset)
        sigma_ref = slice_svd_sigma(e, fset)
        assert abs(eps - eps_ref) <= 1e-13
        if e.rank() > 1:
            assert sigma == pytest.approx(sigma_ref, rel=1e-12)
        else:
            assert max(sigma, sigma_ref) <= 1e-13
        assert sigma <= sigma_fro + 1e-13


# the acceptance sets whose face is smaller than the Choi space, where the
# probe bounds sigma by ||G||_F, computed in face coordinates
PROPER_FACE_SETS = [
    (name, build)
    for name, build, _, _ in ACCEPTANCE_SETS
    if name in ("rigid", "full M_2", "corner lift") or name.startswith("diag")
]


def proper_face_candidates(fset):
    """The set's known member J_p, the descent's f from it, and the seed idempotent of a sampled member."""
    n = fset.n
    known = ChannelMap(n, n, fset.member)
    return [known, descend_to_minimal(fset, known).idempotent, seed_idempotent(sample(fset, seed=0), fset)]


@pytest.mark.parametrize("build", [b for _, b in PROPER_FACE_SETS], ids=[name for name, _ in PROPER_FACE_SETS])
def test_slice_frobenius_bounds_the_slice_svd(build):
    # Cauchy-Schwarz: the top singular value of G is at most ||G||_F, with
    # equality up to rounding when G has rank one
    fset = build()
    assert fset.face_dim < fset.choi_dim
    for e in proper_face_candidates(fset):
        assert envelope._slice_probe(e, fset)[1] >= slice_svd_sigma(e, fset) * (1 - 1e-12)


def agrees_with_reference(value, ref):
    """Relative agreement to 1e-10 where the reference is at least 1e-8; both at
    most 1e-12 where the reference is; otherwise within 1e-10 of each other."""
    if ref >= 1e-8:
        return abs(value - ref) <= 1e-10 * ref
    if ref <= 1e-12:
        return value <= 1e-12
    return abs(value - ref) <= 1e-10


@pytest.mark.parametrize("build", [b for _, b in PROPER_FACE_SETS], ids=[name for name, _ in PROPER_FACE_SETS])
def test_slice_probe_matches_the_dense_reference(build):
    # eps and sigma = ||G||_F in face coordinates are the numbers the dense
    # basis of the slice gives, at J_p, at the certified f and at the seed
    # idempotent of a sampled member
    fset = build()
    for e in proper_face_candidates(fset):
        eps, sigma = envelope._slice_probe(e, fset)
        eps_ref, sigma_ref = slice_probe(e, fset)
        assert agrees_with_reference(eps, eps_ref), (eps, eps_ref)
        assert agrees_with_reference(sigma, sigma_ref), (sigma, sigma_ref)


def normal_space(n, seed):
    """span{I, x, x^*} for x = Q diag(z) Q^*, z complex Gaussian and Q the QR factor of a
    complex Gaussian; its envelope's rank is the number of vertices of the hull of z."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    x = q @ np.diag(z) @ q.conj().T
    return OperatorSubspace.from_matrices([np.eye(n), x, x.conj().T])


def span_i_x_space(n):
    """span{I, x} for a Hermitian Gaussian x in M_n; the envelope has rank 2."""
    g = np.random.default_rng(1).standard_normal((2, n, n))
    x = g[0] + 1j * g[1]
    return OperatorSubspace.from_matrices([np.eye(n), (x + x.conj().T) / 2])


@pytest.mark.parametrize("n, seed, sigma", [(4, 1, 3.464102), (5, 2, 8.124038), (6, 11, 10.14889)])
def test_slice_probe_at_the_identity(n, seed, sigma):
    # at e = identity, L(D) = S_D and sigma = ||G||_F is the square root of
    # the slice's real dimension: an O(1) value, pinned and checked against
    # the dense basis
    fset = build_system_set(normal_space(n, seed))
    e = ChannelMap.identity(n)
    eps, got = envelope._slice_probe(e, fset)
    eps_ref, sigma_ref = slice_probe(e, fset)
    assert got == pytest.approx(sigma, rel=1e-6)
    assert got == pytest.approx(sigma_ref, rel=1e-10)
    assert eps <= 1e-12 and eps_ref <= 1e-12


@pytest.mark.parametrize(
    "space, rank", [(normal_space(10, 1), 5), (span_i_x_space(8), 2)], ids=["normal_m10", "span_i_x_m8"]
)
def test_proper_face_envelopes_at_n8_and_n10_certify(space, rank):
    # faces of dimension 55 and 50: the slice bound needs no per-direction d x d matrix
    res = compute_envelope(space)
    assert (res.rank, res.certificate) == (rank, "certified")


@pytest.mark.parametrize("build", [b for _, b in PROPER_FACE_SETS], ids=[name for name, _ in PROPER_FACE_SETS])
def test_full_face_closed_form_bounds_the_slice_svd_on_proper_faces(build):
    # the slice directions lie in Herm and range(P) on every face, so the
    # closed form ||S_e (I - W W^*)||_2 ||(I - U U^*) S_e||_2, the gain on
    # all of range(P), bounds the gain on the slice
    fset = build()
    assert fset.face_dim < fset.choi_dim
    for e in proper_face_candidates(fset):
        assert envelope._full_face_probe(e, fset)[1] >= slice_svd_sigma(e, fset) - 1e-13


@pytest.mark.parametrize("set_name", ["span_i_m2_set", "d2_set"])
def test_minimality_bound_pays_n_eps_off_the_slice(request, set_name):
    # moving the known member J_p to J_p + delta X, X Hermitian and off the
    # slice, moves the slice and nothing else the bound reads, so the bound
    # of the certified f rises by exactly n times the rise of eps, f's
    # distance from the slice, computed here without the probe: by
    # law_project on the full face, by least squares on a proper one
    fset = request.getfixturevalue(set_name)
    n = fset.n
    off = fset.law_project if fset.face_dim == fset.choi_dim else functools.partial(off_slice, fset)
    f = descend_to_minimal(fset, ChannelMap(n, n, fset.member))
    assert f.certificate == "certified"
    x = off(random_hermitian(np.random.default_rng(2), n * n))
    moved = dataclasses.replace(fset, member=fset.member + 1e-3 * x / frobenius(x))
    eps, eps_moved = (frobenius(off(f.idempotent.choi - s.member)) for s in (fset, moved))
    assert eps_moved - eps >= 0.5e-3
    rise = probe_minimality(f.idempotent, moved) - probe_minimality(f.idempotent, fset)
    assert abs(rise - n * (eps_moved - eps)) <= 1e-12


class SampleDrawn(Exception):
    pass


@pytest.mark.parametrize(
    "mats, seed, phi, rank",
    [
        *(
            pytest.param(mats, seed, None, rank, id=f"{name}-{seed}")
            for name, mats, rank in [
                ("rigid", [I2, SX, SZ], 4),
                ("diag_m2", diag_units(2), 2),
                ("diag_m3", diag_units(3), 3),
                ("span_i_m2", [I2], 1),
                ("span_i_m3", [np.eye(3)], 1),
            ]
            for seed in (0, 3)
        ),
        pytest.param(diag_units(2), 0, ChannelMap.pinching(2), 2, id="pinching_boundary"),
        # the corner lift certifies at its seed; the conj sz boundary takes
        # one descent step from the center
        pytest.param([E12], 3, None, 1, id="corner-3"),
        pytest.param([I2], 0, ChannelMap.conjugation(SZ), 1, id="conj_sz_boundary"),
    ],
)
def test_certified_envelopes_read_no_center(monkeypatch, mats, seed, phi, rank):
    # no library path draws a sampled member: the seed and every descent
    # step start from the deterministic center, the member nearest I/n
    def draw(*args, **kwargs):
        raise SampleDrawn

    monkeypatch.setattr(spectrahedron, "sample", draw)
    space = OperatorSubspace.from_matrices(mats)
    res = compute_envelope(space, seed=seed) if phi is None else compute_boundary(space, phi)
    assert res.certificate == "certified"
    assert res.rank == rank


def test_seed_idempotent_from_sampled_member(d2_set):
    theta = sample(d2_set, seed=2)
    e = seed_idempotent(theta, d2_set)
    assert frobenius(e.superop @ e.superop - e.superop) <= 1e-7
    assert d2_set.membership(e).ok


def test_descent_rejects_non_idempotent_start(d2_set):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="idempotent member"):
        descend_to_minimal(d2_set, random_unital_channel(rng, 2))


def test_seed_idempotent_passes_the_choi_effros_precondition():
    # seed 153 once gave a rank-1 member 2.7e-7 away from unital, which the
    # multiplication table then refused; the seed check now applies the same test
    space = OperatorSubspace.from_matrices([I2])
    fset = build_system_set(space)
    e = seed_idempotent(sample(fset, seed=153), fset)
    _require_unital_cp(e, "test")
    res = compute_envelope(space, seed=153)
    assert res.certificate == "certified"
    assert res.rank == 1


def test_descent_from_identity_reaches_pinching(d2_set):
    # identity is a member of every system set and has full rank 4; the
    # descent must strictly lower it to the rank-2 diagonal projection
    res = descend_to_minimal(d2_set, ChannelMap.identity(2))
    assert res.certificate == "certified"
    assert res.idempotent.rank() == 2
    assert res.trace[0] == (0, 4, 0.0)
    ranks = [rk for _, rk, _ in res.trace]
    assert ranks == sorted(ranks, reverse=True)
    assert frobenius(res.idempotent.superop - ChannelMap.pinching(2).superop) <= 1e-6


def test_descent_on_incomplete_face_is_unverified(monkeypatch):
    # without facial reduction the rigid system's set (the identity alone)
    # keeps a slice with violating directions but no interior point: the
    # center is the identity, and its step does not lower the rank
    monkeypatch.setattr(spectrahedron, "_structural_face", lambda laws, n: np.eye(n * n, dtype=complex))
    fset = build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ]))
    assert fset.face_dim == 4
    res = descend_to_minimal(fset, ChannelMap.identity(2))
    assert res.certificate == "unverified"
    assert res.violation > 1e-6
    assert [rk for _, rk, _ in res.trace] == [4, 4]
    assert res.trace[1][2] <= 1e-12


def test_certificate_is_decided_at_the_tolerance(monkeypatch):
    # the same full-face rigid set: its bound b is certified at tol = 2b
    # and not at tol = b / 2
    monkeypatch.setattr(spectrahedron, "_structural_face", lambda laws, n: np.eye(n * n, dtype=complex))
    fset = build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ]))
    b = descend_to_minimal(fset, ChannelMap.identity(2)).violation
    for tol, certificate in ((b / 2, "unverified"), (2 * b, "certified")):
        res = descend_to_minimal(fset, ChannelMap.identity(2), tol=tol)
        assert (res.violation, res.certificate) == (b, certificate)


@pytest.mark.parametrize("n", [2, 3])
def test_descent_refuses_a_member_that_is_not_idempotent(n):
    # (id + pinching) / 2 is a unital CP member of the diag M_n set, but it
    # moves the off-diagonal entries by 1/2 and so is not idempotent
    fset = build_system_set(OperatorSubspace.from_matrices(diag_units(n)))
    half = ChannelMap(n, n, 0.5 * (ChannelMap.identity(n).choi + ChannelMap.pinching(n).choi))
    assert fset.membership(half).ok
    _require_unital_cp(half, "test")
    with pytest.raises(ValueError, match="not an idempotent member"):
        descend_to_minimal(fset, half)


@pytest.mark.parametrize("set_name", ["d2_set", "span_i_m2_set", "corner_lift_set", "diag_unitary_t3_set"])
def test_descent_is_one_step(request, set_name):
    # f = Ces(e0 . theta0 . e0) is a limit of maps e0 . x . e0, so e0 absorbs
    # f on both sides, and f = f . (e0 . theta0 . e0) gives f . theta0 . f =
    # f; a second step from f therefore returns f's rank with no violation
    fset = request.getfixturevalue(set_name)
    n, s0 = fset.n, fset.center.superop
    starts = [ChannelMap(n, n, fset.member)] + [seed_idempotent(sample(fset, seed=seed), fset) for seed in range(5)]
    for e0 in starts:
        f = descend_to_minimal(fset, e0).idempotent
        sf, se = f.superop, e0.superop
        assert frobenius(sf @ s0 @ sf - sf) <= 1e-10
        assert frobenius(sf @ se - sf) <= 1e-10
        assert frobenius(se @ sf - sf) <= 1e-10
        again = descend_to_minimal(fset, f)
        assert [rk for _, rk, _ in again.trace] == [f.rank(), f.rank()]
        assert again.trace[1][2] <= 1e-10


# ------------------------------------------------------------------------
# worked envelopes


def test_envelope_of_diagonal_system_is_diagonal_algebra(d2_result, d2_space):
    res = d2_result
    assert res.mode == "system"
    assert res.certificate == "certified"
    assert res.rank == 2
    assert res.corner_map is None
    assert subspace_equal(res.envelope_space, d2_space, tol=1e-7)[0]
    assert res.inclusion_residual <= 1e-8
    assert res.rigidity_violation <= 1e-6
    assert res.choi_effros.ok
    assert res.descent_trace[-1][1] == 2


def test_envelope_of_diagonal_system_m3():
    space = OperatorSubspace.from_matrices(diag_units(3))
    res = compute_envelope(space, seed=0)
    assert res.certificate == "certified"
    assert res.rank == 3
    assert subspace_equal(res.envelope_space, space, tol=1e-7)[0]


def test_envelope_of_rigid_system_is_identity():
    space = OperatorSubspace.from_matrices([I2, SX, SZ])
    res = compute_envelope(space, seed=0)
    assert res.certificate == "certified"
    assert res.rank == 4
    assert frobenius(res.idempotent.superop - np.eye(4)) <= 1e-6
    assert res.rigidity_violation <= 1e-6


def test_envelope_of_full_matrix_algebra_is_identity():
    space = OperatorSubspace.from_matrices(matrix_units(2))
    res = compute_envelope(space, seed=0)
    assert res.certificate == "certified"
    assert res.rank == 4
    assert frobenius(res.idempotent.superop - np.eye(4)) <= 1e-7


def test_envelope_of_trivial_system_is_scalars():
    res = compute_envelope(OperatorSubspace.from_matrices([I2]), seed=0)
    assert res.certificate == "certified"
    assert res.rank == 1
    assert res.envelope_space.distance(I2 / np.sqrt(2.0)) <= 1e-7
    # any two minimal unital idempotents are similar: e = f.e and f = e.f
    e = res.idempotent
    f = ChannelMap.trace_state(2)
    assert frobenius(compose(f, e).superop - e.superop) <= 1e-6
    assert frobenius(compose(e, f).superop - f.superop) <= 1e-6


def test_envelope_space_mode_one_corner():
    space = OperatorSubspace.from_matrices([E12])
    res = compute_envelope(space, mode="auto", seed=0)
    assert res.mode == "space"
    assert res.certificate == "certified"
    assert res.rank == 1
    assert res.corner_map is not None
    assert res.corner_map.dim_in == 2
    assert res.idempotent.dim_in == 4
    # members of the lifted set fix both block projections and the span of
    # E_12, so their ranks are at least 4; the descent must end there
    assert res.idempotent.rank() == 4
    assert res.inclusion_residual <= 1e-6
    assert res.rigidity_violation <= 1e-6


def normal_m4_unitary():
    # the Q of x = Q diag(1, i, -1, -i) Q^*, as scripts/make_inputs.py draws it
    g = np.random.default_rng(4).standard_normal((2, 4, 4))
    return np.linalg.qr(g[0] + 1j * g[1])[0]


def normal_m4_mats():
    q = normal_m4_unitary()
    x = q @ np.diag([1, 1j, -1, -1j]) @ q.conj().T
    return [np.eye(4), x, x.conj().T]


# the system-mode spaces of scripts/make_inputs.py
SAMPLE_SYSTEMS = {
    "diag_m2": lambda: diag_units(2),
    "diag_m3": lambda: diag_units(3),
    "span_i_m2": lambda: [I2],
    "span_i_m3": lambda: [np.eye(3, dtype=complex)],
    "rigid_m2": lambda: [I2, SX, SZ],
    "normal_m4": normal_m4_mats,
}


@pytest.mark.parametrize("name", list(SAMPLE_SYSTEMS))
def test_envelope_space_is_an_operator_system(name):
    # the range of a unital CP idempotent is an operator system (Choi-Effros 1977)
    env = compute_envelope(OperatorSubspace.from_matrices(SAMPLE_SYSTEMS[name]())).envelope_space
    assert env.unital and env.selfadjoint


def test_envelope_of_normal_m4_is_its_diagonal_algebra():
    # each eigenvalue of x is a vertex of their hull, so the envelope of the
    # 3-dimensional span{I, x, x^*} is C*(x) = Q diag(C^4) Q^*, on a proper face
    space = OperatorSubspace.from_matrices(normal_m4_mats())
    assert build_system_set(space).face_dim < 16
    res = compute_envelope(space)
    assert res.certificate == "certified"
    assert (space.dim, res.rank) == (3, 4)
    q = normal_m4_unitary()
    algebra = OperatorSubspace.from_matrices([q @ u @ q.conj().T for u in diag_units(4)])
    assert subspace_equal(res.envelope_space, algebra, tol=1e-7)[0]


def test_corner_envelope_space_is_neither_unital_nor_selfadjoint():
    # the corner map's range is span{E_12}: the envelope of E itself, not an operator system
    env = compute_envelope(OperatorSubspace.from_matrices([E12])).envelope_space
    assert env.dim == 1
    assert not env.unital and not env.selfadjoint


@pytest.mark.parametrize("seed", range(10))
def test_corner_envelope_is_certified_for_every_seed(seed):
    res = compute_envelope(OperatorSubspace.from_matrices([E12]), seed=seed)
    assert res.certificate == "certified"
    assert res.rigidity_violation <= 1e-6
    assert res.rank == 1


@pytest.mark.parametrize(
    "mats, rank",
    [(diag_units(4), 4), ([np.eye(3, dtype=complex)], 1)],
    ids=["diag_m4", "span_i_m3"],
)
def test_closed_form_envelopes_are_certified(mats, rank):
    res = compute_envelope(OperatorSubspace.from_matrices(mats), seed=0)
    assert res.certificate == "certified"
    assert res.rigidity_violation <= 1e-6
    assert res.rank == rank


def test_envelope_mode_validation(d2_space):
    with pytest.raises(ValueError, match="unknown mode"):
        compute_envelope(d2_space, mode="banana")


def test_space_mode_refuses_nothing_system_mode_requires_flags():
    space = OperatorSubspace.from_matrices([E12])
    with pytest.raises(ValueError, match="corner lift"):
        compute_envelope(space, mode="system")


def test_minimality_bound_of_the_result_recomputes(d2_result, d2_set):
    bound = probe_minimality(d2_result.idempotent, d2_set)
    assert bound <= 1e-6
    assert abs(bound - d2_result.rigidity_violation) <= 1e-9


def test_random_rigid_system_reduces_to_a_point_and_certifies():
    # span{I, x, y} with random Hermitian x, y is rigid in M_2: the set is
    # {id}, facial reduction must reach face 1 and the envelope is all of M_2
    rng = np.random.default_rng(0)
    x, y = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    space = OperatorSubspace.from_matrices([I2, x + x.conj().T, y + y.conj().T])
    assert build_system_set(space).face_dim == 1
    res = compute_envelope(space, seed=0)
    assert res.certificate == "certified"
    assert res.rank == 4


def test_envelope_is_deterministic(d2_space):
    a = compute_envelope(d2_space, seed=3)
    b = compute_envelope(d2_space, seed=3)
    assert a.descent_trace == b.descent_trace
    a_text, b_text = (json.dumps(r.to_json(), default=np.ndarray.tolist, sort_keys=True) for r in (a, b))
    assert a_text == b_text


def test_envelope_to_json_shape(d2_result):
    obj = d2_result.to_json()
    for key in (
        "mode",
        "rank",
        "certificate",
        "rigidity_violation",
        "inclusion_residual",
        "idempotent",
        "envelope_basis",
        "descent_trace",
        "choi_effros",
        "tol",
    ):
        assert key in obj
    assert "seed" not in obj  # the descent is deterministic
    assert "corner_map" not in obj  # system mode
    json.dumps(obj, default=np.ndarray.tolist)  # json-serializable throughout


# ------------------------------------------------------------------------
# multiplication tables


def test_choi_effros_identity_gives_matrix_units_table():
    e = ChannelMap.identity(2)
    basis = OperatorSubspace(np.stack(matrix_units(2)))
    table = choi_effros_table(e, basis)
    mats = matrix_units(2)
    want = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            prod = mats[i] @ mats[j]
            for k in range(4):
                want[i, j, k] = np.trace(mats[k].conj().T @ prod)
    assert np.max(np.abs(table.coefficients - want)) <= 1e-12
    assert table.associativity_residual <= 1e-12
    assert table.unit_residual <= 1e-12
    assert table.closure_residual <= 1e-12
    assert table.ok


def test_choi_effros_pinching_gives_diagonal_product():
    e = ChannelMap.pinching(3)
    basis = OperatorSubspace(np.stack(diag_units(3)))
    table = choi_effros_table(e, basis)
    want = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        want[i, i, i] = 1.0
    assert np.max(np.abs(table.coefficients - want)) <= 1e-12
    assert table.associativity_residual <= 1e-12
    assert table.ok


def test_choi_effros_requires_fixed_basis():
    basis = OperatorSubspace(np.stack([E12]))
    with pytest.raises(ValueError, match="not fixed"):
        choi_effros_table(ChannelMap.pinching(2), basis)


def test_choi_effros_json_roundtrippable():
    table = choi_effros_table(
        ChannelMap.pinching(2), OperatorSubspace(np.stack(diag_units(2)))
    )
    obj = table.to_json()
    assert obj["associativity_residual"] <= 1e-12
    json.dumps(obj, default=np.ndarray.tolist)
    assert isinstance(table, ChoiEffrosTable)


def reference_choi_effros_table(e, f_basis):
    """The entrywise definition of ``choi_effros_table``: one ``e.apply`` per term."""
    mats = f_basis.mats
    d = len(mats)
    prods = [[e.apply(mats[i] @ mats[j]) for j in range(d)] for i in range(d)]
    c = np.zeros((d, d, d), dtype=complex)
    closure = 0.0
    for i in range(d):
        for j in range(d):
            recon = np.zeros_like(prods[i][j])
            for k in range(d):
                c[i, j, k] = np.trace(mats[k].conj().T @ prods[i][j])
                recon = recon + c[i, j, k] * mats[k]
            closure = max(closure, frobenius(prods[i][j] - recon))
    assoc = 0.0
    for i in range(d):
        for j in range(d):
            for l in range(d):
                left = e.apply(prods[i][j] @ mats[l])
                right = e.apply(mats[i] @ prods[j][l])
                assoc = max(assoc, frobenius(left - right))
    u = e.apply(np.eye(e.dim_in))
    unit = 0.0
    for m in mats:
        unit = max(unit, frobenius(e.apply(u @ m) - m), frobenius(e.apply(m @ u) - m))
    return ChoiEffrosTable(c, assoc, unit, closure)


def _ergodic_repeated_unitary_m5():
    # conjugation by a unitary with eigenvalue multiplicities (2, 2, 1): its
    # ergodic idempotent is the expectation onto the commutant, d = 4 + 4 + 1
    q = random_unitary(np.random.default_rng(5), 5)
    u = q @ np.diag(np.exp(1j * np.array([0.3, 0.3, 1.7, 1.7, 4.1]))) @ q.conj().T
    e = cesaro_idempotent(ChannelMap.conjugation(u)).idempotent
    return e, e.range_basis()


def _noisy_identity_m2():
    # CP, 1e-8 off unital and off idempotent, in a basis not closed under
    # the adjoint: every residual is well above rounding, the two unit sides
    # differ, and the largest associativity term has i > 0
    rng = np.random.default_rng(9)
    g = random_unitary(rng, 4)[:, :2]
    e = ChannelMap(2, 2, ChannelMap.identity(2).choi + 1e-8 * g @ g.conj().T)
    return e, OperatorSubspace(random_unitary(rng, 4).T.reshape(4, 2, 2))


def _noisy_pinching_m3():
    # the same noise on a map with a proper range: the closure residual too
    g = random_unitary(np.random.default_rng(3), 9)[:, :4]
    e = ChannelMap(3, 3, ChannelMap.pinching(3).choi + 1e-8 * g @ g.conj().T)
    return e, OperatorSubspace(np.stack(diag_units(3)))


def _envelope_idempotent(mats):
    e = compute_envelope(OperatorSubspace.from_matrices(mats), seed=0).idempotent
    return e, e.range_basis()


def _rigid_m4_mats():
    rng = np.random.default_rng(4)
    x, y = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    return [np.eye(4), x, x.conj().T, y, y.conj().T]


@pytest.mark.parametrize(
    "make, dim",
    [
        pytest.param(lambda: (ChannelMap.identity(3), OperatorSubspace(np.stack(matrix_units(3)))), 9, id="identity_m3"),
        pytest.param(lambda: (ChannelMap.pinching(4), OperatorSubspace(np.stack(diag_units(4)))), 4, id="pinching_m4"),
        pytest.param(_ergodic_repeated_unitary_m5, 9, id="ergodic_unitary_m5"),
        pytest.param(lambda: _envelope_idempotent([E12]), 4, id="corner_lift"),
        pytest.param(lambda: _envelope_idempotent(_rigid_m4_mats()), 16, id="rigid_m4"),
        pytest.param(_noisy_identity_m2, 4, id="noisy_identity_m2"),
        pytest.param(_noisy_pinching_m3, 3, id="noisy_pinching_m3"),
    ],
)
def test_batched_choi_effros_table_matches_the_entrywise_definition(make, dim):
    e, basis = make()
    assert basis.dim == dim
    got, want = choi_effros_table(e, basis), reference_choi_effros_table(e, basis)
    assert np.max(np.abs(got.coefficients - want.coefficients)) <= 1e-13
    for name in ("associativity_residual", "unit_residual", "closure_residual"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13
