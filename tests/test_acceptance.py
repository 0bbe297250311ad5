"""End-to-end acceptance checks, one test per numbered requirement.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per item. Wall-clock caps are asserted where the requirement includes one;
everything else is correctness at the stated tolerances.
"""

import json
import time

import numpy as np
import pytest
from conftest import lift_kraus, random_unital_kraus, subspace_equal

from ellis_envelope.boundary import build_T_set, compute_boundary
from ellis_envelope.channels import (
    ChannelMap,
    cesaro_idempotent,
    check_absorption,
    random_unital_channel,
)
from ellis_envelope.cli import main
from ellis_envelope.envelope import (
    choi_effros_table,
    compute_envelope,
    corner_extract,
    paulsen_lift,
)
from ellis_envelope.linalg import OperatorSubspace, frobenius, hermitian_eig, herm
from ellis_envelope.semigroups import (
    check_remark_similarity,
    enumerate_semigroups,
    idempotent_poset,
    minimal_idempotent_below,
    minimal_left_ideals,
    random_subsemigroup,
    transformation_monoid,
)
from ellis_envelope.spectrahedron import (
    build_system_set,
    cb_norm,
    cb_norm_bracket,
    sample,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def diag_units(n):
    return [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]


def diag_space(n):
    return OperatorSubspace.from_matrices(diag_units(n))


def shift_matrix(n):
    return np.roll(np.eye(n), 1, axis=0).astype(complex)


def _structural_checks(sg):
    """Idempotent existence, constructive minimality, similarity, ideals."""
    poset = idempotent_poset(sg)
    assert poset.idempotents, "no idempotent found"
    minimal = set(poset.minimal())
    t = sg.table
    for e in poset.idempotents:
        f = minimal_idempotent_below(sg, e)
        assert int(t[e, f]) == f and int(t[f, e]) == f, "result not below e"
        assert f in minimal, "constructive descent missed minimality"
    assert check_remark_similarity(sg).passed
    for ideal in minimal_left_ideals(sg):
        idem = [e for e in ideal if int(t[e, e]) == e]
        assert idem, "minimal left ideal without idempotent"
        for e in idem:
            assert all(int(t[x, e]) == x for x in ideal), "not a right identity"


@pytest.fixture(scope="module")
def d2_envelope():
    return compute_envelope(diag_space(2), seed=0)


@pytest.fixture(scope="module")
def rigid_envelope():
    return compute_envelope(OperatorSubspace.from_matrices([I2, SX, SZ]), seed=0)


@pytest.fixture(scope="module")
def corner_envelope():
    return compute_envelope(OperatorSubspace.from_matrices([E12]), seed=0)


@pytest.fixture(scope="module")
def sz_boundary():
    return compute_boundary(
        OperatorSubspace.from_matrices([I2]), ChannelMap.conjugation(SZ)
    )


@pytest.fixture(scope="module")
def shift_boundary():
    return compute_boundary(
        OperatorSubspace.from_matrices([np.eye(3, dtype=complex)]),
        ChannelMap.conjugation(shift_matrix(3)),
    )


def test_01_finite_semigroup_structure():
    t_start = time.monotonic()
    assert len(enumerate_semigroups(1)) == 1
    assert len(enumerate_semigroups(2)) == 8
    order3 = enumerate_semigroups(3)
    assert len(order3) == 113
    t3, _ = transformation_monoid(3)
    t4, _ = transformation_monoid(4)
    assert len(t3.idempotents()) == 10
    assert len(t4.idempotents()) == 41
    for sg in order3:
        _structural_checks(sg)
    _structural_checks(t3)
    _structural_checks(t4)
    for seed in range(200):
        _structural_checks(random_subsemigroup(t4, seed).table)
    assert time.monotonic() - t_start < 60.0


def _suite_channels():
    """The shared random-channel pool for the ergodic and absorption suites."""
    rng = np.random.default_rng(2024)
    return [
        random_unital_channel(rng, 2 if k % 2 == 0 else 3, n_kraus=2 + k % 3)
        for k in range(100)
    ]


def test_02_ergodic_idempotents_of_random_channels():
    t_start = time.monotonic()
    for phi in _suite_channels():
        res = cesaro_idempotent(phi, mode="both")
        assert res.agreement is not None and res.agreement <= 1e-7
        assert max(res.residuals.values()) <= 1e-8
        e = res.idempotent
        # the range of e is exactly the fixed space of phi
        rng_basis = e.range_basis()
        assert rng_basis.dim == res.fixed_space.dim
        for m in rng_basis.mats:
            assert frobenius(phi.apply(m) - m) <= 1e-8
        wmin = float(hermitian_eig(herm(e.choi)).values[0])
        assert wmin >= -1e-8
    assert time.monotonic() - t_start < 60.0


def test_03_absorption_of_channel_powers():
    for phi in _suite_channels():
        e = cesaro_idempotent(phi).idempotent
        assert check_absorption(e, phi) <= 1e-7


def test_04_diagonal_envelopes_across_seeds():
    for n in (2, 3):
        t_start = time.monotonic()
        space = diag_space(n)
        results = [compute_envelope(space, seed=s) for s in range(5)]
        for res in results:
            assert res.certificate == "certified"
            assert res.rank == n
            assert subspace_equal(res.envelope_space, space, tol=1e-6)[0]
        base = results[0].idempotent.superop
        for res in results[1:]:
            assert frobenius(res.idempotent.superop - base) <= 1e-6
        assert time.monotonic() - t_start < 300.0


def test_05_rigid_system_collapses_to_identity(rigid_envelope):
    res = rigid_envelope
    assert res.certificate == "certified"
    assert frobenius(res.idempotent.superop - np.eye(4)) <= 1e-6
    assert res.rigidity_violation <= 1e-6
    fset = build_system_set(OperatorSubspace.from_matrices([I2, SX, SZ]))
    for seed in range(50):
        theta = sample(fset, seed=seed)
        assert frobenius(theta.superop - np.eye(4)) <= 1e-7


def test_06_corner_lift_and_one_dimensional_envelope(corner_envelope):
    space = OperatorSubspace.from_matrices([E12])
    lifted = paulsen_lift(space)
    assert lifted.n == 4
    assert lifted.dim == 4
    assert lifted.unital and lifted.selfadjoint
    z = np.zeros((4, 4), dtype=complex)
    z[:2, 2:] = E12
    assert lifted.distance(z) <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(5):
        kraus = random_unital_kraus(rng, 2)
        phi = ChannelMap.from_kraus(kraus)
        assert frobenius(corner_extract(lift_kraus(kraus)).choi - phi.choi) <= 1e-10
    res = corner_envelope
    assert res.certificate == "certified"
    assert res.mode == "space"
    assert res.rank == 1
    assert res.inclusion_residual <= 1e-6


def test_07_multiplication_tables_are_associative_with_unit(
    d2_envelope, rigid_envelope, corner_envelope, sz_boundary, shift_boundary
):
    for res in (d2_envelope, rigid_envelope, corner_envelope):
        assert res.choi_effros.associativity_residual <= 1e-8
        assert res.choi_effros.unit_residual <= 1e-8
    for res in (sz_boundary, shift_boundary):
        assert res.choi_effros.associativity_residual <= 1e-8
        assert res.choi_effros.unit_residual <= 1e-8
    rng = np.random.default_rng(77)
    for _ in range(10):
        phi = random_unital_channel(rng, 3)
        e = cesaro_idempotent(phi).idempotent
        table = choi_effros_table(e, e.range_basis())
        assert table.associativity_residual <= 1e-8
        assert table.unit_residual <= 1e-8


def test_08_boundaries_live_on_commutants(sz_boundary, shift_boundary):
    assert sz_boundary.fixed_space.dim == 2
    assert subspace_equal(
        sz_boundary.fixed_space, OperatorSubspace(np.stack(diag_units(2))), tol=1e-8
    )[0]
    c = shift_matrix(3)
    circulants = OperatorSubspace(
        np.stack([np.linalg.matrix_power(c, k) / np.sqrt(3.0) for k in range(3)])
    )
    assert shift_boundary.fixed_space.dim == 3
    assert subspace_equal(shift_boundary.fixed_space, circulants, tol=1e-8)[0]
    for res, phi in (
        (sz_boundary, ChannelMap.conjugation(SZ)),
        (shift_boundary, ChannelMap.conjugation(c)),
    ):
        assert res.certificate == "certified"
        tset = build_T_set(res.space, phi)
        assert tset.membership(res.idempotent, tol=1e-8).ok
        assert res.rigidity_violation <= 1e-6
        assert res.absorption_violation <= 1e-7


def test_09_cb_norms_match_known_values():
    assert abs(cb_norm(ChannelMap.identity(2)) - 1.0) <= 1e-12
    halved = ChannelMap.from_kraus([I2 / np.sqrt(2.0)])
    assert abs(cb_norm(halved) - 0.5) <= 1e-12
    bracket = cb_norm_bracket(ChannelMap.transpose_map(2), tol=1e-3)
    assert bracket.converged
    assert abs(0.5 * (bracket.lower + bracket.upper) - 2.0) <= 1e-3
    # witness oracle: transposing one leg of the swap unitary attains 2
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1.0
    witness = swap.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    attained = float(np.linalg.svd(witness, compute_uv=False)[0])
    assert bracket.lower >= attained - 1e-3


def test_10_reports_are_byte_identical(tmp_path, capsys):
    space = diag_space(2)
    p = tmp_path / "d2.json"
    p.write_text(json.dumps(space.to_json("system"), default=np.ndarray.tolist))
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = main(
            [
                "envelope",
                "compute",
                str(p),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        outs.append(target.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert b"certified" in outs[0]
