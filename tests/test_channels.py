"""Channel representation tests.

Expected Choi matrices are rebuilt here straight from the defining sum
C = sum_ij E_ij (x) phi(E_ij), so the reshuffling conventions in the package
are checked against the definition rather than against themselves.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellis_envelope import channels
from ellis_envelope.boundary import compute_boundary
from ellis_envelope.channels import (
    ChannelMap,
    NonConvergenceError,
    _iterative_ergodic_projection,
    cb_norm_bracket,
    cesaro_idempotent,
    check_absorption,
    check_structure,
    choi_to_superop,
    compose,
    random_unital_channel,
    superop_to_choi,
    unitalize_kraus,
)
from ellis_envelope.linalg import OperatorSubspace, frobenius, herm, hermitian_eig, vec
from ellis_envelope.tolerances import TOL

from conftest import I2, SZ, nearfix, noncp_draw, random_complex, random_hermitian, random_unitary, schur_map, subspace_equal
from dense_slice import real_to_herm


def choi_from_function(f, n, m):
    """The defining sum, evaluated one matrix unit at a time."""
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            eij = np.zeros((n, n), dtype=complex)
            eij[i, j] = 1.0
            c += np.kron(eij, f(eij))
    return c


def commutant_basis(u):
    """Orthonormal basis of {x : ux = xu}, by SVD of the commutator operator."""
    n = u.shape[0]
    a = np.kron(u, np.eye(n)) - np.kron(np.eye(n), u.T)
    _, s, vh = np.linalg.svd(a)
    r = int(np.sum(s < 1e-10 * max(1.0, s[0])))
    mats = [vh[-(k + 1)].conj().reshape(n, n) for k in range(r)]
    return OperatorSubspace(np.stack(mats))


def plain_cesaro_average(s, big_n):
    acc = np.zeros_like(s)
    spow = np.eye(s.shape[0], dtype=complex)
    for _ in range(big_n):
        spow = s @ spow
        acc += spow
    return acc / big_n


DIAG_PHASE = np.diag([1.0, 1.0j]).astype(complex)  # commutant D_2, peripheral spectrum


# ---------------------------------------------------------------- Choi form


def test_identity_choi_frozen():
    phi = ChannelMap.identity(2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = 1.0  # vec-outer of vec(I_2)
    assert np.allclose(phi.choi, expected)
    assert abs(np.trace(phi.choi) - 2.0) < 1e-12
    w = hermitian_eig(phi.choi).values
    assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)  # rank one


def test_transpose_choi_is_swap():
    phi = ChannelMap.transpose_map(2)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(phi.choi, swap)
    assert np.allclose(hermitian_eig(phi.choi).values, [-1, 1, 1, 1], atol=1e-12)


def test_choi_matches_defining_sum():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 3)
    k1, k2 = random_complex(rng, 2, 3), random_complex(rng, 2, 3)
    m = random_hermitian(rng, 3)
    cases = [
        (ChannelMap.conjugation(u), lambda x: u @ x @ u.conj().T, 3, 3),
        (ChannelMap.pinching(3), lambda x: np.diag(np.diag(x)), 3, 3),
        (schur_map(m), lambda x: m * x, 3, 3),
        (ChannelMap.trace_state(2), lambda x: np.trace(x) / 2 * np.eye(2), 2, 2),
        (ChannelMap.transpose_map(3), lambda x: x.T, 3, 3),
        (
            ChannelMap.from_kraus([k1, k2]),
            lambda x: k1 @ x @ k1.conj().T + k2 @ x @ k2.conj().T,
            3,
            2,
        ),
    ]
    for phi, f, n, m_out in cases:
        assert np.allclose(phi.choi, choi_from_function(f, n, m_out), atol=1e-12)


def test_half_identity_half_sz_conjugation_is_pinching():
    # (x + u x u^*)/2 with u = diag(1,-1) kills the off-diagonal exactly.
    phi = ChannelMap.from_kraus([I2 / np.sqrt(2), SZ / np.sqrt(2)])
    assert np.allclose(phi.choi, ChannelMap.pinching(2).choi, atol=1e-12)


def apply_via_choi(phi, x):
    """phi(x) evaluated from the Choi tensor, to cross-check the reshuffle."""
    c4 = phi.choi.reshape(phi.dim_in, phi.dim_out, phi.dim_in, phi.dim_out)
    return np.einsum("iajb,ij->ab", c4, x)


def test_apply_agrees_between_choi_and_superop():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, m = rng.integers(2, 4), rng.integers(2, 4)
        phi = ChannelMap(n, m, random_complex(rng, n * m, n * m))
        x = random_complex(rng, n, n)
        assert frobenius(phi.apply(x) - apply_via_choi(phi, x)) < 1e-10


def test_superop_choi_reshuffles_are_inverse():
    rng = np.random.default_rng(13)
    n, m = 2, 3
    c = random_complex(rng, n * m, n * m)
    assert np.allclose(superop_to_choi(choi_to_superop(c, n, m), n, m), c)
    s = random_complex(rng, m * m, n * n)
    assert np.allclose(choi_to_superop(superop_to_choi(s, n, m), n, m), s)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_converters_keep_the_leading_axes_of_a_stack(n, m):
    rng = np.random.default_rng(29)
    chois = random_complex(rng, 2 * 3 * n * m, n * m).reshape(2, 3, n * m, n * m)
    sups = choi_to_superop(chois, n, m)
    assert sups.shape == (2, 3, m * m, n * n)
    assert np.array_equal(superop_to_choi(sups, n, m), chois)
    for a in range(2):
        for b in range(3):
            assert np.array_equal(sups[a, b], choi_to_superop(chois[a, b], n, m))
            assert np.array_equal(superop_to_choi(sups[a, b], n, m), chois[a, b])
    assert np.array_equal(choi_to_superop(chois[:, :0], n, m), np.zeros((2, 0, m * m, n * n)))


def test_from_kraus_shape_mismatch():
    with pytest.raises(ValueError):
        ChannelMap.from_kraus([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        ChannelMap.from_kraus([])


# ------------------------------------------------------------- composition


def test_compose_matches_pointwise_application():
    rng = np.random.default_rng(17)
    f = ChannelMap.from_kraus([random_complex(rng, 4, 3), random_complex(rng, 4, 3)])
    g = ChannelMap.from_kraus([random_complex(rng, 3, 2)])
    fg = compose(f, g)
    for _ in range(10):
        x = random_complex(rng, 2, 2)
        assert frobenius(fg.apply(x) - f.apply(g.apply(x))) < 1e-10


def test_compose_identities():
    phi = ChannelMap.conjugation(random_unitary(np.random.default_rng(19), 2))
    assert frobenius(compose(ChannelMap.identity(2), phi).choi - phi.choi) < 1e-12
    pinch = ChannelMap.pinching(2)
    assert frobenius(compose(pinch, pinch).choi - pinch.choi) < 1e-12
    t = ChannelMap.transpose_map(2)
    assert frobenius(compose(t, t).choi - ChannelMap.identity(2).choi) < 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(ChannelMap.identity(2), ChannelMap.identity(3))


def test_adjoint_pairing():
    rng = np.random.default_rng(23)
    phi = ChannelMap(2, 3, random_complex(rng, 6, 6))
    star = phi.adjoint()
    for _ in range(10):
        x, y = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
        lhs = np.trace(star.apply(y).conj().T @ x)
        rhs = np.trace(y.conj().T @ phi.apply(x))
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_cp_closed_under_composition_and_mixing(seed):
    rng = np.random.default_rng(seed)
    f = ChannelMap.from_kraus([random_complex(rng, 2, 2) for _ in range(2)])
    g = ChannelMap.from_kraus([random_complex(rng, 2, 2) for _ in range(2)])
    t = rng.uniform()
    mix = ChannelMap(2, 2, t * f.choi + (1 - t) * g.choi)
    for phi in (compose(f, g), mix):
        wmin = hermitian_eig(phi.choi).values[0]
        assert wmin >= -1e-9 * max(1.0, frobenius(phi.choi))


# ---------------------------------------------------------- structure flags


def test_structure_identity():
    rep = check_structure(ChannelMap.identity(2))
    assert rep.cp and rep.unital and rep.trace_preserving and rep.idempotent
    assert rep.cb_contraction and abs(rep.cb_bound - 1.0) < 1e-12


def test_structure_transpose():
    rep = check_structure(ChannelMap.transpose_map(2))
    assert not rep.cp
    assert abs(rep.choi_min_eig + 1.0) < 1e-12
    assert rep.unital and rep.trace_preserving
    assert rep.idempotent is False
    assert not rep.cb_contraction
    assert rep.cb_bound == pytest.approx(2.0, abs=1e-3)


def test_structure_pinching():
    rep = check_structure(ChannelMap.pinching(3))
    assert rep.cp and rep.unital and rep.trace_preserving and rep.idempotent


def test_structure_nonsquare():
    rep = check_structure(ChannelMap.from_kraus([random_complex(np.random.default_rng(2), 3, 2)]))
    assert rep.idempotent is None


def test_structure_choi_rank_counts_singular_values():
    # Hermitian Choi matrices take the rank from their eigenvalues, the
    # others from an SVD; both must count the singular values above TOL.rank
    rng = np.random.default_rng(3)
    u, v = random_complex(rng, 4), random_complex(rng, 4)
    maps = [
        (ChannelMap.identity(3), 1),
        (ChannelMap.transpose_map(2), 4),
        (ChannelMap.from_kraus([random_complex(rng, 3, 3) for _ in range(2)]), 2),
        (ChannelMap(2, 2, np.outer(u, v.conj())), 1),
    ]
    for phi, rank in maps:
        sv = np.linalg.svd(phi.choi, compute_uv=False)
        assert check_structure(phi).choi_rank == int(np.sum(sv > channels.TOL.rank)) == rank


# ----------------------------------------------------------------- cb norm


def test_cb_norm_of_cp_maps_is_output_norm():
    halve = ChannelMap.from_kraus([I2 / np.sqrt(2.0)])
    for phi, value in ((ChannelMap.identity(2), 1.0), (ChannelMap.pinching(2), 1.0), (halve, 0.5)):
        assert check_structure(phi).cb_bound == pytest.approx(value, abs=1e-9)
        # the bracket itself closes at I/m on CP maps
        b = cb_norm_bracket(phi)
        assert b.converged and b.bisections == 0
        assert b.lower <= b.upper
        assert b.lower == pytest.approx(value, abs=1e-9)
        assert b.upper == pytest.approx(value, abs=1e-9)


def test_cb_norm_of_transpose():
    for n in range(2, 6):
        tn = ChannelMap.transpose_map(n)
        assert check_structure(tn).cb_bound == pytest.approx(n, abs=1e-3)
        bracket = cb_norm_bracket(tn, tol=1e-3)
        assert bracket.converged and bracket.bisections == 0
        assert bracket.lower <= bracket.upper
        assert bracket.lower == pytest.approx(n, abs=1e-9)
        assert bracket.upper == pytest.approx(n, abs=1e-9)


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
    assert b.bisections == channels.CB_ASCENT_STEPS
    assert all(np.isfinite(rho).all() for rho in b.densities)


def test_cb_bracket_reports_gap_when_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(23)
    phi = ChannelMap(2, 2, random_hermitian(rng, 4))
    monkeypatch.setattr(channels, "CB_ASCENT_STEPS", 1)
    bracket = cb_norm_bracket(phi, tol=1e-12)
    assert bracket.lower <= bracket.upper
    assert not bracket.converged
    assert bracket.bisections == 1
    assert bracket.history[-1] == (1, pytest.approx(bracket.upper - bracket.lower))
    # the bracket is as open at TOL.cb_norm, where check_structure refuses it
    with pytest.raises(NonConvergenceError, match="cb_norm: bracket") as exc:
        check_structure(phi)
    assert exc.value.history[-1] == (1, pytest.approx(bracket.upper - bracket.lower))
    monkeypatch.undo()
    full = cb_norm_bracket(phi)
    assert full.converged
    # each step keeps the best end of each side, so the width never grows
    widths = [w for _, w in full.history]
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    assert widths[-1] == full.upper - full.lower
    upper = check_structure(phi).cb_bound
    assert upper == full.upper
    assert upper >= bracket.lower - 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_structure_decomposes_the_choi_matrix_once(monkeypatch, n):
    # the transpose is Hermitian and not CP: its CP decision, choi_rank and
    # choi_min_eig come from one eigendecomposition, which the cb bracket
    # does not repeat
    phi = ChannelMap.transpose_map(n)
    calls = []

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape == phi.choi.shape and np.array_equal(a, herm(phi.choi)):
                calls.append(name)
            return fn(a, *args, **kwargs)

        return wrapped

    for name in ("eigvalsh", "eigh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rep = check_structure(phi)
    assert not rep.cp and rep.cb_bound == pytest.approx(n, abs=1e-9)
    assert len(calls) == 1, calls


# ------------------------------------------------------------- fixed space


def test_fixed_space_identity_is_everything():
    fs = cesaro_idempotent(ChannelMap.identity(2)).fixed_space
    assert fs.dim == 4


def test_fixed_space_of_conjugation_is_commutant():
    u = np.diag([1.0, -1.0]).astype(complex)
    fs = cesaro_idempotent(ChannelMap.conjugation(u)).fixed_space
    diag2 = OperatorSubspace(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex))
    ok, dist = subspace_equal(fs, diag2)
    assert ok, dist
    rng = np.random.default_rng(29)
    v = random_unitary(rng, 3)
    u3 = v @ np.diag(np.exp(1j * np.array([0.3, 1.1, 2.6]))) @ v.conj().T
    ok, dist = subspace_equal(cesaro_idempotent(ChannelMap.conjugation(u3)).fixed_space, commutant_basis(u3))
    assert ok, dist


def test_fixed_space_pinching_and_trace_state():
    fs = cesaro_idempotent(ChannelMap.pinching(3)).fixed_space
    diag3 = OperatorSubspace(np.stack([np.diag(np.eye(3)[i]) for i in range(3)]).astype(complex))
    ok, _ = subspace_equal(fs, diag3)
    assert ok
    fs1 = cesaro_idempotent(ChannelMap.trace_state(2)).fixed_space
    ok, _ = subspace_equal(fs1, OperatorSubspace(np.stack([I2 / np.sqrt(2)])))
    assert ok


def test_fixed_space_rejects_nonunital_and_noncp():
    with pytest.raises(ValueError):
        cesaro_idempotent(ChannelMap.conjugation(np.diag([1.0, 0.5])))
    with pytest.raises(ValueError):
        cesaro_idempotent(ChannelMap.transpose_map(2))  # unital but not CP
    with pytest.raises(ValueError):
        cesaro_idempotent(ChannelMap.from_kraus([random_complex(np.random.default_rng(1), 3, 2)]))


# --------------------------------------------------------- Cesaro averaging


def test_cesaro_of_identity_and_of_projection():
    res = cesaro_idempotent(ChannelMap.identity(2))
    assert frobenius(res.idempotent.superop - np.eye(4)) < 1e-10
    assert res.fixed_space.dim == 4
    pinch = ChannelMap.pinching(2)
    res = cesaro_idempotent(pinch, mode="both")
    assert frobenius(res.idempotent.superop - pinch.superop) < 1e-9
    assert res.agreement is not None and res.agreement < 1e-7


def test_cesaro_limit_matches_plain_averaging_oracle():
    # phi = (id + conj by diag(1, i))/2: off-diagonal superoperator eigenvalues
    # have modulus sqrt(2)/2, so tau_N converges to the pinching.
    u = DIAG_PHASE
    phi = ChannelMap(2, 2, 0.5 * (ChannelMap.identity(2).choi + ChannelMap.conjugation(u).choi))
    res = cesaro_idempotent(phi, mode="both")
    pinch = ChannelMap.pinching(2)
    assert frobenius(res.idempotent.superop - pinch.superop) < 1e-9
    tau = plain_cesaro_average(phi.superop, 4000)
    assert frobenius(tau - res.idempotent.superop) < 1e-2  # O(1/N) oracle
    assert res.agreement < 1e-7


def test_cesaro_handles_peripheral_spectrum():
    # Unitary conjugation: superoperator eigenvalues e^{i(a-b)} sit on the
    # unit circle, where plain averaging is O(1/N); both modes must agree.
    u = np.diag(np.exp(1j * np.array([0.0, 2.0]))).astype(complex)
    res = cesaro_idempotent(ChannelMap.conjugation(u), mode="both")
    assert res.agreement < 1e-7
    diag2 = OperatorSubspace(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex))
    ok, dist = subspace_equal(res.fixed_space, diag2)
    assert ok, dist
    ok, dist = subspace_equal(res.idempotent.range_basis(), diag2)
    assert ok, dist


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_cesaro_invariants_random_unital_channels(seed, n):
    phi = random_unital_channel(np.random.default_rng(seed), n)
    res = cesaro_idempotent(phi, mode="both")
    e, s = res.idempotent.superop, phi.superop
    assert res.residuals["idempotent"] < 1e-8
    assert frobenius(s @ e - e) < 1e-8 and frobenius(e @ s - e) < 1e-8
    assert res.agreement < 1e-7
    ok, dist = subspace_equal(res.idempotent.range_basis(), res.fixed_space)
    assert ok, dist
    # limits of CP maps stay CP and unital
    assert hermitian_eig(res.idempotent.choi).values[0] >= -1e-8
    assert frobenius(res.idempotent.apply(np.eye(n)) - np.eye(n)) < 1e-9


def test_unitalize_kraus():
    rng = np.random.default_rng(31)
    ops = unitalize_kraus([random_complex(rng, 3, 3) for _ in range(2)])
    assert frobenius(sum(a @ a.conj().T for a in ops) - np.eye(3)) < 1e-12


def test_cesaro_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cesaro_idempotent(ChannelMap.conjugation(np.diag([1.0, 0.5])))
    with pytest.raises(ValueError):
        cesaro_idempotent(ChannelMap.identity(2), mode="newton")


def test_iterative_budget_guard():
    # A defective fixed point (Jordan block at 1) never settles; the averaging
    # loop must stop with its residual history instead of spinning.
    s = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NonConvergenceError) as exc:
        _iterative_ergodic_projection(s)
    assert exc.value.history


@pytest.mark.parametrize("mode", ["spectral", "iterative", "both"])
def test_cesaro_factors_the_map_once(monkeypatch, mode):
    phi = random_unital_channel(np.random.default_rng(5), 3)
    d = phi.superop.shape[0]
    full, values_only, checks = [], [], []
    svd, require = np.linalg.svd, channels._require_unital_cp

    def counting_svd(a, *args, **kwargs):
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        if np.shape(a) == (d, d):
            (full if compute_uv else values_only).append(1)
        return svd(a, *args, **kwargs)

    def counting_require(*args):
        checks.append(1)
        return require(*args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(channels, "_require_unital_cp", counting_require)
    cesaro_idempotent(phi, mode=mode)
    # one SVD of I - S_R, which also scales the cut: no values-only SVD
    assert (len(full), len(values_only), len(checks)) == (1, 0, 1)


# the channels of scripts/make_inputs.py
SAMPLE_CHANNELS = {
    "pinching_m2": lambda: ChannelMap.pinching(2),
    "conj_sz": lambda: ChannelMap.conjugation(SZ),
    "half_sz": lambda: ChannelMap(2, 2, 0.5 * (ChannelMap.identity(2).choi + ChannelMap.conjugation(SZ).choi)),
    "shift_m3": lambda: ChannelMap.conjugation(np.roll(np.eye(3), 1, axis=0).astype(complex)),
    "trace_state_m2": lambda: ChannelMap.trace_state(2),
}


@pytest.mark.parametrize("name", list(SAMPLE_CHANNELS))
def test_cesaro_fixed_space_is_an_operator_system(name):
    # F_phi is the range of the unital CP idempotent Ces(phi)
    f = cesaro_idempotent(SAMPLE_CHANNELS[name]()).fixed_space
    assert f.unital and f.selfadjoint


def test_cesaro_fixed_space_equals_fixed_space_of_the_map():
    rng = np.random.default_rng(41)
    v = random_unitary(rng, 3)
    degenerate = v @ np.diag([1.0, 1.0, np.exp(0.7j)]) @ v.conj().T  # commutant of dim 5
    maps = [
        ChannelMap.conjugation(degenerate),
        ChannelMap.pinching(3),
        ChannelMap(2, 2, 0.5 * (ChannelMap.identity(2).choi + ChannelMap.conjugation(DIAG_PHASE).choi)),
        random_unital_channel(rng, 3),
    ]
    for phi in maps:
        expected = complex_fixed_space(phi)
        for mode in ("spectral", "iterative", "both"):
            res = cesaro_idempotent(phi, mode=mode)
            ok, dist = subspace_equal(res.fixed_space, expected, tol=1e-12)
            assert ok, (mode, dist)


def complex_kernels(s):
    """ker(I - S) and ker((I - S)^*) from a dense complex SVD, cut at
    TOL.fixed_space * max(1, ||S||_2): the reference for the real-coordinate path."""
    d = s.shape[0]
    u, sv, vh = np.linalg.svd(np.eye(d) - s)
    r = int(np.sum(sv < TOL.fixed_space * max(1.0, np.linalg.svd(s, compute_uv=False)[0])))
    return vh[d - r :].conj().T, u[:, d - r :]


def complex_fixed_space(phi):
    k, _ = complex_kernels(phi.superop)
    return OperatorSubspace(k.T.reshape(-1, phi.dim_in, phi.dim_in))


def complex_cesaro_choi(phi, mode):
    """The ergodic idempotent's Choi matrix by the complex-superoperator
    algorithm: spectral projection from the complex kernels, or the doubling
    iteration on the complex S ("both" runs it and reports the spectral
    one), then the Hermitian part."""
    s, n = phi.superop, phi.dim_in
    k, l = complex_kernels(s)
    p = k @ np.linalg.solve(l.conj().T @ k, l.conj().T)
    if mode != "spectral":
        p_iter, _ = _iterative_ergodic_projection(s)
        if mode == "iterative":
            p = p_iter
    return herm(superop_to_choi(p, n, n)), k.shape[1]


def dense_hermitian_basis(n):
    """Columns vec of the Hermitian basis, built from ``real_to_herm``."""
    return real_to_herm(np.eye(n * n), n).reshape(n * n, n * n).T


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["kraus", "noncp"]))
def test_hermitian_coordinates_are_the_dense_basis_change(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "kraus":
        phi = ChannelMap.from_kraus([random_complex(rng, n, n) for _ in range(rng.integers(1, 4))])
    else:  # Hermitian Choi matrix, not CP
        phi = ChannelMap(n, n, random_hermitian(rng, n * n))
    s = phi.superop / frobenius(phi.superop)
    b = dense_hermitian_basis(n)
    dense = b.conj().T @ s @ b
    s_r = channels._to_hermitian_coords(s, n)
    assert s_r.dtype == np.float64
    assert frobenius(s_r - dense.real) <= 1e-13
    assert frobenius(dense.imag) <= 1e-13
    assert frobenius(channels._from_hermitian_coords(s_r, n) - s) <= 1e-14


def cesaro_reference_cases():
    rng = np.random.default_rng(43)
    cases = {
        "diag_repeated": ChannelMap.conjugation(np.diag(np.exp(1j * np.array([0.0, 0.0, 1.0, 1.0])))),
        "diag_irrational": ChannelMap.conjugation(np.diag(np.exp(2j * np.pi * np.sqrt([2.0, 3.0, 5.0])))),
        "pinching_m3": ChannelMap.pinching(3),
        "trace_state_m3": ChannelMap.trace_state(3),
        "nearfix_1e-10": nearfix(1e-10),
    }
    cases.update((f"sample_{name}", make()) for name, make in SAMPLE_CHANNELS.items())
    cases.update((f"random_n{n}_k{k}", random_unital_channel(rng, n, k)) for n in (2, 3, 4) for k in (1, 2, 3))
    return cases


@pytest.mark.parametrize("mode", ["spectral", "iterative", "both"])
def test_cesaro_in_hermitian_coordinates_matches_the_complex_algorithm(mode):
    for name, phi in cesaro_reference_cases().items():
        try:
            choi, dim = complex_cesaro_choi(phi, mode)
        except NonConvergenceError:  # nearfix: the doubling stalls on |1 - lambda| ~ 5e-11
            with pytest.raises(NonConvergenceError):
                cesaro_idempotent(phi, mode=mode)
            continue
        res = cesaro_idempotent(phi, mode=mode)
        assert res.fixed_space.dim == dim, name
        assert frobenius(res.idempotent.choi - choi) <= 1e-12, (name, frobenius(res.idempotent.choi - choi))
        for m in res.fixed_space.mats:
            assert np.abs(m - m.conj().T).max() <= 1e-14, name


def spectrum_choi(n, lam):
    """Hermitian Choi matrix of a unital map on M_n whose least eigenvalue is lam:
    I/n (the trace state) plus t (E_00 - E_11) (x) E_00, which keeps phi(I) = I."""
    t = 1.0 / n - lam
    choi = np.eye(n * n, dtype=complex) / n
    choi[0, 0] += t
    choi[n, n] -= t
    return choi


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_cp_check_threshold_on_constructed_spectra(factor, ok):
    # the Cholesky decision keeps the eigenvalue threshold -c, c = TOL.ucp max(1, ||J||_F)
    c = TOL.ucp * max(1.0, frobenius(spectrum_choi(2, 0.0)))
    phi = ChannelMap(2, 2, spectrum_choi(2, -factor * c))
    assert abs(np.linalg.eigvalsh(phi.choi)[0] + factor * c) <= 1e-15
    if ok:
        channels._require_unital_cp(phi, "who")
        return
    with pytest.raises(ValueError, match=r"^who: map is not CP \(min Choi eigenvalue -2\.\d{3}e-07\)$"):
        channels._require_unital_cp(phi, "who")


def absorption_three_products(e: ChannelMap, phi: ChannelMap) -> float:
    """Reference loop for check_absorption: S_e S_phi^k S_e, three products per power."""
    se, sp = e.superop, phi.superop
    out, spk = 0.0, np.eye(sp.shape[0])
    for _ in range(channels.ABSORPTION_POWERS):
        spk = sp @ spk
        out = max(out, frobenius(se @ spk @ se - se))
    return out


def test_check_absorption_matches_three_product_loop():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        phi = random_unital_channel(rng, n)
        e = cesaro_idempotent(phi).idempotent
        # a perturbation inside the precondition tolerance gives values well above roundoff
        noisy = ChannelMap.from_superop(e.superop + 1e-9 * random_complex(rng, n * n, n * n), n, n)
        for idem in (e, noisy):
            ref = absorption_three_products(idem, phi)
            assert abs(check_absorption(idem, phi) - ref) <= 1e-12, (n, ref)
        assert absorption_three_products(noisy, phi) > 1e-10


def test_check_absorption():
    assert check_absorption(ChannelMap.identity(2), ChannelMap.identity(2)) < 1e-12
    pinch = ChannelMap.pinching(2)
    u = DIAG_PHASE
    phi = ChannelMap(2, 2, 0.5 * (ChannelMap.identity(2).choi + ChannelMap.conjugation(u).choi))
    assert check_absorption(pinch, phi) < 1e-8
    assert check_absorption(pinch, ChannelMap.conjugation(SZ)) < 1e-8
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError):
        check_absorption(pinch, ChannelMap.conjugation(hadamard))


def dense_absorption_residuals(e: ChannelMap, phi: ChannelMap) -> dict[str, float]:
    """The preconditions of check_absorption, each by one dense product."""
    se, sp = e.superop, phi.superop
    return {
        "idempotent": frobenius(se @ se - se),
        "absorb_left": frobenius(sp @ se - se),
        "absorb_right": frobenius(se @ sp - se),
    }


def direct_sum_channel(rng, a, b, n_kraus=3):
    """Kraus operators A_k (+) B_k of two random unital channels on M_a and M_b."""
    left = unitalize_kraus([random_complex(rng, a, a) for _ in range(n_kraus)])
    right = unitalize_kraus([random_complex(rng, b, b) for _ in range(n_kraus)])
    ops = []
    for x, y in zip(left, right):
        k = np.zeros((a + b, a + b), dtype=complex)
        k[:a, :a], k[a:, a:] = x, y
        ops.append(k)
    return ChannelMap.from_kraus(ops)


def channel_with_fixed_dim(rng, n, r):
    """A random unital channel on M_n whose fixed space has dimension r (1, 2 or n)."""
    if r == 1:
        return random_unital_channel(rng, n)
    if r == 2:
        a = int(rng.integers(1, n))
        return direct_sum_channel(rng, a, n - a)
    # identity mixed with a distinct-phase diagonal-unitary conjugation: F = diag M_n
    t = rng.uniform(0.2, 0.8)
    u = np.diag(np.exp(2j * np.pi * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n))
    return ChannelMap(n, n, t * ChannelMap.identity(n).choi + (1 - t) * ChannelMap.conjugation(u).choi)


def assert_absorption_bounds_dense(e, phi, basis):
    """check_absorption's bounds against the dense products, for either basis argument."""
    q = (e.range_basis() if basis is None else basis).vecs().T
    delta = frobenius(e.superop - q @ (q.conj().T @ e.superop))
    ref = absorption_three_products(e, phi)
    value = check_absorption(e, phi, basis)
    # value = formed terms + sqrt(n) delta^2; the dropped term is at most sqrt(n) delta^2
    assert ref - 1e-14 <= value <= ref + 2 * np.sqrt(e.dim_in) * delta**2 + 1e-12, (value, ref, delta)
    bounds, _ = channels._absorption_bounds(e, phi, basis)
    for name, residual in dense_absorption_residuals(e, phi).items():
        # both sides of a residual at roundoff level carry their own rounding
        assert bounds[name] >= residual - 1e-14, (name, bounds[name], residual)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.sampled_from(["one", "two", "n"]))
def test_check_absorption_bounds_the_dense_loop(seed, n, kind):
    rng = np.random.default_rng(seed)
    r = {"one": 1, "two": 2, "n": n}[kind]
    phi = channel_with_fixed_dim(rng, n, r)
    assert phi.dim_in == n
    for mode in ("spectral", "iterative", "both"):
        res = cesaro_idempotent(phi, mode=mode)
        assert res.fixed_space.dim == r, (mode, res.fixed_space.dim)
        for basis in (res.fixed_space, None):
            assert_absorption_bounds_dense(res.idempotent, phi, basis)
    # a perturbation inside the precondition tolerance puts delta well above roundoff
    noisy = ChannelMap.from_superop(res.idempotent.superop + 1e-10 * random_complex(rng, n * n, n * n), n, n)
    for basis in (res.fixed_space, None):
        assert_absorption_bounds_dense(noisy, phi, basis)


def test_absorption_bounds_hold_for_any_basis():
    # S_e = Q Y + Delta is exact for every Q: with Q far from range(e) the bounds
    # are loose, but they still bound the dense values, also for maps e that are
    # not idempotent
    rng = np.random.default_rng(47)
    for n in (2, 3):
        d = n * n
        for phi in (ChannelMap.conjugation(random_unitary(rng, n)), random_unital_channel(rng, n)):
            for e in (ChannelMap.conjugation(random_unitary(rng, n)), cesaro_idempotent(phi).idempotent):
                for r in (1, 2, d // 2):
                    q, _ = np.linalg.qr(random_complex(rng, d, d))
                    bounds, value = channels._absorption_bounds(e, phi, OperatorSubspace(q[:, :r].T.reshape(r, n, n)))
                    assert value >= absorption_three_products(e, phi) - 1e-12
                    for name, residual in dense_absorption_residuals(e, phi).items():
                        assert bounds[name] >= residual - 1e-12, (n, r, name)


def test_check_absorption_on_the_rank_two_pinching_boundary():
    pinch = ChannelMap.pinching(2)
    diag2 = OperatorSubspace.from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    res = compute_boundary(diag2, pinch)
    assert res.boundary_space.dim == 2
    assert_absorption_bounds_dense(res.idempotent, pinch, res.boundary_space)
    assert res.absorption_violation <= 1e-12


# -------------------------------------------------------------------- JSON


def test_channel_json_roundtrip():
    phi = ChannelMap.conjugation(random_unitary(np.random.default_rng(37), 3))
    back = ChannelMap.from_json(phi.to_json())
    assert back.dim_in == 3 and back.dim_out == 3
    assert frobenius(back.choi - phi.choi) < 1e-15


def test_json_roundtrip_through_array_and_text():
    # to_json's tables are float64 arrays; from_json reads them as they are
    # and as the lists that json.loads makes of their text, bit for bit
    phi = random_unital_channel(np.random.default_rng(44), 3)
    space = OperatorSubspace.from_matrices([np.eye(3), phi.apply(np.diag([1.0, 2.0, 3.0]))])
    obj = phi.to_json()
    assert isinstance(obj["choi"]["data"], np.ndarray)
    text = json.loads(json.dumps(obj, default=np.ndarray.tolist))
    for back in (ChannelMap.from_json(obj), ChannelMap.from_json(text)):
        assert np.array_equal(back.choi, phi.choi)
    # from_json orthonormalizes again, so the two forms must give the same space, close to the original
    obj = space.to_json("space")
    a, mode_a = OperatorSubspace.from_json(obj)
    b, mode_b = OperatorSubspace.from_json(json.loads(json.dumps(obj, default=np.ndarray.tolist)))
    assert mode_a == mode_b == "space" and np.array_equal(a.mats, b.mats)
    assert np.abs(a.mats - space.mats).max() <= 1e-14


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_factored_cesaro_idempotent_reads_back(n, n_kraus, seed):
    # one Kraus operator is a unitary conjugation, whose fixed space (the commutant) has dimension n
    res = cesaro_idempotent(random_unital_channel(np.random.default_rng(seed), n, n_kraus))
    e = res.idempotent
    obj = json.loads(json.dumps(e.to_json(res.fixed_space), default=np.ndarray.tolist))
    assert obj["repr"] == "factored" and len(obj["range"]) == len(obj["dual"]) == res.fixed_space.dim
    back = ChannelMap.from_json(obj)
    assert frobenius(back.choi - e.choi) <= 1e-13 * frobenius(e.choi)


def test_channel_json_kraus_repr():
    from ellis_envelope.linalg import matrix_to_json

    k = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    obj = {"dim_in": 2, "dim_out": 2, "repr": "kraus", "kraus": [matrix_to_json(k)]}
    phi = ChannelMap.from_json(obj)
    assert frobenius(phi.choi - ChannelMap.conjugation(k).choi) < 1e-15


def test_channel_json_errors():
    with pytest.raises(ValueError):
        ChannelMap.from_json({"dim_in": 2, "dim_out": 2, "repr": "stinespring"})
    with pytest.raises(ValueError):
        ChannelMap.from_json({"dim_in": 2})
