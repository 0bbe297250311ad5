#!/usr/bin/env python3
"""Worked examples, end to end: ergodic projections, envelopes, boundaries.

Runs the library on the small systems whose answers are known in closed
form and prints one summary line per case. Takes a few seconds. Exits
non-zero if the Cesaro idempotent of a random unital channel on M_20 has an
absorption bound or a spectral/iterative disagreement above 1e-7, the
span{I, diag(d)} envelope is not certified at rank 2, the rigid
span{I, x, x^*, y, y^*} envelope in M_6 is not certified at rank 36 with a
Choi-Effros associativity residual at most 1e-10, the boundary of a
diagonal unitary on M_6 relative to span{I} is not certified at rank 1,
a 1e-8 perturbation of the cyclic shift on M_3 moves its boundary
idempotent relative to span{I} by more than 1e-6, the projection of a
noisy channel estimate onto the T-set in M_8 is not a member, or the
cb-norm bracket of the non-CP map on M_3 stays open.
"""

import time

import numpy as np

from ellis_envelope import (
    ChannelMap,
    OperatorSubspace,
    build_T_set,
    cb_norm_bracket,
    cesaro_idempotent,
    check_absorption,
    check_structure,
    compute_boundary,
    compute_envelope,
    dykstra_project,
    enumerate_semigroups,
    idempotent_poset,
    random_unital_channel,
    transformation_monoid,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def timed(label, fn):
    t0 = time.monotonic()
    summary = fn()
    print(f"{label:<46s} {summary}   [{time.monotonic() - t0:.2f}s]")


def order3_count():
    return f"count={len(enumerate_semigroups(3))}"


def t3_poset():
    t3, _ = transformation_monoid(3)
    poset = idempotent_poset(t3)
    return f"idempotents={len(poset.idempotents)} minimal={len(poset.minimal())}"


def cesaro_half_sz():
    half = ChannelMap.from_superop(
        0.5 * (ChannelMap.identity(2).superop + ChannelMap.conjugation(SZ).superop), 2, 2
    )
    res = cesaro_idempotent(half, mode="both")
    return f"fixed dim={res.fixed_space.dim} agreement={res.agreement:.1e}"


def cesaro_random20():
    # d = 400: check_absorption works in the fixed space's coordinates
    phi = random_unital_channel(np.random.default_rng(20), 20)
    res = cesaro_idempotent(phi, mode="both")
    absorption = check_absorption(res.idempotent, phi, res.fixed_space)
    if max(absorption, res.agreement) > 1e-7:
        raise SystemExit(f"Cesaro on M_20: absorption {absorption:.1e}, agreement {res.agreement:.1e}, expected <= 1e-7")
    return f"absorption={absorption:.1e} agreement={res.agreement:.1e}"


def diagonal_envelope():
    diag2 = OperatorSubspace.from_matrices(
        [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    )
    env = compute_envelope(diag2)
    return f"rank={env.rank} certificate={env.certificate}"


def rigid_envelope():
    res = compute_envelope(OperatorSubspace.from_matrices([I2, SX, SZ]))
    return f"rank={res.rank} rigidity={res.rigidity_violation:.1e}"


def corner_envelope():
    space = OperatorSubspace.from_matrices([np.array([[0, 1], [0, 0]], dtype=complex)])
    res = compute_envelope(space)
    return f"rank={res.rank} mode={res.mode} certificate={res.certificate}"


def diag5_envelope():
    # span{I, diag(d)} in M_5: the envelope is C^2 (the two extreme
    # eigenvalues), so this must certify at rank 2
    d = np.random.default_rng(1).standard_normal(5)
    res = compute_envelope(OperatorSubspace.from_matrices([np.eye(5), np.diag(d)]))
    if res.certificate != "certified" or res.rank != 2:
        raise SystemExit(f"span{{I, diag(d)}} in M_5: {res.certificate} at rank {res.rank}, expected certified rank 2")
    return f"rank={res.rank} certificate={res.certificate}"


def span_i8_envelope():
    # span{I} in M_8: the set has the full face, so the minimality bound is
    # the closed form of two 64 x 64 spectral norms; the envelope is C
    res = compute_envelope(OperatorSubspace.from_matrices([np.eye(8)]))
    if res.certificate != "certified" or res.rank != 1:
        raise SystemExit(f"span{{I}} in M_8: {res.certificate} at rank {res.rank}, expected certified rank 1")
    return f"rank={res.rank} rigidity={res.rigidity_violation:.1e}"


def rigid6_envelope():
    # span{I, x, x^*, y, y^*} with random x, y is rigid in M_6: the envelope
    # is all of M_6, and the multiplication table has 36^3 entries
    rng = np.random.default_rng(6)
    x, y = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2))
    res = compute_envelope(OperatorSubspace.from_matrices([np.eye(6), x, x.conj().T, y, y.conj().T]))
    assoc = res.choi_effros.associativity_residual
    if res.certificate != "certified" or res.rank != 36 or assoc > 1e-10:
        raise SystemExit(
            f"rigid span{{I, x, x*, y, y*}} in M_6: {res.certificate} at rank {res.rank}, "
            f"associativity {assoc:.1e}; expected certified rank 36, associativity <= 1e-10"
        )
    return f"rank={res.rank} associativity={assoc:.1e}"


def sz_boundary():
    res = compute_boundary(
        OperatorSubspace.from_matrices([I2]), ChannelMap.conjugation(SZ)
    )
    return f"rank={res.rank} fixed dim={res.fixed_space.dim} certificate={res.certificate}"


def diag6_boundary():
    # conjugation by diag(exp(2 pi i k / 6)) relative to span{I}: the fixed
    # space is the diagonal algebra and the boundary is C, reached in one
    # descent step from the center
    u = np.diag(np.exp(2j * np.pi * np.arange(6) / 6))
    res = compute_boundary(OperatorSubspace.from_matrices([np.eye(6)]), ChannelMap.conjugation(u))
    if res.certificate != "certified" or res.rank != 1:
        raise SystemExit(
            f"diagonal unitary on M_6: boundary {res.certificate} at rank {res.rank}, expected certified rank 1"
        )
    return f"rank={res.rank} fixed dim={res.fixed_space.dim} certificate={res.certificate}"


def nudged(u, seed):
    """u exp(1e-8 i H) for a random Hermitian H of unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    w, q = np.linalg.eigh(g + g.conj().T)
    return u @ (q * np.exp(1e-8j * w / np.linalg.norm(w))) @ q.conj().T


def shift3_boundary_stability():
    # the descent steps from the center alone, so the rank-1 boundary
    # idempotent of the shift depends continuously on the unitary
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    space = OperatorSubspace.from_matrices([np.eye(3)])
    base = compute_boundary(space, ChannelMap.conjugation(shift)).idempotent.choi
    moved = max(
        np.linalg.norm(compute_boundary(space, ChannelMap.conjugation(nudged(shift, seed))).idempotent.choi - base)
        for seed in range(5)
    )
    if moved > 1e-6:
        raise SystemExit(f"shift on M_3: a 1e-8 perturbation moved the boundary idempotent by {moved:.1e}, expected <= 1e-6")
    return f"moved <= {moved:.1e} by five 1e-8 perturbations"


def t8_projection():
    # UCP maps on M_8 absorbed by conjugation with a distinct-phase diagonal
    # unitary: the set has n^4 = 4096 Choi coordinates on its full face
    n = 8
    rng = np.random.default_rng(8)
    u = np.diag(np.exp(2j * np.pi * rng.random(n)))
    fset = build_T_set(OperatorSubspace.from_matrices([np.eye(n)]), ChannelMap.conjugation(u))
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    estimate = random_unital_channel(rng, n).choi + 0.05 * (g + g.conj().T) / 2
    rep = fset.membership(dykstra_project(estimate, fset))
    if not rep.ok:
        raise SystemExit(f"T-set in M_8: the projection is not a member ({rep.residuals})")
    return f"member, worst residual {rep.worst:.1e}"


def transpose_cb():
    bracket = cb_norm_bracket(ChannelMap.transpose_map(2), tol=1e-3)
    return f"[{bracket.lower:.4f}, {bracket.upper:.4f}] (exact value 2)"


def noncp3_cb():
    # a random Hermitian Choi matrix on M_3 (the benchmark's `noncp` draw):
    # not CP, so the bracket must close by ascent, here to 2.652554
    rng = np.random.default_rng(23)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    bracket = cb_norm_bracket(ChannelMap(3, 3, 0.5 * (g + g.conj().T) / 3), tol=1e-3)
    if not bracket.converged:
        raise SystemExit(f"non-CP map on M_3: cb bracket [{bracket.lower}, {bracket.upper}] is open")
    return f"[{bracket.lower:.4f}, {bracket.upper:.4f}] after {bracket.bisections} ascent steps"


def identity_cb():
    return f"{check_structure(ChannelMap.identity(2)).cb_bound:.4f}"


def main() -> None:
    timed("semigroups of order 3", order3_count)
    timed("T_3 idempotent poset", t3_poset)
    timed("Cesaro idempotent of (id + conj sz)/2", cesaro_half_sz)
    timed("Cesaro idempotent of a random channel on M_20", cesaro_random20)
    timed("envelope of the diagonal system in M_2", diagonal_envelope)
    timed("envelope of span{I, sx, sz} (rigid)", rigid_envelope)
    timed("envelope of span{E_12} via corner lift", corner_envelope)
    timed("envelope of span{I, diag(d)} in M_5", diag5_envelope)
    timed("envelope of span{I} in M_8", span_i8_envelope)
    timed("envelope of span{I,x,x*,y,y*} in M_6 (rigid)", rigid6_envelope)
    timed("boundary of conj sz relative to span{I}", sz_boundary)
    timed("boundary of a diagonal unitary on M_6", diag6_boundary)
    timed("boundary of the shift on M_3, perturbed", shift3_boundary_stability)
    timed("T-set in M_8: build and project an estimate", t8_projection)
    timed("cb norm of the transpose on M_2", transpose_cb)
    timed("cb norm of a non-CP map on M_3", noncp3_cb)
    timed("cb norm of the identity (CP path)", identity_cb)


if __name__ == "__main__":
    main()
