"""Property tests of the envelope pipeline on random small operator systems.

Two families with closed-form envelopes:

- span{I, x} with x a random Hermitian matrix in M_n, n = 2-5. Its
  eigenvalues are distinct almost surely, and the Choquet boundary of
  span{1, t} on n points is the two extreme points, so the envelope is
  C^2: rank 2 for every n.
- span{I, x, y} with random Hermitian x, y in M_n, n = 2-4, which is rigid
  (Arveson 1972): the feasible set is the identity alone and the envelope
  is all of M_n, rank n^2.

The sampled cross-check is the only place a sampled probe survives: no
sampled member may violate e . theta . e = e by more than the certified
bound plus the solver tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ellis_envelope.envelope import compute_envelope
from ellis_envelope.linalg import frobenius
from ellis_envelope.spectrahedron import OperatorSubspace, build_system_set, sample

from conftest import random_hermitian

SOLVER_TOL = 1e-8
CERT_TOL = 1e-6

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def check_certified(space, expected_rank, draw_seed):
    fset = build_system_set(space)
    results = [compute_envelope(space, seed=s) for s in (0, 1)]
    for res in results:
        assert res.certificate == "certified"
        assert res.rigidity_violation <= CERT_TOL
        e = res.idempotent
        assert fset.membership(e, tol=CERT_TOL).ok
        assert frobenius(e.superop @ e.superop - e.superop) <= 1e-7
        assert res.inclusion_residual <= CERT_TOL  # E inside the range of e
        assert res.rank == expected_rank
        se = e.superop
        for k in range(3):
            theta = sample(fset, seed=draw_seed + k)
            v = frobenius(se @ theta.superop @ se - se)
            assert v <= res.rigidity_violation + SOLVER_TOL
    assert results[0].rank == results[1].rank


@given(st.sampled_from([2, 3, 4, 5]), seeds)
@settings(max_examples=10, deadline=None)
def test_span_of_identity_and_hermitian_has_rank_two_envelope(n, seed):
    rng = np.random.default_rng(seed)
    space = OperatorSubspace.from_matrices([np.eye(n), random_hermitian(rng, n)])
    check_certified(space, 2, seed % 1000)


def check_rigid(n, seed):
    rng = np.random.default_rng(seed)
    space = OperatorSubspace.from_matrices(
        [np.eye(n), random_hermitian(rng, n), random_hermitian(rng, n)]
    )
    assert build_system_set(space).face_dim == 1
    check_certified(space, n * n, seed % 1000)


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_random_rigid_system_in_m2_has_full_envelope(seed):
    check_rigid(2, seed)


@given(st.sampled_from([3, 4]), seeds)
@settings(max_examples=6, deadline=None)
def test_random_rigid_system_in_m3_m4_has_full_envelope(n, seed):
    check_rigid(n, seed)
