import itertools

import numpy as np
import pytest

from ellis_envelope.semigroups import (
    AssociativityError,
    CayleyTable,
    check_remark_similarity,
    cyclic_group,
    enumerate_semigroups,
    idempotent_poset,
    idempotent_power,
    left_ideal,
    left_zero,
    minimal_idempotent_below,
    minimal_left_ideals,
    random_subsemigroup,
    transformation_monoid,
)


def brute_force_tables(n):
    """Independent enumeration oracle: plain triple-loop filter."""
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        t = [flat[i * n : (i + 1) * n] for i in range(n)]
        ok = True
        for s in range(n):
            for u in range(n):
                for v in range(n):
                    if t[t[s][u]][v] != t[s][t[u][v]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(t)
    return out


def test_validate_accepts_group():
    cyclic_group(3).validate()


def test_validate_accepts_t3():
    t3, _ = transformation_monoid(3)
    t3.validate()


def test_validate_reports_true_violation():
    # find some non-associative 2x2 table with the oracle, then check the error
    bad = None
    for flat in itertools.product(range(2), repeat=4):
        t = [[flat[0], flat[1]], [flat[2], flat[3]]]
        for s, u, v in itertools.product(range(2), repeat=3):
            if t[t[s][u]][v] != t[s][t[u][v]]:
                bad = t
                break
        if bad:
            break
    assert bad is not None
    with pytest.raises(AssociativityError) as err:
        CayleyTable(np.array(bad)).validate()
    s, u, v = err.value.triple
    assert bad[bad[s][u]][v] != bad[s][bad[u][v]]


def test_idempotent_power_cyclic_group():
    g = cyclic_group(3)
    assert idempotent_power(g, 1) == 0  # generator powers cycle through the group
    assert idempotent_power(g, 0) == 0


def test_idempotent_power_t3():
    t3, maps = transformation_monoid(3)
    const0 = maps.index((0, 0, 0))
    ident = maps.index((0, 1, 2))
    assert idempotent_power(t3, const0) == const0
    assert idempotent_power(t3, ident) == ident
    # a 3-cycle has idempotent power = identity
    cyc = maps.index((1, 2, 0))
    assert idempotent_power(t3, cyc) == ident


def test_idempotent_count_t3():
    # sum_k C(3,k) k^(3-k) = 3 + 6 + 1 = 10 retractions
    t3, _ = transformation_monoid(3)
    assert len(t3.idempotents()) == 10


def test_poset_group_single_idempotent():
    poset = idempotent_poset(cyclic_group(4))
    assert poset.idempotents == (0,)
    assert poset.minimal() == [0]


def test_poset_left_zero():
    # xy = x: every element idempotent, fe = f so both <= and ~ collapse to equality
    poset = idempotent_poset(left_zero(3))
    assert poset.idempotents == (0, 1, 2)
    assert np.array_equal(poset.below, np.eye(3, dtype=bool))
    assert np.array_equal(poset.similar, np.eye(3, dtype=bool))
    assert poset.minimal() == [0, 1, 2]
    assert poset.similarity_classes() == [(0,), (1,), (2,)]


def test_minimal_idempotent_below_t3_identity_is_constant():
    t3, maps = transformation_monoid(3)
    ident = maps.index((0, 1, 2))
    f = minimal_idempotent_below(t3, ident)
    assert len(set(maps[f])) == 1  # constant map
    poset = idempotent_poset(t3)
    assert f in poset.minimal()


def test_minimal_idempotent_below_left_zero():
    lz = left_zero(4)
    for e in range(4):
        assert minimal_idempotent_below(lz, e) == e


def test_minimal_idempotent_below_rejects_non_idempotent():
    g = cyclic_group(3)
    with pytest.raises(ValueError, match="not idempotent"):
        minimal_idempotent_below(g, 1)


def test_minimal_left_ideals_group():
    assert minimal_left_ideals(cyclic_group(3)) == [(0, 1, 2)]


def test_minimal_left_ideals_left_zero_is_whole():
    # S*x = S for every x, so the unique minimal left ideal is S itself
    assert minimal_left_ideals(left_zero(3)) == [(0, 1, 2)]


def test_minimal_left_ideal_t3_constants():
    t3, maps = transformation_monoid(3)
    constants = tuple(sorted(maps.index((v, v, v)) for v in range(3)))
    assert minimal_left_ideals(t3) == [constants]


def test_remark_similarity_t3():
    t3, _ = transformation_monoid(3)
    rep = check_remark_similarity(t3)
    assert rep.passed
    assert rep.pairs_checked > 0


def test_enumerate_counts_match_oracle():
    for n in (1, 2, 3):
        ours = enumerate_semigroups(n)
        oracle = brute_force_tables(n)
        assert len(ours) == len(oracle)
        assert [t.table.tolist() for t in ours] == [[list(r) for r in t] for t in oracle]


def test_enumerate_rejects_large_order():
    with pytest.raises(ValueError, match="unsupported"):
        enumerate_semigroups(4)


def test_poset_axioms_all_small_semigroups():
    for sg in enumerate_semigroups(3):
        poset = idempotent_poset(sg)
        k = len(poset.idempotents)
        b = poset.below
        assert all(b[i, i] for i in range(k))  # reflexive
        for i in range(k):
            for j in range(k):
                if b[i, j] and b[j, i]:
                    assert i == j  # antisymmetric
                for l in range(k):
                    if b[i, j] and b[j, l]:
                        assert b[i, l]  # transitive
        s = poset.similar
        assert all(s[i, i] for i in range(k))
        assert np.array_equal(s, s.T)
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if s[i, j] and s[j, l]:
                        assert s[i, l]


def test_idempotent_power_stable_within_cycle():
    # the idempotent reached is independent of which cycle element you start from
    for sg in enumerate_semigroups(3):
        t = sg.table
        for s in range(sg.order):
            e = idempotent_power(sg, s)
            assert int(t[e, e]) == e
            # walk into the cycle of s and re-run from each of its elements
            seen = []
            p = s
            while p not in seen:
                seen.append(p)
                p = int(t[p, s])
            cycle = seen[seen.index(p):]
            for q in cycle:
                assert idempotent_power(sg, q) == e


def test_minimal_below_agrees_with_exhaustive_scan():
    for sg in enumerate_semigroups(3):
        poset = idempotent_poset(sg)
        minimal = set(poset.minimal())
        t = sg.table
        for e in sg.idempotents():
            f = minimal_idempotent_below(sg, e)
            assert f in minimal
            assert int(t[e, f]) == f and int(t[f, e]) == f  # f <= e


def test_gh_equals_g_for_idempotents_in_minimal_ideals():
    tables = enumerate_semigroups(3) + [left_zero(3), transformation_monoid(3)[0]]
    for sg in tables:
        t = sg.table
        idem = set(sg.idempotents())
        for J in minimal_left_ideals(sg):
            for g in J:
                if g not in idem:
                    continue
                for h in J:
                    if h in idem:
                        assert int(t[g, h]) == g


def test_every_semigroup_has_idempotent():
    for sg in enumerate_semigroups(3):
        assert len(sg.idempotents()) >= 1


def test_left_ideal_is_column():
    t3, maps = transformation_monoid(3)
    x = maps.index((0, 0, 1))
    J = left_ideal(t3, x)
    assert all(maps.index(tuple(f[v] for v in (0, 0, 1))) in J for f in maps)


def test_random_subsemigroup_closed_and_faithful():
    t4, _ = transformation_monoid(4)
    for seed in range(5):
        sub = random_subsemigroup(t4, seed)
        elems = sub.elements
        k = len(elems)
        for a in range(k):
            for b in range(k):
                parent = int(t4.table[elems[a], elems[b]])
                assert parent in elems
                assert elems[sub.table.table[a, b]] == parent
