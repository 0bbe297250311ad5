"""Finite semigroups as Cayley tables.

Elements are integers 0..n-1 and ``table[s, t]`` is the product s*t.  For
transformation monoids the product is function composition with the right
factor applied first: (f*g)(x) = f(g(x)), which makes the constant maps a
left ideal.

The idempotent order is e <= f iff ef = fe = e; similarity is e ~ f iff
e = fe and f = ef.  Minimal left ideals J are exactly those with J*x = J for
every x in J, and every idempotent they contain is minimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import json_dim


class AssociativityError(ValueError):
    """Raised when a table fails (s*t)*u == s*(t*u); carries the first bad triple."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        s, t, u = triple
        super().__init__(f"not associative at (s, t, u) = ({s}, {t}, {u})")


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite semigroup."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"CayleyTable: expected square table, got shape {t.shape}")
        n = t.shape[0]
        if n == 0:
            raise ValueError("CayleyTable: empty semigroup")
        if t.min() < 0 or t.max() >= n:
            raise ValueError("CayleyTable: entries must index elements 0..n-1")
        object.__setattr__(self, "table", t)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def validate(self) -> None:
        """Check associativity; raises AssociativityError with the first violation.

        Chunked numpy scan: for each s compare table[table[s,:],:] against
        table[s, table], i.e. (s*t)*u against s*(t*u) for all t, u.
        """
        t = self.table
        for s in range(self.order):
            lhs = t[t[s, :], :]
            rhs = t[s, t]
            if not np.array_equal(lhs, rhs):
                bad = np.argwhere(lhs != rhs)
                tt, uu = map(int, bad[0])
                raise AssociativityError((s, tt, uu))

    def idempotents(self) -> list[int]:
        n = self.order
        diag = self.table[np.arange(n), np.arange(n)]
        return [int(e) for e in np.nonzero(diag == np.arange(n))[0]]

    def to_json(self) -> dict:
        return {"order": self.order, "table": self.table.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "CayleyTable":
        try:
            order, rows = json_dim(obj["order"], "cayley json: order"), obj["table"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"cayley json: missing field ({exc})") from exc
        if not (isinstance(rows, list) and len(rows) == order
                and all(isinstance(row, list) and len(row) == order for row in rows)):
            raise ValueError(f"cayley json: table must be {order} rows of {order} entries")
        for row in rows:
            for v in row:
                # as in json_dim: a bool, float or string is refused, not cast
                if type(v) is not int or not 0 <= v < order:
                    raise ValueError(f"cayley json: entries must be integers in 0..{order - 1}, got {v!r}")
        out = cls(np.array(rows, dtype=np.int64))
        out.validate()
        return out


def idempotent_power(sg: CayleyTable, s: int) -> int:
    """The unique idempotent in the cycle of powers of s.

    The power sequence s, s^2, ... of a finite semigroup element is eventually
    periodic and its cycle is a finite cyclic group, which contains exactly one
    idempotent.
    """
    t = sg.table
    seen: dict[int, int] = {}
    p = s
    while p not in seen:
        seen[p] = len(seen)
        p = int(t[p, s])
    cycle_start = seen[p]
    cycle = [q for q, k in seen.items() if k >= cycle_start]
    for q in cycle:
        if int(t[q, q]) == q:
            return q
    raise AssertionError("power cycle without idempotent; table is not associative")


@dataclass(frozen=True)
class IdempotentPoset:
    """Idempotents with the relations e <= f (ef = fe = e) and e ~ f (e = fe, f = ef)."""

    idempotents: tuple[int, ...]
    below: np.ndarray
    similar: np.ndarray

    def minimal(self) -> list[int]:
        """Idempotents with no strictly smaller idempotent."""
        out = []
        k = len(self.idempotents)
        for i in range(k):
            if all(not self.below[j, i] or self.below[i, j] for j in range(k)):
                out.append(self.idempotents[i])
        return out

    def similarity_classes(self) -> list[tuple[int, ...]]:
        k = len(self.idempotents)
        unassigned = set(range(k))
        classes = []
        while unassigned:
            i = min(unassigned)
            cls = [j for j in sorted(unassigned) if self.similar[i, j]]
            classes.append(tuple(self.idempotents[j] for j in cls))
            unassigned -= set(cls)
        return classes


def idempotent_poset(sg: CayleyTable) -> IdempotentPoset:
    idem = sg.idempotents()
    if not idem:
        raise ValueError("semigroup has no idempotent; table is not associative")
    k = len(idem)
    t = sg.table
    below = np.zeros((k, k), dtype=bool)
    similar = np.zeros((k, k), dtype=bool)
    for i, e in enumerate(idem):
        for j, f in enumerate(idem):
            below[i, j] = t[e, f] == e and t[f, e] == e
            similar[i, j] = t[f, e] == e and t[e, f] == f
    return IdempotentPoset(tuple(idem), below, similar)


def left_ideal(sg: CayleyTable, x: int) -> frozenset[int]:
    """The left ideal S*x = {s*x : s in S}."""
    return frozenset(int(v) for v in sg.table[:, x])


def minimal_idempotent_below(sg: CayleyTable, e: int) -> int:
    """A minimal idempotent f with f <= e.

    Constructive descent: start from the left ideal J = S*e, replace J by J*x
    for the x in J giving the smallest ideal (ties to the lowest index) until
    J*x = J for all x in J, i.e. J is a minimal left ideal.  Any idempotent
    power f0 of an element of J lies in J, satisfies f0*e = f0, and e*f0 is a
    minimal idempotent below e.
    """
    t = sg.table
    if int(t[e, e]) != e:
        raise ValueError(f"minimal_idempotent_below: {e} is not idempotent")
    J = left_ideal(sg, e)
    while True:
        elems = np.array(sorted(J))
        best: frozenset[int] | None = None
        stable = True
        for x in elems:
            Jx = frozenset(int(v) for v in t[elems, x])
            if Jx != J:
                stable = False
                if best is None or len(Jx) < len(best):
                    best = Jx
        if stable:
            break
        assert best is not None
        J = best
    x0 = min(J)
    f0 = idempotent_power(sg, x0)
    assert f0 in J
    f = int(t[e, f0])
    assert int(t[f, f]) == f
    return f


@dataclass(frozen=True)
class SimilarityReport:
    passed: bool
    pairs_checked: int
    counterexample: tuple[int, int] | None


def check_remark_similarity(sg: CayleyTable) -> SimilarityReport:
    """For idempotents with fe = e: check ef is an idempotent below f, and
    that minimality of f upgrades the relation to e ~ f."""
    t = sg.table
    poset = idempotent_poset(sg)
    idem = poset.idempotents
    minimal = set(poset.minimal())
    pairs = 0
    for e in idem:
        for f in idem:
            if int(t[f, e]) != e:
                continue
            pairs += 1
            ef = int(t[e, f])
            ok = (
                int(t[ef, ef]) == ef
                and int(t[ef, f]) == ef
                and int(t[f, ef]) == ef
            )
            if ok and f in minimal:
                ok = int(t[f, e]) == e and int(t[e, f]) == f  # e ~ f
            if not ok:
                return SimilarityReport(False, pairs, (e, f))
    return SimilarityReport(True, pairs, None)


def minimal_left_ideals(sg: CayleyTable) -> list[tuple[int, ...]]:
    """All minimal left ideals, as sorted element tuples.

    S*x is minimal iff S*y = S*x for every y in S*x, and every minimal left
    ideal arises this way.
    """
    ideals = {}
    for x in range(sg.order):
        J = left_ideal(sg, x)
        ideals[tuple(sorted(J))] = J
    out = []
    for key, J in ideals.items():
        if all(left_ideal(sg, y) == J for y in J):
            out.append(key)
    return sorted(set(out))


def enumerate_semigroups(order: int) -> list[CayleyTable]:
    """All associative tables on {0..order-1}; supported for order <= 3."""
    if not 1 <= order <= 3:
        raise ValueError(f"enumerate_semigroups: order {order} unsupported (max 3)")
    n = order
    triples = list(itertools.product(range(n), repeat=3))
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        t = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(t[t[s][u]][v] == t[s][t[u][v]] for s, u, v in triples):
            out.append(CayleyTable(np.array(t, dtype=np.int64)))
    return out


def transformation_monoid(n: int) -> tuple[CayleyTable, list[tuple[int, ...]]]:
    """The full transformation monoid T_n with (f*g)(x) = f(g(x)).

    Returns the table together with the element list: maps as tuples
    (f(0), ..., f(n-1)) in lexicographic order.
    """
    maps = list(itertools.product(range(n), repeat=n))
    arr = np.array(maps, dtype=np.int64)
    comp = arr[:, arr]  # comp[f, g, x] = f(g(x))
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = comp @ weights
    return CayleyTable(table), maps


def left_zero(n: int) -> CayleyTable:
    """Left-zero semigroup: x*y = x."""
    return CayleyTable(np.tile(np.arange(n, dtype=np.int64)[:, None], (1, n)))


def cyclic_group(n: int) -> CayleyTable:
    i = np.arange(n, dtype=np.int64)
    return CayleyTable((i[:, None] + i[None, :]) % n)


@dataclass(frozen=True)
class SubSemigroup:
    """A subsemigroup reindexed to its own Cayley table.

    ``elements[i]`` is the parent index of local element i.
    """

    table: CayleyTable
    elements: tuple[int, ...]


def random_subsemigroup(sg: CayleyTable, seed: int) -> SubSemigroup:
    """Closure of one to three random generators, reindexed to a standalone table."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    gens = rng.choice(sg.order, size=k, replace=False)
    closed = set(int(g) for g in gens)
    frontier = set(closed)
    t = sg.table
    while frontier:
        elems = np.array(sorted(closed))
        new = set(int(v) for v in t[np.ix_(elems, elems)].ravel()) - closed
        closed |= new
        frontier = new
    elems = np.array(sorted(closed))
    index = {int(p): i for i, p in enumerate(elems)}
    sub = np.array([[index[int(t[a, b])] for b in elems] for a in elems], dtype=np.int64)
    out = CayleyTable(sub)
    out.validate()
    return SubSemigroup(out, tuple(int(p) for p in elems))
