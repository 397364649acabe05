"""Finite semi-De Morgan and De Morgan algebras: the semantic oracle.

An algebra is a bounded distributive lattice with a negation table.  The
module checks variety membership by exhaustive table inspection, evaluates
terms homomorphically, decides sequent validity over all assignments,
enumerates all algebras of a variety up to isomorphism at small sizes, and
searches them for counter-witnesses to a sequent.

Enumeration works on carriers {0, ..., n-1} with 0 as bottom and n-1 as
top.  The lattices come from Birkhoff's representation: every finite
distributive lattice is the lattice of down-sets of a finite poset, so
growing posets yields each lattice once, with no lattice laws to check.
Each negation table on a lattice is tried once, and kept if it passes the
negation identities and is the least of its orbit under the lattice's
automorphisms.  Sizes are capped at 7; that is desk scale and refutes every
non-theorem in the test corpora, although no claim is made that small
algebras refute every SDM non-theorem, so proof search remains the decision
authority.

There is one assignment loop, in ``_counterexample``: ``valid`` and
``refute`` both walk it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .terms import (
    BOT, DM, SDM,
    And, Imp, Neg, Or, Sequent, Term, Var,
    t_flatten, variables,
)
from .syntax import _field

ALGEBRA_SCHEMA = "morgan-kit/algebra/v1"


class FiniteAlgebra(namedtuple("FiniteAlgebra", "size join meet neg zero one")):
    """Carrier {0..size-1} with join/meet/neg tables; zero and one element ids.

    A named tuple whose constructor, which ``_make`` and ``_replace`` go
    through, checks the tables: join and meet are size x size tuples, and
    every entry and both ids lie in the carrier.  ``one`` defaults to size - 1.
    """

    __slots__ = ()

    def __new__(cls, size: int, join: tuple, meet: tuple, neg: tuple,
                zero: int = 0, one: int = -1):
        if one == -1:
            one = size - 1
        for table in (join, meet):
            if len(table) != size or any(len(row) != size for row in table):
                raise ValueError("binary tables must be size x size")
            if any(not (0 <= v < size) for row in table for v in row):
                raise ValueError("table entry outside the carrier")
        if len(neg) != size or any(not (0 <= v < size) for v in neg):
            raise ValueError("negation table outside the carrier")
        if not (0 <= zero < size and 0 <= one < size):
            raise ValueError("zero or one outside the carrier")
        return tuple.__new__(cls, (size, join, meet, neg, zero, one))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def order_pairs(self):
        return [(a, b) for a in range(self.size) for b in range(self.size)
                if self.leq(a, b)]

    def to_obj(self) -> dict:
        return {
            "schema": ALGEBRA_SCHEMA,
            "size": self.size,
            "zero": self.zero,
            "one": self.one,
            "order": self.order_pairs(),
            "neg": list(self.neg),
        }

    @staticmethod
    def from_obj(obj: dict) -> "FiniteAlgebra":
        schema = _field(obj, "schema", object, default=ALGEBRA_SCHEMA)
        if schema != ALGEBRA_SCHEMA:
            raise ValueError(f"unsupported algebra schema {schema!r}")
        n = _field(obj, "size", int)
        neg = _field(obj, "neg", list)  # checked before leq is allocated
        if len(neg) != n or any(type(v) is not int for v in neg):
            raise ValueError("negation table outside the carrier")
        leq = [[False] * n for _ in range(n)]
        for pair in _field(obj, "order", list):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(v) is int and 0 <= v < n for v in pair)):
                raise ValueError("order pair outside the carrier")
            leq[pair[0]][pair[1]] = True
        join, meet = _tables_from_leq(n, leq)
        if join is None:
            raise ValueError("order is not a lattice")
        return FiniteAlgebra(n, join, meet, tuple(neg), _field(obj, "zero", int, default=0),
                             _field(obj, "one", int, default=n - 1))


def _tables_from_leq(n, leq):
    """Join/meet tables from an order matrix, or (None, None) if not a lattice."""
    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ups = [c for c in range(n) if leq[a][c] and leq[b][c]]
            lows = [c for c in range(n) if leq[c][a] and leq[c][b]]
            lub = [c for c in ups if all(leq[c][d] for d in ups)]
            glb = [c for c in lows if all(leq[d][c] for d in lows)]
            if len(lub) != 1 or len(glb) != 1:
                return None, None
            join[a][b] = lub[0]
            meet[a][b] = glb[0]
    return tuple(tuple(r) for r in join), tuple(tuple(r) for r in meet)


def _lattice_laws(j, m, zero, one) -> bool:
    """The bounded distributive lattice laws on join/meet tables."""
    rng = range(len(j))
    for a in rng:
        if j[a][a] != a or m[a][a] != a:
            return False
        if j[a][zero] != a or m[a][one] != a:
            return False
        if j[a][one] != one or m[a][zero] != zero:
            return False
        for b in rng:
            if j[a][b] != j[b][a] or m[a][b] != m[b][a]:
                return False
            if j[a][m[a][b]] != a or m[a][j[a][b]] != a:
                return False
            for c in rng:
                if j[a][j[b][c]] != j[j[a][b]][c]:
                    return False
                if m[a][m[b][c]] != m[m[a][b]][c]:
                    return False
                if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
                    return False
                if j[a][m[b][c]] != m[j[a][b]][j[a][c]]:
                    return False
    return True


def _negation_laws(j, m, g, zero, one, variety) -> bool:
    """The SDM identities for negation g on a lattice, plus the DM extras."""
    rng = range(len(j))
    if g[zero] != one or g[one] != zero:
        return False
    for a in rng:
        if g[g[g[a]]] != g[a]:
            return False
        for b in rng:
            if g[j[a][b]] != m[g[a]][g[b]]:
                return False
            if g[g[m[a][b]]] != m[g[g[a]]][g[g[b]]]:
                return False
    if variety == DM:
        for a in rng:
            if g[g[a]] != a:
                return False
            for b in rng:
                if g[m[a][b]] != j[g[a]][g[b]]:
                    return False
                # redundant cross-check: a | b = ~(~a & ~b)
                if j[a][b] != g[m[g[a]][g[b]]]:
                    return False
    return True


def check_variety(alg: FiniteAlgebra, variety: str) -> bool:
    """Exhaustively check the bounded-distributive-lattice and variety identities."""
    if variety not in (SDM, DM):
        raise ValueError(f"unknown variety {variety!r}")
    j, m, zero, one = alg.join, alg.meet, alg.zero, alg.one
    return (_lattice_laws(j, m, zero, one)
            and _negation_laws(j, m, alg.neg, zero, one, variety))


def dm4() -> FiniteAlgebra:
    """The four-element De Morgan algebra: a diamond whose atoms are negation
    fixpoints.  Generates the DM variety, so it decides DM-sequent validity."""
    # elements: 0 < a=1, b=2 < 3; a, b incomparable
    join = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    meet = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    return FiniteAlgebra(4, join, meet, (3, 1, 2, 0))


class UnassignedVariableError(KeyError):
    pass


def evaluate(phi: Term, assignment: dict, alg: FiniteAlgebra) -> int:
    """Homomorphic evaluation; assignment maps variable names to element ids."""
    ty = type(phi)
    if ty is Var:
        try:
            return assignment[phi.name]
        except KeyError:
            raise UnassignedVariableError(phi.name) from None
    if ty is Neg:
        return alg.neg[evaluate(phi.arg, assignment, alg)]
    if ty is And:
        return alg.meet[evaluate(phi.left, assignment, alg)][
            evaluate(phi.right, assignment, alg)]
    if ty is Or:
        return alg.join[evaluate(phi.left, assignment, alg)][
            evaluate(phi.right, assignment, alg)]
    if ty is Imp:
        raise ValueError("algebra evaluation is defined on the algebraic language")
    if phi is BOT:
        return alg.zero
    raise TypeError(f"expected a term, not {phi!r}")


def _flatten_for(s: Sequent):
    if s.calculus not in (SDM, DM):
        raise ValueError("validity is defined for SDM and DM sequents")
    return t_flatten(s.antecedent), t_flatten(s.succedent)


def _counterexample(lhs: Term, rhs: Term, names, alg: FiniteAlgebra):
    """The first assignment under which lhs <= rhs fails in alg, or None;
    assignments are tried in itertools.product order."""
    for values in itertools.product(range(alg.size), repeat=len(names)):
        assignment = dict(zip(names, values))
        a = evaluate(lhs, assignment, alg)
        b = evaluate(rhs, assignment, alg)
        if alg.meet[a][b] != a:
            return assignment
    return None


def _names(s: Sequent) -> list:
    return sorted({name for _, name in variables(s)})


def valid(s: Sequent, alg: FiniteAlgebra) -> bool:
    """True iff the flattened inequality holds under every assignment."""
    lhs, rhs = _flatten_for(s)
    return _counterexample(lhs, rhs, _names(s), alg) is None


def _distributive_lattices(max_size: int):
    """Each distributive lattice of 2..max_size elements once, with its automorphisms.

    Yields (join, meet, automorphisms) on {0..n-1}, 0 bottom and n-1 top, by
    size and then by the least tuple of order bits (a <= b for middle a != b,
    row by row) over relabellings of the middle elements, in the labelling
    that gives it: the first one a search over all middle orders would meet.
    By Birkhoff, such a lattice is the down-set lattice of a finite poset.
    Posets grow one maximal point at a time, keeping only their down-sets as
    bitmasks: a point placed above down-set d adds e | point for each
    down-set e containing d.
    """
    # from the one-point poset, whose down-sets are {} and {point 0}
    families, level, point = set(), {frozenset((0, 1))}, 2
    while level:
        families |= level
        level = {grown for downs in level for d in downs
                 if len(grown := downs | {e | point for e in downs if e & d == d})
                 <= max_size}
        point <<= 1
    lattices = {}
    for downs in families:
        bottom, top = min(downs), max(downs)
        best, labellings = None, []
        for perm in itertools.permutations(sorted(downs - {bottom, top})):
            bits = tuple(a & b == a for a in perm for b in perm if a != b)
            if best is None or bits < best:
                best, labellings = bits, []
            if bits == best:
                labellings.append((bottom, *perm, top))
        lattices.setdefault((len(downs), best), labellings)
    for _, labellings in sorted(lattices.items()):
        first = labellings[0]
        index = {a: i for i, a in enumerate(first)}
        yield (tuple(tuple(index[a | b] for b in first) for a in first),
               tuple(tuple(index[a & b] for b in first) for a in first),
               [tuple(index[a] for a in lab) for lab in labellings])


_ENUM_CACHE: dict = {}


def enumerate_algebras(variety: str, max_size: int) -> list:
    """All algebras of the variety with 2..max_size elements, up to isomorphism.

    A negation table is kept if no automorphism of its lattice conjugates it
    to a lexicographically smaller one.
    """
    if variety not in (SDM, DM):
        raise ValueError(f"unknown variety {variety!r}")
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if max_size > 7:
        raise ValueError("enumeration is capped at size 7")
    key = (variety, max_size)
    hit = _ENUM_CACHE.get(key)
    if hit is not None:
        return hit
    out = []
    for join, meet, autos in _distributive_lattices(max_size):
        n = len(join)
        conjugators = [(s, sorted(range(n), key=s.__getitem__)) for s in autos]
        for middle in itertools.product(range(n), repeat=n - 2):
            neg = (n - 1,) + middle + (0,)
            if (_negation_laws(join, meet, neg, 0, n - 1, variety)
                    and all(tuple(s[neg[a]] for a in inverse) >= neg
                            for s, inverse in conjugators)):
                out.append(FiniteAlgebra(n, join, meet, neg))
    _ENUM_CACHE[key] = out
    return out


def refute(s: Sequent, variety: str, max_size: int) -> tuple | None:
    """First (algebra, assignment) invalidating s among enumerated algebras."""
    lhs, rhs = _flatten_for(s)
    names = _names(s)
    for alg in enumerate_algebras(variety, max_size):
        assignment = _counterexample(lhs, rhs, names, alg)
        if assignment is not None:
            return alg, assignment
    return None
