"""Independent references for the benchmark's verdict checks.

Nothing here calls morgankit.  Terms are the generator's tuples (see gen.py);
``from_program`` converts a morgankit term or member into that form by
reading its public attributes only, so a program result (an interpolant, a
translated sequent) can be checked by the same evaluator.

References used per calculus:

* DM: derivable iff valid in the four-element De Morgan algebra (it
  generates the variety).
* SDM: derivable implies valid in dm4 and in the two three-element chains
  that are semi-De Morgan but not De Morgan (``*phi`` reads as ``~phi``).
* CL: derivable iff a truth-table tautology.
* INT: derivable implies a truth-table tautology.
"""

from __future__ import annotations

import itertools


class Algebra:
    """Carrier 0..n-1 with meet, join and negation tables."""

    def __init__(self, name, meet, join, neg):
        self.name = name
        self.size = len(neg)
        self.meet, self.join, self.neg = meet, join, neg
        every = range(self.size)
        above = [a for a in every if all(meet[a][b] == b for b in every)]
        below = [a for a in every if all(meet[a][b] == a for b in every)]
        self.top = above[0] if above else None
        self.bottom = below[0] if below else None

    def leq(self, a, b) -> bool:
        return self.meet[a][b] == a


def _chain(neg):
    n = len(neg)
    return (tuple(tuple(min(a, b) for b in range(n)) for a in range(n)),
            tuple(tuple(max(a, b) for b in range(n)) for a in range(n)))


# 0 < a, b < 1 with a, b incomparable; both atoms are negation fixpoints.
DM4 = Algebra(
    "dm4",
    ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
    ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
    (3, 1, 2, 0))
# 0 < m < 1 with ~m = 0 (the three-element Stone algebra) and with ~m = 1.
STONE3 = Algebra("stone3", *_chain((2, 0, 0)), (2, 0, 0))
DUAL3 = Algebra("dual3", *_chain((2, 2, 0)), (2, 2, 0))
SDM_REFERENCES = (DM4, STONE3, DUAL3)
# The two-element Boolean algebra, for the classical truth tables.
BOOL = Algebra("bool", *_chain((1, 0)), (1, 0))


# -- evaluation -------------------------------------------------------------

def variables(x) -> set:
    """Variable names of a term, member, or list of them."""
    out = set()
    stack = [x]
    while stack:
        t = stack.pop()
        if type(t) is list:
            stack.extend(t)
        elif t[0] == "v":
            out.add(t[1])
        elif type(t[0]) is bool:
            stack.append(t[1])
        else:
            stack.extend(t[1:])
    return out


def eval_alg(t, alg: Algebra, env: dict) -> int:
    """The value of a term under one assignment."""
    op = t[0]
    if op == "v":
        return env[t[1]]
    if op == "F":
        return alg.bottom
    if op == "~":
        return alg.neg[eval_alg(t[1], alg, env)]
    a, b = eval_alg(t[1], alg, env), eval_alg(t[2], alg, env)
    if op == "&":
        return alg.meet[a][b]
    if op == "|":
        return alg.join[a][b]
    raise ValueError(f"{op!r} is not an algebraic connective")


def _table(t, alg: Algebra, names: list, cache: dict) -> list:
    """The term's values under every assignment, in itertools.product order."""
    hit = cache.get(t)
    if hit is not None:
        return hit
    op = t[0]
    n, width = alg.size, len(names)
    if op == "v":
        step = n ** (width - 1 - names.index(t[1]))
        out = [i // step % n for i in range(n ** width)]
    elif op == "F":
        out = [alg.bottom] * n ** width
    elif op == "~":
        neg = alg.neg
        out = [neg[a] for a in _table(t[1], alg, names, cache)]
    else:
        left = _table(t[1], alg, names, cache)
        right = _table(t[2], alg, names, cache)
        if op == "->":
            if alg is not BOOL:
                raise ValueError("-> is evaluated in the two-element algebra only")
            out = [max(1 - a, b) for a, b in zip(left, right)]
        else:
            tab = alg.meet if op == "&" else alg.join
            out = [tab[a][b] for a, b in zip(left, right)]
    cache[t] = out
    return out


def _flat(m, sdm: bool):
    if sdm:
        star, t = m
        return ("~", t) if star else t
    return m


def holds_in(seq, alg: Algebra) -> bool:
    """The sequent's antecedent meet lies below its succedent everywhere."""
    calc, ants, succ = seq
    sdm = calc == "sdm"
    lhs = [_flat(m, sdm) for m in ants]
    rhs = _flat(succ, sdm)
    names = sorted(variables(lhs + [rhs]))
    cache = {}
    meet = alg.meet
    low = [alg.top] * alg.size ** len(names)
    for t in lhs:
        low = [meet[a][b] for a, b in zip(low, _table(t, alg, names, cache))]
    return all(meet[a][b] == a for a, b in zip(low, _table(rhs, alg, names, cache)))


def tautology(seq) -> bool:
    """Every valuation making the antecedent true makes the succedent true."""
    return holds_in(seq, BOOL)


def sdm_sound(seq) -> bool:
    return all(holds_in(seq, alg) for alg in SDM_REFERENCES)


def check_verdict(seq, derivable: bool):
    """None when the verdict agrees with the reference, else a reason."""
    calc = seq[0]
    if calc == "dm":
        if derivable != holds_in(seq, DM4):
            return f"g3dm says derivable={derivable}, dm4 disagrees"
    elif calc == "sdm":
        if derivable and not sdm_sound(seq):
            return "g3sdm derives a sequent that fails in a reference SDM algebra"
    elif calc == "cl":
        if derivable != tautology(seq):
            return f"g3ip+gem-at says derivable={derivable}, truth tables disagree"
    elif derivable and not tautology(seq):
        return "g3ip derives a sequent that is not a tautology"
    return None


# -- program objects --------------------------------------------------------

def from_program(x):
    """A morgankit term, starred/plain structure or sequent as tuples.

    Variables keep their namespace in the name (``p'``, ``p''``, ``#k0``) so
    translation output stays distinct from its source variables.
    """
    kind = type(x).__name__
    if kind == "Sequent":
        return (x.calculus, tuple(from_program(m) for m in x.antecedent),
                from_program(x.succedent))
    if kind == "Struct":
        return (bool(x.star), from_program(x.term))
    if kind == "Var":
        suffix = {"base": "", "primed": "'", "doubled": "''"}.get(x.ns)
        return ("v", x.name + suffix if suffix is not None else "#" + x.name)
    if kind == "Neg":
        return ("~", from_program(x.arg))
    if kind in ("And", "Or", "Imp"):
        op = {"And": "&", "Or": "|", "Imp": "->"}[kind]
        return (op, from_program(x.left), from_program(x.right))
    if kind == "_Bottom":
        return ("F",)
    raise TypeError(f"cannot read {kind}")


# -- algebras ---------------------------------------------------------------

#: Semi-De Morgan and De Morgan algebras of each size up to isomorphism.
EXPECTED_COUNTS = {"sdm": {2: 1, 3: 3, 4: 11, 5: 31, 6: 106},
                   "dm": {2: 1, 3: 1, 4: 3, 5: 1, 6: 4}}


def in_variety(alg: Algebra, variety: str) -> bool:
    """Bounded distributive lattice plus the SDM (and DM) negation laws."""
    n, m, j, g = alg.size, alg.meet, alg.join, alg.neg
    bottom, top = alg.bottom, alg.top
    if bottom is None or top is None:
        return False
    for a, b in itertools.product(range(n), repeat=2):
        if m[a][b] != m[b][a] or j[a][b] != j[b][a]:
            return False
        if j[a][m[a][b]] != a or m[a][j[a][b]] != a:
            return False
        if g[j[a][b]] != m[g[a]][g[b]] or g[g[m[a][b]]] != m[g[g[a]]][g[g[b]]]:
            return False
        if variety == "dm" and g[m[a][b]] != j[g[a]][g[b]]:
            return False
    for a, b, c in itertools.product(range(n), repeat=3):
        if m[a][m[b][c]] != m[m[a][b]][c] or j[a][j[b][c]] != j[j[a][b]][c]:
            return False
        if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
            return False
    if g[bottom] != top or g[top] != bottom:
        return False
    for a in range(n):
        if g[g[g[a]]] != g[a] or (variety == "dm" and g[g[a]] != a):
            return False
    return True


def witness_refutes(seq, alg: Algebra, assignment: dict) -> bool:
    """The assignment puts the antecedent meet outside the succedent's down-set."""
    calc, ants, succ = seq
    sdm = calc == "sdm"
    names = variables(list(_flat(m, sdm) for m in ants) + [_flat(succ, sdm)])
    if not names <= set(assignment):
        return False
    low = alg.top
    for m in ants:
        low = alg.meet[low][eval_alg(_flat(m, sdm), alg, assignment)]
    return not alg.leq(low, eval_alg(_flat(succ, sdm), alg, assignment))
