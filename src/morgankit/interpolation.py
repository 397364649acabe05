"""Maehara-style interpolant extraction from G3SDM and G3DM derivations.

A partition splits the antecedent multiset of a derivable goal into a left
part and a right part (the succedent always belongs to the right).  The
extractor reads a partition as the multiset of its left occurrences; among
equal members the left copies come first.  It walks the derivation.  Axioms
pick an atom, F, T or *F depending on which side the principal occurrence
fell; the star rule interpolates its premiss and re-stars the result.  Every
other rule is read by two facts of its recorded instance alone: where its
principal sits (``principal`` -1 for the succedent, else an antecedent
position) and how many premisses it has.  A premiss of a rule whose
principal lies on the left puts the members the rule inserted on the left;
with one premiss the child interpolant passes through; with two the child
interpolants are joined by | when the principal lies on the left and by &
otherwise.  SDM interpolants are basic structures, DM interpolants terms;
when children are joined, starred child interpolants are first flattened to
their negation reading.

The star family (``*0``, ``*1``, ``*n``) has the G3DM premiss
phi => psi_1 | ... | psi_k, whose disjuncts are split between the sides.
The extractor finds a DM term K with K <= the left disjuncts and
phi <= K | the right disjuncts, and stars it: it follows the premiss
derivation down the disjunction, joining branch results with |, takes F
where only right disjuncts remain and the DM interpolant of the branch
where only left ones remain.

The extracted candidate always satisfies the three interpolant conditions:
both obligation sequents are derivable and its variables lie in the shared
vocabulary.  Interpolants are not simplified afterwards.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .calculi import STAR_FAMILY, star_family_used
from .search import (
    Derivation, SearchEngine, check_derivation_report, default_engine,
    normalize_calculus,
)
from .terms import (
    BOT, DM, SDM, TOP_ALG,
    And, Neg, Or, Sequent,
    fold, plain, sequent, starred, t_flatten, variables,
)


class PartitionMismatchError(ValueError):
    """The partition does not split the goal's antecedent."""


class Partition(namedtuple("Partition", "left right")):
    """left and right antecedent parts; the succedent rides on the right."""

    __slots__ = ()

    @staticmethod
    def of(left, right) -> "Partition":
        return Partition(tuple(left), tuple(right))


# The interpolant is a Struct for SDM and a Term for DM.
InterpolationResult = namedtuple(
    "InterpolationResult", "interpolant left_derivation right_derivation")


def _sides_for(goal: Sequent, part: Partition) -> Counter:
    """The left part as a multiset, once the parts make up the antecedent."""
    try:
        if Sequent(goal.calculus, part.left + part.right, goal.succedent) == goal:
            return Counter(part.left)
    except AttributeError:   # a member that is neither a term nor a structure
        pass
    raise PartitionMismatchError("partition members do not make up the antecedent")


def _on_left(ant: tuple, i: int, left: Counter) -> bool:
    """Whether position i of a canonical antecedent lies on the left: among
    equal members, which sit side by side, the left copies come first."""
    m = ant[i]
    return i - ant.index(m) < left[m]


def _child_left(node: Derivation, left: Counter, child: Derivation) -> Counter:
    """The left multiset of a premiss of a rule whose principal lies on the
    left: the members the rule inserted in place of its principal join it."""
    # left - principal + (child - (ant - principal)) = left + child - ant
    out = Counter(left)
    out.update(child.sequent.antecedent)
    out.subtract(node.sequent.antecedent)
    return out


def _extract(node: Derivation, left: Counter, sdm: bool):
    rule = node.rule
    ant = node.sequent.antecedent

    if rule in ("Id", "Id1", "Id2"):
        succ = node.sequent.succedent
        if left[succ]:
            return succ
        return starred(BOT) if sdm else TOP_ALG

    if rule == "Bot=>":
        bot = plain(BOT) if sdm else BOT
        if left[bot]:
            return bot
        return plain(TOP_ALG) if sdm else TOP_ALG

    if rule == "*~Bot=>":
        return plain(BOT) if left[starred(Neg(BOT))] else plain(TOP_ALG)

    if rule == "=>*Bot":
        return starred(BOT)

    if rule == "=>~Bot":
        return TOP_ALG

    if rule == "*":
        # premiss phi => psi, conclusion *psi, Gamma => *phi
        if not _on_left(ant, node.principal, left):
            return starred(BOT)
        child = node.children[0]
        inner = _extract(child, Counter(child.sequent.antecedent), sdm)
        return starred(t_flatten(inner))

    if rule in STAR_FAMILY:
        # premiss phi => psi_1 | ... | psi_k, conclusion *psi_1, ..., Gamma => *phi
        used = star_family_used(rule, node.principal)
        sides = ["L" if _on_left(ant, i, left) else "R" for i in used]
        return starred(_split(node.children[0], fold(_merge, sides, "R")))

    # every other rule is logical, with its principal in the succedent (-1)
    # or at an antecedent position
    on_left = node.principal != -1 and _on_left(ant, node.principal, left)
    parts = [_extract(c, _child_left(node, left, c) if on_left else left, sdm)
             for c in node.children]
    if len(parts) == 1:
        return parts[0]
    joined = (Or if on_left else And)(*map(t_flatten, parts))
    return plain(joined) if sdm else joined


def _merge(left, right):
    """Join two disjunction trees; a tree is a side ('L' or 'R') or a pair.

    Two disjuncts on one side collapse to that side.
    """
    return left if left == right else (left, right)


def _split(node: Derivation, tree):
    """The DM term K that splits a G3DM derivation's disjunctive succedent.

    The succedent has the shape of the disjunction tree; K lies below its
    'L' disjuncts, and the antecedent lies below K | its 'R' disjuncts.
    """
    if tree == "R":
        return BOT
    if tree == "L":
        return _extract(node, Counter(node.sequent.antecedent), False)
    rule = node.rule
    if rule == "Bot=>":
        return BOT
    if rule == "=>|1":
        return _split(node.children[0], tree[0])
    if rule == "=>|2":
        return _split(node.children[0], tree[1])
    parts = [_split(c, tree) for c in node.children]
    return parts[0] if len(parts) == 1 else Or(*parts)


def _obligations(build, calculus: str, goal: Sequent, part: Partition, candidate):
    """The two sequents an interpolant must make derivable: left => I and
    I, right => succedent, each made by ``build`` (``Sequent``, or
    ``sequent`` to check the members' language)."""
    return (build(calculus, part.left, candidate),
            build(calculus, part.right + (candidate,), goal.succedent))


def interpolate(calculus: str, d: Derivation, part: Partition,
                engine: SearchEngine | None = None) -> InterpolationResult:
    """Extract an interpolant for the partition and derive both obligations."""
    calculus = normalize_calculus(calculus)
    if calculus not in (SDM, DM):
        raise ValueError("interpolation is defined for the SDM and DM calculi")
    ok, diag = check_derivation_report(calculus, d)
    if not ok:
        raise ValueError(f"derivation fails checking: {diag}")
    left = _sides_for(d.sequent, part)
    candidate = _extract(d, left, calculus == SDM)
    eng = engine or default_engine()
    # the replayed derivation and _sides_for fix the members' language
    left_d, right_d = (eng.derive(calculus, g)
                       for g in _obligations(Sequent, calculus, d.sequent, part, candidate))
    if left_d is None or right_d is None:
        raise AssertionError("extracted interpolant failed an obligation")
    return InterpolationResult(candidate, left_d, right_d)


def verify_interpolant(calculus: str, goal: Sequent, part: Partition, candidate,
                       engine: SearchEngine | None = None) -> bool:
    """Check conditions (i)-(iii): both obligations derivable, shared vocabulary."""
    calculus = normalize_calculus(calculus)
    try:   # a partition of another goal, or a candidate outside the language
        _sides_for(goal, part)
        obligations = _obligations(sequent, calculus, goal, part, candidate)
    except (ValueError, TypeError):
        return False
    eng = engine or default_engine()
    if not all(eng.derivable(calculus, g) for g in obligations):
        return False
    shared = variables(part.left) & (variables(part.right) | variables(goal.succedent))
    return variables(candidate) <= shared


def all_partitions(goal: Sequent):
    """Every 2^|antecedent| left/right split of the goal's antecedent."""
    ant = goal.antecedent
    n = len(ant)
    for mask in range(1 << n):
        left = tuple(ant[i] for i in range(n) if mask >> i & 1)
        right = tuple(ant[i] for i in range(n) if not mask >> i & 1)
        yield Partition(left, right)
