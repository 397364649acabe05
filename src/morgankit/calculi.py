"""Backward rule expansion for G3SDM, G3DM, G3ip, and G3ip + Gem-at.

``expand(goal)`` enumerates every rule instance whose conclusion is the goal,
from the table that the goal's calculus tag picks: zero-premiss axiom
instances plus one instance per applicable (rule, principal occurrence)
pair; an instance does not store its conclusion, the goal.  Left rules are
instantiated per occurrence, not per distinct member; the calculi are
contraction-free, so duplicated antecedent members matter.
``g3ip_premisses(goal, label, principal)`` builds the premisses of one G3ip
instance, named by its label and principal, without enumerating the others.
It and ``iter_g3ip`` read one table of G3ip's rules with premisses, a row
per rule, so each premiss is built in one place.

``principal`` is the index of the principal occurrence in the (canonically
sorted) antecedent, ``-1`` when the succedent is principal, and ``None`` for
axioms and Gem-at.  The one exception is ``*n``, which uses several starred
occurrences at once: its principal is the bitmask of their positions.

Rule label catalog (ASCII; `Bot` is F, `*` the structural star):

* G3SDM: Id, Bot=>, =>*Bot, *~Bot=>, &=>, =>&, |=>, =>|1, =>|2,
  *|=>, =>*|, *~&=>, =>*~&, *~~=>, =>*~~, ~=>, =>~, *, *0, *1, *n
* G3DM: Id1, Id2, Bot=>, =>~Bot, &=>, =>&, |=>, =>|1, =>|2,
  ~&=>, =>~&1, =>~&2, ~|=>, =>~|, ~~=>, =>~~
* G3ip (+Gem-at): Id, BotL, &L, &R, |L, |R1, |R2, ->L, ->R, Gem-at

The star rule ``*`` infers ``*psi, Gamma => *phi`` from the G3SDM sequent
``phi => psi``.  The star family ``*0``, ``*1``, ``*n`` infers
``*psi_1, ..., *psi_k, Gamma => *phi`` from the G3DM sequent
``phi => psi_1 | ... | psi_k`` (``phi => F`` when k = 0), for k = 0, 1 and
k >= 2 chosen starred occurrences.  Both are sound: a |-> ~~a maps every
semi-De Morgan algebra homomorphically onto the De Morgan algebra of its
~~-closed elements, so ~psi_1 & ... & ~psi_k <= ~phi holds in every SDM
algebra iff phi <= psi_1 | ... | psi_k holds in every DM algebra.  The
family is what makes G3SDM derive what SDM algebras validate, and search
closes every starred succedent with it.  ``*`` stays in the table so that
every derivation it appears in still replays, and the height-bounded search
still considers it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .terms import (
    BOT, CL, DM, INT, SDM,
    And, Imp, Neg, Or, Sequent, Var,
    fold, plain, starred, variables,
)


class CalculusMismatchError(ValueError):
    """The goal's calculus tag does not match the requested rule table."""


class RuleInstance(namedtuple("RuleInstance", "label premisses principal")):
    __slots__ = ()

    def __repr__(self):
        return f"<RuleInstance {self.label} principal={self.principal}>"


_STAR_NEG_BOT = starred(Neg(BOT))
_PLAIN_BOT = plain(BOT)
_STAR_BOT = starred(BOT)


def _replace(goal: Sequent, index: int, members) -> Sequent:
    rest = goal.without(index)
    return Sequent(goal.calculus, rest + tuple(members), goal.succedent)


def _canonical(calculus: str, ants: tuple, succ) -> Sequent:
    """A sequent over an antecedent already in canonical order, such as a
    goal's own: it is neither sorted nor copied."""
    return tuple.__new__(Sequent, (calculus, ants, succ))


def _with_succ(goal: Sequent, succ) -> Sequent:
    return _canonical(goal.calculus, goal.antecedent, succ)


# Rule labels search may commit to eagerly: inverting them preserves both
# derivability and refutability, which keeps the explored tree small.  A label
# shared by two calculi is invertible in both, so one set serves all four.
#
# G3SDM and G3DM are sound and complete for their algebras, so a rule is
# invertible when its premisses together say what its conclusion says.  In
# G3SDM each listed rule but the star family rewrites one member into
# equivalent ones: ~(a | b) = ~a & ~b, ~~(a & b) = ~~a & ~~b and ~~~a = ~a
# hold in every SDM algebra, and the star family reads its G3DM premisses up
# to DM equivalence.  The family's first instance uses every starred member;
# the premiss of any other instance, and the SDM premiss phi => psi of ``*``,
# derives only if that instance's premiss does (every DM algebra is an SDM
# algebra, and G3DM is complete).  So search commits to that first instance
# and never tries ``*``.
_INVERTIBLE = frozenset({
    "&=>", "|=>", "~=>", "=>&", "=>~", "=>*|", "=>*~&", "=>*~~", "*|=>", "*~&=>",
    "*~~=>", "*0", "*1", "*n", "~&=>", "~|=>", "~~=>", "=>~|", "=>~~",  # G3SDM, G3DM
    "&L", "&R", "|L", "->R",  # G3ip, G3ip+Gem-at
})

STAR_FAMILY = frozenset({"*0", "*1", "*n"})


def invertible(label: str) -> bool:
    return label in _INVERTIBLE


def iter_g3sdm(goal: Sequent) -> Iterator[RuleInstance]:
    """Yield G3SDM instances: axioms, invertible rules, choices, star rules last."""
    if goal.calculus != SDM:
        raise CalculusMismatchError(f"expected an SDM goal, got {goal.calculus}")
    ants = goal.antecedent
    succ = goal.succedent

    # axioms
    if not succ.star and type(succ.term) is Var:
        if succ in ants:
            yield RuleInstance("Id", (), None)
    if succ == _STAR_BOT:
        yield RuleInstance("=>*Bot", (), None)
    if _PLAIN_BOT in ants:
        yield RuleInstance("Bot=>", (), None)
    if _STAR_NEG_BOT in ants:
        yield RuleInstance("*~Bot=>", (), None)

    # single-premiss invertible rules, right then left
    st = succ.term
    if not succ.star:
        if type(st) is Neg:
            yield RuleInstance("=>~", (_with_succ(goal, starred(st.arg)),), -1)
    else:
        if type(st) is Neg and type(st.arg) is Neg:
            yield RuleInstance("=>*~~", (_with_succ(goal, starred(st.arg.arg)),), -1)
    for i, m in enumerate(ants):
        t = m.term
        if not m.star:
            if type(t) is And:
                yield RuleInstance(
                    "&=>", (_replace(goal, i, (plain(t.left), plain(t.right))),), i)
            elif type(t) is Neg:
                yield RuleInstance("~=>", (_replace(goal, i, (starred(t.arg),)),), i)
        else:
            if type(t) is Or:
                yield RuleInstance(
                    "*|=>", (_replace(goal, i, (starred(t.left), starred(t.right))),), i)
            elif type(t) is Neg:
                a = t.arg
                if type(a) is And:
                    yield RuleInstance(
                        "*~&=>",
                        (_replace(goal, i, (starred(Neg(a.left)), starred(Neg(a.right)))),), i)
                elif type(a) is Neg:
                    yield RuleInstance("*~~=>", (_replace(goal, i, (starred(a.arg),)),), i)

    # branching invertible rules
    if not succ.star:
        if type(st) is And:
            yield RuleInstance(
                "=>&",
                (_with_succ(goal, plain(st.left)), _with_succ(goal, plain(st.right))), -1)
    else:
        if type(st) is Or:
            yield RuleInstance(
                "=>*|",
                (_with_succ(goal, starred(st.left)), _with_succ(goal, starred(st.right))), -1)
        elif type(st) is Neg and type(st.arg) is And:
            a = st.arg
            yield RuleInstance(
                "=>*~&",
                (_with_succ(goal, starred(Neg(a.left))),
                 _with_succ(goal, starred(Neg(a.right)))), -1)
    for i, m in enumerate(ants):
        if not m.star and type(m.term) is Or:
            t = m.term
            yield RuleInstance(
                "|=>",
                (_replace(goal, i, (plain(t.left),)),
                 _replace(goal, i, (plain(t.right),))), i)

    # non-invertible choices
    if not succ.star and type(st) is Or:
        yield RuleInstance("=>|1", (_with_succ(goal, plain(st.left)),), -1)
        yield RuleInstance("=>|2", (_with_succ(goal, plain(st.right)),), -1)

    # the star family with its G3DM premisses, then the star rule: from
    # phi => psi infer *psi, Gamma => *phi
    if succ.star:
        yield from _star_family(goal)
        phi = None
        for i, m in enumerate(ants):
            if m.star:
                if phi is None:
                    phi = (plain(st),)
                yield RuleInstance("*", (_canonical(SDM, phi, plain(m.term)),), i)


def _star_family(goal: Sequent) -> Iterator[RuleInstance]:
    """*0, *1 and *n instances, one per subset of the starred occurrences.

    The full subset comes first.  Each premiss is the G3DM sequent
    phi => psi_1 | ... | psi_k over the subset's terms in antecedent order,
    where *phi is the goal's succedent.
    """
    ants = goal.antecedent
    phi = (goal.succedent.term,)
    stars = [i for i, m in enumerate(ants) if m.star]
    for bits in range((1 << len(stars)) - 1, -1, -1):
        used = [i for j, i in enumerate(stars) if bits >> j & 1]
        disjunction = fold(Or, [ants[i].term for i in used], BOT)
        premisses = (_canonical(DM, phi, disjunction),)
        if not used:
            yield RuleInstance("*0", premisses, -1)
        elif len(used) == 1:
            yield RuleInstance("*1", premisses, used[0])
        else:
            yield RuleInstance("*n", premisses, sum(1 << i for i in used))


def star_family_used(label: str, principal: int) -> list:
    """The antecedent positions a star-family instance uses, in order."""
    if label == "*0":
        return []
    if label == "*1":
        return [principal]
    return [i for i in range(principal.bit_length()) if principal >> i & 1]


def iter_g3dm(goal: Sequent) -> Iterator[RuleInstance]:
    if goal.calculus != DM:
        raise CalculusMismatchError(f"expected a DM goal, got {goal.calculus}")
    ants = goal.antecedent
    succ = goal.succedent

    # axioms
    ts = type(succ)
    if ts is Var and succ in ants:
        yield RuleInstance("Id1", (), None)
    if ts is Neg and type(succ.arg) is Var and succ in ants:
        yield RuleInstance("Id2", (), None)
    if ts is Neg and succ.arg is BOT:
        yield RuleInstance("=>~Bot", (), None)
    if BOT in ants:
        yield RuleInstance("Bot=>", (), None)

    # single-premiss invertible rules
    if ts is Neg and type(succ.arg) is Neg:
        yield RuleInstance("=>~~", (_with_succ(goal, succ.arg.arg),), -1)
    for i, t in enumerate(ants):
        ty = type(t)
        if ty is And:
            yield RuleInstance("&=>", (_replace(goal, i, (t.left, t.right)),), i)
        elif ty is Neg:
            a = t.arg
            if type(a) is Or:
                yield RuleInstance(
                    "~|=>", (_replace(goal, i, (Neg(a.left), Neg(a.right))),), i)
            elif type(a) is Neg:
                yield RuleInstance("~~=>", (_replace(goal, i, (a.arg,)),), i)

    # branching invertible rules
    if ts is And:
        yield RuleInstance(
            "=>&", (_with_succ(goal, succ.left), _with_succ(goal, succ.right)), -1)
    elif ts is Neg and type(succ.arg) is Or:
        a = succ.arg
        yield RuleInstance(
            "=>~|", (_with_succ(goal, Neg(a.left)), _with_succ(goal, Neg(a.right))), -1)
    for i, t in enumerate(ants):
        ty = type(t)
        if ty is Or:
            yield RuleInstance(
                "|=>", (_replace(goal, i, (t.left,)), _replace(goal, i, (t.right,))), i)
        elif ty is Neg and type(t.arg) is And:
            a = t.arg
            yield RuleInstance(
                "~&=>",
                (_replace(goal, i, (Neg(a.left),)), _replace(goal, i, (Neg(a.right),))), i)

    # non-invertible choices
    if ts is Or:
        yield RuleInstance("=>|1", (_with_succ(goal, succ.left),), -1)
        yield RuleInstance("=>|2", (_with_succ(goal, succ.right),), -1)
    elif ts is Neg and type(succ.arg) is And:
        a = succ.arg
        yield RuleInstance("=>~&1", (_with_succ(goal, Neg(a.left)),), -1)
        yield RuleInstance("=>~&2", (_with_succ(goal, Neg(a.right)),), -1)


# G3ip's rules with premisses, in the order iter_g3ip yields them (invertible
# one-premiss rules, invertible branching rules, the choices): label, the
# principal's connective, whether the principal is the succedent, and the
# premisses built from the goal, the principal's position (-1 for the
# succedent) and the principal.  ->L keeps its principal in the first premiss.
_G3IP_RULES = (
    ("->R", Imp, True,
     lambda g, i, t: (Sequent(g.calculus, g.antecedent + (t.left,), t.right),)),
    ("&L", And, False, lambda g, i, t: (_replace(g, i, (t.left, t.right)),)),
    ("&R", And, True, lambda g, i, t: (_with_succ(g, t.left), _with_succ(g, t.right))),
    ("|L", Or, False,
     lambda g, i, t: (_replace(g, i, (t.left,)), _replace(g, i, (t.right,)))),
    ("|R1", Or, True, lambda g, i, t: (_with_succ(g, t.left),)),
    ("|R2", Or, True, lambda g, i, t: (_with_succ(g, t.right),)),
    ("->L", Imp, False, lambda g, i, t: (_with_succ(g, t.left), _replace(g, i, (t.right,)))),
)
_G3IP_ROW = {row[0]: row for row in _G3IP_RULES}


def iter_g3ip(goal: Sequent) -> Iterator[RuleInstance]:
    """G3ip instances for an INT goal; G3ip+Gem-at instances for a CL goal.

    Gem-at is instantiated only at variables occurring in the goal, in
    (namespace, name) order: fresh variables can never help close a branch.
    """
    if goal.calculus not in (INT, CL):
        raise CalculusMismatchError(f"expected an INT or CL goal, got {goal.calculus}")
    ants = goal.antecedent
    succ = goal.succedent

    # axioms
    if type(succ) is Var and succ in ants:
        yield RuleInstance("Id", (), None)
    if BOT in ants:
        yield RuleInstance("BotL", (), None)

    ts = type(succ)
    for label, con, right, build in _G3IP_RULES:
        if right:
            if ts is con:
                yield RuleInstance(label, build(goal, -1, succ), -1)
        else:
            for i, t in enumerate(ants):
                if type(t) is con:
                    yield RuleInstance(label, build(goal, i, t), i)

    if goal.calculus == CL:
        for v in sorted(variables(goal), key=lambda v: (v.ns, v.name)):
            yield RuleInstance(
                "Gem-at",
                (Sequent(CL, ants + (v,), succ),
                 Sequent(CL, ants + (Imp(v, BOT),), succ)), None)


def g3ip_premisses(goal: Sequent, label: str, principal) -> tuple | None:
    """The premisses of the one G3ip instance at an INT or CL goal with this
    label and principal, as ``iter_g3ip`` yields them; None when the goal
    has no such instance.

    Gem-at gets None too: its principal is None at every variable, so its
    label and principal do not name one instance.
    """
    if goal.calculus not in (INT, CL):
        raise CalculusMismatchError(f"expected an INT or CL goal, got {goal.calculus}")
    ants = goal.antecedent
    succ = goal.succedent
    if principal is None:
        if label == "Id":
            return () if type(succ) is Var and succ in ants else None
        if label == "BotL":
            return () if BOT in ants else None
        return None
    row = _G3IP_ROW.get(label)
    # True == 1 and False == 0, so a bool would name a position
    if row is None or type(principal) is not int:
        return None
    _, con, right, build = row
    if right:
        t = succ if principal == -1 else None
    else:
        t = ants[principal] if 0 <= principal < len(ants) else None
    return build(goal, principal, t) if type(t) is con else None


def iter_instances(goal: Sequent) -> Iterator[RuleInstance]:
    """Dispatch on the goal's calculus tag."""
    if goal.calculus == SDM:
        return iter_g3sdm(goal)
    if goal.calculus == DM:
        return iter_g3dm(goal)
    return iter_g3ip(goal)


def expand(goal: Sequent) -> list:
    """All rule instances whose conclusion is the goal."""
    return list(iter_instances(goal))
