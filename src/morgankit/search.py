"""Backward proof search, derivation checking, and proof rendering.

Search strategy
---------------

For G3SDM and G3DM every rule strictly lowers the sequent weight, so plain
depth-first expansion terminates.  The star family's premisses are G3DM
sequents: G3SDM search hands them to G3DM search, which never returns to
G3SDM.  The engine additionally commits to the first applicable
*invertible* rule (axioms first, then non-branching rules, then branching
ones, the star rules last): by the inversion lemmas this changes neither
derivability nor refutability, and it keeps the explored tree small.  Search
closes a starred succedent with the star family's first instance, which
uses every starred member; the rule ``*`` comes after the family, so search
never tries it, and it stays in the rule table only so that saved
derivations replay and the height-bounded search can use it.

For G3ip and G3ip + Gem-at the left implication rule keeps its principal
formula, so weights do not decrease.  Search prunes a branch when the goal's
antecedent-as-set form repeats among its ancestors on that branch: any
derivation can be normalised (weakening and contraction are admissible) so
that no branch repeats a set form, hence pruning preserves completeness, and
the set-form universe reachable from a goal is finite, hence search
terminates.  Failures discovered under such pruning may depend on the
ancestor context; they are memoised only when every prune event referenced
an ancestor at or below the failing goal.  A failed invertible instance
ends the search of its goal, with one exception: when its failing premiss
failed through a prune at the goal's own set form and none above it (an
invertible rule on a duplicated member can lead back to that set form),
search goes on to the next instance.  One exhaustive search serves all
four calculi; below an SDM/DM root it skips the loop check, this
exception, the identity derivation and the prefilter described next.

An INT/CL goal whose succedent A occurs in its antecedent is derivable by
the generalised identity lemma (Negri & von Plato, *Structural Proof
Theory*, 2001).  Search builds that derivation directly, by recursion on A,
instead of searching for one: searching is slow on such goals.  Each step
builds the one G3ip instance it names, by label and principal
(``calculi.g3ip_premisses``), not the goal's instances before it.  The
height-bounded search below does not use it, because the identity
derivation need not have minimal height.

One bounded search answers every height query in all four calculi: the
first derivation of height at most n in instance order.  It commits to no
rule; the bound makes it terminate.  ``min_height`` takes its verdict from
``derive``, then deepens the bound from 0 over one memo table.

Before it expands an INT/CL goal, search tries to refute it classically:
both calculi are sound for two-valued semantics, so a boolean valuation
that makes the antecedent true and the succedent false refutes the goal
outright.  A public call on an INT/CL root makes one dict of truth tables
over the root's variables (``derive`` once neither the memo nor the identity
derivation answers the root): a table is a Python int holding a term's value
under every valuation, computed on first lookup and dropped when the call
returns.  The root's variables suffice for every subgoal:
G3ip and Gem-at premisses use only the root's variables, and valuing
variables a subgoal lacks changes none of its members.  A root with more
than ``_REFUTE_VAR_CAP`` variables gets no tables; each goal is then tested
on its own variables, and not at all when it too has more than the cap.

The engine keeps one memo, of ``derive`` results keyed by the exact
sequent; witnesses are real derivations of the queried goal.  It is a plain
dict (per-key updates are atomic under the GIL); per-goal search is
single-threaded.  A store into a memo that holds ``_MEMO_CAP`` entries first
clears it, so memory stays bounded and memoisation never stops.  Each height
query keeps its table, per (sequent, bound), for that call alone.

Replay (``check_derivation``) builds a G3ip node's recorded instance by name
too, and compares its premisses with the children's sequents.  Gem-at nodes
and SDM/DM nodes scan the goal's instances for the recorded one: Gem-at's
principal is None at every variable, and in the derivations of the
benchmark's SDM/DM workload the recorded instance is the first one at 93%
of the nodes.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .calculi import (
    CalculusMismatchError, g3ip_premisses, invertible, iter_instances,
)
from .syntax import (
    _LATEX, _field, _sequent_from_obj, _sequent_text, print_sequent, sequent_to_obj,
)
from .terms import (
    CL, DM, INT, SDM, And, Imp, Or, Sequent, Term, Var, variables,
)

PROOF_SCHEMA = "morgan-kit/proof/v1"

_BIG = 1 << 60

# A store clears the memo once it holds this many entries.  A 20,000-goal
# run per calculus ends below 100,000, and an entry takes 268-466 bytes.
_MEMO_CAP = 1 << 19

_CALCULUS_ALIASES = {
    "sdm": SDM, "g3sdm": SDM,
    "dm": DM, "g3dm": DM,
    "int": INT, "g3ip": INT,
    "cl": CL, "g3cp": CL, "g3ip+gem-at": CL,
}


def normalize_calculus(name: str) -> str:
    try:
        return _CALCULUS_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown calculus {name!r}") from None


class Derivation(namedtuple("Derivation", "sequent rule principal children height")):
    """A finite tree of rule applications.

    height is 0 exactly at axioms and 1 + max child height elsewhere;
    replaying `rule` at `sequent` with the recorded principal reproduces the
    children's sequents (check_derivation verifies both).
    """

    __slots__ = ()

    def __repr__(self):
        return f"<Derivation {self.rule} h={self.height} {print_sequent(self.sequent)}>"


def _node(goal: Sequent, label: str, principal, children: tuple) -> Derivation:
    h = 1 + max(c.height for c in children) if children else 0
    return Derivation(goal, label, principal, children, h)


class InvalidDerivationError(ValueError):
    """A derivation failed replay checking."""


class SearchEngine:
    """Shared-memo proof search over the four rule tables."""

    def __init__(self):
        self._witness: dict = {}

    def reset(self):
        self._witness.clear()

    def _store(self, key, value):
        memo = self._witness
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = value
        return value

    # -- unbounded search ------------------------------------------------

    def derive(self, calculus: str, goal: Sequent) -> Derivation | None:
        """A derivation of the goal, or None when exhaustive search refutes it."""
        if _checked(calculus, goal) in (SDM, DM):
            return self._derive(goal, None, None)
        return self._derive(goal, {}, None)

    def derivable(self, calculus: str, goal: Sequent) -> bool:
        return self.derive(calculus, goal) is not None

    def _derive(self, goal: Sequent, path: dict | None,
                tt: _TruthTables | None):
        """A derivation, None when search fails in every context, or an int.

        ``path`` maps the set forms of the goal's ancestors to their depths,
        so the goal's own depth is ``len(path)``.  A failure caused by a
        prune that hit an ancestor of this goal depends on the branch: it is
        not memoised, and it returns the depth of the shallowest ancestor
        such a prune hit.  ``path`` and ``tt`` are None below an SDM/DM
        root: there weights fall strictly, and search needs no identity
        derivation, prefilter or loop check.  An INT/CL root makes ``tt``
        once neither the memo nor the identity derivation answers it.
        """
        hit = self._witness.get(goal, _BIG)
        if hit is not _BIG:
            return hit
        if path is not None:
            if goal.succedent in goal.antecedent:
                return self._store(goal, _identity(goal))
            if tt is None:
                tt = _TruthTables(goal)
            if tt.refutes(goal):
                # G3ip and G3ip+Gem-at are sound for two-valued semantics, so
                # a boolean countermodel refutes absolutely; this collapses
                # the search space that the implication-left rule would
                # otherwise re-explore exponentially.
                return self._store(goal, None)
            # the set form, without the calculus: one search never leaves it
            sf = (tuple(dict.fromkeys(goal.antecedent)), goal.succedent)
            seen_at = path.get(sf)
            if seen_at is not None:
                return seen_at
            depth = len(path)
            path[sf] = depth
        result = None
        minref = _BIG
        for inst in iter_instances(goal):
            if not inst.premisses:
                result = _node(goal, inst.label, inst.principal, ())
                break
            children = []
            for p in inst.premisses:
                d = self._derive(p, path, tt)
                if d is None or d.__class__ is int:
                    break
                children.append(d)
            else:
                result = _node(goal, inst.label, inst.principal, tuple(children))
                break
            if d is not None:  # a prune above the premiss; INT/CL only
                if d < minref:
                    minref = d
                if d == depth:
                    # the prunes hit this goal's set form and none above it:
                    # the commit rests on no ancestor, so try the next instance
                    continue
            if invertible(inst.label):
                break
        if path is not None:
            del path[sf]
            if result is None and minref < depth:
                return minref
        # a failure is absolute when every prune referenced this subtree
        return self._store(goal, result)

    # -- height-exact search ----------------------------------------------

    def min_height(self, calculus: str, goal: Sequent):
        """Minimal derivation height, or None when not derivable.

        The verdict comes from ``derive``'s search, in all four calculi;
        only a derivable goal is then searched at bounds 0, 1, 2, ...  An
        INT/CL goal's truth tables are made once and serve both searches.
        """
        if _checked(calculus, goal) in (SDM, DM):
            path = tt = None
        else:
            path, tt = {}, _TruthTables(goal)
        if self._derive(goal, path, tt) is None:
            return None
        memo: dict = {}
        n = 0
        while _bd(goal, n, tt, memo) is None:
            n += 1
        return n

    def derivable_within_height(self, calculus: str, goal: Sequent, n: int) -> bool:
        """True iff some derivation of height at most n exists (exact bound)."""
        return self.derive_within_height(calculus, goal, n) is not None

    def derive_within_height(self, calculus: str, goal: Sequent, n: int):
        """A derivation of height at most n, or None."""
        sdm_dm = _checked(calculus, goal) in (SDM, DM)
        return _bd(goal, n, None if sdm_dm else _TruthTables(goal), {}) if n >= 0 else None


def _bd(goal: Sequent, n: int, tt: _TruthTables | None, memo: dict) -> Derivation | None:
    """The first derivation of height at most n, in instance order."""
    key = (goal, n)
    hit = memo.get(key, _BIG)
    if hit is not _BIG:
        return hit
    result = None
    # tt is None below an SDM/DM root: _TruthTables reads ~ as F
    if tt is None or not tt.refutes(goal):
        for inst in iter_instances(goal):
            if not inst.premisses:
                result = _node(goal, inst.label, inst.principal, ())
                break
            if n == 0:  # every rule table yields its axioms first
                break
            children = []
            for p in inst.premisses:
                d = _bd(p, n - 1, tt, memo)
                if d is None:
                    break
                children.append(d)
            else:
                result = _node(goal, inst.label, inst.principal, tuple(children))
                break
    memo[key] = result
    return result


def _identity(goal: Sequent) -> Derivation:
    """The derivation of an INT/CL goal ``Gamma, A => A``, by recursion on A.

    ``->R`` then ``->L`` on A; ``&L`` on A then ``&R``; ``|L`` on A then
    ``|R1``/``|R2``; ``Id`` or ``BotL`` at the leaves.  Every premiss again
    has its succedent in its antecedent.
    """
    a = goal.succedent
    ty = type(a)
    if ty is Imp:
        (p,) = g3ip_premisses(goal, "->R", -1)
        i = p.antecedent.index(a)
        left = _node(p, "->L", i, tuple(map(_identity, g3ip_premisses(p, "->L", i))))
        return _node(goal, "->R", -1, (left,))
    if ty is And:
        i = goal.antecedent.index(a)
        (p,) = g3ip_premisses(goal, "&L", i)
        right = _node(p, "&R", -1, tuple(map(_identity, g3ip_premisses(p, "&R", -1))))
        return _node(goal, "&L", i, (right,))
    if ty is Or:
        i = goal.antecedent.index(a)
        children = []
        for p, label in zip(g3ip_premisses(goal, "|L", i), ("|R1", "|R2")):
            (q,) = g3ip_premisses(p, label, -1)
            children.append(_node(p, label, -1, (_identity(q),)))
        return _node(goal, "|L", i, tuple(children))
    return _node(goal, "Id" if ty is Var else "BotL", None, ())


def _checked(calculus: str, goal: Sequent) -> str:
    """The normalised calculus name, which must match the goal's tag."""
    calculus = normalize_calculus(calculus)
    if calculus != goal.calculus:
        raise CalculusMismatchError(
            f"goal is tagged {goal.calculus}, not {calculus}")
    return calculus


_REFUTE_VAR_CAP = 14


class _TruthTables(dict):
    """Boolean truth tables over the valuations of one root goal's variables.

    With the root's ``Var`` nodes in canonical key order, bit m of a table
    is the term's value under the valuation that gives variable i the value
    of bit i of m; a table is a Python int and the connectives are bitwise.
    The constructor stores the variables' tables, keyed by their nodes, and
    sorts them itself: ``variables`` gives a set.  A missing term's table is
    computed from its children's and kept for the life of this object, i.e.
    of one public search call.  A root over the cap has none; ``_full`` is 0.
    """

    __slots__ = ("_full",)

    def __init__(self, root: Sequent):
        atoms = variables(root)
        self._full = 0
        if len(atoms) > _REFUTE_VAR_CAP:
            return
        full = self._full = (1 << (1 << len(atoms))) - 1
        for i, v in enumerate(sorted(atoms, key=Term.key)):
            block = 1 << i
            # 2^i zeros then 2^i ones, repeated across the 2^n valuations
            self[v] = (
                ((1 << block) - 1) << block) * (full // ((1 << 2 * block) - 1))

    def __missing__(self, t) -> int:
        ty = type(t)
        if ty is Imp:
            tab = (self._full ^ self[t.left]) | self[t.right]
        elif ty is And:
            tab = self[t.left] & self[t.right]
        elif ty is Or:
            tab = self[t.left] | self[t.right]
        elif ty is Var:
            raise ValueError(f"{t!r} does not occur in the root goal")
        else:
            tab = 0  # bottom
        self[t] = tab
        return tab

    def refutes(self, goal: Sequent) -> bool:
        """Some valuation makes every antecedent member true, succedent false.

        ``goal`` must use only the root's variables.  Above the variable
        cap the root has no tables, and each goal is tested on its own.
        """
        full = self._full
        if not full:
            alone = _TruthTables(goal)
            return alone._full != 0 and alone.refutes(goal)
        acc = full ^ self[goal.succedent]
        for m in goal.antecedent:
            if not acc:
                return False
            acc &= self[m]
        return acc != 0


def classically_refutable(goal: Sequent) -> bool:
    """Some boolean valuation makes every antecedent member true, succedent false.

    False when the goal has more than ``_REFUTE_VAR_CAP`` variables.
    """
    return _TruthTables(goal).refutes(goal)


_default_engine = SearchEngine()


def default_engine() -> SearchEngine:
    return _default_engine


def derive(calculus: str, goal: Sequent, engine: SearchEngine | None = None):
    return (engine or _default_engine).derive(calculus, goal)


def derivable(calculus: str, goal: Sequent, engine: SearchEngine | None = None):
    return (engine or _default_engine).derivable(calculus, goal)


# -- derivation checking -------------------------------------------------

# The last derivation check_derivation_report accepted.  A tree whose
# children are all tuples is immutable all the way down, so the same object
# replays the same way again: interpolate after check_derivation, or render
# after a check, does not replay it a second time.
_accepted = None


def check_derivation_report(calculus: str, d: Derivation):
    """(ok, diagnostic); the diagnostic names the first bad node by its JSON
    path, as ``proof_from_obj`` does.

    The last derivation accepted is kept, and accepted again at once, until
    the next accepted check replaces it.
    """
    global _accepted
    calculus = normalize_calculus(calculus)
    if calculus != d.sequent.calculus:
        return False, (f"derivation: sequent tagged {d.sequent.calculus}, "
                       f"expected {calculus}")
    if d is _accepted:
        return True, "ok"
    checked = set()
    bad = _first_bad(d, checked)
    if bad:
        return False, "derivation" + bad
    if None not in checked:
        _accepted = d
    return True, "ok"


def _first_bad(node: Derivation, checked: set) -> str | None:
    """The diagnostic of the first node below ``node`` that fails replay,
    starting with that node's path relative to ``node``.

    The path is built only on the way back up from a failing node.
    ``checked`` holds the ids of nodes already replayed, so a subtree shared
    by several parents is replayed once; it holds None as well when some
    node's children are not a tuple, so the tree could still change.
    """
    if id(node) in checked:
        return None
    expected_h = 1 + max((c.height for c in node.children), default=-1)
    # True == 1 and False == 0, but the proof decoder takes no bool for an int
    if type(node.height) is not int or node.height != expected_h:
        return f": height {node.height}, expected {expected_h}"
    want = tuple(c.sequent for c in node.children)
    goal = node.sequent
    if node.principal is not None and type(node.principal) is not int:
        found = False
    elif goal.calculus in (INT, CL) and node.rule != "Gem-at":
        found = g3ip_premisses(goal, node.rule, node.principal) == want
    else:
        # SDM/DM, and Gem-at, whose principal is None at every variable
        found = any(inst.label == node.rule and inst.principal == node.principal
                    and inst.premisses == want for inst in iter_instances(goal))
    if not found:
        return (f": no {node.rule} instance with principal "
                f"{node.principal} matches the recorded premisses")
    for i, c in enumerate(node.children):
        bad = _first_bad(c, checked)
        if bad:
            return f".premisses[{i}]{bad}"
    checked.add(id(node) if type(node.children) is tuple else None)
    return None


def check_derivation(calculus: str, d: Derivation) -> bool:
    """True iff every node replays through the rule table and heights agree."""
    return check_derivation_report(calculus, d)[0]


# -- rendering ------------------------------------------------------------

_LATEX_LABEL_PARTS = {
    "=>": r"\Rightarrow", "->": r"{\supset}", "*": r"{\ast}", "~": r"\lnot",
    "&": r"\wedge", "|": r"\vee", "Bot": r"\bot", "-": r"\text{-}",
}


def _latex_label(rule: str) -> str:
    """A rule label in LaTeX, part by part: a letter run is upright, and a
    digit, or the n after *, is a subscript."""
    def part(m):
        if m["sub"]:
            return "_" + m["sub"]
        if m["word"]:
            return r"\mathrm{" + m["word"] + "}"
        return _LATEX_LABEL_PARTS.get(m[0], m[0])
    return "(" + re.sub(r"=>|->|Bot|(?P<sub>\d|(?<=\*)n)|(?P<word>[A-Za-z]+)|.",
                        part, rule) + ")"


def _ascii_lines(d: Derivation, depth: int, out: list):
    for c in d.children:
        _ascii_lines(c, depth + 1, out)
    out.append("  " * depth + f"{print_sequent(d.sequent)}   [{d.rule}]")


def _latex_lines(d: Derivation, out: list):
    for c in d.children:
        _latex_lines(c, out)
    if not d.children:
        out.append(r"\AxiomC{}")
    infer = r"\BinaryInfC" if len(d.children) > 1 else r"\UnaryInfC"
    label = _latex_label(d.rule)
    out.append(r"\RightLabel{\scriptsize $" + label + "$}")
    out.append(infer + "{$" + _sequent_text(d.sequent, _LATEX) + "$}")


def _node_to_obj(x: Derivation) -> dict:
    return {
        "sequent": sequent_to_obj(x.sequent),
        "rule": x.rule,
        "principal": x.principal,
        "height": x.height,
        "premisses": [_node_to_obj(c) for c in x.children],
    }


def proof_to_obj(d: Derivation) -> dict:
    return {"schema": PROOF_SCHEMA, "calculus": d.sequent.calculus,
            "derivation": _node_to_obj(d)}


def proof_from_obj(obj: dict) -> Derivation:
    """Inverse of proof_to_obj; ValueError names a missing or ill-typed key."""
    schema = _field(obj, "schema", object, path="proof")
    if schema != PROOF_SCHEMA:
        raise ValueError(f"unsupported proof schema {schema!r}")
    d = _node_from_obj(_field(obj, "derivation", dict, path="proof"), "derivation")
    calculus = _field(obj, "calculus", str, path="proof")
    if calculus != d.sequent.calculus:
        raise ValueError(f"proof: calculus {calculus!r}, but the root is {d.sequent.calculus}")
    return d


def _node_from_obj(x: dict, path: str) -> Derivation:
    return Derivation(
        _sequent_from_obj(_field(x, "sequent", dict, path=path), f"{path}.sequent"),
        _field(x, "rule", str, path=path),
        _field(x, "principal", int, type(None), path=path),
        tuple(_node_from_obj(c, f"{path}.premisses[{i}]")
              for i, c in enumerate(_field(x, "premisses", list, path=path))),
        _field(x, "height", int, path=path),
    )


def render(d: Derivation, format: str = "ascii") -> str:
    """Render a checkable derivation as ascii, latex (bussproofs), or json."""
    ok, diag = check_derivation_report(d.sequent.calculus, d)
    if not ok:
        raise InvalidDerivationError(diag)
    if format == "ascii":
        out: list = []
        _ascii_lines(d, 0, out)
        return "\n".join(out)
    if format == "latex":
        lines = [r"\begin{prooftree}"]
        _latex_lines(d, lines)
        lines.append(r"\end{prooftree}")
        return "\n".join(lines)
    if format == "json":
        import json  # here only: importing morgankit should not load json
        return json.dumps(proof_to_obj(d), indent=2, sort_keys=True)
    raise ValueError(f"unknown render format {format!r}")
