"""Terms, basic structures, sequents, and the weight measures.

Two term languages share one AST family:

* the algebraic language (variables, F, ~, &, |) used by the SDM and DM
  sequent calculi, and
* the implicational language (variables, F, &, |, ->) used by the
  intuitionistic and classical calculi, where ~x abbreviates x -> F.

Terms and structures are hash-consed: each constructor looks its node up in
one weak intern table, keyed by the constructor and its children (already
interned), and builds a node only on a miss.  Two structurally equal terms
are therefore the same object, so equality is identity and hashing is the
default identity hash, which no term class overrides.
The table holds its nodes weakly: a term lives exactly as long as something
outside the table refers to it.  A miss inserts under a lock after a second
lookup, so threads building the same term concurrently get one node.

Everything here is immutable after construction and safe to share between
threads.  Each node is built with its canonical sort key, made from its
children's keys, so antecedents are kept in canonical order cheaply; it holds
no weights.  A child that is not a term, or a variable name that is not a
string, raises TypeError.
"""

from __future__ import annotations

import _thread
import weakref
from collections import namedtuple
from collections.abc import Iterable
from operator import attrgetter

# Variable namespaces.  Base variables come from user input; the other three
# are reserved for translation output ("p'", "p''", "#k0", ...), which keeps
# generated variables from ever colliding with parsed ones.
BASE = "base"
PRIMED = "primed"
DOUBLED = "doubled"
CLASS = "class"

_NS_RANK = {BASE: 0, PRIMED: 1, DOUBLED: 2, CLASS: 3}

SDM = "sdm"
DM = "dm"
INT = "int"
CL = "cl"

CALCULI = (SDM, DM, INT, CL)


# --- the intern table ----------------------------------------------------

_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_REFS = _TABLE.data      # the key -> weak reference dict behind _TABLE
_REMOVE = _TABLE._remove  # _TABLE's callback that drops a dead entry
_LOCK = _thread.allocate_lock()


class _Entry(weakref.ref):
    """A table entry: a weak reference that carries its key, as the table's
    removal callback expects; cheaper to build than weakref.KeyedRef."""

    __slots__ = ("key",)


def _lookup(key):
    ref = _REFS.get(key)
    return None if ref is None else ref()


def _publish(key, node):
    """Intern a freshly built node; the node another thread interned first wins."""
    with _LOCK:
        ref = _REFS.get(key)
        won = None if ref is None else ref()
        if won is None:
            entry = _Entry(node, _REMOVE)
            entry.key = key
            _REFS[key] = entry
            won = node
    return won


class Term:
    """Base class for all term constructors."""

    __slots__ = ("__weakref__", "_key")

    def key(self):
        """Total-order sort key; equal keys iff structurally equal.

        (0, namespace rank, name) for a variable, (1,) for F, (2, key of
        arg) for ~, (rank, key of left, key of right) for & (3), | (4) and
        -> (5).
        """
        return self._key

    def __repr__(self):
        from .syntax import print_term
        return f"<{type(self).__name__} {print_term(self)}>"


class Var(Term):
    __slots__ = ("name", "ns")

    def __new__(cls, name: str, ns: str = BASE):
        key = (Var, name, ns)
        node = _lookup(key)
        if node is None:
            if type(name) is not str:
                raise TypeError(f"a variable name is a string, not {name!r}")
            if ns not in _NS_RANK:
                raise ValueError(f"unknown namespace {ns!r}")
            node = object.__new__(cls)
            node.name = name
            node.ns = ns
            node._key = (0, _NS_RANK[ns], name)
            node = _publish(key, node)
        return node


class _Bottom(Term):
    __slots__ = ()

    def __new__(cls):
        return BOT


#: The falsum constant, the only _Bottom node.
BOT = object.__new__(_Bottom)
BOT._key = (1,)


class Neg(Term):
    """Negation; only meaningful in the algebraic (SDM/DM) language."""

    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        key = (Neg, arg)
        node = _lookup(key)
        if node is None:
            if not isinstance(arg, Term):
                raise TypeError(f"~ takes a term, not {arg!r}")
            node = object.__new__(cls)
            node.arg = arg
            node._key = (2, arg._key)
            node = _publish(key, node)
        return node


class _Binary(Term):
    """Shared construction of the binary connectives."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        node = _lookup(key)
        if node is None:
            if not (isinstance(left, Term) and isinstance(right, Term)):
                raise TypeError(f"{cls.__name__} takes terms, not {left!r}, {right!r}")
            node = object.__new__(cls)
            node.left = left
            node.right = right
            node._key = (cls._rank, left._key, right._key)
            node = _publish(key, node)
        return node


class And(_Binary):
    __slots__ = ()
    _rank = 3


class Or(_Binary):
    __slots__ = ()
    _rank = 4


class Imp(_Binary):
    """Implication; only meaningful in the INT/CL language."""

    __slots__ = ()
    _rank = 5


#: Verum in the algebraic language: T is notation for ~F.
TOP_ALG = Neg(BOT)

#: Verum in the implicational language: T is notation for F -> F.
TOP_IMP = Imp(BOT, BOT)


def fold(ctor, items, empty):
    """Left fold of a binary constructor over items; ``empty`` when none."""
    items = list(items)
    if not items:
        return empty
    acc = items[0]
    for x in items[1:]:
        acc = ctor(acc, x)
    return acc


def t_flatten(x) -> Term:
    """Flatten a basic structure or SDM antecedent to a term (left & fold)."""
    if isinstance(x, Struct):
        return Neg(x.term) if x.star else x.term
    if isinstance(x, Term):
        return x
    if isinstance(x, Sequent):
        return t_flatten(x.antecedent)
    return fold(And, [t_flatten(m) for m in _members(x)], TOP_ALG)


class Struct:
    """A basic SDM-structure: a term, optionally under the structural star.

    Stars never nest; the wrapped value is always a plain term.  Structures
    are interned like terms.
    """

    __slots__ = ("__weakref__", "star", "term", "_key")

    def __new__(cls, star: bool, term: Term):
        if not isinstance(term, Term):
            raise TypeError("Struct wraps a term")
        star = bool(star)
        key = (Struct, star, term)
        node = _lookup(key)
        if node is None:
            node = object.__new__(cls)
            node.star = star
            node.term = term
            node._key = (1 if star else 0, term._key)
            node = _publish(key, node)
        return node

    def key(self):
        """(1 if starred else 0, key of the term)."""
        return self._key

    def __repr__(self):
        from .syntax import print_structure
        return f"<Struct {print_structure(self)}>"


def plain(t: Term) -> Struct:
    return Struct(False, t)


def starred(t: Term) -> Struct:
    return Struct(True, t)


_BY_KEY = attrgetter("_key")


class Sequent(namedtuple("Sequent", "calculus antecedent succedent")):
    """A sequent: multiset antecedent, single succedent, calculus tag.

    A named tuple whose constructor sorts the antecedent by the canonical
    member order, so equal multisets give equal sequents; ``_make`` and
    ``_replace`` go through ``sequent()``.  SDM sequents carry Struct members
    and a Struct succedent; DM, INT and CL sequents carry bare terms.
    """

    __slots__ = ()

    def __new__(cls, calculus: str, antecedent: Iterable, succedent):
        ants = tuple(sorted(antecedent, key=_BY_KEY))
        return tuple.__new__(cls, (calculus, ants, succedent))

    @classmethod
    def _make(cls, iterable):
        return sequent(*iterable)

    def without(self, index: int) -> tuple:
        a = self.antecedent
        return a[:index] + a[index + 1:]

    def __repr__(self):
        from .syntax import print_sequent
        return f"<Sequent {self.calculus}: {print_sequent(self)}>"


def sequent(calculus: str, antecedent: Iterable, succedent) -> Sequent:
    """Build a sequent in canonical form, validating member shapes."""
    if calculus not in CALCULI:
        raise ValueError(f"unknown calculus {calculus!r}")
    ants = list(antecedent)
    if calculus == SDM:
        if not isinstance(succedent, Struct):
            succedent = plain(succedent)
        ants = [m if isinstance(m, Struct) else plain(m) for m in ants]
        for m in ants + [succedent]:
            if not _avoids(m.term, Imp):
                raise ValueError("SDM sequents use the algebraic language")
    else:
        if isinstance(succedent, Struct) or any(isinstance(m, Struct) for m in ants):
            raise ValueError(f"{calculus} sequents carry no starred members")
        for m in ants + [succedent]:
            if not _avoids(m, Imp if calculus == DM else Neg):
                raise ValueError(f"term outside the {calculus} language")
    return Sequent(calculus, ants, succedent)


def _avoids(t: Term, connective) -> bool:
    """True iff the term t has no node of type connective: Imp for the
    SDM/DM language, Neg for the INT/CL one.  TypeError if t is not a term."""
    stack = [t]
    while stack:
        x = stack.pop()
        ty = type(x)
        if ty is Var or ty is _Bottom:
            continue
        if ty is connective:
            return False
        if ty is Neg:
            stack.append(x.arg)
        elif ty is And or ty is Or or ty is Imp:
            stack.append(x.left)
            stack.append(x.right)
        else:
            raise TypeError(f"expected a term, not {x!r}")
    return True


# --- weights -----------------------------------------------------------

# A collection of members is a plain tuple or list.  Records such as
# Sequent, Derivation and Partition subclass tuple; the exact type test keeps
# them from being read as collections of members.
_SEQUENCES = (tuple, list)


def _members(x):
    """A multiset argument, which must be a plain tuple or list."""
    if type(x) not in _SEQUENCES:
        raise TypeError(f"expected a tuple or list of members, not {x!r}")
    return x


def _weights(t: Term) -> tuple:
    """The SDM and DM weights of t, in one walk."""
    ty = type(t)
    if ty is Var or ty is _Bottom:
        return 1, 1
    if ty is Neg:
        sw, dw = _weights(t.arg)
        return sw + 2, dw + 1
    if ty is And or ty is Or:
        lsw, ldw = _weights(t.left)
        rsw, rdw = _weights(t.right)
        # A conjunction adds 4 to the SDM weight, not 3: with 3 the
        # starred-negated-conjunction left rule keeps the sequent weight
        # constant, and backward search needs every rule to lower it strictly.
        return lsw + rsw + (4 if ty is And else 2), ldw + rdw + 2
    raise TypeError("the weights are defined on the algebraic language only")


def sdm_weight(x) -> int:
    """Weight measure bounding G3SDM proof search; stars add 1, ~ adds 2.

    A G3DM-tagged sequent weighs 0.  Such sequents are the premisses of the
    star family: G3SDM search hands them to G3DM search, which never returns
    to G3SDM and which dm_weight bounds, so they rank below every G3SDM
    sequent.
    """
    if isinstance(x, Term):
        return _weights(x)[0]
    if isinstance(x, Struct):
        return sdm_weight(x.term) + (1 if x.star else 0)
    if isinstance(x, Sequent):
        if x.calculus == DM:
            return 0
        return sum(sdm_weight(m) for m in x.antecedent) + sdm_weight(x.succedent)
    if type(x) in _SEQUENCES:
        return sum(sdm_weight(m) for m in x)
    raise TypeError(f"cannot weigh {x!r}")


def dm_weight(x) -> int:
    """Weight measure bounding G3DM proof search."""
    if isinstance(x, Term):
        return _weights(x)[1]
    if isinstance(x, Sequent):
        return sum(dm_weight(m) for m in x.antecedent) + dm_weight(x.succedent)
    if type(x) in _SEQUENCES:
        return sum(dm_weight(m) for m in x)
    raise TypeError(f"cannot weigh {x!r}")


def variables(x) -> frozenset:
    """The set of (namespace, name) pairs occurring in a term, structure,
    sequent, or plain tuple or list of these (nested); anything else has none."""
    out = set()
    stack = [x]
    while stack:
        item = stack.pop()
        ty = type(item)
        if ty is Var:
            out.add((item.ns, item.name))
        elif ty is Neg:
            stack.append(item.arg)
        elif ty is And or ty is Or or ty is Imp:
            stack.append(item.left)
            stack.append(item.right)
        elif ty is Struct:
            stack.append(item.term)
        elif ty is Sequent:
            stack += (*item.antecedent, item.succedent)
        elif ty in _SEQUENCES:
            stack += item
    return frozenset(out)
