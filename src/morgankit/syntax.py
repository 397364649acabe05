"""Concrete syntax: parsing, printing, and the JSON AST encoding.

Surface grammar (ASCII; precedence ~ > & > | > ->, binary operators
left-associative)::

    sequent   = [ items ] "=>" item
    partition = [ items ] ";" [ items ] "=>" item
    items     = item { "," item }
    item      = [ "*" ] term            (* star only in SDM sequents *)
    term      = or { "->" or }          (* -> only in INT/CL *)
    or        = and { "|" and }
    and       = unary { "&" unary }
    unary     = "~" unary | atom
    atom      = var | "T" | "F" | "(" term ")"
    var       = ident [ "'" | "''" ] | "#k" digits

``T`` abbreviates ``~F`` in the algebraic language and ``F -> F`` in the
implicational one; ``~x`` abbreviates ``x -> F`` when parsing INT/CL input.
Primed, doubled and ``#k`` variables are reserved for translation output and
rejected in SDM/DM input.

A parse checks the whole text with one regular expression, reads its token
strings with a second, and builds each node bottom-up on flat stacks; token
positions are recomputed only when a ParseError is raised.  The grammar
keeps a parsed sequent in its calculus's language, so parse_sequent builds
the Sequent without the language check that sequent() makes.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .terms import (
    BASE, BOT, CALCULI, CLASS, DM, DOUBLED, PRIMED, SDM, TOP_ALG, TOP_IMP,
    And, Imp, Neg, Or, Sequent, Struct, Term, Var,
    plain, sequent, starred,
)

AST_SCHEMA = "morgan-kit/ast/v1"

SDM_DM = "sdm-dm"
INT_CL = "int-cl"


class ParseError(ValueError):
    """Syntax error, with the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NamespaceError(ParseError):
    """A reserved translation-output variable appeared in SDM/DM input."""


# One token.  An identifier or a #k name never stops short of a following
# letter or digit, so _TEXT_RE backtracks in linear time on text it rejects.
_TOKEN = (r"[a-zA-Z_][a-zA-Z0-9_]*(?![a-zA-Z0-9_])(?:'{1,2})?|#k[0-9]+(?![0-9])"
          r"|->|=>|[~&|*(),;]")
_TEXT_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")


def _tokens(text: str) -> list:
    """The token strings of text, then None for its end."""
    if _TEXT_RE.fullmatch(text) is None:
        pos = 0
        while (m := _TOKEN_RE.match(text, pos)) is not None:
            pos = m.end()
        rest = text[pos:].lstrip()
        raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    tokens = _TOKEN_RE.findall(text)
    tokens.append(None)
    return tokens


#: How deep a term may nest: at most this many connectives on any path from
#: the root, so one pass over a term stays inside Python's recursion limit.
#: Search and replay also recurse once per rule, and can still exceed it.
MAX_NESTING = 256

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2, 3

# binary operator token -> precedence, and -> constructor; "(" is the floor
# that reduction stops at
_BINARY = {"->": _PREC_IMP, "|": _PREC_OR, "&": _PREC_AND}
_PREC = {"(": -1, **_BINARY}
_CTOR = {"->": Imp, "|": Or, "&": And}

_TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"


def _not_imp(x: Term) -> Term:
    """~x as the implicational language reads it."""
    return Imp(x, BOT)


class _Parser:
    """One parse: the token strings, a cursor, and the atoms read so far."""

    def __init__(self, text: str, language: str):
        if language not in (SDM_DM, INT_CL):
            raise ValueError(f"unknown language {language!r}")
        self.text = text
        self.tokens = _tokens(text)
        self.i = 0
        self.sdm_dm = sdm_dm = language == SDM_DM
        # token -> node; each variable is resolved once per parse
        self.atoms = {"F": BOT, "T": TOP_ALG if sdm_dm else TOP_IMP}

    def error(self, message: str, i: int, kind=ParseError) -> ParseError:
        """The error at token i; token positions are found only now."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        starts.append(len(self.text))
        return kind(message, starts[i])

    def var(self, i: int) -> Var:
        """The variable token i names; any other token there is an error."""
        tok = self.tokens[i]
        if tok is None or not (tok[0].isalpha() or tok[0] in "_#"):
            raise self.error(f"expected a term, found {tok!r}", i)
        if tok.startswith("#k"):
            ns, name = CLASS, tok[1:]
        elif tok.endswith("''"):
            ns, name = DOUBLED, tok[:-2]
        elif tok.endswith("'"):
            ns, name = PRIMED, tok[:-1]
        else:
            ns, name = BASE, tok
        if self.sdm_dm and ns != BASE:
            raise self.error(
                f"variable {tok!r} belongs to a reserved translation namespace",
                i, NamespaceError)
        self.atoms[tok] = v = Var(name, ns)
        return v

    def term(self) -> Term:
        """Operator-precedence parse on explicit stacks, so deeply nested
        input costs no recursion; past MAX_NESTING connectives on one path
        it raises ParseError at the operator that goes too deep."""
        tokens = self.tokens
        atoms = self.atoms
        top = atoms["T"]
        sdm_dm = self.sdm_dm
        negate = Neg if sdm_dm else _not_imp
        i = self.i
        ops = []     # token indices of the pending operators, "(" and "~" included
        lefts = []   # left operand, then its depth, of each pending binary operator
        opened = 0   # pending "("
        while True:
            tok = tokens[i]
            while tok == "~" or tok == "(":
                if tok == "(":
                    opened += 1
                ops.append(i)
                i += 1
                tok = tokens[i]
            node = atoms.get(tok)
            if node is None:
                node = self.var(i)
            depth = 1 if node is top else 0
            i += 1
            while True:
                while ops and tokens[ops[-1]] == "~":
                    if depth >= MAX_NESTING:
                        raise self.error(_TOO_DEEP, ops[-1])
                    ops.pop()
                    node = negate(node)
                    depth += 1
                tok = tokens[i]
                prec = _BINARY.get(tok)
                if prec is None:
                    if opened and tok != ")":
                        raise self.error(f"expected ')', found {tok!r}", i)
                    floor = _PREC_IMP  # a ")" or the end reduces down to "("
                elif prec == _PREC_IMP and sdm_dm:
                    raise self.error("'->' is not part of the SDM/DM language", i)
                else:
                    floor = prec
                while ops and _PREC[tokens[ops[-1]]] >= floor:
                    j = ops.pop()
                    left_depth = lefts.pop()
                    if left_depth > depth:
                        depth = left_depth
                    if depth >= MAX_NESTING:
                        raise self.error(_TOO_DEEP, j)
                    node = _CTOR[tokens[j]](lefts.pop(), node)
                    depth += 1
                if prec is not None or not opened:
                    break
                ops.pop()
                opened -= 1
                i += 1
            if prec is None:
                self.i = i
                return node
            lefts.append(node)
            lefts.append(depth)
            ops.append(i)
            i += 1

    def item(self, sdm: bool):
        """A member; SDM members are structures, which alone may be starred."""
        i = self.i
        if self.tokens[i] == "*":
            if not sdm:
                raise self.error("starred structures occur only in SDM sequents", i)
            self.i = i + 1
            return starred(self.term())
        t = self.term()
        return plain(t) if sdm else t

    def items(self, sdm: bool, stop: str) -> list:
        out = []
        if self.tokens[self.i] == stop:
            return out
        out.append(self.item(sdm))
        while self.tokens[self.i] == ",":
            self.i += 1
            out.append(self.item(sdm))
        return out

    def expect(self, tok: str):
        got = self.tokens[self.i]
        if got != tok:
            raise self.error(f"expected {tok!r}, found {got!r}", self.i)
        self.i += 1

    def end(self):
        tok = self.tokens[self.i]
        if tok is not None:
            raise self.error(f"trailing input {tok!r}", self.i)


def language_of(calculus: str) -> str:
    """The term language of a calculus: "sdm-dm" or "int-cl"."""
    if calculus not in CALCULI:
        raise ValueError(f"unknown calculus {calculus!r}")
    return SDM_DM if calculus in (SDM, DM) else INT_CL


def parse_term(text: str, language: str = SDM_DM) -> Term:
    """Parse a term; `language` is "sdm-dm" or "int-cl"."""
    p = _Parser(text, language)
    t = p.term()
    p.end()
    return t


def parse_structure(text: str) -> Struct:
    """Parse a basic SDM-structure: a term with an optional leading star."""
    p = _Parser(text, SDM_DM)
    s = p.item(True)
    p.end()
    return s


def parse_sequent(text: str, calculus: str) -> Sequent:
    """Parse "G => b"; the grammar keeps the result in the calculus's
    language, so the sequent is built without a second walk."""
    p = _Parser(text, language_of(calculus))
    sdm = calculus == SDM
    ants = p.items(sdm, "=>")
    p.expect("=>")
    succ = p.item(sdm)
    p.end()
    return Sequent(calculus, ants, succ)


def parse_partition(text: str, calculus: str):
    """Parse "G1 ; G2 => b" into (left members, right members, succedent)."""
    p = _Parser(text, language_of(calculus))
    sdm = calculus == SDM
    left = p.items(sdm, ";")
    p.expect(";")
    right = p.items(sdm, "=>")
    p.expect("=>")
    succ = p.item(sdm)
    p.end()
    return tuple(left), tuple(right), succ


# --- printing ----------------------------------------------------------


# The tokens of one notation; both notations share the precedences and the
# parenthesis rule.  class_var formats the name of a #k class variable.
_Notation = namedtuple("_Notation", "neg conj disj imp bot star arrow class_var")
_ASCII = _Notation("~", " & ", " | ", " -> ", "F", "*", "=>", "#{}")
_LATEX = _Notation(r"\lnot ", r" \wedge ", r" \vee ", r" \supset ", r"\bot",
                   r"{\ast}", r"\Rightarrow", r"\mathit{{{}}}")


def _var_text(v: Var, n: _Notation) -> str:
    if v.ns == BASE:
        return v.name
    if v.ns == PRIMED:
        return v.name + "'"
    if v.ns == DOUBLED:
        return v.name + "''"
    return n.class_var.format(v.name)


def _print(t: Term, prec: int, right: bool, n: _Notation = _ASCII) -> str:
    ty = type(t)
    if ty is Var:
        return _var_text(t, n)
    if ty is Neg:
        return n.neg + _print(t.arg, _PREC_UNARY, False, n)
    if ty is And:
        own, op = _PREC_AND, n.conj
    elif ty is Or:
        own, op = _PREC_OR, n.disj
    elif ty is Imp:
        own, op = _PREC_IMP, n.imp
    elif t is BOT:
        return n.bot
    else:
        raise TypeError(f"expected a term, not {t!r}")
    s = _print(t.left, own, False, n) + op + _print(t.right, own, True, n)
    if own < prec or (own == prec and right):
        return "(" + s + ")"
    return s


def print_term(t: Term) -> str:
    """Render with minimal parentheses; parse_term round-trips the result."""
    return _print(t, _PREC_IMP, False)


def _structure_text(s, n: _Notation) -> str:
    if isinstance(s, Struct):
        if s.star:
            return n.star + _print(s.term, _PREC_UNARY, False, n)
        s = s.term
    return _print(s, _PREC_IMP, False, n)


def print_structure(s) -> str:
    return _structure_text(s, _ASCII)


def _sequent_text(s: Sequent, n: _Notation) -> str:
    ants = ", ".join(_structure_text(m, n) for m in s.antecedent)
    succ = _structure_text(s.succedent, n)
    return f"{ants} {n.arrow} {succ}" if ants else f"{n.arrow} {succ}"


def print_sequent(s: Sequent) -> str:
    return _sequent_text(s, _ASCII)


# --- JSON AST encoding (morgan-kit/ast/v1) ------------------------------

# The connectives by their op names, for the encoder and the decoder.
_OPS = {"neg": Neg, "and": And, "or": Or, "imp": Imp}
_OP_NAMES = {ctor: name for name, ctor in _OPS.items()}

# The JSON kind of each type a decoder reads, as messages name it.
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an int",
          float: "a number", bool: "a boolean", type(None): "null"}


def _kind(v) -> str:
    return _KINDS.get(type(v)) or f"a {type(v).__name__}"


def _field(obj, key: str, *types, default=None, path: str = ""):
    """obj[key] of one of the JSON types (``object``: any; a bool is never an
    int), or default if given and key is absent; else ValueError naming key."""
    where = f"{path}: " if path else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}{_kind(obj)} has no key {key!r}")
    if key not in obj:
        if default is None:
            raise ValueError(f"{where}missing key {key!r}")
        return default
    v = obj[key]
    if not isinstance(v, types) or (type(v) is bool and int in types):
        kinds = " or ".join(_KINDS[t] for t in types)
        raise ValueError(f"{where}key {key!r} holds {_kind(v)}, not {kinds}")
    return v


def term_to_obj(t: Term) -> dict:
    ty = type(t)
    if ty is Var:
        return {"op": "var", "name": t.name, "ns": t.ns}
    if t is BOT:
        return {"op": "bot"}
    op = _OP_NAMES.get(ty)
    if op is None:
        raise TypeError(f"expected a term, not {t!r}")
    if ty is Neg:
        return {"op": op, "arg": term_to_obj(t.arg)}
    return {"op": op, "left": term_to_obj(t.left), "right": term_to_obj(t.right)}


def term_from_obj(obj: dict) -> Term:
    """Inverse of term_to_obj; ValueError past MAX_NESTING nested connectives."""
    return _term_from_obj(obj, MAX_NESTING)


# The variable names, per namespace, that print_term writes as text that
# parse_term reads back as the same variable.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_NAMES = {BASE: _IDENT, PRIMED: _IDENT, DOUBLED: _IDENT,
              CLASS: re.compile(r"k[0-9]+")}


def _term_from_obj(obj: dict, budget: int) -> Term:
    op = _field(obj, "op", str)
    if op == "var":
        name, ns = _field(obj, "name", object), _field(obj, "ns", object, default=BASE)
        names = _VAR_NAMES.get(ns) if isinstance(ns, str) else None
        if names is None:
            raise ValueError(f"unknown namespace {ns!r}")
        if (not isinstance(name, str) or not names.fullmatch(name)
                or (ns == BASE and name in ("T", "F"))):
            raise ValueError(f"malformed {ns} variable name {name!r}")
        return Var(name, ns)
    if op == "bot":
        return BOT
    ctor = _OPS.get(op)
    if ctor is None:
        raise ValueError(f"unknown op {op!r}")
    if budget == 0:
        raise ValueError(f"term nested deeper than {MAX_NESTING} levels")
    if ctor is Neg:
        return Neg(_term_from_obj(_field(obj, "arg", dict), budget - 1))
    return ctor(_term_from_obj(_field(obj, "left", dict), budget - 1),
                _term_from_obj(_field(obj, "right", dict), budget - 1))


def member_to_obj(m) -> dict:
    if isinstance(m, Struct):
        return {"star": m.star, "term": term_to_obj(m.term)}
    return {"star": False, "term": term_to_obj(m)}


def member_from_obj(obj: dict, calculus: str):
    t = term_from_obj(_field(obj, "term", dict))
    star = _field(obj, "star", bool, default=False)
    if calculus == SDM:
        return Struct(star, t)
    if star:
        raise ValueError(f"starred member in a {calculus} sequent")
    return t


def sequent_to_obj(s: Sequent) -> dict:
    return {
        "schema": AST_SCHEMA,
        "calculus": s.calculus,
        "antecedent": [member_to_obj(m) for m in s.antecedent],
        "succedent": member_to_obj(s.succedent),
    }


def sequent_from_obj(obj: dict) -> Sequent:
    """Inverse of sequent_to_obj; an error in a member names it (``antecedent[0]: ...``)."""
    return _sequent_from_obj(obj, "")


def _sequent_from_obj(obj, path: str) -> Sequent:
    """The sequent at JSON path ``path``; a ValueError starts with the path
    of the node it is about, the sequent or one of its members."""
    where, dot = (f"{path}: ", f"{path}.") if path else ("", "")
    schema = _field(obj, "schema", object, default=AST_SCHEMA, path=path)
    if schema != AST_SCHEMA:
        raise ValueError(f"{where}unsupported AST schema {schema!r}")
    calc = _field(obj, "calculus", object, path=path)
    def member(at: str, m):
        try:
            return member_from_obj(m, calc)
        except ValueError as e:
            raise ValueError(f"{dot}{at}: {e}") from None
    ants = [member(f"antecedent[{i}]", m)
            for i, m in enumerate(_field(obj, "antecedent", list, path=path))]
    succ = member("succedent", _field(obj, "succedent", dict, path=path))
    try:
        return sequent(calc, ants, succ)
    except ValueError as e:
        raise ValueError(f"{where}{e}") from None
