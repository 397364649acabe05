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
"""

from __future__ import annotations

import re
from collections import namedtuple

from .terms import (
    BASE, BOT, CLASS, DM, DOUBLED, PRIMED, SDM,
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>[a-zA-Z_][a-zA-Z0-9_]*(?:'{1,2})?|#k[0-9]+)"
    r"|(?P<arrow>->)|(?P<seq>=>)"
    r"|(?P<punct>[~&|*(),;]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = n - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", at)
        kind = m.lastgroup
        tokens.append((m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append((None, n))
    return tokens


def _var_from_token(tok: str, pos: int, language: str) -> Var:
    if tok.startswith("#k"):
        ns, name = CLASS, tok[1:]
    elif tok.endswith("''"):
        ns, name = DOUBLED, tok[:-2]
    elif tok.endswith("'"):
        ns, name = PRIMED, tok[:-1]
    else:
        ns, name = BASE, tok
    if language == SDM_DM and ns != BASE:
        raise NamespaceError(
            f"variable {tok!r} belongs to a reserved translation namespace", pos
        )
    return Var(name, ns)


#: How deep a term may nest: at most this many connectives on any path from
#: the root.  It keeps every recursive pass over a term (printing, sort keys,
#: weights, search, replay) well inside Python's recursion limit.
MAX_NESTING = 256

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2, 3

# binary operator token -> (precedence, constructor)
_BINARY = {"->": (_PREC_IMP, Imp), "|": (_PREC_OR, Or), "&": (_PREC_AND, And)}

# how each language reads ~x
_NEGATE = {SDM_DM: Neg, INT_CL: lambda x: Imp(x, BOT)}


def _apply(op, left, node: Term, depth: int):
    """Apply a pending operator to its operands, each a (term, depth) pair."""
    _, ctor, pos = op
    if left is not None:
        node = ctor(left[0], node)
        depth = max(left[1], depth)
    else:
        node = ctor(node)
    if depth >= MAX_NESTING:
        raise ParseError(f"nested deeper than {MAX_NESTING} levels", pos)
    return node, depth + 1


class _Parser:
    def __init__(self, text: str, language: str):
        if language not in (SDM_DM, INT_CL):
            raise ValueError(f"unknown language {language!r}")
        self.tokens = _tokenize(text)
        self.i = 0
        self.language = language

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got, pos = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}", pos)

    def term(self) -> Term:
        """Operator-precedence parse on explicit stacks, so deeply nested
        input costs no recursion; past MAX_NESTING connectives on one path
        it raises ParseError at the operator that goes too deep."""
        tokens = self.tokens
        i = self.i
        negate = _NEGATE[self.language]
        lefts = []   # (term, depth) of the left operand of each pending binary operator
        ops = []     # (precedence, constructor, position) of pending operators,
                     # "(" with precedence -1 and "~" with _PREC_UNARY
        opened = 0   # pending "("
        while True:
            tok, pos = tokens[i]
            i += 1
            while tok == "~" or tok == "(":
                if tok == "(":
                    ops.append((-1, None, pos))
                    opened += 1
                else:
                    ops.append((_PREC_UNARY, negate, pos))
                tok, pos = tokens[i]
                i += 1
            node, depth = self._atom(tok, pos)
            while True:
                while ops and ops[-1][0] == _PREC_UNARY:
                    node, depth = _apply(ops.pop(), None, node, depth)
                if tokens[i][0] != ")" or not opened:
                    break
                i += 1
                while ops[-1][0] >= 0:
                    node, depth = _apply(ops.pop(), lefts.pop(), node, depth)
                ops.pop()
                opened -= 1
            tok, pos = tokens[i]
            op = _BINARY.get(tok)
            if op is None:
                break
            i += 1
            if op[1] is Imp and self.language == SDM_DM:
                raise ParseError("'->' is not part of the SDM/DM language", pos)
            while ops and ops[-1][0] >= op[0]:
                node, depth = _apply(ops.pop(), lefts.pop(), node, depth)
            lefts.append((node, depth))
            ops.append((op[0], op[1], pos))
        if opened:
            raise ParseError(f"expected ')', found {tok!r}", pos)
        while ops:
            node, depth = _apply(ops.pop(), lefts.pop(), node, depth)
        self.i = i
        return node

    def _atom(self, tok, pos: int):
        if tok == "F":
            return BOT, 0
        if tok == "T":
            return (Neg(BOT) if self.language == SDM_DM else Imp(BOT, BOT)), 1
        if tok is not None and (tok[0].isalpha() or tok[0] in "_#"):
            return _var_from_token(tok, pos, self.language), 0
        raise ParseError(f"expected a term, found {tok!r}", pos)

    def item(self, calculus: str):
        if self.peek() == "*":
            _, pos = self.take()
            if calculus != SDM:
                raise ParseError("starred structures occur only in SDM sequents", pos)
            return starred(self.term())
        t = self.term()
        return plain(t) if calculus == SDM else t

    def items(self, calculus: str, stop: tuple):
        out = []
        if self.peek() in stop:
            return out
        out.append(self.item(calculus))
        while self.peek() == ",":
            self.take()
            out.append(self.item(calculus))
        return out

    def end(self):
        tok, pos = self.take()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)


def _language_of(calculus: str) -> str:
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
    s = p.item(SDM)
    p.end()
    return s


def parse_sequent(text: str, calculus: str) -> Sequent:
    p = _Parser(text, _language_of(calculus))
    ants = p.items(calculus, stop=("=>",))
    p.expect("=>")
    succ = p.item(calculus)
    p.end()
    return sequent(calculus, ants, succ)


def parse_partition(text: str, calculus: str):
    """Parse "G1 ; G2 => b" into (left members, right members, succedent)."""
    p = _Parser(text, _language_of(calculus))
    left = p.items(calculus, stop=(";",))
    p.expect(";")
    right = p.items(calculus, stop=("=>",))
    p.expect("=>")
    succ = p.item(calculus)
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
    else:
        return n.bot
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

def term_to_obj(t: Term) -> dict:
    ty = type(t)
    if ty is Var:
        return {"op": "var", "name": t.name, "ns": t.ns}
    if ty is Neg:
        return {"op": "neg", "arg": term_to_obj(t.arg)}
    if ty is And:
        return {"op": "and", "left": term_to_obj(t.left), "right": term_to_obj(t.right)}
    if ty is Or:
        return {"op": "or", "left": term_to_obj(t.left), "right": term_to_obj(t.right)}
    if ty is Imp:
        return {"op": "imp", "left": term_to_obj(t.left), "right": term_to_obj(t.right)}
    return {"op": "bot"}


def term_from_obj(obj: dict) -> Term:
    """Inverse of term_to_obj; ValueError past MAX_NESTING nested connectives."""
    return _term_from_obj(obj, MAX_NESTING)


# The variable names, per namespace, that print_term writes as text that
# parse_term reads back as the same variable.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_NAMES = {BASE: _IDENT, PRIMED: _IDENT, DOUBLED: _IDENT,
              CLASS: re.compile(r"k[0-9]+")}


def _var_from_obj(obj: dict) -> Var:
    name, ns = obj["name"], obj.get("ns", BASE)
    names = _VAR_NAMES.get(ns) if isinstance(ns, str) else None
    if names is None:
        raise ValueError(f"unknown namespace {ns!r}")
    if (not isinstance(name, str) or not names.fullmatch(name)
            or (ns == BASE and name in ("T", "F"))):
        raise ValueError(f"malformed {ns} variable name {name!r}")
    return Var(name, ns)


def _term_from_obj(obj: dict, budget: int) -> Term:
    op = obj["op"]
    if op == "var":
        return _var_from_obj(obj)
    if op == "bot":
        return BOT
    if budget == 0:
        raise ValueError(f"term nested deeper than {MAX_NESTING} levels")
    if op == "neg":
        return Neg(_term_from_obj(obj["arg"], budget - 1))
    ctor = {"and": And, "or": Or, "imp": Imp}[op]
    return ctor(_term_from_obj(obj["left"], budget - 1),
                _term_from_obj(obj["right"], budget - 1))


def member_to_obj(m) -> dict:
    if isinstance(m, Struct):
        return {"star": m.star, "term": term_to_obj(m.term)}
    return {"star": False, "term": term_to_obj(m)}


def member_from_obj(obj: dict, calculus: str):
    t = term_from_obj(obj["term"])
    if calculus == SDM:
        return Struct(bool(obj.get("star", False)), t)
    if obj.get("star", False):
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
    if obj.get("schema", AST_SCHEMA) != AST_SCHEMA:
        raise ValueError(f"unsupported AST schema {obj.get('schema')!r}")
    calc = obj["calculus"]
    ants = [member_from_obj(m, calc) for m in obj["antecedent"]]
    succ = member_from_obj(obj["succedent"], calc)
    return sequent(calc, ants, succ)
