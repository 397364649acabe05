import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from morgankit import (
    BOT, And, FiniteAlgebra, Imp, Neg, Or, SearchEngine, Var,
    NamespaceError, ParseError,
    check_derivation, dm4, dm_weight, parse_sequent,
    parse_term, plain, print_sequent, print_structure, print_term,
    proof_from_obj, proof_to_obj, sdm_weight, sequent, starred,
    sequent_from_obj, sequent_to_obj, term_from_obj, term_to_obj,
)
from morgankit.syntax import (
    INT_CL, MAX_NESTING, SDM_DM, member_from_obj, parse_partition,
    parse_structure,
)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_precedence_and_negation():
    assert parse_term("~(p & q)") == Neg(And(p, q))
    assert parse_term("p & q | r") == Or(And(p, q), r)
    assert parse_term("~~p") == Neg(Neg(p))
    assert parse_term("p & q & r") == And(And(p, q), r)


def test_top_is_notation():
    assert parse_term("T") == Neg(BOT)
    assert parse_term("T", INT_CL) == Imp(BOT, BOT)
    assert parse_term("~p", INT_CL) == Imp(p, BOT)


def test_arrow_left_associative_int_only():
    assert parse_term("p -> q -> r", INT_CL) == Imp(Imp(p, q), r)
    with pytest.raises(ParseError):
        parse_term("p -> q", SDM_DM)


def test_namespace_reserved_in_sdm_dm():
    assert parse_term("p'", INT_CL) == Var("p", "primed")
    assert parse_term("p''", INT_CL) == Var("p", "doubled")
    assert parse_term("#k3", INT_CL) == Var("k3", "class")
    for bad in ("p'", "p''", "#k0"):
        with pytest.raises(NamespaceError):
            parse_term(bad, SDM_DM)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_term("p & & q")
    assert e.value.position == 4


def test_print_examples():
    assert print_term(Neg(Neg(p))) == "~~p"
    assert print_term(And(p, Or(q, r))) == "p & (q | r)"
    assert print_term(Imp(p, BOT)) == "p -> F"
    assert print_term(Or(And(p, q), r)) == "p & q | r"


def test_sequent_parse_and_stars():
    s = parse_sequent("*p, q => *~(p & q)", "sdm")
    assert s.antecedent == (plain(q), starred(p))
    assert s.succedent == starred(Neg(And(p, q)))
    with pytest.raises(ParseError):
        parse_sequent("*p => q", "dm")


def test_partition_parsing():
    left, right, succ = parse_partition("p, q ; r => p", "sdm")
    assert left == (plain(p), plain(q))
    assert right == (plain(r),)
    assert succ == plain(p)
    left, right, succ = parse_partition("; p => p", "dm")
    assert left == ()


def test_sdm_weight_clauses():
    assert sdm_weight(p) == 1
    assert sdm_weight(BOT) == 1
    assert sdm_weight(Neg(p)) == 3
    assert sdm_weight(starred(Or(p, q))) == 5
    assert sdm_weight(Or(p, q)) == 4
    # conjunctions carry the extra unit that keeps every rule weight-decreasing
    assert sdm_weight(And(p, q)) == 6
    assert sdm_weight(parse_sequent("p, *q => r", "sdm")) == 4


def test_dm_weight_clauses():
    assert dm_weight(Neg(p)) == 2
    assert dm_weight(Neg(And(p, q))) == 5
    assert dm_weight(parse_sequent("p => p", "dm")) == 2


def test_canonical_form_examples():
    s = parse_sequent("q, p => r", "sdm")
    assert [m.term for m in s.antecedent] == [p, q]
    dup = parse_sequent("p, p => q", "sdm")
    assert len(dup.antecedent) == 2
    mixed = parse_sequent("*p, p => q", "sdm")
    assert mixed.antecedent == (plain(p), starred(p))


def test_multiset_equality():
    assert parse_sequent("q, p => r", "dm") == parse_sequent("p, q => r", "dm")
    assert parse_sequent("p, p => r", "dm") != parse_sequent("p => r", "dm")


# --- property tests ------------------------------------------------------

_names = st.sampled_from(["p", "q", "r", "s1"])


def _alg_terms(max_depth=4):
    return st.recursive(
        st.one_of(_names.map(Var), st.just(BOT)),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        ),
        max_leaves=8,
    )


def _imp_terms():
    return st.recursive(
        st.one_of(_names.map(Var), st.just(BOT),
                  _names.map(lambda n: Var(n, "primed"))),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Imp(*t)),
        ),
        max_leaves=8,
    )


@given(_alg_terms())
def test_roundtrip_alg_terms(t):
    assert parse_term(print_term(t), SDM_DM) == t


@given(_imp_terms())
def test_roundtrip_imp_terms(t):
    assert parse_term(print_term(t), INT_CL) == t


@given(_alg_terms())
def test_weights_positive(t):
    assert sdm_weight(t) >= 1
    assert dm_weight(t) >= 1


@st.composite
def _sdm_sequents(draw):
    members = draw(st.lists(
        st.tuples(st.booleans(), _alg_terms()), max_size=4))
    succ = draw(st.tuples(st.booleans(), _alg_terms()))
    mk = lambda pair: starred(pair[1]) if pair[0] else plain(pair[1])
    return sequent("sdm", [mk(m) for m in members], mk(succ))


@given(_sdm_sequents(), st.randoms())
def test_canonical_form_idempotent_and_permutation_invariant(s, rng):
    shuffled = list(s.antecedent)
    rng.shuffle(shuffled)
    assert sequent("sdm", shuffled, s.succedent) == s


@st.composite
def _sequents(draw):
    calc = draw(st.sampled_from(["sdm", "dm", "int", "cl"]))
    if calc == "sdm":
        return draw(_sdm_sequents())
    terms = _alg_terms() if calc == "dm" else _imp_terms()
    return sequent(calc, draw(st.lists(terms, max_size=4)), draw(terms))


@given(_sequents())
def test_roundtrip_sequents(s):
    assert parse_sequent(print_sequent(s), s.calculus) == s


@given(_sequents(), st.randoms())
def test_roundtrip_partitions(s, rng):
    members = list(s.antecedent)
    rng.shuffle(members)
    cut = rng.randrange(len(members) + 1)
    left, right = members[:cut], members[cut:]
    text = "{} ; {} => {}".format(
        ", ".join(map(print_structure, left)),
        ", ".join(map(print_structure, right)),
        print_structure(s.succedent))
    got_left, got_right, succ = parse_partition(text, s.calculus)
    assert Counter(got_left) == Counter(left)
    assert Counter(got_right) == Counter(right)
    assert succ is s.succedent


@pytest.mark.parametrize("calc", ["SDM", "bogus"])
def test_unknown_calculus_rejected_before_parsing(calc):
    for parse, text in ((parse_sequent, "p => q"), (parse_partition, "p ; q => r"),
                        (parse_partition, "p @ q")):
        with pytest.raises(ValueError) as e:
            parse(text, calc)
        assert type(e.value) is ValueError
        assert str(e.value) == f"unknown calculus {calc!r}"


@given(_sdm_sequents())
def test_weight_monotone_under_weakening(s):
    bigger = sequent("sdm", list(s.antecedent) + [plain(p)], s.succedent)
    assert sdm_weight(bigger) > sdm_weight(s)


@given(_sdm_sequents())
def test_sequent_json_roundtrip(s):
    obj = json.loads(json.dumps(sequent_to_obj(s)))
    assert sequent_from_obj(obj) == s


@pytest.mark.parametrize("antecedent", [{}, "", {"a": 1}, 5])
def test_sequent_from_obj_requires_an_antecedent_list(antecedent):
    obj = sequent_to_obj(parse_sequent("=> ~F", "dm"))
    obj["antecedent"] = antecedent
    kind = {dict: "an object", str: "a string", int: "an int"}[type(antecedent)]
    with pytest.raises(ValueError) as e:
        sequent_from_obj(obj)
    assert str(e.value) == f"key 'antecedent' holds {kind}, not a list"


@given(_imp_terms())
def test_term_json_roundtrip(t):
    assert term_from_obj(json.loads(json.dumps(term_to_obj(t)))) == t


# --- malformed JSON: every decoder returns or raises ValueError ---------------

_JSON_KEYS = st.sampled_from([
    "op", "name", "ns", "arg", "left", "right", "star", "term", "schema",
    "calculus", "antecedent", "succedent", "derivation", "sequent", "rule",
    "principal", "height", "premisses", "size", "order", "neg", "zero", "one"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["var", "bot", "neg", "and", "xor", "sdm", "dm", "int", "base"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_JSON_KEYS | st.text(max_size=2), inner, max_size=4)),
    max_leaves=12)

_ALGEBRA = dm4().to_obj()
_SEQUENT = sequent_to_obj(parse_sequent("*p, ~q & r => *~(p | q)", "sdm"))
_VALID = [
    (term_from_obj, term_to_obj(Imp(Or(Neg(p), And(q, Var("k1", "class"))), BOT))),
    (sequent_from_obj, _SEQUENT),
    (sequent_from_obj, sequent_to_obj(parse_sequent("p -> q, p => q", "int"))),
    *((proof_from_obj, proof_to_obj(SearchEngine().derive(calc, parse_sequent(text, calc))))
      for calc, text in (("sdm", "~~~p => ~p"), ("dm", "p & q => q | r"))),
    (FiniteAlgebra.from_obj, _ALGEBRA),
]


def _key_paths(x, path=()):
    """The path to every key of every object inside the JSON value x."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _key_paths(v, path + (i,))


@st.composite
def _spoiled(draw, valid):
    """valid with one key, at any depth, deleted or given a value of another
    JSON type."""
    obj = json.loads(json.dumps(valid))
    *path, key = draw(st.sampled_from(list(_key_paths(obj))))
    node = obj
    for step in path:
        node = node[step]
    old = node.pop(key)
    if draw(st.booleans()):
        node[key] = draw(_JSON.filter(lambda v: type(v) is not type(old)))
    return obj


@settings(max_examples=400)
@given(st.one_of(
    *(st.tuples(st.just(decode), _JSON | _spoiled(obj)) for decode, obj in _VALID),
    st.tuples(st.just(FiniteAlgebra.from_obj),
              st.integers().map(lambda n: {**_ALGEBRA, "size": n}))))
@example((term_from_obj, {"op": "xor"}))
@example((sequent_from_obj, {**_SEQUENT, "antecedent": [5]}))
@example((sequent_from_obj, []))
@example((FiniteAlgebra.from_obj, {**_ALGEBRA, "size": "4"}))
def test_decoders_raise_only_value_error(case):
    decode, obj = case
    try:
        decode(obj)
    except ValueError:
        pass


# --- the nesting limit ---------------------------------------------------------

def _negated(n, atom="p"):
    return "~" * n + atom


def test_parse_nesting_limit():
    with pytest.raises(ParseError) as e:
        parse_term(_negated(MAX_NESTING + 1))
    assert e.value.position == 0  # the outermost ~ is the one too deep
    with pytest.raises(ParseError) as e:
        parse_term("p" + " & p" * (MAX_NESTING + 1), INT_CL)
    assert e.value.position == 4 * MAX_NESTING + 2
    with pytest.raises(ParseError):
        parse_term("(" * (MAX_NESTING + 1) + "p" + " | p)" * (MAX_NESTING + 1))
    # parentheses alone add no depth and cost no recursion
    assert parse_term("(" * 5000 + "p" + ")" * 5000) is p


def test_term_from_obj_nesting_limit():
    obj = {"op": "var", "name": "p"}
    for _ in range(MAX_NESTING):
        obj = {"op": "neg", "arg": obj}
    assert term_from_obj(obj) is parse_term(_negated(MAX_NESTING))
    with pytest.raises(ValueError, match="nested deeper"):
        term_from_obj({"op": "and", "left": {"op": "bot"}, "right": obj})


def test_term_at_the_limit_is_usable():
    t = parse_term(_negated(MAX_NESTING))
    assert print_term(t) == _negated(MAX_NESTING)
    assert sdm_weight(t) == 1 + 2 * MAX_NESTING
    assert dm_weight(t) == 1 + MAX_NESTING
    assert term_from_obj(term_to_obj(t)) is t
    eng = SearchEngine()
    for calc, text in (("sdm", f"{print_term(t)} => {print_term(t)}"),
                       ("dm", f"{print_term(t)} => p")):
        goal = parse_sequent(text, calc)
        d = eng.derive(calc, goal)
        assert d is not None and check_derivation(calc, d)
        assert proof_from_obj(proof_to_obj(d)).sequent == goal


# --- variable names in morgan-kit/ast/v1 --------------------------------------

# (name, ns) pairs that print as text parse_term cannot read back as the same
# variable, or that are not strings at all
BAD_VAR_NAMES = [
    (5, "base"), ("p q", "base"), ("=>", "base"), ("", "base"), ("F", "base"),
    ("T", "base"), ("1p", "primed"), ("p'", "doubled"), ("4", "class"),
    ("kx", "class"), (None, "base"),
]


@pytest.mark.parametrize("name,ns", BAD_VAR_NAMES)
def test_term_from_obj_rejects_malformed_names(name, ns):
    with pytest.raises(ValueError, match="variable name"):
        term_from_obj({"op": "var", "name": name, "ns": ns})


def test_member_star_is_a_json_boolean():
    term = {"op": "var", "name": "p"}
    for star in ("no", "true", 1, 0, None, []):
        for calc in ("sdm", "dm"):
            with pytest.raises(ValueError, match="key 'star'"):
                member_from_obj({"star": star, "term": term}, calc)
    assert member_from_obj({"term": term}, "sdm") is plain(p)
    assert member_from_obj({"star": False, "term": term}, "dm") is p
    assert member_from_obj({"star": True, "term": term}, "sdm") is starred(p)
    with pytest.raises(ValueError, match="starred member in a dm sequent"):
        member_from_obj({"star": True, "term": term}, "dm")


_IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)


@given(st.one_of(
    st.tuples(_IDENTS.filter(lambda n: n not in ("T", "F")), st.just("base")),
    st.tuples(_IDENTS, st.sampled_from(["primed", "doubled"])),
    st.tuples(st.from_regex(r"k[0-9]+", fullmatch=True), st.just("class")),
))
@example(("T", "primed"))
@example(("F", "doubled"))
def test_accepted_var_names_roundtrip(pair):
    name, ns = pair
    v = term_from_obj({"op": "var", "name": name, "ns": ns})
    assert v is Var(name, ns)
    assert parse_term(print_term(v), INT_CL) is v


# --- pinned parser behaviour ----------------------------------------------------

# Seeded texts for the parser-behaviour digest: grammar-generated sequents,
# partitions and terms in either language, the same with one token dropped or
# inserted, random token soup with stray characters, and nesting at and past
# MAX_NESTING.
_SOUP = ["p", "q", "r", "x1", "_y", "T", "F", "p'", "q''", "#k2",
         "~", "~", "&", "|", "->", "(", ")", "*", ",", ";", "=>",
         "@", "-", "'", "#k", "=", "1", "pq'''", "#k0x", "\t", ""]
_ALG = (["p", "q", "r", "x1", "_y", "T", "F"], [" & ", "&", " | ", "|"])
_IMP = (_ALG[0] + ["p'", "q''", "#k2"], _ALG[1] + [" -> ", "->"])


def _term_text(rng, lang, depth):
    atoms, ops = lang
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    k = rng.randrange(5)
    if k == 0:
        return "~" + _term_text(rng, lang, depth - 1)
    if k == 1:
        return "(" + _term_text(rng, lang, depth - 1) + ")"
    return (_term_text(rng, lang, depth - 1) + rng.choice(ops)
            + _term_text(rng, lang, depth - 1))


def _member_text(rng, lang):
    star = "*" if rng.random() < (0.25 if lang is _ALG else 0.02) else ""
    return star + _term_text(rng, lang, rng.randrange(5))


def _members_text(rng, lang):
    return ", ".join(_member_text(rng, lang) for _ in range(rng.randrange(4)))


def _grammar_text(rng):
    lang = rng.choice([_ALG, _IMP])
    k = rng.randrange(3)
    if k == 0:
        return _term_text(rng, lang, rng.randrange(6))
    succ = _member_text(rng, lang)
    if k == 1:
        return f"{_members_text(rng, lang)} => {succ}"
    return f"{_members_text(rng, lang)} ; {_members_text(rng, lang)} => {succ}"


def _mutated(rng, text):
    toks = text.split(" ")
    i = rng.randrange(len(toks) + 1)
    if rng.random() < 0.5 and toks:
        del toks[min(i, len(toks) - 1)]
    else:
        toks.insert(i, rng.choice(_SOUP))
    return " ".join(toks)


def _soup(rng):
    sep = rng.choice(["", " ", "  "])
    return sep.join(rng.choice(_SOUP) for _ in range(rng.randrange(1, 12)))


def _nesting_texts():
    for d in (255, 256, 300):
        yield "~" * d + "p"
        yield "~" * d + "T"
        yield "p" + " & p" * d
        yield "p" + " -> q" * d
        yield "(" * d + "p" + " | p)" * d
        yield "~" * d + "p => p"
        yield "~" * (d - 1) + "(p & q) ; p => *" + "~" * d + "q"


def _pinned_texts(count=20000, seed=2024):
    rng = random.Random(seed)
    yield from _nesting_texts()
    for _ in range(count):
        k = rng.randrange(3)
        if k == 0:
            yield _grammar_text(rng)
        elif k == 1:
            yield _mutated(rng, _grammar_text(rng))
        else:
            yield _soup(rng)


_PARSERS = [("term/" + lang, lambda t, lang=lang: parse_term(t, lang))
            for lang in (SDM_DM, INT_CL)]
_PARSERS.append(("structure", parse_structure))
for _calc in ("sdm", "dm", "int", "cl"):
    _PARSERS.append(("sequent/" + _calc, lambda t, c=_calc: parse_sequent(t, c)))
    _PARSERS.append(("partition/" + _calc, lambda t, c=_calc: parse_partition(t, c)))


def test_parser_behaviour_pinned_by_digest():
    # every parser on every text: the repr of the result, or the type and
    # message (with its position) of the exception
    h = hashlib.sha256()
    parsed = 0
    for text in _pinned_texts():
        for name, parse in _PARSERS:
            try:
                out = repr(parse(text))
                parsed += 1
            except Exception as e:
                out = f"{type(e).__name__}: {e}"
            h.update(f"{name}\t{text!r}\t{out}\n".encode())
    assert parsed == 18345
    assert h.hexdigest() == (
        "2541cb674beeaaa20460c90247081728fadaa966944e23c7f1e3b521db816622")


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_SOUP)).map(" ".join)))
def test_any_text_parses_or_raises_parse_error(text):
    for _, parse in _PARSERS:
        try:
            parse(text)
        except ParseError:
            pass
