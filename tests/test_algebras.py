import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from morgankit import (
    BOT, TOP_ALG, And, ClassRegistry, FiniteAlgebra, Neg, Or, Struct, Var,
    check_embedding, check_variety, dm4, enumerate_algebras, evaluate,
    parse_sequent, print_sequent, print_term, refute, valid, variables,
)
from morgankit.algebras import UnassignedVariableError
from morgankit.corpus import CorpusConfig, generate_sequents

p, q = Var("p"), Var("q")

BOOL2 = FiniteAlgebra(
    2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), (1, 0))


def test_bool2_is_both_varieties():
    assert check_variety(BOOL2, "sdm")
    assert check_variety(BOOL2, "dm")


def test_dm4_tables():
    a = dm4()
    assert a.meet[1][2] == 0
    assert a.join[1][2] == 3
    assert a.neg == (3, 1, 2, 0)
    assert check_variety(a, "dm") and check_variety(a, "sdm")


def test_broken_involution_rejected():
    a = dm4()
    broken = FiniteAlgebra(4, a.join, a.meet, (3, 0, 2, 0))
    assert not check_variety(broken, "dm")


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, ((0, 1),), ((0, 0), (0, 1)), (1, 0))
    with pytest.raises(ValueError):
        FiniteAlgebra(2, ((0, 9), (1, 1)), ((0, 0), (0, 1)), (1, 0))


def test_evaluate_pins():
    a = dm4()
    assert evaluate(Neg(BOT), {}, a) == 3
    assert evaluate(Neg(And(p, q)), {"p": 1, "q": 2}, a) == 3
    assert evaluate(Or(p, Neg(p)), {"p": 1}, a) == 1
    with pytest.raises(UnassignedVariableError):
        evaluate(p, {}, a)


def test_valid_pins():
    a = dm4()
    assert valid(parse_sequent("p => p", "dm"), a)
    assert not valid(parse_sequent("p => ~p", "dm"), a)
    assert valid(parse_sequent("~(p & q) => ~p | ~q", "dm"), a)
    assert valid(parse_sequent("*p => ~p", "sdm"), a)


def test_enumeration_counts_and_membership():
    assert len(enumerate_algebras("dm", 2)) == 1
    dm_small = enumerate_algebras("dm", 4)
    d = dm4()
    relabellings = []
    for mids in itertools.permutations((1, 2)):
        new = (0, *mids, 3)                      # element a becomes new[a]
        old = sorted(range(4), key=new.__getitem__)
        relabellings.append(FiniteAlgebra(
            4,
            tuple(tuple(new[d.join[old[x]][old[y]]] for y in range(4)) for x in range(4)),
            tuple(tuple(new[d.meet[old[x]][old[y]]] for y in range(4)) for x in range(4)),
            tuple(new[d.neg[old[x]]] for x in range(4))))
    assert any(r in dm_small for r in relabellings)
    sdm3 = enumerate_algebras("sdm", 3)
    # the 3-chain with ~0=1 and ~m=~1=0 is SDM but not DM
    pseudo = [a for a in sdm3 if a.size == 3 and a.neg == (2, 0, 0)]
    assert len(pseudo) == 1
    assert not check_variety(pseudo[0], "dm")
    assert all(check_variety(a, "sdm") for a in sdm3)


def test_enumeration_caps():
    with pytest.raises(ValueError):
        enumerate_algebras("dm", 8)
    with pytest.raises(ValueError):
        enumerate_algebras("dm", 1)


def test_refute_pins():
    assert refute(parse_sequent("p => ~~p", "sdm"), "sdm", 3) is not None
    assert refute(parse_sequent("p => p", "sdm"), "sdm", 4) is None
    assert refute(parse_sequent("~(~p & ~q) => p | q", "sdm"), "sdm", 5) is not None
    alg, assignment = refute(parse_sequent("~~p => p", "sdm"), "sdm", 5)
    assert check_variety(alg, "sdm")
    lhs = evaluate(Neg(Neg(p)), assignment, alg)
    rhs = evaluate(p, assignment, alg)
    assert alg.meet[lhs][rhs] != lhs


def test_algebra_json_roundtrip():
    a = dm4()
    b = FiniteAlgebra.from_obj(a.to_obj())
    assert (b.size, b.join, b.meet, b.neg) == (a.size, a.join, a.meet, a.neg)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_evaluate_homomorphic_on_dm4(x, y, z):
    a = dm4()
    assign = {"p": x, "q": y, "r": z}
    r = Var("r")
    t1, t2 = And(p, Or(q, r)), Neg(And(p, q))
    assert evaluate(And(t1, t2), assign, a) == a.meet[evaluate(t1, assign, a)][evaluate(t2, assign, a)]
    assert evaluate(Or(t1, t2), assign, a) == a.join[evaluate(t1, assign, a)][evaluate(t2, assign, a)]
    assert evaluate(Neg(t1), assign, a) == a.neg[evaluate(t1, assign, a)]


# --- the enumeration, pinned ------------------------------------------------

# SHA-256 of repr([(size, join, meet, neg), ...]) over enumerate_algebras(v, 6),
# in enumeration order, as first computed by the per-candidate oracle that
# re-checked the lattice laws in every check_variety call.
ENUMERATION_SHA256 = {
    "sdm": "c23b2bad7c5e0733b27a6d3a353fa269d2f4fdcadf2fcde640430a445ca95101",
    "dm": "edbf4785f625dec7b38b89465a3d39d4858352b989062f0a9cc303b13432f662",
}


@pytest.mark.parametrize("variety,by_size,cumulative", [
    ("sdm", {2: 1, 3: 3, 4: 11, 5: 31, 6: 106}, {4: 15, 5: 46, 6: 152}),
    ("dm", {2: 1, 3: 1, 4: 3, 5: 1, 6: 4}, {4: 5, 5: 6, 6: 10}),
])
def test_enumeration_pinned_to_size_6(variety, by_size, cumulative):
    algs = enumerate_algebras(variety, 6)
    assert dict(Counter(a.size for a in algs)) == by_size
    for n, total in cumulative.items():
        assert len(enumerate_algebras(variety, n)) == total
        assert enumerate_algebras(variety, n) == algs[:total]
    assert all(check_variety(a, variety) for a in algs)
    digest = hashlib.sha256(
        repr([(a.size, a.join, a.meet, a.neg) for a in algs]).encode())
    assert digest.hexdigest() == ENUMERATION_SHA256[variety]


# The same digest over enumerate_algebras(v, 7), as first computed by the
# search over all orders on the middle elements with its size cap lifted.
ENUMERATION_7_SHA256 = {
    "sdm": "e75ae0901f70e847559783d3efd44591d9f1309a4aacad98364670483b18192b",
    "dm": "fcdaf608c58d8bfc2e4ed4fb13b374927c59f9920044b96723c705f46fbfb30c",
}


@pytest.mark.parametrize("variety,by_size", [
    ("sdm", {2: 1, 3: 3, 4: 11, 5: 31, 6: 106, 7: 335}),
    ("dm", {2: 1, 3: 1, 4: 3, 5: 1, 6: 4, 7: 2}),
])
def test_enumeration_pinned_to_size_7(variety, by_size):
    algs = enumerate_algebras(variety, 7)
    assert dict(Counter(a.size for a in algs)) == by_size
    assert algs[:sum(by_size.values()) - by_size[7]] == enumerate_algebras(variety, 6)
    assert all(check_variety(a, variety) for a in algs)
    digest = hashlib.sha256(
        repr([(a.size, a.join, a.meet, a.neg) for a in algs]).encode())
    assert digest.hexdigest() == ENUMERATION_7_SHA256[variety]


# --- valid, refute and the registry screen against a brute-force reference --

def _value(t, val, alg):
    if type(t) is Var:
        return val[t.name]
    if type(t) is Neg:
        return alg.neg[_value(t.arg, val, alg)]
    if type(t) is And:
        return alg.meet[_value(t.left, val, alg)][_value(t.right, val, alg)]
    if type(t) is Or:
        return alg.join[_value(t.left, val, alg)][_value(t.right, val, alg)]
    return alg.zero  # F


def _member_value(m, val, alg):
    if isinstance(m, Struct):
        v = _value(m.term, val, alg)
        return alg.neg[v] if m.star else v
    return _value(m, val, alg)


def _valuations(names, alg):
    for values in itertools.product(range(alg.size), repeat=len(names)):
        yield dict(zip(names, values))


def _brute_refute(s, algs):
    names = sorted({name for _, name in variables(s)})
    for alg in algs:
        for val in _valuations(names, alg):
            lhs = alg.one
            for m in s.antecedent:
                lhs = alg.meet[lhs][_member_value(m, val, alg)]
            rhs = _member_value(s.succedent, val, alg)
            if alg.meet[lhs][rhs] != lhs:
                return alg, val
    return None


@pytest.mark.parametrize("variety,seed", [("sdm", 41), ("dm", 42)])
def test_refute_and_valid_match_brute_force(variety, seed):
    algs = enumerate_algebras(variety, 4)
    refuted = 0
    for s in generate_sequents(variety, 400, CorpusConfig(seed=seed)):
        want = _brute_refute(s, algs)
        assert refute(s, variety, 4) == want, print_sequent(s)
        refuted += want is not None
        assert valid(s, dm4()) == (_brute_refute(s, [dm4()]) is None), \
            print_sequent(s)
    assert 0 < refuted < 400


def test_registry_screen_matches_brute_force():
    corpus = generate_sequents("sdm", 150, CorpusConfig(seed=43), max_weight=20)
    reg = ClassRegistry()
    check_embedding("sdm-to-int-k", corpus, registry=reg)
    # pinned from the screen when it kept its own assignment loop
    assert [(print_term(t), v.name) for t, v in reg.entries] == [
        ("~(~r & q)", "k0"), ("~(r & p & p)", "k1"),
        ("~(~q & (r & (r & p)))", "k2"), ("~((F | p | (q | q)) & q)", "k3"),
        ("~(p & q)", "k4"), ("~(r & q)", "k5"), ("~~(F | p)", "k6"),
        ("~~(r | p)", "k7"), ("~~(q | q)", "k8"),
        ("~((q | (r | q)) & (p | (r | p)))", "k9"),
        ("~(~p & (r & p) & p)", "k10"), ("~(p & (r | p))", "k11"),
        ("~((q | r) & ~p)", "k12"), ("~~(p | q)", "k13"),
        ("~~(r | F)", "k14"), ("~~(~r | q & F)", "k15"),
        ("~(r & ~q)", "k16"), ("~(~r & p)", "k17"),
    ]
    algs = enumerate_algebras("sdm", 4)
    terms = [t for t, _ in reg.entries] + [TOP_ALG, BOT]
    for a, b in itertools.combinations(terms, 2):
        names = sorted({n for _, n in variables(a) | variables(b)})
        want = any(_value(a, val, alg) != _value(b, val, alg)
                   for alg in algs for val in _valuations(names, alg))
        assert ClassRegistry._semantically_apart(a, b) == want, (a, b)


def test_finite_algebra_record():
    a = dm4()
    assert (a.zero, a.one) == (0, 3)
    assert BOOL2.one == 1
    assert a == FiniteAlgebra(4, a.join, a.meet, a.neg, 0, 3)
    assert hash(a) == hash(FiniteAlgebra(4, a.join, a.meet, a.neg, one=3))
    assert a != FiniteAlgebra(4, a.join, a.meet, (3, 2, 1, 0))
    assert repr(BOOL2) == (
        "FiniteAlgebra(size=2, join=((0, 1), (1, 1)), meet=((0, 0), (0, 1)), "
        "neg=(1, 0), zero=0, one=1)")
    with pytest.raises(AttributeError):
        a.one = 2
    with pytest.raises(ValueError, match="size x size"):
        FiniteAlgebra(2, BOOL2.join, ((0, 0), (0,)), (1, 0))
    with pytest.raises(ValueError, match="outside the carrier"):
        FiniteAlgebra(2, BOOL2.join, ((0, 0), (0, 2)), (1, 0))
    with pytest.raises(ValueError, match="negation table"):
        FiniteAlgebra(2, BOOL2.join, BOOL2.meet, (1,))
    with pytest.raises(ValueError, match="negation table"):
        FiniteAlgebra(2, BOOL2.join, BOOL2.meet, (1, -1))
