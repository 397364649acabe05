import gc
import sys
import threading

import pytest

from morgankit import (
    BOT, And, Imp, Neg, Or, SearchEngine, Struct, Term, Var, dm_weight,
    parse_term, sdm_weight, starred,
)
from morgankit import terms
from morgankit.corpus import CorpusConfig, generate_sequents

TERM_CLASSES = (Term, Var, type(BOT), Neg, And, Or, Imp, Struct)


def test_equal_terms_are_one_node():
    assert parse_term("p & ~q") is parse_term("p & ~q")
    t = parse_term("p & ~q")
    assert starred(t) is Struct(True, t)
    assert Struct(1, t) is starred(t) and Struct(1, t).star is True
    assert Var("p", "primed") is not Var("p")
    assert And(Var("p"), Var("q")) is not Or(Var("p"), Var("q"))
    assert type(BOT)() is BOT


def test_constructor_validation_kept():
    with pytest.raises(ValueError):
        Var("p", "nonsense")
    with pytest.raises(TypeError):
        Struct(True, "p")
    with pytest.raises(TypeError):
        Struct(False, starred(Var("p")))


def test_terms_define_no_eq_or_hash():
    for cls in TERM_CLASSES:
        for klass in cls.__mro__[:-1]:  # all but object
            assert "__eq__" not in vars(klass), klass
            assert "__hash__" not in vars(klass), klass
    t = parse_term("p | q")
    assert hash(t) == object.__hash__(t)


def test_weights_are_not_stored_on_nodes():
    t = parse_term("~(wa & wb) | ~~wc")
    assert sdm_weight(t) == 2 + (2 + 1 + 1 + 4) + (2 + 2 + 1)
    assert dm_weight(t) == 2 + (1 + 1 + 1 + 2) + (1 + 1 + 1)
    # a node holds its constructor fields and its sort key, nothing else
    assert Term.__slots__ == ("__weakref__", "_key")
    for node in (t, t.left, t.left.arg, t.right.arg, Var("wa"), BOT):
        slots = [s for c in type(node).__mro__ for s in getattr(c, "__slots__", ())]
        assert not hasattr(node, "__dict__")
        assert set(slots) <= {"__weakref__", "_key", "name", "ns", "arg", "left", "right"}
    assert not hasattr(terms, "_SDM_W") and not hasattr(terms, "_DM_W")
    with pytest.raises(TypeError):
        sdm_weight(Imp(Var("p"), BOT))


def test_intern_table_returns_to_its_size():
    gc.collect()
    before = len(terms._TABLE)
    engine = SearchEngine()
    for calc, seed in (("sdm", 3), ("int", 4)):
        cfg = CorpusConfig(seed=seed, max_depth=3)
        for s in generate_sequents(calc, 1500, cfg, max_weight=22):
            engine.derive(calc, s)
    del s
    grown = len(terms._TABLE)
    engine.reset()
    gc.collect()
    assert grown > before + 1000
    assert len(terms._TABLE) == before


def test_threads_share_one_node_per_term():
    # more threads than cores, and frequent switches, so that threads race
    # on the miss path; the names are fresh, so every first build misses
    texts = [f"(tv{i} | ~tw{i}) & ~(tx{i} & tv{i})" for i in range(300)]
    n = 8
    start = threading.Barrier(n)
    results = [None] * n

    def build(slot):
        start.wait()
        results[slot] = [parse_term(text) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for built in results[1:]:
        assert all(a is b for a, b in zip(results[0], built))


def test_records_are_not_member_collections():
    # Partition and Derivation subclass tuple; only plain tuples and lists
    # are read as collections of members.
    from morgankit import Partition, derive, parse_sequent, variables
    p = parse_term("p")
    part = Partition.of([starred(p)], [])
    d = derive("sdm", parse_sequent("p => p", "sdm"))
    assert sdm_weight((starred(p),)) == sdm_weight([starred(p)]) == sdm_weight(starred(p))
    for record in (part, d):
        with pytest.raises(TypeError):
            sdm_weight(record)
        with pytest.raises(TypeError):
            dm_weight(record)
        assert variables(record) == frozenset()



def test_variables_of_every_input_kind():
    from morgankit import parse_sequent, variables
    p, q, r = Var("p"), Var("q"), Var("r")
    alg = Neg(And(p, Or(q, BOT)))                       # ~, &, |
    imp = Imp(And(p, q), Or(Var("p", "primed"), BOT))   # ->, &, |
    sdm = parse_sequent("*~p, p & q => *(q | F)", "sdm")
    dm = parse_sequent("~(p | q), ~~r => p & ~F", "dm")
    int_ = parse_sequent("p -> q, p & (q | r) => (p -> F) -> F", "int")
    cl = parse_sequent("(p -> q) -> p => p | F", "cl")
    P, Q, R = ("base", "p"), ("base", "q"), ("base", "r")
    cases = [
        (p, {P}), (BOT, set()), (Var("k0", "class"), {("class", "k0")}),
        (alg, {P, Q}), (imp, {P, Q, ("primed", "p")}),
        (Struct(False, alg), {P, Q}), (starred(alg), {P, Q}),
        (starred(BOT), set()),
        (sdm, {P, Q}), (dm, {P, Q, R}), (int_, {P, Q, R}), (cl, {P, Q}),
        ((), set()), ([], set()),
        ((starred(p), alg), {P, Q}), ([imp, r], {P, Q, R, ("primed", "p")}),
        ([[starred(q)], [[alg, [p]]], ()], {P, Q}),
        ([sdm, (dm, [cl])], {P, Q, R}),
    ]
    for x, names in cases:
        assert variables(x) == frozenset(names), x


def test_sequent_replace_and_make_stay_canonical():
    from morgankit import Sequent, parse_sequent
    p, q = Var("p"), Var("q")
    s = parse_sequent("p, q => p", "dm")
    swapped = s._replace(antecedent=(q, p))
    assert swapped == s and swapped.antecedent == (p, q)
    assert Sequent._make(("dm", [q, p], p)) == s


def test_sequent_replace_checks_the_members():
    # _replace goes through sequent(): bare terms become plain SDM members,
    # and a starred member is no INT member
    from morgankit import derivable, parse_sequent
    s = parse_sequent("p => p", "dm")._replace(calculus="sdm")
    assert s == parse_sequent("p => p", "sdm") and derivable("sdm", s)
    with pytest.raises(ValueError, match="int sequents carry no starred members"):
        parse_sequent("*p => p", "sdm")._replace(calculus="int")
    with pytest.raises(ValueError, match="unknown calculus"):
        parse_sequent("p => p", "dm")._replace(calculus="g3dm")


_NS_RANK = {"base": 0, "primed": 1, "doubled": 2, "class": 3}
_RANK = {And: 3, Or: 4, Imp: 5}


def _reference_key(x):
    """The canonical sort key, recomputed from the node's structure."""
    if isinstance(x, Struct):
        return (1 if x.star else 0, _reference_key(x.term))
    if type(x) is Var:
        return (0, _NS_RANK[x.ns], x.name)
    if x is BOT:
        return (1,)
    if type(x) is Neg:
        return (2, _reference_key(x.arg))
    return (_RANK[type(x)], _reference_key(x.left), _reference_key(x.right))


def _subterms(t):
    yield t
    if type(t) is Neg:
        yield from _subterms(t.arg)
    elif type(t) in _RANK:
        yield from _subterms(t.left)
        yield from _subterms(t.right)


def test_keys_match_recursive_reference():
    import random
    from morgankit.corpus import random_term
    cfg = CorpusConfig(seed=0, max_depth=5, variables=("p", "q", "r"))
    rng = random.Random(31)
    for imp in (False, True):
        for _ in range(400):
            t = random_term(rng, cfg, imp=imp)
            for x in _subterms(t):
                assert x.key() == _reference_key(x)
            if not imp:
                for st in (Struct(False, t), starred(t)):
                    assert st.key() == _reference_key(st)
    for calc in ("sdm", "dm", "int", "cl"):
        for s in generate_sequents(calc, 200, CorpusConfig(seed=32)):
            keys = [_reference_key(m) for m in s.antecedent]
            assert keys == sorted(keys)
    for ns in _NS_RANK:
        v = Var("kv", ns)
        assert v.key() == _reference_key(v)


def test_parsed_nodes_carry_their_key():
    # fresh names, so every node below is built by this parse
    t = parse_term("~(ka & ~kb) | ((kc & F) | ~~ka)")
    for x in _subterms(t):
        assert x._key is not None and x._key == _reference_key(x)
    from morgankit import parse_sequent
    s = parse_sequent("*(kd | ke), ~kf => *~(kd & kg)", "sdm")
    for m in s.antecedent + (s.succedent,):
        assert m._key is not None and m._key == _reference_key(m)


def test_constructors_and_translations_reject_non_terms():
    from morgankit import (
        Partition, derive, double_negate, f_godel_gentzen,
        g_glivenko, parse_sequent, sequent, t_flatten,
    )
    p = Var("p")
    s = parse_sequent("p => p", "sdm")
    for build in (lambda: Neg(3), lambda: Neg("abc"), lambda: Neg(starred(p)),
                  lambda: Neg(s), lambda: And(p, "q"), lambda: Or(None, p),
                  lambda: Imp(p, starred(p)), lambda: Var(3), lambda: Var(None, "primed")):
        with pytest.raises(TypeError):
            build()
    d = derive("sdm", s)
    part = Partition.of([starred(p)], [])
    for fn, arg in ((g_glivenko, ["x"]), (g_glivenko, d), (double_negate, [s]),
                    (double_negate, d), (double_negate, "p"), (t_flatten, d),
                    (t_flatten, part), (t_flatten, [s, "q"]), (t_flatten, 3),
                    (f_godel_gentzen, d), (f_godel_gentzen, part), (f_godel_gentzen, s)):
        with pytest.raises(TypeError):
            fn(arg)
    for calc, ants, succ in (("dm", [], 5), ("int", [5], p)):
        with pytest.raises(TypeError):
            sequent(calc, ants, succ)
    # a non-term never reads as F
    from morgankit import dm4, evaluate, print_term
    from morgankit.syntax import term_to_obj
    from morgankit.translations import h_to_cl, translate
    for fn in (lambda: print_term(5), lambda: print_term(starred(p)),
               lambda: term_to_obj(starred(p)), lambda: evaluate(starred(p), {"p": 1}, dm4()),
               lambda: h_to_cl(5), lambda: translate("h", 5), lambda: dm_weight(s)):
        with pytest.raises(TypeError):
            fn()
    # the domain itself is unchanged
    assert t_flatten(s) is p and t_flatten([Struct(False, p)]) is p
    assert double_negate([p]) == (Neg(Neg(p)),) and g_glivenko((p,)) == (Imp(Imp(p, BOT), BOT),)
    assert f_godel_gentzen([]) is Neg(BOT) and t_flatten(starred(p)) is Neg(p)


def test_language_and_tag_checks():
    from morgankit import (
        ClassRegistry, check_derivation_report, derive, f_godel_gentzen,
        k_to_int, parse_sequent, sequent,
    )
    from morgankit.syntax import sequent_from_obj, sequent_to_obj, term_to_obj
    p, q = Var("p"), Var("q")
    for calc, ants, succ, message in (
            ("sdm", [Imp(p, q)], p, "SDM sequents use the algebraic language"),
            ("dm", [], Imp(p, q), "term outside the dm language"),
            ("int", [Neg(p)], p, "term outside the int language"),
            ("dm", [starred(p)], p, "dm sequents carry no starred members"),
            ("xx", [], p, "unknown calculus 'xx'")):
        with pytest.raises(ValueError) as err:
            sequent(calc, ants, succ)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="k is defined on the algebraic language"):
        k_to_int(Imp(p, q), ClassRegistry())
    with pytest.raises(ValueError, match="f is defined on the algebraic language"):
        f_godel_gentzen(Imp(p, q))
    obj = sequent_to_obj(parse_sequent("p => q", "dm"))
    obj["succedent"]["term"] = term_to_obj(Imp(p, q))
    with pytest.raises(ValueError) as err:
        sequent_from_obj(obj)
    assert str(err.value) == "term outside the dm language"
    d = derive("sdm", parse_sequent("p => p", "sdm"))
    assert check_derivation_report("dm", d) == (False, "derivation: sequent tagged sdm, expected dm")
