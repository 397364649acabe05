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


def test_weights_cached_on_nodes():
    t = parse_term("~(wa & wb) | ~~wc")  # variables no other test uses
    assert t._sw is None and t._dw is None
    assert sdm_weight(t) == 2 + (2 + 1 + 1 + 4) + (2 + 2 + 1)
    assert dm_weight(t) == 2 + (1 + 1 + 1 + 2) + (1 + 1 + 1)
    assert (t._sw, t._dw) == (sdm_weight(t), dm_weight(t))
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
