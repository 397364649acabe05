import hashlib

import pytest

from morgankit import (
    BOT, Derivation, Neg, Or, SearchEngine, Var,
    all_partitions, check_derivation, derive, expand, interpolate,
    parse_partition, parse_sequent, plain, print_sequent, print_structure,
    sequent, starred, t_flatten, verify_interpolant, Partition,
    PartitionMismatchError,
)
from morgankit.calculi import STAR_FAMILY
from morgankit.corpus import CorpusConfig, derivable_corpus

p, q = Var("p"), Var("q")


def test_identity_partitions():
    s = parse_sequent("p, q => p", "sdm")
    d = derive("sdm", s)
    r = interpolate("sdm", d, Partition.of([plain(p)], [plain(q)]))
    assert r.interpolant == plain(p)
    r = interpolate("sdm", d, Partition.of([plain(q)], [plain(p)]))
    assert r.interpolant == starred(BOT)


def test_star_rule_partitions():
    # search closes starred succedents with the star family, so the ``*``
    # derivation is built by hand: ``*`` over the SDM axiom p => p
    s = parse_sequent("*p => *p", "sdm")
    assert derive("sdm", s).rule == "*1"
    (star,) = [i for i in expand(s) if i.label == "*"]
    (premiss,) = star.premisses
    axiom = Derivation(premiss, "Id", None, (), 0)
    d = Derivation(s, "*", star.principal, (axiom,), 1)
    assert check_derivation("sdm", d)
    r = interpolate("sdm", d, Partition.of([starred(p)], []))
    assert r.interpolant == starred(p)
    r = interpolate("sdm", d, Partition.of([], [starred(p)]))
    assert r.interpolant == starred(BOT)


def test_star_family_partitions():
    q, r = Var("q"), Var("r")
    s = parse_sequent("*q, *r => *(p & (q | r))", "sdm")
    d = derive("sdm", s)
    assert d.rule == "*n"
    for part in all_partitions(s):
        r_ = interpolate("sdm", d, part)
        assert r_.interpolant.star
        assert verify_interpolant("sdm", s, part, r_.interpolant)
    # q on the left, r on the right: the left disjunct's branch gives q
    split = interpolate("sdm", d, Partition.of([starred(q)], [starred(r)]))
    assert split.interpolant == starred(Or(q, BOT))
    s0 = parse_sequent("p => *(F & r)", "sdm")
    d0 = derive("sdm", s0)
    assert d0.rule == "*0"
    assert interpolate("sdm", d0, Partition.of([plain(p)], [])).interpolant == starred(BOT)


def test_all_partitions_verify_star_family():
    # starred members under ~~ send the star rule's SDM premiss past what
    # SDM derives, so these goals need the star family
    import random
    from morgankit import sequent
    from morgankit.corpus import random_term
    eng = SearchEngine()
    rng = random.Random(23)
    cfg = CorpusConfig(seed=23, max_depth=2)

    def rules(d):
        return {d.rule}.union(*(rules(c) for c in d.children))

    corpus = []
    while len(corpus) < 40:
        ants = [starred(Neg(Neg(random_term(rng, cfg)))) if rng.random() < 0.4
                else starred(random_term(rng, cfg)) for _ in range(rng.randint(0, 3))]
        s = sequent("sdm", ants, starred(random_term(rng, cfg)))
        d = eng.derive("sdm", s)
        if d is not None and rules(d) & STAR_FAMILY:
            corpus.append(s)
    _exhaustive_partition_check("sdm", corpus, eng)


def test_verify_conditions():
    s = parse_sequent("p, q => p", "sdm")
    part = Partition.of([plain(p)], [plain(q)])
    assert verify_interpolant("sdm", s, part, plain(p))
    # q is not in the left part's vocabulary
    assert not verify_interpolant("sdm", s, part, plain(q))
    top_part = Partition.of([], [plain(p)])
    s2 = parse_sequent("p => p", "sdm")
    assert verify_interpolant("sdm", s2, top_part, starred(BOT))



def test_verify_rejects_a_candidate_that_is_not_a_term():
    for calc in ("sdm", "dm"):
        s = parse_sequent("p, q => p", calc)
        part = Partition.of([s.antecedent[0]], [s.antecedent[1]])
        for candidate in (5, "p", None):
            assert verify_interpolant(calc, s, part, candidate) is False

def test_partition_must_match():
    s = parse_sequent("p, q => p", "sdm")
    d = derive("sdm", s)
    with pytest.raises(PartitionMismatchError):
        interpolate("sdm", d, Partition.of([plain(p)], []))
    assert not verify_interpolant(
        "sdm", s, Partition.of([plain(p)], []), plain(p))
    # members that are not structures, and members that are not even terms
    for left, right in (([p], [q]), (["p"], ["q"])):
        with pytest.raises(PartitionMismatchError):
            interpolate("sdm", d, Partition.of(left, right))
        assert not verify_interpolant("sdm", s, Partition.of(left, right), plain(p))


def test_derivation_must_check():
    s = parse_sequent("p, q => p", "sdm")
    d = derive("sdm", s)
    from morgankit import Derivation
    bad = Derivation(d.sequent, d.rule, d.principal, d.children, d.height + 1)
    with pytest.raises(ValueError):
        interpolate("sdm", bad, Partition.of([plain(p)], [plain(q)]))


def test_dm_axiom_sides():
    s = parse_sequent("~p, q => ~p", "dm")
    d = derive("dm", s)
    r = interpolate("dm", d, Partition.of([Neg(p)], [q]))
    assert r.interpolant == Neg(p)
    r = interpolate("dm", d, Partition.of([q], [Neg(p)]))
    assert r.interpolant == Neg(BOT)


def _exhaustive_partition_check(calc, corpus, eng):
    for s in corpus:
        d = eng.derive(calc, s)
        for part in all_partitions(s):
            r = interpolate(calc, d, part, engine=eng)
            assert verify_interpolant(calc, s, part, r.interpolant, engine=eng), \
                (print_sequent(s), part)
            if calc == "sdm":
                flat = plain(t_flatten(r.interpolant))
                assert verify_interpolant(calc, s, part, flat, engine=eng)


def test_all_partitions_verify_sdm():
    eng = SearchEngine()
    cfg = CorpusConfig(seed=21, max_depth=2, max_antecedent=3)
    corpus = derivable_corpus("sdm", 30, cfg, max_weight=18, engine=eng)
    _exhaustive_partition_check("sdm", corpus, eng)


def test_all_partitions_verify_dm():
    eng = SearchEngine()
    cfg = CorpusConfig(seed=22, max_depth=2, max_antecedent=3)
    corpus = derivable_corpus("dm", 30, cfg, max_weight=16, engine=eng)
    _exhaustive_partition_check("dm", corpus, eng)


def test_deterministic():
    eng = SearchEngine()
    s = parse_sequent("*q, r, p => *(p & q)", "sdm")
    d = eng.derive("sdm", s)
    for part in all_partitions(s):
        a = interpolate("sdm", d, part, engine=eng).interpolant
        b = interpolate("sdm", d, part, engine=eng).interpolant
        assert a == b


def test_interpolation_rejects_int():
    s = parse_sequent("p => p", "int")
    d = derive("int", s)
    with pytest.raises(ValueError):
        interpolate("int", d, Partition.of([p], []))


def test_verify_accepts_top_for_empty_left():
    from morgankit import TOP_ALG
    s = parse_sequent("p => p", "sdm")
    part = Partition.of([], [plain(Var("p"))])
    assert verify_interpolant("sdm", s, part, plain(TOP_ALG))
    assert verify_interpolant("sdm", s, part, starred(BOT))


# --- interpolants pinned across refactors of the side bookkeeping ---------

# Duplicated members split across the partition: among equal members the
# left copies come first, and that decides which occurrence is principal.
@pytest.mark.parametrize("calc, text, want", [
    ("sdm", "*p ; *p => *p", "*p"),
    ("sdm", "p & q ; p & q => p", "p"),
    ("dm", "p | q ; p | q => p | q", "p & p | ~F & q"),
    ("sdm", "p, q ; r => p", "p"),
])
def test_tie_rule_pins(calc, text, want):
    left, right, succ = parse_partition(text, calc)
    d = derive(calc, sequent(calc, left + right, succ))
    r = interpolate(calc, d, Partition.of(left, right))
    assert print_structure(r.interpolant) == want


def _interpolant_lines(calc, cfg, count, max_weight, eng):
    out = []
    for s in derivable_corpus(calc, count, cfg, max_weight=max_weight, engine=eng):
        d = eng.derive(calc, s)
        for part in all_partitions(s):
            r = interpolate(calc, d, part, engine=eng)
            out.append(", ".join(map(print_structure, part.left)) + " ; "
                       + ", ".join(map(print_structure, part.right)) + " => "
                       + print_structure(s.succedent) + " : "
                       + print_structure(r.interpolant))
    return out


# SHA-256 of the printed interpolant of every partition of two seeded
# derivable corpora per calculus; the second corpus, over two variables and
# shallow terms, repeats members often, so the tie rule is exercised.
INTERPOLANTS_SHA256 = {
    "sdm": (3720, "fe4224cf730e685eda8344c74f75056a8bc32369ef1ccb4925846cd375d072b3"),
    "dm": (3769, "32165e2dea88b695e253ed0a4b8087dea03a05b93cf4eb6f0969dbedf0702171"),
}


@pytest.mark.parametrize("calc, seed, max_weight", [("sdm", 61, 22), ("dm", 62, 20)])
def test_interpolants_pinned_by_digest(calc, seed, max_weight):
    eng = SearchEngine()
    lines = _interpolant_lines(
        calc, CorpusConfig(seed=seed, max_depth=3, max_antecedent=4), 400,
        max_weight, eng)
    lines += _interpolant_lines(
        calc, CorpusConfig(seed=seed, max_depth=1, variables=("p", "q"),
                           min_antecedent=2, max_antecedent=4), 200,
        max_weight, eng)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == INTERPOLANTS_SHA256[calc]


def test_partition_and_result_records():
    part = Partition.of([plain(p)], [plain(q)])
    assert part == Partition((plain(p),), (plain(q),))
    assert hash(part) == hash(Partition.of((plain(p),), [plain(q)]))
    assert part != Partition.of([plain(q)], [plain(p)])
    assert repr(part) == "Partition(left=(<Struct p>,), right=(<Struct q>,))"
    with pytest.raises(AttributeError):
        part.left = ()
    d = derive("sdm", parse_sequent("p, q => p", "sdm"))
    r = interpolate("sdm", d, part)
    again = interpolate("sdm", d, Partition.of([plain(p)], [plain(q)]))
    assert r == again and hash(r) == hash(again)
    assert repr(r) == (
        "InterpolationResult(interpolant=<Struct p>, "
        "left_derivation=<Derivation Id h=0 p => p>, "
        "right_derivation=<Derivation Id h=0 p, q => p>)")
    with pytest.raises(AttributeError):
        r.interpolant = plain(q)
