import gc
import hashlib
import inspect
import itertools
import json
import pathlib
import tracemalloc
from collections import Counter

import pytest

from morgankit import terms
from morgankit import (
    BOT, And, CalculusMismatchError, ClassRegistry, Derivation, Imp,
    InvalidDerivationError, Neg, Or, Partition, SearchEngine, Var,
    check_derivation, check_derivation_report, check_embedding, derivable,
    derive, dm4, expand, interpolate, k_sequent, parse_sequent, plain,
    print_sequent, proof_from_obj, proof_to_obj, render, sequent, starred,
    variables, verify_interpolant,
)
from morgankit.calculi import STAR_FAMILY, iter_g3ip
from morgankit.corpus import CorpusConfig, derivable_corpus, generate_sequents
from morgankit.search import _TruthTables, classically_refutable

SDM_PINS = [
    ("~~~p => ~p", True),
    ("p => ~~p", False),
    ("~~p => p", False),
    ("~(~p & ~q) => p | q", False),
    ("p, q => p", True),
    ("*~F, q => p", True),
    ("F => p & q", True),
    ("~p & ~q => ~(p | q)", True),
    ("~~p & ~~q => ~~(p & q)", True),
    ("~p => ~~~p", True),
    ("=> *(F & r)", True),
    ("~(p & q) => ~~(~p | ~q)", True),
    ("*q, *r => *(p & (q | r))", True),
    ("~(p & (q & q)) => ~p | ~q", False),
]

DM_PINS = [
    ("~~p => p", True),
    ("p => ~~p", True),
    ("~(~p & ~q) => p | q", True),
    ("~(p & q) => ~p | ~q", True),
    ("~p | ~q => ~(p & q)", True),
    ("p => p | ~p", True),
    ("=> p | ~p", False),
    ("p & ~p => q", False),
]

INT_PINS = [
    ("=> p | ~p", False),
    ("=> ~~(p | ~p)", True),
    ("=> ((p -> q) -> p) -> p", False),
    ("p -> q, p => q", True),
    ("=> ~~p -> p", False),
    ("p & q => q & p", True),
]

CL_PINS = [
    ("=> p | ~p", True),
    ("=> ((p -> q) -> p) -> p", True),
    ("=> ~~p -> p", True),
    ("p -> q => ~q -> ~p", True),
    ("=> p", False),
    ("p | q => p & q", False),
]


@pytest.mark.parametrize("text,want", SDM_PINS)
def test_sdm_pins(text, want):
    assert derivable("sdm", parse_sequent(text, "sdm")) is want


@pytest.mark.parametrize("text,want", DM_PINS)
def test_dm_pins(text, want):
    assert derivable("dm", parse_sequent(text, "dm")) is want


@pytest.mark.parametrize("text,want", INT_PINS)
def test_int_pins(text, want):
    assert derivable("int", parse_sequent(text, "int")) is want


@pytest.mark.parametrize("text,want", CL_PINS)
def test_cl_pins(text, want):
    assert derivable("cl", parse_sequent(text, "cl")) is want


def test_calculus_mismatch_rejected():
    with pytest.raises(CalculusMismatchError):
        derive("sdm", parse_sequent("p => p", "dm"))


def test_height_pins():
    eng = SearchEngine()
    assert eng.derivable_within_height("sdm", parse_sequent("p, q => p", "sdm"), 0)
    s = parse_sequent("~p => ~p", "sdm")
    assert not eng.derivable_within_height("sdm", s, 2)
    assert eng.derivable_within_height("sdm", s, 3)
    assert eng.min_height("sdm", s) == 3
    assert eng.derivable_within_height("dm", parse_sequent("~~p => p", "dm"), 1)
    assert eng.min_height("sdm", parse_sequent("p => q", "sdm")) is None


def test_height_monotone():
    eng = SearchEngine()
    s = parse_sequent("~p & ~q => ~(p | q)", "sdm")
    n = eng.min_height("sdm", s)
    for k in range(n):
        assert not eng.derivable_within_height("sdm", s, k)
    for k in range(n, n + 3):
        assert eng.derivable_within_height("sdm", s, k)


def test_min_height_int():
    s = parse_sequent("p & q => q & p", "int")
    assert SearchEngine().min_height("int", s) == 2  # &L, then &R over two Id axioms


def test_returned_derivations_check():
    for text, want in SDM_PINS:
        if want:
            d = derive("sdm", parse_sequent(text, "sdm"))
            ok, diag = check_derivation_report("sdm", d)
            assert ok, diag


def test_check_rejects_corruption():
    d = derive("sdm", parse_sequent("p & q => p", "sdm"))
    wrong_height = Derivation(d.sequent, d.rule, d.principal, d.children,
                              d.height + 1)
    assert not check_derivation("sdm", wrong_height)
    wrong_rule = Derivation(d.sequent, "|=>", d.principal, d.children, d.height)
    assert not check_derivation("sdm", wrong_rule)
    corrupted_child = Derivation(
        parse_sequent("q => p", "sdm"), "Id", None, (), 0)
    bad = Derivation(d.sequent, d.rule, d.principal, (corrupted_child,), d.height)
    assert not check_derivation("sdm", bad)


def test_check_rejects_a_tampered_copy_of_an_accepted_derivation():
    # the check remembers the derivation it last accepted; a new object with
    # the same sequent is replayed, not taken for the accepted one
    d = derive("sdm", parse_sequent("p, q & r => p & q", "sdm"))
    assert check_derivation("sdm", d) and (d.rule, d.principal) == ("&=>", 1)
    part = Partition.of(d.sequent.antecedent[:1], d.sequent.antecedent[1:])
    for tampered in (Derivation(d.sequent, d.rule, 0, d.children, d.height),
                     Derivation(d.sequent, d.rule, d.principal, d.children, d.height + 1)):
        assert not check_derivation("sdm", tampered)
        with pytest.raises(ValueError, match="derivation fails checking"):
            interpolate("sdm", tampered, part)
    assert check_derivation("sdm", d)


def test_check_rejects_tampered_copies_of_accepted_g3ip_derivations():
    # a G3ip node replays through the one instance its label and principal
    # name; a Gem-at node, whose principal is None, through the scan
    imp = derive("int", parse_sequent("p -> q, p => q", "int"))
    disj = derive("int", parse_sequent("p => p | q", "int"))
    gem = derive("cl", parse_sequent("=> p | ~p", "cl"))
    assert (imp.rule, imp.principal, disj.rule, gem.rule) == ("->L", 1, "|R1", "Gem-at")
    q = Var("q")
    at_q = tuple(Derivation(sequent("cl", [m], gem.sequent.succedent), "Id", None, (), 0)
                 for m in (q, Imp(q, BOT)))
    for calc, d, tampered, rule, principal in (
            ("int", imp, imp._replace(principal=2), "->L", 2),
            ("int", imp, imp._replace(principal=-2), "->L", -2),
            ("int", disj, disj._replace(rule="|R2"), "|R2", -1),
            ("int", imp, imp._replace(children=imp.children[::-1]), "->L", 1),
            ("cl", gem, gem._replace(children=at_q, height=1), "Gem-at", None)):
        assert check_derivation(calc, d)
        assert check_derivation_report(calc, tampered) == (False, (
            f"derivation: no {rule} instance with principal {principal} "
            "matches the recorded premisses"))
        assert not check_derivation(calc, tampered)


@pytest.mark.parametrize("calc", ["sdm", "dm", "int", "cl"])
def test_replay_rejects_a_bool_height_or_principal(calc):
    # True == 1 and False == 0, but proof_from_obj takes neither for an int,
    # so replay rejects them too and render never writes one
    one = derive(calc, parse_sequent("p & q => p", calc))
    two = derive(calc, parse_sequent("p, q & r => p & q", calc))
    assert (one.principal, one.height, two.principal) == (0, 1, 1)
    rule = one.rule
    for tampered, diag in (
            (one._replace(height=True), "height True, expected 1"),
            (one._replace(principal=False), f"no {rule} instance with principal False"
                                            " matches the recorded premisses"),
            (two._replace(principal=True), f"no {rule} instance with principal True"
                                           " matches the recorded premisses")):
        assert check_derivation_report(calc, tampered) == (False, "derivation: " + diag)
        with pytest.raises(InvalidDerivationError):
            render(tampered, "json")


def test_check_under_another_calculus_fails_after_acceptance():
    d = derive("sdm", parse_sequent("p & q => p", "sdm"))
    assert check_derivation("sdm", d)
    for calc in ("dm", "int", "cl"):
        assert check_derivation_report(calc, d) == (
            False, f"derivation: sequent tagged sdm, expected {calc}")
    assert check_derivation("g3sdm", d)


def test_accepted_derivation_is_not_replayed_again(monkeypatch):
    import morgankit.search as search
    d = derive("sdm", parse_sequent("*q, *r => *(p & (q | r))", "sdm"))
    axiom = derive("sdm", parse_sequent("p => p", "sdm"))
    assert check_derivation("sdm", d)
    calls = []
    real = search.iter_instances
    monkeypatch.setattr(search, "iter_instances", lambda g: calls.append(g) or real(g))
    assert check_derivation_report("sdm", d) == (True, "ok")
    render(d, "ascii")
    assert calls == []
    # a tree with a list of children could still change, so it is replayed
    # at every check
    listed = Derivation(axiom.sequent, axiom.rule, axiom.principal, [], 0)
    assert check_derivation("sdm", listed) and check_derivation("sdm", listed)
    assert len(calls) == 2


def test_verify_rejects_a_candidate_outside_the_language():
    # interpolate builds its obligations unchecked, verify_interpolant does not
    for calc in ("sdm", "dm"):
        s = parse_sequent("p, q => p", calc)
        part = Partition.of([s.antecedent[0]], [s.antecedent[1]])
        for candidate in (Imp(Var("p"), Var("p")), Imp(Var("q"), BOT)):
            if calc == "sdm":
                candidate = plain(candidate)
            assert verify_interpolant(calc, s, part, candidate) is False


def test_render_ascii_axiom():
    d = derive("sdm", parse_sequent("p => p", "sdm"))
    assert render(d, "ascii") == "p => p   [Id]"


def test_render_ascii_tree_child_above_parent():
    d = derive("sdm", parse_sequent("p & q => p", "sdm"))
    lines = render(d, "ascii").splitlines()
    assert lines[-1] == "p & q => p   [&=>]"
    assert lines[0].strip().startswith("p, q => p")
    assert lines[0].startswith("  ")


def test_render_latex():
    d = derive("dm", parse_sequent("~~p => p", "dm"))
    tex = render(d, "latex")
    assert tex.startswith(r"\begin{prooftree}")
    assert r"\lnot \lnot p \Rightarrow p" in tex
    assert tex.endswith(r"\end{prooftree}")


def test_render_latex_star_family():
    for text, label in [("=> *(F & r)", r"({\ast}_0)"),
                        ("~q => ~(~r & ~~q)", r"({\ast}_1)"),
                        ("*q, *r => *(p & (q | r))", r"({\ast}_n)")]:
        tex = render(derive("sdm", parse_sequent(text, "sdm")), "latex")
        assert label in tex, text


# SHA-256 of render(d, "ascii") and render(d, "latex") over seeded derivations
# in all four calculi, then over the derivable k images (in G3ip) that carry
# #k atoms.
RENDER_SHA256 = (514, 17, "9cdea43b958ed94b3f6c6fdc37cac43ed58f7ca9693e6d726901a4b5b4699874")


def test_render_pinned_by_digest():
    eng = SearchEngine()
    texts = []
    for calc, seed, max_weight in (("sdm", 71, 20), ("dm", 72, 18),
                                   ("int", 73, None), ("cl", 74, None)):
        cfg = CorpusConfig(seed=seed, max_depth=2)
        for s in derivable_corpus(calc, 60, cfg, max_weight=max_weight, engine=eng):
            d = eng.derive(calc, s)
            texts += [render(d, "ascii"), render(d, "latex")]
    reg = ClassRegistry(eng)
    with_classes = 0
    for s in generate_sequents("sdm", 300, CorpusConfig(seed=75), max_weight=20):
        img = k_sequent(s, reg)
        if any(ns == "class" for ns, _ in variables(img)):
            d = eng.derive("int", img)
            if d is not None:
                with_classes += 1
                texts += [render(d, "ascii"), render(d, "latex")]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), with_classes, digest) == RENDER_SHA256


def test_render_rejects_bad_derivation():
    d = derive("sdm", parse_sequent("p & q => p", "sdm"))
    bad = Derivation(d.sequent, d.rule, d.principal, d.children, d.height + 3)
    with pytest.raises(InvalidDerivationError):
        render(bad, "ascii")


def test_proof_json_roundtrip():
    for calc, text in [("sdm", "~~~p => ~p"), ("dm", "~(p & q) => ~p | ~q"),
                       ("cl", "=> p | ~p")]:
        d = derive(calc, parse_sequent(text, calc))
        obj = json.loads(render(d, "json"))
        assert proof_from_obj(obj) == d


def test_memo_limit_respected(monkeypatch):
    # a store into a full memo clears it first: the memo never holds more
    # than the cap, and every verdict is a fresh, uncapped engine's
    from morgankit import search
    cfg = CorpusConfig(seed=21, max_depth=3)
    goals = [(calc, s) for calc, w in (("sdm", 20), ("dm", 20), ("int", None), ("cl", None))
             for s in generate_sequents(calc, 40, cfg, max_weight=w)]
    expected = [SearchEngine().derivable(calc, s) for calc, s in goals]
    monkeypatch.setattr(search, "_MEMO_CAP", 4)
    eng = SearchEngine()
    stored = eng._store

    def store(key, value):
        assert len(eng._witness) <= 4
        return stored(key, value)

    eng._store = store
    for (calc, s), want in zip(goals, expected):
        assert eng.derivable(calc, s) == want, print_sequent(s)
        assert len(eng._witness) <= 4
    assert True in expected and False in expected


def test_memoized_rerun_consistent():
    eng = SearchEngine()
    s = parse_sequent("~p & ~q => ~(p | q)", "sdm")
    first = eng.derive("sdm", s)
    second = eng.derive("sdm", s)
    assert first == second


# --- differential and admissibility properties ---------------------------

def _fresh_results(calc, count, seed, max_weight):
    cfg = CorpusConfig(seed=seed, max_depth=3, max_antecedent=3)
    eng = SearchEngine()
    for s in generate_sequents(calc, count, cfg, max_weight=max_weight):
        yield eng, s


def _check_min_height(calc, eng, s):
    # min_height h is exact: the bounded search finds a derivation at h and
    # none at h - 1, and the eager derivation is no lower than h
    d = eng.derive(calc, s)
    h = eng.min_height(calc, s)
    assert (d is None) == (h is None), print_sequent(s)
    if h is None:
        return 0
    assert eng.derivable_within_height(calc, s, h), print_sequent(s)
    assert not eng.derivable_within_height(calc, s, h - 1), print_sequent(s)
    assert h <= d.height, print_sequent(s)
    return 1


def test_eager_search_agrees_with_exhaustive_sdm():
    assert sum(_check_min_height("sdm", eng, s)
               for eng, s in _fresh_results("sdm", 250, seed=13, max_weight=22)) > 50


def test_eager_search_agrees_with_exhaustive_dm():
    assert sum(_check_min_height("dm", eng, s)
               for eng, s in _fresh_results("dm", 250, seed=14, max_weight=18)) > 50


@pytest.mark.parametrize("calc,cfg,starred_succedent", [
    pytest.param("sdm", CorpusConfig(seed=17, max_depth=4), False, id="sdm-17"),
    pytest.param("dm", CorpusConfig(seed=18, max_depth=4), False, id="dm-18"),
    # derive closes these with the star family alone, never with ``*``
    pytest.param("sdm", CorpusConfig(seed=40, max_depth=4, star_prob=0.7), True,
                 id="sdm-40-starred-succedent"),
])
def test_invertible_commits_lose_no_derivation(calc, cfg, starred_succedent):
    # derive commits to invertible rules; the bounded search commits to
    # none, and at this bound it is exhaustive, since every SDM/DM rule
    # lowers the weight
    eng = SearchEngine()
    goals = [s for s in generate_sequents(calc, 1500, cfg, max_weight=30)
             if not starred_succedent or s.succedent.star]
    assert len(goals) > 900
    assert sum(derivable(calc, s, eng) for s in goals) > 300
    for s in goals:
        assert eng.derivable_within_height(calc, s, 10**6) == derivable(calc, s, eng), \
            print_sequent(s)


def _rules(d):
    return {d.rule}.union(*map(_rules, d.children))


def test_derive_never_uses_star_rule():
    eng = SearchEngine()
    cfg = CorpusConfig(seed=81, max_depth=3, star_prob=0.7)
    proofs = [d for d in (eng.derive("sdm", s) for s in
                          generate_sequents("sdm", 800, cfg, max_weight=24))
              if d is not None]
    assert len(proofs) > 200
    assert not any("*" in _rules(d) for d in proofs)
    assert sum(bool(_rules(d) & STAR_FAMILY) for d in proofs) > 100


def test_saved_star_proofs_replay():
    # proof/v1 derivations that search wrote when it still tried ``*``
    # before the star family; 16 of the 20 use ``*``
    lines = (pathlib.Path(__file__).parent / "data" / "sdm_proofs_v1.jsonl"
             ).read_text().splitlines()
    proofs = [proof_from_obj(json.loads(line)) for line in lines]
    assert sum("*" in _rules(d) for d in proofs) == 16
    for d in proofs:
        ok, diag = check_derivation_report("sdm", d)
        assert ok, diag
        assert derivable("sdm", d.sequent), print_sequent(d.sequent)


# SHA-256 over seeded corpora in all four calculi, one starred-succedent
# heavy: per goal, derivable, and for SDM/DM goals min_height too.
VERDICT_SHA256 = (7500, "06e1a3bf2b5b4fa60c71e26a0dd0ecb9fa2fc0cab8721139f25714cbdfe033d5")


def test_verdicts_pinned_by_digest():
    h = hashlib.sha256()
    lines = 0
    for calc, seed, count, cfg, max_weight in (
            ("sdm", 11, 2000, {}, 26),
            ("sdm", 40, 1500, {"star_prob": 0.7, "max_depth": 4}, 30),
            ("dm", 13, 2000, {}, 26),
            ("int", 1, 1000, {}, None),
            ("cl", 3, 1000, {}, None)):
        eng = SearchEngine()
        for s in generate_sequents(calc, count, CorpusConfig(seed=seed, **cfg),
                                   max_weight=max_weight):
            out = [calc, print_sequent(s), repr(eng.derivable(calc, s))]
            if calc in ("sdm", "dm"):
                out.append(repr(eng.min_height(calc, s)))
            h.update("\t".join(out).encode() + b"\n")
            lines += 1
    assert (lines, h.hexdigest()) == VERDICT_SHA256


def test_int_loopcheck_agrees_with_bounded_search():
    cfg = CorpusConfig(seed=15, max_depth=2, max_antecedent=2)
    eng = SearchEngine()
    for s in generate_sequents("int", 120, cfg):
        d = eng.derive("int", s)
        if d is None:
            assert not eng.derivable_within_height("int", s, 9), print_sequent(s)
        else:
            assert eng.derivable_within_height("int", s, d.height), print_sequent(s)


def test_weakening_admissible_sdm():
    cfg = CorpusConfig(seed=16, max_depth=2, max_antecedent=2)
    eng = SearchEngine()
    extra = starred(Var("s1"))
    for s in derivable_corpus("sdm", 40, cfg, max_weight=18, engine=eng):
        n = eng.min_height("sdm", s)
        weakened = sequent("sdm", list(s.antecedent) + [extra], s.succedent)
        assert eng.derivable_within_height("sdm", weakened, n), print_sequent(s)


def test_contraction_admissible_sdm():
    cfg = CorpusConfig(seed=17, max_depth=2, max_antecedent=2)
    eng = SearchEngine()
    goals = [s for s in derivable_corpus("sdm", 80, cfg, max_weight=16, engine=eng)
             if not s.succedent.star][:40]
    assert len(goals) == 40
    for s in goals:
        if not s.antecedent:
            continue
        m = s.antecedent[0]
        doubled = sequent("sdm", list(s.antecedent) + [m], s.succedent)
        n = eng.min_height("sdm", doubled)
        assert eng.derivable_within_height("sdm", s, n), print_sequent(s)


def test_exchange_lemma_sdm():
    cfg = CorpusConfig(seed=18, max_depth=2, max_antecedent=2)
    eng = SearchEngine()
    phi = Var("p")
    for s in generate_sequents("sdm", 80, cfg, max_weight=16):
        neg_succ = sequent("sdm", s.antecedent, plain(Neg(phi)))
        star_succ = sequent("sdm", s.antecedent, starred(phi))
        assert eng.derivable("sdm", neg_succ) == eng.derivable("sdm", star_succ)


def test_generalized_identity():
    rng_cfg = CorpusConfig(seed=19, max_depth=3, max_antecedent=2)
    import random
    from morgankit.corpus import random_term
    from morgankit import Struct
    eng = SearchEngine()
    rng = random.Random(19)
    for _ in range(60):
        phi = random_term(rng, rng_cfg)
        gamma = [Struct(rng.random() < 0.4, random_term(rng, rng_cfg))
                 for _ in range(rng.randint(0, 2))]
        assert eng.derivable("sdm", sequent("sdm", gamma + [plain(phi)], plain(phi)))
        assert eng.derivable("sdm", sequent("sdm", gamma + [starred(phi)], starred(phi)))


def test_t_flattening_preserves_derivability_nonempty():
    # the empty-antecedent case is excluded: T on the left is not inert
    from morgankit import t_sequent
    eng = SearchEngine()
    cfg = CorpusConfig(seed=20, max_depth=2, max_antecedent=3, min_antecedent=1)
    for s in generate_sequents("sdm", 120, cfg, max_weight=18):
        assert eng.derivable("sdm", s) == eng.derivable("sdm", t_sequent(s)), \
            print_sequent(s)


@pytest.mark.parametrize("calc,max_weight", [("sdm", 20), ("int", None)])
def test_height_queries_retain_nothing(calc, max_weight):
    # each height query keeps its memo for that call alone, so on an engine
    # that derive has warmed, the queries leave nothing behind
    goals = generate_sequents(calc, 300, CorpusConfig(seed=5), max_weight=max_weight)

    def queries(eng):
        for g in goals:
            eng.derive_within_height(calc, g, 4)
            eng.min_height(calc, g)

    # a first run on a discarded engine grows the intern tables, which
    # outlive every engine, before the measured window opens
    warm = SearchEngine()
    for g in goals:
        warm.derive(calc, g)
    queries(warm)
    del warm
    eng = SearchEngine()
    for g in goals:
        eng.derive(calc, g)
    gc.collect()
    # the intern table's own table may still grow in the window, by how much
    # depends on what earlier tests interned; only that statement's
    # allocations are left out, while nodes, entries and keys still count
    lines, first = inspect.getsourcelines(terms._publish)
    store = first + next(i for i, line in enumerate(lines) if "_REFS[key] = entry" in line)
    own_table = [tracemalloc.Filter(False, terms.__file__, store)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(own_table)
        queries(eng)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(own_table)
    finally:
        tracemalloc.stop()
    retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert retained < 64 * 1024


# SHA-256 over the height queries of seeded corpora in all four calculi: per
# goal, min_height n; when n is not None, the proof JSON of
# derive_within_height at n and at n + 1 and derivable_within_height at
# n - 1; when it is None, derivable_within_height at 2.
HEIGHT_SHA256 = (1096, "1b61f48eaf188a6bb9a19b00864b6fcd2c6e6397c5cb2d9c8c09b4a7c51d6874")


def _height_lines(calc, seed, count, max_weight):
    eng = SearchEngine()
    for s in generate_sequents(calc, count, CorpusConfig(seed=seed),
                               max_weight=max_weight):
        n = eng.min_height(calc, s)
        out = [print_sequent(s), repr(n)]
        if n is None:
            out.append(repr(eng.derivable_within_height(calc, s, 2)))
        else:
            for k in (n, n + 1):
                d = eng.derive_within_height(calc, s, k)
                out.append(json.dumps(proof_to_obj(d), sort_keys=True))
            out.append(repr(eng.derivable_within_height(calc, s, n - 1)))
        yield "\t".join(out)


def test_height_queries_pinned_by_digest():
    h = hashlib.sha256()
    lines = 0
    for calc, count, max_weight in (("sdm", 250, 24), ("dm", 250, 24),
                                    ("int", 40, None), ("cl", 8, None)):
        for seed in (0, 1):
            for line in _height_lines(calc, seed, count, max_weight):
                h.update(line.encode() + b"\n")
                lines += 1
    assert (lines, h.hexdigest()) == HEIGHT_SHA256


def test_derive_within_height_bounded_witness():
    eng = SearchEngine()
    s = parse_sequent("~p => ~p", "sdm")
    assert eng.derive_within_height("sdm", s, 2) is None
    d = eng.derive_within_height("sdm", s, 3)
    assert d is not None and d.height <= 3
    assert check_derivation("sdm", d)
    s = parse_sequent("=> p | ~p", "cl")
    d = eng.derive_within_height("cl", s, 4)
    assert d is not None and d.height <= 4
    assert check_derivation("cl", d)


# --- the boolean prefilter -------------------------------------------------

def _holds(t, val):
    if type(t) is Var:
        return val[(t.ns, t.name)]
    if type(t) is Imp:
        return not _holds(t.left, val) or _holds(t.right, val)
    if type(t) is And:
        return _holds(t.left, val) and _holds(t.right, val)
    if type(t) is Or:
        return _holds(t.left, val) or _holds(t.right, val)
    return False  # F


def _brute_refutable(goal):
    names = sorted(variables(goal))
    if len(names) > 14:
        return False
    for bits in itertools.product((False, True), repeat=len(names)):
        val = dict(zip(names, bits))
        if not _holds(goal.succedent, val) and all(
                _holds(m, val) for m in goal.antecedent):
            return True
    return False


@pytest.mark.parametrize("calc,seed", [("int", 21), ("cl", 22)])
def test_prefilter_matches_brute_force(calc, seed):
    cfg = CorpusConfig(seed=seed, max_depth=3,
                       variables=("p", "q", "r", "s"))
    all_hold = Counter()  # per label, the instances whose premisses all hold
    for s in generate_sequents(calc, 300, cfg):
        refutable = _brute_refutable(s)
        assert classically_refutable(s) == refutable, print_sequent(s)
        # the premisses are tested on the root's tables, as search does
        tt = _TruthTables(s)
        for inst in iter_g3ip(s):
            refuted = [_brute_refutable(p) for p in inst.premisses]
            for p, r in zip(inst.premisses, refuted):
                assert tt.refutes(p) == r, print_sequent(p)
            # the rule is classically sound: a valuation that refutes the
            # conclusion refutes some premiss; brute force shares no code
            # with the rule table
            if not any(refuted):
                assert not refutable, (inst.label, print_sequent(s))
                all_hold[inst.label] += 1
    labels = {"Id", "BotL", "&L", "&R", "|L", "|R1", "|R2", "->L", "->R"}
    if calc == "cl":
        labels.add("Gem-at")
    assert set(all_hold) == labels and min(all_hold.values()) >= 10, all_hold


@pytest.mark.parametrize("text,want", [
    ("=> p", True),
    ("=> p -> p", False),
    ("=> F", True),
    ("F => p", False),
    ("F, p => q", False),
    ("p => F", True),
    ("p, p -> F => F", False),
    ("p -> F => F", True),
])
def test_prefilter_pins(text, want):
    for calc in ("int", "cl"):
        s = parse_sequent(text, calc)
        assert classically_refutable(s) is want
        assert _brute_refutable(s) is want


def test_prefilter_variable_cap():
    names = [Var(f"p{i}") for i in range(15)]
    wide = sequent("int", [], Or(names[0], And(names[1], names[2])))
    for v in names[3:]:
        wide = sequent("int", [], Or(wide.succedent, v))
    assert len(variables(wide)) == 15
    assert classically_refutable(wide) is False  # above the cap
    narrow = sequent("int", [], wide.succedent.left)
    assert len(variables(narrow)) == 14
    assert classically_refutable(narrow) is True
    # above the cap search tests each goal on its own variables
    assert derive("int", wide) is None
    assert SearchEngine().min_height("int", wide) is None


def test_prefilter_subgoal_drops_a_variable():
    for calc in ("int", "cl"):
        eng = SearchEngine()
        root = parse_sequent("p | (q & r) => p", calc)
        assert classically_refutable(parse_sequent("q & r => p", calc))
        assert eng.derive(calc, root) is None
        assert eng.min_height(calc, root) is None
        root = parse_sequent("p | (q & p) => p", calc)
        d = eng.derive(calc, root)
        assert d is not None and check_derivation(calc, d)
        assert eng.min_height(calc, root) == 2


# The loop check prunes the |L premiss `q, q, p | q, q -> F => r`: its set
# form repeats the goal's.  |L is invertible, but a commit whose premiss
# fails only at the goal's own set form does not end the search, so ->L on
# `q -> F` then closes the goal at height 1.
LOOPCHECK_MISS = "q, p | q, p | q, q -> F => r"


def test_loopcheck_miss_goal_is_derivable():
    for calc in ("int", "cl"):
        s = parse_sequent(LOOPCHECK_MISS, calc)
        d = SearchEngine().derive_within_height(calc, s, 1)
        assert d is not None and check_derivation(calc, d)
        assert derive(calc, parse_sequent("q, p | q, q -> F => r", calc)) is not None


@pytest.mark.parametrize("calc", ["int", "cl"])
def test_loopcheck_miss_duplicate_disjunction(calc):
    assert SearchEngine().derive(calc, parse_sequent(LOOPCHECK_MISS, calc)) is not None


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("calc", ["int", "cl"])
def test_derive_finds_every_bounded_derivation(calc, seed):
    """derive misses no goal of height <= 6, and in CL it decides validity."""
    eng = SearchEngine()
    for g in dict.fromkeys(generate_sequents(calc, 2000, CorpusConfig(seed=seed))):
        d = eng.derivable(calc, g)
        if calc == "cl":
            assert d == (not classically_refutable(g)), print_sequent(g)
        if not d:
            assert not eng.derivable_within_height(calc, g, 6), print_sequent(g)


# --- the generalised identity ----------------------------------------------

@pytest.mark.parametrize("calc,seed", [("int", 23), ("cl", 24)])
def test_generalized_identity_int_cl(calc, seed):
    import random
    from morgankit.corpus import random_term
    cfg = CorpusConfig(seed=seed, max_depth=3)
    rng = random.Random(seed)
    eng = SearchEngine()
    for _ in range(60):
        a = random_term(rng, cfg, imp=True)
        gamma = [random_term(rng, cfg, imp=True) for _ in range(rng.randint(0, 3))]
        goal = sequent(calc, gamma + [a], a)
        d = eng.derive(calc, goal)
        assert d is not None and d.sequent == goal, print_sequent(goal)
        assert check_derivation(calc, d), print_sequent(goal)
        n = eng.min_height(calc, goal)
        assert eng.derivable_within_height(calc, goal, n), print_sequent(goal)
        assert n == 0 or not eng.derivable_within_height(calc, goal, n - 1)


# Both goals have the identity shape, and both were refuted through the
# loop-check miss pinned below before search built their identity
# derivations directly.
IDENTITY_PINS = [
    "p & q & (p | q) & (p | q) => p & q & (p | q) & (p | q)",
    "q -> r | (p -> r), (q | p) & (p | r) -> (q | p -> F | F)"
    " => (q | p) & (p | r) -> (q | p -> F | F)",
]


@pytest.mark.parametrize("text", IDENTITY_PINS)
@pytest.mark.parametrize("calc", ["int", "cl"])
def test_identity_goals_once_missed(calc, text):
    goal = parse_sequent(text, calc)
    d = SearchEngine().derive(calc, goal)
    assert d is not None and d.sequent == goal and check_derivation(calc, d)
    assert d.rule in ("&L", "->R")
    assert SearchEngine().min_height(calc, goal) is not None


def test_derivation_record():
    d = SearchEngine().derive("sdm", parse_sequent("~~~p => ~p", "sdm"))
    twin = SearchEngine().derive("sdm", parse_sequent("~~~p => ~p", "sdm"))
    assert d is not twin and d == twin and hash(d) == hash(twin)
    assert d != Derivation(d.sequent, d.rule, d.principal, d.children, d.height + 1)
    assert repr(d) == "<Derivation =>~ h=4 ~~~p => ~p>"
    with pytest.raises(AttributeError):
        d.height = 0


def test_corpus_config_record():
    cfg = CorpusConfig()
    assert cfg == CorpusConfig(0, 3, ("p", "q", "r"), 4, 0, 0.35)
    assert hash(cfg) == hash(CorpusConfig(seed=0))
    assert cfg != CorpusConfig(seed=1)
    assert repr(cfg) == (
        "CorpusConfig(seed=0, max_depth=3, variables=('p', 'q', 'r'), "
        "max_antecedent=4, min_antecedent=0, star_prob=0.35)")
    assert CorpusConfig(max_depth=5).max_depth == 5
    with pytest.raises(ValueError, match="capped at 5"):
        CorpusConfig(max_depth=6)
    with pytest.raises(AttributeError):
        cfg.seed = 1


def test_corpus_config_replace_and_make_keep_the_cap():
    cfg = CorpusConfig()
    with pytest.raises(ValueError, match="capped at 5"):
        cfg._replace(max_depth=9)
    with pytest.raises(ValueError, match="capped at 5"):
        CorpusConfig._make((0, 9, ("p",), 4, 0, 0.35))
    assert cfg._replace(max_depth=5) == CorpusConfig(max_depth=5)


@pytest.mark.parametrize("calc", ["sdm", "dm"])
def test_replay_and_rendering_leave_no_cycles(calc):
    import gc
    corpus = derivable_corpus(calc, 20, CorpusConfig(seed=31), max_weight=20,
                              engine=SearchEngine())
    proofs = [derive(calc, s, SearchEngine()) for s in corpus]

    def replay_and_print():
        for d in proofs:
            assert check_derivation(calc, d)
            render(d, "ascii")
            render(d, "latex")
            assert proof_from_obj(proof_to_obj(d)) == d

    def render_json():
        for d in proofs:
            render(d, "json")

    def dumps_json():
        for d in proofs:
            json.dumps(proof_to_obj(d), indent=2, sort_keys=True)

    for run in (replay_and_print, render_json, dumps_json):
        run()  # the first round may import modules and fill caches
    gc.collect()
    gc.disable()
    # With collection disabled, every object made since the last collection
    # stays in the youngest generation, so collecting it finds every cycle.
    try:
        replay_and_print()
        assert gc.collect(0) == 0
        # json.dumps with an indent encodes through closures that refer to
        # one another, so each such call leaves a cycle inside the json
        # module; render's json format adds none of its own.
        render_json()
        left_by_render = gc.collect(0)
        dumps_json()
        assert left_by_render == gc.collect(0)
    finally:
        gc.enable()


def test_records_are_slotted_named_tuples():
    # search memoises Derivation and RuleInstance nodes by the hundred
    # thousand, so no record may carry an instance __dict__
    goal = parse_sequent("p, q => p & q", "dm")
    d = derive("dm", goal)
    part = Partition.of([Var("p")], [Var("q")])
    records = [
        (goal, ("calculus", "antecedent", "succedent")),
        (expand(goal)[0], ("label", "premisses", "principal")),
        (d, ("sequent", "rule", "principal", "children", "height")),
        (part, ("left", "right")),
        (interpolate("dm", d, part),
         ("interpolant", "left_derivation", "right_derivation")),
        (dm4(), ("size", "join", "meet", "neg", "zero", "one")),
        (CorpusConfig(), ("seed", "max_depth", "variables", "max_antecedent",
                          "min_antecedent", "star_prob")),
        (check_embedding("dm-to-cl-h", [goal]),
         ("kind", "total", "agreements", "counterexamples", "variant_total",
          "variant_agreements")),
    ]
    for record, fields in records:
        assert type(record)._fields == fields
        assert not hasattr(record, "__dict__"), type(record).__name__
        assert record == tuple(getattr(record, f) for f in fields)
    assert repr(expand(goal)[0]) == "<RuleInstance =>& principal=-1>"
    assert repr(d) == "<Derivation =>& h=1 p, q => p & q>"
