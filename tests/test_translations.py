import hashlib
import json
from collections import Counter

import pytest

from morgankit import (
    BOT, TOP_ALG, TOP_IMP, And, ClassRegistry, Imp, Neg, Or, SearchEngine, Var,
    check_derivation, check_embedding, dm_weight, double_negate,
    f_godel_gentzen, f_sequent, g_glivenko, h_sequent, h_to_cl, k_sequent, k_to_int,
    parse_sequent, plain, print_sequent, print_term, refute, sequent,
    starred, t_flatten, variables,
)
from morgankit.calculi import STAR_FAMILY
from morgankit.corpus import CorpusConfig, generate_sequents
from morgankit.translations import TRANSLATIONS, translate

p, q, r = Var("p"), Var("q"), Var("r")


def test_t_flatten():
    assert t_flatten(starred(p)) == Neg(p)
    assert t_flatten((plain(p), starred(q))) == And(p, Neg(q))
    assert t_flatten(plain(p)) == p
    assert t_flatten(()) == TOP_ALG


def test_t_flatten_folds_in_canonical_order():
    s = parse_sequent("*q, p => r", "sdm")
    assert t_flatten(s.antecedent) == And(p, Neg(q))


def test_f_clauses():
    f = f_godel_gentzen
    assert f(p) == Neg(Neg(p))
    assert f(BOT) == BOT
    assert f(Neg(p)) == Neg(Neg(Neg(p)))
    assert f(And(p, q)) == And(f(p), f(q))
    assert f(Or(p, q)) == Neg(Neg(Or(Neg(Neg(p)), Neg(Neg(q)))))
    # an antecedent folds into a single conjunction
    assert f((p, q)) == And(Neg(Neg(p)), Neg(Neg(q)))


def test_double_negate():
    assert double_negate((p, q)) == (Neg(Neg(p)), Neg(Neg(q)))
    assert double_negate(BOT) == Neg(Neg(BOT))
    assert double_negate(()) == ()


def test_k_clauses():
    reg = ClassRegistry()
    k = lambda t: k_to_int(t, reg)
    assert k(Neg(p)) == Var("p", "primed")
    assert k(Neg(Neg(p))) == Var("p", "doubled")
    assert k(Neg(Neg(Neg(p)))) == Var("p", "primed")
    assert k(Neg(BOT)) == TOP_IMP
    assert k(Neg(Neg(BOT))) == BOT
    assert k(Neg(Or(p, q))) == And(Var("p", "primed"), Var("q", "primed"))
    assert k(Neg(Neg(And(p, q)))) == And(Var("p", "doubled"), Var("q", "doubled"))
    assert k(And(p, q)) == And(p, q)


def _substitute(t, a, b):
    """t with a for p and b for q."""
    if t is p or t is q:
        return a if t is p else b
    if type(t) is Neg:
        return Neg(_substitute(t.arg, a, b))
    if type(t) in (And, Or):
        return type(t)(_substitute(t.left, a, b), _substitute(t.right, a, b))
    return t


# The recursive calls of _k that rewrite their argument instead of descending
# into it, over subterms p and q; the last two are the right-hand calls of the
# first and third rewrites.
@pytest.mark.parametrize("before, after", [
    (Neg(Or(p, q)), Neg(p)),
    (Neg(And(Neg(p), Neg(q))), Neg(Neg(Or(p, q)))),
    (Neg(Neg(And(p, q))), Neg(Neg(p))),
    (Neg(Neg(Or(Neg(p), Neg(q)))), Neg(And(p, q))),
    (Neg(Neg(Neg(p))), Neg(p)),
    (Neg(Or(p, q)), Neg(q)),
    (Neg(Neg(And(p, q))), Neg(Neg(q))),
])
def test_k_measure_falls_on_rewrites(before, after):
    # Each node adds a fixed amount to dm_weight, so a call lowers it by the
    # weight of the subterms it leaves out plus a constant of the rewrite: the
    # same when p or q stands for subterms of two different weights.  The
    # constant is positive, so dm_weight falls on every call, for every term.
    heavy = Or(Neg(r), And(p, q))
    assert dm_weight(heavy) > dm_weight(p) == 1
    lost = variables(before) - variables(after)
    drops = set()
    for a, b in ((p, q), (heavy, q), (p, heavy)):
        left_out = [x for x, v in ((a, p), (b, q)) if (v.ns, v.name) in lost]
        drops.add(dm_weight(_substitute(before, a, b))
                  - dm_weight(_substitute(after, a, b)) - dm_weight(left_out))
    (drop,) = drops
    assert drop > 0


def test_k_rewrites_share_atoms():
    reg = ClassRegistry()
    a = k_to_int(Neg(And(Neg(p), Neg(q))), reg)
    b = k_to_int(Neg(Neg(Or(p, q))), reg)
    assert a == b == Var("k0", "class")
    # a distinct irreducible term gets a distinct atom
    c = k_to_int(Neg(And(p, q)), reg)
    assert c == Var("k1", "class")
    # _k rewrites this one to ~~(p | q), so it reuses k0
    d = k_to_int(Neg(And(Neg(Neg(Neg(p))), Neg(Neg(Neg(q))))), reg)
    assert d == a
    assert [v.name for _, v in reg.entries] == ["k0", "k1"]


def test_k_gives_a_top_term_an_atom_and_a_unit_hypothesis():
    # ~(p & F) is 1 in every SDM algebra: it gets an atom like any other
    # irreducible term, and an image that holds it states the atom outright
    reg = ClassRegistry()
    assert print_term(translate("k", Neg(And(p, BOT)), reg)) == "#k0"
    image = k_sequent(parse_sequent("=> ~(p & F)", "sdm"), reg)
    assert print_sequent(image) == "#k0 => #k0"
    assert [print_term(t) for t, _ in reg.entries] == ["~(p & F)"]


def test_k_hypotheses_order_the_atoms():
    # ~~q <= ~~(q | (r | r)) in every SDM algebra; without q'' -> #k0 the
    # image would not derive
    eng = SearchEngine()
    s = parse_sequent("*~~~q => *~(q | (r | r))", "sdm")
    image = k_sequent(s, ClassRegistry(eng))
    assert print_sequent(image) == "q'', q'' -> #k0 => #k0"
    assert eng.derivable("sdm", s) and eng.derivable("int", image)


def test_k_rejects_its_own_atoms_as_input():
    # a #k0 in the source would read as the registry's own atom, so that
    # #k0 => ~~(p | q) would map to the derivable #k0 => #k0
    reg = ClassRegistry()
    k_to_int(Neg(Neg(Or(p, q))), reg)
    s = sequent("sdm", [Var("k0", "class")], Neg(Neg(Or(p, q))))
    with pytest.raises(ValueError, match="#k atoms are k's output, not its input: #k0"):
        k_sequent(s, reg)


def test_k_rejects_primed_and_doubled_variables_as_input():
    # k writes p' for ~p and p'' for ~~p, so p' => ~p would map to the
    # derivable p' => p', though a 3-element SDM algebra refutes it
    for ns, printed in (("primed", "p'"), ("doubled", "p''")):
        s = sequent("sdm", [Var("p", ns)], Neg(p))
        assert refute(s, "sdm", 3) is not None
        with pytest.raises(ValueError, match=f"{ns} variables are k's output, "
                                             f"not its input: {printed}$"):
            k_sequent(s, ClassRegistry())
        with pytest.raises(ValueError, match="k's output"):
            k_to_int(And(p, Var("p", ns)), ClassRegistry())


def test_k_registry_sidecar():
    reg = ClassRegistry()
    k_to_int(Neg(Neg(Or(p, q))), reg)
    obj = reg.as_obj()
    assert obj["schema"] == "morgan-kit/registry/v1"
    assert obj["entries"] == [{"variable": "#k0", "representative": "~~(p | q)"}]


def test_k_on_sequents_reads_stars_as_negation():
    reg = ClassRegistry()
    s = parse_sequent("*p, q => *~p", "sdm")
    img = k_sequent(s, reg)
    assert img == sequent("int", [Var("p", "primed"), q], Var("p", "doubled"))


# SHA-256 of the printed k images of a seeded SDM corpus through one shared
# registry, then of the registry's JSON, and the same for the k(f(.)) images
# that the diagram kind derives.
K_IMAGES_SHA256 = {
    "k": (56, "8acf1c6cdb38fa154f127c6b23b1563d5666bae351988c1f0678e3c585e83c4b"),
    "diagram": (143, "c043cf154de381d595ac879e094bf85dcb9acebb650810347bbd6afbad8ccb86"),
}


def test_k_images_pinned_by_digest():
    reg = ClassRegistry()
    lines = [print_sequent(k_sequent(s, reg)) for s in generate_sequents(
        "sdm", 300, CorpusConfig(seed=75), max_weight=20)]
    lines.append(json.dumps(reg.as_obj(), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(reg.entries), digest) == K_IMAGES_SHA256["k"]
    reg = ClassRegistry()
    lines = [print_sequent(k_sequent(f_sequent(s), reg)) for s in generate_sequents(
        "dm", 300, CorpusConfig(seed=76), max_weight=20)]
    lines.append(json.dumps(reg.as_obj(), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(reg.entries), digest) == K_IMAGES_SHA256["diagram"]


def test_k_hypotheses_hold_in_small_sdm_algebras():
    # each hypothesis that k_sequent adds on criterion 8's corpora, read back
    # as the SDM sequent it stands for, holds in every SDM algebra of size
    # <= 6: a semantic check that shares no code with proof search
    reg = ClassRegistry()
    cfg = dict(max_depth=3, max_antecedent=4)
    dm = generate_sequents("dm", 300, CorpusConfig(seed=801, **cfg), max_weight=20)
    sdm = generate_sequents("sdm", 300, CorpusConfig(seed=802, **cfg), max_weight=20)
    hyps = set()
    for s in sdm + [f_sequent(d) for d in dm]:
        members = Counter(k_to_int(t_flatten(m), reg) for m in s.antecedent)
        hyps |= set(Counter(k_sequent(s, reg).antecedent) - members)
    rep = {BOT: BOT, **{v: t for t, v in reg.entries}}
    for v in (p, q, r):
        rep.update({v: v, Var(v.name, "primed"): Neg(v), Var(v.name, "doubled"): Neg(Neg(v))})
    readings = set()
    for h in hyps:
        if type(h) is Var:
            ants, goal = [], h
        elif type(h.left) is And:
            ants, goal = [h.left.left, h.left.right], h.right
        else:
            ants, goal = [h.left], h.right
        readings.add(sequent("sdm", [rep[a] for a in ants], rep[goal]))
    assert all(refute(s, "sdm", 6) is None for s in readings)
    assert len(readings) == 145


def test_h_clauses():
    assert h_to_cl(Neg(And(p, q))) == Or(Var("p", "primed"), Var("q", "primed"))
    assert h_to_cl(Neg(Or(p, q))) == And(Var("p", "primed"), Var("q", "primed"))
    assert h_to_cl(Neg(Neg(p))) == p
    assert h_to_cl(Neg(BOT)) == TOP_IMP
    assert h_to_cl(Neg(Neg(Neg(p)))) == Var("p", "primed")

    for t in (Imp(p, q), Neg(Imp(p, q)), And(p, Neg(Neg(Imp(p, q))))):
        with pytest.raises(ValueError, match="h is defined on the algebraic language"):
            h_to_cl(t)

def test_g_clauses():
    assert g_glivenko(p) == Imp(Imp(p, BOT), BOT)
    assert g_glivenko((p, q)) == (Imp(Imp(p, BOT), BOT), Imp(Imp(q, BOT), BOT))
    assert print_term(g_glivenko(p)) == "p -> F -> F"


def test_f_sequent_empty_antecedent_uses_top():
    s = parse_sequent("=> p", "dm")
    assert f_sequent(s).antecedent == (plain(TOP_ALG),)


def test_check_embedding_pins():
    eng = SearchEngine()
    rep = check_embedding("dm-to-sdm-f", [parse_sequent("~~p => p", "dm")], engine=eng)
    assert rep.agreements == rep.total == 1
    rep = check_embedding("sdm-to-int-k", [parse_sequent("p => ~~p", "sdm")], engine=eng)
    assert rep.agreements == 1  # both sides refute
    rep = check_embedding("cl-to-int-g", [parse_sequent("=> p | ~p", "cl")], engine=eng)
    assert rep.agreements == 1  # both sides derive


def test_check_embedding_healthy_kinds_on_corpora():
    eng = SearchEngine()
    dm = generate_sequents("dm", 120, CorpusConfig(seed=61, max_depth=2, max_antecedent=3), max_weight=16)
    cl = generate_sequents("cl", 120, CorpusConfig(seed=62, max_depth=2, max_antecedent=3))
    assert check_embedding("dm-to-cl-h", dm, engine=eng).agreement_rate == 1.0
    assert check_embedding("cl-to-int-g", cl, engine=eng).agreement_rate == 1.0


def test_check_embedding_rejects_mismatched_corpus():
    with pytest.raises(ValueError):
        check_embedding("dm-to-sdm-f", [parse_sequent("p => p", "sdm")])
    with pytest.raises(ValueError):
        check_embedding("no-such-kind", [])



def test_translate_rejects_a_sequent_of_another_calculus():
    sdm = parse_sequent("*~(p & q) => p", "sdm")
    dm = parse_sequent("~(p & q) => p", "dm")
    for name, (source, _, _) in TRANSLATIONS.items():
        s = dm if source == "sdm" else sdm
        with pytest.raises(ValueError, match=f"{name} reads {source} sequents, not {s.calculus}"):
            translate(name, s, ClassRegistry())
    # a sequent of the source calculus keeps its image
    assert translate("h", dm) == h_sequent(dm)
    assert print_sequent(translate("k", sdm, ClassRegistry())) == "p'' & q'' => p"


# -- characterization: counterexamples of the star rule alone --------------
#
# Exhaustive search found these with the star rule `*` as the only rule for
# a starred succedent: it demands exactly the starred member's term, so the
# sequents below were underivable although they hold in every semi-De Morgan
# algebra.  The star family (*0, *1, *n), whose premisses are G3DM
# sequents, derives them; each test pins that verdict and replays the proof.

def _rules(d):
    return {d.rule}.union(*(_rules(c) for c in d.children))


def test_star_rule_blocks_full_cut():
    eng = SearchEngine()
    left = parse_sequent("~q => ~~~q", "sdm")
    right = parse_sequent("~~~q => ~(~r & ~~q)", "sdm")
    conclusion = parse_sequent("~q => ~(~r & ~~q)", "sdm")
    assert eng.derivable("sdm", left)
    assert eng.derivable("sdm", right)
    d = eng.derive("sdm", conclusion)
    assert d is not None and check_derivation("sdm", d)
    assert _rules(d) & STAR_FAMILY
    assert eng.min_height("sdm", conclusion) is not None  # exhaustive enumeration
    assert refute(conclusion, "sdm", 5) is None  # valid in small algebras


def test_star_rule_blocks_f_embedding_occasionally():
    eng = SearchEngine()
    src = parse_sequent("q, r & (q & p | p & p) => p", "dm")
    assert eng.derivable("dm", src)
    d = eng.derive("sdm", f_sequent(src))
    assert d is not None and check_derivation("sdm", d)
    assert _rules(d) & STAR_FAMILY


def test_k_embedding_fails_on_top_class():
    # ~~(~F | ~~r) lies in the top class; k gives it an atom, and the unit
    # hypothesis #k0 lets the image derive as the source does
    eng = SearchEngine()
    s = parse_sequent("~~q => ~~(~F | ~~r)", "sdm")
    assert eng.derivable("sdm", s)
    image = k_sequent(s, ClassRegistry(eng))
    assert print_sequent(image) == "q'', #k0, q'' -> #k0 => #k0"
    d = eng.derive("int", image)
    assert d is not None and check_derivation("int", d)


def test_or_of_negations_direction():
    # a derivable DM goal flips, inside the DM calculus, into a disjunction
    # of negated members; the SDM calculus cannot host this (it needs the
    # full law ~(a & b) = ~a | ~b), see the characterization test below
    from morgankit.corpus import CorpusConfig, derivable_corpus
    from morgankit.terms import fold
    eng = SearchEngine()
    cfg = CorpusConfig(seed=71, max_depth=2, max_antecedent=3)
    for s in derivable_corpus("dm", 60, cfg, max_weight=14, engine=eng):
        negations = sorted((Neg(m) for m in s.antecedent), key=lambda t: t.key())
        flipped = sequent("dm", [Neg(s.succedent)], fold(Or, negations, BOT))
        assert eng.derivable("dm", flipped), print_sequent(s)


def test_or_of_negations_is_a_dm_fact_not_an_sdm_one():
    eng = SearchEngine()
    src = parse_sequent("p, q => p & (q & q)", "dm")
    assert eng.derivable("dm", src)
    image = parse_sequent("~(p & (q & q)) => ~p | ~q", "sdm")
    assert not eng.derivable("sdm", image)
    assert refute(image, "sdm", 6) is not None  # semantically invalid in SDM


def test_embedding_report_record():
    class NoClassicalProofs(SearchEngine):
        # derives no CL goal, so each derivable DM source is a counterexample
        def derivable(self, calculus, goal):
            return calculus != "cl" and super().derivable(calculus, goal)

    corpus = [parse_sequent("p => p", "dm"), parse_sequent("p => q", "dm")]
    rep = check_embedding("dm-to-cl-h", corpus, engine=NoClassicalProofs())
    assert rep == ("dm-to-cl-h", 2, 1, (("p => p", True, False),), 0, 0)
    assert repr(rep) == (
        "EmbeddingReport(kind='dm-to-cl-h', total=2, agreements=1, "
        "counterexamples=(('p => p', True, False),), variant_total=0, "
        "variant_agreements=0)")
    assert (rep.agreement_rate, rep.variant_rate) == (0.5, 1.0)
    with pytest.raises(AttributeError):
        rep.total = 3
    with pytest.raises(AttributeError):
        rep.counterexamples.append(("p => q", False, True))
