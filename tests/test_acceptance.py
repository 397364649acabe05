"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Criterion 8 asserts the paper's embedding theorems at face value, and two of
its six legs fail on concrete instances: ``sdm-to-int-k`` (298 of 300 goals
agree) and ``diagram`` (286 of 300), because the ``k`` translation maps
irreducible negated terms to class atoms that carry no order between them.
The run prints the counterexamples.  Every other criterion passes, criteria
3 (admissibility and cut) and 9 (the derivable-sequent schemata) included.
"""

import random
import time

import pytest

from morgankit import (
    BOT, And, Neg, Or, SearchEngine, Var,
    all_partitions, check_derivation, check_embedding, dm4, dm_weight,
    enumerate_algebras, expand, h_sequent, interpolate,
    parse_sequent, plain, print_sequent,
    proof_from_obj, proof_to_obj, refute, sdm_weight, sequent,
    starred, t_flatten, valid, verify_interpolant,
)
from morgankit.corpus import (
    CorpusConfig, derivable_corpus, generate_sequents, random_sequent,
    random_term,
)
from morgankit.translations import f_godel_gentzen

ENGINE = SearchEngine()
PROOF_POOL = []


def _pool(derivation):
    if derivation is not None and len(PROOF_POOL) < 4000:
        PROOF_POOL.append(derivation)
    return derivation


def _derive(calc, s):
    return _pool(ENGINE.derive(calc, s))


def _report(num, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2}] {status} ({elapsed:.1f}s / budget {budget}s): {detail}")
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")
    if elapsed >= budget:
        pytest.fail(f"criterion {num}: exceeded {budget}s budget ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def sdm500():
    cfg = CorpusConfig(seed=510, max_depth=3, max_antecedent=4)
    return derivable_corpus("sdm", 500, cfg, max_weight=25, engine=ENGINE)


@pytest.fixture(scope="module")
def dm500():
    cfg = CorpusConfig(seed=520, max_depth=3, max_antecedent=4)
    return derivable_corpus("dm", 500, cfg, max_weight=25, engine=ENGINE)


def test_criterion_1_basic_axiom_corpus():
    """Nine axiom schemata of the axiomatic presentation, 200 instances each."""
    rng = random.Random(101)
    cfg = CorpusConfig(seed=101, max_depth=3)
    t0 = time.perf_counter()
    failures = []
    for i in range(200):
        a, b, c = (random_term(rng, cfg) for _ in range(3))
        schemata = {
            "Id": ([a], a),
            "D": ([And(a, Or(b, c))], Or(And(a, b), And(a, c))),
            "Bot": ([BOT], a),
            "Top": ([a], Neg(BOT)),
            "NegNegBot": ([Neg(Neg(BOT))], a),
            "TripleNeg1": ([Neg(Neg(Neg(a)))], Neg(a)),
            "TripleNeg2": ([Neg(a)], Neg(Neg(Neg(a)))),
            "NegOr": ([And(Neg(a), Neg(b))], Neg(Or(a, b))),
            "NegAnd": ([And(Neg(Neg(a)), Neg(Neg(b)))], Neg(Neg(And(a, b)))),
        }
        for name, (ant, succ) in schemata.items():
            s = sequent("sdm", [plain(t) for t in ant], plain(succ))
            if _derive("sdm", s) is None:
                failures.append((name, print_sequent(s)))
    _report(1, not failures, time.perf_counter() - t0, 10,
            f"1800 axiom-schema instances derivable; failures: {failures[:3]}")


def test_criterion_2_weight_decrease():
    """Strict premiss-weight decrease over 10,000 instances per weighted calculus."""
    t0 = time.perf_counter()
    bad = []
    for calc, weigh in (("sdm", sdm_weight), ("dm", dm_weight)):
        cfg = CorpusConfig(seed=202 if calc == "sdm" else 203,
                           max_depth=3, max_antecedent=4)
        rng = random.Random(cfg.seed)
        seen = 0
        while seen < 10000:
            goal = random_sequent(rng, cfg, calc)
            w = weigh(goal)
            for inst in expand(goal):
                for pm in inst.premisses:
                    seen += 1
                    if weigh(pm) >= w:
                        bad.append((calc, inst.label, print_sequent(goal)))
    _report(2, not bad, time.perf_counter() - t0, 5,
            f">=10000 instances per calculus, strict decrease; exceptions: {bad[:3]}")


def _inversion_clauses(calc):
    if calc == "sdm":
        def clauses(s):
            if s.succedent.star:
                return  # the inversion lemma is stated for term succedents
            for i, m in enumerate(s.antecedent):
                t, rest = m.term, s.without(i)
                if not m.star:
                    if type(t) is And:
                        yield [sequent(calc, rest + (plain(t.left), plain(t.right)), s.succedent)]
                    elif type(t) is Or:
                        yield [sequent(calc, rest + (plain(t.left),), s.succedent),
                               sequent(calc, rest + (plain(t.right),), s.succedent)]
                    elif type(t) is Neg:
                        yield [sequent(calc, rest + (starred(t.arg),), s.succedent)]
                else:
                    if type(t) is Or:
                        yield [sequent(calc, rest + (starred(t.left), starred(t.right)), s.succedent)]
                    elif type(t) is Neg and type(t.arg) is And:
                        yield [sequent(calc, rest + (starred(Neg(t.arg.left)), starred(Neg(t.arg.right))), s.succedent)]
                    elif type(t) is Neg and type(t.arg) is Neg:
                        yield [sequent(calc, rest + (starred(t.arg.arg),), s.succedent)]
    else:
        def clauses(s):
            for i, t in enumerate(s.antecedent):
                rest = s.without(i)
                if type(t) is And:
                    yield [sequent(calc, rest + (t.left, t.right), s.succedent)]
                elif type(t) is Or:
                    yield [sequent(calc, rest + (t.left,), s.succedent),
                           sequent(calc, rest + (t.right,), s.succedent)]
                elif type(t) is Neg:
                    a = t.arg
                    if type(a) is And:
                        yield [sequent(calc, rest + (Neg(a.left),), s.succedent),
                               sequent(calc, rest + (Neg(a.right),), s.succedent)]
                    elif type(a) is Or:
                        yield [sequent(calc, rest + (Neg(a.left), Neg(a.right)), s.succedent)]
                    elif type(a) is Neg:
                        yield [sequent(calc, rest + (a.arg,), s.succedent)]
    return clauses


def _essential_cut_pairs(calc, lefts, count, seed):
    """Pairs (G=>a, a,D=>b) both derivable where a is needed on the right."""
    rng = random.Random(seed)
    cfg = CorpusConfig(seed=seed, max_depth=2, max_antecedent=2)
    pairs = []
    tried = 0
    while len(pairs) < count and tried < 60000:
        tried += 1
        left = lefts[rng.randrange(len(lefts))]
        base = random_sequent(rng, cfg, calc)
        alpha = left.succedent
        right = sequent(calc, list(base.antecedent) + [alpha], base.succedent)
        if not ENGINE.derivable(calc, right):
            continue
        if ENGINE.derivable(calc, base):
            continue
        pairs.append((left, right, base))
    return pairs


def test_criterion_3_admissibility_suite(sdm500, dm500):
    t0 = time.perf_counter()
    problems = []

    for calc, corpus, extra in (("sdm", sdm500, starred(Var("s1"))),
                                ("dm", dm500, Neg(Var("s1")))):
        clauses = _inversion_clauses(calc)
        for s in corpus:
            n = ENGINE.min_height(calc, s)
            # height-preserving weakening
            weakened = sequent(calc, list(s.antecedent) + [extra], s.succedent)
            if not ENGINE.derivable_within_height(calc, weakened, n):
                problems.append(("weakening", calc, print_sequent(s)))
            # height-preserving contraction (term succedent for SDM)
            if s.antecedent and not (calc == "sdm" and s.succedent.star):
                m = s.antecedent[0]
                doubled = sequent(calc, list(s.antecedent) + [m], s.succedent)
                nd = ENGINE.min_height(calc, doubled)
                if not ENGINE.derivable_within_height(calc, s, nd):
                    problems.append(("contraction", calc, print_sequent(s)))
            # height-preserving inversion, every matching clause
            for premisses in clauses(s):
                for pm in premisses:
                    if not ENGINE.derivable_within_height(calc, pm, n):
                        problems.append(("inversion", calc, print_sequent(pm)))

    # exchange: a negated succedent and a starred one are interderivable
    for s in sdm500:
        succ = s.succedent
        if not succ.star and type(succ.term) is Neg:
            partner = sequent("sdm", s.antecedent, starred(succ.term.arg))
        elif succ.star:
            partner = sequent("sdm", s.antecedent, plain(Neg(succ.term)))
        else:
            continue
        if not ENGINE.derivable("sdm", partner):
            problems.append(("exchange", "sdm", print_sequent(s)))

    # contraposition: phi => psi derivable gives ~psi, G => ~phi
    rng = random.Random(333)
    cfg = CorpusConfig(seed=333, max_depth=1, max_antecedent=2)
    for s in sdm500[:250]:
        if not s.antecedent:
            continue
        phi, psi = t_flatten(s.antecedent), t_flatten(s.succedent)
        gamma = [plain(random_term(rng, cfg)) for _ in range(rng.randint(0, 2))]
        cp = sequent("sdm", [plain(Neg(psi))] + gamma, plain(Neg(phi)))
        if not ENGINE.derivable("sdm", cp):
            problems.append(("contraposition", "sdm", print_sequent(cp)))

    # cut over 200 compatible derivable pairs (100 per calculus)
    for calc, corpus in (("sdm", sdm500), ("dm", dm500)):
        for left, right, base in _essential_cut_pairs(calc, corpus, 100, seed=44):
            conclusion = sequent(
                calc, list(left.antecedent) + list(base.antecedent), base.succedent)
            if not ENGINE.derivable(calc, conclusion):
                problems.append(
                    ("cut", calc,
                     f"{print_sequent(left)}  +  {print_sequent(right)}"))

    counts = {}
    for kind, calc, _ in problems:
        counts[(kind, calc)] = counts.get((kind, calc), 0) + 1
    _report(3, not problems, time.perf_counter() - t0, 120,
            f"weakening/contraction/inversion/exchange/contraposition/cut on "
            f"500+500 derivable sequents; failures by kind: {counts or 'none'}; "
            f"first: {problems[:2]}")


def test_criterion_4_interpolation(sdm500, dm500):
    t0 = time.perf_counter()
    bad = []
    for calc, corpus in (("sdm", sdm500[:250]), ("dm", dm500[:250])):
        for s in corpus:
            d = _derive(calc, s)
            for part in all_partitions(s):
                result = interpolate(calc, d, part, engine=ENGINE)
                _pool(result.left_derivation)
                _pool(result.right_derivation)
                if not verify_interpolant(calc, s, part, result.interpolant,
                                          engine=ENGINE):
                    bad.append((calc, print_sequent(s)))
                elif calc == "sdm":
                    flat = plain(t_flatten(result.interpolant))
                    if not verify_interpolant(calc, s, part, flat, engine=ENGINE):
                        bad.append(("sdm-flattened", print_sequent(s)))
    _report(4, not bad, time.perf_counter() - t0, 60,
            f"all 2^|antecedent| partitions of 250+250 derivable sequents "
            f"verified; failures: {bad[:3]}")


def _terms_by_complexity(cmax):
    atoms = [Var("p"), Var("q"), BOT]
    by_c = {0: atoms}
    for c in range(1, cmax + 1):
        layer = [Neg(t) for t in by_c[c - 1]]
        for i in range(c):
            for a in by_c[i]:
                for b in by_c[c - 1 - i]:
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
        by_c[c] = layer
    return by_c


def _dm_family(cmax):
    by_c = _terms_by_complexity(cmax)
    for cs in range(cmax + 1):
        for succ in by_c[cs]:
            yield sequent("dm", [], succ)
    for ca in range(cmax + 1):
        for cs in range(cmax + 1 - ca):
            for a in by_c[ca]:
                for succ in by_c[cs]:
                    yield sequent("dm", [a], succ)
    for ca in range(cmax + 1):
        for cb in range(ca, cmax + 1):
            for cs in range(cmax + 1 - ca - cb):
                for i, a in enumerate(by_c[ca]):
                    bs = by_c[cb][i:] if ca == cb else by_c[cb]
                    for b in bs:
                        for succ in by_c[cs]:
                            yield sequent("dm", [a, b], succ)


def test_criterion_5_dm4_oracle_agreement():
    """Exhaustive two-variable family plus a deeper random extension.

    The face-value family (every term of connective count <= 4, up to two
    antecedent members) has more than 10^9 sequents, so the exhaustive core
    here bounds the sequent's total connective count by 3 (174,351 sequents)
    and a seeded random layer covers deeper terms.
    """
    t0 = time.perf_counter()
    alg = dm4()
    disagreements = []
    n = 0
    for s in _dm_family(3):
        n += 1
        if valid(s, alg) != ENGINE.derivable("dm", s):
            disagreements.append(print_sequent(s))
    cfg = CorpusConfig(seed=505, max_depth=3, max_antecedent=2,
                       variables=("p", "q"))
    for s in generate_sequents("dm", 2000, cfg, max_weight=16):
        n += 1
        if valid(s, alg) != ENGINE.derivable("dm", s):
            disagreements.append(print_sequent(s))
    _report(5, not disagreements, time.perf_counter() - t0, 60,
            f"derive agrees with the four-element oracle on {n} sequents "
            f"(174,351 exhaustive + 2,000 random); disagreements: {disagreements[:3]}")


def test_criterion_6_sdm_soundness(sdm500):
    t0 = time.perf_counter()
    algebras = enumerate_algebras("sdm", 5)
    bad = []
    for s in sdm500:
        for alg in algebras:
            if not valid(s, alg):
                bad.append((print_sequent(s), alg.size))
                break
    _report(6, not bad, time.perf_counter() - t0, 60,
            f"500 derivable sequents valid in all {len(algebras)} "
            f"algebras of size <= 5; failures: {bad[:3]}")


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    controls = ["p => ~~p", "~~p => p", "~(~p & ~q) => p | q"]
    ok = True
    detail = []
    for text in controls:
        sdm_side = ENGINE.derivable("sdm", parse_sequent(text, "sdm"))
        dm_side = _derive("dm", parse_sequent(text, "dm")) is not None
        witness = refute(parse_sequent(text, "sdm"), "sdm", 5)
        good = (not sdm_side) and dm_side and witness is not None
        ok &= good
        detail.append(f"{text!r}: sdm-refuted={not sdm_side} dm-derived={dm_side} "
                      f"counter-witness-size={witness[0].size if witness else None}")
    _report(7, ok, time.perf_counter() - t0, 10, "; ".join(detail))


def test_criterion_8_embedding_theorems():
    t0 = time.perf_counter()
    dm_corpus = generate_sequents(
        "dm", 300, CorpusConfig(seed=801, max_depth=3, max_antecedent=4),
        max_weight=20)
    sdm_corpus = generate_sequents(
        "sdm", 300, CorpusConfig(seed=802, max_depth=3, max_antecedent=4),
        max_weight=20)
    cl_corpus = [h_sequent(s) for s in dm_corpus]
    legs = {}
    reports = {}
    for kind, corpus in (("dm-to-sdm-f", dm_corpus),
                         ("dm-glivenko-sdm", dm_corpus),
                         ("sdm-to-int-k", sdm_corpus),
                         ("dm-to-cl-h", dm_corpus),
                         ("cl-to-int-g", cl_corpus),
                         ("diagram", dm_corpus)):
        rep = check_embedding(kind, corpus, engine=ENGINE)
        reports[kind] = rep
        legs[kind] = f"{rep.agreements}/{rep.total}"
    variant = reports["dm-glivenko-sdm"]
    print(f"[criterion  8] single-negation succedent variant (reported, ungated): "
          f"{variant.variant_agreements}/{variant.variant_total} "
          f"({100 * variant.variant_rate:.1f}%)")
    for kind in legs:
        for cx in reports[kind].counterexamples[:2]:
            print(f"[criterion  8]   {kind} counterexample: {cx[0]} "
                  f"source={cx[1]} target={cx[2]}")
    ok = all(reports[k].agreements == reports[k].total for k in legs)
    _report(8, ok, time.perf_counter() - t0, 300,
            f"agreement per kind: {legs}")


def test_criterion_9_lemma_schemata():
    t0 = time.perf_counter()
    rng = random.Random(901)
    cfg = CorpusConfig(seed=901, max_depth=3)
    fails = {}
    for _ in range(200):
        a, b = random_term(rng, cfg), random_term(rng, cfg)
        f_a = f_godel_gentzen(a)
        checks = {
            "neg-and-to-nn-or": ([Neg(And(a, b))], Neg(Neg(Or(Neg(a), Neg(b))))),
            "nn-or-to-neg-and": ([Neg(Neg(Or(Neg(a), Neg(b))))], Neg(And(a, b))),
            "neg-negs-to-nn": ([Neg(And(Neg(a), Neg(b)))], Neg(Neg(Or(a, b)))),
            "nn-to-neg-negs": ([Neg(Neg(Or(a, b)))], Neg(And(Neg(a), Neg(b)))),
            "f-stable-in": ([f_a], Neg(Neg(f_a))),
            "f-stable-out": ([Neg(Neg(f_a))], f_a),
            "f-vs-nn-in": ([f_a], Neg(Neg(a))),
            "f-vs-nn-out": ([Neg(Neg(a))], f_a),
        }
        for name, (ant, succ) in checks.items():
            s = sequent("sdm", [plain(t) for t in ant], plain(succ))
            if not ENGINE.derivable("sdm", s):
                fails[name] = fails.get(name, 0) + 1
    _report(9, not fails, time.perf_counter() - t0, 30,
            f"schema failures over 200 instantiations: {fails or 'none'}")


def test_criterion_10_proof_objects(sdm500, dm500):
    t0 = time.perf_counter()
    if len(PROOF_POOL) < 100:  # stand-alone run: repopulate
        for calc, corpus in (("sdm", sdm500[:100]), ("dm", dm500[:100])):
            for s in corpus:
                _derive(calc, s)
    bad_check = bad_json = 0
    for d in PROOF_POOL:
        if not check_derivation(d.sequent.calculus, d):
            bad_check += 1
        if proof_from_obj(proof_to_obj(d)) != d:
            bad_json += 1
    ok = bad_check == 0 and bad_json == 0 and len(PROOF_POOL) > 0
    _report(10, ok, time.perf_counter() - t0, 60,
            f"{len(PROOF_POOL)} derivations replay-checked and JSON "
            f"round-tripped; check failures {bad_check}, json failures {bad_json}")
