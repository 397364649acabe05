import pytest

from morgankit import (
    BOT, CalculusMismatchError, Or, Var,
    dm_weight, expand, parse_sequent, plain, sdm_weight, sequent, starred,
)
from morgankit.calculi import g3ip_premisses, iter_g3ip, iter_g3sdm
from morgankit.corpus import CorpusConfig, generate_sequents

p, q, r = Var("p"), Var("q"), Var("r")


def _labels(instances):
    return {i.label for i in instances}


def test_g3sdm_axioms():
    assert "Id" in _labels(expand(parse_sequent("p, q => p", "sdm")))
    assert "Bot=>" in _labels(expand(parse_sequent("F, q => p", "sdm")))
    assert "=>*Bot" in _labels(expand(parse_sequent("q => *F", "sdm")))
    assert "*~Bot=>" in _labels(expand(parse_sequent("*~F => p", "sdm")))
    assert not _labels(expand(parse_sequent("*p => q", "sdm")))


def test_g3sdm_star_or_left():
    goal = parse_sequent("*(p | q) => r", "sdm")
    (inst,) = [i for i in expand(goal) if i.label == "*|=>"]
    assert inst.premisses == (sequent("sdm", [starred(p), starred(q)], plain(r)),)


def test_g3sdm_star_rule_discards_context():
    goal = parse_sequent("*q, r => *p", "sdm")
    (inst,) = [i for i in expand(goal) if i.label == "*"]
    assert inst.premisses == (sequent("sdm", [plain(p)], plain(q)),)


def test_g3sdm_star_rule_needs_starred_succedent():
    assert "*" not in _labels(expand(parse_sequent("*q, r => p", "sdm")))


def test_g3sdm_star_family_instances():
    goal = parse_sequent("*q, *r, p => *s", "sdm")
    s = Var("s")
    got = [(i.label, i.principal, i.premisses) for i in expand(goal)
           if i.label in ("*0", "*1", "*n")]
    # every subset of the starred occurrences (positions 1 and 2), full first
    assert got == [
        ("*n", 0b110, (sequent("dm", [s], Or(q, r)),)),
        ("*1", 2, (sequent("dm", [s], r),)),
        ("*1", 1, (sequent("dm", [s], q),)),
        ("*0", -1, (sequent("dm", [s], BOT),)),
    ]
    assert all(sdm_weight(pm) == 0 for _, _, (pm,) in got)
    assert not _labels(expand(parse_sequent("*q => p", "sdm"))) & {"*0", "*1", "*n"}


def test_right_rule_premisses_share_the_goal_antecedent():
    # the premisses of =>|1, of =>& and of |R1, and the first one of ->L
    for text, calc, labels, n in (("q & r, *p => p | q", "sdm", ("=>|1",), 1),
                                  ("~p, q | r => p & q", "dm", ("=>&",), 2),
                                  ("p -> q, r => p | q", "int", ("|R1", "->L"), 2)):
        goal = parse_sequent(text, calc)
        shared = [pm for inst in expand(goal) if inst.label in labels
                  for pm in inst.premisses[:1 if inst.label == "->L" else 2]]
        assert len(shared) == n
        for pm in shared:
            assert pm.antecedent is goal.antecedent
            assert pm == sequent(calc, goal.antecedent, pm.succedent)
            assert type(pm) is type(goal)


def test_star_family_premisses_share_one_antecedent():
    goal = parse_sequent("*q, *r, p => *s", "sdm")
    family = [i.premisses[0] for i in expand(goal) if i.label in ("*0", "*1", "*n")]
    assert len(family) == 4
    assert all(pm.antecedent is family[0].antecedent for pm in family)
    goal = parse_sequent("*q, *r => *s", "sdm")
    star = [i.premisses[0] for i in expand(goal) if i.label == "*"]
    assert [pm.succedent for pm in star] == [plain(q), plain(r)]
    assert star[0].antecedent is star[1].antecedent == (plain(Var("s")),)


def test_g3dm_axioms_and_rules():
    assert "Id2" in _labels(expand(parse_sequent("~p, q => ~p", "dm")))
    goal = parse_sequent("~~p => p", "dm")
    (inst,) = [i for i in expand(goal) if i.label == "~~=>"]
    assert inst.premisses == (parse_sequent("p => p", "dm"),)
    goal = parse_sequent("~(p | q) => r", "dm")
    (inst,) = [i for i in expand(goal) if i.label == "~|=>"]
    assert inst.premisses == (parse_sequent("~p, ~q => r", "dm"),)


def test_g3dm_neg_and_right_projections():
    goal = parse_sequent("=> ~(p & q)", "dm")
    got = {i.label: i.premisses for i in expand(goal)}
    assert got["=>~&1"] == (parse_sequent("=> ~p", "dm"),)
    assert got["=>~&2"] == (parse_sequent("=> ~q", "dm"),)


def test_g3ip_imp_left_keeps_principal():
    goal = parse_sequent("p -> q, p => q", "int")
    (inst,) = [i for i in expand(goal) if i.label == "->L"]
    assert inst.premisses == (
        parse_sequent("p -> q, p => p", "int"),
        parse_sequent("q, p => q", "int"),
    )


def test_g3ip_bottom_axiom():
    assert "BotL" in _labels(expand(parse_sequent("F => q", "int")))


def test_gem_at_instances():
    goal = parse_sequent("=> p | ~p", "cl")
    gems = [i for i in expand(goal) if i.label == "Gem-at"]
    assert len(gems) == 1
    assert gems[0].premisses == (
        parse_sequent("p => p | ~p", "cl"),
        parse_sequent("~p => p | ~p", "cl"),
    )
    assert "Gem-at" not in _labels(expand(parse_sequent("=> p | ~p", "int")))


def test_calculus_tag_checked():
    with pytest.raises(CalculusMismatchError):
        list(iter_g3sdm(parse_sequent("p => p", "dm")))
    with pytest.raises(CalculusMismatchError):
        list(iter_g3ip(parse_sequent("p => p", "dm")))
    with pytest.raises(CalculusMismatchError):
        g3ip_premisses(parse_sequent("p => p", "dm"), "Id", None)


def test_occurrence_completeness():
    goal = parse_sequent("p & q, p & q, r => r", "sdm")
    insts = [i for i in expand(goal) if i.label == "&=>"]
    assert len(insts) == 2
    assert len({i.principal for i in insts}) == 2
    goal = parse_sequent("p -> q, p -> q => q", "int")
    assert len([i for i in expand(goal) if i.label == "->L"]) == 2


def _goals(calculus, count, seed, max_weight=None):
    cfg = CorpusConfig(seed=seed, max_depth=3, max_antecedent=4)
    return generate_sequents(calculus, count, cfg, max_weight=max_weight)


G3IP_LABELS = ("Id", "BotL", "&L", "&R", "|L", "|R1", "|R2", "->L", "->R", "Gem-at")


@pytest.mark.parametrize("calc", ["int", "cl"])
def test_g3ip_premisses_agree_with_iter_g3ip(calc):
    # the builder gives every non-Gem-at instance iter_g3ip yields, and None
    # for every other label and principal, a negative one and the bools
    # included
    goals = [g for seed in (1, 2) for g in generate_sequents(calc, 150, CorpusConfig(seed=seed))]
    goals += [pm for g in goals for inst in iter_g3ip(g) for pm in inst.premisses]
    seen = set()
    for goal in goals:
        want = {(i.label, i.principal): i.premisses
                for i in iter_g3ip(goal) if i.label != "Gem-at"}
        for label in G3IP_LABELS:
            for principal in (None, -2, -1, *range(len(goal.antecedent) + 1)):
                assert g3ip_premisses(goal, label, principal) == want.get((label, principal))
            # False == 0 and True == 1, but neither names a position
            assert g3ip_premisses(goal, label, False) is None
            assert g3ip_premisses(goal, label, True) is None
        seen.update(label for label, _ in want)
    assert seen == set(G3IP_LABELS) - {"Gem-at"}


def test_weight_decrease_sdm():
    checked = 0
    for goal in _goals("sdm", 400, seed=5):
        w = sdm_weight(goal)
        for inst in expand(goal):
            for pm in inst.premisses:
                assert sdm_weight(pm) < w, inst.label
                checked += 1
    assert checked > 1000


def test_weight_decrease_dm():
    for goal in _goals("dm", 400, seed=6):
        w = dm_weight(goal)
        for inst in expand(goal):
            for pm in inst.premisses:
                assert dm_weight(pm) < w, inst.label


def test_rule_instance_record():
    from morgankit import RuleInstance
    goal = parse_sequent("p & q => p", "sdm")
    (inst,) = expand(goal)
    (twin,) = expand(parse_sequent("p & q => p", "sdm"))
    assert inst is not twin and inst == twin and hash(inst) == hash(twin)
    assert inst == RuleInstance("&=>", inst.premisses, 0)
    assert inst != RuleInstance("&=>", inst.premisses, -1)
    assert repr(inst) == "<RuleInstance &=> principal=0>"
    with pytest.raises(AttributeError):
        inst.label = "Id"
