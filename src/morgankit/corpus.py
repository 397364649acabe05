"""Seeded random term/sequent corpora for the property and acceptance suites.

Terms come from a weighted grammar over a small variable pool; sequents get
up to `max_antecedent` members.  Everything is driven by `random.Random`
seeds, so corpora are reproducible byte-for-byte on a fixed version.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .terms import (
    BOT, CL, DM, INT, SDM,
    And, Imp, Neg, Or, Sequent, Var,
    dm_weight, plain, sdm_weight, sequent, starred,
)

#: Chance that a leaf is F rather than a variable.
BOTTOM_PROB = 0.08
#: Chance that a sequent reuses an antecedent member as its succedent, which
#: biases the corpus toward derivable goals.
RELATED_SUCCEDENT_PROB = 0.45


class CorpusConfig(namedtuple("CorpusConfig", (
        "seed max_depth variables max_antecedent min_antecedent star_prob"))):
    """A named tuple of generator settings.

    max_depth is the grammar's recursion depth, capped at 5 (also under
    ``_replace``), and star_prob applies to SDM members and succedents only.
    """

    __slots__ = ()

    def __new__(cls, seed: int = 0, max_depth: int = 3,
                variables: tuple = ("p", "q", "r"), max_antecedent: int = 4,
                min_antecedent: int = 0, star_prob: float = 0.35):
        if max_depth > 5:
            raise ValueError("max_depth is capped at 5")
        return tuple.__new__(cls, (seed, max_depth, variables, max_antecedent,
                                   min_antecedent, star_prob))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def random_term(rng: random.Random, cfg: CorpusConfig, depth: int | None = None,
                imp: bool = False):
    """One random term; `imp` switches ~ for -> (the INT/CL language)."""
    if depth is None:
        depth = cfg.max_depth
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < BOTTOM_PROB:
            return BOT
        return Var(rng.choice(cfg.variables))
    r = rng.random()
    if r < 0.34:
        if imp:
            return Imp(random_term(rng, cfg, depth - 1, imp),
                       random_term(rng, cfg, depth - 1, imp))
        return Neg(random_term(rng, cfg, depth - 1, imp))
    if r < 0.67:
        return And(random_term(rng, cfg, depth - 1, imp),
                   random_term(rng, cfg, depth - 1, imp))
    return Or(random_term(rng, cfg, depth - 1, imp),
              random_term(rng, cfg, depth - 1, imp))


def _random_member(rng, cfg, calculus):
    t = random_term(rng, cfg, imp=calculus in (INT, CL))
    if calculus == SDM:
        return starred(t) if rng.random() < cfg.star_prob else plain(t)
    return t


def random_sequent(rng: random.Random, cfg: CorpusConfig, calculus: str) -> Sequent:
    n = rng.randint(cfg.min_antecedent, cfg.max_antecedent)
    ants = [_random_member(rng, cfg, calculus) for _ in range(n)]
    if ants and rng.random() < RELATED_SUCCEDENT_PROB:
        # reuse an antecedent member so identity-like goals are common
        pick = rng.choice(ants)
        succ = pick
        if calculus == SDM and rng.random() < 0.3:
            succ = plain(pick.term) if pick.star else starred(pick.term)
    else:
        succ = _random_member(rng, cfg, calculus)
    return sequent(calculus, ants, succ)


def _stream(calculus: str, cfg: CorpusConfig, max_weight: int | None,
            derivable: bool = False):
    """Endless seeded random sequents, rejection-filtered by weight when asked."""
    import random  # here only: importing morgankit should not load random
    rng = random.Random(cfg.seed)
    weigh = sdm_weight if calculus == SDM else dm_weight if calculus == DM else None
    # every member weighs at least 1, so p, ..., p => p is the lightest goal;
    # p => p, => *F and => ~F, of weight 2, are the lightest derivable ones
    least = max(cfg.min_antecedent + 1, 2 if derivable else 1)
    if weigh is not None and max_weight is not None and max_weight < least:
        kind = "derivable sequent" if derivable else "sequent"
        raise ValueError(f"max weight {max_weight} admits no {kind}: the "
                         f"lightest has weight {least}")
    while True:
        s = random_sequent(rng, cfg, calculus)
        if max_weight is None or weigh is None or weigh(s) <= max_weight:
            yield s


def generate_sequents(calculus: str, count: int, cfg: CorpusConfig,
                      max_weight: int | None = None) -> list:
    """`count` random sequents, rejection-filtered by weight when asked."""
    return list(islice(_stream(calculus, cfg, max_weight), count))


def derivable_corpus(calculus: str, count: int, cfg: CorpusConfig,
                     max_weight: int | None = None, engine=None) -> list:
    """`count` derivable sequents, found by rejection sampling."""
    from .search import default_engine
    eng = engine or default_engine()
    return list(islice((s for s in _stream(calculus, cfg, max_weight, True)
                        if eng.derivable(calculus, s)), count))
