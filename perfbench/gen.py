"""Seeded input generator for the benchmark workloads.

This module is self-contained: it does not import morgankit, so an edit to
the package (its corpus module included) cannot change a workload.  Terms are
nested tuples:

    ("v", name)   variable          ("F",)        falsum
    ("~", a)      negation          ("&", a, b)   conjunction
    ("|", a, b)   disjunction       ("->", a, b)  implication (INT/CL only)

An SDM member is a pair (star, term); DM, INT and CL members are bare terms.
A sequent is (calculus, antecedent tuple, succedent).  ``render_*`` prints
the surface syntax the morgankit parser reads, with minimal parentheses
(precedence ~ > & > | > ->, binary operators left-associative).

``workload`` builds a workload's records from a seed alone; the same seed
gives the same records and the same input text byte for byte.
"""

from __future__ import annotations

import random

VARS = ("p", "q", "r")

# Size knobs, fixed per workload; changing one changes the benchmark.
SDM_DM_GOALS = 6000          # per calculus; sdm-dm-interp has twice this many ops
SDM_DM_DEPTH = 4
SDM_DM_MAX_WEIGHT = 40
INT_CL_GOALS = 1500          # per calculus
INT_CL_DEPTH = 3
EMBED_SOURCES = 200          # per embedding kind
EMBED_DEPTH = 3
EMBED_MAX_WEIGHT = 20
ORACLE_ROUNDS = 150          # each: six SDM refutes, one DM refute, one DM valid
ORACLE_DEPTH = 3
ORACLE_MAX_WEIGHT = 24
# The term and sequent distribution is the default one of morgankit's
# corpus.CorpusConfig, copied so that an edit there cannot change a workload.
MAX_ANTECEDENT = 4
STAR_PROB = 0.35             # SDM members and succedents
BOTTOM_PROB = 0.08
RELATED_SUCC_PROB = 0.45     # succedent reuses an antecedent member

EMBED_KINDS = ("sdm-to-int-k", "dm-to-cl-h", "cl-to-int-g", "diagram")
EMBED_SOURCE = {"sdm-to-int-k": "sdm", "dm-to-cl-h": "dm",
                "cl-to-int-g": "cl", "diagram": "dm"}


# -- terms ------------------------------------------------------------------

def random_term(rng: random.Random, depth: int, imp: bool):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < BOTTOM_PROB:
            return ("F",)
        return ("v", rng.choice(VARS))
    r = rng.random()
    if r < 0.34:
        if imp:
            return ("->", random_term(rng, depth - 1, imp),
                    random_term(rng, depth - 1, imp))
        return ("~", random_term(rng, depth - 1, imp))
    op = "&" if r < 0.67 else "|"
    return (op, random_term(rng, depth - 1, imp), random_term(rng, depth - 1, imp))


def sdm_weight(t) -> int:
    """The G3SDM weight: atoms 1, ~ and | add 2, & adds 4."""
    op = t[0]
    if op in ("v", "F"):
        return 1
    if op == "~":
        return sdm_weight(t[1]) + 2
    return sdm_weight(t[1]) + sdm_weight(t[2]) + (4 if op == "&" else 2)


def dm_weight(t) -> int:
    """The G3DM weight: atoms 1, ~ adds 1, & and | add 2."""
    op = t[0]
    if op in ("v", "F"):
        return 1
    if op == "~":
        return dm_weight(t[1]) + 1
    return dm_weight(t[1]) + dm_weight(t[2]) + 2


def sequent_weight(seq) -> int:
    calc, ants, succ = seq
    if calc == "sdm":
        return sum(sdm_weight(t) + star for star, t in ants + (succ,))
    return sum(dm_weight(t) for t in ants + (succ,))


# -- sequents ---------------------------------------------------------------

def _member(rng, calc, depth):
    t = random_term(rng, depth, calc in ("int", "cl"))
    if calc == "sdm":
        return (rng.random() < STAR_PROB, t)
    return t


def random_sequent(rng: random.Random, calc: str, depth: int):
    ants = [_member(rng, calc, depth) for _ in range(rng.randint(0, MAX_ANTECEDENT))]
    if ants and rng.random() < RELATED_SUCC_PROB:
        succ = rng.choice(ants)
        if calc == "sdm" and rng.random() < 0.3:
            succ = (not succ[0], succ[1])
    else:
        succ = _member(rng, calc, depth)
    return (calc, tuple(ants), succ)


def sequents(rng: random.Random, calc: str, count: int, depth: int,
             max_weight=None) -> list:
    """`count` sequents; SDM/DM ones above `max_weight` are redrawn."""
    out = []
    while len(out) < count:
        s = random_sequent(rng, calc, depth)
        if max_weight is not None and sequent_weight(s) > max_weight:
            continue
        out.append(s)
    return out


# -- surface syntax ---------------------------------------------------------

_PREC = {"->": 0, "|": 1, "&": 2}


def render_term(t, prec: int = 0, right: bool = False) -> str:
    op = t[0]
    if op == "v":
        return t[1]
    if op == "F":
        return "F"
    if op == "~":
        return "~" + render_term(t[1], 3)
    own = _PREC[op]
    s = f"{render_term(t[1], own)} {op} {render_term(t[2], own, True)}"
    return f"({s})" if own < prec or (own == prec and right) else s


def render_member(m, calc: str) -> str:
    if calc == "sdm":
        star, t = m
        return "*" + render_term(t, 3) if star else render_term(t)
    return render_term(m)


def render_sequent(seq) -> str:
    calc, ants, succ = seq
    left = ", ".join(render_member(m, calc) for m in ants)
    right = render_member(succ, calc)
    return f"{left} => {right}" if left else f"=> {right}"


def render_partition(seq, mask) -> str:
    """`left ; right => succ`, members split by the boolean mask."""
    calc, ants, succ = seq
    sides = list(zip(ants, mask))
    left = ", ".join(render_member(m, calc) for m, on_left in sides if on_left)
    right = ", ".join(render_member(m, calc) for m, on_left in sides if not on_left)
    return f"{left} ; {right} => {render_member(succ, calc)}".replace("  ", " ").strip()


# -- workloads --------------------------------------------------------------

class Record:
    """One op's input: its surface text plus the tuples the references read."""

    __slots__ = ("op", "calc", "seq", "text", "mask", "partition")

    def __init__(self, op, calc, seq=None, text="", mask=None, partition=""):
        self.op, self.calc, self.seq, self.text = op, calc, seq, text
        self.mask, self.partition = mask, partition

    def line(self) -> str:
        return "\t".join(x for x in (self.op, self.calc, self.text, self.partition) if x)


def _sdm_dm_interp(rng):
    sdm = sequents(rng, "sdm", SDM_DM_GOALS, SDM_DM_DEPTH, SDM_DM_MAX_WEIGHT)
    dm = sequents(rng, "dm", SDM_DM_GOALS, SDM_DM_DEPTH, SDM_DM_MAX_WEIGHT)
    out = []
    for pair in zip(sdm, dm):
        for seq in pair:
            mask = tuple(rng.random() < 0.5 for _ in seq[1])
            out.append(Record("goal", seq[0], seq, render_sequent(seq), mask,
                              render_partition(seq, mask)))
    return out


def _int_cl_embed(rng):
    goals = {c: sequents(rng, c, INT_CL_GOALS, INT_CL_DEPTH) for c in ("int", "cl")}
    return [Record("goal", s[0], s, render_sequent(s))
            for pair in zip(goals["int"], goals["cl"]) for s in pair] + _embeddings(rng)


def _int_k_embed(rng):
    # int-cl-embed without the ops whose reference decides a G3ip or
    # G3ip+Gem-at non-derivation exactly (native G3ip+Gem-at goals and the
    # dm-to-cl-h, cl-to-int-g and diagram checks): the loop-checked search is
    # known to miss some derivations there (see README.md).  What is left is
    # checked one way, derivable => valid, as the references allow.
    goals = sequents(rng, "int", 2 * INT_CL_GOALS, INT_CL_DEPTH)
    sources = sequents(rng, "sdm", len(EMBED_KINDS) * EMBED_SOURCES, EMBED_DEPTH,
                       EMBED_MAX_WEIGHT)
    return ([Record("goal", "int", s, render_sequent(s)) for s in goals]
            + [Record("embed", "sdm-to-int-k", s, render_sequent(s)) for s in sources])


def _embeddings(rng):
    out = []
    sources = {k: sequents(rng, EMBED_SOURCE[k], EMBED_SOURCES, EMBED_DEPTH,
                           EMBED_MAX_WEIGHT) for k in EMBED_KINDS}
    # interleave the kinds so the shared registry grows as it would in use
    for i in range(EMBED_SOURCES):
        for k in EMBED_KINDS:
            s = sources[k][i]
            out.append(Record("embed", k, s, render_sequent(s)))
    return out


def _algebra_oracle(rng):
    out = [Record("enumerate", "sdm", text="6"), Record("enumerate", "dm", text="6")]
    sdm = sequents(rng, "sdm", 6 * ORACLE_ROUNDS, ORACLE_DEPTH, ORACLE_MAX_WEIGHT)
    dm = sequents(rng, "dm", 2 * ORACLE_ROUNDS, ORACLE_DEPTH, ORACLE_MAX_WEIGHT)
    # Most queries are SDM refutes: the valid ones scan all 152 algebras and
    # set op_p99_ms, and with a large share of them the p99 sits well inside
    # that class on every seed instead of at its edge.
    for i in range(ORACLE_ROUNDS):
        queries = [("refute", s) for s in sdm[6 * i:6 * i + 6]]
        queries[3:3] = [("refute", dm[2 * i])]
        queries.append(("valid", dm[2 * i + 1]))
        out.extend(Record(op, s[0], s, render_sequent(s)) for op, s in queries)
    return out


WORKLOADS = {
    "sdm-dm-interp": _sdm_dm_interp,
    "int-cl-embed": _int_cl_embed,
    "int-k-embed": _int_k_embed,
    "algebra-oracle": _algebra_oracle,
}


def workload(name: str, seed: int) -> list:
    """The input records of a workload; a pure function of (name, seed)."""
    # the workload name is mixed in so each workload draws its own stream
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))


def input_text(records) -> str:
    """The workload's input as text, one op per line; its digest names it."""
    return "".join(r.line() + "\n" for r in records)
