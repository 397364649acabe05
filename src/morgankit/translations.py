"""The six syntactic translations and the embedding-verification harness.

``TRANSLATIONS`` names each map with the calculus it reads and its term and
sequent images; ``translate`` applies one by name.  Each embedding kind
compares the images of a source sequent under two chains of those names, and
``check_embedding`` runs a corpus through both and reports agreement,
listing counterexamples verbatim.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .search import SearchEngine, default_engine
from .syntax import print_sequent, print_term
from .terms import (
    BASE, BOT, CL, CLASS, DM, INT, PRIMED, DOUBLED, SDM, TOP_ALG, TOP_IMP,
    And, Imp, Neg, Or, Sequent, Term, Var,
    _avoids, _members, fold, plain, sequent, t_flatten, variables,
)


def t_sequent(s: Sequent) -> Sequent:
    """The basic sequent t(Gamma) => t(alpha) associated with an SDM sequent."""
    return sequent(SDM, [plain(t_flatten(s.antecedent))], plain(t_flatten(s.succedent)))


def f_godel_gentzen(x):
    """Double-negation translation; antecedents fold into one conjunction."""
    if isinstance(x, Term):
        ty = type(x)
        if ty is Var:
            return Neg(Neg(x))
        if x == BOT:
            return BOT
        if ty is Neg:
            return Neg(f_godel_gentzen(x.arg))
        if ty is And:
            return And(f_godel_gentzen(x.left), f_godel_gentzen(x.right))
        if ty is Or:
            return Neg(Neg(Or(f_godel_gentzen(x.left), f_godel_gentzen(x.right))))
        raise ValueError("f is defined on the algebraic language")
    return fold(And, [f_godel_gentzen(m) for m in _members(x)], TOP_ALG)


def f_sequent(s: Sequent) -> Sequent:
    """Image of a DM sequent: the folded antecedent implies the translated goal."""
    return sequent(SDM, [f_godel_gentzen(s.antecedent)], f_godel_gentzen(s.succedent))


def double_negate(x):
    """~~ prefixed to a term, or memberwise to a multiset."""
    if isinstance(x, Term):
        return Neg(Neg(x))
    return tuple(Neg(Neg(m)) for m in _members(x))


def _memberwise(target: str, image):
    """The sequent map that applies a term map to every member."""
    return lambda s: sequent(target, [image(m) for m in s.antecedent], image(s.succedent))


#: Image of a DM sequent in G3SDM: ~~ prefixed to every member.
nn_sequent = _memberwise(SDM, double_negate)


class ClassRegistry:
    """k's atoms: each distinct irreducible term gets its own #k atom, in
    first-encounter order; ``k_sequent`` asks ``engine`` for their order.
    Lookups mutate the registry; share one per translation run and do not
    write from two threads at once."""

    def __init__(self, engine: SearchEngine | None = None):
        self.engine = engine or default_engine()
        self.entries: list = []            # (term, Var) in insertion order
        self._by_term: dict = {}

    def lookup(self, term: Term) -> Term:
        var = self._by_term.get(term)
        if var is None:
            var = self._by_term[term] = Var(f"k{len(self.entries)}", CLASS)
            self.entries.append((term, var))
        return var

    def as_obj(self) -> dict:
        return {
            "schema": "morgan-kit/registry/v1",
            "entries": [
                {"variable": print_term(var), "representative": print_term(rep)}
                for rep, var in self.entries
            ],
        }


def _reject(v: Var, reader: str):
    """Raise for a reserved variable met by k or h.  k writes p' for ~p,
    p'' for ~~p and #ki for its registry's terms, h writes p' for ~p, and
    both read their output back as those terms, so such input would be read
    as what it is not."""
    writer = reader if v.ns == PRIMED else "k"
    what = "#k atoms" if v.ns == CLASS else f"{v.ns} variables"
    whose = "its" if writer == reader else f"{reader}'s"
    raise ValueError(f"{what} are {writer}'s output, not {whose} input: {print_term(v)}")


def k_to_int(phi: Term, reg: ClassRegistry) -> Term:
    """SDM term into the intuitionistic language; each irreducible ~(a & b)
    and ~~(a | b) becomes the registry's #k atom for that term."""
    if not _avoids(phi, Imp):
        raise ValueError("k is defined on the algebraic language")
    return _k(phi, reg)


def _k(phi: Term, reg: ClassRegistry) -> Term:
    # dm_weight falls on every recursive call, so k terminates; the tests check
    # the rewriting calls: ~(x | y) -> ~x, ~(~a & ~b) -> ~~(a | b),
    # ~~(y & z) -> ~~y, ~~(~a | ~b) -> ~(a & b) and ~~~z -> ~z.
    ty = type(phi)
    if ty is Var:
        if phi.ns != BASE:
            _reject(phi, "k")
        return phi
    if phi == BOT:
        return BOT
    if ty is And:
        return And(_k(phi.left, reg), _k(phi.right, reg))
    if ty is Or:
        return Or(_k(phi.left, reg), _k(phi.right, reg))
    # phi = ~x
    x = phi.arg
    tx = type(x)
    if tx is Var:
        if x.ns != BASE:
            _reject(x, "k")
        return Var(x.name, PRIMED)
    if x == BOT:
        return TOP_IMP
    if tx is Or:
        return And(_k(Neg(x.left), reg), _k(Neg(x.right), reg))
    if tx is And:
        if type(x.left) is Neg and type(x.right) is Neg:
            return _k(Neg(Neg(Or(x.left.arg, x.right.arg))), reg)
        return reg.lookup(phi)
    # phi = ~~y
    y = x.arg
    tyy = type(y)
    if tyy is Var:
        if y.ns != BASE:
            _reject(y, "k")
        return Var(y.name, DOUBLED)
    if y == BOT:
        return BOT
    if tyy is And:
        return And(_k(Neg(Neg(y.left)), reg), _k(Neg(Neg(y.right)), reg))
    if tyy is Or:
        if type(y.left) is Neg and type(y.right) is Neg:
            return _k(Neg(And(y.left.arg, y.right.arg)), reg)
        return reg.lookup(phi)
    # phi = ~~~z
    return _k(Neg(y.arg), reg)


def k_sequent(s: Sequent, reg: ClassRegistry) -> Sequent:
    """Memberwise image of an SDM sequent; a starred member reads as ~.

    An image with #k atoms also gets the order between its atoms as
    hypotheses in its antecedent.  With rep(p') = ~p, rep(p'') = ~~p and
    rep(#ki) the registry's i-th term, a #k atom x gets ``x`` when G3SDM
    derives => rep(x) and ``x -> F`` when it derives rep(x) => F; atoms with
    a #k atom among them get ``x -> z`` when it derives rep(x) => rep(z),
    and ``x & y -> z`` when it derives rep(x), rep(y) => rep(z) and neither
    x -> z nor y -> z was added.

    Soundness: in a finite SDM countermodel of the source the lattice is
    finite and distributive, hence Heyting.  Give each atom its rep's value.
    G3SDM is sound, so every hypothesis is 1; k's rewrites are SDM
    identities, so the image fails there, and G3ip does not derive it.
    """
    image = _memberwise(INT, lambda m: _k(t_flatten(m), reg))(s)
    found = variables(image)
    if all(a.ns != CLASS for a in found):
        return image
    atoms = sorted(found, key=Term.key)
    rep = {BOT: BOT}
    for a in atoms:
        if a.ns == CLASS:
            rep[a] = reg.entries[int(a.name[1:])][0]
        else:
            p = Var(a.name)
            rep[a] = Neg(p) if a.ns == PRIMED else Neg(Neg(p)) if a.ns == DOUBLED else p

    def derives(ants, goal):
        return reg.engine.derivable(SDM, sequent(SDM, [rep[a] for a in ants], rep[goal]))

    hyps = [x for x in atoms if x.ns == CLASS and derives([], x)]
    hyps += [Imp(x, BOT) for x in atoms if x.ns == CLASS and derives([x], BOT)]
    below = {z: [x for x in atoms if x is not z and CLASS in (x.ns, z.ns)
                 and derives([x], z)] for z in atoms}
    hyps += [Imp(x, z) for z in atoms for x in below[z]]
    hyps += [Imp(And(x, y), z) for x, y in combinations(atoms, 2) for z in atoms
             if z is not x and z is not y and CLASS in (x.ns, y.ns, z.ns)
             and x not in below[z] and y not in below[z] and derives([x, y], z)]
    return sequent(INT, image.antecedent + tuple(hyps), image.succedent)


def h_to_cl(phi: Term) -> Term:
    """DM term into the classical language; negation goes to atoms, p' for ~p."""
    ty = type(phi)
    if ty is Var:
        if phi.ns != BASE:
            _reject(phi, "h")
        return phi
    if phi == BOT:
        return BOT
    if ty is And:
        return And(h_to_cl(phi.left), h_to_cl(phi.right))
    if ty is Or:
        return Or(h_to_cl(phi.left), h_to_cl(phi.right))
    if ty is Imp:
        raise ValueError("h is defined on the algebraic language")
    if ty is not Neg:
        raise TypeError(f"expected a term, not {phi!r}")
    x = phi.arg
    tx = type(x)
    if tx is Var:
        if x.ns != BASE:
            _reject(x, "h")
        return Var(x.name, PRIMED)
    if x == BOT:
        return TOP_IMP
    if tx is And:
        return Or(h_to_cl(Neg(x.left)), h_to_cl(Neg(x.right)))
    if tx is Or:
        return And(h_to_cl(Neg(x.left)), h_to_cl(Neg(x.right)))
    if tx is Neg:
        return h_to_cl(x.arg)
    raise ValueError("h is defined on the algebraic language")


h_sequent = _memberwise(CL, h_to_cl)


def g_glivenko(x):
    """(x -> F) -> F on a term, memberwise on a multiset."""
    if isinstance(x, Term):
        return Imp(Imp(x, BOT), BOT)
    return tuple(Imp(Imp(m, BOT), BOT) for m in _members(x))


g_sequent = _memberwise(INT, g_glivenko)


# A map: the calculus whose sequents it reads, the image of a term (of a
# structure, for t) and the image of a sequent.
Translation = namedtuple("Translation", "source term sequent")

#: Every translation by name, in the order the CLI offers them.
TRANSLATIONS = {
    "t": Translation(SDM, t_flatten, t_sequent),
    "f": Translation(DM, f_godel_gentzen, f_sequent),
    "nn": Translation(DM, double_negate, nn_sequent),
    "k": Translation(SDM, k_to_int, k_sequent),
    "h": Translation(DM, h_to_cl, h_sequent),
    "g": Translation(CL, g_glivenko, g_sequent),
}


def translate(name: str, x, registry: ClassRegistry | None = None):
    """The image of a term (a structure, for t) or a sequent under one map;
    a sequent must be of the map's source calculus.  Only k reads the
    registry: it names its #k atoms there, in a fresh one when none is given.
    """
    source, on_term, on_sequent = TRANSLATIONS[name]
    if isinstance(x, Sequent) and x.calculus != source:
        raise ValueError(f"{name} reads {source} sequents, not {x.calculus}")
    image = on_sequent if isinstance(x, Sequent) else on_term
    if name != "k":
        return image(x)
    return image(x, ClassRegistry() if registry is None else registry)


# Each embedding kind as two chains of maps, applied left to right to a
# source sequent: the goals whose verdicts it compares.  The kind's source
# calculus is the one its first map reads.
_EMBEDDINGS = {
    "dm-to-sdm-f": ((), ("f",)),
    "dm-glivenko-sdm": ((), ("nn",)),
    "sdm-to-int-k": ((), ("k",)),
    "dm-to-cl-h": ((), ("h",)),
    "cl-to-int-g": ((), ("g",)),
    "diagram": (("h", "g"), ("f", "k")),
}

#: Each embedding kind with the calculus its source sequents come from.
EMBEDDING_KINDS = {kind: TRANSLATIONS[(chains[0] + chains[1])[0]].source
                   for kind, chains in _EMBEDDINGS.items()}


class EmbeddingReport(namedtuple("EmbeddingReport", (
        "kind total agreements counterexamples variant_total variant_agreements"))):
    """Agreement counts of one embedding kind, with its counterexamples.

    counterexamples holds (printed sequent, source verdict, target verdict)
    triples.  variant_total and variant_agreements count, for
    dm-glivenko-sdm only, how often the single-negation succedent variant
    agrees with the source; they are reported, not gated.
    """

    __slots__ = ()

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.total if self.total else 1.0

    @property
    def variant_rate(self) -> float:
        return self.variant_agreements / self.variant_total if self.variant_total else 1.0


def check_embedding(kind: str, corpus, engine: SearchEngine | None = None,
                    registry: ClassRegistry | None = None) -> EmbeddingReport:
    """Agreement report between a source calculus and its translated image."""
    if kind not in EMBEDDING_KINDS:
        raise ValueError(f"unknown embedding kind {kind!r}")
    eng = engine or default_engine()
    if registry is None:
        registry = ClassRegistry(eng)    # one registry per invocation
    source = EMBEDDING_KINDS[kind]
    total = agreements = variant_total = variant_agreements = 0
    counterexamples = []
    for s in corpus:
        if s.calculus != source:
            raise ValueError(f"corpus sequent tagged {s.calculus}, expected {source}")
        # each verdict is reached before the next goal is built, so the
        # engine memo and the registry numbering fill in a fixed order
        verdicts = []
        for chain in _EMBEDDINGS[kind]:
            goal = s
            for name in chain:
                goal = translate(name, goal, registry)
            verdicts.append(eng.derivable(goal.calculus, goal))
        if kind == "dm-glivenko-sdm":
            printed = sequent(SDM, double_negate(s.antecedent), Neg(s.succedent))
            variant_total += 1
            if verdicts[0] == eng.derivable(SDM, printed):
                variant_agreements += 1
        total += 1
        if verdicts[0] == verdicts[1]:
            agreements += 1
        else:
            counterexamples.append((print_sequent(s), *verdicts))
    return EmbeddingReport(kind, total, agreements, tuple(counterexamples),
                           variant_total, variant_agreements)
