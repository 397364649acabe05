"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py setup
       python3 perfbench/worker.py <workload> <seed> <trace 0|1> <spans file>

The worker imports morgankit and builds the one SearchEngine every op of the
pass shares, then prints ``ready`` so the parent can time the cold start.
With only ``setup`` it exits there.  Otherwise it rebuilds the workload's
records from the seed, runs every op once in input order, checks each result
against the references in refs.py after the op's clock has stopped, and
prints one JSON object with every op's latency and every failure.

An op's latency covers only its calls into morgankit.  With tracing on,
every such call gets a span (name, start, end, parent op); probes that are
not part of an op (``expand``, ``variables``, the weights, the translation
images, the boolean prefilter) run after the op's timed calls, and the
per-layer metrics are derived from the spans.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import morgankit  # noqa: E402

ENGINE = morgankit.SearchEngine()
sys.stdout.write("ready\n")
sys.stdout.flush()

import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import gen  # noqa: E402
import refs  # noqa: E402
from stats import percentile  # noqa: E402
from morgankit.search import classically_refutable  # noqa: E402

clock = time.perf_counter


# -- tracing ----------------------------------------------------------------

class Tracer:
    """Spans kept in memory: [id, parent, name, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self.op_id = None

    def begin_op(self, name):
        self.op_id = len(self.spans)
        self.spans.append([self.op_id, None, name, clock(), None, None])

    def end_op(self):
        self.spans[self.op_id][4] = clock()

    def call(self, name, fn, *args):
        span = [len(self.spans), self.op_id, name, 0.0, 0.0, None]
        self.spans.append(span)
        span[3] = clock()
        out = fn(*args)
        span[4] = clock()
        return out

    def count(self, **counts):
        """Attach counts to the most recent span."""
        self.spans[-1][5] = counts

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Untraced:
    """Same interface; calls go straight through."""

    def begin_op(self, name):
        pass

    def end_op(self):
        pass

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


# -- helpers ----------------------------------------------------------------

def proof_nodes(d) -> int:
    sizes = {}

    def size(x):
        n = sizes.get(id(x))
        if n is None:
            n = sizes[id(x)] = 1 + sum(size(c) for c in x.children)
        return n
    return size(d)


def term_size(t) -> int:
    if isinstance(t[0], bool):
        return int(t[0]) + term_size(t[1])
    return 1 + sum(term_size(x) for x in t[1:] if isinstance(x, tuple))


def same_multiset(parsed, seq) -> bool:
    """The parsed sequent is the generated one, antecedent as a multiset."""
    calc, ants, succ = refs.from_program(parsed)
    return (calc == seq[0] and succ == seq[2]
            and sorted(map(repr, ants)) == sorted(map(repr, seq[1])))


def _refs_for(calc):
    return refs.SDM_REFERENCES if calc == "sdm" else (refs.DM4,)


# -- workloads --------------------------------------------------------------
# Each op function runs the timed calls of one op and returns a check
# closure: called after the op's clock stops, it returns a failure reason or
# None, and in a traced pass runs that op's probes first.

# An SDM or DM goal found not derivable gets a countermodel search among the
# algebras of up to four elements.  dm4 is among them and is characteristic
# for DM, so every DM non-theorem has a witness there; the cold enumeration
# to size 4 takes milliseconds, so the op stays a derivation op.
COUNTERMODEL_SIZE = 4


def op_goal(rec, t, traced):
    """sdm-dm-interp and the native INT/CL goals of int-cl-embed and int-k-embed."""
    calc = rec.calc
    goal = t.call("syntax.parse_sequent", morgankit.parse_sequent, rec.text, calc)
    d = t.call("search.derive." + calc, morgankit.derive, calc, goal, ENGINE)
    replay = part = result = verified = witness = None
    if d is None:
        if calc in ("sdm", "dm"):
            witness = t.call("algebras.refute", morgankit.refute, goal, calc,
                             COUNTERMODEL_SIZE)
    else:
        replay = t.call("search.check_derivation", morgankit.check_derivation, calc, d)
        if calc in ("sdm", "dm"):
            left, right, _ = t.call("syntax.parse_partition",
                                    morgankit.parse_partition, rec.partition, calc)
            part = morgankit.Partition.of(left, right)
            result = t.call("interpolation.interpolate",
                            morgankit.interpolate, calc, d, part, ENGINE)
            verified = t.call("interpolation.verify_interpolant",
                              morgankit.verify_interpolant, calc, goal, part,
                              result.interpolant, ENGINE)

    def check():
        if traced:
            _probe_goal(t, rec, goal, d, result, witness)
        if not same_multiset(goal, rec.seq):
            return "parsed sequent differs from the generated one"
        bad = refs.check_verdict(rec.seq, d is not None)
        if bad:
            return bad
        if d is None:
            return _check_witness(rec, witness) if calc in ("sdm", "dm") else None
        if not replay or d.sequent != goal:
            return "derivation does not replay"
        if part is None:
            return None
        if not verified:
            return "interpolant fails verify_interpolant"
        return _check_interpolant(rec, refs.from_program(result.interpolant))
    return check


def _probe_goal(t, rec, goal, d, result, witness):
    calc = rec.calc
    spans = t.spans
    derive_span = next(s for s in reversed(spans) if s[2].startswith("search.derive."))
    derive_span[5] = {"derivable": d is not None,
                      "nodes": proof_nodes(d) if d is not None else 0}
    if result is not None:
        interp = next(s for s in reversed(spans) if s[2] == "interpolation.interpolate")
        interp[5] = {"size": term_size(refs.from_program(result.interpolant))}
    if d is None and calc in ("sdm", "dm"):
        spans[-1][5] = {"refuted": witness is not None}
    if calc in ("sdm", "dm"):
        n = len(t.call("calculi.expand", morgankit.expand, goal))
        t.count(instances=n)
        weigh = morgankit.sdm_weight if calc == "sdm" else morgankit.dm_weight
        t.call("terms.weight", weigh, goal)
    else:
        hit = t.call("search.classically_refutable", classically_refutable, goal)
        t.count(hit=bool(hit))
        t.call("terms.variables", morgankit.variables, goal)


def _check_interpolant(rec, interp):
    calc, ants, succ = rec.seq
    left = tuple(m for m, on_left in zip(ants, rec.mask) if on_left)
    right = tuple(m for m, on_left in zip(ants, rec.mask) if not on_left)
    for alg in _refs_for(calc):
        if not (refs.holds_in((calc, left, interp), alg)
                and refs.holds_in((calc, right + (interp,), succ), alg)):
            return f"interpolant fails an obligation in {alg.name}"
    shared = refs.variables(list(left)) & refs.variables(list(right) + [succ])
    if not refs.variables(interp) <= shared:
        return "interpolant leaves the shared vocabulary"
    return None


def _embedding_goals(kind, s, registry, image):
    """The two goals check_embedding decides for one source sequent."""
    m = morgankit
    if kind == "diagram":
        return (image("g_sequent", m.g_sequent, image("h_sequent", m.h_sequent, s)),
                image("k_sequent", m.k_sequent,
                      image("f_sequent", m.f_sequent, s), registry))
    if kind == "sdm-to-int-k":
        return s, image("k_sequent", m.k_sequent, s, registry)
    if kind == "dm-to-cl-h":
        return s, image("h_sequent", m.h_sequent, s)
    return s, image("g_sequent", m.g_sequent, s)


def make_op_embed(registry):
    def op_embed(rec, t, traced):
        kind = rec.calc
        source = gen.EMBED_SOURCE[kind]
        s = t.call("syntax.parse_sequent", morgankit.parse_sequent, rec.text, source)
        report = t.call("translations.check_embedding." + kind,
                        morgankit.check_embedding, kind, [s], ENGINE, registry)

        def image(name, fn, *args):
            return t.call("translations." + name, fn, *args) if traced else fn(*args)

        def check():
            # The verdicts are read back from the shared memo: every query
            # below was answered while the op ran, so none adds an entry.
            src_goal, tgt_goal = _embedding_goals(kind, s, registry, image)
            src = ENGINE.derivable(src_goal.calculus, src_goal)
            tgt = ENGINE.derivable(tgt_goal.calculus, tgt_goal)
            if traced:
                span = next(x for x in reversed(t.spans)
                            if x[2].startswith("translations.check_embedding"))
                span[5] = {"agree": report.agreements == 1}
            if not same_multiset(s, rec.seq):
                return "parsed sequent differs from the generated one"
            if report.total != 1 or report.agreements != int(src == tgt):
                return "embedding report disagrees with the engine's verdicts"
            if kind == "diagram":
                if src != refs.holds_in(rec.seq, refs.DM4):
                    return (f"g3ip says the g(h(.)) image derivable={src}, "
                            "dm4 disagrees")
            else:
                bad = refs.check_verdict(rec.seq, src)
                if bad:
                    return "source: " + bad
            tgt_seq = refs.from_program(tgt_goal)
            if kind == "cl-to-int-g":
                if tgt != refs.tautology(rec.seq):
                    return (f"g3ip says the Glivenko image derivable={tgt}, "
                            "truth tables disagree")
                return None
            bad = refs.check_verdict(tgt_seq, tgt)
            return "image: " + bad if bad else None
        return check
    return op_embed


DM4_PROGRAM = morgankit.dm4()
_VARIETY_OK = {}


def _program_algebra(alg, variety):
    ok = _VARIETY_OK.get((id(alg), variety))
    ref = refs.Algebra("witness", alg.meet, alg.join, alg.neg)
    if ok is None:
        ok = _VARIETY_OK[(id(alg), variety)] = refs.in_variety(ref, variety)
    return ref, ok


def op_algebra(rec, t, traced):
    calc = rec.calc
    if rec.op == "enumerate":
        algs = t.call("algebras.enumerate_algebras." + calc,
                      morgankit.enumerate_algebras, calc, int(rec.text))

        def check():
            if traced:
                t.spans[-1][5] = {"count": len(algs)}
            sizes = {}
            for a in algs:
                sizes[a.size] = sizes.get(a.size, 0) + 1
            if sizes != refs.EXPECTED_COUNTS[calc]:
                return f"{calc} algebra counts by size {sizes}"
            if not all(_program_algebra(a, calc)[1] for a in algs):
                return f"an enumerated algebra is not {calc}"
            return None
        return check

    s = t.call("syntax.parse_sequent", morgankit.parse_sequent, rec.text, calc)
    if rec.op == "valid":
        verdict = t.call("algebras.valid", morgankit.valid, s, DM4_PROGRAM)

        def check():
            if not same_multiset(s, rec.seq):
                return "parsed sequent differs from the generated one"
            if verdict != refs.holds_in(rec.seq, refs.DM4):
                return f"valid(., dm4) = {verdict}, the dm4 table disagrees"
            return None
        return check

    witness = t.call("algebras.refute", morgankit.refute, s, calc, 6)

    def check():
        if traced:
            t.spans[-1][5] = {"refuted": witness is not None}
        if not same_multiset(s, rec.seq):
            return "parsed sequent differs from the generated one"
        return _check_witness(rec, witness)
    return check


def _check_witness(rec, witness):
    """Re-evaluate a refute witness; a missing one must match the references."""
    calc = rec.calc
    if witness is not None:
        alg, assignment = witness
        ref, ok = _program_algebra(alg, calc)
        if not ok:
            return f"refute's witness algebra is not {calc}"
        if not refs.witness_refutes(rec.seq, ref, assignment):
            return "refute's witness does not refute the sequent"
    if calc == "dm" and (witness is None) != refs.holds_in(rec.seq, refs.DM4):
        return "refute and the dm4 table disagree"
    if calc == "sdm" and witness is None and not refs.sdm_sound(rec.seq):
        return "refute found no witness though a reference SDM algebra refutes"
    return None


def ops_for(workload):
    if workload == "sdm-dm-interp":
        return lambda rec: op_goal, None
    if workload in ("int-cl-embed", "int-k-embed"):
        registry = morgankit.ClassRegistry(ENGINE)
        embed = make_op_embed(registry)
        return (lambda rec: op_goal if rec.op == "goal" else embed), registry
    return lambda rec: op_algebra, None


# -- one pass ---------------------------------------------------------------

def run_pass(workload, seed, traced, spans_path):
    records = gen.workload(workload, seed)
    pick, registry = ops_for(workload)
    t = Tracer() if traced else Untraced()
    latencies = []
    failures = []
    for i, rec in enumerate(records):
        op = pick(rec)
        t.begin_op("op." + rec.op)
        start = clock()
        try:
            check = op(rec, t, traced)
        except Exception as e:  # an op that raises is a failed op
            latencies.append(clock() - start)
            t.end_op()
            failures.append((i, rec.line(), f"raised {type(e).__name__}: {e}"))
            continue
        latencies.append(clock() - start)
        t.end_op()
        try:
            reason = check()
        except Exception as e:  # a result the checks cannot read fails too
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            failures.append((i, rec.line(), reason))
    out = {"busy_s": sum(latencies), "failed": len(failures), "failures": failures,
           "latencies": latencies,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        out["layers"] = layer_metrics(t.spans, registry)
        t.dump(spans_path)
    return out


def self_times(spans):
    """Each span's duration less the part of it its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            p = spans[parent]
            own[parent] -= max(0.0, min(end, p[4]) - max(start, p[3]))
    return own


def layer_metrics(spans, registry):
    """The per-layer table: self times, latency medians and counts by span name."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append((own[s[0]], s[5] or {}))
    op_time = sum(s[4] - s[3] for s in spans if s[1] is None)

    def times(*names):
        return sorted(d for n in names for d, _ in by_name.get(n, ()))

    def p50(scale, *names):
        v = times(*names)
        return scale * statistics.median(v) if v else 0.0

    def counts(key, *names):
        return [c[key] for n in names for _, c in by_name.get(n, ()) if key in c]

    def ratio(values):
        return sum(values) / len(values) if values else 0.0

    derives = ["search.derive." + c for c in ("sdm", "dm", "int", "cl")]
    m = {
        "syntax.parse_us_p50": p50(1e6, "syntax.parse_sequent"),
        "syntax.parse_share":
            sum(times("syntax.parse_sequent", "syntax.parse_partition")) / op_time,
        "search.proof_nodes": sum(counts("nodes", *derives)),
        "search.derivable_ratio": ratio(counts("derivable", *derives)),
        "search.replay_s": sum(times("search.check_derivation")),
        "search.prefilter_us_p50": p50(1e6, "search.classically_refutable"),
        "search.prefilter_hit_ratio":
            ratio(counts("hit", "search.classically_refutable")),
        "terms.variables_us_p50": p50(1e6, "terms.variables"),
        "calculi.expand_us_p50": p50(1e6, "calculi.expand"),
        "calculi.root_instances": sum(counts("instances", "calculi.expand")),
        "terms.weight_us_p50": p50(1e6, "terms.weight"),
        "interpolation.interpolate_ms_p50": p50(1e3, "interpolation.interpolate"),
        "interpolation.verify_ms_p50": p50(1e3, "interpolation.verify_interpolant"),
        "interpolation.calls": len(times("interpolation.interpolate")),
        "interpolation.interpolant_size":
            sum(counts("size", "interpolation.interpolate")),
        "translations.registry_classes": len(registry.entries) if registry else 0,
        "translations.image_us_p50": p50(1e6, *("translations." + f for f in (
            "f_sequent", "g_sequent", "h_sequent", "k_sequent"))),
        "algebras.refute_ms_p50": p50(1e3, "algebras.refute"),
        "algebras.refute_ms_p99": 1e3 * percentile(times("algebras.refute"), 0.99)
        if times("algebras.refute") else 0.0,
        "algebras.refuted_ratio": ratio(counts("refuted", "algebras.refute")),
        "algebras.valid_us_p50": p50(1e6, "algebras.valid"),
    }
    for c, name in zip(("sdm", "dm", "int", "cl"), derives):
        m["search.derive_s." + c] = sum(times(name))
    for kind in gen.EMBED_KINDS:
        name = "translations.check_embedding." + kind
        m["translations.check_ms_p50." + kind] = p50(1e3, name)
        m["translations.agreement." + kind] = ratio(counts("agree", name))
    for v in ("sdm", "dm"):
        name = "algebras.enumerate_algebras." + v
        m["algebras.enumerate_s." + v] = sum(times(name))
        m["algebras.count." + v] = sum(counts("count", name))
    return m


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        sys.exit(0)
    name, seed, trace, spans_file = sys.argv[1:5]
    result = run_pass(name, int(seed), trace == "1", spans_file)
    sys.stdout.write(json.dumps(result) + "\n")
