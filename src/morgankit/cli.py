"""Command-line entry point.

Exit status: 0 success / derivable / valid; 1 not derivable / refuted;
2 input errors: parse errors (with position diagnostics), usage errors,
unreadable or unwritable files, a proof given to render that does not
replay, and input too deep for Python's recursion limit; 3 internal check
failures; 141, with nothing on stderr, when the reader closes stdout before
the output is written.
Batch mode reads one sequent per line from stdin and emits JSON lines, with
an "error" for a line that fails; it takes no sequent argument, --height or
--format (each a usage error).
translate takes --registry only with --map k.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebras, corpus, interpolation, search, syntax, translations
from .search import normalize_calculus
from .syntax import ParseError
from .terms import DM, SDM, sequent as mk_sequent

EXIT_OK, EXIT_NEGATIVE, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3
_EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports death by SIGPIPE
# for proof JSON nested past the decoder's limit, and for terms within
# syntax.MAX_NESTING that a deep search or a --height in the thousands meets
_TOO_DEEP = "nested too deeply: the input exceeds Python's recursion limit"


def _cmd_decide(args) -> int:
    calc = normalize_calculus(args.calculus)
    if args.batch:
        return _batch(calc, render_proof=False)
    derivable = search.derivable(calc, syntax.parse_sequent(args.sequent, calc))
    print("derivable" if derivable else "not derivable")
    return EXIT_OK if derivable else EXIT_NEGATIVE


def _cmd_prove(args) -> int:
    calc = normalize_calculus(args.calculus)
    if args.batch:
        return _batch(calc, render_proof=True)
    goal = syntax.parse_sequent(args.sequent, calc)
    if args.height is not None:
        d = search.default_engine().derive_within_height(calc, goal, args.height)
    else:
        d = search.derive(calc, goal)
    if d is None:
        print("NOT DERIVABLE")
        return EXIT_NEGATIVE
    # render replays d; a bad derivation raises InvalidDerivationError (exit 3)
    print(search.render(d, args.format or "ascii"))
    return EXIT_OK


def _batch(calc: str, render_proof: bool) -> int:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        out = {"input": line}
        try:
            goal = syntax.parse_sequent(line, calc)
            d = search.derive(calc, goal)
            out["derivable"] = d is not None
            if render_proof and d is not None:
                out["proof"] = search.proof_to_obj(d)
        except ParseError as e:
            out["error"] = str(e)
        except RecursionError:
            out["error"] = _TOO_DEEP
        print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    calc = normalize_calculus(args.calculus)
    if calc not in (SDM, DM):
        raise ValueError("interpolation runs on g3sdm or g3dm goals")
    left, right, succ = syntax.parse_partition(args.partition, calc)
    goal = mk_sequent(calc, list(left) + list(right), succ)
    d = search.derive(calc, goal)
    if d is None:
        print("NOT DERIVABLE")
        return EXIT_NEGATIVE
    part = interpolation.Partition.of(left, right)
    result = interpolation.interpolate(calc, d, part)
    if not interpolation.verify_interpolant(calc, goal, part, result.interpolant):
        print("internal error: interpolant failed verification", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps({
            "interpolant": syntax.member_to_obj(result.interpolant),
            "left_obligation": search.proof_to_obj(result.left_derivation),
            "right_obligation": search.proof_to_obj(result.right_derivation),
        }, sort_keys=True, indent=2))
    else:
        print("interpolant:", syntax.print_structure(result.interpolant))
        print("left obligation:")
        print(search.render(result.left_derivation, args.format))
        print("right obligation:")
        print(search.render(result.right_derivation, args.format))
    return EXIT_OK


def _cmd_translate(args) -> int:
    text, source = args.input, translations.TRANSLATIONS[args.map].source
    reg = translations.ClassRegistry()
    if "=>" in text:
        x, show = syntax.parse_sequent(text, source), syntax.print_sequent
    elif args.map == "t":
        x, show = syntax.parse_structure(text), syntax.print_term
    else:
        x, show = syntax.parse_term(text, syntax.language_of(source)), syntax.print_term
    print(show(translations.translate(args.map, x, reg)))
    if args.registry:
        with open(args.registry, "w") as fh:
            json.dump(reg.as_obj(), fh, indent=2, sort_keys=True)
    return EXIT_OK


def _cmd_check_embedding(args) -> int:
    kind = args.kind
    source = translations.EMBEDDING_KINDS[kind]
    if args.input:
        seqs = []
        with open(args.input) as fh:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        seqs.append(syntax.parse_sequent(line.strip(), source))
                    except ParseError as e:
                        e.args = (f"line {n}: {e}",)
                        raise
    else:
        cfg = corpus.CorpusConfig(seed=args.seed)
        seqs = corpus.generate_sequents(source, args.count, cfg,
                                        max_weight=args.max_weight)
    report = translations.check_embedding(kind, seqs)
    print(f"kind: {kind}")
    print(f"sequents: {report.total}")
    print(f"agreement: {report.agreements}/{report.total} "
          f"({100 * report.agreement_rate:.2f}%)")
    if report.variant_total:
        print(f"single-negation succedent variant agreement: "
              f"{report.variant_agreements}/{report.variant_total} "
              f"({100 * report.variant_rate:.2f}%)")
    for text, src, tgt in report.counterexamples:
        print(f"counterexample: {text}  source={src} target={tgt}")
    return EXIT_OK if report.agreements == report.total else EXIT_NEGATIVE


def _cmd_validity(args) -> int:
    variety = args.variety
    calc = SDM if variety == "sdm" else DM
    s = syntax.parse_sequent(args.sequent, calc)
    witness = algebras.refute(s, variety, args.max_size)
    if witness is None:
        print(f"valid in every enumerated {variety} algebra of size <= {args.max_size}")
        return EXIT_OK
    alg, assignment = witness
    print("refuted")
    print(json.dumps({"algebra": alg.to_obj(), "assignment": assignment},
                     sort_keys=True))
    return EXIT_NEGATIVE


def _cmd_algebra(args) -> int:
    if args.action == "dm4":
        print(json.dumps(algebras.dm4().to_obj(), sort_keys=True))
        return EXIT_OK
    for alg in algebras.enumerate_algebras(args.variety, args.max_size):
        print(json.dumps(alg.to_obj(), sort_keys=True))
    return EXIT_OK


def _cmd_render(args) -> int:
    if args.input == "-":
        data = sys.stdin.read()
    else:
        with open(args.input) as fh:
            data = fh.read()
    d = search.proof_from_obj(json.loads(data))
    try:
        print(search.render(d, args.format))
    except search.InvalidDerivationError as e:
        # the proof came from the user, so a failed replay is an input error
        raise ValueError(f"the proof does not replay: {e}") from None
    return EXIT_OK


def _cmd_corpus(args) -> int:
    calc = normalize_calculus(args.calculus)
    cfg = corpus.CorpusConfig(seed=args.seed)
    if args.derivable:
        seqs = corpus.derivable_corpus(calc, args.count, cfg, args.max_weight)
    else:
        seqs = corpus.generate_sequents(calc, args.count, cfg, args.max_weight)
    for s in seqs:
        print(syntax.print_sequent(s))
    return EXIT_OK


def _natural(text: str) -> int:
    """An argparse type: a count or height, which must not be negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="morgankit",
        description="sequent calculi for De Morgan and semi-De Morgan algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_calculus(p):
        p.add_argument("--calculus", default="g3sdm",
                       choices=["g3sdm", "g3dm", "g3ip", "g3cp"])

    def add_corpus(p, max_weight):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=_natural, default=100)
        p.add_argument("--max-weight", type=int, default=max_weight)

    p = sub.add_parser("decide", help="exit 0 iff the sequent is derivable")
    add_calculus(p)
    p.add_argument("sequent", nargs="?")
    p.add_argument("--batch", action="store_true")
    p.set_defaults(func=_cmd_decide, usage_error=p.error)

    p = sub.add_parser("prove", help="print a derivation or NOT DERIVABLE")
    add_calculus(p)
    p.add_argument("sequent", nargs="?")
    p.add_argument("--batch", action="store_true")
    p.add_argument("--height", type=_natural, default=None)
    # None when not given, so that --batch can reject an explicit one
    p.add_argument("--format", default=None, choices=["ascii", "latex", "json"],
                   help="default: ascii")
    p.set_defaults(func=_cmd_prove, usage_error=p.error)

    p = sub.add_parser("interpolate", help='partition syntax: "G1 ; G2 => b"')
    add_calculus(p)
    p.add_argument("partition")
    p.add_argument("--format", default="ascii", choices=["ascii", "latex", "json"])
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("translate", help="apply one of the translations")
    p.add_argument("--map", required=True, choices=list(translations.TRANSLATIONS))
    p.add_argument("input")
    p.add_argument("--registry", default=None,
                   help="sidecar JSON path for k's atoms")
    p.set_defaults(func=_cmd_translate, usage_error=p.error)

    p = sub.add_parser("check-embedding", help="embedding agreement report")
    p.add_argument("--kind", required=True, choices=list(translations.EMBEDDING_KINDS))
    p.add_argument("--input", default=None, help="file of sequents, one per line")
    add_corpus(p, max_weight=20)
    p.set_defaults(func=_cmd_check_embedding)

    p = sub.add_parser("validity", help="semantic check over enumerated algebras")
    p.add_argument("--variety", required=True, choices=["sdm", "dm"])
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("sequent")
    p.set_defaults(func=_cmd_validity)

    p = sub.add_parser("algebra", help="algebra tooling")
    p.add_argument("action", choices=["enumerate", "dm4"])
    p.add_argument("--variety", default="dm", choices=["sdm", "dm"])
    p.add_argument("--max-size", type=int, default=4)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("render", help="re-render a proof JSON object")
    p.add_argument("--format", default="ascii", choices=["ascii", "latex", "json"])
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("corpus", help="seeded random sequent corpus")
    add_calculus(p)
    add_corpus(p, max_weight=None)
    p.add_argument("--derivable", action="store_true")
    p.set_defaults(func=_cmd_corpus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("decide", "prove"):
        if not args.batch and args.sequent is None:
            args.usage_error("a sequent is required unless --batch is given")
        for name, shown in (("sequent", "sequent"), ("height", "--height"),
                            ("format", "--format")):
            if args.batch and getattr(args, name, None) is not None:
                args.usage_error(f"--batch takes no {shown}: it reads sequents "
                                 "from stdin and writes JSON lines")
    if args.command == "translate" and args.registry is not None and args.map != "k":
        args.usage_error("--registry takes only --map k: it saves the atoms "
                         "that k introduces")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: no input error, and nothing left to say;
        # point stdout at devnull so the exit-time flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (search.InvalidDerivationError, AssertionError) as e:
        print(f"check failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print(f"error: {_TOO_DEEP}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
