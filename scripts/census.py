#!/usr/bin/env python3
"""Check proof search in all four calculi against their semantics.

First the semi-De Morgan (SDM) and De Morgan (DM) algebras up to --max-size
elements are counted by size, up to isomorphism.  Then, in each calculus,
every distinct sequent of a seeded corpus is decided by proof search and
checked against that calculus's oracle: every SDM algebra up to --max-size
(sdm), the four-element De Morgan algebra dm4 (dm), and two-valued truth
tables (int, cl).  Every goal that search refutes is also handed to the
height-bounded search, up to height 6.

The script prints each disagreement, then the counts per calculus, and
last the process's peak resident set size.  Each calculus gets a search
engine of its own, freed before the next one starts.  It exits
1 when some goal is derivable yet refuted, is refuted yet derived by the
bounded search, or, in dm and cl, where the oracle decides validity, holds
yet is underivable.  In sdm and int such a goal is only a candidate: the
finite algebras approximate SDM validity, and truth tables are classical.

Usage: python scripts/census.py [--seed N] [--count N] [--max-weight W]
                                [--max-size N]
"""

import argparse
import os
import resource
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from morgankit import (  # noqa: E402
    SearchEngine, check_variety, dm4, enumerate_algebras, print_sequent, refute,
    valid,
)
from morgankit.corpus import CorpusConfig, generate_sequents  # noqa: E402
from morgankit.search import classically_refutable  # noqa: E402

KINDS = ("derivable yet refuted", "missed by search", "hold yet underivable")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--count", type=int, default=3000)
    ap.add_argument("--max-weight", type=int, default=22)
    ap.add_argument("--max-size", type=int, default=5)
    args = ap.parse_args()

    algebras = {}
    for variety in ("sdm", "dm"):
        t0 = time.perf_counter()
        algebras[variety] = enumerate_algebras(variety, args.max_size)
        counts = Counter(a.size for a in algebras[variety])
        sizes = "  ".join(f"n={n}: {counts.get(n, 0)}"
                          for n in range(2, args.max_size + 1))
        print(f"{variety}: {len(algebras[variety])} algebras up to isomorphism "
              f"({sizes})  [{time.perf_counter() - t0:.1f}s]")
    strictly = sum(not check_variety(a, "dm") for a in algebras["sdm"])
    print(f"strictly semi-De Morgan (not De Morgan): {strictly}")

    four = dm4()
    oracles = {
        "sdm": lambda s: refute(s, "sdm", args.max_size) is None,
        "dm": lambda s: valid(s, four),
        "int": lambda s: not classically_refutable(s),
        "cl": lambda s: not classically_refutable(s),
    }
    print(f"seed={args.seed} count={args.count} max_weight={args.max_weight} "
          f"(max_weight bounds sdm and dm)")
    failed = False
    for calc, holds in oracles.items():
        t0 = time.perf_counter()
        engine = SearchEngine()
        distinct = list(dict.fromkeys(generate_sequents(
            calc, args.count, CorpusConfig(seed=args.seed),
            max_weight=args.max_weight)))
        tally = Counter()
        for s in distinct:
            d = engine.derivable(calc, s)
            v = holds(s)
            tally["derivable"] += d
            tally["hold"] += v
            found = (d and not v,
                     not d and engine.derivable_within_height(calc, s, 6),
                     v and not d)
            for kind, hit in zip(KINDS, found):
                if hit:
                    tally[kind] += 1
                    print(f"{calc} {kind}: {print_sequent(s)}")
        gate = KINDS if calc in ("dm", "cl") else KINDS[:2]
        failed |= any(tally[kind] for kind in gate)
        print(f"{calc}: distinct {len(distinct)}, derivable {tally['derivable']}, "
              f"hold {tally['hold']}, "
              + ", ".join(f"{kind} {tally[kind]}" for kind in KINDS)
              + f"  [{time.perf_counter() - t0:.1f}s]")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
