#!/usr/bin/env python3
"""Run every embedding check on seeded corpora and print an agreement table.

Usage: python scripts/embedding_report.py [--seed N] [--count N] [--max-weight W]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from morgankit import (  # noqa: E402
    CL, DM, EMBEDDING_KINDS, SDM, SearchEngine, check_embedding, h_sequent,
)
from morgankit.corpus import CorpusConfig, generate_sequents  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--max-weight", type=int, default=20)
    ap.add_argument("--show-counterexamples", type=int, default=3)
    args = ap.parse_args()

    engine = SearchEngine()
    corpora = {calc: generate_sequents(
        calc, args.count,
        CorpusConfig(seed=args.seed + i, max_depth=3, max_antecedent=4),
        max_weight=args.max_weight) for i, calc in enumerate((DM, SDM))}
    corpora[CL] = [h_sequent(s) for s in corpora[DM]]

    print(f"seed={args.seed} count={args.count} max_weight={args.max_weight}")
    print(f"{'kind':<18} {'agree':>9} {'rate':>8} {'time':>7}")
    for kind, source in EMBEDDING_KINDS.items():
        t0 = time.perf_counter()
        rep = check_embedding(kind, corpora[source], engine=engine)
        print(f"{kind:<18} {rep.agreements:>4}/{rep.total:<4} "
              f"{100 * rep.agreement_rate:>7.2f}% {time.perf_counter() - t0:>6.1f}s")
        if rep.variant_total:
            print(f"{'  (~ variant)':<18} {rep.variant_agreements:>4}/{rep.variant_total:<4} "
                  f"{100 * rep.variant_rate:>7.2f}%   (reported, ungated)")
        for cx in rep.counterexamples[:args.show_counterexamples]:
            print(f"    counterexample: {cx[0]}   source={cx[1]} target={cx[2]}")


if __name__ == "__main__":
    main()
