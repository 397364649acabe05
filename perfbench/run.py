#!/usr/bin/env python3
"""morgankit benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sdm-dm-interp --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; why each
workload exists and which layer metric should move which end-to-end metric
is in perfbench/README.md.

Every pass runs in a fresh interpreter (perfbench/worker.py), so the
package's per-process caches start cold, as in one CLI call.  Load is one
client in a closed loop: each op starts when the previous one has finished.

--trace 0  runs a fixed number of cold passes, --seconds // PASS_S[workload]
           (at least one), and reports the end-to-end metrics; each op's
           latency is the fastest of its passes.
--trace 1  runs TRACE_PAIRS[workload] pairs of one untraced and one traced
           pass, in alternating order, and reports the per-layer metrics
           from the traced passes' spans (median over the traced passes).

The last line of standard output is the JSON result; the lines before it
give sample counts, the input digest and every failed op.  The full result
is also written to --out (default perfbench/results).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from stats import summarise  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# Wall seconds of one untraced pass of each workload on a 2-vCPU Xeon VM
# (Python 3.11).  The pass count follows from --seconds and these constants
# alone, never from how fast the code under test runs, so two commits get the
# same statistic: the fastest of the same number of passes.
PASS_S = {"sdm-dm-interp": 7.5, "int-cl-embed": 4.5, "int-k-embed": 4.5,
          "algebra-oracle": 30.0}
TRACE_PAIRS = {"sdm-dm-interp": 3, "int-cl-embed": 3, "int-k-embed": 3,
               "algebra-oracle": 1}
SETUP_SAMPLES = 30         # set-up spawns per untraced run, spread over the passes;
                           # each pass's own spawn is one more sample
CLI_SAMPLES = 5            # `python -m morgankit decide` spawns per traced run
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MORGANKIT_MEMO_LIMIT", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cold start reads cached bytecode
    env["PYTHONHASHSEED"] = "0"   # counts must repeat exactly for a seed
    return env


def spawn_worker(args, timeout=PASS_TIMEOUT_S):
    """(seconds from spawn to `ready`, the worker's JSON result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        first = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-3:]
        raise BenchError(f"worker {' '.join(args)} failed: {' | '.join(tail)}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def cli_cold_start() -> float:
    env = child_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "morgankit", "decide",
                           "--calculus", "g3dm", "~~p => p"], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError("morgankit decide did not derive ~~p => p")
    return elapsed


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def metric_block(values: dict, names, units) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def run(args):
    spec, units = load_declared()
    if not os.path.isfile(os.path.join(ROOT, "src", "morgankit", "__init__.py")):
        raise BenchError("src/morgankit is missing: run from a morgankit checkout")
    records = gen.workload(args.workload, args.seed)
    digest = hashlib.sha256(gen.input_text(records).encode()).hexdigest()
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_path = os.path.join(args.out, f"spans-{stem}.jsonl.gz")
    pass_args = [args.workload, str(args.seed)]

    spawn_worker(["setup"])  # unmeasured: leaves the bytecode cache warm
    setups, passes = [], []
    if args.trace:
        traced, ratios = [], []
        for pair in range(TRACE_PAIRS[args.workload]):
            busy = {}
            for trace in ("01" if pair % 2 == 0 else "10"):
                result = spawn_worker(pass_args + [trace, spans_path])[1]
                busy[trace] = result["busy_s"]
                (traced if trace == "1" else passes).append(result)
            ratios.append(busy["1"] / busy["0"])
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = statistics.median(ratios)
        values["cli.decide_cold_s"] = statistics.median(
            cli_cold_start() for _ in range(CLI_SAMPLES))
        names = [m["name"] for m in spec["per_layer"]]
        passes += traced
    else:
        count = max(1, int(args.seconds // PASS_S[args.workload]))
        for _ in range(count):
            for _ in range(SETUP_SAMPLES // count):
                setups.append(spawn_worker(["setup"])[0])
            setup, result = spawn_worker(pass_args + ["0", spans_path])
            setups.append(setup)
            passes.append(result)
        # Every pass does the same work in the same order from a cold start,
        # so the fastest of an op's passes is its latency with the least
        # interference from other load on the machine.
        values = summarise([min(t) for t in zip(*(p["latencies"] for p in passes))])
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        values["setup_s"] = statistics.median(setups)
        names = [m["name"] for m in spec["end_to_end"]]

    ops = len(passes[0]["latencies"])
    beyond = summarise(passes[0]["latencies"])["beyond_p99"]
    attempted = ops * len(passes)
    failed = sum(p["failed"] for p in passes)
    metrics = metric_block(values, names, units)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "input_sha256": digest, "inputs": len(records),
        "passes": len(passes), "setup_samples": len(setups),
        "ops_per_pass": ops, "beyond_p99": beyond,
        # reported, not declared: its spread across seeds exceeds the bound
        "op_p99_ms": values.get("op_p99_ms"),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": passes[0]["failures"], "metrics": metrics,
        "python": platform.python_version(), "machine": platform.machine(),
    }
    with open(os.path.join(args.out, f"{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops per pass, "
          f"{len(passes)} passes, input sha256 {digest}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"  trace.overhead_ratio is the median of {len(ratios)} "
              "traced/untraced pass pairs")
    else:
        print(f"  op_p99_ms {values['op_p99_ms']:.6g} ms (not declared), the nearest-rank "
              f"p99 of {ops} ops, {beyond} beyond it; "
              f"setup_s is the median of {len(setups)} spawns")
    print(f"  fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for index, line, reason in passes[0]["failures"]:
        print(f"  failed op {index}: {line!r}: {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"))
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its worker (spawn_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
