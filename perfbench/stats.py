"""Latency summaries shared by the runner and the worker."""

import math
import statistics


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def summarise(latencies):
    """ops_per_s, op_p50_ms and op_p99_ms of per-op latencies in seconds."""
    lat = sorted(latencies)
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p99_ms": 1e3 * percentile(lat, 0.99),
            "beyond_p99": len(lat) - math.ceil(0.99 * len(lat))}
