"""One workload in its own process; prints its result as one JSON line.

run.py starts it twice per run: once to measure (--trace 0 or 1) and
once with --probes to run the known-defect inputs, which would otherwise
inflate the measured process's memory and time.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

import harness
import workloads


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def summarize(cycles: list[harness.Tally]) -> dict:
    """Totals over the cycles; throughput and latency percentiles over the
    operations of one cycle, each at reference speed (harness.per_op)."""
    scaled, latencies, best = harness.per_op(cycles)
    measured = [b if math.isfinite(x) else x for b, x in zip(best, latencies)]
    failed_by_layer = Counter()
    for t in cycles:
        failed_by_layer.update(t.failed_by_layer)
    references = sorted(r for t in cycles for r in t.reference)
    return {
        "cycles": len(cycles),
        "attempted": sum(t.attempted for t in cycles),
        "failed": sum(t.failed for t in cycles),
        "ops_per_s": harness.ops_per_s(scaled, latencies),
        "p50_ms": _finite(harness.percentile(latencies, 50) * 1e3),
        "p90_ms": _finite(harness.percentile(latencies, 90) * 1e3),
        "measured_ops_per_s": harness.ops_per_s(best, latencies),
        "measured_p50_ms": _finite(harness.percentile(measured, 50) * 1e3),
        "measured_p90_ms": _finite(harness.percentile(measured, 90) * 1e3),
        "reference_ms": [references[0] * 1e3, statistics.median(references) * 1e3,
                         references[-1] * 1e3],
        "failed_by_layer": dict(failed_by_layer),
        "reasons": [r for t in cycles for r in t.reasons][:5],
    }


def write_spans(tracer: harness.Tracer, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for name, start, end, parent, op_id in tracer.spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "op": op_id}) + "\n")


def measure(args, wl) -> dict:
    untraced, traced, tracer = harness.measure(
        wl.ops, wl.warm, args.seconds, wl.budget_s, args.trace == 1
    )
    backend = getattr(workloads.API, "backend_name", None)
    result = {
        "ops_per_cycle": len(wl.ops),
        "untraced": summarize(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": wl.stats(),
        "setup_files": [str(p) for p in wl.setup_files],
        "meta": {
            "python": platform.python_version(),
            "backend": backend() if backend else "unknown",
            "nproc": os.cpu_count(),
            "fuzznest": str(Path(workloads.fuzznest.__file__).parent),
        },
    }
    if tracer is not None:
        busy, calls, self_s = tracer.busy()
        result["traced"] = summarize(traced)
        result["layers"] = {
            "busy_s": dict(busy), "calls": dict(calls), "self_s": dict(self_s),
            "counts": dict(tracer.counts),
        }
        spans_path = Path(args.workdir) / "spans.jsonl.gz"
        write_spans(tracer, spans_path)
        result["spans_file"] = str(spans_path)
    return result


def probe(wl) -> dict:
    harness.install_budget_timer()
    tracer = harness.Tracer()
    rows = []
    for op in wl.probes():
        o = harness.run_op(op, tracer, wl.budget_s)
        rows.append({"name": f"{op.kind} {op.label[:60]}", "ok": o.ok, "layer": o.layer,
                     "reason": o.reason, "seconds": o.seconds})
    return {"probes": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    wl = workloads.build(args.workload, args.seed, Path(args.workdir))
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.freeze()
    result = probe(wl) if args.probes else measure(args, wl)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
