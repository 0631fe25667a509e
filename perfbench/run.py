"""fuzznest benchmark: one seeded workload, end to end or layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload codec --seed 1 --seconds 30 --trace 0

Workloads: codec, superstructure, powerset (see workloads.py for what
each runs and why). Each is a closed loop with one client in one process
(worker.py), using the package from src/. With --trace 0 the last line
of output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics from spans around every public call, and the
spans are written to .perfbench-out/<workload>/spans.jsonl.gz.

End-to-end times are at reference speed: each operation and each cold
start is scaled by a fixed piece of interpreter work timed around it
(harness.REFERENCE_S), so a core slowed by other load on a shared
host does not move them; the report also prints them as measured. The
run and everything it starts stay on one CPU. Per-layer times are span
durations as measured.

Every run also
* times cold starts: a fresh interpreter importing fuzznest and
  fuzznest.cli and making the workload's one-time calls (setup_s, the
  median of several), and
* runs the known-defect probes in a separate process. Their failures are
  printed, counted in fail_share and in the per-layer `<layer>.failed`,
  but not in the JSON's `failed`, which covers the measured operations.

Exit status: 0 when every measured operation passed its check, 1 when one
failed or a worker broke, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("codec", "superstructure", "powerset")
COLD_STARTS = 11
RUN_LIMIT_S = 170.0

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
LAYERS = ("set_expr", "fuzzy_core", "seq_codec", "kernels", "cli")
BUSY = (
    "seq_codec.decode", "seq_codec.expand_to_fuzzy", "seq_codec.encode",
    "seq_codec.parse_sequence", "seq_codec.sequence_from_json",
    "kernels.iterate_level", "kernels.series_cardinality",
    "set_expr.parse_expr", "set_expr.normalize", "set_expr.print_expr",
    "fuzzy_core.construct_fuzzy_set", "fuzzy_core.propagate_membership",
    "fuzzy_core.verify_power_cardinality", "fuzzy_core.fuzzy_power_set",
    "fuzzy_core.fuzzyset_to_json", "fuzzy_core.fuzzyset_from_json",
    "cli.main",
)
CALLS = ("seq_codec.decode", "seq_codec.expand_to_fuzzy", "seq_codec.encode",
         "set_expr.parse_expr", "cli.main")
COUNTS = ("kernels.level_steps", "seq_codec.bits", "set_expr.nodes", "fuzzy_core.subsets")
PER_LAYER = {
    **{f"{n}.busy_s": ("s", "lower") for n in BUSY},
    **{f"{n}.calls": ("count", "higher") for n in CALLS},
    **{n: ("count", "higher") for n in COUNTS},
    "seq_codec.truncated_share": ("share", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.failed": ("count", "lower") for layer in LAYERS},
    "trace.ops_per_s_ratio": ("ratio", "higher"),
}


class WorkerError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts on every run
    return env


def run_worker(args, workdir: Path, deadline: float, probes: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ] + (["--probes"] if probes else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {'probes' if probes else 'run'} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cold_start_s(files: list[str], deadline: float) -> list[float]:
    """Wall times of fresh interpreters at reference speed (see harness):
    each scaled by the reference time measured just before it. The first
    start, which may compile bytecode, is not counted."""
    cmd = [sys.executable, str(HERE / "cold_start.py"), *files]
    times = []
    for i in range(COLD_STARTS + 1):
        reference = harness.reference_s()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError("cold start timed out") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise WorkerError(f"cold start exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        if i:
            times.append(elapsed * harness.REFERENCE_S / reference)
    return times


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so the
    reference timed here measures the core the timed work runs on. The
    processes run one at a time, so they lose nothing by sharing it."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def layer_metrics(res: dict, probes: list[dict]) -> dict:
    layers, traced = res["layers"], res["traced"]
    busy, calls, self_s, counts = (
        layers["busy_s"], layers["calls"], layers["self_s"], layers["counts"]
    )
    failed = dict(traced["failed_by_layer"])
    for p in probes:
        if not p["ok"]:
            failed[p["layer"]] = failed.get(p["layer"], 0) + 1
    values = {f"{n}.busy_s": busy.get(n, 0.0) for n in BUSY}
    values.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    values.update({n: counts.get(n, 0) for n in COUNTS})
    values["seq_codec.truncated_share"] = (
        counts.get("seq_codec.truncated", 0) / max(1, counts.get("seq_codec.encodes", 0))
    )
    values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    values.update({f"{layer}.failed": failed.get(layer, 0) for layer in LAYERS})
    values["trace.ops_per_s_ratio"] = (
        traced["ops_per_s"] / res["untraced"]["ops_per_s"]
        if res["untraced"]["ops_per_s"] else 0.0
    )
    return values


def report(args, res: dict, probes: list[dict], setup: list[float]) -> tuple[dict, int, int]:
    """Print the human-readable report; return (metrics, attempted, failed)."""
    tallies = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(t["attempted"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    probe_failed = sum(not p["ok"] for p in probes)
    meta = dict(res["meta"], rev=git_revision(), seed=args.seed)
    print(f"fuzznest benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta    " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print("inputs  " + json.dumps(res["inputs"]))
    u = res["untraced"]
    print(f"closed loop, 1 client: {u['cycles']} untraced cycles of {res['ops_per_cycle']} "
          "operations")
    lo, mid, hi = u["reference_ms"]
    print(f"host speed: the reference took {lo:.4f}/{mid:.4f}/{hi:.4f} ms (best/median/worst); "
          f"times below are at reference speed, {harness.REFERENCE_S * 1e3:g} ms")
    print(f"as measured (best cycle per operation): ops_per_s {u['measured_ops_per_s']:.6g}, "
          f"latency_p50_ms {u['measured_p50_ms']}, latency_p90_ms {u['measured_p90_ms']}")
    end_to_end = {
        "ops_per_s": u["ops_per_s"],
        "latency_p50_ms": u["p50_ms"],
        "latency_p90_ms": u["p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    each = f"n={res['ops_per_cycle']}, each the median of {u['cycles']} cycles"
    notes = {
        "ops_per_s": f"{res['ops_per_cycle'] * u['cycles']} operations, {u['failed']} failed",
        "latency_p50_ms": each,
        "latency_p90_ms": each,
        "setup_s": f"median of {len(setup)} cold starts",
        "peak_rss_mb": "measuring process",
    }
    for name, value in end_to_end.items():
        print(f"  {name:<16}{value!s:>22} {END_TO_END[name][0]:<5} ({notes[name]})")
    share = (failed + probe_failed) / (attempted + len(probes))
    print(f"  {'fail_share':<16}{share:>22.6g} share ({failed}/{attempted} measured, "
          f"{probe_failed}/{len(probes)} defect probes)")
    for reason in [r for t in tallies for r in t["reasons"]][:5]:
        print(f"  failed: {reason}")
    for p in probes:
        status = "ok" if p["ok"] else f"FAILED [{p['layer']}] {p['reason']}"
        print(f"  probe {p['name']}: {status} ({p['seconds']:.3f} s)")
    if not args.trace:
        return end_to_end, attempted, failed
    values = layer_metrics(res, probes)
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    print("traced time by layer: " + "  ".join(
        f"{layer} {values[f'{layer}.self_s'] / total:.1%}" for layer in LAYERS))
    for name, value in values.items():
        print(f"  {name:<40}{value!s:>22} {PER_LAYER[name][0]}")
    print(f"  spans: {res['spans_file']}")
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzznest" / "__init__.py").is_file():
        print(f"error: no fuzznest package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    pin_to_one_cpu()
    workdir = OUT / args.workload
    try:
        res = run_worker(args, workdir, deadline)
        setup = cold_start_s(res["setup_files"], deadline)
        probes = run_worker(args, workdir, deadline, probes=True)["probes"]
    except WorkerError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    metrics, attempted, failed = report(args, res, probes, setup)
    units = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and all(v is not None for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n][0]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
