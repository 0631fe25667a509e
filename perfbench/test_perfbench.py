"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks as C  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def inputs(name: str, seed: int, workdir: Path) -> list[tuple[str, str]]:
    wl = workloads.build(name, seed, workdir)
    return [(op.kind, op.label) for op in wl.ops]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generators_are_deterministic(name, tmp_path):
    first = inputs(name, 7, tmp_path)
    assert inputs(name, 7, tmp_path) == first
    assert inputs(name, 8, tmp_path) != first


def test_metric_names_and_contract_agree():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in contract[section]}
        assert listed == table
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in listed)
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_short_run_completes(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def first_op(wl, kind: str) -> harness.Op:
    return next(op for op in wl.ops if op.kind == kind)


def output_of(op: harness.Op):
    out = op.run(harness.Plain())
    op.check(out)  # the true output passes
    return out


def test_checks_reject_a_decode_off_by_1e_6(tmp_path):
    wl = workloads.build("codec", 5, tmp_path)
    decode = first_op(wl, "decode")
    seq, value = output_of(decode)
    with pytest.raises(C.CheckFailed):
        decode.check((seq, value - 1e-6))
    roundtrip = first_op(wl, "roundtrip")
    out = output_of(roundtrip)
    with pytest.raises(C.CheckFailed):
        roundtrip.check(out[:3] + (out[3] + 1e-6,) + out[4:])


def off_by(fs, delta: float):
    (expr, mu), *rest = fs.elements
    return type(fs)(fs.universe, ((expr, mu + delta), *rest))


def test_checks_reject_a_membership_off_by_1e_9(tmp_path):
    wl = workloads.build("superstructure", 5, tmp_path)
    construct = first_op(wl, "construct")
    output_of(first_op(wl, "parse"))
    universe, fs = output_of(construct)
    with pytest.raises(C.CheckFailed):
        construct.check((universe, off_by(fs, 1e-9)))

    wl = workloads.build("powerset", 5, tmp_path)
    readback = first_op(wl, "readback")
    fs = output_of(readback)
    with pytest.raises(C.CheckFailed):
        readback.check(off_by(fs, 1e-9))


def test_budget_overrun_fails_the_operation():
    harness.install_budget_timer()

    def spin(tr):
        while True:
            pass

    outcome = harness.run_op(harness.Op("spin", "", spin, lambda out: None), harness.Plain(), 0.05)
    assert not outcome.ok and "budget" in outcome.reason


def test_times_are_scaled_to_reference_speed():
    op = harness.Op("x", "", lambda tr: None, lambda out: None)
    cycles = [harness.Tally() for _ in range(3)]
    # the same work on an idle core, then twice on a core at half speed
    cycles[0].add(op, harness.Outcome(True, 0.010), harness.REFERENCE_S)
    for c in cycles[1:]:
        c.add(op, harness.Outcome(True, 0.020), 2 * harness.REFERENCE_S)
    scaled, latencies, best = harness.per_op(cycles)
    assert scaled == latencies == [pytest.approx(0.010)]
    assert best == [0.010]
    cycles[2].ok[0] = False
    assert harness.per_op(cycles)[1] == [math.inf]
