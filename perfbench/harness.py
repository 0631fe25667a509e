"""Closed-loop runner: one client, one thread, one process.

An operation runs under a wall-clock budget enforced with an interval
timer; overrunning it, raising an error the operation does not expect,
or returning output that fails its check makes the operation fail, and a
failed operation's latency is +inf. Whole cycles of the workload's
operation list run until the measuring time is used up, so every
operation is timed once per cycle, seconds apart. The clock stops while
the benchmark checks outputs.

The speed of a shared host's core changes while the benchmark runs, so
every operation time is also scaled to a fixed reference speed (see
REFERENCE_S below). An operation's latency is the median over the
cycles of its scaled times, and the throughput is the operation count
over the sum of those latencies. The best time as measured is kept
beside it for the report.

With tracing on, even cycles are traced and odd ones are not, so one
run gives both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import math
import signal
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from checks import CheckFailed


class BudgetExceeded(BaseException):
    """Raised by the interval timer inside an operation that ran too long.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Op:
    """One operation: `run` makes the program calls, `check` judges the output.

    check(output) raises CheckFailed or returns counts of work done, which
    the tracer adds up. allow(error) says whether an error the program
    raised is the correct answer for this input. label describes the input.
    """

    kind: str
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], dict | None]
    allow: Callable[[BaseException], bool] | None = None


class Plain:
    """No spans: calls go straight through. Remembers the call in flight
    so a failure can still be blamed on a layer."""

    traced = False
    current: str | None = None

    def begin_op(self, kind: str) -> None:
        self.current = None

    def end_op(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        self.current = name
        return fn(*args)

    def add(self, counts: dict) -> None:
        pass


class Tracer(Plain):
    """Spans kept in memory as [name, start, end, parent span, op id].

    An operation span is the parent of the call spans made inside it.
    """

    traced = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._op_span = -1

    def begin_op(self, kind: str) -> None:
        self.current = None
        self.op_id += 1
        self._op_span = len(self.spans)
        self.spans.append(["op." + kind, perf_counter(), None, None, self.op_id])

    def end_op(self) -> None:
        self.spans[self._op_span][2] = perf_counter()

    def call(self, name: str, fn, *args):
        self.current = name
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), self._op_span, self.op_id])

    def add(self, counts: dict) -> None:
        self.counts.update(counts)

    def busy(self) -> tuple[Counter, Counter, Counter]:
        """(busy seconds by span name, calls by span name, self seconds by layer)."""
        busy, calls, self_s = Counter(), Counter(), Counter()
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            calls[name] += 1
            self_s[layer_of(name)] += end - start - covered.get(i, 0.0)
        return busy, calls, self_s


def layer_of(name: str | None) -> str:
    return name.split(".", 1)[0] if name else "unknown"


@dataclass
class Outcome:
    ok: bool
    seconds: float  # time inside the operation
    layer: str | None = None
    reason: str | None = None
    counts: dict | None = None


def run_op(op: Op, tr: Plain, budget_s: float) -> Outcome:
    """Run one operation under the budget, then check it with the clock stopped."""
    out = err = None
    tr.begin_op(op.kind)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            out = op.run(tr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded as ex:
        err = ex
    except Exception as ex:  # noqa: BLE001 - any escaping error fails the operation
        err = ex
    seconds = perf_counter() - start
    tr.end_op()
    blamed = layer_of(tr.current)
    if isinstance(err, BudgetExceeded):
        return Outcome(False, seconds, blamed, f"overran the {budget_s:g} s budget")
    if err is not None:
        if op.allow is not None and op.allow(err):
            return Outcome(True, seconds)
        return Outcome(False, seconds, blamed, f"{type(err).__name__}: {err}"[:200])
    try:
        counts = op.check(out)
    except CheckFailed as ex:
        return Outcome(False, seconds, ex.layer, str(ex)[:200])
    except Exception as ex:  # noqa: BLE001 - malformed output
        return Outcome(False, seconds, blamed, f"check raised {ex!r}"[:200])
    return Outcome(True, seconds, counts=counts)


@dataclass
class Tally:
    """Outcomes of one cycle, in operation order."""

    seconds: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    failed_by_layer: Counter = field(default_factory=Counter)
    reasons: list[str] = field(default_factory=list)

    def add(self, op: Op, o: Outcome, reference_s: float) -> None:
        self.seconds.append(o.seconds)
        self.reference.append(reference_s)
        self.ok.append(o.ok)
        if not o.ok:
            self.failed_by_layer[o.layer] += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind} {op.label[:60]}: {o.reason}")

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def per_op(cycles: list[Tally]) -> tuple[list[float], list[float], list[float]]:
    """Per operation of a cycle: (seconds at reference speed, latency, best
    seconds as measured).

    Seconds at reference speed are the median over the cycles of
    seconds * REFERENCE_S / the reference time recorded with them (see
    measure). The latency is that, or +inf if any attempt failed.
    """
    scaled = [
        statistics.median(t * REFERENCE_S / r for t, r in zip(times, refs))
        for times, refs in zip(zip(*(c.seconds for c in cycles)),
                               zip(*(c.reference for c in cycles)))
    ]
    passed = [all(oks) for oks in zip(*(c.ok for c in cycles))]
    best = [min(times) for times in zip(*(c.seconds for c in cycles))]
    return scaled, [s if ok else math.inf for s, ok in zip(scaled, passed)], best


def ops_per_s(seconds: list[float], latencies: list[float]) -> float:
    """Operations that never failed over the sum of their times."""
    total = sum(seconds)
    return sum(math.isfinite(x) for x in latencies) / total if total else 0.0


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, smoothed over rank noise.

    The mean of the sorted values within two standard errors of the rank,
    2 sqrt(n q (1 - q)) for q = p/100, of the nearest-rank percentile. Where
    a few distinct operations sit near the percentile, noise that swaps
    their order then moves the estimate a little instead of jumping to a
    neighbour. A failed operation's +inf counts when it falls in the band.
    """
    ordered = sorted(values)
    n, q = len(ordered), p / 100.0
    rank = max(0, math.ceil(q * n) - 1)
    half = math.ceil(2.0 * math.sqrt(n * q * (1.0 - q)))
    band = ordered[max(0, rank - half): rank + half + 1]
    return sum(band) / len(band)


# Host speed. On a shared host the speed of a core moves by up to 2x,
# for a fraction of a second or for minutes at a time (other tenants'
# load on the physical core), which no run length averages away. The
# runner times a fixed piece of interpreter work, the reference, before
# an operation when the last timing is more than REFERENCE_EVERY_S old
# and after an operation longer than that, and reports operation times
# scaled to a host on which the reference takes REFERENCE_S:
# seconds * REFERENCE_S / reference time (the mean of the timings
# before and after).
# REFERENCE_S is the reference's time on an idle core of a 2-vCPU Intel
# Xeon VM under CPython 3.11; the scale only sets the units, comparisons
# between commits on one host do not depend on it.
REFERENCE_S = 1.2e-3
REFERENCE_EVERY_S = 0.1
_REFERENCE_TEXTS = [
    ",".join(f"{{x{(i * j) % 9}}}^({(i * 7 + j) % 23 - 11})" for j in range(24))
    for i in range(60)
]


def _tree(depth: int, seed: int) -> tuple:
    if depth == 0:
        return ("x", seed % 7 - 3)
    return tuple(_tree(depth - 1, seed * 3 + i) for i in range(3))


def _key(node: tuple) -> tuple:
    return node if isinstance(node[0], str) else tuple(sorted(_key(c) for c in node))


def _text(node: tuple) -> str:
    if isinstance(node[0], str):
        return "{%s}^(%d)" % node
    return "{" + ",".join(_text(c) for c in node) + "}"


def _reference_work() -> float:
    """Fixed interpreter work of the kinds the program does: splitting
    text, sorting small tuples, dict updates, float level maps, and
    building, canonicalizing and printing small nested trees."""
    total = 0.0
    index: dict[str, int] = {}
    for text in _REFERENCE_TEXTS:
        items = sorted((len(item), item) for item in text.split(","))
        for i, (n, item) in enumerate(items):
            index[item] = i
            v = (n + i) / 64.0
            total += math.log2(2.0 ** v - 1.0 + 1.0)
    for seed in range(3):
        tree = _tree(4, seed)
        total += len(_key(tree)) + len(_text(tree))
    return total + len(index)


def reference_s() -> float:
    """The best of three timings of the reference work."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def install_budget_timer() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def measure(ops, warm, seconds: float, budget_s: float, trace: bool):
    """Run whole cycles of `ops` for at least `seconds`.

    Returns (untraced cycle tallies, traced cycle tallies, tracer or None).
    """
    install_budget_timer()
    plain = Plain()
    for op in warm:
        run_op(op, plain, budget_s)
    tracer = Tracer() if trace else None
    tallies: dict[bool, list[Tally]] = {False: [], True: []}
    deadline = perf_counter() + seconds
    cycles = 0
    ref, ref_at = reference_s(), perf_counter()
    while True:
        traced = trace and cycles % 2 == 0
        tr = tracer if traced else plain
        tally = Tally()
        for op in ops:
            if perf_counter() - ref_at > REFERENCE_EVERY_S:
                ref, ref_at = reference_s(), perf_counter()
            outcome = run_op(op, tr, budget_s)
            before = ref
            if outcome.seconds > REFERENCE_EVERY_S:
                # the host's speed may have changed during a long operation
                ref, ref_at = reference_s(), perf_counter()
            tally.add(op, outcome, (before + ref) / 2)
            if traced and outcome.counts:
                tracer.add(outcome.counts)
        tallies[traced].append(tally)
        cycles += 1
        if perf_counter() >= deadline and cycles >= (2 if trace else 1):
            break
    return tallies[False], tallies[True], tracer
