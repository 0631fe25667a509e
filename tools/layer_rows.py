"""Time the expression layers in-process: the rows ROADMAP item 18 quotes.

Usage: python tools/layer_rows.py [SRC]

Imports the ``fuzznest`` package from SRC (default ``src``), so the same
script measures this tree and an extracted copy of another commit's
``src``; it calls the public API only. Three seeded inputs over 8 atoms
with levels in [-20, 20]: one set of width 2000, one chain of depth 300,
and 200 mixed nested expressions. For each input it times

* ``parse_expr`` of the canonical text (each text of the 200),
* ``normalize`` of the raw tree,
* ``construct_fuzzy_set`` over the parsed node(s), from a flat base,
* ``fuzzyset_from_json`` of that fuzzy set's JSON,
* ``fuzznest.cli.main(["propagate", BASE, *texts, "--json"])``, its
  output captured, where BASE is the flat base's JSON file in a
  temporary directory that is removed at the end (the ``propagate``
  row),

then, over seeded flat bases, ``fuzzyset_to_json`` of a 12-atom
power-set listing, ``fuzzyset_from_json`` of that JSON and the first
read of ``elements`` of a fresh 14-atom listing (a new ``FuzzySet`` over
the same texts each time), and, per call, ``Braced(...)``, a two-member
``SetOf`` and ``normalize`` of a two-member set. Every timing is
repeated, the rows interleaved in each repetition so a slow spell of the
host touches them all alike, and the median is printed: one ``name
value unit`` line per row. As timeit does, the cyclic garbage collector
is off while a row is timed. Stdlib
only; it finishes in about ten seconds.
"""

import contextlib
import gc
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 41
PER_CALL = 5000  # calls per repetition of a per-call row
ATOMS = tuple(f"x{i}" for i in range(1, 9))
LEVELS = (-20, 20)


def _inputs(fz):
    """(name, raw trees) of the three inputs, seeded."""
    rng = random.Random(18)

    def braced():
        return fz.Braced(rng.choice(ATOMS), rng.randint(*LEVELS))

    def member():
        # a braced atom, or a set of two of them
        if rng.random() < 0.25:
            return braced()
        return fz.SetOf([braced(), braced()])

    def mixed(depth):
        if depth == 0 or rng.random() < 0.3:
            return fz.EMPTY if rng.random() < 0.05 else braced()
        return fz.SetOf([mixed(depth - 1) for _ in range(rng.randint(1, 3))])

    wide = fz.SetOf([member() for _ in range(2000)])
    chain = braced()
    for _ in range(300):
        chain = fz.SetOf([chain, braced()])
    return [
        ("wide2000", [wide]),
        ("chain300", [chain]),
        ("mixed200", [mixed(5) for _ in range(200)]),
    ]


def _propagate(cli_main, argv):
    """A call that runs cli_main(argv) with its output captured."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise RuntimeError(f"fuzznest {argv[0]} failed")

    return call


def _rows(fz, cli_main, tmp):
    """(name, unit, scale, call) of every row: the median time of call(),
    times scale, is the row's value in unit. The base's JSON file is
    written into the directory tmp."""
    rng = random.Random(29)
    base = fz.FuzzySet.flat([(a, rng.random()) for a in ATOMS])
    base_path = Path(tmp) / "base.json"
    base_path.write_text(fz.fuzzyset_to_json(base), encoding="utf-8")
    rows = []
    for name, raws in _inputs(fz):
        # distinct canonical forms, so the raw trees make one fuzzy set
        canon = list({fz.print_expr(fz.normalize(e)): e for e in raws}.items())
        texts = [t for t, _ in canon]
        raws = [e for _, e in canon]
        nodes = [fz.parse_expr(t) for t in texts]
        doc = fz.fuzzyset_to_json(fz.construct_fuzzy_set(base, nodes))
        rows += [
            (f"{name}.parse_expr", "ms", 1e3,
             lambda texts=texts: [fz.parse_expr(t) for t in texts]),
            (f"{name}.normalize", "ms", 1e3,
             lambda raws=raws: [fz.normalize(e) for e in raws]),
            (f"{name}.construct_fuzzy_set", "ms", 1e3,
             lambda nodes=nodes: fz.construct_fuzzy_set(base, nodes)),
            (f"{name}.fuzzyset_from_json", "ms", 1e3,
             lambda doc=doc: fz.fuzzyset_from_json(doc)),
            (f"{name}.propagate", "ms", 1e3,
             _propagate(cli_main, ["propagate", str(base_path), *texts, "--json"])),
        ]

    def listing(n):
        base = fz.FuzzySet.flat([(f"x{i}", rng.random()) for i in range(1, n + 1)])
        return fz.fuzzy_power_set(base)

    listing12 = listing(12)
    listing_doc = fz.fuzzyset_to_json(listing12)
    fs = listing(14)
    rows += [
        ("listing12.fuzzyset_to_json", "ms", 1e3,
         lambda: fz.fuzzyset_to_json(listing12)),
        ("listing12.fuzzyset_from_json", "ms", 1e3,
         lambda: fz.fuzzyset_from_json(listing_doc)),
        # a new fuzzy set each time, so elements are parsed, not reused
        ("listing14.elements", "ms", 1e3,
         lambda: fz.FuzzySet(fs.universe, fs.texts, fs.memberships).elements),
    ]
    x1, x2 = fz.Braced("x1", 0), fz.Braced("x2", 3)
    pair = fz.SetOf((x2, x1))
    Braced, SetOf, normalize = fz.Braced, fz.SetOf, fz.normalize
    loop = range(PER_CALL)

    def braced_calls():
        for _ in loop:
            Braced("x1", 5)

    def set_calls():
        for _ in loop:
            SetOf((x1, x2))

    def normalize_calls():
        for _ in loop:
            normalize(pair)

    scale = 1e9 / PER_CALL
    rows += [
        ("Braced", "ns", scale, braced_calls),
        ("SetOf.two_members", "ns", scale, set_calls),
        ("normalize.two_members", "ns", scale, normalize_calls),
    ]
    return rows


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0] if argv else "src").resolve()
    sys.path.insert(0, str(src))
    import fuzznest as fz
    from fuzznest.cli import main as cli_main

    if src not in Path(fz.__file__).resolve().parents:
        print(f"fuzznest was imported from {fz.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        rows = _rows(fz, cli_main, tmp)
        times = [[] for _ in rows]
        gc.collect()
        gc.disable()
        try:
            for _ in range(REPEATS):
                for (_, _, _, call), spent in zip(rows, times):
                    start = time.perf_counter()
                    call()
                    spent.append(time.perf_counter() - start)
        finally:
            gc.enable()
    for (name, unit, scale, _), spent in zip(rows, times):
        print(f"{name} {statistics.median(spent) * scale:.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
