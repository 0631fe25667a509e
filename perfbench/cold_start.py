"""Cold start of one workload: import fuzznest and fuzznest.cli, then read
the workload's base fuzzy sets (paths given as arguments).

run.py times this script from outside, so interpreter start-up counts.
"""

import sys
from pathlib import Path

import fuzznest
import fuzznest.cli  # noqa: F401 - the import is what is timed

for path in sys.argv[1:]:
    fuzznest.fuzzyset_from_json(Path(path).read_text(encoding="utf-8"))
