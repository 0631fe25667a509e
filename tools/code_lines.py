"""Count the code lines of Python files, the size measure of this repo.

A line counts if it holds a token other than a comment or layout
(COMMENT, NL, NEWLINE, INDENT, DEDENT, ENDMARKER). A docstring does not
count: a STRING token that stands alone as a statement, that is, one
preceded by NEWLINE, INDENT, DEDENT or the start of the file and
followed by NEWLINE or ENDMARKER, comments and NL skipped. A token that
spans several lines counts each of them.

Usage: python tools/code_lines.py PATH...

Each PATH is a file or a directory, whose *.py files are counted (not
those of its subdirectories). Prints one line per file, its count and
its path, and a total line when there is more than one file, as
``wc -l`` does.
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, None}
STATEMENT_END = {tokenize.NEWLINE, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        tokens = [
            t for t in tokenize.generate_tokens(f.readline)
            if t.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    lines = set()
    for i, t in enumerate(tokens):
        if t.type in LAYOUT:
            continue
        before = tokens[i - 1].type if i else None
        after = tokens[i + 1].type
        alone = before in STATEMENT_START and after in STATEMENT_END
        if t.type == tokenize.STRING and alone:
            continue  # a docstring
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    files = []
    for arg in argv:
        path = Path(arg)
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    if len(files) > 1:
        print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
