"""Count the code lines of each ``src/dyadiclab`` module, and their total.

A code line is a source line that holds at least one token other than a
comment, a docstring, or the layout tokens (newlines, indents, dedents).
A docstring is a string that stands alone as a statement.  Lines a
multi-line token spans all count.  It is not part of the tier-1 suite.
Run from the repository root:

    python tools/code_lines.py
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dyadiclab"
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as f:
        # comments and blank lines hold no code, and may sit between a
        # docstring and the line that opens its statement
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        # a string that opens a statement and closes it is a docstring
        opens = i == 0 or tokens[i - 1].type in LAYOUT
        if tok.type == tokenize.STRING and opens and tokens[i + 1].type in LAYOUT:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
