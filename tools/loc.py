"""Count the code lines of Python files: lines that hold a token other
than a comment, a docstring or layout (blank lines, newlines, indents).

    python tools/loc.py src/qesf

Each argument is a file or a directory (searched for *.py); the output
is one line per file, then the total. A docstring is a string literal
that stands alone as a statement: the first statement of a module, class
or function, or any other bare string statement. A line spanned by a
multi-line token counts once per line.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines: set[int] = set()
    statement: list = []  # the significant tokens of the current statement
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    for t in statement:  # a last statement without a newline
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for arg in argv or ["."]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
