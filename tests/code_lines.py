"""Code lines per module of src/btcomplex, and their total.

A code line is a non-blank line that holds a token which is neither a
comment nor part of a docstring.  A docstring is a statement made of string
tokens alone, wherever it stands.  The lines of a multi-line statement, or
of a multi-line string inside one, each count.  Run it as

    python tests/code_lines.py          # src/btcomplex
    python tests/code_lines.py PATH ... # the named files

from the repository root.
"""

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "btcomplex"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    statement = []  # the tokens of the statement read so far, layout dropped
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    text = source.splitlines()
    return sum(1 for i in lines if text[i - 1].strip())


def main(paths) -> int:
    files = [Path(p) for p in paths] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name if not paths else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
