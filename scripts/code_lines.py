#!/usr/bin/env python3
"""Count the code lines of Python modules.

A code line holds a token and is not blank, a comment or a docstring: a
string that stands alone as a statement, as a module's, class's or
function's docstring does, counts for none of the lines it spans.
Prints one ``<count>\t<path>`` line per module, then ``<total>\ttotal``.

Run:  python3 scripts/code_lines.py [PATH ...]   (default: src/jordanquiver)

A directory counts every ``*.py`` file under it.
"""

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that end or indent a statement and hold no code of their own
_BOUNDARY = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _BOUNDARY:
            continue
        # a string that stands between two statement boundaries is a docstring
        if (tok.type == tokenize.STRING and tokens[k + 1].type == tokenize.NEWLINE
                and (k == 0 or tokens[k - 1].type in _BOUNDARY)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "jordanquiver"])
    args = parser.parse_args()
    files = [f for path in args.paths
             for f in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}\t{path}")
    print(f"{total}\ttotal")


if __name__ == "__main__":
    main()
