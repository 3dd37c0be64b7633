"""Print the size of each module of diffalg, and how it changed.

    python3 scripts/src_size.py BEFORE [AFTER]

BEFORE and AFTER are checkouts of this repository.  For each module of
a tree's src/diffalg it prints its lines, its bytes, the size of its
compiled code (``len(marshal.dumps(compile(...)))``, compiled under its
path relative to src/, so the figure does not depend on where the tree
is) and its code lines, then the totals.  A code line holds a token that
is not a comment and not part of a module, class or function docstring:
blank lines, comment-only lines and docstring lines are not code.  Given
two trees, each figure reads ``BEFORE -> AFTER (delta)``, and a module in
one tree only counts as zero in the other.  It exits 2 when a tree has no
src/diffalg.  It uses the standard library only.
"""
from __future__ import annotations

import ast
import io
import marshal
import sys
import tokenize
from pathlib import Path

MEASURES = ("lines", "bytes", "code", "code-lines")

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(data):
    """The number of code lines in the module source `data` (bytes)."""
    docstrings = []  # (first line, last line) of each docstring
    for node in ast.walk(ast.parse(data)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            docstrings.append((node.body[0].lineno, node.body[0].end_lineno))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(data).readline):
        first, last = tok.start[0], tok.end[0]
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and any(
                a <= first and last <= b for a, b in docstrings):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def module_sizes(tree):
    """{module path under src/diffalg: (lines, bytes, code bytes, code
    lines)}."""
    src = Path(tree, "src")
    sizes = {}
    for path in sorted(src.joinpath("diffalg").rglob("*.py")):
        data = path.read_bytes()
        rel = path.relative_to(src).as_posix()
        code = compile(data, rel, "exec", dont_inherit=True)
        sizes[rel[len("diffalg/"):]] = (data.count(b"\n"), len(data),
                                         len(marshal.dumps(code)),
                                         code_lines(data))
    return sizes


def rows(*trees):
    """(name, figures) per module, in name order, then ("total", ...);
    figures holds one module_sizes tuple per tree."""
    sizes = [module_sizes(tree) for tree in trees]
    names = sorted(set().union(*sizes))
    table = [(name, [s.get(name, (0,) * len(MEASURES)) for s in sizes])
             for name in names]
    totals = [tuple(sum(figures[t][i] for _, figures in table)
                    for i in range(len(MEASURES))) for t in range(len(trees))]
    return table + [("total", totals)]


def cell(values):
    if len(values) == 1:
        return str(values[0])
    before, after = values
    return "%d -> %d (%+d)" % (before, after, after - before)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print("usage: python3 scripts/src_size.py BEFORE [AFTER]",
              file=sys.stderr)
        return 2
    for tree in argv:
        if not Path(tree, "src", "diffalg").is_dir():
            print("%s: no src/diffalg there" % tree, file=sys.stderr)
            return 2
    table = [("module",) + MEASURES]
    for name, figures in rows(*argv):
        table.append((name,) + tuple(cell([f[i] for f in figures])
                                     for i in range(len(MEASURES))))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join([row[0].ljust(widths[0])] +
                        [c.rjust(w) for c, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
