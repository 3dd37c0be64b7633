"""Print the size of each module of diffalg, and how it changed.

    python3 scripts/src_size.py BEFORE [AFTER]

BEFORE and AFTER are checkouts of this repository.  For each module of
a tree's src/diffalg it prints its lines, its bytes and the size of its
compiled code (``len(marshal.dumps(compile(...)))``, compiled under its
path relative to src/, so the figure does not depend on where the tree
is), then the totals.  Given two trees, each figure reads ``BEFORE ->
AFTER (delta)``, and a module in one tree only counts as zero in the
other.  It exits 2 when a tree has no src/diffalg.  It uses the standard
library only.
"""
from __future__ import annotations

import marshal
import sys
from pathlib import Path

MEASURES = ("lines", "bytes", "code")


def module_sizes(tree):
    """{module path under src/diffalg: (lines, bytes, code bytes)}."""
    src = Path(tree, "src")
    sizes = {}
    for path in sorted(src.joinpath("diffalg").rglob("*.py")):
        data = path.read_bytes()
        rel = path.relative_to(src).as_posix()
        code = compile(data, rel, "exec", dont_inherit=True)
        sizes[rel[len("diffalg/"):]] = (data.count(b"\n"), len(data),
                                         len(marshal.dumps(code)))
    return sizes


def rows(*trees):
    """(name, figures) per module, in name order, then ("total", ...);
    figures holds one (lines, bytes, code) tuple per tree."""
    sizes = [module_sizes(tree) for tree in trees]
    names = sorted(set().union(*sizes))
    table = [(name, [s.get(name, (0, 0, 0)) for s in sizes])
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
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    for row in table:
        print("  ".join([row[0].ljust(widths[0])] +
                        [c.rjust(w) for c, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
