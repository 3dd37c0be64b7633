"""`scripts/src_size.py` reports each diffalg module's lines, bytes,
compiled size and code lines, and the deltas between two trees; here on
two small trees."""
import importlib.util
import marshal
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "src_size.py", "src_size")


def tree(base, modules):
    package = base / "src" / "diffalg"
    package.mkdir(parents=True)
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0" * 9)
    (package / "notes.txt").write_text("not a module\n")
    for name, text in modules.items():
        (package / name).write_text(text)
    return str(base)


def code_size(text, name):
    return len(marshal.dumps(compile(text, "diffalg/" + name, "exec",
                                     dont_inherit=True)))


A = "x = 1\n\n\ndef f():\n    return x\n"
B = "y = 2\n"
# every kind of line, with the code lines marked `# code` (a comment on a
# code line leaves it code) but for the one that ends in a backslash; 11
# of its 26 lines are code
EVERY_KIND = '''"""Module docstring,
over two lines."""
# a comment-only line

import sys  # code


class K:  # code
    """Class docstring."""

    def f(self):  # code
        """Function docstring

        with a blank line inside."""
        text = """a string that is  # code
        # not a docstring, so every line of it is  # code
        """  # code
        return text + \\
            "continued"  # code

    async def g(self):  # code
        'A docstring in single quotes.'
        return "not a docstring either"  # code


def h(): """a docstring on its def line"""  # code
'''


def test_one_tree_lists_each_module_then_the_totals(tmp_path):
    before = tree(tmp_path / "before", {"a.py": A, "b.py": B})
    assert SCRIPT.module_sizes(before) == {
        "a.py": (5, len(A), code_size(A, "a.py"), 3),
        "b.py": (1, len(B), code_size(B, "b.py"), 1)}
    assert SCRIPT.rows(before)[-1] == ("total", [(
        6, len(A) + len(B), code_size(A, "a.py") + code_size(B, "b.py"), 4)])


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    data = EVERY_KIND.encode()
    marked = [n for n, line in enumerate(EVERY_KIND.splitlines(), 1)
              if line.endswith(("# code", "\\"))]
    assert len(EVERY_KIND.splitlines()) == 26 and len(marked) == 11
    assert SCRIPT.code_lines(data) == 11
    assert SCRIPT.code_lines(b"") == 0
    assert SCRIPT.code_lines(b'"""A docstring."""\n# and a comment\n') == 0


def test_two_trees_print_each_figure_with_its_delta(tmp_path, capsys):
    shorter = "x = 1\n"
    before = tree(tmp_path / "before", {"a.py": A, "b.py": B})
    after = tree(tmp_path / "after", {"a.py": shorter, "c.py": B})
    assert SCRIPT.main([before, after]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out[0] == ["module", "lines", "bytes", "code", "code-lines"]
    assert [row[0] for row in out[1:]] == ["a.py", "b.py", "c.py", "total"]
    # a module in one tree only counts as zero in the other
    assert out[2][:4] == ["b.py", "1", "->", "0"]
    assert out[3][:4] == ["c.py", "0", "->", "1"]
    total = out[4]
    assert total[1:4] == ["6", "->", "2"] and total[4] == "(-4)"
    delta = len(shorter) - len(A)
    assert total[5:8] == [str(len(A) + len(B)), "->",
                          str(len(shorter) + len(B))]
    assert total[8] == "(%+d)" % delta
    assert total[-4:] == ["4", "->", "2", "(-2)"]


def test_the_compiled_size_does_not_depend_on_where_the_tree_is(tmp_path):
    one = tree(tmp_path / "one", {"a.py": A})
    other = tree(tmp_path / "deeper" / "other", {"a.py": A})
    assert SCRIPT.module_sizes(one) == SCRIPT.module_sizes(other)


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    before = tree(tmp_path / "before", {"a.py": A})
    assert SCRIPT.main([before, str(tmp_path / "missing")]) == 2
    assert SCRIPT.main([]) == 2
    assert capsys.readouterr().out == ""
