"""The code-line counter ``tools/code_lines.py`` on synthetic modules."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _count(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return code_lines.code_lines(path)


def test_comments_blanks_and_docstrings_do_not_count(tmp_path):
    source = '''\
        """Module docstring,
        over two lines."""

        # A comment line.
        import math  # a trailing comment leaves its line a code line


        class C:
            """Class docstring."""

            def f(self, x):
                """Method docstring,

                with a blank line inside."""
                # Another comment.

                return math.sqrt(x)
        '''
    assert _count(tmp_path, source) == 4  # import, class, def, return


def test_bare_string_statement_does_not_count(tmp_path):
    source = '''\
        x = 1
        "a bare string"
        """and a bare string
        over three
        lines"""
        y = x
        '''
    assert _count(tmp_path, source) == 2


def test_string_spanning_lines_in_an_expression_counts_every_line(tmp_path):
    source = '''\
        s = f("""one
        two
        three""")
        t = ("a"
             "b")
        '''
    assert _count(tmp_path, source) == 5


def test_main_reports_each_module_and_the_total(tmp_path, capsys):
    _count(tmp_path, "a = 1\nb = 2\n", name="beta.py")
    _count(tmp_path, '"""Doc."""\nc = 3\n', name="alpha.py")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "alpha 1\nbeta 2\ntotal 3\n"
