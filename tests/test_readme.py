"""The documented public surface: the README's Python quickstart runs as
written and shows the values its comments state, and the package root
exports exactly the names it binds."""

import ast
import inspect
import re
from pathlib import Path

import qident

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Python quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_shows_the_values_its_comments_state():
    source = _quickstart()
    lines = source.splitlines()
    namespace = {}
    shown = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # a bare expression is followed by a comment that starts with its repr
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        assert comment.startswith(repr(eval(code, namespace))), (code, comment)
        shown += 1
    assert shown == 5
    cases = re.search(r"\((\d+) cases\)", source)
    assert len(namespace["reports"]) == int(cases.group(1))


def test_package_root_exports_exactly_the_names_it_binds():
    bound = {name for name, value in vars(qident).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(qident.__all__) == len(set(qident.__all__))
    assert set(qident.__all__) == bound | {"__version__"}
