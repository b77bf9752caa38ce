"""The engine states its invariants as explicit errors: no ``assert``
(``python -O`` strips them), no handler that swallows every exception,
and no process-wide recursion limit to lean on for deep formulas."""

import ast
from pathlib import Path

import pytest

ENGINE = sorted((Path(__file__).resolve().parent.parent / "src" / "nexus").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None:
                yield node.lineno, "bare except"
            for t in caught:
                name = t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)
                if name in BROAD:
                    yield node.lineno, f"except {name}"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "setrecursionlimit":
                yield node.lineno, "sys.setrecursionlimit call"


def test_the_engine_is_scanned():
    assert {p.name for p in ENGINE} >= {"homs.py", "characterize.py", "expansion.py", "kb.py"}


@pytest.mark.parametrize("path", ENGINE, ids=lambda p: p.name)
def test_no_assert_broad_except_or_recursion_limit(path):
    found = list(offences(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert found == [], f"{path.name}: {found}"


@pytest.mark.parametrize("source, what", [
    ("assert x", "assert statement"),
    ("try:\n    f()\nexcept:\n    pass", "bare except"),
    ("try:\n    f()\nexcept Exception:\n    pass", "except Exception"),
    ("try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass", "except BaseException"),
    ("try:\n    f()\nexcept builtins.Exception:\n    pass", "except Exception"),
    ("import sys\nsys.setrecursionlimit(10**6)", "sys.setrecursionlimit call"),
    ("from sys import setrecursionlimit\nsetrecursionlimit(10**6)", "sys.setrecursionlimit call"),
])
def test_the_scan_catches_each_offence(source, what):
    assert [w for _line, w in offences(ast.parse(source))] == [what]
