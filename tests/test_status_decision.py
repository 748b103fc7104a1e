"""One decision point for HTTP statuses: HttpBackend._reply alone turns a
reply's status into texts or an error class, and complete_many retries a call
by that class alone. So every comparison with an HTTP status (an int literal
from 100 to 599) in nlts.backend sits in _reply."""

import ast
from pathlib import Path

BACKEND = Path(__file__).resolve().parents[1] / "src" / "nlts" / "backend.py"


def status_comparisons(tree: ast.AST) -> list[str]:
    """Each comparison with an int literal from 100 to 599, or with a tuple,
    list or set holding one, as "line: scope", the scope being the dotted
    names of the classes and functions around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                literals = [e for o in operands for e in getattr(o, "elts", [o])]
                if any(isinstance(e, ast.Constant) and type(e.value) is int
                       and 100 <= e.value <= 599 for e in literals):
                    found.append(f"{child.lineno}: {'.'.join(scope)}")
            visit(child, scope)

    visit(tree, [])
    return found


def test_status_comparisons_sees_each_form():
    tree = ast.parse(
        "class C:\n"
        "    def f(self, s):\n"
        "        def g():\n"
        "            return s == 429 or 500 <= s < 600\n"
        "        return s in (401, 403), s != 200, s < 99, s == 600, s == 429.0, [200][0]\n"
    )
    assert status_comparisons(tree) == ["4: C.f.g", "4: C.f.g", "5: C.f", "5: C.f"]


def test_only_reply_compares_statuses():
    found = status_comparisons(ast.parse(BACKEND.read_text(), filename=str(BACKEND)))
    assert found  # _reply's own comparisons: the check sees the file
    assert [f for f in found if not f.endswith(": HttpBackend._reply")] == []
