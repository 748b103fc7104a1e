"""Every exception class in nlts.errors has a use: another src/nlts module
names it in a raise, an except or an assignment, or it is a base of a class
that is so named."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlts"


def names_in(node: ast.AST) -> set[str]:
    """Every bare or dotted name under node: ConfigError and errors.ConfigError."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def names_used_outside_errors() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= names_in(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= names_in(node.type)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                used |= names_in(node.value)
    return used


def test_every_error_class_is_raised_caught_assigned_or_a_base():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in tree.body if isinstance(node, ast.ClassDef)}
    used = names_used_outside_errors() & bases.keys()
    pending = list(used)
    while pending:
        for base in bases[pending.pop()]:
            if base in bases and base not in used:
                used.add(base)
                pending.append(base)
    assert sorted(bases.keys() - used) == []
