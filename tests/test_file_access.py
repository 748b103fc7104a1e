"""Only nlts.core touches the file system: every other src/nlts module reads
and writes files through core's read_text, read_json, make_dir and
write_text, so a file failure is always a ConfigError naming the file."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlts"

FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir", "touch"}


def file_calls(tree: ast.AST) -> list[str]:
    """Each call of the builtin open or of a file method, as "line: name"."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{node.lineno}: open")
        elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
            found.append(f"{node.lineno}: .{func.attr}")
    return found


def test_file_calls_sees_each_form():
    tree = ast.parse("open(p)\np.open('a')\np.read_text()\nq.parent.mkdir()\nread_text(p, 'x')\n")
    assert file_calls(tree) == ["1: open", "2: .open", "3: .read_text", "4: .mkdir"]


def test_only_core_touches_the_file_system():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "core.py":
            calls = file_calls(ast.parse(path.read_text(), filename=str(path)))
            if calls:
                offenders[path.name] = calls
    assert offenders == {}
