"""The packages pyproject.toml declares are exactly the third-party ones src/nlts imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_levels(package: Path) -> set[str]:
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    third_party = imported_top_levels(ROOT / "src" / "nlts") - set(sys.stdlib_module_names)
    assert third_party - {"nlts"} == declared
