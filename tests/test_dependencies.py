"""The packages pyproject.toml declares are exactly the third-party ones
src/nlts imports, and importing nlts leaves the HTTP stack and its thread pool
unloaded."""

import ast
import os
import re
import subprocess
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


def test_import_leaves_the_http_stack_unloaded():
    # HttpBackend imports its HTTP and TLS modules and its worker pool when it is built
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, nlts; print(sorted("
            "{'concurrent.futures', 'http.client', 'ssl', 'urllib3'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
