"""Concurrency only where there is I/O to overlap, and then on the calling
thread: no src/nlts module imports concurrent.futures, multiprocessing or
_thread, or starts a threading.Thread or Timer. A threading.Lock is allowed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlts"

BANNED_MODULES = {"concurrent", "multiprocessing", "_thread"}
THREAD_CLASSES = {"Thread", "Timer"}


def thread_uses(tree: ast.AST) -> list[str]:
    """Each import of a banned module and each threading.Thread or Timer,
    called or imported by name, as "line: what", in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in BANNED_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in BANNED_MODULES:
                found.append(f"{node.lineno}: from {node.module}")
            elif node.module == "threading":
                found += [f"{node.lineno}: from threading import {alias.name}"
                          for alias in node.names if alias.name in THREAD_CLASSES | {"*"}]
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in THREAD_CLASSES
                    and isinstance(func.value, ast.Name) and func.value.id == "threading"):
                found.append(f"{node.lineno}: threading.{func.attr}")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_thread_uses_sees_each_form():
    tree = ast.parse(
        "import concurrent.futures\n"
        "from multiprocessing import Pool\n"
        "import _thread\n"
        "threading.Thread(target=f).start()\n"
        "from threading import Lock, Thread\n"
        "threading.Lock()\n"
        "import threading, queue, selectors\n"
        "from concurrent import futures\n"
    )
    assert thread_uses(tree) == [
        "1: import concurrent.futures", "2: from multiprocessing", "3: import _thread",
        "4: threading.Thread", "5: from threading import Thread", "8: from concurrent"]


def test_no_module_starts_a_thread():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = thread_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            offenders[path.name] = uses
    assert offenders == {}
