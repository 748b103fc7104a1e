"""One seed path: only nlts.rng builds numpy generators. Every other src/nlts
module draws from a generator that rng.substream(seed, *key) returns, so every
random draw is fixed by a seed and a key."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlts"

GENERATOR_NAMES = {"SeedSequence", "default_rng", "Generator", "PCG64", "RandomState"}


def generator_calls(tree: ast.AST) -> list[str]:
    """Each call of a generator constructor or of a np.random function, as
    "line: name". A name used only as a type annotation is not a call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value if isinstance(func, ast.Attribute) else None
        in_np_random = (isinstance(owner, ast.Attribute) and owner.attr == "random"
                        and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy"))
        if name in GENERATOR_NAMES or in_np_random:
            found.append(f"{node.lineno}: {name}")
    return found


def test_generator_calls_sees_each_form():
    tree = ast.parse(
        "np.random.default_rng(1)\n"
        "numpy.random.normal(size=3)\n"
        "Generator(PCG64(SeedSequence(2)))\n"
        "def f(rng: np.random.Generator) -> np.random.Generator: return rng\n"
        "random.random()\n"
        "substream(1, 2).standard_normal(4)\n"
    )
    assert generator_calls(tree) == [
        "1: default_rng", "2: normal", "3: Generator", "3: PCG64", "3: SeedSequence"]


def test_only_rng_builds_generators():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rng.py":
            calls = generator_calls(ast.parse(path.read_text(), filename=str(path)))
            if calls:
                offenders[path.name] = calls
    assert offenders == {}
