"""The benchmark patches program functions by attribute name (perfbench/run.py
`trace_points`); a refactor that drops one of those names crashes `--trace 1`
with AttributeError. Tier-1 does not collect perfbench/, so guard it here."""

import importlib.util
from pathlib import Path

import nlts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_points_resolve(monkeypatch):
    # run.py sets this at import; let monkeypatch restore the caller's value
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    points = run.trace_points(nlts)
    assert points
    missing = [(owner, attr) for owner, attr, _ in points if not hasattr(owner, attr)]
    assert not missing
    assert all(callable(getattr(owner, attr)) for owner, attr, _ in points)
