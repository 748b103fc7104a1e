from pathlib import Path

import numpy as np
import pytest

import nlts.pipeline

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """A socket or file left open fails the test under tests/ that it shows
    in: ResourceWarning is an error, and so is an exception raised where
    nothing can catch it, such as that warning from a collected socket."""
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))

# Map acceptance tests to their criterion number for the one-line-per-criterion
# summary printed after the run.
_CRITERION_PREFIX = "test_criterion_"
_results: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.location[2]
    marker = name.split("::")[-1]
    if _CRITERION_PREFIX not in marker:
        return
    tail = marker.split(_CRITERION_PREFIX, 1)[1]
    digits = ""
    for ch in tail:
        if ch.isdigit():
            digits += ch
        else:
            break
    if not digits:
        return
    num = int(digits)
    label = tail[len(digits):].lstrip("_") or "criterion"
    outcome = "PASS" if report.passed else "FAIL"
    # keep the worst outcome if a criterion spans several tests, and the first
    # test's label otherwise
    if num in _results:
        if _results[num][0] == "FAIL" or outcome == "PASS":
            return
    _results[num] = (outcome, label)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        outcome, label = _results[num]
        terminalreporter.write_line(f"{outcome}: criterion {num} ({label.replace('_', ' ')})")


@pytest.fixture(autouse=True)
def cold_draw_cache():
    """Start every test with an empty noise-draw cache, so that the substream
    calls a test counts do not depend on which tests ran before it."""
    nlts.pipeline._sample_draws.cache_clear()


def make_airline_series(n: int = 144) -> np.ndarray:
    """Monthly airline-passenger-shaped data: rising trend, multiplicative
    yearly seasonality, small deterministic wobble. Values run roughly 100-620."""
    t = np.arange(n, dtype=float)
    trend = 100.0 + 3.3 * t
    season = 1.0 + 0.22 * np.sin(2 * np.pi * t / 12.0 - 0.7) + 0.06 * np.sin(4 * np.pi * t / 12.0)
    wobble = 6.0 * np.sin(0.9 * t) * np.cos(0.23 * t + 1.3)
    return np.round(trend * season + wobble, 1)


@pytest.fixture
def airline_values() -> np.ndarray:
    return make_airline_series()


def write_series_csv(path, values, holdout: int = 0) -> None:
    lines = ["t,value"] if holdout == 0 else ["t,value,is_holdout"]
    n = len(values)
    for i, v in enumerate(values):
        if holdout == 0:
            lines.append(f"{i},{float(v)!r}")
        else:
            lines.append(f"{i},{float(v)!r},{1 if i >= n - holdout else 0}")
    path.write_text("\n".join(lines) + "\n")
