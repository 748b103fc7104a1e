"""The benchmark patches program functions by attribute name (perfbench/run.py
`trace_points`); a refactor that drops one of those names crashes `--trace 1`
with AttributeError, and one that moves requests off a traced method makes the
request spans miss them. Tier-1 does not collect perfbench/, so guard it here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nlts
from nlts import (
    EchoTailBackend,
    ForecastJob,
    NoiseSpec,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    SplitSpec,
    TimeSeries,
    fit_scaler,
    run_nlts,
    serialize,
    split_series,
)

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


@pytest.mark.parametrize("style", ["raw", "chat"])
def test_replay_spans_see_every_request(monkeypatch, tmp_path, style):
    """`backend.replay_complete` wraps ReplayBackend.complete: each request of
    a replayed forecast, retries included, must pass through it."""
    series = TimeSeries(100.0 + 10.0 * np.sin(np.arange(40) / 3.0))
    hist, tgt = split_series(series, SplitSpec.by_horizon(4))
    good = serialize(tgt, fit_scaler(hist, nlts.CodecConfig()))
    # even samples reply with prose on every try, odd ones with the target
    job = ForecastJob(history=hist, horizon=4, samples=4, prompt_style=style,
                      retries_per_sample=1)
    cassette = tmp_path / "c.jsonl"
    run_nlts(job, RecordingBackend(ScriptedBackend(lines=["no digits", good]), cassette))

    calls = []
    traced = ReplayBackend.complete

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("tag"))
        return traced(self, *args, **kwargs)

    monkeypatch.setattr(ReplayBackend, "complete", counting)
    result = run_nlts(job, ReplayBackend(cassette))
    assert result.valid_samples == 2
    assert result.usage.requests == 6
    assert len(calls) == result.usage.requests


@pytest.mark.parametrize(
    "noise, prompts", [(NoiseSpec("gaussian", 0.05), 5), (NoiseSpec("none"), 1)]
)
def test_serialize_span_sees_every_prompt(monkeypatch, noise, prompts):
    """`codec.serialize` wraps nlts.pipeline's serialize: a noisy job builds
    each sample's prompt through it once, a noise-free job its one shared
    prompt, so its per-call mean stays the cost of one prompt."""
    calls = []
    original = nlts.pipeline.serialize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nlts.pipeline, "serialize", counting)
    series = TimeSeries(100.0 + 10.0 * np.sin(np.arange(40) / 3.0))
    hist, _ = split_series(series, SplitSpec.by_horizon(4))
    job = ForecastJob(history=hist, horizon=4, noise=noise, samples=5)
    result = run_nlts(job, EchoTailBackend(tail=4, steps=4))
    assert result.valid_samples == 5
    assert len(calls) == prompts


def test_synth_spans_see_every_series(monkeypatch, tmp_path):
    """`synth.write_csv` and `rng.substream` wrap nlts.synth's module globals:
    each series must write through the first once and draw through the second
    once, so that per-call means stay per-series."""
    calls = {"write_series_csv": 0, "substream": 0}
    for name in calls:
        original = getattr(nlts.synth, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nlts.synth, name, counting)
    specs = [nlts.KernelSpec(kind="rbf"), nlts.KernelSpec(kind="matern")]
    manifest = nlts.generate_benchmark(specs, 3, 20, 4, 5, tmp_path)
    assert len(manifest["files"]) == 6
    assert calls == {"write_series_csv": 6, "substream": 6}
