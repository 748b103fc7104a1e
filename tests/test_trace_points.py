"""The benchmark's `--trace 1` mode patches program functions by attribute
name (perfbench/run.py `trace_points`). A refactor that drops one of those
names crashes it with AttributeError, and one that moves work off a patched
name makes its spans miss that work. No test under perfbench/ calls
`trace_points`, so these tests guard the names it patches and what each
span sees."""

import importlib.util
from dataclasses import replace
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
    SweepConfig,
    TimeSeries,
    fit_scaler,
    run_nlts,
    run_sweep,
    serialize,
    split_series,
)

from conftest import make_airline_series, write_series_csv

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
    """`codec.serialize` wraps nlts.pipeline's serialize. A noise-free job
    builds its one shared prompt through it; a noisy job encodes every
    sample's prompt in one serialize_rows call instead, so the span sees
    only noise-free jobs."""
    rows_encoded = {"serialize": [], "serialize_rows": []}
    for name in rows_encoded:
        original = getattr(nlts.pipeline, name)

        def counting(values, *args, _name=name, _original=original, **kwargs):
            rows_encoded[_name].append(len(values) if _name == "serialize_rows" else 1)
            return _original(values, *args, **kwargs)

        monkeypatch.setattr(nlts.pipeline, name, counting)
    series = TimeSeries(100.0 + 10.0 * np.sin(np.arange(40) / 3.0))
    hist, _ = split_series(series, SplitSpec.by_horizon(4))
    job = ForecastJob(history=hist, horizon=4, noise=noise, samples=5)
    result = run_nlts(job, EchoTailBackend(tail=4, steps=4))
    assert result.valid_samples == 5
    if noise.adds_noise:
        assert rows_encoded == {"serialize": [], "serialize_rows": [prompts]}
    else:
        assert rows_encoded == {"serialize": [prompts], "serialize_rows": []}


def _count_substream_calls(monkeypatch) -> list:
    calls = []
    original = nlts.pipeline.substream

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(nlts.pipeline, "substream", counting)
    return calls


@pytest.mark.parametrize("noise", [NoiseSpec("gaussian", 0.05), NoiseSpec("none"),
                                   NoiseSpec("laplace", 0.0)])
def test_substream_calls_per_job(monkeypatch, tmp_path, noise):
    """`rng.substream` wraps nlts.pipeline's substream. On a cold draw cache a
    noisy job draws through it once per sample, and a noise-free job not at
    all. A job that differs only in alpha or in the history's values reuses
    the cached draws, makes no call, and sends a cold run's prompts byte for
    byte."""
    calls = _count_substream_calls(monkeypatch)
    series = TimeSeries(100.0 + 10.0 * np.sin(np.arange(40) / 3.0))
    hist, _ = split_series(series, SplitSpec.by_horizon(4))
    job = ForecastJob(history=hist, horizon=4, noise=noise, samples=6, seed=3)
    assert run_nlts(job, EchoTailBackend(tail=4, steps=4)).valid_samples == 6
    assert calls == ([(3, i) for i in range(6)] if noise.adds_noise else [])

    shifted = hist.with_values(hist.values * 1.5 - 20.0)
    variants = [replace(job, noise=replace(noise, alpha=2 * noise.alpha)),
                replace(job, history=shifted)]
    for k, variant in enumerate(variants):
        calls.clear()
        warm, cold = tmp_path / f"warm{k}.jsonl", tmp_path / f"cold{k}.jsonl"
        run_nlts(variant, RecordingBackend(EchoTailBackend(tail=4, steps=4), warm))
        assert calls == []
        nlts.pipeline._sample_draws.cache_clear()
        run_nlts(variant, RecordingBackend(EchoTailBackend(tail=4, steps=4), cold))
        assert len(calls) == (6 if noise.adds_noise else 0)
        assert warm.read_bytes() == cold.read_bytes()


def test_sweep_draws_once_per_kind(monkeypatch, tmp_path):
    """A one-dataset sweep draws each kind's samples once and reuses them
    for every level of that kind."""
    calls = _count_substream_calls(monkeypatch)
    data = tmp_path / "air.csv"
    write_series_csv(data, make_airline_series(60), holdout=6)
    cfg = SweepConfig(datasets=(str(data),), kinds=("gaussian", "uniform", "gamma"),
                      noise_levels=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2), samples=4, seed=5)
    report = run_sweep(cfg, tmp_path / "report")
    assert len(report["cells"]) == 1 + 3 * 5
    assert all(cell["error"] is None for cell in report["cells"])
    assert calls == [(5, i) for i in range(4)] * 3


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
