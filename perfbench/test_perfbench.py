"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import copy
import statistics
import time

import numpy as np
import pytest

import checks
import stub
from run import import_nlts
from tracing import Span, Tracer, self_times, union_length
from workloads import (
    HISTORY_LENGTHS,
    HORIZON,
    SAMPLES,
    SYNTH_COUNT,
    SYNTH_HOLDOUT,
    SYNTH_LENGTH,
    airline_series,
    sweep_config,
    write_datasets,
)

nlts = import_nlts()


# --- self time ----------------------------------------------------------------


def test_union_merges_overlaps_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8), (9.0, 12.0)]
    assert union_length(intervals) == pytest.approx(3.0 + 1.0 + 3.0)
    assert union_length(intervals, 0.5, 10.0) == pytest.approx(2.5 + 1.0 + 1.0)
    assert union_length([]) == 0.0
    assert union_length([(3.0, 4.0)], 5.0, 6.0) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None),
        Span(1, "child", 1.0, 4.0, 0),  # four pool threads, overlapping
        Span(2, "child", 2.0, 5.0, 0),
        Span(3, "child", 3.0, 4.5, 0),
        Span(4, "child", 8.0, 11.0, 0),  # runs past the parent's end
        Span(5, "grandchild", 1.5, 2.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)


def test_worker_thread_spans_take_the_callers_span_as_parent():
    from concurrent.futures import ThreadPoolExecutor

    class Owner:
        @staticmethod
        def leaf(x):
            return x

        @staticmethod
        def fan_out():
            with ThreadPoolExecutor(max_workers=3) as pool:
                return list(pool.map(Owner.leaf, range(6)))

    tracer = Tracer()
    tracer.patch(Owner, "leaf", "leaf")
    tracer.patch(Owner, "fan_out", "fan_out")
    try:
        assert Owner.fan_out() == list(range(6))
    finally:
        tracer.unpatch()
    (root,) = tracer.by_name("fan_out")
    leaves = tracer.by_name("leaf")
    assert len(leaves) == 6 and all(s.parent == root.id for s in leaves)
    assert isinstance(Owner.__dict__["leaf"], staticmethod)


# --- sweep checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A genuine sweep served by nlts's echo mock, which follows the stub's
    reply rule, plus the references the checks compare against."""
    work = tmp_path_factory.mktemp("sweep")
    datasets = write_datasets(work / "data", seed=3)
    paths = [path for path, _ in datasets.values()]
    cfg = nlts.cli.sweep_config_from_dict(sweep_config(paths, 3, {"kind": "echo"}))
    backend = nlts.EchoTailBackend(stub.REPLY_STEPS, HORIZON)
    report = nlts.run_sweep(cfg, work / "out", backend=backend)
    refs = {n: checks.reference_forecast(v, HORIZON) for n, (_, v) in datasets.items()}
    return report, refs


def test_genuine_sweep_passes(sweep):
    report, refs = sweep
    assert checks.check_sweep_cells(report["cells"], refs, SAMPLES) == []


@pytest.mark.parametrize("field, bins", [("mae", 3), ("mse", 3), ("mae", -3)])
def test_original_check_rejects_shifted_score(sweep, field, bins):
    """A forecast moved by `bins` quantization bins moves mae by that much and
    mse by about 2 * mae times that much: three times what the check allows."""
    report, refs = sweep
    cells = copy.deepcopy(report["cells"])
    original = next(c for c in cells if c["label"] == "Original")
    ref = refs[original["dataset"]]
    shift = bins * ref["bin"] * (2 * ref["mae"] if field == "mse" else 1)
    original[field] += shift
    if field == "mae":  # keep the noisy rows consistent with the edited Original
        for c in cells:
            if c["dataset"] == original["dataset"] and c is not original:
                c["mae"] += shift
    assert checks.check_original(original, refs[original["dataset"]])
    assert checks.check_sweep_cells(cells, refs, SAMPLES)


def test_noisy_check_rejects_a_cell_far_from_original(sweep):
    report, refs = sweep
    cells = copy.deepcopy(report["cells"])
    noisy = next(c for c in cells if c["level"] == 0.001)
    ref = refs[noisy["dataset"]]
    noisy["mae"] += 20 * noisy["level"] * ref["sigma"] / ref["span"] + 3 * ref["bin"]
    assert checks.check_sweep_cells(cells, refs, SAMPLES)


@pytest.mark.parametrize("field, value", [("valid_samples", SAMPLES - 1),
                                          ("error", "InsufficientSamplesError: x")])
def test_cell_check_rejects_incomplete_cells(sweep, field, value):
    report, refs = sweep
    cells = copy.deepcopy(report["cells"])
    cells[5][field] = value
    assert checks.check_sweep_cells(cells, refs, SAMPLES)


def test_cell_check_rejects_missing_original(sweep):
    report, refs = sweep
    cells = [c for c in report["cells"] if c["label"] != "Original"]
    assert checks.check_sweep_cells(cells, refs, SAMPLES)


def test_replay_check_rejects_any_changed_field(sweep):
    report, _ = sweep
    assert checks.check_replay(report["cells"], report["cells"]) == []
    for key in checks.CELL_FIELDS:
        cells = copy.deepcopy(report["cells"])
        value = cells[3][key]
        cells[3][key] = value + 1 if isinstance(value, (int, float)) else f"{value}x"
        assert checks.check_replay(cells, report["cells"]), key
    assert checks.check_replay(report["cells"][:-1], report["cells"])


def _stats(requests=160, prompt_tokens=5000, lengths=None, bad=0):
    return {"requests": requests, "prompt_tokens": prompt_tokens, "handler_s": 1.0, "bad_prompts": bad, "first_problem": "x" if bad else None,
            "history_lengths": lengths or {}}


def test_usage_check_rejects_mismatched_counts():
    usage = {"requests": 160, "prompt_tokens": 5000, "completion_tokens": 9}
    assert checks.check_usage(usage, _stats()) == []
    assert checks.check_usage(usage, _stats(requests=161))
    assert checks.check_usage(usage, _stats(prompt_tokens=4999))


def test_prompt_check_rejects_wrong_lengths_and_bad_prompts():
    want = {h: 160 for h in HISTORY_LENGTHS}
    good = {str(h): 160 for h in HISTORY_LENGTHS}
    assert checks.check_prompts(_stats(lengths=good), want) == []
    assert checks.check_prompts(_stats(lengths=dict(good, **{"65": 1})), want)
    assert checks.check_prompts(_stats(lengths={**good, "66": 159}), want)
    assert checks.check_prompts(_stats(lengths=good, bad=1), want)


def test_stats_delta_subtracts_counters():
    before = _stats(requests=10, prompt_tokens=100, lengths={"48": 10})
    after = _stats(requests=30, prompt_tokens=400, lengths={"48": 10, "96": 20})
    delta = checks.stats_delta(before, after)
    assert delta["requests"] == 20 and delta["prompt_tokens"] == 300
    assert delta["history_lengths"] == {"48": 0, "96": 20}


# --- stub ---------------------------------------------------------------------


def _prompt(values, **codec):
    config = nlts.CodecConfig(**codec)
    history = nlts.TimeSeries(np.asarray(values, dtype=float))
    encoded = nlts.serialize(history, nlts.fit_scaler(history, config), config)
    return nlts.build_prompt(encoded, "raw", HORIZON, config)


def test_stub_parser_accepts_real_prompts_and_rejects_corrupted_ones():
    values = airline_series(60, np.random.default_rng(0))
    prompt = _prompt(values)
    assert stub.prompt_problem(prompt) is None
    assert len(stub.prompt_steps(prompt)) == 60
    # scaled by the wrong quantile: the 0.95-quantile is no longer one
    assert stub.prompt_problem(_prompt(values, scale_quantile=0.9))
    assert stub.prompt_problem(prompt.replace("1", "x", 1))
    assert stub.prompt_problem("")
    negative = _prompt(-values)
    assert stub.prompt_steps(negative)[0].startswith("-")


def test_stub_reply_rule():
    prompt = "1 2, 3 4, 5 6, 7 8, "
    assert stub.reply_text(prompt, 2) == "5 6, 7 8"
    assert stub.reply_text(prompt, 12) == "1 2, 3 4, 5 6, 7 8"
    assert stub.count_tokens(prompt) == 12
    assert stub.quantile([1, 2, 3, 4], 0.95) == pytest.approx(np.quantile([1, 2, 3, 4], 0.95))


def test_stub_adds_no_stall_and_counts_what_it_served():
    """At zero latency a request takes a few ms; a split header/body write
    would add the 40 ms Nagle plus delayed-ACK stall to each."""
    server = stub.StubProcess(0.0)
    try:
        backend = nlts.HttpBackend(nlts.BackendConfig(base_url=server.url))
        params = nlts.GenerationParams()
        prompt = _prompt(np.arange(1.0, 61.0))
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            texts, usage = backend.complete(prompt, params)
            times.append(time.perf_counter() - t0)
        stats = server.stats()
    finally:
        server.close()
    assert server.proc.poll() is not None
    assert statistics.median(times) < 0.010
    assert texts == [stub.reply_text(prompt, stub.REPLY_STEPS)]
    assert stats["requests"] == 30 and stats["bad_prompts"] == 0
    assert stats["prompt_tokens"] == 30 * usage.prompt_tokens == 30 * stub.count_tokens(prompt)
    assert stats["history_lengths"] == {"60": 30}


# --- synthesis checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    specs = [nlts.KernelSpec(kind=k) for k in nlts.KERNEL_KINDS]
    manifest = nlts.generate_benchmark(specs, SYNTH_COUNT, SYNTH_LENGTH, SYNTH_HOLDOUT, 5, out)
    series = {}
    for entry in manifest["files"]:
        series[entry["file"]] = (entry["kernel"],
                                 checks.read_synth_csv((out / entry["file"]).read_text()))
    return series


def test_genuine_synthesis_passes(synth):
    grid = np.linspace(0.0, 1.0, SYNTH_LENGTH)
    for kind in nlts.KERNEL_KINDS:
        entries = [(k, s) for name, (k, s) in synth.items() if k["kind"] == kind]
        for kernel, (value, raw, flags) in entries:
            assert checks.check_synth_series(kind, value, raw, flags, SYNTH_HOLDOUT) == []
        raws = np.array([s[1] for _, s in entries])
        assert checks.check_synth_variance(kind, raws, entries[0][0], grid) == []


def test_reference_kernel_matches_nlts_matrix():
    grid = np.linspace(0.0, 1.0, 30)
    for kind in nlts.KERNEL_KINDS:
        spec = nlts.KernelSpec(kind=kind).resolved(grid)
        np.testing.assert_allclose(checks.reference_kernel(spec.to_dict(), grid),
                                   nlts.kernel_matrix(spec, grid), rtol=1e-12, atol=1e-12)


def test_synth_series_check_rejects_corruption(synth):
    _, (value, raw, flags) = next(iter(synth.values()))
    assert checks.check_synth_series("s", value * 0.999, raw, flags, SYNTH_HOLDOUT)
    bumped = raw.copy()
    bumped[5] += 0.01
    assert checks.check_synth_series("s", value, bumped, flags, SYNTH_HOLDOUT)
    shifted = np.roll(flags, -1)
    assert checks.check_synth_series("s", value, raw, shifted, SYNTH_HOLDOUT)
    assert checks.check_synth_series("s", value, raw, flags, SYNTH_HOLDOUT + 1)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_synth_variance_check_rejects_rescaled_draws(synth, scale):
    grid = np.linspace(0.0, 1.0, SYNTH_LENGTH)
    entries = [(k, s) for k, s in synth.values() if k["kind"] == "rbf"]
    raws = np.array([s[1] for _, s in entries]) * scale
    assert checks.check_synth_variance("rbf", raws, entries[0][0], grid)
