import hashlib
import json
import random
import threading
from dataclasses import asdict, fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlts import (
    CodecConfig,
    ConfigError,
    EchoTailBackend,
    ForecastJob,
    GenerationParams,
    InsufficientSamplesError,
    NltsError,
    NoiseSpec,
    OracleBackend,
    ParseError,
    RecordingBackend,
    ReplayBackend,
    SYSTEM_PROMPT,
    SamplePaths,
    ScriptedBackend,
    SplitSpec,
    SweepConfig,
    TimeSeries,
    Usage,
    aggregate_samples,
    build_prompt,
    deserialize,
    fit_scaler,
    inject_noise,
    run_nlts,
    run_sweep,
    serialize,
    split_series,
    substream,
)
from nlts.codec import STEP_SEPARATOR, fit_scalers
from nlts.noise import standardized_draw
from nlts.pipeline import USER_PROMPT_TEMPLATE, completion_token_budget, inject_noise_rows

from conftest import make_airline_series, write_series_csv
from golden import replay_jobs

CODEC = CodecConfig()


def make_series(n=72, seed=3):
    rng = np.random.default_rng(seed)
    vals = 50 + 20 * np.sin(np.arange(n) / 5.0) + rng.normal(0, 2, n)
    return TimeSeries(vals, name="demo")


def oracle_for(history, target, codec=CODEC):
    scaler = fit_scaler(history, codec)
    return OracleBackend(serialize(target, scaler, codec))


class TestBuildPrompt:
    def test_raw_appends_separator_cue(self):
        p = build_prompt("1 2, 3 4", "raw", 4, CODEC)
        assert p == "1 2, 3 4, "

    def test_chat_shape(self):
        p = build_prompt("1 2, 3 4", "chat", 4, CODEC)
        assert isinstance(p, list) and len(p) == 2
        assert p[0] == {"role": "system", "content": SYSTEM_PROMPT}
        assert p[1]["role"] == "user"
        assert p[1]["content"] == USER_PROMPT_TEMPLATE.format(sequence="1 2, 3 4")
        assert p[1]["content"].endswith("Sequence:\n1 2, 3 4")

    def test_chat_system_text_pinned(self):
        assert SYSTEM_PROMPT == (
            "You are a helpful assistant specialized in time series forecasting. "
            "The user provides a comma-separated sequence of decimal numbers, and "
            "you will predict the following values."
        )

    def test_user_text_pinned(self):
        assert USER_PROMPT_TEMPLATE.format(sequence="S") == (
            "Please continue the sequence without any additional text or "
            "explanation. Only output the predicted numbers.\nSequence:\nS"
        )

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError):
            build_prompt("", "raw", 4, CODEC)

    def test_unknown_style(self):
        with pytest.raises(ConfigError):
            build_prompt("1", "formal", 4, CODEC)


class TestTokenBudget:
    def test_scales_with_horizon_and_precision(self):
        assert completion_token_budget(10, CodecConfig(precision_k=3)) == 120
        assert completion_token_budget(10, CodecConfig(precision_k=3, basic_mode=True)) == 60

    def test_floor(self):
        assert completion_token_budget(1, CodecConfig(precision_k=0)) >= 16


class TestForecastJobValidation:
    def test_bad_samples(self):
        s = make_series()
        with pytest.raises(ConfigError):
            ForecastJob(history=s, horizon=4, samples=0)

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            ForecastJob(history=make_series(), horizon=0)

    def test_bad_retries(self):
        with pytest.raises(ConfigError):
            ForecastJob(history=make_series(), horizon=2, retries_per_sample=-1)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            ForecastJob(history=make_series(), horizon=2, seed=-1)

    def test_params_num_samples_points_to_samples(self):
        params = GenerationParams(num_samples=3)
        with pytest.raises(ConfigError, match="params.num_samples must be 1, got 3; set samples"):
            ForecastJob(history=make_series(), horizon=2, samples=2, params=params)


class _TagAndPrompt(EchoTailBackend):
    """Replies depend on the tag and the prompt: about three in eight are prose,
    and the rest echo the prompt's tail, rotated by a digest of both."""

    def reply(self, text, tag):
        digest = hashlib.sha256(f"{tag}\n{text}".encode()).digest()
        if digest[0] < 96:
            return "no digits in this reply"
        steps = super().reply(text, tag).split(STEP_SEPARATOR)
        k = digest[1] % len(steps)
        return STEP_SEPARATOR.join(steps[k:] + steps[:k])


class _ShuffledThreads(_TagAndPrompt):
    """Answers a batch's calls one at a time, each on a new thread, in a
    seeded shuffled order, and returns the replies in call order."""

    def __init__(self, seed, **kw):
        super().__init__(**kw)
        self.shuffle = random.Random(seed).shuffle
        self.threads = set()

    def complete_many(self, calls):
        replies = [None] * len(calls)

        def answer(i):
            self.threads.add(threading.current_thread())
            prompt, params, tag = calls[i]
            replies[i] = self.complete(prompt, params, tag=tag)

        order = list(range(len(calls)))
        self.shuffle(order)
        for i in order:
            thread = threading.Thread(target=answer, args=(i,))
            thread.start()
            thread.join()
        return replies


class TestRunNlts:
    def test_oracle_alpha_zero_recovers_target(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(12))
        backend = oracle_for(hist, tgt)
        job = ForecastJob(history=hist, horizon=12, samples=10, seed=1)
        result = run_nlts(job, backend)
        assert result.valid_samples == 10
        scaler = fit_scaler(hist, CODEC)
        bound = 0.5 * scaler.scale * 1e-3 * (1 + 1e-12)
        assert np.max(np.abs(result.forecast.median - tgt.values)) <= bound
        # all ten paths are bitwise identical; np.var still leaves squared-ulp
        # residue because the mean of m copies of a value can round
        ulp_sq = (np.finfo(float).eps * np.max(np.abs(result.forecast.median))) ** 2
        assert np.max(result.forecast.variance) <= ulp_sq

    def test_noisy_oracle_positive_variance(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(12))
        backend = oracle_for(hist, tgt)
        job = ForecastJob(
            history=hist, horizon=12, samples=10, seed=1,
            noise=NoiseSpec(kind="gaussian", alpha=0.02),
        )
        result = run_nlts(job, backend)
        assert result.valid_samples == 10
        assert np.all(result.forecast.variance > 0)

    def test_results_independent_of_worker_count(self, tmp_path):
        """A backend that answers each batch on threads in a shuffled order
        gives byte-identical results to the in-order loop, and every sample
        path is the reply to its own sample's request."""
        series = make_series()
        hist, _ = split_series(series, SplitSpec.by_horizon(8))
        job = ForecastJob(
            history=hist, horizon=8, samples=8, seed=5,
            noise=NoiseSpec(kind="laplace", alpha=0.01), retries_per_sample=1,
        )
        shuffled = _ShuffledThreads(seed=11, tail=4, steps=8)
        in_order = _TagAndPrompt(tail=4, steps=8)
        result = run_nlts(job, shuffled)
        assert len(shuffled.threads) == result.usage.requests
        assert threading.current_thread() not in shuffled.threads
        expected = run_nlts(job, in_order)
        assert json.dumps(result.to_dict()) == json.dumps(expected.to_dict())

        valid = [o for o in result.outcomes if o.valid]
        assert 4 <= len(valid) < 8 and any(o.attempts > 1 and o.valid for o in valid)
        for path, outcome in zip(result.samples.paths, valid, strict=True):
            i = outcome.sample_index
            noisy = inject_noise(hist, job.noise, substream(job.seed, i))
            scaler = fit_scaler(noisy, CODEC)
            prompt = build_prompt(serialize(noisy, scaler, CODEC), "raw", 8, CODEC)
            text = in_order.reply(prompt, f"sample-{i}/try-{outcome.attempts - 1}")
            npt.assert_array_equal(path, deserialize(text, scaler, CODEC, 8)[0])

        data = tmp_path / "series.csv"
        write_series_csv(data, make_airline_series(72))
        cfg = SweepConfig(datasets=(str(data),), noise_levels=(0.0, 0.01, 0.05),
                          kinds=("gaussian", "uniform"), samples=6, seed=3,
                          split=SplitSpec.by_horizon(8))
        run_sweep(cfg, tmp_path / "shuffled", backend=_ShuffledThreads(seed=12, tail=4, steps=8))
        run_sweep(cfg, tmp_path / "in_order", backend=_TagAndPrompt(tail=4, steps=8))
        report = (tmp_path / "shuffled" / "results.json").read_bytes()
        assert report == (tmp_path / "in_order" / "results.json").read_bytes()

    def test_deterministic_rerun(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        job = ForecastJob(
            history=hist, horizon=6, samples=6, seed=9,
            noise=NoiseSpec(kind="gamma", alpha=0.05),
        )
        a = run_nlts(job, oracle_for(hist, tgt)).to_dict()
        b = run_nlts(job, oracle_for(hist, tgt)).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_insufficient_samples(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        # samples 0-5 reply with prose, 6-9 with a full continuation
        scaler = fit_scaler(hist, CODEC)
        good = serialize(tgt, scaler, CODEC)
        lines = ["sorry, cannot help with that"] * 6 + [good] * 4
        backend = ScriptedBackend(lines=lines)
        job = ForecastJob(history=hist, horizon=6, samples=10, seed=0, retries_per_sample=0)
        with pytest.raises(InsufficientSamplesError):
            run_nlts(job, backend)

    @pytest.mark.parametrize("width", [400, 5000])
    def test_runaway_digits_make_one_sample_invalid(self, width):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        good = serialize(tgt, fit_scaler(hist, CODEC), CODEC)
        # sample 1 gets a runaway value followed by two ordinary steps
        backend = ScriptedBackend(lines=[good, "9" * width + ", 1, 2", good, good])
        job = ForecastJob(history=hist, horizon=6, samples=4, seed=0, retries_per_sample=1)
        result = run_nlts(job, backend)
        assert result.valid_samples == 3
        runaway = result.outcomes[1]
        assert not runaway.valid
        assert runaway.attempts == 2
        assert runaway.report.discarded_fragments == 1
        assert runaway.report.parsed_steps == 2

    def test_exactly_half_valid_passes(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        scaler = fit_scaler(hist, CODEC)
        good = serialize(tgt, scaler, CODEC)
        lines = ["no numbers here"] * 5 + [good] * 5
        backend = ScriptedBackend(lines=lines)
        job = ForecastJob(history=hist, horizon=6, samples=10, seed=0, retries_per_sample=0)
        result = run_nlts(job, backend)
        assert result.valid_samples == 5
        assert result.samples.num_samples == 5
        bad = [o for o in result.outcomes if not o.valid]
        assert len(bad) == 5
        assert all(o.attempts == 1 for o in result.outcomes)

    def test_short_continuation_truncated_sample_invalid(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        backend = ScriptedBackend(lines=["1 0 0 0, 2 0 0 0"])  # only 2 of 6 steps
        job = ForecastJob(history=hist, horizon=6, samples=1, seed=0, retries_per_sample=0)
        with pytest.raises(InsufficientSamplesError):
            run_nlts(job, backend)

    def test_retries_consume_attempts(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(4))

        class FlakyOnce(OracleBackend):
            def __init__(self, text):
                super().__init__(text)
                self.seen = set()

            def complete(self, prompt, params, tag=""):
                if tag.endswith("try-0") and tag not in self.seen:
                    self.seen.add(tag)
                    return ["gibberish"], self._usage(prompt)
                return super().complete(prompt, params, tag=tag)

            def _usage(self, prompt):
                from nlts.backend import _estimate_usage

                return _estimate_usage(prompt, ["gibberish"])

        scaler = fit_scaler(hist, CODEC)
        backend = FlakyOnce(serialize(tgt, scaler, CODEC))
        job = ForecastJob(history=hist, horizon=4, samples=4, seed=0, retries_per_sample=1)
        result = run_nlts(job, backend)
        assert result.valid_samples == 4
        assert all(o.attempts == 2 for o in result.outcomes)
        assert result.usage.requests == 8  # every attempt is counted

    def test_chat_style_round_trip(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(5))
        backend = EchoTailBackend(tail=3, steps=12)
        job = ForecastJob(history=hist, horizon=5, samples=3, seed=0, prompt_style="chat")
        result = run_nlts(job, backend)
        assert result.valid_samples == 3
        # echo repeats the last 3 history steps; decoded values must match them
        scaler = fit_scaler(hist, CODEC)
        enc = serialize(hist, scaler, CODEC)
        last3 = enc.split(", ")[-3:]
        expected_text = ", ".join((last3 * 2)[:5])
        from nlts import deserialize

        expected, _ = deserialize(expected_text, scaler, CODEC, horizon=5)
        npt.assert_allclose(result.forecast.median, expected, rtol=0, atol=1e-12)

    def test_manifest_contents(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(4))
        job = ForecastJob(history=hist, horizon=4, samples=2, seed=3)
        result = run_nlts(job, oracle_for(hist, tgt))
        m = result.manifest
        assert m["seed"] == 3
        assert m["samples"] == 2
        assert m["horizon"] == 4
        assert m["noise"]["kind"] == "none"
        assert m["codec"]["precision_k"] == 3
        assert len(m["scalers"]) == 2
        assert m["rng"]["generator"] == "numpy.random.PCG64"
        assert m["backend"]["backend"] == "oracle"
        assert "version" in m

    def test_manifest_configs_are_copies_of_the_job(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(4))
        job = ForecastJob(
            history=hist, horizon=4, samples=2,
            noise=NoiseSpec(kind="laplace", alpha=0.01),
            codec=CodecConfig(precision_k=2), params=GenerationParams(stop=("\n",)),
        )
        m = run_nlts(job, oracle_for(hist, tgt, job.codec)).manifest
        assert m["noise"] == asdict(job.noise)
        assert m["codec"] == asdict(job.codec)
        assert m["generation"] == asdict(job.params)
        assert list(m["codec"]) == [f.name for f in fields(CodecConfig)]
        # vars() hands out the job's own attribute dicts
        m["noise"]["alpha"] = 9.0
        m["codec"]["precision_k"] = 9
        assert (job.noise.alpha, job.codec.precision_k) == (0.01, 2)

    def test_usage_accumulates_across_samples(self):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(4))
        job = ForecastJob(history=hist, horizon=4, samples=5, seed=0)
        result = run_nlts(job, oracle_for(hist, tgt))
        assert result.usage.requests == 5
        assert result.usage.prompt_tokens > 0


class _TryScripted(ScriptedBackend):
    """Line i + k for the k-th try of sample i, so a retry can change the reply."""

    def reply(self, text, tag):
        sample, attempt = tag[len("sample-"):].split("/try-")
        return self.lines[(int(sample) + int(attempt)) % len(self.lines)]


def _per_sample_reference(job, backend):
    """run_nlts's paths, outcomes and usage, decoding each reply with
    deserialize and adding usage one request at a time."""
    history = job.history
    params = replace(
        job.params, max_tokens=max(job.params.max_tokens,
                                   completion_token_budget(job.horizon, job.codec)))
    draws = np.array([standardized_draw(job.noise, len(history), substream(job.seed, i))
                      for i in range(job.samples)])
    rows = inject_noise_rows(history, job.noise, draws)
    scalers = fit_scalers(rows, job.codec)
    paths, outcomes, usage = [], [], Usage()
    for i in range(job.samples):
        prompt = build_prompt(serialize(rows[i], scalers[i], job.codec), job.prompt_style,
                              job.horizon, job.codec)
        for attempt in range(job.retries_per_sample + 1):
            texts, used = backend.complete(prompt, params, tag=f"sample-{i}/try-{attempt}")
            usage = usage + used
            try:
                values, report = deserialize(texts[0], scalers[i], job.codec, job.horizon)
            except ParseError as err:
                outcome = (i, attempt + 1, False, err.report)
                continue
            outcome = (i, attempt + 1, report.parsed_steps >= job.horizon, report)
            if outcome[2]:
                paths.append(values)
                break
        outcomes.append(outcome)
    return np.stack(paths), outcomes, usage


class TestBatchedDecode:
    @pytest.mark.parametrize("half_bin", [True, False])
    @pytest.mark.parametrize("retries", [0, 2])
    def test_matches_per_sample_reference(self, half_bin, retries):
        series = make_series(n=60)
        hist, tgt = split_series(series, SplitSpec.by_horizon(5))
        codec = CodecConfig(half_bin_correction=half_bin)
        good = serialize(tgt, fit_scaler(hist, codec), codec)
        lines = [good, "no digits here", good[: len(good) // 2], "", "answer: " + good + ", 9 9",
                 good, good.replace(", ", ",x,", 2), "7"]
        job = ForecastJob(history=hist, horizon=5, samples=9, seed=4, codec=codec,
                          noise=NoiseSpec("uniform", 0.02), retries_per_sample=retries)
        result = run_nlts(job, _TryScripted(lines=lines))
        paths, outcomes, usage = _per_sample_reference(job, _TryScripted(lines=lines))
        assert result.samples.paths.tobytes() == paths.tobytes()
        assert [(o.sample_index, o.attempts, o.valid, o.report) for o in result.outcomes] \
            == outcomes
        assert result.usage == usage
        assert sum(o.valid for o in result.outcomes) == len(paths) < job.samples
        assert any(o.attempts > 1 and o.valid for o in result.outcomes) == (retries > 0)
        reference = aggregate_samples(SamplePaths(paths))
        assert result.forecast.median.tobytes() == reference.median.tobytes()


class TestGoldenCassette:
    """The jobs of tests/golden/replay_jobs.py replay from the cassette their
    prompts were recorded with: a hit proves the prompt bytes, the generation
    parameters and the tags are unchanged."""

    @pytest.fixture(scope="class")
    def backend(self):
        return ReplayBackend(replay_jobs.CASSETTE)

    @pytest.mark.parametrize("name", list(replay_jobs.jobs()))
    def test_job_replays_without_a_miss(self, backend, name):
        job = replay_jobs.jobs()[name]
        assert run_nlts(job, backend).valid_samples == job.samples

    def test_recording_writes_the_committed_bytes(self, tmp_path):
        # the responses and their usage are pinned too, not only the requests
        cassette = tmp_path / "c.jsonl"
        replay_jobs.record(cassette)
        assert cassette.read_bytes() == replay_jobs.CASSETTE.read_bytes()


class TestInlineRequests:
    """In-process backends run every sample on the calling thread; prompts and
    scalers are built once per run, before the first request."""

    def test_in_process_backends_never_start_a_pool(self, tmp_path):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        job = ForecastJob(
            history=hist, horizon=6, samples=6, seed=4,
            noise=NoiseSpec(kind="gaussian", alpha=0.02),
        )
        cassette = tmp_path / "c.jsonl"
        recorded = run_nlts(job, RecordingBackend(oracle_for(hist, tgt), cassette))
        good = serialize(tgt, fit_scaler(hist, CODEC), CODEC)
        for backend in (
            oracle_for(hist, tgt),
            ScriptedBackend(lines=[good]),
            ReplayBackend(cassette),
            RecordingBackend(oracle_for(hist, tgt), tmp_path / "d.jsonl"),
        ):
            threads = []
            inner = backend.inner if isinstance(backend, RecordingBackend) else backend
            complete = inner.complete

            def on_thread(*args, **kwargs):
                threads.append(threading.get_ident())
                return complete(*args, **kwargs)

            inner.complete = on_thread
            assert run_nlts(job, backend).valid_samples == 6
            assert threads == [threading.get_ident()] * 6
        replayed = run_nlts(job, ReplayBackend(cassette))
        npt.assert_array_equal(replayed.samples.paths, recorded.samples.paths)

    @pytest.mark.parametrize("signed", [True, False])
    def test_batched_scalers_match_per_sample_fit(self, signed):
        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        codec = CodecConfig(signed=signed)
        noise = NoiseSpec(kind="laplace", alpha=0.05)
        job = ForecastJob(history=hist, horizon=6, samples=7, seed=11, noise=noise, codec=codec)
        result = run_nlts(job, oracle_for(hist, tgt, codec))
        expected = []
        for i in range(7):
            s = fit_scaler(inject_noise(hist, noise, substream(11, i)), codec)
            expected.append([s.offset, s.scale])
        assert result.manifest["scalers"] == expected

    def test_each_sample_decodes_its_own_prompt(self):
        # echo replies with the prompt's last steps, so sample i decodes to the
        # tail of its own noisy history only if prompt i and scaler i match
        series = make_series()
        hist, _ = split_series(series, SplitSpec.by_horizon(3))
        noise = NoiseSpec(kind="gaussian", alpha=0.05)
        job = ForecastJob(history=hist, horizon=3, samples=5, seed=8, noise=noise)
        result = run_nlts(job, EchoTailBackend(tail=3, steps=12))
        assert result.valid_samples == 5
        for i, path in enumerate(result.samples.paths):
            noisy = inject_noise(hist, noise, substream(8, i))
            scale = result.manifest["scalers"][i][1]
            npt.assert_allclose(path, noisy.values[-3:], rtol=0, atol=0.5e-3 * scale * (1 + 1e-9))

    @pytest.mark.parametrize(
        "changes, prompts",
        [
            ({}, 1),  # the Original row: no noise
            ({"noise": NoiseSpec(kind="gaussian", alpha=0.0)}, 1),
        ],
    )
    def test_shared_history_fits_one_scaler(self, monkeypatch, changes, prompts):
        import nlts.pipeline

        series = make_series()
        hist, tgt = split_series(series, SplitSpec.by_horizon(6))
        calls = {"fit": 0, "serialize": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(nlts.pipeline, "fit_scaler", counted("fit", nlts.pipeline.fit_scaler))
        monkeypatch.setattr(
            nlts.pipeline, "serialize", counted("serialize", nlts.pipeline.serialize)
        )
        monkeypatch.setattr(nlts.pipeline, "fit_scalers", None)  # must not be reached
        job = ForecastJob(history=hist, horizon=6, samples=5, seed=3, **changes)
        result = run_nlts(job, oracle_for(hist, tgt))
        assert result.valid_samples == 5
        assert calls == {"fit": 1, "serialize": prompts}
        assert len({tuple(s) for s in result.manifest["scalers"]}) == 1


# one continuation step: digits as the codec writes them, or junk
_STEP = st.one_of(
    st.integers(0, 10**12).map(str),
    st.integers(0, 10**6).map(lambda v: " ".join(str(v))),
    st.integers(0, 10**6).map(lambda v: "- " + " ".join(str(v))),
    st.text(max_size=8),
)


class TestArbitraryReplies:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(st.text(max_size=60), st.lists(_STEP, max_size=12).map(", ".join)),
            min_size=1, max_size=4,
        ),
        style=st.sampled_from(["raw", "chat"]),
        basic_mode=st.booleans(),
    )
    def test_result_or_nlts_error(self, lines, style, basic_mode):
        hist, _ = split_series(make_series(n=24), SplitSpec.by_horizon(3))
        job = ForecastJob(
            history=hist, horizon=3, samples=4, seed=0, prompt_style=style,
            codec=CodecConfig(basic_mode=basic_mode),
        )
        try:
            result = run_nlts(job, ScriptedBackend(lines=lines))
        except NltsError:
            return
        assert result.valid_samples >= 2
        assert result.forecast.median.shape == (3,)
