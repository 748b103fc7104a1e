"""End-to-end forecast runs.

run_nlts perturbs the history once per sample, encodes it, asks the backend for
a continuation, decodes, and aggregates the sample paths into a point forecast
with a reproducibility manifest. All randomness flows from the job seed through
per-sample substreams, so results do not depend on completion order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .backend import Backend, GenerationParams, Usage
from .codec import STEP_SEPARATOR, CodecConfig, ParseReport, Scaler, decode_rows, fit_scaler
from .codec import fit_scalers, parse_bins, serialize, serialize_rows
from .core import PointForecast, SamplePaths, TimeSeries, aggregate_samples
from .errors import ConfigError, InsufficientSamplesError, ParseError
# run_nlts calls inject_noise_rows, parse_bins and decode_rows; inject_noise and
# deserialize stay importable here because perfbench/run.py patches them by
# these module attributes
from .codec import deserialize  # noqa: F401
from .noise import NOISE_KINDS, NoiseSpec, inject_noise, inject_noise_rows  # noqa: F401
from .noise import standardized_draw
from .rng import rng_identity, substream

SYSTEM_PROMPT = (
    "You are a helpful assistant specialized in time series forecasting. "
    "The user provides a comma-separated sequence of decimal numbers, and you "
    "will predict the following values."
)

USER_PROMPT_TEMPLATE = (
    "Please continue the sequence without any additional text or explanation. "
    "Only output the predicted numbers.\nSequence:\n{sequence}"
)

PROMPT_STYLES = ("raw", "chat")


def build_prompt(encoded_history: str, style: str, horizon: int, config: CodecConfig):
    """Prompt for an encoded history.

    raw: the encoding plus a trailing step separator as the continuation cue.
    chat: fixed system instruction plus a user message carrying the sequence.
    Neither style states the horizon: token caps and parse-side truncation
    bound it. horizon is only checked and config is unused; both stay for the
    four-argument call in perfbench/test_perfbench.py.
    """
    if style not in PROMPT_STYLES:
        raise ConfigError(f"unknown prompt style {style!r}, expected one of {PROMPT_STYLES}")
    if not encoded_history:
        raise ConfigError("refusing to build a prompt from an empty encoded history")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if style == "raw":
        return encoded_history + STEP_SEPARATOR
    return [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": USER_PROMPT_TEMPLATE.format(sequence=encoded_history)},
    ]


def completion_token_budget(horizon: int, config: CodecConfig) -> int:
    """Token cap that comfortably covers `horizon` encoded steps."""
    per_step = config.precision_k + 3
    factor = 1 if config.basic_mode else 2
    return max(16, horizon * per_step * factor)


def check_sampling(samples: int, seed: int, retries_per_sample: int, prompt_style: str) -> None:
    """The checks a forecast job and a sweep share; each message names its key."""
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if retries_per_sample < 0:
        raise ConfigError(f"retries_per_sample must be >= 0, got {retries_per_sample}")
    if prompt_style not in PROMPT_STYLES:
        raise ConfigError(f"unknown prompt_style {prompt_style!r}, expected one of {PROMPT_STYLES}")


@functools.lru_cache(maxsize=len(NOISE_KINDS))
def _sample_draws(kind: str, n: int, seed: int, samples: int) -> np.ndarray:
    """The standardized draws of a noisy job as a read-only (samples, n)
    array: row i is drawn from substream(seed, i).

    They depend on neither alpha nor the history's values, so the levels of a
    sweep's (dataset, kind) block, which run back to back, share one entry,
    and datasets of one length share one entry per kind. The cache holds
    len(NOISE_KINDS) entries; a lone forecast never reuses one.
    """
    spec = NoiseSpec(kind)
    draws = np.array([standardized_draw(spec, n, substream(seed, i)) for i in range(samples)])
    draws.setflags(write=False)
    return draws


@dataclass(frozen=True)
class ForecastJob:
    """Everything a forecast run needs besides the backend."""

    history: TimeSeries
    horizon: int
    noise: NoiseSpec = NoiseSpec(kind="none")
    codec: CodecConfig = CodecConfig()
    params: GenerationParams = GenerationParams()
    prompt_style: str = "raw"
    samples: int = 10
    seed: int = 0
    retries_per_sample: int = 1

    def __post_init__(self):
        check_sampling(self.samples, self.seed, self.retries_per_sample, self.prompt_style)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.params.num_samples != 1:
            raise ConfigError(
                f"params.num_samples must be 1, got {self.params.num_samples}; "
                "set samples for the number of continuations"
            )


@dataclass(frozen=True)
class SampleOutcome:
    """Per-sample accounting: which attempt succeeded (if any) and its parse report."""

    sample_index: int
    attempts: int
    valid: bool
    report: ParseReport | None

    def to_dict(self) -> dict:
        d = {
            "sample_index": self.sample_index,
            "attempts": self.attempts,
            "valid": self.valid,
        }
        if self.report is not None:
            d["parse"] = asdict(self.report)
        return d


@dataclass(frozen=True)
class ForecastResult:
    forecast: PointForecast
    samples: SamplePaths
    outcomes: tuple[SampleOutcome, ...]
    usage: Usage
    manifest: dict

    @property
    def valid_samples(self) -> int:
        return sum(1 for o in self.outcomes if o.valid)

    def to_dict(self) -> dict:
        return {
            "schema": "nlts.forecast/1",
            "median": self.forecast.median.tolist(),
            "variance": self.forecast.variance.tolist(),
            "quantiles": {f"{q:g}": v.tolist() for q, v in self.forecast.quantiles.items()},
            "sample_paths": self.samples.paths.tolist(),
            "valid_samples": self.valid_samples,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "usage": self.usage.to_dict(),
            "manifest": self.manifest,
        }


def run_nlts(job: ForecastJob, backend: Backend) -> ForecastResult:
    """Execute a forecast job against a backend.

    Sample i adds noise drawn from substream(seed, i) to the history, fits
    the scaler on that noisy history, and retries failed generations up to
    retries_per_sample times under fresh tags. The standardized draws come
    from a small cache keyed by (kind, history length, seed, samples), so
    jobs that differ only in alpha or in the history's values draw once. The
    noisy histories are scaled and quantized as one (samples, n) array. When
    the noise spec adds no noise, nothing is drawn, and every sample shares
    one scaler and one prompt. A sample is valid when at least `horizon`
    steps parse, and the valid samples' bins are decoded as one
    (valid, horizon) array. Fewer than ceil(samples / 2) valid samples aborts
    with InsufficientSamplesError.

    Every prompt is built on the calling thread before the first request; the
    samples then run through backend.map. A failing sample raises the first
    such error in index order, samples not yet started are cancelled, and on
    HttpBackend up to max_in_flight - 1 running ones finish in the background.
    """
    history = job.history
    budget = completion_token_budget(job.horizon, job.codec)
    effective = replace(job.params, max_tokens=max(job.params.max_tokens, budget))

    def encode(text: str):
        return build_prompt(text, job.prompt_style, job.horizon, job.codec)

    if job.noise.adds_noise:
        draws = _sample_draws(job.noise.kind, len(history), job.seed, job.samples)
        rows = inject_noise_rows(history, job.noise, draws)
        scalers = fit_scalers(rows, job.codec)
        prompts = list(map(encode, serialize_rows(rows, scalers, job.codec)))
    else:
        scalers = [fit_scaler(history, job.codec)] * job.samples
        prompts = [encode(serialize(history, scalers[0], job.codec))] * job.samples

    def run_sample(i: int) -> tuple[list[int] | None, SampleOutcome, list[Usage]]:
        usages = []
        report: ParseReport | None = None
        for attempt in range(job.retries_per_sample + 1):
            texts, usage = backend.complete(prompts[i], effective, tag=f"sample-{i}/try-{attempt}")
            usages.append(usage)
            if not texts:
                continue
            try:
                bins, report = parse_bins(texts[0], job.codec, job.horizon)
            except ParseError as exc:
                report = exc.report
                continue
            if report.parsed_steps >= job.horizon:
                return bins, SampleOutcome(i, attempt + 1, True, report), usages
        return None, SampleOutcome(i, attempt + 1, False, report), usages

    bins, outcomes, usages = zip(*backend.map(run_sample, range(job.samples)))
    usage_total = Usage.total(u for sample in usages for u in sample)
    valid = [i for i, row in enumerate(bins) if row is not None]
    needed = math.ceil(job.samples / 2)
    if len(valid) < needed:
        raise InsufficientSamplesError(
            f"only {len(valid)} of {job.samples} samples parsed to horizon "
            f"{job.horizon}; need at least {needed}"
        )
    # every valid sample parsed exactly horizon bins: decode them as one array
    values = decode_rows([bins[i] for i in valid], [scalers[i] for i in valid], job.codec)
    sample_paths = SamplePaths(values)
    forecast = aggregate_samples(sample_paths)
    manifest = build_manifest(job, backend, scalers)
    return ForecastResult(
        forecast=forecast,
        samples=sample_paths,
        outcomes=outcomes,
        usage=usage_total,
        manifest=manifest,
    )


def build_manifest(job: ForecastJob, backend: Backend, scalers: list[Scaler]) -> dict:
    """Reproducibility record embedded in every result. It holds no wall-clock
    stamp, so two runs of the same job serialize byte-identically."""
    return {
        "seed": job.seed,
        "samples": job.samples,
        "horizon": job.horizon,
        "prompt_style": job.prompt_style,
        "retries_per_sample": job.retries_per_sample,
        "history_length": len(job.history),
        # plain copies: every field is a scalar or a str tuple, and asdict's
        # recursive deep copy cost about 50 us per cell
        "noise": dict(vars(job.noise)),
        "codec": dict(vars(job.codec)),
        "generation": dict(vars(job.params)),
        "scalers": [[s.offset, s.scale] for s in scalers],
        "backend": backend.describe(),
        "rng": rng_identity(),
        "version": __version__,
    }
