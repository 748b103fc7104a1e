"""Evaluation: metrics, dataset IO, noise-level sweeps, and a Monte Carlo
check of the second-order perturbation identity."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backend import (
    Backend,
    BackendConfig,
    EchoTailBackend,
    GenerationParams,
    HttpBackend,
    OracleBackend,
    ReplayBackend,
    ScriptedBackend,
    Usage,
    default_cost_table,
    estimate_cost,
)
from .codec import CodecConfig, fit_scaler, serialize
from .core import SplitSpec, TimeSeries, make_dir, read_text, split_series, write_text
from .errors import ConfigError, NltsError, NonFiniteError
from .noise import NOISE_KINDS, NoiseSpec
from .pipeline import ForecastJob, check_sampling, run_nlts
from .rng import substream

# --- normalization and metrics -----------------------------------------------


@dataclass(frozen=True)
class Normalization:
    """Affine range normalization applied to errors before MSE/MAE.

    kind "none" passes values through; "minmax" maps [lo, hi] to [0, 1]. The
    descriptor string lands in MetricReport so reported numbers are
    interpretable.
    """

    kind: str = "none"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "minmax"):
            raise ConfigError(f"unknown normalization kind {self.kind!r}")
        if self.kind == "minmax" and not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("minmax normalization needs finite bounds")

    @classmethod
    def from_values(cls, values) -> "Normalization":
        arr = np.asarray(values, dtype=float)
        return cls(kind="minmax", lo=float(arr.min()), hi=float(arr.max()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return x
        span = self.hi - self.lo
        if span <= 0:
            span = 1.0
        return (x - self.lo) / span

    def describe(self) -> str:
        if self.kind == "none":
            return "none"
        return f"minmax[{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True)
class MetricReport:
    mse: float
    mae: float
    normalization: str
    per_step_errors: np.ndarray


def compute_metrics(
    prediction,
    truth,
    normalization: Normalization = Normalization(),
) -> MetricReport:
    """MSE and MAE over normalized per-step errors."""
    pred = np.asarray(prediction, dtype=float)
    true = np.asarray(truth, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ConfigError(
            f"prediction shape {pred.shape} does not match truth shape {true.shape}"
        )
    if pred.size == 0:
        raise ConfigError("cannot score an empty forecast")
    if not (np.isfinite(pred).all() and np.isfinite(true).all()):
        raise NonFiniteError("metrics need finite predictions and truth")
    errors = normalization.apply(pred) - normalization.apply(true)
    return MetricReport(
        mse=float(np.mean(errors**2)),
        mae=float(np.mean(np.abs(errors))),
        normalization=normalization.describe(),
        per_step_errors=errors,
    )


# --- dataset IO ---------------------------------------------------------------


@dataclass(frozen=True)
class LoadedDataset:
    """A series plus whatever split hints the file carried."""

    series: TimeSeries
    holdout: int
    name: str


_TRUTHY = {"1", "true", "True", "TRUE"}
_FALSY = {"0", "false", "False", "FALSE", ""}


def load_dataset(path: str | Path, value_column: str = "value") -> LoadedDataset:
    """Load a CSV with one value column and an optional is_holdout flag column.

    ConfigError messages name the offending physical row (header is row 1). A
    holdout flag must mark a contiguous tail; anything else is a schema error.
    """
    path = Path(path)
    values: list[float] = []
    holdout_flags: list[bool] = []
    rows = csv.reader(io.StringIO(read_text(path, "dataset"), newline=""))
    header = next(rows, None)
    # column name -> index; a name given twice is its last column, as csv.DictReader reads it
    columns = {name: i for i, name in enumerate(header or ())}
    if value_column not in columns:
        raise ConfigError(f"{path.name}: missing {value_column!r} column in header {header}")
    column, flag_column = columns[value_column], columns.get("is_holdout")
    for row in filter(None, rows):  # blank lines are skipped
        row_no = rows.line_num
        raw = row[column] if column < len(row) else ""
        if not raw.strip():
            raise ConfigError(f"{path.name}: row {row_no}: blank {value_column!r} value")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{path.name}: row {row_no}: {value_column!r} is not numeric: {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise NonFiniteError(f"{path.name}: row {row_no}: non-finite value {raw!r}")
        values.append(value)
        if flag_column is not None:
            flag = (row[flag_column] if flag_column < len(row) else "").strip()
            if flag in _TRUTHY:
                holdout_flags.append(True)
            elif flag in _FALSY:
                holdout_flags.append(False)
            else:
                raise ConfigError(f"{path.name}: row {row_no}: bad 'is_holdout' flag {flag!r}")
    if not values:
        raise ConfigError(f"{path.name}: no data rows")
    holdout = 0
    if holdout_flags:
        holdout = sum(holdout_flags)
        if holdout and not all(holdout_flags[-holdout:]):
            raise ConfigError(f"{path.name}: 'is_holdout' must mark a contiguous tail of rows")
    return LoadedDataset(
        series=TimeSeries(np.array(values), name=path.stem),
        holdout=holdout,
        name=path.stem,
    )


# --- noise-level sweep --------------------------------------------------------

DEFAULT_NOISE_LEVELS = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05)
ORIGINAL_LABEL = "Original"

SWEEP_SCHEMA = "nlts.sweep/1"


def level_label(level: float) -> str:
    return ORIGINAL_LABEL if level == 0.0 else f"{level:g}"


# the keys each backend kind reads from its spec, besides "kind"
BACKEND_KINDS = {
    "oracle": (),
    "echo": ("tail", "steps"),
    "scripted": ("path",),
    "replay": ("path",),
    "live": ("base_url", "api_key", "max_retries"),
}
# kinds whose replies are built from the dataset's split, so a sweep builds
# them once per dataset; the others are built once per sweep
_PER_DATASET_KINDS = ("oracle", "echo")


@dataclass(frozen=True)
class BackendSpec:
    """The backend a sweep or `nlts forecast` runs: its kind and the keys
    that BACKEND_KINDS lists for it. None means unset, and make_backend gives
    an unset key its default. The numbers are typed int, not int | None, so
    a config's explicit null for them is an error; a null path, base_url or
    api_key means unset."""

    kind: str = "oracle"
    tail: int = None
    steps: int = None
    path: str | None = None
    base_url: str | None = None
    api_key: str | None = None
    max_retries: int = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(
                f"unknown backend kind {self.kind!r}, expected one of {tuple(BACKEND_KINDS)}"
            )
        unknown = [k for k, v in asdict(self).items()
                   if v is not None and k not in ("kind", *BACKEND_KINDS[self.kind])]
        if unknown:
            raise ConfigError(f"unknown {self.kind} backend keys: {unknown}")


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark sweep: datasets crossed with noise levels and families."""

    datasets: tuple[str, ...] = ()
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    kinds: tuple[str, ...] = ("gaussian",)
    samples: int = 10
    seed: int = 0
    split: SplitSpec | None = None
    codec: CodecConfig = CodecConfig()
    params: GenerationParams = GenerationParams()
    prompt_style: str = "raw"
    retries_per_sample: int = 1
    normalization: str = "minmax"
    backend: BackendSpec = BackendSpec()

    def __post_init__(self):
        if not self.datasets:
            raise ConfigError("sweep needs at least one dataset")
        for level in self.noise_levels:
            if level < 0:
                raise ConfigError(f"noise level must be >= 0, got {level}")
        for kind in self.kinds:
            if kind not in NOISE_KINDS or kind == "none":
                raise ConfigError(f"unknown noise kind {kind!r}")
        if self.normalization not in ("none", "minmax"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        check_sampling(self.samples, self.seed, self.retries_per_sample, self.prompt_style)


def split_dataset(ds: LoadedDataset, split: SplitSpec | None) -> tuple[TimeSeries, TimeSeries]:
    """Split by the given rule; without one, hold out the dataset's flagged
    tail, or keep 80% as history when nothing is flagged."""
    if split is None:
        if ds.holdout > 0:
            split = SplitSpec.by_horizon(ds.holdout)
        else:
            split = SplitSpec.by_fraction(0.8)
    return split_series(ds.series, split)


def make_backend(
    spec: BackendSpec,
    history: TimeSeries | None = None,
    target: TimeSeries | None = None,
    codec: CodecConfig = CodecConfig(),
) -> Backend:
    """Build the backend a spec names: a sweep config's backend block, or the
    spec `nlts forecast` builds from its flags.

    oracle: replies with the encoded target under the clean-history scaler, so
    decoding recovers the target up to quantization. echo: EchoTailBackend
    with tail (default 4) and steps (default max(64, 2 * len(target)), so a
    spec without a target must set it). scripted and replay: a fixture or
    cassette at path. live: HttpBackend with base_url, api_key and
    max_retries (default 3).
    """
    if spec.kind == "oracle":
        return OracleBackend(serialize(target, fit_scaler(history, codec), codec))
    if spec.kind == "echo":
        steps = spec.steps
        if steps is None:
            if target is None:
                raise ConfigError('echo backend needs "steps" without a target to size it by')
            steps = max(64, len(target) * 2)
        return EchoTailBackend(tail=4 if spec.tail is None else spec.tail, steps=steps)
    if spec.kind == "live":
        retries = 3 if spec.max_retries is None else spec.max_retries
        return HttpBackend(BackendConfig(spec.base_url, spec.api_key, retries))
    if spec.path is None:
        raise ConfigError(f'{spec.kind} backend needs the "path" of its fixture or cassette')
    if spec.kind == "scripted":
        return ScriptedBackend(path=spec.path)
    return ReplayBackend(spec.path)


@dataclass(frozen=True)
class SweepCell:
    dataset: str
    kind: str
    level: float
    label: str
    mse: float | None
    mae: float | None
    improvement_mse: float | None
    improvement_mae: float | None
    valid_samples: int | None
    error: str | None

    def to_dict(self) -> dict:
        return dict(vars(self))  # every field is a scalar: asdict's deep copy only costs


def _improvement(original: float | None, noisy: float | None) -> float | None:
    if original is None or noisy is None or original == 0.0:
        return None
    return (original - noisy) / original


def run_sweep(cfg: SweepConfig, out_dir: str | Path, backend: Backend | None = None) -> dict:
    """Run every (dataset, noise kind, level) cell through run_nlts and report.

    Level 0 is the distribution-free "Original" row, computed once per dataset
    and shared across kinds; improvements are relative to it. Per-cell failures
    are recorded in the report, not fatal. Without an explicit backend, the
    config's BackendSpec goes through make_backend: once per sweep, or once
    per dataset for the kinds built from its split, and closed when the
    sweep ends; an explicit backend is left open. The report's
    config.backend is the spec's set keys without api_key, or the explicit
    backend's describe(). Writes results.csv, results.json and summary.md
    under out_dir, or fails before the first cell if one is a directory, and
    returns the JSON report as a dict.
    """
    out = Path(out_dir)
    make_dir(out, "report directory")
    for name in ("results.csv", "results.json", "summary.md"):
        if (out / name).is_dir():
            raise ConfigError(f"cannot write report {out / name}: Is a directory")
    cells: list[SweepCell] = []
    usage_total = Usage()
    described = None if backend is None else backend.describe()
    built = []  # the backends made here, closed when the sweep ends
    if backend is None and cfg.backend.kind not in _PER_DATASET_KINDS:
        backend = make_backend(cfg.backend)
        built.append(backend)
    try:
        for dataset_path in cfg.datasets:
            ds = load_dataset(dataset_path)
            history, target = split_dataset(ds, cfg.split)
            if cfg.normalization == "minmax":
                norm = Normalization.from_values(ds.series.values)
            else:
                norm = Normalization()
            if backend is None:
                cell_backend = make_backend(cfg.backend, history, target, cfg.codec)
                built.append(cell_backend)
            else:
                cell_backend = backend

            def run_cell(
                kind: str, level: float,
                base_mse: float | None = None, base_mae: float | None = None,
            ) -> SweepCell:
                """One (kind, level) cell scored against the Original row's errors;
                an NltsError becomes the cell's error."""
                nonlocal usage_total
                cell = dict(dataset=ds.name, kind=kind, level=level, label=level_label(level))
                try:
                    noise = (NoiseSpec(kind="none") if level == 0.0
                             else NoiseSpec(kind=kind, alpha=level))
                    job = ForecastJob(
                        history=history,
                        horizon=len(target),
                        noise=noise,
                        codec=cfg.codec,
                        params=cfg.params,
                        prompt_style=cfg.prompt_style,
                        samples=cfg.samples,
                        seed=cfg.seed,
                        retries_per_sample=cfg.retries_per_sample,
                    )
                    result = run_nlts(job, cell_backend)
                    usage_total = usage_total + result.usage
                    report = compute_metrics(result.forecast.median, target.values, norm)
                except NltsError as exc:
                    return SweepCell(
                        **cell, mse=None, mae=None, improvement_mse=None, improvement_mae=None,
                        valid_samples=None, error=f"{type(exc).__name__}: {exc}",
                    )
                return SweepCell(
                    **cell,
                    mse=report.mse,
                    mae=report.mae,
                    improvement_mse=_improvement(base_mse, report.mse),
                    improvement_mae=_improvement(base_mae, report.mae),
                    valid_samples=result.valid_samples,
                    error=None,
                )

            original = run_cell("none", 0.0)
            cells.append(original)
            for kind in cfg.kinds:
                for level in cfg.noise_levels:
                    if level != 0.0:  # one shared Original row per dataset
                        cells.append(run_cell(kind, level, original.mse, original.mae))
    finally:
        for made in built:
            made.close()

    cost = estimate_cost(usage_total, cfg.params.model, default_cost_table())
    report_dict = {
        "schema": SWEEP_SCHEMA,
        "config": {
            "datasets": list(cfg.datasets),
            "noise_levels": list(cfg.noise_levels),
            "kinds": list(cfg.kinds),
            "samples": cfg.samples,
            "seed": cfg.seed,
            "normalization": cfg.normalization,
            "prompt_style": cfg.prompt_style,
            "model": cfg.params.model,
            "backend": described or {k: v for k, v in asdict(cfg.backend).items()
                                     if v is not None and k != "api_key"},
        },
        "cells": [c.to_dict() for c in cells],
        "usage_total": usage_total.to_dict(),
        "cost_total": cost,
    }
    _write_sweep_outputs(out, report_dict, cells)
    return report_dict


SWEEP_CSV_COLUMNS = (
    "dataset",
    "kind",
    "noise_level",
    "mse",
    "mae",
    "improvement_mse",
    "improvement_mae",
    "valid_samples",
    "error",
)


def _write_sweep_outputs(out: Path, report: dict, cells: list[SweepCell]) -> None:
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(SWEEP_CSV_COLUMNS)
    for c in cells:  # csv writes a float as its repr and None as an empty field
        writer.writerow([c.dataset, c.kind, c.label, c.mse, c.mae, c.improvement_mse,
                         c.improvement_mae, c.valid_samples, c.error])
    write_text(out / "results.csv", table.getvalue(), "report")
    write_text(out / "results.json", json.dumps(report, indent=2) + "\n", "report")
    lines = [
        "# Noise sweep",
        "",
        f"- model: {report['config']['model']}",
        f"- samples per cell: {report['config']['samples']}",
        f"- normalization: {report['config']['normalization']}",
        f"- total cost (USD): {report['cost_total'] if report['cost_total'] is not None else 'unknown'}",
        "",
        "| dataset | kind | noise level | MSE | MAE | dMSE | dMAE |",
        "|---|---|---|---|---|---|---|",
    ]
    for c in cells:
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} |".format(
                c.dataset,
                c.kind,
                c.label,
                "-" if c.mse is None else f"{c.mse:.6g}",
                "-" if c.mae is None else f"{c.mae:.6g}",
                "-" if c.improvement_mse is None else f"{c.improvement_mse:+.2%}",
                "-" if c.improvement_mae is None else f"{c.improvement_mae:+.2%}",
            )
        )
    write_text(out / "summary.md", "\n".join(lines) + "\n", "report")


# --- second-order perturbation check -----------------------------------------


@dataclass(frozen=True)
class TheoryCheckReport:
    dimension: int
    sigma: float
    num_draws: int
    hessian_trace: float
    predicted_gap: float
    measured_gap: float
    standard_error: float
    relative_error: float
    concave_gap_nonpositive: bool

    def to_dict(self) -> dict:
        return asdict(self)


def theory_check(
    dim: int = 10,
    sigma: float = 0.1,
    num_draws: int = 1_000_000,
    seed: int = 0,
) -> TheoryCheckReport:
    """Monte Carlo check that E[f(x + eps)] - f(x) ~ (sigma^2 / 2) * tr(H).

    f(x) = -0.5 x^T x at x = 0.1 * ones(dim), where the identity is exact: the
    gap is -(sigma^2 / 2) * dim for isotropic Gaussian eps. sigma = 0 gives
    exactly 0.
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if not 0 <= sigma < math.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if num_draws < 10_000:
        raise ConfigError(f"num_draws must be >= 10000 for a stable check, got {num_draws}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    x = 0.1 * np.ones(dim)
    a = np.eye(dim)
    trace_h = -float(dim)

    def f(points: np.ndarray) -> np.ndarray:
        return -0.5 * np.einsum("ij,jk,ik->i", points, a, points)

    predicted = 0.5 * sigma**2 * trace_h
    if sigma == 0.0:
        gaps = np.zeros(num_draws)
    else:
        eps = substream(seed).standard_normal((num_draws, dim)) * sigma
        base = float(f(x[None, :])[0])
        gaps = f(x[None, :] + eps) - base
    measured = float(gaps.mean())
    se = float(gaps.std(ddof=1) / math.sqrt(num_draws))
    denom = max(abs(predicted), 1e-300)
    rel = abs(measured - predicted) / denom if predicted != 0.0 else abs(measured)
    return TheoryCheckReport(
        dimension=dim,
        sigma=sigma,
        num_draws=num_draws,
        hessian_trace=trace_h,
        predicted_gap=predicted,
        measured_gap=measured,
        standard_error=se,
        relative_error=rel,
        concave_gap_nonpositive=measured <= 4.0 * se + 1e-300,
    )
