"""Domain types, history/target splitting, and sample-path aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AggregationError,
    ConfigError,
    DegenerateSeriesError,
    NonFiniteError,
    SplitError,
)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations. Time is the implicit index."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DegenerateSeriesError("series must be a nonempty 1-D sequence")
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"series {self.name!r} contains NaN or infinity")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(values, name=self.name)


@dataclass(frozen=True)
class SplitSpec:
    """History/target split rule: a history fraction or a fixed target horizon."""

    mode: str
    fraction: float | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.mode not in ("fraction", "horizon"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.fraction is not None:
            object.__setattr__(self, "fraction", as_number(float, self.fraction, "split fraction"))
        if self.horizon is not None:
            object.__setattr__(self, "horizon", as_number(int, self.horizon, "split horizon"))
        if self.mode == "fraction":
            if self.fraction is None or not (0.0 < self.fraction < 1.0):
                raise ConfigError("fraction mode needs fraction in (0, 1)")
            if self.horizon is not None:
                raise ConfigError("fraction mode takes no horizon")
        else:
            if self.horizon is None or self.horizon < 1:
                raise ConfigError("horizon mode needs a positive integer horizon")
            if self.fraction is not None:
                raise ConfigError("horizon mode takes no fraction")

    @classmethod
    def by_fraction(cls, fraction: float | str) -> "SplitSpec":
        return cls("fraction", fraction=fraction)

    @classmethod
    def by_horizon(cls, horizon: int | str) -> "SplitSpec":
        return cls("horizon", horizon=horizon)


def as_number(kind, value, name: str):
    """value as a float or int; an int must be whole, so 5.7 is not 5. A
    ConfigError names the setting."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if kind is int and number != value and not isinstance(value, str):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return number


def _snapped_ceil(x: float) -> int:
    # 0.7 * 10 == 7.000000000000001; don't let float noise steal a point.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(x)


def split_series(series: TimeSeries, spec: SplitSpec) -> tuple[TimeSeries, TimeSeries]:
    """Split into (history, target). Fraction mode keeps ceil(fraction * T) history points."""
    t = len(series)
    if spec.mode == "fraction":
        n_hist = _snapped_ceil(spec.fraction * t)
    else:
        n_hist = t - spec.horizon
    n_target = t - n_hist
    if n_hist < 1 or n_target < 1:
        raise SplitError(
            f"cannot split length-{t} series into {n_hist} history + {n_target} target points"
        )
    history = series.with_values(series.values[:n_hist])
    target = series.with_values(series.values[n_hist:])
    return history, target


@dataclass(frozen=True)
class SamplePaths:
    """m sampled continuations, one row per sample, horizon columns."""

    paths: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.paths, dtype=float)
        except (ValueError, TypeError) as exc:
            raise AggregationError(f"sample paths are ragged or non-numeric: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise AggregationError(f"need an (m >= 1, horizon >= 1) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise AggregationError("sample paths contain NaN or infinity")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "paths", arr)

    @property
    def num_samples(self) -> int:
        return int(self.paths.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.paths.shape[1])


@dataclass(frozen=True)
class PointForecast:
    """Per-step median, population variance, and quantile curves."""

    median: np.ndarray
    variance: np.ndarray
    quantiles: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return int(self.median.size)


DEFAULT_QUANTILE_LEVELS = (0.05, 0.25, 0.75, 0.95)


def aggregate_samples(
    samples: SamplePaths,
    quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS,
) -> PointForecast:
    """Reduce sample paths to a point forecast.

    Median is the per-step order statistic over the sample axis (even m averages
    the two central values). Variance is population (ddof=0). Quantiles use
    numpy's default linear interpolation; 0.5 is always present and is the
    median array itself. No median or quantile value is -0.0: adding 0.0 makes
    a signed zero +0.0, since a partition may order equal signed zeros
    differently for different quantile levels.
    """
    levels = sorted({float(q) for q in quantile_levels} | {0.5})
    for q in levels:
        if not (0.0 < q < 1.0):
            raise AggregationError(f"quantile level {q} outside (0, 1)")
    arr = samples.paths
    median = np.median(arr, axis=0) + 0.0
    variance = arr.var(axis=0, ddof=0)
    # every level but the median in one call; np.median averages the two
    # central values, which is not bitwise np.quantile(arr, 0.5)
    others = [q for q in levels if q != 0.5]
    raw = dict(zip(others, np.quantile(arr, others, axis=0) + 0.0))
    # Cross-level monotonicity holds for linear-interpolation quantiles in exact
    # arithmetic; clamp against the median so it also holds bitwise in floats.
    quantiles: dict[float, np.ndarray] = {}
    running = np.full(arr.shape[1], -np.inf)
    for q in levels:
        if q < 0.5:
            curve = np.minimum(raw[q], median)
        elif q == 0.5:
            curve = median
        else:
            curve = np.maximum(raw[q], median)
        running = np.maximum(running, curve)
        quantiles[q] = running
    return PointForecast(median=median, variance=variance, quantiles=quantiles)
