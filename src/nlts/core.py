"""Domain types, file IO, config reads, history/target splits, sample aggregation."""

from __future__ import annotations

import json
import math
import types
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    AggregationError,
    ConfigError,
    DegenerateSeriesError,
    NonFiniteError,
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

    mode: str = "horizon"
    fraction: float | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.mode not in ("fraction", "horizon"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
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
    def by_fraction(cls, fraction: float) -> "SplitSpec":
        return cls("fraction", fraction=fraction)

    @classmethod
    def by_horizon(cls, horizon: int) -> "SplitSpec":
        return cls("horizon", horizon=horizon)


# Every file nlts reads or writes goes through the four functions below. Text
# is UTF-8 and newlines are kept as stored or given; a failure is a
# ConfigError reading "cannot read|parse|write <what> <path>: <reason>".


def read_text(path, what: str) -> str:
    """The text of a file: its bytes decoded as UTF-8, newlines as stored."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, ValueError) as exc:
        raise _file_error("read", what, path, exc) from exc


def read_json(path, what: str):
    """The parsed JSON of a file, read by read_text."""
    try:
        return json.loads(read_text(path, what))
    except (ValueError, RecursionError) as exc:
        raise _file_error("parse", what, path, exc) from exc


def make_dir(path, what: str) -> None:
    """Create the directory path and its parents, unless it exists."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise _file_error("write", what, path, exc) from exc


def write_text(path, text: str, what: str, mode: str = "w") -> None:
    """Write (mode "w") or append (mode "a") text as UTF-8, newlines as given."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise _file_error("write", what, path, exc) from exc


def _file_error(verb: str, what: str, path, exc: Exception) -> ConfigError:
    reason = getattr(exc, "strerror", None) or exc
    return ConfigError(f"cannot {verb} {what} {Path(path)}: {reason}")


def read_block(cls, block, prefix: str = ""):
    """A config dataclass built from its JSON block, the one place a config
    value is read. Each key must name a field of cls, and each value is read
    by the field's declared type: a bool is true or false; an int or a float
    is a finite number, or a string that parses as one, and an int is whole;
    a str is a string; tuple[X, ...] is a list of X; a dataclass is a nested
    block; X | None also takes null. A ConfigError names the key as a dotted
    path under prefix, such as codec.signed."""
    if not isinstance(block, dict):
        name = f"{prefix[:-1]!r} " if prefix else ""
        raise ConfigError(f"bench config {name}must be a JSON object, not {type(block).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(block) - set(hints))
    if unknown:
        raise ConfigError(f"unknown bench config keys: {[prefix + k for k in unknown]}")
    return cls(**{k: _read_value(hints[k], v, prefix + k) for k, v in block.items()})


def _read_value(hint, value, name: str):
    if get_origin(hint) is types.UnionType:
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return read_block(hint, value, name + ".")
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_read_value(get_args(hint)[0], v, f"{name}[{i}]") for i, v in enumerate(value))
    if hint is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if hint is str and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if hint in (bool, str):
        return value
    if hint not in (int, float):
        raise TypeError(f"config field {name} has a type no config can hold: {hint}")
    try:
        number = None if isinstance(value, bool) else hint(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if hint is int and number != value and not isinstance(value, str):
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
        raise ConfigError(
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


def _linear_quantile(values: np.ndarray, q: float, axis: int, partition: bool = False):
    """Level q of values along axis by np.quantile's default "linear" method,
    bit for bit. values must be sorted along axis; with partition set, it is
    instead partitioned in place at the two order statistics that q reads.

    numpy reads order statistics a = lo and b = lo + 1 around the virtual
    index (n - 1) * q, with weight g = index - lo, and returns a + (b - a) * g,
    or b - (b - a) * (1 - g) when g >= 0.5. An index at the last position
    reads the maximum twice, with g measured from position -1.
    """
    n = values.shape[axis]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        lo = hi = n - 1
        g = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi, g = lo + 1, virtual - lo
    if partition:
        values.partition((lo, hi), axis=axis)
    a = values.take(lo, axis=axis)
    b = values.take(hi, axis=axis)
    if g >= 0.5:
        return b - (b - a) * (1.0 - g)
    return a + (b - a) * g


def aggregate_samples(
    samples: SamplePaths,
    quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS,
) -> PointForecast:
    """Reduce sample paths to a point forecast.

    One sort along the sample axis gives every level. Median is the per-step
    order statistic (even m averages the two central values, as np.median
    does). Variance is population (ddof=0). Quantiles are numpy's default
    linear interpolation, bit for bit; 0.5 is always present and is the median
    array itself. No median or quantile value is -0.0: adding 0.0 makes a
    signed zero +0.0, since a sort may order equal signed zeros either way.
    """
    levels = sorted({float(q) for q in quantile_levels} | {0.5})
    for q in levels:
        if not (0.0 < q < 1.0):
            raise AggregationError(f"quantile level {q} outside (0, 1)")
    arr = samples.paths
    ordered = np.sort(arr, axis=0)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid] + 0.0
    else:
        # np.median's mean of the two central values
        median = (ordered[mid - 1] + ordered[mid]) / 2 + 0.0
    variance = arr.var(axis=0, ddof=0)
    # the median is not bitwise the linear quantile at 0.5
    raw = {q: _linear_quantile(ordered, q, axis=0) + 0.0 for q in levels if q != 0.5}
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
