"""Digit-level text codec for numeric series.

Values pass through an affine scaler, are quantized to k decimal places by
flooring, and are rendered in LLMTime's GPT grammar: digits separated by " "
and steps by ", ", so 3.14 and 2.7 at k=2 become "3 1 4, 2 7 0". Decoding
strips non-digit junk per step, re-centers each quantization bin (optional
half-bin correction), and inverts the scaler.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, _linear_quantile
from .errors import (
    DegenerateSeriesError,
    DigitOverflowError,
    NonFiniteError,
    ParamError,
    ParseError,
)

_EPS = np.finfo(float).eps
STEP_SEPARATOR = ", "
DIGIT_SEPARATOR = " "
# serialize renders bins in (-_TABLE_LIMIT, _TABLE_LIMIT) from a table
_TABLE_LIMIT = 2048


@dataclass(frozen=True)
class CodecConfig:
    """Encoding knobs. The grammar itself is fixed: STEP_SEPARATOR between
    steps and DIGIT_SEPARATOR between the digits of a step.

    precision_k: decimal places kept after scaling (floor quantization).
    basic_mode: concatenate digits without separators ("314" instead of "3 1 4");
        no sign token exists in this mode.
    scale_quantile / offset_beta: scaler fit, see fit_scaler.
    half_bin_correction: decode bin v to (v + 0.5) / 10^k instead of v / 10^k.
    """

    precision_k: int = 3
    signed: bool = True
    basic_mode: bool = False
    scale_quantile: float = 0.95
    offset_beta: float = 0.3
    half_bin_correction: bool = True
    max_digits_per_value: int = 10

    def __post_init__(self):
        if not 0 <= self.precision_k <= 10:
            raise ParamError(f"precision_k must be in [0, 10], got {self.precision_k}")
        if self.max_digits_per_value < max(1, self.precision_k + 1):
            raise ParamError(
                f"max_digits_per_value {self.max_digits_per_value} cannot hold "
                f"precision_k={self.precision_k} plus an integer digit"
            )
        if not 0.0 < self.scale_quantile <= 1.0:
            raise ParamError(f"scale_quantile must be in (0, 1], got {self.scale_quantile}")
        if self.offset_beta < 0.0:
            raise ParamError(f"offset_beta must be >= 0, got {self.offset_beta}")


@dataclass(frozen=True)
class Scaler:
    """Affine map y = (x - offset) / scale with scale > 0."""

    offset: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.offset) and math.isfinite(self.scale)):
            raise ParamError("scaler parameters must be finite")
        if self.scale <= 0.0:
            raise ParamError(f"scale must be > 0, got {self.scale}")

    def forward(self, x):
        return (np.asarray(x, dtype=float) - self.offset) / self.scale

    def inverse(self, y):
        return np.asarray(y, dtype=float) * self.scale + self.offset


def fit_scaler(history, config: CodecConfig = CodecConfig()) -> Scaler:
    """Fit the affine scaler on a history window; see fit_scalers."""
    return fit_scalers(np.reshape(_as_values(history), (1, -1)), config)[0]


def fit_scalers(rows, config: CodecConfig = CodecConfig()) -> list[Scaler]:
    """Fit one affine scaler per row of an (m, n) array of histories.

    signed mode keeps offset 0 and takes the scale from |history|, so x and -x
    get the same scaler; otherwise offset = min - offset_beta * range so
    shifted values are nonnegative with headroom. Scale is the scale_quantile
    quantile of |history| (signed) or history - offset (unsigned), read from
    one partition of the rows and bitwise np.quantile's, falling back to 1
    when that quantile is not positive (constant-at-offset or all-zero
    histories).
    """
    vals = np.asarray(rows, dtype=float)
    if vals.ndim != 2:
        raise ParamError(f"need an (m, n) array of histories, got shape {vals.shape}")
    if vals.shape[1] == 0:
        raise DegenerateSeriesError("cannot fit a scaler on an empty history")
    if not np.isfinite(vals).all():
        raise NonFiniteError("history contains NaN or infinity")
    if config.signed:
        offsets = np.zeros(len(vals))
        shifted = np.abs(vals)
    else:
        lo = vals.min(axis=1)
        offsets = lo - config.offset_beta * (vals.max(axis=1) - lo)
        shifted = vals - offsets[:, None]
    scales = _linear_quantile(shifted, config.scale_quantile, axis=1, partition=True)
    scales[scales <= 0.0] = 1.0
    return [Scaler(offset=o, scale=s) for o, s in zip(offsets.tolist(), scales.tolist())]


def _as_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)


def quantize(values, scaler: Scaler, config: CodecConfig) -> np.ndarray:
    """Scaled values floored to int64 bins at precision_k decimal places.

    floor(y * 10^k) with a snap-to-integer guard: products within a few ulps of
    an integer (float noise on exact decimals, e.g. 3.14 * 100 = 313.99999...)
    snap to it before flooring. The snap distance is far below one bin, so
    round-trip error bounds are unchanged.
    """
    vals = _as_values(values)
    # _bins writes into its arrays, which a 0-d input would not give it
    return _bins(vals.reshape(1, -1), scaler.offset, scaler.scale, config).reshape(vals.shape)


def _bins(vals: np.ndarray, offset, scale, config: CodecConfig) -> np.ndarray:
    """quantize for an (m, n) array, with offset and scale broadcast against
    it: floats for one scaler, (m, 1) columns for one scaler per row."""
    factor = float(10 ** config.precision_k)
    scaled = (vals - offset) / scale * factor
    tol = np.abs(scaled)
    # one reduction screens for both failures: NaN/inf inputs reach `scaled`
    # as NaN/inf, and a bin reaches 2**62 exactly when its scaled value does
    if not tol.max(initial=0.0) < 2.0**62:
        if not np.isfinite(vals).all():
            raise NonFiniteError("cannot encode non-finite values")
        raise DigitOverflowError("scaled values overflow 64-bit integer bins")
    if np.count_nonzero(offset):
        # intermediate magnitude bounds the accumulated rounding error; it
        # never falls below |scaled|, and equals it bitwise where the offset
        # is 0, so rows with and without an offset can share it
        tol = (np.abs(vals) + abs(offset)) / scale * factor
    tol = np.maximum(tol, 1.0)
    tol *= 64.0 * _EPS
    nearest = np.rint(scaled)
    # nearest when within tol of it, else floor: a value rounded up by more
    # than tol floors to nearest - 1, any other value floors to nearest.
    # The difference reuses scaled's buffer, and both go before the int64
    # copy, so a cell holds fewer (m, n) arrays at once
    nearest -= np.subtract(nearest, scaled, out=scaled) > tol
    del scaled, tol
    return nearest.astype(np.int64)


@functools.cache
def _spaced_bins() -> np.ndarray:
    """The spaced token of every bin in [-_TABLE_LIMIT, _TABLE_LIMIT), at
    index bin: "1 0 8" for 108 at 108, "-3 4" for -34 at -34, which numpy
    counts from the end. An object array, so indexing it with a row of bins
    gives the row's tokens without a Python int per bin. Built on first use,
    so importing nlts does not pay for it."""
    tokens = [
        "-" * (v < 0) + DIGIT_SEPARATOR.join(str(abs(v)))
        for v in (*range(_TABLE_LIMIT), *range(-_TABLE_LIMIT, 0))
    ]
    return np.array(tokens, dtype=object)


def serialize(series, scaler: Scaler, config: CodecConfig = CodecConfig()) -> str:
    """Encode a series as step-separated digit tokens under the scaler."""
    vals = _as_values(series).reshape(1, -1)
    return _encode(vals, scaler.offset, scaler.scale, config)[0]


def serialize_rows(rows, scalers, config: CodecConfig = CodecConfig()) -> list[str]:
    """Encode each row of an (m, n) array under its own scaler, in one pass;
    row i's text is serialize(rows[i], scalers[i], config).

    When any row cannot be encoded, raises the error of the first row that
    fails, as a loop of serialize calls would.
    """
    vals = np.asarray(rows, dtype=float)
    if vals.ndim != 2 or len(vals) != len(scalers):
        raise ParamError(
            f"need an (m, n) array and m scalers, got {vals.shape} and {len(scalers)}"
        )
    offsets = np.array([[s.offset] for s in scalers])
    scales = np.array([[s.scale] for s in scalers])
    try:
        return _encode(vals, offsets, scales, config)
    except (NonFiniteError, DigitOverflowError):
        for row, scaler in zip(vals, scalers):
            serialize(row, scaler, config)
        raise


def _encode(vals: np.ndarray, offset, scale, config: CodecConfig) -> list[str]:
    """The text of each row of an (m, n) array: quantize, check, render."""
    if vals.size == 0:
        return [""] * len(vals)
    bins = _bins(vals, offset, scale, config)
    lo, hi = int(bins.min()), int(bins.max())
    if lo < 0:
        if config.basic_mode:
            raise DigitOverflowError("negative value but basic mode has no sign token")
        if not config.signed:
            raise DigitOverflowError(
                "negative value after scaling in unsigned mode; check the scaler offset"
            )
    # digit count grows with magnitude, so checking the extreme value covers all
    widest = max(abs(hi), abs(lo))
    if len(str(widest)) > config.max_digits_per_value:
        raise DigitOverflowError(
            f"value needs {len(str(widest))} digits, max_digits_per_value is "
            f"{config.max_digits_per_value}"
        )
    if config.basic_mode:
        return [STEP_SEPARATOR.join(map(str, row)) for row in bins.tolist()]
    if widest < _TABLE_LIMIT:
        return [STEP_SEPARATOR.join(tokens) for tokens in _spaced_bins()[bins].tolist()]
    # some bin lies outside the table: space each row at once, separating
    # every character, then take the space back out before each step's comma
    # and after each sign
    texts = (DIGIT_SEPARATOR.join(",".join(map(str, row))) for row in bins.tolist())
    return [text.replace(" ,", ",").replace("- ", "-") for text in texts]


@dataclass(frozen=True)
class ParseReport:
    """Parse accounting for one model continuation."""

    requested_steps: int
    parsed_steps: int
    discarded_fragments: int
    truncated: bool
    raw_text_length: int


_JUNK = re.compile(r"[^0-9-]+")
# serializer output only needs whitespace removed; try this before the regex
_WS_TABLE = {ord(c): None for c in " \t\r\n"}


def _fragment_to_bin(fragment: str, max_digits: int) -> int | None:
    """Digit-token fragment to signed bin integer; None when no digits survive
    or when the value needs more than max_digits digits (a runaway value).
    Only ASCII digits count: int() would also read other scripts' digits."""
    compact = fragment.translate(_WS_TABLE)
    if not compact:
        return None
    if len(compact) <= max_digits and compact.isascii():
        try:
            return int(compact)
        except ValueError:
            pass
    cleaned = _JUNK.sub("", fragment)
    negative = cleaned.startswith("-")
    digits = cleaned.replace("-", "")
    if not digits:
        return None
    significant = digits.lstrip("0")
    if len(significant) > max_digits:
        return None
    v = int(significant or "0")
    return -v if negative else v


def _fragment_bins(text: str, horizon: int, max_digits: int) -> tuple[list[int], int]:
    """Junk-tolerant parse, one comma-separated fragment at a time: the first
    `horizon` bins and the number of fragments discarded on the way."""
    bins: list[int] = []
    discarded = 0
    for fragment in text.split(","):
        if len(bins) >= horizon:
            break
        v = _fragment_to_bin(fragment, max_digits)
        if v is None:
            if fragment.strip():
                discarded += 1
            continue
        bins.append(v)
    return bins, discarded


def _whole_text_bins(text: str, horizon: int, max_digits: int) -> list[int] | None:
    """The bins _fragment_bins finds when every fragment up to the horizon is
    clean and within max_digits, from one pass over the whole text; None
    otherwise.

    Drops spaces before splitting on commas, which leaves the fragments
    intact. int() ignores the other whitespace around a number, and raises
    where the per-fragment parser has work to do. Non-ASCII text goes to the
    per-fragment parser, whose junk filter drops the non-ASCII digits that
    int() would read.
    """
    if not text.isascii():
        return None
    fragments = filter(None, text.replace(" ", "").split(","))
    try:
        bins = list(itertools.islice(map(int, fragments), horizon))
    except ValueError:
        return None
    limit = 10**max_digits
    if bins and not -limit < min(bins) <= max(bins) < limit:
        return None
    return bins


def parse_bins(text: str, config: CodecConfig, horizon: int) -> tuple[list[int], ParseReport]:
    """Parse model output to at most `horizon` signed bins, the first half
    of deserialize.

    Splits on the comma of the step separator, so a reply that drops its
    space still decodes, drops non-numeric junk inside each fragment,
    and silently skips fragments with no content at all (separator artifacts).
    Fragments with content but no digits, or with a value of more than
    max_digits_per_value digits, count as discarded. Raises ParseError
    when nothing parses; the report rides along on the exception.
    """
    if horizon < 1:
        raise ParamError(f"horizon must be >= 1, got {horizon}")
    bins = _whole_text_bins(text, horizon, config.max_digits_per_value)
    if bins is None:
        bins, discarded = _fragment_bins(text, horizon, config.max_digits_per_value)
    else:
        discarded = 0
    report = ParseReport(
        requested_steps=horizon,
        parsed_steps=len(bins),
        discarded_fragments=discarded,
        truncated=len(bins) < horizon,
        raw_text_length=len(text),
    )
    if not bins:
        raise ParseError("no numeric steps found in model output", report=report)
    return bins, report


def decode_rows(rows, scalers, config: CodecConfig = CodecConfig()) -> np.ndarray:
    """Values of m rows of bins of one length, each under its own scaler, in
    one (m, n) array pass: the second half of deserialize. Re-centers each
    bin (half-bin correction) and inverts the row's scaler."""
    factor = float(10 ** config.precision_k)
    half = 0.5 if config.half_bin_correction else 0.0
    offsets = np.array([[s.offset] for s in scalers])
    scales = np.array([[s.scale] for s in scalers])
    return (np.array(rows, dtype=float) + half) / factor * scales + offsets


def deserialize(
    text: str,
    scaler: Scaler,
    config: CodecConfig,
    horizon: int,
) -> tuple[np.ndarray, ParseReport]:
    """Decode model output back to values, keeping at most `horizon` steps:
    parse_bins, then decode_rows on the one row. Raises ParseError when
    nothing parses."""
    bins, report = parse_bins(text, config, horizon)
    return decode_rows([bins], [scaler], config)[0], report
