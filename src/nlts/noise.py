"""Noise design and injection.

A NoiseSpec names a distribution family and the level alpha. Each family has
one fixed shape: gaussian N(0, 1), uniform U(-1, 1), laplace(0, 1),
gamma(k=2, theta=1), beta(2, 2) and geometric(p=0.5). A draw is standardized to
zero mean and unit variance with the family's analytic moments, so a location
or scale parameter would cancel out. The draw is then scaled by alpha times
the population std of the history, so the injected perturbation has mean 0
and std alpha*sigma_x whatever the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .errors import ConfigError, DegenerateSeriesError, NonFiniteError

# each family's fixed draw and the analytic (mean, std) that standardize it
_FAMILIES = {
    "gaussian": (lambda rng, n: rng.normal(0.0, 1.0, n), 0.0, 1.0),
    "uniform": (lambda rng, n: rng.uniform(-1.0, 1.0, n), 0.0, 2.0 / math.sqrt(12.0)),
    "laplace": (lambda rng, n: rng.laplace(0.0, 1.0, n), 0.0, math.sqrt(2.0)),
    "gamma": (lambda rng, n: rng.gamma(2.0, 1.0, n), 2.0, math.sqrt(2.0)),
    "beta": (lambda rng, n: rng.beta(2.0, 2.0, n), 0.5, math.sqrt(0.05)),
    # support {1, 2, ...}
    "geometric": (lambda rng, n: rng.geometric(0.5, n), 2.0, math.sqrt(2.0)),
}

NOISE_KINDS = (*_FAMILIES, "none")


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution family and the level alpha. Randomness comes from the
    generator passed to inject_noise, never from the spec."""

    kind: str = "gaussian"
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def adds_noise(self) -> bool:
        """False for alpha == 0 or kind "none": the noisy history is the history."""
        return self.alpha != 0.0 and self.kind != "none"


def standardized_draw(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the family, centered by the analytic mean, scaled to unit
    std; zeros for kind "none"."""
    if n < 0:
        raise ConfigError(f"draw count must be >= 0, got {n}")
    if spec.kind == "none":
        return np.zeros(n)
    draw, mean, std = _FAMILIES[spec.kind]
    return (draw(rng, n) - mean) / std


def inject_noise_rows(series: TimeSeries, spec: NoiseSpec, draws: np.ndarray) -> np.ndarray:
    """One noisy copy of the series per row of draws, an (m, n) array of
    standardized draws: row i is x_t + alpha * sigma_x * draws[i, t], with
    sigma_x the population std of the series, computed once. draws is only
    read.

    A constant series with alpha > 0 raises DegenerateSeriesError, and a noisy
    value that overflows to infinity raises the NonFiniteError that TimeSeries
    would.
    """
    if np.ndim(draws) != 2 or np.shape(draws)[1] != len(series):
        raise ConfigError(f"need an (m, {len(series)}) array of draws, got shape {np.shape(draws)}")
    sigma_x = float(series.values.std(ddof=0))
    if sigma_x == 0.0 and spec.adds_noise:
        raise DegenerateSeriesError(
            f"series {series.name!r} is constant; sigma_x = 0 with alpha = {spec.alpha}"
        )
    # in the order of x + (alpha * sigma_x) * z: the same bits
    rows = draws * (spec.alpha * sigma_x)
    rows += series.values
    if not np.isfinite(rows).all():
        raise NonFiniteError(f"series {series.name!r} contains NaN or infinity")
    return rows


def inject_noise(series: TimeSeries, spec: NoiseSpec, rng: np.random.Generator) -> TimeSeries:
    """The one-row case of inject_noise_rows, with the draw taken from rng, as
    a TimeSeries.

    alpha == 0 or kind == "none" returns the input object itself, which callers
    may test with `is`.
    """
    if not spec.adds_noise:
        return series
    draws = standardized_draw(spec, len(series), rng)[None]
    return series.with_values(inject_noise_rows(series, spec, draws)[0])
