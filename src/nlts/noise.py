"""Noise design and injection.

A NoiseSpec names a distribution family; draws are standardized to zero mean and
unit variance using analytic moments, then scaled by alpha times the population
std of the history, so the injected perturbation has mean 0 and std alpha*sigma_x
regardless of family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import TimeSeries
from .errors import DegenerateSeriesError, NltsError, ParamError

NOISE_KINDS = ("gaussian", "uniform", "laplace", "gamma", "beta", "geometric", "none")

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "gaussian": {"mu": 0.0, "sigma": 1.0},
    "uniform": {"a": -1.0, "b": 1.0},
    "laplace": {"mu": 0.0, "b": 1.0},
    "gamma": {"k": 2.0, "theta": 1.0},
    "beta": {"a": 2.0, "b": 2.0},
    "geometric": {"p": 0.5},
    "none": {},
}


def _validate(kind: str, p: dict[str, float]) -> None:
    if kind == "gaussian":
        if p["sigma"] <= 0:
            raise ParamError(f"gaussian sigma must be > 0, got {p['sigma']}")
    elif kind == "uniform":
        if not p["a"] < p["b"]:
            raise ParamError(f"uniform needs a < b, got a={p['a']}, b={p['b']}")
    elif kind == "laplace":
        if p["b"] <= 0:
            raise ParamError(f"laplace scale must be > 0, got {p['b']}")
    elif kind == "gamma":
        if p["k"] <= 0 or p["theta"] <= 0:
            raise ParamError(f"gamma needs k > 0 and theta > 0, got k={p['k']}, theta={p['theta']}")
    elif kind == "beta":
        if p["a"] <= 0 or p["b"] <= 0:
            raise ParamError(f"beta needs a > 0 and b > 0, got a={p['a']}, b={p['b']}")
    elif kind == "geometric":
        if not 0.0 < p["p"] <= 1.0:
            raise ParamError(f"geometric needs p in (0, 1], got {p['p']}")


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution family, its parameters and the level alpha. Randomness comes
    from the generator passed to inject_noise, never from the spec."""

    kind: str = "gaussian"
    params: Mapping[str, float] = field(default_factory=dict)
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ParamError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ParamError(f"alpha must be finite and >= 0, got {self.alpha}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        for key, value in dict(self.params).items():
            if key not in merged:
                raise ParamError(f"{self.kind} noise has no parameter {key!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ParamError(f"{self.kind} parameter {key!r} must be finite, got {value}")
            merged[key] = value
        _validate(self.kind, merged)
        object.__setattr__(self, "params", merged)

    def moments(self) -> tuple[float, float]:
        """Analytic (mean, std) of the raw family draw."""
        p = self.params
        if self.kind == "gaussian":
            return p["mu"], p["sigma"]
        if self.kind == "uniform":
            return (p["a"] + p["b"]) / 2.0, (p["b"] - p["a"]) / math.sqrt(12.0)
        if self.kind == "laplace":
            return p["mu"], p["b"] * math.sqrt(2.0)
        if self.kind == "gamma":
            return p["k"] * p["theta"], p["theta"] * math.sqrt(p["k"])
        if self.kind == "beta":
            a, b = p["a"], p["b"]
            return a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        if self.kind == "geometric":
            return 1.0 / p["p"], math.sqrt(1.0 - p["p"]) / p["p"]
        return 0.0, 0.0  # none


def standardized_draw(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the family, centered by the analytic mean, scaled to unit std."""
    if n < 0:
        raise ParamError(f"draw count must be >= 0, got {n}")
    p = spec.params
    if spec.kind == "none":
        return np.zeros(n)
    if spec.kind == "gaussian":
        raw = rng.normal(p["mu"], p["sigma"], n)
    elif spec.kind == "uniform":
        raw = rng.uniform(p["a"], p["b"], n)
    elif spec.kind == "laplace":
        raw = rng.laplace(p["mu"], p["b"], n)
    elif spec.kind == "gamma":
        raw = rng.gamma(p["k"], p["theta"], n)
    elif spec.kind == "beta":
        raw = rng.beta(p["a"], p["b"], n)
    else:  # geometric, support {1, 2, ...}
        if p["p"] == 1.0:
            # std is 0: every draw equals the mean, standardized draw is 0
            return np.zeros(n)
        raw = rng.geometric(p["p"], n).astype(float)
    mean, std = spec.moments()
    z = (raw - mean) / std
    if not np.isfinite(z).all():
        raise NltsError(f"{spec.kind} draw produced non-finite values")
    return z


def inject_noise(series: TimeSeries, spec: NoiseSpec, rng: np.random.Generator) -> TimeSeries:
    """x_t + alpha * sigma_x * z_t with sigma_x the population std of the series.

    alpha == 0 or kind == "none" returns the input object itself, which callers
    may test with `is`. A constant series with alpha > 0 raises
    DegenerateSeriesError.
    """
    if spec.alpha == 0.0 or spec.kind == "none":
        return series
    sigma_x = float(series.values.std(ddof=0))
    if sigma_x == 0.0:
        raise DegenerateSeriesError(
            f"series {series.name!r} is constant; sigma_x = 0 with alpha = {spec.alpha}"
        )
    z = standardized_draw(spec, len(series), rng)
    return series.with_values(series.values + spec.alpha * sigma_x * z)
