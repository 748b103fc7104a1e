"""Gaussian-process benchmark synthesis.

Six kernel families evaluated in closed form on a uniform grid, factored with
escalating jitter, and sampled as L @ z[i], where z is one standard-normal
block per kernel drawn from substream(seed, ki). generate_benchmark writes
normalized CSVs plus a manifest that pins every hyperparameter and stream key.
Each CSV has the header t,value,value_raw,is_holdout, \\r\\n row endings and
floats as their shortest round-trip repr. The manifest holds no wall-clock
stamp, so two runs with the same arguments, on one numpy/BLAS build and
thread count, write byte-identical CSVs and manifests.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import make_dir, write_text
from .errors import CholeskyError, ConfigError
from .rng import rng_identity, substream

KERNEL_KINDS = (
    "exp_sine_squared",
    "linear",
    "matern",
    "polynomial",
    "rational_quadratic",
    "rbf",
)

MATERN_SMOOTHNESS = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    lengthscale and periodicity default to None, meaning "resolve from the grid"
    (0.2 and 0.25 of the grid span respectively) at evaluation time.
    """

    kind: str
    lengthscale: float | None = None
    periodicity: float | None = None
    smoothness: float = 1.5
    degree: int = 2
    bias: float = 1.0
    mixture: float = 1.0
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {self.kind!r}, expected one of {KERNEL_KINDS}")
        if self.lengthscale is not None and self.lengthscale <= 0:
            raise ConfigError(f"lengthscale must be > 0, got {self.lengthscale}")
        if self.periodicity is not None and self.periodicity <= 0:
            raise ConfigError(f"periodicity must be > 0, got {self.periodicity}")
        if self.smoothness not in MATERN_SMOOTHNESS:
            raise ConfigError(
                f"matern smoothness must be one of {MATERN_SMOOTHNESS}, got {self.smoothness}"
            )
        if self.degree < 1:
            raise ConfigError(f"polynomial degree must be >= 1, got {self.degree}")
        if self.mixture <= 0:
            raise ConfigError(f"rational quadratic mixture must be > 0, got {self.mixture}")
        if self.variance <= 0:
            raise ConfigError(f"variance must be > 0, got {self.variance}")

    def resolved(self, grid: np.ndarray) -> "KernelSpec":
        """Concrete hyperparameters for a given grid."""
        span = float(grid.max() - grid.min()) if grid.size > 1 else 1.0
        span = span if span > 0 else 1.0
        return replace(
            self,
            lengthscale=self.lengthscale if self.lengthscale is not None else 0.2 * span,
            periodicity=self.periodicity if self.periodicity is not None else 0.25 * span,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def kernel_matrix(spec: KernelSpec, grid) -> np.ndarray:
    """Evaluate the kernel on all grid pairs. Symmetric by construction."""
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ConfigError("grid must be a nonempty 1-D array")
    if not np.isfinite(t).all():
        raise ConfigError("grid contains non-finite values")
    spec = spec.resolved(t)
    var = spec.variance
    diff = t[:, None] - t[None, :]
    if spec.kind == "rbf":
        k = var * np.exp(-0.5 * (diff / spec.lengthscale) ** 2)
    elif spec.kind == "matern":
        r = np.abs(diff) / spec.lengthscale
        if spec.smoothness == 0.5:
            k = var * np.exp(-r)
        elif spec.smoothness == 1.5:
            s = math.sqrt(3.0) * r
            k = var * (1.0 + s) * np.exp(-s)
        else:
            s = math.sqrt(5.0) * r
            k = var * (1.0 + s + s**2 / 3.0) * np.exp(-s)
    elif spec.kind == "rational_quadratic":
        k = var * (1.0 + diff**2 / (2.0 * spec.mixture * spec.lengthscale**2)) ** (-spec.mixture)
    elif spec.kind == "exp_sine_squared":
        s = np.sin(math.pi * np.abs(diff) / spec.periodicity)
        k = var * np.exp(-2.0 * s**2 / spec.lengthscale**2)
    elif spec.kind == "linear":
        k = var * np.outer(t, t)
    else:  # polynomial
        k = var * (np.outer(t, t) + spec.bias) ** spec.degree
    return (k + k.T) / 2.0


def cholesky_with_jitter(k: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter until it succeeds.

    Starts at 1e-8 times the mean diagonal and multiplies by 10 up to 1e-4 times
    the mean diagonal; past that, CholeskyError.
    """
    n = k.shape[0]
    mean_diag = max(float(np.trace(k)) / n, 1e-12)
    try:
        return np.linalg.cholesky(k), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-8 * mean_diag
    cap = 1e-4 * mean_diag
    eye = np.eye(n)
    while jitter <= cap * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(k + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise CholeskyError(
        f"kernel matrix not positive definite even with jitter up to {cap:.3e}"
    )


def sample_gp_matrix(spec: KernelSpec, grid, count: int, seed: int, *key: int) -> np.ndarray:
    """(count, len(grid)) GP draws: row i is L @ z[i], z being the (count, len(grid))
    standard-normal block of substream(seed, *key). Row i does not depend on count,
    and its own product, unlike one z @ L.T, not on the BLAS thread count."""
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    t = np.asarray(grid, dtype=float)
    chol, _ = cholesky_with_jitter(kernel_matrix(spec, t))
    z = substream(seed, *key).standard_normal((count, t.size))
    for i in range(count):
        z[i] = chol @ z[i]
    return z


def _normalize(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def write_series_csv(path: Path, heads: list[str], tails: list[str], raw: np.ndarray) -> None:
    """One series as CSV, value min-max normalized. heads[i] is row i's "t,"
    text and tails[i] its ",is_holdout\\r\\n"; both are shared by every series on
    one grid."""
    rows = zip(heads, map(repr, _normalize(raw).tolist()), repeat(","),
               map(repr, raw.tolist()), tails)
    write_text(path, "t,value,value_raw,is_holdout\r\n" + "".join(map("".join, rows)), "series")


def generate_benchmark(
    kernels: list[KernelSpec],
    count: int,
    length: int,
    holdout: int,
    seed: int,
    out_dir: str | Path,
) -> dict:
    """Write `count` series per kernel to out_dir plus manifest.json.

    Grid is `length` points uniform on [0, 1]; the last `holdout` rows of each
    file are flagged is_holdout=1. Series i of kernel ki is row i of
    sample_gp_matrix(spec, grid, count, seed, ki); its manifest entry's key is [ki].
    """
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if length < 2:
        raise ConfigError(f"length must be >= 2, got {length}")
    if not 0 <= holdout < length:
        raise ConfigError(f"holdout must be in [0, length), got {holdout} for length {length}")
    out = Path(out_dir)
    make_dir(out, "suite directory")
    grid = np.linspace(0.0, 1.0, length)
    heads = [repr(t) + "," for t in grid.tolist()]
    tails = [",0\r\n"] * (length - holdout) + [",1\r\n"] * holdout
    files = []
    for ki, spec in enumerate(kernels):
        resolved = spec.resolved(grid).to_dict()
        values = sample_gp_matrix(spec, grid, count, seed, ki)
        for i in range(count):
            name = f"{spec.kind}_{i:04d}.csv"
            write_series_csv(out / name, heads, tails, values[i])
            files.append(
                {
                    "file": name,
                    "kernel": dict(resolved),
                    "key": [ki],
                    "series_index": i,
                    "length": length,
                    "holdout": holdout,
                }
            )
    manifest = {
        "schema": "nlts.synth/2",
        "seed": seed,
        "count": count,
        "length": length,
        "holdout": holdout,
        "kernels": [spec.to_dict() for spec in kernels],
        "rng": rng_identity(),
        "files": files,
    }
    write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n", "manifest")
    return manifest
