"""Output checks, computed with numpy and the stub's own parser, apart from nlts.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from stub import PRECISION, REPLY_STEPS

# A noisy cell's forecast is the per-step median of `samples` noisy history
# tails, so it stays within this many alpha * sigma of the clean tail.
NOISY_SIGMA_MULTIPLE = 4.0
# The mean square of a GP draw matches the kernel's mean diagonal within this
# many standard errors.
SYNTH_VARIANCE_SE = 5.0


def reference_forecast(values: np.ndarray, horizon: int) -> dict:
    """The stub's reply rule applied to the clean history, scored with numpy.

    The reply repeats the prompt's last REPLY_STEPS steps, so the forecast is
    the history's last REPLY_STEPS values, cut or cycled to the horizon.
    Errors are min-max normalized over the whole series, as the sweep does.
    """
    history, target = values[:-horizon], values[-horizon:]
    prediction = np.resize(history[-REPLY_STEPS:], horizon)
    span = float(values.max() - values.min()) or 1.0
    errors = (prediction - target) / span
    return {
        "mse": float(np.mean(errors**2)),
        "mae": float(np.mean(np.abs(errors))),
        "errors": errors,
        "span": span,
        "sigma": float(history.std()),
        # one quantization bin of the signed scaler, in normalized units
        "bin": float(np.quantile(history, 0.95)) / 10**PRECISION / span,
    }


def _score_bounds(ref: dict, mse, mae, bound: float, label: str) -> list[str]:
    """mae within `bound` of the reference; mse within what that allows."""
    problems = []
    mse_bound = float(np.mean(bound * (2.0 * np.abs(ref["errors"]) + bound)))
    if mae is None or mse is None:
        return [f"{label}: missing mse/mae"]
    if abs(mae - ref["mae"]) > bound:
        problems.append(f"{label}: mae {mae!r} vs reference {ref['mae']!r} (bound {bound:.3g})")
    if abs(mse - ref["mse"]) > mse_bound:
        problems.append(f"{label}: mse {mse!r} vs reference {ref['mse']!r} (bound {mse_bound:.3g})")
    return problems


def check_original(cell: dict, ref: dict) -> list[str]:
    """The Original row scores as the reply rule does, within one bin."""
    return _score_bounds(ref, cell["mse"], cell["mae"], ref["bin"], f"{cell['dataset']} Original")


def check_noisy(cell: dict, original: dict, ref: dict) -> list[str]:
    """A noisy cell stays within NOISY_SIGMA_MULTIPLE * alpha * sigma of the
    Original row, plus two bins of quantization."""
    bound = NOISY_SIGMA_MULTIPLE * cell["level"] * ref["sigma"] / ref["span"] + 2.0 * ref["bin"]
    shifted = dict(ref, errors=np.abs(ref["errors"]) + ref["bin"])
    shifted["mse"], shifted["mae"] = original["mse"], original["mae"]
    label = f"{cell['dataset']} {cell['kind']} {cell['level']:g}"
    return _score_bounds(shifted, cell["mse"], cell["mae"], bound, label)


def check_sweep_cells(cells: list[dict], references: dict[str, dict], samples: int) -> list[str]:
    """Every cell complete, Original rows exact to a bin, noisy rows bounded."""
    problems = []
    originals = {c["dataset"]: c for c in cells if c["label"] == "Original"}
    for cell in cells:
        label = f"{cell['dataset']} {cell['kind']} {cell['level']:g}"
        if cell["error"] is not None:
            problems.append(f"{label}: failed: {cell['error']}")
            continue
        if cell["valid_samples"] != samples:
            problems.append(f"{label}: {cell['valid_samples']} of {samples} samples valid")
        ref = references[cell["dataset"]]
        if cell["label"] == "Original":
            problems += check_original(cell, ref)
        elif cell["dataset"] in originals:
            problems += check_noisy(cell, originals[cell["dataset"]], ref)
    if set(originals) != set(references):
        problems.append(f"Original rows for {sorted(originals)}, datasets {sorted(references)}")
    return problems


def check_usage(usage: dict, stub_delta: dict) -> list[str]:
    """The report's requests and prompt tokens equal what the stub served."""
    problems = []
    for key in ("requests", "prompt_tokens"):
        if usage[key] != stub_delta[key]:
            problems.append(f"report {key} {usage[key]} != stub's {stub_delta[key]}")
    return problems


def check_prompts(stub_delta: dict, expected_lengths: dict[int, int]) -> list[str]:
    """Every prompt parsed to its history length with a 0.95-quantile of one."""
    problems = []
    seen = {int(k): v for k, v in stub_delta["history_lengths"].items() if v}
    if seen != expected_lengths:
        problems.append(f"prompt history lengths {seen}, expected {expected_lengths}")
    if stub_delta["bad_prompts"]:
        problems.append(
            f"{stub_delta['bad_prompts']} prompts failed the stub's checks, "
            f"first: {stub_delta['first_problem']}"
        )
    return problems


def stats_delta(before: dict, after: dict) -> dict:
    """What the stub served between two GET /stats snapshots."""
    lengths = {
        k: v - before["history_lengths"].get(k, 0) for k, v in after["history_lengths"].items()
    }
    delta = {k: after[k] - before[k]
             for k in ("requests", "prompt_tokens", "handler_s", "bad_prompts")}
    delta["history_lengths"] = lengths
    delta["first_problem"] = after["first_problem"]
    return delta


CELL_FIELDS = ("dataset", "kind", "level", "mse", "mae", "valid_samples", "error")


def check_replay(cells: list[dict], recorded: list[dict]) -> list[str]:
    """Replayed cells equal the recording pass's, field for field."""
    if len(cells) != len(recorded):
        return [f"{len(cells)} replayed cells, {len(recorded)} recorded"]
    problems = []
    for got, want in zip(cells, recorded):
        for key in CELL_FIELDS:
            if got[key] != want[key]:
                problems.append(f"replayed {got['dataset']} {got['kind']} {got['level']:g} "
                                f"{key}: {got[key]!r} != recorded {want[key]!r}")
    return problems


# --- GP synthesis -------------------------------------------------------------


def read_synth_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, value_raw, is_holdout) columns of one synthesized series."""
    rows = list(csv.DictReader(io.StringIO(text)))
    value = np.array([float(r["value"]) for r in rows])
    raw = np.array([float(r["value_raw"]) for r in rows])
    holdout = np.array([int(r["is_holdout"]) for r in rows])
    return value, raw, holdout


def check_synth_series(name: str, value, raw, holdout_flags, holdout: int) -> list[str]:
    """value spans exactly [0, 1] as min-max of value_raw; the flags mark the tail."""
    problems = []
    if value.min() != 0.0 or value.max() != 1.0:
        problems.append(f"{name}: value spans [{value.min()!r}, {value.max()!r}], not [0, 1]")
    expected = (raw - raw.min()) / (raw.max() - raw.min())
    if not np.allclose(value, expected, rtol=0.0, atol=1e-12):
        problems.append(f"{name}: value is not the min-max normalization of value_raw")
    want = np.zeros(value.size, dtype=int)
    want[value.size - holdout:] = 1
    if not np.array_equal(holdout_flags, want):
        problems.append(f"{name}: is_holdout does not mark exactly the last {holdout} rows")
    return problems


def reference_kernel(kernel: dict, grid: np.ndarray) -> np.ndarray:
    """Kernel matrix from its resolved hyperparameters, written from the
    textbook formulas."""
    kind = kernel["kind"]
    var = kernel["variance"]
    ell = kernel["lengthscale"]
    d = np.abs(grid[:, None] - grid[None, :])
    if kind == "rbf":
        return var * np.exp(-(d**2) / (2 * ell**2))
    if kind == "matern":
        nu = kernel["smoothness"]
        r = d / ell
        if nu == 0.5:
            return var * np.exp(-r)
        if nu == 1.5:
            return var * (1 + math.sqrt(3) * r) * np.exp(-math.sqrt(3) * r)
        return var * (1 + math.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-math.sqrt(5) * r)
    if kind == "rational_quadratic":
        a = kernel["mixture"]
        return var * (1 + d**2 / (2 * a * ell**2)) ** -a
    if kind == "exp_sine_squared":
        return var * np.exp(-2 * np.sin(math.pi * d / kernel["periodicity"]) ** 2 / ell**2)
    if kind == "linear":
        return var * grid[:, None] * grid[None, :]
    if kind == "polynomial":
        return var * (grid[:, None] * grid[None, :] + kernel["bias"]) ** kernel["degree"]
    raise ValueError(f"no reference kernel for {kind!r}")


def check_synth_variance(kind: str, raws: np.ndarray, kernel: dict, grid: np.ndarray) -> list[str]:
    """Mean square of zero-mean GP draws against the kernel's mean diagonal.

    For n draws, Var(mean of x_i^2 over points and draws) = 2 mean(K^2) / n,
    which sets the standard error.
    """
    k = reference_kernel(kernel, grid)
    want = float(np.mean(np.diag(k)))
    got = float(np.mean(raws**2))
    se = math.sqrt(2.0 * float(np.mean(k**2)) / raws.shape[0])
    if abs(got - want) > SYNTH_VARIANCE_SE * se:
        return [f"{kind}: per-point variance {got:.4g}, kernel mean diagonal {want:.4g} "
                f"(allowed {SYNTH_VARIANCE_SE:g} x {se:.3g})"]
    return []
