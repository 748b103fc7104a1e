"""Acceptance gate: ten numbered criteria, one test (or test pair) each.

Each test prints a PASS line via the conftest terminal summary. Runtime-limited
criteria assert their own wall-clock budget.
"""

import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from nlts import (
    CodecConfig,
    NoiseSpec,
    SamplePaths,
    Scaler,
    TimeSeries,
    TransportError,
    Usage,
    aggregate_samples,
    cholesky_with_jitter,
    default_cost_table,
    deserialize,
    estimate_cost,
    inject_noise,
    kernel_matrix,
    load_dataset,
    serialize,
    substream,
    theory_check,
)
from nlts.cli import main
from nlts.synth import KERNEL_KINDS, KernelSpec, sample_gp_matrix
from nlts.core import SplitSpec, split_series

from conftest import make_airline_series, write_series_csv

GOLDEN = Path(__file__).parent / "golden" / "sweep_schema.json"


# --- criterion 1: codec round-trip fuzz --------------------------------------


def _fuzz_lengths(rng, count):
    """Lengths covering 1..512 inclusive, short-biased to keep the value
    budget sane; both endpoints are forced."""
    short = rng.integers(1, 25, size=count)
    long_mask = rng.random(count) < 0.10
    longs = np.floor(np.exp(rng.uniform(np.log(25), np.log(513), size=count))).astype(int)
    lengths = np.where(long_mask, np.minimum(longs, 512), short)
    lengths[0] = 1
    lengths[1] = 512
    return lengths


def test_criterion_1_codec_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    count = 100_000
    lengths = _fuzz_lengths(rng, count)
    total = int(lengths.sum())
    # 12 orders of magnitude across the corpus: per-series decade in [-5, 7)
    decades = rng.uniform(-5, 7, size=count)
    ks = rng.integers(0, 6, size=count)
    modes = rng.integers(0, 4, size=count)  # signed x basic combinations
    raw = rng.standard_normal(total)
    offsets = np.cumsum(lengths)[:-1]
    chunks = np.split(raw, offsets)

    configs = {}
    for k in range(6):
        for mode in range(4):
            signed = bool(mode & 1)
            basic = bool(mode & 2)
            configs[(k, mode, True)] = CodecConfig(
                precision_k=k, signed=signed, basic_mode=basic,
                half_bin_correction=True, max_digits_per_value=19)
            configs[(k, mode, False)] = CodecConfig(
                precision_k=k, signed=signed, basic_mode=basic,
                half_bin_correction=False, max_digits_per_value=19)

    worst_ratio = 0.0
    checked = 0
    for i in range(count):
        k = int(ks[i])
        mode = int(modes[i])
        signed = bool(mode & 1)
        basic = bool(mode & 2)
        half = bool(i & 1)
        cfg = configs[(k, mode, half)]
        scale = 10.0 ** decades[i]
        vals = chunks[i] * scale
        if basic or not signed:
            vals = np.abs(vals)
        scaler = Scaler(offset=0.0, scale=max(scale, 1e-12))
        enc = serialize(vals, scaler, cfg)
        dec, rep = deserialize(enc, scaler, cfg, horizon=vals.size)
        assert rep.parsed_steps == vals.size
        assert rep.discarded_fragments == 0
        bound = (0.5 if half else 1.0) * scaler.scale * 10.0 ** (-k)
        err = float(np.max(np.abs(dec - vals)))
        assert err <= bound * (1 + 1e-12), (i, err, bound)
        worst_ratio = max(worst_ratio, err / bound)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == count
    assert elapsed < 10.0, f"codec fuzz took {elapsed:.2f}s"


def test_criterion_1_worked_examples():
    enc = serialize([0.314, 3.14, 31.4, 314.0], Scaler(), CodecConfig(precision_k=2))
    assert enc == "3 1, 3 1 4, 3 1 4 0, 3 1 4 0 0"
    enc0 = serialize([22.0, 25.0, 28.0], Scaler(), CodecConfig(precision_k=0))
    assert enc0 == "2 2, 2 5, 2 8"


# --- criterion 2: noise law ---------------------------------------------------

NOISE_KINDS_SIX = ("gaussian", "uniform", "laplace", "gamma", "beta", "geometric")


def test_criterion_2_noise_law():
    start = time.perf_counter()
    n = 1_000_000
    base = TimeSeries(np.tile([1.0, -1.0], n // 2))  # population std exactly 1
    sigma_x = float(base.values.std(ddof=0))
    assert sigma_x == 1.0
    alpha = 0.02
    for idx, kind in enumerate(NOISE_KINDS_SIX):
        spec = NoiseSpec(kind=kind, alpha=alpha)
        noisy = inject_noise(base, spec, substream(314159, idx))
        eps = noisy.values - base.values
        mean = float(eps.mean())
        std = float(eps.std(ddof=0))
        assert abs(mean) < 4.0 * alpha / 1e3, (kind, mean)
        assert abs(std - alpha) / alpha < 0.02, (kind, std)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"noise law check took {elapsed:.2f}s"


# --- criterion 3: aggregation oracle -----------------------------------------


def _oracle_aggregate(paths, levels):
    """Sort-based reference, written independently of the library path."""
    s = np.sort(paths, axis=0)
    m = paths.shape[0]
    if m % 2:
        med = s[m // 2].copy()
    else:
        med = (s[m // 2 - 1] + s[m // 2]) / 2.0
    mean = paths.sum(axis=0) / m
    var = ((paths - mean) ** 2).sum(axis=0) / m
    qs = {}
    for q in levels:
        pos = q * (m - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, m - 1)
        frac = pos - lo
        qs[q] = s[lo] + frac * (s[hi] - s[lo])
    return med, var, qs


def test_criterion_3_aggregation_oracle():
    rng = np.random.default_rng(777)
    levels = (0.05, 0.25, 0.75, 0.95)
    for _ in range(10_000):
        m = int(rng.integers(1, 26))
        h = int(rng.integers(1, 65))
        paths = rng.standard_normal((m, h)) * rng.uniform(0.1, 10.0)
        f = aggregate_samples(SamplePaths(paths), quantile_levels=levels)
        med, var, qs = _oracle_aggregate(paths, levels)
        npt.assert_array_equal(f.median, med)
        npt.assert_allclose(f.variance, var, rtol=0, atol=1e-12)
        for q in levels:
            npt.assert_allclose(f.quantiles[q], qs[q], rtol=0, atol=1e-12)


# --- criterion 4: end-to-end oracle run --------------------------------------


@pytest.fixture
def airline_csv(tmp_path):
    p = tmp_path / "airline.csv"
    write_series_csv(p, make_airline_series())
    return p


def test_criterion_4_oracle_forecast(airline_csv, tmp_path):
    start = time.perf_counter()
    runner = CliRunner()
    out = tmp_path / "clean.json"
    result = runner.invoke(main, [
        "forecast", "--data", str(airline_csv), "--split", "horizon:12",
        "--backend", "oracle", "--alpha", "0", "--samples", "10",
        "--precision", "3", "--seed", "42", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["valid_samples"] == 10
    assert payload["evaluation"]["mse"] <= (0.5e-3) ** 2, payload["evaluation"]
    assert payload["evaluation"]["mae"] <= 0.5e-3, payload["evaluation"]

    noisy_out = tmp_path / "noisy.json"
    result = runner.invoke(main, [
        "forecast", "--data", str(airline_csv), "--split", "horizon:12",
        "--backend", "oracle", "--noise", "gaussian", "--alpha", "0.02",
        "--samples", "10", "--precision", "3", "--seed", "42",
        "--out", str(noisy_out),
    ])
    assert result.exit_code == 0, result.output
    noisy = json.loads(noisy_out.read_text())
    assert noisy["valid_samples"] == 10
    assert all(v > 0.0 for v in noisy["variance"])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle forecast runs took {elapsed:.2f}s"


# --- criterion 5: replay determinism -----------------------------------------


def test_criterion_5_replay_determinism(airline_csv, tmp_path):
    runner = CliRunner()
    cassette = tmp_path / "cassette.jsonl"
    record = runner.invoke(main, [
        "forecast", "--data", str(airline_csv), "--split", "horizon:8",
        "--backend", "oracle", "--samples", "4", "--seed", "7",
        "--record", str(cassette), "--out", str(tmp_path / "rec.json"),
    ])
    assert record.exit_code == 0, record.output

    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        replay = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:8",
            "--samples", "4", "--seed", "7",
            "--replay", str(cassette), "--out", str(out),
        ])
        assert replay.exit_code == 0, replay.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1], "replay runs are not byte-identical"

    # flip one byte inside the first stored request hash
    text = cassette.read_text()
    record_obj = json.loads(text.splitlines()[0])
    h = record_obj["request_hash"]
    flipped = ("0" if h[0] != "0" else "1") + h[1:]
    cassette.write_text(text.replace(h, flipped, 1))
    mutated = runner.invoke(main, [
        "forecast", "--data", str(airline_csv), "--split", "horizon:8",
        "--samples", "4", "--seed", "7",
        "--replay", str(cassette), "--out", str(tmp_path / "r3.json"),
    ])
    assert mutated.exit_code != 0
    assert "TransportError" in mutated.output


# --- criterion 6: second-order identity --------------------------------------


def test_criterion_6_lemma_check():
    start = time.perf_counter()
    rep = theory_check(dim=10, sigma=0.1, num_draws=1_000_000, seed=0)
    assert rep.predicted_gap == pytest.approx(-0.05)
    assert abs(rep.measured_gap - (-0.05)) / 0.05 <= 0.02
    assert rep.measured_gap <= 0.0

    zero = theory_check(dim=10, sigma=0.0, num_draws=1_000_000, seed=0)
    assert zero.measured_gap == 0.0
    assert zero.predicted_gap == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"lemma check took {elapsed:.2f}s"


# --- criterion 7: GP synthesis covariance ------------------------------------


def test_criterion_7_gp_covariance():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 8)
    draws = 200_000
    for idx, kind in enumerate(KERNEL_KINDS):
        spec = KernelSpec(kind=kind)
        k = kernel_matrix(spec, grid)
        npt.assert_array_equal(k, k.T)
        chol, jitter = cholesky_with_jitter(k)
        npt.assert_allclose(chol @ chol.T, k + jitter * np.eye(8), atol=1e-10)
        samples = sample_gp_matrix(spec, grid, draws, seed=1000 + idx)
        emp = samples.T @ samples / draws
        rel = np.linalg.norm(emp - k) / np.linalg.norm(k)
        assert rel <= 0.03, (kind, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"GP covariance check took {elapsed:.2f}s"


# --- criterion 8: cost ledger -------------------------------------------------


def test_criterion_8_cost_ledger():
    table = default_cost_table()
    assert estimate_cost(Usage(2000, 500), "GPT-3.5-Turbo-Instruct", table) == pytest.approx(0.004)
    assert estimate_cost(Usage(1000, 1000), "Claude-3-Opus", table) == pytest.approx(0.192)
    rng = np.random.default_rng(8)
    models = list(table.prices)
    for _ in range(1000):
        model = models[int(rng.integers(len(models)))]
        a = Usage(int(rng.integers(0, 10**7)), int(rng.integers(0, 10**7)), 1)
        b = Usage(int(rng.integers(0, 10**7)), int(rng.integers(0, 10**7)), 1)
        lhs = estimate_cost(a + b, model, table)
        rhs = estimate_cost(a, model, table) + estimate_cost(b, model, table)
        assert lhs == pytest.approx(rhs, rel=1e-12), model


# --- criterion 9: sweep shape -------------------------------------------------


def test_criterion_9_sweep_shape(tmp_path):
    data = tmp_path / "airline.csv"
    write_series_csv(data, make_airline_series(), holdout=12)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "datasets": [str(data)],
        "samples": 3,
        "seed": 11,
        "backend": {"kind": "oracle"},
    }))
    out = tmp_path / "report"
    runner = CliRunner()
    result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output

    golden = json.loads(GOLDEN.read_text())
    csv_lines = (out / "results.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header == golden["csv_columns"]
    labels = [line.split(",")[2] for line in csv_lines[1:]]
    assert labels == golden["noise_level_rows"]

    report = json.loads((out / "results.json").read_text())
    assert report["schema"] == golden["schema"]
    assert list(report.keys()) == golden["report_keys"]
    assert list(report["config"].keys()) == golden["config_keys"]
    for cell in report["cells"]:
        assert list(cell.keys()) == golden["cell_keys"]
        assert cell["error"] is None
        assert cell["mse"] is not None and cell["mae"] is not None
    noisy_cells = [c for c in report["cells"] if c["label"] != "Original"]
    assert all(c["improvement_mse"] is not None for c in noisy_cells)
    assert all(c["improvement_mae"] is not None for c in noisy_cells)


# --- criterion 10: benchmark generation --------------------------------------


def test_criterion_10_benchmark_generation(tmp_path):
    out = tmp_path / "suite"
    runner = CliRunner()
    result = runner.invoke(main, [
        "synth", "--kernels", "all", "--count", "10", "--length", "100",
        "--holdout", "30", "--seed", "7", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 60
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 60
    assert manifest["holdout"] == 30
    for entry in manifest["files"]:
        ds = load_dataset(out / entry["file"])
        assert ds.holdout == 30
        assert len(ds.series) == 100
        hist, tgt = split_series(ds.series, SplitSpec.by_horizon(ds.holdout))
        assert len(tgt) == 30
        assert len(hist) == 70
