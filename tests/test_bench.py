import csv
import json
import re
import socket

import numpy as np
import numpy.testing as npt
import pytest

from nlts import (
    BackendSpec,
    ConfigError,
    NoiseSpec,
    NonFiniteError,
    Normalization,
    OracleBackend,
    SweepConfig,
    TimeSeries,
    EchoTailBackend,
    ReplayBackend,
    RecordingBackend,
    compute_metrics,
    load_dataset,
    make_backend,
    run_sweep,
    theory_check,
)
import nlts.bench
from nlts.bench import BACKEND_KINDS, DEFAULT_NOISE_LEVELS, ORIGINAL_LABEL, SWEEP_CSV_COLUMNS
from nlts.core import read_block

from conftest import make_airline_series, write_series_csv


class TestNormalization:
    def test_none_passthrough(self):
        n = Normalization()
        x = np.array([1.0, -3.0])
        npt.assert_array_equal(n.apply(x), x)
        assert n.describe() == "none"

    def test_minmax(self):
        n = Normalization.from_values([10.0, 20.0, 30.0])
        npt.assert_allclose(n.apply(np.array([10.0, 30.0])), [0.0, 1.0])
        assert n.describe() == "minmax[10,30]"

    def test_degenerate_range(self):
        n = Normalization.from_values([5.0, 5.0])
        npt.assert_array_equal(n.apply(np.array([5.0, 6.0])), [0.0, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Normalization(kind="zscore")


class TestComputeMetrics:
    def test_worked_example(self):
        rep = compute_metrics([1.0, 2.0], [0.0, 0.0])
        assert rep.mse == pytest.approx(2.5)
        assert rep.mae == pytest.approx(1.5)
        npt.assert_array_equal(rep.per_step_errors, [1.0, 2.0])

    def test_perfect(self):
        rep = compute_metrics([3.0, 4.0], [3.0, 4.0])
        assert rep.mse == 0.0 and rep.mae == 0.0

    def test_sign_symmetry(self):
        a = compute_metrics([1.0, 2.0], [0.0, 0.0])
        b = compute_metrics([-1.0, -2.0], [0.0, 0.0])
        assert a.mse == b.mse and a.mae == b.mae

    def test_mae_bounded_by_rmse(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            rep = compute_metrics(rng.normal(size=n), rng.normal(size=n))
            assert rep.mae <= np.sqrt(rep.mse) + 1e-15

    def test_normalization_applied(self):
        norm = Normalization(kind="minmax", lo=0.0, hi=10.0)
        rep = compute_metrics([5.0], [0.0], norm)
        assert rep.mae == pytest.approx(0.5)
        assert rep.normalization == "minmax[0,10]"

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            compute_metrics([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ConfigError):
            compute_metrics([], [])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            compute_metrics([np.nan], [0.0])


class TestLoadDataset:
    def test_basic(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n1,22\n2,25\n")
        ds = load_dataset(p)
        npt.assert_array_equal(ds.series.values, [22.0, 25.0])
        assert ds.holdout == 0
        assert ds.name == "s"

    def test_blank_value_names_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n1,\n2,25\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_dataset(p)

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n1,22\n2,abc\n")
        with pytest.raises(ConfigError, match="row 3"):
            load_dataset(p)

    def test_missing_value_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,reading\n1,22\n")
        with pytest.raises(ConfigError, match="value"):
            load_dataset(p)

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n1,inf\n")
        with pytest.raises(NonFiniteError, match="row 2"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value\n")
        with pytest.raises(ConfigError):
            load_dataset(p)

    def test_holdout_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value,is_holdout\n0,1,0\n1,2,0\n2,3,1\n3,4,1\n")
        ds = load_dataset(p)
        assert ds.holdout == 2

    def test_holdout_must_be_tail(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value,is_holdout\n0,1,1\n1,2,0\n2,3,1\n")
        with pytest.raises(ConfigError, match="contiguous"):
            load_dataset(p)

    def test_bad_holdout_flag(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,value,is_holdout\n0,1,maybe\n")
        with pytest.raises(ConfigError, match="row 2"):
            load_dataset(p)

    def test_non_utf8_names_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"t,value\n1,22\n2,caf\xe9\n")
        error = rf"^cannot read dataset {re.escape(str(p))}: 'utf-8' codec can't decode byte 0xe9"
        with pytest.raises(ConfigError, match=error):
            load_dataset(p)

    def test_missing_file_names_it(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ConfigError, match=rf"^cannot read dataset {re.escape(str(path))}: "
                                              "No such file or directory$"):
            load_dataset(path)

    def test_custom_value_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,reading\n1,7.5\n")
        ds = load_dataset(p, value_column="reading")
        assert ds.series.values[0] == 7.5


class TestTheoryCheck:
    def test_identity_quadratic(self):
        rep = theory_check(dim=10, sigma=0.1, num_draws=200_000, seed=0)
        assert rep.predicted_gap == pytest.approx(-0.05)
        assert rep.measured_gap == pytest.approx(-0.05, rel=0.02)
        assert rep.measured_gap <= 0.0
        assert rep.concave_gap_nonpositive

    def test_sigma_zero_exact(self):
        rep = theory_check(dim=5, sigma=0.0, num_draws=10_000, seed=0)
        assert rep.measured_gap == 0.0
        assert rep.predicted_gap == 0.0
        assert rep.relative_error == 0.0

    def test_too_few_draws(self):
        with pytest.raises(ConfigError):
            theory_check(num_draws=100)

    def test_deterministic(self):
        a = theory_check(dim=3, sigma=0.1, num_draws=20_000, seed=5)
        b = theory_check(dim=3, sigma=0.1, num_draws=20_000, seed=5)
        assert a.measured_gap == b.measured_gap


@pytest.fixture
def airline_csv(tmp_path):
    p = tmp_path / "airline.csv"
    write_series_csv(p, make_airline_series(), holdout=12)
    return p


class TestRunSweep:
    def test_default_levels_shape(self, airline_csv, tmp_path):
        out = tmp_path / "report"
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=4, seed=3)
        report = run_sweep(cfg, out)
        labels = [c["label"] for c in report["cells"]]
        assert labels == [ORIGINAL_LABEL, "0.001", "0.005", "0.01", "0.02", "0.05"]
        assert all(c["error"] is None for c in report["cells"])
        original = report["cells"][0]
        assert original["improvement_mse"] is None
        for cell in report["cells"][1:]:
            assert cell["improvement_mse"] is not None
            assert cell["improvement_mae"] is not None

    def test_report_files_written(self, airline_csv, tmp_path):
        out = tmp_path / "report"
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=3, seed=1,
                          noise_levels=(0.0, 0.01))
        report = run_sweep(cfg, out)
        assert (out / "results.csv").exists()
        assert (out / "summary.md").exists()
        on_disk = json.loads((out / "results.json").read_text())
        assert on_disk == report
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
        assert len(rows) == 1 + 2

    @pytest.mark.parametrize("name", ["results.csv", "results.json", "summary.md"])
    def test_unwritable_report_file_is_config_error(self, airline_csv, tmp_path, name):
        """The check runs before the first cell: no request is sent, and no
        other report file is written."""
        out = tmp_path / "report"
        (out / name).mkdir(parents=True)
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, noise_levels=(0.0,))
        requests = []

        class Counting(EchoTailBackend):
            def complete(self, prompt, params, tag=""):
                requests.append(tag)
                return super().complete(prompt, params, tag)

        with pytest.raises(ConfigError, match=rf"^cannot write report "
                                              rf"{re.escape(str(out / name))}: Is a directory$"):
            run_sweep(cfg, out, backend=Counting(4, 24))
        assert requests == []
        assert [p.name for p in out.iterdir()] == [name]

    def test_original_accuracy_with_oracle(self, airline_csv, tmp_path):
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=3, seed=0,
                          noise_levels=(0.0,))
        report = run_sweep(cfg, tmp_path / "r")
        original = report["cells"][0]
        # oracle replies with the encoded target; normalized MSE is quantization-level
        assert original["mse"] < 1e-6
        assert original["mae"] < 1e-3
        assert original["valid_samples"] == 3

    def test_multiple_kinds_share_original(self, airline_csv, tmp_path):
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, seed=0,
                          kinds=("gaussian", "uniform"), noise_levels=(0.0, 0.02))
        report = run_sweep(cfg, tmp_path / "r")
        originals = [c for c in report["cells"] if c["label"] == ORIGINAL_LABEL]
        assert len(originals) == 1
        noisy = [c for c in report["cells"] if c["label"] != ORIGINAL_LABEL]
        assert {c["kind"] for c in noisy} == {"gaussian", "uniform"}

    def test_deterministic_rerun(self, airline_csv, tmp_path):
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, seed=8,
                          noise_levels=(0.0, 0.005))
        a = run_sweep(cfg, tmp_path / "a")
        b = run_sweep(cfg, tmp_path / "b")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        # constant series: alpha > 0 injection fails, Original succeeds
        p = tmp_path / "flat.csv"
        write_series_csv(p, np.full(40, 7.0))
        cfg = SweepConfig(datasets=(str(p),), samples=2, seed=0, noise_levels=(0.0, 0.01))
        report = run_sweep(cfg, tmp_path / "r")
        original, noisy = report["cells"]
        assert original["error"] is None
        assert noisy["error"] is not None
        assert "DegenerateSeriesError" in noisy["error"]

    def test_explicit_backend_instance(self, airline_csv, tmp_path):
        ds = load_dataset(airline_csv)
        from nlts import SplitSpec, fit_scaler, serialize, split_series
        from nlts.codec import CodecConfig

        hist, tgt = split_series(ds.series, SplitSpec.by_horizon(ds.holdout))
        backend = OracleBackend(serialize(tgt, fit_scaler(hist, CodecConfig()), CodecConfig()))
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, seed=0, noise_levels=(0.0,))
        report = run_sweep(cfg, tmp_path / "r", backend=backend)
        assert report["cells"][0]["error"] is None
        # the backend that ran is reported, not the config's unused block
        saved = json.loads((tmp_path / "r" / "results.json").read_text())
        assert report["config"]["backend"] == saved["config"]["backend"] == backend.describe()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(datasets=())
        with pytest.raises(ConfigError):
            SweepConfig(datasets=("x.csv",), noise_levels=(-0.1,))
        with pytest.raises(ConfigError):
            SweepConfig(datasets=("x.csv",), kinds=("cauchy",))
        with pytest.raises(ConfigError):
            SweepConfig(datasets=("x.csv",), kinds=("none",))

    def test_usage_and_cost_totals(self, airline_csv, tmp_path):
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, seed=0,
                          noise_levels=(0.0, 0.01))
        report = run_sweep(cfg, tmp_path / "r")
        assert report["usage_total"]["requests"] == 4  # 2 cells x 2 samples
        assert report["cost_total"] is not None  # default model is in the table

    def test_unknown_model_cost_is_null(self, airline_csv, tmp_path):
        from nlts import GenerationParams

        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, seed=0,
                          noise_levels=(0.0,),
                          params=GenerationParams(model="internal-lab-model"))
        report = run_sweep(cfg, tmp_path / "r")
        assert report["cost_total"] is None

    def test_noise_levels_default_matches_published_grid(self):
        assert DEFAULT_NOISE_LEVELS == (0.0, 0.001, 0.005, 0.01, 0.02, 0.05)


class TestMakeBackend:
    @pytest.mark.parametrize("kind", ["replay", "scripted"])
    def test_missing_path_is_config_error(self, airline_csv, tmp_path, kind):
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, backend=BackendSpec(kind))
        with pytest.raises(ConfigError, match=kind):
            run_sweep(cfg, tmp_path / "r")

    def test_unknown_kind_lists_valid_kinds(self, airline_csv, tmp_path):
        with pytest.raises(ConfigError) as err:
            cfg = SweepConfig(datasets=(str(airline_csv),), samples=2, backend=BackendSpec("gpt"))
            run_sweep(cfg, tmp_path / "r")
        assert "'gpt'" in str(err.value)
        assert all(kind in str(err.value) for kind in BACKEND_KINDS)

    @pytest.mark.parametrize("spec, unknown", [
        ({"kind": "oracle", "path": "x"}, "oracle backend keys: ['path']"),
        ({"kind": "echo", "tial": 3}, "bench config keys: ['backend.tial']"),
        ({"kind": "replay", "path": "c.jsonl", "tail": 3}, "replay backend keys: ['tail']"),
        ({"kind": "live", "timeout": 5, "url": "x"},
         "bench config keys: ['backend.timeout', 'backend.url']"),
    ], ids=["oracle-path", "echo-typo", "replay-tail", "live-unknown"])
    def test_unknown_key_is_config_error(self, spec, unknown):
        with pytest.raises(ConfigError) as err:
            make_backend(read_block(BackendSpec, spec, "backend."))
        assert str(err.value) == f"unknown {unknown}"

    @pytest.mark.parametrize("spec, error", [
        ({"kind": "echo", "tail": "x"}, "backend.tail must be a number, got 'x'"),
        ({"kind": "echo", "steps": "many"}, "backend.steps must be a number, got 'many'"),
        ({"kind": "echo", "tail": 2.7}, "backend.tail must be a whole number, got 2.7"),
        ({"kind": "live", "max_retries": "x"}, "backend.max_retries must be a number, got 'x'"),
        ({"kind": "live", "max_retries": None}, "backend.max_retries must be a number, got None"),
    ], ids=["echo-tail", "echo-steps", "echo-fractional-tail", "live-retries", "live-retries-null"])
    def test_bad_number_names_its_key(self, spec, error):
        with pytest.raises(ConfigError) as err:
            make_backend(read_block(BackendSpec, spec, "backend."), target=TimeSeries(np.arange(8.0)))
        assert str(err.value) == error

    def test_api_key_stays_out_of_the_report(self, airline_csv, tmp_path):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = {"kind": "live", "base_url": f"http://127.0.0.1:{port}",
                   "api_key": "sk-secret-123", "max_retries": 0}
        cfg = SweepConfig(datasets=(str(airline_csv),), samples=1, noise_levels=(0.0,),
                          retries_per_sample=0, backend=BackendSpec(**backend))
        report = run_sweep(cfg, tmp_path / "r")
        assert report["cells"][0]["error"].startswith("TransportError")
        expected = {k: v for k, v in backend.items() if k != "api_key"}
        assert report["config"]["backend"] == expected
        assert cfg.backend.api_key == "sk-secret-123"
        for name in ("results.json", "results.csv", "summary.md"):
            assert "sk-secret" not in (tmp_path / "r" / name).read_text()

    def test_echo_without_target_takes_its_steps(self):
        backend = make_backend(BackendSpec("echo", steps=5, tail=2))
        assert backend.describe() == {"backend": "echo", "tail": 2, "steps": 5}

    def test_echo_without_target_or_steps_names_steps(self):
        with pytest.raises(ConfigError) as err:
            make_backend(BackendSpec("echo", tail=2))
        assert str(err.value) == 'echo backend needs "steps" without a target to size it by'

    def test_echo_defaults_follow_target(self):
        target = TimeSeries(np.arange(40.0))
        assert make_backend(BackendSpec("echo"), target=target).describe() == {
            "backend": "echo", "tail": 4, "steps": 80,
        }
        spec = {"kind": "echo", "tail": "2", "steps": 5}
        assert make_backend(read_block(BackendSpec, spec), target=target).describe()["steps"] == 5

    def test_replay_sweep_builds_backend_once(self, tmp_path, monkeypatch):
        datasets = []
        for name, scale in (("a", 1.0), ("b", 3.0)):
            path = tmp_path / f"{name}.csv"
            write_series_csv(path, scale * make_airline_series(), holdout=12)
            datasets.append(str(path))
        cassette = tmp_path / "c.jsonl"
        levels = dict(samples=2, seed=4, noise_levels=(0.0, 0.01))
        recorded = run_sweep(
            SweepConfig(datasets=tuple(datasets), **levels),
            tmp_path / "rec",
            backend=RecordingBackend(EchoTailBackend(4, 24), cassette),
        )
        built = []

        class CountingReplay(ReplayBackend):
            def __init__(self, path):
                built.append(path)
                super().__init__(path)

        monkeypatch.setattr(nlts.bench, "ReplayBackend", CountingReplay)
        cfg = SweepConfig(datasets=tuple(datasets), **levels,
                          backend=BackendSpec("replay", path=str(cassette)))
        replayed = run_sweep(cfg, tmp_path / "rep")
        assert built == [str(cassette)]
        assert replayed["cells"] == recorded["cells"]
        assert all(c["error"] is None for c in replayed["cells"])
