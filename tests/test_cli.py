import json
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

import nlts.bench
import nlts.cli
from nlts import errors
from nlts.backend import GenerationParams
from nlts.bench import BackendSpec, SweepConfig, run_sweep
from nlts.codec import CodecConfig
from nlts.core import SplitSpec
from nlts.cli import main, sweep_config_from_dict
from nlts.errors import ConfigError
from nlts.pipeline import ForecastJob

from conftest import make_airline_series, write_series_csv
from golden import cli_outputs


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def airline_csv(tmp_path):
    p = tmp_path / "airline.csv"
    write_series_csv(p, make_airline_series())
    return p


class TestForecastCommand:
    def test_oracle_run_writes_json(self, runner, airline_csv, tmp_path):
        out = tmp_path / "fc.json"
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:12",
            "--backend", "oracle", "--samples", "5", "--seed", "42",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["schema"] == "nlts.forecast/1"
        assert len(payload["median"]) == 12
        assert payload["valid_samples"] == 5
        assert payload["evaluation"]["mse"] < 1e-6
        assert payload["dataset"]["horizon"] == 12

    def test_stdout_when_no_out(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:6",
            "--backend", "oracle", "--samples", "2",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert len(payload["median"]) == 6

    def test_noisy_oracle(self, runner, airline_csv, tmp_path):
        out = tmp_path / "fc.json"
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:12",
            "--backend", "oracle", "--noise", "gaussian", "--alpha", "0.02",
            "--samples", "10", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["valid_samples"] == 10
        assert all(v > 0 for v in payload["variance"])

    def test_echo_backend(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:4",
            "--backend", "echo", "--samples", "3", "--echo-tail", "2",
        ])
        assert result.exit_code == 0, result.output

    def test_chat_style(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:4",
            "--backend", "echo", "--style", "chat", "--samples", "2",
        ])
        assert result.exit_code == 0, result.output

    def test_fraction_split(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "frac:0.9",
            "--backend", "oracle", "--samples", "2",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["dataset"]["history"] == 130  # ceil(0.9 * 144)

    def test_bad_split_string(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "half",
            "--backend", "oracle",
        ])
        assert result.exit_code != 0

    @pytest.mark.parametrize("split", ["frac:1.5", "frac:abc", "horizon:0", "horizon:2.5"])
    def test_bad_split_value_is_bad_parameter(self, runner, airline_csv, split):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", split, "--backend", "oracle",
        ])
        assert result.exit_code == 2  # click's usage error
        assert f"bad split '{split}'" in result.output

    def test_replay_needs_cassette(self, runner, airline_csv):
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--backend", "replay",
        ])
        assert result.exit_code != 0
        assert "replay" in result.output

    @pytest.mark.parametrize("kind", ["missing", "latin1"])
    def test_unreadable_cassette_is_config_error(self, runner, airline_csv, tmp_path, kind):
        cassette = tmp_path / "c.jsonl"
        if kind == "latin1":
            cassette.write_bytes("caf\xe9\n".encode("latin-1"))
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--replay", str(cassette),
        ])
        assert result.exit_code == 1
        assert f"Error: ConfigError: cannot read cassette {cassette}: " in result.output

    def test_record_under_a_file_is_config_error(self, runner, airline_csv):
        cassette = airline_csv / "c.jsonl"
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--backend", "oracle",
            "--record", str(cassette),
        ])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write cassette directory {airline_csv}: File exists\n")

    def test_defaults_are_the_dataclass_defaults(self):
        defaults = {p.name: p.default for p in main.commands["forecast"].params}
        expected = {
            "model": GenerationParams.model,
            "temperature": GenerationParams.temperature,
            "top_p": GenerationParams.top_p,
            "max_tokens": GenerationParams.max_tokens,
            "precision": CodecConfig.precision_k,
            "signed": CodecConfig.signed,
            "basic_mode": CodecConfig.basic_mode,
            "half_bin": CodecConfig.half_bin_correction,
            "samples": ForecastJob.samples,
            "retries": ForecastJob.retries_per_sample,
            "style": ForecastJob.prompt_style,
            "backend_kind": BackendSpec.kind,
            "seed": 42,
        }
        assert {name: defaults[name] for name in expected} == expected

    def test_record_then_replay_byte_identical(self, runner, airline_csv, tmp_path):
        cassette = tmp_path / "c.jsonl"
        record = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--split", "horizon:6",
            "--backend", "oracle", "--samples", "3", "--seed", "1",
            "--record", str(cassette), "--out", str(tmp_path / "rec.json"),
        ])
        assert record.exit_code == 0, record.output
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            replay = runner.invoke(main, [
                "forecast", "--data", str(airline_csv), "--split", "horizon:6",
                "--samples", "3", "--seed", "1",
                "--replay", str(cassette), "--out", str(out),
            ])
            assert replay.exit_code == 0, replay.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_holdout_column_mismatch_rejected(self, runner, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p, make_airline_series(), holdout=10)
        result = runner.invoke(main, [
            "forecast", "--data", str(p), "--split", "horizon:12", "--backend", "oracle",
        ])
        assert result.exit_code != 0
        assert "holdout" in result.output


    @pytest.mark.parametrize("holdout, history", [(12, 132), (0, 116)])  # 116 = ceil(0.8 * 144)
    def test_split_defaults_to_the_holdout(self, runner, tmp_path, holdout, history):
        data = tmp_path / "s.csv"
        write_series_csv(data, make_airline_series(), holdout=holdout)
        result = runner.invoke(main, ["forecast", "--data", str(data), "--samples", "2"])
        assert result.exit_code == 0, result.output
        dataset = json.loads(result.output)["dataset"]
        assert (dataset["history"], dataset["horizon"]) == (history, 144 - history)

    def test_out_in_missing_directory_is_reported(self, runner, airline_csv, tmp_path):
        out = tmp_path / "missing" / "fc.json"
        result = runner.invoke(main, [
            "forecast", "--data", str(airline_csv), "--samples", "2", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write output {out}: No such file or directory\n")

    def test_non_utf8_data_is_schema_error(self, runner, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes("t,value\n1,22\n2,café\n".encode("latin-1"))
        result = runner.invoke(main, ["forecast", "--data", str(data)])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: ConfigError: cannot read dataset {data}: 'utf-8' "
                                        "codec can't decode byte 0xe9 in position 18")


class TestOneBackendSpec:
    """`nlts forecast` flags and a sweep's backend block go through one factory."""

    @pytest.mark.parametrize("kind", ["oracle", "echo", "replay"])
    def test_forecast_and_sweep_build_equal_backends(self, runner, tmp_path, monkeypatch, kind):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        base = ["forecast", "--data", str(data), "--split", "horizon:12", "--samples", "2"]
        cassette = tmp_path / "c.jsonl"
        flags = {
            "oracle": (["--backend", "oracle"], BackendSpec("oracle")),
            "echo": (["--backend", "echo", "--echo-tail", "3"], BackendSpec("echo", tail=3)),
            "replay": (["--replay", str(cassette)], BackendSpec("replay", path=str(cassette))),
        }
        args, spec = flags[kind]
        if kind == "replay":
            recorded = runner.invoke(main, base + ["--backend", "echo", "--record", str(cassette)])
            assert recorded.exit_code == 0, recorded.output
        result = runner.invoke(main, base + args + ["--out", str(tmp_path / "fc.json")])
        assert result.exit_code == 0, result.output
        from_cli = json.loads((tmp_path / "fc.json").read_text())["manifest"]["backend"]

        seen = []
        real_run_nlts = nlts.bench.run_nlts

        def capture(job, backend):
            seen.append(backend.describe())
            return real_run_nlts(job, backend)

        monkeypatch.setattr(nlts.bench, "run_nlts", capture)
        cfg = SweepConfig(datasets=(str(data),), samples=2, noise_levels=(0.0,), backend=spec)
        run_sweep(cfg, tmp_path / "report")
        assert seen == [from_cli]


class TestSynthCommand:
    def test_all_kernels(self, runner, tmp_path):
        out = tmp_path / "suite"
        result = runner.invoke(main, [
            "synth", "--kernels", "all", "--count", "2", "--length", "30",
            "--holdout", "5", "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(list(out.glob("*.csv"))) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_kernel_subset(self, runner, tmp_path):
        out = tmp_path / "suite"
        result = runner.invoke(main, [
            "synth", "--kernels", "rbf,matern", "--count", "1", "--length", "20",
            "--holdout", "4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["matern_0000.csv", "rbf_0000.csv"]

    def test_unknown_kernel(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--kernels", "fourier", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code != 0

    def test_negative_seed_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--kernels", "rbf", "--count", "1", "--length", "10",
            "--holdout", "2", "--seed", "-1", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 1
        assert result.output == "Error: ConfigError: seed must be >= 0, got -1\n"

    def test_deeply_nested_config_is_reported(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output.startswith(
            f"Error: ConfigError: cannot parse config {config}: maximum recursion depth")

    def test_out_under_a_file_is_config_error(self, runner, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("x\n")
        out = afile / "sub"
        result = runner.invoke(main, [
            "synth", "--kernels", "rbf", "--count", "1", "--length", "10",
            "--holdout", "2", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write suite directory {out}: Not a directory\n")

    def test_unwritable_series_file_is_config_error(self, runner, tmp_path):
        series = tmp_path / "rbf_0000.csv"
        series.mkdir()
        result = runner.invoke(main, [
            "synth", "--kernels", "rbf", "--count", "1", "--length", "10",
            "--holdout", "2", "--out", str(tmp_path),
        ])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write series {series}: Is a directory\n")

    def test_bad_holdout(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--kernels", "rbf", "--count", "1", "--length", "10",
            "--holdout", "10", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code != 0


class TestBenchCommand:
    def test_sweep_via_cli(self, runner, tmp_path):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "datasets": [str(data)],
            "samples": 2,
            "seed": 5,
            "backend": {"kind": "oracle"},
        }))
        out = tmp_path / "report"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "results.json").read_text())
        assert [c["label"] for c in report["cells"]] == [
            "Original", "0.001", "0.005", "0.01", "0.02", "0.05",
        ]

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    @pytest.mark.parametrize("backend, what", [("scripted", "fixture"), ("replay", "cassette")])
    def test_unreadable_backend_file_is_config_error(self, runner, tmp_path, kind, backend, what):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        path = tmp_path / "lines.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin1":
            path.write_bytes("caf\xe9\n".encode("latin-1"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "datasets": [str(data)], "backend": {"kind": backend, "path": str(path)},
        }))
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert f"Error: ConfigError: cannot read {what} {path}: " in result.output

    def test_out_under_a_file_is_config_error(self, runner, tmp_path):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": [str(data)], "samples": 2}))
        out = data / "sub"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write report directory {out}: Not a directory\n")

    def test_unwritable_report_file_is_config_error(self, runner, tmp_path):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": [str(data)], "samples": 2}))
        report = tmp_path / "o" / "results.json"
        report.mkdir(parents=True)
        out = report.parent
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: cannot write report {report}: Is a directory\n")

    def test_non_utf8_config_is_reported(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes('{"datasets": ["caf\xe9.csv"]}'.encode("latin-1"))
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.output.startswith(
            f"Error: ConfigError: cannot read config {config}: 'utf-8' codec can't decode")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", ['{"datasets": [', "1" * 5000],
                             ids=["truncated", "huge-int"])
    def test_unparsable_config_is_config_error(self, runner, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: ConfigError: cannot parse config {config}: ")
        assert "Traceback" not in result.output
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": ["x.csv"], "nois_levels": [0.1]}))
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code != 0
        assert "nois_levels" in result.output

    @pytest.mark.parametrize("split", [
        {"mode": "fraction", "fraction": 1.5},
        {"mode": "fraction", "fraction": "half"},
        {"mode": "horizon", "horizon": 0},
    ])
    def test_bad_split_is_reported(self, runner, tmp_path, split):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": ["x.csv"], "split": split}))
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "ConfigError" in result.output
        assert not isinstance(result.exception, ValueError)

    def test_config_parser(self):
        cfg = sweep_config_from_dict({
            "datasets": ["a.csv"],
            "noise_levels": [0.0, 0.01],
            "kinds": ["laplace"],
            "samples": 4,
            "seed": 9,
            "split": {"mode": "horizon", "horizon": 5},
            "codec": {"precision_k": 2},
            "params": {"model": "GPT-4", "stop": ["\n"]},
            "normalization": "none",
        })
        assert cfg.noise_levels == (0.0, 0.01)
        assert cfg.kinds == ("laplace",)
        assert cfg.split.horizon == 5
        assert cfg.codec.precision_k == 2
        assert cfg.params.model == "GPT-4"
        assert cfg.params.stop == ("\n",)

    def test_config_parser_rejects_unknown(self):
        with pytest.raises(ConfigError):
            sweep_config_from_dict({"datasets": ["a.csv"], "noize": 1})
        with pytest.raises(ConfigError):
            sweep_config_from_dict({})


    @pytest.mark.parametrize("config, key", [
        ([{"datasets": ["a.csv"]}], ""),
        ({"datasets": ["a.csv"], "split": "horizon:1"}, "'split' "),
        ({"datasets": ["a.csv"], "codec": [2]}, "'codec' "),
        ({"datasets": ["a.csv"], "params": "x"}, "'params' "),
        ({"datasets": ["a.csv"], "params": None}, "'params' "),
        ({"datasets": ["a.csv"], "backend": "live"}, "'backend' "),
    ])
    def test_non_object_config_block_is_config_error(self, runner, tmp_path, config, key):
        with pytest.raises(ConfigError, match=f"bench config {key}must be"):
            sweep_config_from_dict(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "Error: ConfigError: bench config" in result.output

    def test_null_split_keeps_the_default(self):
        assert sweep_config_from_dict({"datasets": ["a.csv"], "split": None}).split is None

    @pytest.mark.parametrize("extra, error", [
        ({"split": {"mode": "fraction"}}, "fraction mode needs fraction in (0, 1)"),
        ({"split": {"mode": "horizon"}}, "horizon mode needs a positive integer horizon"),
        ({"split": {}}, "horizon mode needs a positive integer horizon"),
        ({"codec": {"base": 10}}, "unknown bench config keys: ['codec.base']"),
        ({"codec": {"precision": 2}}, "unknown bench config keys: ['codec.precision']"),
        ({"params": {"temp": 0.5}}, "unknown bench config keys: ['params.temp']"),
        ({"datasets": "air.csv"}, "datasets must be a list, got 'air.csv'"),
        ({"kinds": "gaussian"}, "kinds must be a list, got 'gaussian'"),
        ({"noise_levels": "0.01"}, "noise_levels must be a list, got '0.01'"),
        ({"split": {"mode": "bogus", "horizon": 5, "fraction": 0.5}}, "unknown split mode 'bogus'"),
        ({"split": {"horizon": 5, "fraction": 0.5}}, "horizon mode takes no fraction"),
        ({"split": {"horizon": 5.7}}, "split.horizon must be a whole number, got 5.7"),
        ({"split": {"horizon": 5, "hold": 2}}, "unknown bench config keys: ['split.hold']"),
        ({"codec": {"step_separator": ";"}}, "unknown bench config keys: ['codec.step_separator']"),
        ({"backend": {"kind": "echo", "tail": "x"}}, "backend.tail must be a number, got 'x'"),
        ({"backend": {"kind": "echo", "steps": "many"}},
         "backend.steps must be a number, got 'many'"),
        ({"backend": {"kind": "echo", "tail": 2.7}}, "backend.tail must be a whole number, got 2.7"),
        ({"backend": {"kind": "live", "max_retries": "x"}},
         "backend.max_retries must be a number, got 'x'"),
        ({"seed": "x"}, "seed must be a number, got 'x'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"samples": 0}, "samples must be >= 1, got 0"),
        ({"samples": "three"}, "samples must be a number, got 'three'"),
        ({"samples": 2.5}, "samples must be a whole number, got 2.5"),
        ({"prompt_style": "xml"}, "unknown prompt_style 'xml', expected one of ('raw', 'chat')"),
        ({"retries_per_sample": -1}, "retries_per_sample must be >= 0, got -1"),
        ({"codec": {"signed": "false", "half_bin_correction": "false"}},
         "codec.signed must be true or false, got 'false'"),
        ({"codec": {"precision_k": 2.5}}, "codec.precision_k must be a whole number, got 2.5"),
        ({"params": {"model": 5}}, "params.model must be a string, got 5"),
        ({"params": {"stop": "\n\n"}}, "params.stop must be a list, got '\\n\\n'"),
        ({"noise_levels": ["x"]}, "noise_levels[0] must be a number, got 'x'"),
        ({"noise_levels": [float("nan")]}, "noise_levels[0] must be a finite number, got nan"),
        ({"seed": True}, "seed must be a number, got True"),
        ({"datasets": [1]}, "datasets[0] must be a string, got 1"),
        ({"noise_levels": [0.0, float("inf")]},
         "noise_levels[1] must be a finite number, got inf"),
        ({"codec": {"max_digits_per_value": 400}},
         "codec.max_digits_per_value must be <= 19, got 400"),
    ], ids=["split-fraction", "split-horizon", "split-no-mode", "codec-base", "codec-unknown",
            "params-unknown", "datasets-string", "kinds-string", "levels-string",
            "split-bogus-mode", "split-unused-key", "split-fractional-horizon", "split-unknown",
            "codec-step-separator", "backend-tail", "backend-steps", "backend-fractional-tail",
            "backend-max-retries", "seed-string", "seed-negative", "samples-zero",
            "samples-string", "samples-fractional", "prompt-style", "retries-negative",
            "codec-signed-string", "codec-fractional-precision", "params-model-number",
            "params-stop-string", "levels-string-entry", "levels-nan", "seed-bool",
            "datasets-number", "levels-infinity", "codec-max-digits"])
    def test_bad_config_value_names_its_key(self, runner, tmp_path, extra, error):
        config = {"datasets": ["a.csv"], **extra}
        with pytest.raises(ConfigError) as excinfo:
            sweep_config_from_dict(config)
        assert str(excinfo.value) == error
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["bench", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert f"Error: ConfigError: {error}\n" in result.output
        assert not (tmp_path / "o" / "results.json").exists()

    def test_scalar_numbers_are_coerced(self):
        cfg = sweep_config_from_dict(
            {"datasets": ["a.csv"], "samples": "3", "seed": "7", "retries_per_sample": 2.0}
        )
        assert (cfg.samples, cfg.seed, cfg.retries_per_sample) == (3, 7, 2)
        assert all(type(v) is int for v in (cfg.samples, cfg.seed, cfg.retries_per_sample))

    # every key of every block, as JSON writes it; the backend keys are
    # spread over three kinds, since no kind takes them all
    FULL_CONFIG = {
        "datasets": ["a.csv", "b.csv"],
        "noise_levels": [0, "0.01"],
        "kinds": ["laplace", "uniform"],
        "samples": "4",
        "seed": 9.0,
        "split": {"mode": "fraction", "fraction": "0.75", "horizon": None},
        "codec": {"precision_k": "2", "signed": False, "basic_mode": True, "scale_quantile": 0.9,
                  "offset_beta": "0.1", "half_bin_correction": False, "max_digits_per_value": 8},
        "params": {"model": "GPT-4", "temperature": "0.5", "top_p": 1, "max_tokens": 64.0,
                   "num_samples": 1, "stop": ["\n"]},
        "prompt_style": "chat",
        "retries_per_sample": 2,
        "normalization": "none",
    }
    FULL_TYPED = dict(
        datasets=("a.csv", "b.csv"),
        noise_levels=(0.0, 0.01),
        kinds=("laplace", "uniform"),
        samples=4,
        seed=9,
        split=SplitSpec("fraction", fraction=0.75),
        codec=CodecConfig(precision_k=2, signed=False, basic_mode=True, scale_quantile=0.9,
                          offset_beta=0.1, half_bin_correction=False, max_digits_per_value=8),
        params=GenerationParams(model="GPT-4", temperature=0.5, top_p=1.0, max_tokens=64,
                                num_samples=1, stop=("\n",)),
        prompt_style="chat",
        retries_per_sample=2,
        normalization="none",
    )
    BACKENDS = [
        ({"kind": "echo", "tail": "3", "steps": 5.0}, BackendSpec("echo", tail=3, steps=5)),
        ({"path": "c.jsonl", "kind": "replay"}, BackendSpec("replay", path="c.jsonl")),
        ({"kind": "live", "base_url": "http://127.0.0.1:1", "api_key": None, "max_retries": "5"},
         BackendSpec("live", base_url="http://127.0.0.1:1", max_retries=5)),
    ]

    def test_round_trip_names_every_key(self):
        def names(cls):
            return {f.name for f in fields(cls)}

        assert {*self.FULL_CONFIG, "backend"} == names(SweepConfig)
        for key, cls in (("split", SplitSpec), ("codec", CodecConfig),
                         ("params", GenerationParams)):
            assert set(self.FULL_CONFIG[key]) == names(cls), key
        assert set().union(*(block for block, _ in self.BACKENDS)) == names(BackendSpec)

    @pytest.mark.parametrize("block, spec", BACKENDS, ids=["echo", "replay", "live"])
    def test_every_key_reads_as_its_typed_value(self, block, spec):
        cfg = sweep_config_from_dict({**self.FULL_CONFIG, "backend": block})
        typed = SweepConfig(**self.FULL_TYPED, backend=spec)
        assert cfg == typed
        assert repr(cfg) == repr(typed)  # 4 == 4.0, but their reprs differ

    def test_backend_key_typo_is_config_error(self, runner, tmp_path):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "datasets": [str(data)], "samples": 2, "backend": {"kind": "echo", "tial": 3},
        }))
        out = tmp_path / "report"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1
        assert "Error: ConfigError: unknown bench config keys: ['backend.tial']\n" in result.output
        assert not (out / "results.json").exists()

    def test_missing_dataset_is_schema_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": ["missing.csv"]}))
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.output == (
            "Error: ConfigError: cannot read dataset missing.csv: No such file or directory\n")

    def test_params_num_samples_fails_every_cell(self, runner, tmp_path):
        data = tmp_path / "airline.csv"
        write_series_csv(data, make_airline_series(), holdout=12)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "datasets": [str(data)], "samples": 2, "noise_levels": [0.0, 0.01],
            "params": {"num_samples": 3},
        }))
        out = tmp_path / "report"
        result = runner.invoke(main, ["bench", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3
        cells = json.loads((out / "results.json").read_text())["cells"]
        assert len(cells) == 2
        assert all(c["error"].startswith("ConfigError: params.num_samples must be 1") for c in cells)


class TestTheoryCheckCommand:
    def test_default_scale_run(self, runner, tmp_path):
        out = tmp_path / "t.json"
        result = runner.invoke(main, [
            "theory-check", "--dim", "4", "--sigma", "0.1", "--draws", "50000",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["predicted_gap"] == pytest.approx(-0.02)
        assert payload["measured_gap"] == pytest.approx(-0.02, rel=0.1)

    def test_bad_draws(self, runner):
        result = runner.invoke(main, ["theory-check", "--draws", "10"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
    def test_sigma_must_be_finite_and_nonnegative(self, runner, sigma):
        result = runner.invoke(main, ["theory-check", "--sigma", sigma, "--draws", "10000"])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ConfigError: sigma must be finite and >= 0, got {float(sigma)}\n"
        )

    @pytest.mark.parametrize("sigma", ["0.1", "0"])
    def test_negative_seed_is_a_config_error(self, runner, sigma):
        result = runner.invoke(main, [
            "theory-check", "--sigma", sigma, "--draws", "10000", "--seed", "-1",
        ])
        assert result.exit_code == 1
        assert result.output == "Error: ConfigError: seed must be >= 0, got -1\n"


class TestCostCommand:
    def test_known_model(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({
            "model": "GPT-3.5-Turbo-Instruct",
            "prompt_tokens": 2000,
            "completion_tokens": 500,
        }))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["cost_usd"] == pytest.approx(0.004)

    def test_nested_usage_block(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({
            "model": "Claude-3-Opus",
            "usage": {"prompt_tokens": 1000, "completion_tokens": 1000, "requests": 2},
        }))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["cost_usd"] == pytest.approx(0.192)

    @pytest.mark.parametrize("usage_block", [
        {"prompt_tokens": "many", "completion_tokens": 1},
        {"usage": {"prompt_tokens": [1]}},
        {"usage": [1, 2]},
    ])
    def test_bad_usage_is_reported(self, runner, tmp_path, usage_block):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": "GPT-4", **usage_block}))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: ConfigError: usage file {usage}: ")

    @pytest.mark.parametrize("option, what", [("--usage", "usage file"), ("--table", "price table")])
    def test_non_utf8_file_is_config_error(self, runner, tmp_path, option, what):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": "GPT-4", "prompt_tokens": 1, "completion_tokens": 1}))
        files = {"--usage": usage, "--table": tmp_path / "t.json"}
        files["--table"].write_text("{}")
        files[option].write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
        result = runner.invoke(main, ["cost", "--usage", str(usage), "--table", str(files["--table"])])
        assert result.exit_code == 1
        assert result.output.startswith(
            f"Error: ConfigError: cannot read {what} {files[option]}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("content", ["[1, 2]", "3", "null"])
    def test_non_object_usage_file_is_reported(self, runner, tmp_path, content):
        usage = tmp_path / "u.json"
        usage.write_text(content)
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 1
        assert "Error: ConfigError: usage file must hold a JSON object" in result.output

    @pytest.mark.parametrize("table, error", [
        ("[1]", "ConfigError: price table must hold a JSON object, not list"),
        ('{"m": 1}', "ConfigError: price entry for 'm' must be an object"),
        ('{"m": [0.1, 0.2]}', "ConfigError: price entry for 'm' must be an object"),
        ('{"m": {"completion_per_1k": 1}}', "ConfigError: price entry for 'm'"),
        ('{"m": {"prompt_per_1k": "cheap", "completion_per_1k": 1}}',
         "ConfigError: price entry for 'm'"),
        ('{"m": {"prompt_per_1k": null, "completion_per_1k": 1}}',
         "ConfigError: price entry for 'm'"),
        ('{"m": {"prompt_per_1k": NaN, "completion_per_1k": 1}}',
         "ConfigError: negative or non-finite price for 'm'"),
        ('{"m": {"prompt_per_1k": Infinity, "completion_per_1k": 1}}',
         "ConfigError: negative or non-finite price for 'm'"),
    ])
    def test_malformed_price_table_is_reported(self, runner, tmp_path, table, error):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": "m", "prompt_tokens": 1, "completion_tokens": 1}))
        path = tmp_path / "prices.json"
        path.write_text(table)
        result = runner.invoke(main, ["cost", "--usage", str(usage), "--table", str(path)])
        assert result.exit_code == 1
        assert f"Error: {error}" in result.output

    @pytest.mark.parametrize("count, error", [
        ("-1000", "usage prompt_tokens must be >= 0, got -1000"),
        ("1e400", "usage prompt_tokens must be a whole number, got inf"),
        ("2.5", "usage prompt_tokens must be a whole number, got 2.5"),
        pytest.param(str(2**53 + 1), f"usage prompt_tokens must be <= 2**53, got {2**53 + 1}",
                     id="2**53+1"),
        pytest.param("1" + "0" * 400, "usage prompt_tokens must be <= 2**53, got 1" + "0" * 400,
                     id="10**400"),
    ])
    def test_bad_token_count_is_reported(self, runner, tmp_path, count, error):
        usage = tmp_path / "u.json"
        usage.write_text('{"model": "GPT-4", "prompt_tokens": %s, "completion_tokens": 1}' % count)
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 1
        assert result.output == f"Error: ConfigError: usage file {usage}: {error}\n"

    @pytest.mark.parametrize("option", ["--usage", "--table"])
    def test_deeply_nested_file_is_reported(self, runner, tmp_path, option):
        result, path, what = self.invoke_with_file(runner, tmp_path, option, "[" * 100_000)
        assert result.exit_code == 1
        assert result.output.startswith(
            f"Error: ConfigError: cannot parse {what} {path}: maximum recursion depth")

    @pytest.mark.parametrize("content", ['{"m": {"prompt_per_1k"', "1" * 5000],
                             ids=["truncated", "huge-int"])
    @pytest.mark.parametrize("option", ["--usage", "--table"])
    def test_unparsable_file_is_config_error(self, runner, tmp_path, option, content):
        result, path, what = self.invoke_with_file(runner, tmp_path, option, content)
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: ConfigError: cannot parse {what} {path}: ")
        assert "Traceback" not in result.output

    @staticmethod
    def invoke_with_file(runner, tmp_path, option, content):
        """Run nlts cost on valid usage and price files, with the file that
        option names holding content instead."""
        files = {"--usage": tmp_path / "u.json", "--table": tmp_path / "t.json"}
        files["--usage"].write_text(json.dumps({"model": "m", "prompt_tokens": 1}))
        files["--table"].write_text(json.dumps({"m": {"prompt_per_1k": 1, "completion_per_1k": 1}}))
        files[option].write_text(content)
        result = runner.invoke(main, ["cost", "--usage", str(files["--usage"]),
                                      "--table", str(files["--table"])])
        return result, files[option], {"--usage": "usage file", "--table": "price table"}[option]

    def test_unknown_model_null(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({
            "model": "sekret-model", "prompt_tokens": 10, "completion_tokens": 10,
        }))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["cost_usd"] is None
        assert "note" in payload

    def test_model_override_and_custom_table(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": "x", "prompt_tokens": 1000, "completion_tokens": 0}))
        table = tmp_path / "prices.json"
        table.write_text(json.dumps({"y": {"prompt_per_1k": 2.0, "completion_per_1k": 0.0}}))
        result = runner.invoke(main, [
            "cost", "--usage", str(usage), "--model", "y", "--table", str(table),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["cost_usd"] == pytest.approx(2.0)

    def test_non_string_model_is_config_error(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": 5, "prompt_tokens": 1, "completion_tokens": 1}))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: ConfigError: the usage file or --model must name a model, got 5\n"
        )

    def test_no_model_anywhere(self, runner, tmp_path):
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"prompt_tokens": 1}))
        result = runner.invoke(main, ["cost", "--usage", str(usage)])
        assert result.exit_code != 0


class TestErrorBoundary:
    @pytest.mark.parametrize("command, target, error", [
        ("forecast", "run_nlts", "InsufficientSamplesError"),
        ("synth", "generate_benchmark", "CholeskyError"),
        ("bench", "run_sweep", "TransportError"),
        ("theory-check", "theory_check", "NonFiniteError"),
        ("cost", "estimate_cost", "AggregationError"),
    ])
    def test_every_command_reports_an_nlts_error_in_one_line(
        self, runner, airline_csv, tmp_path, monkeypatch, command, target, error
    ):
        def fail(*args, **kwargs):
            raise getattr(errors, error)("injected")

        monkeypatch.setattr(nlts.cli, target, fail)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"datasets": [str(airline_csv)]}))
        usage = tmp_path / "u.json"
        usage.write_text(json.dumps({"model": "GPT-4", "prompt_tokens": 1}))
        args = {
            "forecast": ["--data", str(airline_csv)],
            "synth": ["--out", str(tmp_path / "synth")],
            "bench": ["--config", str(config), "--out", str(tmp_path / "o")],
            "theory-check": ["--draws", "10000"],
            "cost": ["--usage", str(usage)],
        }[command]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 1
        assert result.output == f"Error: {error}: injected\n"


class TestGoldenOutputs:
    """The commands of tests/golden/cli_outputs.py write the files recorded in
    tests/golden/cli/, byte for byte."""

    def test_every_file_matches(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli_outputs.run()
        got = cli_outputs.outputs(tmp_path)
        want = cli_outputs.outputs(cli_outputs.GOLDEN)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
