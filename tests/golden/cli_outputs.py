"""The nlts command lines behind tests/golden/cli/.

Each command runs in one working directory with relative paths, so the keys
that carry a path (dataset.path, config.datasets, cassette) read the same on
every machine. The inputs are built from tests/conftest.py's airline series.
tests/golden/cli/ holds the whole directory afterwards: the inputs, every file
the commands wrote, and transcript.txt with each command's output and exit
code. test_cli.py reruns the commands and compares every file byte for byte,
so any change to a forecast, sweep, synth or cassette byte fails.

Regenerate the files after a deliberate output change, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/golden/cli_outputs.py
"""

import json
import os
import re
import shutil
import sys
from pathlib import Path

from click.testing import CliRunner

if __name__ == "__main__":  # pytest puts tests/ on the path, a plain run does not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import make_airline_series, write_series_csv
from nlts.cli import main

GOLDEN = Path(__file__).with_name("cli")
ECHO_SWEEP = {
    "datasets": ["air.csv", "air_long.csv"],
    "noise_levels": [0.0, 0.01],
    "kinds": ["gaussian", "uniform"],
    "samples": 3,
    "seed": 5,
    "backend": {"kind": "echo"},
}
# sample 0 never parses, and the other lines hold 8 steps: air.csv's 6-step
# target forecasts from 2 valid samples of 3, air_long.csv's 12-step target fails
SCRIPTED_SWEEP = {
    "datasets": ["air.csv", "air_long.csv"],
    "noise_levels": [0.0, 0.02],
    "samples": 3,
    "seed": 5,
    "backend": {"kind": "scripted", "path": "lines.txt"},
}
# a backend block with path before kind, and samples as a numeric string: the
# report lists the backend's keys in BackendSpec's order and samples as 3
REORDERED_SWEEP = {
    "datasets": ["air.csv"],
    "noise_levels": [0.0, 0.02],
    "samples": "3",
    "seed": 5,
    "backend": {"path": "lines.txt", "kind": "scripted"},
}
EIGHT_STEPS = "5 1 0, 5 2 0, 5 3 0, 5 4 0, 5 5 0, 5 6 0, 5 7 0, 5 8 0"
SCRIPTED_LINES = ["no numbers here", EIGHT_STEPS, EIGHT_STEPS]
FORECAST = ("forecast", "--data", "air.csv", "--samples", "4", "--seed", "3")
COMMANDS = (
    (*FORECAST, "--noise", "gaussian", "--alpha", "0.02", "--out", "oracle_gaussian.json"),
    (*FORECAST, "--backend", "echo", "--style", "chat", "--noise", "laplace", "--alpha", "0.05",
     "--record", "echo_chat_laplace.jsonl", "--out", "echo_chat_laplace.json"),
    (*FORECAST, "--style", "chat", "--noise", "laplace", "--alpha", "0.05",
     "--replay", "echo_chat_laplace.jsonl", "--out", "replay_chat_laplace.json"),
    (*FORECAST, "--backend", "echo", "--out", "echo_noise_free.json"),
    ("bench", "--config", "echo_sweep.json", "--out", "bench_echo"),
    ("bench", "--config", "scripted_sweep.json", "--out", "bench_scripted"),
    ("synth", "--count", "2", "--length", "24", "--holdout", "4", "--seed", "3", "--out", "synth"),
    ("bench", "--config", "reordered_sweep.json", "--out", "bench_reordered"),
)


def run() -> None:
    """Write the inputs to the working directory and run every command there."""
    write_series_csv(Path("air.csv"), make_airline_series(48), holdout=6)
    write_series_csv(Path("air_long.csv"), make_airline_series(60), holdout=12)
    Path("echo_sweep.json").write_text(json.dumps(ECHO_SWEEP, indent=2) + "\n")
    Path("scripted_sweep.json").write_text(json.dumps(SCRIPTED_SWEEP, indent=2) + "\n")
    Path("reordered_sweep.json").write_text(json.dumps(REORDERED_SWEEP, indent=2) + "\n")
    Path("lines.txt").write_text("\n".join(SCRIPTED_LINES) + "\n")
    runner = CliRunner()
    transcript = []
    for args in COMMANDS:
        result = runner.invoke(main, args)
        transcript.append(f"$ nlts {' '.join(args)}\n{result.output}[exit {result.exit_code}]\n")
    Path("transcript.txt").write_text("".join(transcript))


def outputs(root: Path) -> dict[str, bytes]:
    """Every file under root by its relative path. Manifests record the
    installed numpy's version; it is masked, so that a numpy that draws the
    same PCG64 streams does not fail the comparison."""
    return {
        path.relative_to(root).as_posix():
            re.sub(rb'"numpy": "[^"]*"', b'"numpy": "*"', path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def record(dest: Path = GOLDEN) -> None:
    """Rerun every command in a fresh dest and keep its files."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir()
    cwd = os.getcwd()
    os.chdir(dest)
    try:
        run()
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    record()
    print(f"recorded {len(outputs(GOLDEN))} files to {GOLDEN}")
