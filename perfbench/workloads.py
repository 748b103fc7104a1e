"""The benchmark's inputs and workloads.

Every workload is a closed loop with one caller: a round is one call into the
program, and the next round starts when it returns. A round does the same
operations every time, so a run is a whole number of identical rounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from stub import StubProcess

HERE = Path(__file__).resolve().parent

# Monthly series forecast one year ahead, as the airline baseline in ROADMAP.md
# (144 months, the last 12 held out). History lengths: 132 is that baseline,
# 400 the history of an `nlts synth` series at its defaults (430 points, 30
# held out); 66 and 264 halve and double the airline history, so that prompt
# length spans six-fold.
HORIZON = 12
HISTORY_LENGTHS = (66, 132, 264, 400)
NOISE_KINDS = ("gaussian", "uniform", "laplace")
NOISE_LEVELS = (0.001, 0.005, 0.01, 0.02, 0.05)
SAMPLES = 10
CELLS_PER_DATASET = 1 + len(NOISE_KINDS) * len(NOISE_LEVELS)
# The loopback latency of the stub baseline in ROADMAP.md.
HTTP_LATENCY_MS = 50.0

# `nlts synth` defaults for length and holdout; the count only scales a round.
SYNTH_COUNT = 40
SYNTH_LENGTH = 430
SYNTH_HOLDOUT = 30

SETUP_REPEATS = 5


@dataclass
class Round:
    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    op_wall: list[float] = field(default_factory=list)
    op_cpu: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    usage: dict | None = None
    valid_samples: int = 0
    stub: dict | None = None


def airline_series(length: int, rng: np.random.Generator) -> np.ndarray:
    """Monthly airline-passenger shape: rising trend, multiplicative yearly
    season and a small wobble, with shape parameters drawn from `rng`.
    Values stay above 40, so the signed scaler sees positive histories."""
    t = np.arange(length, dtype=float)
    level = rng.uniform(80.0, 150.0)
    slope = rng.uniform(1.0, 4.0)
    amplitude = rng.uniform(0.1, 0.3)
    phase = rng.uniform(0.0, 2 * np.pi)
    wobble = rng.uniform(2.0, 8.0)
    season = 1.0 + amplitude * np.sin(2 * np.pi * t / 12.0 + phase)
    values = (level + slope * t) * season + wobble * np.sin(0.9 * t) * np.cos(0.23 * t + 1.3)
    return np.round(values, 1)


def dataset_paths(directory: Path) -> list[Path]:
    return [directory / f"airline_{history}.csv" for history in HISTORY_LENGTHS]


def write_datasets(directory: Path, seed: int) -> dict[str, tuple[Path, np.ndarray]]:
    """One CSV per history length, the last HORIZON rows flagged as holdout."""
    directory.mkdir(parents=True, exist_ok=True)
    datasets = {}
    for i, (history, path) in enumerate(zip(HISTORY_LENGTHS, dataset_paths(directory))):
        values = airline_series(history + HORIZON, np.random.default_rng([seed, i]))
        name = path.stem
        rows = ["t,value,is_holdout"] + [
            f"{t},{v!r},{int(t >= history)}" for t, v in enumerate(values.tolist())
        ]
        path.write_text("\n".join(rows) + "\n")
        datasets[name] = (path, values)
    return datasets


def sweep_config(paths: list[Path], seed: int, backend: dict) -> dict:
    """The sweep as an `nlts bench` JSON config."""
    return {
        "datasets": [str(path) for path in paths],
        "noise_levels": [0.0, *NOISE_LEVELS],
        "kinds": list(NOISE_KINDS),
        "samples": SAMPLES,
        "seed": seed,
        "backend": backend,
    }


def time_setups(src: Path, construct: str) -> list[float]:
    """CPU seconds from `import nlts` to a constructed backend, each in a fresh
    interpreter so the import is paid every time."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "t0 = time.process_time()\n"
        "import nlts\n"
        f"{construct}\n"
        "print(time.process_time() - t0)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


class Sweep:
    """run_sweep over the airline datasets; one operation is one cell."""

    def __init__(self, nlts, work: Path, seed: int):
        self.nlts = nlts
        self.work = work
        self.datasets = write_datasets(work / "data", seed)
        self.paths = [path for path, _ in self.datasets.values()]
        self.references = {
            name: checks.reference_forecast(values, HORIZON)
            for name, (_, values) in self.datasets.items()
        }
        self.expected_lengths = {h: CELLS_PER_DATASET * SAMPLES for h in HISTORY_LENGTHS}
        self.setup_problems: list[str] = []
        # time each cell at the name run_sweep looks up; with one caller, the
        # process's CPU time during a cell is that cell's
        self.cell_times: list[tuple[float, float]] = []
        self._run_nlts = nlts.bench.run_nlts

        def timed_run_nlts(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                return self._run_nlts(*args, **kwargs)
            finally:
                self.cell_times.append((time.perf_counter() - t0, time.process_time() - c0))

        nlts.bench.run_nlts = timed_run_nlts

    def _sweep(self, config: dict, backend=None) -> tuple[dict, Round]:
        cfg = self.nlts.cli.sweep_config_from_dict(config)
        self.cell_times = []
        t0, c0 = time.perf_counter(), time.process_time()
        report = self.nlts.run_sweep(cfg, self.work / "report", backend=backend)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        cells = report["cells"]
        return report, Round(
            ops=len(cells),
            failed=sum(1 for c in cells if c["error"] is not None),
            wall_s=wall,
            cpu_s=cpu,
            op_wall=[w for w, _ in self.cell_times],
            op_cpu=[c for _, c in self.cell_times],
            usage=report["usage_total"],
            valid_samples=sum(c["valid_samples"] or 0 for c in cells),
        )

    def close(self) -> None:
        self.nlts.bench.run_nlts = self._run_nlts


def record_cassette(src: str, work: str, seed: int) -> None:
    """Records the sweep through RecordingBackend(HttpBackend) against the stub
    at zero latency, writing work/cassette.jsonl and the recording pass's cells,
    usage and stub counts to work/recorded.json. Runs in a child process, so
    the HTTP client and the recording pass leave the benchmark's memory alone."""
    sys.path.insert(0, src)
    import nlts
    import nlts.cli

    work = Path(work)
    stub = StubProcess(0.0)
    try:
        before = stub.stats()
        config = sweep_config(dataset_paths(work / "data"), seed,
                              {"kind": "live", "base_url": stub.url})
        recorder = nlts.RecordingBackend(
            nlts.HttpBackend(nlts.BackendConfig(base_url=stub.url)), work / "cassette.jsonl")
        report = nlts.run_sweep(nlts.cli.sweep_config_from_dict(config), work / "recording",
                                backend=recorder)
        delta = checks.stats_delta(before, stub.stats())
    finally:
        stub.close()
    recorded = {"cells": report["cells"], "usage_total": report["usage_total"], "stub": delta}
    (work / "recorded.json").write_text(json.dumps(recorded))


class SweepReplay(Sweep):
    """The sweep served from a cassette recorded from the stub before timing."""

    def __init__(self, nlts, work: Path, seed: int, src: Path):
        super().__init__(nlts, work, seed)
        self.cassette = work / "cassette.jsonl"
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
                f"workloads.record_cassette({str(src)!r}, {str(work)!r}, {seed})")
        subprocess.run([sys.executable, "-c", code], timeout=120, check=True)
        self.recorded = json.loads((work / "recorded.json").read_text())
        delta = self.recorded["stub"]
        self.setup_problems += checks.check_sweep_cells(
            self.recorded["cells"], self.references, SAMPLES)
        self.setup_problems += checks.check_usage(self.recorded["usage_total"], delta)
        self.setup_problems += checks.check_prompts(delta, self.expected_lengths)
        self.config = sweep_config(self.paths, seed, {"kind": "replay",
                                                      "path": str(self.cassette)})
        self.setup_times = time_setups(src, f"nlts.ReplayBackend({str(self.cassette)!r})")
        self.build_backend()

    def build_backend(self) -> None:
        self.backend = self.nlts.ReplayBackend(self.cassette)

    def round(self) -> Round:
        report, result = self._sweep(self.config, self.backend)
        result.problems = checks.check_replay(report["cells"], self.recorded["cells"])
        if report["usage_total"] != self.recorded["usage_total"]:
            result.problems.append(f"replayed usage {report['usage_total']} != recorded "
                                   f"{self.recorded['usage_total']}")
        return result


class SweepHttp(Sweep):
    """The sweep as `nlts bench` runs it against the stub with fixed latency."""

    def __init__(self, nlts, work: Path, seed: int, src: Path):
        super().__init__(nlts, work, seed)
        self.stub = StubProcess(HTTP_LATENCY_MS)
        self.config = sweep_config(self.paths, seed, {"kind": "live",
                                                      "base_url": self.stub.url})
        self.first_cells: list[dict] | None = None
        self.setup_times = time_setups(
            src, f"nlts.HttpBackend(nlts.BackendConfig(base_url={self.stub.url!r}))")

    def build_backend(self) -> None:
        pass  # run_sweep builds one HttpBackend per dataset, as `nlts bench` does

    def round(self) -> Round:
        before = self.stub.stats()
        report, result = self._sweep(self.config)
        delta = checks.stats_delta(before, self.stub.stats())
        problems = checks.check_sweep_cells(report["cells"], self.references, SAMPLES)
        problems += checks.check_usage(report["usage_total"], delta)
        problems += checks.check_prompts(delta, self.expected_lengths)
        if self.first_cells is None:
            self.first_cells = report["cells"]
        else:
            problems += checks.check_replay(report["cells"], self.first_cells)
        result.problems = problems
        result.stub = delta
        return result

    def close(self) -> None:
        super().close()
        self.stub.close()


class SynthSuite:
    """generate_benchmark over all six kernels; one operation is one series."""

    def __init__(self, nlts, work: Path, seed: int, src: Path):
        self.nlts = nlts
        self.work = work
        self.seed = seed
        self.specs = [nlts.KernelSpec(kind=kind) for kind in nlts.KERNEL_KINDS]
        self.grid = np.linspace(0.0, 1.0, SYNTH_LENGTH)
        self.setup_problems: list[str] = []
        self.setup_times = time_setups(
            src, "[nlts.KernelSpec(kind=kind) for kind in nlts.KERNEL_KINDS]")

    def build_backend(self) -> None:
        pass

    def round(self) -> Round:
        # every round rewrites the same files: deleting them, or writing new
        # ones, makes the CPU time swing with the file system's work
        out = self.work / "synth"
        t0, c0 = time.perf_counter(), time.process_time()
        manifest = self.nlts.generate_benchmark(
            self.specs, SYNTH_COUNT, SYNTH_LENGTH, SYNTH_HOLDOUT, self.seed, out)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Round(ops=len(manifest["files"]), failed=0, wall_s=wall, cpu_s=cpu,
                     problems=self.check(out, manifest))

    def check(self, out: Path, manifest: dict) -> list[str]:
        problems = []
        expected = len(self.specs) * SYNTH_COUNT
        if len(manifest["files"]) != expected:
            problems.append(f"{len(manifest['files'])} series written, expected {expected}")
        raws: dict[str, list] = {}
        kernels = {}
        for entry in manifest["files"]:
            value, raw, flags = checks.read_synth_csv((out / entry["file"]).read_text())
            problems += checks.check_synth_series(entry["file"], value, raw, flags, SYNTH_HOLDOUT)
            kind = entry["kernel"]["kind"]
            raws.setdefault(kind, []).append(raw)
            kernels[kind] = entry["kernel"]
        for kind, rows in raws.items():
            problems += checks.check_synth_variance(kind, np.array(rows), kernels[kind], self.grid)
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {"sweep_replay": SweepReplay, "sweep_http": SweepHttp, "synth_suite": SynthSuite}
