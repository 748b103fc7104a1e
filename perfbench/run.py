"""Benchmark of nlts: noise sweeps offline and over loopback HTTP, and GP synthesis.

    python3 perfbench/run.py --workload sweep_replay --seed 1 --seconds 20 --trace 0

Runs one workload for --seconds of whole rounds, checks every round's outputs,
and prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run measures
half its time untraced and half traced, and reports per-layer metrics plus the
tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: a second one spin-waits between calls, and its CPU time
# would swamp the measurements on a two-core host. Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracing import Tracer, self_times  # noqa: E402
from workloads import SAMPLES, WORKLOADS  # noqa: E402


def import_nlts():
    """nlts from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import nlts
        import nlts.cli
    except ImportError as exc:
        sys.exit(f"cannot import nlts from {SRC}: {exc}")
    if not Path(nlts.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"nlts was imported from {nlts.__file__}, not from {SRC}")
    return nlts


def measure(workload, seconds: float) -> list:
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.round())
    return rounds


def cpu_per_op(rounds) -> float:
    return statistics.median(r.cpu_s / r.ops for r in rounds)


def op_median(rounds, attr: str) -> float:
    """Median time of one operation: per cell where cells are timed one by
    one, else per series as each round's average."""
    times = [t for r in rounds for t in getattr(r, "op_" + attr)]
    if times:
        return statistics.median(times)
    return statistics.median(getattr(r, attr + "_s") / r.ops for r in rounds)


def end_to_end(workload, rounds) -> dict:
    return {
        "setup_s": (statistics.median(workload.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cpu_ms_per_op": (cpu_per_op(rounds) * 1e3, "ms"),
        "op_cpu_p50_ms": (op_median(rounds, "cpu") * 1e3, "ms"),
    }


# (owner path, attribute, span name): the names the program's callers look up
def trace_points(nlts):
    return [
        (nlts.pipeline, "inject_noise", "noise.inject"),
        (nlts.pipeline, "substream", "rng.substream"),
        (nlts.pipeline, "fit_scaler", "codec.fit_scaler"),
        (nlts.pipeline, "serialize", "codec.serialize"),
        (nlts.pipeline, "deserialize", "codec.deserialize"),
        (nlts.pipeline, "aggregate_samples", "core.aggregate"),
        (nlts.pipeline, "build_manifest", "pipeline.manifest"),
        (nlts.bench, "run_nlts", "pipeline.run_nlts"),
        (nlts.bench, "load_dataset", "bench.load_dataset"),
        (nlts, "run_sweep", "bench.run_sweep"),
        (nlts.ReplayBackend, "__init__", "backend.replay_load"),
        (nlts.ReplayBackend, "complete", "backend.replay_complete"),
        (nlts.HttpBackend, "complete", "backend.http_complete"),
        (nlts, "generate_benchmark", "synth.generate"),
        (nlts.synth, "sample_gp_matrix", "synth.sample"),
        (nlts.synth, "kernel_matrix", "synth.kernel_matrix"),
        (nlts.synth, "cholesky_with_jitter", "synth.cholesky"),
        (nlts.synth, "substream", "rng.substream"),
        (nlts.synth, "write_series_csv", "synth.write_csv"),
    ]


def per_layer(tracer, rounds, plain) -> dict:
    """Layer metrics from the traced rounds; `plain` are the untraced ones."""
    selfs = self_times(tracer.spans)

    def spans(name):
        return tracer.by_name(name)

    def mean(name, scale):
        s = spans(name)
        return sum(x.duration for x in s) / len(s) * scale if s else 0.0

    def self_sum(name):
        return sum(selfs[x.id] for x in spans(name))

    def ratio(a, b):
        return a / b if b else 0.0

    ops = sum(r.ops for r in rounds)
    sweeps = spans("bench.run_sweep")
    sweep_s = sum(x.duration for x in sweeps)
    backend_calls = spans("backend.replay_complete") + spans("backend.http_complete")
    usages = [r.usage for r in rounds if r.usage]
    requests = sum(u["requests"] for u in usages)
    prompt_tokens = sum(u["prompt_tokens"] for u in usages)
    cells = ops if sweeps else 0
    stub = [r.stub for r in rounds if r.stub]
    stub_ms = ratio(sum(s["handler_s"] for s in stub), sum(s["requests"] for s in stub)) * 1e3
    request_ms = mean("backend.http_complete", 1e3)
    rows = ops if spans("synth.generate") else 0
    return {
        "noise.inject_us": (mean("noise.inject", 1e6), "us"),
        "codec.fit_scaler_us": (mean("codec.fit_scaler", 1e6), "us"),
        "codec.serialize_us": (mean("codec.serialize", 1e6), "us"),
        "codec.deserialize_us": (mean("codec.deserialize", 1e6), "us"),
        "core.aggregate_us": (mean("core.aggregate", 1e6), "us"),
        "pipeline.manifest_us": (mean("pipeline.manifest", 1e6), "us"),
        "pipeline.self_ms": (ratio(self_sum("pipeline.run_nlts"), cells) * 1e3, "ms"),
        "pipeline.inflight_mean": (ratio(sum(x.duration for x in backend_calls), sweep_s),
                                   "count"),
        "pipeline.valid_share": (ratio(sum(r.valid_samples for r in rounds), cells * SAMPLES),
                                 "share"),
        "pipeline.retries": (requests - cells * SAMPLES, "count"),
        "pipeline.prompt_tokens_per_cell": (ratio(prompt_tokens, cells), "tokens"),
        "rng.substream_us": (mean("rng.substream", 1e6), "us"),
        "rng.substream_calls": (ratio(len(spans("rng.substream")), ops), "count"),
        "backend.replay_load_ms": (mean("backend.replay_load", 1e3), "ms"),
        "backend.replay_lookup_us": (mean("backend.replay_complete", 1e6), "us"),
        "backend.request_ms": (request_ms, "ms"),
        "backend.requests_per_s": (ratio(len(backend_calls), sweep_s), "1/s"),
        "backend.request_overhead_ms": (request_ms - stub_ms if stub else 0.0, "ms"),
        "backend.prompt_tokens_per_request": (ratio(prompt_tokens, requests), "tokens"),
        "bench.load_dataset_ms": (mean("bench.load_dataset", 1e3), "ms"),
        "bench.sweep_self_ms": (ratio(self_sum("bench.run_sweep"), len(sweeps)) * 1e3, "ms"),
        "synth.kernel_matrix_ms": (mean("synth.kernel_matrix", 1e3), "ms"),
        "synth.cholesky_ms": (mean("synth.cholesky", 1e3), "ms"),
        "synth.sample_us_per_row": (ratio(self_sum("synth.sample"), rows) * 1e6, "us"),
        "synth.write_us_per_row": (mean("synth.write_csv", 1e6), "us"),
        "trace.overhead_pct": ((cpu_per_op(rounds) / cpu_per_op(plain) - 1.0) * 100.0, "%"),
        "wall.ops_per_s": (statistics.median(r.ops / r.wall_s for r in plain), "1/s"),
        "wall.op_p50_ms": (op_median(plain, "wall") * 1e3, "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nlts = import_nlts()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = None
    try:
        workload = WORKLOADS[args.workload](nlts, work, args.seed, SRC)
        if args.trace:
            plain = measure(workload, args.seconds / 2)
            tracer = Tracer()
            for owner, attr, name in trace_points(nlts):
                tracer.patch(owner, attr, name)
            try:
                workload.build_backend()
                rounds = measure(workload, args.seconds / 2)
            finally:
                tracer.unpatch()
            metrics = per_layer(tracer, rounds, plain)
            rounds += plain
        else:
            rounds = measure(workload, args.seconds)
            metrics = end_to_end(workload, rounds)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    problems = workload.setup_problems + [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
