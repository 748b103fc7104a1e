"""Command line interface: forecast, synth, bench, theory-check, cost."""

from __future__ import annotations

import json
import sys

import click

from .backend import (
    GenerationParams,
    RecordingBackend,
    default_cost_table,
    estimate_cost,
    load_cost_table,
    load_usage,
)
from .bench import (
    DEFAULT_NOISE_LEVELS,
    BackendSpec,
    Normalization,
    SweepConfig,
    compute_metrics,
    load_dataset,
    make_backend,
    run_sweep,
    split_dataset,
    theory_check,
)
from .codec import CodecConfig
from .core import SplitSpec, read_block, read_json, write_text
from .errors import ConfigError, NltsError
from .noise import NOISE_KINDS, NoiseSpec
from .pipeline import PROMPT_STYLES, ForecastJob, run_nlts
from .synth import KERNEL_KINDS, KernelSpec, generate_benchmark


def _parse_split(text: str) -> SplitSpec:
    """"frac:0.8" / "fraction:0.8" or "horizon:30"."""
    head, _, tail = text.partition(":")
    mode = head.strip().lower()
    mode = "fraction" if mode == "frac" else mode
    if mode not in ("fraction", "horizon"):
        raise click.BadParameter(f"split must look like frac:0.8 or horizon:30, got {text!r}")
    try:
        return read_block(SplitSpec, {"mode": mode, mode: tail}, "split.")
    except ConfigError as exc:
        raise click.BadParameter(f"bad split {text!r}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        write_text(out, text, "output")
    else:
        click.echo(text, nl=False)


class _Main(click.Group):
    """The one place an NltsError from any command becomes
    `Error: <Class>: <message>` and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NltsError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Main)
def main() -> None:
    """Noise-injected zero-shot time-series forecasting."""


@main.command()
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--value-column", default="value", show_default=True)
@click.option("--split", "split_text", default=None,
              help="frac:F keeps ceil(F*T) history points; horizon:H holds out the last H. "
                   "Default: the dataset's is_holdout rows, else frac:0.8.")
@click.option("--noise", "noise_kind", default="gaussian", show_default=True,
              type=click.Choice([k for k in NOISE_KINDS]))
@click.option("--alpha", default=0.0, show_default=True, type=float,
              help="Noise level as a fraction of the history std.")
@click.option("--samples", default=ForecastJob.samples, show_default=True, type=int)
@click.option("--precision", default=CodecConfig.precision_k, show_default=True, type=int,
              help="Decimal places kept when encoding.")
@click.option("--style", default=ForecastJob.prompt_style, show_default=True,
              type=click.Choice(PROMPT_STYLES))
@click.option("--basic/--spaced", "basic_mode", default=CodecConfig.basic_mode, show_default=True,
              help="Concatenate digits instead of spacing them.")
@click.option("--signed/--unsigned", default=CodecConfig.signed, show_default=True)
@click.option("--half-bin/--no-half-bin", default=CodecConfig.half_bin_correction,
              show_default=True)
@click.option("--backend", "backend_kind", default=BackendSpec.kind, show_default=True,
              type=click.Choice(["live", "oracle", "echo", "replay"]),
              help="replay serves the cassette named by --replay.")
@click.option("--model", default=GenerationParams.model, show_default=True)
@click.option("--temperature", default=GenerationParams.temperature, show_default=True,
              type=float)
@click.option("--top-p", default=GenerationParams.top_p, show_default=True, type=float)
@click.option("--max-tokens", default=GenerationParams.max_tokens, show_default=True, type=int)
@click.option("--retries", default=ForecastJob.retries_per_sample, show_default=True, type=int)
@click.option("--echo-tail", default=4, show_default=True, type=int)
@click.option("--seed", default=42, show_default=True, type=int)
@click.option("--record", "record_path", type=click.Path(dir_okay=False), default=None,
              help="Append request/response pairs to this JSONL cassette.")
@click.option("--replay", "replay_path", type=click.Path(dir_okay=False), default=None,
              help="Serve responses from this cassette instead of any endpoint.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def forecast(
    data, value_column, split_text, noise_kind, alpha, samples, precision, style,
    basic_mode, signed, half_bin, backend_kind, model, temperature, top_p,
    max_tokens, retries, echo_tail, seed, record_path, replay_path, out,
):
    """Forecast the held-out tail of a CSV series."""
    ds = load_dataset(data, value_column=value_column)
    split = None if split_text is None else _parse_split(split_text)
    if split is not None and split.mode == "horizon" and ds.holdout not in (0, split.horizon):
        raise ConfigError(
            f"dataset marks {ds.holdout} holdout rows but --split asked for {split.horizon}"
        )
    history, target = split_dataset(ds, split)
    codec = CodecConfig(
        precision_k=precision,
        signed=signed,
        basic_mode=basic_mode,
        half_bin_correction=half_bin,
    )
    noise = NoiseSpec(kind=noise_kind if alpha > 0 else "none", alpha=alpha)
    params = GenerationParams(
        model=model, temperature=temperature, top_p=top_p, max_tokens=max_tokens
    )
    kind = "replay" if replay_path is not None else backend_kind
    spec = BackendSpec(kind, tail=echo_tail if kind == "echo" else None, path=replay_path)
    backend = make_backend(spec, history, target, codec)
    if record_path:
        backend = RecordingBackend(backend, record_path)
    job = ForecastJob(
        history=history,
        horizon=len(target),
        noise=noise,
        codec=codec,
        params=params,
        prompt_style=style,
        samples=samples,
        seed=seed,
        retries_per_sample=retries,
    )
    try:
        result = run_nlts(job, backend)
    finally:
        backend.close()
    norm = Normalization.from_values(ds.series.values)
    metrics = compute_metrics(result.forecast.median, target.values, norm)
    payload = result.to_dict()
    payload["evaluation"] = {
        "mse": metrics.mse,
        "mae": metrics.mae,
        "normalization": metrics.normalization,
    }
    payload["dataset"] = {"path": str(data), "name": ds.name, "length": len(ds.series),
                          "history": len(history), "horizon": len(target)}
    _emit(payload, out)


@main.command()
@click.option("--kernels", default="all", show_default=True,
              help='"all" or a comma list drawn from: ' + ", ".join(KERNEL_KINDS))
@click.option("--count", default=1000, show_default=True, type=int,
              help="Series per kernel.")
@click.option("--length", default=430, show_default=True, type=int)
@click.option("--holdout", default=30, show_default=True, type=int)
@click.option("--seed", default=7, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(file_okay=False))
def synth(kernels, count, length, holdout, seed, out):
    """Generate a Gaussian-process benchmark suite as CSV files."""
    if kernels.strip().lower() == "all":
        specs = [KernelSpec(kind=k) for k in KERNEL_KINDS]
    else:
        names = [k.strip() for k in kernels.split(",") if k.strip()]
        if not names:
            raise ConfigError("no kernels requested")
        specs = [KernelSpec(kind=k) for k in names]
    manifest = generate_benchmark(specs, count, length, holdout, seed, out)
    click.echo(f"wrote {len(manifest['files'])} series files and manifest.json to {out}")


def sweep_config_from_dict(raw: dict) -> SweepConfig:
    """Build a SweepConfig from the bench JSON config schema, through read_block."""
    return read_block(SweepConfig, raw)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON sweep config; see README for the schema.")
@click.option("--out", required=True, type=click.Path(file_okay=False))
def bench(config_path, out):
    """Sweep noise levels over datasets and write results.csv/json + summary.md."""
    cfg = sweep_config_from_dict(read_json(config_path, "config"))
    report = run_sweep(cfg, out)
    ok = sum(1 for c in report["cells"] if c["error"] is None)
    click.echo(f"{ok}/{len(report['cells'])} cells succeeded; reports in {out}")
    if ok < len(report["cells"]):
        sys.exit(3)


@main.command("theory-check")
@click.option("--dim", default=10, show_default=True, type=int)
@click.option("--sigma", default=0.1, show_default=True, type=float)
@click.option("--draws", default=1_000_000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def theory_check_cmd(dim, sigma, draws, seed, out):
    """Monte Carlo check of the second-order noise-perturbation identity."""
    report = theory_check(dim=dim, sigma=sigma, num_draws=draws, seed=seed)
    _emit(report.to_dict(), out)


@main.command()
@click.option("--usage", "usage_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help='JSON {"model": ..., "prompt_tokens": ..., "completion_tokens": ...}.')
@click.option("--model", default=None, help="Override the model named in the usage file.")
@click.option("--table", "table_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Custom price table JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cost(usage_path, model, table_path, out):
    """Price a usage record; unknown models report null, never zero."""
    usage, named_model = load_usage(usage_path)
    model_name = model or named_model
    if not model_name or not isinstance(model_name, str):
        raise ConfigError(f"the usage file or --model must name a model, got {model_name!r}")
    table = load_cost_table(table_path) if table_path else default_cost_table()
    amount = estimate_cost(usage, model_name, table)
    payload = {
        "model": model_name,
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "cost_usd": amount,
    }
    if amount is None:
        payload["note"] = "model not in the price table; cost unknown"
    _emit(payload, out)


if __name__ == "__main__":
    main()
