"""The forecast jobs behind tests/golden/replay_cassette.jsonl.

Every noise family and the noise-free run under each of the signed, unsigned
and basic codecs, two samples each, served by the echo backend. The prompt
style alternates, so that every family and every codec meets both the raw and
the chat style while the cassette stays under 30 KB. test_pipeline.py replays
every job from the cassette, so a change to any prompt byte, generation
parameter or tag shows up as a miss. It also records the jobs again and
expects the committed bytes, so a changed echo reply or usage fails too.

Re-record the cassette after a deliberate prompt change, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/golden/replay_jobs.py
"""

from pathlib import Path

import numpy as np

from nlts import (
    CodecConfig,
    EchoTailBackend,
    ForecastJob,
    NoiseSpec,
    RecordingBackend,
    TimeSeries,
    run_nlts,
)
from nlts.noise import NOISE_KINDS

CASSETTE = Path(__file__).with_name("replay_cassette.jsonl")
HORIZON = 4
CODECS = {
    "signed": CodecConfig(precision_k=2),
    "unsigned": CodecConfig(precision_k=2, signed=False),
    "basic": CodecConfig(precision_k=2, basic_mode=True),
}
STYLES = ("raw", "chat")


def jobs() -> dict[str, ForecastJob]:
    """One job per (noise kind, codec) on a 20-point seasonal history with a
    trend, keyed by a readable name."""
    t = np.arange(20.0)
    series = TimeSeries(np.round(50.0 + 1.5 * t + 8.0 * np.sin(t * np.pi / 6.0), 1), name="golden")
    out = {}
    for i, kind in enumerate(NOISE_KINDS):
        noise = NoiseSpec(kind=kind, alpha=0.0 if kind == "none" else 0.05)
        for j, (codec_name, codec) in enumerate(CODECS.items()):
            style = STYLES[(i + j) % 2]
            out[f"{kind}/{codec_name}/{style}"] = ForecastJob(
                history=series, horizon=HORIZON, noise=noise, codec=codec,
                prompt_style=style, samples=2, seed=11,
            )
    return out


def record(path: Path = CASSETTE) -> None:
    """Rewrite the cassette from the current code's prompts."""
    path.unlink(missing_ok=True)
    recorder = RecordingBackend(EchoTailBackend(tail=4, steps=HORIZON), path)
    for job in jobs().values():
        run_nlts(job, recorder)


if __name__ == "__main__":
    record()
    print(f"recorded {len(jobs())} jobs to {CASSETTE}")
