"""Loopback OpenAI-compatible completion endpoint for the benchmark.

Serves POST /v1/completions. Each request sleeps a fixed latency, then gets the
prompt's last REPLY_STEPS steps back as its continuation, so a check can
recompute every reply from the prompt alone. The response goes out in a
single send: headers and body written apart trip Nagle plus delayed ACK,
which adds about 40 ms to every request.

GET /stats returns cumulative counters: requests, prompt tokens (one token per
non-space character, as digit-spaced prompts tokenize), the time spent in
handlers, the history lengths seen, and how many prompts failed this stub's own
parse or scale checks.

Run: python3 perfbench/stub.py --latency-ms 50
It prints "PORT <n>" once it listens on 127.0.0.1 and stops on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# The codec's default precision: a prompt's 0.95-quantile is 10**PRECISION bins.
PRECISION = 3
# The reply repeats this many of the prompt's last steps: one year of monthly data.
REPLY_STEPS = 12


def prompt_steps(prompt: str) -> list[str]:
    """The comma-separated steps of a raw prompt, without the trailing cue."""
    steps = [s.strip() for s in prompt.split(",")]
    while steps and not steps[-1]:
        steps.pop()
    return steps


def step_bins(steps: list[str]) -> list[int]:
    """Integer bins of digit-spaced steps such as "1 2 3 4" or "- 5 0"."""
    return [int(s.replace(" ", "")) for s in steps]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, the same rule as numpy's default."""
    v = sorted(values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def count_tokens(text: str) -> int:
    return sum(1 for c in text if not c.isspace())


def reply_text(prompt: str, reply_steps: int) -> str:
    """The reply rule: the prompt's last `reply_steps` steps, in order."""
    return ", ".join(prompt_steps(prompt)[-reply_steps:])


def prompt_problem(prompt: str) -> str | None:
    """Why a prompt breaks the codec's contract, or None.

    Every step must parse to an integer bin, and with the signed scaler the
    0.95-quantile of the scaled history is 1, i.e. 10**PRECISION bins, to
    within one bin.
    """
    try:
        bins = step_bins(prompt_steps(prompt))
    except ValueError as exc:
        return f"unparseable step: {exc}"
    if not bins:
        return "no steps"
    q95 = quantile(bins, 0.95)
    if abs(q95 - 10**PRECISION) > 1.0:
        return f"0.95-quantile is {q95} bins, expected {10**PRECISION} +- 1"
    return None


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.prompt_tokens = 0
        self.handler_s = 0.0
        self.history_lengths: dict[int, int] = {}
        self.bad_prompts = 0
        self.first_problem: str | None = None

    def to_dict(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "handler_s": self.handler_s,
                "history_lengths": {str(k): v for k, v in self.history_lengths.items()},
                "bad_prompts": self.bad_prompts,
                "first_problem": self.first_problem,
            }


def make_handler(stats: Stats, latency_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: str, payload: dict) -> None:
            body = json.dumps(payload).encode()
            head = (
                f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            self.wfile.write(head + body)  # one send, see the module docstring

        def do_GET(self):
            if self.path == "/stats":
                self._send("200 OK", stats.to_dict())
            else:
                self._send("404 Not Found", {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            t0 = time.perf_counter()
            if self.path != "/v1/completions":
                self._send("404 Not Found", {"error": "not found"})
                return
            request = json.loads(raw)
            prompt = request["prompt"]
            problem = prompt_problem(prompt)
            text = reply_text(prompt, REPLY_STEPS)
            prompt_tokens = count_tokens(prompt)
            completion_tokens = count_tokens(text)
            n = int(request.get("n", 1))
            time.sleep(latency_s)
            self._send(
                "200 OK",
                {
                    "object": "text_completion",
                    "model": request.get("model"),
                    "choices": [
                        {"index": i, "text": text, "finish_reason": "stop"} for i in range(n)
                    ],
                    "usage": {
                        "prompt_tokens": prompt_tokens,
                        "completion_tokens": completion_tokens * n,
                        "total_tokens": prompt_tokens + completion_tokens * n,
                    },
                },
            )
            elapsed = time.perf_counter() - t0
            steps = len(prompt_steps(prompt))
            with stats.lock:
                stats.requests += 1
                stats.prompt_tokens += prompt_tokens
                stats.handler_s += elapsed
                stats.history_lengths[steps] = stats.history_lengths.get(steps, 0) + 1
                if problem is not None:
                    stats.bad_prompts += 1
                    stats.first_problem = stats.first_problem or problem

        def log_message(self, format, *args):
            pass

    return Handler


class StubProcess:
    """Starts stub.py in its own process; close() stops it and waits for it."""

    def __init__(self, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("stub did not report its port")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, default=0.0)
    args = parser.parse_args()
    stats = Stats()
    handler = make_handler(stats, args.latency_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
