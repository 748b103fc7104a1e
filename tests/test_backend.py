import base64
import email.utils
import gc
import http.client
import io
import json
import math
import os
import re
import socket
import ssl
import sys
import threading
import time
import types
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nlts import (
    AuthError,
    BackendConfig,
    BackendError,
    ConfigError,
    EchoTailBackend,
    ForecastJob,
    GenerationParams,
    HttpBackend,
    NltsError,
    OracleBackend,
    ProtocolError,
    RateLimitError,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    TimeSeries,
    TransportError,
    Usage,
    default_cost_table,
    estimate_cost,
    load_cost_table,
    run_nlts,
)
from nlts.backend import canonical_request, lookup_key, request_body, request_hash
from nlts.http_reply import MAXHEADERS, MAXLINE, Reply

PARAMS = GenerationParams(model="test-model", max_tokens=32)


class TestGenerationParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GenerationParams(num_samples=0)
        with pytest.raises(ConfigError):
            GenerationParams(temperature=-1.0)
        with pytest.raises(ConfigError):
            GenerationParams(top_p=0.0)
        with pytest.raises(ConfigError):
            GenerationParams(max_tokens=0)


class TestBackendConfig:
    def test_defaults_are_valid(self):
        cfg = BackendConfig()
        assert (cfg.max_retries, cfg.backoff_base, cfg.backoff_cap) == (3, 0.5, 8.0)
        assert (cfg.timeout, cfg.max_in_flight) == (60.0, 4)

    @pytest.mark.parametrize("field, value", [
        ("timeout", 0),
        ("timeout", -1.0),
        ("timeout", math.nan),
        ("timeout", math.inf),
        ("backoff_base", 0.0),
        ("backoff_base", -0.5),
        ("backoff_base", math.nan),
        ("backoff_base", 9.0),  # above the default cap
        ("backoff_cap", math.nan),
        ("backoff_cap", math.inf),
        ("backoff_cap", 0.1),  # below the default base
        ("max_retries", -1),
        ("max_in_flight", 0),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ConfigError):
            BackendConfig(**{field: value})


class TestUsage:
    def test_additive(self):
        a = Usage(10, 20, 1)
        b = Usage(5, 7, 2)
        assert a + b == Usage(15, 27, 3)

    def test_identity(self):
        u = Usage(3, 4, 5)
        assert u + Usage() == u

    def test_from_dict_defaults(self):
        assert Usage.from_dict({}) == Usage(0, 0, 0)
        assert Usage.from_dict({}, requests=1) == Usage(0, 0, 1)
        assert Usage.from_dict({"prompt_tokens": "7", "completion_tokens": 9.0, "requests": 2},
                               requests=1) == Usage(7, 9, 2)

    def test_from_dict_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Usage.from_dict({"prompt_tokens": "many"})
        with pytest.raises(TypeError):
            Usage.from_dict({"completion_tokens": None})
        with pytest.raises(TypeError):
            Usage.from_dict([("prompt_tokens", 1)])
        with pytest.raises(TypeError):
            Usage.from_dict(None)

    @pytest.mark.parametrize("count", [float("inf"), float("-inf"), float("nan"), -7, -1.0,
                                       2.5, "-3", "2.5", "1e400", 2**53 + 1, 1e300,
                                       pytest.param("1" + "0" * 400, id="10**400")])
    def test_from_dict_rejects_counts_that_are_not_whole_and_nonnegative(self, count):
        with pytest.raises(ValueError):
            Usage.from_dict({"prompt_tokens": count})
        with pytest.raises(ValueError):
            Usage.from_dict({}, requests=count)

    @pytest.mark.parametrize("count", [True, [1], {"n": 1}])
    def test_from_dict_rejects_counts_that_are_not_numbers(self, count):
        with pytest.raises(TypeError):
            Usage.from_dict({"completion_tokens": count})

    def test_from_dict_reads_whole_floats_and_ignores_unknown_keys(self):
        usage = Usage.from_dict({"prompt_tokens": 12.0, "completion_tokens": 0,
                                 "total_tokens": 12, "requests": 2.0**53})
        assert usage == Usage(12, 0, 2**53)
        assert type(usage.prompt_tokens) is int

    def test_total_adds_componentwise(self):
        usages = [Usage(10, 20, 1), Usage(5, 7, 2), Usage()]
        assert Usage.total(usages) == Usage(15, 27, 3) == usages[0] + usages[1] + usages[2]
        assert Usage.total([]) == Usage()


class TestCost:
    def test_known_models(self):
        table = default_cost_table()
        usage = Usage(prompt_tokens=2000, completion_tokens=500)
        assert estimate_cost(usage, "GPT-3.5-Turbo-Instruct", table) == pytest.approx(0.004)
        usage2 = Usage(prompt_tokens=1000, completion_tokens=1000)
        assert estimate_cost(usage2, "Claude-3-Opus", table) == pytest.approx(0.192)

    def test_all_listed_models_priced(self):
        table = default_cost_table()
        usage = Usage(prompt_tokens=1000, completion_tokens=1000)
        expected = {
            "GPT-4": 0.09,
            "GPT-3.5-Turbo-Instruct": 0.0035,
            "Claude-3-Opus": 0.192,
            "Claude-3.5-Haiku": 0.014,
            "Claude-3.5-Sonnet": 0.042,
            "Deepseek-V3": 0.0025,
            "GLM-4-Air": 0.001,
            "Qwen3-4B": 0.00105,
        }
        for model, cost in expected.items():
            assert estimate_cost(usage, model, table) == pytest.approx(cost), model

    def test_unknown_model_is_none_not_zero(self):
        assert estimate_cost(Usage(1000, 1000), "made-up-model") is None

    def test_case_insensitive_lookup(self):
        got = estimate_cost(Usage(1000, 0), "gpt-4")
        assert got == pytest.approx(0.03)

    def test_additivity(self):
        import numpy as np

        rng = np.random.default_rng(0)
        table = default_cost_table()
        for _ in range(200):
            a = Usage(int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6)), 1)
            b = Usage(int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6)), 1)
            lhs = estimate_cost(a + b, "Claude-3.5-Sonnet", table)
            rhs = estimate_cost(a, "Claude-3.5-Sonnet", table) + estimate_cost(
                b, "Claude-3.5-Sonnet", table
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_load_custom_table(self, tmp_path):
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"my-model": {"prompt_per_1k": 0.01, "completion_per_1k": 0.02}}))
        table = load_cost_table(p)
        assert estimate_cost(Usage(1000, 1000), "my-model", table) == pytest.approx(0.03)

    def test_negative_price_rejected(self, tmp_path):
        p = tmp_path / "prices.json"
        p.write_text(json.dumps({"m": {"prompt_per_1k": -1, "completion_per_1k": 0}}))
        with pytest.raises(ConfigError):
            load_cost_table(p)


class TestOracleBackend:
    def test_fixed_text(self):
        b = OracleBackend("1 2, 3 4")
        texts, usage = b.complete("prompt here", PARAMS)
        assert texts == ["1 2, 3 4"]
        assert usage.prompt_tokens == 2
        assert usage.completion_tokens == 4
        assert usage.requests == 1

    def test_num_samples(self):
        b = OracleBackend("x")
        params = GenerationParams(model="m", num_samples=3)
        texts, _ = b.complete("p", params)
        assert texts == ["x", "x", "x"]

    def test_chat_routes_to_complete(self):
        b = OracleBackend("9 9")
        texts, usage = b.complete(
            [{"role": "system", "content": "s"}, {"role": "user", "content": "1, 2"}], PARAMS
        )
        assert texts == ["9 9"]
        assert usage.requests == 1

    def test_chat_empty_messages(self):
        with pytest.raises(ProtocolError):
            OracleBackend("x").complete([], PARAMS)

    def test_chat_malformed_message(self):
        with pytest.raises(ProtocolError):
            OracleBackend("x").complete([{"content": "no role"}], PARAMS)


class TestEchoTailBackend:
    def test_echoes_tail_cycled(self):
        b = EchoTailBackend(tail=2, steps=5)
        texts, _ = b.complete("1 0, 2 0, 3 0, 4 0", PARAMS)
        assert texts == ["3 0, 4 0, 3 0, 4 0, 3 0"]

    def test_chat_uses_last_user_sequence(self):
        b = EchoTailBackend(tail=1, steps=2)
        messages = [
            {"role": "system", "content": "instructions"},
            {"role": "user", "content": "Sequence:\n5 5, 7 7"},
        ]
        texts, _ = b.complete(messages, PARAMS)
        assert texts == ["7 7, 7 7"]

    def test_empty_prompt(self):
        with pytest.raises(ProtocolError):
            EchoTailBackend().complete("   ", PARAMS)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            EchoTailBackend(tail=0)

    @staticmethod
    def full_split_reply(backend, text):
        """The reply as computed from every fragment of the prompt."""
        fragments = [f.strip() for f in text.split(",")]
        fragments = [f for f in fragments if f]
        if not fragments:
            raise ProtocolError("echo backend got a prompt with no steps")
        cycle = fragments[-backend.tail:]
        return ", ".join(cycle[i % len(cycle)] for i in range(backend.steps))

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(alphabet=st.sampled_from("0123456789-, \t\n\xa0\u2003a")),
        tail=st.integers(1, 6),
        steps=st.integers(1, 9),
    )
    def test_reply_matches_full_split(self, text, tail, steps):
        backend = EchoTailBackend(tail=tail, steps=steps)
        try:
            expected = self.full_split_reply(backend, text)
        except ProtocolError:
            with pytest.raises(ProtocolError, match="no steps"):
                backend.reply(text, "")
        else:
            assert backend.reply(text, "") == expected


class TestScriptedBackend:
    def test_tagged_calls_pick_lines_by_sample(self):
        b = ScriptedBackend(lines=["a", "b", "c"])
        texts, _ = b.complete("p", PARAMS, tag="sample-2/try-0")
        assert texts == ["c"]
        texts, _ = b.complete("p", PARAMS, tag="sample-0/try-1")
        assert texts == ["a"]

    def test_tags_without_sample_index_read_line_zero(self):
        b = ScriptedBackend(lines=["a", "b"])
        for tag in ("", "", "t", "sample-/try-0", "sample-x/try-0", "try-1/sample-1"):
            assert b.complete("p", PARAMS, tag=tag)[0] == ["a"]
        assert b.complete("p", PARAMS, tag="sample-3/try-0")[0] == ["b"]

    def test_from_file(self, tmp_path):
        p = tmp_path / "lines.txt"
        p.write_text("first\n\nsecond\n")
        b = ScriptedBackend(path=p)
        assert b.lines == ["first", "second"]

    def test_crlf_fixture_replies_like_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"1 2\n\n3 4\n")
        crlf.write_bytes(b"1 2\r\n\r\n3 4\r\n")
        tags = [f"sample-{i}/try-0" for i in range(3)]
        replies = [[ScriptedBackend(path=p).complete("p", PARAMS, tag=t) for t in tags]
                   for p in (lf, crlf)]
        assert replies[0] == replies[1]
        assert [texts for texts, _ in replies[0]] == [["1 2"], ["3 4"], ["1 2"]]

    def test_empty_fixture(self):
        with pytest.raises(ConfigError):
            ScriptedBackend(lines=[])


@pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
@pytest.mark.parametrize("make, what", [
    (lambda path: ScriptedBackend(path=path), "fixture"),
    (ReplayBackend, "cassette"),
], ids=["scripted", "replay"])
def test_unreadable_file_is_config_error(tmp_path, kind, make, what):
    path = tmp_path / "lines.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes("caf\xe9\n".encode("latin-1"))  # not UTF-8
    with pytest.raises(ConfigError, match=f"cannot read {what} {re.escape(str(path))}: "):
        make(path)


class TestRecordReplay:
    def test_crlf_cassette_replays_like_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        rec = RecordingBackend(OracleBackend("4 2, 4 3"), lf)
        tags = ["sample-0/try-0", "sample-1/try-0"]
        recorded = [rec.complete("1 1, 2 2, ", PARAMS, tag=t) for t in tags]
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        for path in (lf, crlf):
            replay = ReplayBackend(path)
            assert [replay.complete("1 1, 2 2, ", PARAMS, tag=t) for t in tags] == recorded

    def test_round_trip(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        rec = RecordingBackend(OracleBackend("4 2, 4 3"), cassette)
        texts1, usage1 = rec.complete("1 1, 2 2, ", PARAMS, tag="sample-0/try-0")
        rep = ReplayBackend(cassette)
        texts2, usage2 = rep.complete("1 1, 2 2, ", PARAMS, tag="sample-0/try-0")
        assert texts1 == texts2
        assert usage1.prompt_tokens == usage2.prompt_tokens
        assert usage1.completion_tokens == usage2.completion_tokens

    def test_chat_round_trip(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        rec = RecordingBackend(OracleBackend("5"), cassette)
        messages = [{"role": "user", "content": "1, 2"}]
        texts1, _ = rec.complete(messages, PARAMS, tag="t")
        texts2, _ = ReplayBackend(cassette).complete(messages, PARAMS, tag="t")
        assert texts1 == texts2

    def test_miss_is_transport_error(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        rep = ReplayBackend(cassette)
        with pytest.raises(TransportError):
            rep.complete("different prompt", PARAMS, tag="a")
        with pytest.raises(TransportError):
            rep.complete("p", PARAMS, tag="other-tag")

    def test_tampered_hash_detected(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        text = cassette.read_text()
        record = json.loads(text)
        h = record["request_hash"]
        flipped = ("0" if h[0] != "0" else "1") + h[1:]
        cassette.write_text(text.replace(h, flipped, 1))
        rep = ReplayBackend(cassette)
        with pytest.raises(TransportError):
            rep.complete("p", PARAMS, tag="a")

    def test_tampered_request_body_detected(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("pq", PARAMS, tag="a")
        mutated = cassette.read_text().replace('"pq"', '"pr"')
        cassette.write_text(mutated)
        rep = ReplayBackend(cassette)
        with pytest.raises(TransportError):
            rep.complete("pq", PARAMS, tag="a")
        with pytest.raises(TransportError):
            rep.complete("pr", PARAMS, tag="a")  # forged record fails verification too

    @pytest.mark.parametrize("usage", [{"prompt_tokens": "x"}, [1], None])
    def test_malformed_usage_is_protocol_error(self, tmp_path, usage):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        record = json.loads(cassette.read_text())
        record["response_body"]["usage"] = usage
        cassette.write_text(json.dumps(record) + "\n")
        with pytest.raises(ProtocolError):
            ReplayBackend(cassette).complete("p", PARAMS, tag="a")

    @pytest.mark.parametrize("texts", ["1 2", ["1", 2], [None], {"0": "1"}, 5],
                             ids=["str", "list-with-int", "list-with-null", "object", "int"])
    def test_non_string_texts_are_protocol_error(self, tmp_path, texts):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        record = json.loads(cassette.read_text())
        record["response_body"]["texts"] = texts
        cassette.write_text(json.dumps(record) + "\n")
        with pytest.raises(ProtocolError, match="non-string texts"):
            ReplayBackend(cassette).complete("p", PARAMS, tag="a")

    @pytest.mark.parametrize("count", ["1e400", "-7", "2.5",
                                       pytest.param("1" + "0" * 400, id="10**400")])
    def test_bad_usage_count_fails_at_its_hit(self, tmp_path, count):
        cassette = tmp_path / "c.jsonl"
        rec = RecordingBackend(OracleBackend("1"), cassette)
        rec.complete("p", PARAMS, tag="a")
        rec.complete("p", PARAMS, tag="b")
        good, bad = cassette.read_text().splitlines()
        bad = bad.replace('"prompt_tokens": 1', f'"prompt_tokens": {count}')
        cassette.write_text(good + "\n" + bad + "\n")
        rep = ReplayBackend(cassette)  # loads: the response is checked, not raised
        assert rep.complete("p", PARAMS, tag="a")[0] == ["1"]
        errors = []
        for _ in range(2):
            with pytest.raises(ProtocolError, match="is malformed: ValueError: usage "
                                                    "prompt_tokens") as info:
                rep.complete("p", PARAMS, tag="b")
            errors.append(info.value)
        assert errors[0] is not errors[1]

    def test_deeply_nested_line_is_protocol_error(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        cassette.write_text(cassette.read_text() + "[" * 100_000 + "\n")
        with pytest.raises(ProtocolError, match="line 2 "):
            ReplayBackend(cassette)

    def test_miss_names_hash_prefix_and_tag(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        rep = ReplayBackend(cassette)
        for prompt in ("q", [{"role": "user", "content": "p"}]):
            h = request_hash(canonical_request(*request_body(prompt, PARAMS), "a"))
            with pytest.raises(TransportError, match=re.escape(f"{h[:12]}... (tag='a')")):
                rep.complete(prompt, PARAMS, tag="a")

    def test_params_objects_in_turn(self, tmp_path):
        """The request key's params part is kept for the last params object
        served; another object, equal or not, must still find its records."""
        cassette = tmp_path / "c.jsonl"
        other = GenerationParams(model="test-model", max_tokens=33)
        rec = RecordingBackend(EchoTailBackend(tail=1, steps=1), cassette)
        rec.complete("1, ", PARAMS, tag="a")
        rec.complete("2, ", other, tag="a")
        rep = ReplayBackend(cassette)
        equal = GenerationParams(model="test-model", max_tokens=32)
        for params, prompt in [(PARAMS, "1, "), (other, "2, "), (equal, "1, "), (PARAMS, "1, ")]:
            assert rep.complete(prompt, params, tag="a")[0] == [prompt[0]]
        with pytest.raises(TransportError):
            rep.complete("1, ", other, tag="a")

    def test_usage_defaults_to_one_request(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p q", PARAMS, tag="a")
        record = json.loads(cassette.read_text())
        record["response_body"]["usage"] = {"prompt_tokens": 2}
        cassette.write_text(json.dumps(record) + "\n")
        _, usage = ReplayBackend(cassette).complete("p q", PARAMS, tag="a")
        assert usage == Usage(2, 0, 1)

    def test_line_with_a_timestamp_still_replays(self, tmp_path):
        # cassettes recorded before lines lost their stamp
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("4 2"), cassette).complete("p", PARAMS, tag="a")
        record = json.loads(cassette.read_text())
        assert "timestamp" not in record
        record["timestamp"] = "2025-01-01T00:00:00+00:00"
        cassette.write_text(json.dumps(record, sort_keys=True) + "\n")
        rep = ReplayBackend(cassette)
        assert rep.complete("p", PARAMS, tag="a")[0] == ["4 2"]
        assert rep.describe() == {"backend": "replay", "cassette": str(cassette)}

    def test_missing_cassette(self, tmp_path):
        with pytest.raises(ConfigError):
            ReplayBackend(tmp_path / "absent.jsonl")

    def test_non_object_line_is_protocol_error(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        cassette.write_text(cassette.read_text() + "\n[1]\n")
        with pytest.raises(ProtocolError, match="line 3 is not a JSON object"):
            ReplayBackend(cassette)

    def test_verified_record_without_response_is_protocol_error(self, tmp_path):
        cassette = tmp_path / "c.jsonl"
        RecordingBackend(OracleBackend("1"), cassette).complete("p", PARAMS, tag="a")
        record = json.loads(cassette.read_text())
        del record["response_body"]
        cassette.write_text(json.dumps(record) + "\n")
        with pytest.raises(ProtocolError, match="line 1 has no response_body"):
            ReplayBackend(cassette)

    def test_hash_ignores_nothing_it_should_keep(self):
        c1 = canonical_request("completions", {"prompt": "a", "model": "m"}, "t")
        c2 = canonical_request("completions", {"prompt": "a", "model": "m"}, "t2")
        c3 = canonical_request("chat", {"prompt": "a", "model": "m"}, "t")
        assert request_hash(c1) != request_hash(c2)
        assert request_hash(c1) != request_hash(c3)
        assert request_hash(c1) == request_hash(
            canonical_request("completions", {"model": "m", "prompt": "a"}, "t")
        )


# request hashes as recorded before the wire and cassette bodies shared one
# builder; if these move, every cassette recorded until then stops replaying
GOLDEN_PARAMS = GenerationParams(max_tokens=64, stop=("\n",))
GOLDEN_MESSAGES = [{"role": "user", "content": "1 2 3, 4 5 6"}]
GOLDEN_HASHES = [
    ("1 2 3, 4 5 6, ", "sample-0/try-0",
     "ceee645b9266a81446eebcd2df6b43778915518969bbb89d82b62978f3163490"),
    (GOLDEN_MESSAGES, "sample-1/try-0",
     "0969d7f4c95ae1df9e67e9c71c025630588d7c8c6f0514810046f9e6d8c682fb"),
]


class TestGoldenRequestHashes:
    @pytest.mark.parametrize("request_input, tag, expected", GOLDEN_HASHES,
                             ids=["completions", "chat"])
    def test_recorded_hash(self, tmp_path, request_input, tag, expected):
        cassette = tmp_path / "c.jsonl"
        rec = RecordingBackend(OracleBackend("7 8 9"), cassette)
        rec.complete(request_input, GOLDEN_PARAMS, tag=tag)
        record = json.loads(cassette.read_text())
        assert record["request_hash"] == expected
        assert request_hash(record["canonical_request"]) == expected
        texts, _ = ReplayBackend(cassette).complete(request_input, GOLDEN_PARAMS, tag=tag)
        assert texts == ["7 8 9"]

    @pytest.mark.parametrize("request_input, tag, expected", GOLDEN_HASHES + [
        ([{"role": "system", "content": "prévision, 予測 😀"}] + GOLDEN_MESSAGES, "sample-2/try-0",
         "ab5fe341d89b7f1f3d134c5dfde865c143247bb6b531b3823e6681bc881d9d28"),
    ], ids=["completions", "chat", "chat-non-ascii"])
    def test_wire_body_is_hashed_body(self, http_server, tmp_path, request_input, tag, expected):
        base, script = http_server
        chat = not isinstance(request_input, str)
        reply = {"message": {"content": "1"}} if chat else {"text": "1"}
        script.script = [(200, {"choices": [reply]})]
        cassette = tmp_path / "c.jsonl"
        live = HttpBackend(BackendConfig(base_url=base))
        RecordingBackend(live, cassette).complete(request_input, GOLDEN_PARAMS, tag=tag)
        record = json.loads(cassette.read_text())
        assert script.calls[0]["path"] == ("/v1/chat/completions" if chat else "/v1/completions")
        head = "messages" if chat else "prompt"
        # the wire body's key order
        assert list(script.calls[0]["body"]) == [
            head, "model", "temperature", "top_p", "max_tokens", "n", "stop",
        ]
        assert script.calls[0]["body"] == record["canonical_request"]["body"]
        assert record["request_hash"] == expected
        # the wire bytes: compact separators, UTF-8 without \u escapes
        _, body = request_body(request_input, GOLDEN_PARAMS)
        assert script.calls[0]["raw"] == json.dumps(
            body, separators=(",", ":"), ensure_ascii=False).encode()


# text that JSON must escape or may keep as UTF-8: quotes, backslashes,
# control characters and non-ASCII, including astral-plane characters
_json_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é漢😀'), st.characters())
)
_messages = st.lists(
    st.fixed_dictionaries({"role": st.sampled_from(["system", "user"]), "content": _json_text}),
    min_size=1,
    max_size=3,
)


class TestHashAsBuilt:
    """canonical_request hashes request_body's dict as built; cassettes were
    recorded when it hashed the body's JSON round trip."""

    @settings(max_examples=300, deadline=None)
    @given(
        prompt=st.one_of(_json_text, _messages),
        tag=_json_text,
        stop=st.lists(_json_text.filter(bool), max_size=3).map(tuple),
        temperature=st.one_of(
            st.integers(0, 5), st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        ),
        top_p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        max_tokens=st.integers(1, 10**6),
    )
    def test_same_bytes_as_round_trip(self, prompt, tag, stop, temperature, top_p, max_tokens):
        params = GenerationParams(
            model="m", temperature=temperature, top_p=top_p, max_tokens=max_tokens, stop=stop
        )
        endpoint, body = request_body(prompt, params)
        canonical = canonical_request(endpoint, body, tag)
        old = {"endpoint": endpoint, "body": json.loads(json.dumps(body)), "tag": tag}
        assert request_hash(canonical) == request_hash(old)
        # the cassette line RecordingBackend writes
        assert json.dumps(canonical, sort_keys=True) == json.dumps(old, sort_keys=True)


# small pools, so that distinct canonical requests often share a request
# hash: 1, 1.0 and True encode differently but compare equal, as do -0.0 and
# 0.0, while NaN encodes alike but never compares equal. The prompts and tags
# hold non-ASCII text and lone surrogates, and "😀" and its surrogate pair
# "\ud83d\ude00" differ as strs but encode alike
_key_scalars = st.sampled_from([0, 1, 1.0, True, False, 0.0, -0.0, float("nan"), None, "1",
                                "", "é"])
_key_values = st.recursive(
    _key_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.sampled_from(["a", "n", "prompt"]), inner,
                                            max_size=2)),
    max_leaves=4,
)
_key_prompts = st.sampled_from(["", "1 2, ", "1 2, 3", "é", "😀", "\ud83d\ude00", "\ud800",
                                "\udfff", "\x00"])
_key_bodies = st.one_of(
    st.fixed_dictionaries({"prompt": _key_prompts},
                          optional={"model": _key_values, "n": _key_values}),
    st.fixed_dictionaries({"messages": st.lists(
        st.fixed_dictionaries({"role": st.just("user"), "content": _key_prompts}), max_size=2)},
        optional={"n": _key_values}),
    _key_values,
)
_key_fields = {
    "endpoint": st.sampled_from(["completions", "chat", 1]),
    "body": _key_bodies,
    "tag": st.sampled_from(["", "a", "é", "😀", "\ud83d\ude00", "\ude00", 1, None]),
}
_canonicals = st.one_of(
    st.fixed_dictionaries(_key_fields),
    st.fixed_dictionaries(_key_fields, optional={"extra": _key_values}),
    st.fixed_dictionaries({k: v for k, v in _key_fields.items() if k != "tag"}),
    _key_values,
)


class TestLookupKey:
    """ReplayBackend indexes records by lookup_key instead of request_hash."""

    @settings(max_examples=1000, deadline=None)
    @given(a=_canonicals, b=_canonicals)
    def test_equal_exactly_when_hashes_are(self, a, b):
        assert (lookup_key(a) == lookup_key(b)) == (request_hash(a) == request_hash(b))
        # a cassette line's canonical request is the JSON round trip
        assert lookup_key(json.loads(json.dumps(a))) == lookup_key(a)

    @settings(max_examples=100, deadline=None)
    @given(prompt=st.one_of(_key_prompts, _json_text,
                            _messages.map(lambda ms: ms + [{"role": "user", "content": "1"}])),
           tag=st.one_of(_json_text, _key_prompts),
           max_tokens=st.integers(1, 40), stop=st.lists(_json_text.filter(bool),
                                                        max_size=2).map(tuple))
    # the cassette line reads a surrogate pair back as its character
    @example(prompt="1, \ud83d\ude00", tag="\ud83d\ude00", max_tokens=1, stop=())
    def test_request_finds_its_record(self, tmp_path_factory, prompt, tag, max_tokens, stop):
        cassette = tmp_path_factory.mktemp("replay") / "c.jsonl"
        params = GenerationParams(model="m", max_tokens=max_tokens, stop=stop)
        RecordingBackend(OracleBackend("7"), cassette).complete(prompt, params, tag=tag)
        replay = ReplayBackend(cassette)
        assert replay.complete(prompt, params, tag=tag)[0] == ["7"]
        with pytest.raises(TransportError):
            replay.complete(prompt, params, tag=tag + "x")


class _Script(BaseHTTPRequestHandler):
    """Serves a scripted list of responses, in order; the last one repeats.

    An entry is (status, body), (status, body, headers) or (status, body,
    headers, delay), or a function of the request's parsed JSON that returns
    one. A bytes body goes out as it is, anything else as JSON. A reply waits
    its entry's delay, else `delay` seconds. `peak` is the most
    requests the handler has held at once. Each call keeps the raw request
    body, its parsed JSON and when it arrived.
    """

    script = []
    calls = []
    delay = 0.0
    active = peak = 0
    lock = threading.Lock()

    def record(self, raw=b""):
        """Appends this request to `calls`; returns how many there are."""
        self.calls.append({"method": self.command, "path": self.path, "raw": raw,
                           "body": json.loads(raw or b"{}"), "at": time.monotonic(),
                           "port": self.client_address[1],
                           "auth": self.headers.get("Authorization"),
                           "proxy_auth": self.headers.get("Proxy-Authorization")})
        return len(self.calls)

    def do_CONNECT(self):
        """A proxy's tunnel request: recorded, then refused."""
        with self.lock:
            self.record()
        self.send_error(502)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        cls = type(self)
        with self.lock:
            entry = self.script[min(self.record(raw), len(self.script)) - 1]
            status, payload, *extra = entry(self.calls[-1]["body"]) if callable(entry) else entry
            cls.active += 1
            cls.peak = max(cls.peak, cls.active)
        headers = extra[0] if extra else {}
        time.sleep(extra[1] if len(extra) > 1 else self.delay)
        with self.lock:
            cls.active -= 1
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _CloseWhenIdle(_Script):
    """Replies in HTTP/1.1 without "Connection: close", then closes the
    connection, as a server does with a keep-alive connection that idled out."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _StallAfterHead(_Script):
    """Echoes each prompt, but its first reply to "stall" sends the head and
    then stalls for 1 s before the body."""

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            self.record(raw)
            prompt = self.calls[-1]["body"]["prompt"]
            stall = [c["body"]["prompt"] for c in self.calls].count(prompt) == 1
        data = json.dumps({"choices": [{"text": prompt}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if prompt == "stall" and stall:
            time.sleep(1.0)
        self.wfile.write(data)


class _KeepAlive(_Script):
    """Replies in HTTP/1.1 and keeps each connection open for the next request."""

    protocol_version = "HTTP/1.1"


class _BodySize(_KeepAlive):
    """Replies to each request with the length of the body it read and the
    request's Content-Length: "<read> of <Content-Length>"."""

    def do_POST(self):
        declared = int(self.headers["Content-Length"])
        raw = self.rfile.read(declared)
        with self.lock:
            self.record(raw)
        self.wfile.write(_raw_reply(json.dumps(
            {"choices": [{"text": f"{len(raw)} of {declared}"}]}).encode()))


def _echo_reply(handler, chunked=False):
    """Reads the handler's request and returns a raw reply that echoes its
    prompt; its body is framed by Content-Length, or in two chunks."""
    raw = handler.rfile.read(int(handler.headers["Content-Length"]))
    with handler.lock:
        handler.record(raw)
        prompt = handler.calls[-1]["body"]["prompt"]
    body = json.dumps({"choices": [{"text": prompt}],
                       "usage": {"prompt_tokens": 3, "completion_tokens": 2}}).encode()
    if not chunked:
        return _raw_reply(body)
    body = b"".join(b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:9], body[9:], b""))
    return _raw_reply(body, b"Transfer-Encoding: chunked")


class _Trickle(_KeepAlive):
    """Echoes each prompt in a reply written `piece` bytes at a time, or in
    one write when `piece` is None, framed as `chunked` says."""

    piece = None
    chunked = False

    def do_POST(self):
        reply = _echo_reply(self, chunked=self.chunked)
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each piece apart
        piece = self.piece or len(reply)
        for start in range(0, len(reply), piece):
            self.wfile.write(reply[start:start + piece])
            time.sleep(0.0005)


class _TimeoutWhenIdle(_KeepAlive):
    """Echoes each prompt. After the first reply it waits, then writes "408
    Request Timeout" on that connection and leaves it open, as a server whose
    idle timer ran out may; `timed_out` is set once it has."""

    timed_out = threading.Event()

    def do_POST(self):
        self.wfile.write(_echo_reply(self))
        if len(self.calls) == 1:
            time.sleep(0.1)  # the client has read the reply and pooled the connection
            self.wfile.write(b"HTTP/1.1 408 Request Timeout\r\n\r\n")
            self.timed_out.set()


class _Server(ThreadingHTTPServer):
    closed = 0  # connections closed by the server

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with _Script.lock:
            self.closed += 1

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its end


# a self-signed certificate for 127.0.0.1 and its key, for loopback TLS only
TLS_PEM = os.path.join(os.path.dirname(__file__), "tls", "loopback.pem")


@pytest.fixture
def serve(monkeypatch):
    """Starts a loopback _Server for a handler class: serve(handler) -> (base
    URL, server), over TLS with TLS_PEM for serve(handler, tls=True). _Script's
    state starts empty."""
    for name in list(os.environ):  # every proxy setting, so each test is hermetic
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    _Script.script = []
    _Script.calls = []
    _Script.delay = 0.0
    _Script.active = _Script.peak = 0
    running = []

    def start(handler, tls=False):
        server = _Server(("127.0.0.1", 0), handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_PEM)
            server.socket = context.wrap_socket(server.socket, server_side=True)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread))
        return f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}", server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def http_server(serve):
    return serve(_Script)[0], _Script


@pytest.fixture(autouse=True)
def close_backends(monkeypatch):
    """Closes every HttpBackend a test built once the test is over, as a
    caller done with a backend does: the idle connections in its pool would
    stay open until the collector found them, and warn then."""
    built = []
    init = HttpBackend.__init__

    def building(backend, *args, **kwargs):
        init(backend, *args, **kwargs)
        built.append(backend)

    monkeypatch.setattr(HttpBackend, "__init__", building)
    yield
    for backend in built:
        backend.close()


@pytest.fixture
def sleeps(monkeypatch):
    """The delays HttpBackend sleeps between attempts, recorded instead of
    slept. Its monotonic clock stands still, so each delay is recorded as
    computed; a reply's timeout still fires when the selector's wait for it
    runs out."""
    import nlts.backend

    slept = []
    monkeypatch.setattr(nlts.backend, "time", types.SimpleNamespace(
        sleep=slept.append, time=time.time, monotonic=lambda: 0.0))
    return slept


def _job(samples):
    """A noise-free forecast whose every sample parses _ok_completion's reply."""
    return ForecastJob(history=TimeSeries(np.arange(1.0, 21.0)), horizon=2, samples=samples)


def _echo(body):
    """A script entry whose reply text is the request's prompt."""
    return 200, {"choices": [{"text": body["prompt"]}]}


def _ok_completion(text="1 2, 3 4"):
    return (
        200,
        {
            "choices": [{"text": text}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 9},
        },
    )


class TestHttpBackend:
    def make(self, base, **kw):
        cfg = BackendConfig(
            base_url=base,
            api_key="sk-test",
            max_retries=kw.pop("max_retries", 3),
            backoff_base=0.001,
            backoff_cap=0.004,
            **kw,
        )
        return HttpBackend(cfg)

    def test_completion_success(self, http_server):
        base, script = http_server
        script.script = [_ok_completion()]
        backend = self.make(base)
        texts, usage = backend.complete("1 1, ", PARAMS)
        assert texts == ["1 2, 3 4"]
        assert usage == Usage(7, 9, 1)
        assert script.calls[0]["path"] == "/v1/completions"
        assert script.calls[0]["body"]["prompt"] == "1 1, "
        assert script.calls[0]["body"]["model"] == "test-model"
        assert script.calls[0]["auth"] == "Bearer sk-test"

    def test_chat_success(self, http_server):
        base, script = http_server
        script.script = [
            (200, {"choices": [{"message": {"content": "5 5"}}],
                   "usage": {"prompt_tokens": 3, "completion_tokens": 2}})
        ]
        backend = self.make(base)
        messages = [{"role": "user", "content": "hello"}]
        texts, usage = backend.complete(messages, PARAMS)
        assert texts == ["5 5"]
        assert script.calls[0]["path"] == "/v1/chat/completions"
        assert script.calls[0]["body"]["messages"] == messages

    def test_malformed_chat_is_not_sent(self, http_server):
        base, script = http_server
        backend = self.make(base)
        for messages in ([], [{"content": "no role"}], [{"role": "system", "content": "s"}]):
            with pytest.raises(ProtocolError):
                backend.complete(messages, PARAMS)
        assert script.calls == []

    def test_retry_on_429_then_success(self, http_server):
        base, script = http_server
        script.script = [(429, {"error": "slow down"}), (429, {"error": "slow down"}),
                         _ok_completion()]
        backend = self.make(base)
        texts, usage = backend.complete("p", PARAMS)
        assert texts == ["1 2, 3 4"]
        assert usage.requests == 3
        assert len(script.calls) == 3

    def test_retry_budget_exhausted(self, http_server):
        base, script = http_server
        script.script = [(429, {"error": "no"})]
        backend = self.make(base, max_retries=2)
        with pytest.raises(RateLimitError):
            backend.complete("p", PARAMS)
        assert len(script.calls) == 3  # initial try + 2 retries

    def test_server_error_retries_then_transport_error(self, http_server):
        base, script = http_server
        script.script = [(503, {"error": "down"})]
        backend = self.make(base, max_retries=1)
        with pytest.raises(TransportError):
            backend.complete("p", PARAMS)
        assert len(script.calls) == 2

    def test_auth_error_no_retry(self, http_server):
        base, script = http_server
        script.script = [(401, {"error": "bad key"})]
        backend = self.make(base)
        with pytest.raises(AuthError):
            backend.complete("p", PARAMS)
        assert len(script.calls) == 1

    def test_protocol_error_on_bad_shape(self, http_server):
        base, script = http_server
        script.script = [(200, {"unexpected": True})]
        backend = self.make(base)
        with pytest.raises(ProtocolError):
            backend.complete("p", PARAMS)

    def test_404_is_protocol_error(self, http_server):
        base, script = http_server
        script.script = [(404, {"error": "nope"})]
        backend = self.make(base)
        with pytest.raises(ProtocolError):
            backend.complete("p", PARAMS)

    def test_in_flight_from_config(self, http_server, tmp_path):
        base, script = http_server
        script.script = [_echo]
        script.delay = 0.05
        live = self.make(base, max_in_flight=3)
        calls = [(f"{i}", PARAMS, f"t{i}") for i in range(7)]
        assert [texts for texts, _ in live.complete_many(calls)] == [[f"{i}"] for i in range(7)]
        assert script.peak == 3
        # a recording wrapper sends its batch through the inner backend's complete_many
        script.peak = 0
        recorded = RecordingBackend(live, tmp_path / "c.jsonl").complete_many(calls)
        assert [texts for texts, _ in recorded] == [[f"{i}"] for i in range(7)]
        assert script.peak == 3
        # in-process backends answer in call order on the calling thread
        threads = []

        class Inline(OracleBackend):
            def complete(self, prompt, params, tag=""):
                threads.append(threading.current_thread())
                return [tag], Usage(requests=1)

        assert Inline("1").complete_many(calls) == [([f"t{i}"], Usage(requests=1))
                                                    for i in range(7)]
        assert threads == [threading.current_thread()] * 7

    def test_forecasts_make_every_request_on_the_calling_thread(self, http_server, monkeypatch):
        base, script = http_server
        script.script = [_ok_completion()]
        script.delay = 0.05
        backend = self.make(base, max_in_flight=2)
        threads = []  # the thread of each request written and of each reply's first read

        def recording(write):
            def writing(sock, data, *args):
                if data.startswith(b"POST "):  # the server's threads write only replies
                    threads.append(threading.current_thread())
                return write(sock, data, *args)
            return writing

        recv = socket.socket.recv

        def receiving(sock, *args):
            data = recv(sock, *args)
            if data.startswith(b"HTTP/"):
                threads.append(threading.current_thread())
            return data

        # a request goes out with send, and with sendall only when send leaves a part
        monkeypatch.setattr(socket.socket, "send", recording(socket.socket.send))
        monkeypatch.setattr(socket.socket, "sendall", recording(socket.socket.sendall))
        monkeypatch.setattr(socket.socket, "recv", receiving)
        for _ in range(2):
            assert run_nlts(_job(samples=4), backend).valid_samples == 4
        assert threads == [threading.current_thread()] * 16
        assert len(script.calls) == 8 and script.peak == 2

    def test_failed_sample_cancels_samples_not_started(self, http_server):
        base, script = http_server
        script.script = [(401, {"error": "bad key"}), (*_ok_completion(), {}, 0.2)]
        backend = self.make(base, max_in_flight=1)
        with pytest.raises(AuthError):
            run_nlts(_job(samples=4), backend)
        # sample 0 got the 401 while it held the one slot: no other sample was sent
        assert len(script.calls) == 1

    @pytest.mark.parametrize("key", ["sk-1\nx", "sk-1\rx", "sk-1\r\n", "sk-\u2603"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_unsendable_api_key_is_config_error(self, monkeypatch, key, from_env):
        if from_env:
            monkeypatch.setenv("NLTS_API_KEY", key)
        cfg = BackendConfig(base_url="http://127.0.0.1:9", api_key=None if from_env else key)
        with pytest.raises(ConfigError, match="api_key") as info:
            HttpBackend(cfg)
        assert "sk-" not in str(info.value)

    @pytest.mark.parametrize("path", ["/a b", "/café", "/a\x7f"])
    def test_unsendable_base_url_path_is_config_error(self, path):
        with pytest.raises(ConfigError, match="base_url path"):
            HttpBackend(BackendConfig(base_url="http://127.0.0.1:9" + path))

    def test_missing_base_url(self, monkeypatch):
        monkeypatch.delenv("NLTS_API_BASE", raising=False)
        with pytest.raises(ConfigError):
            HttpBackend(BackendConfig())

    def test_env_config(self, http_server, monkeypatch):
        base, script = http_server
        script.script = [_ok_completion()]
        monkeypatch.setenv("NLTS_API_BASE", base)
        monkeypatch.setenv("NLTS_API_KEY", "sk-env")
        backend = HttpBackend(BackendConfig(backoff_base=0.001, backoff_cap=0.002))
        backend.complete("p", PARAMS)
        assert script.calls[0]["auth"] == "Bearer sk-env"

    def test_delays_nondecreasing(self, http_server, sleeps):
        base, script = http_server
        script.script = [(429, {})] * 6 + [_ok_completion()]
        _, usage = self.make(base, max_retries=6).complete("p", PARAMS)
        assert usage.requests == 7
        # the first retry goes at once; the cap (0.004 s) is reached by the second sleep
        assert len(sleeps) == 5
        assert 0.002 <= sleeps[0] <= 0.003
        assert sleeps[1:] == [0.004] * 4
        assert sleeps == sorted(sleeps)

    def test_retry_after_is_capped(self, http_server, sleeps):
        base, script = http_server
        script.script = [(429, {}, {"Retry-After": "3600"}), _ok_completion()]
        texts, usage = self.make(base).complete("p", PARAMS)
        assert texts == ["1 2, 3 4"]
        assert usage.requests == 2
        assert sleeps == [0.004]

    def test_retry_after_date_is_capped(self, http_server, sleeps):
        base, script = http_server
        an_hour_ahead = email.utils.formatdate(time.time() + 3600, usegmt=True)
        script.script = [(503, {}, {"Retry-After": an_hour_ahead}), _ok_completion()]
        _, usage = self.make(base).complete("p", PARAMS)
        assert usage.requests == 2
        assert sleeps == [0.004]

    @pytest.mark.parametrize("value", ["0.5", "soon", "", "0", "Mon, 01 Jan 2001 00:00:00 GMT"])
    def test_unparseable_retry_after_keeps_the_backoff(self, http_server, sleeps, value):
        base, script = http_server
        script.script = [(429, {}, {"Retry-After": value}), (503, {}, {"Retry-After": value}),
                         _ok_completion()]
        _, usage = self.make(base).complete("p", PARAMS)
        assert usage.requests == 3
        assert len(sleeps) == 1 and 0.002 <= sleeps[0] <= 0.003

    def test_5xx_burst_counts_every_attempt(self, http_server, sleeps):
        base, script = http_server
        script.script = [(500, {}), (502, {}), (503, {}), (504, {}), _ok_completion()]
        _, usage = self.make(base, max_retries=4).complete("p", PARAMS)
        assert usage == Usage(7, 9, 5)
        assert len(script.calls) == 5

    @pytest.mark.parametrize("payload", [
        b'{"choices": [{"text": "1 2',
        b"",
        b"not json",
        {"choices": []},
        {"choices": "1 2"},
        [{"text": "1"}],
    ], ids=["truncated", "empty-body", "not-json", "empty-choices", "choices-str", "list"])
    def test_bad_body_is_protocol_error_without_retry(self, http_server, payload):
        base, script = http_server
        script.script = [(200, payload)]
        with pytest.raises(ProtocolError):
            self.make(base).complete("p", PARAMS)
        assert len(script.calls) == 1

    @pytest.mark.parametrize("prompt, choices", [
        ("p", [{"text": 5}]),
        ("p", [{"text": None}]),
        ("p", [{"text": "1 2"}, {"text": ["1 2"]}]),
        ([{"role": "user", "content": "1, 2"}], [{"message": {"content": None}}]),
        ([{"role": "user", "content": "1, 2"}], [{"message": {"content": {"text": "1"}}}]),
    ], ids=["int", "null", "list", "chat-null", "chat-object"])
    def test_non_string_text_is_protocol_error(self, http_server, prompt, choices):
        base, script = http_server
        script.script = [(200, {"choices": choices})]
        with pytest.raises(ProtocolError, match="not a string"):
            self.make(base).complete(prompt, PARAMS)

    def test_slow_reply_is_transport_error(self, http_server, sleeps):
        base, script = http_server
        script.script = [_ok_completion()]
        script.delay = 1.0
        with pytest.raises(TransportError):
            self.make(base, max_retries=1, timeout=0.2).complete("p", PARAMS)
        assert len(script.calls) == 2  # a read timeout is retried too

    def test_pool_slot_is_free_during_retry_after(self, http_server):
        base, script = http_server
        script.script = [(429, {}, {"Retry-After": "1"}), _ok_completion()]
        cfg = BackendConfig(base_url=base, max_in_flight=1, backoff_base=0.001, backoff_cap=1.0)
        backend = HttpBackend(cfg)
        finished = {}

        def run(name, prompt):
            backend.complete(prompt, PARAMS)
            finished[name] = time.monotonic()

        start = time.monotonic()
        first = threading.Thread(target=run, args=("first", "p"))
        first.start()
        while not script.calls and time.monotonic() - start < 5:
            time.sleep(0.005)
        run("second", "q")
        first.join(timeout=5)
        assert not first.is_alive()
        # the second request used the one connection while the first slept out 1 s
        assert finished["first"] - start >= 1.0
        assert finished["second"] < finished["first"]
        assert [c["body"]["prompt"] for c in script.calls] == ["p", "q", "p"]

    def test_pool_slot_is_free_during_transport_backoff(self, http_server):
        base, script = http_server
        # two replies slower than the timeout, then prompt ones
        script.script = [(200, {}, {}, 1.0), (200, {}, {}, 1.0), _ok_completion()]
        cfg = BackendConfig(base_url=base, max_in_flight=1, timeout=0.2,
                            backoff_base=0.5, backoff_cap=0.5)
        backend = HttpBackend(cfg)
        finished = {}

        def run(name, prompt):
            backend.complete(prompt, PARAMS)
            finished[name] = time.monotonic()

        start = time.monotonic()
        first = threading.Thread(target=run, args=("first", "p"))
        first.start()
        while len(script.calls) < 2 and time.monotonic() - start < 5:
            time.sleep(0.005)
        run("second", "q")
        first.join(timeout=5)
        assert not first.is_alive()
        # two timeouts of 0.2 s, then 0.5 s of backoff, which the second request ran inside
        assert finished["first"] - start >= 0.9
        assert finished["second"] < finished["first"]
        assert [c["body"]["prompt"] for c in script.calls] == ["p", "p", "q", "p"]

    @pytest.mark.parametrize("max_retries", [3, 0])
    def test_connection_closed_while_idle_costs_no_attempt(self, serve, max_retries):
        base, server = serve(_CloseWhenIdle)
        _Script.script = [_ok_completion()]
        backend = self.make(base, max_retries=max_retries)
        attempts = []
        for i in range(5):
            attempts.append(backend.complete("p", PARAMS)[1].requests)
            deadline = time.monotonic() + 5
            while server.closed <= i and time.monotonic() < deadline:
                time.sleep(0.001)  # until the server has closed this call's connection
        assert attempts == [1] * 5
        assert len(_Script.calls) == 5

    def test_pool_bounds_requests_in_flight(self, http_server):
        base, script = http_server
        script.script = [_ok_completion()]
        script.delay = 0.02
        backend = self.make(base, max_in_flight=2)
        results = []

        def run(i):
            results.append(backend.complete(f"{i}", PARAMS)[1])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert results == [Usage(7, 9, 1)] * 8
        assert script.peak == 2

    @pytest.mark.parametrize("usage", [{"prompt_tokens": "lots"}, [3, 4], "none"])
    def test_usage_estimated_when_endpoint_garbles_it(self, http_server, usage):
        base, script = http_server
        script.script = [(429, {}), (200, {"choices": [{"text": "1 2 3"}], "usage": usage})]
        backend = self.make(base)
        _, usage = backend.complete("a b", PARAMS)
        assert usage == Usage(2, 3, 2)

    @pytest.mark.parametrize("count", [b"1e400", b"-7", b"2.5",
                                       pytest.param(b"1" + b"0" * 400, id="10**400")])
    def test_usage_estimated_when_a_count_is_out_of_range(self, http_server, count):
        base, script = http_server
        script.script = [(200, b'{"choices": [{"text": "1 2 3"}], "usage": {"prompt_tokens": '
                               + count + b', "completion_tokens": 9}}')]
        _, usage = self.make(base).complete("a b", PARAMS)
        assert usage == Usage(2, 3, 1)

    def test_deeply_nested_body_is_protocol_error(self, http_server):
        base, script = http_server
        script.script = [(200, b"[" * 100_000)]
        with pytest.raises(ProtocolError, match="invalid JSON"):
            self.make(base).complete("p", PARAMS)
        assert len(script.calls) == 1

    def test_endpoint_request_count_is_ignored(self, http_server):
        base, script = http_server
        script.script = [(200, {"choices": [{"text": "1"}],
                                "usage": {"prompt_tokens": 4, "requests": 9}})]
        _, usage = self.make(base).complete("p", PARAMS)
        assert usage == Usage(4, 0, 1)

    def test_chat_usage_estimate_counts_every_message(self, http_server):
        base, script = http_server
        script.script = [(200, {"choices": [{"message": {"content": "5 5"}}]})]
        messages = [{"role": "system", "content": "be brief"}, {"role": "user", "content": "1, 2"}]
        _, usage = self.make(base).complete(messages, PARAMS)
        assert usage == Usage(4, 2, 1)

    def test_usage_estimated_when_endpoint_omits_it(self, http_server):
        base, script = http_server
        script.script = [(200, {"choices": [{"text": "1 2 3"}]})]
        backend = self.make(base)
        texts, usage = backend.complete("a b", PARAMS)
        assert usage.prompt_tokens == 2
        assert usage.completion_tokens == 3


class TestCompleteMany:
    """HttpBackend.complete_many multiplexes a batch's requests on the calling
    thread: at most max_in_flight at once, results in call order."""

    def make(self, base, **kw):
        return HttpBackend(BackendConfig(base_url=base, backoff_base=0.001, backoff_cap=0.004,
                                         **kw))

    def test_in_flight_bound_and_call_order(self, http_server):
        base, script = http_server
        # the first request is the slowest, so replies land out of call order
        script.script = [lambda body: (*_echo(body), {}, 0.15), _echo]
        script.delay = 0.05
        calls = [(f"{i}", PARAMS, "") for i in range(6)]
        results = self.make(base, max_in_flight=2).complete_many(calls)
        assert results == [([f"{i}"], Usage(1, 1, 1)) for i in range(6)]
        assert script.peak == 2

    def test_no_thread_is_started(self, raw_server):
        # the server closes each connection after its reply, and says so
        base, requests = raw_server(_raw_reply(_CHOICES, b"Connection: close"))
        before = threading.enumerate()
        backend = self.make(base, max_in_flight=3)
        results = backend.complete_many([("p", PARAMS, f"t{i}") for i in range(5)])
        assert results == [(["1 2"], Usage(3, 2, 1))] * 5
        assert threading.enumerate() == before
        assert len(requests) == 5

    def test_waiting_call_leaves_its_slot_to_the_next(self, http_server):
        base, script = http_server
        script.script = [(429, {}, {"Retry-After": "1"}), _echo]
        backend = HttpBackend(BackendConfig(base_url=base, max_in_flight=1, backoff_base=0.001,
                                            backoff_cap=1.0))
        start = time.monotonic()
        results = backend.complete_many([("a", PARAMS, ""), ("b", PARAMS, "")])
        assert time.monotonic() - start >= 1.0
        assert results == [(["a"], Usage(1, 1, 2)), (["b"], Usage(1, 1, 1))]
        # call 1 was sent, and with one slot also answered, while call 0 waited
        assert [c["body"]["prompt"] for c in script.calls] == ["a", "b", "a"]

    def test_fatal_error_sends_no_later_call(self, http_server):
        base, script = http_server
        script.script = [(401, {"error": "bad key"}), _echo]
        backend = self.make(base, max_in_flight=1)
        with pytest.raises(AuthError):
            backend.complete_many([(f"{i}", PARAMS, "") for i in range(3)])
        assert len(script.calls) == 1
        # the backend stays usable
        assert backend.complete("x", PARAMS)[0] == ["x"]

    def test_lowest_index_error_is_raised(self, http_server):
        base, script = http_server
        # call 0 fails last, with a 404; call 1 fails first, with a 401
        script.script = [lambda body: (404, {}, {}, 0.2) if body["prompt"] == "0"
                         else (401, {}, {}, 0.0)]
        backend = self.make(base, max_in_flight=2)
        with pytest.raises(ProtocolError, match="HTTP 404"):
            backend.complete_many([(f"{i}", PARAMS, "") for i in range(4)])
        assert sorted(c["body"]["prompt"] for c in script.calls) == ["0", "1"]

    def test_slow_reply_retries_only_its_call(self, http_server):
        base, script = http_server

        def reply(body):
            first = [c["body"]["prompt"] for c in script.calls].count(body["prompt"]) == 1
            return (*_echo(body), {}, 1.0 if body["prompt"] == "slow" and first else 0.0)

        script.script = [reply]
        backend = self.make(base, max_in_flight=2, timeout=0.3)
        results = backend.complete_many([("slow", PARAMS, ""), ("fast", PARAMS, "")])
        assert results == [(["slow"], Usage(1, 1, 2)), (["fast"], Usage(1, 1, 1))]
        assert sorted(c["body"]["prompt"] for c in script.calls) == ["fast", "slow", "slow"]

    def test_tls_session_tickets_do_not_block_the_loop(self, serve, monkeypatch):
        """A fresh TLS 1.3 connection turns readable when the server's session
        tickets arrive, before its reply: the loop keeps waiting instead of
        blocking in that reply's read."""
        monkeypatch.setenv("SSL_CERT_FILE", TLS_PEM)  # the client trusts the loopback certificate
        base, _ = serve(_Script, tls=True)
        _Script.script = [lambda body: (*_echo(body), {}, 1.0 if body["prompt"] == "slow" else 0.2)]
        calls = [("slow", PARAMS, "")] + [(f"f{i}", PARAMS, "") for i in range(3)]
        results = self.make(base, max_in_flight=2).complete_many(calls)
        assert [texts for texts, _ in results] == [["slow"], ["f0"], ["f1"], ["f2"]]
        sent = {c["body"]["prompt"]: c["at"] for c in _Script.calls}
        # f2 goes out once f1's reply is read, about 0.4 s in, not after the slow reply
        assert sent["f2"] - sent["slow"] < 0.8

    def test_recorded_batch_is_one_write_in_call_order(self, http_server, tmp_path, monkeypatch):
        import nlts.backend

        base, script = http_server
        writes = []
        write_text = nlts.backend.write_text

        def counting(path, text, *args, **kwargs):
            writes.append(text)
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(nlts.backend, "write_text", counting)
        cassettes = []
        for delays in ([0.08, 0.0, 0.05, 0.01, 0.07, 0.02, 0.0, 0.03],
                       [0.0, 0.08, 0.01, 0.05, 0.0, 0.07, 0.03, 0.02]):
            script.script = [(*_ok_completion(), {}, d) for d in delays]
            script.calls = []
            path = tmp_path / f"cassette-{len(cassettes)}.jsonl"
            recorder = RecordingBackend(self.make(base, max_in_flight=4), path)
            writes.clear()
            assert run_nlts(_job(samples=8), recorder).valid_samples == 8
            assert len(writes) == 1  # one write for the batch of 8
            cassettes.append(path.read_bytes())
        assert cassettes[0] == cassettes[1]
        tags = [json.loads(line)["canonical_request"]["tag"] for line in cassettes[0].splitlines()]
        assert tags == [f"sample-{i}/try-0" for i in range(8)]

    @pytest.mark.parametrize("check_before_reuse", [True, False])
    def test_idle_close_race_costs_no_attempt(self, raw_server, monkeypatch, check_before_reuse):
        """The server closes each connection right after its reply, without
        saying so. A request sent on such a connection before the close
        shows meets the connection's end before any reply byte: it is resent
        on a new connection, and that costs no attempt. Without the check
        before reuse, every reuse meets it."""
        import nlts.backend

        if not check_before_reuse:
            monkeypatch.setattr(nlts.backend, "_readable", lambda sock: False)
        base, requests = raw_server(_raw_reply(_CHOICES))
        backend = self.make(base, max_in_flight=3)
        results = backend.complete_many([("p", PARAMS, f"t{i}") for i in range(5)])
        assert [usage.requests for _, usage in results] == [1] * 5
        assert len(requests) == 5

    def test_reply_stalled_after_its_head_is_one_failed_attempt(self, serve):
        base, _ = serve(_StallAfterHead)
        backend = self.make(base, max_in_flight=2, timeout=0.3, max_retries=1)
        start = time.monotonic()
        results = backend.complete_many([(p, PARAMS, "") for p in ("stall", "a", "b", "c")])
        assert time.monotonic() - start < 0.9  # the retry went at the timeout, not after the stall
        assert results == [(["stall"], Usage(1, 1, 2))] + [([p], Usage(1, 1, 1)) for p in "abc"]
        # the other calls were sent and answered while the stalled reply waited out its timeout
        prompts = [c["body"]["prompt"] for c in _Script.calls]
        assert sorted(prompts[:4]) == ["a", "b", "c", "stall"] and prompts[4] == "stall"


class TestBatchConnections:
    """How a batch holds its connections: checked out once, carrying the
    batch's calls one after another, sent in one non-blocking send."""

    def make(self, base, **kw):
        return HttpBackend(BackendConfig(base_url=base, backoff_base=0.001, backoff_cap=0.004,
                                         **kw))

    @pytest.mark.parametrize("tls", [False, True], ids=["plain", "tls"])
    def test_request_larger_than_the_send_buffer_arrives_whole(self, serve, monkeypatch, tls):
        """What the non-blocking send leaves of a request goes out blocking:
        the server reads the whole body, and the call costs one attempt."""
        monkeypatch.setenv("SSL_CERT_FILE", TLS_PEM)
        base, _ = serve(_BodySize, tls=tls)
        backend = self.make(base, timeout=5)
        prompt = "1 2 3, " * 2**20  # 7 MB
        texts, usage = backend.complete(prompt, PARAMS)
        read, declared = texts[0].split(" of ")
        assert read == declared and int(declared) > len(prompt)
        assert usage.requests == 1

    def test_a_batch_checks_each_slot_out_once(self, serve, monkeypatch):
        """A batch checks each connection out of the pool once, checks a
        pooled one for readability once, and hands every slot back, also
        when it fails or an exception escapes its loop."""
        import nlts.backend

        base, _ = serve(_KeepAlive)
        _Script.script = [lambda body: (401, {}) if body["prompt"] == "deny" else _echo(body)]
        backend = self.make(base, max_in_flight=4)
        checkouts, checks = [], []
        get, readable = backend._slots.get, nlts.backend._readable

        def checkout(*args, **kwargs):
            conn = get(*args, **kwargs)
            checkouts.append(conn)
            return conn

        def check(sock):
            checks.append(1)
            return readable(sock)

        monkeypatch.setattr(backend._slots, "get", checkout)
        monkeypatch.setattr(nlts.backend, "_readable", check)
        calls = [(f"{i}", PARAMS, "") for i in range(10)]
        expected = [([f"{i}"], Usage(1, 1, 1)) for i in range(10)]
        for pooled in (0, 4):  # the first batch opens the connections, the next reuses them
            checkouts.clear()
            checks.clear()
            assert backend.complete_many(calls) == expected
            assert (len(checkouts), len(checks)) == (4, pooled)
            assert backend._slots.qsize() == 4
        with pytest.raises(AuthError):
            backend.complete_many(calls[:5] + [("deny", PARAMS, "")] + calls[5:])
        assert backend._slots.qsize() == 4

        class Escaped(Exception):
            pass

        def feed(reply, data):
            raise Escaped

        with monkeypatch.context() as patch:
            patch.setattr(Reply, "feed", feed)
            with pytest.raises(Escaped):
                backend.complete_many(calls)
        assert backend._slots.qsize() == 4
        assert backend.complete_many(calls) == expected

    @pytest.mark.parametrize("chunked", [False, True], ids=["content-length", "chunked"])
    def test_trickled_reply_reads_as_one_write(self, serve, chunked):
        results = []
        for piece in (None, 3):
            base, _ = serve(type("Handler", (_Trickle,), {"piece": piece, "chunked": chunked}))
            backend = self.make(base, max_in_flight=2)
            results.append(backend.complete_many([(f"{i}", PARAMS, "") for i in range(4)]))
        assert results[0] == results[1] == [([f"{i}"], Usage(3, 2, 1)) for i in range(4)]

    def test_reply_written_on_an_idle_connection_is_not_the_next_ones(self, serve):
        """An idle pooled connection that the server wrote to unasked is
        closed when a batch checks it out: the request goes on a new one."""
        base, _ = serve(_TimeoutWhenIdle)
        _TimeoutWhenIdle.timed_out.clear()
        backend = self.make(base)
        assert backend.complete("a", PARAMS) == (["a"], Usage(3, 2, 1))
        assert _TimeoutWhenIdle.timed_out.wait(5)
        time.sleep(0.05)  # until the 408 has reached the pooled connection
        assert backend.complete("b", PARAMS) == (["b"], Usage(3, 2, 1))
        first, second = (call["port"] for call in _Script.calls)
        assert first != second


class TestTransport:
    """Proxy selection from the environment, and redirects."""

    def make(self, base):
        return HttpBackend(BackendConfig(base_url=base, backoff_base=0.001, backoff_cap=0.002))

    @pytest.mark.parametrize("with_scheme", [True, False])
    def test_http_proxy_gets_the_absolute_url(self, http_server, monkeypatch, with_scheme):
        base, script = http_server
        script.script = [_ok_completion()]
        monkeypatch.setenv("HTTP_PROXY", base if with_scheme else base.removeprefix("http://"))
        self.make("http://upstream.invalid").complete("p", PARAMS)
        assert script.calls[0]["path"] == "http://upstream.invalid/v1/completions"
        assert script.calls[0]["proxy_auth"] is None

    def test_proxy_credentials_are_sent(self, http_server, monkeypatch):
        base, script = http_server
        script.script = [_ok_completion()]
        monkeypatch.setenv("ALL_PROXY", base.replace("http://", "http://user:p%40ss@"))
        self.make("http://upstream.invalid").complete("p", PARAMS)
        assert script.calls[0]["path"] == "http://upstream.invalid/v1/completions"
        assert script.calls[0]["proxy_auth"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_goes_direct(self, http_server, monkeypatch):
        base, script = http_server
        script.script = [_ok_completion()]
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        self.make(base).complete("p", PARAMS)
        assert script.calls[0]["path"] == "/v1/completions"

    def test_redirect_is_not_followed(self, http_server):
        base, script = http_server
        script.script = [(307, {}, {"Location": "/v1/completions"}), _ok_completion()]
        with pytest.raises(ProtocolError, match="HTTP 307 after 1 attempts"):
            self.make(base).complete("p", PARAMS)
        assert len(script.calls) == 1

    @pytest.mark.parametrize("base_url", ["ftp://upstream.invalid", "localhost:8000", "http://"])
    def test_base_url_must_be_http(self, http_server, base_url):
        with pytest.raises(ConfigError, match="base_url"):
            self.make(base_url)

    def test_https_endpoint_is_tunnelled(self, http_server, monkeypatch):
        base, script = http_server
        monkeypatch.setenv("HTTPS_PROXY", base.replace("http://", "http://user:p%40ss@"))
        with pytest.raises(TransportError):  # the fixture refuses the tunnel
            self.make("https://upstream.invalid").complete("p", PARAMS)
        assert script.calls[0]["method"] == "CONNECT"
        assert script.calls[0]["path"] == "upstream.invalid:443"
        assert script.calls[0]["proxy_auth"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    @pytest.mark.parametrize("route", ["direct", "proxy", "tunnel"])
    def test_request_head_has_http_clients_fields(self, head_server, monkeypatch, route):
        """The head carries the fields http.client sent, in its order, with the
        upstream's Host also through a plain-HTTP proxy and through a tunnel."""
        port, heads = head_server(tunnel=route == "tunnel")
        proxy = f"http://127.0.0.1:{port}"
        if route == "direct":
            base, target, host = proxy + "/api", "/api/v1/completions", f"127.0.0.1:{port}"
        elif route == "proxy":
            monkeypatch.setenv("HTTP_PROXY", proxy)
            base, host = "http://upstream.invalid:8080/api", "upstream.invalid:8080"
            target = base + "/v1/completions"
        else:  # the default port goes without saying
            monkeypatch.setenv("HTTPS_PROXY", proxy)
            monkeypatch.setenv("SSL_CERT_FILE", TLS_PEM)
            base, target, host = "https://127.0.0.1", "/v1/completions", "127.0.0.1"
        backend = HttpBackend(BackendConfig(base_url=base, api_key="sk-test", max_retries=0))
        assert backend.complete("p", PARAMS)[0] == ["1 2"]
        body = json.dumps(request_body("p", PARAMS)[1], separators=(",", ":")).encode()
        request_line, *fields = heads[-1].decode().split("\r\n")
        assert request_line == f"POST {target} HTTP/1.1"
        assert fields == [f"Host: {host}", "Accept-Encoding: identity",
                          f"Content-Length: {len(body)}", "Content-Type: application/json",
                          "User-Agent: nlts", "Authorization: Bearer sk-test"]
        if route == "tunnel":
            assert heads[0].startswith(b"CONNECT 127.0.0.1:443 HTTP/")

    @pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080", "http://[bad",
                                       "https://127.0.0.1:3128"])
    def test_unusable_proxy_is_config_error(self, http_server, monkeypatch, proxy):
        monkeypatch.setenv("HTTP_PROXY", proxy)
        with pytest.raises(ConfigError, match="proxy"):
            self.make("http://upstream.invalid")


@pytest.fixture
def raw_server(monkeypatch):
    """A loopback socket server that reads each request whole, answers with
    fixed raw bytes and closes the connection, so that a reply can break HTTP
    in ways http.server cannot: raw_server(reply) -> (base URL, the requests'
    first lines). A later raw_server(reply) changes the reply."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    replies, requests, stop = [], [], threading.Event()

    def answer(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"(?i)\r\ncontent-length: *(\d+)", head).group(1))
        while len(body) < length:
            body += conn.recv(65536)
        requests.append(head.split(b"\r\n")[0].decode())
        conn.sendall(replies[-1])
        conn.shutdown(socket.SHUT_WR)

    def loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                try:
                    answer(conn)
                except OSError:
                    pass  # the client gave up on this reply and closed its end

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()

    def start(reply):
        replies.append(reply)
        return f"http://127.0.0.1:{listener.getsockname()[1]}", requests

    yield start
    stop.set()
    thread.join(timeout=5)
    listener.close()


@pytest.fixture
def head_server(monkeypatch):
    """A loopback server for one request that keeps each head it reads:
    head_server(tunnel) -> (its port, the heads). As a tunnelling proxy it
    first takes a CONNECT, then speaks TLS with TLS_PEM. It answers with
    _CHOICES."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    listener = socket.create_server(("127.0.0.1", 0))
    heads, threads = [], []

    def read_head(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                raise ConnectionError("the client closed before its head ended")
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        heads.append(head)
        return head, body

    def answer(tunnel):
        conn, _ = listener.accept()
        conn.settimeout(5)
        if tunnel:
            read_head(conn)
            conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_PEM)
            conn = context.wrap_socket(conn, server_side=True)
        with conn:
            head, body = read_head(conn)
            length = int(re.search(rb"(?i)\r\ncontent-length: *(\d+)", head).group(1))
            while len(body) < length:
                body += conn.recv(65536)
            conn.sendall(_raw_reply(_CHOICES, b"Connection: close"))

    def start(tunnel=False):
        threads.append(threading.Thread(target=answer, args=(tunnel,), daemon=True))
        threads[-1].start()
        return listener.getsockname()[1], heads

    yield start
    for thread in threads:
        thread.join(timeout=5)
    listener.close()


def _raw_reply(body, *headers, status=b"HTTP/1.1 200 OK"):
    """A status line, headers and body. The body's Content-Length is added
    unless the headers frame the body themselves."""
    if not any(h.lower().startswith((b"content-length", b"transfer-encoding")) for h in headers):
        headers += (b"Content-Length: %d" % len(body),)
    return b"\r\n".join((status, *headers, b"", body))


_CHOICES = b'{"choices": [{"text": "1 2"}], "usage": {"prompt_tokens": 3, "completion_tokens": 2}}'


class TestMalformedHttpReplies:
    """Each malformed reply is a typed NltsError: a transport fault is retried
    and then raises TransportError, a body that is not the expected JSON raises
    ProtocolError at once, and none escapes as http.client's or json's own
    exception."""

    def make(self, base):
        return HttpBackend(BackendConfig(base_url=base, max_retries=1, backoff_base=0.001,
                                         backoff_cap=0.004, timeout=1))

    @pytest.mark.parametrize("reply, error, match, attempts", [
        (b"garbage\r\n\r\n", TransportError, "BadStatusLine", 2),
        (_raw_reply(_CHOICES[:20], b"Content-Length: 100"), TransportError, "IncompleteRead", 2),
        (_raw_reply(b"zz\r\n" + _CHOICES + b"\r\n0\r\n\r\n", b"Transfer-Encoding: chunked"),
         TransportError, "IncompleteRead", 2),
        (_raw_reply(b'{"choices": [{"text": "\xff"}]}'), ProtocolError, "invalid JSON", 1),
        (_raw_reply(b'{"choices": {"text": "1 2"}}'), ProtocolError, "missing choices", 1),
    ], ids=["bad-status-line", "short-body", "bad-chunk-size", "non-utf8-body", "choices-object"])
    def test_typed_failure(self, raw_server, reply, error, match, attempts):
        base, requests = raw_server(reply)
        with pytest.raises(NltsError) as caught:
            self.make(base).complete("p", PARAMS)
        assert caught.type is error
        assert match in str(caught.value)
        assert requests == ["POST /v1/completions HTTP/1.1"] * attempts

    def test_non_numeric_content_length_reads_to_close(self, raw_server):
        reply = _raw_reply(_CHOICES, b"Content-Length: lots", b"Connection: close")
        base, requests = raw_server(reply)
        texts, usage = self.make(base).complete("p", PARAMS)
        assert texts == ["1 2"]
        assert usage == Usage(3, 2, 1)
        assert len(requests) == 1

    @pytest.mark.parametrize("reply, match", [
        (b"HTTP/1.1 200 " + b"x" * MAXLINE + b"\r\n\r\n", "LineTooLong"),
        (_raw_reply(_CHOICES, b"X-Long: " + b"x" * MAXLINE), "LineTooLong"),
        (_raw_reply(_CHOICES, *[b"X-Field-%d: 1" % i for i in range(MAXHEADERS)]),
         "got more than 100 headers"),
    ], ids=["status-line", "header-line", "headers"])
    def test_oversized_head_is_transport_error(self, raw_server, reply, match):
        base, requests = raw_server(reply)
        with pytest.raises(TransportError, match=match):
            self.make(base).complete("p", PARAMS)
        assert requests == ["POST /v1/completions HTTP/1.1"] * 2


def _read(*pieces):
    """A Reply fed pieces, then the connection's end if it is not yet whole."""
    reply = Reply()
    for piece in pieces:
        if reply.feed(piece):
            return reply
    assert reply.feed(b"")
    return reply


class TestReply:
    """The incremental reader of one HTTP/1.1 reply."""

    def test_content_length(self):
        reply = Reply()
        assert reply.feed(b"HTTP/1.1 429 Too Many\r\nContent-Length: 5\r\nRetry-After: 3\r\n\r\nhello")
        assert (reply.status, reply.retry_after, reply.body) == (429, "3", b"hello")
        assert reply.keep_alive

    def test_chunked_with_extensions_and_trailers(self):
        reply = Reply()
        assert reply.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                          b"Content-Length: 1\r\n\r\n5;name=value\r\nhello\r\n6\r\n world\r\n"
                          b"0;last\r\nX-Trailer: 1\r\nX-Other: 2\r\n\r\n")
        assert (reply.status, reply.body, reply.keep_alive) == (200, b"hello world", True)

    def test_chunked_ends_at_the_close_after_its_last_chunk(self):
        reply = _read(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n")
        assert (reply.body, reply.keep_alive) == (b"ok", False)

    @pytest.mark.parametrize("fields", [b"", b"Content-Length: lots\r\n", b"Content-Length: -1\r\n"])
    def test_no_usable_length_reads_to_close(self, fields):
        reply = Reply()
        assert not reply.feed(b"HTTP/1.1 200 OK\r\n" + fields + b"\r\nhel")
        assert not reply.feed(b"lo")
        assert reply.feed(b"")
        assert (reply.body, reply.keep_alive) == (b"hello", False)

    def test_interim_replies_are_skipped(self):
        reply = _read(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
                      b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        assert (reply.status, reply.body) == (200, b"ok")

    @pytest.mark.parametrize("status", [204, 304])
    def test_no_body_for_204_and_304(self, status):
        reply = Reply()
        assert reply.feed(b"HTTP/1.1 %d X\r\nContent-Length: 5\r\n\r\n" % status)
        assert (reply.status, reply.body, reply.keep_alive) == (status, b"", True)

    @pytest.mark.parametrize("head, keep_alive", [
        (b"HTTP/1.1 200 OK\r\n", True),
        (b"HTTP/1.1 200 OK\r\nConnection: Close\r\n", False),
        (b"HTTP/1.0 200 OK\r\n", False),
        (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n", True),
    ], ids=["1.1", "1.1-close", "1.0", "1.0-keep-alive"])
    def test_connection_reuse(self, head, keep_alive):
        reply = Reply()
        assert reply.feed(head + b"Content-Length: 2\r\n\r\nok")
        assert (reply.body, reply.keep_alive) == (b"ok", keep_alive)

    def test_bytes_past_the_reply_end_its_connection(self):
        reply = Reply()
        assert reply.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1")
        assert (reply.body, reply.keep_alive) == (b"ok", False)

    def test_bare_line_feeds_and_folded_fields(self):
        reply = _read(b"HTTP/1.1 503 Busy\nRetry-After: 7\n  folded\nContent-Length: 1\n\nx")
        assert (reply.status, reply.retry_after, reply.body) == (503, "7", b"x")

    @pytest.mark.parametrize("pieces, error", [
        ([], http.client.RemoteDisconnected),
        ([b"garbage\r\n\r\n"], http.client.BadStatusLine),
        ([b"HTTP/1.1 2OO OK\r\n\r\n"], http.client.BadStatusLine),
        ([b"HTTP/2 200\r\n\r\n"], http.client.UnknownProtocol),
        ([b"HTTP/1.1 200 OK\r\nContent-"], http.client.IncompleteRead),
        ([b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort"], http.client.IncompleteRead),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"],
         http.client.IncompleteRead),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"],
         http.client.IncompleteRead),
        ([b"HTTP/1.1 200 " + b"x" * MAXLINE], http.client.LineTooLong),
        ([b"HTTP/1.1 200 OK\r\nX: " + b"x" * MAXLINE + b"\r\n\r\n"], http.client.LineTooLong),
        ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"0" * MAXLINE],
         http.client.LineTooLong),
        ([b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * MAXHEADERS], http.client.HTTPException),
        ([b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * MAXHEADERS + b"\r\n"], http.client.HTTPException),
    ], ids=["nothing", "garbage", "bad-status", "http2", "cut-head", "short-body",
            "bad-chunk-size", "cut-chunk", "long-status", "long-field", "long-chunk-size",
            "headers-cut", "headers"])
    def test_failures_are_http_clients(self, pieces, error):
        with pytest.raises(error):
            _read(*pieces)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pieces_read_as_the_whole(self, data):
        """A valid reply fed whole and fed in any pieces reads the same, and
        as http.client reads it."""
        wire = data.draw(_valid_replies())
        cuts = sorted(data.draw(st.lists(st.integers(1, max(1, len(wire) - 1)), max_size=8)))
        pieces = [wire[a:b] for a, b in zip([0, *cuts], [*cuts, len(wire)]) if a < b]
        whole, split = _read(wire), _read(*pieces)
        seen = (whole.status, whole.retry_after, whole.body, whole.keep_alive)
        assert (split.status, split.retry_after, split.body, split.keep_alive) == seen

        class Stream:
            def makefile(self, mode):
                return io.BytesIO(wire)

        stdlib = http.client.HTTPResponse(Stream())
        stdlib.begin()
        assert seen[:3] == (stdlib.status, stdlib.getheader("Retry-After"), stdlib.read())


_TOKENS = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)


@st.composite
def _valid_replies(draw):
    """A well-formed reply to a POST: an optional 100 Continue, then a status
    line, header fields and a body framed by length, chunks or the close."""
    wire = b"HTTP/1.1 100 Continue\r\n\r\n" if draw(st.booleans()) else b""
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))
    wire += b"%s %d %s\r\n" % (version, draw(st.sampled_from([200, 201, 404, 429, 500, 503])),
                               draw(_TOKENS).encode())
    fields = [b"X-%s: %s" % (draw(_TOKENS).encode(), draw(_TOKENS).encode())
              for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        fields.append(b"Retry-After: " + draw(st.sampled_from(
            [b"0", b"3", b"120", b"soon", b"Mon, 01 Jan 2001 00:00:00 GMT"])))
    body = draw(st.binary(max_size=300))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    if framing == "length":
        fields.append(b"Content-Length: %d" % len(body))
    elif framing == "chunked":
        fields.append(b"Transfer-Encoding: chunked")
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        chunks = [body[a:b] for a, b in zip([0, *cuts], [*cuts, len(body)]) if a < b]
        body = b"".join(b"%x%s\r\n%s\r\n" % (len(c), draw(st.sampled_from([b"", b";x=1"])), c)
                        for c in chunks) + b"0\r\n"
        body += b"".join(b"X-T%d: 1\r\n" % i for i in range(draw(st.integers(0, 2)))) + b"\r\n"
    else:
        fields.append(b"Connection: close")
    draw(st.randoms()).shuffle(fields)
    return wire + b"".join(f + b"\r\n" for f in fields) + b"\r\n" + body


# JSON fragments for the body of a reply: wrong types, huge numbers, deep nesting
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["choices", "text", "message", "content", "usage", "prompt_tokens",
                         "completion_tokens", "requests"]), inner, max_size=3),
    max_leaves=8)


@st.composite
def _raw_replies(draw):
    """Whole replies as a server could send them, well-formed or not."""
    status = draw(st.sampled_from([
        b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content", b"HTTP/1.1 401 No",
        b"HTTP/1.1 404 Nope", b"HTTP/1.1 429 Slow", b"HTTP/1.1 503 Busy", b"HTTP/1.1 999 X",
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK", b"HTTP/2 200", b"garbage",
    ]) | st.binary(max_size=20).filter(lambda line: b"\n" not in line))
    texts = draw(st.one_of(st.lists(st.text(max_size=8), min_size=1, max_size=2),
                           st.lists(_JSON, max_size=2)))
    document = {"choices": draw(st.one_of(st.just([{"text": t} for t in texts]), _JSON)),
                "usage": draw(_JSON)}
    body = draw(st.sampled_from([
        json.dumps(document).encode(),
        b"[" * 5000,
        b'{"choices": [{"text": "1 2"}], "usage": {"prompt_tokens": 1' + b"0" * 500 + b"}}",
        b'{"choices": [{"text": "1 2"}], "usage": {"completion_tokens": -1e400}}',
    ]))
    if draw(st.booleans()):
        body = body[:draw(st.integers(0, len(body)))]  # truncated
    fields = []
    length = draw(st.sampled_from([None, "exact", "short", "long", "junk"]))
    if length is not None:
        fields.append(b"Content-Length: " + {
            "exact": b"%d" % len(body), "short": b"%d" % max(0, len(body) - 3),
            "long": b"%d" % (len(body) + 3), "junk": b"-lots"}[length])
    encoding = draw(st.sampled_from([None, b"chunked", b"gzip"]))
    if encoding is not None:
        fields.append(b"Transfer-Encoding: " + encoding)
        if encoding == b"chunked" and draw(st.booleans()):
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    if draw(st.booleans()):
        fields.append(b"Retry-After: " + draw(st.sampled_from([b"0", b"1", b"0.5", b"soon"])))
    if draw(st.booleans()):
        fields.append(b"Connection: close")
    return b"\r\n".join([status, *fields, b"", body])


class TestRawReplyFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reply=_raw_replies())
    def test_any_reply_is_a_result_or_a_backend_error(self, raw_server, reply):
        """Whatever bytes the server sends, complete returns texts and
        non-negative int counts or raises a BackendError, in bounded time."""
        base, _ = raw_server(reply)
        cfg = BackendConfig(base_url=base, max_retries=1, backoff_base=0.001,
                            backoff_cap=0.002, timeout=0.5)
        backend = HttpBackend(cfg)
        start = time.monotonic()
        try:
            texts, usage = backend.complete("p", PARAMS)
        except BackendError:
            pass
        else:
            assert isinstance(texts, list) and all(isinstance(t, str) for t in texts)
            counts = (usage.prompt_tokens, usage.completion_tokens, usage.requests)
            assert all(type(c) is int and c >= 0 for c in counts)
        finally:
            backend.close()
        limit = cfg.timeout * (cfg.max_retries + 1) + cfg.max_retries * cfg.backoff_cap
        assert time.monotonic() - start <= limit


class TestClose:
    def test_close_releases_idle_connections(self, serve, tmp_path):
        base, server = serve(_KeepAlive)
        _Script.script = [_echo]
        live = HttpBackend(BackendConfig(base_url=base, max_in_flight=2))
        recorder = RecordingBackend(live, tmp_path / "c.jsonl")
        recorder.complete_many([("a", PARAMS, ""), ("b", PARAMS, "")])
        time.sleep(0.1)
        assert server.closed == 0  # both connections idle in the pool
        recorder.close()  # a recording wrapper closes its inner backend
        deadline = time.monotonic() + 5
        while server.closed < 2 and time.monotonic() < deadline:
            time.sleep(0.001)  # until the server has seen both ends close
        assert server.closed == 2
        assert live.complete("c", PARAMS)[0] == ["c"]  # the backend stays usable
        live.close()
        OracleBackend("1").close()  # in-process backends hold nothing to close

    def test_live_forecast_and_sweep_leave_no_socket_open(self, http_server, tmp_path,
                                                         monkeypatch):
        from click.testing import CliRunner

        from conftest import write_series_csv
        from nlts.bench import BackendSpec, SweepConfig, run_sweep
        from nlts.cli import main

        base, script = http_server
        script.script = [_ok_completion()]
        data = tmp_path / "series.csv"
        write_series_csv(data, np.arange(1.0, 21.0), holdout=2)
        monkeypatch.setenv("NLTS_API_BASE", base)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            forecast = CliRunner().invoke(main, [
                "forecast", "--data", str(data), "--samples", "4", "--backend", "live",
                "--record", str(tmp_path / "c.jsonl")])
            assert forecast.exit_code == 0, forecast.output
            cfg = SweepConfig(datasets=(str(data),), samples=4, noise_levels=(0.0,),
                              backend=BackendSpec("live", base_url=base))
            assert run_sweep(cfg, tmp_path / "sweep")["cells"][0]["error"] is None
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []
        assert len(script.calls) == 8
