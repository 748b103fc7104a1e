import base64
import email.utils
import json
import math
import os
import re
import socket
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlts import (
    AuthError,
    BackendConfig,
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
    headers, delay). A bytes body goes out as it is, anything else as JSON. A
    reply waits its entry's delay, else `delay` seconds. `peak` is the most
    requests the handler has held at once. Each call keeps the raw request
    body and its parsed JSON.
    """

    script = []
    calls = []
    delay = 0.0
    active = peak = 0
    lock = threading.Lock()

    def record(self, raw=b""):
        """Appends this request to `calls`; returns how many there are."""
        self.calls.append({"method": self.command, "path": self.path, "raw": raw,
                           "body": json.loads(raw or b"{}"),
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
            status, payload, *extra = self.script[min(self.record(raw), len(self.script)) - 1]
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


class _Server(ThreadingHTTPServer):
    closed = 0  # connections closed by the server

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with _Script.lock:
            self.closed += 1

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its end


@pytest.fixture
def serve(monkeypatch):
    """Starts a loopback _Server for a handler class: serve(handler) -> (base URL, server).
    _Script's state starts empty."""
    for name in list(os.environ):  # every proxy setting, so each test is hermetic
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    _Script.script = []
    _Script.calls = []
    _Script.delay = 0.0
    _Script.active = _Script.peak = 0
    running = []

    def start(handler):
        server = _Server(("127.0.0.1", 0), handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}", server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def http_server(serve):
    return serve(_Script)[0], _Script


@pytest.fixture
def sleeps(monkeypatch):
    """The delays HttpBackend sleeps between attempts, recorded instead of slept."""
    import nlts.backend

    slept = []
    monkeypatch.setattr(nlts.backend, "time",
                        types.SimpleNamespace(sleep=slept.append, time=time.time))
    return slept


def _job(samples):
    """A noise-free forecast whose every sample parses _ok_completion's reply."""
    return ForecastJob(history=TimeSeries(np.arange(1.0, 21.0)), horizon=2, samples=samples)


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

    def test_in_flight_from_config(self, tmp_path):
        # no request is sent: construction and map open no connection
        live = HttpBackend(BackendConfig(base_url="http://127.0.0.1:9", max_in_flight=3))
        wave = threading.Barrier(3, timeout=10)
        lock = threading.Lock()
        active = [0, 0]  # calls running now, most at once

        def call(i):
            with lock:
                active[0] += 1
                active[1] = max(active)
            wave.wait()  # returns only once three calls run at once
            with lock:
                active[0] -= 1
            return i, threading.current_thread()

        results = live.map(call, range(6))
        assert [i for i, _ in results] == list(range(6))
        assert active[1] == 3
        workers = {t for _, t in results}
        assert len(workers) == 3 and threading.current_thread() not in workers
        # a recording wrapper maps on the inner backend's pool, which outlives a map
        recorded = RecordingBackend(live, tmp_path / "c.jsonl").map(call, range(3))
        assert {t for _, t in recorded} == workers
        inline = OracleBackend("1").map(lambda i: threading.get_ident(), range(3))
        assert inline == [threading.get_ident()] * 3

    def test_forecasts_share_the_backends_workers(self, http_server):
        base, script = http_server
        script.script = [_ok_completion()]
        script.delay = 0.05
        backend = self.make(base, max_in_flight=2)
        threads = set()  # Thread objects, whose idents a new thread could reuse
        complete = backend.complete

        def on_thread(*args, **kwargs):
            threads.add(threading.current_thread())
            return complete(*args, **kwargs)

        backend.complete = on_thread
        for _ in range(2):
            assert run_nlts(_job(samples=4), backend).valid_samples == 4
        assert len(threads) <= 2 and threading.current_thread() not in threads
        assert len(script.calls) == 8 and script.peak == 2

    def test_failed_sample_cancels_samples_not_started(self, http_server):
        base, script = http_server
        script.script = [(401, {"error": "bad key"}), (*_ok_completion(), {}, 0.2)]
        backend = self.make(base, max_in_flight=1)
        with pytest.raises(AuthError):
            run_nlts(_job(samples=4), backend)
        backend.map(lambda i: i, [0])  # queued behind every sample, run or cancelled
        # sample 0 got the 401; at most sample 1 had started on the one worker
        assert 1 <= len(script.calls) <= 2

    @pytest.mark.parametrize("key", ["sk-1\nx", "sk-1\rx", "sk-1\r\n", "sk-\u2603"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_unsendable_api_key_is_config_error(self, monkeypatch, key, from_env):
        if from_env:
            monkeypatch.setenv("NLTS_API_KEY", key)
        cfg = BackendConfig(base_url="http://127.0.0.1:9", api_key=None if from_env else key)
        with pytest.raises(ConfigError, match="api_key") as info:
            HttpBackend(cfg)
        assert "sk-" not in str(info.value)

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
    first lines)."""
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
        conn.sendall(replies[0])
        conn.shutdown(socket.SHUT_WR)

    def loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                answer(conn)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()

    def start(reply):
        replies.append(reply)
        return f"http://127.0.0.1:{listener.getsockname()[1]}", requests

    yield start
    stop.set()
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
