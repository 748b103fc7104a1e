"""Generation backends.

One wire contract: complete(prompt, params, tag) returns a list of continuation
texts plus Usage, and complete_many(calls) a batch's results in call order; the
live backend overlaps a batch's requests on the calling thread. A str prompt
goes to the completions endpoint and a message list to the chat endpoint;
request_body is the one place that makes that choice. Implementations cover an
OpenAI-compatible HTTP endpoint, deterministic offline mocks, and a JSONL
record/replay cassette layer keyed by a canonical request hash. close()
releases what a backend holds open.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .codec import STEP_SEPARATOR
from .core import make_dir, read_json, read_text, write_text
from .errors import (
    AuthError,
    ConfigError,
    ProtocolError,
    RateLimitError,
    TransportError,
)

ENV_API_KEY = "NLTS_API_KEY"
ENV_API_BASE = "NLTS_API_BASE"


@dataclass(frozen=True)
class GenerationParams:
    """Sampling settings forwarded to the endpoint."""

    model: str = "GPT-3.5-Turbo-Instruct"
    temperature: float = 0.7
    top_p: float = 1.0
    max_tokens: int = 256
    num_samples: int = 1
    stop: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if not (self.temperature >= 0.0 and math.isfinite(self.temperature)):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class Usage:
    """Token and request accounting; adds componentwise."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    requests: int = 0

    def __add__(self, other: "Usage") -> "Usage":
        if not isinstance(other, Usage):
            return NotImplemented
        return Usage.total((self, other))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, requests: int = 0) -> "Usage":
        """Usage from a JSON usage block. Missing token counts are 0 and a
        missing request count is `requests`; keys with no field are ignored.
        A count is an int, a whole float such as 12.0 or an integer string,
        in [0, 2**53]. Raises TypeError when the block is not a mapping or a
        count is of another type, and ValueError when a count is fractional,
        non-finite, out of range or a string that is not an integer."""
        if not isinstance(d, dict):
            raise TypeError(f"usage block must be a mapping, got {type(d).__name__}")
        return cls(
            prompt_tokens=_count(d, "prompt_tokens", 0),
            completion_tokens=_count(d, "completion_tokens", 0),
            requests=_count(d, "requests", requests),
        )

    @classmethod
    def total(cls, usages: Iterable["Usage"]) -> "Usage":
        """The componentwise sum of usages, added as ints."""
        usages = list(usages)
        return cls(
            prompt_tokens=sum(u.prompt_tokens for u in usages),
            completion_tokens=sum(u.completion_tokens for u in usages),
            requests=sum(u.requests for u in usages),
        )


def _count(d: dict, key: str, default: int) -> int:
    """A usage block's count under key, as Usage.from_dict reads it."""
    value = d.get(key, default)
    if isinstance(value, float):
        if not value.is_integer():  # also false for inf and NaN
            raise ValueError(f"usage {key} must be a whole number, got {value!r}")
        value = int(value)
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        value = int(value)
    else:
        raise TypeError(f"usage {key} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"usage {key} must be >= 0, got {value}")
    if value > 2**53:  # the largest count a float holds exactly, so a price stays finite
        raise ValueError(f"usage {key} must be <= 2**53, got {value}")
    return value


Prompt = str | Sequence[dict[str, str]]


def _estimate_usage(prompt: Prompt, texts: Sequence[str], requests: int = 1) -> Usage:
    """A call's usage in whitespace tokens; a chat counts its message contents."""
    contents = [prompt] if isinstance(prompt, str) else [m.get("content", "") for m in prompt]
    return Usage(prompt_tokens=sum(len(c.split()) for c in contents),
                 completion_tokens=sum(len(t.split()) for t in texts), requests=requests)


# --- cost accounting ---------------------------------------------------------

DEFAULT_PRICES: dict[str, tuple[float, float]] = {
    # model -> (USD per 1k prompt tokens, USD per 1k completion tokens)
    "GPT-4": (0.03, 0.06),
    "GPT-3.5-Turbo-Instruct": (0.0015, 0.002),
    "Claude-3-Opus": (0.032, 0.16),
    "Claude-3.5-Haiku": (0.00233, 0.01167),
    "Claude-3.5-Sonnet": (0.007, 0.035),
    "Deepseek-V3": (0.0005, 0.002),
    "GLM-4-Air": (0.0005, 0.0005),
    "Qwen3-4B": (0.00021, 0.00084),
}


@dataclass(frozen=True)
class CostTable:
    prices: dict[str, tuple[float, float]]

    def __post_init__(self):
        clean: dict[str, tuple[float, float]] = {}
        for model, pair in dict(self.prices).items():
            prompt_price, completion_price = pair
            if not (0 <= prompt_price < math.inf and 0 <= completion_price < math.inf):
                raise ConfigError(f"negative or non-finite price for {model!r}")
            clean[model] = (float(prompt_price), float(completion_price))
        object.__setattr__(self, "prices", clean)

    def lookup(self, model: str) -> tuple[float, float] | None:
        if model in self.prices:
            return self.prices[model]
        lowered = model.lower()
        for name, pair in self.prices.items():
            if name.lower() == lowered:
                return pair
        return None


def default_cost_table() -> CostTable:
    return CostTable(dict(DEFAULT_PRICES))


def load_cost_table(path: str | Path) -> CostTable:
    """JSON file: {"model": {"prompt_per_1k": x, "completion_per_1k": y}, ...}.

    Raises ConfigError for an unreadable file, any other shape or a price that
    is not a number.
    """
    raw = read_json(path, "price table")
    if not isinstance(raw, dict):
        raise ConfigError(f"price table must hold a JSON object, not {type(raw).__name__}")
    prices = {}
    for model, entry in raw.items():
        try:
            prices[model] = (float(entry["prompt_per_1k"]), float(entry["completion_per_1k"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"price entry for {model!r} must be an object with numeric "
                f"prompt_per_1k and completion_per_1k"
            ) from exc
    return CostTable(prices)


def load_usage(path: str | Path) -> tuple[Usage, object]:
    """The Usage and the "model" value (None when absent) of a usage file: a
    JSON object holding the counts at its top level or in a "usage" block.
    Raises ConfigError for an unreadable file, any other shape or a bad count."""
    raw = read_json(path, "usage file")
    if not isinstance(raw, dict):
        raise ConfigError(f"usage file must hold a JSON object, not {type(raw).__name__}")
    try:
        return Usage.from_dict(raw.get("usage", raw)), raw.get("model")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"usage file {Path(path)}: {exc}") from exc


def estimate_cost(usage: Usage, model: str, table: CostTable | None = None) -> float | None:
    """USD cost of a usage record, or None when the model has no listed price.

    Unknown models are never priced at zero; callers must surface the None.
    """
    table = table or default_cost_table()
    pair = table.lookup(model)
    if pair is None:
        return None
    prompt_price, completion_price = pair
    return usage.prompt_tokens / 1000.0 * prompt_price + (
        usage.completion_tokens / 1000.0 * completion_price
    )


# --- request bodies and their identity ----------------------------------------


def request_body(prompt: Prompt, params: GenerationParams) -> tuple[str, dict]:
    """Endpoint name and request body, as sent on the wire and as hashed for
    cassettes: a str prompt goes to "completions", a message list to "chat"."""
    if isinstance(prompt, str):
        endpoint, body = "completions", {"prompt": prompt}
    else:
        endpoint, body = "chat", {"messages": [dict(m) for m in prompt]}
    body.update(
        model=params.model,
        temperature=params.temperature,
        top_p=params.top_p,
        max_tokens=params.max_tokens,
        n=params.num_samples,
    )
    if params.stop:
        body["stop"] = list(params.stop)
    return endpoint, body


def canonical_request(endpoint: str, body: dict, tag: str) -> dict:
    """Request identity for hashing: endpoint, body, caller tag. Never credentials.
    The body is hashed as built: request_body makes only JSON-native values (str
    keys; str, int, float, list and dict values), so it encodes to the same JSON
    as its decoded copy in a cassette line."""
    return {"endpoint": endpoint, "body": body, "tag": tag}


# json.dumps(value, sort_keys=True, separators=(",", ":")) and, for request
# bodies on the wire, json.dumps(value, separators=(",", ":"), ensure_ascii=False),
# without building an encoder per call
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_wire_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def request_hash(canonical: dict) -> str:
    return hashlib.sha256(_canonical_json(canonical).encode("utf-8")).hexdigest()


def _joined_pairs(text: str) -> str:
    """text with each surrogate pair joined into the character it encodes.
    Two strs encode to the same JSON exactly when these forms are equal: JSON
    escapes a str's UTF-16 code units, which a pair and its character share."""
    if text.isascii():
        return text
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def _prompt_digest(prompt: str) -> bytes:
    return hashlib.sha256(_joined_pairs(prompt).encode("utf-8", "surrogatepass")).digest()


def lookup_key(canonical) -> tuple[str, str, bytes] | str:
    """ReplayBackend's in-memory key for a canonical request. Two canonical
    requests get equal keys exactly when their request_hash is equal.

    A completions request keys as its body's canonical JSON without the
    prompt, its tag and the SHA-256 of its prompt, tag and prompt taken with
    their surrogate pairs joined, so that a request under the same params
    reuses the first part and digests only its prompt. Any other canonical
    request, a chat's among them, keys as its whole canonical JSON.
    """
    if isinstance(canonical, dict) and canonical.keys() == {"endpoint", "body", "tag"}:
        body, tag = canonical["body"], canonical["tag"]
        if (canonical["endpoint"] == "completions" and isinstance(tag, str)
                and isinstance(body, dict) and isinstance(body.get("prompt"), str)):
            rest = {k: v for k, v in body.items() if k != "prompt"}
            return _canonical_json(rest), _joined_pairs(tag), _prompt_digest(body["prompt"])
    return _canonical_json(canonical)


# --- backend interface --------------------------------------------------------


class Backend:
    """Texts-plus-usage generation interface: one method to implement, complete.

    Its prompt is a str for the completions endpoint or a list of
    {"role", "content"} messages for the chat endpoint. It returns the
    params.num_samples continuation texts and the request's Usage. The tag names
    the request for cassettes: the endpoint, the request_body and the tag
    together determine the request hash.

    complete_many(calls) takes a list of (prompt, params, tag) triples and
    returns their (texts, usage) pairs in call order. The default calls
    complete once per call, in order, on the calling thread: in-process
    backends have no I/O to overlap. HttpBackend keeps several requests in
    flight at once. When a call fails, no call that has not started is sent,
    and the error of the lowest-index failed call is raised.

    close() releases what the backend holds open; the default holds nothing.
    """

    name = "backend"

    def complete(
        self, prompt: Prompt, params: GenerationParams, tag: str = ""
    ) -> tuple[list[str], Usage]:
        raise NotImplementedError

    def complete_many(
        self, calls: Sequence[tuple[Prompt, GenerationParams, str]]
    ) -> list[tuple[list[str], Usage]]:
        return [self.complete(prompt, params, tag=tag) for prompt, params, tag in calls]

    def describe(self) -> dict:
        return {"backend": self.name}

    def close(self) -> None:
        pass


def _last_user_content(messages: Sequence[dict[str, str]]) -> str:
    if not messages:
        raise ProtocolError("chat request has no messages")
    for message in messages:
        if "role" not in message or "content" not in message:
            raise ProtocolError("chat message missing role or content")
    for message in reversed(messages):
        if message["role"] == "user":
            return message["content"]
    raise ProtocolError("chat request has no user message")


class _MockBackend(Backend):
    """Offline base: replies to the prompt, or to a chat's last user message,
    with one text repeated num_samples times."""

    def complete(self, prompt, params, tag=""):
        text = prompt if isinstance(prompt, str) else _last_user_content(prompt)
        texts = [self.reply(text, tag)] * params.num_samples
        return texts, _estimate_usage(prompt, texts)

    def reply(self, text: str, tag: str) -> str:
        raise NotImplementedError


class OracleBackend(_MockBackend):
    """Returns one fixed continuation regardless of the prompt."""

    name = "oracle"

    def __init__(self, text: str):
        self.text = text

    def reply(self, text, tag):
        return self.text

    def describe(self):
        return {"backend": self.name, "text_sha256": hashlib.sha256(self.text.encode()).hexdigest()}


class EchoTailBackend(_MockBackend):
    """Echoes the last `tail` comma-separated steps of the prompt, cycled to `steps` steps."""

    name = "echo"

    def __init__(self, tail: int = 4, steps: int = 64):
        if tail < 1 or steps < 1:
            raise ConfigError("echo backend needs tail >= 1 and steps >= 1")
        self.tail = tail
        self.steps = steps

    def reply(self, text, tag):
        # only the last `tail` steps are echoed: split off the last tail + 1
        # fragments, which hold them unless some are blank, and split the
        # whole prompt only then
        fragments = [f for f in map(str.strip, text.rsplit(",", self.tail + 1)[1:]) if f]
        if len(fragments) < self.tail:
            fragments = [f for f in map(str.strip, text.split(",")) if f]
        if not fragments:
            raise ProtocolError("echo backend got a prompt with no steps")
        cycle = fragments[-self.tail:]
        return STEP_SEPARATOR.join(cycle[i % len(cycle)] for i in range(self.steps))

    def describe(self):
        return {"backend": self.name, "tail": self.tail, "steps": self.steps}


class ScriptedBackend(_MockBackend):
    """Replays fixture lines; line choice follows the sample index in the tag.

    Tags shaped "sample-3/..." map to line 3 (mod line count), so the line does
    not depend on call order. Any other tag reads line 0.
    """

    name = "scripted"

    def __init__(self, lines: Sequence[str] | None = None, path: str | Path | None = None):
        if lines is None:
            if path is None:
                raise ConfigError("scripted backend needs lines or a fixture path")
            lines = [l for l in read_text(path, "fixture").splitlines() if l.strip()]
        self.lines = list(lines)
        if not self.lines:
            raise ConfigError("scripted backend has no fixture lines")

    def reply(self, text, tag):
        head = tag[len("sample-"):].split("/", 1)[0] if tag.startswith("sample-") else ""
        index = int(head) if head.isdecimal() else 0
        return self.lines[index % len(self.lines)]

    def describe(self):
        return {"backend": self.name, "lines": len(self.lines)}


# --- HTTP ---------------------------------------------------------------------


@dataclass(frozen=True)
class BackendConfig:
    """Connection and retry settings for the live HTTP backend."""

    base_url: str | None = None
    api_key: str | None = None
    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    timeout: float = 60.0
    max_in_flight: int = 4

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 < self.backoff_base <= self.backoff_cap < math.inf:
            raise ConfigError("need 0 < backoff_base <= backoff_cap, both finite")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight}")


class HttpBackend(Backend):
    """OpenAI-compatible client: POST {base}/v1/completions and /v1/chat/completions.

    Requests go out on keep-alive connections from a pool of max_in_flight
    slots, each idle or empty: the one in-flight bound, also across threads
    sharing the backend. complete sends a batch of one through complete_many,
    which keeps up to max_in_flight calls in flight on the calling thread.

    http.client only opens connections (connect, proxy CONNECT, TLS
    handshake), which blocks the loop. send writes a request as one
    non-blocking send of its prebuilt head and body; only what that leaves
    is written blocking, under timeout. One selectors loop reads the replies
    through http_reply.Reply while it waits for a reply, retry or timeout;
    TLS records with no reply data, such as session tickets, leave a request
    in flight. finish ends every attempt: a whole reply, a transport error or
    a timeout. It closes a connection that failed or that its reply ends,
    and gives the slot back after a failure, else keeps it in held, which
    the checkout drains before the pool. An idle pooled connection readable
    at checkout (closed, or sent what no request asked for) is replaced.
    Held slots go back when nothing is due, once a call has failed for good
    and at the batch's end, so a waiting call holds none. A reused
    connection that ends before any byte of the reply costs no attempt: the
    request is resent once on a new connection.

    A transport failure (a reply not whole within timeout of its send
    included), a 429 or a 5xx is retried up to max_retries times. The first
    retry goes at once; retry k (k >= 2) waits backoff_base * 2**(k-1) plus up
    to backoff_base of jitter, capped at backoff_cap, so these delays never
    decrease. A Retry-After header in whole seconds or as an HTTP date sets the
    delay instead, capped at backoff_cap; one that parses as neither, such as
    "0.5", or is not in the future keeps the backoff. 401/403 raise AuthError
    at once, and a 3xx is not followed: it raises ProtocolError.
    Usage.requests counts HTTP attempts, not logical calls.
    Once a call has failed for good, nothing more is sent, neither a call
    that has not started nor a retry; the requests in flight are read to
    their end, and the lowest-index failed call's error is raised.

    HTTP_PROXY, HTTPS_PROXY, ALL_PROXY and NO_PROXY (either case) are read
    once, at construction, through urllib.request.getproxies() and
    proxy_bypass(). The proxy must be plain http://, which is also what a
    proxy URL without a scheme means; an https:// endpoint is tunnelled through
    it with CONNECT. Its user:password@ is sent as proxy basic auth, and any
    other proxy URL raises ConfigError. TLS verifies against the system trust
    store (SSL_CERT_FILE, SSL_CERT_DIR), not certifi's bundle, and ~/.netrc is
    not read. close() closes the idle connections.
    """

    name = "live"
    # endpoint name -> (URL path, the text of one reply choice)
    _ROUTES = {
        "completions": ("/v1/completions", lambda choice: choice["text"]),
        "chat": ("/v1/chat/completions", lambda choice: choice["message"]["content"]),
    }

    def __init__(self, config: BackendConfig = BackendConfig()):
        base = config.base_url or os.environ.get(ENV_API_BASE, "")
        if not base:
            raise ConfigError(
                f"no endpoint: pass BackendConfig.base_url or set {ENV_API_BASE}"
            )
        self.base_url = base.rstrip("/")
        self._config = config
        import base64
        import http.client
        import queue
        import ssl
        import urllib.request
        from urllib.parse import unquote, urlsplit

        api_key = config.api_key or os.environ.get(ENV_API_KEY)
        headers = {"Content-Type": "application/json", "User-Agent": "nlts"}
        if api_key:
            if any(c in "\r\n" or c > "\xff" for c in api_key):  # never echo the key
                raise ConfigError(f"api_key (or {ENV_API_KEY}) holds a line break or a "
                                  "character outside Latin-1, which no HTTP header can carry")
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            target = urlsplit(self.base_url)
            host, port = _ascii_host(target.hostname), target.port
            proxies = urllib.request.getproxies()
            proxy = proxies.get(target.scheme) or proxies.get("all")
            if proxy and not urllib.request.proxy_bypass(target.netloc):
                proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
                proxy_host, proxy_port = _ascii_host(proxy.hostname), proxy.port or 80
            else:
                proxy = None
        except ValueError as exc:  # an unparseable URL or port, or a host IDNA cannot encode
            raise ConfigError(f"bad base_url or proxy for {self.base_url}: {exc}") from exc
        if target.scheme not in ("http", "https") or not host:
            raise ConfigError(f"base_url must be an http:// or https:// URL, got {self.base_url}")
        if proxy and (proxy.scheme != "http" or not proxy_host):
            raise ConfigError(f"proxy for {self.base_url} must be an http:// URL")
        kw = {"timeout": config.timeout}
        if target.scheme == "https":
            kw["context"] = ssl.create_default_context()  # one for every connection
        connect = http.client.HTTPSConnection if "context" in kw else http.client.HTTPConnection
        path = target.path  # a request's target is this plus the route's path
        # the Host field http.client would send: the upstream's, also through a proxy
        upstream = f"[{host}]" if ":" in host else host
        if port not in (None, connect.default_port):
            upstream += f":{port}"
        tunnel = None
        if proxy:
            userinfo = unquote(proxy.netloc.rpartition("@")[0]).encode()
            auth = {"Proxy-Authorization": "Basic " + base64.b64encode(userinfo).decode()
                    } if "@" in proxy.netloc else {}
            if "context" in kw:  # CONNECT host:port, then TLS through the tunnel
                tunnel = (host, port, auth)
            else:  # a plain-HTTP proxy takes the absolute URL
                path, upstream = self.base_url, target.netloc
                headers.update(auth)
            host, port = proxy_host, proxy_port
        if not (path.isascii() and path.isprintable()) or " " in path:
            raise ConfigError(f"base_url path must be printable ASCII without spaces, "
                              f"got {self.base_url}")
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        # per endpoint, a request's head up to its Content-Length value and after it
        self._heads = {endpoint: (
            f"POST {path}{route} HTTP/1.1\r\nHost: ".encode()
            + upstream.encode("ascii")  # host is, and a proxied netloc passed the path check
            + b"\r\nAccept-Encoding: identity\r\nContent-Length: ",
            f"\r\n{fields}\r\n".encode("latin-1"),
        ) for endpoint, (route, _) in self._ROUTES.items()}

        def connection():
            conn = connect(host, port, **kw)
            if tunnel:
                conn.set_tunnel(*tunnel)
            return conn

        self._connection = connection
        self._slots = queue.LifoQueue()
        for _ in range(config.max_in_flight):
            self._slots.put(None)
        self._transport_errors = (OSError, http.client.HTTPException)
        self._no_data_yet = (BlockingIOError, ssl.SSLWantReadError)
        self._no_room = (BlockingIOError, ssl.SSLWantReadError, ssl.SSLWantWriteError)

    def describe(self):
        return {"backend": self.name, "base_url": self.base_url}

    def close(self):
        """Closes the pool's idle connections; a later request opens a new one."""
        with self._slots.mutex:
            for conn in self._slots.queue:
                if conn is not None:
                    conn.close()

    def complete(self, prompt, params, tag=""):
        return self.complete_many([(prompt, params, tag)])[0]

    def complete_many(self, calls):
        """send writes each request and finish ends each attempt, making
        _reply's texts or error the call's result, retry or error."""
        import heapq
        import selectors
        from queue import Empty

        from .http_reply import Reply

        cfg = self._config
        requests = []  # per call: (prompt, endpoint, the request's bytes)
        for prompt, params, _ in calls:
            endpoint, body = request_body(prompt, params)
            if endpoint == "chat":
                _last_user_content(prompt)  # validates shape before anything is sent
            body = _wire_json(body).encode()
            head, rest = self._heads[endpoint]
            requests.append((prompt, endpoint, b"%s%d%s%s" % (head, len(body), rest, body)))
        results, errors, attempts = [None] * len(requests), {}, [0] * len(requests)
        due = list(range(len(requests)))  # a heap: calls to send, lowest index first
        waiting = []  # a heap of (due time, call): calls waiting out a delay, holding no slot
        flights = {}  # connection in flight -> [its call, the reply's deadline, Reply, reused]
        held = []  # connections the batch holds between requests, drained before the pool
        selector = selectors.DefaultSelector()

        def send(i, conn):
            """Writes call i's request on conn, which a failure to connect or write ends."""
            flights[conn] = flight = [i, math.inf, Reply(), conn.sock is not None]
            try:
                if conn.sock is None:
                    conn.connect()
                    conn.sock.setblocking(False)  # the loop reads the replies as they come
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                data = requests[i][2]
                try:
                    sent = conn.sock.send(data)
                except self._no_room:
                    sent = 0  # nothing written: TLS takes the same bytes again
                if sent < len(data):  # the rest blocks the loop, under the timeout
                    conn.sock.settimeout(cfg.timeout)
                    conn.sock.sendall(data[sent:])
                    conn.sock.setblocking(False)
            except self._transport_errors as exc:
                return finish(conn, exc)
            flight[1] = time.monotonic() + cfg.timeout

        def finish(conn, error=None):
            """Ends the attempt in flight on conn: with its whole reply, or with error."""
            i, _, reply, reused = flights.pop(conn)
            if error is not None or not reply.keep_alive:
                if conn.sock is not None and conn.sock in selector.get_map():  # connected
                    selector.unregister(conn.sock)
                conn.close()
            if reused and isinstance(error, ConnectionError) and not reply.started:
                return send(i, conn)  # on a new connection, so at most once per attempt
            if error is None:
                held.append(conn)
            else:
                self._slots.put(conn)
            try:
                results[i] = self._reply(*requests[i][:2], attempts[i], reply, error)
            except (RateLimitError, TransportError) as exc:
                if attempts[i] > cfg.max_retries:
                    errors[i] = exc
                else:
                    delay = self._delay(attempts[i], None if error else reply.retry_after)
                    if delay > 0:
                        heapq.heappush(waiting, (time.monotonic() + delay, i))
                    else:
                        heapq.heappush(due, i)
            except (AuthError, ProtocolError) as exc:
                errors[i] = exc

        try:
            while True:
                while due and not errors and len(flights) < cfg.max_in_flight:
                    if held:
                        conn = held.pop()
                    else:
                        try:
                            conn = self._slots.get(block=not flights) or self._connection()
                        except Empty:
                            break
                        if conn.sock is not None:  # idle since an earlier batch
                            if _readable(conn.sock):
                                conn.close()  # closed by the server, or out of step: open a new one
                            else:
                                selector.register(conn.sock, selectors.EVENT_READ, conn)
                    i = heapq.heappop(due)
                    attempts[i] += 1
                    send(i, conn)
                while held:  # nothing is due, or a call has failed for good
                    conn = held.pop()
                    if conn.sock is not None:
                        selector.unregister(conn.sock)
                    self._slots.put(conn)
                timers = [flight[1] for flight in flights.values()]
                if waiting and not errors:
                    timers.append(waiting[0][0])
                if not timers:
                    break  # nothing in flight or waiting: every call is settled
                wake = min(timers)
                events = []
                if flights:
                    events = selector.select(max(0.0, wake - time.monotonic()))
                else:
                    time.sleep(max(0.0, wake - time.monotonic()))
                for key, _ in events:
                    conn, reply = key.data, flights[key.data][2]
                    try:
                        while not reply.feed(conn.sock.recv(65536)):
                            pass
                    except self._no_data_yet:
                        continue  # the rest of the reply is still to come
                    except self._transport_errors as exc:
                        finish(conn, exc)
                    else:
                        finish(conn)
                # a wait that ran out makes its timer due, whatever the clock reads
                now = time.monotonic() if events else max(time.monotonic(), wake)
                for conn in [c for c, flight in flights.items() if flight[1] <= now]:
                    finish(conn, TimeoutError("timed out"))
                while waiting and waiting[0][0] <= now:
                    heapq.heappush(due, heapq.heappop(waiting)[1])
        finally:
            for conn in [*flights, *held]:  # left only when an exception escapes
                conn.close()
                self._slots.put(conn)
            selector.close()
            send = finish = None  # each refers to the other: a cycle that would outlive the batch
        if errors:
            raise errors[min(errors)]
        return results

    def _delay(self, failures: int, retry_after: str | None = None) -> float:
        """Seconds to wait after `failures` failed attempts in a row."""
        cfg = self._config
        seconds = _retry_after_seconds(retry_after) if retry_after is not None else 0.0
        if seconds <= 0 and failures >= 2:
            seconds = cfg.backoff_base * 2 ** (failures - 1) + random.random() * cfg.backoff_base
        return min(seconds, cfg.backoff_cap)

    def _reply(self, prompt, endpoint, attempts: int, reply, error=None) -> tuple[list[str], Usage]:
        """A call's texts and usage from its attempt's whole Reply, else the
        call's error: TransportError for the error that ended the attempt or
        for a 5xx, RateLimitError for a 429 (both retried while retries are
        left), AuthError for a 401/403 and ProtocolError for anything else."""
        if error is not None:
            raise TransportError(
                f"request failed after {attempts} attempts: {error!r}") from error
        status = reply.status
        if status in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {status})")
        if status != 200:
            error = (RateLimitError if status == 429 else
                     TransportError if 500 <= status < 600 else ProtocolError)
            excerpt = reply.body[:200].decode("utf-8", "replace")
            raise error(f"HTTP {status} after {attempts} attempts: {excerpt}")
        try:
            data = json.loads(reply.body)
            texts = [self._ROUTES[endpoint][1](choice) for choice in data["choices"]]
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"endpoint returned invalid JSON: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"{endpoint} response missing choices or their text: {exc}") from exc
        if not texts:
            raise ProtocolError(f"{endpoint} response has an empty choices list")
        if not all(isinstance(t, str) for t in texts):
            raise ProtocolError(f"{endpoint} response has a choice whose text is not a string")
        try:  # a usage block that is not a mapping, None included, raises TypeError
            usage = Usage.from_dict({**data.get("usage"), "requests": attempts})
        except (TypeError, ValueError):
            usage = _estimate_usage(prompt, texts, attempts)
        return texts, usage


def _ascii_host(name: str | None) -> str | None:
    """A host name in the ASCII form the wire takes: its IDNA encoding when
    it is not ASCII. Raises UnicodeError, a ValueError, when it has none."""
    return name if name is None or name.isascii() else name.encode("idna").decode("ascii")


def _readable(sock) -> bool:
    """Whether an idle keep-alive socket has something to read: the server's
    close, or bytes no request asked for. Either way it cannot be reused."""
    import select

    if hasattr(select, "poll"):  # select() cannot take descriptors >= FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retry_after_seconds(value: str) -> float:
    """A Retry-After header as seconds from now: whole seconds or an HTTP date.
    Anything else is 0, so the caller keeps its backoff."""
    import email.utils

    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    parsed = email.utils.parsedate_tz(value)
    if parsed is None:
        return 0.0
    try:
        return email.utils.mktime_tz(parsed[:9] + (parsed[9] or 0,)) - time.time()
    except (OverflowError, ValueError):
        return 0.0


# --- record / replay ----------------------------------------------------------


class RecordingBackend(Backend):
    """Wraps a backend and appends every exchange to a JSONL cassette.

    Line schema: {"request_hash", "canonical_request", "response_body"},
    where response_body is {"texts": [...], "usage": {...}} and request_hash =
    sha256 of the canonical request JSON. A line holds no wall-clock stamp,
    and a complete_many batch's lines are appended in call order with one
    write, so recording the same requests twice writes the same bytes, in
    whatever order the inner backend's replies arrived. close() closes the
    inner backend.
    """

    name = "record"

    def __init__(self, inner: Backend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        make_dir(self.path.parent, "cassette directory")
        write_text(self.path, "", "cassette", mode="a")

    def complete(self, prompt, params, tag=""):
        return self.complete_many([(prompt, params, tag)])[0]

    def complete_many(self, calls):
        replies = self.inner.complete_many(calls)
        lines = []
        for (prompt, params, tag), (texts, usage) in zip(calls, replies):
            canonical = canonical_request(*request_body(prompt, params), tag)
            lines.append(json.dumps({
                "request_hash": request_hash(canonical),
                "canonical_request": canonical,
                "response_body": {"texts": texts, "usage": usage.to_dict()},
            }, sort_keys=True) + "\n")
        with self._lock:
            write_text(self.path, "".join(lines), "cassette", mode="a")
        return replies

    def describe(self):
        return {"backend": self.name, "inner": self.inner.describe(), "cassette": str(self.path)}

    def close(self):
        self.inner.close()


class ReplayBackend(Backend):
    """Serves recorded responses by request; any miss is a TransportError.

    On load, each record's stored hash is recomputed from its canonical request;
    records that fail verification are dropped, so an edited request or hash
    surfaces as a miss. Each verified record's response is checked once, at
    load, and indexed under its lookup_key, so a hit costs one prompt digest
    and one dict lookup. The hash does not cover response_body: an edited
    response is served as it stands, and a malformed one raises ProtocolError
    whenever its record is hit.
    """

    name = "replay"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # lookup key -> (texts, usage), or (None, message) for a malformed response
        self._responses: dict[tuple | str, tuple] = {}
        # the last params object served and its body's JSON without a prompt
        self._body: tuple[GenerationParams | None, str] = (None, "")
        for line_no, line in enumerate(read_text(self.path, "cassette").splitlines(), start=1):
            if line.strip():
                try:
                    self._load(line_no, line)
                except RecursionError as exc:
                    raise ProtocolError(f"cassette line {line_no} is nested too deeply") from exc

    def _load(self, line_no: int, line: str) -> None:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"cassette line {line_no} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ProtocolError(f"cassette line {line_no} is not a JSON object")
        stored = record.get("request_hash", "")
        canonical = record.get("canonical_request")
        if canonical is None or request_hash(canonical) != stored:
            return  # tampered or foreign record: never served
        if "response_body" not in record:
            raise ProtocolError(f"cassette line {line_no} has no response_body")
        self._responses[lookup_key(canonical)] = _checked_response(record["response_body"],
                                                                   stored)

    def complete(self, prompt, params, tag=""):
        if isinstance(prompt, str) and isinstance(tag, str):
            seen, body = self._body
            if seen is not params:
                _, rest = request_body("", params)
                del rest["prompt"]
                body = _canonical_json(rest)
                self._body = (params, body)
            key = (body, _joined_pairs(tag), _prompt_digest(prompt))
        else:
            key = lookup_key(canonical_request(*request_body(prompt, params), tag))
        try:
            texts, usage = self._responses[key]
        except KeyError:
            h = request_hash(canonical_request(*request_body(prompt, params), tag))
            raise TransportError(
                f"cassette {self.path} has no response for request {h[:12]}... (tag={tag!r})"
            ) from None
        if texts is None:
            raise ProtocolError(usage)
        return list(texts), usage

    def describe(self):
        return {"backend": self.name, "cassette": str(self.path)}


def _checked_response(body, stored_hash: str) -> tuple:
    """A cassette response as (texts, usage), or as (None, the ProtocolError
    message) when it is malformed."""
    try:
        texts = body["texts"]
        usage = Usage.from_dict(body.get("usage", {}), requests=1)
    except (KeyError, TypeError, ValueError) as exc:
        return None, (f"cassette response for {stored_hash[:12]}... is malformed: "
                      f"{type(exc).__name__}: {exc}")
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        return None, f"cassette response for {stored_hash[:12]}... has non-string texts"
    return tuple(texts), usage
