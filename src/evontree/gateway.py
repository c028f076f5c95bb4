"""Model access layer: wire protocol, on-disk response cache, and retries.

Two request kinds exist. Generation returns free text; scoring returns the
log-probabilities a model assigns to the tokens of a fixed completion after
a prompt. Both go through a content-addressed cache keyed by the request
plus the serving endpoint's identity, so switching endpoints or models never
replays stale responses. The cache is one SQLite database per cache
directory, shared safely by threads, gateways and processes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import requests

from .errors import CacheCorruptError, EmptySpanError, ProtocolError, TransportError

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class GenerateRequest:
    prompt: str
    max_tokens: int
    temperature: float
    stop: tuple[str, ...] = ()

    def to_body(self, model: str) -> dict:
        return {
            "model": model,
            "prompt": self.prompt,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
            "stop": list(self.stop),
        }


@dataclass(frozen=True)
class ScoreRequest:
    prompt: str
    completion: str

    def to_body(self, model: str) -> dict:
        return {"model": model, "prompt": self.prompt, "completion": self.completion}


@dataclass(frozen=True)
class ScoreResponse:
    token_logprobs: tuple[float, ...]


class Backend(Protocol):
    """Transport for one endpoint. Raises TransportError for network-level
    failures and returns the decoded JSON body otherwise."""

    identity: str

    def generate(self, body: dict) -> dict: ...

    def score(self, body: dict) -> dict: ...


class HttpBackend:
    """POSTs to <endpoint>/v1/generate and <endpoint>/v1/score."""

    def __init__(self, endpoint: str, timeout_s: float = 120.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.identity = self.endpoint
        self.timeout_s = timeout_s
        self._session = requests.Session()

    def _post(self, path: str, body: dict) -> dict:
        url = f"{self.endpoint}{path}"
        try:
            resp = self._session.post(url, json=body, timeout=self.timeout_s)
        except requests.RequestException as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransportError(f"POST {url} returned {resp.status_code}")
        if resp.status_code != 200:
            raise ProtocolError(f"POST {url} returned {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise ProtocolError(f"POST {url} returned non-JSON body") from exc

    def generate(self, body: dict) -> dict:
        return self._post("/v1/generate", body)

    def score(self, body: dict) -> dict:
        return self._post("/v1/score", body)

    def close(self) -> None:
        """Close the session and its pooled keep-alive connections."""
        self._session.close()


def _cache_key(identity: str, model: str, kind: str, body: dict) -> str:
    canonical = json.dumps(
        {"endpoint": identity, "model": model, "kind": kind, "body": body},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


CACHE_FILE = "responses.sqlite3"
CACHE_BUSY_TIMEOUT_S = 60.0
# SQLite's page cache per connection, in KiB. Lookups are random by key and
# the OS already caches the file, so a large page cache only adds memory.
CACHE_PAGE_CACHE_KIB = 256


class ResponseCache:
    """Response cache in one SQLite database, cache_dir/responses.sqlite3.

    Each put is its own committed transaction, so a crash never leaves a
    half-written entry that a later run would trust, and every other
    connection to the file sees the entry as soon as put returns. The
    database runs in WAL mode; writers in other processes wait up to
    CACHE_BUSY_TIMEOUT_S for the write lock. One connection serves all
    threads of this instance, behind a lock. A stored value that does not
    decode counts as a miss and is replaced by the next put of its key.
    """

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / CACHE_FILE
        self._lock = threading.Lock()
        # Autocommit (isolation_level=None): every statement commits alone.
        self._conn = sqlite3.connect(self.path, timeout=CACHE_BUSY_TIMEOUT_S,
                                     isolation_level=None, check_same_thread=False)
        # Values come back as bytes, so an entry that is not valid UTF-8
        # fails in json.loads (a miss) rather than inside sqlite3.
        self._conn.text_factory = bytes
        try:
            # The first statement reads the file header.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA cache_size=-{CACHE_PAGE_CACHE_KIB}")
            self._conn.execute("CREATE TABLE IF NOT EXISTS responses "
                               "(key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID")
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            if isinstance(exc, sqlite3.OperationalError):  # locked, unwritable, ...
                raise
            raise CacheCorruptError(
                f"response cache {self.path} is not a usable SQLite database ({exc}); "
                "move or delete it to start with an empty cache") from exc

    def get(self, key: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM responses WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            log.warning("discarding undecodable cache entry %s in %s", key, self.path)
            return None

    def put(self, key: str, value: dict) -> None:
        text = json.dumps(value, ensure_ascii=False)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO responses (key, value) VALUES (?, ?)", (key, text))

    def close(self) -> None:
        """Close the connection. The last connection to close folds the
        write-ahead log back into the database and deletes it. Idempotent."""
        with self._lock:
            self._conn.close()


class ModelGateway:
    """Caching, retrying front door for all model calls.

    Retries apply to transport failures only (network errors, 429 and 5xx);
    protocol violations (any other bad status, malformed body) fail
    immediately since retrying cannot fix a disagreement about the wire
    format. With read_cache=False the cache is still written, so a later
    run can reuse the responses.
    """

    def __init__(
        self,
        backend: Backend,
        model: str,
        cache_dir: Path | None,
        read_cache: bool = True,
        retry_backoff_s: tuple[float, ...] = RETRY_BACKOFF_S,
        sleep=time.sleep,
    ) -> None:
        self.backend = backend
        self.model = model
        self.cache = ResponseCache(cache_dir) if cache_dir is not None else None
        self.read_cache = read_cache
        self.retry_backoff_s = retry_backoff_s
        self._sleep = sleep
        self.calls = 0
        self.cache_hits = 0

    def close(self) -> None:
        """Close the response cache, then the backend if it has a close
        method; the gateway makes no calls after this."""
        if self.cache is not None:
            self.cache.close()
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

    def _call(self, kind: str, body: dict, bypass_cache: bool) -> dict:
        key = _cache_key(self.backend.identity, self.model, kind, body)
        if self.cache is not None and self.read_cache and not bypass_cache:
            hit = self.cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                return hit
        last_exc: TransportError | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                raw = self.backend.generate(body) if kind == "generate" else self.backend.score(body)
                break
            except TransportError as exc:
                last_exc = exc
                if attempt + 1 < RETRY_ATTEMPTS:
                    delay = self.retry_backoff_s[min(attempt, len(self.retry_backoff_s) - 1)]
                    log.warning("transport failure (attempt %d/%d), retrying in %.1fs: %s",
                                attempt + 1, RETRY_ATTEMPTS, delay, exc)
                    self._sleep(delay)
        else:
            raise TransportError(str(last_exc), attempts=RETRY_ATTEMPTS)
        self.calls += 1
        if self.cache is not None:
            self.cache.put(key, raw)
        return raw

    def generate(self, request: GenerateRequest, bypass_cache: bool = False) -> str:
        raw = self._call("generate", request.to_body(self.model), bypass_cache)
        if not isinstance(raw, dict) or not isinstance(raw.get("text"), str):
            raise ProtocolError(f"generate response missing text field: {raw!r:.200}")
        return raw["text"]

    def score(self, request: ScoreRequest, bypass_cache: bool = False) -> ScoreResponse:
        raw = self._call("score", request.to_body(self.model), bypass_cache)
        if not isinstance(raw, dict) or not isinstance(raw.get("token_logprobs"), list):
            raise ProtocolError(f"score response missing token_logprobs: {raw!r:.200}")
        logprobs = raw["token_logprobs"]
        if not logprobs:
            raise EmptySpanError(
                f"no completion tokens scored for completion {request.completion!r}")
        for lp in logprobs:
            if not isinstance(lp, (int, float)):
                raise ProtocolError(f"non-numeric logprob {lp!r}")
            if lp > 0.0:
                raise ProtocolError(f"logprob {lp} is positive")
        return ScoreResponse(token_logprobs=tuple(float(lp) for lp in logprobs))
