"""Model access layer: wire protocol, on-disk response cache, and retries.

Two request kinds exist. Generation returns free text; scoring returns the
log-probabilities a model assigns to the tokens of a fixed completion after
a prompt. Both go through a content-addressed cache keyed by the request
plus the serving endpoint's identity, so switching endpoints or models never
replays stale responses. The cache is one SQLite database per cache
directory, shared safely by threads, gateways and processes, that maps each
request's 32-byte SHA-256 digest to its response body. A database written
by an earlier version, with the digests as hex text, is rewritten in place
and vacuumed when it is first opened.

Requests travel in batches: ModelGateway.score_many and generate_many take
a list, and each chunk of up to BATCH_SIZE requests costs one cache lookup.
The responses it fetched go into the cache's open write transaction. For an
in-process backend that transaction is committed once it is
COMMIT_INTERVAL_S old, when a batch raises, and when the stage or the
gateway ends, so a run commits about once a second instead of once a batch.
Responses from an HTTP endpoint are committed with each batch, so the write
lock is never held while requests wait on the network. A single generate or
score is a batch of one; ResponseCache.put stores one entry and commits.

HttpBackend speaks HTTP/1.1 through the standard library's http.client, so
the package has no runtime dependency: each thread that calls it keeps one
keep-alive connection, and https verifies the server against the system
trust store (ssl.create_default_context). http.client and ssl are imported
when the first HttpBackend is built, so in-process runs and the model-free
stage verbs never load the HTTP client.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence, TypeVar
from urllib.parse import urlsplit

from .errors import (
    URL_DOMAIN,
    CacheCorruptError,
    EmptySpanError,
    ProtocolError,
    TransportError,
    check_domain,
)

if TYPE_CHECKING:
    import http.client

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = (1.0, 2.0, 4.0)

# Requests per batch: one cache lookup each, and the unit fanned out over
# an HTTP endpoint's threads. Large enough that lookups cost little next to
# the requests, small enough that a batch never holds a whole stage's
# requests, and below SQLite's oldest limit of 999 parameters per statement.
# Commits follow COMMIT_INTERVAL_S instead.
BATCH_SIZE = 256

# The per-stage counters ModelGateway.counters() reports.
GATEWAY_COUNTERS = ("requests", "cache_hits", "backend_calls", "cache_commits", "retries")

T = TypeVar("T")


def chunked(items: Iterable[T], size: int = BATCH_SIZE) -> Iterator[list[T]]:
    """Consecutive lists of at most size items, in order."""
    it = iter(items)
    while chunk := list(islice(it, size)):
        yield chunk


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
    """POSTs JSON to <endpoint>/v1/generate and <endpoint>/v1/score.

    Each calling thread has its own keep-alive connection, opened at its
    first request; close() closes every thread's connection. A request that
    finds its kept-alive connection dropped by the server is sent once more
    on a new connection. Any other network failure (refused, timed out, a
    body cut short) and a 429 or 5xx status raise TransportError, which the
    gateway retries; any other status, or a 200 whose body is not JSON,
    raises ProtocolError. Every reply is read to its end, so its connection
    can carry the next request.
    """

    def __init__(self, endpoint: str, timeout_s: float = 120.0) -> None:
        # Imported here, so that only a process that talks to an endpoint
        # pays for the HTTP stack (http.client, ssl, socket, email).
        import http.client
        import ssl

        check_domain(endpoint, URL_DOMAIN, "endpoint")
        self.endpoint = endpoint.rstrip("/")
        self.identity = self.endpoint
        self.timeout_s = timeout_s
        url = urlsplit(self.endpoint)
        self._path_prefix = url.path
        if url.scheme == "https":
            self._new_connection = partial(http.client.HTTPSConnection, url.hostname, url.port,
                                           timeout=timeout_s,
                                           context=ssl.create_default_context())
        else:
            self._new_connection = partial(http.client.HTTPConnection, url.hostname, url.port,
                                           timeout=timeout_s)
        # What sending on a kept-alive connection raises once the server has
        # closed it while it sat idle.
        self._dropped = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)
        self._failed = (OSError, http.client.HTTPException)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []  # every thread's

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._new_connection()
            with self._lock:
                self._connections.append(conn)
        return conn

    def _post(self, path: str, body: dict) -> dict:
        url = f"{self.endpoint}{path}"
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        while True:
            conn = self._connection()
            kept_alive = conn.sock is not None  # else this request opens it
            try:
                conn.request("POST", self._path_prefix + path, data,
                             {"Content-Type": "application/json"})
                with conn.getresponse() as resp:
                    status, payload = resp.status, resp.read()
                break
            except self._dropped as exc:
                conn.close()
                if not kept_alive:
                    raise TransportError(f"POST {url} failed: {exc!r}") from exc
            except self._failed as exc:
                conn.close()
                raise TransportError(f"POST {url} failed: {exc!r}") from exc
        if status == 429 or status >= 500:
            raise TransportError(f"POST {url} returned {status}")
        if status != 200:
            text = payload[:200].decode("utf-8", "replace")
            raise ProtocolError(f"POST {url} returned {status}: {text}")
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise ProtocolError(f"POST {url} returned non-JSON body") from exc

    def generate(self, body: dict) -> dict:
        return self._post("/v1/generate", body)

    def score(self, body: dict) -> dict:
        return self._post("/v1/score", body)

    def close(self) -> None:
        """Close every thread's connection; a later request reopens it."""
        with self._lock:
            for conn in self._connections:
                conn.close()


# One encoder for every key and one for every stored value: json.dumps
# with options builds a new encoder per call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
_VALUE_ENCODER = json.JSONEncoder(ensure_ascii=False)


@lru_cache(maxsize=64)
def _key_tail(identity: str, model: str, kind: str) -> str:
    """The canonical key text after the body: the other three fields in
    sorted order, escaped once per gateway and request kind."""
    return ',"endpoint":%s,"kind":%s,"model":%s}' % tuple(
        map(_KEY_ENCODER.encode, (identity, kind, model)))


def _cache_key(identity: str, model: str, kind: str, body: dict) -> str:
    """The SHA-256, in hex, of the request's canonical JSON text: the same
    bytes as json.dumps({"endpoint", "model", "kind", "body"},
    sort_keys=True, separators=(",", ":"), ensure_ascii=False), with the
    body's encoding the only per-request work."""
    canonical = '{"body":' + _KEY_ENCODER.encode(body) + _key_tail(identity, model, kind)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


CACHE_FILE = "responses.sqlite3"
CACHE_BUSY_TIMEOUT_S = 60.0
# SQLite's page cache per connection, in KiB. Lookups are random by key and
# the OS already caches the file, so a large page cache only adds memory.
CACHE_PAGE_CACHE_KIB = 256
# The cache file's layout, kept in PRAGMA user_version. 0 is a file written
# before the number was kept: keys as 64 hex digits of TEXT, or no table yet.
CACHE_FORMAT = 1
# The age, in seconds, at which put_many commits the open write transaction.
# Each commit writes every page the transaction changed to the write-ahead
# log, and random keys change most leaf pages, so one commit per second
# writes far less than one per batch; a killed process loses at most about
# this long of responses.
COMMIT_INTERVAL_S = 1.0


class ResponseCache:
    """Response cache in one SQLite database, cache_dir/responses.sqlite3.

    Each entry maps a request's 32-byte SHA-256 digest (a BLOB key; see
    _cache_key for the hex form) to its response body as JSON text. A file
    in the older layout, with the same digests as 64 hex digits of TEXT, is
    rewritten in place on its first open, in one transaction: every entry is
    kept, and a row whose key is not such a digest is dropped with a warning.
    The process that rewrote it then runs VACUUM, so the file does not keep
    the old table's pages. An older evontree cannot read the file
    afterwards. A file in a layout this version does not know is refused
    with CacheCorruptError.

    put_many adds its entries to one open write transaction, begun with
    BEGIN IMMEDIATE at the first write after a commit, and commits it once
    it is COMMIT_INTERVAL_S old; commit() commits it at once, and close()
    commits before closing. put stores one entry and commits. The entries
    are visible to this instance at once and to other connections when
    committed, and a crash loses the uncommitted ones whole: it never leaves
    a half-written entry that a later run would trust. While a transaction
    is open this instance holds the file's write lock, so writers in other
    processes wait for the commit, up to CACHE_BUSY_TIMEOUT_S; readers do
    not wait, as the database runs in WAL mode. One connection serves all
    threads of this instance, behind a lock. A stored value that does not
    decode counts as a miss and is replaced by the next put of its key.
    """

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / CACHE_FILE
        self._lock = threading.Lock()
        self._began = 0.0  # time.monotonic() at the open write transaction's BEGIN
        self._closed = False
        # Autocommit (isolation_level=None): a statement outside an explicit
        # BEGIN commits alone.
        self._conn = sqlite3.connect(self.path, timeout=CACHE_BUSY_TIMEOUT_S,
                                     isolation_level=None, check_same_thread=False)
        # Values come back as bytes, so an entry that is not valid UTF-8
        # fails in get_many's decode (a miss) rather than inside sqlite3.
        self._conn.text_factory = bytes
        try:
            # The first statement reads the file header. WAL mode persists in
            # the file, so only a file not yet in WAL mode is switched: asking
            # for the switch while another process writes can fail with
            # "database is locked" at once, without the busy timeout.
            mode = self._conn.execute("PRAGMA journal_mode").fetchone()[0]
            if mode != b"wal":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA cache_size=-{CACHE_PAGE_CACHE_KIB}")
            if self._format() != CACHE_FORMAT:
                self._upgrade()
        except BaseException as exc:
            self._conn.close()
            # An OperationalError (locked, unwritable, ...) is not the file's fault.
            if isinstance(exc, sqlite3.DatabaseError) and not isinstance(
                    exc, sqlite3.OperationalError):
                raise CacheCorruptError(
                    f"response cache {self.path} is not a usable SQLite database ({exc}); "
                    "move or delete it to start with an empty cache") from exc
            raise

    def _format(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def _upgrade(self) -> None:
        """Bring a file of format 0 to CACHE_FORMAT in one transaction, then
        VACUUM a file whose old table it rewrote. The format is read again
        under the write lock, so of two processes opening one old file only
        the first rewrites it; a process killed part way leaves the old
        table as it was."""
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            version = self._format()
            if version == CACHE_FORMAT:
                return
            if version != 0:
                raise CacheCorruptError(
                    f"response cache {self.path} has format {version}, which this version "
                    f"of evontree (format {CACHE_FORMAT}) cannot read; move or delete it "
                    "to start with an empty cache")
            old = self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'responses'"
            ).fetchone()
            if old:
                self._conn.execute("ALTER TABLE responses RENAME TO responses_hex_keys")
            self._conn.execute("CREATE TABLE responses "
                               "(key BLOB PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID")
            if old:
                self._conn.create_function("digest_of_hex", 1, bytes.fromhex,
                                           deterministic=True)
                # A key is kept only when it is 64 lowercase hex digits, as
                # hexdigest writes them; digest_of_hex sees no other.
                kept = self._conn.execute(
                    "INSERT INTO responses (key, value) "
                    "SELECT digest_of_hex(key), value FROM responses_hex_keys "
                    "WHERE typeof(key) = 'text' AND length(key) = 64 "
                    "AND key NOT GLOB '*[^0-9a-f]*'").rowcount
                total = self._conn.execute(
                    "SELECT count(*) FROM responses_hex_keys").fetchone()[0]
                self._conn.execute("DROP TABLE responses_hex_keys")
                if total > kept:
                    log.warning("dropping %d cache entries whose key is not a hex digest "
                                "from %s", total - kept, self.path)
                log.info("rewrote %d cache entries in %s with binary keys", kept, self.path)
            self._conn.execute(f"PRAGMA user_version = {CACHE_FORMAT}")
        if old:
            # The old table's pages are free now: hand them back to the file
            # system rather than keep a file about twice the size.
            self._conn.execute("VACUUM")

    def get(self, key: bytes) -> dict | None:
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[bytes]) -> dict[bytes, dict]:
        """The stored responses among keys, looked up with one SELECT per
        BATCH_SIZE keys; keys with no entry, or an undecodable one, are absent."""
        rows = []
        with self._lock:
            for chunk in chunked(keys):
                marks = ",".join("?" * len(chunk))
                rows += self._conn.execute(
                    f"SELECT key, value FROM responses WHERE key IN ({marks})", chunk).fetchall()
        found = {}
        for key, value in rows:
            try:
                # A value that is not UTF-8 raises UnicodeDecodeError, a ValueError.
                found[key] = json.loads(value.decode("utf-8"))
            except ValueError:
                log.warning("discarding undecodable cache entry %s in %s", key.hex(), self.path)
        return found

    def put(self, key: bytes, value: dict) -> None:
        """Store one entry and commit it, with any others not yet committed."""
        self.put_many({key: value})
        self.commit()

    def put_many(self, entries: dict[bytes, dict]) -> bool:
        """Add every entry to the open write transaction, in order, and
        commit it if it is COMMIT_INTERVAL_S old; True if this call
        committed. If a statement fails, the transaction is rolled back,
        with every entry not yet committed."""
        rows = [(key, _VALUE_ENCODER.encode(value)) for key, value in entries.items()]
        if not rows:
            return False
        with self._lock:
            try:
                if not self._conn.in_transaction:
                    self._conn.execute("BEGIN IMMEDIATE")
                    self._began = time.monotonic()
                self._conn.executemany(
                    "INSERT OR REPLACE INTO responses (key, value) VALUES (?, ?)", rows)
            except BaseException:
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise
            if time.monotonic() - self._began < COMMIT_INTERVAL_S:
                return False
            return self._commit()

    def commit(self) -> bool:
        """Commit the open write transaction; True if one was open."""
        with self._lock:
            return self._commit()

    def _commit(self) -> bool:
        if self._closed or not self._conn.in_transaction:
            return False
        self._conn.execute("COMMIT")
        return True

    def close(self) -> None:
        """Commit, then close the connection. The last connection to close
        folds the write-ahead log back into the database and deletes it.
        Idempotent."""
        with self._lock:
            try:
                self._commit()
            finally:
                self._closed = True
                self._conn.close()


class ModelGateway:
    """Caching, retrying, batching front door for all model calls.

    Retries apply to transport failures only (network errors, 429 and 5xx);
    protocol violations (any other bad status, malformed body) fail
    immediately since retrying cannot fix a disagreement about the wire
    format. With read_cache=False the cache is still written, so a later
    run can reuse the responses.

    Requests to an HTTP endpoint wait on the network, so a batch's cache
    misses fan out over max_in_flight threads. An in-process backend holds
    the interpreter lock while it works, where threads only add contention;
    its misses are fetched in order on the calling thread.

    Each batch stores the responses it fetched in the cache's open write
    transaction. An HTTP endpoint's are committed with their batch. An
    in-process backend's are committed by the cache once the transaction
    is COMMIT_INTERVAL_S old, and by commit(), which a batch that raises,
    close() and the pipeline's stage runner call. Until then this gateway
    holds the cache file's write lock: another gateway on the same file
    waits for it.

    Counters, for the run manifest: requests asked for, cache_hits (found
    in the cache, or repeating a key earlier in the same batch), calls
    (responses fetched from the backend; retries not counted),
    cache_commits (committed write transactions of fetched responses; see
    commit) and retries
    (transport failures that were tried again, counted under a lock since
    fanned-out threads retry at once).
    """

    def __init__(
        self,
        backend: Backend,
        model: str,
        cache_dir: Path | None,
        read_cache: bool = True,
        retry_backoff_s: tuple[float, ...] = RETRY_BACKOFF_S,
        sleep=time.sleep,
        max_in_flight: int = 1,
    ) -> None:
        self.backend = backend
        self.model = model
        self.cache = ResponseCache(cache_dir) if cache_dir is not None else None
        self.read_cache = read_cache
        self.retry_backoff_s = retry_backoff_s
        self._sleep = sleep
        self.max_in_flight = max_in_flight
        self._pool: ThreadPoolExecutor | None = None
        self.requests = 0
        self.calls = 0
        self.cache_hits = 0
        self.cache_commits = 0
        self.retries = 0
        self._retries_lock = threading.Lock()

    def counters(self) -> dict[str, int]:
        """The running totals named in GATEWAY_COUNTERS."""
        return dict(zip(GATEWAY_COUNTERS, (self.requests, self.cache_hits, self.calls,
                                           self.cache_commits, self.retries)))

    def commit(self) -> None:
        """Commit the responses stored and not yet committed."""
        if self.cache is not None and self.cache.commit():
            self.cache_commits += 1

    def close(self) -> None:
        """Shut down the fan-out threads, commit and close the response
        cache, then close the backend if it has a close method; the gateway
        makes no calls after this."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self.cache is not None:
            self.commit()
            self.cache.close()
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

    def fan_out(self, fn: Callable[[T], object], items: Iterable[T]) -> list:
        """fn over items, results in item order: over max_in_flight threads
        for an HTTP endpoint, else one by one on this thread.

        On a failure, items not yet started are dropped and running ones
        finish before the first failure is raised, so no call outlives this.
        """
        items = list(items)
        if not isinstance(self.backend, HttpBackend) or self.max_in_flight <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_in_flight)
        futures = [self._pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            wait(futures)

    def _fetch(self, kind: str, body: dict) -> dict:
        last_exc: TransportError | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return self.backend.generate(body) if kind == "generate" else self.backend.score(body)
            except TransportError as exc:
                last_exc = exc
                if attempt + 1 < RETRY_ATTEMPTS:
                    with self._retries_lock:
                        self.retries += 1
                    delay = self.retry_backoff_s[min(attempt, len(self.retry_backoff_s) - 1)]
                    log.warning("transport failure (attempt %d/%d), retrying in %.1fs: %s",
                                attempt + 1, RETRY_ATTEMPTS, delay, exc)
                    self._sleep(delay)
        raise TransportError(str(last_exc), attempts=RETRY_ATTEMPTS)

    def _call_many(self, kind: str, requests: Sequence, bypass_cache: bool,
                   parse: Callable[[object, dict], T]) -> list[T]:
        """parse(request, body) for each request's response body, in order,
        one batch per BATCH_SIZE requests.

        Each distinct key of a batch is looked up once and fetched at most
        once. A fetched body is parsed before it is stored, so one that
        parse rejects (ProtocolError) is never cached and a rerun asks the
        backend again. Valid responses fetched before a failure are still
        stored, and committed before the failure is raised.
        """
        try:
            return self._call_batches(kind, requests, bypass_cache, parse)
        except BaseException:
            self.commit()
            raise

    def _call_batches(self, kind: str, requests: Sequence, bypass_cache: bool,
                      parse: Callable[[object, dict], T]) -> list[T]:
        results: list[T] = []
        for chunk in chunked(requests):
            bodies = [r.to_body(self.model) for r in chunk]
            keys = [bytes.fromhex(_cache_key(self.backend.identity, self.model, kind, body))
                    for body in bodies]
            self.requests += len(keys)
            found: dict[bytes, dict] = {}
            if self.cache is not None and self.read_cache and not bypass_cache:
                found = self.cache.get_many(keys)
            missing = {key: (r, body) for key, r, body in zip(keys, chunk, bodies)
                       if key not in found}
            fetched: dict[bytes, dict] = {}  # every response the backend returned
            parsed: dict[bytes, T] = {}  # the valid ones, parsed

            def fetch(item: tuple[bytes, tuple[object, dict]]) -> None:
                key, (request, body) = item
                fetched[key] = self._fetch(kind, body)
                parsed[key] = parse(request, fetched[key])

            try:
                self.fan_out(fetch, missing.items())
            finally:
                self.calls += len(fetched)
                if self.cache is not None and parsed:
                    # put_many says whether it committed.
                    self.cache_commits += self.cache.put_many(
                        {key: fetched[key] for key in parsed})
            if isinstance(self.backend, HttpBackend):
                # Never hold the write lock while the next batch waits on the
                # network.
                self.commit()
            self.cache_hits += len(keys) - len(fetched)
            results += [parsed[key] if key in parsed else parse(r, found[key])
                        for key, r in zip(keys, chunk)]
        return results

    def generate_many(self, requests: Sequence[GenerateRequest],
                      bypass_cache: bool = False) -> list[str]:
        """The generated text for each request, in order."""
        return self._call_many("generate", requests, bypass_cache, _generated_text)

    def generate(self, request: GenerateRequest, bypass_cache: bool = False) -> str:
        return self.generate_many([request], bypass_cache)[0]

    def score_many(self, requests: Sequence[ScoreRequest],
                   bypass_cache: bool = False) -> list[ScoreResponse | EmptySpanError]:
        """The scored completion for each request, in order.

        A response that scores no tokens comes back as an EmptySpanError in
        its place, so the caller can drop just the item it belongs to. Such
        a body is well-formed, and the same request always gets it, so it is
        cached and a rerun gets the EmptySpanError again from the cache. Any
        other malformed response raises ProtocolError and is not cached.
        """
        return self._call_many("score", requests, bypass_cache, _score_response)

    def score(self, request: ScoreRequest, bypass_cache: bool = False) -> ScoreResponse:
        result = self.score_many([request], bypass_cache)[0]
        if isinstance(result, EmptySpanError):
            raise result
        return result


def _generated_text(request: GenerateRequest, raw: dict) -> str:
    if not isinstance(raw, dict) or not isinstance(raw.get("text"), str):
        raise ProtocolError(f"generate response missing text field: {raw!r:.200}")
    return raw["text"]


def _score_response(request: ScoreRequest, raw: dict) -> ScoreResponse | EmptySpanError:
    if not isinstance(raw, dict) or not isinstance(raw.get("token_logprobs"), list):
        raise ProtocolError(f"score response missing token_logprobs: {raw!r:.200}")
    logprobs = raw["token_logprobs"]
    if not logprobs:
        return EmptySpanError(
            f"no completion tokens scored for completion {request.completion!r}")
    for lp in logprobs:
        if not isinstance(lp, (int, float)):
            raise ProtocolError(f"non-numeric logprob {lp!r}")
        if lp > 0.0:
            raise ProtocolError(f"logprob {lp} is positive")
    return ScoreResponse(token_logprobs=tuple(float(lp) for lp in logprobs))
