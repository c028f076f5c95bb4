"""Model access layer: wire protocol, on-disk response cache, and retries.

Two request kinds exist. Generation returns free text; scoring returns the
log-probabilities a model assigns to the tokens of a fixed completion after
a prompt. Both go through a content-addressed cache keyed by the request
plus the serving endpoint's identity, so switching endpoints or models never
replays stale responses. The cache is one SQLite database per cache
directory, shared safely by threads, gateways and processes, that maps each
request's 32-byte SHA-256 digest to the one field of its response the
gateway reads: a score's token_logprobs as packed little-endian doubles, a
generation's text as a JSON string. A file in any other format is refused.

A cache hit costs one digest, one B-tree probe and one decode: each request
writes its canonical JSON text straight from its fields (body_text), and
only a request sent to the backend is turned into a body dict (to_body).
The decode makes the caller's str or ScoreResponse with the same checks a
fetched response passes, so a stored value that fails them, such as a NaN
or positive log-probability, is a miss: it is fetched again and replaced.
A score that spans no tokens is well-formed: it is cached and returned with
empty token_logprobs, and evontree.scoring decides what it means.

Requests travel in batches, cut here alone: ModelGateway.score_many and
generate_many take any iterable of requests and return an iterator of the
results, which sends the next BATCH_SIZE requests as one batch, costing one
cache lookup of their distinct keys, each time the caller has read the
results before them. So nothing is sent before the first read, and at most
one batch is held. ModelGateway tells when fetched responses are committed:
about once a second for an in-process backend, with each batch for a remote
one. generate_read is how a stage asks for generations: one stream, then one
more, with the cache bypassed, for the answers the caller's reader refused,
up to ASK_ATTEMPTS in all. A single generate or score is a batch of one, and
no stage calls either.

A transport failure is retried after a wait: the Retry-After a 429 or 503
reply gives in seconds, up to RETRY_AFTER_MAX_S, or else a uniform draw
from [0, RETRY_BACKOFF_S[attempt]] (full jitter), so that threads that
failed together do not retry together.

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
import math
import random
import sqlite3
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice
from json.decoder import scanstring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence, TypeVar
from urllib.parse import urlsplit

from .errors import (
    URL_DOMAIN,
    CacheCorruptError,
    EvontreeError,
    ProtocolError,
    TransportError,
    check_domain,
)

if TYPE_CHECKING:
    import http.client

log = logging.getLogger(__name__)

# The longest wait before each retry of a transport failure; the wait is a
# uniform draw from [0, RETRY_BACKOFF_S[attempt]], drawn by _JITTER.
RETRY_BACKOFF_S = (1.0, 2.0)
RETRY_ATTEMPTS = len(RETRY_BACKOFF_S) + 1
# The longest wait a Retry-After header is obeyed for; a longer one is cut
# to this.
RETRY_AFTER_MAX_S = 60.0
_JITTER = random.Random()
# How many times generate_read asks for a request whose answer the caller's
# reader refuses: once, then again with the cache bypassed.
ASK_ATTEMPTS = 3

# Requests per batch: one cache lookup each, and the unit fanned out over
# a remote backend's threads. Large enough that lookups cost little next to
# the requests, small enough that a batch never holds a whole stage's
# requests, and below SQLite's oldest limit of 999 parameters per statement.
# Commits follow COMMIT_INTERVAL_S instead.
BATCH_SIZE = 256

# The per-stage counters ModelGateway.counters() reports.
GATEWAY_COUNTERS = ("requests", "cache_hits", "backend_calls", "cache_commits", "retries")

T = TypeVar("T")


def close_all(closers: Iterable[Callable[[], object]]) -> None:
    """Call each closer in turn, also after one raised, then raise the
    first error; any later one is logged."""
    error = None
    for close in closers:
        try:
            close()
        except BaseException as exc:
            if error is None:
                error = exc
            else:
                log.warning("closing also failed: %r", exc)
    if error is not None:
        raise error


# json's own spelling of a str, as json.dumps(..., ensure_ascii=False)
# writes it: the C function every JSON encoder calls.
_string = json.encoder.encode_basestring
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _number(x: int | float) -> str:
    """An int or a float, not a bool, as json.dumps writes it."""
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    return _NON_FINITE.get(x) or float.__repr__(x)


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

    def body_text(self, model: str) -> str:
        """to_body(model) as canonical JSON text: keys sorted, no spaces,
        non-ASCII characters as they are."""
        return '{"max_tokens":%s,"model":%s,"prompt":%s,"stop":[%s],"temperature":%s}' % (
            _number(self.max_tokens), _string(model), _string(self.prompt),
            ",".join(map(_string, self.stop)), _number(self.temperature))


@dataclass(frozen=True)
class ScoreRequest:
    prompt: str
    completion: str

    def to_body(self, model: str) -> dict:
        return {"model": model, "prompt": self.prompt, "completion": self.completion}

    def body_text(self, model: str) -> str:
        """to_body(model) as canonical JSON text, like GenerateRequest's."""
        return '{"completion":%s,"model":%s,"prompt":%s}' % (
            _string(self.completion), _string(model), _string(self.prompt))


@dataclass(frozen=True)
class ScoreResponse:
    token_logprobs: tuple[float, ...]


class Backend(Protocol):
    """Transport for one endpoint. Raises TransportError for network-level
    failures and returns the decoded JSON body otherwise.

    A backend whose requests wait on the network declares the class
    attribute remote = True: the gateway then fans a batch's misses out over
    max_in_flight threads and commits each batch's responses. A backend
    without it answers in process, on the calling thread."""

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
    gateway retries, carrying the wait that a 429 or 503 reply asks for in a
    delta-seconds Retry-After header; any other status, or a 200 whose body
    is not JSON, raises ProtocolError. Every reply is read to its end, so
    its connection can carry the next request.
    """

    remote = True

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
                    retry_after = resp.getheader("Retry-After")
                break
            except self._dropped as exc:
                conn.close()
                if not kept_alive:
                    raise TransportError(f"POST {url} failed: {exc!r}") from exc
            except self._failed as exc:
                conn.close()
                raise TransportError(f"POST {url} failed: {exc!r}") from exc
        if status == 429 or status >= 500:
            raise TransportError(f"POST {url} returned {status}", retry_after_s=(
                _delay_seconds(retry_after) if status in (429, 503) else None))
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


def _delay_seconds(retry_after: str | None) -> float | None:
    """A Retry-After header's wait in seconds when it gives one as
    delay-seconds, a whole number; None for no header or an HTTP-date,
    which a clock that differs from the server's would misread."""
    value = (retry_after or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


# One encoder for every stored text: json.dumps with options builds a new
# encoder per call.
_VALUE_ENCODER = json.JSONEncoder(ensure_ascii=False)


@lru_cache(maxsize=64)
def _key_tail(identity: str, model: str, kind: str) -> str:
    """The canonical key text after the body: the other three fields in
    sorted order, escaped once per gateway and request kind."""
    return ',"endpoint":%s,"kind":%s,"model":%s}' % (
        _string(identity), _string(kind), _string(model))


def _cache_key(identity: str, model: str, kind: str,
               request: GenerateRequest | ScoreRequest) -> bytes:
    """The 32-byte SHA-256 digest of the request's canonical JSON text: the
    same bytes as json.dumps({"endpoint": identity, "model": model, "kind":
    kind, "body": request.to_body(model)}, sort_keys=True, separators=(",",
    ":"), ensure_ascii=False), written without building the body."""
    canonical = '{"body":' + request.body_text(model) + _key_tail(identity, model, kind)
    return hashlib.sha256(canonical.encode("utf-8")).digest()


CACHE_FILE = "responses.sqlite3"
CACHE_BUSY_TIMEOUT_S = 60.0
# SQLite's page cache per connection, in KiB. A page it does not hold is
# read again through the OS, and a write transaction larger than it spills
# to the write-ahead log before its commit. The seed-42 benchmark forest's
# file is 1.04 MB, which 4 MiB holds whole. At 256 KiB one cold run_all of
# it made 15,114 read and 8,789 write syscalls (63.2 MB and 30.9 MB), and a
# warm one 9,063 reads (38.4 MB), as each 256-key lookup read most leaf
# pages again. At 4 MiB the cold run made 352 reads and 1,789 writes
# (2.7 MB and 4.9 MB) and the warm one 345 reads (2.7 MB). The time in
# get_many plus put_many of a cold run fell by about a fifth, for about
# 0.8 MB more peak RSS (2 CPUs, Python 3.11.7, the OS caching the file both
# ways).
CACHE_PAGE_CACHE_KIB = 4096
# The cache file's layout, kept in PRAGMA user_version: each entry keeps
# only the field of the response that the gateway reads (see _KINDS). A new
# file reads 0 until ResponseCache creates its table.
CACHE_FORMAT = 2
# The age, in seconds, at which put_many commits the open write transaction.
# Each commit writes every page the transaction changed to the write-ahead
# log, and random keys change most leaf pages, so one commit per second
# writes far less than one per batch; a killed process loses at most about
# this long of responses.
COMMIT_INTERVAL_S = 1.0


class ResponseCache:
    """Response cache in one SQLite database, cache_dir/responses.sqlite3.

    Each entry maps a request's 32-byte SHA-256 digest (a BLOB key; see
    _cache_key) to a value encoded by ModelGateway: bytes or str in, bytes
    out, whatever the request kind. The cache never looks inside a value;
    ModelGateway decodes and checks it, and treats one that fails as a
    miss. A new file, empty or 0 bytes long, gets the table at its first
    open; a file in any format but CACHE_FORMAT, such as one written by an
    earlier version, is refused with CacheCorruptError and left as it is.

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
    threads of this instance, behind a lock. A put of a stored key replaces
    its value, so a value that ModelGateway refuses is replaced once the
    response is fetched again.
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
        # Values come back as bytes, TEXT or BLOB alike, so an entry that is
        # not valid UTF-8 fails in the gateway's decode (a miss) rather than
        # inside sqlite3.
        self._conn.text_factory = bytes
        try:
            # The first statement reads the file header, and a file that is
            # refused is refused before anything is written to it.
            if self._format() != CACHE_FORMAT:
                self._create()
            # WAL mode persists in the file, so only a file not yet in WAL
            # mode is switched: asking for the switch while another process
            # writes can fail with "database is locked" at once, without the
            # busy timeout.
            mode = self._conn.execute("PRAGMA journal_mode").fetchone()[0]
            if mode != b"wal":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA cache_size=-{CACHE_PAGE_CACHE_KIB}")
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

    def _create(self) -> None:
        """Create the table of a new file, one at format 0 with no schema,
        in one transaction, and refuse any other file. The format is read
        again under the write lock, so of two processes opening one new file
        only the first creates the table."""
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            version = self._format()
            if version == CACHE_FORMAT:
                return
            if version != 0 or self._conn.execute("SELECT 1 FROM sqlite_master").fetchone():
                raise CacheCorruptError(
                    f"response cache {self.path} has format {version}, which this version "
                    f"of evontree (format {CACHE_FORMAT}) cannot read; move or delete it "
                    "to start with an empty cache")
            self._conn.execute("CREATE TABLE responses "
                               "(key BLOB PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID")
            self._conn.execute(f"PRAGMA user_version = {CACHE_FORMAT}")

    def get(self, key: bytes) -> bytes | None:
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[bytes]) -> dict[bytes, bytes]:
        """The stored values among keys, looked up with one SELECT, so at
        most BATCH_SIZE keys; keys with no entry are absent."""
        marks = ",".join("?" * len(keys))
        with self._lock:
            return dict(self._conn.execute(
                f"SELECT key, value FROM responses WHERE key IN ({marks})", keys))

    def put(self, key: bytes, value: bytes | str) -> None:
        """Store one entry and commit it, with any others not yet committed."""
        self.put_many({key: value})
        self.commit()

    def put_many(self, entries: dict[bytes, bytes | str]) -> bool:
        """Add every entry to the open write transaction, in order, and
        commit it if it is COMMIT_INTERVAL_S old; True if this call
        committed. If a statement fails, the transaction is rolled back,
        with every entry not yet committed."""
        if not entries:
            return False
        with self._lock:
            try:
                if not self._conn.in_transaction:
                    self._conn.execute("BEGIN IMMEDIATE")
                    self._began = time.monotonic()
                self._conn.executemany(
                    "INSERT OR REPLACE INTO responses (key, value) VALUES (?, ?)",
                    entries.items())
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

    Requests to a remote backend (one that declares remote = True, such as
    HttpBackend) wait on the network, so a batch's cache misses fan out over
    max_in_flight threads. An in-process backend holds the interpreter lock
    while it works, where threads only add contention; its misses are
    fetched in order on the calling thread.

    Each batch stores the responses it fetched in the cache's open write
    transaction. A remote backend's are committed with their batch, so the
    write lock is never held while requests wait on the network. An
    in-process backend's are committed by the cache once the transaction
    is COMMIT_INTERVAL_S old, so about once a second instead of once a
    batch, and by commit(), which a batch that raises, close() and the
    pipeline's stage runner call. Until then this gateway holds the cache
    file's write lock: another gateway on the same file waits for it.

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
        sleep=time.sleep,
        max_in_flight: int = 1,
    ) -> None:
        self.backend = backend
        self.remote = getattr(backend, "remote", False)
        self.model = model
        self.cache = ResponseCache(cache_dir) if cache_dir is not None else None
        self.read_cache = read_cache
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
        cache, then close the backend if it has a close method, each step
        also after an earlier one raised (see close_all); the gateway makes
        no calls after this."""
        steps = []
        if self._pool is not None:
            steps.append(self._pool.shutdown)
            self._pool = None
        if self.cache is not None:
            steps += [self.commit, self.cache.close]
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            steps.append(close_backend)
        close_all(steps)

    def fan_out(self, fn: Callable[[T], object], items: Iterable[T]) -> list:
        """fn over items, results in item order: over max_in_flight threads
        for a remote backend, else one by one on this thread.

        On a failure, items not yet started are dropped and running ones
        finish before the first failure is raised, so no call outlives this.
        """
        items = list(items)
        if not self.remote or self.max_in_flight <= 1 or len(items) <= 1:
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
                return getattr(self.backend, kind)(body)
            except TransportError as exc:
                last_exc = exc
                if attempt + 1 < RETRY_ATTEMPTS:
                    with self._retries_lock:
                        self.retries += 1
                    if exc.retry_after_s is None:
                        delay = _JITTER.uniform(0.0, RETRY_BACKOFF_S[attempt])
                    else:
                        delay = min(exc.retry_after_s, RETRY_AFTER_MAX_S)
                    log.warning("transport failure (attempt %d/%d), retrying in %.2fs: %s",
                                attempt + 1, RETRY_ATTEMPTS, delay, exc)
                    self._sleep(delay)
        raise TransportError(str(last_exc), attempts=RETRY_ATTEMPTS)

    def _call_many(self, kind: str, requests: Iterable, bypass_cache: bool) -> Iterator:
        """What kind's parser makes of each request's response, in order, as
        the caller reads them: the first read sends the first BATCH_SIZE
        requests as one batch, and the read after a batch's last result
        sends the next."""
        it = iter(requests)
        batches = iter(lambda: list(islice(it, BATCH_SIZE)), [])
        return chain.from_iterable(map(partial(self._call_batch, kind, bypass_cache), batches))

    def _call_batch(self, kind: str, bypass_cache: bool, batch: list) -> list:
        """What kind's parser makes of each response to batch, in order.

        Each distinct key is looked up once and fetched at most once; only
        a fetched request is turned into a body. A cached value that decode
        refuses is a miss, so the request is fetched again and its new value
        replaces the old. A fetched body is parsed before it is stored, so
        one that the parser rejects (ProtocolError) is never cached and a
        rerun asks the backend again. Valid responses fetched before a
        failure are still stored, and committed before the failure is
        raised.
        """
        parse, encode, decode = _KINDS[kind]
        identity, model = self.backend.identity, self.model
        fetched: dict[bytes, dict] = {}  # every response the backend returned
        parsed = {}  # the valid ones, parsed

        def fetch(item: tuple[bytes, GenerateRequest | ScoreRequest]) -> None:
            key, request = item
            fetched[key] = self._fetch(kind, request.to_body(model))
            parsed[key] = parse(fetched[key])

        try:
            keys = [_cache_key(identity, model, kind, request) for request in batch]
            self.requests += len(keys)
            found = {}  # what decode makes of each stored value it accepts
            if self.cache is not None and self.read_cache and not bypass_cache:
                for key, value in self.cache.get_many(sorted(set(keys))).items():
                    try:
                        found[key] = decode(value)
                    except ValueError as exc:
                        log.warning("fetching again cache entry %s in %s, which fails its "
                                    "checks: %s", key.hex(), self.cache.path, exc)
            missing = {key: request for key, request in zip(keys, batch) if key not in found}
            try:
                self.fan_out(fetch, missing.items())
            finally:
                self.calls += len(fetched)
                if self.cache is not None and parsed:
                    # put_many says whether it committed.
                    self.cache_commits += self.cache.put_many(
                        {key: encode(result) for key, result in parsed.items()})
            if self.remote:
                # Never hold the write lock while the next batch waits on the
                # network.
                self.commit()
        except BaseException:
            self.commit()
            raise
        self.cache_hits += len(keys) - len(fetched)
        found.update(parsed)
        return list(map(found.__getitem__, keys))

    def generate_many(self, requests: Iterable[GenerateRequest],
                      bypass_cache: bool = False) -> Iterator[str]:
        """The generated text for each request, in order, sent as it is read
        (_call_many): nothing before the first read, one batch at a time."""
        return self._call_many("generate", requests, bypass_cache)

    def generate_read(self, pairs: Iterable[tuple[GenerateRequest, Callable[[str], T]]]
                      ) -> list[T | EvontreeError]:
        """For each (request, read) pair, in order, what read makes of the
        request's generated text, or the EvontreeError read raised at the
        last attempt.

        The distinct requests go as one generate_many stream, so pairs with
        equal requests share every answer. Those whose text a read refused
        go again as one stream with the cache bypassed, so a sampling server
        draws afresh and a cached refused answer is never trusted twice, up
        to ASK_ATTEMPTS in all. A transport failure raises, as in
        generate_many.
        """
        pairs = list(pairs)
        results: list = [None] * len(pairs)
        todo = range(len(pairs))
        for attempt in range(ASK_ATTEMPTS):
            distinct = list(dict.fromkeys(pairs[i][0] for i in todo))
            texts = dict(zip(distinct, self.generate_many(distinct, bypass_cache=attempt > 0)))
            refused = []
            for i in todo:
                request, read = pairs[i]
                try:
                    results[i] = read(texts[request])
                except EvontreeError as exc:
                    results[i] = exc
                    refused.append(i)
                    log.warning("refused answer (attempt %d/%d) to %r: %s",
                                attempt + 1, ASK_ATTEMPTS, request.prompt[:60], exc)
            todo = refused
        return results

    def generate(self, request: GenerateRequest, bypass_cache: bool = False) -> str:
        """No stage calls it; it stays because perfbench/spans.py wraps it
        by name."""
        return self._call_batch("generate", bypass_cache, [request])[0]

    def score_many(self, requests: Iterable[ScoreRequest],
                   bypass_cache: bool = False) -> Iterator[ScoreResponse]:
        """The scored completion for each request, in order, as
        _score_response parsed it, sent as generate_many's requests are. One
        that scores no tokens is well-formed, so it is cached and returned,
        from the cache on a rerun too, with empty token_logprobs. Any other
        malformed response raises ProtocolError and is not cached."""
        return self._call_many("score", requests, bypass_cache)

    def score(self, request: ScoreRequest, bypass_cache: bool = False) -> ScoreResponse:
        return self._call_batch("score", bypass_cache, [request])[0]


def _generated_text(raw: dict) -> str:
    """The body's generated text, which must have a UTF-8 form: a lone
    surrogate, which JSON can spell as an escape, has none."""
    if not isinstance(raw, dict) or not isinstance(text := raw.get("text"), str):
        raise ProtocolError(f"generate response missing text field: {raw!r:.200}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"generated text {text!r:.200} has no UTF-8 form: {exc}") from None
    return text


def _stored_text(value: bytes) -> str:
    """The generated text a stored value holds: UTF-8 JSON text of one
    string, as _VALUE_ENCODER writes it, that has a UTF-8 form itself."""
    stored = value.decode("utf-8")  # UnicodeDecodeError is a ValueError
    # scanstring reads a JSON string from after its opening quote to its
    # end, raising ValueError for a bad escape, a control character or no
    # closing quote.
    text, end = scanstring(stored, 1)
    if not stored.startswith('"') or end != len(stored):
        raise ValueError(f"cached text is not one JSON string: {stored!r:.200}")
    text.encode("utf-8")  # a lone surrogate, spelt as an escape, raises a ValueError
    return text


def _score_response(raw: dict) -> ScoreResponse:
    """The body's token log-probabilities, each a float that is neither NaN
    nor positive; none for a response that scores no tokens."""
    if not isinstance(raw, dict) or not isinstance(raw.get("token_logprobs"), list):
        raise ProtocolError(f"score response missing token_logprobs: {raw!r:.200}")
    logprobs = []
    for lp in raw["token_logprobs"]:
        # bool is an int, and JSON's true and false arrive as bools.
        if isinstance(lp, bool) or not isinstance(lp, (int, float)):
            raise ProtocolError(f"non-numeric logprob {lp!r:.200}")
        try:
            lp = float(lp)
        except OverflowError:
            raise ProtocolError(f"logprob {lp!r:.200} is beyond float range") from None
        if math.isnan(lp):
            raise ProtocolError("logprob NaN is not a number")
        if lp > 0.0:
            raise ProtocolError(f"logprob {lp} is positive")
        logprobs.append(lp)
    return ScoreResponse(token_logprobs=tuple(logprobs))


def _packed_logprobs(response: ScoreResponse) -> bytes:
    return struct.pack(f"<{len(response.token_logprobs)}d", *response.token_logprobs)


_AT_MOST_ZERO = (0.0).__ge__  # lp <= 0.0, which is False for NaN


def _unpacked_logprobs(value: bytes) -> ScoreResponse:
    """The score a stored value holds: whole little-endian doubles, each at
    most 0, which NaN is not."""
    if len(value) % 8:
        raise ValueError(f"cached logprobs of {len(value)} bytes are no whole doubles")
    logprobs = struct.unpack(f"<{len(value) // 8}d", value)
    if not all(map(_AT_MOST_ZERO, logprobs)):
        raise ValueError(f"cached logprobs {logprobs} are not all at most 0")
    return ScoreResponse(logprobs)


# Per request kind: parse, which checks a response body and returns what the
# gateway reads of it, and how the cache keeps that: encode turns parse's
# result into the stored value, and decode turns a stored value back into
# parse's result, with the same checks, raising ValueError for a value that
# encode never writes for a body that parse accepts.
_KINDS = {
    "generate": (_generated_text, _VALUE_ENCODER.encode, _stored_text),
    "score": (_score_response, _packed_logprobs, _unpacked_logprobs),
}

