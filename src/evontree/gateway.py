"""Model access layer: wire protocol, on-disk response cache, and retries.

Two request kinds exist. Generation returns free text; scoring returns, for
each of a request's completions, the log-probabilities a model assigns to
its tokens after the request's prompt, and, for a request that asks for an
answer (a probe: answer_tokens above 0), the model's greedy answer to that
prompt as well. A score request is one gateway request, one cache key and
one cache row, however many completions it holds and whether or not it asks
for an answer; on a miss each completion is one backend call, sent in
order, and the answer one generate call after them. Both kinds go through a
content-addressed cache keyed by the request plus the serving endpoint's
identity, so switching endpoints or models never replays stale responses.
The cache is one SQLite database per cache directory, shared safely by
threads, gateways and processes, that maps the first 16 bytes of each
request's SHA-256 digest to the one field of its responses the gateway
reads: a score's token counts and token_logprobs (a header of LEB128
varints, the completion count and each completion's token count, then the
packed little-endian doubles), followed for a probe by its answer's UTF-8
bytes; a generation's text as its UTF-8 bytes, or, for a text longer than
DEFLATE_MIN_BYTES that deflate shortens, a 0xff byte and the raw deflate
stream. A format-3, -4 or -5 file is raised to format 6 in place: its
generations and its answer-less pairs are read as they are, and its other
score rows are never looked up again. A file in any other format is
refused. Every gateway has a cache, and read_cache=False (the CLI's
--no-cache) is the only way to skip reading it.

A cache hit costs one digest, one B-tree probe and one decode, with an
inflate for a deflated text: each request writes its canonical JSON text
straight from its fields (body_text), and only a request sent to the
backend is turned into the bodies it is sent with (to_body, to_bodies,
answer_request).
The decode makes the caller's text or Scored with the same checks a fetched response passes, so a stored value
that fails them, such as a number, a NaN or positive log-probability, a
score of another number of completions than the request's, or a probe's
value with no answer or one that is not UTF-8, is a miss: it is fetched
again and replaced.
A completion that spans no tokens is well-formed: it is cached and returned
as an empty tuple, and evontree.scoring decides what it means.

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
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Protocol,
    Sequence,
    TypeVar,
)
from urllib.parse import urlsplit

from .errors import (
    URL_DOMAIN,
    CacheCorruptError,
    ProtocolError,
    TransportError,
    UnparseableError,
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
    """A prompt and the completions to score after it, such as the pair
    (" True", " False"): one gateway request, one backend call each. With
    answer_tokens above 0 it is a probe, which also asks for the model's
    greedy answer to the prompt, of at most that many tokens: one more
    backend call, a generate, after the scores."""

    prompt: str
    completions: tuple[str, ...]
    answer_tokens: int = 0

    def to_bodies(self, model: str) -> list[dict]:
        """The body each completion is sent with, in order."""
        return [{"model": model, "prompt": self.prompt, "completion": completion}
                for completion in self.completions]

    def answer_request(self) -> GenerateRequest:
        """The generation a probe's answer is asked with: at most
        answer_tokens tokens, at temperature 0, with no stop."""
        return GenerateRequest(self.prompt, self.answer_tokens, 0.0)

    def body_text(self, model: str) -> str:
        """{"completions": [...], "model": model, "prompt": ...} as canonical
        JSON text, like GenerateRequest's, led by "answer_tokens" for a
        probe only, so an answer-less request keeps its key."""
        answer = ""
        if self.answer_tokens > 0:
            answer = f'"answer_tokens":{_number(self.answer_tokens)},'
        return '{%s"completions":[%s],"model":%s,"prompt":%s}' % (
            answer, ",".join(map(_string, self.completions)), _string(model),
            _string(self.prompt))


class Scored(NamedTuple):
    """What a ScoreRequest gets back: each completion's token
    log-probabilities, and, for a probe (answer_tokens above 0), the
    answer's text, which is None for any other request."""

    scores: tuple[tuple[float, ...], ...]
    answer: str | None


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


def endpoint_identity(endpoint: str) -> str:
    """An HTTP endpoint as cache keys and the manifest name it: spellings
    that differ only in trailing slashes are one endpoint."""
    return endpoint.rstrip("/")


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
        self.endpoint = self.identity = endpoint_identity(endpoint)
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


def _cache_key(identity: str, model: str, kind: str,
               request: GenerateRequest | ScoreRequest) -> bytes:
    """The first 16 bytes of the SHA-256 digest of the request's canonical
    JSON text: the same bytes as json.dumps({"endpoint": identity, "model":
    model, "kind": kind, "body": body}, sort_keys=True, separators=(",", ":"),
    ensure_ascii=False), written without building the body, which is a
    generation's to_body(model) and a score's {"completions": [...],
    "model": model, "prompt": ...}, with "answer_tokens" first for a probe."""
    canonical = '{"body":%s,"endpoint":%s,"kind":%s,"model":%s}' % (
        request.body_text(model), _string(identity), _string(kind), _string(model))
    # 128 bits: among 2x10^5 rows two distinct requests collide with odds
    # near 10^-28, and the endpoint is part of the hashed text, so filing one
    # endpoint's answer under another's request takes a second preimage.
    return hashlib.sha256(canonical.encode("utf-8")).digest()[:16]


CACHE_FILE = "responses.sqlite3"
CACHE_BUSY_TIMEOUT_S = 60.0
# SQLite's page cache per connection, in KiB. A page it does not hold is
# read again through the OS, and a write transaction larger than it spills
# to the write-ahead log before its commit. The seed-42 benchmark forest's
# file is 0.29 MB at format 6 (0.38 MB at format 5, 0.46 MB at format 4,
# 0.66 MB at format 3, 1.04 MB at format 2), which 4 MiB holds whole.
# The syscall counts that follow were taken at format 2. At 256 KiB one cold
# run_all of it made 15,114 read and 8,789 write syscalls (63.2 MB and
# 30.9 MB), and a warm one 9,063 reads (38.4 MB), as each 256-key lookup read
# most leaf pages again. At 4 MiB the cold run made 352 reads and 1,789
# writes (2.7 MB and 4.9 MB) and the warm one 345 reads (2.7 MB). The time
# in get_many plus put_many of a cold run fell by about a fifth, for about
# 0.8 MB more peak RSS (2 CPUs, Python 3.11.7, the OS caching the file both
# ways).
CACHE_PAGE_CACHE_KIB = 4096
# The cache file's layout, kept in PRAGMA user_version: each entry keeps
# only the field of the responses that the gateway reads (see _KINDS). A new
# file reads 0 until ResponseCache creates its table. Formats 3 and 4 keyed
# and stored each scored completion on its own, format 5 a request's
# completions together, and format 6 a probe's completions and answer
# together, under a key of its own. So the score rows of formats 3 and 4 and
# the probe rows of format 5 (its calibrate pairs and their one-shot labels,
# stored apart) are never looked up again, while their generations and
# format 5's answer-less pairs are still read as they are (format 3 stored
# each generation as its UTF-8 bytes, which format 4 deflated when long).
# So a format-3, -4 or -5 file is raised to CACHE_FORMAT in place, no row
# rewritten, and an older evontree refuses it from then on.
CACHE_FORMAT = 6
_RAISED_IN_PLACE_FORMATS = (3, 4, 5)
# A generation is stored deflated only if its UTF-8 form is longer than this
# many bytes. On the seed-42 benchmark forest the 226 of its 4,951
# generations that are, the elicited trees and the synthesis prose, hold 60%
# of the value bytes. Deflating them added about 4.5 ms of CPU to a cold run
# of about 0.35 s, and trying every generation about 23 ms (2 CPUs, Python
# 3.11.7, zlib 1.2.13).
DEFLATE_MIN_BYTES = 64
# The age, in seconds, at which put_many commits the open write transaction.
# Each commit writes every page the transaction changed to the write-ahead
# log, and random keys change most leaf pages, so one commit per second
# writes far less than one per batch; a killed process loses at most about
# this long of responses.
COMMIT_INTERVAL_S = 1.0


class ResponseCache:
    """Response cache in one SQLite database, cache_dir/responses.sqlite3.

    Each entry maps a request's 16-byte key (a BLOB; see _cache_key) to a
    value encoded by ModelGateway, bytes in and bytes out whatever the
    request kind. The cache never looks inside a value;
    ModelGateway decodes and checks it, and treats one that fails as a
    miss. A new file, empty or 0 bytes long, gets the table at its first
    open, and a format-3, -4 or -5 file is raised to CACHE_FORMAT at its
    first open, no row rewritten; a file in any other format, such as one
    written by an earlier version or by a later one, is refused with
    CacheCorruptError and left as it is.

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
        or raise a format-3, -4 or -5 file's user_version to CACHE_FORMAT,
        rewriting no row, in one transaction, and refuse any other file. The
        format is read again under the write lock, so of two processes
        opening one new file only the first creates the table."""
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            version = self._format()
            if version == CACHE_FORMAT:
                return
            if version == 0 and not self._conn.execute("SELECT 1 FROM sqlite_master").fetchone():
                self._conn.execute("CREATE TABLE responses "
                                   "(key BLOB PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID")
            elif version not in _RAISED_IN_PLACE_FORMATS:
                raise CacheCorruptError(
                    f"response cache {self.path} has format {version}, which this version "
                    f"of evontree (format {CACHE_FORMAT}) cannot read; move or delete it "
                    "to start with an empty cache")
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

    def put(self, key: bytes, value: bytes) -> None:
        """Store one entry and commit it, with any others not yet committed."""
        self.put_many({key: value})
        self.commit()

    def put_many(self, entries: dict[bytes, bytes]) -> bool:
        """Add every entry to the open write transaction, in order, and
        commit it if it is COMMIT_INTERVAL_S old; True if this call
        committed. If a statement fails, the transaction is rolled back,
        with every entry not yet committed."""
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
    format. Every gateway has a response cache, in cache_dir, and
    read_cache=False (the CLI's --no-cache) is the only way to skip reading
    it; the cache is still written, so a later run can reuse the responses.

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
    in the cache, or repeating a key earlier in the same batch), so a score
    request counts once in each however many completions it holds and
    whether or not it asks for an answer; calls (responses the backend
    returned, one per completion of a fetched score request and one for a
    probe's answer; retries not counted), cache_commits (committed write
    transactions of fetched responses; see commit) and retries (transport
    failures that were tried again). calls and retries are counted under a
    lock, since fanned-out threads fetch at once.
    """

    def __init__(self, backend: Backend, model: str, cache_dir: Path, read_cache: bool = True,
                 sleep=time.sleep, max_in_flight: int = 1) -> None:
        self.backend = backend
        self.remote = getattr(backend, "remote", False)
        self.model = model
        self.cache = ResponseCache(cache_dir)
        self.read_cache = read_cache
        self._sleep = sleep
        self.max_in_flight = max_in_flight
        self._pool: ThreadPoolExecutor | None = None
        self.requests = 0
        self.calls = 0
        self.cache_hits = 0
        self.cache_commits = 0
        self.retries = 0
        self._counts_lock = threading.Lock()

    def counters(self) -> dict[str, int]:
        """The running totals named in GATEWAY_COUNTERS."""
        return dict(zip(GATEWAY_COUNTERS, (self.requests, self.cache_hits, self.calls,
                                           self.cache_commits, self.retries)))

    def commit(self) -> None:
        """Commit the responses stored and not yet committed."""
        if self.cache.commit():
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
        """The backend's response to one body, retried on a transport
        failure, and counted in calls."""
        last_exc: TransportError | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                response = getattr(self.backend, kind)(body)
            except TransportError as exc:
                last_exc = exc
                if attempt + 1 < RETRY_ATTEMPTS:
                    with self._counts_lock:
                        self.retries += 1
                    if exc.retry_after_s is None:
                        delay = _JITTER.uniform(0.0, RETRY_BACKOFF_S[attempt])
                    else:
                        delay = min(exc.retry_after_s, RETRY_AFTER_MAX_S)
                    log.warning("transport failure (attempt %d/%d), retrying in %.2fs: %s",
                                attempt + 1, RETRY_ATTEMPTS, delay, exc)
                    self._sleep(delay)
            else:
                with self._counts_lock:
                    self.calls += 1
                return response
        raise TransportError(str(last_exc))

    def _fetched_text(self, request: GenerateRequest) -> str:
        return _generated_text(self._fetch("generate", request.to_body(self.model)))

    def _fetched_scores(self, request: ScoreRequest) -> Scored:
        """Each completion's log-probabilities, fetched and parsed in order,
        then, for a probe, its answer, generated last: a failure on one call
        leaves those after it unsent."""
        scores = tuple(_score_response(self._fetch("score", body))
                       for body in request.to_bodies(self.model))
        answer = None
        if request.answer_tokens > 0:
            answer = _generated_text(
                self._fetch("generate", request.answer_request().to_body(self.model)))
        return Scored(scores, answer)

    def _call_many(self, kind: str, requests: Iterable, bypass_cache: bool) -> Iterator:
        """Each request's result, in order, as the caller reads them: the
        first read sends the first BATCH_SIZE requests as one batch, and the
        read after a batch's last result sends the next."""
        it = iter(requests)
        batches = iter(lambda: list(islice(it, BATCH_SIZE)), [])
        return chain.from_iterable(map(partial(self._call_batch, kind, bypass_cache), batches))

    def _call_batch(self, kind: str, bypass_cache: bool, batch: list) -> list:
        """Each request's result, in order, as kind's fetch makes it.

        Each distinct key is looked up once and fetched at most once, on one
        fan-out worker: a score request's completions one after another,
        then a probe's answer. Only a fetched request is turned into bodies.
        A cached value that decode refuses is a miss, so the request is
        fetched again and its new value replaces the old. Every response to a
        request is parsed before its result is stored, so a request one of
        whose responses the parser rejects (ProtocolError), or whose later
        completion or answer fails, is never cached and a rerun asks the
        backend for all of it again. Results fetched whole before a failure
        are still stored, and committed before the failure is raised.
        """
        fetch, encode, decode = _KINDS[kind]
        identity, model = self.backend.identity, self.model
        fetched = {}  # each request fetched whole, its result

        def fetch_one(item: tuple[bytes, GenerateRequest | ScoreRequest]) -> None:
            key, request = item
            fetched[key] = fetch(self, request)

        try:
            keys = [_cache_key(identity, model, kind, request) for request in batch]
            self.requests += len(keys)
            requests = dict(zip(keys, batch))
            found = {}  # what decode makes of each stored value it accepts
            if self.read_cache and not bypass_cache:
                for key, value in self.cache.get_many(sorted(requests)).items():
                    try:
                        found[key] = decode(value, requests[key])
                    except ValueError as exc:
                        log.warning("fetching again cache entry %s in %s, which fails its "
                                    "checks: %s", key.hex(), self.cache.path, exc)
            missing = {key: request for key, request in requests.items() if key not in found}
            try:
                self.fan_out(fetch_one, missing.items())
            finally:
                if fetched:
                    # put_many says whether it committed.
                    self.cache_commits += self.cache.put_many(
                        {key: encode(result) for key, result in fetched.items()})
            if self.remote:
                # Never hold the write lock while the next batch waits on the
                # network.
                self.commit()
        except BaseException:
            self.commit()
            raise
        self.cache_hits += len(keys) - len(missing)
        found.update(fetched)
        return list(map(found.__getitem__, keys))

    def generate_many(self, requests: Iterable[GenerateRequest],
                      bypass_cache: bool = False) -> Iterator[str]:
        """The generated text for each request, in order, sent as it is read
        (_call_many): nothing before the first read, one batch at a time."""
        return self._call_many("generate", requests, bypass_cache)

    def generate_read(self, pairs: Iterable[tuple[GenerateRequest, Callable[[str], T]]]
                      ) -> list[T | UnparseableError]:
        """For each (request, read) pair, in order, what read makes of the
        request's generated text, or the UnparseableError read refused it
        with at the last attempt.

        The distinct requests go as one generate_many stream, so pairs with
        equal requests share every answer. Those whose text a read refused
        go again as one stream with the cache bypassed, so a sampling server
        draws afresh and a cached refused answer is never trusted twice, up
        to ASK_ATTEMPTS in all. UnparseableError is the one refusal: any
        other error a read raises propagates, as a transport failure does
        in generate_many.
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
                except UnparseableError as exc:
                    results[i] = exc
                    refused.append(i)
                    log.warning("refused answer (attempt %d/%d) to %r: %s",
                                attempt + 1, ASK_ATTEMPTS, request.prompt[:60], exc)
            todo = refused
        return results

    def generate(self, request: GenerateRequest) -> str:
        """No stage calls it; it stays because perfbench/spans.py wraps it
        by name."""
        return self._call_batch("generate", False, [request])[0]

    def score_many(self, requests: Iterable[ScoreRequest]) -> Iterator[Scored]:
        """For each request, in order, a Scored of each completion's token
        log-probabilities, as _score_response parsed them, and a probe's
        answer, sent as generate_many's requests are. A completion that scores no tokens is well-formed, so
        it is cached and returned, from the cache on a rerun too, as an
        empty tuple. Any other malformed response raises ProtocolError, and
        its request is not cached."""
        return self._call_many("score", requests, False)

    def score(self, request: ScoreRequest) -> Scored:
        return self._call_batch("score", False, [request])[0]


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


def _score_response(raw: dict) -> tuple[float, ...]:
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
    return tuple(logprobs)


def _packed_scores(scores: tuple[tuple[float, ...], ...]) -> bytes:
    """The stored value of a score request's result: a header of unsigned
    LEB128 varints, the number of completions and then each one's token
    count, then every log-probability as a little-endian double, in order.
    A pair of one-token completions takes 3 + 16 bytes."""
    header = bytearray()
    for n in (len(scores), *map(len, scores)):
        while n > 0x7F:
            header.append(n & 0x7F | 0x80)
            n >>= 7
        header.append(n)
    logprobs = [lp for completion in scores for lp in completion]
    return bytes(header) + struct.pack(f"<{len(logprobs)}d", *logprobs)


# The first byte of a deflated generation's stored value: no UTF-8 text
# starts with it, so a plain value is never read as deflated.
_DEFLATED = b"\xff"
# What a probe's value holds after its doubles for an empty answer: a byte
# that is no UTF-8 text, so a value with no byte there, such as a format-5
# pair, is never read as a probe's.
_EMPTY_ANSWER = b"\xff"


def _encoded_text(text: str) -> bytes:
    """The stored value of a generation: its UTF-8 bytes, or _DEFLATED and
    their raw deflate stream if they are longer than DEFLATE_MIN_BYTES and
    that is shorter."""
    plain = text.encode()
    if len(plain) > DEFLATE_MIN_BYTES:
        # A zlib stream is a 2-byte header, the raw deflate stream and a
        # 4-byte Adler-32 (RFC 1950). zlib.compress takes wbits=-15 only
        # from Python 3.11, and a compressobj took about twice its time to
        # deflate the benchmark forest's long generations.
        deflated = _DEFLATED + zlib.compress(plain)[2:-4]
        if len(deflated) < len(plain):
            return deflated
    return plain


def _decoded_text(value: bytes) -> str:
    """The generation a stored value holds: its strict UTF-8 bytes, inflated
    first if it starts with _DEFLATED, from one raw deflate stream that
    ends where the value does."""
    if not isinstance(value, bytes):  # SQLite returns a number as int or float
        raise ValueError(f"cached text {value!r} is not bytes")
    if value.startswith(_DEFLATED):
        # zlib.decompress would drop bytes after the stream's end unseen.
        inflate = zlib.decompressobj(wbits=-15)
        try:
            value = inflate.decompress(value[1:])
        except zlib.error as exc:  # not a ValueError
            raise ValueError(f"cached deflated text is no deflate stream: {exc}") from None
        if not inflate.eof or inflate.unused_data:
            raise ValueError("cached deflated text is not one whole deflate stream")
    return value.decode()


def _varint(value: bytes, at: int) -> tuple[int, int]:
    """The unsigned LEB128 varint that starts at value[at], and the offset
    after it."""
    n = shift = 0
    while at < len(value):
        byte = value[at]
        at += 1
        n |= (byte & 0x7F) << shift
        if byte < 0x80:
            return n, at
        shift += 7
    raise ValueError(f"cached scores {value!r:.60} end inside their header")


def _packed_result(result: Scored) -> bytes:
    """The stored value of a score request's result: _packed_scores, then
    for a probe its answer's UTF-8 bytes, or _EMPTY_ANSWER for an empty
    one, so that every probe's value has bytes after its doubles."""
    if result.answer is None:
        return _packed_scores(result.scores)
    return _packed_scores(result.scores) + (result.answer.encode() or _EMPTY_ANSWER)


def _unpacked_scores(value: bytes, request: ScoreRequest) -> Scored:
    """The result a stored value holds for request: as many completions as
    the request has, the header's token counts filled by the doubles after
    it, each at most 0, which NaN is not; then, for a probe, its answer, in
    the bytes after the doubles, which must be _EMPTY_ANSWER or strict
    UTF-8, and for any other request no byte."""
    if not isinstance(value, bytes):  # SQLite returns a number as int or float
        raise ValueError(f"cached scores {value!r} are not bytes")
    completions, at = _varint(value, 0)
    if completions != len(request.completions):
        raise ValueError(f"cached scores hold {completions} completions, "
                         f"not the request's {len(request.completions)}")
    counts = []
    for _ in range(completions):
        count, at = _varint(value, at)
        counts.append(count)
    end = at + 8 * sum(counts)
    if len(value) < end or len(value) > end and request.answer_tokens <= 0:
        raise ValueError(f"cached scores' header gives {sum(counts)} doubles, "
                         f"not the {len(value) - at} bytes after it")
    logprobs = struct.unpack_from(f"<{sum(counts)}d", value, at)
    if not all(lp <= 0.0 for lp in logprobs):
        raise ValueError(f"cached logprobs {logprobs} are not all at most 0")
    it = iter(logprobs)
    scores = tuple(tuple(islice(it, count)) for count in counts)
    if request.answer_tokens <= 0:
        return Scored(scores, None)
    answer = value[end:]
    if not answer:
        raise ValueError("cached scores hold no answer, which the probe asks for")
    return Scored(scores, "" if answer == _EMPTY_ANSWER else answer.decode())


# Per request kind: fetch, which asks the backend for a request's responses
# and checks each (_generated_text, _score_response), returning the
# request's result, and how the cache keeps that result: encode turns it
# into the stored value, and decode turns a stored value and its request back
# into it, with the same checks, raising ValueError for a value that encode
# never writes for responses that fetch accepts, such as a number, or a
# score of another number of completions than the request's, or a probe's
# with no answer. A generation is kept as its UTF-8 bytes, deflated after a
# 0xff byte when it is longer than DEFLATE_MIN_BYTES and deflate shortens it
# (_encoded_text); a score request's completions as one value
# (_packed_scores), and a probe's answer after them, as UTF-8 bytes too, in
# the same row (_packed_result). str.encode and bytes.decode default to
# strict UTF-8, so a stored encoded lone surrogate, a sequence cut short or
# a byte that is no UTF-8 raises UnicodeDecodeError, a ValueError; so does a
# deflated value that does not inflate to UTF-8, and one that is not a
# single whole deflate stream raises ValueError too.
_KINDS = {
    "generate": (ModelGateway._fetched_text, _encoded_text,
                 lambda value, request: _decoded_text(value)),
    "score": (ModelGateway._fetched_scores, _packed_result, _unpacked_scores),
}
