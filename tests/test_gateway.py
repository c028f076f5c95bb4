from __future__ import annotations

import hashlib
import inspect
import json
import logging
import os
import random
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evontree
from evontree.errors import (
    CacheCorruptError,
    EmptySpanError,
    InvalidParamsError,
    ProtocolError,
    TransportError,
)
from evontree.gateway import (
    BATCH_SIZE,
    CACHE_FILE,
    CACHE_FORMAT,
    RETRY_ATTEMPTS,
    GenerateRequest,
    HttpBackend,
    ModelGateway,
    ResponseCache,
    ScoreRequest,
    _VALUE_ENCODER,
    _cache_key,
)


class FakeBackend:
    """Scripted backend: pops canned responses, or raises when scripted to."""

    def __init__(self, identity="fake://test", failures=0):
        self.identity = identity
        self.failures = failures
        self.calls = []

    def generate(self, body):
        self.calls.append(("generate", body))
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("scripted failure")
        return {"text": f"gen:{body['prompt']}"}

    def score(self, body):
        self.calls.append(("score", body))
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("scripted failure")
        return {"token_logprobs": [-0.5, -1.5]}


def make_gateway(tmp_path, backend=None, **kw):
    backend = backend or FakeBackend()
    kw.setdefault("retry_backoff_s", (0.0,))
    kw.setdefault("sleep", lambda s: None)
    return ModelGateway(backend, model="m1", cache_dir=tmp_path / "cache", **kw), backend


class TestCache:
    def test_repeat_request_served_from_cache(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        req = GenerateRequest(prompt="hello", max_tokens=8, temperature=0.0)
        assert gw.generate(req) == "gen:hello"
        assert gw.generate(req) == "gen:hello"
        assert len(backend.calls) == 1
        assert gw.cache_hits == 1

    def test_key_depends_on_endpoint_model_kind_and_body(self):
        base = _cache_key("ep1", "m1", "generate", {"prompt": "p"})
        assert _cache_key("ep2", "m1", "generate", {"prompt": "p"}) != base
        assert _cache_key("ep1", "m2", "generate", {"prompt": "p"}) != base
        assert _cache_key("ep1", "m1", "score", {"prompt": "p"}) != base
        assert _cache_key("ep1", "m1", "generate", {"prompt": "q"}) != base
        assert _cache_key("ep1", "m1", "generate", {"prompt": "p"}) == base

    def test_key_is_pinned(self):
        # Computed before the key encoder was shared; a key that moves
        # orphans every response already cached.
        body = GenerateRequest(prompt='Is a Säugetier — a kind of "Tier"? é',
                               max_tokens=8, temperature=0.0).to_body("synthetic")
        assert (_cache_key("synthetic://42/ab12cd34", "synthetic", "generate", body)
                == "b13eb010e33e8a26c1b4806e151a48dd08585ad09e1b19d6025e508d43f3009a")

    @settings(deadline=None)
    @given(identity=st.text(), model=st.text(), kind=st.text(), body=st.builds(
        lambda fields, extra: {**extra, **fields},
        st.fixed_dictionaries({}, optional={
            "model": st.text(), "prompt": st.text(), "completion": st.text(),
            "max_tokens": st.integers(), "temperature": st.floats(),
            "stop": st.lists(st.text(), max_size=3)}),
        st.dictionaries(st.text(), st.one_of(st.text(), st.integers(), st.floats()),
                        max_size=3)))
    def test_key_is_the_digest_of_the_canonical_json(self, identity, model, kind, body):
        canonical = json.dumps({"endpoint": identity, "model": model, "kind": kind, "body": body},
                               sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert (_cache_key(identity, model, kind, body)
                == hashlib.sha256(canonical.encode("utf-8")).hexdigest())

    @settings(deadline=None)
    @given(value=st.builds(
        lambda fields, extra: {**extra, **fields},
        st.fixed_dictionaries({}, optional={
            "text": st.text(),
            "token_logprobs": st.lists(st.floats() | st.integers(), max_size=5)}),
        st.dictionaries(st.text(), st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                        max_size=3),
            max_leaves=8), max_size=3)))
    def test_stored_value_is_the_json_dumps_text(self, value):
        # The shared encoder stores the same bytes as a json.dumps per value.
        assert _VALUE_ENCODER.encode(value) == json.dumps(value, ensure_ascii=False)

    def test_read_cache_false_still_writes(self, tmp_path):
        gw, backend = make_gateway(tmp_path, read_cache=False)
        req = GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)
        gw.generate(req)
        gw.generate(req)
        assert len(backend.calls) == 2
        gw.close()  # commits
        # A fresh gateway with reads enabled finds the entries written above.
        gw2, backend2 = make_gateway(tmp_path)
        gw2.generate(req)
        assert backend2.calls == []

    def test_bypass_cache_per_call(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        req = GenerateRequest(prompt="x", max_tokens=4, temperature=0.7)
        gw.generate(req)
        gw.generate(req, bypass_cache=True)
        assert len(backend.calls) == 2

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        req = GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)
        gw.generate(req)
        # Not JSON, cut short, not UTF-8.
        for n, bad_value in enumerate(["{not json", '{"text": "ge', b"\xc3\x28"], start=2):
            gw.commit()  # so that another connection can write
            with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as db, db:
                updated = db.execute("UPDATE responses SET value = CAST(? AS TEXT)",
                                     (bad_value,))
                assert updated.rowcount == 1
            assert gw.generate(req) == "gen:x"
            assert len(backend.calls) == n
            # The refetched response replaced the bad row: the next call is a hit.
            assert gw.generate(req) == "gen:x"
            assert len(backend.calls) == n

    def test_file_that_is_not_a_database_is_reported(self, tmp_path):
        path = tmp_path / CACHE_FILE
        path.write_bytes(random.Random(0).randbytes(5000))
        with pytest.raises(CacheCorruptError, match="move or delete") as exc_info:
            ResponseCache(tmp_path)
        assert str(path) in str(exc_info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == [CACHE_FILE]

    def test_no_cache_dir_disables_cache(self):
        backend = FakeBackend()
        gw = ModelGateway(backend, model="m1", cache_dir=None,
                          retry_backoff_s=(0.0,), sleep=lambda s: None)
        req = GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)
        gw.generate(req)
        gw.generate(req)
        assert len(backend.calls) == 2


def cache_key(i: int) -> bytes:
    return i.to_bytes(32, "big")


def cache_value(i: int) -> dict:
    return {"text": "v" * (i % 50) + str(i), "i": i}


def run_python(script: str, cache_dir: Path) -> subprocess.Popen:
    """Run script in a fresh interpreter that imports this evontree, with
    cache_dir as its one argument."""
    src = str(Path(evontree.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", script, str(cache_dir)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def run_cache_writer(cache_dir: Path, body: str) -> subprocess.Popen:
    """Run `body` in a fresh interpreter, with `cache` bound to a
    ResponseCache on cache_dir and `cache_key` and `cache_value` defined as
    here. The process prints "opening" just before it opens the cache."""
    return run_python("\n".join([
        "import os, sys, threading, time",
        "from evontree.gateway import ResponseCache",
        "print('opening', flush=True)",
        "cache = ResponseCache(sys.argv[1])",
        inspect.getsource(cache_key),
        inspect.getsource(cache_value),
        textwrap.dedent(body),
    ]), cache_dir)


def committed(cache_dir: Path) -> dict[bytes, dict]:
    """The entries another connection sees in cache_dir's database,
    decoded; each must be valid JSON."""
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        return {key: json.loads(value)
                for key, value in db.execute("SELECT key, value FROM responses")}


class TestCacheCommits:
    def test_put_many_commits_once_its_transaction_is_old_enough(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr("evontree.gateway.COMMIT_INTERVAL_S", 0.05)
        cache = ResponseCache(tmp_path)
        try:
            assert cache.put_many({cache_key(0): cache_value(0)}) is False
            assert cache.put_many({cache_key(1): cache_value(1)}) is False
            # This instance reads what it has not committed; no other one does.
            assert cache.get(cache_key(1)) == cache_value(1)
            assert committed(tmp_path) == {}
            time.sleep(0.06)
            assert cache.put_many({cache_key(2): cache_value(2)}) is True
            assert committed(tmp_path) == {cache_key(i): cache_value(i) for i in range(3)}
            # The next write begins a new transaction, as young as it.
            assert cache.put_many({cache_key(3): cache_value(3)}) is False
            assert cache.commit() is True and cache.commit() is False
            assert cache_key(3) in committed(tmp_path)
        finally:
            cache.close()

    def test_put_and_close_commit(self, tmp_path):
        cache = ResponseCache(tmp_path)
        try:
            cache.put_many({cache_key(0): cache_value(0)})
            cache.put(cache_key(1), cache_value(1))
            assert committed(tmp_path) == {cache_key(i): cache_value(i) for i in range(2)}
            cache.put_many({cache_key(2): cache_value(2)})
        finally:
            cache.close()
        cache.close()  # idempotent
        assert committed(tmp_path) == {cache_key(i): cache_value(i) for i in range(3)}


class TestCacheConcurrency:
    N_KEYS = 300

    def test_processes_and_threads_write_overlapping_keys(self, tmp_path):
        # Two processes, four threads each, every thread writing all keys
        # in its own order; a short switch interval forces interleaving.
        body = f"""
            sys.setswitchinterval(1e-5)
            errors = []
            def write(offset):
                try:
                    for n in range({self.N_KEYS}):
                        i = (n * 7 + offset) % {self.N_KEYS}
                        cache.put(cache_key(i), cache_value(i))
                        j = (i * 13) % {self.N_KEYS}
                        got = cache.get(cache_key(j))
                        assert got is None or got == cache_value(j), got
                except Exception as exc:
                    errors.append(repr(exc))
            threads = [threading.Thread(target=write, args=(k * 37,)) for k in range(4)]
            for t in threads: t.start()
            for t in threads: t.join(60)
            assert not any(t.is_alive() for t in threads), "writer thread hung"
            assert not errors, errors
            cache.close()
        """
        procs = [run_cache_writer(tmp_path, body) for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        cache = ResponseCache(tmp_path)
        try:
            for i in range(self.N_KEYS):
                assert cache.get(cache_key(i)) == cache_value(i)
        finally:
            cache.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [CACHE_FILE]

    def test_two_instances_see_each_others_writes(self, tmp_path):
        # The case of a judge gateway on its own endpoint sharing the cache.
        a, b = ResponseCache(tmp_path), ResponseCache(tmp_path)
        try:
            a.put(b"k1", {"text": "from a"})
            assert b.get(b"k1") == {"text": "from a"}
            b.put(b"k2", {"text": "from b"})
            assert a.get(b"k2") == {"text": "from b"}
            b.put(b"k1", {"text": "replaced by b"})
            assert a.get(b"k1") == {"text": "replaced by b"}
        finally:
            a.close()
            b.close()

    def test_writer_killed_mid_write_leaves_trusted_entries_only(self, tmp_path):
        # Threads keep writing while the main thread ends the process
        # abruptly: no close, no checkpoint, likely a write in progress.
        body = """
            written = [0]  # a rough, racy tally: it only has to pass 200
            def write(start):
                for i in range(start, 10**9, 4):
                    cache.put(cache_key(i), cache_value(i))
                    written[0] += 1
            for k in range(4):
                threading.Thread(target=write, args=(k,), daemon=True).start()
            deadline = time.monotonic() + 30
            while written[0] < 200 and time.monotonic() < deadline:
                time.sleep(0.001)
            os._exit(0)
        """
        proc = run_cache_writer(tmp_path, body)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        cache = ResponseCache(tmp_path)
        try:
            with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
                assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
                keys = [k for (k,) in db.execute("SELECT key FROM responses")]
            assert len(keys) >= 200
            for key in keys:
                assert cache.get(key) == cache_value(int.from_bytes(key, "big"))
        finally:
            cache.close()


def write_hex_key_cache(cache_dir: Path, rows: list[tuple[str, str]]) -> None:
    """A cache file as evontree wrote it before keys were stored as bytes:
    format 0 (no user_version), each key as 64 hex digits of TEXT."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, value TEXT NOT NULL) "
                   "WITHOUT ROWID")
        with db:
            db.executemany("INSERT INTO responses (key, value) VALUES (?, ?)", rows)


def numbered_rows(n: int) -> list[tuple[str, str]]:
    """n entries in the older format, keyed by cache_key(i) in hex."""
    return [(cache_key(i).hex(), json.dumps(cache_value(i))) for i in range(n)]


class TestCacheFormat:
    def test_older_format_is_rewritten_and_every_entry_replayed(self, tmp_path, caplog):
        generates = prompts(3)
        scores = [ScoreRequest(prompt=f"s{i}", completion=" True") for i in range(2)]
        identity = FakeBackend().identity

        def row(kind, request, response):
            key = _cache_key(identity, "m1", kind, request.to_body("m1"))
            return key, json.dumps(response, ensure_ascii=False)

        rows = [*(row("generate", r, {"text": f"cached:{r.prompt} é"}) for r in generates),
                *(row("score", r, {"token_logprobs": [-0.25, -0.5]}) for r in scores)]
        # Keys that hexdigest never wrote: too short, not hex, upper case.
        stray = [("not a digest", "{}"), ("g" * 64, "{}"), (rows[0][0].upper(), "{}")]
        write_hex_key_cache(tmp_path / "cache", rows + stray)
        with caplog.at_level(logging.WARNING, logger="evontree.gateway"):
            gw, backend = make_gateway(tmp_path)
        assert [r.getMessage() for r in caplog.records] == [
            f"dropping 3 cache entries whose key is not a hex digest from {gw.cache.path}"]
        assert gw.generate_many(generates) == [f"cached:{r.prompt} é" for r in generates]
        assert [r.token_logprobs for r in gw.score_many(scores)] == [(-0.25, -0.5)] * 2
        assert backend.calls == [] and gw.cache_hits == 5
        gw.close()
        with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
            assert db.execute("SELECT typeof(key), length(key), count(*) FROM responses "
                              "GROUP BY 1, 2").fetchall() == [("blob", 32, 5)]
            # The rewrite vacuumed the file: the old table left no free pages.
            assert db.execute("PRAGMA freelist_count").fetchone() == (0,)

    def test_new_file_starts_in_the_current_format(self, tmp_path):
        ResponseCache(tmp_path).close()
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
            [(sql,)] = db.execute("SELECT sql FROM sqlite_master WHERE type = 'table'")
        assert sql == ("CREATE TABLE responses (key BLOB PRIMARY KEY, value TEXT NOT NULL) "
                       "WITHOUT ROWID")

    def test_unknown_format_is_refused_and_left_alone(self, tmp_path):
        path = tmp_path / CACHE_FILE
        with closing(sqlite3.connect(path)) as db:
            db.execute(f"PRAGMA user_version = {CACHE_FORMAT + 1}")
        with pytest.raises(CacheCorruptError, match="move or delete") as exc_info:
            ResponseCache(tmp_path)
        assert f"has format {CACHE_FORMAT + 1}" in str(exc_info.value)
        with closing(sqlite3.connect(path)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT + 1,)

    def test_two_processes_upgrade_one_older_file_once(self, tmp_path):
        n = 200
        write_hex_key_cache(tmp_path, numbered_rows(n) + [("k1", "{}")])
        body = f"""
            got = cache.get_many([cache_key(i) for i in range({n})])
            assert got == {{cache_key(i): cache_value(i) for i in range({n})}}, len(got)
            cache.close()
        """
        # Both processes open the file while this connection holds its write
        # lock, so both find format 0 and then wait for the lock.
        with closing(sqlite3.connect(tmp_path / CACHE_FILE, isolation_level=None)) as holder:
            holder.execute("BEGIN IMMEDIATE")
            procs = [run_cache_writer(tmp_path, body) for _ in range(2)]
            try:
                for proc in procs:
                    proc.stdout.readline()
                time.sleep(0.2)
            finally:
                holder.execute("COMMIT")
        errs = []
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            errs.append(err)
        assert sum("dropping 1 cache entries" in err for err in errs) == 1, errs
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
            keys = [key for (key,) in db.execute("SELECT key FROM responses")]
        assert sorted(keys) == [cache_key(i) for i in range(n)]

    def test_upgrade_killed_part_way_leaves_the_older_file(self, tmp_path):
        n = 50
        write_hex_key_cache(tmp_path, numbered_rows(n))
        # The process ends abruptly while the upgrade copies its third key.
        script = textwrap.dedent("""
            import functools, os, sqlite3, sys
            from evontree.gateway import ResponseCache

            class DiesInCopy(sqlite3.Connection):
                def create_function(self, name, narg, fn, **kw):
                    seen = []
                    def die_on_third(arg):
                        seen.append(arg)
                        if len(seen) == 3:
                            os._exit(0)
                        return fn(arg)
                    super().create_function(name, narg, die_on_third, **kw)

            sqlite3.connect = functools.partial(sqlite3.connect, factory=DiesInCopy)
            ResponseCache(sys.argv[1])
            sys.exit("the upgrade finished")
        """)
        proc = run_python(script, tmp_path)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (0,)
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
            assert db.execute("SELECT key, value FROM responses ORDER BY key").fetchall() \
                == sorted(numbered_rows(n))
        cache = ResponseCache(tmp_path)
        try:
            assert cache.get_many([cache_key(i) for i in range(n)]) \
                == {cache_key(i): cache_value(i) for i in range(n)}
        finally:
            cache.close()


class TestRetry:
    def test_recovers_after_transient_failures(self, tmp_path):
        delays = []
        backend = FakeBackend(failures=2)
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path,
                          retry_backoff_s=(1.0, 2.0, 4.0), sleep=delays.append)
        assert gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)) == "gen:x"
        assert len(backend.calls) == 3
        assert delays == [1.0, 2.0]
        assert gw.retries == 2 and gw.calls == 1

    def test_gives_up_after_three_attempts(self, tmp_path):
        backend = FakeBackend(failures=10)
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path,
                          retry_backoff_s=(0.0,), sleep=lambda s: None)
        with pytest.raises(TransportError) as exc_info:
            gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        assert exc_info.value.attempts == 3
        assert len(backend.calls) == 3
        assert gw.retries == 2  # the third failure is raised, not retried

    def test_protocol_error_not_retried(self, tmp_path):
        class BadBackend(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                return {"wrong": "shape"}

        gw, backend = make_gateway(tmp_path, backend=BadBackend())
        with pytest.raises(ProtocolError):
            gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        assert len(backend.calls) == 1
        assert gw.retries == 0

    def test_retries_on_more_threads_than_cores_are_all_counted(self):
        class FailsTwiceHttp(HttpBackend):
            def __init__(self):
                super().__init__("http://127.0.0.1:1")
                self.tries = {}  # each prompt is sent by one thread at a time

            def generate(self, body):
                prompt = body["prompt"]
                self.tries[prompt] = self.tries.get(prompt, 0) + 1
                if self.tries[prompt] <= 2:
                    raise TransportError("scripted failure")
                return {"text": f"gen:{prompt}"}

        n = 300
        gw = ModelGateway(FailsTwiceHttp(), model="m1", cache_dir=None,
                          retry_backoff_s=(0.0,), sleep=lambda s: None,
                          max_in_flight=(os.cpu_count() or 1) + 4)
        results = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            runner = threading.Thread(
                target=lambda: results.append(gw.generate_many(prompts(n))), daemon=True)
            runner.start()
            runner.join(60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not runner.is_alive(), "the fanned-out batch hung"
        gw.close()
        assert results == [[f"gen:p{i}" for i in range(n)]]
        assert gw.retries == 2 * n and gw.calls == n


def prompts(n: int) -> list[GenerateRequest]:
    return [GenerateRequest(prompt=f"p{i}", max_tokens=4, temperature=0.0) for i in range(n)]


class TestBatches:
    def test_transport_error_keeps_the_responses_fetched_before_it(self, tmp_path):
        class FailsOnP3(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                if body["prompt"] == "p3":
                    raise TransportError("scripted failure")
                return {"text": f"gen:{body['prompt']}"}

        gw, backend = make_gateway(tmp_path, backend=FailsOnP3())
        with pytest.raises(TransportError):
            gw.generate_many(prompts(6))
        assert [body["prompt"] for _, body in backend.calls] == ["p0", "p1", "p2"] + ["p3"] * 3
        assert gw.calls == 3 and gw.cache_commits == 1
        gw.close()
        fresh, fresh_backend = make_gateway(tmp_path)
        assert fresh.generate_many(prompts(3)) == ["gen:p0", "gen:p1", "gen:p2"]
        assert fresh_backend.calls == []
        assert fresh.cache_hits == 3
        fresh.close()

    def test_fanned_out_batch_keeps_every_response_that_arrived(self, tmp_path):
        class FailsOnP3Http(HttpBackend):
            def __init__(self):
                super().__init__("http://127.0.0.1:1")
                self.answered = []

            def generate(self, body):
                if body["prompt"] == "p3":
                    raise TransportError("scripted failure")
                self.answered.append(body["prompt"])
                return {"text": f"gen:{body['prompt']}"}

        backend = FailsOnP3Http()
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path / "cache",
                          retry_backoff_s=(0.0,), sleep=lambda s: None, max_in_flight=4)
        with pytest.raises(TransportError):
            gw.generate_many(prompts(40))
        gw.close()
        assert "p0" in backend.answered and gw.calls == len(backend.answered)
        # Every answer that arrived before the failure was raised is stored.
        cache = ResponseCache(tmp_path / "cache")
        try:
            for i in range(40):
                key = bytes.fromhex(_cache_key(backend.identity, "m1", "generate",
                                               prompts(40)[i].to_body("m1")))
                stored = cache.get(key)
                assert (stored is not None) == (f"p{i}" in backend.answered), i
        finally:
            cache.close()

    @pytest.mark.parametrize("cached", [True, False])
    def test_duplicates_reach_the_backend_once_and_count_once(self, tmp_path, cached):
        backend = FakeBackend()
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path if cached else None)
        a, b = prompts(2)
        assert gw.generate_many([a, b, a, a]) == ["gen:p0", "gen:p1", "gen:p0", "gen:p0"]
        assert [body["prompt"] for _, body in backend.calls] == ["p0", "p1"]
        gw.commit()
        assert gw.counters() == {"requests": 4, "cache_hits": 2, "backend_calls": 2,
                                 "cache_commits": 1 if cached else 0, "retries": 0}
        # Once stored, a repeated key is one lookup and counts as hits only.
        if cached:
            assert gw.generate_many([b, b]) == ["gen:p1", "gen:p1"]
            assert len(backend.calls) == 2
            assert gw.counters() == {"requests": 6, "cache_hits": 4, "backend_calls": 2,
                                     "cache_commits": 1, "retries": 0}
        gw.close()

    def test_batch_is_one_lookup_and_one_commit(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        statements = []
        gw.cache._conn.set_trace_callback(statements.append)
        gw.generate_many(prompts(BATCH_SIZE + 1))
        assert len(backend.calls) == BATCH_SIZE + 1
        selects = [s for s in statements if s.startswith("SELECT")]
        assert len(selects) == 2  # BATCH_SIZE requests, then one
        # Both batches went into one transaction, younger than
        # COMMIT_INTERVAL_S, which commit() commits.
        assert statements.count("COMMIT") == gw.cache_commits == 0
        gw.commit()
        assert statements.count("COMMIT") == gw.cache_commits == 1
        inserts = [i for i, s in enumerate(statements) if s.startswith("INSERT")]
        assert len(inserts) == BATCH_SIZE + 1
        [begin] = [i for i, s in enumerate(statements) if s.startswith("BEGIN")]
        assert begin < inserts[0] and inserts[-1] < statements.index("COMMIT")
        gw.close()

    def test_http_batches_never_hold_the_write_lock_in_flight(self, tmp_path):
        path = tmp_path / "cache" / CACHE_FILE

        class TakesTheWriteLock(HttpBackend):
            """Answers without a network, after taking and releasing the
            cache file's write lock on a connection of its own, which
            fails at once if another connection holds it. One thread
            probes at a time, so the probes never meet each other."""

            def __init__(self):
                super().__init__("http://127.0.0.1:1")
                self.probing = threading.Lock()

            def generate(self, body):
                with self.probing, closing(sqlite3.connect(path, timeout=0,
                                                           isolation_level=None)) as db:
                    db.execute("BEGIN IMMEDIATE")
                    db.execute("ROLLBACK")
                return {"text": f"gen:{body['prompt']}"}

        gw = ModelGateway(TakesTheWriteLock(), model="m1", cache_dir=tmp_path / "cache",
                          retry_backoff_s=(0.0,), sleep=lambda s: None, max_in_flight=4)
        try:
            texts = gw.generate_many(prompts(BATCH_SIZE + 1))
        finally:
            gw.close()
        assert texts == [f"gen:p{i}" for i in range(BATCH_SIZE + 1)]
        assert gw.calls == BATCH_SIZE + 1
        assert gw.cache_commits == 2  # one per batch


    @pytest.mark.parametrize("kind", ["generate", "score"])
    def test_malformed_response_is_never_cached(self, tmp_path, kind):
        class WrongShapeOnP2(FakeBackend):
            def generate(self, body):
                answer = super().generate(body)
                return {"wrong": "shape"} if body["prompt"] == "p2" else answer

            def score(self, body):
                answer = super().score(body)
                return {"wrong": "shape"} if body["prompt"] == "p2" else answer

        requests = prompts(4) if kind == "generate" else [
            ScoreRequest(prompt=f"p{i}", completion=" True") for i in range(4)]

        def call(gw):
            return (gw.generate_many if kind == "generate" else gw.score_many)(requests)

        gw, backend = make_gateway(tmp_path, backend=WrongShapeOnP2())
        with pytest.raises(ProtocolError):
            call(gw)
        assert gw.calls == 3 and gw.cache_commits == 1
        gw.close()
        # A rerun on the same cache gets p0 and p1 from it, and asks the
        # backend for the malformed p2 again instead of replaying it.
        again, again_backend = make_gateway(tmp_path, backend=WrongShapeOnP2())
        with pytest.raises(ProtocolError):
            call(again)
        assert [body["prompt"] for _, body in again_backend.calls] == ["p2"]
        again.close()
        p0, p1, bad_key, _ = [bytes.fromhex(_cache_key(backend.identity, "m1", kind,
                                                        r.to_body("m1"))) for r in requests]
        with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as conn:
            stored = {key for (key,) in conn.execute("SELECT key FROM responses")}
        assert len(stored) == 2 and bad_key not in stored
        assert stored == {p0, p1}

    def test_empty_span_response_is_cached_and_replayed(self, tmp_path):
        class EmptyBackend(FakeBackend):
            def score(self, body):
                self.calls.append(("score", body))
                return {"token_logprobs": []}

        request = ScoreRequest(prompt="p", completion=" True")
        gw, _ = make_gateway(tmp_path, backend=EmptyBackend())
        [first] = gw.score_many([request])
        gw.close()
        assert isinstance(first, EmptySpanError) and gw.cache_commits == 1
        again, again_backend = make_gateway(tmp_path, backend=EmptyBackend())
        [second] = again.score_many([request])
        assert isinstance(second, EmptySpanError)
        assert again_backend.calls == [] and again.cache_hits == 1
        again.close()


class TestScoreValidation:
    def test_positive_logprob_rejected(self, tmp_path):
        class PosBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": [-0.5, 0.25]}

        gw, _ = make_gateway(tmp_path, backend=PosBackend())
        with pytest.raises(ProtocolError):
            gw.score(ScoreRequest(prompt="p", completion=" True"))

    def test_zero_logprob_allowed(self, tmp_path):
        class ZeroBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": [0.0, -1.0]}

        gw, _ = make_gateway(tmp_path, backend=ZeroBackend())
        assert gw.score(ScoreRequest(prompt="p", completion=" True")).token_logprobs == (0.0, -1.0)

    def test_empty_span_rejected(self, tmp_path):
        class EmptyBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": []}

        gw, _ = make_gateway(tmp_path, backend=EmptyBackend())
        with pytest.raises(EmptySpanError):
            gw.score(ScoreRequest(prompt="p", completion=" True"))

    def test_non_numeric_logprob_rejected(self, tmp_path):
        class StrBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": ["-0.5"]}

        gw, _ = make_gateway(tmp_path, backend=StrBackend())
        with pytest.raises(ProtocolError):
            gw.score(ScoreRequest(prompt="p", completion=" True"))


class _WireHandler(BaseHTTPRequestHandler):
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append((self.path, body))
        if self.path == "/v1/generate":
            payload = {"text": "ok"}
        elif self.path == "/v1/score":
            payload = {"token_logprobs": [-0.1, -0.2, -0.3]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        out = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def wire_server():
    _WireHandler.seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _WireHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpWireFormat:
    def test_generate_posts_expected_body(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, retry_backoff_s=(0.0,), sleep=lambda s: None)
        text = gw.generate(GenerateRequest(prompt="hi", max_tokens=16, temperature=0.7,
                                           stop=("\n\n",)))
        assert text == "ok"
        path, body = _WireHandler.seen[0]
        assert path == "/v1/generate"
        assert body == {"model": "med-model", "prompt": "hi",
                        "max_tokens": 16, "temperature": 0.7, "stop": ["\n\n"]}

    def test_generate_body_always_carries_stop_list(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, retry_backoff_s=(0.0,), sleep=lambda s: None)
        gw.generate(GenerateRequest(prompt="hi", max_tokens=16, temperature=0.0))
        _, body = _WireHandler.seen[0]
        assert body["stop"] == []
        assert set(body) == {"model", "prompt", "max_tokens", "temperature", "stop"}

    def test_score_posts_expected_body(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, retry_backoff_s=(0.0,), sleep=lambda s: None)
        resp = gw.score(ScoreRequest(prompt="statement. Answer:", completion=" True"))
        assert resp.token_logprobs == (-0.1, -0.2, -0.3)
        path, body = _WireHandler.seen[0]
        assert path == "/v1/score"
        assert body == {"model": "med-model", "prompt": "statement. Answer:",
                        "completion": " True"}

    def test_http_500_is_transport_error(self, tmp_path):
        class ErrHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(500)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), ErrHandler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        try:
            gw = ModelGateway(HttpBackend(f"http://127.0.0.1:{server.server_address[1]}"),
                              model="m", cache_dir=tmp_path,
                              retry_backoff_s=(0.0,), sleep=lambda s: None)
            with pytest.raises(TransportError):
                gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        finally:
            server.shutdown()
            server.server_close()

    def test_http_429_is_retried(self, tmp_path):
        statuses = [429, 200]

        class RateLimitHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                status = statuses.pop(0)
                out = json.dumps({"text": "ok"}).encode() if status == 200 else b""
                self.send_response(status)
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), RateLimitHandler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        delays = []
        try:
            gw = ModelGateway(HttpBackend(f"http://127.0.0.1:{server.server_address[1]}"),
                              model="m", cache_dir=tmp_path,
                              retry_backoff_s=(0.5,), sleep=delays.append)
            assert gw.generate(GenerateRequest(prompt="x", max_tokens=4,
                                               temperature=0.0)) == "ok"
            assert statuses == []
            assert delays == [0.5]
        finally:
            server.shutdown()
            server.server_close()


class _FaultServer(ThreadingHTTPServer):
    """A keep-alive (HTTP/1.1) model endpoint that echoes each prompt, unless
    the next entry of `faults` names a fault for that request.

    It counts the connections it accepted and those it saw closed, and
    keeps quiet about a reply it could not write to a client that left."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _FaultHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.faults: list[str] = []
        self.seen: list = []
        self.opened = self.closed = 0
        self._changed = threading.Condition()

    def connection_event(self, opened: bool) -> None:
        with self._changed:
            if opened:
                self.opened += 1
            else:
                self.closed += 1
            self._changed.notify_all()

    def wait_all_closed(self, timeout: float = 10.0) -> bool:
        """Whether every connection accepted so far closed within timeout."""
        with self._changed:
            return self._changed.wait_for(lambda: self.closed == self.opened, timeout)

    def handle_error(self, request, client_address) -> None:
        pass


class _FaultHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    SLOW_S = 0.5

    def setup(self):
        super().setup()
        self.server.connection_event(opened=True)

    def finish(self):
        try:
            super().finish()
        finally:
            self.server.connection_event(opened=False)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers["Content-Type"], raw))
        body = json.loads(raw)
        fault = self.server.faults.pop(0) if self.server.faults else None
        if fault == "slow":
            time.sleep(self.SLOW_S)
        if fault == "not_json":
            out = b"<html>overloaded</html>"
        elif fault == "wrong_shape":
            out = b'{"wrong": "shape"}'
        elif self.path.endswith("/v1/generate"):
            out = json.dumps({"text": f"echo:{body['prompt']}"}).encode()
        else:
            out = json.dumps({"token_logprobs": [-0.5]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        if fault == "truncated":  # half the promised body, then hang up
            out = out[:len(out) // 2]
        # An idle keep-alive connection dropped after this reply, with no
        # "Connection: close" to warn the client.
        self.close_connection = fault in ("truncated", "drop_after")
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def fault_server():
    server = _FaultServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(10)
    assert not thread.is_alive()


@pytest.fixture
def http_gateway(fault_server, tmp_path):
    """Makes gateways on fault_server with the cache in tmp_path/cache, and
    closes them before the server stops. Each records its retry delays in
    its `delays` list."""
    made = []

    def make(timeout_s: float = 10.0, **kw) -> ModelGateway:
        delays = []
        gw = ModelGateway(HttpBackend(fault_server.url, timeout_s=timeout_s), model="m",
                          cache_dir=tmp_path / "cache", retry_backoff_s=(0.0,),
                          sleep=delays.append, **kw)
        gw.delays = delays
        made.append(gw)
        return gw

    yield make
    for gw in made:
        gw.close()


def stored_responses(gw: ModelGateway) -> dict[bytes, dict]:
    """Every committed entry of the gateway's cache database, decoded; each
    must be valid JSON."""
    return committed(gw.cache.cache_dir)


def echoed(gw: ModelGateway, requests: list[GenerateRequest]) -> dict[bytes, dict]:
    """The cache entries the echo server's answers to requests make."""
    return {bytes.fromhex(_cache_key(gw.backend.identity, gw.model, "generate",
                                     r.to_body(gw.model))):
            {"text": f"echo:{r.prompt}"} for r in requests}


class TestHttpFaults:
    def test_posts_utf8_json_under_the_endpoint_path(self, fault_server):
        backend = HttpBackend(fault_server.url + "/api/")
        body = GenerateRequest(prompt='Is a Säugetier — a kind of "Tier"?', max_tokens=8,
                               temperature=0.0).to_body("m")
        try:
            assert backend.generate(body) == {"text": f"echo:{body['prompt']}"}
        finally:
            backend.close()
        [(path, content_type, raw)] = fault_server.seen
        assert (path, content_type) == ("/api/v1/generate", "application/json")
        assert raw == json.dumps(body, allow_nan=False).encode("utf-8")

    @pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://host", "http://"])
    def test_endpoint_must_be_an_http_url(self, endpoint):
        with pytest.raises(InvalidParamsError, match="endpoint must be a URL with scheme"):
            HttpBackend(endpoint)

    def test_https_endpoint_speaks_tls(self, fault_server):
        # The plain-HTTP server cannot complete a TLS handshake.
        backend = HttpBackend(fault_server.url.replace("http:", "https:"), timeout_s=5.0)
        try:
            with pytest.raises(TransportError, match="SSL"):
                backend.generate({"prompt": "p"})
        finally:
            backend.close()
        assert fault_server.seen == []

    @pytest.mark.parametrize("fault", ["slow", "truncated"])
    def test_failed_reply_is_retried_then_raises(self, fault_server, http_gateway, fault):
        # Slow: each attempt's reply comes after timeout_s. Truncated: the
        # body ends before its Content-Length.
        gw = http_gateway(timeout_s=0.1)
        fault_server.faults = [fault] * RETRY_ATTEMPTS
        [first, second] = prompts(2)
        with pytest.raises(TransportError) as exc_info:
            gw.generate(first)
        assert exc_info.value.attempts == RETRY_ATTEMPTS
        assert len(fault_server.seen) == RETRY_ATTEMPTS
        assert gw.delays == [0.0] * (RETRY_ATTEMPTS - 1)
        assert stored_responses(gw) == {}
        # The backend recovers for the next request.
        assert gw.generate(second) == "echo:p1"
        assert stored_responses(gw) == echoed(gw, [second])

    @pytest.mark.parametrize("fault", ["not_json", "wrong_shape"])
    def test_malformed_200_is_a_protocol_error_not_retried(self, fault_server, http_gateway,
                                                           fault):
        gw = http_gateway()
        fault_server.faults = [fault]
        [first, second] = prompts(2)
        with pytest.raises(ProtocolError):
            gw.generate(first)
        assert len(fault_server.seen) == 1 and gw.delays == []
        assert stored_responses(gw) == {}
        # The bad body was read to its end, so the connection serves the next.
        assert gw.generate(second) == "echo:p1"
        assert fault_server.opened == 1
        assert stored_responses(gw) == echoed(gw, [second])

    def test_dropped_keep_alive_connection_is_reopened(self, fault_server, http_gateway):
        gw = http_gateway()
        fault_server.faults = ["drop_after"]
        [first, second] = prompts(2)
        assert gw.generate(first) == "echo:p0"
        # The server hangs up on the idle connection before the next request.
        assert fault_server.wait_all_closed()
        assert gw.generate(second) == "echo:p1"
        assert fault_server.opened == 2
        assert gw.delays == []  # reopened by the backend, not retried by the gateway
        assert stored_responses(gw) == echoed(gw, [first, second])

    def test_every_concurrent_reply_matches_its_request(self, fault_server, http_gateway):
        # More threads than cores, switching often, over kept-alive
        # connections: a reply read on another thread's connection, or a
        # connection shared by two threads, would pair a prompt with
        # another prompt's echo.
        workers = (os.cpu_count() or 1) + 4
        gw = http_gateway(max_in_flight=workers)
        requests = prompts(2 * BATCH_SIZE + 88)
        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def call():
                result["texts"] = gw.generate_many(requests)

            thread = threading.Thread(target=call, daemon=True)
            thread.start()
            thread.join(120)
            assert not thread.is_alive(), "concurrent requests hung"
        finally:
            sys.setswitchinterval(interval)
        assert result["texts"] == [f"echo:{r.prompt}" for r in requests]
        assert len(fault_server.seen) == len(requests)
        assert fault_server.opened <= workers  # one kept-alive connection per thread
        assert stored_responses(gw) == echoed(gw, requests)

    def test_close_closes_every_connection(self, fault_server, http_gateway):
        gw = http_gateway(max_in_flight=4)
        gw.generate(GenerateRequest(prompt="alone", max_tokens=4, temperature=0.0))
        gw.generate_many(prompts(40))  # fanned out over the pool's threads
        assert fault_server.opened >= 2 and fault_server.closed == 0
        gw.close()
        assert fault_server.wait_all_closed()
