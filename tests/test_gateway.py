from __future__ import annotations

import inspect
import json
import os
import random
import sqlite3
import subprocess
import sys
import textwrap
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import evontree
from evontree.errors import CacheCorruptError, EmptySpanError, ProtocolError, TransportError
from evontree.gateway import (
    BATCH_SIZE,
    CACHE_FILE,
    GenerateRequest,
    HttpBackend,
    ModelGateway,
    ResponseCache,
    ScoreRequest,
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

    def test_read_cache_false_still_writes(self, tmp_path):
        gw, backend = make_gateway(tmp_path, read_cache=False)
        req = GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)
        gw.generate(req)
        gw.generate(req)
        assert len(backend.calls) == 2
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


def cache_value(i: int) -> dict:
    return {"text": "v" * (i % 50) + str(i), "i": i}


def run_cache_writer(cache_dir: Path, body: str) -> subprocess.Popen:
    """Run `body` in a fresh interpreter, with `cache` bound to a
    ResponseCache on cache_dir and `cache_value` defined as here."""
    script = "\n".join([
        "import os, sys, threading, time",
        "from evontree.gateway import ResponseCache",
        "cache = ResponseCache(sys.argv[1])",
        inspect.getsource(cache_value),
        textwrap.dedent(body),
    ])
    src = str(Path(evontree.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", script, str(cache_dir)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


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
                        cache.put(str(i), cache_value(i))
                        j = (i * 13) % {self.N_KEYS}
                        got = cache.get(str(j))
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
                assert cache.get(str(i)) == cache_value(i)
        finally:
            cache.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [CACHE_FILE]

    def test_two_instances_see_each_others_writes(self, tmp_path):
        # The case of a judge gateway on its own endpoint sharing the cache.
        a, b = ResponseCache(tmp_path), ResponseCache(tmp_path)
        try:
            a.put("k1", {"text": "from a"})
            assert b.get("k1") == {"text": "from a"}
            b.put("k2", {"text": "from b"})
            assert a.get("k2") == {"text": "from b"}
            b.put("k1", {"text": "replaced by b"})
            assert a.get("k1") == {"text": "replaced by b"}
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
                    cache.put(str(i), cache_value(i))
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
                assert cache.get(key) == cache_value(int(key))
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

    def test_gives_up_after_three_attempts(self, tmp_path):
        backend = FakeBackend(failures=10)
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path,
                          retry_backoff_s=(0.0,), sleep=lambda s: None)
        with pytest.raises(TransportError) as exc_info:
            gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        assert exc_info.value.attempts == 3
        assert len(backend.calls) == 3

    def test_protocol_error_not_retried(self, tmp_path):
        class BadBackend(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                return {"wrong": "shape"}

        gw, backend = make_gateway(tmp_path, backend=BadBackend())
        with pytest.raises(ProtocolError):
            gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        assert len(backend.calls) == 1


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
                key = _cache_key(backend.identity, "m1", "generate",
                                 prompts(40)[i].to_body("m1"))
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
        assert gw.counters() == {"requests": 4, "cache_hits": 2, "backend_calls": 2,
                                 "cache_commits": 1 if cached else 0}
        # Once stored, a repeated key is one lookup and counts as hits only.
        if cached:
            assert gw.generate_many([b, b]) == ["gen:p1", "gen:p1"]
            assert len(backend.calls) == 2
            assert gw.counters() == {"requests": 6, "cache_hits": 4, "backend_calls": 2,
                                     "cache_commits": 1}
        gw.close()

    def test_batch_is_one_lookup_and_one_commit(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        statements = []
        gw.cache._conn.set_trace_callback(statements.append)
        gw.generate_many(prompts(BATCH_SIZE + 1))
        assert len(backend.calls) == BATCH_SIZE + 1
        selects = [s for s in statements if s.startswith("SELECT")]
        assert len(selects) == 2  # BATCH_SIZE requests, then one
        assert statements.count("COMMIT") == gw.cache_commits == 2
        gw.close()


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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

    def test_close_closes_the_http_session(self, wire_server, tmp_path):
        backend = HttpBackend(wire_server)
        gw = ModelGateway(backend, model="med-model", cache_dir=tmp_path,
                          retry_backoff_s=(0.0,), sleep=lambda s: None)
        gw.generate(GenerateRequest(prompt="hi", max_tokens=16, temperature=0.0))
        pools = backend._session.get_adapter(wire_server).poolmanager.pools
        assert len(pools) == 1  # the keep-alive connection's pool
        gw.close()
        assert len(pools) == 0

    def test_http_500_is_transport_error(self, tmp_path):
        class ErrHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(500)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), ErrHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
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
        threading.Thread(target=server.serve_forever, daemon=True).start()
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
