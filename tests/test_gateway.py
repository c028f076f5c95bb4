from __future__ import annotations

import copy
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import sqlite3
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import zlib
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import evontree
from evontree.cli import main as cli_main
from evontree.errors import (
    CacheCorruptError,
    InvalidParamsError,
    ProtocolError,
    TransportError,
    UnparseableError,
)
from evontree.gateway import (
    ASK_ATTEMPTS,
    BATCH_SIZE,
    CACHE_FILE,
    CACHE_FORMAT,
    DEFLATE_MIN_BYTES,
    RETRY_AFTER_MAX_S,
    RETRY_ATTEMPTS,
    RETRY_BACKOFF_S,
    GenerateRequest,
    HttpBackend,
    ModelGateway,
    Scored,
    ResponseCache,
    ScoreRequest,
    _JITTER,
    _KINDS,
    _cache_key,
    _packed_result,
    _packed_scores,
    _unpacked_scores,
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


# Any JSON value, as Python's json reads it: NaN and infinities as floats, an
# integer of any size, and text that may hold a lone surrogate, which a
# JSON escape can spell.
json_numbers = st.one_of(st.integers(), st.floats(), st.booleans(), st.just(-10**400))
json_texts = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=8)
json_values = st.recursive(
    st.one_of(st.none(), json_numbers, json_texts),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_texts, inner, max_size=3),
    max_leaves=6)


PAIR = (" True", " False")
# The most tokens a calibration probe's answer may take.
ANSWER_TOKENS = 8


def keyed_body(request, model) -> dict:
    """The body a request's cache key hashes: a score's holds its
    completions, and a probe's its answer_tokens too."""
    if isinstance(request, GenerateRequest):
        return request.to_body(model)
    body = {"completions": list(request.completions), "model": model, "prompt": request.prompt}
    if request.answer_tokens > 0:
        body["answer_tokens"] = request.answer_tokens
    return body


def single_score_body(prompt: str, completion: str, model: str) -> dict:
    """The body that cache formats 2 to 4 keyed a score by: one completion's."""
    return {"model": model, "prompt": prompt, "completion": completion}


def canonical_digest(identity, model, kind, body: dict) -> bytes:
    """The SHA-256 digest of a request's canonical JSON text, by its
    json.dumps definition: format 2 keyed each entry by all 32 bytes of it."""
    canonical = json.dumps({"endpoint": identity, "model": model, "kind": kind, "body": body},
                           sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def bits(scores) -> list[list[bytes]]:
    """Each completion's log-probabilities as packed doubles, so that -0.0
    and 0.0 differ."""
    return [[struct.pack("<d", lp) for lp in completion] for completion in scores]


def make_gateway(tmp_path, backend=None, **kw):
    backend = backend or FakeBackend()
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
        request = GenerateRequest(prompt="p", max_tokens=4, temperature=0.0)
        base = _cache_key("ep1", "m1", "generate", request)
        assert _cache_key("ep2", "m1", "generate", request) != base
        assert _cache_key("ep1", "m2", "generate", request) != base
        assert _cache_key("ep1", "m1", "score", request) != base
        for changed in (GenerateRequest(prompt="q", max_tokens=4, temperature=0.0),
                        GenerateRequest(prompt="p", max_tokens=5, temperature=0.0),
                        GenerateRequest(prompt="p", max_tokens=4, temperature=0.5),
                        GenerateRequest(prompt="p", max_tokens=4, temperature=0.0, stop=("",))):
            assert _cache_key("ep1", "m1", "generate", changed) != base
        assert _cache_key("ep1", "m1", "generate",
                          GenerateRequest(prompt="p", max_tokens=4, temperature=0.0)) == base
        score = ScoreRequest(prompt="p", completions=PAIR)
        for changed in (ScoreRequest(prompt="p", completions=(" False", " True")),
                        ScoreRequest(prompt="p", completions=(" True",)),
                        ScoreRequest(prompt="q", completions=PAIR),
                        ScoreRequest(prompt="p", completions=PAIR, answer_tokens=8),
                        ScoreRequest(prompt="p", completions=PAIR, answer_tokens=9)):
            assert _cache_key("ep1", "m1", "score", score) != _cache_key(
                "ep1", "m1", "score", changed)
        # A request that asks for no answer keys as one that names none.
        assert _cache_key("ep1", "m1", "score", ScoreRequest(
            prompt="p", completions=PAIR, answer_tokens=0)) == _cache_key(
            "ep1", "m1", "score", score)
        assert len(base) == 16

    def test_key_is_pinned(self):
        # Computed before the key encoder was shared; a key that moves
        # orphans every response already cached. The first half of the
        # 32-byte key that format 2 pinned, so the canonical text is the same.
        request = GenerateRequest(prompt='Is a Säugetier — a kind of "Tier"? é',
                                  max_tokens=8, temperature=0.0)
        assert (_cache_key("synthetic://42/ab12cd34", "synthetic", "generate", request).hex()
                == "b13eb010e33e8a26c1b4806e151a48dd")
        # A pair that asks for no answer, as extrapolate scores it, keeps the
        # key cache format 5 gave it.
        pair = ScoreRequest("Please determine if the statement is true or false, then answer "
                            "with True or False: 'Säugetier' is a strict subclass of 'Tier'. "
                            "Answer:", PAIR)
        assert (_cache_key("synthetic://42/ab12cd34", "synthetic", "score", pair).hex()
                == "ab0d0b71b453be930d2f0b807e9646f6")

    @settings(deadline=None)
    @given(identity=st.text(), model=st.text(), kind=st.text(), request=st.one_of(
        st.builds(GenerateRequest, prompt=st.text(), max_tokens=st.integers(),
                  temperature=st.one_of(st.floats(), st.integers()),
                  stop=st.lists(st.text(), max_size=3).map(tuple)),
        st.builds(ScoreRequest, prompt=st.text(),
                  completions=st.lists(st.text(), max_size=3).map(tuple),
                  answer_tokens=st.integers())))
    @example(identity="synthetic://1/ab", model="m", kind="generate",
             request=GenerateRequest(prompt='é "q" \\ \n\t\x00\x1f\x7f\u2028 😀',
                                     max_tokens=-1, temperature=math.nan, stop=("\n\n", "")))
    @example(identity="", model="", kind="", request=GenerateRequest(
        prompt="", max_tokens=10**30, temperature=math.inf))
    @example(identity="", model="", kind="", request=GenerateRequest(
        prompt="", max_tokens=0, temperature=-math.inf))
    @example(identity="", model="", kind="", request=GenerateRequest(
        prompt="", max_tokens=0, temperature=-0.0))
    @example(identity="é", model='"', kind="score", request=ScoreRequest(
        prompt="Säugetier\r\n", completions=(' "True"', " False")))
    @example(identity="", model="", kind="score", request=ScoreRequest(prompt="", completions=()))
    @example(identity="synthetic://1/ab", model="m", kind="score",
             request=ScoreRequest(prompt="p", completions=PAIR, answer_tokens=8))
    def test_key_is_the_digest_of_the_canonical_json(self, identity, model, kind, request):
        assert (_cache_key(identity, model, kind, request)
                == canonical_digest(identity, model, kind, keyed_body(request, model))[:16])

    @settings(deadline=None)
    # st.text() draws no surrogate, so every text has a UTF-8 form.
    @given(text=st.text())
    @example(text="")
    @example(text='é "q" \\ \n\t\x00\x1f\x7f\u2028 😀')
    @example(text="abcdefé")  # 8 bytes, which also read as one packed double
    @example(text="ab" * 32)  # 64 bytes, plain though deflate shortens them
    @example(text="ab" * 32 + "c")  # 65 bytes, 9 deflated
    @example(text="".join(map(chr, range(33, 98))))  # 65 distinct bytes, 68 deflated
    def test_cached_text_is_plain_or_deflated_utf8_and_reads_back_unchanged(self, text):
        _, encode, decode = _KINDS["generate"]
        key = bytes(16)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResponseCache(Path(tmp))
            try:
                cache.put(key, encode(text))
                stored = cache.get(key)
            finally:
                cache.close()
        plain = text.encode("utf-8")
        if len(plain) <= DEFLATE_MIN_BYTES or len(deflate(plain)) >= len(plain):
            assert stored == plain
        else:
            assert stored == deflate(plain)
        assert decode(stored, None) == text

    @settings(deadline=None, max_examples=50)
    @given(text=st.text(), logprobs=st.lists(st.floats(max_value=0.0), max_size=5))
    @example(text="", logprobs=[-math.inf, -0.0])
    def test_any_text_and_logprobs_read_back_equal(self, text, logprobs):
        class Canned(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                return {"text": text}

            def score(self, body):
                self.calls.append(("score", body))
                return {"token_logprobs": logprobs}

        gen = GenerateRequest(prompt="p", max_tokens=4, temperature=0.0)
        score = ScoreRequest(prompt="p", completions=PAIR)
        answers = []
        with tempfile.TemporaryDirectory() as tmp:
            for _ in range(2):  # the backend, then a fresh gateway on its cache
                gw, backend = make_gateway(Path(tmp), backend=Canned())
                try:
                    [scored] = gw.score_many([score])
                    answers.append((gw.generate(gen), backend.calls, scored))
                finally:
                    gw.close()
        (first, first_calls, first_lps), (again, again_calls, again_lps) = answers
        assert first == again == text
        assert len(first_calls) == 3 and again_calls == []  # one per completion
        # Bit for bit, so that -0.0 stays -0.0.
        assert again_lps.answer is first_lps.answer is None
        assert bits(again_lps.scores) == bits(first_lps.scores) == bits((logprobs, logprobs))

    @given(scores=st.lists(st.lists(st.floats(max_value=0.0), max_size=8), max_size=3))
    @example(scores=[[-math.inf, -0.0, 0.0], []])
    @example(scores=[[-1.0] * 128, [-2.0] * 300])  # token counts of two varint bytes
    @example(scores=[[-0.1], [-2.3]])  # a one-token pair: 3 + 16 bytes
    def test_packed_logprobs_decode_to_themselves(self, scores):
        scores = tuple(map(tuple, scores))
        request = ScoreRequest(prompt="p", completions=(" x",) * len(scores))
        value = _packed_scores(scores)
        header = sum(1 + (n > 127) + (n > 16383) for n in (len(scores), *map(len, scores)))
        assert len(value) == header + 8 * sum(map(len, scores))
        assert _packed_result(Scored(scores, None)) == value  # an answer-less result's
        decoded = _unpacked_scores(value, request)
        assert decoded.answer is None and bits(decoded.scores) == bits(scores)

    @given(scores=st.lists(st.lists(st.floats(max_value=0.0), max_size=3), min_size=1,
                           max_size=3),
           which=st.integers(0, 2), at=st.integers(0, 3),
           refused=st.one_of(st.just(math.nan), st.floats(min_value=0.0, exclude_min=True)))
    @example(scores=[[-1.0], [-0.5]], which=1, at=1, refused=math.nan)
    @example(scores=[[]], which=0, at=0, refused=0.5)
    @example(scores=[[-0.0], []], which=0, at=0, refused=math.inf)
    def test_packed_logprobs_above_zero_or_nan_are_refused(self, scores, which, at, refused):
        scores[which % len(scores)].insert(at, refused)
        request = ScoreRequest(prompt="p", completions=(" x",) * len(scores))
        with pytest.raises(ValueError, match="are not all at most 0"):
            _unpacked_scores(_packed_scores(tuple(map(tuple, scores))), request)

    @given(scores=st.lists(st.lists(st.floats(max_value=0.0), max_size=3), max_size=3),
           cut=st.integers(1, 8), extra=st.binary(min_size=1, max_size=8),
           other_count=st.integers(0, 4))
    @example(scores=[[-1.0], [-0.5]], cut=1, extra=b"\x00", other_count=1)
    def test_packed_logprobs_whose_header_disagrees_are_refused(self, scores, cut, extra,
                                                                 other_count):
        # A value cut short or run long, whose header and doubles disagree,
        # or one of another number of completions than the request's.
        scores = tuple(map(tuple, scores))
        request = ScoreRequest(prompt="p", completions=(" x",) * len(scores))
        value = _packed_scores(scores)
        for malformed in (value[:max(0, len(value) - cut)], value + extra):
            with pytest.raises(ValueError, match="header"):
                _unpacked_scores(malformed, request)
        other = ScoreRequest(prompt="p", completions=(" x",) * other_count)
        if other_count != len(scores):
            with pytest.raises(ValueError, match=f"hold {len(scores)} completions, "
                                                 f"not the request's {other_count}"):
                _unpacked_scores(value, other)
        # SQLite returns a number as an int or a float, not bytes.
        for number in (5, -0.5):
            with pytest.raises(ValueError, match="are not bytes"):
                _unpacked_scores(number, request)

    @given(scores=st.lists(st.lists(st.floats(max_value=0.0), max_size=4), max_size=3),
           answer=st.text())
    @example(scores=[[-0.1], [-2.3]], answer="True")  # a calibration probe's
    @example(scores=[[-0.1], [-2.3]], answer="")
    @example(scores=[[], []], answer="é\x00 False 😀")
    def test_packed_probes_decode_to_themselves(self, scores, answer):
        scores = tuple(map(tuple, scores))
        request = ScoreRequest(prompt="p", completions=(" x",) * len(scores),
                               answer_tokens=ANSWER_TOKENS)
        value = _packed_result(Scored(scores, answer))
        # The pair's value, then the answer's UTF-8 bytes, or one 0xff byte.
        assert value == _packed_scores(scores) + (answer.encode() or b"\xff")
        decoded = _unpacked_scores(value, request)
        assert isinstance(decoded, Scored) and decoded.answer == answer
        assert bits(decoded.scores) == bits(scores)

    @given(scores=st.lists(st.lists(st.floats(max_value=0.0), max_size=3), min_size=1,
                           max_size=3).filter(lambda scores: any(scores)),
           answer=st.text(), cut=st.integers(1, 24))
    @example(scores=[[-0.1], [-2.3]], answer="True", cut=1)
    @example(scores=[[-0.1], [-2.3]], answer="", cut=8)
    def test_packed_probes_cut_in_their_doubles_or_without_utf8_answers_are_refused(
            self, scores, answer, cut):
        scores = tuple(map(tuple, scores))
        request = ScoreRequest(prompt="p", completions=(" x",) * len(scores),
                               answer_tokens=ANSWER_TOKENS)
        pair = _packed_scores(scores)
        # Cut inside the doubles, so the answer's bytes are gone too.
        with pytest.raises(ValueError, match="header gives"):
            _unpacked_scores(pair[:len(pair) - min(cut, 8 * sum(map(len, scores)))], request)
        # An answer that is no UTF-8: a byte that starts none, a sequence cut
        # short, an encoded lone surrogate, and the empty answer's 0xff
        # before an answer.
        for answer_bytes in (b"\x80", "é".encode()[:1], b"\xed\xa0\x80",
                             b"\xff" + answer.encode() + b"."):
            with pytest.raises(UnicodeDecodeError):
                _unpacked_scores(pair + answer_bytes, request)
        # An answer-less pair, as format 5 stored it, under a probe's key;
        # and a probe's value under an answer-less request's key.
        with pytest.raises(ValueError, match="hold no answer, which the probe asks for"):
            _unpacked_scores(pair, request)
        with pytest.raises(ValueError, match="header gives"):
            _unpacked_scores(_packed_result(Scored(scores, answer)),
                             ScoreRequest(prompt="p", completions=request.completions))

    def test_a_batch_of_hits_builds_no_body(self, tmp_path, monkeypatch):
        generates = prompts(3)
        scores = [ScoreRequest(prompt=f"s{i}", completions=PAIR) for i in range(3)]
        gw, backend = make_gateway(tmp_path)
        first = (list(gw.generate_many(generates)), list(gw.score_many(scores)))
        gw.close()

        def no_body(request, model):
            raise AssertionError(f"a body was built for {request}")

        monkeypatch.setattr(GenerateRequest, "to_body", no_body)
        monkeypatch.setattr(ScoreRequest, "to_bodies", no_body)
        again, again_backend = make_gateway(tmp_path)
        try:
            assert (list(again.generate_many(generates)),
                    list(again.score_many(scores))) == first
        finally:
            again.close()
        assert len(backend.calls) == 9 and again_backend.calls == []  # 3 + 2 x 3
        assert again.cache_hits == 6

    @pytest.mark.parametrize("read_cache", [True, False])
    def test_generated_text_without_utf8_form_is_refused(self, tmp_path, read_cache):
        class LoneSurrogateOnP1(FakeBackend):
            def generate(self, body):
                answer = super().generate(body)
                # As Python's json reads the escape from an HTTP reply.
                return json.loads('{"text": "a\\ud800b"}') if body["prompt"] == "p1" else answer

        backend = LoneSurrogateOnP1()
        gw, _ = make_gateway(tmp_path, backend, read_cache=read_cache)
        with pytest.raises(ProtocolError, match="has no UTF-8 form"):
            list(gw.generate_many(prompts(3)))
        gw.close()
        assert [body["prompt"] for _, body in backend.calls] == ["p0", "p1"]  # not retried
        # Nor cached; the response before it is.
        assert committed(tmp_path / "cache") == {
            _cache_key(backend.identity, "m1", "generate", prompts(1)[0]): b"gen:p0"}

    @settings(deadline=None, max_examples=100)
    @given(kind=st.sampled_from(["generate", "score"]), body=st.one_of(
        json_values, st.fixed_dictionaries({}, optional={
            "text": json_values,
            "token_logprobs": st.one_of(json_values, st.lists(json_numbers, max_size=3))})))
    @example(kind="generate", body={"text": "a\ud800b"})
    @example(kind="generate", body={"text": ""})
    @example(kind="score", body={"token_logprobs": [-0.0, -math.inf]})
    @example(kind="score", body={"token_logprobs": []})
    @example(kind="score", body={"token_logprobs": [-0.5, math.nan]})
    def test_any_body_gives_one_answer_with_and_without_a_cache(self, kind, body):
        # Cold, warm, or with cache reads off, a body gives the same answer,
        # or ProtocolError every time, which is never cached.
        class Scripted(FakeBackend):
            def generate(self, request_body):
                self.calls.append(("generate", request_body))
                return copy.deepcopy(body)

            score = generate

        def answer(cache_dir, read_cache=True):
            gw = ModelGateway(Scripted(), model="m1", cache_dir=cache_dir, read_cache=read_cache)
            try:
                if kind == "generate":
                    [result] = gw.generate_many(
                        [GenerateRequest(prompt="p", max_tokens=4, temperature=0.0)])
                else:
                    [result] = gw.score_many([ScoreRequest(prompt="p", completions=PAIR)])
                    assert result.answer is None
                    result = bits(result.scores)
            except ProtocolError:
                result = ProtocolError
            finally:
                gw.close()
            return result, len(gw.backend.calls)

        with tempfile.TemporaryDirectory() as tmp:
            cold, warm, unread = (answer(Path(tmp)), answer(Path(tmp)),
                                  answer(Path(tmp), read_cache=False))
        # A score that parses is fetched once per completion; a refused one
        # stops at its first.
        calls = 2 if kind == "score" and cold[0] is not ProtocolError else 1
        assert unread == cold == (cold[0], calls)
        assert warm == (cold[0], calls if cold[0] is ProtocolError else 0)

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
        list(gw.generate_many([req], bypass_cache=True))
        assert len(backend.calls) == 2

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        gen = GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)
        score = ScoreRequest(prompt="x", completions=PAIR)

        def call(req):
            if req is gen:
                return gw.generate(req)
            return gw.score(req)

        answers = {gen: call(gen), score: call(score)}
        assert answers == {gen: "gen:x", score: Scored(((-0.5, -1.5), (-0.5, -1.5)), None)}
        # One backend call per generation, one per completion of a score.
        calls_per_fetch = {gen: 1, score: 2}
        keys = {req: _cache_key(backend.identity, "m1", kind, req)
                for req, kind in ((gen, "generate"), (score, "score"))}

        def store(req, new_value, arg):
            gw.commit()  # so that another connection can write
            with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as db, db:
                updated = db.execute(f"UPDATE responses SET value = {new_value} WHERE key = ?",
                                     (arg, keys[req]))
                assert updated.rowcount == 1

        # The right answer, deflated: read as a whole stream, it is a hit.
        deflated = deflate(answers[gen].encode())
        header = b"\x02\x02\x02"  # two completions of two tokens each
        bad = [
            # No UTF-8: an encoded lone surrogate, a sequence cut short, a
            # byte that UTF-8 never uses, and a bad continuation byte stored
            # as TEXT.
            *((gen, "?", value) for value in [b"\xed\xa0\x80", b"\xc3", b"\xfe"]),
            (gen, "CAST(? AS TEXT)", b"\xc3\x28"),
            # The deflated mark and no whole stream: no stream at all, one cut
            # short, one followed by a byte more, and one whose first block
            # has the reserved type, which zlib.error reports. A stream that
            # inflates to no UTF-8.
            *((gen, "?", value) for value in [b"\xff", deflated[:-1], deflated + b"\x00",
                                              b"\xff\x07", deflate(b"\xc3")]),
            # A score cut inside its header, and inside its first double.
            (score, "substr(value, 1, ?)", 2),
            (score, "substr(value, 1, ?)", 7),
            # A header that gives more doubles than follow it, and fewer.
            *((score, "?", header + struct.pack(f"<{n}d", *[-0.5] * n)) for n in (3, 5)),
            # One completion's doubles, as format 4 stored a score, and a
            # header of one completion: not the request's two.
            (score, "?", struct.pack("<2d", -0.5, -1.5)),
            (score, "?", b"\x01\x02" + struct.pack("<2d", -0.5, -1.5)),
            # Whole doubles that no valid score holds: NaN, positive, +inf.
            *((score, "?", header + struct.pack("<4d", -0.5, -1.5, -0.5, lp))
              for lp in (math.nan, 0.5, math.inf)),
            # Numbers, which SQLite stores as INTEGER or REAL and returns as
            # an int or a float, not bytes.
            *((req, "?", number) for req in (gen, score) for number in (5, -0.5)),
        ]
        calls = len(backend.calls)
        for req, new_value, arg in bad:
            store(req, new_value, arg)
            assert call(req) == answers[req]
            calls += calls_per_fetch[req]
            assert len(backend.calls) == calls
            # The refetched response replaced the bad row: the next call is a hit.
            assert call(req) == answers[req]
            assert len(backend.calls) == calls
        # -0.0 and -inf are log-probabilities, and replay as they are.
        store(score, "?", b"\x02\x01\x01" + struct.pack("<2d", -0.0, -math.inf))
        assert bits(call(score).scores) == bits(((-0.0,), (-math.inf,)))
        assert len(backend.calls) == calls

    def test_file_that_is_not_a_database_is_reported(self, tmp_path):
        path = tmp_path / CACHE_FILE
        path.write_bytes(random.Random(0).randbytes(5000))
        with pytest.raises(CacheCorruptError, match="move or delete") as exc_info:
            ResponseCache(tmp_path)
        assert str(path) in str(exc_info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == [CACHE_FILE]

    def test_a_failed_final_commit_still_closes_the_cache_and_the_backend(self, tmp_path,
                                                                            monkeypatch):
        class Closable(FakeBackend):
            closed = False

            def close(self):
                self.closed = True

        gw, backend = make_gateway(tmp_path, backend=Closable())
        gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))

        def fails(cache):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(ResponseCache, "_commit", fails)
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            gw.close()
        assert gw.cache._closed and backend.closed


def cache_key(i: int) -> bytes:
    return i.to_bytes(16, "big")


def cache_value(i: int) -> bytes:
    """A generation's stored value, as the cache returns it."""
    return ("v" * (i % 50) + str(i)).encode()


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
        "import json, os, sys, threading, time",
        "from evontree.gateway import ResponseCache",
        "print('opening', flush=True)",
        "cache = ResponseCache(sys.argv[1])",
        inspect.getsource(cache_key),
        inspect.getsource(cache_value),
        textwrap.dedent(body),
    ]), cache_dir)


def committed(cache_dir: Path) -> dict[bytes, bytes]:
    """The entries another connection sees in cache_dir's database, each
    value as bytes, as ResponseCache returns it."""
    with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
        db.text_factory = bytes
        return dict(db.execute("SELECT key, value FROM responses"))


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

    def test_a_failing_statement_rolls_back_the_open_transaction(self, tmp_path):
        cache = ResponseCache(tmp_path)
        try:
            cache.put(cache_key(0), cache_value(0))
            assert cache.put_many({cache_key(1): cache_value(1)}) is False
            with pytest.raises(sqlite3.IntegrityError, match="NOT NULL"):
                cache.put_many({cache_key(2): cache_value(2), cache_key(3): None})
            # Entry 1, added before the failing call and not yet committed,
            # went with it.
            assert [cache.get(cache_key(i)) for i in range(4)] == [cache_value(0)] + [None] * 3
            cache.put(cache_key(4), cache_value(4))
        finally:
            cache.close()
        assert committed(tmp_path) == {cache_key(i): cache_value(i) for i in (0, 4)}
        with closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)


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
            a.put(b"k1", b"from a")
            assert b.get(b"k1") == b"from a"
            b.put(b"k2", struct.pack("<d", -0.5))
            assert a.get(b"k2") == struct.pack("<d", -0.5)
            b.put(b"k1", b"replaced by b")
            assert a.get(b"k1") == b"replaced by b"
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


def deflate(data: bytes) -> bytes:
    """A deflated generation's stored value: a 0xff byte, then the raw
    deflate stream of data."""
    deflater = zlib.compressobj(wbits=-15)
    return b"\xff" + deflater.compress(data) + deflater.flush()


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCacheFormat:
    def test_new_file_starts_in_the_current_format(self, tmp_path):
        # No file yet, and a file of 0 bytes, which SQLite reads as empty.
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / CACHE_FILE).touch()
        for cache_dir in (tmp_path / "none", tmp_path / "empty"):
            ResponseCache(cache_dir).close()
            with closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db:
                assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
                assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)
                [(sql,)] = db.execute("SELECT sql FROM sqlite_master WHERE type = 'table'")
            assert sql == ("CREATE TABLE responses (key BLOB PRIMARY KEY, value BLOB NOT NULL) "
                           "WITHOUT ROWID")

    def test_unknown_format_is_refused_and_left_alone(self, tmp_path, caplog):
        # Formats 3, 4 and 5 are raised in place (the tests below), so the
        # format-2 file below is the newest one refused.
        assert CACHE_FORMAT == 6
        identity, request = FakeBackend().identity, prompts(1)[0]
        key = _cache_key(identity, "m1", "generate", request)
        body = json.dumps({"text": "cached", "finish_reason": "stop"})
        digest = canonical_digest(identity, "m1", "generate", request.to_body("m1"))
        score_digest = canonical_digest(identity, "m1", "score",
                                        single_score_body("p0", " True", "m1"))
        # Per kind of file: its user_version, whether it is in WAL mode, and
        # the statements that fill it. The first three are laid out as
        # earlier versions of evontree wrote them. Formats 0 and 1 hold whole
        # response bodies as JSON text, format 0 keyed by 64 hex digits and
        # format 1 by 32 bytes. Format 2 keys by 32 bytes too and holds a
        # generation's text as a JSON string and a score as packed doubles.
        kinds = {
            "format2": (2, True, [
                ("CREATE TABLE responses (key BLOB PRIMARY KEY, value BLOB NOT NULL) "
                 "WITHOUT ROWID", ()),
                ("INSERT INTO responses VALUES (?, ?)",
                 (digest, json.dumps("cached", ensure_ascii=False))),
                ("INSERT INTO responses VALUES (?, ?)",
                 (score_digest, struct.pack("<2d", -0.5, -1.5)))]),
            "format0-text-keys": (0, True, [
                ("CREATE TABLE responses (key TEXT PRIMARY KEY, value TEXT NOT NULL) "
                 "WITHOUT ROWID", ()),
                ("INSERT INTO responses VALUES (?, ?)", (key.hex(), body))]),
            "format1": (1, True, [
                ("CREATE TABLE responses (key BLOB PRIMARY KEY, value TEXT NOT NULL) "
                 "WITHOUT ROWID", ()),
                ("INSERT INTO responses VALUES (?, ?)", (key, body))]),
            "next-format": (CACHE_FORMAT + 1, False, []),
            "format0-other-table": (0, False, [
                ("CREATE TABLE notes (note TEXT)", ()),
                ("INSERT INTO notes VALUES ('not a cache')", ())]),
        }
        for name, (version, wal, statements) in kinds.items():
            cache_dir = tmp_path / name
            cache_dir.mkdir()
            path = cache_dir / CACHE_FILE
            with closing(sqlite3.connect(path)) as db:
                if wal:
                    db.execute("PRAGMA journal_mode=WAL")
                with db:
                    for sql, args in statements:
                        db.execute(sql, args)
                db.execute(f"PRAGMA user_version = {version}")
            before = sha256_of(path)
            with pytest.raises(CacheCorruptError, match="move or delete") as exc_info:
                ResponseCache(cache_dir)
            assert (f"{path} has format {version}, which this version of evontree "
                    f"(format {CACHE_FORMAT}) cannot read") in str(exc_info.value), name
            # Through the CLI, with the artifacts in a directory of their own.
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({
                "model": {"kind": "synthetic"}, "extraction": {"roots": ["T0N0"]},
                "output": {"dir": str(tmp_path / f"{name}-out"), "cache_dir": str(cache_dir)}}))
            caplog.clear()
            assert cli_main(["extract", "--config", str(config)]) == 1, name
            assert f"{path} has format {version}," in caplog.text, name
            assert sha256_of(path) == before, name
            assert sorted(p.name for p in cache_dir.iterdir()) == [CACHE_FILE], name
            with closing(sqlite3.connect(path)) as db:
                assert db.execute("PRAGMA user_version").fetchone() == (version,), name

    def test_format_3_file_is_read_in_place_and_raised_to_the_current_format(self, tmp_path):
        self.check_raised_in_place(tmp_path, 3)

    def test_format_4_file_is_raised_in_place_and_its_scores_fetched_again(self, tmp_path):
        self.check_raised_in_place(tmp_path, 4)

    @staticmethod
    def check_raised_in_place(tmp_path, version):
        # Laid out as formats 3 and 4 were: 16-byte keys, a generation as its
        # UTF-8 bytes (deflated by format 4 when long and shorter so), and
        # each scored completion under its own key as packed doubles.
        identity = FakeBackend().identity
        gens = [GenerateRequest(prompt=f"p{i}", max_tokens=4, temperature=0.0) for i in (0, 1)]
        texts = ["Mammal subsumes Primate; " * 4, "short"]
        assert len(texts[0].encode()) > DEFLATE_MIN_BYTES
        stored_texts = [texts[0].encode() if version == 3 else deflate(texts[0].encode()),
                        texts[1].encode()]
        score = ScoreRequest(prompt="p", completions=PAIR)
        old_score_keys = [canonical_digest(identity, "m1", "score",
                                           single_score_body("p", completion, "m1"))[:16]
                          for completion in PAIR]
        path = tmp_path / "cache" / CACHE_FILE
        path.parent.mkdir()
        with closing(sqlite3.connect(path)) as db:
            db.execute("PRAGMA journal_mode=WAL")
            with db:
                db.execute("CREATE TABLE responses (key BLOB PRIMARY KEY, value BLOB NOT NULL) "
                           "WITHOUT ROWID")
                db.executemany("INSERT INTO responses VALUES (?, ?)", [
                    *((_cache_key(identity, "m1", "generate", gen), value)
                      for gen, value in zip(gens, stored_texts)),
                    *((key, struct.pack("<2d", -0.25, -0.75)) for key in old_score_keys)])
            db.execute(f"PRAGMA user_version = {version}")

        def rows():
            with closing(sqlite3.connect(path)) as db:
                return db.execute("SELECT key, typeof(value), value FROM responses "
                                  "ORDER BY key").fetchall()

        before = rows()
        gw, backend = make_gateway(tmp_path)
        try:
            # The generations are hits; the pair is a miss, one call per
            # completion, as no row is keyed by it.
            assert list(gw.generate_many(gens)) == texts
            assert gw.score(score) == Scored(((-0.5, -1.5), (-0.5, -1.5)), None)
        finally:
            gw.close()
        assert [(kind, body["completion"]) for kind, body in backend.calls] == [
            ("score", completion) for completion in PAIR]
        assert gw.counters()["cache_hits"] == 2
        # No row rewritten: the old score rows stay, unread, beside the new pair.
        after = rows()
        assert set(before) < set(after) and len(after) == len(before) + 1
        with closing(sqlite3.connect(path)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)


    def test_format_5_file_is_raised_in_place_and_its_probes_fetched_again(self, tmp_path):
        # Laid out as format 5 was: a generation as its UTF-8 bytes, a score
        # request's pair as one value under its key, and a calibration probe
        # as two rows, its pair under that pair's key and its one-shot label
        # under the key of the generation that asked for it.
        identity = FakeBackend().identity
        gen = GenerateRequest(prompt="tree?", max_tokens=4, temperature=0.0)
        pair = ScoreRequest(prompt="extrapolated. Answer:", completions=PAIR)
        probe = ScoreRequest(prompt="raw. Answer:", completions=PAIR,
                             answer_tokens=ANSWER_TOKENS)
        stored_pair = _packed_scores(((-0.25,), (-0.75,)))
        path = tmp_path / "cache" / CACHE_FILE
        path.parent.mkdir()
        with closing(sqlite3.connect(path)) as db:
            db.execute("PRAGMA journal_mode=WAL")
            with db:
                db.execute("CREATE TABLE responses (key BLOB PRIMARY KEY, value BLOB NOT NULL) "
                           "WITHOUT ROWID")
                db.executemany("INSERT INTO responses VALUES (?, ?)", [
                    (_cache_key(identity, "m1", "generate", gen), b"short"),
                    (_cache_key(identity, "m1", "score", pair), stored_pair),
                    (_cache_key(identity, "m1", "score", ScoreRequest(probe.prompt, PAIR)),
                     stored_pair),
                    (_cache_key(identity, "m1", "generate", probe.answer_request()), b"True")])
            db.execute("PRAGMA user_version = 5")
            before = set(db.execute("SELECT key, value FROM responses"))
        gw, backend = make_gateway(tmp_path)
        try:
            # The generation and the extrapolate pair are hits; the probe is
            # a miss, a call per completion and one for its answer.
            assert list(gw.generate_many([gen])) == ["short"]
            assert gw.score(pair) == Scored(((-0.25,), (-0.75,)), None)
            assert gw.score(probe) == Scored(((-0.5, -1.5),) * 2, "gen:raw. Answer:")
        finally:
            gw.close()
        assert backend.calls == [
            *(("score", body) for body in probe.to_bodies("m1")),
            ("generate", {"model": "m1", "prompt": "raw. Answer:", "max_tokens": 8,
                          "temperature": 0.0, "stop": []})]
        assert gw.counters()["cache_hits"] == 2
        # No row rewritten: the probe's old rows stay, unread, beside its new one.
        with closing(sqlite3.connect(path)) as db:
            after = set(db.execute("SELECT key, value FROM responses"))
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_FORMAT,)
        assert before < after and len(after) == len(before) + 1


class CountingBackend(FakeBackend):
    """Answers the nth ask of a prompt, counting from 0, with "prompt#n"."""

    def generate(self, body):
        self.calls.append(("generate", body))
        asked = sum(called["prompt"] == body["prompt"] for _, called in self.calls)
        return {"text": f"{body['prompt']}#{asked - 1}"}


def refuse(text: str) -> str:
    raise UnparseableError(f"refused {text}")


class TestGenerateRead:
    def test_a_refused_answer_is_asked_again_with_the_cache_bypassed(self, tmp_path):
        gw, backend = make_gateway(tmp_path, backend=CountingBackend())
        request = prompts(1)[0]
        assert list(gw.generate_many([request])) == ["p0#0"]
        [result] = gw.generate_read([(request, refuse)])
        assert isinstance(result, UnparseableError)
        assert str(result) == f"refused p0#{ASK_ATTEMPTS - 1}"
        # The first ask read the cached answer; each later one asked the backend.
        assert gw.cache_hits == 1
        assert len(backend.calls) == ASK_ATTEMPTS
        gw.close()

    def test_the_accepted_answer_replaces_the_cached_one(self, tmp_path):
        def accept_a_second_answer(text: str) -> str:
            if text.endswith("#0"):
                refuse(text)
            return text.upper()

        gw, backend = make_gateway(tmp_path, backend=CountingBackend())
        request = prompts(1)[0]
        list(gw.generate_many([request]))
        assert gw.generate_read([(request, accept_a_second_answer)]) == ["P0#1"]
        assert len(backend.calls) == 2
        gw.close()
        fresh, fresh_backend = make_gateway(tmp_path, backend=CountingBackend())
        assert list(fresh.generate_many([request])) == ["p0#1"]
        assert fresh_backend.calls == []
        fresh.close()

    def test_another_error_of_a_reader_propagates(self, tmp_path):
        def invalid(text: str) -> str:
            raise InvalidParamsError(f"no refusal: {text}")

        gw, backend = make_gateway(tmp_path, backend=CountingBackend())
        with pytest.raises(InvalidParamsError, match="no refusal: p0#0"):
            gw.generate_read([(prompts(1)[0], invalid)])
        assert len(backend.calls) == 1  # not asked again
        gw.close()


class TestRetry:
    def test_recovers_after_transient_failures(self, tmp_path, full_backoff):
        delays = []
        backend = FakeBackend(failures=2)
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path,
                          sleep=delays.append)
        assert gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0)) == "gen:x"
        assert len(backend.calls) == 3
        assert delays == list(RETRY_BACKOFF_S)
        assert gw.retries == 2 and gw.calls == 1

    def test_each_wait_is_a_draw_within_its_backoff_step(self, tmp_path):
        class FailsTwiceEach(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                if sum(b["prompt"] == body["prompt"] for _, b in self.calls) <= 2:
                    raise TransportError("scripted failure")
                return {"text": f"gen:{body['prompt']}"}

        delays = []
        gw = ModelGateway(FailsTwiceEach(), model="m1", cache_dir=tmp_path, sleep=delays.append)
        assert list(gw.generate_many(prompts(50))) == [f"gen:p{i}" for i in range(50)]
        gw.close()
        assert len(delays) == 100  # each prompt's two waits, in order
        assert all(0.0 <= d <= RETRY_BACKOFF_S[0] for d in delays[::2])
        assert all(0.0 <= d <= RETRY_BACKOFF_S[1] for d in delays[1::2])
        assert len(set(delays)) > 2  # drawn, not fixed

    def test_gives_up_after_three_attempts(self, tmp_path):
        backend = FakeBackend(failures=10)
        gw = ModelGateway(backend, model="m1", cache_dir=tmp_path,
                          sleep=lambda s: None)
        with pytest.raises(TransportError):
            gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
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

    def test_retries_on_more_threads_than_cores_are_all_counted(self, tmp_path):
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
        gw = ModelGateway(FailsTwiceHttp(), model="m1", cache_dir=tmp_path,
                          sleep=lambda s: None,
                          max_in_flight=(os.cpu_count() or 1) + 4)
        results = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            runner = threading.Thread(
                target=lambda: results.append(list(gw.generate_many(prompts(n)))), daemon=True)
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
    def test_a_stream_is_sent_a_batch_at_a_time_as_it_is_read(self, tmp_path):
        def endless():
            for i in itertools.count():
                # A gateway that read the stream to its end would never stop.
                assert i < 4 * BATCH_SIZE, "read far ahead of the results"
                yield ScoreRequest(prompt=f"p{i}", completions=PAIR)

        gw, backend = make_gateway(tmp_path)
        requests = endless()
        results = gw.score_many(requests)
        assert backend.calls == []  # nothing is sent before the first read
        next(results)
        # Two calls per request, one per completion.
        assert len(backend.calls) == 2 * BATCH_SIZE
        assert len(list(itertools.islice(results, BATCH_SIZE - 1))) == BATCH_SIZE - 1
        assert len(backend.calls) == 2 * BATCH_SIZE  # the first batch's results, all read
        next(results)
        assert len(backend.calls) == 4 * BATCH_SIZE
        # The stream was read no further than the batches sent.
        assert next(requests).prompt == f"p{2 * BATCH_SIZE}"
        gw.close()

    def test_transport_error_keeps_the_responses_fetched_before_it(self, tmp_path):
        class FailsOnP3(FakeBackend):
            def generate(self, body):
                self.calls.append(("generate", body))
                if body["prompt"] == "p3":
                    raise TransportError("scripted failure")
                return {"text": f"gen:{body['prompt']}"}

        gw, backend = make_gateway(tmp_path, backend=FailsOnP3())
        with pytest.raises(TransportError):
            list(gw.generate_many(prompts(6)))
        assert [body["prompt"] for _, body in backend.calls] == ["p0", "p1", "p2"] + ["p3"] * 3
        assert gw.calls == 3 and gw.cache_commits == 1
        gw.close()
        fresh, fresh_backend = make_gateway(tmp_path)
        assert list(fresh.generate_many(prompts(3))) == ["gen:p0", "gen:p1", "gen:p2"]
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
                          sleep=lambda s: None, max_in_flight=4)
        with pytest.raises(TransportError):
            list(gw.generate_many(prompts(40)))
        gw.close()
        assert "p0" in backend.answered and gw.calls == len(backend.answered)
        # Every answer that arrived before the failure was raised is stored.
        cache = ResponseCache(tmp_path / "cache")
        try:
            for i in range(40):
                key = _cache_key(backend.identity, "m1", "generate", prompts(40)[i])
                stored = cache.get(key)
                assert (stored is not None) == (f"p{i}" in backend.answered), i
        finally:
            cache.close()

    @pytest.mark.parametrize("read_cache", [True, False])
    def test_duplicates_reach_the_backend_once_and_count_once(self, tmp_path, read_cache):
        gw, backend = make_gateway(tmp_path, read_cache=read_cache)
        a, b = prompts(2)
        assert list(gw.generate_many([a, b, a, a])) == ["gen:p0", "gen:p1", "gen:p0", "gen:p0"]
        assert [body["prompt"] for _, body in backend.calls] == ["p0", "p1"]
        gw.commit()
        assert gw.counters() == {"requests": 4, "cache_hits": 2, "backend_calls": 2,
                                 "cache_commits": 1, "retries": 0}
        assert list(gw.generate_many([b, b])) == ["gen:p1", "gen:p1"]
        if read_cache:
            # Once stored, a repeated key is one lookup and counts as hits only.
            assert len(backend.calls) == 2
            assert gw.counters() == {"requests": 6, "cache_hits": 4, "backend_calls": 2,
                                     "cache_commits": 1, "retries": 0}
        else:
            # Not read, it is fetched again, once for the batch.
            assert len(backend.calls) == 3
            assert gw.counters() == {"requests": 6, "cache_hits": 3, "backend_calls": 3,
                                     "cache_commits": 1, "retries": 0}
        gw.close()

    def test_batch_is_one_lookup_and_one_commit(self, tmp_path):
        gw, backend = make_gateway(tmp_path)
        statements = []
        gw.cache._conn.set_trace_callback(statements.append)
        list(gw.generate_many(prompts(BATCH_SIZE + 1)))
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

    def test_a_backend_declared_remote_fans_out_and_commits_each_batch(self, tmp_path):
        class Remote(FakeBackend):
            remote = True

            def __init__(self):
                super().__init__()
                self.threads = set()
                self.together = threading.Barrier(2, timeout=10)

            def generate(self, body):
                self.threads.add(threading.get_ident())
                if body["prompt"] in ("p0", "p1"):
                    self.together.wait()  # both in flight at once, or BrokenBarrierError
                return super().generate(body)

        gw, backend = make_gateway(tmp_path, backend=Remote(), max_in_flight=4)
        try:
            texts = list(gw.generate_many(prompts(BATCH_SIZE + 1)))
            assert len(committed(tmp_path / "cache")) == BATCH_SIZE + 1
        finally:
            gw.close()
        assert texts == [f"gen:p{i}" for i in range(BATCH_SIZE + 1)]
        assert len(backend.threads) >= 2
        assert gw.calls == BATCH_SIZE + 1
        assert gw.cache_commits == 2  # one per batch

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
                          sleep=lambda s: None, max_in_flight=4)
        try:
            texts = list(gw.generate_many(prompts(BATCH_SIZE + 1)))
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
            ScoreRequest(prompt=f"p{i}", completions=PAIR) for i in range(4)]

        def call(gw):
            return list((gw.generate_many if kind == "generate" else gw.score_many)(requests))

        gw, backend = make_gateway(tmp_path, backend=WrongShapeOnP2())
        with pytest.raises(ProtocolError):
            call(gw)
        # p0 and p1 whole, a call per completion of a score, then p2's first.
        assert gw.calls == (3 if kind == "generate" else 5) and gw.cache_commits == 1
        gw.close()
        # A rerun on the same cache gets p0 and p1 from it, and asks the
        # backend for the malformed p2 again instead of replaying it.
        again, again_backend = make_gateway(tmp_path, backend=WrongShapeOnP2())
        with pytest.raises(ProtocolError):
            call(again)
        assert [body["prompt"] for _, body in again_backend.calls] == ["p2"]
        again.close()
        p0, p1, bad_key, _ = [_cache_key(backend.identity, "m1", kind, r) for r in requests]
        with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as conn:
            stored = {key for (key,) in conn.execute("SELECT key FROM responses")}
        assert len(stored) == 2 and bad_key not in stored
        assert stored == {p0, p1}

    def test_empty_span_response_is_cached_and_replayed(self, tmp_path):
        class EmptyBackend(FakeBackend):
            def score(self, body):
                self.calls.append(("score", body))
                return {"token_logprobs": []}

        request = ScoreRequest(prompt="p", completions=PAIR)
        gw, _ = make_gateway(tmp_path, backend=EmptyBackend())
        [first] = gw.score_many([request])
        gw.close()
        assert first == Scored(((), ()), None) and gw.cache_commits == 1
        again, again_backend = make_gateway(tmp_path, backend=EmptyBackend())
        [second] = again.score_many([request])
        assert second == Scored(((), ()), None)
        assert again_backend.calls == [] and again.cache_hits == 1
        again.close()

    @pytest.mark.parametrize("failure", [TransportError, ProtocolError])
    def test_a_failure_on_the_second_completion_stores_nothing(self, tmp_path, failure):
        class FailsOnFalse(FakeBackend):
            failing = True

            def score(self, body):
                answer = super().score(body)
                if self.failing and body["completion"] == " False":
                    if failure is TransportError:
                        raise TransportError("scripted failure")
                    return {"wrong": "shape"}
                return answer

        request = ScoreRequest(prompt="p", completions=PAIR)
        gw, backend = make_gateway(tmp_path, backend=FailsOnFalse())
        with pytest.raises(failure):
            gw.score(request)
        gw.close()
        # " True" once, then " False" until it fails for good.
        tries = RETRY_ATTEMPTS if failure is TransportError else 1
        assert [body["completion"] for _, body in backend.calls] == [" True"] + [" False"] * tries
        assert gw.calls == 1 + (failure is ProtocolError)  # the responses that came back
        assert gw.cache_hits == 0 and committed(tmp_path / "cache") == {}
        # The rerun asks for both completions, and stores the pair.
        again, again_backend = make_gateway(tmp_path, backend=FailsOnFalse())
        again_backend.failing = False
        try:
            assert again.score(request) == Scored(((-0.5, -1.5), (-0.5, -1.5)), None)
        finally:
            again.close()
        assert [body["completion"] for _, body in again_backend.calls] == list(PAIR)
        assert list(committed(tmp_path / "cache")) == [
            _cache_key(backend.identity, "m1", "score", request)]


    @pytest.mark.parametrize("failure", [TransportError, ProtocolError])
    def test_a_failure_on_a_probes_answer_stores_nothing(self, tmp_path, failure):
        class FailsOnAnswer(FakeBackend):
            failing = True

            def generate(self, body):
                answer = super().generate(body)
                if self.failing:
                    if failure is TransportError:
                        raise TransportError("scripted failure")
                    return {"wrong": "shape"}
                return answer

        probe = ScoreRequest(prompt="p", completions=PAIR, answer_tokens=ANSWER_TOKENS)
        gw, backend = make_gateway(tmp_path, backend=FailsOnAnswer())
        with pytest.raises(failure):
            gw.score(probe)
        gw.close()
        # " True", " False", then the answer until it fails for good.
        tries = RETRY_ATTEMPTS if failure is TransportError else 1
        assert [kind for kind, _ in backend.calls] == ["score", "score"] + ["generate"] * tries
        assert gw.calls == 2 + (failure is ProtocolError)  # the responses that came back
        assert gw.cache_hits == 0 and committed(tmp_path / "cache") == {}
        # The rerun asks for all three replies, and stores the probe as one row.
        again, again_backend = make_gateway(tmp_path, backend=FailsOnAnswer())
        again_backend.failing = False
        try:
            assert again.score(probe) == Scored(((-0.5, -1.5),) * 2, "gen:p")
        finally:
            again.close()
        assert [kind for kind, _ in again_backend.calls] == ["score", "score", "generate"]
        assert committed(tmp_path / "cache") == {
            _cache_key(backend.identity, "m1", "score", probe):
                _packed_scores(((-0.5, -1.5),) * 2) + b"gen:p"}


class TestScoreValidation:
    def test_positive_logprob_rejected(self, tmp_path):
        class PosBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": [-0.5, 0.25]}

        gw, _ = make_gateway(tmp_path, backend=PosBackend())
        with pytest.raises(ProtocolError):
            gw.score(ScoreRequest(prompt="p", completions=PAIR))

    def test_zero_logprob_allowed(self, tmp_path):
        class ZeroBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": [0.0, -1.0]}

        gw, _ = make_gateway(tmp_path, backend=ZeroBackend())
        assert gw.score(ScoreRequest(prompt="p", completions=PAIR)) == Scored(
            ((0.0, -1.0),) * 2, None)

    def test_non_numeric_logprob_rejected(self, tmp_path):
        class StrBackend(FakeBackend):
            def score(self, body):
                return {"token_logprobs": ["-0.5"]}

        gw, _ = make_gateway(tmp_path, backend=StrBackend())
        with pytest.raises(ProtocolError):
            gw.score(ScoreRequest(prompt="p", completions=PAIR))

    @pytest.mark.parametrize("logprob, message", [
        ("false", "non-numeric logprob False"),
        ("true", "non-numeric logprob True"),
        ("NaN", "logprob NaN is not a number"),
        ("-1" + "0" * 400, "logprob -1000.* is beyond float range"),
    ], ids=["false", "true", "nan", "int_beyond_float_range"])
    def test_logprob_that_is_not_a_real_number_rejected(self, tmp_path, logprob, message):
        # Each body as Python's json reads it from an HTTP reply.
        class JsonBackend(FakeBackend):
            def score(self, body):
                self.calls.append(("score", body))
                return json.loads(f'{{"token_logprobs": [-0.5, {logprob}]}}')

        gw, backend = make_gateway(tmp_path, backend=JsonBackend())
        with pytest.raises(ProtocolError, match=message):
            gw.score(ScoreRequest(prompt="p", completions=PAIR))
        gw.close()
        assert len(backend.calls) == 1  # not retried, nor the second completion sent
        assert committed(tmp_path / "cache") == {}  # nor cached


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
                          cache_dir=tmp_path, sleep=lambda s: None)
        text = gw.generate(GenerateRequest(prompt="hi", max_tokens=16, temperature=0.7,
                                           stop=("\n\n",)))
        assert text == "ok"
        path, body = _WireHandler.seen[0]
        assert path == "/v1/generate"
        assert body == {"model": "med-model", "prompt": "hi",
                        "max_tokens": 16, "temperature": 0.7, "stop": ["\n\n"]}

    def test_generate_body_always_carries_stop_list(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, sleep=lambda s: None)
        gw.generate(GenerateRequest(prompt="hi", max_tokens=16, temperature=0.0))
        _, body = _WireHandler.seen[0]
        assert body["stop"] == []
        assert set(body) == {"model", "prompt", "max_tokens", "temperature", "stop"}

    def test_score_posts_expected_body(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, sleep=lambda s: None)
        resp = gw.score(ScoreRequest(prompt="statement. Answer:", completions=PAIR))
        assert resp == Scored(((-0.1, -0.2, -0.3),) * 2, None)
        # One POST per completion, in order, each body as before pairs.
        assert _WireHandler.seen == [
            ("/v1/score", {"model": "med-model", "prompt": "statement. Answer:",
                           "completion": completion}) for completion in PAIR]

    def test_probe_posts_its_scores_then_its_answer(self, wire_server, tmp_path):
        gw = ModelGateway(HttpBackend(wire_server), model="med-model",
                          cache_dir=tmp_path, sleep=lambda s: None)
        probe = ScoreRequest(prompt="statement. Answer:", completions=PAIR,
                             answer_tokens=ANSWER_TOKENS)
        try:
            assert gw.score(probe) == Scored(((-0.1, -0.2, -0.3),) * 2, "ok")
        finally:
            gw.close()
        # The score POSTs as for a pair, then the generation a one-shot
        # label has always been asked with.
        assert _WireHandler.seen == [
            *(("/v1/score", {"model": "med-model", "prompt": "statement. Answer:",
                             "completion": completion}) for completion in PAIR),
            ("/v1/generate", {"model": "med-model", "prompt": "statement. Answer:",
                              "max_tokens": 8, "temperature": 0.0, "stop": []})]

    def test_http_404_is_protocol_error_tried_once_and_not_cached(self, wire_server, tmp_path):
        # _WireHandler answers 404 on any path but the two routes.
        gw = ModelGateway(HttpBackend(f"{wire_server}/nowhere"), model="m",
                          cache_dir=tmp_path, sleep=lambda s: None)
        try:
            with pytest.raises(ProtocolError, match=r"/nowhere/v1/generate returned 404"):
                gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        finally:
            gw.close()
        assert [path for path, _ in _WireHandler.seen] == ["/nowhere/v1/generate"]
        assert gw.retries == 0 and committed(tmp_path) == {}

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
                              sleep=lambda s: None)
            with pytest.raises(TransportError):
                gw.generate(GenerateRequest(prompt="x", max_tokens=4, temperature=0.0))
        finally:
            server.shutdown()
            server.server_close()

    def test_http_429_is_retried(self, tmp_path, full_backoff):
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
                              sleep=delays.append)
            assert gw.generate(GenerateRequest(prompt="x", max_tokens=4,
                                               temperature=0.0)) == "ok"
            assert statuses == []
            assert delays == [RETRY_BACKOFF_S[0]]
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
        if isinstance(fault, tuple):  # (status, its Retry-After or None), no body
            status, retry_after = fault
            self.send_response(status)
            if retry_after is not None:
                self.send_header("Retry-After", retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
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
                          cache_dir=tmp_path / "cache", sleep=delays.append, **kw)
        gw.delays = delays
        made.append(gw)
        return gw

    yield make
    for gw in made:
        gw.close()


def stored_responses(gw: ModelGateway) -> dict[bytes, bytes]:
    """Every committed entry of the gateway's cache database, as stored."""
    return committed(gw.cache.cache_dir)


def echoed(gw: ModelGateway, requests: list[GenerateRequest]) -> dict[bytes, bytes]:
    """The cache entries the echo server's answers to requests make: each
    generated text as its plain UTF-8 bytes, as the prompts these tests send
    echo to no more than DEFLATE_MIN_BYTES."""
    return {_cache_key(gw.backend.identity, gw.model, "generate", r):
            f"echo:{r.prompt}".encode() for r in requests}


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
    def test_failed_reply_is_retried_then_raises(self, fault_server, http_gateway, fault,
                                                 full_backoff):
        # Slow: each attempt's reply comes after timeout_s. Truncated: the
        # body ends before its Content-Length.
        gw = http_gateway(timeout_s=0.1)
        fault_server.faults = [fault] * RETRY_ATTEMPTS
        [first, second] = prompts(2)
        with pytest.raises(TransportError):
            gw.generate(first)
        assert len(fault_server.seen) == RETRY_ATTEMPTS
        assert gw.delays == list(RETRY_BACKOFF_S)
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

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_in_seconds_is_waited_for(self, fault_server, http_gateway, status):
        gw = http_gateway()
        fault_server.faults = [(status, "2")]
        [first] = prompts(1)
        assert gw.generate(first) == "echo:p0"
        assert len(fault_server.seen) == 2 and gw.delays == [2.0]
        assert stored_responses(gw) == echoed(gw, [first])

    def test_a_long_retry_after_is_capped(self, fault_server, http_gateway):
        gw = http_gateway()
        fault_server.faults = [(503, "3600")]
        assert gw.generate(prompts(1)[0]) == "echo:p0"
        assert gw.delays == [RETRY_AFTER_MAX_S] == [60.0]

    @pytest.mark.parametrize("status, retry_after", [
        (429, "Wed, 21 Oct 2015 07:28:00 GMT"),  # an HTTP-date
        (503, None),
        (500, "2"),  # only a 429 or 503 says when to come back
        (429, "1.5"),  # not delay-seconds
    ])
    def test_without_retry_after_in_seconds_the_wait_is_drawn(
            self, fault_server, http_gateway, monkeypatch, status, retry_after):
        draws = []
        monkeypatch.setattr(_JITTER, "uniform", lambda lo, hi: draws.append((lo, hi)) or hi / 4)
        gw = http_gateway()
        fault_server.faults = [(status, retry_after), (status, retry_after)]
        assert gw.generate(prompts(1)[0]) == "echo:p0"
        assert draws == [(0.0, RETRY_BACKOFF_S[0]), (0.0, RETRY_BACKOFF_S[1])]
        assert gw.delays == [RETRY_BACKOFF_S[0] / 4, RETRY_BACKOFF_S[1] / 4]

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
                result["texts"] = list(gw.generate_many(requests))

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
        list(gw.generate_many(prompts(40)))  # fanned out over the pool's threads
        assert fault_server.opened >= 2 and fault_server.closed == 0
        gw.close()
        assert fault_server.wait_all_closed()
