"""Loopback model server: SyntheticModel behind the HTTP wire protocol that
evontree's HttpBackend speaks (POST /v1/generate and /v1/score).

Run as a child process by the benchmark:

    python3 perfbench/loopback.py --depth=3 --branching=3 --n-roots=3 --seed=42 ...

It binds 127.0.0.1 on a free port and prints `READY <port>` once it accepts
connections. It stops when its standard input closes, then prints its
counters as one JSON line. Keep-alive (HTTP/1.1) and TCP_NODELAY are both
needed: with Nagle's algorithm on, every small response waits on the
client's delayed ACK, which made one b=7 run take 304 s instead of 27 s.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evontree.synthetic import NoiseProfile, SyntheticModel, sample_ground_truth  # noqa: E402


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.handle_s = 0.0
        self.bytes_out = 0

    def add(self, ok: bool, seconds: float, nbytes: int) -> None:
        with self.lock:
            self.requests += 1
            self.errors += not ok
            self.handle_s += seconds
            self.bytes_out += nbytes

    def to_json_obj(self) -> dict:
        with self.lock:
            return {"loopback.requests": self.requests, "loopback.errors": self.errors,
                    "loopback.handle_s": self.handle_s, "loopback.bytes_out": self.bytes_out}


def make_handler(model: SyntheticModel, counters: Counters) -> type[BaseHTTPRequestHandler]:
    routes = {
        "/v1/generate": lambda body: {"text": model.respond_generate(body)},
        "/v1/score": lambda body: {"token_logprobs": model.respond_score(body)},
    }

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def do_POST(self) -> None:
            started = time.perf_counter()
            status, payload = 200, b""
            try:
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                route = routes.get(self.path)
                if route is None:
                    status, payload = 404, b'{"error": "no such route"}'
                else:
                    payload = json.dumps(route(body)).encode("utf-8")
            except Exception as exc:  # a failed request must not stop the server
                status = 500
                payload = json.dumps({"error": repr(exc)}).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            counters.add(status == 200, time.perf_counter() - started, len(payload))

        def log_message(self, format, *args) -> None:
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--branching", type=int, required=True)
    parser.add_argument("--n-roots", type=int, required=True)
    parser.add_argument("--synonym-rate", type=float, required=True)
    parser.add_argument("--hallucination-rate", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    gt = sample_ground_truth(depth=args.depth, branching=args.branching,
                             n_roots=args.n_roots, synonym_rate=args.synonym_rate,
                             seed=args.seed)
    model = SyntheticModel(gt, NoiseProfile(), seed=args.seed,
                           hallucination_rate=args.hallucination_rate)
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, counters))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(f"READY {server.server_address[1]}", flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    print(json.dumps(counters.to_json_obj()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
