"""One pipeline run in a fresh process, timed from inside that process.

    python3 perfbench/worker.py <job.json>

The job file holds the run config and whether to trace. The worker times
its set-up (importing evontree, loading the config, sampling the ground
truth) apart from the run itself (`run_all`), and writes `result.json`
next to the job file: both times, peak RSS, gateway counters, and with
tracing on the per-layer metrics and span table. A run that raises is
reported in the result, not by the exit status, so the parent can count it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from evontree.config import parse_config  # noqa: E402
from evontree.errors import ProtocolError, TransportError  # noqa: E402
from evontree.pipeline import RunContext, run_all  # noqa: E402

import spans as tracing  # noqa: E402


class TransportFailures(logging.Handler):
    """Counts the retried transport failures the gateway logs, so request
    errors are known without wrapping anything in an untraced run."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("transport failure"):
            self.count += 1


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    failures = TransportFailures()
    logging.getLogger("evontree.gateway").addHandler(failures)

    ctx = RunContext(parse_config(job["config"], base_dir=job_path.parent))
    if ctx.config.model.kind == "synthetic":
        ctx.ground_truth()
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.perf_counter()
    usage_ready = resource.getrusage(resource.RUSAGE_SELF)

    error, final_failure = None, False
    try:
        run_all(ctx)
    except Exception as exc:  # any failure is this run's result, not the worker's
        error = f"{type(exc).__name__}: {exc}"
        # A run that dies on a gateway error ends with a failure it did not retry.
        final_failure = isinstance(exc, (TransportError, ProtocolError))
    finished = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    gateway = ctx.gateway()
    result = {
        "error": error,
        "setup_s": ready - STARTED,
        "run_s": finished - ready,
        "user_s": usage.ru_utime - usage_ready.ru_utime,
        "sys_s": usage.ru_stime - usage_ready.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "requests_ok": gateway.calls + gateway.cache_hits,
        "request_errors": failures.count + final_failure,
    }
    if tracer is not None:
        result["layers"], result["spans"] = tracing.summarize(tracer)
    (job_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
