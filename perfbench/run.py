"""Benchmark of the evontree pipeline: the full `run` (extract through
report) on a synthetic ontology, cold, warm, and over loopback HTTP.

    python3 perfbench/run.py --workload cold-inproc --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one table row each

Run it from the root of an evontree checkout; it needs nothing installed,
as it imports evontree from `src/`. Each pipeline run happens in a fresh
worker process (`worker.py`) inside a fresh directory under
`.perfbench_tmp/`; all of an invocation's directories are deleted together
at its end. One untimed warm-up run goes first. Timed runs then repeat
until `--seconds` have passed, and the figures are medians over them. Every
run's outputs are checked (`check.py`); a run that fails its check counts
as failed and makes the exit status 1. With `--trace 1` one more run is
traced (`spans.py`) and the per-layer metrics come from it.

With --workload, the last line of standard output is one JSON object:
`correct`, `attempted` and `failed` runs, and the metrics BENCHMARK.json
names for the chosen trace mode. Workload parameters, pinned digests and
the reasons behind both are in `setup.json` beside this file. It defines
one workload more than BENCHMARK.json lists: cold-http, the pipeline
against a loopback HTTP model server. It runs by name and in the table,
but its speed follows the shared host too closely to hold a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
WORKER = HERE / "worker.py"
LOOPBACK = HERE / "loopback.py"
DEADLINE_S = 165.0  # the whole invocation must end within 180 s
READY_TIMEOUT_S = 30.0

sys.path.insert(0, str(HERE))

from check import Truth, check_run  # noqa: E402


class PreflightError(Exception):
    """The benchmark cannot be set up here; no result is printed."""


def preflight() -> tuple[dict, dict]:
    """Fail fast, before any run, if evontree cannot be imported from this
    checkout's src/, the scratch directory cannot be made, or the
    benchmark's own files are missing."""
    if not (SRC / "evontree" / "__init__.py").is_file():
        raise PreflightError(f"no evontree sources at {SRC / 'evontree'}; "
                             "run from the root of an evontree checkout")
    sys.path.insert(0, str(SRC))
    try:
        import evontree
    except ImportError as exc:
        raise PreflightError(f"cannot import evontree from {SRC}: {exc}") from exc
    if Path(evontree.__file__).resolve().parent != (SRC / "evontree").resolve():
        raise PreflightError(f"imported evontree from {evontree.__file__}, not {SRC}")
    try:
        TMP_ROOT.mkdir(exist_ok=True)
        os.rmdir(tempfile.mkdtemp(dir=TMP_ROOT))
    except OSError as exc:
        raise PreflightError(f"cannot make scratch directories under {TMP_ROOT}: {exc}") from exc
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        setup = json.loads((HERE / "setup.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise PreflightError(f"cannot read the benchmark definition: {exc}") from exc
    return contract, setup


def worker_env() -> dict:
    """The environment for child processes: the endpoint override and any
    proxy are removed, so requests to 127.0.0.1 stay on this host."""
    env = {k: v for k, v in os.environ.items()
           if k != "EVONTREE_ENDPOINT" and not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def allocated_bytes(path: Path) -> tuple[int, int, int]:
    """(allocated bytes, content bytes, files) under path, directories'
    own blocks included in the allocated figure."""
    allocated = content = files = 0
    for dirpath, _, filenames in os.walk(path):
        allocated += os.stat(dirpath).st_blocks * 512
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            allocated += st.st_blocks * 512
            content += st.st_size
            files += 1
    return allocated, content, files


class Loopback:
    """The loopback model server process for one run."""

    def __init__(self, model_args: dict, log_path: Path) -> None:
        self._log = log_path.open("w", encoding="utf-8")
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in model_args.items()]
        self.proc = subprocess.Popen(
            [sys.executable, str(LOOPBACK), *flags],
            cwd=ROOT, env=worker_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise PreflightError("loopback server did not become ready: "
                                 + log_path.read_text(encoding="utf-8")[-2000:])
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop(self) -> dict:
        """Stop the server (it exits when its stdin closes) and return its
        counters; idempotent."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        finally:
            self._log.close()
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


@dataclass
class Run:
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    cache_bytes: int = 0
    artifacts_bytes: int = 0
    raw: int = 0
    digest: str = ""
    requests_ok: int = 0
    request_errors: int = 0
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    def __init__(self, name: str, setup: dict, seed: int, scratch: Path) -> None:
        self.name = name
        self.scratch = scratch
        self.params = {**setup["common"], **setup["workloads"][name]}
        self.seed = seed
        self.pinned = setup["pinned_digests"].get(str(seed), {}).get(name)
        self.max_in_flight = len(os.sched_getaffinity(0))
        self.roots = [f"T{r}N0" for r in range(self.params["n_roots"])]

    def ground_truth_args(self) -> dict:
        p = self.params
        return {"depth": p["depth"], "branching": p["branching"], "n_roots": p["n_roots"],
                "synonym_rate": p["synonym_rate"], "seed": self.seed}

    def config(self, out_dir: Path, cache_dir: Path | None, endpoint: str | None) -> dict:
        p = self.params
        if p["model"] == "http":
            model = {"kind": "http", "name": "synthetic-loopback", "endpoint": endpoint,
                     "judge": {"kind": "self"}}
        else:
            model = {"kind": "synthetic", "judge": {"kind": "self"}, "synthetic": {
                **self.ground_truth_args(), "hallucination_rate": p["hallucination_rate"]}}
        output = {"dir": str(out_dir)}
        if cache_dir is not None:
            output["cache_dir"] = str(cache_dir)
        return {"model": model,
                "extraction": {"roots": self.roots, "max_depth": p["depth"]},
                "scoring": {"max_in_flight": self.max_in_flight},
                "output": output}

    def run_once(self, truth: Truth, deadline: float, trace: bool = False,
                 cache_dir: Path | None = None) -> Run:
        """One pipeline run in a fresh directory under the invocation's
        scratch directory, checked. The directory is left for the caller to
        delete with the others: deleting thousands of cache files between
        runs made the next run spend about 50% more CPU time in the kernel."""
        run = Run()
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.scratch))
        server = None
        try:
            started = time.perf_counter()
            if self.params["model"] == "http":
                server = Loopback({**self.ground_truth_args(),
                                   "hallucination_rate": self.params["hallucination_rate"]},
                                  run_dir / "loopback.log")
            out_dir = run_dir / "out"
            job = run_dir / "job.json"
            job.write_text(json.dumps({
                "config": self.config(out_dir, cache_dir, server and server.endpoint),
                "trace": trace}), encoding="utf-8")
            prep_s = time.perf_counter() - started
            proc = subprocess.run([sys.executable, str(WORKER), str(job)], cwd=ROOT,
                                  env=worker_env(), capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
            loopback = server.stop() if server else {}
            result_path = run_dir / "result.json"
            if proc.returncode != 0 or not result_path.exists():
                run.problems.append(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
                return run
            result = json.loads(result_path.read_text(encoding="utf-8"))
            run.setup_s = prep_s + result["setup_s"]
            run.run_s = result["run_s"]
            run.cpu_s = result["user_s"] + result["sys_s"]
            run.peak_rss_mb = result["peak_rss_mb"]
            run.requests_ok = result["requests_ok"]
            run.request_errors = result["request_errors"]
            if result["error"]:
                run.problems.append(f"pipeline raised {result['error']}")
                return run

            cache = cache_dir if cache_dir is not None else out_dir / "cache"
            cache_alloc, cache_content, cache_files = allocated_bytes(cache)
            out_alloc = allocated_bytes(out_dir)[0]
            if cache.parent == out_dir:
                out_alloc -= cache_alloc
            run.cache_bytes = cache_alloc
            run.artifacts_bytes = out_alloc
            run.raw, run.digest, problems = check_run(out_dir, truth)
            run.problems += problems
            if trace:
                run.layers = {**result["layers"], **loopback,
                              "gateway.cache.files": cache_files,
                              "gateway.cache.bytes": cache_content}
                backend_s = run.layers["gateway.backend_s"]
                run.layers["loopback.handle.share"] = (
                    loopback.get("loopback.handle_s", 0.0) / backend_s if backend_s else 0.0)
                run.spans = result["spans"]
        except subprocess.TimeoutExpired:
            run.problems.append("worker ran past the benchmark's deadline")
        finally:
            if server is not None:
                server.stop()
        return run


def check_digests(runs: list[Run], expected: str | None) -> None:
    """Every checked run of one seed must give the same classes and corpus:
    the pinned digest when the seed has one, else the first checked run's
    (the warm-up, a cold run of the same config)."""
    for run in runs:
        if run.ok:
            expected = expected or run.digest
            if run.digest != expected:
                run.problems.append(f"digest {run.digest} differs from the expected {expected}")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(name: str, setup: dict, seed: int, seconds: float, trace: bool,
            log=sys.stderr) -> dict:
    """Repeat runs of one workload on one seed for `seconds`, then
    optionally one traced run. One checked but untimed warm-up run goes
    first: the first run after a mass deletion of files (the previous
    invocation's clean-up) spent about 50% more CPU time than the next. A
    warm workload then fills its cache once with a cold run of the same
    config."""
    from evontree.synthetic import NoiseProfile, sample_ground_truth

    deadline = time.monotonic() + DEADLINE_S
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT))
    runs: list[Run] = []
    fill: Run | None = None
    traced = None
    try:
        wl = Workload(name, setup, seed, scratch)
        started = time.perf_counter()
        gt = sample_ground_truth(**wl.ground_truth_args())
        truth = Truth(gt.to_json_obj(), seed, NoiseProfile().familiarity_rate)
        truth_s = time.perf_counter() - started

        warmup = wl.run_once(truth, deadline)
        print(f"{name}: warm-up run {warmup.run_s:.3f} s", file=log)
        runs.append(warmup)
        cache_dir = None
        if warmup.ok and wl.params["cache"] == "warm":
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
            fill = wl.run_once(truth, deadline, cache_dir=cache_dir)
            print(f"{name}: cache fill {fill.run_s:.3f} s", file=log)
            if not fill.ok:
                fill.problems.insert(0, "cache fill failed")
                runs.append(fill)
        loop_start = time.monotonic()
        last_wall = 0.0
        # A traced run costs more than an untraced one; keep room for it.
        reserve = 2.5 if trace else 1.0
        while all(r.ok for r in runs):
            now = time.monotonic()
            if last_wall and (now - loop_start >= seconds
                              or now + reserve * last_wall > deadline):
                break
            runs.append(wl.run_once(truth, deadline, cache_dir=cache_dir))
            last_wall = time.monotonic() - now
            r = runs[-1]
            print(f"{name}: run {len(runs) - 1} setup {r.setup_s:.3f} s run {r.run_s:.3f} s, "
                  f"{r.raw} raw triples" + ("" if r.ok else f" FAILED: {'; '.join(r.problems)}"),
                  file=log)
        if trace and all(r.ok for r in runs):
            traced = wl.run_once(truth, deadline, trace=True, cache_dir=cache_dir)
            runs.append(traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check_digests(([fill] if fill else []) + runs, wl.pinned)
    for r in runs:
        if not r.ok:
            print(f"{name}: run failed: {'; '.join(r.problems)}", file=log)
    timed = [r for r in runs[1:] if r.ok and r is not traced and r is not fill]

    requests_ok = sum(r.requests_ok for r in runs)
    requests_all = requests_ok + sum(r.request_errors for r in runs)
    failed = sum(not r.ok for r in runs)
    fill_s = fill.setup_s + fill.run_s if fill else 0.0
    metrics = {
        "setup_s": truth_s + fill_s + _median(r.setup_s for r in timed),
        "peak_rss_mb": _median(r.peak_rss_mb for r in timed),
        "run_success_rate": (len(runs) - failed) / len(runs),
        "request_success_rate": requests_ok / requests_all if requests_all else 0.0,
    }
    if timed:
        # The input size moves with the seed, so speed and sizes are given
        # per raw triple.
        metrics.update({
            "triples_per_s": _median(r.raw / r.run_s for r in timed),
            "cache_disk_kb_per_triple": _median(r.cache_bytes / 1e3 / r.raw for r in timed),
            "artifacts_disk_kb_per_triple": _median(r.artifacts_bytes / 1e3 / r.raw
                                                    for r in timed),
            "pipeline.run_s": _median(r.run_s for r in timed),
            "pipeline.cpu_s": _median(r.cpu_s for r in timed),
            "pipeline.raw_triples": _median(r.raw for r in timed),
            "gateway.cache.disk_mb": _median(r.cache_bytes / 1e6 for r in timed),
        })
    if traced is not None and traced.ok and timed:
        metrics.update(traced.layers)
        metrics["trace.overhead_s"] = traced.run_s - metrics["pipeline.run_s"]
        for row in traced.spans:
            print(f"{name}: span {row['span']:<32} n={row['count']:<7} "
                  f"err={row['errors']:<3} total {row['total_s']:9.4f} s "
                  f"self {row['self_s']:9.4f} s", file=log)
    return {"correct": failed == 0 and bool(timed), "attempted": len(runs),
            "failed": failed, "metrics": metrics,
            "digest": next((r.digest for r in timed), None)}


def select_metrics(measured: dict, specs: list[dict]) -> dict:
    return {s["name"]: {"value": measured.get(s["name"], 0.0), "unit": s["unit"]}
            for s in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from setup.json, or 'all' for a table")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat runs (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        contract, setup = preflight()
        seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
        names = list(setup["workloads"])
        specs = contract["per_layer" if args.trace else "end_to_end"]
        if args.workload != "all":
            if args.workload not in names:
                raise PreflightError(f"unknown workload {args.workload!r}; expected {names}")
            out = measure(args.workload, setup, args.seed, seconds, bool(args.trace))
            print(f"{args.workload}: digest {out['digest']}", file=sys.stderr)
            print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                              "failed": out["failed"],
                              "metrics": select_metrics(out["metrics"], specs)}))
            return 0 if out["correct"] else 1

        rows = [(name, measure(name, setup, args.seed, seconds, bool(args.trace)))
                for name in names]
    except PreflightError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    header = ["workload", "correct", "attempted", "failed"] + [
        f"{s['name']} ({s['unit']})" for s in specs]
    table = [header] + [
        [name, str(out["correct"]), str(out["attempted"]), str(out["failed"])]
        + [f"{out['metrics'].get(s['name'], 0.0):.6g}" for s in specs]
        for name, out in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0 if all(out["correct"] for _, out in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
