"""Host-time benchmark of the DeAR reproduction: sweeps and the serve daemon.

Usage (from the repository root)::

    python3 hostbench/run.py --workload sweep_cold --seed 1 --seconds 25 --trace 0

Workloads (see ``hostbench/README.md``):

- ``sweep_cold`` — a seeded paper-style grid through ``run_many`` on an
  empty result cache each pass;
- ``sweep_warm`` — the same grid against a cache filled by an untimed
  pass, so every spec is a hit;
- ``straggler`` — heterogeneous multi-rank specs (64 and 256 ranks, five
  policies, timing-fault windows) on an empty cache each pass;
- ``serve`` — the ``dear-repro serve`` daemon in its own process, loaded
  open-loop by a seeded request stream over HTTP.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
(spans recorded around each layer's public functions, see
``hostbench/tracing.py``).  Every output is checked against a direct
``RunSpec.run()`` reference.  The exit code is 1, with ``"correct":
false``, on any mismatch, raising spec or unexpected HTTP answer, and
when a traced sweep's layer self times do not account for its passes.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hostbench import gen, layers, tracing  # noqa: E402
from hostbench.layers import quantile  # noqa: E402

#: Environment switches that would move the program off its documented
#: defaults; the benchmark always runs without them.
PINNED_ENV = (
    "DEAR_FASTPATH", "DEAR_BATCHED", "DEAR_JOBS", "DEAR_CACHE", "DEAR_CACHE_DIR",
    "DEAR_TELEMETRY", "DEAR_SERVE_BATCH_WINDOW",
)
WORK_DIR = ".hostbench-work"
#: Untimed warm-up before timed passes (after the untimed reference runs):
#: the first passes after start run slower than later ones.
WARMUP_SECONDS = 2.0
WARMUP_PASSES = 1
MIN_PASSES = 3
SETUP_REPEATS = 3
SERVE_CLIENT_THREADS = 2
SERVE_WARMUP_BATCH_SIZE = 8
HTTP_TIMEOUT = 60.0
DAEMON_START_TIMEOUT = 60.0
#: Result fields left out of the comparison with the reference: ``extras``
#: describes the engine that answered, not the answer.
IGNORED_FIELDS = ("extras",)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- correctness ---------------------------------------------------------------


def comparable(result) -> dict:
    """JSON-normalised result fields, as the cache and the wire carry them."""
    from repro.runner.cache import result_to_dict

    payload = json.loads(json.dumps(result_to_dict(result)))
    for name in IGNORED_FIELDS:
        payload.pop(name, None)
    return payload


def count_mismatches(results, references) -> int:
    """How many results differ, field for field, from their reference."""
    return sum(comparable(result) != reference
               for result, reference in zip(results, references))


class Tally:
    """Attempted / failed / mismatched operations of one run.

    ``fatal`` counts the failures that make the run incorrect: every
    failure except the ``expected`` ones, the serve daemon's known
    answers to wrong-typed payloads (see :func:`grade_serve`).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.expected = 0
        self.fatal = 0

    def record(self, attempted: int, failed: int, mismatched: int = 0,
               expected: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.mismatched += mismatched
        self.expected += expected
        self.fatal += failed - expected


# -- processes -------------------------------------------------------------------


def _child_env(cache_dir: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in PINNED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["DEAR_CACHE_DIR"] = str(cache_dir)
    return env


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError("child process produced no output in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"child process exited early (code {proc.poll()})")
    return line.decode("utf-8", "replace").strip()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid="self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so set-up and references do not count."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def setup_probe(kind: str, run_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first answer."""
    cache_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="setup-"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "hostbench" / "setup_probe.py"), kind, str(cache_dir)],
        stdout=subprocess.PIPE, env=_child_env(cache_dir), cwd=str(run_dir),
    )
    try:
        _readline(proc, DAEMON_START_TIMEOUT)
        elapsed = time.perf_counter() - started
        if proc.wait(timeout=DAEMON_START_TIMEOUT) != 0:
            raise RuntimeError("setup probe failed")
    finally:
        _stop(proc)
    return elapsed


class Daemon:
    """A ``dear-repro serve --port 0 --jobs 1`` process with its own cache."""

    def __init__(self, run_dir: Path, spans_path=None) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="serve-cache-"))
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(ROOT / "hostbench" / "serve_traced.py"),
                       str(spans_path)]
        command += ["--port", "0", "--jobs", "1"]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     env=_child_env(self.cache_dir), cwd=str(run_dir))
        try:
            line = _readline(self.proc, DAEMON_START_TIMEOUT)
            if "listening on http://" not in line:
                raise RuntimeError(f"unexpected daemon banner: {line!r}")
            address = line.rsplit("http://", 1)[1]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            _stop(self.proc)
            raise

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT)

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        conn = self.connection()
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain-first shutdown; kills the process if it does not exit."""
        try:
            if self.proc.poll() is None:
                self.request("POST", "/v1/shutdown")
                self.proc.wait(timeout=30.0)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            pass
        finally:
            _stop(self.proc)


# -- sweeps ---------------------------------------------------------------------


def _registry_snapshot() -> dict:
    from repro.telemetry.registry import default_registry

    return default_registry().snapshot()


def _sweep_inputs(workload: str, seed: int):
    if workload == "straggler":
        return gen.straggler_specs(seed)
    return gen.sweep_specs(seed)


def run_sweep(args, run_dir: Path) -> dict:
    """sweep_cold / sweep_warm / straggler: closed-loop ``run_many`` passes."""
    import repro.runner.executor as executor
    from repro.runner import ResultCache

    warm = args.workload == "sweep_warm"
    kind = "straggler" if args.workload == "straggler" else "sweep"
    setup = [] if args.trace else [setup_probe(kind, run_dir) for _ in range(SETUP_REPEATS)]

    setup_summary = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        undo = tracing.install(recorder)
        try:
            with recorder.span("bench.setup"):
                pairs = _sweep_inputs(args.workload, args.seed)
        finally:
            tracing.uninstall(undo)
        setup_summary = tracing.summarize(recorder.drain())
    else:
        pairs = _sweep_inputs(args.workload, args.seed)
    specs = [spec for _, spec in pairs]
    references = [comparable(spec.run()) for spec in specs]  # untimed

    tally = Tally()
    shared = ResultCache(root=run_dir / "warm-cache") if warm else None

    def one_pass(recorder=None):
        cache = shared if warm else ResultCache(
            root=Path(tempfile.mkdtemp(dir=run_dir, prefix="cold-")))
        started = time.perf_counter()
        try:
            # Looked up at call time so a traced pass calls the wrapper.
            if recorder is None:
                results = executor.run_many(specs, jobs=1, cache=cache)
            else:
                with recorder.span("bench.pass"):
                    results = executor.run_many(specs, jobs=1, cache=cache)
        except Exception as exc:  # a raising spec fails the whole call
            print(f"pass failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            results = None
        elapsed = time.perf_counter() - started
        if not warm:
            shutil.rmtree(cache.root, ignore_errors=True)
        return elapsed, results

    def checked(results) -> None:
        if results is None:
            tally.record(len(specs), len(specs))
        else:
            bad = count_mismatches(results, references)
            tally.record(len(specs), bad, bad)

    filled = None
    if warm:
        _, filled = one_pass()
        checked(filled)
        if filled is not None:
            filled = [comparable(result) for result in filled]
    warmup_end = time.perf_counter() + WARMUP_SECONDS
    passes = 0
    while passes < WARMUP_PASSES or time.perf_counter() < warmup_end:
        _, results = one_pass()
        checked(results)
        passes += 1
    # Warm-up outputs are checked (a failure stays fatal), not counted.
    tally.attempted = tally.failed = tally.mismatched = 0

    reset_peak_rss()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    times, traced_times, per_pass = [], [], []
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        passes += 1
        elapsed, results = one_pass()
        checked(results)
        if results is None:
            continue  # a failed pass is not timed
        times.append(elapsed)
        if filled is not None:
            # sweep_warm answers must equal the cold pass that filled the cache.
            mismatch = count_mismatches(results, filled)
            tally.record(0, mismatch, mismatch)
        if args.trace:
            recorder = tracing.SpanRecorder()
            before = _registry_snapshot()
            undo = tracing.install(recorder)
            try:
                elapsed, results = one_pass(recorder)
            finally:
                tracing.uninstall(undo)
            checked(results)
            if results is not None:
                traced_times.append(elapsed)
                per_pass.append((recorder.drain(),
                                 layers.counter_deltas(before, _registry_snapshot())))

    out = {"tally": tally, "specs": len(specs), "passes": len(times), "metrics": {}}
    if not times or (args.trace and not traced_times):
        return out  # every pass failed: nothing to report
    if args.trace:
        out["metrics"], out["trace_check"] = layers.sweep_layer_metrics(
            per_pass, len(specs), setup_summary,
            untraced_s=statistics.median(times), traced_s=statistics.median(traced_times),
        )
        return out
    per_spec = [t for t in times for _ in specs]
    out["metrics"] = {
        "setup_s": _metric(statistics.median(setup), "s"),
        # Throughput over all timed passes: the host's speed drifts within
        # a run, and this mean is steadier than the median pass rate.
        "specs_per_s": _metric(len(specs) * len(times) / sum(times), "1/s"),
        "latency_ms_p50": _metric(quantile(per_spec, 0.50) * 1e3, "ms"),
        "latency_ms_p95": _metric(quantile(per_spec, 0.95) * 1e3, "ms"),
        "goodput_rps": _metric((tally.attempted - tally.failed) / sum(times), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    return out


# -- serve ------------------------------------------------------------------------


def serve_setup_probe(run_dir: Path) -> float:
    """Seconds from spawning the daemon to its first 200 from /v1/simulate."""
    daemon = Daemon(run_dir)
    try:
        status, _ = daemon.request("POST", "/v1/simulate", gen.SETUP_SPEC)
        elapsed = time.perf_counter() - daemon.started
        if status != 200:
            raise RuntimeError(f"set-up request answered {status}")
    finally:
        daemon.stop()
    return elapsed


def drive(daemon: Daemon, stream) -> tuple[list, float]:
    """Open-loop load: each request is sent at its due time by one of the
    client threads; returns ``(status, body, due, sent, done)`` rows."""
    records: list = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        conn = daemon.connection()
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(stream):
                break
            due_offset, _, payload = stream[index]
            due = origin + due_offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                conn.request("POST", "/v1/simulate", body=json.dumps(payload),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException):
                status, body = None, b""
                conn.close()
                conn = daemon.connection()
            records[index] = (status, body, due, sent, time.perf_counter())
        conn.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{n}")
               for n in range(SERVE_CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, origin


def _warm_daemon(daemon: Daemon) -> None:
    """Untimed requests through every policy, on configs the stream never uses."""
    for model in gen.SERVE_MODELS:
        for policy, options in gen.SWEEP_POLICIES:
            payload = {"scheduler": policy, "model": model, "cluster": "10gbe",
                       "batch_size": SERVE_WARMUP_BATCH_SIZE, "options": options}
            daemon.request("POST", "/v1/simulate", payload)


def serve_schedule(run_dir: Path, stream, spans_path=None) -> dict:
    daemon = Daemon(run_dir, spans_path)
    try:
        _warm_daemon(daemon)
        _, before = daemon.request("GET", "/v1/metrics")
        records, origin = drive(daemon, stream)
        _, after = daemon.request("GET", "/v1/metrics")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {"records": records, "origin": origin, "before": before,
            "after": after, "rss": rss}


def grade_serve(stream, records, tally: Tally) -> list[bool]:
    """Per request: answered correctly?  Valid payloads must get a 200 equal
    to ``result_to_dict`` of the direct run; invalid ones a 400.

    Every other answer fails.  Two failures are the daemon's known defect
    with wrong-typed payloads and are counted as ``expected``: such a
    payload answered 500, and a valid request that shared its micro-batch
    and got the same 500 body back.
    """
    from repro.api import config_from_payload

    known = {body for (_, kind, _), (status, body, *_rest) in zip(stream, records)
             if kind == "bad_typed" and status == 500}
    references: dict[str, dict] = {}
    good = []
    for (_, kind, payload), (status, body, *_rest) in zip(stream, records):
        mismatch = False
        if kind in ("fresh", "repeat"):
            key = json.dumps(payload, sort_keys=True)
            if key not in references:
                references[key] = comparable(config_from_payload(payload).to_spec().run())
            if status == 200:
                try:
                    answer = json.loads(body)["result"]
                except (ValueError, KeyError, TypeError):
                    answer = None
                if isinstance(answer, dict):
                    for name in IGNORED_FIELDS:
                        answer.pop(name, None)
                mismatch = answer != references[key]
            ok = status == 200 and not mismatch
            expected = status == 500 and body in known
        else:
            ok = status == 400
            expected = kind == "bad_typed" and status == 500
        tally.record(1, not ok, mismatch, expected=not ok and expected)
        good.append(ok)
    return good


def run_serve(args, run_dir: Path) -> dict:
    setup = [] if args.trace else [serve_setup_probe(run_dir) for _ in range(SETUP_REPEATS)]
    tally = Tally()
    if args.trace:
        half = max(1.0, args.seconds / 2.0)
        stream = gen.serve_stream(args.seed, half)
        plain = serve_schedule(run_dir, stream)
        spans_path = run_dir / "spans.json"
        traced = serve_schedule(run_dir, stream, spans_path)
        grade_serve(stream, plain["records"], tally)
        grade_serve(stream, traced["records"], tally)
        spans = json.loads(spans_path.read_text())
        return {"tally": tally, "requests": len(stream),
                "metrics": layers.serve_layer_metrics(spans, plain, traced)}

    stream = gen.serve_stream(args.seed, args.seconds)
    run = serve_schedule(run_dir, stream)
    records = run["records"]
    good = grade_serve(stream, records, tally)
    # Latencies of correct answers only: a quick failure is no service.
    latencies = [(done - due) * 1e3
                 for ok, (_, _, due, _, done) in zip(good, records) if ok]
    on_time = sum(latency <= gen.SERVE_LATENCY_LIMIT_MS for latency in latencies)
    out = {"tally": tally, "requests": len(stream), "metrics": {}}
    if not latencies:
        return out  # nothing answered correctly: nothing to report
    # The schedule as it ran: from the first due time to the last answer.
    schedule_s = max(row[4] for row in records if row[0] is not None) - run["origin"]
    out["metrics"] = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "specs_per_s": _metric(len(latencies) / schedule_s, "1/s"),
        "latency_ms_p50": _metric(quantile(latencies, 0.50), "ms"),
        "latency_ms_p95": _metric(quantile(latencies, 0.95), "ms"),
        "goodput_rps": _metric(on_time / schedule_s, "1/s"),
        "peak_rss_mb": _metric(run["rss"], "MB"),
    }
    return out


WORKLOADS = {
    "sweep_cold": run_sweep,
    "sweep_warm": run_sweep,
    "straggler": run_sweep,
    "serve": run_serve,
}


def _print_report(args, out: dict) -> None:
    tally = out["tally"]
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    if "passes" in out:
        print(f"# {args.workload} seed={args.seed}: {out['passes']} timed passes "
              f"x {out['specs']} specs")
    else:
        print(f"# {args.workload} seed={args.seed}: {out['requests']} requests, "
              f"open loop at {gen.SERVE_RATE:g} req/s")
    for name, metric in out["metrics"].items():
        print(f"{name:46s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'failed_ratio':46s} {ratio:14.6g} ratio "
          f"({tally.failed}/{tally.attempted}, {tally.mismatched} mismatched, "
          f"{tally.expected} expected)")
    check = out.get("trace_check")
    if check is not None:
        print(f"# layer self times vs untraced pass time: {check['gap']:+.4f} "
              f"(overhead {out['metrics']['trace.overhead_ratio']['value'] - 1.0:+.4f}"
              f" +/- {layers.TILE_TOLERANCE:g}): {'OK' if check['ok'] else 'FAIL'}")


def correct(out: dict) -> bool:
    """No fatal failure, and the traced passes' tiling check holds."""
    check = out.get("trace_check")
    return out["tally"].fatal == 0 and bool(out["metrics"]) and (
        check is None or check["ok"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work, prefix=f"{args.workload}-"))
    # Anything that reaches for the default cache stays inside the run dir.
    os.environ["DEAR_CACHE_DIR"] = str(run_dir / "default-cache")
    try:
        out = WORKLOADS[args.workload](args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    _print_report(args, out)
    ok = correct(out)
    tally = out["tally"]
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out["metrics"],
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
