"""Launch ``repro.serve.daemon.main`` with the benchmark's span wrappers.

Run as ``python3 hostbench/serve_traced.py <spans.json> [serve args...]``.
Installs the layer wrappers of :mod:`hostbench.tracing` plus three
serve-side ones — the request handler, the JSON encoder of replies, and
the batcher queue wait — then runs the daemon unmodified and writes the
spans to ``spans.json`` when it exits.
"""

import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str]) -> int:
    import repro.serve.daemon as daemon
    from hostbench import tracing

    recorder = tracing.SpanRecorder()
    submit = daemon.RequestBatcher.submit

    def traced_submit(self, spec):
        # The handler thread blocks on this future; record the interval
        # from enqueue to resolution as a child of the request span.
        future = submit(self, spec)
        close = recorder.open("wait.serve_queue", nest=False)
        future.add_done_callback(lambda _future: close())
        return future

    # The daemon's module-level ``json``, with a traced ``dumps``.
    encoder = types.SimpleNamespace(
        dumps=json.dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError,
    )
    tracing.install(recorder, extra=(
        ("serve.request", daemon._Handler, "do_POST", None),
        ("serve.json_dumps", encoder, "dumps", None),
    ))
    daemon.json = encoder
    daemon.RequestBatcher.submit = traced_submit
    try:
        return daemon.main(argv[1:])
    finally:
        recorder.dump(Path(argv[0]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
