"""Serve one generated http_mixed world over HTTP, in a process of its own.

Protocol on stdin/stdout, one JSON document per line: read
{"world", "now", "trace"}, answer {"port"} once the service listens, then
on "stop" (or end of input) shut the service down and answer
{"peak_rss_kb", "trace", "leaked"}. With "trace" set, the same wrappers
as in the benchmark process are installed here and the spans are sent back.
"""

import json
import resource
import sys

import workloads  # noqa: F401  (imports afcsim from this checkout's src/)
from afcsim import wire
from tracing import Tracer


def main() -> int:
    cfg = json.loads(sys.stdin.readline())
    tracer = Tracer() if cfg["trace"] else None
    leaked: list[str] = []
    if tracer:
        tracer.install()
    try:
        world = json.loads(cfg["world"])
        now = cfg["now"]
        service = wire.AfcService(
            wire.decode_database(world["database"]),
            wire.decode_policy(world["policy"]),
            wire.decode_propagation({}),
            wire.decode_protection({}),
            now_fn=lambda: now,
        )
        service.start()
        try:
            print(json.dumps({"port": service.port}), flush=True)
            sys.stdin.readline()
        finally:
            service.close()
    finally:
        if tracer:
            leaked = tracer.uninstall()
    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.export() if tracer else None,
        "leaked": leaked,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
