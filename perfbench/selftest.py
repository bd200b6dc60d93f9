"""Self-tests of the benchmark itself (not of afcsim).

    python3 perfbench/selftest.py

Checks that the generators are seeded, that an altered grant is counted as
a failure, that tracing restores every attribute it rebinds, that a hung
server costs a per-request timeout and a failure, not the run, that the
HTTP server child is shut down when a run fails, and that host-speed
scaling leaves times taken at the nominal speed unchanged. Exits 1 on the first
failed check.
"""

import json
import math
import socket
import sys
import time

import gen
import hostspeed
import run
import tracing
import workloads as wl
from afcsim import server, wire


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_generators_are_seeded() -> None:
    for name in ("inquiry_conus", "http_mixed", "scenario_sweep"):
        make = getattr(gen, name)
        check(make(wl.PRIMARY_SEED) == make(wl.PRIMARY_SEED), f"{name}: same seed gives byte-identical inputs")
        check(make(wl.PRIMARY_SEED) != make(wl.HOLDOUT_SEED), f"{name}: another seed gives other inputs")


def test_altered_grant_is_a_failure() -> None:
    original = server.compute_availability
    calls = []

    def altered(*args, **kwargs):
        grants = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            g = grants[0]
            grants[0] = server.ChannelGrant(g.channel, g.max_eirp_dbm - 0.01)
        return grants

    session = wl.WORKLOADS["inquiry_conus"].reference(wl.PRIMARY_SEED)
    frozen = wl.frozen_digests("inquiry_conus", wl.PRIMARY_SEED)
    server.compute_availability = altered
    try:
        records, _ = wl.closed_loop(session, math.inf, max_ops=3)
    finally:
        server.compute_availability = original
    check(wl.count_failures(records, frozen) == 1, "one altered grant among 3 inquiries counts 1 failure")
    check(wl.count_failures(records + records, None) == 0, "unfrozen seeds compare repeats with the first run")


def test_tracing_restores_attributes() -> None:
    bound = [
        (tracing._owner(spec), attr)
        for table in (tracing.TIMED, tracing.COUNTED)
        for _, owners in table
        for spec, attr in owners
    ]
    originals = [owner.__dict__[attr] for owner, attr in bound]
    result = run.traced(wl.WORKLOADS["scenario_sweep"], wl.PRIMARY_SEED, 0.4)
    check(result["notes"]["leaked_attributes"] == "none", "traced run reports no leaked attribute")
    check(
        all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(bound, originals)),
        f"all {len(bound)} rebound attributes are the originals after the traced run",
    )
    check(result["metrics"]["scenario.run_scenario.calls"][0] > 0, "traced run recorded scenario spans")

    tracer = tracing.Tracer()
    tracer.install()
    check(all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(bound, originals)), "install rebinds every attribute")
    tracer.uninstall()


def test_hung_server_is_a_failure() -> None:
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()  # accepts connections, never answers
        port = listener.getsockname()[1]
        obj = json.loads(gen.http_mixed(wl.PRIMARY_SEED)[1][0][1])
        session = wl.Session(lambda i: json.dumps(wire.post_inquiry("127.0.0.1", port, obj, timeout=0.3)), 1)
        t0 = time.perf_counter()
        records, _ = wl.closed_loop(session, math.inf, max_ops=2)
    check(time.perf_counter() - t0 < 3.0 and [r[3] for r in records] == [None, None], "requests to a hung server time out as failures")


def test_server_child_stops_on_failure() -> None:
    world, _ = gen.http_mixed(wl.PRIMARY_SEED)
    child = wl.ServerChild(world, traced=False)
    try:
        try:
            raise RuntimeError("simulated failure during a run")
        finally:
            child.stop()
    except RuntimeError:
        pass
    check(child.proc.poll() is not None, "server child has exited after a failed run")


def test_host_speed_scaling() -> None:
    nominal = hostspeed.NOMINAL_S
    lat = [0.1, 0.2, 0.3]
    check(hostspeed.scaled_latencies(lat, [nominal] * 3) == lat, "times next to nominal probes are unchanged")
    halved = hostspeed.scaled_latencies(lat, [2 * nominal] * 3)
    check(all(math.isclose(h, x / 2) for h, x in zip(halved, lat)), "times next to probes twice as slow are halved")


def main() -> int:
    test_generators_are_seeded()
    test_altered_grant_is_a_failure()
    test_tracing_restores_attributes()
    test_hung_server_is_a_failure()
    test_server_child_stops_on_failure()
    test_host_speed_scaling()
    return 0


if __name__ == "__main__":
    sys.exit(main())
