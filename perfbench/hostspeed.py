"""Host-speed probe: scale measured times to a fixed host speed.

On a shared VM the speed of this process drifts by up to 2x over seconds
to minutes, in CPU time as well as wall time, for reasons outside the
program. A fixed piece of pure-Python work, the probe, slows down with it:
over ten runs, wall-clock latency and throughput spread by up to 33 %
(quartile distance over median), the same figures scaled by the probe by
at most 6.6 %. So the benchmark runs the probe right after every timed
operation and around every set-up, and reports each time multiplied by
NOMINAL_S / (the median probe time near it): the time the operation would
take on a host where the probe takes NOMINAL_S.

The probe is benchmark code and never calls the program, so a change to
the program cannot change it. NOMINAL_S and probe() are part of the
benchmark's definition: changing either changes every timing it reports.
"""

from __future__ import annotations

import math
import statistics
import time

# About the probe's time on an idle core of a 2-vCPU x86-64 VM with
# Python 3.11; scaled times are close to wall times on such a host.
NOMINAL_S = 0.00125

# Probes on each side of an operation that set its scale.
WINDOW = 3


def probe() -> int:
    """Fixed interpreter work: float math, dict and list updates, small strings."""
    acc = 0.0
    table: dict[int, tuple] = {}
    names: list[str] = []
    for i in range(4000):
        x = (i * 0.37) % 7.0
        acc += math.sqrt(x + 1.0) * math.sin(x)
        table[i & 255] = (i, x)
        if i % 7 == 0:
            names.append(str(i))
    return len(table) + len(names) + int(acc)


def time_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def scale(probe_times: list[float]) -> float:
    """Factor that turns a time measured next to these probes into nominal time."""
    return NOMINAL_S / statistics.median(probe_times)


def scaled_latencies(latencies: list[float], probe_times: list[float]) -> list[float]:
    """Each latency scaled by the probes within WINDOW places of its own."""
    return [
        lat * scale(probe_times[max(0, k - WINDOW) : k + WINDOW + 1])
        for k, lat in enumerate(latencies)
    ]
