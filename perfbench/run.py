"""Benchmark afcsim on seeded workloads and print every metric with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload inquiry_conus --seed 7 --seconds 55 --trace 1

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
spends half of --seconds untraced and half traced, and prints the per-layer
metrics plus the tracing overhead (traced minus untraced ops/s). The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. Every output is checked against the SHA-256 digests frozen in
perfbench/digests.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("inquiry_conus", "http_mixed", "scenario_sweep")

# A measured run is cut into ROUNDS, each with its own set-ups, so set-up is
# sampled at several moments of the run. Throughput and latency quantiles are
# taken over the whole run, from times scaled by the host-speed probe.
ROUNDS = 5


def environment() -> dict:
    import numpy

    src = ROOT / "src"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "src_lines": sum(p.read_text().count("\n") for p in src.rglob("*.py")),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def phase(workload, seed: int, seconds: float, tracer=None, rounds: int = 1) -> dict:
    """`rounds` times: set up, warm up, then run the closed loop for seconds/rounds.

    The inputs are generated once, before any clock starts, so set-up time
    is the program's own work on them. Times are scaled to the nominal host
    speed by the probes run beside them (see hostspeed.py); the wall-clock
    figures are returned too.
    """
    import hostspeed
    import workloads as wl

    span = (lambda: tracer.span("bench.op")) if tracer else None
    probe = workload.probed
    inputs = workload.generate(seed)
    setup_s, wall_setup_s, checked, records, children = [], [], [], [], []
    busy = 0.0
    for _ in range(rounds):
        session = None
        for _ in range(workload.setups):
            if session is not None:
                session.close()
                session = None  # freed before the next set-up is timed
            probes = [hostspeed.time_probe(), hostspeed.time_probe()]
            t0 = time.perf_counter()
            session = workload.setup(inputs, tracer)
            wall_setup_s.append(time.perf_counter() - t0)
            probes += [hostspeed.time_probe(), hostspeed.time_probe()]
            setup_s.append(wall_setup_s[-1] * (hostspeed.scale(probes) if probe else 1.0))
        item = len(records)
        try:
            warm, _ = wl.closed_loop(session, math.inf, span=span, max_ops=workload.warmup, first=item)
            timed, elapsed = wl.closed_loop(
                session, seconds / rounds, workload.clients, span=span, first=item, probe=probe
            )
        finally:
            children.append(session.close())
        checked += warm + timed
        records += timed
        busy += elapsed
    frozen = wl.frozen_digests(workload.name, seed)
    completed = sum(1 for r in records if r[3] is not None)
    wall = [r[2] for r in records]
    if probe:
        probe_times = [r[4] for r in records]
        scaled = hostspeed.scaled_latencies(wall, probe_times)
        ops_per_s, wall_ops_per_s = completed / sum(scaled), completed / sum(wall)
        host_speed = hostspeed.NOMINAL_S / statistics.median(probe_times)
    else:  # concurrent clients: throughput is over the loop's wall time
        scaled, host_speed = wall, None
        ops_per_s = wall_ops_per_s = completed / busy
    return {
        "setup_s": statistics.median(setup_s),
        "wall_setup_s": statistics.median(wall_setup_s),
        "ops_per_s": ops_per_s,
        "wall_ops_per_s": wall_ops_per_s,
        "latencies": sorted(scaled),
        "wall_latencies": sorted(wall),
        "host_speed": host_speed,
        "attempted": len(checked),
        "failed": wl.count_failures(sorted(checked), frozen),
        "frozen": frozen is not None,
        "children": children,
    }


def canary(workload, p: dict) -> None:
    """On a seed without frozen digests, also check the primary seed's first items."""
    import workloads as wl

    if not p["frozen"]:
        attempted, failed = wl.canary_failures(workload)
        p["attempted"] += attempted
        p["failed"] += failed


def end_to_end(workload, seed: int, seconds: float) -> dict:
    p = phase(workload, seed, seconds, rounds=ROUNDS)
    canary(workload, p)
    latencies = p["latencies"]
    child_rss = [c["peak_rss_kb"] for c in p["children"] if "peak_rss_kb" in c]
    rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (p["setup_s"], "s"),
        "ops_per_s": (p["ops_per_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    wall = p["wall_latencies"]
    notes = {"host_speed": "not probed: timings are wall clock"}
    if p["host_speed"] is not None:
        notes = {
            "wall_setup_s": f"{p['wall_setup_s']:.6g} s",
            "wall_ops_per_s": f"{p['wall_ops_per_s']:.6g} 1/s",
            "wall_latency_p50_ms": f"{statistics.median(wall) * 1e3:.6g} ms",
            "wall_latency_p95_ms": f"{percentile(wall, 0.95) * 1e3:.6g} ms",
            "host_speed": f"{p['host_speed']:.4f} (nominal probe time / median probe time)",
        }
    notes |= {
        "failed_ratio": f"{p['failed'] / p['attempted']:.4f} ({p['failed']} failed / {p['attempted']} attempted)",
        "latency_samples": f"{len(latencies)} ({len(latencies) - math.ceil(0.95 * len(latencies))} beyond p95)",
        "checked_against": "frozen digests" if p["frozen"] else "first run of each item + frozen primary-seed canary",
    }
    return {"attempted": p["attempted"], "failed": p["failed"], "metrics": metrics, "notes": notes}


def layer_metrics(export: dict, untraced_ops: float, traced_ops: float) -> dict:
    import tracing

    totals = tracing.span_totals(export["spans"])
    counts = export["counts"]

    def calls(name: str) -> int:
        return totals[name]["calls"] if name in totals else counts.get(name, 0)

    def per_call(name: str, ns_per_unit: float, key: str = "total_ns") -> float:
        row = totals.get(name)
        return row[key] / row["calls"] / ns_per_unit if row else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    inquiries = calls("server.handle_inquiry")
    scenarios = calls("scenario.run_scenario")
    client_ns = sum(totals[n]["total_ns"] for n in ("wire.post_inquiry", "bench.post_raw") if n in totals)
    client_calls = calls("wire.post_inquiry") + calls("bench.post_raw")
    server_ns = totals.get("wire.handle_post", {}).get("total_ns", 0)
    ms, us = 1e6, 1e3
    metrics = {
        "server.compute_availability.ms_per_call": (per_call("server.compute_availability", ms), "ms"),
        "server.compute_availability.self_ms_per_call": (per_call("server.compute_availability", ms, "self_ns"), "ms"),
        "server.handle_inquiry.calls": (inquiries, "count"),
        "channels.channel_span.calls_per_inquiry": (ratio(calls("channels.channel_span"), inquiries), "count"),
        "propagation.constrains.calls_per_inquiry": (ratio(calls("propagation.constrains"), inquiries), "count"),
        "propagation.constrains.overlap_ratio": (ratio(counts.get("propagation.constrains:overlap", 0), calls("propagation.constrains")), "ratio"),
        "propagation.max_permissible_eirp_dbm.calls_per_inquiry": (ratio(calls("propagation.max_permissible_eirp_dbm"), inquiries), "count"),
        "propagation.max_permissible_eirp_dbm.binding_ratio": (ratio(counts.get("propagation.max_permissible_eirp_dbm:binding", 0), calls("propagation.max_permissible_eirp_dbm")), "ratio"),
        "geo.haversine_distance.calls_per_inquiry": (ratio(calls("geo.haversine_distance"), inquiries), "count"),
        "wire.decode_database.ms": (per_call("wire.decode_database", ms), "ms"),
        "wire.decode_request.us_per_call": (per_call("wire.decode_request", us), "us"),
        "wire.encode_response.us_per_call": (per_call("wire.encode_response", us), "us"),
        "wire.dumps_response.us_per_call": (per_call("wire.dumps_response", us), "us"),
        "server.validate_request.us_per_call": (per_call("server.validate_request", us), "us"),
        "server.validate_request.calls": (calls("server.validate_request"), "count"),
        "server.rejected_ratio": (ratio(counts.get("server.validate_request:rejected", 0), calls("server.validate_request")), "ratio"),
        "server.grants_per_inquiry": (ratio(counts.get("server.handle_inquiry:grants", 0), inquiries), "count"),
        "scenario.run_scenario.calls": (scenarios, "count"),
        "scenario.load_scenario.ms_per_call": (per_call("scenario.load_scenario", ms), "ms"),
        "scenario.run_scenario.ms_per_call": (per_call("scenario.run_scenario", ms), "ms"),
        "scenario.report_dumps.ms_per_call": (per_call("scenario.report_dumps", ms), "ms"),
        "scenario.assess_harm.ms_per_call": (per_call("scenario.assess_harm", ms), "ms"),
        "propagation.i_over_n_db.calls_per_scenario": (ratio(calls("propagation.i_over_n_db"), scenarios), "count"),
        "gnss.compute_fix.us_per_call": (per_call("gnss.compute_fix", us), "us"),
        "access_point.apply_response.us_per_call": (per_call("access_point.apply_response", us), "us"),
        "access_point.render_channel_report.us_per_call": (per_call("access_point.render_channel_report", us), "us"),
        "detection.geofence_check.us_per_call": (per_call("detection.geofence_check", us), "us"),
        "detection.group_consistency_check.us_per_call": (per_call("detection.group_consistency_check", us), "us"),
        "trace.untraced_ops_per_s": (untraced_ops, "1/s"),
        "trace.traced_ops_per_s": (traced_ops, "1/s"),
        "trace.overhead_ops_per_s": (traced_ops - untraced_ops, "1/s"),
    }
    if server_ns:  # only http_mixed has a server-side handler span
        metrics["wire.transport.ms_per_request"] = (ratio(client_ns - server_ns, client_calls) / ms, "ms")
    return metrics


def traced(workload, seed: int, seconds: float) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import tracing

    untraced = phase(workload, seed, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = phase(workload, seed, seconds / 2, tracer)
    finally:
        leaked = tracer.uninstall()
    canary(workload, untraced)
    child = run["children"][0]
    leaked += child.get("leaked", [])
    exports = [tracer.export()] + ([child["trace"]] if child.get("trace") else [])
    export = tracing.merge(*exports)
    TRACE_OUT.mkdir(exist_ok=True)
    out = TRACE_OUT / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps(export))
    notes = {"leaked_attributes": ", ".join(leaked) or "none", "spans_written_to": str(out.relative_to(ROOT))}
    for name, row in sorted(tracing.span_totals(export["spans"]).items()):
        notes[f"span {name}"] = (
            f"{row['calls']} calls, {row['total_ns'] / 1e6:.1f} ms total, {row['self_ns'] / 1e6:.1f} ms self"
        )
    return {
        "attempted": untraced["attempted"] + run["attempted"],
        "failed": untraced["failed"] + run["failed"] + len(leaked),
        "metrics": layer_metrics(export, untraced["ops_per_s"], run["ops_per_s"]),
        "notes": notes,
    }


def report(name: str, result: dict) -> dict:
    """Print the human-readable table; return the driver's JSON object."""
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name:<15} {metric:<52} {value:>14.6g} {unit}")
    for key, text in result["notes"].items():
        print(f"{name:<15} {key:<52} {text}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds * 3 + 600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.workload == "all":
        out = run_all(args)
    else:
        workload = workloads.WORKLOADS[args.workload]
        run = traced if args.trace else end_to_end
        out = report(args.workload, run(workload, args.seed, args.seconds))
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
