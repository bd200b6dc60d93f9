"""The three benchmark workloads, their closed loops and output checks.

Each workload turns a seed into inputs (``gen``), sets the program up on
them, and exposes one operation: an inquiry, an HTTP reply or a scenario
run. Every operation returns the canonical bytes of its output, whose
SHA-256 is compared with the digests frozen in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from http.client import HTTPConnection
from importlib import resources
from pathlib import Path
from typing import Callable

import gen
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seeds whose digests are frozen for every pool item. PRIMARY_SEED is the
# seed a change is developed against; HOLDOUT_SEED is kept for confirming a
# claim on inputs not used while the change was written.
PRIMARY_SEED = 1
HOLDOUT_SEED = 7
FROZEN_SEEDS = (PRIMARY_SEED, HOLDOUT_SEED)
DIGESTS = HERE / "digests.json"

HTTP_TIMEOUT_S = 5.0
SERVER_START_TIMEOUT_S = 60.0


def load_program():
    """Import afcsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "afcsim" / "__init__.py").is_file():
        raise ImportError(f"afcsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import afcsim

    if Path(afcsim.__file__).resolve().parent != (SRC / "afcsim").resolve():
        raise ImportError(f"afcsim was imported from {afcsim.__file__}, not {SRC}")
    return afcsim


load_program()
from afcsim import scenario, server, wire  # noqa: E402

NO_SPAN = contextlib.nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frozen_digests(workload: str, seed: int) -> list[str] | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


class Session:
    """A program set up on one seed's inputs: op(i) -> canonical output text."""

    def __init__(self, op, size: int, close=None):
        self.op = op
        self.size = size
        self._close = close

    def close(self) -> dict:
        return self._close() if self._close else {}


# ---------------------------------------------------------------------------
# inquiry_conus: decode_request -> handle_inquiry -> dumps_response, in process.

def _default_configs():
    return wire.decode_policy({}), wire.decode_propagation({}), wire.decode_protection({})


def setup_inquiry_conus(inputs, tracer=None) -> Session:
    db_text, requests = inputs
    db = wire.decode_database(json.loads(db_text))
    policy, pcfg, prot = _default_configs()

    def op(i: int) -> str:
        req = wire.decode_request(json.loads(requests[i]))
        resp = server.handle_inquiry(req, gen.EPOCH_S, db, policy, pcfg, prot)
        return wire.dumps_response(resp)

    return Session(op, len(requests))


# ---------------------------------------------------------------------------
# scenario_sweep: load_scenario -> run_scenario -> report.dumps(), in process.

def bundled_scenarios() -> list[str]:
    folder = resources.files("afcsim").joinpath("scenarios")
    return [p.read_text() for p in sorted(folder.iterdir(), key=lambda p: p.name) if p.name.endswith(".json")]


def generate_scenario_sweep(seed: int) -> list[str]:
    return bundled_scenarios() + gen.scenario_sweep(seed)


def setup_scenario_sweep(texts, tracer=None) -> Session:
    # Parse and validate the whole sweep once up front, as a sweep driver
    # would before its first run; each operation still loads its own copy.
    for text in texts:
        scenario.load_scenario(text)

    def op(i: int) -> str:
        return scenario.run_scenario(scenario.load_scenario(texts[i])).dumps()

    return Session(op, len(texts))


# ---------------------------------------------------------------------------
# http_mixed: AfcService in a child process, closed-loop clients here.

class ServerChild:
    """``server_child.py`` serving one world; always killed by ``stop``."""

    def __init__(self, world_text: str, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buf = b""
        try:
            self._send({"world": world_text, "now": gen.EPOCH_S, "trace": traced})
            self.port = self._recv(SERVER_START_TIMEOUT_S)["port"]
        except BaseException:
            self.kill()
            raise

    def _send(self, obj) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())

    def _recv(self, timeout: float):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server child did not answer in time")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise EOFError("server child exited")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> dict:
        """Ask the child to shut down and report; kill it whatever happens."""
        try:
            self._send("stop")
            return self._recv(SERVER_START_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        """Close the child's stdin (its signal to stop), then reap it."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def post_raw(host: str, port: int, body: bytes, timeout: float) -> dict:
    """post_inquiry for a body that is not valid JSON."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", wire.INQUIRY_PATH, body=body, headers={"Content-Type": "application/json"})
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


def _http_requests(pool):
    """(class, decoded object or None, raw body) per pool item."""
    out = []
    for kind, body in pool:
        try:
            obj = json.loads(body)
        except json.JSONDecodeError:
            obj = None
        out.append((kind, obj, body.encode()))
    return out


def setup_http_mixed(inputs, tracer=None) -> Session:
    world_text, pool = inputs
    child = ServerChild(world_text, traced=tracer is not None)
    host, port = "127.0.0.1", child.port
    requests = _http_requests(pool)
    raw_span = (lambda: tracer.span("bench.post_raw")) if tracer else (lambda: NO_SPAN)

    def op(i: int) -> str:
        kind, obj, body = requests[i]
        if obj is not None:
            reply = wire.post_inquiry(host, port, obj, timeout=HTTP_TIMEOUT_S)
        else:
            with raw_span():
                reply = post_raw(host, port, body, HTTP_TIMEOUT_S)
        if reply.get("responseCode") != gen.EXPECTED_CODE[kind]:
            raise AssertionError(f"{kind} request {i} answered {reply.get('responseCode')}")
        return json.dumps(reply, sort_keys=True)

    return Session(op, len(requests), child.stop)


def reference_http_mixed(seed: int) -> Session:
    """The replies the service should send, computed in process by the library.

    Mirrors the service's handler: undecodable bodies become INVALID_REQUEST
    responses carrying whatever request id could be recovered.
    """
    world_text, pool = gen.http_mixed(seed)
    world = json.loads(world_text)
    db = wire.decode_database(world["database"])
    policy = wire.decode_policy(world["policy"])
    _, pcfg, prot = _default_configs()
    invalid = server.ResponseCode.INVALID_REQUEST

    def op(i: int) -> str:
        try:
            req = wire.decode_request(json.loads(pool[i][1]))
        except wire.RequestDecodeError as e:
            resp = server.SpectrumInquiryResponse(e.request_id, invalid)
        except ValueError:
            resp = server.SpectrumInquiryResponse("", invalid)
        else:
            resp = server.handle_inquiry(req, gen.EPOCH_S, db, policy, pcfg, prot)
        return wire.dumps_response(resp)

    return Session(op, len(pool))


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], object]  # seed -> inputs; not part of set-up time
    setup: Callable[..., Session]  # (inputs, tracer=None) -> the session that is measured
    reference: Callable[[int], Session]  # seed -> in-process outputs, for freezing and the canary
    clients: int = 1  # closed-loop client threads
    warmup: int = 2  # untimed (but checked) ops after each set-up
    canary: int = 3  # primary-seed items re-checked on every unfrozen seed
    setups: int = 5  # set-up samples per round; starting a server is dear, so it takes 1
    probed: bool = True  # scale times by the host-speed probe; not with concurrent clients


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inquiry_conus",
            gen.inquiry_conus,
            setup_inquiry_conus,
            lambda seed: setup_inquiry_conus(gen.inquiry_conus(seed)),
            warmup=1,
        ),
        Workload(
            "http_mixed",
            gen.http_mixed,
            setup_http_mixed,
            reference_http_mixed,
            clients=max(1, min(2, os.cpu_count() or 1)),
            warmup=4,
            canary=len(gen.HTTP_MIX),
            setups=1,
            probed=False,
        ),
        Workload(
            "scenario_sweep",
            generate_scenario_sweep,
            setup_scenario_sweep,
            lambda seed: setup_scenario_sweep(generate_scenario_sweep(seed)),
            canary=10,
        ),
    )
}


# ---------------------------------------------------------------------------
# Closed loop and checks.

def closed_loop(
    session: Session, seconds: float, clients: int = 1, span=None, max_ops=None, first: int = 0, probe=False
):
    """Run ops back to back on `clients` threads until the deadline.

    Items are taken in order from `first`, wrapping around the pool.
    Returns (records, elapsed_s); a record is (start, item, latency_s,
    sha256 of the output or None when the op raised, probe_s). With
    `probe`, the host-speed probe runs after every op and probe_s is its
    time; otherwise probe_s is None.
    """
    span = span or (lambda: NO_SPAN)
    counter = itertools.count(first)
    per_client: list[list] = [[] for _ in range(clients)]
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(records: list) -> None:
        while True:
            n = next(counter)
            t0 = time.perf_counter()
            if t0 >= deadline or (max_ops is not None and n >= first + max_ops):
                return
            item = n % session.size
            try:
                with span():
                    out = session.op(item)
                latency, digest = time.perf_counter() - t0, sha256(out)
            except Exception as e:  # a failed op is counted, never fatal
                latency, digest = time.perf_counter() - t0, None
                if len(errors) < 5:
                    errors.append("".join(traceback.format_exception_only(type(e), e)).strip())
            records.append((t0, item, latency, digest, hostspeed.time_probe() if probe else None))

    threads = [threading.Thread(target=client, args=(r,)) for r in per_client]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    for message in errors:
        print(f"op failed: {message}", file=sys.stderr)
    return sorted(itertools.chain.from_iterable(per_client)), elapsed


def count_failures(records, frozen: list[str] | None) -> int:
    """Outputs that differ from the frozen digest of their item.

    Without frozen digests (a seed outside FROZEN_SEEDS), every repeat of an
    item must reproduce the bytes of its first run.
    """
    seen: dict[int, str | None] = {}
    failed = 0
    for _, item, _, digest, _ in records:
        expected = frozen[item] if frozen else seen.setdefault(item, digest)
        failed += digest is None or digest != expected
    return failed


def canary_failures(workload: Workload) -> tuple[int, int]:
    """(attempted, failed) for the primary seed's first items, checked in process."""
    frozen = frozen_digests(workload.name, PRIMARY_SEED)
    if frozen is None:
        raise RuntimeError(f"no frozen digests for {workload.name} seed {PRIMARY_SEED}")
    session = workload.reference(PRIMARY_SEED)
    records, _ = closed_loop(session, float("inf"), max_ops=workload.canary)
    return len(records), count_failures(records, frozen)
