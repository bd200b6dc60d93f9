"""Spans and call counts at the public boundaries of afcsim's modules.

Tracing works from outside the program: ``Tracer.install`` rebinds the
module (or class) attributes through which callers look up each public
function, and ``Tracer.uninstall`` puts the originals back. Coarse
boundaries are timed as spans; the hot inner functions are only counted,
because timing a call that takes a microsecond would distort it.

A span records its name, operation id, parent, start and end. Spans opened
while another is open on the same thread are its children and share its
operation id, so self time (duration minus the time covered by children)
comes out per layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time

# (span name, [(owner, attribute), ...]). The owners are every place where a
# caller in afcsim, or the benchmark itself, looks the function up.
TIMED = (
    ("wire.decode_database", [("afcsim.wire", "decode_database"), ("afcsim.scenario", "decode_database")]),
    ("wire.decode_request", [("afcsim.wire", "decode_request")]),
    ("wire.encode_response", [("afcsim.wire", "encode_response")]),
    ("wire.dumps_response", [("afcsim.wire", "dumps_response")]),
    ("wire.post_inquiry", [("afcsim.wire", "post_inquiry")]),
    ("wire.handle_post", [("afcsim.wire:_InquiryHandler", "do_POST")]),
    ("server.handle_inquiry", [("afcsim.server", "handle_inquiry"), ("afcsim.wire", "handle_inquiry"), ("afcsim.scenario", "handle_inquiry")]),
    ("server.validate_request", [("afcsim.server", "validate_request")]),
    ("server.compute_availability", [("afcsim.server", "compute_availability")]),
    ("scenario.load_scenario", [("afcsim.scenario", "load_scenario")]),
    ("scenario.run_scenario", [("afcsim.scenario", "run_scenario")]),
    ("scenario.report_dumps", [("afcsim.scenario:ScenarioReport", "dumps")]),
    ("scenario.assess_harm", [("afcsim.scenario", "assess_harm")]),
    ("gnss.compute_fix", [("afcsim.scenario", "compute_fix")]),
    ("access_point.apply_response", [("afcsim.access_point", "apply_response")]),
    ("access_point.render_channel_report", [("afcsim.access_point", "render_channel_report")]),
    ("detection.geofence_check", [("afcsim.scenario", "geofence_check")]),
    ("detection.group_consistency_check", [("afcsim.scenario", "group_consistency_check")]),
)

COUNTED = (
    ("channels.channel_span", [("afcsim.channels", "channel_span"), ("afcsim.propagation", "channel_span"), ("afcsim.server", "channel_span")]),
    ("propagation.constrains", [("afcsim.server", "constrains"), ("afcsim.scenario", "constrains")]),
    ("propagation.max_permissible_eirp_dbm", [("afcsim.server", "max_permissible_eirp_dbm")]),
    ("propagation.i_over_n_db", [("afcsim.scenario", "i_over_n_db")]),
    ("geo.haversine_distance", [("afcsim.geo", "haversine_distance"), ("afcsim.server", "haversine_distance"), ("afcsim.propagation", "haversine_distance"), ("afcsim.detection", "haversine_distance")]),
)


def _binding(result, args, kwargs) -> bool:
    """A permissible-EIRP evaluation that withholds or lowers the channel."""
    prot = args[4] if len(args) > 4 else kwargs["prot"]
    return result is None or result < prot.regulatory_max_eirp_dbm


# Outcome counters, stored under "<name>:<outcome>".
OUTCOMES = {
    "propagation.constrains": ("overlap", lambda r, a, k: r),
    "propagation.max_permissible_eirp_dbm": ("binding", _binding),
    "server.validate_request": ("rejected", lambda r, a, k: r is not None),
    "server.handle_inquiry": ("grants", lambda r, a, k: len(r.grants)),
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _ThreadState:
    __slots__ = ("spans", "stack", "counts")

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent index or -1, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class _Span:
    __slots__ = ("tracer", "name", "st", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.st, self.index = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.st, self.index)


class Tracer:
    """In-memory spans and counts; one instance per traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._ops = itertools.count()
        self._pid = os.getpid()  # keeps operation ids apart when processes merge spans
        self._saved: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
            return st

    def _open(self, name: str) -> tuple[_ThreadState, int]:
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
            op = st.spans[parent][1]
        else:
            parent, op = -1, f"{self._pid}-{next(self._ops)}"
        st.spans.append([name, op, parent, time.perf_counter_ns(), 0])
        index = len(st.spans) - 1
        st.stack.append(index)
        return st, index

    @staticmethod
    def _close(st: _ThreadState, index: int) -> None:
        st.spans[index][4] = time.perf_counter_ns()
        st.stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def count(self, key: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    def _timed(self, name: str, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, index)
            if outcome is not None:
                self.count(f"{name}:{outcome[0]}", int(outcome[1](result, args, kwargs)))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            if outcome is not None and outcome[1](result, args, kwargs):
                key = f"{name}:{outcome[0]}"
                counts[key] = counts.get(key, 0) + 1
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced attribute to its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, owners in table:
                wrappers: dict[int, object] = {}
                for spec, attr in owners:
                    owner = _owner(spec)
                    original = owner.__dict__[attr]
                    wrapper = wrappers.setdefault(id(original), make(name, original))
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes that did not come back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if owner.__dict__[attr] is not original
        ]
        self._saved = []
        return leaked

    def export(self) -> dict:
        """Spans (parents as global indices) and merged counts, JSON-ready."""
        with self._lock:
            threads = list(self._threads)
        return merge(*({"spans": st.spans, "counts": st.counts} for st in threads))


def merge(*exports: dict) -> dict:
    """Combine exports of several threads or processes into one."""
    spans: list[list] = []
    counts: dict[str, int] = {}
    for ex in exports:
        base = len(spans)
        spans.extend(
            [name, op, parent + base if parent >= 0 else -1, start, end]
            for name, op, parent, start, end in ex["spans"]
        )
        for key, n in ex["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return {"spans": spans, "counts": counts}


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time in ns."""
    child_ns = [0] * len(spans)
    for name, op, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, op, parent, start, end) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return out
