"""Declarative attack/defense scenarios and their deterministic execution.

A scenario document describes a world (incumbent database, coverage,
model configs), a set of APs with true positions, GNSS spoofers, and an
ordered event timeline. Execution is single-threaded over logical time
with all randomness drawn from per-AP, per-event streams derived from the
scenario seed, so a scenario always produces byte-identical reports.

Harm is the point of the exercise: grants are computed from reported
(possibly spoofed) positions, but interference at incumbents is assessed
from true positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

from . import access_point as ap
from .channels import CHANNEL_POSITION, CHANNELS, ChannelId
from .detection import (
    DEFAULT_GROUP_THRESHOLD_M,
    DetectionVerdict,
    geofence_check,
    group_consistency_check,
)
from .errors import ScenarioParseError, ScenarioValidationError
from .geo import Geofence, GeoPoint, haversine_distance
from .gnss import (
    DEFAULT_CAPTURE_MARGIN_DB,
    LEGIT,
    SPOOFER,
    GnssNoiseModel,
    GnssSource,
    compute_fix,
    received_power_dbm,
)
from .propagation import FREQ_LOSS_DB, MAX_DB, walk_links
from .propagation import (  # noqa: F401  (perfbench/tracing.py counts calls through these names)
    constrains,
    i_over_n_db,
)
from .server import World, handle_inquiry, is_date
from .wire import (
    build,
    get_field,
    get_int,
    get_int_list,
    get_list,
    get_num,
    get_obj,
    get_present,
    get_text,
    decode_geofence,
    decode_geopoint,
    decode_world,
    encode_channel,
    epoch_to_iso,
    iso_to_epoch,
    parse_json,
)
from .wire import decode_database  # noqa: F401  (perfbench/tracing.py counts calls through this name)

ADVANCE_CLOCK = "ADVANCE_CLOCK"
SET_AP_CLOCK_OFFSET = "SET_AP_CLOCK_OFFSET"
RUN_INQUIRY = "RUN_INQUIRY"
RUN_DETECTORS = "RUN_DETECTORS"

ACTIONS = (ADVANCE_CLOCK, SET_AP_CLOCK_OFFSET, RUN_INQUIRY, RUN_DETECTORS)


@dataclass(frozen=True)
class ApSpec:
    config: ap.ApConfig
    true_position: GeoPoint
    deployment_registration: GeoPoint
    geofence: Geofence | None = None
    legit_power_dbm: float = -110.0
    initial_clock_offset_s: float = 0.0


@dataclass(frozen=True)
class SpooferSpec:
    position: GeoPoint
    broadcast_position: GeoPoint
    tx_power_dbm: float
    time_offset_s: float = 0.0
    active_window: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        if not math.isfinite(self.time_offset_s):
            raise ValueError("time offset must be finite")
        if not (-MAX_DB <= self.tx_power_dbm <= MAX_DB):
            raise ValueError(f"transmit power must be finite and within ±{MAX_DB:g} dBm")


@dataclass(frozen=True)
class TimelineEvent:
    at: float
    action: str
    ap_serial: str | None = None
    offset_s: float | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    epoch_s: float
    world: World
    gnss_noise: GnssNoiseModel = GnssNoiseModel()
    capture_margin_db: float = DEFAULT_CAPTURE_MARGIN_DB
    group_threshold_m: float = DEFAULT_GROUP_THRESHOLD_M
    aps: tuple[ApSpec, ...] = ()
    spoofers: tuple[SpooferSpec, ...] = ()
    timeline: tuple[TimelineEvent, ...] = ()

    def __post_init__(self):
        _validate(self)


@dataclass(frozen=True)
class HarmRow:
    link_id: str
    ap_serial: str
    channel: ChannelId
    i_over_n_db: float
    violated: bool


@dataclass(frozen=True)
class HarmMetrics:
    worst_i_over_n_db: dict[str, float]
    violation_count: int


@dataclass
class ScenarioReport:
    scenario_name: str
    seed: int
    epoch_s: float
    events: list[dict] = field(default_factory=list)
    ap_rows: dict[str, dict] = field(default_factory=dict)
    harm_rows: list[HarmRow] = field(default_factory=list)
    harm_metrics: HarmMetrics = field(default_factory=lambda: HarmMetrics({}, 0))
    detections: list[dict] = field(default_factory=list)
    final_states: dict[str, ap.ApState] = field(default_factory=dict)
    final_time_s: float = 0.0

    @property
    def rendered_reports(self) -> dict[str, str]:
        """Each AP's console channel report at the final time, rendered on each read."""
        return {
            serial: ap.render_channel_report(state, ap.local_now(state, self.final_time_s))
            for serial, state in self.final_states.items()
        }

    @property
    def has_harm_violations(self) -> bool:
        return self.harm_metrics.violation_count > 0

    @property
    def has_compliance_violations(self) -> bool:
        return any(row.get("complianceViolation") for row in self.ap_rows.values())

    @property
    def has_violations(self) -> bool:
        return self.has_harm_violations or self.has_compliance_violations

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "epoch": epoch_to_iso(self.epoch_s),
            "events": self.events,
            "aps": self.ap_rows,
            "harm": [
                {
                    "linkId": r.link_id,
                    "apSerial": r.ap_serial,
                    "channel": encode_channel(r.channel),
                    "iOverNDb": round(r.i_over_n_db, 4),
                    "violated": r.violated,
                }
                for r in self.harm_rows
            ],
            "harmSummary": {
                "worstIOverNDb": {
                    k: round(v, 4) for k, v in sorted(self.harm_metrics.worst_i_over_n_db.items())
                },
                "violationCount": self.harm_metrics.violation_count,
            },
            "detections": self.detections,
        }

    def dumps(self) -> str:
        """The report as json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\\n" writes it.

        The fixed schema is written directly: each harm row as one string,
        and the other lists and maps by _write_json.
        """
        worst = {k: round(v, 4) for k, v in self.harm_metrics.worst_i_over_n_db.items()}
        name, seed, text = self.scenario_name, self.seed, _SCALAR_TEXT
        out = ['{\n  "aps": ']
        _write_json(self.ap_rows, out, "\n  ")
        out.append(',\n  "detections": ')
        _write_json(self.detections, out, "\n  ")
        out.append(f',\n  "epoch": "{epoch_to_iso(self.epoch_s)}",\n  "events": ')
        _write_json(self.events, out, "\n  ")
        out.append(f',\n  "harm": {_harm_rows(self.harm_rows)},\n  "harmSummary": ')
        _write_json({"violationCount": self.harm_metrics.violation_count, "worstIOverNDb": worst}, out, "\n  ")
        out.append(f',\n  "scenario": {text[type(name)](name)},\n  "seed": {text[type(seed)](seed)}\n}}\n')
        return "".join(out)


# What json writes for the non-finite floats, keyed by their repr.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(o: float) -> str:
    text = float.__repr__(o)
    return text if -math.inf < o < math.inf else _NON_FINITE[text]


class _ScalarText(dict):
    """What json.dumps writes for a str, float, int, bool or None, keyed by its exact type."""

    def __missing__(self, t):
        raise TypeError(f"{t.__name__} is not a report value")


_SCALAR_TEXT = _ScalarText({
    str: encode_basestring_ascii, float: _float_text, int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__,
})


def _write_json(o, out: list[str], newline: str) -> None:
    """Append o to out as json.dumps(o, sort_keys=True, indent=2) writes it.

    newline is "\\n" and the indentation of o's own line. Containers must be
    dicts with str keys and lists; every other value a str, float, int, bool
    or None of exactly that type, written in place. json.dumps with indent
    runs its pure-Python encoder, which costs several times this. A
    module-level function, not a closure over itself, so no reference cycle
    keeps a report's pieces alive.
    """
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            value = o[key]
            vt = type(value)
            if vt is dict or vt is list:
                out.append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(value, out, inner)
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}: {_SCALAR_TEXT[vt](value)}")
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            vt = type(item)
            if vt is dict or vt is list:
                out.append(sep)
                _write_json(item, out, inner)
            else:
                out.append(sep + _SCALAR_TEXT[vt](item))
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_SCALAR_TEXT[t](o))


def _json_text(o) -> str:
    """What _write_json writes for o as a value in a top-level row."""
    out: list[str] = []
    _write_json(o, out, "\n      ")
    return "".join(out)


# The harm-row channel text of each channels.CHANNELS instance, keyed by its id
# as wire._GRANT_TEXT is; any other instance has its text built.
_CHANNEL_TEXT: dict[int, str] = {id(ch): _json_text(encode_channel(ch)) for ch in CHANNELS}


def _harm_rows(rows: list[HarmRow]) -> str:
    """The harm list as _write_json writes ScenarioReport.to_jsonable()["harm"]."""
    channel_text, text = _CHANNEL_TEXT.get, _SCALAR_TEXT  # bound once, as the loop runs for every row
    items = []
    for r in rows:
        ratio, violated = round(r.i_over_n_db, 4), r.violated
        items.append(
            f'{{\n      "apSerial": {encode_basestring_ascii(r.ap_serial)},'
            f'\n      "channel": {channel_text(id(r.channel)) or _json_text(encode_channel(r.channel))},'
            f'\n      "iOverNDb": {text[type(ratio)](ratio)},'
            f'\n      "linkId": {encode_basestring_ascii(r.link_id)},'
            f'\n      "violated": {text[type(violated)](violated)}\n    }}'
        )
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


# ---------------------------------------------------------------------------
# Loading.

def load_scenario(document: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario JSON document; an omitted optional field takes its model's default."""
    obj = parse_json(document)
    if not isinstance(obj, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    seed_v = get_int(obj, "seed", "scenario") if "seed" in obj else 0
    try:
        epoch_s = iso_to_epoch(get_text(obj, "epoch", "scenario"))
    except ValueError as e:
        raise ScenarioParseError(f"not an ISO-8601 time: {e}", field="epoch") from e

    world_obj = get_obj(obj, "world", "scenario")
    geofences: dict[str, Geofence] = {}

    aps: list[ApSpec] = []
    for i, a in enumerate(get_list(obj, "aps", "scenario")):
        where = f"aps[{i}]"
        serial = get_text(a, "serial", where)
        config = {}
        if "inquiredBandwidthsMhz" in a:
            config["inquired_bandwidths"] = get_int_list(a, "inquiredBandwidthsMhz", where)
        certification_id = (
            get_text(a, "certificationId", where) if "certificationId" in a else f"CERT-{serial}"
        )
        config.update(get_present(a, where, height_m="heightM", refresh_interval_s="refreshIntervalS"))
        cfg = build(ap.ApConfig, where, serial, certification_id, **config)
        true_pos = decode_geopoint(get_field(a, "truePosition", where), f"{where}.truePosition")
        deployment = (
            decode_geopoint(a["deploymentRegistration"], f"{where}.deploymentRegistration")
            if "deploymentRegistration" in a
            else true_pos
        )
        fence = (
            decode_geofence(a["geofence"], f"{where}.geofence") if "geofence" in a else None
        )
        if fence is not None:
            geofences[serial] = fence
        signal = get_present(a, where, legit_power_dbm="legitPowerDbm", initial_clock_offset_s="clockOffsetS")
        aps.append(ApSpec(cfg, true_pos, deployment, fence, **signal))

    spoofers: list[SpooferSpec] = []
    for i, s in enumerate(get_list(obj, "spoofers", "scenario")):
        where = f"spoofers[{i}]"
        position = decode_geopoint(get_field(s, "position", where), f"{where}.position")
        window = {}
        if "activeWindow" in s:
            w = s["activeWindow"]
            if (
                not isinstance(w, list)
                or len(w) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in w)
            ):
                raise ScenarioParseError("must be [t0, t1]", field=f"{where}.activeWindow")
            try:
                window["active_window"] = (float(w[0]), float(w[1]))
            except OverflowError:  # an integer literal beyond the float range
                raise ScenarioParseError("integer too large for a float", field=f"{where}.activeWindow") from None
        broadcast = decode_geopoint(get_field(s, "broadcastPosition", where), f"{where}.broadcastPosition")
        tx_power = get_num(s, "txPowerDbm", where)
        offset = get_present(s, where, time_offset_s="timeOffsetS")
        spoofers.append(build(SpooferSpec, where, position, broadcast, tx_power, **offset, **window))

    timeline: list[TimelineEvent] = []
    for i, e in enumerate(get_list(obj, "timeline", "scenario")):
        where = f"timeline[{i}]"
        action, at = get_text(e, "action", where), get_num(e, "at", where)
        serial = {"ap_serial": get_text(e, "ap", where)} if "ap" in e else {}
        timeline.append(TimelineEvent(at, action, **serial, **get_present(e, where, offset_s="offsetS")))

    gnss_obj = get_obj(obj, "gnss", "scenario")
    noise_fields = get_present(gnss_obj, "gnss", sigma_m="sigmaM", ellipse_scale="ellipseScale")
    noise = build(GnssNoiseModel, "gnss", **noise_fields)
    capture_margin = get_present(gnss_obj, "gnss", capture_margin_db="captureMarginDb")
    detection_obj = get_obj(obj, "detection", "scenario")
    group_threshold = get_present(detection_obj, "detection", group_threshold_m="groupThresholdM")

    world = decode_world(world_obj, "world")
    if geofences:  # an AP's own geofence takes the place of the policy's for its serial
        policy = world.policy
        world = replace(world, policy=replace(policy, geofence_registry={**policy.geofence_registry, **geofences}))

    return Scenario(
        name=get_text(obj, "name", "scenario") if "name" in obj else name,
        seed=seed_v,
        epoch_s=epoch_s,
        world=world,
        gnss_noise=noise,
        **capture_margin,
        **group_threshold,
        aps=tuple(aps),
        spoofers=tuple(spoofers),
        timeline=tuple(timeline),
    )


def _validate(s: Scenario) -> None:
    # Range tests as in FsLink: false for NaN, and infinity is out of range.
    if not (-MAX_DB <= s.capture_margin_db <= MAX_DB):
        raise ScenarioValidationError(f"gnss: capture margin must be finite and within ±{MAX_DB:g} dB")
    if not (0.0 <= s.group_threshold_m < math.inf):
        raise ScenarioValidationError("detection: group threshold must be finite and >= 0")
    for i, a in enumerate(s.aps):
        if not (-MAX_DB <= a.legit_power_dbm <= MAX_DB):
            raise ScenarioValidationError(f"aps[{i}]: legit power must be finite and within ±{MAX_DB:g} dBm")
    serials = [a.config.serial for a in s.aps]
    if len(set(serials)) != len(serials):
        raise ScenarioValidationError("duplicate AP serials")
    known = set(serials)
    prev = -math.inf
    for i, ev in enumerate(s.timeline):
        if ev.action not in ACTIONS:
            raise ScenarioValidationError(f"timeline[{i}]: unknown action {ev.action!r}")
        if not math.isfinite(ev.at):
            raise ScenarioValidationError(f"timeline[{i}]: event time must be finite")
        if ev.at < 0:
            raise ScenarioValidationError(f"timeline[{i}]: negative event time")
        if ev.at <= prev:
            raise ScenarioValidationError(
                f"timeline[{i}]: events must be strictly ordered by time"
            )
        prev = ev.at
        if ev.ap_serial is not None and ev.ap_serial not in known:
            raise ScenarioValidationError(f"timeline[{i}]: unknown AP {ev.ap_serial!r}")
        if ev.action == SET_AP_CLOCK_OFFSET:
            if ev.ap_serial is None or ev.offset_s is None:
                raise ScenarioValidationError(
                    f"timeline[{i}]: SET_AP_CLOCK_OFFSET needs ap and offsetS"
                )
    for i, sp in enumerate(s.spoofers):
        if sp.active_window[0] > sp.active_window[1]:
            raise ScenarioValidationError(f"spoofers[{i}]: active window is inverted")
        # Received spoofer power is undefined at zero distance (gnss.received_power_dbm).
        for a in s.aps:
            if haversine_distance(sp.position, a.true_position) == 0.0:
                raise ScenarioValidationError(
                    f"spoofers[{i}]: position coincides with the true position of AP {a.config.serial!r}"
                )
    # The report prints the epoch, the final time on every AP clock and the
    # expiry of a grant issued then; each must be a date.
    end = s.epoch_s + (s.timeline[-1].at if s.timeline else 0.0)
    offsets = [a.initial_clock_offset_s for a in s.aps]
    offsets += [ev.offset_s for ev in s.timeline if ev.offset_s is not None]
    for t in [s.epoch_s, end, end + s.world.policy.grant_lifetime_s] + [end + o for o in offsets]:
        if not is_date(t):
            raise ScenarioValidationError(f"clock time {t} s is not a representable date")


# ---------------------------------------------------------------------------
# Execution.

def run_scenario(s: Scenario) -> ScenarioReport:
    """Execute the timeline and aggregate the report.

    An AP's clock is judged just before its offset changes and at the end: a tick is monotone in
    true time, an inquiry's response replaces whatever grant it held, and detectors read only fixes."""
    report = ScenarioReport(scenario_name=s.name, seed=s.seed, epoch_s=s.epoch_s)
    specs = {a.config.serial: a for a in s.aps}
    # Each AP's legit source and each spoofer's window and source, fixed for the run.
    gnss = {
        serial: (
            GnssSource(LEGIT, spec.true_position, spec.legit_power_dbm),
            [
                (sp.active_window, GnssSource(SPOOFER, sp.broadcast_position, power, sp.time_offset_s))
                for sp in s.spoofers
                for power in (received_power_dbm(sp.tx_power_dbm, sp.position, spec.true_position),)
            ],
        )
        for serial, spec in specs.items()
    }
    states: dict[str, ap.ApState] = {
        serial: ap.ApState(local_clock_offset_s=spec.initial_clock_offset_s)
        for serial, spec in specs.items()
    }
    deployment = {serial: spec.deployment_registration for serial, spec in specs.items()}
    now_t = 0.0

    for idx, ev in enumerate(s.timeline):
        now_t = ev.at
        abs_now = s.epoch_s + now_t

        if ev.action == ADVANCE_CLOCK:
            report.events.append({"at": now_t, "action": ev.action})

        elif ev.action == SET_AP_CLOCK_OFFSET:
            serial = ev.ap_serial
            states[serial] = ap.set_clock_offset(ap.tick(states[serial], abs_now), ev.offset_s)
            report.events.append(
                {"at": now_t, "action": ev.action, "ap": serial, "offsetS": ev.offset_s}
            )

        elif ev.action == RUN_INQUIRY:
            targets = [ev.ap_serial] if ev.ap_serial else list(specs)
            for serial in targets:
                spec = specs[serial]
                legit, spoofers = gnss[serial]
                sources = [legit] + [source for (t0, t1), source in spoofers if t0 <= now_t <= t1]
                fix = compute_fix(
                    spec.true_position,
                    sources,
                    true_time=abs_now,
                    noise=s.gnss_noise,
                    rng_seed=f"{s.seed}:{idx}:{serial}",
                    capture_margin_db=s.capture_margin_db,
                )
                states[serial] = ap.acquire_fix(states[serial], fix)
                states[serial], req = ap.submit_inquiry(
                    states[serial], spec.config, request_id=f"{serial}-{idx}"
                )
                resp = handle_inquiry(
                    req,
                    abs_now,
                    s.world.database,
                    s.world.policy,
                    s.world.propagation,
                    s.world.protection,
                )
                states[serial] = ap.apply_response(
                    states[serial], resp, ap.local_now(states[serial], abs_now)
                )
                report.events.append({
                    "at": now_t, "action": ev.action, "ap": serial, "responseCode": resp.response_code.value,
                    "grantCount": len(resp.grants), "winningKind": fix.winning_kind,
                })

        elif ev.action == RUN_DETECTORS:
            rows = _run_detectors(s, specs, states, deployment, now_t)
            report.detections.extend(rows)
            report.events.append(
                {"at": now_t, "action": ev.action, "alarms": sum(r["alarm"] for r in rows)}
            )

    abs_final = report.final_time_s = s.epoch_s + now_t
    intents = []
    for serial, state in states.items():
        spec = specs[serial]
        state = ap.tick(state, abs_final)
        chosen = ap.choose_transmit_channel(state)
        compliance_violation = (
            state.phase is ap.ApPhase.AUTHORIZED
            and state.grants is not None
            and abs_final >= state.grants.expire_time
        )
        row = {
            "phase": state.phase.value,
            "grantCount": len(state.grants.grants) if state.grants else 0,
            "clockOffsetS": state.local_clock_offset_s,
            "complianceViolation": compliance_violation,
        }
        if state.last_fix is not None:
            c = state.last_fix.ellipse.center
            row["reportedPosition"] = {"latitude": c.lat_deg, "longitude": c.lon_deg}
            row["fixWinner"] = state.last_fix.winning_kind
        if chosen is not None:
            row["transmitChannel"] = encode_channel(chosen.channel)
            row["transmitEirpDbm"] = chosen.max_eirp_dbm
            intents.append((serial, spec.true_position, chosen.channel, chosen.max_eirp_dbm))
        report.ap_rows[serial] = row
        report.final_states[serial] = state

    report.harm_rows, report.harm_metrics = assess_harm(intents, s.world)
    return report


def _run_detectors(s, specs, states, deployment: dict[str, GeoPoint], now_t: float) -> list[dict]:
    rows: list[dict] = []
    for serial in sorted(specs):
        spec = specs[serial]
        state = states[serial]
        if spec.geofence is None or state.last_fix is None:
            continue
        verdict = geofence_check(state.last_fix.ellipse.center, spec.geofence)
        rows.append(_verdict_row("geofence", verdict, now_t, ap_serial=serial))
    reported = {
        serial: states[serial].last_fix.ellipse.center
        for serial in specs
        if states[serial].last_fix is not None
    }
    if len(reported) >= 2:
        verdict = group_consistency_check(reported, deployment, s.group_threshold_m)
        rows.append(_verdict_row("group_consistency", verdict, now_t))
    return rows


def _verdict_row(
    kind: str, verdict: DetectionVerdict, now_t: float, ap_serial: str | None = None
) -> dict:
    row = {
        "at": now_t,
        "type": kind,
        "alarm": verdict.alarm,
        "scoreM": round(verdict.score_m, 3),
        "detail": verdict.detail,
    }
    if ap_serial is not None:
        row["ap"] = ap_serial
    return row


def assess_harm(intents, world: World) -> tuple[list[HarmRow], HarmMetrics]:
    """Interference assessment at incumbents, from true AP positions.

    intents rows are (ap_serial, true_position, channel, eirp_dbm) for
    every AP that would actually transmit.
    """
    rows: list[HarmRow] = []
    worst: dict[str, float] = {}
    violating_pairs: set[tuple[str, ChannelId]] = set()
    db = world.database
    links = db.fs_links
    for serial, true_pos, channel, eirp in intents:
        p = CHANNEL_POSITION[channel]
        freq_loss = FREQ_LOSS_DB[p]
        on_channel = (row for row in db.link_rows if p in row[2])
        # No contraction: the true position is known. The 1 m floor of the grant
        # side also holds for an AP on the receiver. An infinite ceiling skips
        # no row, so every co-channel link is reported.
        for i, _, _, budget in walk_links(
            on_channel, true_pos, 0.0, world.propagation, world.protection.i_over_n_limit_db, math.inf
        ):
            link = links[i]
            ratio = budget.i_over_n_db(freq_loss, eirp)
            violated = ratio > world.protection.i_over_n_limit_db
            rows.append(
                HarmRow(
                    link_id=link.id,
                    ap_serial=serial,
                    channel=channel,
                    i_over_n_db=ratio,
                    violated=violated,
                )
            )
            if link.id not in worst or ratio > worst[link.id]:
                worst[link.id] = ratio
            if violated:
                violating_pairs.add((serial, channel))
    return rows, HarmMetrics(worst_i_over_n_db=worst, violation_count=len(violating_pairs))
