"""End-to-end scenario execution: attacks, defenses, and determinism."""

import json
import math
import random
from dataclasses import replace
from importlib import resources

import pytest

from afcsim import scenario as scenario_module
from afcsim.access_point import local_now, render_channel_report
from afcsim.channels import ChannelId, all_us_channels, channel_span, overlaps
from afcsim.errors import ScenarioParseError, ScenarioValidationError
from afcsim.geo import EARTH_RADIUS_M, GeoPoint, haversine_distance
from afcsim.gnss import LEGIT, SPOOFER
from afcsim.propagation import constrains, max_permissible_eirp_dbm
from afcsim.scenario import HarmMetrics, HarmRow, TimelineEvent, assess_harm, load_scenario, run_scenario
from afcsim.server import IncumbentDatabase, World
from tests.conftest import AP_TRUE
from tests.reference_chain import reference_i_over_n_db
from tests.reference_group import reference_group_check
from tests.worldgen import random_world

SPOOF_TARGET = GeoPoint(30.086965, -101.103761)


def bundled(name: str) -> str:
    return resources.files("afcsim").joinpath("scenarios", name).read_text()


def run_bundled(name: str):
    return run_scenario(load_scenario(bundled(name)))


@pytest.fixture(scope="module")
def a1_report():
    return run_bundled("a1_interference.json")


# --- loading and validation ------------------------------------------------


def test_all_bundled_scenarios_load():
    names = sorted(
        p.name for p in resources.files("afcsim").joinpath("scenarios").iterdir()
    )
    assert names == [
        "a1_geofence.json",
        "a1_interference.json",
        "a2_foreign_location.json",
        "a3_stale_time.json",
        "ap_group_spoof.json",
        "benign.json",
        "sip_exclusion.json",
        "time_rollback.json",
    ]
    for name in names:
        scenario = load_scenario(bundled(name))
        assert scenario.name == name.removesuffix(".json")


def test_bad_json_reports_line():
    with pytest.raises(ScenarioParseError, match="line 3"):
        load_scenario('{\n"seed": 1,\n"epoch": oops\n}')


def base_doc(**overrides):
    doc = {
        "name": "t",
        "seed": 1,
        "epoch": "2025-06-20T00:00:00Z",
        "world": {},
        "aps": [
            {"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}}
        ],
        "timeline": [{"at": 10, "action": "RUN_INQUIRY"}],
    }
    doc.update(overrides)
    # load_scenario refuses the Infinity literal that json.dumps writes for an
    # infinite override; 1e400 still reads as infinity and reaches the field checks.
    return json.dumps(doc).replace("Infinity", "1e400")


def test_duplicate_serials_rejected():
    doc = base_doc(
        aps=[
            {"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}},
            {"serial": "AP-1", "truePosition": {"latitude": 41.0, "longitude": -77.0}},
        ]
    )
    with pytest.raises(ScenarioValidationError, match="duplicate"):
        load_scenario(doc)


def test_repeated_link_id_rejected():
    # Before, a copy of FS-1 0.2 degrees north loaded, and its harm row was
    # reported under FS-1 beside the original's, with one worst I/N for both.
    doc = json.loads(bundled("a1_interference.json"))
    links = doc["world"]["database"]["fsLinks"]
    twin = json.loads(json.dumps(links[0]))
    twin["rxLocation"]["latitude"] += 0.2
    links.append(twin)
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(json.dumps(doc))
    assert info.value.field == "fsLinks[1].id"
    assert str(info.value) == "fsLinks[1].id: duplicate link id 'FS-1'"
    twin["id"] = "FS-2"
    report = run_scenario(load_scenario(json.dumps(doc)))
    assert [row.link_id for row in report.harm_rows] == ["FS-1", "FS-2"]
    assert sorted(report.harm_metrics.worst_i_over_n_db) == ["FS-1", "FS-2"]


def test_unknown_action_rejected():
    doc = base_doc(timeline=[{"at": 10, "action": "EXPLODE"}])
    with pytest.raises(ScenarioValidationError, match="unknown action"):
        load_scenario(doc)


def test_events_must_be_strictly_ordered():
    doc = base_doc(
        timeline=[{"at": 10, "action": "RUN_INQUIRY"}, {"at": 10, "action": "ADVANCE_CLOCK"}]
    )
    with pytest.raises(ScenarioValidationError, match="ordered"):
        load_scenario(doc)


def test_unknown_ap_reference_rejected():
    doc = base_doc(timeline=[{"at": 10, "action": "RUN_INQUIRY", "ap": "AP-9"}])
    with pytest.raises(ScenarioValidationError, match="unknown AP"):
        load_scenario(doc)


def test_clock_event_requires_offset():
    doc = base_doc(timeline=[{"at": 10, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-1"}])
    with pytest.raises(ScenarioValidationError, match="offsetS"):
        load_scenario(doc)


def test_missing_field_paths_in_errors():
    with pytest.raises(ScenarioParseError, match="truePosition"):
        load_scenario(base_doc(aps=[{"serial": "AP-1"}]))


def test_a_name_that_is_not_a_string_is_a_parse_error():
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(base_doc(name=5), name="fallback")
    assert info.value.field == "scenario.name"
    # The name argument stands in only for an omitted name.
    assert load_scenario(base_doc(), name="fallback").name == "t"
    doc = json.loads(base_doc())
    del doc["name"]
    assert load_scenario(json.dumps(doc), name="fallback").name == "fallback"


def test_malformed_epoch_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="epoch"):
        load_scenario(base_doc(epoch="not-a-date"))


def test_non_finite_event_time_rejected():
    # json.loads reads 1e400 as infinity, which passes both the sign and the
    # ordering test. (NaN is refused at parse time; see test_boundaries.py.)
    doc = base_doc().replace('"at": 10', '"at": 1e400')
    with pytest.raises(ScenarioValidationError, match="finite"):
        load_scenario(doc)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"world": []}, "scenario.world"),
        ({"world": {"policy": {"geofences": []}}}, "policy.geofences"),
        ({"world": {"database": {"fsLinks": 3}}}, "database.fsLinks"),
        ({"aps": 5}, "scenario.aps"),
        ({"spoofers": [5]}, "spoofers[0].position"),
        ({"seed": 1.5}, "scenario.seed"),
        (
            {"timeline": [{"at": 10, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-1", "offsetS": "x"}]},
            "timeline[0].offsetS",
        ),
    ],
)
def test_malformed_section_is_a_parse_error(overrides, field):
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(base_doc(**overrides))
    assert info.value.field == field


SPOOFER_DOC = {
    "position": {"latitude": 40.0, "longitude": -77.001},
    "broadcastPosition": {"latitude": 30.0, "longitude": -100.0},
    "txPowerDbm": 10.0,
}

# Inputs the readers let through, which then raised TypeError, OverflowError
# or ValueError (the last two inside run_scenario).
UNREADABLE = {
    "timeline ap as a list": (
        {"timeline": [{"at": 10, "action": "RUN_INQUIRY", "ap": ["AP-1"]}]},
        ScenarioParseError,
    ),
    "event time 1e308": ({"timeline": [{"at": 1e308, "action": "RUN_INQUIRY"}]}, ScenarioValidationError),
    "clock offset 1e308": (
        {"timeline": [{"at": 10, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-1", "offsetS": 1e308}]},
        ScenarioValidationError,
    ),
    "spoofer time offset Infinity": ({"spoofers": [dict(SPOOFER_DOC, timeOffsetS=math.inf)]}, ScenarioParseError),
    "gnss sigma Infinity": ({"gnss": {"sigmaM": math.inf}}, ScenarioParseError),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_fails_at_load(case):
    overrides, error = UNREADABLE[case]
    with pytest.raises(error):
        load_scenario(base_doc(**overrides))


def test_parse_errors_name_their_field_once():
    cases = [
        ({"gnss": {"sigmaM": math.inf}}, "gnss: sigma must be finite and > 0"),
        (
            {"aps": [{"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}, "refreshIntervalS": 0}]},
            "aps[0]: refresh interval must be positive and at most one day",
        ),
        ({"world": {"propagation": {"clutterOffsetDb": math.inf}}}, "propagation: clutter offset must be finite and >= 0"),
    ]
    for overrides, text in cases:
        with pytest.raises(ScenarioParseError) as info:
            load_scenario(base_doc(**overrides))
        assert str(info.value) == text


def test_inverted_spoofer_window_rejected():
    doc = base_doc(
        spoofers=[
            {
                "position": {"latitude": 40.0, "longitude": -77.001},
                "broadcastPosition": {"latitude": 30.0, "longitude": -100.0},
                "txPowerDbm": 10.0,
                "activeWindow": [100, 50],
            }
        ]
    )
    with pytest.raises(ScenarioValidationError, match="window"):
        load_scenario(doc)


def test_spoofer_on_an_ap_is_rejected():
    # Received spoofer power is undefined at zero distance; such a run used to
    # raise CoincidentPoints from gnss.received_power_dbm.
    doc = json.loads(bundled("a1_interference.json"))
    doc["spoofers"][0]["position"] = dict(doc["aps"][0]["truePosition"])
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(json.dumps(doc))
    assert str(info.value) == "spoofers[0]: position coincides with the true position of AP 'AP-1'"
    # Another height at the same latitude and longitude is still the same point.
    doc["spoofers"][0]["position"]["heightM"] = 50.0
    with pytest.raises(ScenarioValidationError, match="AP 'AP-1'"):
        load_scenario(json.dumps(doc))
    # One ulp of longitude away, the run goes through.
    lon = doc["aps"][0]["truePosition"]["longitude"]
    doc["spoofers"][0]["position"]["longitude"] = math.nextafter(lon, 0.0)
    assert run_scenario(load_scenario(json.dumps(doc))).events
    # At longitude 0 one ulp away is 5e-324 degrees, whose distance underflows to 0 m.
    doc["aps"][0]["truePosition"]["longitude"] = 0.0
    doc["spoofers"][0]["position"]["longitude"] = 5e-324
    with pytest.raises(ScenarioValidationError, match="AP 'AP-1'"):
        load_scenario(json.dumps(doc))


def test_a_scenario_built_in_code_is_validated_when_made():
    # A Scenario built in code fails as a loaded one does, when it is made: a run never sees it.
    scenario = load_scenario(bundled("a1_interference.json"))
    at = scenario.timeline[-1].at + 1.0
    with pytest.raises(ScenarioValidationError, match="unknown AP 'AP-9'"):
        replace(scenario, timeline=scenario.timeline + (TimelineEvent(at, "RUN_INQUIRY", ap_serial="AP-9"),))
    # A spoofer on an AP fails too, even when its window never opens.
    spoofer = replace(scenario.spoofers[0], position=scenario.aps[0].true_position, active_window=(1e9, 1e9))
    with pytest.raises(ScenarioValidationError, match="AP 'AP-1'"):
        replace(scenario, spoofers=(spoofer,))


# --- attack outcomes ---------------------------------------------------------


def test_location_spoof_grants_everything_at_ceiling(a1_report):
    row = a1_report.ap_rows["AP-1"]
    assert row["phase"] == "AUTHORIZED"
    assert row["grantCount"] == 76
    assert row["fixWinner"] == SPOOFER
    reported = GeoPoint(row["reportedPosition"]["latitude"], row["reportedPosition"]["longitude"])
    assert haversine_distance(reported, SPOOF_TARGET) < 50.0
    table = a1_report.final_states["AP-1"].grants
    assert all(g.max_eirp_dbm == 36.0 for g in table.grants)


def test_location_spoof_harms_the_link(a1_report):
    assert a1_report.has_harm_violations
    assert a1_report.harm_metrics.violation_count == 1
    worst = a1_report.harm_metrics.worst_i_over_n_db["FS-1"]
    # Far above the protection criterion: the grant math never saw the
    # true position.
    assert worst > -6.0 + 10.0
    assert worst == pytest.approx(8.826, abs=0.01)
    row = a1_report.harm_rows[0]
    assert row.violated and row.ap_serial == "AP-1" and row.link_id == "FS-1"


def test_foreign_location_denied():
    report = run_bundled("a2_foreign_location.json")
    assert report.events[0]["responseCode"] == "OUTSIDE_COVERAGE"
    row = report.ap_rows["AP-1"]
    assert row["phase"] == "DENIED"
    assert row["grantCount"] == 0
    assert not report.harm_rows
    assert not report.has_violations


def test_stale_time_denied():
    report = run_bundled("a3_stale_time.json")
    assert report.events[0]["responseCode"] == "STALE_TIMESTAMP"
    assert report.ap_rows["AP-1"]["phase"] == "DENIED"
    assert report.ap_rows["AP-1"]["fixWinner"] == SPOOFER
    assert not report.has_violations


def test_rollback_keeps_stale_grants_alive():
    report = run_bundled("time_rollback.json")
    honest = report.ap_rows["AP-HONEST"]
    rolled = report.ap_rows["AP-ROLLED"]
    assert honest["phase"] == "EXPIRED"
    assert honest["grantCount"] == 0
    assert not honest["complianceViolation"]
    assert rolled["phase"] == "AUTHORIZED"
    assert rolled["grantCount"] > 0
    assert rolled["complianceViolation"]
    assert rolled["clockOffsetS"] == -172_800.0
    assert report.has_compliance_violations and report.has_violations
    assert not report.has_harm_violations


def test_a_rollback_after_expiry_does_not_bring_the_grant_back():
    # The grant expires at 3600 + one day; rolling the clock back two days
    # after that must not revive it, so the AP is judged before its offset changes.
    doc = json.loads(bundled("time_rollback.json"))
    doc["timeline"] = [
        {"at": 3600, "action": "RUN_INQUIRY"},
        {"at": 90100, "action": "ADVANCE_CLOCK"},
        {"at": 90200, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-ROLLED", "offsetS": -172800},
    ]
    report = run_scenario(load_scenario(json.dumps(doc)))
    rolled = report.ap_rows["AP-ROLLED"]
    assert rolled["clockOffsetS"] == -172_800.0
    assert rolled["phase"] == "EXPIRED"
    assert rolled["grantCount"] == 0
    assert not rolled["complianceViolation"]
    assert not report.has_compliance_violations


def test_exclusion_zone_strips_banned_channels():
    report = run_bundled("sip_exclusion.json")
    scenario = load_scenario(bundled("sip_exclusion.json"))
    banned = scenario.world.database.exclusion_zones[0].banned
    table = report.final_states["AP-1"].grants
    granted = {g.channel for g in table.grants}
    assert len(granted) == 69
    assert not any(overlaps(channel_span(ch), banned) for ch in granted)
    missing_20 = {141, 145}
    assert not missing_20 & {c.cfi for c in granted if c.bandwidth_mhz == 20}
    assert {137, 149} <= {c.cfi for c in granted if c.bandwidth_mhz == 20}


# --- defenses ----------------------------------------------------------------


def test_geofence_blocks_the_spoofed_inquiry():
    report = run_bundled("a1_geofence.json")
    assert report.events[0]["responseCode"] == "DEVICE_DISALLOWED"
    assert report.ap_rows["AP-1"]["phase"] == "DENIED"
    assert not report.harm_rows
    [detection] = report.detections
    assert detection["type"] == "geofence" and detection["alarm"]
    reported = GeoPoint(
        report.ap_rows["AP-1"]["reportedPosition"]["latitude"],
        report.ap_rows["AP-1"]["reportedPosition"]["longitude"],
    )
    expect = haversine_distance(AP_TRUE, reported) - 100.0
    assert detection["scoreM"] == pytest.approx(expect, abs=1.0)


def test_group_detector_catches_collapsed_pair():
    report = run_bundled("ap_group_spoof.json")
    assert report.ap_rows["AP-1"]["fixWinner"] == SPOOFER
    assert report.ap_rows["AP-2"]["fixWinner"] == SPOOFER
    group = [d for d in report.detections if d["type"] == "group_consistency"]
    assert len(group) == 1 and group[0]["alarm"]
    # Both spoofed APs transmit at the ceiling from their true positions.
    assert report.harm_metrics.violation_count == 2
    assert group[0]["scoreM"] == pytest.approx(500.0, abs=25.0)


# Exact antipodes, at which the haversine term rounds above 1.
ANTIPODE = ({"latitude": -24.89234174456081, "longitude": -154.11349448595666},
            {"latitude": 24.89234174456081, "longitude": 25.886505514043336})


def test_a_spoofer_and_a_link_at_the_antipode_of_an_ap_are_half_a_great_circle_away():
    doc = json.loads(bundled("a1_interference.json"))
    doc["aps"][0]["truePosition"], doc["spoofers"][0]["position"] = ANTIPODE
    doc["world"]["database"]["fsLinks"][0]["rxLocation"].update(ANTIPODE[1])
    scenario = load_scenario(json.dumps(doc))
    assert run_scenario(scenario).ap_rows["AP-1"]
    link = scenario.world.database.fs_links[0]
    ap = scenario.aps[0].true_position
    assert haversine_distance(ap, link.rx_location) == 2.0 * EARTH_RADIUS_M * math.atan2(1.0, 0.0)
    # The AP is outside coverage and gets no grant, so harm is assessed for a transmission assumed on a co-channel.
    ch = next(ch for ch in all_us_channels() if overlaps(channel_span(ch), link.freq_range))
    rows, _ = assess_harm([("AP-1", ap, ch, 36.0)], scenario.world)
    assert [(row.link_id, row.violated) for row in rows] == [("FS-1", False)]
    assert max_permissible_eirp_dbm(link, ap, ch, scenario.world.propagation, scenario.world.protection) == 36.0


def test_every_group_check_of_a_run_equals_the_reference(monkeypatch):
    doc = json.loads(bundled("ap_group_spoof.json"))
    doc["aps"] += [
        dict(doc["aps"][0], serial="AP-3", truePosition={"latitude": 40.79, "longitude": -77.85}),
        dict(doc["aps"][1], serial="AP-4", truePosition={"latitude": 40.80, "longitude": -77.87}),
    ]
    for ap in doc["aps"][2:]:
        ap.pop("deploymentRegistration", None)
    at = doc["timeline"][-1]["at"]
    doc["timeline"] += [{"at": at + 100 * i, "action": "RUN_DETECTORS"} for i in (1, 2, 3)]
    scenario = load_scenario(json.dumps(doc))
    report = run_scenario(scenario)
    group = [d for d in report.detections if d["type"] == "group_consistency"]
    assert len(group) == 4
    # The verdicts are those of the check that measures both sides pairwise.
    monkeypatch.setattr(scenario_module, "group_consistency_check", reference_group_check)
    assert run_scenario(scenario).detections == report.detections


def test_benign_run_is_sound_and_quiet():
    report = run_bundled("benign.json")
    scenario = load_scenario(bundled("benign.json"))
    row = report.ap_rows["AP-1"]
    assert row["phase"] == "AUTHORIZED"
    assert row["fixWinner"] == LEGIT
    assert not report.has_violations
    # Every granted channel honors the protection criterion when exercised
    # from the (honest) reported position at the contracted distance.
    state = report.final_states["AP-1"]
    fix = state.last_fix
    link = scenario.world.database.fs_links[0]
    limit = scenario.world.protection.i_over_n_limit_db
    distance = haversine_distance(fix.ellipse.center, link.rx_location)
    effective = max(1.0, distance - fix.ellipse.major_axis_m)
    for g in state.grants.grants:
        if not overlaps(channel_span(g.channel), link.freq_range):
            continue
        ratio = reference_i_over_n_db(
            link, fix.ellipse.center, g.channel, g.max_eirp_dbm,
            scenario.world.propagation, distance_m=effective,
        )
        assert ratio <= limit + 1e-9


# --- reporting ----------------------------------------------------------------


def test_report_json_round_trips(a1_report):
    body = json.loads(a1_report.dumps())
    assert body["scenario"] == "a1_interference"
    assert body["seed"] == 1
    assert body["epoch"] == "2025-06-20T00:00:00Z"
    assert body["harmSummary"]["violationCount"] == 1
    assert body["harm"][0]["linkId"] == "FS-1"
    assert body["harm"][0]["violated"] is True
    assert body["aps"]["AP-1"]["phase"] == "AUTHORIZED"


def test_reports_render_on_read_as_at_the_final_time():
    folder = resources.files("afcsim").joinpath("scenarios")
    names = sorted(p.name for p in folder.iterdir() if p.name.endswith(".json"))
    assert len(names) == 8
    for name in names:
        scenario = load_scenario(bundled(name))
        report = run_scenario(scenario)
        final = scenario.epoch_s + (scenario.timeline[-1].at if scenario.timeline else 0.0)
        eager = {
            serial: render_channel_report(state, local_now(state, final))
            for serial, state in report.final_states.items()
        }
        assert report.rendered_reports == eager
        assert list(eager) == [a.config.serial for a in scenario.aps]


def test_runs_are_deterministic():
    a = run_bundled("a1_interference.json")
    b = run_bundled("a1_interference.json")
    assert a.dumps() == b.dumps()
    assert a.rendered_reports == b.rendered_reports


def test_inactive_spoofer_window_leaves_ap_honest():
    doc = json.loads(bundled("a1_interference.json"))
    doc["spoofers"][0]["activeWindow"] = [0, 1000]  # inquiry fires at t=18600
    report = run_scenario(load_scenario(json.dumps(doc)))
    row = report.ap_rows["AP-1"]
    assert row["fixWinner"] == LEGIT
    assert haversine_distance(
        GeoPoint(row["reportedPosition"]["latitude"], row["reportedPosition"]["longitude"]),
        AP_TRUE,
    ) < 100.0
    assert not report.has_violations


def test_seed_changes_the_noise_draw():
    doc = bundled("benign.json")
    a = run_scenario(load_scenario(doc))
    scenario_b = load_scenario(doc.replace('"seed": 1', '"seed": 2'))
    b = run_scenario(scenario_b)
    pos_a = a.ap_rows["AP-1"]["reportedPosition"]
    pos_b = b.ap_rows["AP-1"]["reportedPosition"]
    assert pos_a != pos_b


# --- harm assessment ------------------------------------------------------


def test_assess_harm_only_counts_co_channel_links(database, propagation):
    world = World(database=database, propagation=propagation)
    quiet = assess_harm(
        [("AP-1", AP_TRUE, ChannelId(320, 33, 2), 36.0)], world
    )
    assert quiet == ([], type(quiet[1])(worst_i_over_n_db={}, violation_count=0))
    rows, metrics = assess_harm(
        [
            ("AP-1", AP_TRUE, ChannelId(20, 9), 36.0),
            ("AP-2", AP_TRUE, ChannelId(20, 9), -20.0),
        ],
        world,
    )
    assert [r.ap_serial for r in rows] == ["AP-1", "AP-2"]
    assert rows[0].violated and not rows[1].violated
    assert metrics.violation_count == 1
    assert metrics.worst_i_over_n_db["FS-1"] == rows[0].i_over_n_db


def test_assess_harm_empty_world():
    rows, metrics = assess_harm(
        [("AP-1", AP_TRUE, ChannelId(20, 9), 36.0)],
        World(database=IncumbentDatabase()),
    )
    assert rows == [] and metrics.violation_count == 0


def reference_assess_harm(intents, world):
    """assess_harm as written before the co-channel index: every link is tested.

    Distances are floored at 1 m, as grants floor theirs.
    """
    rows = []
    worst = {}
    violating_pairs = set()
    for serial, true_pos, channel, eirp in intents:
        for link in world.database.fs_links:
            if not constrains(link, channel):
                continue
            distance = max(1.0, haversine_distance(true_pos, link.rx_location))
            ratio = reference_i_over_n_db(link, true_pos, channel, eirp, world.propagation, distance)
            violated = ratio > world.protection.i_over_n_limit_db
            rows.append(HarmRow(link.id, serial, channel, ratio, violated))
            if link.id not in worst or ratio > worst[link.id]:
                worst[link.id] = ratio
            if violated:
                violating_pairs.add((serial, channel))
    return rows, HarmMetrics(worst_i_over_n_db=worst, violation_count=len(violating_pairs))


def test_assess_harm_matches_full_scan_over_worldgen():
    channels = all_us_channels()
    harmed = on_receiver = 0
    for seed in range(300):
        db, pcfg, prot, aps = random_world(seed, n_links_max=10)
        rng = random.Random(f"harm:{seed}")
        world = World(database=db, propagation=pcfg, protection=prot)
        # Several APs on a channel the first link uses (when one exists),
        # then each AP on a channel of its own.
        shared = rng.choice([ch for ch in channels if constrains(db.fs_links[0], ch)] or channels)
        intents = [(f"AP-{k}", pos, shared, rng.uniform(21.0, 36.0)) for k, pos in enumerate(aps)]
        intents += [(f"AP-{k}", pos, rng.choice(channels), 36.0) for k, pos in enumerate(aps)]
        got = assess_harm(intents, world)
        assert got == reference_assess_harm(intents, world)
        harmed += got[1].violation_count
        # An AP on a receiver, on the shared channel and on a random one: at
        # the 1 m floor the receiver it stands on is always harmed.
        last = db.fs_links[-1]
        rx = last.rx_location
        for ch in (shared, rng.choice(channels)):
            on_rx = [("AP-RX", GeoPoint(rx.lat_deg, rx.lon_deg), ch, 30.0)]
            got = assess_harm(on_rx, world)
            assert got == reference_assess_harm(on_rx, world)
            rows = [r for r in got[0] if r.link_id == last.id]
            assert all(r.violated for r in rows)
            on_receiver += bool(rows)
        empty = World(database=IncumbentDatabase(), propagation=pcfg, protection=prot)
        assert assess_harm(intents, empty) == reference_assess_harm(intents, empty) == ([], HarmMetrics({}, 0))
    assert harmed > 0 and 0 < on_receiver < 600


def test_ap_on_a_receiver_is_harm_not_a_crash():
    doc = json.loads(bundled("a1_interference.json"))
    doc["aps"][0]["truePosition"] = doc["world"]["database"]["fsLinks"][0]["rxLocation"]
    report = run_scenario(load_scenario(json.dumps(doc)))
    assert [(r.link_id, r.violated) for r in report.harm_rows] == [("FS-1", True)]
