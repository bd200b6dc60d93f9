"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict on the live terminal (bypassing pytest
capture) so a full run always shows the ten-line scorecard.
"""

import math
import pathlib
import random
import re
from contextlib import contextmanager
from importlib import resources

import pytest

from afcsim.channels import ChannelId, all_us_channels, channel_span, overlaps
from afcsim.detection import group_consistency_check
from afcsim.geo import GeoPoint, LocationEllipse, destination_point, haversine_distance
from afcsim.gnss import LEGIT, SPOOFER, GnssNoiseModel, GnssSource, compute_fix
from afcsim.access_point import can_transmit, render_channel_report
from afcsim.propagation import fspl_db, max_permissible_eirp_dbm
from afcsim.scenario import load_scenario, run_scenario
from afcsim.server import SpectrumInquiryRequest, World, compute_availability, differential_compare
from afcsim.wire import iso_to_epoch
from tests.conftest import AP_TRUE, FS_RX
from tests.reference_chain import reference_i_over_n_db
from tests.worldgen import random_world

ALL_BANDWIDTHS = (20, 40, 80, 160, 320)


def bundled(name: str) -> str:
    return resources.files("afcsim").joinpath("scenarios", name).read_text()


def golden_text(name: str) -> str:
    return (pathlib.Path(__file__).parent / "golden" / name).read_text()


@contextmanager
def criterion(n: int, label: str, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n:>2}: FAIL — {label}")
        raise
    with capsys.disabled():
        print(f"criterion {n:>2}: PASS — {label}")


def parse_golden_channel_sets(text: str) -> dict[tuple[int, int | None], set[int]]:
    """Channel sets from the authorized console golden's availability table."""
    labels = {
        "6GHz": (20, None),
        "6GHz 40MHz": (40, None),
        "6GHz 80MHz": (80, None),
        "6GHz 160MHz": (160, None),
        "6GHz 320MHz_1": (320, 1),
        "6GHz 320MHz_2": (320, 2),
    }
    sets: dict[tuple[int, int | None], set[int]] = {}
    current: tuple[int, int | None] | None = None
    for line in text.splitlines():
        if line.startswith("Present time"):
            break
        m = re.match(r"(6GHz(?: \S+)?)\s+(\d[\d ]*)$", line)
        if m and m.group(1) in labels:
            current = labels[m.group(1)]
            sets[current] = {int(t) for t in m.group(2).split()}
        elif line.startswith(" ") and current is not None:
            stripped = line.strip()
            if re.fullmatch(r"[\d ]+", stripped):
                sets[current] |= {int(t) for t in stripped.split()}
        else:
            current = None
    return sets


def test_criterion_1_spoofed_inquiry_reproduction(capsys):
    with criterion(1, "location spoof yields the full golden channel sets at 36 dBm", capsys):
        report = run_scenario(load_scenario(bundled("a1_interference.json")))
        assert report.ap_rows["AP-1"]["phase"] == "AUTHORIZED"
        table = report.final_states["AP-1"].grants
        got: dict[tuple[int, int | None], set[int]] = {}
        for g in table.grants:
            got.setdefault((g.channel.bandwidth_mhz, g.channel.variant), set()).add(g.channel.cfi)
            assert g.max_eirp_dbm == pytest.approx(36.0, abs=0.1)
        want = parse_golden_channel_sets(golden_text("authorized_report.txt"))
        assert got == want
        assert [len(want[k]) for k in sorted(want, key=lambda k: (k[0], k[1] or 0))] == [
            41, 20, 9, 4, 1, 1,
        ]
        assert report.harm_metrics.violation_count >= 1
        assert any(r.violated and r.link_id == "FS-1" for r in report.harm_rows)


def test_criterion_2_foreign_location_golden_report(capsys):
    with criterion(2, "out-of-coverage spoof renders the denied console byte-exact", capsys):
        report = run_scenario(load_scenario(bundled("a2_foreign_location.json")))
        assert report.events[0]["responseCode"] == "OUTSIDE_COVERAGE"
        state = report.final_states["AP-1"]
        rendered = render_channel_report(state, iso_to_epoch("2025-06-20T11:36:04Z"))
        assert rendered == golden_text("denied_report.txt")


def test_criterion_3_stale_time_rejection(capsys):
    with criterion(3, "start-of-day time spoof is rejected as stale", capsys):
        report = run_scenario(load_scenario(bundled("a3_stale_time.json")))
        assert report.events[0]["responseCode"] == "STALE_TIMESTAMP"
        row = report.ap_rows["AP-1"]
        assert row["phase"] == "DENIED"
        assert row["grantCount"] == 0


def test_criterion_4_exclusion_zone_set_equality(capsys):
    with criterion(4, "radio-observatory exclusion removes exactly the overlapping channels", capsys):
        scenario = load_scenario(bundled("sip_exclusion.json"))
        banned = scenario.world.database.exclusion_zones[0].banned
        report = run_scenario(scenario)
        granted = {g.channel for g in report.final_states["AP-1"].grants.grants}
        expected = {ch for ch in all_us_channels() if not overlaps(channel_span(ch), banned)}
        assert granted == expected
        granted_20 = {ch.cfi for ch in granted if ch.bandwidth_mhz == 20}
        assert not granted_20 & {141, 145}
        assert {137, 149} <= granted_20


def test_criterion_5_grant_soundness_over_random_worlds(capsys):
    with criterion(5, "500 random worlds: every grant honors I/N at the contracted distance", capsys):
        checked = 0
        granted_total = 0
        for seed in range(500):
            db, pcfg, prot, ap_positions = random_world(seed)
            rng = random.Random(f"acceptance5:{seed}")
            for pos in ap_positions:
                major = rng.uniform(0.0, 150.0)
                loc = LocationEllipse(
                    center=pos,
                    major_axis_m=major,
                    minor_axis_m=rng.uniform(0.0, major) if major else 0.0,
                    orientation_deg=rng.uniform(0.0, 179.9),
                    gps_time=0.0,
                )
                grants = compute_availability(loc, ALL_BANDWIDTHS, db, pcfg, prot)
                granted_total += len(grants)
                for g in grants:
                    for link in db.fs_links:
                        if not overlaps(channel_span(g.channel), link.freq_range):
                            continue
                        contracted = max(
                            1.0, haversine_distance(pos, link.rx_location) - major
                        )
                        ratio = reference_i_over_n_db(
                            link, pos, g.channel, g.max_eirp_dbm, pcfg,
                            distance_m=contracted,
                        )
                        assert ratio <= prot.i_over_n_limit_db + 1e-9
                        checked += 1
        assert granted_total > 10_000
        assert checked > 1_000


def test_criterion_6_expiry_and_rollback(capsys):
    with criterion(6, "grants expire on honest clocks; a rolled-back clock is flagged", capsys):
        report = run_scenario(load_scenario(bundled("time_rollback.json")))
        honest = report.final_states["AP-HONEST"]
        rolled = report.final_states["AP-ROLLED"]
        assert honest.phase.name == "EXPIRED"
        assert all(not can_transmit(honest, ch, 5.0) for ch in all_us_channels())
        assert rolled.phase.name == "AUTHORIZED"
        assert any(can_transmit(rolled, g.channel, g.max_eirp_dbm) for g in rolled.grants.grants)
        assert report.ap_rows["AP-ROLLED"]["complianceViolation"]
        assert not report.ap_rows["AP-HONEST"]["complianceViolation"]
        assert report.has_compliance_violations


def test_criterion_7_geofence_defense(capsys):
    with criterion(7, "geofence flips the spoofed outcome to DENIED with the breach score", capsys):
        report = run_scenario(load_scenario(bundled("a1_geofence.json")))
        assert report.events[0]["responseCode"] == "DEVICE_DISALLOWED"
        assert report.ap_rows["AP-1"]["phase"] == "DENIED"
        [det] = [d for d in report.detections if d["type"] == "geofence"]
        assert det["alarm"]
        reported = GeoPoint(
            report.ap_rows["AP-1"]["reportedPosition"]["latitude"],
            report.ap_rows["AP-1"]["reportedPosition"]["longitude"],
        )
        want = haversine_distance(AP_TRUE, reported) - 100.0
        assert det["scoreM"] == pytest.approx(want, abs=1.0)


def test_criterion_8_group_detector_power(capsys):
    with criterion(8, "group detector: 1000/1000 spoofed alarms, ≤1/1000 benign false alarms", capsys):
        noise = GnssNoiseModel()  # sigma 5 m
        ap_a = AP_TRUE
        ap_b = destination_point(AP_TRUE, 90.0, 500.0)
        deployed = {"AP-A": ap_a, "AP-B": ap_b}
        spoof_target = GeoPoint(30.086965, -101.103761)

        spoof_alarms = 0
        for trial in range(1000):
            reported = {}
            for serial, pos in deployed.items():
                sources = [
                    GnssSource(LEGIT, pos, -100.0),
                    GnssSource(SPOOFER, spoof_target, -90.0),
                ]
                fix = compute_fix(pos, sources, 0.0, noise, f"spoof:{trial}:{serial}")
                assert fix.winning_kind == SPOOFER
                reported[serial] = fix.ellipse.center
            if group_consistency_check(reported, deployed, 50.0).alarm:
                spoof_alarms += 1
        assert spoof_alarms == 1000

        false_alarms = 0
        for trial in range(1000):
            reported = {}
            for serial, pos in deployed.items():
                sources = [GnssSource(LEGIT, pos, -100.0)]
                fix = compute_fix(pos, sources, 0.0, noise, f"benign:{trial}:{serial}")
                assert fix.winning_kind == LEGIT
                reported[serial] = fix.ellipse.center
            if group_consistency_check(reported, deployed, 50.0).alarm:
                false_alarms += 1
        assert false_alarms <= 1


def _independent_geodesic_m(a: GeoPoint, b: GeoPoint) -> float:
    """Spherical distance via the Vincenty atan2 form (not the haversine form)."""
    p1, p2 = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlon = math.radians(b.lon_deg - a.lon_deg)
    y = math.hypot(
        math.cos(p2) * math.sin(dlon),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dlon),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dlon)
    return 6_371_000.0 * math.atan2(y, x)


def test_criterion_9_numeric_oracles(capsys, fs_link, propagation, protection):
    with criterion(9, "distance, path-loss, and EIRP-chain values match independent math", capsys):
        rng = random.Random("acceptance9")
        for _ in range(100):
            base = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
            other = destination_point(base, rng.uniform(0.0, 360.0), rng.uniform(1.0, 100_000.0))
            got = haversine_distance(base, other)
            want = _independent_geodesic_m(base, other)
            assert abs(got - want) <= 0.5

        # 10 km, off-boresight (30 - 25 = 5 dBi), 20 MHz link, NF 5.
        south = destination_point(FS_RX, 180.0, 10_000.0)
        eirp = max_permissible_eirp_dbm(fs_link, south, ChannelId(20, 9), propagation, protection)
        assert eirp == pytest.approx(21.0, abs=0.05)

        for distance_m, want_db in ((100.0, 88.01), (1_000.0, 108.01), (10_000.0, 128.01)):
            assert fspl_db(distance_m, 6_000.0) == pytest.approx(want_db, abs=0.01)


def test_criterion_10_determinism(capsys, database, propagation, protection):
    with criterion(10, "repeated runs are byte-identical; the engine self-compares clean", capsys):
        names = sorted(
            p.name for p in resources.files("afcsim").joinpath("scenarios").iterdir()
        )
        assert len(names) == 8
        for name in names:
            first = run_scenario(load_scenario(bundled(name)))
            second = run_scenario(load_scenario(bundled(name)))
            assert first.dumps() == second.dumps()
            assert first.rendered_reports == second.rendered_reports

        rng = random.Random("acceptance10")
        requests = []
        for i in range(50):
            center = destination_point(
                AP_TRUE, rng.uniform(0.0, 360.0), rng.uniform(0.0, 30_000.0)
            )
            major = rng.uniform(0.0, 100.0)
            requests.append(
                SpectrumInquiryRequest(
                    request_id=f"CORPUS-{i}",
                    device_serial=f"AP-{i}",
                    certification_id=f"CERT-{i}",
                    location=LocationEllipse(
                        center=center,
                        major_axis_m=major,
                        minor_axis_m=rng.uniform(0.0, major) if major else 0.0,
                        orientation_deg=rng.uniform(0.0, 179.9),
                        gps_time=1_750_000_000.0,
                    ),
                    height_m=rng.uniform(1.0, 30.0),
                    inquired_bandwidths=ALL_BANDWIDTHS,
                    transport_authenticated=True,
                )
            )
        world = World(database=database, propagation=propagation, protection=protection)
        assert differential_compare(requests, world, world).empty
