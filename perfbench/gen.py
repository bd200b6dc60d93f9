"""Seeded input generators for the three benchmark workloads.

Every generator draws from ``random.Random(f"perfbench:<workload>:<seed>")``
and returns plain JSON text in the service's wire format, so the program
under test receives only generated inputs and the same seed always yields
byte-identical text. The geodesy used to place points is written out here
instead of being imported from afcsim, so a change to the program can never
change its own inputs.

What drives the cost of an operation (links per world and the metro
centres they cluster around, APs, spoofers and regime threshold per
scenario, the request-class mix) follows fixed schedules; the seed varies
the rest of the geometry and the radio parameters. That keeps the work per run
nearly equal across seeds, so run-to-run spread reflects the program and
the machine, not the luck of the draw.
"""

from __future__ import annotations

import json
import math
import random
import time

EARTH_RADIUS_M = 6_371_000.0
EPOCH_ISO = "2025-06-20T00:00:00Z"
EPOCH_S = 1_750_377_600.0  # EPOCH_ISO as UTC epoch seconds
ALL_BANDWIDTHS = [20, 40, 80, 160, 320]

# Land-ish interior of the contiguous US; every generated AP and link lies
# inside the service's CONUS coverage box (24.5..49.5 N, 125..66.9 W).
CONUS_LAT = (30.0, 46.0)
CONUS_LON = (-120.0, -76.0)

# inquiry_conus: links cluster around 40 fixed US metro centres, as real
# fixed-service links do; fixed centres keep the link density that an
# inquiry meets, and so its cost, the same from seed to seed.
CONUS_LINKS = 1000
CONUS_METROS = (
    (40.71, -74.01), (34.05, -118.24), (41.88, -87.63), (32.78, -96.80),
    (29.76, -95.37), (38.91, -77.04), (39.95, -75.17), (25.76, -80.19),
    (33.75, -84.39), (42.36, -71.06), (33.45, -112.07), (37.77, -122.42),
    (32.72, -117.16), (42.33, -83.05), (47.61, -122.33), (44.98, -93.27),
    (27.95, -82.46), (39.74, -104.99), (38.63, -90.20), (39.29, -76.61),
    (35.23, -80.84), (28.54, -81.38), (29.42, -98.49), (45.52, -122.68),
    (38.58, -121.49), (40.44, -79.99), (30.27, -97.74), (36.17, -115.14),
    (39.10, -84.51), (39.10, -94.58), (39.96, -83.00), (39.77, -86.16),
    (41.50, -81.69), (36.16, -86.78), (40.76, -111.89), (35.78, -78.64),
    (35.47, -97.52), (35.08, -106.65), (29.95, -90.07), (35.15, -90.05),
)
METRO_RADIUS_KM = 50.0
INQUIRY_POOL = 256

# http_mixed: one 40-slot period of the request mix, 70 % valid.
HTTP_MIX = ("valid",) * 28 + ("stale", "outside", "disallowed", "malformed") * 3
HTTP_POOL = 3 * len(HTTP_MIX)
EXPECTED_CODE = {
    "valid": "SUCCESS",
    "stale": "STALE_TIMESTAMP",
    "outside": "OUTSIDE_COVERAGE",
    "disallowed": "DEVICE_DISALLOWED",
    "malformed": "INVALID_REQUEST",
}
FENCED_SERIALS = 4

# scenario_sweep: AP count cycles 8..24, spoofer count cycles 1..2, the
# propagation regime threshold cycles through three values.
SCENARIO_LINKS = 30
SCENARIO_AP_COUNTS = tuple(range(8, 25))
SCENARIO_REGIMES_M = (1000.0, 5000.0, 20000.0)
GENERATED_SCENARIOS = 4 * len(SCENARIO_AP_COUNTS)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def destination(lat: float, lon: float, bearing_deg: float, distance_m: float):
    """Spherical destination point, rounded to the 1e-6 degree of wire input."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    p1 = math.radians(lat)
    sp2 = math.sin(p1) * math.cos(delta) + math.cos(p1) * math.sin(delta) * math.cos(theta)
    p2 = math.asin(max(-1.0, min(1.0, sp2)))
    l2 = math.radians(lon) + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(p1), math.cos(delta) - math.sin(p1) * sp2
    )
    return round(math.degrees(p2), 6), round((math.degrees(l2) + 540.0) % 360.0 - 180.0, 6)


def _near(rng: random.Random, lat: float, lon: float, min_m: float, max_m: float):
    return destination(lat, lon, rng.uniform(0.0, 360.0), rng.uniform(min_m, max_m))


def _conus_point(rng: random.Random):
    return round(rng.uniform(*CONUS_LAT), 6), round(rng.uniform(*CONUS_LON), 6)


def _point(lat: float, lon: float) -> dict:
    return {"latitude": lat, "longitude": lon}


def _fs_link(rng: random.Random, link_id: str, lat: float, lon: float) -> dict:
    width = rng.choice((10.0, 20.0, 30.0))
    low = round(rng.uniform(5925.0, 7125.0 - width), 1)
    return {
        "id": link_id,
        "rxLocation": {"latitude": lat, "longitude": lon, "heightM": round(rng.uniform(10.0, 60.0), 1)},
        "freqRange": {"lowMhz": low, "highMhz": low + width},
        "bandwidthMhz": width,
        "noiseFigureDb": round(rng.uniform(3.0, 7.0), 1),
        "maxGainDbi": round(rng.uniform(25.0, 45.0), 1),
        "azimuthDeg": round(rng.uniform(0.0, 359.9), 1),
        "beamwidthDeg": round(rng.uniform(1.0, 6.0), 1),
        "discriminationDb": round(rng.uniform(20.0, 35.0), 1),
    }


def _iso(epoch_s: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch_s))


def _request(rng, request_id: str, serial: str, lat: float, lon: float, gps_time: float) -> dict:
    major = round(rng.uniform(5.0, 300.0), 1)
    return {
        "requestId": request_id,
        "deviceSerial": serial,
        "certificationId": f"CERT-{serial}",
        "location": {
            "latitude": lat,
            "longitude": lon,
            "majorAxisM": major,
            "minorAxisM": round(major * rng.uniform(0.2, 1.0), 1),
            "orientationDeg": round(rng.uniform(0.0, 179.9), 1),
            "gpsTime": _iso(gps_time),
        },
        "heightM": round(rng.uniform(1.5, 30.0), 1),
        "inquiredBandwidthsMhz": list(ALL_BANDWIDTHS),
        "transportAuthenticated": True,
    }


def inquiry_conus(seed: int) -> tuple[str, list[str]]:
    """(database JSON, request JSON texts): 1,000 links in 40 US metro clusters.

    Each AP stands 0.5-20 km from the receiver of a random link, so most
    links in the database are hundreds of km away from any one request.
    """
    rng = rng_for("inquiry_conus", seed)
    links = []
    for i in range(CONUS_LINKS):
        lat, lon = _near(rng, *CONUS_METROS[i % len(CONUS_METROS)], 0.0, METRO_RADIUS_KM * 1000.0)
        links.append(_fs_link(rng, f"FS-{i:04d}", lat, lon))
    requests = []
    for i in range(INQUIRY_POOL):
        rx = links[rng.randrange(len(links))]["rxLocation"]
        lat, lon = _near(rng, rx["latitude"], rx["longitude"], 500.0, 20_000.0)
        gps = EPOCH_S + rng.randint(-30, 30)
        requests.append(dumps(_request(rng, f"Q-{i:04d}", f"AP-{i:04d}", lat, lon, gps)))
    return dumps({"fsLinks": links}), requests


def http_mixed(seed: int) -> tuple[str, list[tuple[str, str]]]:
    """(world JSON, [(request class, body text)]) for the HTTP service.

    The world is one local cluster of at most 5 links plus a policy that
    fences FENCED_SERIALS devices. Request classes follow HTTP_MIX; a
    malformed body is either truncated JSON or a request whose bandwidth
    list is not a list.
    """
    rng = rng_for("http_mixed", seed)
    clat, clon = _conus_point(rng)
    links = [
        _fs_link(rng, f"FS-{i}", *_near(rng, clat, clon, 0.0, 25_000.0))
        for i in range(rng.randint(1, 5))
    ]
    fences = {
        f"FENCED-{i}": {"center": _point(*_near(rng, clat, clon, 0.0, 10_000.0)), "radiusM": 500.0}
        for i in range(FENCED_SERIALS)
    }
    world = {"database": {"fsLinks": links}, "policy": {"geofences": fences}}
    pool = []
    for i in range(HTTP_POOL):
        kind = HTTP_MIX[i % len(HTTP_MIX)]
        rx = links[rng.randrange(len(links))]["rxLocation"]
        lat, lon = _near(rng, rx["latitude"], rx["longitude"], 500.0, 20_000.0)
        gps = EPOCH_S + rng.randint(-30, 30)
        serial = f"AP-{i:04d}"
        alt = (i // 4) % 2  # alternates between successive slots of one class
        if kind == "stale":
            gps = EPOCH_S + rng.choice((-1, 1)) * rng.randint(120, 7200)
        elif kind == "outside":
            lat, lon = round(rng.uniform(50.5, 60.0), 6), round(rng.uniform(-120.0, -70.0), 6)
        elif kind == "disallowed" and alt:
            serial = f"FENCED-{i % FENCED_SERIALS}"
            fence = fences[serial]["center"]
            lat, lon = _near(rng, fence["latitude"], fence["longitude"], 2_000.0, 20_000.0)
        req = _request(rng, f"H-{i:04d}", serial, lat, lon, gps)
        if kind == "disallowed" and not alt:
            req["transportAuthenticated"] = False
        body = dumps(req)
        if kind == "malformed":
            if alt:
                body = body[: rng.randint(10, len(body) - 10)]
            else:
                req["inquiredBandwidthsMhz"] = "20,40"
                body = dumps(req)
        pool.append((kind, body))
    return dumps(world), pool


def _scenario(rng: random.Random, index: int, n_aps: int, n_spoofers: int) -> dict:
    clat, clon = _conus_point(rng)
    links = [
        _fs_link(rng, f"FS-{i:02d}", *_near(rng, clat, clon, 0.0, 25_000.0))
        for i in range(SCENARIO_LINKS)
    ]
    aps = []
    for i in range(n_aps):
        lat, lon = _near(rng, clat, clon, 0.0, 3_000.0)
        spec = {
            "serial": f"AP-{i:02d}",
            "truePosition": _point(lat, lon),
            "heightM": round(rng.uniform(2.0, 20.0), 1),
        }
        if i % 2 == 0:
            spec["geofence"] = {"center": _point(lat, lon), "radiusM": round(rng.uniform(100.0, 500.0), 1)}
        aps.append(spec)

    t_first = rng.randint(10, 100)
    t_spoof = t_first + rng.randint(600, 3600)
    t_late = t_first + 86_400 + rng.randint(60, 600)  # past the first grants' lifetime
    spoofers = []
    for j in range(n_spoofers):
        victim = aps[rng.randrange(n_aps)]["truePosition"]
        capture_radius_km = rng.uniform(0.5, 2.0)
        window = [t_spoof - 100, t_spoof + 100] if j == 0 else [t_late - 100, t_late + 100]
        spoofers.append(
            {
                "position": _point(*_near(rng, victim["latitude"], victim["longitude"], 50.0, 500.0)),
                "broadcastPosition": _point(*_conus_point(rng)),
                # Beats the -110 dBm constellation by the 3 dB capture
                # margin out to capture_radius_km under L1 free-space loss.
                "txPowerDbm": round(-10.6 + 20.0 * math.log10(capture_radius_km), 2),
                "activeWindow": window,
            }
        )
    lone = aps[rng.randrange(n_aps)]["serial"]
    timeline = [
        {"at": t_first, "action": "RUN_INQUIRY"},
        {"at": t_first + 60, "action": "RUN_DETECTORS"},
        {"at": t_first + 300, "action": "SET_AP_CLOCK_OFFSET", "ap": lone, "offsetS": -float(rng.randint(3600, 172_800))},
        {"at": t_spoof, "action": "RUN_INQUIRY"},
        {"at": t_spoof + 60, "action": "RUN_DETECTORS"},
        {"at": t_late - 200, "action": "ADVANCE_CLOCK"},
        {"at": t_late, "action": "RUN_INQUIRY", "ap": lone},
        {"at": t_late + 30, "action": "RUN_INQUIRY", "ap": aps[0]["serial"]},
        {"at": t_late + 60, "action": "RUN_DETECTORS"},
    ]
    return {
        "name": f"generated_{index:02d}",
        "seed": rng.randrange(2**31),
        "epoch": EPOCH_ISO,
        "world": {
            "database": {"fsLinks": links},
            "propagation": {
                "regimeThresholdM": SCENARIO_REGIMES_M[index % len(SCENARIO_REGIMES_M)],
                "clutterOffsetDb": 20.0,
            },
        },
        "aps": aps,
        "spoofers": spoofers,
        "timeline": timeline,
    }


def scenario_sweep(seed: int) -> list[str]:
    """Generated scenario documents: one local cluster of 30 links each.

    Scenario k has SCENARIO_AP_COUNTS[k % 17] APs (every other one fenced),
    1 + k % 2 windowed spoofers that capture the APs near them and steer
    them to a random CONUS position, and regime threshold
    SCENARIO_REGIMES_M[k % 3].
    """
    rng = rng_for("scenario_sweep", seed)
    return [
        json.dumps(
            _scenario(rng, k, SCENARIO_AP_COUNTS[k % len(SCENARIO_AP_COUNTS)], 1 + k % 2),
            sort_keys=True,
            indent=1,
        )
        for k in range(GENERATED_SCENARIOS)
    ]
