"""Check that ScenarioReport.dumps and wire.dumps_response write what json.dumps writes.

The report writer must equal json.dumps(report.to_jsonable(), sort_keys=True,
indent=2) + "\\n", and the response writer json.dumps(encode_response(resp),
sort_keys=True), under every supported Python, whose json module they
mirror. This check needs only the standard library, so it runs where pytest
is not installed. From the repository root:

    PYTHONPATH=src python -m tests.check_report_json

It compares the report of every bundled scenario, of one scenario per
worldgen seed and of a few sweep-sized group scenarios, then the response to every worldgen AP under the world's
protection config and a wide one, prints the counts, and exits 1 at the
first difference. It then writes the first 20 responses again: the wide
configs draw a ceiling per world, far past the 16 ceilings whose shared
grants the server keeps, so their shared grants now sit in no table.
"""

import itertools
import json
import random
import sys
from importlib import resources

from afcsim.access_point import ApConfig
from afcsim.channels import SUPPORTED_BANDWIDTHS_MHZ
from afcsim.geo import Geofence, GeoPoint, LocationEllipse, destination_point
from afcsim.scenario import (
    ADVANCE_CLOCK,
    RUN_DETECTORS,
    RUN_INQUIRY,
    SET_AP_CLOCK_OFFSET,
    ApSpec,
    Scenario,
    SpooferSpec,
    TimelineEvent,
    load_scenario,
    run_scenario,
)
from afcsim.server import ServerPolicy, SpectrumInquiryRequest, World, handle_inquiry
from afcsim.wire import dumps_response, encode_response, iso_to_epoch
from tests.worldgen import random_world, wide_protection

EPOCH_S = iso_to_epoch("2025-06-20T00:00:00Z")
SPOOF_TARGET = GeoPoint(30.086965, -101.103761)


def bundled_scenarios():
    """(name, Scenario) for every scenario shipped with the package."""
    folder = resources.files("afcsim").joinpath("scenarios")
    for name in sorted(p.name for p in folder.iterdir() if p.name.endswith(".json")):
        yield name, load_scenario(folder.joinpath(name).read_text())


def worldgen_scenario(seed: int, n_links_max: int = 10, n_aps_max: int = 4, group_spoof: bool = False) -> Scenario:
    """A run over random_world(seed, n_links_max, n_aps_max): every other AP
    fenced at home, one spoofer 500 m from the first AP on odd seeds, and on
    every third seed a timeline that ends past grant expiry. The spoofer
    sends 0 dBm, which captures that AP alone, or with group_spoof 40 dBm,
    which captures every AP of the world (all lie within 50 km)."""
    db, pcfg, prot, positions = random_world(seed, n_links_max=n_links_max, n_aps_max=n_aps_max)
    aps = tuple(
        ApSpec(
            config=ApConfig(serial=f"AP-{k}", certification_id=f"CERT-{k}"),
            true_position=pos,
            deployment_registration=pos,
            geofence=Geofence(pos, 200.0) if k % 2 == 0 else None,
        )
        for k, pos in enumerate(positions)
    )
    spoofers = ()
    if seed % 2:
        near = destination_point(positions[0], 45.0, 500.0)
        power = 40.0 if group_spoof else 0.0
        spoofers = (SpooferSpec(position=near, broadcast_position=SPOOF_TARGET, tx_power_dbm=power),)
    timeline = (
        TimelineEvent(10.0, RUN_INQUIRY),
        TimelineEvent(20.0, RUN_DETECTORS),
        TimelineEvent(30.0, SET_AP_CLOCK_OFFSET, ap_serial="AP-0", offset_s=-7.5),
        TimelineEvent(40.0, RUN_INQUIRY, ap_serial="AP-0"),
    )
    if seed % 3 == 0:
        timeline += (TimelineEvent(90_000.0, ADVANCE_CLOCK),)
    return Scenario(
        name=f"worldgen-{seed}{'-group' if group_spoof else ''}",
        seed=seed,
        epoch_s=EPOCH_S,
        world=World(database=db, propagation=pcfg, protection=prot),
        aps=aps,
        spoofers=spoofers,
        timeline=timeline,
    )


def reports(worldgen_seeds: int = 50):
    """(name, ScenarioReport) for the bundled and the worldgen scenarios."""
    for name, scenario in bundled_scenarios():
        yield name, run_scenario(scenario)
    for seed in range(worldgen_seeds):
        scenario = worldgen_scenario(seed)
        yield scenario.name, run_scenario(scenario)


def group_reports(seeds: int = 8):
    """(name, ScenarioReport) at the scale of a scenario sweep: up to 30 links
    and 24 APs per world, and a spoofer that captures the group on odd seeds."""
    for seed in range(seeds):
        scenario = worldgen_scenario(seed, n_links_max=30, n_aps_max=24, group_spoof=True)
        yield scenario.name, run_scenario(scenario)


def responses(worldgen_seeds: int = 500):
    """(name, SpectrumInquiryResponse) for each AP of each worldgen world,
    answered by handle_inquiry under the world's protection config and a
    wide one, with a major axis from a clean fix to beyond the world."""
    for seed in range(worldgen_seeds):
        db, pcfg, prot, positions = random_world(seed)
        rng = random.Random(f"responses:{seed}")
        for protection in (prot, wide_protection(rng)):
            for k, pos in enumerate(positions):
                major = rng.choice([0.0, rng.uniform(0.0, 300.0), rng.uniform(0.0, 60_000.0)])
                req = SpectrumInquiryRequest(
                    request_id=f"REQ-{seed}-{k}",
                    device_serial=f"AP-{k}",
                    certification_id=f"CERT-{k}",
                    location=LocationEllipse(pos, major, major / 2.0, 0.0, EPOCH_S),
                    height_m=3.0,
                    inquired_bandwidths=SUPPORTED_BANDWIDTHS_MHZ,
                    transport_authenticated=True,
                )
                yield req.request_id, handle_inquiry(req, EPOCH_S, db, ServerPolicy(), pcfg, protection)


def main() -> int:
    count = 0
    for name, report in itertools.chain(reports(), group_reports()):
        if report.dumps() != json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n":
            print(f"{name}: the report differs from json.dumps", file=sys.stderr)
            return 1
        count += 1
    # first fills with the first 20 responses while responses() runs, and is written again after it.
    replies, first = 0, []
    for name, resp in itertools.chain(responses(), first):
        if dumps_response(resp) != json.dumps(encode_response(resp), sort_keys=True):
            print(f"{name}: the response differs from json.dumps", file=sys.stderr)
            return 1
        replies += 1
        if replies <= 20:
            first.append((f"{name} again", resp))
    print(f"{count} reports and {replies} responses equal json.dumps under Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
