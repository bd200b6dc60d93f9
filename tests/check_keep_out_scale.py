"""Check the keep-out prune on worlds of 10k and 100k links, where the tier-1 worlds of at most 1,000 links never go.

Each world is seeded and uniform over CONUS: receivers anywhere in the box,
30-45 dBi main gain, 10/30/60 MHz links, 20-35 dB discrimination and 1-4
degree beams, under the default propagation and protection configs. 50
inquiries from uniform CONUS positions with a 100 m major axis each check
that propagation.rows_within hands over exactly the rows of
tests/reference_prune.py, the scan by main-lobe radius it replaced with
the same row bound, each row once; that it hands every row that
walk_links keeps over all of link_rows; that the gain the walk takes from
each handed row's beam normals is the bearing's decision, rx_gain_dbi of
tests/reference_chain.py; and that compute_availability gives the same
grants as a walk over all of link_rows with no prune, put in place of its
one rows_within call. This needs only the standard library. From the
repository root:

    PYTHONPATH=src python -m tests.check_keep_out_scale

Per world, it builds the cells N_BUILDS times, each from the rows of a
fresh dataclasses.replace copy of the database (the rows' own build is not
timed), since one reading swings with the host's load. It prints the
minimum and the median seconds of those builds; the milliseconds per
inquiry of the first pass of rows_within over the inquiries, which builds
the candidate list of each AP cell, and the median microseconds of a
rows_within call once the lists are built; the median milliseconds per
compute_availability call; the number of candidate lists and, per list,
the mean number of cells it lists and of its side- and beam-group entries;
the MiB that tracemalloc counts for a fresh index and its lists; and per
inquiry the rows handed and the rows that walk_links keeps of them. The row
bound of rows_within hands over only rows whose receiver is within their
reach, so the two are close. It exits 1 at the first failure, and asserts
no timing, since hosts vary.
"""

import dataclasses
import math
import random
import statistics
import sys
import time
import tracemalloc
from unittest import mock

from afcsim import server
from afcsim.channels import FrequencyRange
from afcsim.geo import GeoPoint, LocationEllipse
from afcsim.propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    keep_out_cells,
    rows_within,
    walk_links,
)
from afcsim.server import SUPPORTED_BANDWIDTHS_MHZ, IncumbentDatabase, compute_availability
from tests import reference_prune
from tests.reference_chain import rx_gain_dbi

LAT_RANGE = (24.5, 49.5)
LON_RANGE = (-125.0, -66.9)
N_LINKS = (10_000, 100_000)
N_INQUIRIES = 50
N_BUILDS = 5


def uniform_world(n_links: int, n_inquiries: int):
    """(database, inquiry locations) of the uniform CONUS world."""
    rng = random.Random("keep-out-scale:1")
    links = []
    for i in range(n_links):
        bandwidth = rng.choice([10.0, 30.0, 60.0])
        low = rng.uniform(5925.0, 7125.0 - bandwidth)
        links.append(
            FsLink(
                id=f"FS-{i}",
                rx_location=GeoPoint(rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE), 30.0),
                freq_range=FrequencyRange(low, low + bandwidth),
                bandwidth_mhz=bandwidth,
                noise_figure_db=rng.uniform(3.0, 7.0),
                max_gain_dbi=rng.uniform(30.0, 45.0),
                azimuth_deg=rng.uniform(0.0, 360.0),
                beamwidth_deg=rng.uniform(1.0, 4.0),
                discrimination_db=rng.uniform(20.0, 35.0),
            )
        )
    locs = [
        LocationEllipse(GeoPoint(rng.uniform(*LAT_RANGE), rng.uniform(*LON_RANGE)), 100.0, 0.0, 0.0, 0.0)
        for _ in range(n_inquiries)
    ]
    return IncumbentDatabase(fs_links=tuple(links)), locs


def check(n_links: int) -> bool:
    world, locs = uniform_world(n_links, N_INQUIRIES)
    pcfg, prot = PropagationConfig(), ProtectionConfig()
    limit, ceiling = prot.i_over_n_limit_db, prot.regulatory_max_eirp_dbm
    build_times = []
    for _ in range(N_BUILDS):
        # A fresh database builds its own rows; the last one's rows and cells are checked below.
        db = rows = cells = None  # the previous build's rows and cells go first
        db = dataclasses.replace(world)
        rows = db.link_rows
        start = time.perf_counter()
        cells = keep_out_cells(rows, pcfg, limit, ceiling)
        build_times.append(time.perf_counter() - start)
    # The first pass builds the candidate list of each AP cell.
    first_pass = []
    for loc in locs:
        start = time.perf_counter()
        rows_within(cells, loc.center, loc.major_axis_m)
        first_pass.append(time.perf_counter() - start)
    # The cells compute_availability would build on its first inquiry.
    db.keep_out_cells[pcfg, limit, ceiling] = cells
    reference = reference_prune.keep_out_cells(rows, pcfg, limit, ceiling)
    times, within_times, handed_counts, kept_counts = [], [], [], []
    for loc in locs:
        start = time.perf_counter()
        grants = compute_availability(loc, SUPPORTED_BANDWIDTHS_MHZ, db, pcfg, prot)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        near = rows_within(cells, loc.center, loc.major_axis_m)
        within_times.append(time.perf_counter() - start)
        handed = [row[0] for row in near]
        kept = {i for i, *_ in walk_links(rows, loc.center, loc.major_axis_m, pcfg, limit, ceiling)}
        if len(handed) != len(set(handed)):
            print(f"FAIL: a row is handed twice at {loc.center}")
            return False
        want = sorted(row[0] for row in reference_prune.rows_within(reference, loc.center, loc.major_axis_m))
        if sorted(handed) != want:
            print(f"FAIL: the rows handed at {loc.center} differ from those of tests/reference_prune.py")
            return False
        missed = kept - set(handed)
        if missed:
            print(f"FAIL: {len(missed)} rows the walk keeps are not handed at {loc.center}, e.g. {min(missed)}")
            return False
        for i, _, _, budget in walk_links(near, loc.center, loc.major_axis_m, pcfg, limit, math.inf):
            if budget.gain_dbi != rx_gain_dbi(db.fs_links[i], loc.center):
                print(f"FAIL: the walk's gain of row {i} at {loc.center} is not the bearing's decision")
                return False
        with mock.patch.object(server, "rows_within", return_value=rows) as prune:
            unpruned = compute_availability(loc, SUPPORTED_BANDWIDTHS_MHZ, db, pcfg, prot)
        if prune.call_count != 1:
            print(f"FAIL: compute_availability called rows_within {prune.call_count} times at {loc.center}, not once")
            return False
        if grants != unpruned:
            print(f"FAIL: the grants at {loc.center} differ from those of a walk over all of link_rows")
            return False
        handed_counts.append(len(handed))
        kept_counts.append(len(kept))
    lists = [listed for _, listed in cells.lists.values()]
    listed_cells = statistics.mean(len(listed) for listed in lists)
    side_entries = statistics.mean(sum(len(sides) for *_, sides, _ in listed) for listed in lists)
    beam_entries = statistics.mean(sum(len(beams) for *_, beams in listed) for listed in lists)
    # A fresh index and the lists of the same inquiries, counted alone.
    reference = None
    tracemalloc.start()
    fresh = keep_out_cells(rows, pcfg, limit, ceiling)
    for loc in locs:
        rows_within(fresh, loc.center, loc.major_axis_m)
    mib = tracemalloc.get_traced_memory()[0] / 2**20
    tracemalloc.stop()
    print(
        f"{n_links} links, {len(rows)} rows in {len(cells.cells)} cells built in {min(build_times):.3f} s"
        f" (min) and {statistics.median(build_times):.3f} s (median) of {N_BUILDS} builds;"
        f" {N_INQUIRIES} inquiries: first pass {statistics.mean(first_pass) * 1e3:.2f} ms per inquiry"
        f" building {len(lists)} candidate lists of {listed_cells:.1f} cells, {side_entries:.1f} side-group"
        f" and {beam_entries:.1f} beam-group entries (means),"
        f" then {statistics.median(within_times) * 1e6:.0f} us in rows_within (median)"
        f" and {statistics.median(times) * 1e3:.3f} ms per compute_availability (median);"
        f" the index and its lists take {mib:.1f} MiB (tracemalloc);"
        f" {statistics.mean(handed_counts):.1f} rows handed and {statistics.mean(kept_counts):.1f} kept per"
        f" inquiry; handed rows equal the reference prune's,"
        f" grants equal to an unpruned walk"
    )
    return True


if __name__ == "__main__":
    sys.exit(0 if all(check(n) for n in N_LINKS) else 1)
