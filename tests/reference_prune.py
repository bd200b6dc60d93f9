"""The keep-out prune as one scan by main-lobe radius, kept as the reference that the candidate lists are held to.

afcsim.propagation.rows_within hands walk_links the rows it reads from one
candidate list per AP cell. This module is the prune that the lists
replaced, with the same row bound added last: keep_out_cells keeps each
cell's rows sorted by main-lobe radius, and rows_within looks at every cell
in the longitude window of the largest main-lobe radius, bisects each cell's
radii at the cell's distance bound, and takes the rows past it whose
side-lobe radius reaches that bound or whose main beam may hold the AP. Of
those it hands over each whose receiver's chord from the AP is within its
reach, in the float operations of the package's row bound. The handed rows
must be the same set, each row once; their order may differ. Only the
keep-out radius, the model types and the beam test's slack come from the
package.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple

from afcsim.geo import EARTH_RADIUS_M, GeoPoint
from afcsim.propagation import _BEAM_EPS, PropagationConfig, keep_out_radius_m

_RAD = math.pi / 180.0  # what math.radians multiplies by
_DEG = 180.0 / math.pi  # what math.degrees multiplies by
_TWO_R = 2.0 * EARTH_RADIUS_M
_CHORD_PER_M = (1.0 + 1e-9) / EARTH_RADIUS_M


class KeepOutCells(NamedTuple):
    """keep_out_cells' cells in ascending order of west edge, their west edges, and their largest reach."""

    cells: tuple
    wests: list
    reach: float


def keep_out_cells(rows, pcfg: PropagationConfig, limit_db: float, ceiling_dbm: float) -> KeepOutCells:
    """Rows by the 1 degree cell of their receiver.

    Per cell: its south and west edges, the smaller cosine of its latitude
    edges, its reach, its radii in ascending order, and one entry per row in
    the same order, (radius, row, side-lobe radius, beam terms, the
    receiver's unit vector). A row's radius is its keep_out_radius_m at main
    gain and f_lo, widened by 1e-9 and 1 m for rounding, beyond which
    walk_links drops it; its side-lobe radius is the same at the side-lobe
    gain, beyond which the walk drops it off the main beam. The cell's reach
    is the largest of its radii. Entries of equal radius keep the order of rows (the sort is stable).
    A row's beam terms are the six floats of its beam normals (beam_normals),
    read from the row and copied beside it, so rows_within unpacks them with
    the radius.

    A plain tuple per row, not one packed array of floats per cell, measured
    on a shared 2-vCPU host: the cells of tests/check_keep_out_scale.py's
    100k links build in 0.16-0.23 s against 0.20-0.25 s, and rows_within
    over perfbench's inquiry_conus takes 34 against 42 us per inquiry
    (minima); but at 100k links, where the tuples lie apart in memory,
    rows_within takes 1.3-1.8 against 1.0-1.1 ms, and the cells take 24
    against 8 MiB. Those builds still computed the beam normals; read from
    the rows, the tuple cells build in 0.13-0.15 s (minimum and median of
    check_keep_out_scale's 5 builds).
    """
    floor = math.floor
    grid: dict[tuple[int, int], list] = {}
    for row in rows:
        _, f_lo, _, lat, lon, cos_rx, sin_rx, noise, main, side, _, _, nlx, nly, nlz, nrx, nry, nrz = row
        key = (floor(lon), floor(lat))
        entries = grid.get(key)
        if entries is None:
            entries = grid[key] = []
        radius = keep_out_radius_m(noise, main, f_lo, pcfg, limit_db, ceiling_dbm) * (1.0 + 1e-9) + 1.0
        side = keep_out_radius_m(noise, side, f_lo, pcfg, limit_db, ceiling_dbm) * (1.0 + 1e-9) + 1.0
        # The receiver's unit vector, for the row bound.
        r = (cos_rx * math.cos(lon * _RAD), cos_rx * math.sin(lon * _RAD), sin_rx)
        entries.append((radius, row, side, nlx, nly, nlz, nrx, nry, nrz, *r))
    first = itemgetter(0)
    cells = []
    for (w, s), entries in sorted(grid.items()):
        entries.sort(key=first)
        cos_min = min(math.cos(s * _RAD), math.cos(min(s + 1, 90) * _RAD))
        cells.append((s, w, cos_min, entries[-1][0], list(map(first, entries)), entries))
    return KeepOutCells(tuple(cells), [cell[1] for cell in cells], max((cell[3] for cell in cells), default=0.0))


def rows_within(index: KeepOutCells, ap_pos: GeoPoint, contraction_m: float) -> list:
    """The rows of index that walk_links may keep toward ap_pos, by a lower bound on their contracted distance.

    Per cell, the haversine term of its nearest point, h = sin^2(dlat/2) + cos(lat_ap) cos_min sin^2(dlon/2)
    with dlat its latitude gap and dlon its longitude gap taken on the circle, gives the bound
    2R atan2(sqrt h, sqrt(1 - h)) (1 - 1e-9) - 1 m - contraction_m, with a margin for rounding. Of the
    rows whose radius is at least that bound (a bisection of the cell's sorted radii), the cell hands over
    those whose side-lobe radius also reaches it and those whose main beam may hold ap_pos (the beam test
    below). A cell is skipped at once when R dlat in place of the distance puts the bound beyond its
    reach, and a cell that holds ap_pos passes all its rows. Of the rows taken, a row is handed over only
    when |p - q|^2 <= ((radius + contraction_m) k)^2, with p and q the unit vectors of the AP and the
    receiver, k = (1 + 1e-9) / R, and radius the main-lobe radius, or the side-lobe radius where the beam
    test puts ap_pos off the main beam: the row bound of the package, in the same float operations.

    The beam test, which walk_links shares. With p the AP's unit vector, the row's beam normals give
    n_l.p = r sin(hb + d) and n_r.p = r sin(hb - d) (beam_normals), with r the sine of the central angle
    and d the signed angle from the azimuth to the bearing; for hb < 90 deg both are >= 0 exactly when
    the AP is in the main beam. A row is left out only when one of them falls below -eps: the walk then
    takes the side-lobe gain by the same test, and as the row also lies beyond its side-lobe radius the
    walk drops it. A row with zero terms is never left out. eps is in the units of p and of the walk's
    bearing numerators x = E.p and y = N.p, as is the rounding of these dot products and of x and y (a
    few 1e-16 each). So a product below -eps puts the AP off the beam, and both above eps put it inside,
    by more than about eps / r >= 1e-12 rad: far above what the walk's bearing in degrees, its azimuth
    and its half beamwidth round by (about 1e-14 rad, and the rounding of x and y over r), so where the
    normals decide, the bearing would decide alike. A beam test widened to cover a reported uncertainty
    region would then be one wider slack in this one test.

    Only the cells that meet the longitude window of the largest reach are looked at: for
    theta = (reach + contraction_m) / R, the cells within asin(sin theta / cos lat_ap) of ap_pos in
    longitude, widened by their 1 degree width. Every cell is looked at when theta >= 90 deg - |lat_ap|,
    where the window would hold a pole, or when the window reaches +-180 deg.
    """
    cells, wests, largest = index
    sin, cos, sqrt, atan2 = math.sin, math.cos, math.sqrt, math.atan2
    lat, lon = ap_pos.lat_deg, ap_pos.lon_deg
    cos_ap = cos(lat * _RAD)
    # The AP's unit vector.
    px, py, pz = cos_ap * cos(lon * _RAD), cos_ap * sin(lon * _RAD), sin(lat * _RAD)
    theta = (largest + contraction_m) / EARTH_RADIUS_M
    # The window is never narrower than theta itself, so where that already spans every cell (a world of a
    # few cells, as each scenario run has) it would skip none and is not worked out.
    span = theta * _DEG
    if cells and (lon - span - 1.0 > wests[0] or lon + span < wests[-1]) and theta < (90.0 - abs(lat)) * _RAD:
        # The two sides of the test above round apart, and asin is undefined beyond 1.
        x = sin(theta) / cos_ap
        width = math.asin(x if x < 1.0 else 1.0) * _DEG
        # A cell meets the window when its west edge lies in [lon - width - 1, lon + width]. The cell
        # whose west edge is 180 spans -180..-179, so the window must also stay clear of -179.
        if lon - width - 1.0 > -180.0 and lon + width < 180.0:
            cells = cells[bisect_left(wests, lon - width - 1.0):bisect_right(wests, lon + width)]
    slack = -_BEAM_EPS
    near: list = []
    keep = near.append
    for south, west, cos_min, reach, radii, entries in cells:
        dlat = (south - lat) * _RAD if south > lat else max(lat - south - 1.0, 0.0) * _RAD
        if EARTH_RADIUS_M * dlat * (1.0 - 1e-9) - 1.0 - contraction_m > reach:
            continue
        dlon = (lon - west) % 360.0
        if dlon > 1.0:
            dlon = dlon - 1.0 if dlon < 180.5 else 360.0 - dlon
            h = sin(dlat * 0.5) ** 2 + cos_ap * cos_min * sin(dlon * _RAD * 0.5) ** 2
        else:  # 0 where ap_pos is in the cell, and the bound -1 m - contraction_m is below every radius
            h = sin(dlat * 0.5) ** 2
        if h > 1.0:
            h = 1.0
        bound = _TWO_R * atan2(sqrt(h), sqrt(1.0 - h)) * (1.0 - 1e-9) - 1.0 - contraction_m
        for radius, row, side, nlx, nly, nlz, nrx, nry, nrz, rx, ry, rz in entries[bisect_left(radii, bound):]:
            if nlx * px + nly * py + nlz * pz < slack or nrx * px + nry * py + nrz * pz < slack:
                if side < bound:
                    continue
                radius = side
            # The row bound: the chord from the AP to the receiver within the contracted reach that the beam
            # test chose.
            t = (radius + contraction_m) * _CHORD_PER_M
            x, y, z = px - rx, py - ry, pz - rz
            if x * x + y * y + z * z <= t * t:
                keep(row)
    return near
