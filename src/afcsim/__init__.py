"""Deterministic testbed for 6 GHz automated frequency coordination.

Models the full grant loop: access points obtain a GNSS position fix
(possibly captured by a spoofer), submit spectrum inquiries over the
wire format, and a coordination service computes per-channel EIRP limits
that protect fixed microwave incumbents. Scenarios replay location and
clock attacks against that loop, measure the resulting interference at
incumbents from the devices' true positions, and exercise geofence and
group-consistency defenses.
"""

from .channels import (
    ChannelId,
    FrequencyRange,
    all_us_channels,
    center_frequency_mhz,
    channel_span,
    overlaps,
    us_standard_power_channels,
)
from .detection import DetectionVerdict, geofence_check, group_consistency_check
from .errors import (
    AfcSimError,
    CoincidentPoints,
    InsufficientGroup,
    NoFixAvailable,
    ScenarioParseError,
    ScenarioValidationError,
    UnsupportedBandwidth,
)
from .geo import (
    Geofence,
    GeoPoint,
    LocationEllipse,
    destination_point,
    haversine_distance,
    initial_bearing_deg,
    within_geofence,
)
from .gnss import GnssFix, GnssNoiseModel, GnssSource, compute_fix
from .propagation import (
    FsLink,
    PropagationConfig,
    ProtectionConfig,
    i_over_n_db,
    max_permissible_eirp_dbm,
)
from .scenario import Scenario, ScenarioReport, assess_harm, load_scenario, run_scenario
from .server import (
    ChannelGrant,
    IncumbentDatabase,
    ResponseCode,
    ServerPolicy,
    SpectrumInquiryRequest,
    SpectrumInquiryResponse,
    World,
    compute_availability,
    differential_compare,
    handle_inquiry,
    validate_request,
)
from .wire import AfcService, post_inquiry

__version__ = "0.1.0"

__all__ = [
    "AfcService",
    "AfcSimError",
    "ChannelGrant",
    "ChannelId",
    "CoincidentPoints",
    "DetectionVerdict",
    "FrequencyRange",
    "FsLink",
    "Geofence",
    "GeoPoint",
    "GnssFix",
    "GnssNoiseModel",
    "GnssSource",
    "IncumbentDatabase",
    "InsufficientGroup",
    "LocationEllipse",
    "NoFixAvailable",
    "PropagationConfig",
    "ProtectionConfig",
    "ResponseCode",
    "Scenario",
    "ScenarioParseError",
    "ScenarioReport",
    "ScenarioValidationError",
    "ServerPolicy",
    "SpectrumInquiryRequest",
    "SpectrumInquiryResponse",
    "UnsupportedBandwidth",
    "World",
    "all_us_channels",
    "assess_harm",
    "center_frequency_mhz",
    "channel_span",
    "compute_availability",
    "compute_fix",
    "destination_point",
    "differential_compare",
    "geofence_check",
    "group_consistency_check",
    "handle_inquiry",
    "haversine_distance",
    "i_over_n_db",
    "initial_bearing_deg",
    "load_scenario",
    "max_permissible_eirp_dbm",
    "overlaps",
    "post_inquiry",
    "run_scenario",
    "us_standard_power_channels",
    "validate_request",
    "within_geofence",
]
