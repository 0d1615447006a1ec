"""The paper's contribution: timestamp-based crowd geolocation.

Pipeline (Secs. IV and V of the paper):

1. :mod:`repro.core.events`    -- activity traces of (user, timestamp) posts,
2. :mod:`repro.core.profiles`  -- Eq. 1 user profiles and Eq. 2 crowd profiles,
3. :mod:`repro.core.emd`       -- Earth Mover's Distance between profiles,
4. :mod:`repro.core.reference` -- generic profile and 24 zone references,
5. :mod:`repro.core.placement` -- EMD placement of users into time zones,
6. :mod:`repro.core.gaussian`  -- Gaussian curve fitting of placements,
7. :mod:`repro.core.em`        -- EM / Gaussian-mixture decomposition,
8. :mod:`repro.core.flatness`  -- flat-profile (bot) polishing,
9. :mod:`repro.core.hemisphere`-- DST-based hemisphere classification,
10. :mod:`repro.core.geolocate`-- the end-to-end facade.
"""

from repro.core.events import ActivityTrace, PostEvent, TraceSet
from repro.core.profiles import (
    Profile,
    active_hour_counts,
    build_crowd_profile,
    build_user_profile,
    uniform_profile,
)
from repro.core.batch import ProfileMatrix
from repro.core.emd import distance_matrix, emd_circular, emd_linear
from repro.core.reference import ReferenceProfiles, parametric_generic_profile
from repro.core.placement import (
    PlacementDistribution,
    classify_profiles,
    place_profile_matrix,
    place_trace_set,
    place_users,
)
from repro.core.gaussian import GaussianComponent, fit_gaussian, mixture_pdf
from repro.core.em import GaussianMixtureModel, fit_mixture, select_mixture
from repro.core.flatness import (
    flat_profile_mask,
    is_flat_profile,
    polish_profile_matrix,
    polish_trace_set,
)
from repro.core.hemisphere import HemisphereVerdict, classify_hemisphere
from repro.core.dst_family import DstFamily, classify_dst_family
from repro.core.confidence import BootstrapResult, bootstrap_mixture
from repro.core.streaming import StreamingGeolocator, StreamSnapshot
from repro.core.metrics import fit_distance_metrics, pearson
from repro.core.kernels import segment_counts
from repro.core.shard import (
    ShardPartial,
    compute_partials,
    compute_shard_partial,
    merge_partials,
)
from repro.core.geolocate import CrowdGeolocator, GeolocationReport

__all__ = [
    "ActivityTrace",
    "PostEvent",
    "TraceSet",
    "Profile",
    "ProfileMatrix",
    "active_hour_counts",
    "build_crowd_profile",
    "build_user_profile",
    "uniform_profile",
    "distance_matrix",
    "emd_circular",
    "emd_linear",
    "ReferenceProfiles",
    "parametric_generic_profile",
    "PlacementDistribution",
    "classify_profiles",
    "place_profile_matrix",
    "place_trace_set",
    "place_users",
    "GaussianComponent",
    "fit_gaussian",
    "mixture_pdf",
    "GaussianMixtureModel",
    "fit_mixture",
    "select_mixture",
    "flat_profile_mask",
    "is_flat_profile",
    "polish_profile_matrix",
    "polish_trace_set",
    "HemisphereVerdict",
    "classify_hemisphere",
    "DstFamily",
    "classify_dst_family",
    "BootstrapResult",
    "bootstrap_mixture",
    "StreamingGeolocator",
    "StreamSnapshot",
    "fit_distance_metrics",
    "pearson",
    "segment_counts",
    "ShardPartial",
    "compute_partials",
    "compute_shard_partial",
    "merge_partials",
    "CrowdGeolocator",
    "GeolocationReport",
]
