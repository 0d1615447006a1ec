"""repro -- reproduction of "Time-Zone Geolocation of Crowds in the Dark Web".

ICDCS 2018, M. La Morgia, A. Mei, S. Raponi, J. Stefa.

The library geolocates the *crowd* of an anonymous (Dark Web) forum into
world time zones using nothing but post timestamps.  Quickstart::

    from repro import CrowdGeolocator
    from repro.synth import FORUM_SPECS, build_forum_crowd

    crowd = build_forum_crowd(FORUM_SPECS["dream_market"], seed=7)
    report = CrowdGeolocator().geolocate(crowd.traces, crowd_name=crowd.name)
    print(report.summary())

Packages:

* :mod:`repro.core`     -- the paper's methodology (profiles, EMD placement,
  Gaussian-mixture decomposition, hemisphere test),
* :mod:`repro.timebase` -- civil time, time zones and DST rules,
* :mod:`repro.synth`    -- synthetic crowd/behaviour generators standing in
  for the Twitter grab and the Dark Web scrapes,
* :mod:`repro.forum`    -- a Dark Web-style forum engine plus scraper,
* :mod:`repro.datasets` -- dataset containers, filters and serialisation,
* :mod:`repro.analysis` -- per-table/figure experiment drivers & reports.
"""

from repro._version import __version__
from repro.core import (
    ActivityTrace,
    CrowdGeolocator,
    GaussianComponent,
    GaussianMixtureModel,
    GeolocationReport,
    HemisphereVerdict,
    PlacementDistribution,
    PostEvent,
    Profile,
    ProfileMatrix,
    ReferenceProfiles,
    TraceSet,
    build_crowd_profile,
    build_user_profile,
    classify_hemisphere,
    emd_circular,
    emd_linear,
    fit_gaussian,
    fit_mixture,
    pearson,
    select_mixture,
)

__all__ = [
    "__version__",
    "ActivityTrace",
    "CrowdGeolocator",
    "GaussianComponent",
    "GaussianMixtureModel",
    "GeolocationReport",
    "HemisphereVerdict",
    "PlacementDistribution",
    "PostEvent",
    "Profile",
    "ProfileMatrix",
    "ReferenceProfiles",
    "TraceSet",
    "build_crowd_profile",
    "build_user_profile",
    "classify_hemisphere",
    "emd_circular",
    "emd_linear",
    "fit_gaussian",
    "fit_mixture",
    "pearson",
    "select_mixture",
]
