"""An investigator's full workflow on one unknown forum.

Run with::

    python examples/investigator_workflow.py

The scenario from the paper's introduction: an authority wants "important
initial information about the geographical origin of the users of a
particular forum".  This example chains everything the library offers:

1. calibrate the forum's server clock with a probe post and dump
   (author id, timestamp) pairs -- nothing else is collected,
2. geolocate the crowd with bootstrap confidence intervals,
3. run the hemisphere test and the DST rule-family test on the most
   active users for finer-grained origin evidence.

The paper reached the forum over Tor; the access path carries the same
pairs, so the scraper talks to the forum directly.
"""

from __future__ import annotations

from repro.analysis.experiments import make_context
from repro.core.confidence import bootstrap_mixture
from repro.core.dst_family import classify_dst_family
from repro.core.geolocate import CrowdGeolocator
from repro.core.hemisphere import classify_most_active
from repro.forum.engine import ForumServer
from repro.forum.scraper import ForumScraper
from repro.synth.forums import FORUM_SPECS, build_forum_crowd


def main() -> None:
    context = make_context(seed=2016, scale=0.02)
    spec = FORUM_SPECS["pedo_community"]

    # --- the forum exists out there, composition unknown to us ----------
    crowd = build_forum_crowd(spec, seed=11, scale=0.8)
    forum = ForumServer(
        spec.name, spec.onion, server_offset_hours=spec.server_offset_hours
    )
    forum.import_crowd_posts(
        {
            trace.user_id: [float(ts) for ts in trace.timestamps]
            for trace in crowd.traces
        }
    )

    # --- 1: calibrate, dump ---------------------------------------------
    scrape = ForumScraper(forum).scrape(utc_now=float(370 * 86400))
    print(f"scraped: {scrape.summary()}")
    traces = scrape.traces

    # --- 2: geolocate with confidence -----------------------------------
    report = CrowdGeolocator(context.references).geolocate(
        traces, crowd_name=spec.name
    )
    print()
    print(report.summary())
    boot = bootstrap_mixture(
        report.user_zones, report.mixture, n_resamples=150, seed=1
    )
    for interval in boot.intervals:
        print(
            f"  component {interval.mean_estimate:+.2f} zones "
            f"(90% CI [{interval.mean_low:+.2f}, {interval.mean_high:+.2f}]), "
            f"weight {interval.weight_estimate:.2f}"
        )
    print(f"  component count stable in {boot.k_stability:.0%} of resamples")

    # --- 3: fine-grained origin on the most active users ----------------
    print("\nmost active users:")
    for hemisphere_result in classify_most_active(traces, 5):
        family = classify_dst_family(traces[hemisphere_result.user_id])
        print(
            f"  {hemisphere_result.user_id}: "
            f"hemisphere={hemisphere_result.verdict.value}, "
            f"dst-family={family.verdict.value}"
        )


if __name__ == "__main__":
    main()
