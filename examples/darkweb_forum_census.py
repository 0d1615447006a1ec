"""The paper's Sec. V, end to end: scrape five hidden services, geolocate.

Run with::

    python examples/darkweb_forum_census.py [--scale 0.5]

For each of the five forums the paper studied this example:

1. generates the forum's crowd (composition matching the paper's
   findings) and loads its posting history into a forum server whose
   clock is offset from UTC,
2. signs up, posts a probe in the Welcome thread to calibrate the
   server-clock offset (exactly the paper's procedure) and dumps all
   (author, timestamp) pairs,
3. geolocates the crowd and prints the recovered components.

The paper reached each forum over Tor; the access path carries the same
(author, timestamp) pairs, so the scraper talks to the forum directly.
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import make_context, run_forum_case_study
from repro.analysis.report import ascii_table
from repro.synth.forums import FORUM_SPECS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print("building references from the ground-truth dataset...")
    context = make_context(seed=2016, scale=0.02)

    rows = []
    for forum_key in FORUM_SPECS:
        print(f"scraping {FORUM_SPECS[forum_key].name}...")
        study = run_forum_case_study(
            forum_key, context, seed=args.seed, scale=args.scale
        )
        report = study.report
        components = ", ".join(
            f"UTC{component.nearest_zone():+d} ({component.weight:.0%})"
            for component in sorted(
                report.mixture.components, key=lambda c: -c.weight
            )
        )
        rows.append(
            (
                study.spec.name,
                report.n_users,
                report.n_posts,
                f"{study.scrape.server_offset_hours:+.0f}h",
                components,
            )
        )

    print()
    print(
        ascii_table(
            ["Forum", "users", "posts", "server offset", "recovered components"],
            rows,
            title="Dark Web forum census (cf. paper Figs. 9-13)",
        )
    )


if __name__ == "__main__":
    main()
