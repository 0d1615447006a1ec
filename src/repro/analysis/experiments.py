"""Drivers for every table and figure of the paper's evaluation.

Each ``run_*`` function reproduces one artifact and returns a structured
result object; the benchmarks and the CLI both call these, so there is a
single source of truth per experiment.  See DESIGN.md for the experiment
index (E-T1, E-F1 ... E-H).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.core.em import GaussianMixtureModel, select_mixture
from repro.core.flatness import is_flat_profile
from repro.core.gaussian import GaussianComponent, fit_gaussian
from repro.core.geolocate import CrowdGeolocator, GeolocationReport
from repro.core.hemisphere import HemisphereResult, classify_most_active
from repro.core.metrics import (
    FitDistanceMetrics,
    baseline_metrics,
    fit_distance_metrics,
    pearson,
)
from repro.core.placement import PlacementDistribution, assign_zones
from repro.core.profiles import (
    Profile,
    average_pairwise_pearson,
    build_user_profile,
    build_user_profile_civil,
)
from repro.core.reference import ReferenceProfiles
from repro.core.shard import compute_shard_partial
from repro.datasets.registry import table1_rows
from repro.datasets.traces import LabeledDataset
from repro.forum.engine import ForumServer
from repro.forum.scraper import ForumScraper, ScrapeResult
from repro.synth.bots import generate_bot_trace
from repro.synth.forums import (
    FORUM_SPECS,
    ForumSpec,
    build_forum_crowd,
    build_merged_crowd,
    build_relocated_crowd,
)
from repro.synth.twitter import build_region_crowd, build_twitter_dataset
from repro.timebase.clock import SECONDS_PER_DAY
from repro.timebase.zones import Hemisphere, get_region
from repro.tor.hidden_service import HiddenServiceHost, TorClient
from repro.tor.network import build_network


@dataclass(frozen=True)
class ExperimentContext:
    """Shared inputs: the (polished) ground-truth dataset and references."""

    dataset: LabeledDataset
    references: ReferenceProfiles
    seed: int
    scale: float
    n_days: int


@functools.lru_cache(maxsize=4)
def make_context(
    seed: int = 2016, scale: float = 0.04, n_days: int = 366
) -> ExperimentContext:
    """Build (and cache) the synthetic Twitter dataset + references."""
    dataset = build_twitter_dataset(
        seed=seed, scale=scale, n_days=n_days
    ).with_min_posts(30)
    return ExperimentContext(
        dataset=dataset,
        references=dataset.reference_profiles(),
        seed=seed,
        scale=scale,
        n_days=n_days,
    )


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def run_table1(context: ExperimentContext | None = None) -> list[tuple[str, int, int]]:
    """(region, paper active users, our generated active users) rows."""
    context = context or make_context()
    rows = []
    for name, paper_count in table1_rows():
        key = name.lower().replace(" ", "_")
        ours = len(context.dataset.crowd(key)) if key in context.dataset else 0
        rows.append((name, paper_count, ours))
    return rows


# ---------------------------------------------------------------------------
# Figures 1-2: profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileFigure:
    """A profile plus the identifiers needed to label the figure."""

    label: str
    profile: Profile


def run_fig1_user_profile(
    context: ExperimentContext | None = None, region_key: str = "germany"
) -> ProfileFigure:
    """Fig. 1: the (civil local time) profile of one active user."""
    context = context or make_context()
    crowd = context.dataset.crowd(region_key)
    most_active = crowd.most_active(1)[0]
    profile = build_user_profile_civil(most_active, get_region(region_key))
    return ProfileFigure(label=f"{region_key} user {most_active.user_id}", profile=profile)


@dataclass(frozen=True)
class Fig2Result:
    """Fig. 2(a)/(b): regional vs generic profile and their agreement."""

    regional: Profile
    generic: Profile
    pearson_regional_vs_generic: float
    average_pairwise_pearson: float


def run_fig2_profiles(
    context: ExperimentContext | None = None, region_key: str = "germany"
) -> Fig2Result:
    """Fig. 2: German crowd profile vs the all-dataset generic profile.

    Both are expressed in the canonical local-time frame, so the paper's
    "1 hour shift" between its two plots does not appear here; the Pearson
    agreement (~0.9 across any two countries, Sec. IV) is the quantity of
    interest.
    """
    context = context or make_context()
    regional = context.dataset.crowd_profile(region_key)
    generic = context.dataset.generic_profile()
    per_region = [
        context.dataset.crowd_profile(key)
        for key in context.dataset.region_keys()
        if len(context.dataset.crowd(key)) >= 5
    ]
    return Fig2Result(
        regional=regional,
        generic=generic,
        pearson_regional_vs_generic=pearson(regional, generic),
        average_pairwise_pearson=average_pairwise_pearson(per_region),
    )


# ---------------------------------------------------------------------------
# Figures 3-5: single-country placements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleCountryPlacement:
    """Fig. 3/4/5 artifact: placement distribution + Gaussian fit."""

    region_key: str
    true_offset: int
    placement: PlacementDistribution
    fit: GaussianComponent
    fit_metrics: FitDistanceMetrics

    def center_error(self) -> float:
        """|fitted mean - true zone| in zones."""
        return abs(self.fit.mean - self.true_offset)


def run_single_country_placement(
    region_key: str,
    context: ExperimentContext | None = None,
    *,
    n_users: int = 250,
    seed: int = 11,
) -> SingleCountryPlacement:
    """Figs. 3-5: place one country's crowd and fit a Gaussian.

    Follows the paper's handling of ground-truth data: daylight saving
    time is corrected (possible only because the region is known).
    Every active user is placed, flat or not.
    """
    context = context or make_context()
    crowd = build_region_crowd(region_key, n_users, seed=seed, n_days=context.n_days)
    normalized = LabeledDataset({region_key: crowd}).dst_normalized_crowd(region_key)
    partial = compute_shard_partial(*normalized.columns(), context.references, min_posts=30)
    _, placement = assign_zones(partial.user_ids, partial.zone_indices)
    fit = fit_gaussian(placement)
    return SingleCountryPlacement(
        region_key=region_key,
        true_offset=get_region(region_key).base_offset,
        placement=placement,
        fit=fit,
        fit_metrics=fit_distance_metrics(placement, [fit]),
    )


# ---------------------------------------------------------------------------
# Figure 6: multi-country mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureResult:
    """Fig. 6 artifact: placement + GMM decomposition vs ground truth."""

    label: str
    expected_offsets: tuple[int, ...]
    placement: PlacementDistribution
    mixture: GaussianMixtureModel
    fit_metrics: FitDistanceMetrics

    def recovered_offsets(self) -> list[int]:
        return sorted(self.mixture.zone_offsets())

    def max_center_error(self) -> float:
        """Worst |component mean - nearest expected zone| over components."""
        expected = np.asarray(self.expected_offsets, dtype=float)
        return max(
            float(np.min(np.abs(expected - component.mean)))
            for component in self.mixture.components
        )


def run_fig6_mixture(
    variant: str,
    context: ExperimentContext | None = None,
    *,
    users_per_component: int = 120,
    seed: int = 21,
) -> MixtureResult:
    """Fig. 6(a) ('relocated') or Fig. 6(b) ('merged')."""
    context = context or make_context()
    if variant == "relocated":
        expected = (0, -7, 9)  # the paper's UTC, California, New South Wales
        traces = build_relocated_crowd(
            "malaysia", expected, users_per_component, seed=seed, n_days=context.n_days
        )
        label = "Synthetic dataset (a): Malaysian behaviour x {UTC, UTC-7, UTC+9}"
    elif variant == "merged":
        regions = ("illinois", "germany", "malaysia")
        expected = tuple(get_region(key).base_offset for key in regions)
        traces = build_merged_crowd(
            regions, users_per_component, seed=seed, n_days=context.n_days
        )
        label = "Synthetic dataset (b): Illinois + Germany + Malaysia"
    else:
        raise ValueError(f"unknown variant {variant!r} (use 'relocated' or 'merged')")
    partial = compute_shard_partial(*traces.columns(), context.references, min_posts=30)
    _, placement = assign_zones(partial.user_ids, partial.zone_indices)
    mixture = select_mixture(placement)
    return MixtureResult(
        label=label,
        expected_offsets=expected,
        placement=placement,
        mixture=mixture,
        fit_metrics=fit_distance_metrics(placement, mixture.components),
    )


# ---------------------------------------------------------------------------
# Figure 7: flat profiles & polishing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatProfileResult:
    """Fig. 7 artifact: a bot profile and the polishing statistics."""

    bot_profile: Profile
    bot_is_flat: bool
    n_before: int
    n_after: int
    n_removed: int
    removed_are_bots: float  # precision of the filter


def run_fig7_flat(
    context: ExperimentContext | None = None,
    *,
    n_humans: int = 120,
    n_bots: int = 12,
    seed: int = 33,
) -> FlatProfileResult:
    """Fig. 7 + Sec. IV-C: flat-profile detection and polishing.

    The removed users are the partial's flat mask: against fixed
    references the paper's iterative polishing removes every flat user in
    its first round and nobody after.
    """
    context = context or make_context()
    rng = np.random.default_rng(seed)
    crowd = build_region_crowd("france", n_humans, seed=seed, n_days=context.n_days)
    for index in range(n_bots):
        crowd.add(
            generate_bot_trace(f"bot_{index:03d}", rng, n_days=context.n_days)
        )
    bot_profile = build_user_profile(crowd[f"bot_000"])
    partial = compute_shard_partial(*crowd.columns(), context.references, min_posts=30)
    removed = list(compress(partial.user_ids, partial.flat_mask.tolist()))
    bot_hits = sum(1 for user_id in removed if user_id.startswith("bot_"))
    return FlatProfileResult(
        bot_profile=bot_profile,
        bot_is_flat=is_flat_profile(bot_profile, context.references),
        n_before=partial.n_admitted,
        n_after=partial.n_admitted - len(removed),
        n_removed=len(removed),
        removed_are_bots=bot_hits / max(len(removed), 1),
    )


# ---------------------------------------------------------------------------
# Figures 8-13: Dark Web forum case studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForumCaseStudy:
    """One forum, end to end: scrape over Tor, geolocate, compare."""

    spec: ForumSpec
    scrape: ScrapeResult
    report: GeolocationReport
    expected_offsets: tuple[int, ...]
    pearson_vs_generic: float

    def recovered_offsets(self) -> list[int]:
        return self.report.zone_offsets()


def run_forum_case_study(
    forum_key: str,
    context: ExperimentContext | None = None,
    *,
    seed: int = 7,
    scale: float = 1.0,
    via_tor: bool = True,
    hemisphere_top_n: int = 0,
) -> ForumCaseStudy:
    """Figs. 8-13: populate a hidden-service forum, scrape it, geolocate.

    The full collection path is exercised: the synthetic crowd's posts go
    into a forum whose server clock is offset from UTC; the scraper
    reaches the forum through a simulated Tor rendezvous (unless
    ``via_tor=False``), calibrates the offset with a probe post and dumps
    (author, timestamp) pairs; the geolocator does the rest.
    """
    context = context or make_context()
    spec = FORUM_SPECS[forum_key]
    crowd = build_forum_crowd(spec, seed=seed, scale=scale, n_days=context.n_days)

    forum = ForumServer(
        spec.name, spec.onion, server_offset_hours=spec.server_offset_hours
    )
    forum.import_crowd_posts(
        {
            trace.user_id: [float(ts) for ts in trace.timestamps]
            for trace in crowd.traces
        }
    )

    scrape_time = float((context.n_days + 1) * SECONDS_PER_DAY)
    if via_tor:
        network = build_network(seed=seed)
        host = HiddenServiceHost(
            network=network,
            application=forum,
            private_key=f"key-{spec.key}",
            rng=np.random.default_rng(seed),
        )
        descriptor = host.setup()
        client = TorClient(network, seed=seed)
        remote = client.connect(descriptor.onion, {descriptor.onion: host})
        scraper = ForumScraper(remote)
        scrape = scraper.scrape(scrape_time)
        remote.disconnect()
    else:
        scrape = ForumScraper(forum).scrape(scrape_time)

    geolocator = CrowdGeolocator(context.references)
    report = geolocator.geolocate(
        scrape.traces,
        crowd_name=spec.name,
        hemisphere_top_n=hemisphere_top_n,
    )
    expected = tuple(
        sorted({get_region(key).base_offset for key, _ in spec.components})
    )
    return ForumCaseStudy(
        spec=spec,
        scrape=scrape,
        report=report,
        expected_offsets=expected,
        pearson_vs_generic=pearson(
            report.crowd_profile,
            context.references.for_zone(report.placement.mode_offset()),
        ),
    )


# ---------------------------------------------------------------------------
# Table II: Gaussian fitting metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    dataset: str
    average: float
    standard_deviation: float


def run_table2(
    context: ExperimentContext | None = None,
    *,
    forum_scale: float = 1.0,
    seed: int = 7,
    via_tor: bool = False,
) -> list[Table2Row]:
    """Table II: fit-quality metrics for every placement + the baseline."""
    context = context or make_context()
    rows: list[Table2Row] = []

    malaysian = run_single_country_placement("malaysia", context)
    for region_key, label in (
        ("malaysia", "Malaysian Twitter"),
        ("germany", "German Twitter"),
        ("france", "French Twitter"),
    ):
        result = (
            malaysian
            if region_key == "malaysia"
            else run_single_country_placement(region_key, context)
        )
        rows.append(
            Table2Row(label, result.fit_metrics.average, result.fit_metrics.standard_deviation)
        )

    for variant, label in (
        ("relocated", "Synthetic dataset (a)"),
        ("merged", "Synthetic dataset (b)"),
    ):
        result = run_fig6_mixture(variant, context)
        rows.append(
            Table2Row(label, result.fit_metrics.average, result.fit_metrics.standard_deviation)
        )

    for forum_key, label in (
        ("crd_club", "CRD Club"),
        ("idc", "Italian DarkNet Community"),
        ("dream_market", "Dream Market forum"),
        ("majestic_garden", "The Majestic Garden"),
        ("pedo_community", "Pedo support community"),
    ):
        study = run_forum_case_study(
            forum_key, context, seed=seed, scale=forum_scale, via_tor=via_tor
        )
        metrics = study.report.fit_metrics
        rows.append(Table2Row(label, metrics.average, metrics.standard_deviation))

    baseline = baseline_metrics(malaysian.placement, [malaysian.fit])
    rows.append(Table2Row("Baseline", baseline.average, baseline.standard_deviation))
    return rows


# ---------------------------------------------------------------------------
# Sec. V-F: hemisphere validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HemisphereValidation:
    """Verdicts for the top-5 users of one known country."""

    region_key: str
    expected: Hemisphere
    results: tuple[HemisphereResult, ...]

    def n_correct(self) -> int:
        return sum(
            1
            for result in self.results
            if result.verdict.value == self.expected.value
        )


def run_hemisphere_validation(
    context: ExperimentContext | None = None,
    *,
    regions: tuple[str, ...] = ("united_kingdom", "germany", "italy", "brazil"),
    n_users: int = 5,
    crowd_size: int = 120,
    seed: int = 17,
) -> list[HemisphereValidation]:
    """Sec. V-F validation: 5 most active users of 4 DST countries."""
    context = context or make_context()
    validations = []
    for region_key in regions:
        crowd = build_region_crowd(
            region_key, crowd_size, seed=seed, n_days=context.n_days
        )
        results = tuple(classify_most_active(crowd, n_users))
        validations.append(
            HemisphereValidation(
                region_key=region_key,
                expected=get_region(region_key).hemisphere,
                results=results,
            )
        )
    return validations
