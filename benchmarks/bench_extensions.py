"""Extensions beyond the paper: DST rule families, bootstrap CIs, sweeps."""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ascii_table
from repro.analysis.sweeps import run_activity_sweep, run_crowd_size_sweep
from repro.core.confidence import bootstrap_mixture
from repro.core.dst_family import DstFamily, classify_dst_family
from repro.synth.population import sample_user
from repro.synth.posting import generate_trace


def _family_accuracy(region_key: str, expected: DstFamily, n: int = 20) -> float:
    rng = np.random.default_rng(555)
    hits = 0
    for index in range(n):
        spec = sample_user(
            f"u{index}", region_key, rng, posts_per_day_mean=9.0, chronotype_std=0.8
        )
        trace = generate_trace(spec, rng, n_days=366)
        if classify_dst_family(trace).verdict is expected:
            hits += 1
    return hits / n


def test_extension_dst_family_accuracy(benchmark, artifact_writer):
    def run():
        return [
            ("germany", "eu", _family_accuracy("germany", DstFamily.EU)),
            ("united_kingdom", "eu", _family_accuracy("united_kingdom", DstFamily.EU)),
            ("new_york", "us", _family_accuracy("new_york", DstFamily.US)),
            ("california", "us", _family_accuracy("california", DstFamily.US)),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    artifact_writer(
        "extension_dst_family",
        ascii_table(
            ["region", "true rule family", "accuracy (20 users)"],
            rows,
            title="Extension -- EU-rule vs US-rule classification "
            "(fine-grained origin within the northern hemisphere)",
        ),
    )
    for _, _, accuracy in rows:
        assert accuracy >= 0.6


def test_extension_bootstrap_confidence(benchmark, context, artifact_writer):
    from repro.analysis.experiments import run_forum_case_study

    def run():
        output = []
        for key in ("idc", "dream_market"):
            study = run_forum_case_study(key, context)
            boot = bootstrap_mixture(
                study.report.user_zones,
                study.report.mixture,
                n_resamples=120,
                seed=1,
            )
            for interval in boot.intervals:
                output.append(
                    (
                        study.spec.name,
                        boot.n_users,
                        f"{interval.mean_estimate:+.2f}",
                        f"[{interval.mean_low:+.2f}, {interval.mean_high:+.2f}]",
                        f"{interval.weight_estimate:.2f}",
                        f"{boot.k_stability:.2f}",
                    )
                )
        return output

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    artifact_writer(
        "extension_bootstrap",
        ascii_table(
            ["forum", "users", "centre", "90% CI", "weight", "k stability"],
            rows,
            title="Extension -- bootstrap confidence for component centres",
        ),
    )
    # Small IDC crowd -> wider interval than the Dream Market components.
    widths = {}
    for forum, users, _, ci, _, _ in rows:
        low, high = ci.strip("[]").split(",")
        widths.setdefault(forum, []).append(float(high) - float(low))
    assert max(widths["Italian DarkNet Community"]) > min(
        widths["Dream Market forum"]
    )


def test_extension_crowd_size_sweep(benchmark, context, artifact_writer):
    rows = benchmark.pedantic(
        run_crowd_size_sweep,
        args=(context,),
        kwargs={"crowd_sizes": (10, 20, 40, 80, 160, 320)},
        rounds=1,
        iterations=1,
    )
    artifact_writer(
        "extension_crowd_size",
        ascii_table(
            ["users", "placed", "centre", "centre error", "90% CI width", "k"],
            [
                (
                    row.n_users_requested,
                    row.n_users_placed,
                    row.dominant_mean,
                    row.center_error,
                    row.ci_width,
                    row.k_recovered,
                )
                for row in rows
            ],
            title="Extension -- how many users does the method need?",
        ),
    )
    assert rows[-1].ci_width < rows[0].ci_width
    assert rows[-1].center_error <= 1.2


def test_extension_activity_sweep(benchmark, context, artifact_writer):
    rows = benchmark.pedantic(
        run_activity_sweep,
        args=(context,),
        kwargs={"rates": (0.1, 0.2, 0.5, 1.0, 3.0)},
        rounds=1,
        iterations=1,
    )
    artifact_writer(
        "extension_activity",
        ascii_table(
            ["posts/day", "median posts/user", "users placed", "max centre error", "k"],
            [
                (
                    row.posts_per_day,
                    row.median_posts_per_user,
                    row.n_users_placed,
                    row.max_center_error,
                    row.k_recovered,
                )
                for row in rows
            ],
            title="Extension -- recovery vs per-user activity "
            "(two-region mixture)",
        ),
    )
    assert rows[-1].k_recovered == 2
    assert rows[-1].max_center_error <= 1.5
