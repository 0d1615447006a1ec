"""Flat-profile (bot) detection and polishing."""

from __future__ import annotations

from itertools import compress

from repro.core.events import TraceSet
from repro.core.flatness import is_flat_profile
from repro.core.profiles import build_user_profile, uniform_profile
from repro.core.shard import compute_shard_partial
from repro.synth.bots import generate_bot_trace, generate_shift_worker_trace
from repro.synth.population import sample_population
from repro.synth.posting import generate_crowd


class TestIsFlat:
    def test_uniform_is_flat(self, canonical_references):
        assert is_flat_profile(uniform_profile(), canonical_references)

    def test_generic_is_not_flat(self, canonical_references):
        assert not is_flat_profile(
            canonical_references.generic, canonical_references
        )

    def test_every_zone_reference_is_not_flat(self, canonical_references):
        for reference in canonical_references.as_list():
            assert not is_flat_profile(reference, canonical_references)

    def test_nearly_uniform_is_flat(self, canonical_references):
        nearly = uniform_profile().mixed_with(canonical_references.generic, 0.1)
        assert is_flat_profile(nearly, canonical_references)

    def test_bot_trace_is_flat(self, canonical_references, rng):
        bot = generate_bot_trace("bot", rng, n_days=365, posts_per_day=3.0)
        assert is_flat_profile(build_user_profile(bot), canonical_references)

    def test_shift_worker_is_flat(self, canonical_references, rng):
        worker = generate_shift_worker_trace("worker", rng, n_days=365)
        assert is_flat_profile(build_user_profile(worker), canonical_references)


def _reduce(crowd, references, min_posts=30):
    """The per-user reduction ``geolocate()`` runs, and its removed users."""
    partial = compute_shard_partial(*crowd.columns(), references, min_posts=min_posts)
    return partial, list(compress(partial.user_ids, partial.flat_mask.tolist()))


class TestPolish:
    def _crowd_with_bots(self, rng, n_humans=30, n_bots=5):
        humans = sample_population("france", n_humans, rng)
        crowd = generate_crowd(humans, rng, n_days=200)
        for index in range(n_bots):
            crowd.add(
                generate_bot_trace(f"bot_{index}", rng, n_days=200, posts_per_day=2.0)
            )
        return crowd

    def test_removes_bots_keeps_humans(self, canonical_references, rng):
        crowd = self._crowd_with_bots(rng)
        partial, removed = _reduce(crowd, canonical_references)
        assert all(user.startswith("bot_") for user in removed)
        assert len(removed) >= 4  # at least most of the 5 bots
        assert len(partial) == len(crowd.with_min_posts(30))

    def test_threshold_applied_first(self, canonical_references, rng):
        crowd = self._crowd_with_bots(rng)
        partial, removed = _reduce(crowd, canonical_references, min_posts=10**6)
        assert len(partial) == partial.n_admitted == 0
        assert removed == []

    def test_no_flat_users_is_noop(self, canonical_references, rng):
        humans = sample_population("germany", 10, rng)
        crowd = generate_crowd(humans, rng, n_days=200)
        partial, removed = _reduce(crowd, canonical_references)
        assert removed == []
        assert partial.n_admitted == len(partial) > 0

    def test_empty_crowd(self, canonical_references):
        partial, removed = _reduce(TraceSet(), canonical_references)
        assert len(partial) == partial.n_admitted == 0
        assert removed == []
