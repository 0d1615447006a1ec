"""Parametric diurnal (circadian) activity models.

The paper's method rests on the empirical fact -- established by the
Facebook/YouTube access-pattern studies it cites and confirmed on its
Twitter dataset -- that online activity follows a common daily rhythm:
negligible at night (trough ~4-5h local), growing through the morning,
dipping slightly around lunch and peaking in the evening (~21h local).

:class:`DiurnalModel` is that rhythm as a sampleable distribution over
local time, with hooks for the (small) cultural variations the paper
mentions: e.g. the siesta, or night-owl skews.  The canonical weight
vector lives in :mod:`repro.core.reference` so the inference side and the
generation side agree on one ground-truth shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.profiles import HOURS, Profile
from repro.core.reference import _CANONICAL_WEIGHTS


def _interp_periodic(weights: np.ndarray, hour: np.ndarray) -> np.ndarray:
    """Periodic linear interpolation of per-hour weights at real hours."""
    wrapped = np.mod(hour, HOURS)
    # A tiny negative input can round up to exactly 24.0 under fmod.
    wrapped = np.where(wrapped >= HOURS, 0.0, wrapped)
    low = np.floor(wrapped).astype(int)
    high = (low + 1) % HOURS
    frac = wrapped - low
    return (1.0 - frac) * weights[low] + frac * weights[high]


@dataclass(frozen=True)
class DiurnalModel:
    """An activity-rate curve over the 24 local hours."""

    name: str
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != HOURS:
            raise ValueError(f"need {HOURS} weights, got {len(self.weights)}")
        if min(self.weights) < 0:
            raise ValueError("weights must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def pmf(self, chronotype_shift: float = 0.0) -> np.ndarray:
        """Hourly probabilities after shifting the curve by *shift* hours.

        A positive chronotype shift moves the whole rhythm later in the
        day (a night owl); the shift may be fractional.
        """
        hours = np.arange(HOURS, dtype=float) - chronotype_shift
        values = _interp_periodic(self.as_array(), hours)
        return values / values.sum()

    def profile(self, chronotype_shift: float = 0.0) -> Profile:
        return Profile(self.pmf(chronotype_shift))

    def rate_at(self, hour: float, chronotype_shift: float = 0.0) -> float:
        """Interpolated activity weight at a (fractional) local hour."""
        value = _interp_periodic(
            self.as_array(), np.asarray([hour - chronotype_shift], dtype=float)
        )
        return float(value[0])

    def hour_cdf(self, chronotype_shift: float = 0.0) -> np.ndarray:
        """The CDF ``rng.choice(HOURS, n, p=self.pmf(shift))`` searches.

        ``Generator.choice`` with *p* takes ``cdf = p.cumsum(); cdf /=
        cdf[-1]`` and returns ``cdf.searchsorted(rng.random(n),
        side="right")``; :func:`hours_from_uniforms` does the same search,
        so a caller computes this once per curve instead of once per day.
        Like ``choice``, it refuses a curve with no finite mass.
        """
        cdf = self.pmf(chronotype_shift).cumsum()
        cdf /= cdf[-1]
        if not np.isfinite(cdf).all():
            raise ValueError(f"diurnal curve {self.name!r} has no finite mass")
        return cdf

    def sample_hours(
        self,
        n: int,
        rng: np.random.Generator,
        chronotype_shift: float = 0.0,
    ) -> np.ndarray:
        """Draw *n* fractional local hours from the (shifted) curve.

        One ``rng.random(2 * n)``: the first n uniforms pick the bins, the
        last n are the fractions (:func:`hours_from_uniforms`).  These are
        the draws, and the hours, of ``rng.choice(HOURS, n, p=pmf)``
        followed by ``rng.random(n)``.
        """
        cdf = self.hour_cdf(chronotype_shift)
        uniforms = rng.random(2 * n)
        return hours_from_uniforms(cdf, uniforms[:n], uniforms[n:])

    def personalized(
        self,
        rng: np.random.Generator,
        *,
        concentration: float = 2.0,
        noise_dispersion: float = 8.0,
    ) -> "DiurnalModel":
        """An individual's curve: sharpened and idiosyncratically reweighted.

        A population curve averages many habits, but a single person posts
        in a handful of favourite hours: raising the curve to
        *concentration* (> 1 sharpens) and multiplying per-hour gamma
        noise (shape *noise_dispersion*; higher = milder) produces the
        peaky, personal profiles real forum users exhibit -- which is what
        makes their EMD placement crisp despite few posts.
        """
        weights = self.as_array() ** concentration
        weights = weights * rng.gamma(noise_dispersion, 1.0 / noise_dispersion, HOURS)
        return DiurnalModel(
            name=f"{self.name}_personal", weights=tuple(weights.tolist())
        )


def hours_from_uniforms(
    cdf: np.ndarray, draws: np.ndarray, fractions: np.ndarray
) -> np.ndarray:
    """Fractional local hours: hour bins picked by *draws*, plus *fractions*.

    A bin is what ``Generator.choice(HOURS, n, p=pmf)`` returns for the
    same uniforms: their right-side search in the curve's
    :meth:`DiurnalModel.hour_cdf`.
    """
    return np.searchsorted(cdf, draws, side="right") + fractions


def _scaled(weights: tuple[float, ...], factors: dict[int, float]) -> tuple[float, ...]:
    adjusted = list(weights)
    for hour, factor in factors.items():
        adjusted[hour] *= factor
    return tuple(adjusted)


def _recentered(name: str, factors: dict[int, float]) -> DiurnalModel:
    """A culture variant phase-aligned with the canonical curve.

    Scaling individual hours moves the curve's center of mass, which would
    systematically displace a whole crowd's EMD placement -- something the
    paper's single-country validations rule out (placements center on the
    true zone).  So each variant is rebuilt with the fractional time shift
    that best re-aligns it (in EMD) with the canonical curve.
    """
    from repro.core.emd import emd_linear
    from repro.core.optimize import golden_section

    rough = DiurnalModel(name=name, weights=_scaled(_CANONICAL_WEIGHTS, factors))
    canonical_pmf = np.asarray(_CANONICAL_WEIGHTS, dtype=float)
    canonical_pmf = canonical_pmf / canonical_pmf.sum()

    def misalignment(shift: float) -> float:
        return emd_linear(rough.pmf(shift), canonical_pmf)

    best_shift = golden_section(misalignment, -3.0, 3.0, tol=1e-4)
    return DiurnalModel(name=name, weights=tuple(rough.pmf(best_shift).tolist()))


#: The canonical rhythm (shared with the inference-side generic profile).
CANONICAL = DiurnalModel(name="canonical", weights=_CANONICAL_WEIGHTS)

#: Siesta cultures: a deeper early-afternoon dip and a later, fatter evening.
#: The paper stresses that cultural differences are *small* ("though with
#: small differences due to culture, [the profiles] are quite consistent"),
#: and its single-country placements come out unbiased -- so the variants
#: are mild enough not to move a crowd's EMD placement by a whole zone.
SIESTA = _recentered(
    "siesta",
    {13: 0.82, 14: 0.78, 15: 0.88, 21: 1.02, 22: 1.08, 23: 1.10, 0: 1.05},
)

#: Early-rising cultures: stronger mornings, earlier decay at night.
EARLY = _recentered(
    "early",
    {5: 1.15, 6: 1.25, 7: 1.2, 8: 1.1, 22: 0.92, 23: 0.85, 0: 0.9},
)

#: Tech-forum night crowd: thicker late evening / after-midnight tail.
NIGHT = _recentered(
    "night",
    {0: 1.2, 1: 1.25, 2: 1.15, 9: 0.92, 10: 0.92, 22: 1.05, 23: 1.15},
)

CULTURES = {
    model.name: model for model in (CANONICAL, SIESTA, EARLY, NIGHT)
}

#: Culture assignment for regions whose habits the paper singles out
#: ("the siesta is common in some cultures, while rare in countries with
#: colder weather").  Unlisted regions use the canonical curve.
REGION_CULTURES = {
    "italy": "siesta",
    "france": "siesta",
    "brazil": "siesta",
    "finland": "early",
    "germany": "early",
    "japan": "early",
}


def model_for_region(region_key: str) -> DiurnalModel:
    """The diurnal model assigned to a region (canonical by default)."""
    return CULTURES[REGION_CULTURES.get(region_key.lower(), "canonical")]
