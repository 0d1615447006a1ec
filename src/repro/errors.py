"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class EmptyTraceError(ReproError):
    """An activity trace contained no events where at least one is required."""


class ProfileError(ReproError):
    """A profile is malformed (wrong length, negative mass, zero mass...)."""


class ZoneError(ReproError):
    """An unknown time zone or region was requested."""


class CalendarError(ReproError):
    """Invalid civil date arithmetic (bad month, day out of range...)."""


class FitError(ReproError):
    """A curve fit or EM run failed to produce a usable estimate."""


class DatasetError(ReproError):
    """A dataset is missing required fields or violates its invariants."""


class ForumError(ReproError):
    """A forum-engine operation was invalid (unknown user, bad thread...)."""


class TransientForumError(ForumError):
    """A forum call failed transiently (timeout, temporary unavailability).

    Retrying the same call may succeed; :class:`repro.reliability.RetryPolicy`
    treats this class (and only this class, by default) as retryable.
    """


class RetryExhaustedError(ReproError):
    """Every allowed attempt of a retried operation failed.

    Carries the number of *attempts* made and the *last_error* that caused
    the final failure, so callers can log an honest post-mortem.
    """

    def __init__(self, message: str, *, attempts: int = 0, last_error: BaseException | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class CircuitOpenError(ReproError):
    """A circuit breaker is open: the protected call was not even attempted."""


class CorruptTraceError(ReproError):
    """An activity trace violates basic sanity (non-finite or negative stamps)."""


class CheckpointError(ReproError):
    """A campaign checkpoint could not be written, read or applied."""
