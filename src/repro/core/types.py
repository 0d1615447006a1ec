"""Shared type aliases of the numeric core.

The core kernels pass ``(N, 24)`` float matrices, int64 day/hour columns
and boolean masks between modules; these aliases give those shapes one
spelling so ``mypy --strict`` can check the handoffs without every
signature re-deriving ``NDArray[np.float64]``.

``ProfileLike`` names the duck-typed "any profile collection" accepted by
:func:`repro.core.emd.distance_matrix` and friends: a sequence of
:class:`~repro.core.profiles.Profile`, a raw ``(N, 24)`` array, a
:class:`~repro.core.batch.ProfileMatrix` or anything with cached
``stacked()`` / ``cumulative()`` arrays, such as
:class:`~repro.core.reference.ReferenceProfiles`.  It is importable only
under ``TYPE_CHECKING`` (the member classes live in modules that import
this one's consumers), which is all the string-annotation world of
``from __future__ import annotations`` needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, Union

import numpy as np
from numpy.typing import NDArray

__all__ = ["FloatArray", "IntArray", "BoolArray", "AnyArray", "ProfileLike"]

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]
AnyArray = NDArray[Any]

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.core.batch import ProfileMatrix
    from repro.core.profiles import Profile

    class StackedProfiles(Protocol):
        """A fixed ``(N, 24)`` profile stack with its cached row CDFs."""

        def stacked(self) -> FloatArray: ...

        def cumulative(self) -> FloatArray: ...

    ProfileLike = Union[
        "Sequence[Profile]", FloatArray, "ProfileMatrix", StackedProfiles
    ]
