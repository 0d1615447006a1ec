"""Fixture: unseeded RNG (DC002 must fire on every draw and construction)."""
import random
from dataclasses import dataclass, field

import numpy as np

noise = np.random.rand(24)
pick = np.random.randint(0, 10)
jitter = random.random()
choice = random.choice([1, 2, 3])

fresh = np.random.default_rng()
explicit_none = np.random.default_rng(None)
stdlib_fresh = random.Random()
stdlib_none = random.Random(seed=None)


@dataclass
class Host:
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    stdlib_rng: random.Random = field(default_factory=random.Random)


def _dead_helper():
    # Nothing calls this; a per-file rule flags it all the same.
    return np.random.default_rng()
