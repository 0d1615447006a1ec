"""Fixture: seeded generator instances (DC002 quiet)."""
import random
from dataclasses import dataclass, field

import numpy as np

rng = np.random.default_rng(7)
noise = rng.random(24)
stdlib_rng = random.Random(7)
jitter = stdlib_rng.random()
generator = np.random.Generator(np.random.PCG64(7))
keyword_seeded = np.random.default_rng(seed=7)


def make_rngs(seed):
    return np.random.default_rng(seed), random.Random(seed)


@dataclass
class Host:
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))
    draws: list = field(default_factory=list)
