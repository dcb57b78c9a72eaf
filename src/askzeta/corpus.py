"""Seeded random tensor corpus for the verification harness.

One fixed integer-tensor corpus serves every ring: coefficients live in Z
and are reduced per ring on demand. The first few entries are handpicked
degenerate shapes (rank-zero sides) so the edge paths stay covered. A
corpus is built once per seed and shared: it is a tuple of MReps, whose
arrays are read-only.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .mrep import MRep

__all__ = ["DEFAULT_SEED", "RING_SPECS", "seeded_corpus"]

DEFAULT_SEED = 8020

# (p, n) pairs the acceptance suite runs over
RING_SPECS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))

_FIXED_SHAPES = ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 1, 1))


@lru_cache(maxsize=4)
def seeded_corpus(seed: int = DEFAULT_SEED) -> tuple[MRep, ...]:
    """100 tensors: the fixed shapes, then shapes drawn from [1, 3]^3; coefficients in [-9, 9]."""
    rng = random.Random(seed)
    reps: list[MRep] = []
    for i in range(100):
        l, d, e = _FIXED_SHAPES[i] if i < len(_FIXED_SHAPES) else [rng.randint(1, 3) for _ in range(3)]
        coeffs = [[[rng.randint(-9, 9) for _ in range(e)] for _ in range(d)] for _ in range(l)]
        reps.append(MRep(l, d, e, coeffs))
    return tuple(reps)
