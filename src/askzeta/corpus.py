"""Seeded random tensor corpus for the verification harness.

One fixed integer-tensor corpus serves every ring: coefficients live in Z
and are reduced per ring on demand. The first few entries are handpicked
degenerate shapes (rank-zero sides) so the edge paths stay covered.
"""

from __future__ import annotations

import random

from .mrep import MRep

__all__ = ["DEFAULT_SEED", "RING_SPECS", "seeded_corpus"]

DEFAULT_SEED = 8020

# (p, n) pairs the acceptance suite runs over
RING_SPECS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))

_FIXED_SHAPES = ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 1, 1))


def seeded_corpus(
    count: int = 100,
    seed: int = DEFAULT_SEED,
    max_rank: int = 3,
    coeff_bound: int = 9,
) -> tuple[MRep, ...]:
    rng = random.Random(seed)
    reps: list[MRep] = []
    for l, d, e in _FIXED_SHAPES[: min(len(_FIXED_SHAPES), count)]:
        coeffs = [
            [[rng.randint(-coeff_bound, coeff_bound) for _ in range(e)] for _ in range(d)]
            for _ in range(l)
        ]
        reps.append(MRep(l, d, e, coeffs))
    while len(reps) < count:
        l = rng.randint(1, max_rank)
        d = rng.randint(1, max_rank)
        e = rng.randint(1, max_rank)
        coeffs = [
            [[rng.randint(-coeff_bound, coeff_bound) for _ in range(e)] for _ in range(d)]
            for _ in range(l)
        ]
        reps.append(MRep(l, d, e, coeffs))
    return tuple(reps)
