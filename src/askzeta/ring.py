"""The truncated rings Z/p^n, and kernel sizes of single matrices over them.

Z/p^n is a chain ring: every element is a unit times a power of p, so a
matrix over it has a diagonal reduction diag(p^a_1, ..., p^a_k) with
0 <= a_1 <= ... <= a_k <= n (exponent n stands for a zero diagonal entry).
The exponent multiset determines the kernel and image cardinalities of the
matrix acting on row vectors. smith_exponents, kernel_size and image_size
take one d x e integer matrix and run bulk.batch_smith_exponents, the
library's only reduction, on a batch of one.

The level n = 0 denotes the zero ring; every module over it is trivial and
every kernel has size 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bulk

__all__ = [
    "TruncatedRing",
    "is_prime",
    "smith_exponents",
    "kernel_size",
    "image_size",
]


_TRIAL_LIMIT = 1 << 32  # trial division below, at most 2^15 odd divisors
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # the first 13 prime bases decide every n below this


def is_prime(p: int) -> bool:
    """Deterministic primality test: trial division below 2^32, Miller-Rabin
    with the first 13 prime bases up to 3.3 * 10^24, where those bases are
    known to decide it; larger p raise ValueError."""
    if p >= _TRIAL_LIMIT:
        return _miller_rabin(p)
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _miller_rabin(p: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES, exact for 2 <= p < _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise ValueError(f"p = {p} is beyond the primality test's bound {_MR_LIMIT}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class TruncatedRing:
    """The ring Z/p^n with p prime and level n >= 0 (n = 0: zero ring)."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 0:
            raise ValueError(f"level must be >= 0, got {self.n}")

    @property
    def size(self) -> int:
        return self.p**self.n

    def reduce(self, x: int) -> int:
        return x % self.size

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.n}"


def _batch_of_one(A, ring: TruncatedRing) -> np.ndarray:
    """A as a (1, d, e) batch in its own dtype, once p^n is inside the batch kernel's bound."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a d x e matrix, got shape {A.shape}")
    if ring.size > bulk._MAX_MODULUS:
        raise ValueError(f"modulus {ring} too large for vectorised arithmetic")
    return A[None]


def smith_exponents(A, ring: TruncatedRing) -> list[int]:
    """Elementary divisor exponents of a d x e integer matrix over Z/p^n, ascending.

    p^n must be at most 2^31, the batch kernel's bound; larger moduli raise
    ValueError.
    """
    return bulk.batch_smith_exponents(_batch_of_one(A, ring), ring.p, ring.n)[0].tolist()


def kernel_size(A, ring: TruncatedRing) -> int:
    """|{x in (Z/p^n)^d : x A = 0}| for a d x e integer matrix acting on row vectors.

    p^n must be at most 2^31, the batch kernel's bound; larger moduli raise
    ValueError.
    """
    return ring.p ** int(bulk.batch_kernel_exponents(_batch_of_one(A, ring), ring.p, ring.n)[0])


def image_size(A, ring: TruncatedRing) -> int:
    """|row space of A| = p^(n d) / kernel_size (first isomorphism theorem).

    p^n must be at most 2^31, the batch kernel's bound; larger moduli raise
    ValueError.
    """
    kernel = kernel_size(A, ring)
    return ring.size ** len(A) // kernel
