import random

import numpy as np
import pytest

from askzeta import ring
from askzeta.bulk import batch_kernel_exponents, batch_smith_exponents
from askzeta.ring import (
    TruncatedRing,
    image_size,
    is_prime,
    kernel_size,
    smith_exponents,
)

from helpers import brute_kernel_count
from helpers import smith_exponents as oracle_smith_exponents

Z9 = TruncatedRing(3, 2)
Z4 = TruncatedRing(2, 2)


def test_ring_validation():
    with pytest.raises(ValueError):
        TruncatedRing(4, 1)
    with pytest.raises(ValueError):
        TruncatedRing(3, -1)
    assert TruncatedRing(2, 0).size == 1
    assert Z9.size == 9


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_miller_rabin_agrees_with_trial_division_below_10_5():
    # is_prime divides below 2^32, so the test above that bound is checked here on its own
    assert [n for n in range(2, 10**5) if ring._miller_rabin(n)] == [n for n in range(2, 10**5) if is_prime(n)]


@pytest.mark.parametrize(
    "n,prime",
    [
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
        (3825123056546413051, False),  # strong pseudoprime to every prime base up to 23
        ((2**31 - 1) * 4294967311, False),
        (4294967311, True),  # the least prime above 2^32
        (100000000000000003, True),
        (2**61 - 1, True),
        (2**64 - 59, True),
    ],
)
def test_is_prime_above_trial_division(n, prime):
    assert is_prime(n) == ring._miller_rabin(n) == prime


def test_is_prime_refuses_p_beyond_its_bases():
    with pytest.raises(ValueError, match="primality test's bound"):
        is_prime(ring._MR_LIMIT)
    with pytest.raises(ValueError, match="primality test's bound"):
        TruncatedRing(2**89 - 1, 1)


def test_reduce_mod():
    # the wrappers reduce integer entries mod p^n: -1 is 8 and 9 is 0 over Z/9
    assert Z9.reduce(-1) == 8
    assert smith_exponents([[-1]], Z9) == smith_exponents([[8]], Z9) == [0]
    assert smith_exponents([[9, 12]], Z9) == smith_exponents([[0, 3]], Z9) == [1]
    assert kernel_size([[-3]], Z9) == kernel_size([[6]], Z9) == 3
    zero_ring = TruncatedRing(3, 0)
    assert kernel_size([[7, -2], [3, 5]], zero_ring) == 1


def test_smith_exponents_committed():
    assert smith_exponents([[0, 0], [0, 0]], Z9) == [2, 2]
    assert smith_exponents([[1, 0], [0, 1]], Z9) == [0, 0]
    assert smith_exponents([[3, 0], [0, 1]], Z9) == [0, 1]
    assert smith_exponents(np.zeros((0, 0), dtype=np.int64), TruncatedRing(2, 1)) == []


def test_kernel_size_committed():
    assert kernel_size([[0, 0], [0, 0]], Z9) == 81
    assert kernel_size([[1, 0, 0], [0, 1, 0], [0, 0, 1]], Z4) == 1
    diag31 = [[3, 0], [0, 1]]
    assert kernel_size(diag31, Z9) == brute_kernel_count(diag31, Z9) == 3
    # d x 0: every row vector is in the kernel; 0 x e: only the empty one
    assert kernel_size(np.zeros((3, 0), dtype=np.int64), Z9) == 729
    assert kernel_size(np.zeros((0, 3), dtype=np.int64), Z9) == 1
    assert kernel_size([[], [], []], Z9) == 729  # float64 as numpy reads it, but empty


def test_image_size_committed():
    assert image_size([[0]], Z9) == 1
    assert image_size([[1, 0], [0, 1]], Z9) == 81
    assert image_size([[3, 0], [0, 1]], Z9) == 27
    assert image_size(np.zeros((3, 0), dtype=np.int64), Z9) == 1
    assert image_size(np.zeros((0, 3), dtype=np.int64), Z9) == 1


def test_wrappers_refuse_moduli_past_the_kernel_bound():
    # p^n <= 2^31; past it every wrapper raises rather than answer or overflow
    Z2_32 = TruncatedRing(2, 32)
    for A in ([[2**31 + 1, 3], [5, 2**32 - 1]], np.zeros((3, 0), dtype=np.int64)):
        for fn in (smith_exponents, kernel_size, image_size):
            with pytest.raises(ValueError, match="too large"):
                fn(A, Z2_32)
    # 2^31 itself is inside (a 1 x 0 matrix, which needs no valuation table)
    assert kernel_size(np.zeros((1, 0), dtype=np.int64), TruncatedRing(2, 31)) == 2**31


def test_wrappers_take_integers_past_int64_exactly():
    Z8 = TruncatedRing(2, 3)
    assert kernel_size([[2**70]], Z8) == 8  # 2^70 = 0 mod 8
    assert smith_exponents([[2**70]], Z8) == [3]
    assert image_size([[2**70]], Z8) == 1
    rng = random.Random(70)
    for ring in (Z4, Z9, Z8, TruncatedRing(5, 2)):
        for d, e in ((1, 1), (2, 2), (2, 3), (3, 2)):
            A = [[rng.randrange(-(2**80), 2**80) for _ in range(e)] for _ in range(d)]
            reduced = [[x % ring.size for x in row] for row in A]
            assert smith_exponents(A, ring) == oracle_smith_exponents(A, ring.p, ring.n)
            assert kernel_size(A, ring) == brute_kernel_count(reduced, ring)
            assert image_size(A, ring) * kernel_size(A, ring) == ring.size**d


def test_wrappers_refuse_non_integer_entries():
    # a float matrix was truncated: [[2.9]] over Z/8 gave exponent 1
    for A in ([[2.9]], [[2.0, 4.0]], np.array([[1.5]], dtype=np.float32), [[2**70, 2.9]]):
        for fn in (smith_exponents, kernel_size, image_size):
            with pytest.raises(ValueError, match="integers"):
                fn(A, TruncatedRing(2, 3))


def _random_matrix(rng, d, e, ring):
    return np.array(
        [[rng.randrange(ring.size) for _ in range(e)] for _ in range(d)], dtype=np.int64
    ).reshape(d, e)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1)])
def test_kernel_image_product_and_brute_force(p, n):
    # kernel * image = p^(nd); SNF kernel equals literal counting while nd <= 12
    ring = TruncatedRing(p, n)
    rng = random.Random(1000 * p + n)
    for _ in range(25):
        d = rng.randint(0, 4)
        e = rng.randint(0, 4)
        A = _random_matrix(rng, d, e, ring)
        ks = kernel_size(A, ring)
        assert ks * image_size(A, ring) == ring.size**d
        if n * d <= 12:
            assert ks == brute_kernel_count(A.tolist(), ring)


def _random_invertible(rng, d, ring):
    while True:
        A = _random_matrix(rng, d, d, ring)
        exps = smith_exponents(A, ring)
        if not exps or max(exps) == 0:
            return A


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1)])
def test_smith_invariance_under_units_and_transpose(p, n):
    ring = TruncatedRing(p, n)
    rng = random.Random(17 * p + n)
    for _ in range(15):
        d, e = rng.randint(1, 4), rng.randint(1, 4)
        A = _random_matrix(rng, d, e, ring)
        P = _random_invertible(rng, d, ring)
        Q = _random_invertible(rng, e, ring)
        assert smith_exponents(P @ A @ Q % ring.size, ring) == smith_exponents(A, ring)
        assert smith_exponents(A.T, ring) == smith_exponents(A, ring)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (5, 1), (3, 3)])
def test_batch_matches_scalar_smith(p, n):
    ring = TruncatedRing(p, n)
    rng = random.Random(7 * p + n)
    for d, e in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 2)):
        mats = np.array(
            [
                [[rng.randrange(ring.size) for _ in range(e)] for _ in range(d)]
                for _ in range(40)
            ],
            dtype=np.int64,
        )
        batch = batch_smith_exponents(mats, p, n)
        kexp = batch_kernel_exponents(mats, p, n)
        for t in range(40):
            exps = oracle_smith_exponents(mats[t].tolist(), p, n)
            assert list(batch[t]) == exps
            assert int(kexp[t]) == sum(exps) + n * (d - min(d, e))


def test_zero_level_ring_uniformity():
    ring = TruncatedRing(5, 0)
    A = [[2, 3], [4, 1]]
    assert smith_exponents(A, ring) == [0, 0]
    assert kernel_size(A, ring) == image_size(A, ring) == 1
