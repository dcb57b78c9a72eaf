"""Pure-python brute-force oracles, independent of the library's engines."""

from fractions import Fraction
from itertools import product


def brute_kernel_count(entries, ring):
    """|{x : x A = 0}| by literal row-vector enumeration."""
    d = len(entries)
    e = len(entries[0]) if d else 0
    pn = ring.size
    count = 0
    for x in product(range(pn), repeat=d):
        if all(sum(x[i] * entries[i][j] for i in range(d)) % pn == 0 for j in range(e)):
            count += 1
    return count


def brute_ask(rep, ring, m=1):
    """Average m-th power of the kernel size by full double enumeration."""
    pn = ring.size
    total = 0
    for a in product(range(pn), repeat=rep.l):
        mat = rep.evaluate_at(a, ring)
        total += brute_kernel_count(mat.entries, ring) ** m
    return Fraction(total, pn**rep.l)


def brute_census(rep, ring):
    """{k: #a with |kernel A(a)| = p^k} by literal enumeration."""
    census = {}
    for a in product(range(ring.size), repeat=rep.l):
        count = brute_kernel_count(rep.evaluate_at(a, ring).entries, ring)
        k = 0
        while count > 1:
            count //= ring.p
            k += 1
        census[k] = census.get(k, 0) + 1
    return census


def rational_matrix_rank(rows):
    """Rank over Q of an integer matrix, by exact Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(nrows):
            if i != rank and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
