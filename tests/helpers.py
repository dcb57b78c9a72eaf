"""Brute-force oracles, independent of the library's engines.

All pure Python except class_number_by_classes, which conjugates with numpy
through a group's own product formula, one class at a time.
"""

from fractions import Fraction
from itertools import product

import numpy as np


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
        total += brute_kernel_count(mat.tolist(), ring) ** m
    return Fraction(total, pn**rep.l)


def brute_census(rep, ring):
    """{k: #a with |kernel A(a)| = p^k} by literal enumeration."""
    census = {}
    for a in product(range(ring.size), repeat=rep.l):
        count = brute_kernel_count(rep.evaluate_at(a, ring).tolist(), ring)
        k = 0
        while count > 1:
            count //= ring.p
            k += 1
        census[k] = census.get(k, 0) + 1
    return census


def valuation(x, p, n):
    """p-adic valuation of x mod p^n, capped at n (n for 0)."""
    x %= p**n
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def smith_exponents(entries, p, n):
    """Elementary divisor exponents of a d x e integer matrix over Z/p^n, ascending.

    Scalar elimination: each step pivots on the entry of minimal valuation
    left (the first in row-major order), which over a chain ring divides
    every entry left, then clears the pivot's row and column with its
    unit's inverse.
    """
    pn = p**n
    M = [[int(x) % pn for x in row] for row in entries]
    d = len(M)
    e = len(M[0]) if d else 0
    m = min(d, e)
    if n == 0:
        return [0] * m
    exps = []
    for k in range(m):
        best_v, bi, bj = n, -1, -1
        for i in range(k, d):
            for j in range(k, e):
                v = valuation(M[i][j], p, n)
                if v < best_v:
                    best_v, bi, bj = v, i, j
            if best_v == 0:
                break
        if best_v >= n:
            return exps + [n] * (m - k)
        exps.append(best_v)
        M[k], M[bi] = M[bi], M[k]
        for row in M:
            row[k], row[bj] = row[bj], row[k]
        pv = p**best_v
        inv_u = pow(M[k][k] // pv, -1, pn)
        for i in range(k + 1, d):
            f = (M[i][k] // pv) * inv_u % pn
            M[i] = [(M[i][j] - f * M[k][j]) % pn for j in range(e)]
        for j in range(k + 1, e):
            g = (M[k][j] // pv) * inv_u % pn
            for i in range(k, d):
                M[i][j] = (M[i][j] - g * M[i][k]) % pn
    return exps


def class_number_by_classes(spec):
    """k(G) by explicit conjugation, one class at a time.

    Each element not yet seen opens a class, and conjugating it by every
    element of G marks that class seen: one pass over all of G per class,
    through the group's product formula only.
    """
    E = spec.elements()
    N = len(E)
    inv = spec.inverse(E)
    seen = np.zeros(N, dtype=bool)
    classes = 0
    for i in range(N):
        if seen[i]:
            continue
        classes += 1
        G = np.broadcast_to(E[i], E.shape)
        conj = spec.multiply(spec.multiply(inv, G), E)
        seen[spec.encode(conj)] = True
    return classes


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


# Literal index definitions of the tensor operations. Each takes MReps only
# through .shape and .coeffs and returns (shape, nested tuples).


def literal_dual(rep, which):
    """circ swaps the parameter and domain slots, bullet the parameter and
    codomain slots, vee the domain and codomain slots."""
    l, d, e = rep.shape
    c = rep.coeffs
    if which == "circ":
        return (d, l, e), tuple(
            tuple(tuple(c[h][i][j] for j in range(e)) for h in range(l)) for i in range(d)
        )
    if which == "bullet":
        return (e, d, l), tuple(
            tuple(tuple(c[h][i][j] for h in range(l)) for i in range(d)) for j in range(e)
        )
    return (l, e, d), tuple(
        tuple(tuple(c[h][i][j] for i in range(d)) for j in range(e)) for h in range(l)
    )


def literal_direct_sum(a, b):
    """Parameters, rows and columns of b follow those of a; the off-diagonal blocks are zero."""
    l, d, e = a.l + b.l, a.d + b.d, a.e + b.e
    coeffs = []
    for h in range(l):
        mat = [[0] * e for _ in range(d)]
        if h < a.l:
            for i in range(a.d):
                for j in range(a.e):
                    mat[i][j] = a.coeffs[h][i][j]
        else:
            for i in range(b.d):
                for j in range(b.e):
                    mat[a.d + i][a.e + j] = b.coeffs[h - a.l][i][j]
        coeffs.append(tuple(map(tuple, mat)))
    return (l, d, e), tuple(coeffs)


def literal_collapse(rep, mode, k):
    """Sum the slices of the shared side, k apart."""
    l, d, e = rep.shape
    c = rep.coeffs
    if mode == "mod":
        offs = range(0, l, k) if k else []
        return (k, d, e), tuple(
            tuple(tuple(sum(c[o + h][i][j] for o in offs) for j in range(e)) for i in range(d))
            for h in range(k)
        )
    if mode == "dom":
        offs = range(0, d, k) if k else []
        return (l, k, e), tuple(
            tuple(tuple(sum(c[h][o + i][j] for o in offs) for j in range(e)) for i in range(k))
            for h in range(l)
        )
    offs = range(0, e, k) if k else []
    return (l, d, k), tuple(
        tuple(tuple(sum(c[h][i][o + j] for o in offs) for j in range(k)) for i in range(d))
        for h in range(l)
    )


def literal_hull(rep):
    """coeffs[d + h][i][j] = c[h][i][j] and coeffs[i][d + h][j] = -c[h][i][j]."""
    l, d, e = rep.shape
    r = d + l
    coeffs = [[[0] * e for _ in range(r)] for _ in range(r)]
    for h in range(l):
        for i in range(d):
            for j in range(e):
                coeffs[d + h][i][j] = rep.coeffs[h][i][j]
                coeffs[i][d + h][j] = -rep.coeffs[h][i][j]
    return (r, r, e), tuple(tuple(map(tuple, mat)) for mat in coeffs)


def literal_is_alternating(rep):
    l, d, e = rep.shape
    c = rep.coeffs
    return l == d and all(
        c[h][i][j] + c[i][h][j] == 0 for h in range(l) for i in range(l) for j in range(e)
    )


def literal_scalar_multiply(rep, s):
    return rep.shape, tuple(tuple(tuple(s * x for x in row) for row in mat) for mat in rep.coeffs)


def literal_evaluate(rep, a, ring):
    """Entries of A(a) = sum_h a_h c[h], reduced mod p^n."""
    l, d, e = rep.shape
    return tuple(
        tuple(sum(a[h] * rep.coeffs[h][i][j] for h in range(l)) % ring.size for j in range(e))
        for i in range(d)
    )


def literal_reduced(rep, ring):
    return tuple(tuple(tuple(x % ring.size for x in row) for row in mat) for mat in rep.coeffs)


def literal_homotopy(triple, source, target, ring):
    """sum_j c[h][i][j] psi[j][j'] = sum_{h', i'} nu[h][h'] phi[i][i'] c~[h'][i'][j'] mod p^n."""
    c, t = source.coeffs, target.coeffs
    for h in range(source.l):
        for i in range(source.d):
            for jp in range(target.e):
                lhs = sum(c[h][i][j] * triple.psi[j][jp] for j in range(source.e))
                rhs = sum(
                    triple.nu[h][hp] * triple.phi[i][ip] * t[hp][ip][jp]
                    for hp in range(target.l)
                    for ip in range(target.d)
                )
                if (lhs - rhs) % ring.size:
                    return False
    return True
