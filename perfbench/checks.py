"""Answers computed apart from askzeta, and the laws its answers must obey.

Nothing here imports askzeta. Formulas are exact (int and Fraction); the
brute-force counts are literal pure-Python enumerations, so they serve only
small rings. Each ``check_*`` function returns a list of failure strings,
empty when the answer is right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------- formulas


def min_valuation_count(p: int, n: int, k: int, v: int) -> int:
    """#{x in (Z/p^n)^k : min over coordinates of v(x_i) = v}, v = n meaning x = 0."""
    if v == n:
        return 1
    return p ** (k * (n - v)) - p ** (k * (n - v - 1))


def valuation_census(p: int, n: int) -> dict[int, int]:
    """#{a in Z/p^n : v(a) = v}: p^(n-v-1)(p-1) for v < n, and 1 for a = 0."""
    return {v: min_valuation_count(p, n, 1, v) for v in range(n + 1)}


def scalar_coeff(p: int, n: int) -> Fraction:
    """c_n = ask over Z/p^n of the 1 x 1 family a -> (a): 1 + n(p-1)/p."""
    return 1 + Fraction(n * (p - 1), p)


def matdxe_ask(p: int, n: int, d: int, e: int) -> Fraction:
    """ask of all d x e matrices over Z/p^n, by counting pairs (A, x) with xA = 0.

    For fixed x of minimal valuation v, the map A -> xA has image (p^v)^e,
    so #{A : xA = 0} = |M| / p^((n-v)e) and ask = sum_x p^(-(n-v(x))e).
    """
    return sum(
        (Fraction(min_valuation_count(p, n, d, v), p ** ((n - v) * e)) for v in range(n + 1)),
        Fraction(0),
    )


def kmin_census(p: int, n: int, l: int, d: int, r: int) -> dict[int, int]:
    """Census of a family of constant rank r over F_p (kernel-minimal).

    a = p^v a' with a' primitive gives A(a) = p^v A(a'), and A(a') has r unit
    elementary divisors, so |ker A(a)| = p^(v r + n (d - r)).
    """
    out: dict[int, int] = {}
    for v in range(n + 1):
        k = v * r + n * (d - r)
        out[k] = out.get(k, 0) + min_valuation_count(p, n, l, v)
    return out


def heisenberg_classes(p: int) -> int:
    """Conjugacy classes of the Heisenberg group of order p^3: p^2 + p - 1."""
    return p * p + p - 1


# ------------------------------------------------------- literal counting


def _matrix(coeffs, a, q):
    d = len(coeffs[0]) if coeffs else 0
    e = len(coeffs[0][0]) if coeffs and d else 0
    return [
        [sum(a[h] * coeffs[h][i][j] for h in range(len(coeffs))) % q for j in range(e)]
        for i in range(d)
    ]


def brute_census(coeffs, p: int, n: int) -> dict[int, int]:
    """{k: #a with |ker A(a)| = p^k}, counting kernel vectors x one by one."""
    q = p**n
    l = len(coeffs)
    d = len(coeffs[0])
    e = len(coeffs[0][0])
    xs = list(product(range(q), repeat=d))
    sizes: dict[int, int] = {}
    for a in product(range(q), repeat=l):
        A = _matrix(coeffs, a, q)
        cols = [[A[i][j] for i in range(d)] for j in range(e)]
        kernel = sum(
            1 for x in xs if all(sum(xi * ci for xi, ci in zip(x, col)) % q == 0 for col in cols)
        )
        sizes[kernel] = sizes.get(kernel, 0) + 1
    return {_log(size, p): count for size, count in sizes.items()}


def field_census(coeffs, p: int) -> dict[int, int]:
    """Census over F_p: kernel exponent d - rank, rank by Gaussian elimination."""
    l = len(coeffs)
    d = len(coeffs[0])
    out: dict[int, int] = {}
    for a in product(range(p), repeat=l):
        k = d - _rank_mod_p(_matrix(coeffs, a, p), p)
        out[k] = out.get(k, 0) + 1
    return out


def _rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _log(size: int, p: int) -> int:
    k = 0
    while size > 1:
        if size % p:
            raise ValueError(f"{size} is not a power of {p}")
        size //= p
        k += 1
    return k


# ---------------------------------------------------------------- laws


def census_moment(census: dict[int, int], p: int, n: int, l: int, m: int) -> Fraction:
    """ask^m = sum_k census[k] p^(k m) / p^(n l)."""
    return Fraction(sum(c * p ** (k * m) for k, c in census.items()), p ** (n * l))


def convolve(first: dict[int, int], second: dict[int, int]) -> dict[int, int]:
    """Census of a direct sum: kernels multiply, parameter spaces are independent."""
    out: dict[int, int] = {}
    for k1, c1 in first.items():
        for k2, c2 in second.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def check_equal(label: str, expected, computed) -> list[str]:
    if expected == computed:
        return []
    return [f"{label}: expected {expected}, got {computed}"]


def check_census_total(label: str, census: dict[int, int], p: int, n: int, l: int) -> list[str]:
    """Every parameter vector lands in exactly one bin."""
    return check_equal(f"{label} census total", p ** (n * l), sum(census.values()))


def check_class_numbers(
    label: str, p: int, centralizer: int, orbit: int, predicted: Fraction
) -> list[str]:
    """Both counting methods, the Heisenberg count, and k = |W| ask (or ask(ad))."""
    want = heisenberg_classes(p)
    return (
        check_equal(f"{label} centralizer method", want, centralizer)
        + check_equal(f"{label} orbit method", want, orbit)
        + check_equal(f"{label} k = predicted kernel average", Fraction(centralizer), predicted)
    )


# ------------------------------------------------------- CLI text output


def parse_zeta_text(text: str) -> dict[int, Fraction]:
    """{n: c_n} from the lines '  c_n = value  (closed form ...: match)'."""
    out: dict[int, Fraction] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("c_"):
            head, _, rest = line.partition(" = ")
            value = rest.split()[0]
            out[int(head[2:])] = Fraction(value)
            if "MISMATCH" in line:
                raise ValueError(f"the program flagged a mismatch: {line}")
    return out


def parse_ask_text(text: str) -> tuple[Fraction, dict[int, int]]:
    """(ask value, census) from 'ask^1 over Z/p^n = v [strategy]' and the census lines."""
    value = None
    census: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("ask^"):
            value = Fraction(line.split(" = ")[1].split()[0])
        elif line.startswith("kernel size "):
            head, _, rest = line.partition(": ")
            census[int(head.rsplit("^", 1)[1])] = int(rest.split()[0])
    if value is None:
        raise ValueError("no ask line in the output")
    return value, census


def check_zeta_series(label: str, coeffs: dict[int, Fraction], levels: int, expected) -> list[str]:
    """The coefficients c_0..c_levels are all printed, and c_n equals expected(n)."""
    fails = check_equal(f"{label} levels", list(range(levels + 1)), sorted(coeffs))
    for level, value in sorted(coeffs.items()):
        fails += check_equal(f"{label} c_{level}", expected(level), value)
    return fails


def check_scalar_ask(label: str, p: int, n: int, value: Fraction, census: dict[int, int]) -> list[str]:
    """ask --census of a unit multiple of the scalar family over Z/p^n."""
    return check_equal(f"{label} value", scalar_coeff(p, n), value) + check_equal(
        f"{label} census by valuation", valuation_census(p, n), census
    )
