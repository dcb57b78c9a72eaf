"""Multivariate integer polynomials and fraction-free linear algebra.

Supports the generic-rank and determinant computations for matrices of
linear forms: a tensor c[h][i][j] determines the d x e matrix with entries
sum_h z_h c[h][i][j] over Z[z_1, ..., z_l]. Ranks are computed over the
rational function field by fraction-free (Bareiss) elimination, so every
intermediate value is an exact integer polynomial.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .mrep import MRep
    from .ring import TruncatedRing

__all__ = [
    "MultiPoly",
    "det_linear_matrix",
    "generic_rank",
    "count_hypersurface_points",
]


class MultiPoly:
    """Polynomial in nvars variables, stored as exponent-vector -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length != {nvars}")
            if coeff:
                clean[tuple(int(x) for x in exps)] = int(coeff)
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if h == index else 0 for h in range(nvars))
        return cls(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def evaluate(self, point: Sequence[int], ring: "TruncatedRing | None" = None) -> int:
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term *= int(x) ** e
            total += term
        return ring.reduce(total) if ring is not None else total

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                lowered = tuple(x - 1 if h == index else x for h, x in enumerate(exps))
                out[lowered] = out.get(lowered, 0) + coeff * e
        return MultiPoly(self.nvars, out)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises if the quotient is not polynomial.
        divisor * term leaves the remainder, one dict, in place."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient: dict[tuple[int, ...], int] = {}
        rem = dict(self.terms)
        dexp = max(divisor.terms)  # lex order on exponent tuples
        while rem:
            rexp = max(rem)
            exps = tuple(a - b for a, b in zip(rexp, dexp))
            if any(x < 0 for x in exps) or rem[rexp] % divisor.terms[dexp]:
                raise ArithmeticError("division is not exact")
            c = quotient[exps] = rem[rexp] // divisor.terms[dexp]
            for e, dc in divisor.terms.items():
                e = tuple(a + b for a, b in zip(e, exps))
                rem[e] = rem.get(e, 0) - c * dc
                if not rem[e]:
                    del rem[e]
        return MultiPoly(self.nvars, quotient)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"z{h + 1}" + (f"^{e}" if e > 1 else "")
                for h, e in enumerate(exps)
                if e
            )
            if mono:
                bits.append(f"{c}*{mono}" if c not in (1, -1) else ("-" + mono if c == -1 else mono))
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


def _linear_matrix(rep: "MRep") -> list[list[MultiPoly]]:
    monomials = [tuple(1 if t == h else 0 for t in range(rep.l)) for h in range(rep.l)]
    return [
        [MultiPoly(rep.l, {monomials[h]: c for h, c in enumerate(forms) if c}) for forms in row]
        for row in rep.array.transpose(1, 2, 0).tolist()
    ]


def _bareiss(rep: "MRep") -> tuple[int, int, MultiPoly]:
    """Fraction-free (Bareiss) elimination of the matrix of linear forms.

    The pivot is the first nonzero polynomial entry of the remaining
    submatrix in row-major order, swapped to the corner. Returns the rank r,
    the sign of the row and column swaps, and the last pivot (1 when r = 0):
    the r x r leading minor of the swapped matrix.
    """
    M = _linear_matrix(rep)
    d, e = rep.d, rep.e
    rank, sign = 0, 1
    prev = MultiPoly.constant(1, rep.l)
    while True:
        pivot = None
        for i in range(rank, d):
            for j in range(rank, e):
                if not M[i][j].is_zero():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return rank, sign, prev
        pi, pj = pivot
        if pi != rank:
            M[rank], M[pi] = M[pi], M[rank]
            sign = -sign
        if pj != rank:
            for row in M:
                row[rank], row[pj] = row[pj], row[rank]
            sign = -sign
        for i in range(rank + 1, d):
            for j in range(rank + 1, e):
                num = M[rank][rank] * M[i][j] - M[i][rank] * M[rank][j]
                M[i][j] = num.exact_div(prev)
            M[i][rank] = MultiPoly.zero(rep.l)
        prev = M[rank][rank]
        rank += 1


def det_linear_matrix(rep: "MRep") -> MultiPoly:
    """Determinant of the matrix of linear forms attached to a square tensor:
    the signed last Bareiss pivot at full rank, else 0."""
    if rep.d != rep.e:
        raise ValueError(f"matrix of linear forms is {rep.d} x {rep.e}, not square")
    rank, sign, pivot = _bareiss(rep)
    return pivot * sign if rank == rep.d else MultiPoly.zero(rep.l)


def generic_rank(rep: "MRep") -> int:
    """Rank of the matrix of linear forms over the rational function field."""
    return _bareiss(rep)[0]


def count_hypersurface_points(
    F: MultiPoly, ring: "TruncatedRing"
) -> tuple[int, bool]:
    """Projective point count of a homogeneous hypersurface over F_p, plus smoothness.

    Returns (#H, smooth) where #H = |{x != 0 : F(x) = 0}| / (p - 1) and smooth
    means no nonzero point annihilates F together with all its partials.
    """
    if ring.n != 1:
        raise ValueError("point counting is only supported over the residue field (n = 1)")
    if not F.is_homogeneous():
        raise ValueError("F must be homogeneous")
    p = ring.p
    partials = [F.partial(h) for h in range(F.nvars)]
    zeros = 0
    smooth = True
    for point in itertools.product(range(p), repeat=F.nvars):
        if any(point) and F.evaluate(point, ring) == 0:
            zeros += 1
            if smooth and all(g.evaluate(point, ring) == 0 for g in partials):
                smooth = False
    assert zeros % (p - 1) == 0
    return zeros // (p - 1), smooth
