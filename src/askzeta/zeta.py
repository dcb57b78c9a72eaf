"""Exact rational functions in one variable T with a numeric base q.

The catalog of closed forms lives here: each named constructor produces the
rational function predicted for a family of representations, with q
substituted as an exact rational. Series expansion, the substitution
T -> q^k T (a shift s -> s - k on the Dirichlet side), addition and
cross-multiplication equality are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

__all__ = ["QPolynomial", "RationalFunction", "closed_form"]


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial in T with exact rational coefficients, trailing zeros stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((Fraction(1),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(size)))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(tuple(self.coeff(k) - other.coeff(k) for k in range(size)))

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero() or other.is_zero():
            return QPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(tuple(out))


def _one_minus(c: Fraction) -> QPolynomial:
    """1 - c T."""
    return QPolynomial((Fraction(1), -Fraction(c)))


@dataclass(frozen=True)
class RationalFunction:
    """num/den in T, expandable at T = 0 (den(0) != 0), with its base q."""

    num: QPolynomial
    den: QPolynomial
    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", Fraction(self.q))
        if self.den.coeff(0) == 0:
            raise ValueError("denominator must not vanish at T = 0")

    def expand(self, levels: int) -> tuple[Fraction, ...]:
        """Power-series coefficients [T^0 .. T^levels] by exact division."""
        d0 = self.den.coeff(0)
        out: list[Fraction] = []
        for k in range(levels + 1):
            acc = self.num.coeff(k)
            for i in range(1, k + 1):
                acc -= self.den.coeff(i) * out[k - i]
            out.append(acc / d0)
        return tuple(out)

    def shift(self, k: int) -> "RationalFunction":
        """Substitute T -> q^k T; on the Dirichlet side this is s -> s - k."""
        factor = self.q**k
        num = QPolynomial(tuple(c * factor**i for i, c in enumerate(self.num.coeffs)))
        den = QPolynomial(tuple(c * factor**i for i, c in enumerate(self.den.coeffs)))
        return RationalFunction(num, den, self.q)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.q != other.q:
            raise ValueError("cannot add rational functions with different q")
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den, self.q
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.q != other.q:
            raise ValueError("cannot multiply rational functions with different q")
        return RationalFunction(self.num * other.num, self.den * other.den, self.q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.q == other.q and (self.num * other.den) == (other.num * self.den)

    def to_json(self) -> dict:
        """Coefficient lists of num and den, every rational as a num/den string."""
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
            "q": str(self.q),
        }


def _require(params: dict, *names: str) -> list:
    missing = [x for x in names if params.get(x) is None]
    if missing:
        raise ValueError(f"missing parameters {missing}")
    return [params[x] for x in names]


def closed_form(name: str, q: Fraction | int, **params) -> RationalFunction:
    """The named closed-form zeta function at q, from the parameters its name requires."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    one = QPolynomial.one()

    if name == "kmin":
        m, d, r, l = _require(params, "m", "d", "r", "l")
        if not (1 <= r <= d):
            raise ValueError("need 1 <= r <= d")
        num = _one_minus(q ** ((d - r) * m - l))
        den = _one_minus(q ** (d * m - l)) * _one_minus(q ** ((d - r) * m))
        return RationalFunction(num, den, q)
    if name == "matdxe":
        d, e = _require(params, "d", "e")
        if min(d, e) < 1:
            raise ValueError("need d, e >= 1")
        num = _one_minus(q**-e)
        den = _one_minus(Fraction(1)) * _one_minus(q ** (d - e))
        return RationalFunction(num, den, q)
    if name == "ask2_matd":
        (d,) = _require(params, "d")
        if d < 1:
            raise ValueError("need d >= 1")
        cross = (1 - q**-d) * (1 - q ** (1 - d))
        num = _one_minus(q**-d) * _one_minus(q ** (1 - d)) + QPolynomial((Fraction(0), cross))
        den = _one_minus(Fraction(1)) * _one_minus(Fraction(1)) * _one_minus(q)
        return RationalFunction(num, den, q)
    if name == "gamma_m":
        d, m = _require(params, "d", "m")
        if d < 1 or m < 1:
            raise ValueError("need d >= 1 and m >= 1")
        num = one
        den = _one_minus(q ** (m * comb(d + 1, 2) - d))
        base = m * comb(d, 2)
        for j in range(d):
            num = num * _one_minus(q ** (base + (m - 1) * j - 1))
            den = den * _one_minus(q ** (base + (m - 1) * j))
        return RationalFunction(num, den, q)
    if name == "cc_H_gamma":
        (d,) = _require(params, "d")
        if d < 1:
            raise ValueError("need d >= 1")
        top = comb(d + 1, 2)
        num = _one_minus(q ** (top - 1))
        den = _one_minus(q ** (top + d)) * _one_minus(q ** (top + d - 1))
        return RationalFunction(num, den, q)
    if name == "type_F_cc":
        (d,) = _require(params, "d")
        if d < 2:
            raise ValueError("need d >= 2")
        num = _one_minus(q ** comb(d - 1, 2))
        den = _one_minus(q ** comb(d, 2)) * _one_minus(q ** (comb(d, 2) + 1))
        return RationalFunction(num, den, q)
    if name == "determinantal":
        l, d, m, num_points = _require(params, "l", "d", "m", "num_points")
        if min(l, d, m) < 1 or num_points < 0:
            raise ValueError("need l, d, m >= 1 and num_points >= 0")
        main = RationalFunction(
            _one_minus(q**-l),
            _one_minus(Fraction(1)) * _one_minus(q ** (d * m - l)),
            q,
        )
        extra_coeff = num_points * (q - 1) * q ** (m - l) * (1 - q**-m)
        extra = RationalFunction(
            QPolynomial((Fraction(0), extra_coeff)),
            _one_minus(Fraction(1)) * _one_minus(q ** (m - 1)) * _one_minus(q ** (d * m - l)),
            q,
        )
        return main + extra
    raise ValueError(f"unknown closed form {name!r}")

