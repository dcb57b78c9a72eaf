from fractions import Fraction
from math import comb

import pytest

from askzeta.zeta import QPolynomial, RationalFunction, closed_form


def lin(c):
    return QPolynomial((Fraction(1), -Fraction(c)))


def test_expand_geometric():
    f = RationalFunction(QPolynomial.one(), lin(2), 2)
    assert f.expand(2) == (1, 2, 4)
    g = RationalFunction(lin(1), lin(1), 3)
    assert g.expand(3) == (1, 0, 0, 0)
    h = closed_form("matdxe", 2, d=1, e=1)
    assert h.expand(1) == (1, Fraction(3, 2))


def test_expand_requires_unit_constant_term():
    with pytest.raises(ValueError):
        RationalFunction(QPolynomial.one(), QPolynomial((Fraction(0), Fraction(1))), 2)


def test_shift():
    f = closed_form("matdxe", 3, d=2, e=2)
    assert f.shift(0).expand(3) == f.expand(3)
    geo = RationalFunction(QPolynomial.one(), lin(1), 3)
    assert geo.shift(1).expand(2) == (1, 3, 9)
    # shifting composes additively on exponents
    assert f.shift(2).shift(-2) == f


def test_closed_form_kmin_degenerate():
    # injective generic case r = d collapses to the rectangular-matrix shape
    got = closed_form("kmin", 3, m=1, d=2, r=2, l=5)
    num = lin(Fraction(3) ** (0 - 5))
    den = lin(Fraction(3) ** (2 - 5)) * lin(1)
    assert got == RationalFunction(num, den, 3)


def test_closed_form_gamma_first_coeff():
    for q in (2, 3, 5):
        f = closed_form("gamma_m", q, d=2, m=1)
        assert f.expand(1)[1] == 3 * q - 2


def test_determinantal_reduces_to_matrix_form():
    for q in (2, 3, 5):
        det = closed_form("determinantal", q, l=1, d=1, m=1, num_points=0)
        assert det == closed_form("matdxe", q, d=1, e=1)


def test_gamma_shift_identities():
    for d in (1, 2, 3, 4):
        for q in (2, 3, 5, 7):
            cc = closed_form("cc_H_gamma", q, d=d)
            assert cc == closed_form("gamma_m", q, d=d, m=2).shift(d - comb(d, 2))
            assert cc.shift(-(comb(d + 1, 2) + d)) == closed_form("matdxe", q, d=d, e=d + 1)


def test_type_f_cc_coefficient():
    assert closed_form("type_F_cc", 3, d=2).expand(1)[1] == 11


def test_addition_and_equality_by_cross_multiplication():
    a = closed_form("matdxe", 2, d=2, e=1)
    b = closed_form("kmin", 2, m=1, d=3, r=2, l=2)
    total = a + b
    for k, c in enumerate(total.expand(3)):
        assert c == a.expand(3)[k] + b.expand(3)[k]
    with pytest.raises(ValueError):
        a + closed_form("kmin", 3, m=1, d=3, r=2, l=2)


def test_unknown_form_and_bad_params():
    # band, hankel and westwick are instances of kmin and matdxe, registered in the catalog
    for name in ("mystery", "band", "hankel", "westwick"):
        with pytest.raises(ValueError, match="unknown closed form"):
            closed_form(name, 2, r=2)
    with pytest.raises(ValueError):
        closed_form("matdxe", 2, d=0, e=1)
    with pytest.raises(ValueError):
        closed_form("kmin", 2, m=1, d=2, r=3, l=1)
    with pytest.raises(ValueError):
        closed_form("matdxe", 1, d=1, e=1)
