"""Each independent check accepts the right answer and rejects a perturbed one.

Run with:  python3 -m pytest -q perfbench/test_checks.py
"""

from fractions import Fraction

import checks as C

SCALAR = (((1,),),)  # the 1 x 1 family a -> (a)
MAT22 = tuple(
    tuple(tuple(int((i, j) == divmod(h, 2)) for j in range(2)) for i in range(2)) for h in range(4)
)
BAND2 = (((1, 0), (0, 1), (0, 0)), ((0, 0), (1, 0), (0, 1)))  # (2r-1) x r band, r = 2
HEIS_ZETA = "  c_0 = 1  (closed form 1: match)\n  c_1 = 3/2  (closed form 3/2: match)\n"


def bump(census):
    """Move one parameter vector from the smallest kernel to the next bin."""
    out = dict(census)
    k = min(out)
    out[k] -= 1
    out[k + 1] = out.get(k + 1, 0) + 1
    return out


def test_scalar_coefficients_and_valuation_census():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        census = C.brute_census(SCALAR, p, n)
        assert census == C.valuation_census(p, n)
        assert C.census_moment(census, p, n, 1, 1) == C.scalar_coeff(p, n)
        assert C.check_scalar_ask("s", p, n, C.scalar_coeff(p, n), census) == []
        assert C.check_scalar_ask("s", p, n, C.scalar_coeff(p, n) + 1, census)
        assert C.check_scalar_ask("s", p, n, C.scalar_coeff(p, n), bump(census))


def test_matrix_formula_matches_literal_count():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        census = C.brute_census(MAT22, p, n)
        assert C.census_moment(census, p, n, 4, 1) == C.matdxe_ask(p, n, 2, 2)
        assert C.census_moment(bump(census), p, n, 4, 1) != C.matdxe_ask(p, n, 2, 2)
    assert C.matdxe_ask(11, 1, 1, 2) == Fraction(131, 121)


def test_kernel_minimal_census():
    census = C.brute_census(BAND2, 3, 2)
    assert census == C.kmin_census(3, 2, 2, 3, 2)
    assert bump(census) != C.kmin_census(3, 2, 2, 3, 2)


def test_field_census_matches_literal_count():
    for p in (2, 3, 5):
        assert C.field_census(BAND2, p) == C.brute_census(BAND2, p, 1)
        assert C.field_census(MAT22, p) == C.brute_census(MAT22, p, 1)


def test_census_total_rejects_a_lost_vector():
    census = C.brute_census(MAT22, 2, 1)
    assert C.check_census_total("m", census, 2, 1, 4) == []
    lost = dict(census)
    lost[min(lost)] -= 1
    assert C.check_census_total("m", lost, 2, 1, 4)


def test_product_law():
    a = C.brute_census(SCALAR, 3, 1)
    b = C.brute_census(BAND2, 3, 1)
    direct_sum = (
        ((1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    assert C.brute_census(direct_sum, 3, 1) == C.convolve(a, b)
    assert bump(C.brute_census(direct_sum, 3, 1)) != C.convolve(a, b)


def test_class_number_checks():
    for p in (3, 5):
        k = C.heisenberg_classes(p)
        assert C.check_class_numbers("g", p, k, k, Fraction(k)) == []
        assert C.check_class_numbers("g", p, k + 1, k, Fraction(k))
        assert C.check_class_numbers("g", p, k, k - 1, Fraction(k))
        assert C.check_class_numbers("g", p, k, k, Fraction(k, p))
    assert C.heisenberg_classes(3) == 11


def test_zeta_text_checks():
    coeffs = C.parse_zeta_text(HEIS_ZETA)
    assert C.check_zeta_series("z", coeffs, 1, lambda n: C.scalar_coeff(2, n)) == []
    assert C.check_zeta_series("z", coeffs, 1, lambda n: C.scalar_coeff(3, n))
    assert C.check_zeta_series("z", {0: Fraction(1)}, 1, lambda n: C.scalar_coeff(2, n))
    assert C.check_zeta_series("z", {1: Fraction(3, 2)}, 1, lambda n: C.scalar_coeff(2, n))
    try:
        C.parse_zeta_text(HEIS_ZETA.replace("match)", "MISMATCH)"))
    except ValueError:
        pass
    else:
        raise AssertionError("a flagged mismatch must not parse")


def test_ask_text_parse():
    text = (
        "ask^1 over Z/3^2 = 7/3 [direct]\n"
        "  kernel size 3^0: 6 parameter vectors\n"
        "  kernel size 3^1: 2 parameter vectors\n"
        "  kernel size 3^2: 1 parameter vectors\n"
    )
    value, census = C.parse_ask_text(text)
    assert C.check_scalar_ask("a", 3, 2, value, census) == []
    value, census = C.parse_ask_text(text.replace("6 parameter", "5 parameter"))
    assert C.check_scalar_ask("a", 3, 2, value, census)


def test_seeded_change_of_basis_keeps_the_census():
    import random

    from workloads import transform, unimodular

    rng = random.Random(8020)
    for k in (1, 2, 3, 5):
        B, Binv = unimodular(rng, k)
        product = [[sum(B[i][t] * Binv[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        assert product == [[int(i == j) for j in range(k)] for i in range(k)]
    M, P, Q = unimodular(rng, 2)[0], unimodular(rng, 3)[0], unimodular(rng, 2)[0]
    moved = transform(BAND2, M, P, Q, scale=2)
    assert C.brute_census(moved, 3, 2) == C.brute_census(BAND2, 3, 2)
    assert C.brute_census(moved, 2, 1) != C.brute_census(BAND2, 2, 1)  # 2 is no unit mod 2
