import json
import random
import time
from itertools import combinations, product
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from askzeta.ask import BudgetExceededError, ask_m
from askzeta.catalog import make
from askzeta.cli import main
from askzeta.groups import (
    ORBIT_ORDER_LIMIT,
    FiniteGroupSpec,
    build_group,
    class_number,
    lazard_group,
)
from askzeta.mrep import MRep, adjoint_rep
from askzeta.ring import TruncatedRing
from askzeta.verify import verify_class_identities
from helpers import class_number_by_classes

F3 = TruncatedRing(3, 1)
F5 = TruncatedRing(5, 1)
Z9 = TruncatedRing(3, 2)


def test_build_group_basics():
    abelian = build_group("g_alpha", MRep.zero(1, 1, 1), F3)
    assert abelian.order == 9
    assert class_number(abelian) == 9

    tf = build_group("g_alpha", make("type_F", d=2), F3)
    assert tf.order == 27
    E = tf.elements()
    cube = tf.multiply(tf.multiply(E, E), E)
    assert (cube == 0).all()  # exponent 3

    h = build_group("h_theta", make("matdxe", d=1, e=1), F3)
    assert h.order == 27
    a = np.array([[1, 0, 0]], dtype=np.int64)
    b = np.array([[0, 1, 0]], dtype=np.int64)
    assert not (h.multiply(a, b) == h.multiply(b, a)).all()


def test_build_group_errors():
    with pytest.raises(ValueError):
        build_group("g_alpha", make("matdxe", d=1, e=1), F3)
    with pytest.raises(ValueError):
        build_group("mystery", MRep.zero(1, 1, 1), F3)
    # building allocates nothing; the orbit oracle refuses orders above its
    # cap, which no budget moves
    big = build_group("h_theta", make("matdxe", d=2, e=2), F5)
    assert big.order == 5**8 > ORBIT_ORDER_LIMIT
    message = f"order 390625 > ORBIT_ORDER_LIMIT = {ORBIT_ORDER_LIMIT}"
    with pytest.raises(ValueError, match=message) as err:
        class_number(big, "orbit")
    assert "budget" not in str(err.value) and "evaluations" not in str(err.value)


def test_group_axioms_sampled():
    rng = random.Random(3)
    for spec in (
        build_group("g_alpha", make("type_F", d=2), Z9),
        build_group("h_theta", make("band", r=2), F3),
    ):
        E = spec.elements()
        n = len(E)
        ident = np.zeros((n, E.shape[1]), dtype=np.int64)
        assert (spec.multiply(E, ident) == E).all()
        assert (spec.multiply(ident, E) == E).all()
        inv = spec.inverse(E)
        assert (spec.multiply(E, inv) == 0).all()
        assert (spec.multiply(inv, E) == 0).all()
        for _ in range(20):
            i, j, k = (rng.randrange(n) for _ in range(3))
            a, b, c = E[i : i + 1], E[j : j + 1], E[k : k + 1]
            assert (
                spec.multiply(spec.multiply(a, b), c) == spec.multiply(a, spec.multiply(b, c))
            ).all()


def test_commutator_formulas():
    # central extension: [(a,y),(a',y')] = (0, 2 a A(a')); semidirect product:
    # [(a,x,y),(a',x',y')] = (0, 0, x A(a') - x' A(a))
    rng = random.Random(9)
    alpha = make("type_F", d=2)
    g = build_group("g_alpha", alpha, F3)
    E = g.elements()
    inv = g.inverse(E)
    for _ in range(20):
        i, j = rng.randrange(len(E)), rng.randrange(len(E))
        x, y = E[i : i + 1], E[j : j + 1]
        comm = g.multiply(g.multiply(inv[i : i + 1], inv[j : j + 1]), g.multiply(x, y))
        twist = alpha.evaluate_at(y[0, :2].tolist(), F3).tolist()
        expect = [
            sum(2 * x[0, i0] * twist[i0][j0] for i0 in range(2)) % 3
            for j0 in range(1)
        ]
        assert comm[0, :2].tolist() == [0, 0]
        assert comm[0, 2:].tolist() == expect

    theta = make("matdxe", d=1, e=1)
    h = build_group("h_theta", theta, F3)
    E = h.elements()
    inv = h.inverse(E)
    for _ in range(20):
        i, j = rng.randrange(len(E)), rng.randrange(len(E))
        g1, g2 = E[i : i + 1], E[j : j + 1]
        comm = h.multiply(h.multiply(inv[i : i + 1], inv[j : j + 1]), h.multiply(g1, g2))
        expect = (g1[0, 1] * g2[0, 0] - g2[0, 1] * g1[0, 0]) % 3
        assert comm[0, :2].tolist() == [0, 0]
        assert comm[0, 2] == expect


def test_class_number_committed_and_methods_agree():
    tf = build_group("g_alpha", make("type_F", d=2), F3)
    assert class_number(tf, "centralizer") == 11
    assert class_number(tf, "orbit") == 11
    h = build_group("h_theta", make("matdxe", d=1, e=1), F3)
    assert class_number(h, "centralizer") == class_number(h, "orbit") == 11
    zero_ring = build_group("h_theta", make("matdxe", d=1, e=1), TruncatedRing(3, 0))
    assert class_number(zero_ring, "centralizer") == class_number(zero_ring, "orbit") == 1
    big = build_group("g_alpha", make("type_F", d=2), Z9)
    assert class_number(big, "centralizer") == class_number(big, "orbit")
    # the budget bounds the census of the commutator tensor: 9 vectors on its
    # cheapest side, though the group has order 729
    assert class_number(big, "centralizer", budget=9) == class_number(big, "orbit")
    with pytest.raises(BudgetExceededError):
        class_number(big, "centralizer", budget=8)
    with pytest.raises(ValueError):
        class_number(tf, "telepathy")


def test_semidirect_identity_holds_at_p_equal_2():
    # the h_theta identity needs no oddness assumption
    ring = TruncatedRing(2, 1)
    rep = make("matdxe", d=1, e=1)
    h = build_group("h_theta", rep, ring)
    k = class_number(h)
    assert k == 5
    assert Fraction(k) == 2 * ask_m(rep.alternating_hull(), ring).value
    checks = verify_class_identities(rep, ring)
    assert all(c.match for c in checks if not c.skipped)


def test_scaling_invariance_of_class_number():
    alpha = make("type_F", d=2)
    base = class_number(build_group("g_alpha", alpha, F5))
    for c in (2, 3, 4):
        scaled = class_number(build_group("g_alpha", alpha.scalar_multiply(c), F5))
        assert scaled == base


def test_lazard_group():
    heis = adjoint_rep(make("lie_heisenberg"))
    for p, expected in ((3, 11), (5, 29)):
        ring = TruncatedRing(p, 1)
        spec = lazard_group(heis, ring)
        assert spec.order == p**3
        k = class_number(spec)
        assert k == expected
        assert Fraction(k) == ask_m(heis, ring).value
    with pytest.raises(ValueError):
        lazard_group(heis, TruncatedRing(2, 1))
    # a bracket with values outside any central coordinate block cannot split
    sl2ish = MRep(2, 2, 2, (((0, 0), (1, 0)), ((-1, 0), (0, 0))))
    with pytest.raises(ValueError):
        lazard_group(sl2ish, F3)


def test_verify_class_identities():
    checks = verify_class_identities(make("type_F", d=2), F3)
    assert len(checks) == 2  # central extension + semidirect product
    assert all(c.match for c in checks)
    zero_alt = MRep.zero(2, 2, 1)
    checks = verify_class_identities(zero_alt, F3)
    assert all(c.match for c in checks)
    # abelian case pins the value: k = |M| |W| and ask(2a) = |M|
    central = next(c for c in checks if "central" in c.claim)
    assert central.computed == str(Fraction(27))
    skipped = verify_class_identities(make("type_F", d=2), TruncatedRing(2, 1))
    assert any(c.skipped for c in skipped)
    heis = adjoint_rep(make("lie_heisenberg"))
    checks = verify_class_identities(heis, F3)
    assert any("exponential" in c.claim for c in checks)
    assert all(c.match for c in checks if not c.skipped)
    # no basis-aligned Lazard splitting: the exponential identity is a skip
    # that says why, not a missing row
    sl2ish = MRep(2, 2, 2, (((0, 0), (1, 0)), ((-1, 0), (0, 0))))
    checks = verify_class_identities(sl2ish, F3)
    assert [c.match for c in checks] == [True, True, None]
    assert "exponential" in checks[2].claim
    assert checks[2].note == "bracket values do not land in a central coordinate block"


def test_group_reduces_its_tensor_once(monkeypatch):
    calls = []
    original = MRep.reduced_array

    def counting(self, ring):
        calls.append((self, ring))
        return original(self, ring)

    monkeypatch.setattr(MRep, "reduced_array", counting)
    rep = make("matdxe", d=1, e=1)
    spec = build_group("h_theta", rep, F3)
    assert class_number(spec, "centralizer") == 11
    assert class_number(spec, "orbit") == 11
    # the census reduces the commutator tensor too; the group's own tensor once
    assert [ring for tensor, ring in calls if tensor is rep] == [F3]


# every (p, n) with p^n <= 27 and n >= 1
RINGS = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [(5, 1), (5, 2)]
RINGS += [(p, 1) for p in (7, 11, 13, 17, 19, 23)]
MAX_ORDER = 5000


def _shape(rnd, pn, ranks, rich, max_order):
    """A block shape within the rank caps with |G| <= max_order; three times
    in four one that rich() accepts (a group that can be non-abelian), if any."""
    shapes = [s for s in product(*(range(r + 1) for r in ranks)) if pn ** sum(s) <= max_order]
    rich_shapes = [s for s in shapes if rich(*s)]
    return rnd.choice(rich_shapes if rich_shapes and rnd.random() < 0.75 else shapes)


@st.composite
def groups(draw, max_order=MAX_ORDER):
    """A random g_alpha, h_theta or Lazard group of order at most max_order.

    Shapes and coefficients come from a seeded `random.Random`: hypothesis's
    own integer draws favour zero, which leaves most groups abelian.
    """
    kind = draw(st.sampled_from(("g_alpha", "h_theta", "lazard")))
    p, n = draw(st.sampled_from([r for r in RINGS if kind != "lazard" or r[0] != 2]))
    ring = TruncatedRing(p, n)
    rnd = draw(st.randoms(use_true_random=True))
    if kind == "h_theta":
        l, d, e = _shape(rnd, ring.size, (2, 2, 2), lambda l, d, e: min(l, d, e) > 0, max_order)
        coeffs = [[[rnd.randint(-9, 9) for _ in range(e)] for _ in range(d)] for _ in range(l)]
        return build_group(kind, MRep(l, d, e, coeffs), ring)
    k, e = _shape(rnd, ring.size, (3, 2), lambda k, e: k > 1 and e > 0, max_order)
    # alternating: alpha[b][a] = -alpha[a][b], zero diagonal
    alpha = [[[0] * e for _ in range(k)] for _ in range(k)]
    for a, b in combinations(range(k), 2):
        alpha[a][b] = [rnd.randint(-9, 9) for _ in range(e)]
        alpha[b][a] = [-c for c in alpha[a][b]]
    if kind == "g_alpha":
        return build_group(kind, MRep(k, k, e, alpha), ring)
    # a class-2 bracket on M + W with values in the central block W
    rank = k + e
    bracket = [[[0] * k + alpha[a][b] if a < k and b < k else [0] * rank for b in range(rank)]
               for a in range(rank)]
    return lazard_group(MRep(rank, rank, rank, bracket), ring)


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=groups())
def test_centralizer_method_equals_orbit_partition(spec):
    assert spec.order <= MAX_ORDER
    assert class_number(spec, "centralizer") == class_number(spec, "orbit")


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
# the loop costs k(G) |G| products: a lower cap keeps every kind, p = 2 and n >= 2
@given(spec=groups(max_order=2048))
def test_orbit_method_equals_the_per_class_loop(spec):
    assert spec.order <= 2048
    assert class_number(spec, "orbit") == class_number_by_classes(spec)


@pytest.mark.parametrize(
    "spec",
    [
        build_group("h_theta", make("matdxe", d=1, e=1), TruncatedRing(3, 0)),  # the zero ring
        build_group("h_theta", make("matdxe", d=2, e=2), TruncatedRing(3, 0)),
        build_group("g_alpha", MRep.zero(0, 0, 0), F3),  # the trivial group
        build_group("g_alpha", MRep.zero(2, 2, 1), F3),  # abelian
        build_group("h_theta", MRep.zero(1, 1, 1), Z9),  # abelian
        build_group("h_theta", make("matdxe", d=1, e=1), TruncatedRing(2, 3)),
        build_group("g_alpha", make("type_F", d=2), TruncatedRing(2, 2)),
        build_group("g_alpha", make("type_F", d=2), TruncatedRing(2, 3)),
        lazard_group(adjoint_rep(make("lie_heisenberg")), TruncatedRing(3, 2)),
        lazard_group(adjoint_rep(make("lie_heisenberg")), TruncatedRing(7, 1)),
    ],
    ids=lambda spec: f"{spec.kind}-{spec.block_sizes}-{spec.ring.p}^{spec.ring.n}",
)
def test_orbit_method_pinned_groups(spec):
    k = class_number(spec, "orbit")
    assert k == class_number_by_classes(spec) == class_number(spec, "centralizer")
    if spec.order == 1 or not spec.commutator_tensor().any():
        assert k == spec.order


@pytest.mark.parametrize(
    "spec, k",
    [
        (build_group("g_alpha", MRep.zero(2, 2, 2), F5), 625),  # abelian: k(G) = |G|
        (build_group("h_theta", make("matdxe", d=1, e=1), TruncatedRing(13, 1)), 13**2 + 13 - 1),
        (build_group("h_theta", make("matdxe", d=2, e=2), F3), 801),
    ],
    ids=("abelian-625", "heisenberg-2197", "cap-6561"),
)
def test_orbit_method_conjugates_by_the_basis_only(monkeypatch, spec, k):
    rows = {"multiply": [], "inverse": []}
    multiply, inverse = FiniteGroupSpec.multiply, FiniteGroupSpec.inverse

    def counting_multiply(self, X, Y):
        rows["multiply"].append(max(len(X), len(Y)))
        return multiply(self, X, Y)

    def counting_inverse(self, X):
        rows["inverse"].append(len(X))
        return inverse(self, X)

    monkeypatch.setattr(FiniteGroupSpec, "multiply", counting_multiply)
    monkeypatch.setattr(FiniteGroupSpec, "inverse", counting_inverse)
    assert class_number(spec, "orbit") == k > 2 * spec.arity
    # at most two products of |G| rows per basis vector, and the basis
    # vectors' inverses, whatever k(G); the per-class loop makes 2 k(G)
    assert len(rows["multiply"]) <= 2 * spec.arity and max(rows["multiply"]) <= spec.order
    assert sum(rows["inverse"]) <= spec.arity


def test_orbit_method_at_its_cap():
    # h_theta of matdxe(2,2) over F_3: order 3^8 = 6561 <= ORBIT_ORDER_LIMIT
    spec = build_group("h_theta", make("matdxe", d=2, e=2), F3)
    assert spec.order == 6561 <= ORBIT_ORDER_LIMIT
    start = time.perf_counter()
    assert class_number(spec, "orbit") == class_number(spec, "centralizer") == 801
    assert time.perf_counter() - start < 0.5


def test_centralizer_method_never_lists_the_group(monkeypatch):
    rows = []
    twisted = FiniteGroupSpec._twisted

    def counting(self, S, X, Y):
        rows.append(len(X))
        return twisted(self, S, X, Y)

    def refuse(self):
        raise AssertionError("the centraliser method listed the group")

    monkeypatch.setattr(FiniteGroupSpec, "_twisted", counting)
    monkeypatch.setattr(FiniteGroupSpec, "elements", refuse)
    rep, ring = make("matdxe", d=2, e=2), TruncatedRing(3, 2)
    spec = build_group("h_theta", rep, ring)
    assert spec.order == 9**8 > ORBIT_ORDER_LIMIT
    k = spec.arity - rep.e
    hull = ask_m(rep.alternating_hull(), ring).value
    assert class_number(spec, "centralizer") == ring.size**rep.e * hull
    assert rows and max(rows) <= k * k


def test_heisenberg_class_number_at_scale():
    # the Heisenberg group over F_101 has order 101^3 and p^2 + p - 1 classes
    ring = TruncatedRing(101, 1)
    spec = build_group("h_theta", make("matdxe", d=1, e=1), ring)
    assert spec.order == 1_030_301
    start = time.perf_counter()
    assert class_number(spec) == 101**2 + 101 - 1
    assert time.perf_counter() - start < 1.0


def test_product_int64_bound(capsys):
    # products of whole elements need l d (p^n - 1)^3 < 2^63: for l = d = 1,
    # 2^21 - 1 and 2097143 - 1 are inside it and the next prime 2097169 is past
    # it; for l = d = 2 the primes 1321109 and 1321139 straddle it. Groups past
    # it are built, and their class numbers come from basis-vector products.
    heis = adjoint_rep(make("lie_heisenberg"))
    mat11 = make("matdxe", d=1, e=1)
    whole = np.ones((1, 3), dtype=np.int64)
    for ring in (TruncatedRing(2, 21), TruncatedRing(2097143, 1)):
        top = ring.size - 1  # (t, t, t)(1, 1, 1) = (0, 0, t + 1 + t), as x A(a') = t
        assert build_group("h_theta", mat11, ring).multiply(whole * top, whole).tolist() == [[0, 0, top]]
    past = build_group("h_theta", mat11, TruncatedRing(2097169, 1))
    for product in (lambda: past.multiply(whole, whole), lambda: past.inverse(whole)):
        with pytest.raises(ValueError, match="int64 bound"):
            product()
    # the Lazard group of the Heisenberg bracket is g_alpha with l = d = 2
    lazard_group(heis, TruncatedRing(1321109, 1)).multiply(whole, whole)
    lazard = lazard_group(heis, TruncatedRing(1321139, 1))
    with pytest.raises(ValueError, match="int64 bound"):
        lazard.multiply(whole, whole)
    argv = ["group", "--kind", "htheta", "--catalog", "matdxe", "--d", "1", "--e", "1",
            "--p", "2097169", "--budget", str(10**13), "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_number"] == 2097169**2 + 2097169 - 1 == 4398119911729
    assert report["class_number_by_orbits"] is None
    assert [check["match"] for check in report["identities"]] == [True]
