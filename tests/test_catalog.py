import hashlib
import itertools

import pytest

from askzeta.ask import zeta_coeffs
from askzeta.catalog import expected_zeta, list_examples, make
from askzeta.mrep import HomotopyTriple, verify_homotopy
from askzeta.ring import TruncatedRing
from askzeta.zeta import closed_form

F3 = TruncatedRing(3, 1)


def test_band_committed_tensor():
    band2 = make("band", r=2)
    assert band2.shape == (2, 3, 2)
    # [[x1, 0], [x2, x1], [0, x2]]
    assert band2.evaluate_at([1, 0], F3).tolist() == [[1, 0], [0, 1], [0, 0]]
    assert band2.evaluate_at([0, 1], F3).tolist() == [[0, 0], [1, 0], [0, 1]]


def test_gamma_committed_tensor():
    g2 = make("gamma", d=2)
    assert g2.shape == (2, 3, 2)
    assert g2.evaluate_at([1, 0], F3).tolist() == [[1, 0], [0, 1], [0, 0]]
    g3 = make("gamma", d=3)
    assert g3.shape == (3, 6, 3)
    assert g3.evaluate_at([1, 0, 0], F3).tolist()[:3] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_westwick_a1_committed_matrix():
    a1 = make("westwick_a", r=1)
    assert a1.shape == (3, 3, 3)
    F7 = TruncatedRing(7, 1)
    assert a1.evaluate_at([1, 0, 0], F7).tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert a1.evaluate_at([0, 1, 0], F7).tolist() == [[0, 0, 6], [0, 0, 0], [1, 0, 0]]
    assert a1.evaluate_at([0, 0, 1], F7).tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_westwick_a2_exceptional_entries():
    a2 = make("westwick_a", r=2)
    mat = a2.evaluate_at([0, 0, 1, 0, 0], TruncatedRing(7, 1)).tolist()
    # the parameter vector hitting the sign flip and the hole
    assert mat == [[0, 0, 0], [0, 0, 6], [0, 0, 0], [1, 0, 0], [0, 0, 0]]


def test_westwick_H_structure():
    H2 = make("westwick_H", r=2)
    assert H2.shape == (3, 5, 5)
    F7 = TruncatedRing(7, 1)
    y = H2.evaluate_at([0, 1, 0], F7).tolist()
    assert [y[i][i] for i in range(5)] == [1, 1, 0, 1, 1]  # diagonal hole at row r
    z = H2.evaluate_at([0, 0, 1], F7).tolist()
    assert [z[i][i + 1] for i in range(4)] == [1, 6, 1, 1]  # sign flip at row r - 1


def test_so_sym_patterns():
    so3 = make("so", d=3)
    assert so3.shape == (3, 3, 3)
    for mat in so3.coeffs:
        for i in range(3):
            for j in range(3):
                assert mat[i][j] == -mat[j][i]
    sym2 = make("sym", d=2)
    assert sym2.shape == (3, 2, 2)
    for mat in sym2.coeffs:
        assert mat[0][1] == mat[1][0]


def test_type_f_and_g():
    tf = make("type_F", d=3)
    assert tf.shape == (3, 3, 3)
    assert tf.is_alternating()
    tg = make("type_G", d=2)
    assert tg.shape == (2, 2, 4)
    # rank-one matrices: evaluating at a basis vector picks out one row
    assert tg.evaluate_at([1, 0], F3).tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]


def test_matdxe_identity_inclusion():
    m = make("matdxe", d=2, e=3)
    assert m.shape == (6, 2, 3)
    assert m.evaluate_at([1, 0, 0, 0, 1, 0], F3).tolist() == [[1, 0, 0], [0, 1, 0]]


def test_hankel_is_circ_dual_of_band():
    for r in (2, 3):
        hankel = make("hankel", r=r)
        circ = make("band", r=r).dual("circ")
        assert hankel == circ
        triple = HomotopyTriple.identity(hankel)
        assert verify_homotopy(triple, hankel, circ, TruncatedRing(2, 2))


def test_make_errors():
    with pytest.raises(ValueError):
        make("mystery")
    with pytest.raises(ValueError):
        make("band")
    with pytest.raises(ValueError):
        make("band", r=0)
    with pytest.raises(ValueError):
        make("band", r=2, d=1)


def test_registry_and_expected_forms():
    names = {d.name for d in list_examples()}
    assert {"matdxe", "band", "hankel", "westwick_a", "gamma", "type_F", "type_G"} <= names
    assert expected_zeta("matdxe", {"d": 2, "e": 2}, 1, 3) == closed_form("matdxe", 3, d=2, e=2)
    assert expected_zeta("matdxe", {"d": 2, "e": 2}, 2, 3) == closed_form("ask2_matd", 3, d=2)
    assert expected_zeta("matdxe", {"d": 2, "e": 1}, 2, 3) is None
    assert expected_zeta("hankel", {"r": 2}, 1, 2) == closed_form("matdxe", 2, d=2, e=2)
    assert expected_zeta("so", {"d": 3}, 1, 3) is None
    assert expected_zeta("gamma", {"d": 2}, 3, 2) == closed_form("gamma_m", 2, d=2, m=3)


def test_descriptor_conditions():
    by_name = {d.name: d for d in list_examples()}
    ring5 = TruncatedRing(5, 1)
    assert by_name["westwick_a"].applies({"r": 2}, ring5)
    # the zeta form for the wedge family holds at every prime; oddness only
    # constrains the class-number identities
    assert by_name["type_F"].applies({"d": 2}, TruncatedRing(2, 1))
    assert "odd" in by_name["type_F"].conditions


def _registered_forms():
    for example in list_examples():
        for m in (1, 2, 3):
            if expected_zeta(example.name, {k: 2 for k in example.params}, m, 2) is None:
                continue
            yield pytest.param(example.name, m, id=f"{example.name}-m{m}")


@pytest.mark.parametrize("name,m", list(_registered_forms()))
def test_registered_closed_forms_match_enumeration(name, m):
    params = {k: 2 for k in next(e for e in list_examples() if e.name == name).params}
    rep = make(name, **params)
    for p in (2, 3):
        assert expected_zeta(name, params, m, p).expand(2) == zeta_coeffs(rep, p, m=m, levels=2).coeffs


# sha256 (first 32 hex digits) of each family at every parameter tuple in 1..5,
# in itertools.product order: name, parameters, shape, dtype and little-endian
# entries of each tensor, or the message of the ValueError that refuses it
FAMILY_DIGESTS = {
    "matdxe": "9c64edb583c27e76ec40bc27f6e5fcef",
    "so": "0087c8f57f8d943895c1a1137aa500be",
    "sym": "b2f1bbdf80c20bf5eed4c05036ad9315",
    "band": "a4060305e04684efe7abcd656125a308",
    "hankel": "79821f80b9890eb5a5fc5557a864db2a",
    "westwick_H": "5e6e7576e91bcbb392beeb05bd9fc668",
    "westwick_a": "91b791ebde2b3308e6fe8e3398559543",
    "gamma": "86a65e0bfb03fd4ba38f1ba3187c1e66",
    "type_F": "2b026e6d0563c6313c44f1b1c9f47396",
    "type_G": "60bf598eaa0ecf772d8e28454b637fff",
    "lie_heisenberg": "aeb5aecd761b61473c0facfedef91a41",
    "lie_abelian": "551aafb28218afed22b84defd3cf298d",
}


def _family_digest(example) -> str:
    h = hashlib.sha256(example.name.encode())
    for values in itertools.product(range(1, 6), repeat=len(example.params)):
        params = dict(zip(example.params, values))
        h.update(repr(sorted(params.items())).encode())
        try:
            rep = make(example.name, **params)
        except ValueError as exc:
            h.update(f"ValueError: {exc}".encode())
            continue
        h.update(repr((rep.shape, str(rep.array.dtype))).encode())
        h.update(rep.array.astype("<i8").tobytes())
    return h.hexdigest()[:32]


def test_every_family_builds_its_committed_tensors():
    assert [example.name for example in list_examples()] == list(FAMILY_DIGESTS)
    for example in list_examples():
        assert _family_digest(example) == FAMILY_DIGESTS[example.name], example.name
