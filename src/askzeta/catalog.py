"""Deterministic constructors for the worked example families.

Every entry builds a structure-constant tensor with a fixed basis order, so
runs are reproducible bit for bit. Where a closed-form zeta function is
known for the family it is registered here together with its applicability
condition; the verification harness loops over these pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .mrep import MRep, constant_rank_check
from .ring import TruncatedRing
from .zeta import RationalFunction, closed_form

__all__ = ["ExampleDescriptor", "make", "list_examples", "expected_zeta"]


def _tensor(l: int, d: int, e: int) -> list[list[list[int]]]:
    return [[[0] * e for _ in range(d)] for _ in range(l)]


def _matdxe(d: int, e: int) -> MRep:
    """Identity inclusion of all d x e matrices; parameter basis E_ij, row-major."""
    c = _tensor(d * e, d, e)
    for i in range(d):
        for j in range(e):
            c[i * e + j][i][j] = 1
    return MRep(d * e, d, e, c)


def _so(d: int) -> MRep:
    """Antisymmetric d x d matrices; basis E_ij - E_ji for i < j, lex order."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    c = _tensor(len(pairs), d, d)
    for h, (i, j) in enumerate(pairs):
        c[h][i][j] = 1
        c[h][j][i] = -1
    return MRep(len(pairs), d, d, c)


def _sym(d: int) -> MRep:
    """Symmetric d x d matrices; basis E_ii and E_ij + E_ji for i < j, lex order."""
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    c = _tensor(len(pairs), d, d)
    for h, (i, j) in enumerate(pairs):
        c[h][i][j] = 1
        c[h][j][i] = 1
    return MRep(len(pairs), d, d, c)


def _band(r: int) -> MRep:
    """The (2r-1) x r band family: column j carries x_1..x_r from row j down."""
    c = _tensor(r, 2 * r - 1, r)
    for i in range(2 * r - 1):
        for j in range(r):
            if 0 <= i - j < r:
                c[i - j][i][j] = 1
    return MRep(r, 2 * r - 1, r, c)


def _hankel(r: int) -> MRep:
    """r x r Hankel matrices in z_1..z_{2r-1}: entry (i, j) = z_{i+j}."""
    c = _tensor(2 * r - 1, r, r)
    for i in range(r):
        for j in range(r):
            c[i + j][i][j] = 1
    return MRep(2 * r - 1, r, r, c)


def _westwick_H(r: int) -> MRep:
    """Westwick's (2r+1) x (2r+1) constant-rank family in three variables.

    Subdiagonal X, diagonal alpha_i Y, superdiagonal beta_i Z (1-based),
    where alpha_{r+1} = 0, beta_r = -1 and all other coefficients are 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    size = 2 * r + 1
    c = _tensor(3, size, size)
    for i in range(size):
        if i >= 1:
            c[0][i][i - 1] = 1
        if i != r:
            c[1][i][i] = 1
        if i + 1 < size:
            c[2][i][i + 1] = -1 if i == r - 1 else 1
    return MRep(3, size, size, c)


def _westwick_a(r: int) -> MRep:
    """The (2r+1) x 3 companion family a_r in X_0..X_{2r}.

    Base pattern: 0-based entry (k, c) = X_{k+c-1}, indices outside [0, 2r]
    read as 0. Two exceptional entries: (r-1, 2) = -X_r and (r, 1) = 0.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rows = 2 * r + 1
    c = _tensor(rows, rows, 3)
    for k in range(rows):
        for col in range(3):
            t = k + col - 1
            if 0 <= t <= 2 * r:
                c[t][k][col] = 1
    # exceptional sign and hole
    c[r][r - 1][2] = -1
    c[r][r][1] = 0
    return MRep(rows, rows, 3, c)


def _gamma(d: int) -> MRep:
    """The recursive C(d+1, 2) x d family: x_1 1_d stacked over [0 | previous]."""
    if d < 1:
        raise ValueError("need d >= 1")

    def matrix(k: int) -> list[list[tuple[int, int] | None]]:
        # entry = (variable index within the last k variables, coefficient)
        if k == 0:
            return []
        top = [[(0, 1) if i == j else None for j in range(k)] for i in range(k)]
        below = [[None] + [e for e in row] for row in matrix(k - 1)]
        shifted = [
            [None if e is None else (e[0] + 1, e[1]) for e in row] for row in below
        ]
        return top + shifted

    rows = matrix(d)
    c = _tensor(d, len(rows), d)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry is not None:
                c[entry[0]][i][j] = entry[1]
    return MRep(d, len(rows), d, c)


def _type_F(d: int) -> MRep:
    """The alternating wedge family V -> Hom(V, V ^ V); basis e_i ^ e_j, i < j."""
    if d < 2:
        raise ValueError("need d >= 2")
    pairs = {(i, j): k for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i + 1, d))}
    c = _tensor(d, d, len(pairs))
    for h in range(d):
        for i in range(d):
            if i < h:
                c[h][i][pairs[(i, h)]] = 1
            elif i > h:
                c[h][i][pairs[(h, i)]] = -1
    return MRep(d, d, len(pairs), c)


def _type_G(d: int) -> MRep:
    """The rank-one family V* -> Hom(V, End(V)); codomain basis E_uv, row-major."""
    if d < 1:
        raise ValueError("need d >= 1")
    c = _tensor(d, d, d * d)
    for h in range(d):
        for i in range(d):
            c[h][i][h * d + i] = 1
    return MRep(d, d, d * d, c)


def _lie_heisenberg() -> MRep:
    """Rank-3 Heisenberg bracket: [e1, e2] = e3, e3 central."""
    c = _tensor(3, 3, 3)
    c[1][0][2] = 1  # [e1, e2] = e3
    c[0][1][2] = -1
    return MRep(3, 3, 3, c)


def _lie_abelian(d: int) -> MRep:
    return MRep.zero(d, d, d)


def _matrix_zeta(m: int, q: Fraction | int, d: int, e: int) -> RationalFunction | None:
    """First moments of all d x e matrices; second moments when square."""
    if m == 1:
        return closed_form("matdxe", q, d=d, e=e)
    if m == 2 and d == e:
        return closed_form("ask2_matd", q, d=d)
    return None


def _westwick_zeta(m: int, q: Fraction | int, r: int) -> RationalFunction | None:
    """The kernel-minimal form of 3 parameters, 2r+1 rows and constant rank 2r."""
    return closed_form("kmin", q, m=1, d=2 * r + 1, r=2 * r, l=3) if m == 1 else None


@dataclass(frozen=True)
class ExampleDescriptor:
    """One catalog family: its builder, and its closed-form zeta if one is known.

    `build` takes the parameters in the order of `params`. `zeta(m, q, *params)`
    is the closed form of the m-th moment series, or None where none is known.
    `rank_probe`, when set, maps the tensor to the one whose constant rank
    2r over F_p the closed form needs.
    """

    name: str
    params: tuple[str, ...]
    summary: str
    expected_form: str | None
    conditions: str
    build: Callable[..., MRep]
    zeta: Callable[..., RationalFunction | None] | None = None
    rank_probe: Callable[[MRep], MRep] | None = None

    def applies(self, concrete: dict, ring: TruncatedRing) -> bool:
        """Does the registered closed form apply at this ring?

        Only conditions affecting the zeta pairing are checked (the
        constant-rank certificate for the Westwick families); conditions on
        the class-number identities are documented in `conditions` and
        enforced by the group constructions themselves.
        """
        if self.rank_probe is None:
            return True
        probe = self.rank_probe(make(self.name, **concrete))
        ok, rank = constant_rank_check(probe, TruncatedRing(ring.p, 1))
        return ok and rank == 2 * concrete["r"]


_EXAMPLES = (
    ExampleDescriptor("matdxe", ("d", "e"), "all d x e matrices", "matdxe", "", _matdxe, _matrix_zeta),
    ExampleDescriptor("so", ("d",), "antisymmetric d x d matrices", None, "", _so),
    ExampleDescriptor("sym", ("d",), "symmetric d x d matrices", None, "", _sym),
    ExampleDescriptor(
        "band", ("r",), "(2r-1) x r band matrices", "kmin", "", _band,
        # the family is kernel-minimal, so every moment has a closed form
        lambda m, q, r: closed_form("kmin", q, m=m, d=2 * r - 1, r=r, l=r),
    ),
    ExampleDescriptor(
        "hankel", ("r",), "r x r Hankel matrices", "matdxe", "", _hankel,
        lambda m, q, r: closed_form("matdxe", q, d=r, e=r) if m == 1 else None,
    ),
    ExampleDescriptor(
        "westwick_H", ("r",), "Westwick constant-rank family", "kmin",
        "residue characteristic large enough for constant rank 2r",
        _westwick_H, _westwick_zeta, lambda rep: rep,
    ),
    ExampleDescriptor(
        "westwick_a", ("r",), "companion of the Westwick family", "kmin",
        "bullet dual must have constant rank 2r over F_p",
        _westwick_a, _westwick_zeta, lambda rep: rep.dual("bullet"),
    ),
    ExampleDescriptor(
        "gamma", ("d",), "recursive C(d+1,2) x d family", "gamma_m", "", _gamma,
        lambda m, q, d: closed_form("gamma_m", q, d=d, m=m),
    ),
    ExampleDescriptor(
        "type_F", ("d",), "alternating wedge family", "matdxe",
        "p odd for the class-number identities", _type_F,
        lambda m, q, d: closed_form("matdxe", q, d=d, e=d - 1) if m == 1 and d >= 2 else None,
    ),
    ExampleDescriptor(
        "type_G", ("d",), "rank-one endomorphism family", "matdxe", "", _type_G,
        lambda m, q, d: closed_form("matdxe", q, d=d, e=d) if m == 1 else None,
    ),
    ExampleDescriptor("lie_heisenberg", (), "Heisenberg bracket tensor", None, "", _lie_heisenberg),
    ExampleDescriptor("lie_abelian", ("d",), "abelian bracket tensor", None, "", _lie_abelian),
)

_BY_NAME = {example.name: example for example in _EXAMPLES}


def make(name: str, **params: int) -> MRep:
    """Build a catalog tensor; unknown names and bad parameters raise ValueError."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown catalog entry {name!r}")
    wanted = _BY_NAME[name].params
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise ValueError(
            f"{name} takes parameters {wanted}; missing {missing}, unexpected {extra}"
        )
    args = [int(params[k]) for k in wanted]
    if any(a < 1 for a in args):
        raise ValueError(f"{name} parameters must be positive")
    return _BY_NAME[name].build(*args)


def expected_zeta(name: str, params: dict, m: int, q: Fraction | int) -> RationalFunction | None:
    """The registered closed-form zeta for moment m, or None if none is known."""
    example = _BY_NAME.get(name)
    if example is None or example.zeta is None:
        return None
    return example.zeta(m, q, *(params[k] for k in example.params))


def list_examples() -> tuple[ExampleDescriptor, ...]:
    return _EXAMPLES
