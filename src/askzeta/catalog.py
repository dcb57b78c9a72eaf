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

import numpy as np

from .mrep import MRep, constant_rank_check
from .ring import TruncatedRing
from .zeta import RationalFunction, closed_form

__all__ = ["ExampleDescriptor", "make", "list_examples", "expected_zeta"]


def _matdxe(d: int, e: int) -> MRep:
    """Identity inclusion of all d x e matrices; parameter basis E_ij, row-major."""
    return MRep(d * e, d, e, np.eye(d * e, dtype=np.int64).reshape(d * e, d, e))


def _so(d: int) -> MRep:
    """Antisymmetric d x d matrices; basis E_ij - E_ji for i < j, lex order."""
    i, j = np.triu_indices(d, 1)
    h = np.arange(len(i))
    c = np.zeros((len(h), d, d), np.int64)
    c[h, i, j] = 1
    c[h, j, i] = -1
    return MRep(*c.shape, c)


def _sym(d: int) -> MRep:
    """Symmetric d x d matrices; basis E_ii and E_ij + E_ji for i < j, lex order."""
    i, j = np.triu_indices(d)
    h = np.arange(len(i))
    c = np.zeros((len(h), d, d), np.int64)
    c[h, i, j] = c[h, j, i] = 1
    return MRep(*c.shape, c)


def _band(r: int) -> MRep:
    """The (2r-1) x r band family: column j carries x_1..x_r from row j down."""
    h, j = np.ogrid[:r, :r]
    c = np.zeros((r, 2 * r - 1, r), np.int64)
    c[h, h + j, j] = 1
    return MRep(*c.shape, c)


def _hankel(r: int) -> MRep:
    """r x r Hankel matrices in z_1..z_{2r-1}: entry (i, j) = z_{i+j}."""
    i, j = np.ogrid[:r, :r]
    c = np.zeros((2 * r - 1, r, r), np.int64)
    c[i + j, i, j] = 1
    return MRep(*c.shape, c)


def _westwick_H(r: int) -> MRep:
    """Westwick's (2r+1) x (2r+1) constant-rank family in three variables.

    Subdiagonal X, diagonal alpha_i Y, superdiagonal beta_i Z (1-based),
    where alpha_{r+1} = 0, beta_r = -1 and all other coefficients are 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    c = np.stack([np.eye(2 * r + 1, k=k, dtype=np.int64) for k in (-1, 0, 1)])
    c[1, r, r] = 0
    c[2, r - 1, r] = -1
    return MRep(*c.shape, c)


def _westwick_a(r: int) -> MRep:
    """The (2r+1) x 3 companion family a_r in X_0..X_{2r}.

    Base pattern: 0-based entry (k, c) = X_{k+c-1}, indices outside [0, 2r]
    read as 0. Two exceptional entries: (r-1, 2) = -X_r and (r, 1) = 0.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    # column col holds X_t at row t - col + 1: a shifted identity in (t, row)
    c = np.stack([np.eye(2 * r + 1, k=1 - col, dtype=np.int64) for col in range(3)], axis=2)
    c[r, r - 1, 2] = -1
    c[r, r, 1] = 0
    return MRep(*c.shape, c)


def _gamma(d: int) -> MRep:
    """The recursive C(d+1, 2) x d family: x_1 1_d stacked over [0 | previous]."""
    if d < 1:
        raise ValueError("need d >= 1")
    c = np.zeros((d, d * (d + 1) // 2, d), np.int64)
    c[0, :d] = np.eye(d, dtype=np.int64)
    if d > 1:  # the previous family, in x_2..x_d
        c[1:, d:, 1:] = _gamma(d - 1).array
    return MRep(*c.shape, c)


def _type_F(d: int) -> MRep:
    """The alternating wedge family V -> Hom(V, V ^ V); basis e_i ^ e_j, i < j."""
    if d < 2:
        raise ValueError("need d >= 2")
    i, j = np.triu_indices(d, 1)
    k = np.arange(len(i))
    c = np.zeros((d, d, len(k)), np.int64)
    c[j, i, k] = 1
    c[i, j, k] = -1
    return MRep(*c.shape, c)


def _type_G(d: int) -> MRep:
    """The rank-one family V* -> Hom(V, End(V)); codomain basis E_uv, row-major."""
    if d < 1:
        raise ValueError("need d >= 1")
    return MRep(d, d, d * d, np.eye(d * d, dtype=np.int64).reshape(d, d, d * d))


def _lie_heisenberg() -> MRep:
    """Rank-3 Heisenberg bracket: [e1, e2] = e3, e3 central."""
    c = np.zeros((3, 3, 3), np.int64)
    c[1, 0, 2] = 1  # [e1, e2] = e3
    c[0, 1, 2] = -1
    return MRep(*c.shape, c)


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
