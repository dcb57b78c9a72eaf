"""Finite nilpotent groups built from module representations.

Two constructions, both with elements stored as flat tuples of canonical
representatives and multiplication evaluated straight from the defining
formulas (no Cayley table):

  g_alpha   on M x W for alternating alpha, with
            (a, y)(a', y') = (a + a', y + y' + a A(a'))
  h_theta   on M x V x W (a semidirect product), with
            (a, x, y)(a', x', y') = (a + a', x + x', y + y' + x A(a'))

The centraliser method never lists the group: gh and hg differ only in W,
by a bilinear form in the other coordinates (the commutator tensor), so
k(G) = |W| * ask(commutator tensor), one ask_m under the census budget. The
orbit method, explicit conjugation by the basis vectors, is the independent
oracle; it lists the group, so it runs up to order ORBIT_ORDER_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bulk
from .ask import DEFAULT_BUDGET, ask_m
from .mrep import MRep
from .ring import TruncatedRing

__all__ = [
    "ORBIT_ORDER_LIMIT",
    "FiniteGroupSpec",
    "build_group",
    "class_number",
    "lazard_group",
]

ORBIT_ORDER_LIMIT = 10**4


@dataclass(frozen=True)
class FiniteGroupSpec:
    """A finite group presented as tuples over Z/p^n with an explicit product."""

    kind: str  # "g_alpha" | "h_theta"
    rep: MRep
    ring: TruncatedRing

    @property
    def block_sizes(self) -> tuple[int, ...]:
        if self.kind == "g_alpha":
            return (self.rep.l, self.rep.e)
        return (self.rep.l, self.rep.d, self.rep.e)

    @property
    def arity(self) -> int:
        return sum(self.block_sizes)

    @property
    def order(self) -> int:
        return self.ring.size ** self.arity

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """The tensor reduced mod p^n, built once per group."""
        return self.rep.reduced_array(self.ring)

    def _twisted(self, S: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """S plus the twist u A(a') in its W block, mod p^n: u is X's domain
        block (a for g_alpha, x for h_theta) and a' is Y's parameter block.

        Every term of the twist is nonnegative and at most (p^n - 1)^3 for whole
        elements, so _check_products's bound l d (p^n - 1)^3 < 2^63 keeps both
        matmuls exact; for basis vectors a term is at most p^n - 1.
        """
        l, d, e = self._coeffs.shape
        start = 0 if self.kind == "g_alpha" else l
        evaluated = (Y[:, :l] @ self._coeffs.reshape(l, d * e)).reshape(len(Y), d, e)
        twist = (X[:, None, start : start + d] @ evaluated)[:, 0] % self.ring.size
        S[:, S.shape[1] - e :] += twist
        return S % self.ring.size

    def _check_products(self) -> None:
        l, d = self.rep.l, self.rep.d
        if l * d * (self.ring.size - 1) ** 3 >= 1 << 63:
            raise ValueError(
                f"l d = {l * d} over Z/{self.ring.size} breaks the int64 bound l d (p^n - 1)^3 < 2^63"
            )

    def multiply(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        self._check_products()
        return self._twisted(X + Y, X, Y)

    def inverse(self, X: np.ndarray) -> np.ndarray:
        # -X plus the twist of X with itself: x A(a) for h_theta, and a A(a) = 0
        # for g_alpha, as alpha is alternating
        self._check_products()
        return self._twisted(-X, X, X)

    @property
    def _place_values(self) -> np.ndarray:
        return np.array([self.ring.size**i for i in range(self.arity)][::-1], np.int64)

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)[:, None] // self._place_values % self.ring.size

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Mixed-radix index of each element row (inverse of elements())."""
        return X @ self._place_values

    def commutator_tensor(self) -> np.ndarray:
        """comm[h, i] = W part of e_h e_i - e_i e_h, shape (k, k, e), k = arity - e."""
        e = self.rep.e
        k = self.arity - e
        # the bound ask_m of this k x k x e tensor enforces; it keeps basis-vector products exact
        bulk.check_evaluation_bound(k, self.ring.size)
        basis = np.eye(k, self.arity, dtype=np.int64)
        X, Y = np.repeat(basis, k, axis=0), np.tile(basis, (k, 1))
        diff = self._twisted(X + Y, X, Y)[:, k:] - self._twisted(Y + X, Y, X)[:, k:]
        return (diff % self.ring.size).reshape(k, k, e)


def build_group(kind: str, rep: MRep, ring: TruncatedRing) -> FiniteGroupSpec:
    if kind not in ("g_alpha", "h_theta"):
        raise ValueError(f"unknown group kind {kind!r}")
    if kind == "g_alpha" and not rep.is_alternating():
        raise ValueError("g_alpha requires an alternating representation")
    return FiniteGroupSpec(kind, rep, ring)


def class_number(
    spec: FiniteGroupSpec, method: str = "centralizer", budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of conjugacy classes.

    method="centralizer" averages |C(g)| = p^(n e) |ker comm(g)|, that is
    p^(n e) ask_m(commutator tensor), whose census the budget bounds.
    method="orbit" conjugates by the product formula alone, up to order
    ORBIT_ORDER_LIMIT whatever the budget: g -> s^-1 g s permutes the element
    indices for each basis vector s, and the classes are the orbits of these
    permutations, as the basis vectors generate G (they give every (a, x)
    projection, and W is central and spanned by basis vectors). Each label
    starts at its own index, takes the least label of its images and
    preimages, then its label's label, until nothing changes. Labels never
    leave their orbit, and a fixed point is constant on each orbit, so it has
    exactly one self-labelled element per orbit.
    """
    if method == "centralizer":
        comm = spec.commutator_tensor()
        average = ask_m(MRep(*comm.shape, comm), spec.ring, budget=budget).value
        classes = spec.ring.size**spec.rep.e * average
        assert classes.denominator == 1
        return int(classes)
    if method == "orbit":
        if spec.order > ORBIT_ORDER_LIMIT:
            raise ValueError(f"group order {spec.order} > ORBIT_ORDER_LIMIT = {ORBIT_ORDER_LIMIT}")
        E = spec.elements()
        S = np.eye(spec.arity, dtype=np.int64)[:, None]  # basis vectors as batches of one row
        pairs = zip(S, spec.inverse(S[:, 0])[:, None])
        perms = [spec.encode(spec.multiply(spec.multiply(s_inv, E), s)) for s, s_inv in pairs]
        lab, back = np.arange(len(E)), np.empty(len(E), dtype=np.int64)
        while True:
            new = lab.copy()
            for perm in perms:
                back[perm] = lab  # back[j] = lab[perm^-1 j]
                np.minimum(new, np.minimum(lab[perm], back), out=new)
            new = new[new]
            if (new == lab).all():
                return int(np.count_nonzero(lab == np.arange(len(E))))
            lab = new
    raise ValueError(f"unknown method {method!r}")


def lazard_group(bracket: MRep, ring: TruncatedRing) -> FiniteGroupSpec:
    """The finite group exp(g) of a class-<=2 Lie ring, as a g_alpha group.

    Needs p odd and a basis-aligned splitting g = M + W where W is spanned
    by central basis vectors and contains every bracket value; the group is
    then g_alpha for the halved bracket restricted to M. Raises if the
    splitting does not exist along the standard basis.
    """
    if ring.p == 2:
        raise ValueError("the exponential correspondence needs p odd")
    if not (bracket.l == bracket.d == bracket.e):
        raise ValueError("bracket tensor must be cubical")
    nonzero = bracket.array != 0
    central = ~(nonzero.any(axis=(1, 2)) | nonzero.any(axis=(0, 2)))
    if (nonzero.any(axis=(0, 1)) & ~central).any():
        raise ValueError("bracket values do not land in a central coordinate block")
    mod_idx, w_idx = np.flatnonzero(~central), np.flatnonzero(central)
    inv2 = pow(2, -1, ring.size) if ring.n else 0
    # signed coefficients keep the halved bracket alternating over Z
    half = inv2 * bracket.array[np.ix_(mod_idx, mod_idx, w_idx)].astype(object) % ring.size
    k = len(mod_idx)
    half = np.where(np.triu(np.ones((k, k), dtype=bool), 1)[:, :, None], half, 0)
    alpha = MRep(k, k, len(w_idx), half - half.transpose(1, 0, 2))
    return build_group("g_alpha", alpha, ring)
