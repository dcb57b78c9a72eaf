"""Module representations as structure-constant tensors.

A tensor c[h][i][j] of shape (l, d, e) encodes a linear parameterisation of
d x e matrices: the parameter vector a maps to the matrix
A(a)_{ij} = sum_h a_h c[h][i][j], acting on row vectors x of length d with
output x A(a). All modules are free with fixed standard bases, and dual
modules are identified with the originals through dual bases; the three
Knuth duals are therefore pure index permutations of the tensor:

    circ    swaps the parameter and domain slots            (d, l, e)
    bullet  swaps the parameter and (dual) codomain slots   (e, d, l)
    vee     transposes every matrix of the family           (l, e, d)

Coefficients live in Z at arbitrary precision and are reduced per ring on
demand, so one tensor serves every level n of its zeta function.

The tensor is one read-only ndarray, stored as int64 when every entry is
below 2^62 in absolute value (so negating or adding two entries cannot wrap)
and as exact Python ints (dtype=object) otherwise; the values alone decide.
scalar_multiply and collapse, the two operations that grow entries, compute
in Python ints and narrow the result again. reduced_array and evaluate_at
reduce mod p^n before any product; evaluate_at stays in int64 while
l (p^n - 1)^2 < 2^63 (bulk.check_evaluation_bound) and uses Python ints past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bulk import DEFAULT_BUDGET
from .ring import TruncatedRing

__all__ = [
    "MRep", "HomotopyTriple", "Dual", "collapse", "collapsed_power", "adjoint_rep",
    "verify_homotopy", "constant_rank_check", "kminimality_check",
]

_STORAGE_LIMIT = 1 << 62


class Dual:
    """Names of the three Knuth duality operations."""

    CIRC = "circ"
    BULLET = "bullet"
    VEE = "vee"


# each dual as the axis order of the transposed (l, d, e) tensor
_AXES = {Dual.CIRC: (1, 0, 2), Dual.BULLET: (2, 1, 0), Dual.VEE: (0, 2, 1)}

_SIDES = {"mod": 0, "dom": 1, "cod": 2}


def _stored(array: np.ndarray) -> np.ndarray:
    """The array read-only, in int64 if every entry is below 2^62 in size, else in Python ints."""
    small = not array.size or (-_STORAGE_LIMIT < array.min() and array.max() < _STORAGE_LIMIT)
    array = array.astype(np.int64 if small else object, copy=False)
    array.flags.writeable = False
    return array


def _parse(l: int, d: int, e: int, coeffs) -> np.ndarray:
    if min(l, d, e) < 0:
        raise ValueError("tensor ranks must be nonnegative")
    try:
        array = np.array(coeffs, dtype=np.int64)
    except OverflowError:  # an entry beyond int64: keep exact Python ints
        array = np.array(coeffs, dtype=object)
    if array.size == 0 and array.shape == (l, d, e)[: array.ndim]:
        array = array.reshape(l, d, e)
    if array.shape != (l, d, e):
        raise ValueError(f"coefficients have shape {array.shape}, expected {(l, d, e)}")
    if array.dtype == object:
        array = np.frompyfunc(int, 1, 1)(array)
    return _stored(array)


class MRep:
    """A module representation with module/domain/codomain ranks (l, d, e).

    `array` is the read-only tensor c[h, i, j]; `coeffs` is the same tensor
    as nested tuples of Python ints.
    """

    __slots__ = ("array",)

    def __init__(self, l: int, d: int, e: int, coeffs) -> None:
        self.array = _parse(l, d, e, coeffs)

    @classmethod
    def _of(cls, array: np.ndarray) -> "MRep":
        rep = cls.__new__(cls)
        rep.array = _stored(array)
        return rep

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "MRep":
        l = len(coeffs)
        d = len(coeffs[0]) if l else 0
        e = len(coeffs[0][0]) if l and d else 0
        return cls(l, d, e, coeffs)

    @classmethod
    def zero(cls, l: int, d: int, e: int) -> "MRep":
        return cls(l, d, e, np.zeros((l, d, e), dtype=np.int64))

    shape = property(lambda self: self.array.shape)
    l = property(lambda self: self.array.shape[0])
    d = property(lambda self: self.array.shape[1])
    e = property(lambda self: self.array.shape[2])

    @property
    def coeffs(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(map(tuple, mat)) for mat in self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MRep):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.shape, tuple(self.array.ravel().tolist())))

    def __repr__(self) -> str:
        return f"MRep(l={self.l}, d={self.d}, e={self.e}, coeffs={self.coeffs!r})"

    def reduced_array(self, ring: TruncatedRing) -> np.ndarray:
        """Coefficients reduced mod p^n, as an int64 array of shape (l, d, e)."""
        return (self.array % ring.size).astype(np.int64, copy=False)

    def evaluate_at(self, a: Sequence[int], ring: TruncatedRing) -> np.ndarray:
        """The d x e matrix A(a) = sum_h a_h c[h] over Z/p^n, entries in [0, p^n)."""
        if len(a) != self.l:
            raise ValueError(f"parameter vector has length {len(a)}, expected {self.l}")
        pn = ring.size
        if max(self.l, 1) * (pn - 1) ** 2 < 1 << 63:  # inside bulk.check_evaluation_bound
            coeffs = (self.array % pn).astype(np.int64, copy=False)
        else:
            coeffs = self.array.astype(object) % pn
        x = np.array([int(v) % pn for v in a], dtype=coeffs.dtype)
        return (x @ coeffs.reshape(self.l, self.d * self.e) % pn).reshape(self.d, self.e)

    def dual(self, which: str) -> "MRep":
        """Knuth dual: an exact permutation of the tensor indices."""
        if which not in _AXES:
            raise ValueError(f"unknown dual {which!r}; expected one of {tuple(_AXES)}")
        return MRep._of(self.array.transpose(_AXES[which]))

    def direct_sum(self, other: "MRep") -> "MRep":
        l, d, e = self.shape
        out = np.zeros(np.add(self.shape, other.shape), dtype=np.result_type(self.array, other.array))
        out[:l, :d, :e] = self.array
        out[l:, d:, e:] = other.array
        return MRep._of(out)

    def scalar_multiply(self, c: int) -> "MRep":
        return MRep._of(self.array.astype(object) * c)

    def is_alternating(self) -> bool:
        """True iff l = d, c[h][i][:] = -c[i][h][:] and c[h][h][:] = 0."""
        return self.l == self.d and np.array_equal(self.array, -self.array.transpose(1, 0, 2))

    def alternating_hull(self) -> "MRep":
        """The alternating representation on V + M induced by this one.

        Parameter and domain blocks are ordered [V-block | M-block]; with
        domain element (x, a) and parameter (x', a') the multiplication is
        x A(a') - x' A(a), i.e. the stacked matrix of linear forms
        [A(z) ; -A_circ(x)] in disjoint variable sets.
        """
        l, d, e = self.shape
        out = np.zeros((d + l, d + l, e), dtype=self.array.dtype)
        out[d:, :d] = self.array
        out[:d, d:] = -self.array.transpose(1, 0, 2)
        return MRep._of(out)


@dataclass(frozen=True)
class HomotopyTriple:
    """Maps (nu, phi, psi) between the module/domain/codomain sides."""

    nu: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    psi: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, rep: MRep) -> "HomotopyTriple":
        return cls(*(tuple(map(tuple, np.eye(k, dtype=int).tolist())) for k in rep.shape))


def _matrix(name: str, m: Sequence[Sequence[int]], shape: tuple[int, int]) -> np.ndarray:
    """m as a Python-int array, checked to have the given shape."""
    if len(m) != shape[0] or any(len(row) != shape[1] for row in m):
        raise ValueError(f"{name} is not a {shape[0]} x {shape[1]} matrix")
    return np.array(m, dtype=object).reshape(shape)


def verify_homotopy(
    triple: HomotopyTriple, source: MRep, target: MRep, ring: TruncatedRing
) -> bool:
    """Check the intertwining identity of a candidate homotopy mod p^n.

    For all h, i, j': sum_j c[h][i][j] psi[j][j'] must agree with
    sum_{h', i'} nu[h][h'] phi[i][i'] c~[h'][i'][j'], in Python ints.
    """
    sides = zip(source.shape, target.shape)
    nu, phi, psi = map(_matrix, ("nu", "phi", "psi"), (triple.nu, triple.phi, triple.psi), sides)
    lhs = np.tensordot(source.array.astype(object), psi, axes=(2, 0))
    rhs = np.tensordot(nu, np.tensordot(phi, target.array.astype(object), axes=(1, 1)), axes=(1, 1))
    return bool(((lhs - rhs) % ring.size == 0).all())


def collapse(rep_sum: MRep, mode: str, blocks: Sequence[tuple[int, int, int]]) -> MRep:
    """Collapse the shared side of a direct sum back down to a single copy.

    `rep_sum` must be the direct sum of representations whose shapes are
    listed in `blocks`; `mode` names the shared side ("mod", "dom" or "cod").
    The collapsed tensor sums the block slices along the shared axis, which
    realises precomposition with the diagonal (mod/dom) or postcomposition
    with the fold map (cod).
    """
    sums = tuple(sum(b[k] for b in blocks) for k in range(3))
    if sums != rep_sum.shape:
        raise ValueError(f"blocks sum to {sums}, tensor has shape {rep_sum.shape}")
    if mode not in _SIDES:
        raise ValueError(f"unknown collapse mode {mode!r}")
    axis = _SIDES[mode]
    shared = {b[axis] for b in blocks}
    if len(shared) > 1:
        raise ValueError(f"summands do not share the {mode} side: sizes {sorted(shared)}")
    k = shared.pop() if shared else 0
    stacked = np.moveaxis(rep_sum.array.astype(object), axis, 0)
    summed = stacked.reshape(len(blocks), k, *stacked.shape[1:]).sum(axis=0)
    return MRep._of(np.moveaxis(summed, 0, axis))


def collapsed_power(rep: MRep, m: int, mode: str = "mod") -> MRep:
    """The collapsed m-th power of rep (m-fold direct sum, shared side folded)."""
    if m < 1:
        raise ValueError("power must be >= 1")
    total = rep
    for _ in range(m - 1):
        total = total.direct_sum(rep)
    return collapse(total, mode, [rep.shape] * m)


def adjoint_rep(structure_constants: Sequence) -> MRep:
    """Adjoint representation of an anticommutative algebra, a -> (x -> [x, a]).

    The input tensor c[h][i][j] with l = d = e must satisfy
    c[h][i][:] = -c[i][h][:] (which forces zero diagonal slices over Z).
    """
    rep = structure_constants
    if not isinstance(rep, MRep):
        rep = MRep.from_coeffs(rep)
    if not (rep.l == rep.d == rep.e):
        raise ValueError(f"bracket tensor must be cubical, got shape {rep.shape}")
    if not rep.is_alternating():
        raise ValueError("bracket tensor is not anticommutative")
    return rep


def _unit_census(levels: Sequence[tuple], n: int, d: int) -> dict[int, int]:
    """The level-n census of ask._levels' (k, count) pairs, restricted to parameter
    vectors that are nonzero mod p.

    The other vectors are p b with b at level n - 1, whose kernel exponent
    is d more than that of b.
    """
    units = dict(levels[n])
    for k, count in levels[n - 1]:
        units[k + d] -= count
    return {k: count for k, count in units.items() if count}


def constant_rank_check(
    rep: MRep, ring: TruncatedRing, budget: int = DEFAULT_BUDGET
) -> tuple[bool, int]:
    """Do all nonzero parameter values give matrices of one common rank over F_p?

    Returns (constant, r) with r the common rank, or the maximal rank seen
    when the family is not of constant rank. The census is ask's (plan, then _levels).
    """
    from .ask import _levels, plan

    if ring.n != 1:
        raise ValueError("constant-rank scan runs over the residue field (n = 1)")
    if rep.l == 0:
        raise ValueError("constant-rank scan needs at least one parameter")
    ranks = {rep.d - k for k in _unit_census(_levels(plan([rep], ring, budget=budget), ring)[0], 1, rep.d)}
    return (len(ranks) == 1, max(ranks))


def kminimality_check(
    rep: MRep,
    p: int,
    up_to_level: int,
    r: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, bool]:
    """Per-level necessary conditions for kernel-minimality.

    At each level n <= up_to_level, checks that every parameter vector that
    is nonzero mod p has kernel size exactly p^(n (d - r)), for a target rank
    r in 0..d. A True verdict at one level is evidence, not a proof for all
    levels; a constant-rank certificate over F_p upgrades it. Every level is read off ask's census
    at the top level (plan, then _levels), whose p^(n l) vectors the budget bounds.
    """
    from .ask import _levels, plan

    if up_to_level < 1:
        raise ValueError("need at least one level")
    if not 0 <= r <= rep.d:
        raise ValueError(f"target rank {r} is outside 0..{rep.d}, the domain rank")
    ring = TruncatedRing(p, up_to_level)
    levels = _levels(plan([rep], ring, budget=budget), ring)[0]
    return {
        n: set(_unit_census(levels, n, rep.d)) <= {n * (rep.d - r)}
        for n in range(1, up_to_level + 1)
    }
