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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bulk
from .ring import RingMatrix, TruncatedRing

__all__ = [
    "MRep",
    "HomotopyTriple",
    "Dual",
    "collapse",
    "collapsed_power",
    "adjoint_rep",
    "verify_homotopy",
    "constant_rank_check",
    "kminimality_check",
]

Coeffs = tuple[tuple[tuple[int, ...], ...], ...]

_DUALS = ("circ", "bullet", "vee")


class Dual:
    """Names of the three Knuth duality operations."""

    CIRC = "circ"
    BULLET = "bullet"
    VEE = "vee"


def _normalise(l: int, d: int, e: int, coeffs: Sequence) -> Coeffs:
    if min(l, d, e) < 0:
        raise ValueError("tensor ranks must be nonnegative")
    if len(coeffs) != l:
        raise ValueError(f"expected {l} parameter slices, got {len(coeffs)}")
    out = []
    for h, mat in enumerate(coeffs):
        if len(mat) != d:
            raise ValueError(f"slice {h}: expected {d} rows, got {len(mat)}")
        rows = []
        for i, row in enumerate(mat):
            if len(row) != e:
                raise ValueError(f"slice {h}, row {i}: expected {e} entries, got {len(row)}")
            rows.append(tuple(int(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


@dataclass(frozen=True)
class MRep:
    """A module representation with module/domain/codomain ranks (l, d, e)."""

    l: int
    d: int
    e: int
    coeffs: Coeffs

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalise(self.l, self.d, self.e, self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "MRep":
        l = len(coeffs)
        d = len(coeffs[0]) if l else 0
        e = len(coeffs[0][0]) if l and d else 0
        return cls(l, d, e, _normalise(l, d, e, coeffs))

    @classmethod
    def zero(cls, l: int, d: int, e: int) -> "MRep":
        block = tuple(tuple(0 for _ in range(e)) for _ in range(d))
        return cls(l, d, e, tuple(block for _ in range(l)))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.l, self.d, self.e)

    def reduced_array(self, ring: TruncatedRing) -> np.ndarray:
        """Coefficients reduced mod p^n, as an int64 array of shape (l, d, e)."""
        pn = ring.size
        data = [[[c % pn for c in row] for row in mat] for mat in self.coeffs]
        return np.array(data, dtype=np.int64).reshape(self.l, self.d, self.e)

    def evaluate_at(self, a: Sequence[int], ring: TruncatedRing) -> RingMatrix:
        """The d x e matrix A(a) = sum_h a_h c[h] over Z/p^n."""
        if len(a) != self.l:
            raise ValueError(f"parameter vector has length {len(a)}, expected {self.l}")
        entries = []
        for i in range(self.d):
            row = []
            for j in range(self.e):
                row.append(ring.reduce(sum(int(a[h]) * self.coeffs[h][i][j] for h in range(self.l))))
            entries.append(tuple(row))
        return RingMatrix(self.d, self.e, tuple(entries))

    def dual(self, which: str) -> "MRep":
        """Knuth dual: an exact permutation of the tensor indices."""
        if which == Dual.CIRC:
            coeffs = tuple(
                tuple(tuple(self.coeffs[h][i][j] for j in range(self.e)) for h in range(self.l))
                for i in range(self.d)
            )
            return MRep(self.d, self.l, self.e, coeffs)
        if which == Dual.BULLET:
            coeffs = tuple(
                tuple(tuple(self.coeffs[h][i][j] for h in range(self.l)) for i in range(self.d))
                for j in range(self.e)
            )
            return MRep(self.e, self.d, self.l, coeffs)
        if which == Dual.VEE:
            coeffs = tuple(
                tuple(tuple(self.coeffs[h][i][j] for i in range(self.d)) for j in range(self.e))
                for h in range(self.l)
            )
            return MRep(self.l, self.e, self.d, coeffs)
        raise ValueError(f"unknown dual {which!r}; expected one of {_DUALS}")

    def direct_sum(self, other: "MRep") -> "MRep":
        l, d, e = self.l + other.l, self.d + other.d, self.e + other.e
        coeffs = []
        for h in range(l):
            mat = [[0] * e for _ in range(d)]
            if h < self.l:
                for i in range(self.d):
                    for j in range(self.e):
                        mat[i][j] = self.coeffs[h][i][j]
            else:
                for i in range(other.d):
                    for j in range(other.e):
                        mat[self.d + i][self.e + j] = other.coeffs[h - self.l][i][j]
            coeffs.append(mat)
        return MRep(l, d, e, _normalise(l, d, e, coeffs))

    def scalar_multiply(self, c: int) -> "MRep":
        coeffs = tuple(
            tuple(tuple(c * x for x in row) for row in mat) for mat in self.coeffs
        )
        return MRep(self.l, self.d, self.e, coeffs)

    def is_alternating(self) -> bool:
        """True iff l = d, c[h][i][:] = -c[i][h][:] and c[h][h][:] = 0."""
        if self.l != self.d:
            return False
        for h in range(self.l):
            for i in range(self.l):
                for j in range(self.e):
                    if self.coeffs[h][i][j] + self.coeffs[i][h][j] != 0:
                        return False
        return True

    def alternating_hull(self) -> "MRep":
        """The alternating representation on V + M induced by this one.

        Parameter and domain blocks are ordered [V-block | M-block]; with
        domain element (x, a) and parameter (x', a') the multiplication is
        x A(a') - x' A(a), i.e. the stacked matrix of linear forms
        [A(z) ; -A_circ(x)] in disjoint variable sets.
        """
        l, d, e = self.l, self.d, self.e
        r = d + l
        coeffs = [[[0] * e for _ in range(r)] for _ in range(r)]
        for h in range(l):
            for i in range(d):
                for j in range(e):
                    c = self.coeffs[h][i][j]
                    if c:
                        coeffs[d + h][i][j] = c
                        coeffs[i][d + h][j] = -c
        return MRep(r, r, e, _normalise(r, r, e, coeffs))


@dataclass(frozen=True)
class HomotopyTriple:
    """Maps (nu, phi, psi) between the module/domain/codomain sides."""

    nu: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    psi: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, rep: MRep) -> "HomotopyTriple":
        return cls(_identity(rep.l), _identity(rep.d), _identity(rep.e))


def _identity(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def _matrix_shape(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix in homotopy triple")
    return rows, cols


def verify_homotopy(
    triple: HomotopyTriple, source: MRep, target: MRep, ring: TruncatedRing
) -> bool:
    """Check the intertwining identity of a candidate homotopy mod p^n.

    For all h, i, j': sum_j c[h][i][j] psi[j][j'] must agree with
    sum_{h', i'} nu[h][h'] phi[i][i'] c~[h'][i'][j'].
    """
    nu_shape = _matrix_shape(triple.nu) if triple.nu else (0, target.l)
    phi_shape = _matrix_shape(triple.phi) if triple.phi else (0, target.d)
    psi_shape = _matrix_shape(triple.psi) if triple.psi else (0, target.e)
    if nu_shape != (source.l, target.l):
        raise ValueError(f"nu has shape {nu_shape}, expected {(source.l, target.l)}")
    if phi_shape != (source.d, target.d):
        raise ValueError(f"phi has shape {phi_shape}, expected {(source.d, target.d)}")
    if psi_shape != (source.e, target.e):
        raise ValueError(f"psi has shape {psi_shape}, expected {(source.e, target.e)}")
    for h in range(source.l):
        for i in range(source.d):
            for jp in range(target.e):
                lhs = sum(source.coeffs[h][i][j] * triple.psi[j][jp] for j in range(source.e))
                rhs = sum(
                    triple.nu[h][hp] * triple.phi[i][ip] * target.coeffs[hp][ip][jp]
                    for hp in range(target.l)
                    for ip in range(target.d)
                )
                if ring.reduce(lhs - rhs) != 0:
                    return False
    return True


def collapse(
    rep_sum: MRep, mode: str, blocks: Sequence[tuple[int, int, int]]
) -> MRep:
    """Collapse the shared side of a direct sum back down to a single copy.

    `rep_sum` must be the direct sum of representations whose shapes are
    listed in `blocks`; `mode` names the shared side ("mod", "dom" or "cod").
    The collapsed tensor sums the block slices along the shared axis, which
    realises precomposition with the diagonal (mod/dom) or postcomposition
    with the fold map (cod).
    """
    ls, ds, es = (sum(b[k] for b in blocks) for k in range(3))
    if (ls, ds, es) != rep_sum.shape:
        raise ValueError(f"blocks sum to {(ls, ds, es)}, tensor has shape {rep_sum.shape}")
    if mode == "mod":
        shared = {b[0] for b in blocks}
    elif mode == "dom":
        shared = {b[1] for b in blocks}
    elif mode == "cod":
        shared = {b[2] for b in blocks}
    else:
        raise ValueError(f"unknown collapse mode {mode!r}")
    if len(shared) > 1:
        raise ValueError(f"summands do not share the {mode} side: sizes {sorted(shared)}")
    k = shared.pop() if shared else 0
    c = rep_sum.coeffs
    if mode == "mod":
        offs = range(0, rep_sum.l, k) if k else []
        coeffs = [
            [
                [sum(c[o + h][i][j] for o in offs) for j in range(rep_sum.e)]
                for i in range(rep_sum.d)
            ]
            for h in range(k)
        ]
        return MRep(k, rep_sum.d, rep_sum.e, _normalise(k, rep_sum.d, rep_sum.e, coeffs))
    if mode == "dom":
        offs = range(0, rep_sum.d, k) if k else []
        coeffs = [
            [
                [sum(c[h][o + i][j] for o in offs) for j in range(rep_sum.e)]
                for i in range(k)
            ]
            for h in range(rep_sum.l)
        ]
        return MRep(rep_sum.l, k, rep_sum.e, _normalise(rep_sum.l, k, rep_sum.e, coeffs))
    offs = range(0, rep_sum.e, k) if k else []
    coeffs = [
        [
            [sum(c[h][i][o + j] for o in offs) for j in range(k)]
            for i in range(rep_sum.d)
        ]
        for h in range(rep_sum.l)
    ]
    return MRep(rep_sum.l, rep_sum.d, k, _normalise(rep_sum.l, rep_sum.d, k, coeffs))


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
    rep = MRep.from_coeffs(structure_constants) if not isinstance(
        structure_constants, MRep
    ) else structure_constants
    if not (rep.l == rep.d == rep.e):
        raise ValueError(f"bracket tensor must be cubical, got shape {rep.shape}")
    if not rep.is_alternating():
        raise ValueError("bracket tensor is not anticommutative")
    return rep


def _unit_census(censuses: list[dict[int, int]], n: int, d: int) -> dict[int, int]:
    """The level-n census restricted to parameter vectors that are nonzero mod p.

    The other vectors are p b with b at level n - 1, whose kernel exponent
    is d more than that of b.
    """
    units = dict(censuses[n])
    for k, count in censuses[n - 1].items():
        units[k + d] -= count
    return {k: count for k, count in units.items() if count}


def constant_rank_check(
    rep: MRep, ring: TruncatedRing, budget: int = 10**7
) -> tuple[bool, int]:
    """Do all nonzero parameter values give matrices of one common rank over F_p?

    Returns (constant, r) with r the common rank, or the maximal rank seen
    when the family is not of constant rank.
    """
    if ring.n != 1:
        raise ValueError("constant-rank scan runs over the residue field (n = 1)")
    if rep.l == 0:
        raise ValueError("constant-rank scan needs at least one parameter")
    if ring.p**rep.l > budget:
        raise bulk.BudgetExceededError(ring.p**rep.l, budget)
    censuses = bulk.orbit_censuses(rep.reduced_array(ring), ring.p, 1)
    ranks = {rep.d - k for k in _unit_census(censuses, 1, rep.d)}
    return (len(ranks) == 1, max(ranks))


def kminimality_check(
    rep: MRep,
    p: int,
    up_to_level: int,
    r: int,
    budget: int = 10**7,
) -> dict[int, bool]:
    """Per-level necessary conditions for kernel-minimality.

    At each level n <= up_to_level, checks that every parameter vector that
    is nonzero mod p has kernel size exactly p^(n (d - r)). A True verdict at
    one level is evidence, not a proof for all levels; a constant-rank
    certificate over F_p upgrades it.
    """
    if up_to_level < 1:
        raise ValueError("need at least one level")
    for n in range(1, up_to_level + 1):
        if p ** (n * rep.l) > budget:
            raise bulk.BudgetExceededError(p ** (n * rep.l), budget, level=n)
    ring = TruncatedRing(p, up_to_level)
    censuses = bulk.orbit_censuses(rep.reduced_array(ring), p, up_to_level)
    return {
        n: set(_unit_census(censuses, n, rep.d)) <= {n * (rep.d - r)}
        for n in range(1, up_to_level + 1)
    }
