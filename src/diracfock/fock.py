"""Fermionic Fock space over an orthonormal mode basis.

Occupation states are bitsets: bit i set means mode i is occupied, so a state
is a single Python int and the occupied indices are automatically strictly
increasing.  Vectors are finitely supported complex combinations of such
states.  Creation and annihilation carry the positional sign
(-1) ** (number of occupied modes below the touched one), which is what makes
the canonical anticommutation relations and adjointness exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "occupation_from_indices",
    "indices_from_occupation",
    "particle_number",
    "FockVector",
    "vacuum",
    "basis_state",
    "permutation_parity",
    "antisymmetrize",
    "create",
    "annihilate",
    "multiparticle_inner",
    "CarReport",
    "car_report",
    "format_fock_vector",
    "parse_fock_vector",
]


def occupation_from_indices(indices: Iterable[int]) -> int:
    """Bitset of a strictly increasing index tuple."""
    state = 0
    last = -1
    for i in indices:
        if i < 0:
            raise ValueError("mode indices must be non-negative")
        if i <= last:
            raise ValueError("mode indices must be strictly increasing")
        state |= 1 << i
        last = i
    return state


def indices_from_occupation(state: int) -> tuple[int, ...]:
    """Sorted occupied mode indices of a bitset."""
    if state < 0:
        raise ValueError("occupation bitsets are non-negative")
    out = []
    i = 0
    while state:
        if state & 1:
            out.append(i)
        state >>= 1
        i += 1
    return tuple(out)


def particle_number(state: int) -> int:
    return bin(state).count("1")


def _flip(state: int, i: int, occupied: bool) -> tuple[int, int] | None:
    """The ladder rule: flip bit i of a state in which it is set (occupied)
    or clear (not occupied), with the sign (-1) ** (number of occupied modes
    with index < i).  None when bit i is in the other position."""
    bit = 1 << i
    if bool(state & bit) != occupied:
        return None
    return state ^ bit, -1 if particle_number(state & (bit - 1)) & 1 else 1


class FockVector(Mapping):
    """Finitely supported complex vector over occupation bitsets.

    Behaves as an immutable mapping {bitset: coefficient}; exact zeros are
    pruned.  Supports +, - and scalar *.
    """

    __slots__ = ("_terms",)

    # keep numpy scalars from absorbing the mapping into an object array;
    # with this set, ndarray ops defer to __rmul__ below
    __array_ufunc__ = None

    def __init__(self, terms: Mapping[int, complex] | None = None):
        data = {}
        if terms:
            for state, coeff in terms.items():
                if state < 0:
                    raise ValueError("occupation bitsets are non-negative")
                c = complex(coeff)
                if c != 0:
                    data[int(state)] = c
        self._terms = data

    def __getitem__(self, state: int) -> complex:
        return self._terms[state]

    def __iter__(self) -> Iterator[int]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self._terms)
        for s, c in other._terms.items():
            out[s] = out.get(s, 0.0) + c
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector({s: c * scalar for s, c in self._terms.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self._terms.values()))

    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{list(indices_from_occupation(s))}: {c:.6g}" for s, c in sorted(self._terms.items())
        )
        return f"FockVector({{{parts}}})"


def vacuum() -> FockVector:
    return FockVector({0: 1.0})


def basis_state(indices: Iterable[int]) -> FockVector:
    """Normalized occupation basis vector for strictly increasing indices."""
    return FockVector({occupation_from_indices(indices): 1.0})


def permutation_parity(seq: Iterable[int]) -> int:
    """+1 for even, -1 for odd permutations, by inversion count."""
    s = list(seq)
    inversions = sum(1 for a in range(len(s)) for b in range(a + 1, len(s)) if s[a] > s[b])
    return -1 if inversions & 1 else 1


def antisymmetrize(indices: Iterable[int]) -> FockVector:
    """Antisymmetrized normalized state of an arbitrary index tuple.

    Repeated indices give the zero vector; otherwise the result is the sorted
    occupation state times the parity of the sorting permutation.
    """
    idx = list(indices)
    if any(i < 0 for i in idx):
        raise ValueError("mode indices must be non-negative")
    if len(set(idx)) != len(idx):
        return FockVector()
    order = sorted(range(len(idx)), key=idx.__getitem__)
    sign = permutation_parity(order)
    return FockVector({occupation_from_indices(sorted(idx)): float(sign)})


def _ladder(i: int, v: FockVector, occupied: bool) -> FockVector:
    if i < 0:
        raise ValueError("mode indices must be non-negative")
    out: dict[int, complex] = {}
    for state, coeff in v.items():
        flipped = _flip(state, i, occupied)
        if flipped is not None:
            new, sign = flipped
            out[new] = out.get(new, 0.0) + coeff * sign
    return FockVector(out)


def create(i: int, v: FockVector) -> FockVector:
    """Creation operator on mode i, extended linearly."""
    return _ladder(i, v, occupied=False)


def annihilate(i: int, v: FockVector) -> FockVector:
    """Annihilation operator on mode i, extended linearly."""
    return _ladder(i, v, occupied=True)


def multiparticle_inner(u: FockVector, v: FockVector) -> complex:
    """Pairing in which distinct occupation states are orthonormal.

    Different particle-number sectors are orthogonal automatically since
    their bitsets differ.
    """
    if len(u) <= len(v):
        return complex(sum(c.conjugate() * v[s] for s, c in u.items() if s in v))
    return complex(sum(u[s].conjugate() * c for s, c in v.items() if s in u))


def _ladder_map(i: int, nmodes: int, occupied: bool) -> tuple[np.ndarray, np.ndarray]:
    """(row, entry) of each column of the ladder matrix on mode i, from _flip: an
    annihilator when occupied, else a creator.  An empty column reads as row 0
    with entry 0, which adds nothing to any product."""
    dim = 1 << nmodes
    rows = np.zeros(dim, dtype=np.intp)
    entries = np.zeros(dim)
    for state in range(dim):
        flipped = _flip(state, i, occupied)
        if flipped is not None:
            rows[state], entries[state] = flipped
    return rows, entries


@dataclass(frozen=True)
class CarReport:
    """Max-norm residuals of the canonical anticommutation relations."""

    nmodes: int
    annihilate_pairs: float   # {a_i, a_j}
    create_pairs: float       # {a+_i, a+_j}
    mixed_pairs: float        # {a_i, a+_j} - delta_ij
    adjointness: float        # a_i - (a+_i)^dagger

    def max(self) -> float:
        return max(self.annihilate_pairs, self.create_pairs, self.mixed_pairs, self.adjointness)


def _anticommutator_residual(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray],
                             shift: float) -> float:
    """max over i, j of the max-norm of X_i Y_j + Y_j X_i - shift * delta_ij * I.

    x and y are stacked column maps.  Column s of XY is column row_Y[s] of X
    times entry_Y[s], so each column of the anticommutator holds three signed
    terms, XY, YX and the shifted identity at row s; each entry is the exact
    sum of the terms that share its row.
    """
    (rx, ex), (ry, ey) = x, y
    n, dim = rx.shape
    i = np.arange(n)[:, None, None]
    j = np.arange(n)[None, :, None]
    # [i, j, s]: row and value of the term of column s in X_i Y_j, in Y_j X_i
    # and in -shift delta_ij I
    rows = (rx[i, ry[None]], ry[j, rx[:, None]], np.arange(dim))
    terms = (ex[i, ry[None]] * ey[None], ey[j, rx[:, None]] * ex[:, None], np.where(i == j, -shift, 0.0))
    # an entry is the sum of the terms on its row; rows without a term are 0
    return max(float(np.max(np.abs(sum(v * (r == at) for r, v in zip(rows, terms))))) for at in rows)


def _adjoint_residual(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]) -> float:
    """max over i of the max-norm of X_i - Y_i^T, for stacked column maps: it is nonzero
    only on the entries of X_i and of Y_i^T, and Y_i^T at (r, s) is Y_i at (s, r)."""
    s = np.arange(x[0].shape[1])

    def at(m, rows, cols):  # entry (rows, cols) of each matrix of the maps m
        r, e = (np.take_along_axis(v, cols, axis=1) for v in m)
        return np.where(r == rows, e, 0.0)

    return float(max(np.max(np.abs(x[1] - at(y, s, x[0]))), np.max(np.abs(y[1] - at(x, s, y[0])))))


def car_report(nmodes: int) -> CarReport:
    """Exhaustive anticommutator check over the 2**nmodes basis.

    Every ladder matrix is a partial signed permutation, so the products run
    on per-column (row, entry) maps taken from the flip rule: O(n**2 2**n)
    work, where dense matmuls would take O(n**2 8**n).  Entries are small
    integers, so each residual equals the dense-matmul one exactly.
    """
    if not 1 <= nmodes <= 8:
        raise ValueError("car_report supports 1 to 8 modes")
    ann = [_ladder_map(i, nmodes, occupied=True) for i in range(nmodes)]
    cre = [_ladder_map(i, nmodes, occupied=False) for i in range(nmodes)]
    a, c = (tuple(map(np.stack, zip(*maps))) for maps in (ann, cre))
    return CarReport(nmodes=nmodes, annihilate_pairs=_anticommutator_residual(a, a, 0.0),
                     create_pairs=_anticommutator_residual(c, c, 0.0),
                     mixed_pairs=_anticommutator_residual(a, c, 1.0), adjointness=_adjoint_residual(a, c))


def format_fock_vector(v: FockVector) -> str:
    """Textual dump: one line per term, '[sorted indices] re im'."""
    lines = []
    for state in sorted(v):
        c = v[state]
        idx = " ".join(str(i) for i in indices_from_occupation(state))
        lines.append(f"[{idx}] {c.real:.17e} {c.imag:.17e}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_fock_vector(text: str) -> FockVector:
    """Inverse of format_fock_vector; blank lines are skipped."""
    terms: dict[int, complex] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("[") or "]" not in line:
            raise ValueError(f"line {ln}: expected '[indices] re im'")
        idx_part, _, rest = line[1:].partition("]")
        rest = rest.split()
        if len(rest) != 2:
            raise ValueError(f"line {ln}: expected two real numbers after the index list")
        try:
            state = occupation_from_indices(int(t) for t in idx_part.split())
            coeff = complex(float(rest[0]), float(rest[1]))
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from exc
        if state in terms:
            raise ValueError(f"line {ln}: duplicate occupation state")
        terms[state] = coeff
    return FockVector(terms)
