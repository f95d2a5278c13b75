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
from itertools import permutations
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
    "operator_matrix",
    "CarReport",
    "car_report",
    "ProductWaveFunction",
    "antisymmetrized_values",
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


def _sign_below(state: int, i: int) -> int:
    """(-1) ** (number of occupied modes with index < i)."""
    below = state & ((1 << i) - 1)
    return -1 if particle_number(below) & 1 else 1


class FockVector(Mapping):
    """Finitely supported complex vector over occupation bitsets.

    Behaves as an immutable mapping {bitset: coefficient}; exact zeros are
    pruned.  Supports +, -, scalar *, and conjugation via .conjugate().
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

    def conjugate(self) -> "FockVector":
        return FockVector({s: c.conjugate() for s, c in self._terms.items()})

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self._terms.values()))

    def is_zero(self) -> bool:
        return not self._terms

    def sectors(self) -> set[int]:
        """Particle numbers present in the vector."""
        return {particle_number(s) for s in self._terms}

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


def _check_mode(i: int, nmodes: int | None) -> None:
    if i < 0:
        raise ValueError("mode indices must be non-negative")
    if nmodes is not None and i >= nmodes:
        raise ValueError(f"unknown mode index {i}; basis has {nmodes} modes")


def create(i: int, v: FockVector, nmodes: int | None = None) -> FockVector:
    """Creation operator on mode i, extended linearly."""
    _check_mode(i, nmodes)
    bit = 1 << i
    out: dict[int, complex] = {}
    for state, coeff in v.items():
        if state & bit:
            continue
        new = state | bit
        out[new] = out.get(new, 0.0) + coeff * _sign_below(state, i)
    return FockVector(out)


def annihilate(i: int, v: FockVector, nmodes: int | None = None) -> FockVector:
    """Annihilation operator on mode i, extended linearly."""
    _check_mode(i, nmodes)
    bit = 1 << i
    out: dict[int, complex] = {}
    for state, coeff in v.items():
        if not state & bit:
            continue
        new = state & ~bit
        out[new] = out.get(new, 0.0) + coeff * _sign_below(state, i)
    return FockVector(out)


def multiparticle_inner(u: FockVector, v: FockVector) -> complex:
    """Pairing in which distinct occupation states are orthonormal.

    Different particle-number sectors are orthogonal automatically since
    their bitsets differ.
    """
    if len(u) <= len(v):
        return complex(sum(c.conjugate() * v[s] for s, c in u.items() if s in v))
    return complex(sum(u[s].conjugate() * c for s, c in v.items() if s in u))


def operator_matrix(kind: str, i: int, nmodes: int) -> np.ndarray:
    """Dense matrix of a ladder operator on the full 2**nmodes basis.

    Basis states are ordered by their bitset value.  Entries are exact
    integers in float form.
    """
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    _check_mode(i, nmodes)
    dim = 1 << nmodes
    m = np.zeros((dim, dim))
    bit = 1 << i
    for state in range(dim):
        if kind == "create" and not state & bit:
            m[state | bit, state] = _sign_below(state, i)
        elif kind == "annihilate" and state & bit:
            m[state & ~bit, state] = _sign_below(state, i)
    return m


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


def car_report(nmodes: int) -> CarReport:
    """Exhaustive anticommutator check over the dense 2**nmodes basis."""
    if not 1 <= nmodes <= 8:
        raise ValueError("car_report supports 1 to 8 modes")
    dim = 1 << nmodes
    eye = np.eye(dim)
    ann = [operator_matrix("annihilate", i, nmodes) for i in range(nmodes)]
    cre = [operator_matrix("create", i, nmodes) for i in range(nmodes)]
    r_aa = r_cc = r_ac = r_adj = 0.0
    for i in range(nmodes):
        r_adj = max(r_adj, float(np.max(np.abs(ann[i] - cre[i].T))))
        for j in range(nmodes):
            aa = ann[i] @ ann[j] + ann[j] @ ann[i]
            cc = cre[i] @ cre[j] + cre[j] @ cre[i]
            ac = ann[i] @ cre[j] + cre[j] @ ann[i] - (eye if i == j else 0.0)
            r_aa = max(r_aa, float(np.max(np.abs(aa))))
            r_cc = max(r_cc, float(np.max(np.abs(cc))))
            r_ac = max(r_ac, float(np.max(np.abs(ac))))
    return CarReport(nmodes=nmodes, annihilate_pairs=r_aa, create_pairs=r_cc,
                     mixed_pairs=r_ac, adjointness=r_adj)


@dataclass(frozen=True)
class ProductWaveFunction:
    """Ordered product of single-particle modes, evaluated slotwise.

    ``values`` takes a table v[s, b] holding the component-b value of the
    mode assigned to slot s at that slot's point, and returns the rank-n
    component tensor of the plain (non-antisymmetrized) product.
    """

    indices: tuple[int, ...]

    def values(self, slot_values: np.ndarray) -> np.ndarray:
        v = np.asarray(slot_values)
        n = len(self.indices)
        if v.shape != (n, 4):
            raise ValueError(f"expected slot table of shape ({n}, 4)")
        out = np.ones((), dtype=np.complex128)
        for s in range(n):
            out = np.multiply.outer(out, v[s])
        return out


def antisymmetrized_values(mode_point_table: np.ndarray) -> np.ndarray:
    """Component tensor of the antisymmetrized n-particle wave function.

    ``mode_point_table[j, s, b]`` is component b of mode j evaluated at point
    s.  Returns sum over permutations sigma of sign(sigma)/sqrt(n!) times the
    product over slots s of table[sigma(s), s, :], an array of shape (4,)*n.
    """
    table = np.asarray(mode_point_table, dtype=np.complex128)
    if table.ndim != 3 or table.shape[0] != table.shape[1] or table.shape[2] != 4:
        raise ValueError("expected table of shape (n, n, 4)")
    n = table.shape[0]
    out = np.zeros((4,) * n, dtype=np.complex128)
    for perm in permutations(range(n)):
        sign = permutation_parity(perm)
        term = np.ones((), dtype=np.complex128)
        for s in range(n):
            term = np.multiply.outer(term, table[perm[s], s])
        out += sign * term
    return out / math.sqrt(math.factorial(n))


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
        if not line.startswith("["):
            raise ValueError(f"line {ln}: expected '[indices] re im'")
        close = line.index("]")
        idx_part = line[1:close].split()
        rest = line[close + 1 :].split()
        if len(rest) != 2:
            raise ValueError(f"line {ln}: expected two real numbers after the index list")
        indices = [int(t) for t in idx_part]
        state = occupation_from_indices(indices)
        coeff = complex(float(rest[0]), float(rest[1]))
        if state in terms:
            raise ValueError(f"line {ln}: duplicate occupation state")
        terms[state] = coeff
    return FockVector(terms)
