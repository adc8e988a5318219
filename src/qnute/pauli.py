"""Exact complex-weighted Pauli-string algebra on n-qubit registers.

Index 0 of a string is the leftmost (most significant) tensor factor, so
``dense_matrix`` realizes ``kron(factor_0, factor_1, ...)`` and basis index
``k`` reads its bits most-significant-first.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError

SYMBOLS = "IXYZ"

# Dense realizations above this many qubits exceed desk-scale memory.
DENSE_QUBIT_GUARD = 14

# Canonicalization drops terms with |coefficient| below this.
COEFF_CUTOFF = 1e-14

# dense_matrix builds the gather tables of at most this many bytes of strings
# at once (an index and a phase, 24 bytes, per string and amplitude).
_DENSE_CHUNK_BYTES = 1 << 24

# Symbol code of each ASCII byte of a string (I, X, Y, Z = 0, 1, 2, 3).
_SYMBOL_CODES = np.zeros(256, dtype=np.int8)
_SYMBOL_CODES[np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)] = np.arange(4)

# Single-qubit products: (a, b) -> (phase, a*b) with phase in {1, -1, i, -i}.
_MUL: dict[tuple[str, str], tuple[complex, str]] = {}
for _s in SYMBOLS:
    _MUL[("I", _s)] = (1.0 + 0j, _s)
    _MUL[(_s, "I")] = (1.0 + 0j, _s)
    _MUL[(_s, _s)] = (1.0 + 0j, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _MUL[(_a, _b)] = (1j, _c)
    _MUL[(_b, _a)] = (-1j, _c)


class PauliString(str):
    """Tensor product of single-qubit Paulis written as a symbol string, e.g. "IXZ"."""

    def __new__(cls, symbols) -> "PauliString":
        s = super().__new__(cls, symbols)
        if not s:
            raise ValueError("Pauli string must contain at least one symbol")
        bad = set(s) - set(SYMBOLS)
        if bad:
            raise ValueError(f"invalid Pauli symbols {sorted(bad)} in {str(s)!r}")
        return s

    @property
    def support(self) -> tuple[int, ...]:
        """Qubit indices whose symbol is not the identity."""
        return tuple(i for i, ch in enumerate(self) if ch != "I")

    @property
    def y_count(self) -> int:
        return self.count("Y")


def multiply_strings(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Return (phase, r) with matrix(p) @ matrix(q) == phase * matrix(r)."""
    if len(p) != len(q):
        raise DimensionMismatchError(f"string lengths differ: {len(p)} vs {len(q)}")
    phase = 1.0 + 0j
    out = []
    for a, b in zip(p, q):
        ph, c = _MUL[(a, b)]
        phase *= ph
        out.append(c)
    return phase, PauliString("".join(out))


def gather_tables(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather form w = ph[r] * v[idx[r]] of the strings given as symbol codes.

    ``codes[r, q]`` is the position in SYMBOLS of string r's symbol on qubit
    q (I, X, Y, Z = 0, 1, 2, 3).  X and Y flip the source index's bit; the
    phase multiplies in i * (-1)^bit for each Y and (-1)^bit for each Z, with
    bit read from the source index, one qubit at a time in ascending order.
    """
    n = codes.shape[1]
    flips = (codes == 1) | (codes == 2)
    idx = np.arange(1 << n) ^ (flips @ (1 << np.arange(n - 1, -1, -1)))[:, None]
    ph = np.ones(idx.shape, dtype=complex)
    for q in range(n):
        for symbol, unit in ((2, 1j), (3, 1)):
            rows = np.flatnonzero(codes[:, q] == symbol)
            if rows.size:
                ph[rows] *= unit * (1 - 2 * ((idx[rows] >> (n - 1 - q)) & 1))
    return idx, ph


def lexicographic_codes(numbers: np.ndarray, width: int) -> np.ndarray:
    """Symbol codes of the width-qubit strings at the given lexicographic positions.

    Position k's codes are the base-4 digits of k, first qubit most
    significant, since I, X, Y, Z sort in code order.
    """
    return (numbers[:, None] >> (2 * np.arange(width - 1, -1, -1))) & 3


def string_action(s: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Gather representation of w = matrix(s) @ v as w = phases * v[indices]."""
    idx, ph = gather_tables(np.array([[SYMBOLS.index(ch) for ch in s]]))
    return idx[0], ph[0]


class PauliSum:
    """Canonicalized complex-weighted sum of equal-length Pauli strings.

    Terms are merged, sorted lexicographically by symbol sequence, and dropped
    when their coefficient magnitude falls below ``COEFF_CUTOFF``.  Instances
    are immutable and hashable.  ``has_real_matrix`` is True when the dense
    realization has no imaginary entries.
    """

    __slots__ = ("terms", "_hash", "has_real_matrix")

    def __init__(self, terms=()):
        merged: dict[PauliString, complex] = {}
        length: int | None = None
        for coeff, string in terms:
            if not isinstance(string, PauliString):
                string = PauliString(string)
            if length is None:
                length = len(string)
            elif len(string) != length:
                raise DimensionMismatchError(
                    f"mixed string lengths in sum: {length} vs {len(string)}"
                )
            merged[string] = merged.get(string, 0j) + complex(coeff)
        canon = tuple(
            (c, s) for s, c in sorted(merged.items()) if abs(c) > COEFF_CUTOFF
        )
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_hash", hash(canon))
        # A string's matrix is real for an even Y count and purely imaginary
        # for an odd one, so the check is structural and needs no dense work.
        real = all(
            abs(c.imag if s.y_count % 2 == 0 else c.real) <= COEFF_CUTOFF for c, s in canon
        )
        object.__setattr__(self, "has_real_matrix", real)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls([(coeff, "I" * n)])

    @property
    def num_qubits(self) -> int | None:
        """Register size, or None for the empty sum."""
        return len(self.terms[0][1]) if self.terms else None

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_pauli_sum(self)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + other.terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum((-c, s) for c, s in self.terms)

    def __mul__(self, scalar) -> "PauliSum":
        return PauliSum((c * scalar, s) for c, s in self.terms)

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        out = []
        for ca, sa in self.terms:
            for cb, sb in other.terms:
                phase, s = multiply_strings(sa, sb)
                out.append((ca * cb * phase, s))
        return PauliSum(out)

    def tensor(self, other: "PauliSum") -> "PauliSum":
        """Kronecker product; self supplies the leftmost factors."""
        return PauliSum(
            (ca * cb, PauliString(str(sa) + str(sb)))
            for ca, sa in self.terms
            for cb, sb in other.terms
        )


class LadderOp(Enum):
    """Single-qubit corner matrices: projectors NW/SE and shifts NE/SW."""

    NW = "NW"
    SE = "SE"
    NE = "NE"
    SW = "SW"


_LADDER_TERMS = {
    LadderOp.NW: ((0.5, "I"), (0.5, "Z")),
    LadderOp.SE: ((0.5, "I"), (-0.5, "Z")),
    LadderOp.NE: ((0.5, "X"), (0.5j, "Y")),
    LadderOp.SW: ((0.5, "X"), (-0.5j, "Y")),
}


def ladder_as_pauli(op: LadderOp) -> PauliSum:
    """One-qubit ladder/projector operator as a two-term Pauli sum."""
    return PauliSum(_LADDER_TERMS[op])


@lru_cache(maxsize=None)
def ladder_power(op: LadderOp, n: int) -> PauliSum:
    """n-fold tensor power of a ladder operator (a single corner entry)."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    out = ladder_as_pauli(op)
    for _ in range(n - 1):
        out = out.tensor(ladder_as_pauli(op))
    return out


def check_dense_size(n: int) -> None:
    """Raise CapacityError when a dense n-qubit matrix exceeds DENSE_QUBIT_GUARD."""
    if n > DENSE_QUBIT_GUARD:
        raise CapacityError(
            f"dense realization of {n} qubits exceeds the {DENSE_QUBIT_GUARD}-qubit guard"
        )


def dense_matrix(s: PauliSum, n: int) -> np.ndarray:
    """Dense 2^n x 2^n realization of a Pauli sum."""
    check_dense_size(n)
    if s.num_qubits not in (None, n):
        raise DimensionMismatchError(
            f"sum acts on {s.num_qubits} qubits, dense realization asked for {n}"
        )
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    coeffs = np.array([c for c, _ in s.terms])
    text = "".join(string for _, string in s.terms).encode("ascii")
    codes = _SYMBOL_CODES[np.frombuffer(text, dtype=np.uint8)].reshape(len(s), n)
    rows = np.arange(dim)
    chunk = max(1, _DENSE_CHUNK_BYTES // (24 * dim))
    for start in range(0, len(s), chunk):
        idx, ph = gather_tables(codes[start : start + chunk])
        # add.at adds the strings in order, so each entry sums as one string at a time would.
        np.add.at(m, (rows, idx), coeffs[start : start + chunk, None] * ph)
    return m


def decompose_dense(m: np.ndarray) -> PauliSum:
    """Expand a 2^n x 2^n matrix in the Pauli basis via Hilbert-Schmidt products."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or dim < 2:
        raise DimensionMismatchError(f"matrix dimension {dim} is not a power of two")
    check_dense_size(n)
    rows = np.arange(dim)
    letters = np.array(list(SYMBOLS))
    terms = []
    chunk = max(1, _DENSE_CHUNK_BYTES // (24 * dim))
    for start in range(0, 4**n, chunk):
        codes = lexicographic_codes(np.arange(start, min(start + chunk, 4**n)), n)
        idx, ph = gather_tables(codes)
        # Tr(P m) picks one entry per row because P has a single entry per row.
        coeffs = np.sum(ph * m[idx, rows], axis=1) / dim
        for code, coeff in zip(codes, coeffs.tolist()):
            if abs(coeff) > COEFF_CUTOFF:
                terms.append((coeff, PauliString("".join(letters[code]))))
    return PauliSum(terms)


def format_pauli_sum(s: PauliSum) -> str:
    """Text form, one term per line: "(re+imi) SYMBOLS"; "0" for the empty sum."""
    if not s.terms:
        return "0"
    return "\n".join(
        f"({c.real:.12g}{c.imag:+.12g}i) {string}" for c, string in s.terms
    )

