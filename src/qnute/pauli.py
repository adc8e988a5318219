"""Exact complex-weighted Pauli-string algebra on n-qubit registers.

Index 0 of a string is the leftmost (most significant) tensor factor, so
``dense_matrix`` realizes ``kron(factor_0, factor_1, ...)`` and basis index
``k`` reads its bits most-significant-first.

A PauliSum keeps its strings as int64 keys of symbol codes (I, X, Y, Z =
0..3) and its coefficients as one complex array, and its algebra works on
whole arrays.  Every coefficient is still computed with the expressions of
term-by-term string algebra, in its order, so it keeps the same bits, signed
zeros included: products are Python's complex products, one rounding per
operation; equal strings are summed onto zero in the order they arise, which
leaves no zero negative, so a product's phase needs only its power of i.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import CapacityError, DimensionMismatchError, UnsupportedSizeError

SYMBOLS = "IXYZ"

# Dense realizations above this many qubits exceed desk-scale memory.
DENSE_QUBIT_GUARD = 14

# Canonicalization drops terms with |coefficient| at or below this.
COEFF_CUTOFF = 1e-14

# A string's sort key holds its symbol codes as base-4 digits in an int64.
KEY_QUBIT_LIMIT = 31

# dense_matrix builds the gather tables of at most this many bytes of strings
# at once (an index and a phase, 24 bytes, per string and amplitude).
_DENSE_CHUNK_BYTES = 1 << 24

# Symbol code of each ASCII byte of a string (I, X, Y, Z = 0, 1, 2, 3), and back.
_SYMBOL_CODES = np.zeros(256, dtype=np.int8)
_SYMBOL_CODES[np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)] = np.arange(4)
_LETTERS = np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)

# Single-qubit products on symbol codes: a times b is a ^ b times i^_PHASE_POWER[4 a + b].
_PHASE_POWER = np.zeros(16, dtype=np.int8)
for _a, _b in ((1, 2), (2, 3), (3, 1)):  # XY = iZ, YZ = iX, ZX = iY
    _PHASE_POWER[4 * _a + _b] = 1
    _PHASE_POWER[4 * _b + _a] = 3
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _pair_phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phases of the products of a's rows (outer) with b's rows (inner), flattened.

    a and b are symbol-code arrays of one width.  A phase has magnitude 1,
    so its signed zeros can reach only a product component that is zero,
    and PauliSum adds every coefficient onto 0.0, which clears that sign:
    the phase needs only its power of i, not its bits.
    """
    power = np.zeros((a.shape[0], b.shape[0]), dtype=np.int8)  # at most 3 * 31
    for q in range(a.shape[1]):
        power += _PHASE_POWER[4 * a[:, q, None] + b[None, :, q]]
    return _POWERS_OF_I[(power & 3).ravel()]


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise (broadcast) with the bits of Python's complex products.

    Python forms (ar br - ai bi) + i (ar bi + ai br); here each product,
    difference and sum is a numpy call of its own, so every one is rounded
    and none is fused.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _keys(codes: np.ndarray) -> np.ndarray:
    """Sort keys of code rows: base-4 numbers, first qubit most significant.

    The inverse of lexicographic_codes.
    """
    return codes @ (np.int64(4) ** np.arange(codes.shape[1] - 1, -1, -1))


def _check_width(n: int) -> None:
    if n > KEY_QUBIT_LIMIT:
        raise UnsupportedSizeError(
            f"Pauli sums on {n} qubits exceed the {KEY_QUBIT_LIMIT}-qubit key width"
        )


# A product or sum beyond the float range gives inf or NaN, which PauliSum
# refuses with a ValueError; numpy's warnings would only come before it.  Every
# public operation that does arithmetic runs under this.  None of them calls
# another: before numpy 2.0 an errstate keeps one saved state, which a nested
# entry would overwrite.
_quiet = np.errstate(over="ignore", invalid="ignore")


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


class PauliSum:
    """Canonicalized complex-weighted sum of equal-length Pauli strings.

    The strings travel through the algebra as 1-D int64 keys: string r's
    symbol codes (I, X, Y, Z = 0..3) are the base-4 digits of key r, first
    qubit most significant, so keys sort in lexicographic string order.
    ``coeffs`` holds the complex coefficients and ``codes`` the int8 symbol
    codes, one row per string, derived from the keys on first read; both
    are read-only.  Equal strings are merged, rows are sorted, and rows
    whose coefficient magnitude is at or below ``COEFF_CUTOFF`` are dropped;
    a non-finite coefficient raises ValueError.  The empty sum has no
    qubits.  Instances are immutable and hashable.  ``has_real_matrix`` is
    True when the dense realization has no imaginary entries.
    """

    __slots__ = ("_keys", "_n", "coeffs", "_hash", "_codes", "_real")

    # numpy scalars on the left of * leave the product to __rmul__.
    __array_ufunc__ = None

    @_quiet
    def __init__(self, terms=()):
        strings, coeffs = [], []
        for coeff, string in terms:
            string = str(string)
            if not string:
                raise ValueError("Pauli string must contain at least one symbol")
            bad = set(string).difference(SYMBOLS)
            if bad:
                raise ValueError(f"invalid Pauli symbols {sorted(bad)} in {string!r}")
            if strings and len(string) != len(strings[0]):
                raise DimensionMismatchError(
                    f"mixed string lengths in sum: {len(strings[0])} vs {len(string)}"
                )
            strings.append(string)
            coeffs.append(complex(coeff))
        n = len(strings[0]) if strings else 0
        _check_width(n)
        text = "".join(strings).encode("ascii")
        codes = _SYMBOL_CODES[np.frombuffer(text, dtype=np.uint8)].reshape(len(strings), n)
        self._canonicalize(_keys(codes), np.array(coeffs, dtype=complex), n)

    @classmethod
    @_quiet
    def from_codes(cls, codes, coeffs) -> "PauliSum":
        """The sum of strings codes[r] (symbol codes, I, X, Y, Z = 0..3) weighted by coeffs[r]."""
        codes = np.asarray(codes)
        coeffs = np.asarray(coeffs, dtype=complex)
        if codes.ndim != 2 or coeffs.shape != codes.shape[:1]:
            raise DimensionMismatchError(
                f"expected (T, n) codes and T coefficients, got {codes.shape} and {coeffs.shape}"
            )
        if len(codes) and not codes.shape[1]:
            raise ValueError("Pauli string must contain at least one symbol")
        if codes.size and not ((codes >= 0) & (codes <= 3)).all():
            raise ValueError("symbol codes must lie in 0..3")
        _check_width(codes.shape[1])
        return cls._from_keys(_keys(codes.astype(np.int64)), coeffs, codes.shape[1])

    @classmethod
    def _from_keys(cls, keys: np.ndarray, coeffs: np.ndarray, n: int) -> "PauliSum":
        out = cls.__new__(cls)
        out._canonicalize(keys, coeffs, n)
        return out

    def _canonicalize(self, keys: np.ndarray, coeffs: np.ndarray, n: int) -> None:
        """Set the rows of the sum of (keys[r], coeffs[r]) on n qubits.

        np.add.at adds in row order onto zeros, as a dict merge adds each
        string's coefficients onto 0j, so a lone -0.0 becomes 0.0 there too.
        """
        unique = np.sort(keys)
        if len(unique) > 1:
            unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
        merged = np.zeros(len(unique), dtype=complex)
        np.add.at(merged, unique.searchsorted(keys), coeffs)
        magnitude = np.hypot(merged.real, merged.imag)
        # max propagates NaN, so one reduction finds any non-finite magnitude.
        if not math.isfinite(np.maximum.reduce(magnitude, initial=0.0)):
            raise ValueError("Pauli sum coefficients and their magnitudes must be finite")
        if np.minimum.reduce(magnitude, initial=math.inf) <= COEFF_CUTOFF:
            keep = magnitude > COEFF_CUTOFF
            unique, merged = unique[keep], merged[keep]
        n = n if len(merged) else 0
        merged.setflags(write=False)
        object.__setattr__(self, "_keys", unique)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "coeffs", merged)
        object.__setattr__(self, "_hash", hash((n, unique.tobytes(), merged.tobytes())))
        object.__setattr__(self, "_codes", None)
        object.__setattr__(self, "_real", None)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    def __reduce__(self):
        return PauliSum.from_codes, (self.codes, self.coeffs)

    @classmethod
    def identity(cls, n: int) -> "PauliSum":
        if n < 1:
            raise ValueError("Pauli string must contain at least one symbol")
        _check_width(n)
        return cls._from_keys(np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex), n)

    @property
    def codes(self) -> np.ndarray:
        """Symbol codes, one int8 row per string (shape (0, 0) for the empty sum)."""
        if self._codes is None:
            codes = lexicographic_codes(self._keys, self._n).astype(np.int8)
            codes.setflags(write=False)
            object.__setattr__(self, "_codes", codes)
        return self._codes

    @property
    def has_real_matrix(self) -> bool:
        """True when the dense realization has no imaginary entries.

        A string's matrix is real for an even Y count and purely imaginary
        for an odd one, so the check is structural and needs no dense work.
        """
        if self._real is None:
            odd_y = (self.codes == 2).sum(axis=1) & 1
            imaginary = np.abs(np.where(odd_y, self.coeffs.real, self.coeffs.imag))
            object.__setattr__(self, "_real", bool((imaginary <= COEFF_CUTOFF).all()))
        return self._real

    @property
    def num_qubits(self) -> int | None:
        """Register size, or None for the empty sum."""
        return self._n or None

    @property
    def terms(self) -> tuple[tuple[complex, str], ...]:
        """(coefficient, string) pairs in canonical order, for printing and tests."""
        n = self._n
        text = _LETTERS[self.codes].tobytes().decode("ascii")
        strings = [text[i : i + n] for i in range(0, len(text), n or 1)]
        return tuple(zip(self.coeffs.tolist(), strings))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliSum)
            and self._hash == other._hash
            and self._n == other._n
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_pauli_sum(self)

    def _width_with(self, other: "PauliSum") -> int:
        """Register size of a sum or product with other (0 when both are empty)."""
        if self._n and other._n and self._n != other._n:
            raise DimensionMismatchError(
                f"mixed string lengths in sum: {self._n} vs {other._n}"
            )
        return self._n or other._n

    @_quiet
    def __add__(self, other: "PauliSum") -> "PauliSum":
        n = self._width_with(other)
        keys = np.concatenate([self._keys, other._keys])
        return PauliSum._from_keys(keys, np.concatenate([self.coeffs, other.coeffs]), n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum._from_keys(self._keys, -self.coeffs, self._n)

    @_quiet
    def __mul__(self, scalar) -> "PauliSum":
        product = _cmul(self.coeffs, complex(scalar))
        return PauliSum._from_keys(self._keys, product, self._n)

    __rmul__ = __mul__

    @_quiet
    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if not (len(self) and len(other)):
            return PauliSum._from_keys(self._keys[:0], self.coeffs[:0], 0)
        n = self._width_with(other)
        # Each qubit's product symbol is the XOR of the codes, so keys XOR too.
        keys = (self._keys[:, None] ^ other._keys).ravel()
        products = _cmul(self.coeffs[:, None], other.coeffs).ravel()
        phases = _pair_phases(self.codes, other.codes)
        return PauliSum._from_keys(keys, _cmul(products, phases), n)

    @_quiet
    def tensor(self, other: "PauliSum") -> "PauliSum":
        """Kronecker product; self supplies the leftmost factors."""
        n = self._n + other._n
        _check_width(n)
        keys = ((self._keys[:, None] << 2 * other._n) | other._keys).ravel()
        coeffs = _cmul(self.coeffs[:, None], other.coeffs).ravel()
        return PauliSum._from_keys(keys, coeffs, n)


class LadderOp(Enum):
    """Single-qubit corner matrices: projectors NW/SE and shifts NE/SW."""

    NW = "NW"
    SE = "SE"
    NE = "NE"
    SW = "SW"


# Keys (I, X, Y, Z = 0..3) and coefficients of each operator's two strings.
_LADDER_ROWS = {
    LadderOp.NW: ((0, 3), (0.5, 0.5)),
    LadderOp.SE: ((0, 3), (0.5, -0.5)),
    LadderOp.NE: ((1, 2), (0.5, 0.5j)),
    LadderOp.SW: ((1, 2), (0.5, -0.5j)),
}


def ladder_as_pauli(op: LadderOp) -> PauliSum:
    """One-qubit ladder/projector operator as a two-term Pauli sum."""
    keys, coeffs = _LADDER_ROWS[op]
    return PauliSum._from_keys(np.array(keys, dtype=np.int64), np.array(coeffs, dtype=complex), 1)


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


def check_register(s: PauliSum, n: int) -> None:
    """Raise DimensionMismatchError unless s is empty or acts on n qubits."""
    if s.num_qubits not in (None, n):
        raise DimensionMismatchError(f"sum acts on {s.num_qubits} qubits, the register has {n}")


def dense_matrix(s: PauliSum, n: int) -> np.ndarray:
    """Dense 2^n x 2^n realization of a Pauli sum."""
    check_dense_size(n)
    check_register(s, n)
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    codes, coeffs = s.codes, s.coeffs
    rows = np.arange(dim)
    chunk = max(1, _DENSE_CHUNK_BYTES // (24 * dim))
    for start in range(0, len(s), chunk):
        idx, ph = gather_tables(codes[start : start + chunk])
        # add.at adds the strings in order, so each entry sums as one string at a time would.
        np.add.at(m, (rows, idx), coeffs[start : start + chunk, None] * ph)
    return m


def span_matrix(s: PauliSum) -> tuple[int, np.ndarray]:
    """s = I (x) M (x) I as (lo, M), M dense on the qubits lo..hi-1 s acts on (qubit 0 if none).

    Narrowing keeps the keys distinct and in order: M has dense_matrix(s, n)'s bits.
    """
    acted = np.flatnonzero(s.codes.any(axis=0))
    lo, hi = (int(acted[0]), int(acted[-1]) + 1) if acted.size else (0, 1)
    return lo, dense_matrix(PauliSum.from_codes(s.codes[:, lo:hi], s.coeffs), hi - lo)


def apply_span(op: tuple[int, np.ndarray], v: np.ndarray) -> np.ndarray:
    """(I (x) M (x) I) v for op = (lo, M) (see span_matrix), as one matmul over the span."""
    lo, m = op
    return (m @ v.reshape(1 << lo, len(m), -1)).reshape(-1)


@_quiet
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
    keys, coeffs = [], []
    chunk = max(1, _DENSE_CHUNK_BYTES // (24 * dim))
    for start in range(0, 4**n, chunk):
        numbers = np.arange(start, min(start + chunk, 4**n))
        idx, ph = gather_tables(lexicographic_codes(numbers, n))
        # Tr(P m) picks one entry per row because P has a single entry per row.
        c = np.sum(ph * m[idx, rows], axis=1) / dim
        # A NaN magnitude compares false, so PauliSum sees, and refuses, it.
        keep = ~(np.hypot(c.real, c.imag) <= COEFF_CUTOFF)
        keys.append(numbers[keep])
        coeffs.append(c[keep])
    return PauliSum._from_keys(np.concatenate(keys), np.concatenate(coeffs), n)


def format_pauli_sum(s: PauliSum) -> str:
    """Text form, one term per line: "(re+imi) SYMBOLS"; "0" for the empty sum."""
    if not len(s):
        return "0"
    return "\n".join(
        f"({c.real:.12g}{c.imag:+.12g}i) {string}" for c, string in s.terms
    )

