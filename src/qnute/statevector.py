"""Dense n-qubit statevectors with amplitude encoding and fidelity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError

# States whose imaginary parts stay below this are real: a step on a real
# generator fits them on odd-Y strings and rotates their real part alone.
REAL_STATE_TOL = 1e-12


class StateVector:
    """2^n complex amplitudes indexed by computational basis integer."""

    __slots__ = ("amplitudes", "n")

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise DimensionMismatchError("statevector must be one-dimensional")
        n = amp.shape[0].bit_length() - 1
        if amp.shape[0] != 1 << n or amp.shape[0] < 2:
            raise DimensionMismatchError(
                f"statevector length {amp.shape[0]} is not a power of two"
            )
        self.amplitudes = amp
        self.n = n

    @classmethod
    def basis(cls, n: int, k: int) -> "StateVector":
        amp = np.zeros(1 << n, dtype=complex)
        amp[k] = 1.0
        return cls(amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / nrm)

    @property
    def is_real(self) -> bool:
        return float(np.max(np.abs(self.amplitudes.imag))) <= REAL_STATE_TOL

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, amplitudes={self.amplitudes!r})"


@dataclass(frozen=True)
class ScaledState:
    """Normalized state plus the accumulated positive norm factor."""

    state: StateVector
    scale: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def encode_samples(values) -> ScaledState:
    """Amplitude-encode a real sample vector; the 2-norm becomes the scale."""
    vec = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise DegenerateInputError("sample vector contains non-finite values")
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise DegenerateInputError("sample vector is identically zero")
    return ScaledState(StateVector(vec / nrm), nrm)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized states."""
    if a.n != b.n:
        raise DimensionMismatchError(f"register sizes differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
