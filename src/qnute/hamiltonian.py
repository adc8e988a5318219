"""Finite-difference Black-Scholes generators on 2^n-point grids.

Everything here builds L = -iH, the real generator with du/dtau = L u, both
as an explicit tridiagonal operator and as a Pauli sum, plus the splitting of
a Pauli sum into evolution terms with bounded qubit windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDomainError, UnsupportedSizeError
from .pauli import LadderOp, PauliSum, check_register, ladder_as_pauli, ladder_power, span_matrix

CENTRAL = "central"
LINEAR = "linear"


@dataclass(frozen=True)
class Grid:
    """Uniform asset-price grid of 2^n points on [x0, xN]."""

    x0: float
    xN: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid needs at least one qubit, got n={self.n}")
        if not (math.isfinite(self.x0) and math.isfinite(self.xN)):
            raise ValueError(f"grid ends must be finite, got [{self.x0}, {self.xN}]")
        if not self.xN > self.x0 >= 0.0:
            raise ValueError(f"grid requires xN > x0 >= 0, got [{self.x0}, {self.xN}]")

    @property
    def num_points(self) -> int:
        return 1 << self.n

    @property
    def h(self) -> float:
        return (self.xN - self.x0) / (self.num_points - 1)

    def points(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.num_points)


@dataclass(frozen=True)
class BSParams:
    """Constant risk-free rate (1/year) and volatility (1/sqrt(year))."""

    r: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.sigma)):
            raise ValueError(f"rate and volatility must be finite, got {self.r}, {self.sigma}")
        if self.sigma < 0.0:
            raise ValueError(f"volatility must be non-negative, got {self.sigma}")
        if self.r < 0.0:
            raise ValueError(f"risk-free rate must be non-negative, got {self.r}")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Tridiagonal generator: alpha below, gamma on, beta above the diagonal."""

    alpha: np.ndarray  # length 2^n - 1, sub-diagonal entry of rows 1..2^n-1
    gamma: np.ndarray  # length 2^n
    beta: np.ndarray  # length 2^n - 1, super-diagonal entry of rows 0..2^n-2
    boundary: str


def bs_coefficients(grid: Grid, p: BSParams) -> TridiagonalOperator:
    """Central-difference generator rows: alpha_k, beta_k, gamma_k = -r - alpha_k - beta_k."""
    x = grid.points()
    diffusion = p.sigma**2 * x**2 / (2.0 * grid.h**2)
    drift = p.r * x / (2.0 * grid.h)
    alpha = diffusion - drift
    beta = diffusion + drift
    gamma = -p.r - alpha - beta
    return TridiagonalOperator(alpha[1:], gamma, beta[:-1], CENTRAL)


def apply_linear_bc(t: TridiagonalOperator, grid: Grid, p: BSParams) -> TridiagonalOperator:
    """Replace the first and last rows with the linear-boundary coefficients."""
    if t.boundary == LINEAR:
        return t
    gamma = t.gamma.copy()
    alpha = t.alpha.copy()
    beta = t.beta.copy()
    gamma[0] = -p.r - p.r * grid.x0 / grid.h
    beta[0] = p.r * grid.x0 / grid.h
    alpha[-1] = -p.r * grid.xN / grid.h
    gamma[-1] = -p.r + p.r * grid.xN / grid.h
    return TridiagonalOperator(alpha, gamma, beta, LINEAR)


def _blocks(n: int) -> tuple[PauliSum, PauliSum, PauliSum, PauliSum]:
    """Pauli forms of chi, chi^2, d1 and d2 on n qubits, prepending one qubit at a time.

    Level k puts a qubit in front of level k - 1:
      chi_k   = I (x) chi_(k-1) + 2^(k-1) SE (x) I_(k-1)
      chi^2_k = I (x) chi^2_(k-1) + SE (x) (2^k chi_(k-1) + 4^(k-1) I_(k-1))
      d1_k    = I (x) d1_(k-1) + NE (x) SW^(k-1) - SW (x) NE^(k-1)
      d2_k    = I (x) d2_(k-1) + NE (x) SW^(k-1) + SW (x) NE^(k-1)
    Only two levels are alive at a time; nothing is kept between calls.
    """
    eye = PauliSum.identity(1)
    se, ne, sw = (ladder_as_pauli(op) for op in (LadderOp.SE, LadderOp.NE, LadderOp.SW))
    chi = chi2 = se
    d1 = PauliSum([(1j, "Y")])
    d2 = PauliSum([(-2.0, "I"), (1.0, "X")])
    ne_power, sw_power = ne, sw  # NE^(k-1) and SW^(k-1)
    for k in range(2, n + 1):
        rest = PauliSum.identity(k - 1)
        inner = float(2**k) * chi + float(2 ** (2 * (k - 1))) * rest
        chi2 = eye.tensor(chi2) + se.tensor(inner)
        chi = eye.tensor(chi) + float(2 ** (k - 1)) * se.tensor(rest)
        d1 = eye.tensor(d1) + ne.tensor(sw_power) - sw.tensor(ne_power)
        d2 = eye.tensor(d2) + ne.tensor(sw_power) + sw.tensor(ne_power)
        if k < n:
            ne_power, sw_power = ne_power.tensor(ne), sw_power.tensor(sw)
    return chi, chi2, d1, d2


def chi_matrix(n: int) -> PauliSum:
    """Pauli form of diag(0, 1, ..., 2^n - 1)."""
    if n < 1:
        raise ValueError("chi_matrix requires n >= 1")
    return _blocks(n)[0]


def chi_squared_matrix(n: int) -> PauliSum:
    """Pauli form of diag(k^2)."""
    if n < 1:
        raise ValueError("chi_squared_matrix requires n >= 1")
    return _blocks(n)[1]


def d1_matrix(n: int) -> PauliSum:
    """Pauli form of the antisymmetric (0, +-1) central-difference matrix."""
    if n < 1:
        raise ValueError("d1_matrix requires n >= 1")
    return _blocks(n)[2]


def d2_matrix(n: int) -> PauliSum:
    """Pauli form of the (-2, 1) second-difference matrix."""
    if n < 1:
        raise ValueError("d2_matrix requires n >= 1")
    return _blocks(n)[3]


def build_bs_pauli(grid: Grid, p: BSParams, boundary: str = CENTRAL) -> PauliSum:
    """Black-Scholes generator L = -iH as a Pauli sum, central or linear boundary."""
    if boundary not in (CENTRAL, LINEAR):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    n = grid.n
    if boundary == LINEAR and n < 2:
        raise UnsupportedSizeError("linear boundary mode requires n >= 2 qubits")
    h = grid.h
    chi, chi2, d1, d2 = _blocks(n)
    x_sum = grid.x0 * PauliSum.identity(n) + h * chi
    x2_sum = (
        grid.x0**2 * PauliSum.identity(n)
        + (2.0 * grid.x0 * h) * chi
        + h**2 * chi2
    )
    gen = (
        (p.sigma**2 / (2.0 * h**2)) * (x2_sum @ d2)
        + (p.r / (2.0 * h)) * (x_sum @ d1)
        - p.r * PauliSum.identity(n)
    )
    if boundary == LINEAR:
        central = bs_coefficients(grid, p)
        linear = apply_linear_bc(central, grid, p)
        # Each corner entry is NW^(n-1) or SE^(n-1), then one ladder on the last qubit.
        nw = ladder_power(LadderOp.NW, n - 1)
        se = ladder_power(LadderOp.SE, n - 1)
        gen = (
            gen
            + (linear.gamma[0] - central.gamma[0]) * nw.tensor(ladder_as_pauli(LadderOp.NW))
            + (linear.beta[0] - central.beta[0]) * nw.tensor(ladder_as_pauli(LadderOp.NE))
            + (linear.alpha[-1] - central.alpha[-1]) * se.tensor(ladder_as_pauli(LadderOp.SW))
            + (linear.gamma[-1] - central.gamma[-1]) * se.tensor(ladder_as_pauli(LadderOp.SE))
        )
    return gen


@dataclass(frozen=True)
class HamiltonianTerm:
    """One evolution factor: a Pauli sum plus the qubit window it is assigned to."""

    pauli: PauliSum
    support: frozenset[int]

    @cached_property
    def generator(self) -> tuple[int, np.ndarray]:
        """The term's operator on its span (see span_matrix), built on first use."""
        return span_matrix(self.pauli)


def split_terms(hsum: PauliSum, n: int, domain_size: int) -> list[HamiltonianTerm]:
    """Split a Pauli sum into terms on windows of `domain_size` adjacent qubits.

    Windows start at qubits 0 .. n - domain_size.  A string lands in the window
    containing its support when one exists, otherwise in the window centred on
    its support midpoint (wider strings are deliberately under-covered).  Only
    non-empty windows become terms, and the terms always sum back to the input;
    at domain_size = n a non-empty sum stays one term on the whole register.
    """
    check_register(hsum, n)
    if not 1 <= domain_size <= n:
        raise InvalidDomainError(
            f"window width {domain_size} is invalid for an {n}-qubit register"
        )
    if not len(hsum):
        return []
    codes = hsum.codes
    starts = np.arange(n - domain_size + 1)
    support = codes != 0
    # An identity string counts as supported on the register's centre qubit.
    centre, some = (n - 1) // 2, support.any(axis=1)
    lo = np.where(some, support.argmax(axis=1), centre)
    hi = np.where(some, n - 1 - support[:, ::-1].argmax(axis=1), centre)
    mid = (lo + hi) / 2.0
    outside = (starts > lo[:, None]) | (hi[:, None] >= starts + domain_size)
    # The distances are exact half-integers below n, so this score orders the
    # windows by (outside, distance) and argmin's first minimum takes the lowest start.
    distance = np.abs(starts + (domain_size - 1) / 2.0 - mid[:, None])
    best = (outside * (n + 1.0) + distance).argmin(axis=1)
    return [
        HamiltonianTerm(
            PauliSum.from_codes(codes[best == s], hsum.coeffs[best == s]),
            frozenset(range(s, s + domain_size)),
        )
        for s in sorted(set(best.tolist()))
    ]
