"""European option payoffs, closed-form prices, and the boundary rescaling protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolFailureError, RescaleDegeneracyError
from .evolution import QnuteConfig, evolve
from .exact import apply_normalized, step_propagator
from .hamiltonian import LINEAR, BSParams, Grid, build_bs_pauli, split_terms
from .pauli import apply_span
from .statevector import StateVector, encode_samples, fidelity

LEFT, RIGHT = "left", "right"
_CALL, _PUT = "call", "put"

# Each contract kind: its vanilla legs, (sign, _CALL or _PUT, strike index) with
# the first leg positive, and the boundary used to rescale normalized states
# back to currency units.  Kinds with a flat zero payoff at the left edge anchor
# on the right, all others on the left (kinds rising at both edges work on
# either side; left is fixed).
KINDS = {
    _CALL: (((1, _CALL, 0),), RIGHT),
    _PUT: (((1, _PUT, 0),), LEFT),
    "bull-spread": (((1, _CALL, 0), (-1, _CALL, 1)), RIGHT),
    "bear-spread": (((1, _PUT, 1), (-1, _PUT, 0)), LEFT),
    "straddle": (((1, _CALL, 0), (1, _PUT, 0)), LEFT),
    "strangle": (((1, _PUT, 0), (1, _CALL, 1)), LEFT),
}

# Boundary amplitudes below this cannot be divided by.
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class OptionContract:
    """European option payoff: a kind plus one or two positive, finite strikes."""

    kind: str
    strikes: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown contract kind {self.kind!r}, not one of {', '.join(KINDS)}")
        count = 1 + max(index for _, _, index in KINDS[self.kind][0])
        if len(self.strikes) != count:
            raise ValueError(f"{self.kind} takes {count} strike(s), got {len(self.strikes)}")
        if not all(0.0 < k < math.inf for k in self.strikes):
            raise ValueError(f"strikes must be positive and finite, got {self.strikes}")
        if len(self.strikes) == 2 and not self.strikes[0] < self.strikes[1]:
            raise ValueError(f"{self.kind} requires K1 < K2, got {self.strikes}")


def parse_contract_spec(text: str) -> OptionContract:
    """Parse "kind:K" or "kind:K1,K2", with kind a key of KINDS."""
    kind, sep, strikes_text = text.strip().partition(":")
    if not sep or not strikes_text.strip():
        raise ValueError(f"contract spec {text!r} must be kind:strike[,strike]")
    try:
        strikes = tuple(float(s) for s in strikes_text.split(","))
    except ValueError:
        raise ValueError(f"contract spec {text!r} has a malformed strike") from None
    return OptionContract(kind.strip(), strikes)


def format_contract_spec(contract: OptionContract) -> str:
    return contract.kind + ":" + ",".join(f"{k:.12g}" for k in contract.strikes)


def _fold_legs(contract: OptionContract, vanilla: dict):
    """The first leg's vanilla[_CALL or _PUT](strike), then + or - each later leg's."""
    (_, option, index), *rest = KINDS[contract.kind][0]
    total = vanilla[option](contract.strikes[index])
    for sign, option, index in rest:
        value = vanilla[option](contract.strikes[index])
        total = total + value if sign > 0 else total - value
    return total


def payoff(contract: OptionContract, x) -> np.ndarray:
    """Payoff at maturity, vectorized over asset prices."""
    x = np.asarray(x, dtype=float)
    return _fold_legs(
        contract, {_CALL: lambda k: np.maximum(x - k, 0.0), _PUT: lambda k: np.maximum(k - x, 0.0)}
    )


def payoff_samples(contract: OptionContract, grid: Grid) -> np.ndarray:
    return payoff(contract, grid.points())


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _call_price(x: float, strike: float, tau: float, p: BSParams) -> float:
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if tau == 0.0:
        return max(x - strike, 0.0)
    if x < 0.0:
        raise ValueError(f"asset price must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    vol = p.sigma * math.sqrt(tau)
    discounted = strike * math.exp(-p.r * tau)
    if vol == 0.0:
        return max(x - discounted, 0.0)
    d1 = (math.log(x / strike) + (p.r + 0.5 * p.sigma**2) * tau) / vol
    return x * _norm_cdf(d1) - discounted * _norm_cdf(d1 - vol)


def _put_price(x: float, strike: float, tau: float, p: BSParams) -> float:
    # Put-call parity.
    return _call_price(x, strike, tau, p) - x + strike * math.exp(-p.r * tau)


def analytic_price(contract: OptionContract, x: float, tau: float, p: BSParams) -> float:
    """Closed-form price at time-to-maturity tau; combinations price by linearity."""
    return _fold_legs(
        contract,
        {_CALL: lambda k: _call_price(x, k, tau, p), _PUT: lambda k: _put_price(x, k, tau, p)},
    )


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Linear fits u = a x + b through the two samples nearest each boundary."""

    a0: float
    b0: float
    aN: float
    bN: float
    x0: float
    xN: float


def boundary_coefficients(payoff_vec, grid: Grid) -> BoundaryCoeffs:
    """Slopes and intercepts of the initial data at both grid edges."""
    u = np.asarray(payoff_vec, dtype=float)
    if u.shape[0] != grid.num_points:
        raise ValueError(
            f"payoff has {u.shape[0]} samples, grid has {grid.num_points} points"
        )
    h = grid.h
    a0 = (u[1] - u[0]) / h
    aN = (u[-1] - u[-2]) / h
    return BoundaryCoeffs(
        a0=a0,
        b0=u[0] - a0 * grid.x0,
        aN=aN,
        bN=u[-1] - aN * grid.xN,
        x0=grid.x0,
        xN=grid.xN,
    )


def _side_coeffs(coeffs: BoundaryCoeffs, side: str) -> tuple[float, float, float]:
    if side == LEFT:
        return coeffs.a0, coeffs.b0, coeffs.x0
    if side == RIGHT:
        return coeffs.aN, coeffs.bN, coeffs.xN
    raise ValueError(f"unknown boundary side {side!r}")


def boundary_value(coeffs: BoundaryCoeffs, side: str, tau: float, p: BSParams) -> float:
    """Boundary price a(0) x + b(0) e^(-r tau) under linear boundary conditions."""
    a, b, x = _side_coeffs(coeffs, side)
    return a * x + b * math.exp(-p.r * tau)


def _usable_side(coeffs: BoundaryCoeffs, side: str) -> str:
    """side if its fit is not a = b = 0, else the other side; ProtocolFailureError if neither."""
    for candidate in (side, RIGHT if side == LEFT else LEFT):
        if _side_coeffs(coeffs, candidate)[:2] != (0.0, 0.0):
            return candidate
    raise ProtocolFailureError(
        "payoff is degenerate (a = b = 0) on both boundaries; rescaling is impossible"
    )


def choose_rescale_side(contract: OptionContract, coeffs: BoundaryCoeffs) -> str:
    """The kind's preferred boundary, falling back to the other if degenerate."""
    return _usable_side(coeffs, KINDS[contract.kind][1])


def rescale_factor(
    state: StateVector, coeffs: BoundaryCoeffs, side: str, tau: float, p: BSParams
) -> float:
    """Factor C* matching the state's boundary amplitude to the boundary price."""
    usable = _usable_side(coeffs, side)
    if usable != side:
        raise ValueError(f"{side} boundary is degenerate; rescale on the {usable} side")
    amplitude = state.amplitudes[0 if side == LEFT else -1]
    if abs(amplitude) < AMPLITUDE_FLOOR:
        raise RescaleDegeneracyError(
            f"{side} boundary amplitude {abs(amplitude):.3e} is too small to divide by"
        )
    return float((boundary_value(coeffs, side, tau, p) / amplitude).real)


@dataclass(frozen=True)
class PriceRun:
    """End-to-end pricing output: the curve, its reference and the rows of trajectory.csv."""

    prices: np.ndarray
    reference: np.ndarray  # the raw samples under the run's own exact propagators
    rows: list[tuple]  # (step, tau, c, cumulative_scale, residual, step_fidelity) per factor
    rescale: float


def price_run(
    contract: OptionContract, grid: Grid, p: BSParams, cfg: QnuteConfig
) -> PriceRun:
    """Payoff -> encode -> evolve under the linear-boundary generator -> rescale.

    The generator is built and split once, and each term's exact propagator
    right after its first fit.  Keeps, besides the current state, one row
    per factor: cumulative_scale is the running product of the step's c
    values, and at the step's end the state's scale, which also folds the
    norm drift.  step_fidelity compares the fitted factor with the exact one
    on its input.  The reference applies the same exact factors to the raw
    samples, unencoded, so it isolates the fitting error from the
    finite-difference error.
    """
    samples = payoff_samples(contract, grid)
    coeffs = boundary_coefficients(samples, grid)
    side = choose_rescale_side(contract, coeffs)
    state = encode_samples(samples)
    gen = build_bs_pauli(grid, p, LINEAR)
    terms = split_terms(gen, grid.n, cfg.domain_size)
    rows, propagators = [], []
    reference = np.asarray(samples, dtype=complex)
    cumulative = state.scale
    for step, i, before, state, r in evolve(state, terms, cfg):
        # Built after the fit: a bad radicand is reported before an overflow.
        if i == len(propagators):
            propagators.append(step_propagator(terms[i].generator, cfg.delta_t))
        exact, _ = apply_normalized(propagators[i], before.state.amplitudes)
        reference = apply_span(propagators[i], reference)
        cumulative = state.scale if i == len(terms) - 1 else cumulative * r.c
        rows.append((step, step * cfg.delta_t, r.c, cumulative, r.residual,
                     fidelity(state.state, StateVector(exact))))
    tau = cfg.delta_t * cfg.num_steps
    final = state.state
    cstar = rescale_factor(final, coeffs, side, tau, p)
    prices = abs(cstar) * np.abs(final.amplitudes)
    return PriceRun(prices, reference.real, rows, cstar)


def price_curve(
    contract: OptionContract, grid: Grid, p: BSParams, cfg: QnuteConfig
) -> np.ndarray:
    """Option prices at every grid point after evolving to tau = num_steps * delta_t."""
    return price_run(contract, grid, p, cfg).prices
