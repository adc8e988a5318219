"""Classical ground truth: dense non-unitary evolution and fidelity statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeError
from .evolution import QnuteConfig, evolve
from .hamiltonian import HamiltonianTerm
from .pauli import PauliSum, apply_span, check_register, span_matrix
from .statevector import ScaledState, StateVector, fidelity


@dataclass(frozen=True)
class FidelityStats:
    """Mean and population standard deviation of per-step fidelities."""

    mean: float
    std: float
    per_step: np.ndarray


# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision unscaled (Higham,
# SIAM J. Matrix Anal. Appl. 26 (2005) 1179, table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring.

    a is divided by 2^s, the least power that brings its 1-norm to theta_13
    or below; the approximant (v - u)^-1 (v + u), with u and v the odd and
    even parts of the Pade numerator, takes one solve; the result is squared
    s times.  The zero matrix gives the identity exactly, and a matrix
    whose 1-norm is not finite gives NaN.
    """
    eye = np.eye(a.shape[0], dtype=a.dtype)
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return eye
    if not math.isfinite(norm):
        return np.full_like(a, math.nan)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def step_propagator(generator: tuple[int, np.ndarray], delta_t: float) -> tuple[int, np.ndarray]:
    """exp(h_m * delta_t) on h_m's span (see span_matrix) by Pade-13; StepSizeError on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        prop = _expm(generator[1] * delta_t)
    if not np.isfinite(prop).all():
        raise StepSizeError(f"exp(h_m dt) overflows at dt = {delta_t:.3e}; reduce the time step")
    return generator[0], prop


def apply_normalized(prop: tuple[int, np.ndarray], amp: np.ndarray) -> tuple[np.ndarray, float]:
    """A propagator applied to amp, normalized, and its norm; StepSizeError if that is 0."""
    evolved = apply_span(prop, amp)
    norm = float(np.linalg.norm(evolved))
    if norm == 0.0:
        raise StepSizeError("exp(h_m dt) underflows to zero; reduce the time step")
    return evolved / norm, norm


def exact_step(state: StateVector, h_m: PauliSum, delta_t: float) -> tuple[StateVector, float]:
    """Apply exp(h_m * delta_t) exactly; return the normalized state and its norm."""
    check_register(h_m, state.n)
    evolved, norm = apply_normalized(step_propagator(span_matrix(h_m), delta_t), state.amplitudes)
    return StateVector(evolved), norm


def fidelity_stats(
    initial: ScaledState, terms: list[HamiltonianTerm], cfg: QnuteConfig
) -> FidelityStats:
    """Per-time-step fidelities of the fitted against the exact Trotter product.

    Both evolutions step in lockstep from initial, a factor at a time (see
    evolve), and keep only their current states; the initial state is
    excluded, so num_steps must be positive and terms nonempty.  Each term's
    propagator is built right after the term's first fit, so a failing fit
    is still reported before an overflowing propagator.
    """
    if cfg.num_steps == 0:
        raise ValueError("fidelity statistics need num_steps >= 1, got 0")
    if not terms:
        raise ValueError("fidelity statistics need at least one term, got an empty terms list")
    exact = initial.state.amplitudes
    propagators, per_step = [], []
    for _, i, _, fitted, _ in evolve(initial, terms, cfg):
        if i == len(propagators):
            propagators.append(step_propagator(terms[i].generator, cfg.delta_t))
        exact, _ = apply_normalized(propagators[i], exact)
        if i == len(terms) - 1:
            per_step.append(fidelity(fitted.state, StateVector(exact)))
    per_step = np.array(per_step)
    return FidelityStats(float(per_step.mean()), float(per_step.std()), per_step)
