"""Classical ground truth: dense non-unitary evolution and fidelity statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError
from .evolution import QnuteConfig, Trajectory, cached_dense
from .hamiltonian import (
    LINEAR,
    BSParams,
    Grid,
    HamiltonianTerm,
    build_bs_pauli,
    split_terms,
)
from .market import payoff_samples
from .pauli import PauliSum
from .statevector import ScaledState, StateVector, fidelity


@dataclass(frozen=True)
class FidelityStats:
    """Mean and population standard deviation of per-step fidelities."""

    mean: float
    std: float
    per_step: np.ndarray


@lru_cache(maxsize=None)
def step_propagator(h_m: PauliSum, n: int, delta_t: float) -> np.ndarray:
    """Dense exp(h_m * delta_t) via scaling-and-squaring."""
    return scipy.linalg.expm(cached_dense(h_m, n) * delta_t)


def exact_step(
    state: StateVector, h_m: PauliSum, delta_t: float
) -> tuple[StateVector, float]:
    """Apply exp(h_m * delta_t) exactly; return the normalized state and its norm."""
    evolved = step_propagator(h_m, state.n, delta_t) @ state.amplitudes
    norm = float(np.linalg.norm(evolved))
    return StateVector(evolved / norm), norm


def exact_trajectory(
    initial: ScaledState, terms: list[HamiltonianTerm], cfg: QnuteConfig
) -> Trajectory:
    """Exactly evolved Trotter-product trajectory with cumulative true norms."""
    states = [initial]
    current = initial
    for _ in range(cfg.num_steps):
        for term in terms:
            stepped, norm = exact_step(current.state, term.pauli, cfg.delta_t)
            current = ScaledState(stepped, current.scale * norm)
        states.append(current)
    return Trajectory(states, [])


def fidelity_stats(qnute_traj: Trajectory, exact_traj: Trajectory) -> FidelityStats:
    """Per-time-step fidelities between two trajectories, initial state excluded."""
    if len(qnute_traj.states) != len(exact_traj.states):
        raise DimensionMismatchError(
            f"trajectory lengths differ: {len(qnute_traj.states)} vs {len(exact_traj.states)}"
        )
    per_step = np.array(
        [
            fidelity(a.state, b.state)
            for a, b in zip(qnute_traj.states[1:], exact_traj.states[1:])
        ]
    )
    return FidelityStats(float(per_step.mean()), float(per_step.std()), per_step)


def reference_pde_solution(contract, grid: Grid, p: BSParams, cfg: QnuteConfig) -> np.ndarray:
    """Discretization-matched prices: evolve the raw sample vector exactly.

    Uses the linear-boundary generator with the same Trotter product and time
    step as the fitted evolution, without any encoding or rescaling, so the
    result isolates unitary-fitting error from finite-difference error.
    """
    u = payoff_samples(contract, grid).astype(complex)
    gen = build_bs_pauli(grid, p, LINEAR)
    terms = split_terms(gen, grid.n, cfg.domain_size)
    propagators = [step_propagator(t.pauli, grid.n, cfg.delta_t) for t in terms]
    for _ in range(cfg.num_steps):
        for prop in propagators:
            u = prop @ u
    return u.real
