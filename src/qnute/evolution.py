"""Non-unitary Trotter stepping with per-step unitary fitting.

Each Trotter factor exp(h_m * dt) acting on a normalized state is replaced by
a product of Pauli rotations whose angles solve the real symmetric system
(S + S^T) a = b built from expectation values on the current state; the norm
change is tracked by the scalar factor c = sqrt(1 + 2 dt Re<h_m>).

The system is solved without forming S: with the rows sigma_I |psi> stacked
as V = [Re rows, Im rows], S + S^T = 2 V V^T, so the SVD of V gives its
eigenvalues 2 s^2, and those below lstsq_rel_tol times the largest are
dropped from the minimal-norm solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidDomainError,
    SingularSystemError,
    StepSizeError,
)
from .hamiltonian import HamiltonianTerm, split_terms, window_for_support
from .pauli import (
    DENSE_QUBIT_GUARD,
    SYMBOLS,
    PauliString,
    PauliSum,
    dense_matrix,
    string_action,
)
from .statevector import ScaledState, StateVector, fidelity

BASIS_FULL = "full"
BASIS_ODD_Y = "odd-y"
BASIS_AUTO = "auto"
BASIS_MODES = (BASIS_AUTO, BASIS_FULL, BASIS_ODD_Y)

STRATEGY_AUTO = "auto"
STRATEGY_SINGLE = "single"
STRATEGY_WINDOWS = "windows"
TERM_STRATEGIES = (STRATEGY_AUTO, STRATEGY_SINGLE, STRATEGY_WINDOWS)

# The c radicand must clear this before taking the square root.
C_RADICAND_FLOOR = 1e-12

# Largest stacked action arrays (an index and a complex phase per basis string
# and amplitude, 24 bytes) a basis may need; larger bases are refused.
BASIS_BYTES_LIMIT = 1 << 30


@dataclass(frozen=True)
class QnuteConfig:
    """Stepper settings: time step, step count, unitary domain and solver knobs."""

    delta_t: float
    num_steps: int
    domain_size: int
    basis_mode: str = BASIS_AUTO
    lstsq_rel_tol: float = 1e-8
    term_strategy: str = STRATEGY_AUTO

    def __post_init__(self):
        if not self.delta_t > 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {self.num_steps}")
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be at least 1, got {self.domain_size}")
        if self.basis_mode not in BASIS_MODES:
            raise ValueError(f"unknown basis mode {self.basis_mode!r}")
        if not 0.0 < self.lstsq_rel_tol < 1.0:
            raise ValueError(
                f"lstsq_rel_tol must lie in (0, 1), got {self.lstsq_rel_tol}"
            )
        if self.term_strategy not in TERM_STRATEGIES:
            raise ValueError(f"unknown term strategy {self.term_strategy!r}")


@dataclass(frozen=True)
class StepReport:
    """Diagnostics of one Trotter-step fit."""

    c: float
    a: np.ndarray
    residual: float
    step_fidelity: float


@dataclass(frozen=True)
class Trajectory:
    """States after each full time step plus per-factor fit reports."""

    states: list[ScaledState]
    reports: list[StepReport]
    measurement_count: int


class SigmaBasis:
    """Ordered rotation-generator strings over a contiguous qubit window."""

    __slots__ = ("domain", "mode", "strings", "n", "_actions")

    def __init__(self, domain: tuple[int, ...], mode: str, strings: tuple, n: int):
        self.domain = domain
        self.mode = mode
        self.strings = strings
        self.n = n
        self._actions = None

    @property
    def size(self) -> int:
        return len(self.strings)

    def action_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked gather indices and phases, one row per basis string."""
        if self._actions is None:
            idx = np.empty((self.size, 1 << self.n), dtype=np.intp)
            ph = np.empty((self.size, 1 << self.n), dtype=complex)
            for i, s in enumerate(self.strings):
                idx[i], ph[i] = string_action(s)
            self._actions = (idx, ph)
        return self._actions

    def apply_all(self, vec: np.ndarray) -> np.ndarray:
        """Matrix whose row I is string_I applied to vec."""
        idx, ph = self.action_arrays()
        return ph * vec[idx]


@lru_cache(maxsize=None)
def sigma_basis(domain: tuple[int, ...], mode: str, n: int) -> SigmaBasis:
    """All non-identity strings over the window (full), or those with odd Y count.

    Strings carry the identity on every qubit outside the window and are
    ordered lexicographically.  A basis whose action arrays would exceed
    BASIS_BYTES_LIMIT raises CapacityError before any string is built.
    """
    domain = tuple(sorted(domain))
    if not domain:
        raise InvalidDomainError("basis domain is empty")
    if domain[0] < 0 or domain[-1] >= n:
        raise InvalidDomainError(f"domain {domain} is outside a {n}-qubit register")
    if domain != tuple(range(domain[0], domain[-1] + 1)):
        raise InvalidDomainError(f"domain {domain} is not contiguous")
    if mode not in (BASIS_FULL, BASIS_ODD_Y):
        raise ValueError(f"unknown basis mode {mode!r}")
    width = len(domain)
    size = 4**width - 1 if mode == BASIS_FULL else (4**width - 2**width) // 2
    nbytes = size * (1 << n) * 24
    if nbytes > BASIS_BYTES_LIMIT:
        raise CapacityError(
            f"a {width}-qubit {mode} basis on {n} qubits has {size} strings whose "
            f"action arrays need {nbytes} bytes, over the {BASIS_BYTES_LIMIT}-byte limit"
        )
    strings = []
    for local in itertools.product(SYMBOLS, repeat=width):
        if all(ch == "I" for ch in local):
            continue
        if mode == BASIS_ODD_Y and local.count("Y") % 2 == 0:
            continue
        full = ["I"] * n
        for q, ch in zip(domain, local):
            full[q] = ch
        strings.append(PauliString("".join(full)))
    strings.sort()
    return SigmaBasis(domain, mode, tuple(strings), n)


def resolve_basis_mode(mode: str, state: StateVector, h_m: PauliSum) -> str:
    """Auto mode keeps rotations real when both state and generator are real."""
    if mode != BASIS_AUTO:
        return mode
    return BASIS_ODD_Y if (state.is_real and h_m.has_real_matrix) else BASIS_FULL


@lru_cache(maxsize=None)
def cached_dense(h_m: PauliSum, n: int) -> np.ndarray:
    return dense_matrix(h_m, n)


def _apply_generator(h_m: PauliSum, state: StateVector) -> np.ndarray:
    if h_m.num_qubits not in (None, state.n):
        raise DimensionMismatchError(
            f"generator acts on {h_m.num_qubits} qubits, state has {state.n}"
        )
    if state.n <= DENSE_QUBIT_GUARD:
        return cached_dense(h_m, state.n) @ state.amplitudes
    return h_m.apply(state.amplitudes)


def _c_from(psi: np.ndarray, hpsi: np.ndarray, delta_t: float) -> float:
    radicand = 1.0 + 2.0 * delta_t * float(np.vdot(psi, hpsi).real)
    if radicand <= C_RADICAND_FLOOR:
        raise StepSizeError(
            f"c radicand {radicand:.3e} is not positive; reduce the time step"
        )
    return math.sqrt(radicand)


def _b_from(rows: np.ndarray, hpsi: np.ndarray, c: float) -> np.ndarray:
    return (-2.0 / c) * (np.conj(rows) @ hpsi).imag


def measure_c(state: StateVector, h_m: PauliSum, delta_t: float) -> float:
    """Per-step norm estimate c = sqrt(1 + 2 dt Re<h_m>)."""
    return _c_from(state.amplitudes, _apply_generator(h_m, state), delta_t)


def measure_b(
    state: StateVector, basis: SigmaBasis, h_m: PauliSum, c: float
) -> np.ndarray:
    """Right-hand side b[I] = (-2/c) Im <psi| sigma_I h_m |psi>."""
    if not c > 0.0:
        raise ValueError(f"c must be positive, got {c}")
    return _b_from(basis.apply_all(state.amplitudes), _apply_generator(h_m, state), c)


def _solve_gram_factor(
    rows: np.ndarray, b: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, float]:
    """Minimal-norm solution of (S + S^T) a = b from the rows sigma_I |psi>.

    With V = [Re rows, Im rows] the system matrix is S + S^T = 2 V V^T, so its
    eigenpairs are the left singular vectors of V with eigenvalues 2 s^2.
    Eigenvalues below rel_tol times the largest are discarded; if none survive
    for a nonzero b, or V has no SVD, the system is reported singular.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros(rows.shape[0]), 0.0
    V = np.hstack([rows.real, rows.imag])
    try:
        U, sv, _ = np.linalg.svd(V, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"the fit factor has no SVD: {exc}") from None
    w = 2.0 * sv**2
    wmax = float(w[0]) if w.size else 0.0
    keep = w > rel_tol * wmax if wmax > 0.0 else np.zeros_like(w, dtype=bool)
    if not np.any(keep):
        raise SingularSystemError(
            "all eigenvalues of S + S^T fell below the relative cutoff"
        )
    Uk = U[:, keep]
    a = Uk @ ((Uk.T @ b) / w[keep])
    residual = float(np.linalg.norm(2.0 * (V @ (V.T @ a)) - b))
    return a, residual


def trotter_step(
    state: ScaledState, term: HamiltonianTerm, cfg: QnuteConfig
) -> tuple[ScaledState, StepReport]:
    """Fit and apply the rotation product for one factor exp(h_m * dt).

    Rotations are applied in ascending basis order, the state is renormalized,
    and the scale is multiplied by c.  The report carries the solved angles,
    the linear-system residual, and the fidelity against the exactly evolved
    and normalized step on the same input state.
    """
    psi_in = state.state
    n = psi_in.n
    if not 1 <= cfg.domain_size <= n:
        raise InvalidDomainError(
            f"domain size {cfg.domain_size} is invalid for an {n}-qubit register"
        )
    h_m = term.pauli
    hpsi = _apply_generator(h_m, psi_in)
    c = _c_from(psi_in.amplitudes, hpsi, cfg.delta_t)

    domain = window_for_support(term.support, cfg.domain_size, n)
    mode = resolve_basis_mode(cfg.basis_mode, psi_in, h_m)
    basis = sigma_basis(domain, mode, n)
    rows = basis.apply_all(psi_in.amplitudes)
    a, residual = _solve_gram_factor(rows, _b_from(rows, hpsi, c), cfg.lstsq_rel_tol)

    idx, ph = basis.action_arrays()
    psi = psi_in.amplitudes.copy()
    for i in range(basis.size):
        theta = a[i] * cfg.delta_t
        if theta == 0.0:
            continue
        psi = math.cos(theta) * psi - (1j * math.sin(theta)) * (ph[i] * psi[idx[i]])
    nrm = float(np.linalg.norm(psi))
    psi_out = StateVector(psi / nrm)

    from .exact import exact_step

    exact_out, _ = exact_step(psi_in, h_m, cfg.delta_t)
    report = StepReport(
        c=c,
        a=a,
        residual=residual,
        step_fidelity=fidelity(psi_out, exact_out),
    )
    return ScaledState(psi_out, state.scale * c * nrm), report


def evolve(
    initial: ScaledState, terms: list[HamiltonianTerm], cfg: QnuteConfig
) -> Trajectory:
    """Run num_steps full time steps, applying every term per step in order."""
    states = [initial]
    reports: list[StepReport] = []
    current = initial
    for _ in range(cfg.num_steps):
        for term in terms:
            current, report = trotter_step(current, term, cfg)
            reports.append(report)
        states.append(current)
    measurements = sum(report.a.shape[0] ** 2 for report in reports)
    return Trajectory(states, reports, measurements)


def terms_for_config(hsum: PauliSum, n: int, cfg: QnuteConfig) -> list[HamiltonianTerm]:
    """Split a generator according to the configured term strategy.

    Auto keeps one full-register term when the domain covers the register and
    falls back to unit-stride windows of the domain size otherwise.
    """
    strategy = cfg.term_strategy
    if strategy == STRATEGY_AUTO:
        strategy = STRATEGY_SINGLE if cfg.domain_size >= n else STRATEGY_WINDOWS
    if strategy == STRATEGY_SINGLE:
        return split_terms(hsum, n, STRATEGY_SINGLE)
    return split_terms(
        hsum, n, STRATEGY_WINDOWS, domain_size=cfg.domain_size, stride=1
    )


def trajectory_rows(traj: Trajectory, delta_t: float) -> list[tuple]:
    """Flatten a trajectory into (step, tau, c, cumulative_scale, residual, step_fidelity)."""
    num_steps = len(traj.states) - 1
    if num_steps == 0 or not traj.reports:
        return []
    per_step = len(traj.reports) // num_steps
    rows = []
    cumulative = traj.states[0].scale
    for i, report in enumerate(traj.reports):
        step = i // per_step + 1
        if (i + 1) % per_step == 0:
            # Step boundary: use the stored scale, which also folds norm drift.
            cumulative = traj.states[step].scale
        else:
            cumulative = cumulative * report.c
        rows.append(
            (
                step,
                step * delta_t,
                report.c,
                cumulative,
                report.residual,
                report.step_fidelity,
            )
        )
    return rows
