"""Non-unitary Trotter stepping with per-step unitary fitting.

Each Trotter factor exp(h_m * dt) acting on a normalized state is replaced by
a product of Pauli rotations whose angles solve the real symmetric system
(S + S^T) a = b built from expectation values on the current state; the norm
change is tracked by the scalar factor c = sqrt(1 + 2 dt Re<h_m>).

The system is solved without forming S: with the rows sigma_I |psi> stacked
as V = [Re rows, Im rows], S + S^T = 2 V V^T, so the SVD of V gives its
eigenvalues 2 s^2, and those below LSTSQ_REL_TOL times the largest are
dropped from the minimal-norm solution.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InvalidDomainError, SingularSystemError, StepSizeError
from .hamiltonian import HamiltonianTerm
from .pauli import PauliSum, dense_matrix, gather_tables
from .statevector import ScaledState, StateVector, fidelity

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

# The c radicand must clear this before taking the square root.
C_RADICAND_FLOOR = 1e-12

# Fit eigenvalues below this fraction of the largest are dropped.
LSTSQ_REL_TOL = 1e-8

# Largest gather tables a basis may keep (per basis string and amplitude: an
# index, a complex phase and a rotation gain, 32 bytes odd-Y and 40 bytes
# full); larger bases are refused.
BASIS_BYTES_LIMIT = 1 << 30

# Sizes, in entries, of the fit factors V whose step (generator matvec, fit
# solve and exact-step diagnostic) runs on one numpy OpenBLAS thread.  The SVD
# sets the range: on a 2-core host one thread is faster in it (2016 x 128:
# 22 vs 42 ms) and threads pay off above it (32640 x 512: 2.8 vs 2.0 s).
# Below it the SVD never starts a BLAS thread, so pinning would only make a
# forked sweep worker start OpenBLAS's thread pool, which spins ~0.1 s.
SERIAL_BLAS_MIN_ENTRIES = 1 << 11
SERIAL_BLAS_MAX_ENTRIES = 1 << 20


@dataclass(frozen=True)
class QnuteConfig:
    """Stepper settings: time step, step count and unitary domain."""

    delta_t: float
    num_steps: int
    domain_size: int

    def __post_init__(self):
        if not self.delta_t > 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {self.num_steps}")
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be at least 1, got {self.domain_size}")


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


def check_basis_size(width: int, odd_y: bool, n: int) -> int:
    """String count of a width-qubit fit basis; CapacityError if over BASIS_BYTES_LIMIT."""
    size = (4**width - 2**width) // 2 if odd_y else 4**width - 1
    nbytes = size * (1 << n) * (32 if odd_y else 40)
    if nbytes > BASIS_BYTES_LIMIT:
        raise CapacityError(
            f"a {width}-qubit {'odd-y' if odd_y else 'full'} basis on {n} qubits has "
            f"{size} strings whose gather tables need {nbytes} bytes, over the "
            f"{BASIS_BYTES_LIMIT}-byte limit"
        )
    return size


@lru_cache(maxsize=None)
def sigma_basis(
    domain: tuple[int, ...], odd_y: bool, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices, phases and rotation gains of the fit strings, one row each.

    The strings are all non-identity strings over the window, or those with
    an odd Y count, with the identity on every qubit outside it.  Rows are
    the window's symbol codes (I, X, Y, Z = 0..3, first qubit most
    significant) in ascending order, which is lexicographic string order.
    Row I acts as sigma_I v = ph[I] * v[idx[I]].  The gain -i * ph is the
    factor of the sin term of a rotation; on an odd-Y basis every phase is
    +-i, so the gain is the real ph.imag.  A basis whose tables would exceed
    BASIS_BYTES_LIMIT raises CapacityError before any table is built.
    """
    domain = tuple(sorted(domain))
    if not domain:
        raise InvalidDomainError("basis domain is empty")
    if domain[0] < 0 or domain[-1] >= n:
        raise InvalidDomainError(f"domain {domain} is outside a {n}-qubit register")
    if domain != tuple(range(domain[0], domain[-1] + 1)):
        raise InvalidDomainError(f"domain {domain} is not contiguous")
    width = len(domain)
    size = check_basis_size(width, odd_y, n)
    digits = (np.arange(1, 4**width)[:, None] >> np.arange(2 * width - 2, -1, -2)) & 3
    if odd_y:
        digits = digits[(digits == 2).sum(axis=1) % 2 == 1]
    codes = np.zeros((size, n), dtype=np.int8)
    codes[:, domain[0] : domain[-1] + 1] = digits
    idx, ph = gather_tables(codes)
    return idx, ph, (ph.imag.copy() if odd_y else -1j * ph)


@lru_cache(maxsize=None)
def cached_dense(h_m: PauliSum, n: int) -> np.ndarray:
    return dense_matrix(h_m, n)


def _apply_generator(h_m: PauliSum, state: StateVector) -> np.ndarray:
    return cached_dense(h_m, state.n) @ state.amplitudes


def _c_from(psi: np.ndarray, hpsi: np.ndarray, delta_t: float) -> float:
    radicand = 1.0 + 2.0 * delta_t * float(np.vdot(psi, hpsi).real)
    if radicand <= C_RADICAND_FLOOR:
        raise StepSizeError(
            f"c radicand {radicand:.3e} is not positive; reduce the time step"
        )
    return math.sqrt(radicand)


def _b_from(rows: np.ndarray, hpsi: np.ndarray, c: float) -> np.ndarray:
    # Im(rows @ conj(hpsi)) = -Im(conj(rows) @ hpsi), with no factor-sized conj copy.
    return (2.0 / c) * (rows @ np.conj(hpsi)).imag


@lru_cache(maxsize=None)
def _step_buffer(shape: tuple[int, int], dtype: type) -> np.ndarray:
    """Work array of a fit step, one per factor shape and dtype, reused by every step.

    The gathered rows and the fit factor V are written into these instead of
    into fresh factor-sized arrays.  A run holds one pair per basis shape it
    fits; each step held arrays of these sizes at its peak anyway.  Reuse
    keeps glibc from mapping fresh pages for them step after step: without
    it, 100 steps of price at n = D = 6 took 83.6k minor page faults instead
    of 13.9k.
    """
    return np.empty(shape, dtype)


@lru_cache(maxsize=None)
def _openblas_threads():
    """numpy's OpenBLAS (get, set) thread-count functions, or None.

    They are looked up through numpy's core extension module, whose
    dependencies dlsym also searches.  Under another BLAS the lookup returns
    None.
    """
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _serial_blas(entries: int):
    """Run the block on one OpenBLAS thread for a matrix of serial size.

    Serial sizes run from SERIAL_BLAS_MIN_ENTRIES to SERIAL_BLAS_MAX_ENTRIES.
    The prior thread count is restored on exit.  The count is process-wide, so
    BLAS calls made meanwhile by other threads of the process run serial too.
    """
    serial = SERIAL_BLAS_MIN_ENTRIES <= entries <= SERIAL_BLAS_MAX_ENTRIES
    threads = _openblas_threads() if serial else None
    if threads is None:
        yield
        return
    get, put = threads
    prior = get()
    put(1)
    try:
        yield
    finally:
        put(prior)


def _solve_gram_factor(
    rows: np.ndarray, b: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, float]:
    """Minimal-norm solution of (S + S^T) a = b from the rows sigma_I |psi>.

    With V = [Re rows, Im rows] the system matrix is S + S^T = 2 V V^T, so its
    eigenpairs are the left singular vectors of V with eigenvalues 2 s^2.
    Eigenvalues below rel_tol times the largest are discarded; if none survive
    for a nonzero b, or V has no SVD, the system is reported singular.  A
    mid-sized V is decomposed on one OpenBLAS thread (see _serial_blas).
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros(rows.shape[0]), 0.0
    V = np.concatenate(
        [rows.real, rows.imag], axis=1, out=_step_buffer((rows.shape[0], 2 * rows.shape[1]), float)
    )
    try:
        with _serial_blas(V.size):
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

    The rotations act on the term's own qubit window, over odd-Y strings when
    the state and h_m are both real (the rotations then stay real) and over
    all strings otherwise.  They are applied in ascending basis order, the
    state is renormalized, and the scale is multiplied by c.  The report
    carries the solved angles, the linear-system residual, and the fidelity
    against the exactly evolved and normalized step on the same input state.
    A term whose support is wider than cfg.domain_size raises
    InvalidDomainError.  For a fit factor of serial size the whole step runs
    on one OpenBLAS thread (see _serial_blas).  The rows and V go into work
    arrays shared by all steps of the process (see _step_buffer), so two
    threads must not run steps at once.
    """
    psi_in = state.state
    h_m = term.pauli
    if len(term.support) > cfg.domain_size:
        raise InvalidDomainError(
            f"term on {len(term.support)} qubits exceeds domain_size {cfg.domain_size}"
        )
    odd_y = psi_in.is_real and h_m.has_real_matrix
    idx, ph, gain = sigma_basis(tuple(sorted(term.support)), odd_y, psi_in.n)
    amp = psi_in.amplitudes
    # The fit factor V = [Re rows, Im rows] has 2 * idx.size entries.
    with _serial_blas(2 * idx.size):
        hpsi = _apply_generator(h_m, psi_in)
        c = _c_from(amp, hpsi, cfg.delta_t)
        # idx is in range; "clip" writes into the buffer directly, "raise" via a copy.
        rows = np.take(amp, idx, out=_step_buffer(idx.shape, complex), mode="clip")
        np.multiply(ph, rows, out=rows)
        a, residual = _solve_gram_factor(rows, _b_from(rows, hpsi, c), LSTSQ_REL_TOL)

        # A real state on an odd-Y basis rotates in real arithmetic, with the
        # same roundings as the complex loop; psi is made complex again before the
        # norm and the division, whose roundings would differ on a real array.
        psi = amp.copy() if amp.imag.any() else amp.real.copy()
        for theta, g, ix in zip((a * cfg.delta_t).tolist(), gain, idx):
            if theta == 0.0:
                continue
            psi = math.cos(theta) * psi + math.sin(theta) * (g * psi[ix])
        psi = psi.astype(complex, copy=False)
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
    return Trajectory(states, reports)


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
