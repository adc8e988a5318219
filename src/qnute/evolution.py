"""Non-unitary Trotter stepping with per-step unitary fitting.

Each Trotter factor exp(h_m * dt) acting on a normalized state is replaced by
a product of Pauli rotations whose angles solve the real symmetric system
(S + S^T) a = b built from expectation values on the current state; the norm
change is tracked by the scalar factor c = sqrt(1 + 2 dt Re<h_m>).

The system is solved without forming S, by the SVD of the rows sigma_I |psi>
(see _solve_gram_factor).  A whole-register fit of a real state needs neither
the SVD (Motta et al., Nat. Phys. 16, 205 (2020)) nor its rows: it works on
the prefix x suffix factors of its strings (see prefix_groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidDomainError, SingularSystemError, StepSizeError
from .hamiltonian import HamiltonianTerm
from .pauli import PauliSum, dense_matrix, gather_tables, lexicographic_codes
from .statevector import ScaledState, StateVector, fidelity

# The c radicand must clear this before taking the square root.
C_RADICAND_FLOOR = 1e-12

# Fit eigenvalues below this fraction of the largest are dropped.
LSTSQ_REL_TOL = 1e-8

# Largest gather tables a basis may keep (per basis string and amplitude: an
# index, a complex phase and a rotation gain, 32 bytes odd-Y and 40 bytes
# full); larger bases are refused.
BASIS_BYTES_LIMIT = 1 << 30


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
    """String count of a width-qubit fit basis; CapacityError if its gather tables are too big.

    A whole-register odd-Y basis counts them too: a nearly-real state builds them.
    """
    size = (4**width - 2**width) // 2 if odd_y else 4**width - 1
    gather_bytes = size * (1 << n) * (32 if odd_y else 40)
    if gather_bytes > BASIS_BYTES_LIMIT:
        raise CapacityError(
            f"a {width}-qubit {'odd-y' if odd_y else 'full'} basis on {n} qubits has "
            f"{size} strings whose gather tables need {gather_bytes} bytes, "
            f"over the {BASIS_BYTES_LIMIT}-byte limit"
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
    codes = np.zeros((check_basis_size(width, odd_y, n), n), dtype=np.int8)
    digits = lexicographic_codes(np.arange(1, 4**width), width)
    if odd_y:
        digits = digits[(digits == 2).sum(axis=1) % 2 == 1]
    codes[:, domain[0] : domain[-1] + 1] = digits
    idx, ph = gather_tables(codes)
    return idx, ph, (ph.imag.copy() if odd_y else -1j * ph)


class PrefixGroups(NamedTuple):
    """Tables of the whole-register odd-Y basis in prefix x suffix factors (see prefix_groups)."""

    m: int  # suffix qubits
    gathers: np.ndarray  # (4^(n-m), 2^(n-m), 2): the doubled rows of Psi[r], (S_p Psi)[r]
    patterns: np.ndarray  # (4^m, 4^m): row q is T_q^T, flattened
    strings: np.ndarray  # flat (prefix, suffix) positions of the odd-Y strings, ascending
    batches: tuple  # per prefix Y parity: prefixes and suffix steps (see _group_weights)


def _signed_shifts(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real shifts (R v)[j] = sign[j] v[idx[j]] of all width-qubit strings, and their Y counts.

    The sign is the real phase of a string with an even Y count, else the imaginary one.
    """
    codes = lexicographic_codes(np.arange(4**width), width)
    idx, ph = gather_tables(codes)
    ny = (codes == 2).sum(axis=1)
    return idx, np.where(ny[:, None] % 2, ph.imag, ph.real), ny


@lru_cache(maxsize=None)
def prefix_groups(n: int) -> PrefixGroups:
    """The whole-register odd-Y basis of n qubits as (n - m)-qubit prefixes x m-qubit suffixes.

    With Psi = psi.reshape(2^(n-m), 2^m) for a real psi, the rotation gain
    of odd-Y string p (x) q (see sigma_basis) acts as S_p (x) T_q, the real
    shifts of p and q, and S_p^2 = eps_p = (-1)^(Y count of p).  Row r of
    S_p Psi is row gathers[p, r, 1] of the doubled rows [Psi[r], -Psi[r]].
    Basis order is prefix-major, each prefix taking the suffixes of the
    other Y parity.  m = max(1, (n + 1) // 3) gave the fastest steps for n = 3..8.
    """
    m = max(1, (n + 1) // 3)
    idx_p, sign_p, ny_p = _signed_shifts(n - m)
    idx_q, sign_q, ny_q = _signed_shifts(m)
    patterns = (np.eye(idx_q.shape[1])[idx_q] * sign_q[:, :, None]).transpose(0, 2, 1)
    strings = np.flatnonzero((ny_p[:, None] + ny_q) % 2)
    # The rows of [A; B] and their signs that make [eps T_q B; T_q A].
    flips = np.concatenate([idx_q + idx_q.shape[1], idx_q], axis=1)
    batches = []
    for parity in (0, 1):
        prefixes = np.flatnonzero(ny_p % 2 == parity)
        suffixes = np.flatnonzero(ny_q % 2 != parity)
        signs = np.concatenate([(1 - 2 * parity) * sign_q, sign_q], axis=1)[suffixes]
        order = np.searchsorted(strings, prefixes * len(ny_q) + suffixes[:, None])
        batches.append((prefixes, order, flips[suffixes], signs[:, :, None, None]))
    rows = 2 * idx_p + (sign_p < 0)
    gathers = np.stack([np.broadcast_to(2 * np.arange(rows.shape[1]), rows.shape), rows], axis=2)
    patterns = patterns.reshape(len(patterns), -1)
    return PrefixGroups(m, gathers, patterns, strings, tuple(batches))


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
def _step_buffer(shape: tuple[int, ...], dtype: type, use: str) -> np.ndarray:
    """Work array of a fit step, one per use, shape and dtype, reused by every step.

    The gathered rows, the fit factor V, the rotations' sin-times-gain table
    and, on a whole-register real fit, the doubled rows, the prefix factors
    S_p Psi and the gathered row pairs go into these, not into fresh arrays.
    A run holds one set per basis shape it fits.  Reuse keeps glibc from
    mapping fresh pages for them step after step: without it, 100 steps of
    price at n = D = 6 took 83.6k minor page faults instead of 13.9k.
    """
    return np.empty(shape, dtype)


def _solve_gram_factor(
    rows: np.ndarray, b: np.ndarray, rel_tol: float, groups: PrefixGroups | None = None
) -> tuple[np.ndarray, float]:
    """Minimal-norm solution of (S + S^T) a = b from the rows sigma_I |psi> of a unit state.

    With V = [Re rows, Im rows] the system matrix is S + S^T = 2 V V^T, so its
    eigenpairs are the left singular vectors of V with eigenvalues 2 s^2.
    Eigenvalues below rel_tol times the largest are discarded; if none survive
    for a nonzero b, or V has no SVD, the system is reported singular.

    The whole odd-Y basis of the register on an exactly real state (given
    groups = prefix_groups(n) by trotter_step; a nearly-real state takes the
    SVD) skips the SVD, and rows is then the factored form of the real
    Vi = Im(sigma_I |psi>) (see _odd_y_factors), since Re(sigma_I |psi>) = 0.
    Those strings are i dim^(1/2) times an orthonormal basis of the real
    antisymmetric matrices, so with a unit psi, Vi^T Vi = (dim / 2) (I - psi psi^T)
    and Vi Vi^T = (dim / 2) P for the projector P onto the range of Vi.  Then
    S + S^T = 2 Vi Vi^T = dim P: every nonzero eigenvalue is dim, the rest are
    exactly zero, and the minimal-norm solution is P b / dim = Vi (Vi^T b) 2 / dim^2.
    Non-finite rows raise SingularSystemError on this path too.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros(b.shape[0]), 0.0
    if groups is not None:
        dim = rows.shape[0] * rows.shape[2]
        with np.errstate(invalid="ignore", over="ignore"):
            a = _vi_dot(rows, _vi_t_dot(rows, b, groups), groups) * (2.0 / dim**2)
            back = _vi_dot(rows, _vi_t_dot(rows, a, groups), groups)
            residual = float(np.linalg.norm(2.0 * back - b))
        if not math.isfinite(residual):
            raise SingularSystemError("the fit system is not finite")
        return a, residual
    dim = rows.shape[1]
    V = np.concatenate(
        [rows.real, rows.imag], axis=1, out=_step_buffer((rows.shape[0], 2 * dim), float, "V")
    )
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


def _doubled(psi: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """The work array of rows [Psi[r], -Psi[r]] of the real psi (see prefix_groups)."""
    halves = psi.reshape(groups.gathers.shape[1], -1)
    doubled = _step_buffer((len(halves), 2, halves.shape[1]), float, "doubled")
    doubled[:, 0] = halves
    np.negative(halves, out=doubled[:, 1])
    return doubled


def _odd_y_factors(psi: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """phi[:, p] = S_p Psi for every prefix p of the real psi, which stand in for the fit rows.

    Row p (x) q of Vi = Im(sigma_I |psi>) is vec(S_p Psi T_q^T) (see _vi_dot).
    """
    rows = _doubled(psi, groups).reshape(-1, 1 << groups.m)
    shifted = groups.gathers[:, :, 1].T
    phi = _step_buffer(shifted.shape + rows.shape[1:], float, "phi")
    # The indices are in range; "clip" writes into the buffer directly.
    return rows.take(shifted, axis=0, out=phi, mode="clip")


def _vi_dot(phi: np.ndarray, u: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """Vi u: sum_kl T_q[k, l] C_p[l, k] per string p (x) q; C_p = (S_p Psi)^T U, U = u as Psi."""
    phi = phi.reshape(len(phi), -1)
    c = phi.T @ u.reshape(len(phi), -1)
    sums = c.reshape(len(groups.gathers), -1) @ groups.patterns.T
    return sums.reshape(-1)[groups.strings]


def _vi_t_dot(phi: np.ndarray, a: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """Vi^T a = vec(sum_p S_p Psi D_p^T), with D_p = sum_q a[p (x) q] T_q."""
    grid = np.zeros((len(groups.gathers), len(groups.patterns)))
    grid.reshape(-1)[groups.strings] = a
    d = grid @ groups.patterns  # D_p^T
    return (phi.reshape(len(phi), -1) @ d.reshape(-1, phi.shape[2])).reshape(-1)


def _group_weights(thetas: list[float], groups: PrefixGroups) -> np.ndarray:
    """Each prefix group's ordered rotations I (x) A_p + S_p (x) B_p, as _rotate_groups' weights.

    Rotation p (x) q, cos t + sin t (S_p (x) T_q) on a real state, takes
    A <- cos t A + sin t eps_p T_q B and B <- cos t B + sin t T_q A, from
    A = I, B = 0; the prefixes of one Y parity share their suffixes and step
    together.  The weights [[A^T, -A^T], [B^T, -B^T]] map the row
    [Psi[r], (S_p Psi)[r]] to the new [Psi[r], -Psi[r]].
    """
    cos = np.fromiter(map(math.cos, thetas), float, len(thetas))
    sin = np.fromiter(map(math.sin, thetas), float, len(thetas))
    dim_q = 1 << groups.m
    weights = np.empty((len(groups.gathers), 2, dim_q, 2, dim_q))
    for prefixes, order, flips, signs in groups.batches:
        # The rows of [A; B], with the prefixes along the last axis.
        ab = np.zeros((2 * dim_q, dim_q, prefixes.size))
        ab[:dim_q] = np.eye(dim_q)[:, :, None]
        for c, s, flip in zip(cos[order], signs * sin[order][:, None, None], flips):
            turned = ab.take(flip, axis=0)
            turned *= s
            ab *= c
            ab += turned
        weights[prefixes, :, :, 0] = ab.reshape(2, dim_q, dim_q, -1).transpose(3, 0, 2, 1)
    np.negative(weights[:, :, :, 0], out=weights[:, :, :, 1])
    return weights.reshape(len(weights), 2 * dim_q, 2 * dim_q)


def _rotate_groups(psi: np.ndarray, thetas: list[float], groups: PrefixGroups) -> np.ndarray:
    """The ordered rotations of a whole-register real fit on the real psi, a prefix group at once.

    Group p maps Psi to Psi A_p^T + (S_p Psi) B_p^T: one gather from the
    doubled rows and one matvec that writes them back (see _group_weights).
    """
    weights = _group_weights(thetas, groups)
    doubled = _doubled(psi, groups)
    rows = doubled.reshape(-1, doubled.shape[2])
    out = doubled.reshape(len(doubled), -1)
    gathered = _step_buffer(doubled.shape, float, "gathered")
    pairs = gathered.reshape(out.shape)
    for table, w in zip(groups.gathers, weights):
        rows.take(table, axis=0, out=gathered, mode="clip")
        np.dot(pairs, w, out=out)
    return doubled[:, 0].flatten()


def _rotate_each(
    amp: np.ndarray, thetas: list[float], idx: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """The ordered rotations of any other fit on amp, one string at a time.

    A real state on an odd-Y basis rotates in real arithmetic, with the same
    roundings as the complex loop; the caller makes psi complex again before
    the norm and the division, whose roundings would differ on a real array.
    Each rotation adds (sin(theta) gain) psi[ix] to cos(theta) psi in place;
    every gain is +-1 or +-i, so this rounds as sin(theta) (gain psi[ix]).
    """
    sg = _step_buffer(idx.shape, gain.dtype, "sin_gain")
    np.multiply(np.array([math.sin(t) for t in thetas])[:, None], gain, out=sg)
    real = not (amp.imag.any() or np.iscomplexobj(gain))
    psi = amp.real.copy() if real else amp.copy()
    for theta, sg_k, ix in zip(thetas, sg, idx):
        if theta == 0.0:
            continue
        t = psi[ix]
        t *= sg_k
        psi *= math.cos(theta)
        psi += t
    return psi


def trotter_step(
    state: ScaledState, term: HamiltonianTerm, cfg: QnuteConfig
) -> tuple[ScaledState, StepReport]:
    """Fit and apply the rotation product for one factor exp(h_m * dt).

    The rotations act on the term's own qubit window, over odd-Y strings when
    the state and h_m are both real (the rotations then stay real) and over
    all strings otherwise.  They are applied in ascending basis order, the
    state is renormalized, and the scale is multiplied by c.  A whole-register
    odd-Y fit on an exactly real state builds no gather tables: it fits on
    its strings' prefix x suffix factors (see prefix_groups) and applies the
    rotations a prefix group at a time, which differs from the one-by-one
    product (every other fit's) only by rounding.  The report carries the
    solved angles, the linear-system residual, and the fidelity against the
    exactly evolved and normalized step on the same input state.  A term
    whose support is wider than cfg.domain_size raises InvalidDomainError.
    The fit's and the rotations' work arrays are shared by all steps of the
    process (see _step_buffer), so two threads must not run steps at once.
    """
    psi_in = state.state
    h_m = term.pauli
    n = psi_in.n
    if len(term.support) > cfg.domain_size:
        raise InvalidDomainError(
            f"term on {len(term.support)} qubits exceeds domain_size {cfg.domain_size}"
        )
    odd_y = psi_in.is_real and h_m.has_real_matrix
    amp = psi_in.amplitudes
    whole_register = odd_y and term.support == frozenset(range(n)) and not amp.imag.any()
    if not whole_register:
        idx, ph, gain = sigma_basis(tuple(sorted(term.support)), odd_y, n)
        # idx is in range; "clip" writes into the buffer directly, "raise" via a copy.
        rows = np.take(amp, idx, out=_step_buffer(idx.shape, complex, "rows"), mode="clip")
        np.multiply(ph, rows, out=rows)
    hpsi = _apply_generator(h_m, psi_in)
    c = _c_from(amp, hpsi, cfg.delta_t)
    # math.sin and math.cos keep the angles' bits independent of numpy's vector ones.
    if whole_register:
        groups = prefix_groups(n)
        rows = _odd_y_factors(amp.real, groups)
        # On the real rows Vi, b = (2/c) Im(i Vi conj(h psi)) = (2/c) Vi Re(h psi).
        b = (2.0 / c) * _vi_dot(rows, hpsi.real, groups)
        a, residual = _solve_gram_factor(rows, b, LSTSQ_REL_TOL, groups)
        psi = _rotate_groups(amp.real, (a * cfg.delta_t).tolist(), groups).astype(complex)
    else:
        a, residual = _solve_gram_factor(rows, _b_from(rows, hpsi, c), LSTSQ_REL_TOL)
        psi = _rotate_each(amp, (a * cfg.delta_t).tolist(), idx, gain).astype(complex, copy=False)
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
