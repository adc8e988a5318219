"""Non-unitary Trotter stepping with per-step unitary fitting.

Each Trotter factor exp(h_m * dt) acting on a normalized state is replaced by
a product of Pauli rotations whose angles solve the real symmetric system
(S + S^T) a = b built from expectation values on the current state; the norm
change is tracked by the scalar factor c = sqrt(1 + 2 dt Re<h_m>).

The system is solved without forming S: with the rows sigma_I |psi> stacked
as V = [Re rows, Im rows], S + S^T = 2 V V^T, so the SVD of V gives its
eigenvalues 2 s^2, and those below LSTSQ_REL_TOL times the largest are
dropped from the minimal-norm solution.  A fit on the whole register of a
real state needs no SVD: its odd-Y strings span every real antisymmetric
matrix, so S + S^T is 2^n times a projector (Motta et al., Nat. Phys. 16,
205 (2020)) and the solution is a projection of b (see _solve_gram_factor).
That fit reads its rows from the rotation block tables (rotation_blocks) and
keeps no gather tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# full, plus the block tables of a whole-register odd-Y basis, see
# rotation_blocks); larger bases are refused.
BASIS_BYTES_LIMIT = 1 << 30

# Whole-register real fits apply their rotations this many at a time, as one
# gather and one matvec over the 2^ROTATION_BLOCK ordered subproducts.  Of
# 3..6, 4 took the least time on the n = 6 price (2016 strings, 64 amplitudes).
ROTATION_BLOCK = 4


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


def _block_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype of a signed gather index into the doubled 2^(n+1) state."""
    return np.min_scalar_type((2 << n) - 1)


def check_basis_size(width: int, odd_y: bool, n: int) -> int:
    """String count of a width-qubit fit basis; CapacityError if over BASIS_BYTES_LIMIT.

    A whole-register odd-Y basis also counts its rotation_blocks table.
    """
    size = (4**width - 2**width) // 2 if odd_y else 4**width - 1
    gather_bytes = size * (1 << n) * (32 if odd_y else 40)
    block_bytes = 0
    if odd_y and width == n:
        blocks = -(-size // ROTATION_BLOCK)
        block_bytes = blocks * (1 << ROTATION_BLOCK) * (1 << n) * _block_dtype(n).itemsize
    if gather_bytes + block_bytes > BASIS_BYTES_LIMIT:
        raise CapacityError(
            f"a {width}-qubit {'odd-y' if odd_y else 'full'} basis on {n} qubits has "
            f"{size} strings whose gather tables need {gather_bytes} bytes"
            + (f" and block tables {block_bytes} more" if block_bytes else "")
            + f", over the {BASIS_BYTES_LIMIT}-byte limit"
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
    codes = np.zeros((size, n), dtype=np.int8)
    codes[:, domain[0] : domain[-1] + 1] = _window_codes(width, odd_y)
    idx, ph = gather_tables(codes)
    return idx, ph, (ph.imag.copy() if odd_y else -1j * ph)


def _window_codes(width: int, odd_y: bool) -> np.ndarray:
    """Symbol codes of a width-qubit fit basis in row order (see sigma_basis)."""
    digits = lexicographic_codes(np.arange(1, 4**width), width)
    return digits[(digits == 2).sum(axis=1) % 2 == 1] if odd_y else digits


def _parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an unsigned array, folded in place."""
    shift = 4 * v.itemsize
    while shift:
        v ^= v >> shift
        shift //= 2
    v &= 1
    return v


@lru_cache(maxsize=None)
def rotation_blocks(n: int) -> np.ndarray:
    """Signed gather tables of the whole-register odd-Y rotations, ROTATION_BLOCK per block.

    On a real state the rotation of odd-Y string k is R_k = cos(t_k) + sin(t_k) G_k,
    with (G_k v)[j] = g_k (-1)^parity(z_k & (j ^ x_k)) v[j ^ x_k] for the string's
    X/Y mask x_k, Y/Z mask z_k and g_k = Im(i^(Y count)) (the gain of
    sigma_basis).  A block's ordered product R_(K-1) ... R_0 is then the sum of
    its 2^K ordered subproducts G_S, S a bit set over the block, each weighted
    by the product of sin(t_k) over S and cos(t_k) outside it.  Each G_S is again
    a signed shift, (G_S v)[j] = C_S (-1)^parity(Z_S & j) v[j ^ X_S], with X_S
    and Z_S the XOR of the masks in S; adding the last string t to S' gives
    C_S = C_S' g_t (-1)^parity(Z_S & x_t).  Row S of block b holds j ^ X_S, plus
    2^n where the sign is negative: an index into the doubled state [v, -v].
    The basis is padded to whole blocks with identity strings (angle 0).
    Entries are the smallest unsigned dtype that holds 2^(n+1) - 1, built
    without index-sized temporaries; check_basis_size counts their bytes.
    """
    size = check_basis_size(n, True, n)
    dt = _block_dtype(n)
    blocks, dim = -(-size // ROTATION_BLOCK), 1 << n
    codes = np.zeros((blocks * ROTATION_BLOCK, n), dtype=np.int8)
    codes[:size] = _window_codes(n, True)
    bit_values = (1 << np.arange(n - 1, -1, -1)).astype(dt)

    def by_string(bits: np.ndarray) -> np.ndarray:  # row t: string t of every block
        return bits.astype(dt).reshape(blocks, ROTATION_BLOCK).T

    x = by_string(((codes == 1) | (codes == 2)).astype(dt) @ bit_values)
    z = by_string(((codes == 2) | (codes == 3)).astype(dt) @ bit_values)
    g_neg = by_string((codes == 2).sum(axis=1) % 4 == 3)
    # Row S = S' + {t} is row S' with j ^ X_S' turned into j ^ X_S and its
    # sign bit flipped by parity(z_t & j), g_t and parity(Z_S & x_t).
    table = np.empty((blocks, 1 << ROTATION_BLOCK, dim), dtype=dt)
    table[:, 0] = j = np.arange(dim, dtype=dt)
    zs = np.zeros((1 << ROTATION_BLOCK, blocks), dtype=dt)
    for t in range(ROTATION_BLOCK):
        step = (_parity(z[t][:, None] & j) << n) ^ x[t][:, None]
        for s in range(1 << t, 2 << t):
            rest = s ^ (1 << t)
            zs[s] = zs[rest] ^ z[t]
            np.bitwise_xor(table[:, rest], step, out=table[:, s])
            table[:, s] ^= ((g_neg[t] ^ _parity(zs[s] & x[t])) << n)[:, None]
    return table


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
    and the block rotations' doubled state, fit rows and gathered subproducts
    are written into these instead of into fresh arrays.
    A run holds one set per basis shape it fits.  Reuse keeps glibc from
    mapping fresh pages for them step after step: without it, 100 steps of
    price at n = D = 6 took 83.6k minor page faults instead of 13.9k.
    """
    return np.empty(shape, dtype)


def _solve_gram_factor(
    rows: np.ndarray, b: np.ndarray, rel_tol: float, whole_register: bool = False
) -> tuple[np.ndarray, float]:
    """Minimal-norm solution of (S + S^T) a = b from the rows sigma_I |psi> of a unit state.

    With V = [Re rows, Im rows] the system matrix is S + S^T = 2 V V^T, so its
    eigenpairs are the left singular vectors of V with eigenvalues 2 s^2.
    Eigenvalues below rel_tol times the largest are discarded; if none survive
    for a nonzero b, or V has no SVD, the system is reported singular.

    The whole odd-Y basis of the register on an exactly real state
    (whole_register, decided by trotter_step; a nearly-real state takes the
    SVD) skips the SVD, and rows is then the real Vi = Im(sigma_I |psi>), since
    Re(sigma_I |psi>) is zero.  Those strings are
    i dim^(1/2) times an orthonormal basis of the real antisymmetric matrices,
    so with a unit psi, Vi^T Vi = (dim / 2) (I - psi psi^T)
    and Vi Vi^T = (dim / 2) P for the projector P onto the range of Vi.  Then
    S + S^T = 2 Vi Vi^T = dim P: every nonzero eigenvalue is dim, the rest are
    exactly zero, and the minimal-norm solution is P b / dim =
    Vi (Vi^T b) 2 / dim^2: two real matvecs, with no work array.
    Non-finite rows raise SingularSystemError on this path too.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros(rows.shape[0]), 0.0
    dim = rows.shape[1]
    if whole_register:
        with np.errstate(invalid="ignore", over="ignore"):
            a = (rows @ (rows.T @ b)) * (2.0 / dim**2)
            residual = float(np.linalg.norm(2.0 * (rows @ (rows.T @ a)) - b))
        if not math.isfinite(residual):
            raise SingularSystemError("the fit system is not finite")
        return a, residual
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


def _doubled(psi: np.ndarray) -> np.ndarray:
    """The work array [psi, -psi] of the real psi, which rotation_blocks' indices gather from."""
    dim = psi.size
    doubled = _step_buffer((2 * dim,), float, "doubled")
    doubled[:dim] = psi
    np.negative(psi, out=doubled[dim:])
    return doubled


def _block_rows(psi: np.ndarray, n: int) -> np.ndarray:
    """Vi = Im(sigma_I |psi>) of the whole-register odd-Y basis on the real psi, one row each.

    Row {t} of block b of rotation_blocks(n) is string ROTATION_BLOCK b + t's
    signed gather, gain * psi[idx] = Im(sigma_I |psi>) bit for bit, so one
    take from [psi, -psi] gives every row; the padding strings' rows are
    dropped.
    """
    blocks = rotation_blocks(n)
    singles = [1 << t for t in range(ROTATION_BLOCK)]
    rows = _step_buffer((blocks.shape[0], ROTATION_BLOCK, psi.size), float, "block_rows")
    # The indices are in range; "clip" writes into the buffer directly.
    _doubled(psi).take(blocks[:, singles], out=rows, mode="clip")
    return rows.reshape(-1, psi.size)[: check_basis_size(n, True, n)]


def _rotate_blocks(psi: np.ndarray, thetas: list[float], n: int) -> np.ndarray:
    """The ordered rotations of a whole-register real fit on the real psi, a block at a time.

    Each block of rotation_blocks(n) maps v to sum_S w_S G_S v: one gather
    from the doubled state [v, -v] and one matvec with the block's 2^K
    weights, which are products of the angles' sines and cosines.  The
    weights are stacked with their negation, so the matvec writes v and -v
    back into the doubled state together.
    """
    blocks = rotation_blocks(n)
    thetas = thetas + [0.0] * (blocks.shape[0] * ROTATION_BLOCK - len(thetas))
    cos = np.fromiter(map(math.cos, thetas), float, len(thetas)).reshape(-1, ROTATION_BLOCK)
    sin = np.fromiter(map(math.sin, thetas), float, len(thetas)).reshape(-1, ROTATION_BLOCK)
    # Column S of a block's weights, bit k of S set for string k: after
    # string k, the sets without it come first.  Row 0 gives v, row 1 -v.
    weights = np.array([[1.0], [-1.0]])
    for k in range(ROTATION_BLOCK):
        c, s = cos[:, k, None, None], sin[:, k, None, None]
        weights = np.concatenate([weights * c, weights * s], axis=2)
    dim = psi.size
    doubled = _doubled(psi)
    halves = doubled.reshape(2, dim)
    gathered = _step_buffer(blocks.shape[1:], float, "gathered")
    for table, w in zip(blocks, weights):
        doubled.take(table, out=gathered, mode="clip")
        np.dot(w, gathered, out=halves)
    return doubled[:dim].copy()


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
    odd-Y fit on an exactly real state reads its fit rows from the rotation
    block tables (see rotation_blocks), builds no gather tables, and applies
    the rotations ROTATION_BLOCK at a time, which differs from the one-by-one
    product only by rounding; every other fit applies them one by one.  The
    report carries the solved angles, the linear-system residual, and the
    fidelity against the exactly evolved and normalized step on the same
    input state.  A term whose support is wider than cfg.domain_size raises
    InvalidDomainError.  The rows, V and the rotations' work arrays are
    shared by all steps of the process (see _step_buffer), so two threads
    must not run steps at once.
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
    if whole_register:
        rows = _block_rows(amp.real, n)
    else:
        idx, ph, gain = sigma_basis(tuple(sorted(term.support)), odd_y, n)
        # idx is in range; "clip" writes into the buffer directly, "raise" via a copy.
        rows = np.take(amp, idx, out=_step_buffer(idx.shape, complex, "rows"), mode="clip")
        np.multiply(ph, rows, out=rows)
    hpsi = _apply_generator(h_m, psi_in)
    c = _c_from(amp, hpsi, cfg.delta_t)
    # On the real rows Vi, b = (2/c) Im(i Vi conj(h psi)) = (2/c) Vi Re(h psi).
    b = (2.0 / c) * (rows @ hpsi.real) if whole_register else _b_from(rows, hpsi, c)
    a, residual = _solve_gram_factor(rows, b, LSTSQ_REL_TOL, whole_register)
    # math.sin and math.cos keep the angles' bits independent of numpy's vector ones.
    thetas = (a * cfg.delta_t).tolist()
    if whole_register:
        psi = _rotate_blocks(amp.real, thetas, n)
    else:
        psi = _rotate_each(amp, thetas, idx, gain)
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
