"""Non-unitary Trotter stepping with per-step unitary fitting.

Each Trotter factor exp(h_m * dt) acting on a normalized state is replaced by
a product of Pauli rotations whose angles solve the real symmetric system
(S + S^T) a = b built from expectation values on the current state; the norm
change is tracked by the scalar factor c = sqrt(1 + 2 dt Re<h_m>).

The system is solved without forming S, by the SVD of the rows sigma_I |psi>
(see _solve_gram_factor).  A whole-register fit of a real state needs neither
a solve, since a = b / 2^n (Motta et al., Nat. Phys. 16, 205 (2020)), nor its
rows: it works on the prefix x suffix factors of its strings (see
prefix_groups and trotter_step).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidDomainError, SingularSystemError, StepSizeError
from .hamiltonian import HamiltonianTerm
from .pauli import apply_span, check_register, gather_tables, lexicographic_codes
from .statevector import ScaledState, StateVector

# The c radicand must clear this before taking the square root.
C_RADICAND_FLOOR = 1e-12

# Fit eigenvalues below this fraction of the largest are dropped.
LSTSQ_REL_TOL = 1e-8

# Up to this size _sin_cos takes an angle's sine and cosine from their Taylor
# polynomials (to x^7 and x^6) in Horner form, one numpy call per IEEE operation
# so that nothing fuses: the same bits on every CPU, glibc's on every angle tested.
TRIG_POLY_BOUND = 2.0**-10

# Largest tables a fit basis may keep: its gather tables (per basis string and
# amplitude: an index, a complex phase and a rotation gain, 32 bytes odd-Y and
# 40 bytes full), or on a whole-register odd-Y basis its prefix x suffix
# tables and work arrays; larger bases are refused.
BASIS_BYTES_LIMIT = 1 << 30


@dataclass(frozen=True)
class QnuteConfig:
    """Stepper settings: time step, step count and unitary domain."""

    delta_t: float
    num_steps: int
    domain_size: int

    def __post_init__(self):
        if not 0.0 < self.delta_t < math.inf:
            raise ValueError(f"delta_t must be positive and finite, got {self.delta_t}")
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


def _suffix_qubits(n: int) -> int:
    """The m of prefix_groups(n): max(1, (n + 1) // 3) gave the fastest steps for n = 3..8."""
    return max(1, (n + 1) // 3)


def check_basis_size(width: int, odd_y: bool, n: int, gathered: bool = False) -> int:
    """String count of a step's fit basis; CapacityError if what the step keeps for it is too big.

    That is the basis's gather tables (see sigma_basis; gathered counts them
    on any basis), except on a whole-register odd-Y basis, which has none.
    There it is, with k = n - m prefix qubits (see prefix_groups), the
    gathers (4^k 2^k 16 bytes), patterns (16^m 8) and strings (8 per
    string), and the step's phi array (2^n 4^k 8) and group weights (4^n 32).
    """
    size = (4**width - 2**width) // 2 if odd_y else 4**width - 1
    if odd_y and width == n and not gathered:
        m = _suffix_qubits(n)
        k = n - m
        what = "prefix tables and work arrays"
        need = 4**k * 2**k * 16 + 16**m * 8 + size * 8 + (1 << n) * 4**k * 8 + 4**n * 32
    else:
        what, need = "gather tables", size * (1 << n) * (32 if odd_y else 40)
    if need > BASIS_BYTES_LIMIT:
        raise CapacityError(
            f"a {width}-qubit {'odd-y' if odd_y else 'full'} basis on {n} qubits has "
            f"{size} strings whose {what} need {need} bytes, "
            f"over the {BASIS_BYTES_LIMIT}-byte limit"
        )
    return size


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
    Nothing is kept between calls; a term keeps its own (see _term_tables).
    """
    domain = tuple(sorted(domain))
    if not domain:
        raise InvalidDomainError("basis domain is empty")
    if domain[0] < 0 or domain[-1] >= n:
        raise InvalidDomainError(f"domain {domain} is outside a {n}-qubit register")
    if domain != tuple(range(domain[0], domain[-1] + 1)):
        raise InvalidDomainError(f"domain {domain} is not contiguous")
    width = len(domain)
    codes = np.zeros((check_basis_size(width, odd_y, n, gathered=True), n), dtype=np.int8)
    digits = lexicographic_codes(np.arange(1, 4**width), width)
    if odd_y:
        digits = digits[(digits == 2).sum(axis=1) % 2 == 1]
    codes[:, domain[0] : domain[-1] + 1] = digits
    idx, ph = gather_tables(codes)
    return idx, ph, (ph.imag.copy() if odd_y else -1j * ph)


def _term_tables(
    term: HamiltonianTerm, odd_y: bool, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_basis over the term's window, built once per term and kind.

    The tables are kept by (odd_y, n) in the term's own __dict__, as
    functools.cached_property keeps HamiltonianTerm.generator, so they live
    exactly as long as the term.  A process-wide weak mapping would keep a
    hash table of its own, which any run might resize and leave allocated.
    """
    tables = vars(term).setdefault("_fit_tables", {})
    if (odd_y, n) not in tables:
        tables[odd_y, n] = sigma_basis(tuple(term.support), odd_y, n)
    return tables[odd_y, n]


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
    other Y parity.
    """
    m = _suffix_qubits(n)
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


def _solve_gram_factor(rows: np.ndarray, b: np.ndarray, rel_tol: float) -> tuple[np.ndarray, float]:
    """Minimal-norm solution of (S + S^T) a = b from the rows sigma_I |psi> of a unit state.

    With V = [Re rows, Im rows] the system matrix is S + S^T = 2 V V^T, so its
    eigenpairs are the left singular vectors of V with eigenvalues 2 s^2.
    Eigenvalues below rel_tol times the largest are discarded; if none survive
    for a nonzero b, or V has no SVD, the system is reported singular.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros(b.shape[0]), 0.0
    V = np.concatenate([rows.real, rows.imag], axis=1)
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
    """The rows [Psi[r], -Psi[r]] of the real psi (see prefix_groups)."""
    halves = psi.reshape(groups.gathers.shape[1], -1)
    doubled = np.empty((len(halves), 2, halves.shape[1]))
    doubled[:, 0] = halves
    np.negative(halves, out=doubled[:, 1])
    return doubled


def _odd_y_factors(doubled: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """phi[:, p] = S_p Psi for every prefix p, from _doubled's rows; they stand in for fit rows.

    Row p (x) q of Vi = Im(sigma_I |psi>) is vec(S_p Psi T_q^T) (see _vi_dot).
    """
    # The indices are in range; "clip" gathers faster than "raise" or fancy indexing.
    return doubled.reshape(-1, 1 << groups.m).take(groups.gathers[:, :, 1].T, axis=0, mode="clip")


def _vi_dot(phi: np.ndarray, u: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """Vi u: sum_kl T_q[k, l] C_p[l, k] per string p (x) q; C_p = (S_p Psi)^T U, U = u as Psi."""
    phi = phi.reshape(len(phi), -1)
    c = phi.T @ u.reshape(len(phi), -1)
    sums = c.reshape(len(groups.gathers), -1) @ groups.patterns.T
    return sums.reshape(-1)[groups.strings]


def _sin_cos(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.sin and math.cos of the angles bit for bit, with no libm call up to TRIG_POLY_BOUND."""
    x = np.minimum(np.maximum(thetas, -TRIG_POLY_BOUND), TRIG_POLY_BOUND)
    xx = x * x
    sin = np.copysign(x + ((xx * (-1 / 5040) + 1 / 120) * xx - 1 / 6) * x * xx, x)
    cos = 1.0 - ((xx * (1 / 720) - 1 / 24) * xx + 0.5) * xx
    for i in np.flatnonzero(x != thetas):
        sin[i], cos[i] = math.sin(thetas[i]), math.cos(thetas[i])
    return sin, cos


def _group_weights(thetas: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """Each prefix group's ordered rotations I (x) A_p + S_p (x) B_p, as _rotate_groups' weights.

    Rotation p (x) q, cos t + sin t (S_p (x) T_q) on a real state, takes
    A <- cos t A + sin t eps_p T_q B and B <- cos t B + sin t T_q A, from
    A = I, B = 0; the prefixes of one Y parity share their suffixes and step
    together.  The weights [[A^T, -A^T], [B^T, -B^T]] map the row
    [Psi[r], (S_p Psi)[r]] to the new [Psi[r], -Psi[r]].
    """
    sin, cos = _sin_cos(thetas)
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


def _rotate_groups(doubled: np.ndarray, thetas: np.ndarray, groups: PrefixGroups) -> np.ndarray:
    """The ordered rotations of a whole-register real fit on _doubled's rows, per prefix group.

    Group p maps Psi to Psi A_p^T + (S_p Psi) B_p^T: one gather from the
    doubled rows and one matvec that writes them back (see _group_weights).
    """
    weights = _group_weights(thetas, groups)
    out = doubled.reshape(len(doubled), -1)
    gathered = np.empty(doubled.shape)
    pairs = gathered.reshape(out.shape)
    take, dot = doubled.reshape(-1, doubled.shape[2]).take, np.dot
    for table, w in zip(groups.gathers, weights):
        take(table, 0, gathered, "clip")
        dot(pairs, w, out)
    return doubled[:, 0].flatten()


def _rotate_each(
    amp: np.ndarray, thetas: list[float], idx: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """The ordered rotations of any other fit on amp, one string at a time.

    An odd-Y basis (real gains) rotates amp.real in real arithmetic, with the
    same roundings as the complex loop on a real state; the caller makes psi
    complex again before the norm and the division, whose roundings would
    differ on a real array.  Each rotation adds (sin(theta) gain) psi[ix] to
    cos(theta) psi in place; every gain is +-1 or +-i, so this rounds as
    sin(theta) (gain psi[ix]).
    """
    sg = np.array([math.sin(t) for t in thetas])[:, None] * gain
    psi = amp.copy() if np.iscomplexobj(gain) else amp.real.copy()
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
    the state (see StateVector.is_real) and h_m are both real, and over all
    strings otherwise.  Odd-Y rotations act on the state's real part.  They
    are applied in ascending basis order, the state is renormalized, and the
    scale is multiplied by c.  The basis's gather tables are the term's own,
    built on its first fit of each kind (see _term_tables).

    A whole-register odd-Y fit steps on the real part alone and builds no
    gather tables.  Its strings are i 2^(n/2) times an orthonormal basis of
    the real antisymmetric matrices, so S + S^T = 2^n P, with P the
    projector onto the range of the fit rows, which holds b.  The
    minimal-norm angles are then a = b / 2^n exactly (Motta et al.), and the
    residual is 0 by construction.  b comes from the strings' prefix x
    suffix factors (see prefix_groups), and the rotations are applied a
    prefix group at a time, which differs from the one-by-one product
    (every other fit's) only by rounding.

    The report carries c, the solved angles and the linear-system residual.
    A term whose support is wider than cfg.domain_size raises
    InvalidDomainError.
    """
    psi_in = state.state
    h_m = term.pauli
    n = psi_in.n
    check_register(h_m, n)
    if len(term.support) > cfg.domain_size:
        raise InvalidDomainError(
            f"term on {len(term.support)} qubits exceeds domain_size {cfg.domain_size}"
        )
    odd_y = psi_in.is_real and h_m.has_real_matrix
    whole_register = odd_y and term.support == frozenset(range(n))
    amp = psi_in.amplitudes.real if whole_register else psi_in.amplitudes
    if not whole_register:
        idx, ph, gain = _term_tables(term, odd_y, n)
        # idx is in range; "clip" gathers faster than "raise" or fancy indexing.
        rows = np.take(amp, idx, mode="clip")
        np.multiply(ph, rows, out=rows)
    hpsi = apply_span(term.generator, amp)
    c = _c_from(amp, hpsi, cfg.delta_t)
    # _sin_cos and math give the angles libm's bits; numpy's vector sin and cos may not.
    if whole_register:
        groups = prefix_groups(n)
        doubled = _doubled(amp, groups)
        # On the real rows Vi = Im(sigma_I |psi>), b = (2/c) Vi Re(h psi).
        b = (2.0 / c) * _vi_dot(_odd_y_factors(doubled, groups), hpsi.real, groups)
        if not np.isfinite(b).all():
            raise SingularSystemError("the fit system is not finite")
        a, residual = b / (1 << n), 0.0
        psi = _rotate_groups(doubled, a * cfg.delta_t, groups).astype(complex)
    else:
        a, residual = _solve_gram_factor(rows, _b_from(rows, hpsi, c), LSTSQ_REL_TOL)
        psi = _rotate_each(amp, (a * cfg.delta_t).tolist(), idx, gain).astype(complex, copy=False)
    nrm = float(np.linalg.norm(psi))
    report = StepReport(c=c, a=a, residual=residual)
    return ScaledState(StateVector(psi / nrm), state.scale * c * nrm), report


def evolve(
    initial: ScaledState, terms: list[HamiltonianTerm], cfg: QnuteConfig
) -> Iterator[tuple[int, int, ScaledState, ScaledState, StepReport]]:
    """Run num_steps full time steps, fitting every term per step in order.

    Yields (step, i, before, after, report) once per Trotter factor: step
    counts from 1, term i took before to after, and report is its
    StepReport.  Keeps nothing: a caller keeps what it reads.  As a
    generator it raises only once iterated.
    """
    current = initial
    for step in range(1, cfg.num_steps + 1):
        for i, term in enumerate(terms):
            before = current
            current, report = trotter_step(before, term, cfg)
            yield step, i, before, current, report
