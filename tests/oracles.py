"""Independent dense oracles shared by the test modules.

Everything here is built from literal 2x2 matrices and numpy primitives so
the checks never route through the code under test.
"""

import itertools
import math

import numpy as np

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_of(symbols: str) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for ch in symbols:
        out = np.kron(out, PAULI_MATS[ch])
    return out


def dense_of_terms(terms) -> np.ndarray:
    terms = list(terms)
    dim = 2 ** len(terms[0][1])
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, symbols in terms:
        out += coeff * kron_of(symbols)
    return out


def taylor_expm_apply(m: np.ndarray, vec: np.ndarray, order: int = 40) -> np.ndarray:
    """exp(m) @ vec by direct series summation."""
    out = vec.astype(complex).copy()
    term = vec.astype(complex).copy()
    for k in range(1, order + 1):
        term = m @ term / k
        out = out + term
    return out


def random_pauli_sum_terms(rng, n: int, num_terms: int, real_coeffs: bool = False):
    """Random (coefficient, symbols) pairs for building sums under test."""
    terms = []
    for _ in range(num_terms):
        symbols = "".join(rng.choice(list("IXYZ"), size=n))
        coeff = rng.normal() if real_coeffs else rng.normal() + 1j * rng.normal()
        terms.append((coeff, symbols))
    return terms


def fit_strings(window, odd_y: bool, n: int) -> tuple[str, ...]:
    """The fit basis as symbol strings, enumerated and sorted one by one.

    All non-identity strings over the window, or those with an odd Y count,
    with the identity on every other qubit, in lexicographic order.
    """
    strings = []
    for local in itertools.product("IXYZ", repeat=len(window)):
        if all(ch == "I" for ch in local):
            continue
        if odd_y and local.count("Y") % 2 == 0:
            continue
        full = ["I"] * n
        for q, ch in zip(window, local):
            full[q] = ch
        strings.append("".join(full))
    return tuple(sorted(strings))


def string_gather(symbols: str) -> tuple[np.ndarray, np.ndarray]:
    """Gather form w = ph * v[idx] of one string, by per-qubit phase products.

    The arithmetic is the reference for the stepper's tables bit for bit,
    signed zeros included.
    """
    n = len(symbols)
    k = np.arange(1 << n)
    xmask = 0
    phase = np.ones(1 << n, dtype=complex)
    for i, ch in enumerate(symbols):
        bit = (k >> (n - 1 - i)) & 1
        if ch in "XY":
            xmask |= 1 << (n - 1 - i)
        if ch == "Y":
            phase = phase * (1j * (1 - 2 * bit))
        elif ch == "Z":
            phase = phase * (1 - 2 * bit)
    src = k ^ xmask
    return src, phase[src]


def dense_per_string(terms, n: int) -> np.ndarray:
    """Dense matrix of (coefficient, symbols) pairs, one string's gather at a time.

    The loop the package's dense_matrix used before it gathered many strings
    at once; the sums are formed in the same order, so the two agree bit for
    bit.
    """
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for c, symbols in terms:
        idx, ph = string_gather(symbols)
        m[np.arange(dim), idx] += c * ph
    return m


def decompose_per_string(m: np.ndarray):
    """(coefficient, symbols) pairs of m in the Pauli basis, one string at a time.

    The loop the package's decompose_dense ran before it gathered many
    strings at once: Tr(P m) / dim for every string in lexicographic order,
    kept when its magnitude exceeds 1e-14.
    """
    dim = m.shape[0]
    n = dim.bit_length() - 1
    rows = np.arange(dim)
    terms = []
    for symbols in itertools.product("IXYZ", repeat=n):
        idx, ph = string_gather("".join(symbols))
        coeff = np.sum(ph * m[idx, rows]) / dim
        if abs(coeff) > 1e-14:
            terms.append((coeff, "".join(symbols)))
    return terms


def fit_tables(window, odd_y: bool, n: int):
    """Gather indices, phases and rotation gains of the fit basis, string by string."""
    strings = fit_strings(window, odd_y, n)
    idx = np.empty((len(strings), 1 << n), dtype=np.intp)
    ph = np.empty((len(strings), 1 << n), dtype=complex)
    for i, s in enumerate(strings):
        idx[i], ph[i] = string_gather(s)
    return idx, ph, (ph.imag.copy() if odd_y else -1j * ph)


def measure_S(state, strings) -> np.ndarray:
    """Overlap matrix S[I, J] = <psi| sigma_I sigma_J |psi> from dense strings."""
    rows = np.array([kron_of(s) @ state.amplitudes for s in strings])
    return np.conj(rows) @ rows.T


def solve_coefficients(S: np.ndarray, b: np.ndarray, rel_tol: float):
    """Minimal-norm solution of (S + S^T) a = b by eigendecomposition of the I x I matrix.

    Eigenvalues below rel_tol times the largest are discarded.  Returns the
    solution and the residual norm.
    """
    A = (S + S.T).real
    w, U = np.linalg.eigh(A)
    keep = w > rel_tol * w[-1]
    Uk = U[:, keep]
    a = Uk @ ((Uk.T @ b) / w[keep])
    return a, float(np.linalg.norm(A @ a - b))


def b_from_conj_rows(rows: np.ndarray, hpsi: np.ndarray, c: float) -> np.ndarray:
    """The fit's right-hand side b[I] = (-2/c) Im <psi| sigma_I h |psi>, conjugating the rows.

    The stepper's original form; it copies the conjugate of the whole fit
    factor.
    """
    return (-2.0 / c) * (np.conj(rows) @ hpsi).imag


def rotate_complex(amplitudes: np.ndarray, idx, ph, thetas) -> tuple[np.ndarray, float]:
    """exp(-i theta_I sigma_I) applied in order in complex arithmetic, then normalized.

    sigma_I acts as ph[I] * v[idx[I]].  The loop is written exactly as the
    stepper's original complex loop, so a faster stepper loop that keeps its
    roundings matches this bit for bit.  Returns the normalized state and
    the norm it was divided by.
    """
    psi = np.array(amplitudes, dtype=complex)
    for i, theta in enumerate(thetas):
        if theta == 0.0:
            continue
        psi = math.cos(theta) * psi - (1j * math.sin(theta)) * (ph[i] * psi[idx[i]])
    nrm = float(np.linalg.norm(psi))
    return psi / nrm, nrm


def tridiagonal_dense(t) -> np.ndarray:
    """Dense matrix of a tridiagonal operator's alpha (below), gamma, beta (above)."""
    return (np.diag(t.alpha, -1) + np.diag(t.gamma) + np.diag(t.beta, 1)).astype(complex)


def decode_nonnegative(scaled) -> np.ndarray:
    """scale * |amplitude_k|: exact for encoded real non-negative samples."""
    return scaled.scale * np.abs(scaled.state.amplitudes)


def parse_pauli_terms(text: str) -> list[tuple[complex, str]]:
    """(coefficient, symbols) pairs of the "(re+imi) SYMBOLS" text form, one per line."""
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "0":
            continue
        coeff_text, symbols = line.rsplit(None, 1)
        terms.append((complex(coeff_text.strip("()").replace("i", "j")), symbols))
    return terms
