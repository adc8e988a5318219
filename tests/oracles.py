"""Independent dense oracles shared by the test modules.

Everything here is built from literal 2x2 matrices and numpy primitives so
the checks never route through the code under test.
"""

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


def measure_S(state, basis) -> np.ndarray:
    """Overlap matrix S[I, J] = <psi| sigma_I sigma_J |psi> from dense strings."""
    rows = np.array([kron_of(s) @ state.amplitudes for s in basis.strings])
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
