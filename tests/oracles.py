"""Independent dense oracles shared by the test modules.

Everything here is built from literal 2x2 matrices, numpy primitives and
plain Python arithmetic so the checks never route through the code under
test.  StringPauliSum is the Pauli-sum algebra written term by term on
symbol strings; the recursive generator blocks at the end are built with it.
"""

import functools
import itertools
import math

import numpy as np

from qnute.hamiltonian import apply_linear_bc, bs_coefficients
from qnute.pauli import LadderOp

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


def assert_same_bits(got, want) -> None:
    """Same strings in the same order, and coefficients equal bit for bit (signed zeros too).

    Either side may be a qnute PauliSum or a StringPauliSum.
    """
    assert [str(s) for _, s in got.terms] == [str(s) for _, s in want.terms]
    bits = [np.array([c for c, _ in x.terms], dtype=complex).view(np.uint64)
            for x in (got, want)]
    assert np.array_equal(*bits)


# --- Pauli-sum algebra one string and one symbol at a time ---

# Single-qubit products: (a, b) -> (phase, a*b) with phase in {1, -1, i, -i}.
STRING_PRODUCTS: dict[tuple[str, str], tuple[complex, str]] = {}
for _s in "IXYZ":
    STRING_PRODUCTS[("I", _s)] = (1.0 + 0j, _s)
    STRING_PRODUCTS[(_s, "I")] = (1.0 + 0j, _s)
    STRING_PRODUCTS[(_s, _s)] = (1.0 + 0j, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    STRING_PRODUCTS[(_a, _b)] = (1j, _c)
    STRING_PRODUCTS[(_b, _a)] = (-1j, _c)


def string_product(p: str, q: str) -> tuple[complex, str]:
    """(phase, r) with matrix(p) @ matrix(q) == phase * matrix(r), one symbol at a time."""
    assert len(p) == len(q)
    phase = 1.0 + 0j
    out = []
    for a, b in zip(p, q):
        ph, c = STRING_PRODUCTS[(a, b)]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


class StringPauliSum:
    """A Pauli sum as a tuple of (complex, str) terms, merged through a dict.

    Equal strings are summed onto 0j in the order they arrive, the terms are
    sorted by string, and terms with |c| <= 1e-14 are dropped.  Each
    operation forms every coefficient with Python's complex arithmetic.
    """

    __array_ufunc__ = None  # numpy scalars on the left of * use __rmul__

    def __init__(self, terms=()):
        merged: dict[str, complex] = {}
        for coeff, string in terms:
            string = str(string)
            assert not merged or len(string) == len(next(iter(merged)))
            merged[string] = merged.get(string, 0j) + complex(coeff)
        self.terms = tuple((c, s) for s, c in sorted(merged.items()) if abs(c) > 1e-14)
        self.has_real_matrix = all(
            abs(c.imag if s.count("Y") % 2 == 0 else c.real) <= 1e-14 for c, s in self.terms
        )

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "StringPauliSum":
        return cls([(coeff, "I" * n)])

    def __add__(self, other):
        return StringPauliSum(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return StringPauliSum((-c, s) for c, s in self.terms)

    def __mul__(self, scalar):
        return StringPauliSum((c * scalar, s) for c, s in self.terms)

    __rmul__ = __mul__

    def __matmul__(self, other):
        out = []
        for ca, sa in self.terms:
            for cb, sb in other.terms:
                phase, s = string_product(sa, sb)
                out.append((ca * cb * phase, s))
        return StringPauliSum(out)

    def tensor(self, other):
        return StringPauliSum(
            (ca * cb, sa + sb) for ca, sa in self.terms for cb, sb in other.terms
        )


def split_by_string(terms, n: int, domain_size: int):
    """(window start, terms) groups of split_terms' window rule, one string at a time.

    A string takes the window that contains its support, else the one whose
    centre is nearest its support's midpoint, the lowest start on a tie.
    """
    starts = range(n - domain_size + 1)
    groups: dict[int, list] = {}
    for coeff, string in terms:
        support = [q for q, ch in enumerate(string) if ch != "I"]
        lo, hi = (support[0], support[-1]) if support else ((n - 1) // 2, (n - 1) // 2)
        mid = (lo + hi) / 2.0
        best = min(
            starts,
            key=lambda s: (
                0 if (s <= lo and hi < s + domain_size) else 1,
                abs(s + (domain_size - 1) / 2.0 - mid),
                s,
            ),
        )
        groups.setdefault(best, []).append((coeff, string))
    return [(s, groups[s]) for s in sorted(groups)]


STRING_LADDERS = {
    LadderOp.NW: ((0.5, "I"), (0.5, "Z")),
    LadderOp.SE: ((0.5, "I"), (-0.5, "Z")),
    LadderOp.NE: ((0.5, "X"), (0.5j, "Y")),
    LadderOp.SW: ((0.5, "X"), (-0.5j, "Y")),
}


def string_ladder(op) -> StringPauliSum:
    return StringPauliSum(STRING_LADDERS[op])


# --- The Black-Scholes generator blocks, one cached recursion level each ---
# Each level prepends one qubit to the level below it; the expressions, and so
# the order of every coefficient sum, are those of the recursive construction.


@functools.lru_cache(maxsize=None)
def recursive_ladder_power(op, n: int):
    out = string_ladder(op)
    for _ in range(n - 1):
        out = out.tensor(string_ladder(op))
    return out


@functools.lru_cache(maxsize=None)
def recursive_chi(n: int):
    if n == 1:
        return string_ladder(LadderOp.SE)
    return StringPauliSum.identity(1).tensor(recursive_chi(n - 1)) + float(2 ** (n - 1)) * (
        string_ladder(LadderOp.SE).tensor(StringPauliSum.identity(n - 1))
    )


@functools.lru_cache(maxsize=None)
def recursive_chi_squared(n: int):
    if n == 1:
        return string_ladder(LadderOp.SE)
    inner = (
        float(2**n) * recursive_chi(n - 1)
        + float(2 ** (2 * (n - 1))) * StringPauliSum.identity(n - 1)
    )
    return StringPauliSum.identity(1).tensor(recursive_chi_squared(n - 1)) + string_ladder(
        LadderOp.SE
    ).tensor(inner)


@functools.lru_cache(maxsize=None)
def recursive_d1(n: int):
    if n == 1:
        return StringPauliSum([(1j, "Y")])
    return (
        StringPauliSum.identity(1).tensor(recursive_d1(n - 1))
        + string_ladder(LadderOp.NE).tensor(recursive_ladder_power(LadderOp.SW, n - 1))
        - string_ladder(LadderOp.SW).tensor(recursive_ladder_power(LadderOp.NE, n - 1))
    )


@functools.lru_cache(maxsize=None)
def recursive_d2(n: int):
    if n == 1:
        return StringPauliSum([(-2.0, "I"), (1.0, "X")])
    return (
        StringPauliSum.identity(1).tensor(recursive_d2(n - 1))
        + string_ladder(LadderOp.NE).tensor(recursive_ladder_power(LadderOp.SW, n - 1))
        + string_ladder(LadderOp.SW).tensor(recursive_ladder_power(LadderOp.NE, n - 1))
    )


def recursive_bs_pauli(grid, p, boundary: str):
    """The Black-Scholes generator as a Pauli sum, from the recursive blocks."""
    n, h = grid.n, grid.h
    x_sum = grid.x0 * StringPauliSum.identity(n) + h * recursive_chi(n)
    x2_sum = (
        grid.x0**2 * StringPauliSum.identity(n)
        + (2.0 * grid.x0 * h) * recursive_chi(n)
        + h**2 * recursive_chi_squared(n)
    )
    gen = (
        (p.sigma**2 / (2.0 * h**2)) * (x2_sum @ recursive_d2(n))
        + (p.r / (2.0 * h)) * (x_sum @ recursive_d1(n))
        - p.r * StringPauliSum.identity(n)
    )
    if boundary == "linear":
        central = bs_coefficients(grid, p)
        linear = apply_linear_bc(central, grid, p)
        gen = (
            gen
            + (linear.gamma[0] - central.gamma[0]) * recursive_ladder_power(LadderOp.NW, n)
            + (linear.beta[0] - central.beta[0])
            * recursive_ladder_power(LadderOp.NW, n - 1).tensor(string_ladder(LadderOp.NE))
            + (linear.alpha[-1] - central.alpha[-1])
            * recursive_ladder_power(LadderOp.SE, n - 1).tensor(string_ladder(LadderOp.SW))
            + (linear.gamma[-1] - central.gamma[-1]) * recursive_ladder_power(LadderOp.SE, n)
        )
    return gen
