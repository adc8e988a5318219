"""Pauli string and Pauli sum algebra against literal dense matrices."""

import copy
import itertools
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    StringPauliSum,
    assert_same_bits,
    decompose_per_string,
    dense_of_terms,
    dense_per_string,
    kron_of,
    parse_pauli_terms,
    random_pauli_sum_terms,
    string_product,
)
from qnute.errors import CapacityError, DimensionMismatchError, UnsupportedSizeError
from qnute.hamiltonian import BSParams, Grid, HamiltonianTerm, build_bs_pauli, split_terms
from qnute.pauli import (
    COEFF_CUTOFF,
    SYMBOLS,
    LadderOp,
    PauliSum,
    apply_span,
    decompose_dense,
    dense_matrix,
    format_pauli_sum,
    gather_tables,
    ladder_as_pauli,
    ladder_power,
    span_matrix,
)


def sums_close(a: PauliSum, b: PauliSum, tol: float = 1e-12) -> bool:
    keys = {s for _, s in a.terms} | {s for _, s in b.terms}
    da = dict((s, c) for c, s in a.terms)
    db = dict((s, c) for c, s in b.terms)
    return all(abs(da.get(k, 0) - db.get(k, 0)) <= tol for k in keys)


class TestPauliString:
    """Strings as the PauliSum constructor reads them."""

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="invalid Pauli symbols"):
            PauliSum([(1.0, "IXQ")])

    def test_rejects_non_ascii_symbols(self):
        # A ValueError naming the symbol, not the UnicodeEncodeError of an ASCII encoding.
        with pytest.raises(ValueError, match="invalid Pauli symbols") as raised:
            PauliSum([(1.0, "XÉ")])
        assert type(raised.value) is ValueError and "['É']" in str(raised.value)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PauliSum([(1.0, "")])

    def test_terms_are_plain_strings(self):
        s = PauliSum([(1.0, "XZ"), (2j, "YI")])
        assert [type(string) for _, string in s.terms] == [str, str]


class TestMultiplyStrings:
    """tests/oracles.py's string product, which TestStringOracleBits trusts, against kron_of."""

    def test_xy_is_iz(self):
        phase, r = string_product("X", "Y")
        assert phase == 1j and r == "Z"

    def test_involution(self):
        phase, r = string_product("IX", "IX")
        assert phase == 1 and r == "II"

    def test_xz_times_yy_matches_dense(self):
        phase, r = string_product("XZ", "YY")
        assert np.allclose(kron_of("XZ") @ kron_of("YY"), phase * kron_of(r))

    @pytest.mark.parametrize("n", [1, 2])
    def test_phase_closure_exhaustive(self, n):
        for p in itertools.product("IXYZ", repeat=n):
            for q in itertools.product("IXYZ", repeat=n):
                ps, qs = "".join(p), "".join(q)
                phase, r = string_product(ps, qs)
                assert phase in (1, -1, 1j, -1j)
                assert np.allclose(kron_of(ps) @ kron_of(qs), phase * kron_of(r))

    def test_phase_closure_sampled_n4(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = "".join(rng.choice(list("IXYZ"), 4))
            q = "".join(rng.choice(list("IXYZ"), 4))
            phase, r = string_product(p, q)
            assert np.allclose(kron_of(p) @ kron_of(q), phase * kron_of(r))


class TestLadderOps:
    def test_nw_terms(self):
        assert sums_close(ladder_as_pauli(LadderOp.NW), PauliSum([(0.5, "I"), (0.5, "Z")]))

    def test_ne_terms(self):
        assert sums_close(ladder_as_pauli(LadderOp.NE), PauliSum([(0.5, "X"), (0.5j, "Y")]))

    def test_sw_dense(self):
        m = dense_matrix(ladder_as_pauli(LadderOp.SW), 1)
        assert np.allclose(m, [[0, 0], [1, 0]])

    def test_single_entry_matrices(self):
        expected = {
            LadderOp.NW: [[1, 0], [0, 0]],
            LadderOp.SE: [[0, 0], [0, 1]],
            LadderOp.NE: [[0, 1], [0, 0]],
            LadderOp.SW: [[0, 0], [1, 0]],
        }
        for op, m in expected.items():
            assert np.allclose(dense_matrix(ladder_as_pauli(op), 1), m)

    def test_ladder_completeness_two_qubits(self):
        # Tensor strings of corner operators reproduce every single-entry matrix.
        corner = {
            (0, 0): LadderOp.NW,
            (1, 1): LadderOp.SE,
            (0, 1): LadderOp.NE,
            (1, 0): LadderOp.SW,
        }
        for row in range(4):
            for col in range(4):
                hi = corner[(row >> 1, col >> 1)]
                lo = corner[(row & 1, col & 1)]
                s = ladder_as_pauli(hi).tensor(ladder_as_pauli(lo))
                expected = np.zeros((4, 4))
                expected[row, col] = 1.0
                assert np.allclose(dense_matrix(s, 2), expected)


class TestTensor:
    def test_nw_nw_expansion(self):
        got = ladder_as_pauli(LadderOp.NW).tensor(ladder_as_pauli(LadderOp.NW))
        want = PauliSum([(0.25, "II"), (0.25, "IZ"), (0.25, "ZI"), (0.25, "ZZ")])
        assert sums_close(got, want)

    def test_identity_prepends(self):
        s = PauliSum([(2.0, "XZ"), (1j, "YI")])
        got = PauliSum.identity(1).tensor(s)
        assert sums_close(got, PauliSum([(2.0, "IXZ"), (1j, "IYI")]))

    def test_ne_sw_single_entry(self):
        m = dense_matrix(ladder_as_pauli(LadderOp.NE).tensor(ladder_as_pauli(LadderOp.SW)), 2)
        expected = np.zeros((4, 4))
        expected[1, 2] = 1.0
        assert np.allclose(m, expected)

    def test_matches_kron_on_randoms(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = PauliSum(random_pauli_sum_terms(rng, 2, 3))
            b = PauliSum(random_pauli_sum_terms(rng, 1, 2))
            got = dense_matrix(a.tensor(b), 3)
            want = np.kron(dense_matrix(a, 2), dense_matrix(b, 1))
            assert np.allclose(got, want)


class TestDenseMatrix:
    def test_projector(self):
        m = dense_matrix(PauliSum([(0.5, "I"), (0.5, "Z")]), 1)
        assert np.allclose(m, [[1, 0], [0, 0]])

    def test_empty_sum_is_zero(self):
        assert np.allclose(dense_matrix(PauliSum(), 2), np.zeros((4, 4)))

    def test_iy(self):
        assert np.allclose(dense_matrix(PauliSum([(1j, "Y")]), 1), [[0, 1], [-1, 0]])

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            dense_matrix(PauliSum([(1.0, "I" * 15)]), 15)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dense_matrix(PauliSum([(1.0, "XX")]), 3)

    def test_random_sums_match_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            terms = random_pauli_sum_terms(rng, n, 4)
            assert np.allclose(dense_matrix(PauliSum(terms), n), dense_of_terms(terms))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 40),
        st.integers(1, 50),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_string_loop(self, n, num_terms, chunk, real, seed):
        # chunk strings per gather: 1 is the old loop's grouping, 50 one chunk.
        s = PauliSum(random_pauli_sum_terms(np.random.default_rng(seed), n, num_terms, real))
        with mock.patch("qnute.pauli._DENSE_CHUNK_BYTES", chunk * 24 << n):
            got = dense_matrix(s, n)
        assert got.tobytes() == dense_per_string(s.terms, n).tobytes()

    def test_chunks_bound_the_tables(self):
        # 2464 strings at n = 9: gathered at once their tables would take 30 MB.
        gen = build_bs_pauli(Grid(0.0, 150.0, 9), BSParams(0.04, 0.2), "linear")
        chunk_bytes = 1 << 20
        with mock.patch("qnute.pauli._DENSE_CHUNK_BYTES", chunk_bytes):
            tracemalloc.start()
            try:
                m = dense_matrix(gen, 9)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < m.nbytes + 8 * chunk_bytes
        assert m.tobytes() == dense_per_string(gen.terms, 9).tobytes()


def span_terms(rng, n: int, lo: int, hi: int, num_terms: int, real: bool):
    """Random terms acting within qubits lo..hi-1, one of them on both ends.

    With real set, the coefficients make the dense matrix real: real on
    strings with an even Y count, imaginary on the others.
    """
    ends = ["I"] * (hi - lo)
    ends[0], ends[-1] = rng.choice(list("XYZ")), rng.choice(list("XYZ"))
    words = ["".join(ends)]
    words += ["".join(rng.choice(list("IXYZ"), size=hi - lo)) for _ in range(num_terms)]
    terms = []
    for w in words:
        c = rng.normal() + 1j * rng.normal()
        if real:
            c = 1j * c.imag if w.count("Y") % 2 else c.real
        terms.append((c, "I" * lo + w + "I" * (n - hi)))
    return terms


class TestSpanOperators:
    """span_matrix and apply_span against the register-wide dense matrix."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_span_matches_dense_matrix(self, n):
        # Bit for bit, except where both M and v are complex: there the span's
        # matmul and the register-wide matvec may round apart in the last bits.
        rng = np.random.default_rng(n)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                for real in (True, False):
                    s = PauliSum(span_terms(rng, n, lo, hi, 5, real))
                    full = dense_matrix(s, n)
                    got_lo, m = span_matrix(s)
                    assert got_lo == lo and m.shape == (1 << (hi - lo),) * 2
                    eyes = np.eye(1 << lo), np.eye(1 << (n - hi))
                    assert np.array_equal(np.kron(np.kron(eyes[0], m), eyes[1]), full)
                    v = rng.normal(size=1 << n)
                    assert np.array_equal(apply_span((lo, m), v), full @ v)
                    v = v + 1j * rng.normal(size=1 << n)
                    if real:
                        assert np.array_equal(apply_span((lo, m), v), full @ v)
                    else:
                        bound = 8 * np.finfo(float).eps * (np.abs(full) @ np.abs(v))
                        assert np.all(np.abs(apply_span((lo, m), v) - full @ v) <= bound)

    @pytest.mark.parametrize("s", [PauliSum(), PauliSum([(-0.5, "III")])])
    def test_identity_only_and_empty_sums_span_qubit_0(self, s):
        lo, m = span_matrix(s)
        assert lo == 0 and m.shape == (2, 2)
        v = np.random.default_rng(0).normal(size=8) + 0j
        assert np.array_equal(apply_span((lo, m), v), dense_matrix(s, 3) @ v)

    def test_capacity_guard_is_on_the_span(self):
        assert span_matrix(PauliSum([(1.0, "I" * 15 + "X")]))[0] == 15
        with pytest.raises(CapacityError):
            span_matrix(PauliSum([(1.0, "X" + "I" * 13 + "X")]))


class TestDecomposeDense:
    def test_projector(self):
        got = decompose_dense(np.array([[1, 0], [0, 0]], dtype=complex))
        assert sums_close(got, PauliSum([(0.5, "I"), (0.5, "Z")]))

    def test_zero_matrix(self):
        assert decompose_dense(np.zeros((4, 4))) == PauliSum()

    def test_random_hermitian_round_trip(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.conj().T
        rebuilt = dense_matrix(decompose_dense(m), 2)
        assert np.max(np.abs(rebuilt - m)) < 1e-12

    def test_non_power_of_two(self):
        with pytest.raises(DimensionMismatchError):
            decompose_dense(np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverts_dense_matrix(self, n):
        rng = np.random.default_rng(n)
        s = PauliSum(random_pauli_sum_terms(rng, n, 5))
        assert sums_close(decompose_dense(dense_matrix(s, n)), s)


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 300),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_string_loop(self, n, chunk, real, density, seed):
        # chunk strings per gather: 1 is the old loop's grouping, 300 covers n <= 4 at once.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(1 << n, 1 << n))
        if not real:
            m = m + 1j * rng.normal(size=m.shape)
        m = m * (rng.uniform(size=m.shape) < density)
        with mock.patch("qnute.pauli._DENSE_CHUNK_BYTES", chunk * 24 << n):
            got = decompose_dense(m)
        want = decompose_per_string(m.astype(complex))
        assert [s for _, s in got.terms] == [s for _, s in want]
        got_coeffs = np.array([c for c, _ in got.terms], dtype=complex)
        want_coeffs = np.array([c for c, _ in want], dtype=complex)
        assert got_coeffs.tobytes() == want_coeffs.tobytes()

class TestPauliSum:
    def test_canonicalization_merges_and_sorts(self):
        s = PauliSum([(1.0, "ZI"), (2.0, "IX"), (1.0, "ZI"), (-2.0, "IX")])
        assert s.terms == ((2.0 + 0j, "ZI"),)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PauliSum([(1.0, "X"), (1.0, "XX")])

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = PauliSum(random_pauli_sum_terms(rng, 2, 3))
            b = PauliSum(random_pauli_sum_terms(rng, 2, 3))
            assert np.allclose(
                dense_matrix(a @ b, 2), dense_matrix(a, 2) @ dense_matrix(b, 2)
            )

    def test_apply_matches_dense(self):
        # The gather form phases * v[indices] of each string, as the stepper uses it.
        rng = np.random.default_rng(19)
        terms = random_pauli_sum_terms(rng, 3, 6)
        s = PauliSum(terms)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        got = np.zeros(8, dtype=complex)
        codes = np.array([[SYMBOLS.index(ch) for ch in string] for _, string in s.terms])
        idx, ph = gather_tables(codes)
        for (c, _), idx_k, ph_k in zip(s.terms, idx, ph):
            got += c * ph_k * v[idx_k]
        assert np.allclose(got, dense_of_terms(terms) @ v)

    def test_hermiticity_detection(self):
        # Conjugating every coefficient gives the adjoint, so s + s^dagger is Hermitian.
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = PauliSum(random_pauli_sum_terms(rng, 2, 4))
            sym = s + PauliSum((c.conjugate(), t) for c, t in s)
            m = dense_matrix(sym, 2)
            assert np.allclose(m, m.conj().T)
        m = dense_matrix(PauliSum([(1j, "X")]), 1)
        assert not np.allclose(m, m.conj().T)

    def test_has_real_matrix_matches_dense(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            s = PauliSum(random_pauli_sum_terms(rng, 2, 3))
            assert s.has_real_matrix == bool(
                np.max(np.abs(dense_matrix(s, 2).imag)) < 1e-12
            )


class TestTextNotation:
    def test_format_example(self):
        assert format_pauli_sum(PauliSum([(0.5, "IZ")])) == "(0.5+0i) IZ"

    def test_round_trip(self):
        # The dump carries 12 significant digits.
        rng = np.random.default_rng(31)
        s = PauliSum(random_pauli_sum_terms(rng, 3, 5))
        assert sums_close(PauliSum(parse_pauli_terms(format_pauli_sum(s))), s, tol=1e-10)

    def test_round_trip_exact_on_short_coefficients(self):
        s = PauliSum([(0.5 + 0.25j, "XZ"), (-2.0, "IY")])
        assert PauliSum(parse_pauli_terms(format_pauli_sum(s))) == s

    def test_empty_round_trip(self):
        assert format_pauli_sum(PauliSum()) == "0"
        assert parse_pauli_terms(format_pauli_sum(PauliSum())) == []


# Coefficient parts that cancel, fall exactly at the cutoff or carry a signed zero.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 3.0, COEFF_CUTOFF, -COEFF_CUTOFF, 5e-15]),
    st.floats(-8.0, 8.0),
)
COEFFICIENTS = st.one_of(
    PARTS.map(complex),
    PARTS.map(lambda x: complex(0.0, x)),
    st.builds(complex, PARTS, PARTS),
)
# Offsets that leave a cancelled pair above, at or below the cutoff.
RESIDUES = st.sampled_from([0.0, COEFF_CUTOFF, -COEFF_CUTOFF, 0.5 * COEFF_CUTOFF, 2 * COEFF_CUTOFF])


@st.composite
def term_lists(draw, n):
    """(coefficient, string) lists with repeated strings, some cancelling earlier ones."""
    strings = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    terms = draw(st.lists(st.tuples(COEFFICIENTS, st.sampled_from(strings)), max_size=8))
    for i in draw(st.lists(st.integers(0, max(len(terms) - 1, 0)), max_size=3)) if terms else ():
        c, string = terms[i]
        terms.append((-c + draw(RESIDUES), string))
    return terms


SCALARS = st.one_of(PARTS, COEFFICIENTS, st.integers(-3, 3), PARTS.map(np.float64))


class TestStringOracleBits:
    """The array algebra equals the dict-and-string algebra of tests/oracles.py bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(term_lists(n), term_lists(n))), SCALARS)
    def test_operators(self, pair, scalar):
        ta, tb = pair
        a, b = PauliSum(ta), PauliSum(tb)
        oa, ob = StringPauliSum(ta), StringPauliSum(tb)
        assert_same_bits(a, oa)
        assert_same_bits(a + b, oa + ob)
        assert_same_bits(a - b, oa - ob)
        assert_same_bits(-a, -oa)
        assert_same_bits(a * scalar, oa * scalar)
        assert_same_bits(scalar * a, scalar * oa)
        assert_same_bits(a @ b, oa @ ob)
        assert_same_bits(a.tensor(b), oa.tensor(ob))
        assert a.has_real_matrix == oa.has_real_matrix

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[term_lists(n)] * 3)))
    def test_chained_operations(self, triple):
        # Results feed further operations, as in the generator's ladder construction.
        a, b, c = (PauliSum(t) for t in triple)
        oa, ob, oc = (StringPauliSum(t) for t in triple)
        got = (a @ b - c).tensor(a + c) @ (b.tensor(c) * 0.5j)
        assert_same_bits(got, (oa @ ob - oc).tensor(oa + oc) @ (ob.tensor(oc) * 0.5j))


class TestArrays:
    def test_rows_are_read_only(self):
        s = PauliSum([(1.0, "XZ"), (2j, "YI")])
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0
        with pytest.raises(ValueError):
            s.codes[0, 0] = 0
        assert s.codes.tolist() == [[1, 3], [2, 0]]
        assert s.codes.dtype == np.int8

    def test_empty_sum_has_no_qubits(self):
        s = PauliSum([(1.0, "XX"), (-1.0, "XX")])
        assert s == PauliSum() and s.num_qubits is None and s.codes.shape == (0, 0)

    def test_from_codes_equals_strings(self):
        rng = np.random.default_rng(41)
        terms = random_pauli_sum_terms(rng, 4, 20)
        codes = [[SYMBOLS.index(ch) for ch in string] for _, string in terms]
        got = PauliSum.from_codes(codes, [c for c, _ in terms])
        assert_same_bits(got, PauliSum(terms))
        assert got == PauliSum(terms) and hash(got) == hash(PauliSum(terms))

    @pytest.mark.parametrize(
        "codes, match", [([[4]], "0..3"), ([[-1]], "0..3"), (np.zeros((1, 0)), "symbol")]
    )
    def test_from_codes_refuses_bad_rows(self, codes, match):
        with pytest.raises(ValueError, match=match):
            PauliSum.from_codes(codes, [1.0])

    def test_width_beyond_keys_is_refused(self):
        with pytest.raises(UnsupportedSizeError):
            PauliSum([(1.0, "X" * 32)])
        half = PauliSum([(1.0, "X" * 16)])
        with pytest.raises(UnsupportedSizeError):
            half.tensor(half)


class TestNonFinite:
    @pytest.mark.parametrize(
        "coeff", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, math.inf)]
    )
    def test_coefficient_is_refused_not_dropped(self, coeff):
        with pytest.raises(ValueError, match="finite"):
            PauliSum([(1.0, "IX"), (coeff, "ZY")])

    def test_cancelling_infinities_are_refused(self):
        with pytest.raises(ValueError, match="finite"):
            PauliSum([(math.inf, "X"), (-math.inf, "X")])

    def test_overflowing_operations_are_refused(self):
        big = PauliSum([(1e200, "X"), (1.0, "Z")])
        for operation in (lambda: big @ big, lambda: big * 1e200, lambda: big.tensor(big)):
            with pytest.raises(ValueError, match="finite"):
                operation()

    def test_decompose_refuses_a_nan_entry(self):
        m = np.eye(2)
        m[0, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            decompose_dense(m)


COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestCopies:
    @pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
    def test_sums_round_trip(self, copy_of):
        gen = build_bs_pauli(Grid(0.0, 150.0, 4), BSParams(0.04, 0.2), "linear")
        for s in (gen, PauliSum(), PauliSum([(1j, "Y")])):
            got = copy_of(s)
            assert got == s and hash(got) == hash(s)
            assert_same_bits(got, s)

    @pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES.keys())
    def test_terms_round_trip(self, copy_of):
        gen = build_bs_pauli(Grid(0.0, 150.0, 4), BSParams(0.04, 0.2), "linear")
        for term in split_terms(gen, 4, 2):
            got = copy_of(term)
            assert isinstance(got, HamiltonianTerm)
            assert got == term and hash(got) == hash(term)
