"""Pauli string and Pauli sum algebra against literal dense matrices."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    decompose_per_string,
    dense_of_terms,
    dense_per_string,
    kron_of,
    parse_pauli_terms,
    random_pauli_sum_terms,
)
from qnute.errors import CapacityError, DimensionMismatchError
from qnute.hamiltonian import BSParams, Grid, build_bs_pauli
from qnute.pauli import (
    LadderOp,
    PauliString,
    PauliSum,
    decompose_dense,
    dense_matrix,
    format_pauli_sum,
    ladder_as_pauli,
    ladder_power,
    multiply_strings,
    string_action,
)


def sums_close(a: PauliSum, b: PauliSum, tol: float = 1e-12) -> bool:
    keys = {s for _, s in a.terms} | {s for _, s in b.terms}
    da = dict((s, c) for c, s in a.terms)
    db = dict((s, c) for c, s in b.terms)
    return all(abs(da.get(k, 0) - db.get(k, 0)) <= tol for k in keys)


class TestPauliString:
    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="invalid Pauli symbols"):
            PauliString("IXQ")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PauliString("")

    def test_support_and_y_count(self):
        s = PauliString("IYXY")
        assert s.support == (1, 2, 3)
        assert s.y_count == 2


class TestMultiplyStrings:
    def test_xy_is_iz(self):
        phase, r = multiply_strings(PauliString("X"), PauliString("Y"))
        assert phase == 1j and r == "Z"

    def test_involution(self):
        phase, r = multiply_strings(PauliString("IX"), PauliString("IX"))
        assert phase == 1 and r == "II"

    def test_xz_times_yy_matches_dense(self):
        p, q = PauliString("XZ"), PauliString("YY")
        phase, r = multiply_strings(p, q)
        assert np.allclose(kron_of(p) @ kron_of(q), phase * kron_of(r))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply_strings(PauliString("X"), PauliString("XX"))

    @pytest.mark.parametrize("n", [1, 2])
    def test_phase_closure_exhaustive(self, n):
        for p in itertools.product("IXYZ", repeat=n):
            for q in itertools.product("IXYZ", repeat=n):
                ps, qs = PauliString("".join(p)), PauliString("".join(q))
                phase, r = multiply_strings(ps, qs)
                assert phase in (1, -1, 1j, -1j)
                assert np.allclose(kron_of(ps) @ kron_of(qs), phase * kron_of(r))

    def test_phase_closure_sampled_n4(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = PauliString("".join(rng.choice(list("IXYZ"), 4)))
            q = PauliString("".join(rng.choice(list("IXYZ"), 4)))
            phase, r = multiply_strings(p, q)
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
        for c, string in s.terms:
            idx, ph = string_action(string)
            got += c * ph * v[idx]
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
