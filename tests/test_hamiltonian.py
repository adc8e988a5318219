"""Discretized Black-Scholes generators: coefficients, Pauli forms, term splitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    StringPauliSum,
    assert_same_bits,
    random_pauli_sum_terms,
    recursive_bs_pauli,
    recursive_chi,
    recursive_chi_squared,
    recursive_d1,
    recursive_d2,
    recursive_ladder_power,
    split_by_string,
    tridiagonal_dense,
)
from qnute.errors import DimensionMismatchError, InvalidDomainError, UnsupportedSizeError
from qnute.hamiltonian import (
    BSParams,
    Grid,
    apply_linear_bc,
    bs_coefficients,
    build_bs_pauli,
    chi_matrix,
    chi_squared_matrix,
    d1_matrix,
    d2_matrix,
    split_terms,
)
from qnute.pauli import LadderOp, PauliSum, dense_matrix, ladder_power

PAPER_GRID = Grid(0.0, 150.0, 2)
PAPER_PARAMS = BSParams(r=0.04, sigma=0.2)


class TestGrid:
    def test_spacing(self):
        assert PAPER_GRID.h == pytest.approx(50.0)
        assert np.allclose(PAPER_GRID.points(), [0.0, 50.0, 100.0, 150.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(100.0, 50.0, 2)
        with pytest.raises(ValueError):
            Grid(-1.0, 50.0, 2)
        with pytest.raises(ValueError):
            Grid(0.0, 50.0, 0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BSParams(r=-0.01, sigma=0.2)
        with pytest.raises(ValueError):
            BSParams(r=0.04, sigma=-0.2)

    @pytest.mark.parametrize(
        "r, sigma", [(0.04, math.nan), (math.nan, 0.2), (math.inf, 0.2), (0.04, math.inf)]
    )
    def test_params_must_be_finite(self, r, sigma):
        # A NaN volatility used to pass, and its diffusion terms vanished from the generator.
        with pytest.raises(ValueError, match="must be finite"):
            BSParams(r=r, sigma=sigma)

    @pytest.mark.parametrize("x0, xN", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)])
    def test_grid_must_be_finite(self, x0, xN):
        with pytest.raises(ValueError, match="must be finite"):
            Grid(x0, xN, 3)


class TestBsCoefficients:
    def test_degenerate_left_point(self):
        # x_0 = 0 forces alpha = beta = 0 and gamma = -r on row 0.
        t = bs_coefficients(PAPER_GRID, PAPER_PARAMS)
        assert t.beta[0] == pytest.approx(0.0)
        assert t.gamma[0] == pytest.approx(-0.04)

    def test_worked_interior_row(self):
        t = bs_coefficients(PAPER_GRID, PAPER_PARAMS)
        assert t.alpha[0] == pytest.approx(0.0)  # row k=1
        assert t.beta[1] == pytest.approx(0.04)
        assert t.gamma[1] == pytest.approx(-0.08)

    def test_row_sums(self):
        grid = Grid(10.0, 200.0, 3)
        t = bs_coefficients(grid, PAPER_PARAMS)
        dense = tridiagonal_dense(t).real
        sums = dense.sum(axis=1)
        # Interior rows sum to -r by construction of gamma.
        assert np.allclose(sums[1:-1], -PAPER_PARAMS.r)


class TestLinearBoundary:
    def test_left_boundary_at_zero(self):
        t = apply_linear_bc(bs_coefficients(PAPER_GRID, PAPER_PARAMS), PAPER_GRID, PAPER_PARAMS)
        assert t.gamma[0] == pytest.approx(-0.04)
        assert t.beta[0] == pytest.approx(0.0)

    def test_worked_right_boundary(self):
        t = apply_linear_bc(bs_coefficients(PAPER_GRID, PAPER_PARAMS), PAPER_GRID, PAPER_PARAMS)
        assert t.alpha[-1] == pytest.approx(-0.12)
        assert t.gamma[-1] == pytest.approx(0.08)

    def test_idempotent(self):
        t = apply_linear_bc(bs_coefficients(PAPER_GRID, PAPER_PARAMS), PAPER_GRID, PAPER_PARAMS)
        assert apply_linear_bc(t, PAPER_GRID, PAPER_PARAMS) is t

    def test_annihilates_constants_up_to_rate(self):
        grid = Grid(10.0, 150.0, 3)
        t = apply_linear_bc(bs_coefficients(grid, PAPER_PARAMS), grid, PAPER_PARAMS)
        out = tridiagonal_dense(t).real @ np.ones(grid.num_points)
        assert np.allclose(out, -PAPER_PARAMS.r)


class TestOperatorRecursions:
    def test_chi_one_qubit(self):
        assert chi_matrix(1) == PauliSum([(0.5, "I"), (-0.5, "Z")])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chi_dense(self, n):
        assert np.allclose(dense_matrix(chi_matrix(n), n), np.diag(np.arange(1 << n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chi_squared_dense(self, n):
        got = dense_matrix(chi_squared_matrix(n), n)
        assert np.allclose(got, np.diag(np.arange(1 << n) ** 2))

    def test_d1_one_qubit(self):
        assert d1_matrix(1) == PauliSum([(1j, "Y")])

    def test_d2_one_qubit(self):
        assert d2_matrix(1) == PauliSum([(-2.0, "I"), (1.0, "X")])

    @pytest.mark.parametrize("n", [2, 3])
    def test_difference_matrices_dense(self, n):
        dim = 1 << n
        ones = np.ones(dim - 1)
        assert np.allclose(
            dense_matrix(d1_matrix(n), n), np.diag(ones, 1) - np.diag(ones, -1)
        )
        assert np.allclose(
            dense_matrix(d2_matrix(n), n),
            np.diag(ones, 1) + np.diag(ones, -1) - 2.0 * np.eye(dim),
        )


class TestBlockBits:
    """The one-pass blocks equal the recursive construction of tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_blocks(self, n):
        for block, oracle in (
            (chi_matrix, recursive_chi),
            (chi_squared_matrix, recursive_chi_squared),
            (d1_matrix, recursive_d1),
            (d2_matrix, recursive_d2),
        ):
            assert_same_bits(block(n), oracle(n))
        for op in LadderOp:
            assert_same_bits(ladder_power(op, n), recursive_ladder_power(op, n))

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("boundary", ["central", "linear"])
    @pytest.mark.parametrize("x0", [0.0, 10.0])
    def test_generator(self, n, boundary, x0):
        grid = Grid(x0, 150.0, n)
        assert_same_bits(build_bs_pauli(grid, PAPER_PARAMS, boundary),
                         recursive_bs_pauli(grid, PAPER_PARAMS, boundary))

    @pytest.mark.parametrize("block", [chi_matrix, chi_squared_matrix, d1_matrix, d2_matrix])
    def test_no_qubits_is_refused(self, block):
        with pytest.raises(ValueError, match=f"{block.__name__} requires n >= 1"):
            block(0)


class TestBuildBsPauli:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("boundary", ["central", "linear"])
    def test_matches_tridiagonal(self, n, boundary):
        grid = Grid(0.0, 150.0, n)
        t = bs_coefficients(grid, PAPER_PARAMS)
        if boundary == "linear":
            t = apply_linear_bc(t, grid, PAPER_PARAMS)
        got = dense_matrix(build_bs_pauli(grid, PAPER_PARAMS, boundary), n)
        assert np.max(np.abs(got - tridiagonal_dense(t))) < 1e-10

    def test_linear_rows_carry_boundary_coefficients(self):
        grid = Grid(0.0, 150.0, 3)
        t = apply_linear_bc(bs_coefficients(grid, PAPER_PARAMS), grid, PAPER_PARAMS)
        dense = dense_matrix(build_bs_pauli(grid, PAPER_PARAMS, "linear"), 3).real
        assert dense[0, 0] == pytest.approx(t.gamma[0])
        assert dense[0, 1] == pytest.approx(t.beta[0])
        assert dense[7, 6] == pytest.approx(t.alpha[-1])
        assert dense[7, 7] == pytest.approx(t.gamma[-1])

    def test_zero_parameters_give_zero_operator(self):
        gen = build_bs_pauli(Grid(0.0, 150.0, 3), BSParams(0.0, 0.0), "central")
        assert gen == PauliSum()

    def test_linear_mode_needs_two_qubits(self):
        with pytest.raises(UnsupportedSizeError):
            build_bs_pauli(Grid(0.0, 150.0, 1), PAPER_PARAMS, "linear")

    def test_nonnormality_with_linear_boundary(self):
        gen = dense_matrix(build_bs_pauli(Grid(0.0, 150.0, 3), PAPER_PARAMS, "linear"), 3)
        h = 1j * gen  # the Schrodinger-form operator
        comm = h @ h.conj().T - h.conj().T @ h
        assert np.linalg.norm(comm) > 1e-6


class TestSplitTerms:
    def test_single(self):
        s = PauliSum([(1.0, "XXII"), (2.0, "IIZZ")])
        terms = split_terms(s, 4, 4)
        assert len(terms) == 1
        assert terms[0].support == frozenset(range(4))
        assert terms[0].pauli == s

    def test_window_covering_register(self):
        s = PauliSum([(1.0, "XY")])
        terms = split_terms(s, 2, 2)
        assert len(terms) == 1
        assert terms[0].support == frozenset({0, 1})

    def test_ixxi_lands_in_middle_window(self):
        s = PauliSum([(1.0, "IXXI"), (1.0, "ZIII")])
        terms = split_terms(s, 4, 2)
        by_support = {term.support: term.pauli for term in terms}
        assert frozenset({1, 2}) in by_support
        assert by_support[frozenset({1, 2})] == PauliSum([(1.0, "IXXI")])

    def test_narrow_strings_respect_support(self):
        rng = np.random.default_rng(4)
        s = PauliSum(random_pauli_sum_terms(rng, 5, 12))
        for term in split_terms(s, 5, 3):
            for codes in term.pauli.codes:
                sup = set(np.flatnonzero(codes).tolist())
                if len(sup) and max(sup) - min(sup) + 1 <= 3:
                    assert sup <= set(term.support)

    @pytest.mark.parametrize("domain_size", [1, 2, 3, 4])
    def test_reconstruction(self, domain_size):
        rng = np.random.default_rng(6)
        s = PauliSum(random_pauli_sum_terms(rng, 4, 15))
        terms = split_terms(s, 4, domain_size)
        total = PauliSum()
        for term in terms:
            total = total + term.pauli
        assert total == s

    def test_empty_sum_has_no_terms(self):
        assert split_terms(PauliSum(), 3, 2) == []

    def test_domain_larger_than_register(self):
        with pytest.raises(InvalidDomainError):
            split_terms(PauliSum([(1.0, "XX")]), 2, 3)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            split_terms(PauliSum([(1.0, "XX")]), 3, 2)

    @staticmethod
    def assert_split_as_oracle(s: PauliSum, n: int, domain_size: int) -> None:
        got = split_terms(s, n, domain_size)
        want = split_by_string(s.terms, n, domain_size)
        assert [term.support for term in got] == [
            frozenset(range(start, start + domain_size)) for start, _ in want
        ]
        for term, (_, group) in zip(got, want):
            assert_same_bits(term.pauli, StringPauliSum(group))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_windows_match_per_string_rule(self, n, data):
        domain_size = data.draw(st.integers(1, n))
        strings = st.text("IXYZ", min_size=n, max_size=n)
        terms = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), strings), max_size=30))
        self.assert_split_as_oracle(PauliSum(terms), n, domain_size)

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_generator_windows_match_per_string_rule(self, n):
        gen = build_bs_pauli(Grid(0.0, 150.0, n), PAPER_PARAMS, "linear")
        for domain_size in range(1, n + 1):
            self.assert_split_as_oracle(gen, n, domain_size)
