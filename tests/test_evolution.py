"""The fitted Trotter stepper: bases, measurements, solver, steps, trajectories."""

import ast
import gc
import math
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qnute.evolution
import qnute.exact
from oracles import (
    b_from_conj_rows,
    dense_of_terms,
    fit_strings,
    fit_tables,
    kron_of,
    measure_S,
    random_pauli_sum_terms,
    rotate_complex,
    solve_coefficients,
)
from qnute.cli import _set_blas_threads, _sweep_one
from qnute.errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidDomainError,
    SingularSystemError,
    StepSizeError,
)
from qnute.evolution import (
    LSTSQ_REL_TOL,
    TRIG_POLY_BOUND,
    QnuteConfig,
    _b_from,
    _c_from,
    _doubled,
    _group_weights,
    _odd_y_factors,
    _rotate_groups,
    _sin_cos,
    _solve_gram_factor,
    _vi_dot,
    check_basis_size,
    evolve,
    prefix_groups,
    sigma_basis,
    trotter_step,
)
from qnute.exact import exact_step
from qnute.hamiltonian import BSParams, Grid, HamiltonianTerm, build_bs_pauli, split_terms
from qnute.market import OptionContract, price_run
from qnute.pauli import PauliSum, apply_span, decompose_dense
from qnute.runconfig import parse_config
from qnute.statevector import (
    REAL_STATE_TOL,
    ScaledState,
    StateVector,
    encode_samples,
    fidelity,
)

PAPER_PARAMS = BSParams(r=0.04, sigma=0.2)


def random_state(rng, n, real=False):
    v = rng.normal(size=1 << n)
    if not real:
        v = v + 1j * rng.normal(size=1 << n)
    return StateVector(v / np.linalg.norm(v))


def dense_hpsi(psi, terms):
    """h|psi> for h given as (coefficient, symbols) terms, by the dense oracle."""
    return dense_of_terms(terms) @ psi.amplitudes if terms else np.zeros_like(psi.amplitudes)


def measure_c(psi, terms, delta_t):
    """The stepper's c = sqrt(1 + 2 dt Re<h>)."""
    return _c_from(psi.amplitudes, dense_hpsi(psi, terms), delta_t)


def basis_rows(psi, window, odd_y):
    """The stepper's fit rows sigma_I |psi>, gathered through its basis tables."""
    idx, ph, _ = sigma_basis(window, odd_y, psi.n)
    return ph * psi.amplitudes[idx]


def measure_b(psi, window, odd_y, terms, c):
    """The stepper's b[I] = (-2/c) Im <psi| sigma_I h |psi> from its basis rows."""
    return _b_from(basis_rows(psi, window, odd_y), dense_hpsi(psi, terms), c)


def assert_tables_match_oracle(window, odd_y, n):
    got = sigma_basis(window, odd_y, n)
    for mine, want in zip(got, fit_tables(window, odd_y, n)):
        assert mine.dtype == want.dtype and mine.shape == want.shape
        assert mine.tobytes() == want.tobytes()


def bs_setup(n, num_steps=500, domain_size=None, maturity=3.0):
    grid = Grid(0.0, 150.0, n)
    gen = build_bs_pauli(grid, PAPER_PARAMS, "linear")
    cfg = QnuteConfig(
        delta_t=maturity / num_steps,
        num_steps=num_steps,
        domain_size=n if domain_size is None else domain_size,
    )
    terms = split_terms(gen, n, cfg.domain_size)
    payoff = np.maximum(grid.points() - 75.0, 0.0)
    return encode_samples(payoff), terms, cfg


def all_windows(max_n):
    for n in range(1, max_n + 1):
        for width in range(1, n + 1):
            for first in range(n - width + 1):
                yield tuple(range(first, first + width)), n


class TestSigmaBasis:
    def test_full_single_qubit(self):
        assert fit_strings((0,), False, 1) == ("X", "Y", "Z")
        assert_tables_match_oracle((0,), False, 1)

    def test_odd_y_single_qubit(self):
        assert fit_strings((0,), True, 1) == ("Y",)
        assert_tables_match_oracle((0,), True, 1)

    def test_two_qubit_counts(self):
        for odd_y, size in ((False, 15), (True, 6)):
            assert len(fit_strings((0, 1), odd_y, 2)) == size
            assert all(a.shape == (size, 4) for a in sigma_basis((0, 1), odd_y, 2))

    def test_odd_y_two_qubit_strings(self):
        got = set(fit_strings((0, 1), True, 2))
        assert got == {"IY", "XY", "YI", "YX", "YZ", "ZY"}
        assert_tables_match_oracle((0, 1), True, 2)

    def test_embedding_pads_identity(self):
        assert fit_strings((1,), False, 3) == ("IXI", "IYI", "IZI")
        assert_tables_match_oracle((1,), False, 3)

    def test_deterministic_order(self):
        # Row I of the tables is the I-th string in lexicographic order.
        rng = np.random.default_rng(1)
        psi = random_state(rng, 3)
        strings = fit_strings((1, 2), False, 3)
        assert list(strings) == sorted(strings)
        rows = basis_rows(psi, (1, 2), False)
        for row, string in zip(rows, strings, strict=True):
            assert np.allclose(row, kron_of(string) @ psi.amplitudes)

    def test_tables_match_oracle_bitwise(self):
        # Every window of up to six qubits, both bases: 112 tables.
        cases = [(w, odd_y, n) for w, n in all_windows(6) for odd_y in (False, True)]
        assert len(cases) == 112
        for case in cases:
            assert_tables_match_oracle(*case)

    def test_eight_qubit_odd_y_tables_match_oracle_bitwise(self):
        assert_tables_match_oracle(tuple(range(8)), True, 8)

    def test_tables_keep_only_their_bytes(self):
        # The n = D = 6 odd-Y basis of the price-n6 run keeps its tables and
        # nothing per string beside them.
        tracemalloc.start()
        try:
            tables = sigma_basis(tuple(range(6)), True, 6)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * sum(a.nbytes for a in tables)

    def test_empty_domain(self):
        with pytest.raises(InvalidDomainError):
            sigma_basis((), False, 2)

    def test_non_contiguous_domain(self):
        with pytest.raises(InvalidDomainError):
            sigma_basis((0, 2), False, 3)

    def test_capacity_guard_before_enumeration(self, monkeypatch):
        # Odd-Y on 10 of 10 qubits: (4^10 - 2^10) / 2 strings x 2^10 x 32 bytes.
        monkeypatch.setattr(
            "qnute.evolution.gather_tables",
            lambda _: pytest.fail("basis tables were built"),
        )
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=str(523776 * 1024 * 32)):
                sigma_basis(tuple(range(10)), True, 10)
            with pytest.raises(CapacityError):
                sigma_basis(tuple(range(9)), True, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_capacity_limit_admits_eight_qubits(self):
        # The full basis at n = D = 8 keeps 0.67 GB of tables.
        assert sigma_basis(tuple(range(8)), False, 8)[0].shape == (65535, 256)

    def test_apply_all_matches_dense(self):
        rng = np.random.default_rng(0)
        psi = random_state(rng, 2)
        rows = basis_rows(psi, (0, 1), False)
        for i, s in enumerate(fit_strings((0, 1), False, 2)):
            assert np.allclose(rows[i], kron_of(s) @ psi.amplitudes)


class TestMeasureC:
    def test_zero_generator(self):
        psi = StateVector.basis(2, 1)
        assert measure_c(psi, [], 0.01) == pytest.approx(1.0)

    def test_constant_drift(self):
        psi = StateVector.basis(1, 0)
        assert measure_c(psi, [(-0.04, "I")], 0.006) == pytest.approx(np.sqrt(1.0 - 0.00048))

    def test_radicand_guard(self):
        psi = StateVector.basis(1, 0)
        with pytest.raises(StepSizeError):
            measure_c(psi, [(-100.0, "I")], 0.01)

    def test_c_squared_tracks_exact_norm(self):
        # |c^2 - ||exp(h dt) psi||^2| shrinks like dt^2.
        rng = np.random.default_rng(3)
        terms = random_pauli_sum_terms(rng, 2, 5)
        h_dense = dense_of_terms(terms)
        psi = random_state(rng, 2)
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            c = measure_c(psi, terms, dt)
            true = np.linalg.norm(scipy.linalg.expm(h_dense * dt) @ psi.amplitudes)
            errs.append(abs(c**2 - true**2))
        slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
        assert slope >= 1.9


class TestMeasureS:
    def test_zero_ket_full_basis(self):
        S = measure_S(StateVector.basis(1, 0), fit_strings((0,), False, 1))
        want = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 1]], dtype=complex)
        assert np.allclose(S, want)
        assert np.allclose(S + S.T, 2.0 * np.eye(3))

    def test_unit_diagonal_and_hermitian(self):
        rng = np.random.default_rng(4)
        S = measure_S(random_state(rng, 2), fit_strings((0, 1), False, 2))
        assert np.allclose(np.diag(S), 1.0)
        assert np.max(np.abs(S - S.conj().T)) < 1e-12

    def test_gram_psd(self):
        # The stepper's factor V = [Re rows, Im rows] satisfies S + S^T = 2 V V^T.
        rng = np.random.default_rng(5)
        psi = random_state(rng, 2)
        S = measure_S(psi, fit_strings((0, 1), False, 2))
        rows = basis_rows(psi, (0, 1), False)
        V = np.hstack([rows.real, rows.imag])
        assert np.allclose((S + S.T).real, 2.0 * V @ V.T)
        eigvals = np.linalg.eigvalsh((S + S.T).real)
        assert eigvals.min() > -1e-10


class TestMeasureB:
    def test_zero_generator(self):
        b = measure_b(StateVector.basis(2, 0), (0, 1), True, [], 1.0)
        assert np.allclose(b, 0.0)

    def test_single_qubit_worked_value(self):
        # h = Z on |+> with basis {Y}: the dense oracle fixes b = -2/c.
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        c = measure_c(plus, [(1.0, "Z")], 0.01)
        got = measure_b(plus, (0,), True, [(1.0, "Z")], c)
        sandwich = np.vdot(plus.amplitudes, kron_of("Y") @ kron_of("Z") @ plus.amplitudes)
        want = (-2.0 / c) * sandwich.imag
        assert got[0] == pytest.approx(want)
        assert got[0] == pytest.approx(-2.0 / c)

    def test_random_matches_dense(self):
        rng = np.random.default_rng(6)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        h_dense = dense_of_terms(terms)
        c = 0.97
        got = measure_b(psi, (0, 1), False, terms, c)
        for i, s in enumerate(fit_strings((0, 1), False, 2)):
            sandwich = np.vdot(psi.amplitudes, kron_of(s) @ h_dense @ psi.amplitudes)
            assert got[i] == pytest.approx((-2.0 / c) * sandwich.imag)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 8),
        st.floats(0.1, 10.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_conj_rows_form(self, size, n, c, real, seed):
        # A real state on an odd-Y basis has purely imaginary rows.
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(size, 1 << n)) + 1j * rng.normal(size=(size, 1 << n))
        hpsi = rng.normal(size=1 << n) + 0j
        if real:
            rows = 1j * rows.imag
        else:
            hpsi += 1j * rng.normal(size=1 << n)
        want = b_from_conj_rows(rows, hpsi, c)
        assert _b_from(rows, hpsi, c).tobytes() == want.tobytes()


class TestSolveCoefficients:
    """The stepper's solve, which takes the rows sigma_I |psi> (S = conj(rows) rows^T)."""

    def test_diagonal_system(self):
        rows = np.eye(3, dtype=complex)  # S = I, so S + S^T = 2 I
        a, residual = _solve_gram_factor(rows, np.array([2.0, 0.0, 0.0]), 1e-8)
        assert np.allclose(a, [1.0, 0.0, 0.0])
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_rhs(self):
        rows = np.eye(4, dtype=complex)
        a, residual = _solve_gram_factor(rows, np.zeros(4), 1e-8)
        assert a.shape == (4,) and np.all(a == 0.0) and residual == 0.0
        # A zero b returns before the factor is decomposed, even a singular one.
        a, residual = _solve_gram_factor(np.zeros((3, 2)), np.zeros(3), 1e-8)
        assert np.all(a == 0.0) and residual == 0.0

    def test_rank_deficient_minimal_norm(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(4, 2)).astype(complex)  # S + S^T = 2 v v^T, rank 2
        A = 2.0 * (rows.real @ rows.real.T)
        b = A @ (rows.real @ rng.normal(size=2))
        a, residual = _solve_gram_factor(rows, b, 1e-10)
        want = np.linalg.lstsq(A, b, rcond=1e-10)[0]
        assert np.allclose(a, want, atol=1e-8)
        assert residual < 1e-10

    def test_singular_system(self):
        with pytest.raises(SingularSystemError, match="cutoff"):
            _solve_gram_factor(np.zeros((3, 2), dtype=complex), np.ones(3), 1e-8)
        nan_rows = np.ones((3, 2), dtype=complex)
        nan_rows[1, 0] = np.nan
        with pytest.raises(SingularSystemError, match="SVD"):
            _solve_gram_factor(nan_rows, np.ones(3), 1e-8)

    def test_gram_factor_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rows = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
            S = np.conj(rows) @ rows.T
            b = rng.normal(size=6)
            a_eigh, r_eigh = solve_coefficients(S, b, 1e-10)
            a_fac, r_fac = _solve_gram_factor(rows, b, 1e-10)
            assert np.allclose(a_eigh, a_fac, atol=1e-8)
            assert r_eigh == pytest.approx(r_fac, abs=1e-8)


def real_matrix_terms(rng, n, num_terms):
    """Random (coefficient, symbols) pairs whose sum has a real matrix."""
    return [
        (1j * c if symbols.count("Y") % 2 else c, symbols)
        for c, symbols in random_pauli_sum_terms(rng, n, num_terms, real_coeffs=True)
    ]


class TestClosedFormSolve:
    """Full-register odd-Y fits on a real state, solved without the SVD."""

    @staticmethod
    def svd_calls(monkeypatch):
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_angles_match_the_eigh_oracle(self, n, bs_term, seed):
        # The step's a = b / 2^n is the minimal-norm solution of the dense system.
        rng = np.random.default_rng(seed)
        psi = random_state(rng, n, real=True)
        terms = list(_bs_term(n).pauli.terms) if bs_term and n > 1 else real_matrix_terms(rng, n, 6)
        window = tuple(range(n))
        term = HamiltonianTerm(PauliSum(terms), frozenset(window))
        cfg = QnuteConfig(delta_t=1e-4, num_steps=1, domain_size=n)
        _, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        b = measure_b(psi, window, True, terms, report.c)
        S = measure_S(psi, fit_strings(window, True, n))
        want, want_residual = solve_coefficients(S, b, LSTSQ_REL_TOL)
        assert np.linalg.norm(report.a - want) <= 1e-12 * np.linalg.norm(want)
        assert report.residual == 0.0 and want_residual <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_full_register_real_step_skips_the_svd(self, monkeypatch, n):
        calls = self.svd_calls(monkeypatch)
        if n == 1:  # the basis is Y alone
            term = HamiltonianTerm(PauliSum([(-1.0, "I"), (-1.0, "Z")]), frozenset({0}))
            initial = ScaledState(StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)), 1.0)
            cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=1)
        else:
            initial, (term,), cfg = bs_setup(n)
        _, report = trotter_step(initial, term, cfg)
        assert calls == [] and report.a.shape == ((4**n - 2**n) // 2,)

    def test_windowed_rows_take_the_svd(self, monkeypatch):
        calls = self.svd_calls(monkeypatch)
        initial, terms, cfg = bs_setup(4, domain_size=2)
        trotter_step(initial, terms[0], cfg)
        assert calls == [(6, 32)]  # the 6 odd-Y strings of two qubits, V = [Re, Im]

    @pytest.mark.parametrize("real_state", [True, False])
    def test_full_basis_rows_take_the_svd(self, monkeypatch, real_state):
        calls = self.svd_calls(monkeypatch)
        rng = np.random.default_rng(13)
        term = HamiltonianTerm(PauliSum(random_pauli_sum_terms(rng, 3, 4)), frozenset(range(3)))
        cfg = QnuteConfig(delta_t=0.001, num_steps=1, domain_size=3)
        trotter_step(ScaledState(random_state(rng, 3, real=real_state), 1.0), term, cfg)
        assert calls == [(63, 16)]

    def test_nearly_real_step_is_the_step_on_its_real_part(self, monkeypatch):
        rng = np.random.default_rng(14)
        v = random_state(rng, 3, real=True).amplitudes
        psi = StateVector(v + 1j * rng.uniform(-REAL_STATE_TOL, REAL_STATE_TOL, size=v.size))
        assert psi.is_real and np.any(psi.amplitudes.imag)
        _, terms, cfg = bs_setup(3)
        real_out, real_report = trotter_step(ScaledState(StateVector(v.real), 1.0), terms[0], cfg)
        calls = self.svd_calls(monkeypatch)
        monkeypatch.setattr(
            qnute.evolution, "sigma_basis", lambda *_: pytest.fail("basis tables were built")
        )
        out, report = trotter_step(ScaledState(psi, 1.0), terms[0], cfg)
        assert calls == []
        assert out.state.amplitudes.tobytes() == real_out.state.amplitudes.tobytes()
        assert out.scale == real_out.scale and report.c == real_report.c
        assert report.a.tobytes() == real_report.a.tobytes() and report.residual == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_are_singular(self, monkeypatch, bad):
        calls = self.svd_calls(monkeypatch)
        v = random_state(np.random.default_rng(15), 3, real=True).amplitudes
        v[2] = bad
        _, terms, cfg = bs_setup(3)
        # An inf amplitude makes h psi warn of inf * 0 before the fit sees it.
        with np.errstate(invalid="ignore"), pytest.raises(SingularSystemError, match="not finite"):
            trotter_step(ScaledState(StateVector(v), 1.0), terms[0], cfg)
        assert calls == []


def test_step_leaves_the_callers_blas_thread_count_alone(blas_threads, monkeypatch):
    # The library sets no thread count: qnute.cli.main sets one for a command.
    get, _ = blas_threads
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append(get())
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(qnute.evolution, "apply_span", spy("generator", apply_span))
    monkeypatch.setattr(qnute.exact, "exact_step", spy("exact", exact_step))
    initial, terms, cfg = bs_setup(4)
    trotter_step(initial, terms[0], cfg)
    assert seen == {"generator": [2]}
    assert get() == 2


class TestSerialBlas:
    """The one-thread pin qnute.cli sets around a command, under a numpy without OpenBLAS."""

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr("qnute.cli._openblas_threads", lambda: None)
        assert _set_blas_threads(1) is None
        assert _set_blas_threads(None) is None
        a, _ = _solve_gram_factor(np.eye(3, dtype=complex), np.array([2.0, 0.0, 0.0]), 1e-8)
        assert np.allclose(a, [1.0, 0.0, 0.0])


def _bs_term(n):
    gen = build_bs_pauli(Grid(0.0, 150.0, n), PAPER_PARAMS, "linear")
    return split_terms(gen, n, n)[0]


class TestRotationBits:
    """trotter_step's rotations against the complex-arithmetic oracle.

    Bit for bit, except on whole-register real fits, whose rotations are
    applied a prefix group at a time (see TestRotationBlocks) and agree to
    1e-12.  Odd-Y rotations act on the state's real part, and so does the oracle.
    """

    @staticmethod
    def check(psi, term, odd_y, angles=None, bitwise=True, delta_t=0.01):
        """The step against the oracle product of the given angles (the SVD fit mocked) or its own."""
        n = psi.n
        cfg = QnuteConfig(delta_t=delta_t, num_steps=1, domain_size=n)
        if angles is None:
            out, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        else:
            fit = (np.array(angles), 0.0)
            with mock.patch("qnute.evolution._solve_gram_factor", return_value=fit):
                out, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        idx, ph, _ = fit_tables(tuple(sorted(term.support)), odd_y, n)
        amp = psi.amplitudes.real if odd_y else psi.amplitudes
        want, nrm = rotate_complex(amp, idx, ph, [x * cfg.delta_t for x in report.a])
        if bitwise:
            assert np.array_equal(out.state.amplitudes, want)
            assert out.scale == 1.0 * report.c * nrm
        else:
            assert np.max(np.abs(out.state.amplitudes - want)) <= 1e-12
            assert out.scale == pytest.approx(report.c * nrm, rel=1e-12, abs=0.0)

    @staticmethod
    def draw(data, n, size):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        angle = st.one_of(st.just(0.0), st.floats(-200.0, 200.0, allow_nan=False))
        angles = data.draw(st.lists(angle, min_size=size, max_size=size), label="angles")
        return np.random.default_rng(seed), angles

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_real_state_odd_y(self, n, seed):
        # The whole-register fit has no solve to mock: the step's own angles a = b / 2^n.
        psi = random_state(np.random.default_rng(seed), n, real=True)
        self.check(psi, _bs_term(n), True, bitwise=False, delta_t=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_windowed_real_state_odd_y(self, n, data):
        # The terms of a split narrower than the register rotate one by one.
        width = data.draw(st.integers(1, n - 1), label="width")
        terms = split_terms(build_bs_pauli(Grid(0.0, 150.0, n), PAPER_PARAMS, "linear"), n, width)
        term = data.draw(st.sampled_from(terms), label="term")
        k = len(term.support)
        rng, angles = self.draw(data, n, (4**k - 2**k) // 2)
        assert k < n and term.pauli.has_real_matrix
        self.check(random_state(rng, n, real=True), term, True, angles)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.booleans(), st.data())
    def test_full_basis(self, n, real, data):
        # A complex term: a complex state, or a real one that turns complex.
        rng, angles = self.draw(data, n, 4**n - 1)
        h = PauliSum(random_pauli_sum_terms(rng, n, 4))
        term = HamiltonianTerm(h, frozenset(range(n)))
        self.check(random_state(rng, n, real=real), term, False, angles)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_nearly_real_state_odd_y(self, n, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, n, real=True).amplitudes
        v = v + 1j * rng.uniform(-REAL_STATE_TOL, REAL_STATE_TOL, size=v.size)
        psi = StateVector(v)
        assert psi.is_real and np.any(psi.amplitudes.imag)
        self.check(psi, _bs_term(n), True, bitwise=False, delta_t=1e-4)


def group_strings(n):
    """The whole-register odd-Y strings of each prefix, in basis order, from the oracle."""
    m = prefix_groups(n).m
    groups = {}
    for i, symbols in enumerate(fit_strings(tuple(range(n)), True, n)):
        groups.setdefault(symbols[: n - m], []).append(i)
    return m, list(groups.values())


class TestRotationBlocks:
    """Whole-register real rotations applied a prefix group at a time (see prefix_groups)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_ordered_product(self, n, seed, data):
        # Unit real states, angles 0 or up to 200 dt with dt = 0.01: the group
        # products differ from the one-by-one product by rounding, <= 1e-12.
        size = (4**n - 2**n) // 2
        angle = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
        thetas = data.draw(st.lists(angle, min_size=size, max_size=size), label="thetas")
        psi = random_state(np.random.default_rng(seed), n, real=True).amplitudes.real
        groups = prefix_groups(n)
        got = _rotate_groups(_doubled(psi, groups), np.array(thetas), groups)
        idx, ph, _ = fit_tables(tuple(range(n)), True, n)
        want, nrm = rotate_complex(psi, idx, ph, thetas)
        assert abs(np.linalg.norm(got) - nrm) <= 1e-12
        assert np.max(np.abs(got / np.linalg.norm(got) - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_block_rows_are_the_subproducts(self, n):
        # Each prefix's strings are consecutive, and its weights act on the
        # rows [Psi[r], (S_p Psi)[r]] as the dense ordered product of their rotations.
        m, members = group_strings(n)
        groups = prefix_groups(n)
        strings = fit_strings(tuple(range(n)), True, n)
        thetas = np.random.default_rng(n).uniform(-2.0, 2.0, len(strings))
        weights = _group_weights(thetas, groups)
        assert len(weights) == len(members) == 4 ** (n - m)
        assert [i for group in members for i in group] == list(range(len(strings)))
        v = np.random.default_rng(n + 1).normal(size=(1 << (n - m), 1 << m))
        doubled = np.stack([v, -v], axis=1).reshape(-1, 1 << m)
        for table, w, group in zip(groups.gathers, weights, members):
            want = v.reshape(-1).astype(complex)
            for i in group:  # exp(-i t sigma) = cos t - i sin t sigma, as sigma^2 = I
                turned = kron_of(strings[i]) @ want
                want = np.cos(thetas[i]) * want - 1j * np.sin(thetas[i]) * turned
            got = doubled[table].reshape(len(table), -1) @ w
            assert np.allclose(got[:, : 1 << m].reshape(-1), want, rtol=0.0, atol=1e-12)
            assert np.array_equal(got[:, 1 << m :], -got[:, : 1 << m])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_prefix_shifts_square_to_eps(self, n):
        # S_p^2 = eps_p = (-1)^(Y count of p), read off the doubled-row indices.
        m, members = group_strings(n)
        groups = prefix_groups(n)
        strings = fit_strings(tuple(range(n)), True, n)
        v = np.random.default_rng(n).normal(size=(1 << (n - m), 1 << m))
        doubled = np.stack([v, -v], axis=1).reshape(-1, 1 << m)
        for rows, group in zip(groups.gathers[:, :, 1], members):
            eps = (-1) ** strings[group[0]][: n - m].count("Y")
            once = doubled[rows]
            twice = np.stack([once, -once], axis=1).reshape(-1, 1 << m)[rows]
            assert np.array_equal(twice, eps * v)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_single_string_rows_are_the_fit_rows(self, n, seed):
        # The factored Vi u equals the matvec with the rows gain * psi[idx].
        rng = np.random.default_rng(seed)
        psi = random_state(rng, n, real=True).amplitudes.real
        idx, _, gain = fit_tables(tuple(range(n)), True, n)
        rows = gain * psi[idx]
        groups = prefix_groups(n)
        phi = _odd_y_factors(_doubled(psi, groups), groups)
        u = rng.normal(size=rows.shape[1])
        got, want = _vi_dot(phi, u, groups), rows @ u
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_whole_register_real_run_builds_no_gather_tables(self, monkeypatch):
        monkeypatch.setattr(
            qnute.evolution, "sigma_basis", lambda *_: pytest.fail("basis tables were built")
        )
        initial, terms, cfg = bs_setup(4, num_steps=3)
        steps = [(step, i) for step, i, *_ in evolve(initial, terms, cfg)]
        assert len(terms) == 1 and steps == [(1, 0), (2, 0), (3, 0)]

    def test_block_tables_keep_only_their_bytes(self):
        # The n = 8 prefix group tables, 1.1 MB, built with a peak under twice
        # that; the rotation block tables they replace took 67 MB.
        prefix_groups.cache_clear()
        tracemalloc.start()
        try:
            groups = prefix_groups(8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [groups.gathers, groups.patterns, groups.strings]
        arrays += [a for batch in groups.batches for a in batch]
        nbytes = sum(a.nbytes for a in arrays)
        assert nbytes <= 2e6 and kept <= 1.1 * nbytes and peak <= 2 * nbytes

    @pytest.mark.parametrize("n", [3, 6])
    def test_guard_counts_the_gather_tables(self, monkeypatch, n):
        # A windowed basis keeps its gather tables.
        tables = sigma_basis(tuple(range(n - 1)), True, n)
        allocated = sum(a.nbytes for a in tables)
        monkeypatch.setattr(qnute.evolution, "BASIS_BYTES_LIMIT", allocated)
        assert check_basis_size(n - 1, True, n) == tables[0].shape[0]
        monkeypatch.setattr(qnute.evolution, "BASIS_BYTES_LIMIT", allocated - 1)
        with pytest.raises(CapacityError, match=f"gather tables need {allocated} bytes, over"):
            check_basis_size(n - 1, True, n)

    @pytest.mark.parametrize("n", [3, 6])
    def test_guard_counts_the_prefix_tables(self, monkeypatch, n):
        # A whole-register basis keeps no gather tables: its prefix tables, phi and weights.
        groups = prefix_groups(n)
        psi = random_state(np.random.default_rng(n), n, real=True).amplitudes.real
        size = (4**n - 2**n) // 2
        phi = _odd_y_factors(_doubled(psi, groups), groups)
        arrays = [groups.gathers, groups.patterns, groups.strings, phi]
        arrays.append(_group_weights(np.full(size, 0.1), groups))
        allocated = sum(a.nbytes for a in arrays)
        monkeypatch.setattr(qnute.evolution, "BASIS_BYTES_LIMIT", allocated)
        assert check_basis_size(n, True, n) == size
        monkeypatch.setattr(qnute.evolution, "BASIS_BYTES_LIMIT", allocated - 1)
        with pytest.raises(CapacityError, match=f"work arrays need {allocated} bytes, over"):
            check_basis_size(n, True, n)

    def test_guard_admits_eight_qubits(self):
        # The odd-Y basis at n = D = 8: 5.0 MB of prefix tables and work arrays.
        assert check_basis_size(8, True, 8) == 32640

    def test_guard_admits_nine_qubits(self):
        # n = D = 9 keeps 30 MB, where its gather tables would take 2.1 GB.  A
        # 9-qubit window of 10 qubits keeps 4.3 GB of gather tables, n = D = 12 3.0 GB.
        assert check_basis_size(9, True, 9) == 130816
        with pytest.raises(CapacityError, match="gather tables"):
            check_basis_size(9, True, 10)
        with pytest.raises(CapacityError, match="work arrays"):
            check_basis_size(12, True, 12)


class TestSinCos:
    """_sin_cos gives every angle the bits of math.sin and math.cos."""

    @staticmethod
    def check(thetas):
        sin, cos = _sin_cos(thetas)
        for got, f in ((sin, math.sin), (cos, math.cos)):
            want = np.array([f(t) for t in thetas.tolist()])
            # Raw bytes, so that -0.0 differs from 0.0.
            assert thetas[got.view(np.uint64) != want.view(np.uint64)].tolist() == [], f.__name__

    def test_log_uniform_small_angles(self):
        # The polynomial branch, |t| log-uniform in [2^-40, 2^-10], both signs.
        rng = np.random.default_rng(18)
        size = 10**6
        self.check(np.exp2(rng.uniform(-40.0, -10.0, size)) * rng.choice((-1.0, 1.0), size))

    def test_edge_angles(self):
        edges = [0.0, TRIG_POLY_BOUND, np.nextafter(TRIG_POLY_BOUND, 1.0)]
        edges += [2.0**-26, 2.0**-27, 5e-324]
        # glibc's cosine and sine of the first two differ from the polynomials
        # cut before x^6 and x^7; of the last two, above 2^-8, from the full ones.
        hard = ["0x1.c94d2c36b172ap-11", "0x1.dda330585cef2p-11"]
        hard += ["0x1.f26ea8d6e5a7dp-8", "0x1.06dee73d684ecp-8"]
        edges += [float.fromhex(h) for h in hard]
        self.check(np.array(edges + [-t for t in edges]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-3, 1e-3)))
    def test_finite_angles(self, thetas):
        self.check(np.array(thetas, dtype=float))

    def test_small_angles_call_no_libm(self, monkeypatch):
        monkeypatch.setattr(qnute.evolution, "math", None)
        sin, cos = _sin_cos(np.array([-TRIG_POLY_BOUND, -1e-7, -0.0, 0.0, 3e-9, TRIG_POLY_BOUND]))
        assert np.all(np.abs(sin) <= TRIG_POLY_BOUND) and np.all(cos > 0.99)


class TestTrotterStep:
    @pytest.mark.parametrize("n, domain", [(4, 2), (4, 4)])
    def test_step_bits_do_not_depend_on_the_step_before(self, n, domain):
        # A windowed term fits through V and the SVD, a whole-register one by prefix groups.
        initial, terms, cfg = bs_setup(n, domain_size=domain)
        first, first_report = trotter_step(initial, terms[0], cfg)
        other = ScaledState(random_state(np.random.default_rng(12), n, real=True), 1.0)
        trotter_step(other, terms[0], cfg)
        again, again_report = trotter_step(initial, terms[0], cfg)
        assert again.state.amplitudes.tobytes() == first.state.amplitudes.tobytes()
        assert again.scale == first.scale
        assert again_report.a.tobytes() == first_report.a.tobytes()

    def test_zero_generator_is_identity(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng, 2)
        term = HamiltonianTerm(PauliSum(), frozenset({0, 1}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=2)
        out, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        assert np.allclose(out.state.amplitudes, psi.amplitudes)
        assert report.c == pytest.approx(1.0)
        assert np.allclose(report.a, 0.0)
        exact, _ = exact_step(psi, term.pauli, cfg.delta_t)
        assert fidelity(out.state, exact) == pytest.approx(1.0)

    def test_matches_solver_route(self):
        # The step's internal factored solve equals measure_S + solve_coefficients.
        rng = np.random.default_rng(10)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        h = PauliSum(terms)
        cfg = QnuteConfig(delta_t=0.005, num_steps=1, domain_size=2)
        term = HamiltonianTerm(h, frozenset({0, 1}))
        _, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        c = measure_c(psi, terms, cfg.delta_t)
        S = measure_S(psi, fit_strings((0, 1), False, 2))
        b = measure_b(psi, (0, 1), False, terms, c)
        a, _ = solve_coefficients(S, b, LSTSQ_REL_TOL)
        assert np.allclose(report.a, a, atol=1e-8)

    def test_norm_preserved_and_scale_accumulates(self):
        rng = np.random.default_rng(11)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        term = HamiltonianTerm(PauliSum(terms), frozenset({0, 1}))
        cfg = QnuteConfig(delta_t=0.004, num_steps=1, domain_size=2)
        out, report = trotter_step(ScaledState(psi, 2.0), term, cfg)
        assert out.state.norm() == pytest.approx(1.0, abs=1e-10)
        assert out.scale == pytest.approx(2.0 * report.c, rel=1e-12)

    def test_ground_state_drive(self):
        # h = -(I+Z) damps |0> so the state drifts toward |1>, the dominant
        # eigenvector of exp(h t).
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        term = HamiltonianTerm(PauliSum([(-1.0, "I"), (-1.0, "Z")]), frozenset({0}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=1)
        out, _ = trotter_step(ScaledState(plus, 1.0), term, cfg)
        assert abs(out.state.amplitudes[1]) > abs(out.state.amplitudes[0])

    def test_term_wider_than_domain_size(self):
        initial, terms, _ = bs_setup(3)
        cfg = QnuteConfig(delta_t=0.006, num_steps=1, domain_size=2)
        with pytest.raises(InvalidDomainError, match="domain_size 2"):
            trotter_step(initial, terms[0], cfg)
        with pytest.raises(InvalidDomainError):
            next(evolve(initial, terms, cfg))
        with pytest.raises(InvalidDomainError):
            price_run(OptionContract("call", (75.0,)), Grid(0.0, 150.0, 3), PAPER_PARAMS,
                      QnuteConfig(delta_t=0.006, num_steps=1, domain_size=4))

    @pytest.mark.parametrize("symbols", ["X", "XYZ"])
    def test_generator_on_wrong_register(self, symbols):
        term = HamiltonianTerm(PauliSum([(1.0, symbols)]), frozenset({0}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=1)
        with pytest.raises(DimensionMismatchError):
            trotter_step(ScaledState(StateVector.basis(2, 0), 1.0), term, cfg)

    def test_black_scholes_step_fidelity(self):
        initial, terms, cfg = bs_setup(3)
        out, _ = trotter_step(initial, terms[0], cfg)
        exact, _ = exact_step(initial.state, terms[0].pauli, cfg.delta_t)
        assert fidelity(out.state, exact) >= 1.0 - 1e-6

    @pytest.mark.parametrize("n, domain", [(4, 4), (4, 2)])
    def test_step_runs_no_exact_step(self, monkeypatch, n, domain):
        # A step only fits; the exact factor is the price run's diagnostic.
        calls = []

        def spy(*args):
            calls.append(args)
            return exact_step(*args)

        monkeypatch.setattr(qnute.exact, "exact_step", spy)
        initial, terms, cfg = bs_setup(n, domain_size=domain)
        trotter_step(initial, terms[0], cfg)
        assert calls == []

    def test_windowed_terms_fit_on_their_own_support(self):
        initial, terms, cfg = bs_setup(4, domain_size=2)
        assert len(terms) > 1
        for term in terms:
            out, report = trotter_step(initial, term, cfg)
            # Real payoff and real generator: odd-Y strings on the term's window.
            strings = fit_strings(tuple(sorted(term.support)), True, 4)
            assert len(report.a) == len(strings)
            psi = initial.state.amplitudes
            for string, coeff in zip(strings, report.a):
                theta = coeff * cfg.delta_t
                psi = np.cos(theta) * psi - 1j * np.sin(theta) * (kron_of(string) @ psi)
            psi = psi / np.linalg.norm(psi)
            assert np.allclose(out.state.amplitudes, psi, atol=1e-12)

class TestEvolve:
    def test_zero_generator_constant_trajectory(self):
        rng = np.random.default_rng(12)
        psi = random_state(rng, 2)
        terms = [HamiltonianTerm(PauliSum(), frozenset({0, 1}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=5, domain_size=2)
        steps = list(evolve(ScaledState(psi, 1.0), terms, cfg))
        assert [(step, i) for step, i, *_ in steps] == [(k, 0) for k in range(1, 6)]
        for *_, before, after, _ in steps:
            assert after.scale == pytest.approx(1.0)
            assert np.allclose(after.state.amplitudes, psi.amplitudes)
        assert all(steps[k][2] is steps[k - 1][3] for k in range(1, 5))

    def test_anti_hermitian_converges_to_dominant_eigenvector(self):
        # h = -(Z+I): exp(h tau) favors |1>; by tau = 5 the overlap is ~1.
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        terms = [HamiltonianTerm(PauliSum([(-1.0, "I"), (-1.0, "Z")]), frozenset({0}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=500, domain_size=1)
        for *_, state, _ in evolve(ScaledState(plus, 1.0), terms, cfg):
            pass
        h_dense = dense_of_terms([(-1.0, "I"), (-1.0, "Z")])
        eigvals, eigvecs = np.linalg.eigh(h_dense)
        dominant = StateVector(eigvecs[:, np.argmax(eigvals)])
        assert fidelity(state.state, dominant) >= 0.999

    def test_qite_reaches_ground_state(self):
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        evals = np.array([0.3, 0.9, 1.6, 2.4])  # gap 0.6
        L = q @ np.diag(evals) @ q.conj().T
        h = decompose_dense(-L)
        psi0 = random_state(rng, 2)
        cfg = QnuteConfig(delta_t=0.01, num_steps=1000, domain_size=2)
        for *_, state, _ in evolve(ScaledState(psi0, 1.0), split_terms(h, 2, cfg.domain_size), cfg):
            pass
        final = state.state.amplitudes
        energy = float(np.real(np.vdot(final, L @ final)))
        assert abs(energy - evals[0]) <= 1e-4

    def test_norm_preserved_along_trajectory(self):
        initial, terms, cfg = bs_setup(2, num_steps=50)
        for *_, state, _ in evolve(initial, terms, cfg):
            assert state.state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_first_order_consistency(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 3.0 / np.linalg.norm(m, 2)
        h = decompose_dense(m)
        psi0 = random_state(rng, 2)
        from qnute.exact import exact_step

        errs, scale_errs, dts = [], [], (6e-3, 3e-3, 1.5e-3)
        for dt in dts:
            cfg = QnuteConfig(delta_t=dt, num_steps=1, domain_size=2)
            term = HamiltonianTerm(h, frozenset({0, 1}))
            out, report = trotter_step(ScaledState(psi0, 1.0), term, cfg)
            exact, norm = exact_step(psi0, h, dt)
            phase = np.exp(-1j * np.angle(np.vdot(exact.amplitudes, out.state.amplitudes)))
            errs.append(np.linalg.norm(out.state.amplitudes - phase * exact.amplitudes))
            scale_errs.append(abs(report.c - norm) / norm)
        assert np.polyfit(np.log(dts), np.log(errs), 1)[0] >= 1.9
        # The scale estimate c also converges at first order.
        assert scale_errs[0] > scale_errs[2]

    def test_monotone_domain_quality(self):
        from qnute.exact import fidelity_stats

        means = {}
        for domain in (2, 4):
            initial, terms, cfg = bs_setup(4, num_steps=100, domain_size=domain)
            means[domain] = fidelity_stats(initial, terms, cfg).mean
        assert means[4] >= means[2]

    @pytest.mark.parametrize("n, domain", [(6, 6), (5, 3)])
    def test_price_run_memory_does_not_grow_with_steps(self, n, domain):
        # Beyond its prices and rows a run keeps nothing per step: kept states
        # would take 16 x 2^n + 350 bytes each, kept angles up to 16 KB.
        contract, grid = OptionContract("call", (75.0,)), Grid(0.0, 150.0, n)
        kept = []
        for num_steps in (20, 40):
            cfg = QnuteConfig(delta_t=0.12 / num_steps, num_steps=num_steps, domain_size=domain)
            price_run(contract, grid, PAPER_PARAMS, cfg)  # fills prefix_groups' cache at D = n
            tracemalloc.start()
            try:
                run = price_run(contract, grid, PAPER_PARAMS, cfg)
                rows = len(run.rows)
                run.rows.clear()
                gc.collect()  # empties the free lists that would keep the rows' tuples and floats
                kept.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert rows == num_steps * len(bs_setup(n, domain_size=domain)[1])
        assert kept[1] <= kept[0] + 256

    def test_runs_in_two_threads_match_their_serial_runs(self):
        # Every step allocates its own arrays, so runs may step at once: on
        # different bases, and (the call and the put) on the same one.
        call = bs_setup(5, num_steps=20, domain_size=3, maturity=0.12)
        put = (encode_samples(np.maximum(75.0 - Grid(0.0, 150.0, 5).points(), 0.0)), *call[1:])
        runs = [bs_setup(6, num_steps=20, maturity=0.12), call, put]

        def states(run):
            return [(s.state.amplitudes.tobytes(), s.scale) for *_, s, _ in evolve(*run)]

        threaded = [None] * len(runs)
        barrier = threading.Barrier(len(runs), timeout=60)

        def work(i):
            barrier.wait()
            threaded[i] = states(runs[i])

        prior = _set_blas_threads(1)
        try:
            serial = [states(run) for run in runs]
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            _set_blas_threads(prior)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial

    def test_trajectory_rows(self):
        # Within a step cumulative_scale is the running product of the c values;
        # at the step's end it is the state's scale, which also folds norm drift.
        initial, terms, cfg = bs_setup(3, num_steps=4, domain_size=2)
        assert len(terms) > 1
        # step_fidelity compares each factor with the exact one on the same input.
        state, want = initial, []
        for step in range(1, cfg.num_steps + 1):
            scale = state.scale
            for k, term in enumerate(terms, 1):
                before = state.state
                state, r = trotter_step(state, term, cfg)
                exact, _ = exact_step(before, term.pauli, cfg.delta_t)
                scale *= r.c
                cumulative = state.scale if k == len(terms) else scale
                tau = step * cfg.delta_t
                want.append((step, tau, r.c, cumulative, r.residual, fidelity(state.state, exact)))
        run = price_run(OptionContract("call", (75.0,)), Grid(0.0, 150.0, 3), PAPER_PARAMS, cfg)
        assert run.rows == want
        assert want[0][0] == 1 and want[-1][0] == 4 and want[-1][3] == state.scale


class TestRunScopedTables:
    """A term's fit tables are built once per kind and live as long as the term."""

    @staticmethod
    def spy_tables(monkeypatch):
        built = []

        def spy(*args):
            tables = sigma_basis(*args)
            built.append([weakref.ref(a) for a in tables])
            return tables

        monkeypatch.setattr(qnute.evolution, "sigma_basis", spy)
        return built

    def test_built_once_per_term_and_kind(self, monkeypatch):
        built = self.spy_tables(monkeypatch)
        initial, terms, cfg = bs_setup(5, num_steps=4, domain_size=3, maturity=4e-3)
        assert len(terms) > 1
        for _ in evolve(initial, terms, cfg):
            pass
        assert len(built) == len(terms)
        # A complex state takes the full basis: one more build, then none.
        state = ScaledState(random_state(np.random.default_rng(16), 5), 1.0)
        for _ in range(3):
            trotter_step(state, terms[0], cfg)
        assert len(built) == len(terms) + 1

    def test_price_run_drops_its_tables(self, monkeypatch):
        built = self.spy_tables(monkeypatch)
        cfg = QnuteConfig(delta_t=1e-3, num_steps=2, domain_size=3)
        price_run(OptionContract("call", (75.0,)), Grid(0.0, 150.0, 5), PAPER_PARAMS, cfg)
        assert built and all(ref() is None for refs in built for ref in refs)

    def test_sweep_cell_drops_its_tables(self, monkeypatch):
        built = self.spy_tables(monkeypatch)
        text = "schedule.T = 2e-3\nschedule.N_T = 2\nsweep.options = call:75\nsweep.n = 5\nsweep.D = 3\n"
        cfg = parse_config(text)
        _sweep_one(cfg, cfg.sweep_options[0], 5, 3)
        assert built and all(ref() is None for refs in built for ref in refs)

    def test_only_two_process_wide_caches(self):
        # prefix_groups keeps 0.10 / 1.05 / 6.1 MB at n = 6 / 8 / 9, until the
        # one-rotation whole-register step deletes it; _openblas_threads is one
        # lookup of the process's BLAS. Anything else a run builds dies with it.
        allowed = [("cli.py", "_openblas_threads"), ("evolution.py", "prefix_groups")]
        found = []
        for path in sorted(Path(qnute.__file__).parent.glob("*.py")):
            found += [(path.name, owner) for owner in cache_owners(path.read_text("utf-8"))]
        assert found == allowed


def cache_owners(source):
    """The function each functools.lru_cache or functools.cache use decorates (None if none)."""
    caches = {"lru_cache", "cache"}
    names, modules = set(), set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in caches}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_cache(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr in caches and node.value.id in modules
        return isinstance(node, ast.Name) and node.id in names

    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                owners |= {id(sub): node.name for sub in ast.walk(decorator) if is_cache(sub)}
    return [owners.get(id(node)) for node in ast.walk(tree) if is_cache(node)]


class TestQnuteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.0, num_steps=1, domain_size=1)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=-1, domain_size=1)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=1, domain_size=0)

    @pytest.mark.parametrize("delta_t", [math.nan, math.inf])
    def test_non_finite_delta_t(self, delta_t):
        with pytest.raises(ValueError, match="delta_t must be positive and finite"):
            QnuteConfig(delta_t=delta_t, num_steps=1, domain_size=1)
