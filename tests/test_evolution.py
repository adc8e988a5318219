"""The fitted Trotter stepper: bases, measurements, solver, steps, trajectories."""

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    dense_of_terms,
    kron_of,
    measure_S,
    random_pauli_sum_terms,
    solve_coefficients,
)
from qnute.errors import (
    CapacityError,
    InvalidDomainError,
    SingularSystemError,
    StepSizeError,
)
from qnute.evolution import (
    QnuteConfig,
    _solve_gram_factor,
    evolve,
    measure_b,
    measure_c,
    sigma_basis,
    terms_for_config,
    trajectory_rows,
    trotter_step,
)
from qnute.hamiltonian import BSParams, Grid, HamiltonianTerm, build_bs_pauli
from qnute.pauli import PauliSum, decompose_dense
from qnute.statevector import ScaledState, StateVector, encode_samples, fidelity

PAPER_PARAMS = BSParams(r=0.04, sigma=0.2)


def random_state(rng, n, real=False):
    v = rng.normal(size=1 << n)
    if not real:
        v = v + 1j * rng.normal(size=1 << n)
    return StateVector(v / np.linalg.norm(v))


def bs_setup(n, num_steps=500, domain_size=None, maturity=3.0):
    grid = Grid(0.0, 150.0, n)
    gen = build_bs_pauli(grid, PAPER_PARAMS, "linear")
    cfg = QnuteConfig(
        delta_t=maturity / num_steps,
        num_steps=num_steps,
        domain_size=n if domain_size is None else domain_size,
    )
    terms = terms_for_config(gen, n, cfg)
    payoff = np.maximum(grid.points() - 75.0, 0.0)
    return encode_samples(payoff), terms, cfg


class TestSigmaBasis:
    def test_full_single_qubit(self):
        basis = sigma_basis((0,), "full", 1)
        assert basis.strings == ("X", "Y", "Z")

    def test_odd_y_single_qubit(self):
        assert sigma_basis((0,), "odd-y", 1).strings == ("Y",)

    def test_two_qubit_counts(self):
        assert sigma_basis((0, 1), "full", 2).size == 15
        assert sigma_basis((0, 1), "odd-y", 2).size == 6

    def test_odd_y_two_qubit_strings(self):
        got = set(sigma_basis((0, 1), "odd-y", 2).strings)
        assert got == {"IY", "XY", "YI", "YX", "YZ", "ZY"}

    def test_embedding_pads_identity(self):
        basis = sigma_basis((1,), "full", 3)
        assert basis.strings == ("IXI", "IYI", "IZI")

    def test_deterministic_order(self):
        strings = sigma_basis((0, 1), "full", 2).strings
        assert list(strings) == sorted(strings)

    def test_empty_domain(self):
        with pytest.raises(InvalidDomainError):
            sigma_basis((), "full", 2)

    def test_non_contiguous_domain(self):
        with pytest.raises(InvalidDomainError):
            sigma_basis((0, 2), "full", 3)

    def test_capacity_guard_before_enumeration(self, monkeypatch):
        # Odd-Y on 10 of 10 qubits: (4^10 - 2^10) / 2 strings x 2^10 x 24 bytes.
        monkeypatch.setattr(
            "qnute.evolution.PauliString",
            lambda _: pytest.fail("strings were enumerated"),
        )
        with pytest.raises(CapacityError, match=str(523776 * 1024 * 24)):
            sigma_basis(tuple(range(10)), "odd-y", 10)
        with pytest.raises(CapacityError):
            sigma_basis(tuple(range(9)), "odd-y", 9)

    def test_capacity_limit_admits_eight_qubits(self):
        # The full basis at n = D = 8 needs 0.40 GB of action arrays.
        assert sigma_basis(tuple(range(8)), "full", 8).size == 65535

    def test_apply_all_matches_dense(self):
        rng = np.random.default_rng(0)
        basis = sigma_basis((0, 1), "full", 2)
        psi = random_state(rng, 2)
        rows = basis.apply_all(psi.amplitudes)
        for i, s in enumerate(basis.strings):
            assert np.allclose(rows[i], kron_of(s) @ psi.amplitudes)


class TestMeasureC:
    def test_zero_generator(self):
        psi = StateVector.basis(2, 1)
        assert measure_c(psi, PauliSum(), 0.01) == pytest.approx(1.0)

    def test_constant_drift(self):
        psi = StateVector.basis(1, 0)
        h = PauliSum([(-0.04, "I")])
        assert measure_c(psi, h, 0.006) == pytest.approx(np.sqrt(1.0 - 0.00048))

    def test_radicand_guard(self):
        psi = StateVector.basis(1, 0)
        with pytest.raises(StepSizeError):
            measure_c(psi, PauliSum([(-100.0, "I")]), 0.01)

    def test_c_squared_tracks_exact_norm(self):
        # |c^2 - ||exp(h dt) psi||^2| shrinks like dt^2.
        rng = np.random.default_rng(3)
        terms = random_pauli_sum_terms(rng, 2, 5)
        h = PauliSum(terms)
        h_dense = dense_of_terms(terms)
        psi = random_state(rng, 2)
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            c = measure_c(psi, h, dt)
            true = np.linalg.norm(scipy.linalg.expm(h_dense * dt) @ psi.amplitudes)
            errs.append(abs(c**2 - true**2))
        slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
        assert slope >= 1.9


class TestMeasureS:
    def test_zero_ket_full_basis(self):
        basis = sigma_basis((0,), "full", 1)
        S = measure_S(StateVector.basis(1, 0), basis)
        want = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 1]], dtype=complex)
        assert np.allclose(S, want)
        assert np.allclose(S + S.T, 2.0 * np.eye(3))

    def test_unit_diagonal_and_hermitian(self):
        rng = np.random.default_rng(4)
        basis = sigma_basis((0, 1), "full", 2)
        S = measure_S(random_state(rng, 2), basis)
        assert np.allclose(np.diag(S), 1.0)
        assert np.max(np.abs(S - S.conj().T)) < 1e-12

    def test_gram_psd(self):
        # The stepper's factor V = [Re rows, Im rows] satisfies S + S^T = 2 V V^T.
        rng = np.random.default_rng(5)
        basis = sigma_basis((0, 1), "full", 2)
        psi = random_state(rng, 2)
        S = measure_S(psi, basis)
        rows = basis.apply_all(psi.amplitudes)
        V = np.hstack([rows.real, rows.imag])
        assert np.allclose((S + S.T).real, 2.0 * V @ V.T)
        eigvals = np.linalg.eigvalsh((S + S.T).real)
        assert eigvals.min() > -1e-10


class TestMeasureB:
    def test_zero_generator(self):
        basis = sigma_basis((0, 1), "odd-y", 2)
        b = measure_b(StateVector.basis(2, 0), basis, PauliSum(), 1.0)
        assert np.allclose(b, 0.0)

    def test_single_qubit_worked_value(self):
        # h = Z on |+> with basis {Y}: the dense oracle fixes b = -2/c.
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        basis = sigma_basis((0,), "odd-y", 1)
        c = measure_c(plus, PauliSum([(1.0, "Z")]), 0.01)
        got = measure_b(plus, basis, PauliSum([(1.0, "Z")]), c)
        sandwich = np.vdot(plus.amplitudes, kron_of("Y") @ kron_of("Z") @ plus.amplitudes)
        want = (-2.0 / c) * sandwich.imag
        assert got[0] == pytest.approx(want)
        assert got[0] == pytest.approx(-2.0 / c)

    def test_random_matches_dense(self):
        rng = np.random.default_rng(6)
        basis = sigma_basis((0, 1), "full", 2)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        h_dense = dense_of_terms(terms)
        c = 0.97
        got = measure_b(psi, basis, PauliSum(terms), c)
        for i, s in enumerate(basis.strings):
            sandwich = np.vdot(psi.amplitudes, kron_of(s) @ h_dense @ psi.amplitudes)
            assert got[i] == pytest.approx((-2.0 / c) * sandwich.imag)


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


class TestTrotterStep:
    def test_zero_generator_is_identity(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng, 2)
        term = HamiltonianTerm(PauliSum(), frozenset({0, 1}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=2, basis_mode="full")
        out, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        assert np.allclose(out.state.amplitudes, psi.amplitudes)
        assert report.c == pytest.approx(1.0)
        assert np.allclose(report.a, 0.0)
        assert report.step_fidelity == pytest.approx(1.0)

    def test_matches_solver_route(self):
        # The step's internal factored solve equals measure_S + solve_coefficients.
        rng = np.random.default_rng(10)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        h = PauliSum(terms)
        cfg = QnuteConfig(delta_t=0.005, num_steps=1, domain_size=2, basis_mode="full")
        term = HamiltonianTerm(h, frozenset({0, 1}))
        _, report = trotter_step(ScaledState(psi, 1.0), term, cfg)
        basis = sigma_basis((0, 1), "full", 2)
        c = measure_c(psi, h, cfg.delta_t)
        S = measure_S(psi, basis)
        b = measure_b(psi, basis, h, c)
        a, _ = solve_coefficients(S, b, cfg.lstsq_rel_tol)
        assert np.allclose(report.a, a, atol=1e-8)

    def test_norm_preserved_and_scale_accumulates(self):
        rng = np.random.default_rng(11)
        psi = random_state(rng, 2)
        terms = random_pauli_sum_terms(rng, 2, 4)
        term = HamiltonianTerm(PauliSum(terms), frozenset({0, 1}))
        cfg = QnuteConfig(delta_t=0.004, num_steps=1, domain_size=2, basis_mode="full")
        out, report = trotter_step(ScaledState(psi, 2.0), term, cfg)
        assert out.state.norm() == pytest.approx(1.0, abs=1e-10)
        assert out.scale == pytest.approx(2.0 * report.c, rel=1e-12)

    def test_ground_state_drive(self):
        # h = -(I+Z) damps |0> so the state drifts toward |1>, the dominant
        # eigenvector of exp(h t).
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        term = HamiltonianTerm(PauliSum([(-1.0, "I"), (-1.0, "Z")]), frozenset({0}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=1, basis_mode="full")
        out, _ = trotter_step(ScaledState(plus, 1.0), term, cfg)
        assert abs(out.state.amplitudes[1]) > abs(out.state.amplitudes[0])

    def test_black_scholes_step_fidelity(self):
        initial, terms, cfg = bs_setup(3)
        _, report = trotter_step(initial, terms[0], cfg)
        assert report.step_fidelity >= 1.0 - 1e-6

    def test_domain_guard(self):
        psi = StateVector.basis(2, 0)
        term = HamiltonianTerm(PauliSum([(1.0, "XX")]), frozenset({0, 1}))
        cfg = QnuteConfig(delta_t=0.01, num_steps=1, domain_size=3)
        with pytest.raises(InvalidDomainError):
            trotter_step(ScaledState(psi, 1.0), term, cfg)


class TestEvolve:
    def test_zero_generator_constant_trajectory(self):
        rng = np.random.default_rng(12)
        psi = random_state(rng, 2)
        terms = [HamiltonianTerm(PauliSum(), frozenset({0, 1}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=5, domain_size=2, basis_mode="full")
        traj = evolve(ScaledState(psi, 1.0), terms, cfg)
        assert len(traj.states) == 6
        for state in traj.states:
            assert state.scale == pytest.approx(1.0)
            assert np.allclose(state.state.amplitudes, psi.amplitudes)

    def test_anti_hermitian_converges_to_dominant_eigenvector(self):
        # h = -(Z+I): exp(h tau) favors |1>; by tau = 5 the overlap is ~1.
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        terms = [HamiltonianTerm(PauliSum([(-1.0, "I"), (-1.0, "Z")]), frozenset({0}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=500, domain_size=1, basis_mode="full")
        traj = evolve(ScaledState(plus, 1.0), terms, cfg)
        h_dense = dense_of_terms([(-1.0, "I"), (-1.0, "Z")])
        eigvals, eigvecs = np.linalg.eigh(h_dense)
        dominant = StateVector(eigvecs[:, np.argmax(eigvals)])
        assert fidelity(traj.states[-1].state, dominant) >= 0.999

    def test_qite_reaches_ground_state(self):
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        evals = np.array([0.3, 0.9, 1.6, 2.4])  # gap 0.6
        L = q @ np.diag(evals) @ q.conj().T
        h = decompose_dense(-L)
        psi0 = random_state(rng, 2)
        cfg = QnuteConfig(delta_t=0.01, num_steps=1000, domain_size=2, basis_mode="full")
        traj = evolve(ScaledState(psi0, 1.0), terms_for_config(h, 2, cfg), cfg)
        final = traj.states[-1].state.amplitudes
        energy = float(np.real(np.vdot(final, L @ final)))
        assert abs(energy - evals[0]) <= 1e-4

    def test_norm_preserved_along_trajectory(self):
        initial, terms, cfg = bs_setup(2, num_steps=50)
        traj = evolve(initial, terms, cfg)
        for state in traj.states:
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
            cfg = QnuteConfig(delta_t=dt, num_steps=1, domain_size=2, basis_mode="full")
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
        from qnute.exact import exact_trajectory, fidelity_stats

        means = {}
        for domain in (2, 4):
            initial, terms, cfg = bs_setup(4, num_steps=100, domain_size=domain)
            stats = fidelity_stats(
                evolve(initial, terms, cfg), exact_trajectory(initial, terms, cfg)
            )
            means[domain] = stats.mean
        assert means[4] >= means[2]

    def test_measurement_count(self):
        initial, terms, cfg = bs_setup(2, num_steps=3)
        traj = evolve(initial, terms, cfg)
        # One full-register term, odd-Y basis on 2 qubits has 6 strings.
        assert traj.measurement_count == 3 * 6**2

    def test_trajectory_rows(self):
        initial, terms, cfg = bs_setup(2, num_steps=4)
        traj = evolve(initial, terms, cfg)
        rows = trajectory_rows(traj, cfg.delta_t)
        assert len(rows) == 4
        assert rows[0][0] == 1 and rows[-1][0] == 4
        assert rows[-1][1] == pytest.approx(4 * cfg.delta_t)
        assert rows[-1][3] == pytest.approx(traj.states[-1].scale)


class TestQnuteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.0, num_steps=1, domain_size=1)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=-1, domain_size=1)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=1, domain_size=0)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=1, domain_size=1, basis_mode="odd")
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=1, domain_size=1, lstsq_rel_tol=2.0)
        with pytest.raises(ValueError):
            QnuteConfig(delta_t=0.1, num_steps=1, domain_size=1, term_strategy="pairs")
