"""Dense exact evolution, fidelity statistics, and the price run's reference PDE solution."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_nonnegative, dense_of_terms, random_pauli_sum_terms, taylor_expm_apply
from qnute.errors import CapacityError, DimensionMismatchError, StepSizeError
from qnute.evolution import QnuteConfig, evolve
from qnute.exact import _expm, exact_step, fidelity_stats, step_propagator
from qnute.hamiltonian import BSParams, Grid, HamiltonianTerm, build_bs_pauli, split_terms
from qnute.market import OptionContract, analytic_price, payoff_samples, price_run
from qnute.pauli import PauliSum, dense_matrix, span_matrix
from qnute.statevector import ScaledState, StateVector, encode_samples, fidelity

PAPER_PARAMS = BSParams(r=0.04, sigma=0.2)


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(v / np.linalg.norm(v))


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestExpm:
    """The Pade-13 propagator against scipy.linalg.expm."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_split_terms_match_scipy(self, n):
        gen = build_bs_pauli(Grid(0.0, 150.0, n), PAPER_PARAMS, "linear")
        for domain in sorted({2, 3, n} & set(range(2, n + 1))):
            for term in split_terms(gen, n, domain):
                for dt in (0.006, 0.06):
                    a = dense_matrix(term.pauli, n) * dt
                    assert relative_error(_expm(a), scipy.linalg.expm(a)) <= 1e-13

    # 1-norms from 0 to 50 take 0 to 4 squarings.  Each squaring doubles the
    # relative error, so the bound grows with the norm from a few roundings.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 50.0), st.integers(0, 2**32 - 1))
    def test_random_complex_matrices_match_scipy(self, dim, norm, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= norm / np.linalg.norm(a, 1)
        tol = 64 * np.finfo(float).eps * (1.0 + norm)
        assert relative_error(_expm(a), scipy.linalg.expm(a)) <= tol

    def test_non_finite_norm_gives_nan(self):
        assert np.isnan(_expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))).all()

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_zero_matrix_gives_identity(self, dim):
        got = _expm(np.zeros((dim, dim), dtype=complex))
        assert got.dtype == complex and np.array_equal(got, np.eye(dim))


class TestExactStep:
    def test_zero_generator(self):
        psi = StateVector.basis(2, 3)
        out, norm = exact_step(psi, PauliSum(), 0.1)
        assert np.allclose(out.amplitudes, psi.amplitudes)
        assert norm == pytest.approx(1.0)

    def test_scalar_generator(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 1)
        out, norm = exact_step(psi, PauliSum([(-1.0, "I")]), 0.1)
        assert np.allclose(out.amplitudes, psi.amplitudes)
        assert norm == pytest.approx(np.exp(-0.1))

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(2)
        terms = random_pauli_sum_terms(rng, 2, 5)
        psi = random_state(rng, 2)
        out, norm = exact_step(psi, PauliSum(terms), 0.05)
        want = taylor_expm_apply(dense_of_terms(terms) * 0.05, psi.amplitudes)
        assert np.linalg.norm(out.amplitudes * norm - want) < 1e-12
        assert norm == pytest.approx(np.linalg.norm(want), abs=1e-12)

    @pytest.mark.parametrize("symbols", ["X", "XYZ"])
    def test_generator_on_wrong_register(self, symbols):
        with pytest.raises(DimensionMismatchError):
            exact_step(StateVector.basis(2, 0), PauliSum([(1.0, symbols)]), 0.1)

    def test_capacity_guard(self):
        # The guard is on the span: these strings act on all 15 qubits.
        with pytest.raises(CapacityError):
            exact_step(StateVector.basis(15, 0), PauliSum([(1.0, "X" + "I" * 13 + "X")]), 0.1)

    # exp(800) overflows in the squarings; 1e308 overflows the 1-norm itself.
    @pytest.mark.parametrize("dt", [800.0, 1e308])
    def test_overflowing_propagator_is_a_step_size_error(self, dt):
        h = span_matrix(PauliSum([(1.0, "I"), (0.5, "X")]))
        with pytest.raises(StepSizeError, match="overflows"):
            step_propagator(h, dt)
        lo, prop = step_propagator(h, 0.1)
        assert lo == 0 and np.isfinite(prop).all()

    def test_underflowing_factor_is_a_step_size_error(self):
        # exp(-1000) is 0 in double precision: the state has no norm to divide by.
        with pytest.raises(StepSizeError, match="underflows to zero"):
            exact_step(StateVector.basis(1, 0), PauliSum([(-1e3, "I")]), 1.0)

    def test_propagator_on_the_span_of_its_strings(self):
        # exp(h dt) of a sum on qubit 1 of 3 is I (x) exp(M dt) (x) I.
        h = PauliSum([(0.3, "IXI"), (-0.2, "IZI")])
        lo, prop = step_propagator(span_matrix(h), 0.1)
        want = scipy.linalg.expm(dense_matrix(h, 3) * 0.1)
        assert lo == 1 and prop.shape == (2, 2)
        assert np.allclose(np.kron(np.kron(np.eye(2), prop), np.eye(2)), want, atol=1e-14)


def exact_states(initial, terms, cfg):
    """The exactly evolved Trotter product after each full step, with its cumulative true norm."""
    states, current = [initial], initial
    for _ in range(cfg.num_steps):
        for term in terms:
            stepped, norm = exact_step(current.state, term.pauli, cfg.delta_t)
            current = ScaledState(stepped, current.scale * norm)
        states.append(current)
    return states


class TestExactTrajectory:
    def test_zero_generator_constant(self):
        rng = np.random.default_rng(3)
        psi = ScaledState(random_state(rng, 2), 1.0)
        terms = [HamiltonianTerm(PauliSum(), frozenset({0, 1}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=4, domain_size=2)
        states = exact_states(psi, terms, cfg)
        assert len(states) == 5
        for state in states:
            assert state.scale == pytest.approx(1.0)

    def test_anti_hermitian_energy_decreases(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        L = (m + m.T) / 2.0
        from qnute.pauli import decompose_dense

        h = decompose_dense(-L)
        psi = ScaledState(random_state(rng, 2), 1.0)
        cfg = QnuteConfig(delta_t=0.05, num_steps=80, domain_size=2)
        states = exact_states(psi, split_terms(h, 2, cfg.domain_size), cfg)
        energies = [
            float(np.real(np.vdot(s.state.amplitudes, L @ s.state.amplitudes)))
            for s in states
        ]
        assert all(e_next <= e + 1e-9 for e, e_next in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(np.linalg.eigvalsh(L)[0], abs=1e-3)

    def test_black_scholes_norms_stay_finite(self):
        grid = Grid(0.0, 150.0, 3)
        gen = build_bs_pauli(grid, PAPER_PARAMS, "linear")
        cfg = QnuteConfig(delta_t=3.0 / 500, num_steps=500, domain_size=3)
        contract = OptionContract("call", (75.0,))
        initial = encode_samples(payoff_samples(contract, grid))
        states = exact_states(initial, split_terms(gen, 3, cfg.domain_size), cfg)
        scales = np.array([s.scale for s in states])
        assert np.all(np.isfinite(scales)) and np.all(scales > 0.0)


class TestFidelityStats:
    def test_identical_trajectories(self):
        # A zero generator leaves both evolutions at the initial state.
        rng = np.random.default_rng(5)
        psi = ScaledState(random_state(rng, 2), 1.0)
        terms = [HamiltonianTerm(PauliSum(), frozenset({0, 1}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=3, domain_size=2)
        stats = fidelity_stats(psi, terms, cfg)
        assert stats.mean == pytest.approx(1.0)
        assert stats.std == pytest.approx(0.0, abs=1e-15)
        assert stats.per_step.shape == (3,)

    def test_per_step_fidelities_of_the_two_evolutions(self):
        # Step k compares the fitted and the exact state after k full steps.
        grid = Grid(0.0, 150.0, 4)
        cfg = QnuteConfig(delta_t=0.05, num_steps=6, domain_size=2)
        terms = split_terms(build_bs_pauli(grid, PAPER_PARAMS, "linear"), 4, cfg.domain_size)
        initial = encode_samples(payoff_samples(OptionContract("put", (75.0,)), grid))
        fitted = [s.state for _, i, _, s, _ in evolve(initial, terms, cfg) if i == len(terms) - 1]
        exact = [s.state for s in exact_states(initial, terms, cfg)[1:]]
        want = [fidelity(a, b) for a, b in zip(fitted, exact)]
        stats = fidelity_stats(initial, terms, cfg)
        assert stats.per_step.tolist() == want and min(want) < 1.0 - 1e-9

    def test_population_std(self):
        grid = Grid(0.0, 150.0, 4)
        cfg = QnuteConfig(delta_t=0.05, num_steps=6, domain_size=2)
        terms = split_terms(build_bs_pauli(grid, PAPER_PARAMS, "linear"), 4, cfg.domain_size)
        initial = encode_samples(payoff_samples(OptionContract("call", (75.0,)), grid))
        stats = fidelity_stats(initial, terms, cfg)
        assert stats.std > 0.0
        assert stats.std == pytest.approx(float(np.std(stats.per_step)))
        assert stats.mean == pytest.approx(float(np.mean(stats.per_step)))

    def test_zero_steps_are_refused(self):
        # With no step there is no fidelity to average.
        terms = [HamiltonianTerm(PauliSum([(1.0, "XI")]), frozenset({0, 1}))]
        cfg = QnuteConfig(delta_t=0.01, num_steps=0, domain_size=2)
        with pytest.raises(ValueError, match="num_steps"):
            fidelity_stats(ScaledState(StateVector.basis(2, 0), 1.0), terms, cfg)

    def test_no_terms_are_refused(self):
        # With no factor there is no fidelity either: the mean would be NaN.
        cfg = QnuteConfig(delta_t=0.01, num_steps=3, domain_size=2)
        with pytest.raises(ValueError, match="terms"):
            fidelity_stats(ScaledState(StateVector.basis(2, 0), 1.0), [], cfg)


def bs_reference(contract, grid, p, cfg):
    """The price run's reference: the payoff under the split linear-boundary generator."""
    return price_run(contract, grid, p, cfg).reference


class TestReferencePdeSolution:
    def test_zero_parameters_return_payoff(self):
        grid = Grid(0.0, 150.0, 3)
        contract = OptionContract("call", (75.0,))
        cfg = QnuteConfig(delta_t=0.01, num_steps=100, domain_size=3)
        got = bs_reference(contract, grid, BSParams(0.0, 0.0), cfg)
        assert np.allclose(got, payoff_samples(contract, grid))

    def test_convergence_toward_analytic(self):
        contract = OptionContract("call", (75.0,))
        maturity = 3.0
        max_err = {}
        for n in (4, 5, 6):
            grid = Grid(0.0, 150.0, n)
            cfg = QnuteConfig(delta_t=maturity / 500, num_steps=500, domain_size=n)
            got = bs_reference(contract, grid, PAPER_PARAMS, cfg)
            ana = np.array(
                [analytic_price(contract, float(x), maturity, PAPER_PARAMS) for x in grid.points()]
            )
            mask = ana >= 1.0
            max_err[n] = float(np.max(np.abs(got[mask] - ana[mask]) / ana[mask]))
        assert max_err[6] < max_err[5] < max_err[4]

    def test_linear_data_follows_boundary_ode(self):
        # A put struck above the domain has an exactly linear payoff, which the
        # discrete generator keeps in the span of {x, 1}: u = a x + b e^(-r tau).
        grid = Grid(0.0, 150.0, 4)
        contract = OptionContract("put", (200.0,))
        maturity = 3.0
        cfg = QnuteConfig(delta_t=maturity / 200, num_steps=200, domain_size=4)
        got = bs_reference(contract, grid, PAPER_PARAMS, cfg)
        want = -grid.points() + 200.0 * np.exp(-PAPER_PARAMS.r * maturity)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_round_trip_consistency_at_start(self):
        grid = Grid(0.0, 150.0, 3)
        contract = OptionContract("straddle", (75.0,))
        cfg = QnuteConfig(delta_t=0.01, num_steps=0, domain_size=3)
        u0 = bs_reference(contract, grid, PAPER_PARAMS, cfg)
        assert np.allclose(decode_nonnegative(encode_samples(u0)), u0, atol=1e-10)
