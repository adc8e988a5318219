"""Payoffs, closed-form prices, boundary coefficients, and the rescaling protocol."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import qnute.exact
import qnute.market
import qnute.pauli
from qnute.errors import ProtocolFailureError, RescaleDegeneracyError, StepSizeError
from qnute.evolution import QnuteConfig
from qnute.exact import fidelity_stats, step_propagator
from qnute.hamiltonian import BSParams, Grid, HamiltonianTerm, build_bs_pauli, split_terms
from qnute.market import (
    LEFT,
    RIGHT,
    BoundaryCoeffs,
    OptionContract,
    analytic_price,
    boundary_coefficients,
    boundary_value,
    choose_rescale_side,
    format_contract_spec,
    parse_contract_spec,
    payoff_samples,
    price_curve,
    price_run,
    rescale_factor,
)
from qnute.pauli import PauliSum, apply_span
from qnute.statevector import StateVector, encode_samples

PAPER_PARAMS = BSParams(r=0.04, sigma=0.2)

ALL_CONTRACTS = [
    OptionContract("call", (75.0,)),
    OptionContract("put", (75.0,)),
    OptionContract("bull-spread", (50.0, 100.0)),
    OptionContract("bear-spread", (50.0, 100.0)),
    OptionContract("straddle", (75.0,)),
    OptionContract("strangle", (50.0, 100.0)),
]


def lognormal_price_oracle(contract, x, tau, p):
    """Discounted expectation of the payoff under the risk-neutral density."""
    drift = (p.r - 0.5 * p.sigma**2) * tau
    vol = p.sigma * math.sqrt(tau)

    def integrand(z):
        s_t = x * math.exp(drift + vol * z)
        payoff = {
            "call": max(s_t - contract.strikes[0], 0.0),
            "put": max(contract.strikes[0] - s_t, 0.0),
        }[contract.kind]
        return payoff * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    value, _ = quad(integrand, -12.0, 12.0, limit=200)
    return math.exp(-p.r * tau) * value


class TestContract:
    def test_strike_count_enforced(self):
        with pytest.raises(ValueError):
            OptionContract("call", (75.0, 100.0))
        with pytest.raises(ValueError):
            OptionContract("strangle", (75.0,))

    def test_strike_ordering(self):
        with pytest.raises(ValueError):
            OptionContract("bull-spread", (100.0, 50.0))

    def test_positive_strikes(self):
        with pytest.raises(ValueError):
            OptionContract("put", (0.0,))

    def test_unknown_kind(self):
        valid = "call, put, bull-spread, bear-spread, straddle, strangle"
        with pytest.raises(ValueError, match=f"not one of {valid}$"):
            OptionContract("butterfly", (50.0,))

    def test_spec_round_trip(self):
        for contract in ALL_CONTRACTS:
            assert parse_contract_spec(format_contract_spec(contract)) == contract

    def test_malformed_specs(self):
        for text in ("call:", "call", ":75", "call:abc", "call:75,x"):
            with pytest.raises(ValueError):
                parse_contract_spec(text)


class TestPayoffs:
    def test_call(self):
        grid = Grid(0.0, 150.0, 2)
        got = payoff_samples(OptionContract("call", (75.0,)), grid)
        assert np.allclose(got, [0.0, 0.0, 25.0, 75.0])

    def test_straddle_vanishes_at_strike(self):
        contract = OptionContract("straddle", (75.0,))
        grid = Grid(0.0, 150.0, 2)  # 75 is not a grid point
        x = grid.points()
        got = payoff_samples(contract, grid)
        assert np.allclose(got, np.abs(x - 75.0))

    def test_bull_spread_caps(self):
        contract = OptionContract("bull-spread", (50.0, 100.0))
        grid = Grid(0.0, 150.0, 2)
        assert payoff_samples(contract, grid)[-1] == pytest.approx(50.0)

    def test_strangle(self):
        contract = OptionContract("strangle", (50.0, 100.0))
        grid = Grid(0.0, 150.0, 2)
        assert np.allclose(payoff_samples(contract, grid), [50.0, 0.0, 0.0, 50.0])


class TestAnalyticPrice:
    def test_zero_tau_is_payoff(self):
        for contract in ALL_CONTRACTS:
            for x in (0.0, 40.0, 75.0, 120.0):
                grid_payoff = payoff_samples(contract, Grid(x, x + 1.0, 1))[0]
                assert analytic_price(contract, x, 0.0, PAPER_PARAMS) == pytest.approx(
                    grid_payoff
                )

    def test_put_call_parity(self):
        strike = 75.0
        call = OptionContract("call", (strike,))
        put = OptionContract("put", (strike,))
        for x in (10.0, 60.0, 75.0, 130.0):
            for tau in (0.5, 1.5, 3.0):
                lhs = analytic_price(call, x, tau, PAPER_PARAMS) - analytic_price(
                    put, x, tau, PAPER_PARAMS
                )
                rhs = x - strike * math.exp(-PAPER_PARAMS.r * tau)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_matches_quadrature(self, kind):
        contract = OptionContract(kind, (75.0,))
        got = analytic_price(contract, 75.0, 3.0, PAPER_PARAMS)
        want = lognormal_price_oracle(contract, 75.0, 3.0, PAPER_PARAMS)
        assert got == pytest.approx(want, rel=1e-9)

    def test_bull_spread_linearity(self):
        bull = OptionContract("bull-spread", (50.0, 100.0))
        c1 = OptionContract("call", (50.0,))
        c2 = OptionContract("call", (100.0,))
        for x in (20.0, 75.0, 140.0):
            want = analytic_price(c1, x, 2.0, PAPER_PARAMS) - analytic_price(
                c2, x, 2.0, PAPER_PARAMS
            )
            assert analytic_price(bull, x, 2.0, PAPER_PARAMS) == pytest.approx(
                want, abs=1e-12
            )

    def test_boundary_values_at_zero_asset_price(self):
        call = OptionContract("call", (75.0,))
        put = OptionContract("put", (75.0,))
        assert analytic_price(call, 0.0, 3.0, PAPER_PARAMS) == 0.0
        assert analytic_price(put, 0.0, 3.0, PAPER_PARAMS) == pytest.approx(
            75.0 * math.exp(-0.12)
        )

    def test_negative_asset_price_rejected(self):
        with pytest.raises(ValueError):
            analytic_price(OptionContract("call", (75.0,)), -1.0, 1.0, PAPER_PARAMS)

    def test_zero_volatility(self):
        call = OptionContract("call", (75.0,))
        p = BSParams(r=0.0, sigma=0.0)
        assert analytic_price(call, 100.0, 3.0, p) == pytest.approx(25.0)


class TestBoundaryCoefficients:
    def test_call_left_boundary_flat(self):
        grid = Grid(0.0, 150.0, 3)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("call", (75.0,)), grid), grid
        )
        assert coeffs.a0 == 0.0 and coeffs.b0 == 0.0

    def test_call_right_boundary(self):
        grid = Grid(0.0, 150.0, 4)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("call", (75.0,)), grid), grid
        )
        assert coeffs.aN == pytest.approx(1.0)
        assert coeffs.bN == pytest.approx(-75.0)

    def test_put_left_boundary(self):
        grid = Grid(0.0, 150.0, 4)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("put", (75.0,)), grid), grid
        )
        assert coeffs.a0 == pytest.approx(-1.0)
        assert coeffs.b0 == pytest.approx(75.0)

    def test_reproduces_boundary_samples(self):
        rng = np.random.default_rng(3)
        grid = Grid(10.0, 90.0, 3)
        u = rng.normal(size=grid.num_points)
        coeffs = boundary_coefficients(u, grid)
        x = grid.points()
        assert coeffs.a0 * x[0] + coeffs.b0 == pytest.approx(u[0])
        assert coeffs.a0 * x[1] + coeffs.b0 == pytest.approx(u[1])
        assert coeffs.aN * x[-1] + coeffs.bN == pytest.approx(u[-1])
        assert coeffs.aN * x[-2] + coeffs.bN == pytest.approx(u[-2])


class TestBoundaryValue:
    def test_initial_value(self):
        grid = Grid(0.0, 150.0, 3)
        u = payoff_samples(OptionContract("put", (75.0,)), grid)
        coeffs = boundary_coefficients(u, grid)
        assert boundary_value(coeffs, LEFT, 0.0, PAPER_PARAMS) == pytest.approx(u[0])

    def test_put_left_decay(self):
        grid = Grid(0.0, 150.0, 3)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("put", (75.0,)), grid), grid
        )
        got = boundary_value(coeffs, LEFT, 3.0, PAPER_PARAMS)
        assert got == pytest.approx(75.0 * math.exp(-0.12))

    def test_degenerate_side_is_zero(self):
        coeffs = BoundaryCoeffs(0.0, 0.0, 1.0, -75.0, 0.0, 150.0)
        assert boundary_value(coeffs, LEFT, 2.0, PAPER_PARAMS) == 0.0


class TestRescaleProtocol:
    def test_all_kinds_have_usable_preferred_side(self):
        grid = Grid(0.0, 150.0, 4)  # strikes 50, 75, 100 strictly inside
        for contract in ALL_CONTRACTS:
            coeffs = boundary_coefficients(payoff_samples(contract, grid), grid)
            side = choose_rescale_side(contract, coeffs)
            assert side in (LEFT, RIGHT)
            a, b = (coeffs.a0, coeffs.b0) if side == LEFT else (coeffs.aN, coeffs.bN)
            assert (a, b) != (0.0, 0.0)

    def test_call_right_put_left(self):
        grid = Grid(0.0, 150.0, 4)
        call, put = ALL_CONTRACTS[0], ALL_CONTRACTS[1]
        call_coeffs = boundary_coefficients(payoff_samples(call, grid), grid)
        put_coeffs = boundary_coefficients(payoff_samples(put, grid), grid)
        assert choose_rescale_side(call, call_coeffs) == RIGHT
        assert choose_rescale_side(put, put_coeffs) == LEFT

    def test_strangle_left_slope(self):
        grid = Grid(0.0, 150.0, 4)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("strangle", (50.0, 100.0)), grid), grid
        )
        assert coeffs.a0 == pytest.approx(-1.0)

    def test_recovers_true_norm(self):
        # Feeding the exactly-known normalized solution returns its norm.
        grid = Grid(0.0, 150.0, 4)
        tau = 2.0
        u0 = payoff_samples(OptionContract("put", (200.0,)), grid)  # linear data
        coeffs = boundary_coefficients(u0, grid)
        u_tau = -grid.points() + 200.0 * math.exp(-PAPER_PARAMS.r * tau)
        state = StateVector(u_tau / np.linalg.norm(u_tau))
        got = rescale_factor(state, coeffs, LEFT, tau, PAPER_PARAMS)
        assert got == pytest.approx(np.linalg.norm(u_tau))

    def test_protocol_failure_when_both_sides_flat(self):
        grid = Grid(0.0, 150.0, 3)
        u = np.zeros(8)
        u[3:5] = 1.0  # interior bump, flat zero near both edges
        coeffs = boundary_coefficients(u, grid)
        with pytest.raises(ProtocolFailureError):
            choose_rescale_side(OptionContract("call", (75.0,)), coeffs)
        with pytest.raises(ProtocolFailureError):
            rescale_factor(StateVector(u / np.linalg.norm(u)), coeffs, LEFT, 1.0, PAPER_PARAMS)

    def test_degenerate_amplitude(self):
        grid = Grid(0.0, 150.0, 2)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("put", (75.0,)), grid), grid
        )
        state = StateVector([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(RescaleDegeneracyError):
            rescale_factor(state, coeffs, LEFT, 1.0, PAPER_PARAMS)

    def test_wrong_side_hint(self):
        grid = Grid(0.0, 150.0, 3)
        coeffs = boundary_coefficients(
            payoff_samples(OptionContract("call", (75.0,)), grid), grid
        )
        state = StateVector(np.full(8, 1 / math.sqrt(8.0)))
        with pytest.raises(ValueError, match="right"):
            rescale_factor(state, coeffs, LEFT, 1.0, PAPER_PARAMS)


class TestPriceCurve:
    def test_frozen_market_returns_payoff(self):
        grid = Grid(0.0, 150.0, 3)
        contract = OptionContract("call", (75.0,))
        cfg = QnuteConfig(delta_t=0.01, num_steps=50, domain_size=3)
        got = price_curve(contract, grid, BSParams(0.0, 0.0), cfg)
        assert np.allclose(got, payoff_samples(contract, grid), atol=1e-8)

    def test_zero_steps_returns_payoff(self):
        grid = Grid(0.0, 150.0, 3)
        contract = OptionContract("put", (75.0,))
        cfg = QnuteConfig(delta_t=0.01, num_steps=0, domain_size=3)
        got = price_curve(contract, grid, PAPER_PARAMS, cfg)
        assert np.allclose(got, payoff_samples(contract, grid), atol=1e-10)

    def test_coarse_grid_underresolves_strikes(self):
        # Two qubits give 50-unit spacing, so strike structure is missed and
        # the error against the closed form is much larger than at four qubits.
        contract = OptionContract("bull-spread", (50.0, 100.0))
        maturity = 3.0
        errs = {}
        for n in (2, 4):
            grid = Grid(0.0, 150.0, n)
            cfg = QnuteConfig(delta_t=maturity / 100, num_steps=100, domain_size=n)
            prices = price_curve(contract, grid, PAPER_PARAMS, cfg)
            ana = np.array(
                [
                    analytic_price(contract, float(x), maturity, PAPER_PARAMS)
                    for x in grid.points()
                ]
            )
            errs[n] = float(np.max(np.abs(prices - ana)))
        assert errs[2] > errs[4]

    def test_all_kinds_price_without_error(self):
        grid = Grid(0.0, 150.0, 3)
        cfg = QnuteConfig(delta_t=3.0 / 100, num_steps=100, domain_size=3)
        for contract in ALL_CONTRACTS:
            run = price_run(contract, grid, PAPER_PARAMS, cfg)
            assert np.all(np.isfinite(run.prices))
            assert run.rescale > 0.0

    def test_degenerate_payoff_fails_protocol(self):
        grid = Grid(0.0, 150.0, 3)
        contract = OptionContract("call", (200.0,))  # payoff is identically zero
        cfg = QnuteConfig(delta_t=0.01, num_steps=10, domain_size=3)
        with pytest.raises(ProtocolFailureError):
            price_curve(contract, grid, PAPER_PARAMS, cfg)

    def test_windowed_run_builds_each_term_on_its_span(self, monkeypatch):
        # n = 6, D = 2: one dense matrix and one exponential per term, at the
        # width of the qubits its strings act on, not the register's.
        grid = Grid(0.0, 150.0, 6)
        terms = split_terms(build_bs_pauli(grid, PAPER_PARAMS, "linear"), 6, 2)
        widths = []
        for term in terms:
            acted = [q for _, w in term.pauli.terms for q, c in enumerate(w) if c != "I"]
            widths.append(max(acted) - min(acted) + 1)
        dense, expm, calls = qnute.pauli.dense_matrix, qnute.exact._expm, {"dense": [], "expm": []}
        monkeypatch.setattr(qnute.pauli, "dense_matrix",
                            lambda s, n: calls["dense"].append(n) or dense(s, n))
        monkeypatch.setattr(qnute.exact, "_expm", lambda a: calls["expm"].append(len(a)) or expm(a))
        cfg = QnuteConfig(delta_t=1e-4, num_steps=3, domain_size=2)
        price_run(OptionContract("call", (75.0,)), grid, PAPER_PARAMS, cfg)
        assert calls == {"dense": widths, "expm": [1 << w for w in widths]}
        assert len(terms) > 1 and min(widths) < 6

    @pytest.mark.parametrize("n, domain", [(4, 4), (5, 2)])
    def test_reference_is_the_product_of_the_run_propagators(self, n, domain):
        # N_T x terms exact factors, in Trotter order, on the raw samples.
        contract, grid = OptionContract("put", (75.0,)), Grid(0.0, 150.0, n)
        cfg = QnuteConfig(delta_t=0.12 / 6, num_steps=6, domain_size=domain)
        terms = split_terms(build_bs_pauli(grid, PAPER_PARAMS, "linear"), n, domain)
        propagators = [step_propagator(t.generator, cfg.delta_t) for t in terms]
        want = np.asarray(payoff_samples(contract, grid), dtype=complex)
        for _ in range(cfg.num_steps):
            for prop in propagators:
                want = apply_span(prop, want)
        run = price_run(contract, grid, PAPER_PARAMS, cfg)
        assert np.array_equal(run.reference, want.real)
        assert len(terms) == (1 if domain == n else 4)

    @pytest.mark.parametrize("reader", ["price_run", "fidelity_stats"])
    def test_propagator_follows_its_term_first_fit(self, monkeypatch, reader):
        # Term 0 fits (c^2 = 2001), then its propagator exp(1000) overflows,
        # before term 1's radicand 1 - 2000 is reached.
        grid = Grid(0.0, 150.0, 2)
        terms = [HamiltonianTerm(PauliSum([(c, "II")]), frozenset({0, 1})) for c in (1e3, -1e3)]
        cfg = QnuteConfig(delta_t=1.0, num_steps=1, domain_size=2)
        contract = OptionContract("call", (75.0,))
        with pytest.raises(StepSizeError, match=r"exp\(h_m dt\) overflows"):
            if reader == "price_run":
                monkeypatch.setattr(qnute.market, "split_terms", lambda *_: terms)
                price_run(contract, grid, PAPER_PARAMS, cfg)
            else:
                fidelity_stats(encode_samples(payoff_samples(contract, grid)), terms, cfg)


class TestBoundaryOdeConsistency:
    def test_generator_matches_ode_on_linear_data(self):
        # d/dtau (a x + b e^(-r tau)) at tau=0 equals -r b on every row.
        from qnute.pauli import dense_matrix
        from qnute.hamiltonian import build_bs_pauli

        grid = Grid(0.0, 150.0, 3)
        gen = dense_matrix(build_bs_pauli(grid, PAPER_PARAMS, "linear"), 3).real
        a, b = 2.0, 30.0
        u = a * grid.points() + b
        assert np.max(np.abs(gen @ u - (-PAPER_PARAMS.r * b))) < 1e-8
