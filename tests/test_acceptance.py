"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see every line; the
heaviest case is the 6-qubit exact pricing run (about half a minute).
"""

import time

import numpy as np
import pytest

from oracles import tridiagonal_dense
from qnute.cli import main as cli_main
from qnute.errors import ProtocolFailureError
from qnute.evolution import QnuteConfig, evolve, trotter_step
from qnute.exact import exact_step, fidelity_stats
from qnute.hamiltonian import (
    BSParams,
    Grid,
    HamiltonianTerm,
    apply_linear_bc,
    bs_coefficients,
    build_bs_pauli,
    split_terms,
)
from qnute.market import (
    OptionContract,
    analytic_price,
    boundary_coefficients,
    payoff_samples,
    price_curve,
    price_run,
    rescale_factor,
)
from qnute.pauli import decompose_dense, dense_matrix
from qnute.statevector import ScaledState, StateVector, encode_samples

PARAMS = BSParams(r=0.04, sigma=0.2)
MATURITY = 3.0
NUM_STEPS = 500

_fidelity_cache: dict[tuple, tuple[float, float]] = {}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num} [{status}] {name}: {detail}")


def _mean_fidelity(kind: str, n: int, domain: int) -> tuple[float, float]:
    key = (kind, n, domain)
    if key not in _fidelity_cache:
        grid = Grid(0.0, 150.0, n)
        contract = OptionContract(kind, (75.0,))
        cfg = QnuteConfig(
            delta_t=MATURITY / NUM_STEPS, num_steps=NUM_STEPS, domain_size=domain
        )
        gen = build_bs_pauli(grid, PARAMS, "linear")
        terms = split_terms(gen, n, domain)
        initial = encode_samples(payoff_samples(contract, grid))
        stats = fidelity_stats(initial, terms, cfg)
        _fidelity_cache[key] = (stats.mean, stats.std)
    return _fidelity_cache[key]


def test_criterion_1_hamiltonian_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        grid = Grid(0.0, 150.0, n)
        for boundary in ("central", "linear"):
            tri = bs_coefficients(grid, PARAMS)
            if boundary == "linear":
                tri = apply_linear_bc(tri, grid, PARAMS)
            got = dense_matrix(build_bs_pauli(grid, PARAMS, boundary), n)
            worst = max(worst, float(np.max(np.abs(got - tridiagonal_dense(tri)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, "hamiltonian equivalence", ok,
            f"max |pauli - tridiagonal| = {worst:.2e}, runtime {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_exact_mode_fidelity():
    results = {}
    for kind in ("call", "put"):
        for n in (2, 3, 4):
            results[(kind, n)] = _mean_fidelity(kind, n, n)
    ok = all(mu >= 0.9999 and sd <= 1e-3 for mu, sd in results.values())
    detail = "; ".join(
        f"{kind} n={n}: mu={mu:.6f} sd={sd:.1e}" for (kind, n), (mu, sd) in results.items()
    )
    _report(2, "exact-mode fidelity", ok, detail)
    for (kind, n), (mu, sd) in results.items():
        assert mu >= 0.9999, (kind, n, mu)
        assert sd <= 1e-3, (kind, n, sd)


def test_criterion_3_inexact_mode_trend():
    mu_4_2, _ = _mean_fidelity("call", 4, 2)
    mu_4_4, _ = _mean_fidelity("call", 4, 4)
    mu_by_n = {n: _mean_fidelity("call", n, 2)[0] for n in (3, 4, 5)}
    ordered = mu_by_n[3] >= mu_by_n[4] >= mu_by_n[5]
    ok = (mu_4_2 < mu_4_4) and ordered
    _report(3, "inexact-mode trend", ok,
            f"mu(4,2)={mu_4_2:.3f} < mu(4,4)={mu_4_4:.3f}; "
            f"mu(n,2) over n=3,4,5: {mu_by_n[3]:.3f} >= {mu_by_n[4]:.3f} >= {mu_by_n[5]:.3f}")
    assert mu_4_2 < mu_4_4
    assert ordered


def test_criterion_4_price_accuracy_vs_reference():
    worst = {}
    for kind in ("call", "put"):
        n = 5
        grid = Grid(0.0, 150.0, n)
        contract = OptionContract(kind, (75.0,))
        cfg = QnuteConfig(delta_t=MATURITY / NUM_STEPS, num_steps=NUM_STEPS, domain_size=n)
        run = price_run(contract, grid, PARAMS, cfg)
        prices, reference = run.prices, run.reference
        analytic = np.array(
            [analytic_price(contract, float(x), MATURITY, PARAMS) for x in grid.points()]
        )
        mask = analytic >= 1.0
        worst[kind] = float(
            np.max(np.abs(prices[mask] - reference[mask]) / np.abs(reference[mask]))
        )
    ok = all(err <= 1e-2 for err in worst.values())
    _report(4, "price accuracy vs discretization-matched reference", ok,
            f"max rel err (analytic >= 1): call {worst['call']:.2e}, put {worst['put']:.2e}")
    for kind, err in worst.items():
        assert err <= 1e-2, (kind, err)


def test_criterion_5_price_accuracy_vs_closed_form():
    n = 6
    grid = Grid(0.0, 150.0, n)
    contract = OptionContract("call", (75.0,))
    cfg = QnuteConfig(delta_t=MATURITY / NUM_STEPS, num_steps=NUM_STEPS, domain_size=n)
    start = time.perf_counter()
    prices = price_curve(contract, grid, PARAMS, cfg)
    elapsed = time.perf_counter() - start
    analytic = np.array(
        [analytic_price(contract, float(x), MATURITY, PARAMS) for x in grid.points()]
    )
    mask = analytic >= 5.0
    worst = float(np.max(np.abs(prices[mask] - analytic[mask]) / analytic[mask]))
    ok = worst <= 0.05
    _report(5, "price accuracy vs closed form (n=6)", ok,
            f"max rel err (analytic >= 5) = {worst:.2e}, runtime {elapsed:.0f}s")
    assert worst <= 0.05


def test_criterion_6_first_order_consistency():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    dts = (6e-3, 3e-3, 1.5e-3)
    slopes = []
    for _ in range(3):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 4.0 / np.linalg.norm(m, 2)  # spectral norm <= 5
        h = decompose_dense(m)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = StateVector(v / np.linalg.norm(v))
        term = HamiltonianTerm(h, frozenset({0, 1}))
        errs = []
        for dt in dts:
            cfg = QnuteConfig(delta_t=dt, num_steps=1, domain_size=2)
            out, _ = trotter_step(ScaledState(psi0, 1.0), term, cfg)
            exact, _ = exact_step(psi0, h, dt)
            phase = np.exp(-1j * np.angle(np.vdot(exact.amplitudes, out.state.amplitudes)))
            errs.append(np.linalg.norm(out.state.amplitudes - phase * exact.amplitudes))
        slopes.append(float(np.polyfit(np.log(dts), np.log(errs), 1)[0]))
    elapsed = time.perf_counter() - start
    ok = all(s >= 1.9 for s in slopes) and elapsed < 10.0
    _report(6, "first-order consistency", ok,
            f"fitted exponents {['%.2f' % s for s in slopes]}, runtime {elapsed:.1f}s")
    for s in slopes:
        assert s >= 1.9
    assert elapsed < 10.0


def test_criterion_7_qite_regression():
    rng = np.random.default_rng(77)
    basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    evals = np.array([0.4, 1.0, 1.8, 2.7])  # spectral gap 0.6
    L = basis @ np.diag(evals) @ basis.conj().T
    h = decompose_dense(-L)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    initial = ScaledState(StateVector(v / np.linalg.norm(v)), 1.0)
    cfg = QnuteConfig(delta_t=0.01, num_steps=1000, domain_size=2)
    for *_, state, _ in evolve(initial, split_terms(h, 2, cfg.domain_size), cfg):
        pass
    final = state.state.amplitudes
    energy = float(np.real(np.vdot(final, L @ final)))
    err = abs(energy - evals[0])
    ok = err <= 1e-4
    _report(7, "imaginary-time ground-state regression", ok,
            f"energy error {err:.2e} at tau=10, dt=0.01")
    assert err <= 1e-4


def test_criterion_8_boundary_protocol():
    # A put struck above the domain keeps the initial data exactly linear.
    n = 4
    grid = Grid(0.0, 150.0, n)
    contract = OptionContract("put", (200.0,))
    cfg = QnuteConfig(delta_t=MATURITY / NUM_STEPS, num_steps=NUM_STEPS, domain_size=n)
    u0 = payoff_samples(contract, grid)
    coeffs = boundary_coefficients(u0, grid)
    evolved = price_run(contract, grid, PARAMS, cfg).reference
    expected = coeffs.a0 * grid.points() + coeffs.b0 * np.exp(-PARAMS.r * MATURITY)
    boundary_err = max(abs(evolved[0] - expected[0]), abs(evolved[-1] - expected[-1]))

    true_norm = float(np.linalg.norm(evolved))
    state = StateVector(evolved / true_norm)
    recovered = rescale_factor(state, coeffs, "left", MATURITY, PARAMS)
    norm_err = abs(recovered - true_norm) / true_norm

    ok = boundary_err < 1e-6 and norm_err < 1e-6
    _report(8, "boundary protocol", ok,
            f"boundary rows off by {boundary_err:.2e}; norm recovered to {norm_err:.2e}")
    assert boundary_err < 1e-6
    assert norm_err < 1e-6


def test_criterion_9_protocol_failure_path(tmp_path, capsys):
    grid = Grid(0.0, 150.0, 3)
    contract = OptionContract("call", (200.0,))  # payoff identically zero
    cfg = QnuteConfig(delta_t=0.01, num_steps=10, domain_size=3)
    with pytest.raises(ProtocolFailureError):
        price_curve(contract, grid, PARAMS, cfg)

    config = tmp_path / "degenerate.cfg"
    config.write_text(
        "contract = call:200\ngrid.n = 3\nschedule.N_T = 10\n", encoding="utf-8"
    )
    code = cli_main(["price", "--config", str(config), "--out", str(tmp_path / "out")])
    err_text = capsys.readouterr().err
    ok = code == 3 and "numerical failure" in err_text
    _report(9, "protocol failure path", ok,
            f"CLI exit code {code} for a payoff that is zero near both boundaries")
    assert code == 3
