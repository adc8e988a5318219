"""Command-line harness: artifacts, exit codes, and determinism."""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnute
import qnute.cli
import qnute.evolution
import qnute.exact
import qnute.hamiltonian
import qnute.market
from oracles import tridiagonal_dense
from qnute.cli import _fmt, _sweep_one, build_parser, main
from qnute.errors import NumericalError, QnuteError, StepSizeError, UsageError
from qnute.hamiltonian import BSParams, Grid, bs_coefficients, build_bs_pauli, split_terms
from qnute.market import OptionContract, format_contract_spec, payoff_samples
from qnute.pauli import span_matrix
from qnute.runconfig import parse_config

PRICE_CONFIG = """
contract = call:75
grid.n = 3
schedule.T = 3
schedule.N_T = 20
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPrice:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, PRICE_CONFIG)
        out = tmp_path / "out"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "prices.csv")
        assert header == ["x", "qnute_price", "reference_pde_price", "analytic_price"]
        assert len(rows) == 8
        prices = [float(r[1]) for r in rows]
        # Call prices are nondecreasing in the asset price.
        assert all(b >= a - 1e-9 for a, b in zip(prices, prices[1:]))
        t_header, t_rows = read_csv(out / "trajectory.csv")
        assert t_header == ["step", "tau", "c", "cumulative_scale", "residual", "step_fidelity"]
        assert len(t_rows) == 20

    def test_zero_steps_short_circuit(self, tmp_path):
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("N_T = 20", "N_T = 0"))
        out = tmp_path / "out"
        assert main(["price", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "prices.csv")
        grid = Grid(0.0, 150.0, 3)
        payoff = payoff_samples(OptionContract("call", (75.0,)), grid)
        assert np.allclose([float(r[1]) for r in rows], payoff)
        assert np.allclose([float(r[3]) for r in rows], payoff)
        _, t_rows = read_csv(out / "trajectory.csv")
        assert t_rows == []

    def test_malformed_strike_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "contract = call:\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "contract" in capsys.readouterr().err

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PRICE_CONFIG + "params.r = nan\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "params.r: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o" / "prices.csv").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["price", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_domain_larger_than_register_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, PRICE_CONFIG + "qnute.domain_size = 5\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "key", ["qnute.basis_mode", "qnute.term_strategy", "qnute.lstsq_rel_tol"]
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, PRICE_CONFIG + f"{key} = auto\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_protocol_failure_exits_3(self, tmp_path, capsys):
        # A strike above the whole grid leaves the payoff identically zero, so
        # both boundaries are degenerate and the rescaling protocol fails.
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("call:75", "call:200"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, PRICE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["price", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["price", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "prices.csv").read_bytes() == (out2 / "prices.csv").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_basis_capacity_guard_exits_2(self, tmp_path, monkeypatch, capsys):
        # grid.n = 10, D = 9 fits odd-y bases over 9-qubit windows: 130816
        # strings whose tables would need 4.3 GB; the guard raises before any is built.
        monkeypatch.setattr(
            "qnute.evolution.gather_tables",
            lambda _: pytest.fail("basis tables were built"),
        )
        text = PRICE_CONFIG.replace("grid.n = 3", "grid.n = 10") + "qnute.domain_size = 9\n"
        cfg = write_config(tmp_path, text)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.n/qnute.domain_size: a 9-qubit odd-y basis")
        assert f"gather tables need {130816 * 1024 * 32} bytes" in err

    def test_whole_register_nine_qubits_runs(self, tmp_path, monkeypatch):
        # n = D = 9 keeps 30 MB of prefix tables and work arrays, where its
        # gather tables would have needed 2.1 GB; it builds none of them.
        monkeypatch.setattr(
            "qnute.evolution.sigma_basis", lambda *_: pytest.fail("basis tables were built")
        )
        text = PRICE_CONFIG.replace("grid.n = 3", "grid.n = 9").replace("T = 3", "T = 4e-5")
        cfg = write_config(tmp_path, text.replace("N_T = 20", "N_T = 2"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "trajectory.csv")
        assert [row[4] for row in rows] == ["0", "0"]

    @pytest.mark.parametrize(
        "n, message",
        [
            (15, "dense realization of 15 qubits exceeds the 14-qubit guard"),
            (12, "need 3020406784 bytes"),
        ],
    )
    def test_oversized_run_exits_2_before_building(self, tmp_path, monkeypatch, capsys, n, message):
        monkeypatch.setattr(
            "qnute.market.build_bs_pauli", lambda *_: pytest.fail("the generator was built")
        )
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("grid.n = 3", f"grid.n = {n}"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "prices.csv").exists()

    @pytest.mark.parametrize("steps", [0, 5])
    def test_register_over_the_dense_guard_exits_2_before_any_array(self, tmp_path, capsys, steps):
        # 2^45 grid points would need 281 TB; even N_T = 0 writes a row per point.
        text = PRICE_CONFIG.replace("grid.n = 3", "grid.n = 45").replace("N_T = 20", f"N_T = {steps}")
        cfg = write_config(tmp_path, text)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: grid.n: dense realization of 45 qubits exceeds the 14-qubit guard"
        ]
        assert not (tmp_path / "o" / "prices.csv").exists()

    def test_one_qubit_register_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "qnute.market.build_bs_pauli", lambda *_: pytest.fail("the generator was built")
        )
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("grid.n = 3", "grid.n = 1"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: grid.n: linear boundary mode requires n >= 2 qubits, got 1"
        ]
        assert not (tmp_path / "o" / "prices.csv").exists()

    def test_overflowing_propagator_exits_3(self, tmp_path, capsys):
        # One step of 1e20 years: exp(h_m dt) overflows before any price is written.
        text = PRICE_CONFIG.replace("T = 3", "T = 1e20").replace("N_T = 20", "N_T = 1")
        cfg = write_config(tmp_path, text)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "exp(h_m dt) overflows at dt = 1.000e+20" in capsys.readouterr().err
        assert not (tmp_path / "o" / "prices.csv").exists()

    def test_radicand_failure_wins_over_propagator_overflow(self, tmp_path, capsys):
        # A put's first factor fails both checks at this step: the fit runs first.
        text = PRICE_CONFIG.replace("T = 3", "T = 1e20").replace("N_T = 20", "N_T = 1")
        cfg = write_config(tmp_path, text.replace("call:75", "put:75"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "c radicand -1.010e+19 is not positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "prices.csv").exists()

    @pytest.mark.parametrize("command", ["price", "decompose"])
    def test_overflowing_grid_exits_2_before_building(self, tmp_path, monkeypatch, capsys, command):
        for module in ("qnute.market", "qnute.cli"):
            monkeypatch.setattr(
                f"{module}.build_bs_pauli", lambda *_: pytest.fail("the generator was built")
            )
        cfg = write_config(tmp_path, PRICE_CONFIG + "grid.x0 = 1e308\ngrid.xN = 1.7e308\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: grid.x0/grid.xN: the squares of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "decompose"])
    def test_underflowing_grid_step_exits_2_before_building(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # h = 1e-170 / 7 squares to 0: the generator would divide by zero.
        for module in ("qnute.market", "qnute.cli"):
            monkeypatch.setattr(
                f"{module}.build_bs_pauli", lambda *_: pytest.fail("the generator was built")
            )
        cfg = write_config(tmp_path, PRICE_CONFIG + "grid.x0 = 0\ngrid.xN = 1e-170\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.x0/grid.xN: the square of the grid step 1.429e-171" in err

    @pytest.mark.parametrize("command", ["price", "decompose"])
    def test_overflowing_generator_exits_2_before_building(
        self, tmp_path, monkeypatch, capsys, command
    ):
        for module in ("qnute.market", "qnute.cli"):
            monkeypatch.setattr(
                f"{module}.build_bs_pauli", lambda *_: pytest.fail("the generator was built")
            )
        cfg = write_config(tmp_path, PRICE_CONFIG + "params.sigma = 1e154\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: params.sigma: 1e+154 makes the generator at n = 3 overflow" in err

    @pytest.mark.parametrize("source", ["QNUTE_OUT", "--out", "output.dir"])
    def test_uncreatable_out_dir_exits_2(self, tmp_path, monkeypatch, capsys, source):
        # The output directory would be an existing file, lie below one, or be
        # empty (the working directory). An empty QNUTE_OUT counts as unset.
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.chdir(tmp_path)
        for target in [blocker, blocker / "out"] + ([] if source == "QNUTE_OUT" else [""]):
            monkeypatch.setenv("QNUTE_OUT", "")
            text = PRICE_CONFIG.replace("N_T = 20", "N_T = 0")
            if source == "output.dir":
                text += f"output.dir = {target}\n"
            argv = ["price", "--config", write_config(tmp_path, text)]
            if source == "--out":
                argv += ["--out", str(target)]
            if source == "QNUTE_OUT":
                monkeypatch.setenv("QNUTE_OUT", str(target))
            assert main(argv) == 2
            err = capsys.readouterr().err
            if target:
                assert err.startswith(f"config error: {source}: cannot create {target}: ")
            else:
                assert err == f"config error: {source}: the output directory is empty\n"
        assert not (tmp_path / "prices.csv").exists() and not (tmp_path / "out").exists()

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("N_T = 20", "N_T = 0"))
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("QNUTE_OUT", str(env_dir))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "flag_out")]) == 0
        assert (env_dir / "prices.csv").exists()
        assert not (tmp_path / "flag_out").exists()


SWEEP_CONFIG = """
schedule.T = 3
schedule.N_T = 20
sweep.options = call:75
sweep.n = 2
sweep.D = 2
"""


class TestFidelitySweep:
    def test_single_combination(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "fidelity.csv")
        assert header == ["option", "n", "D", "mu_F", "sigma_F"]
        assert len(rows) == 1
        option, n, domain, mu, sigma = rows[0]
        assert option == "call:75" and (n, domain) == ("2", "2")
        assert float(mu) > 0.999
        assert float(sigma) < 1e-3

    def test_skips_domain_larger_than_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.D = 2", "sweep.D = 2,4"))
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "skipping D=4" in capsys.readouterr().err
        _, rows = read_csv(out / "fidelity.csv")
        assert len(rows) == 1

    def test_no_runnable_cell_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.D = 2", "sweep.D = 3"))
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: skipping D=3 > n=2")
        assert err[-1] == (
            "config error: sweep.D: every domain size exceeds every qubit count in sweep.n"
        )
        assert not (out / "fidelity.csv").exists()

    def test_oversized_cell_exits_2_before_any_worker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(qnute.cli, "_sweep_one", lambda *_: pytest.fail("a cell ran"))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *_, **__: pytest.fail("a worker started")
        )
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 2,15"))
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep.n: dense realization of 15 qubits exceeds the 14-qubit guard"
        ]
        assert not (out / "fidelity.csv").exists()

    def test_basis_capacity_guard_exits_2_before_any_worker(self, tmp_path, monkeypatch, capsys):
        # The sweep twin of TestPrice's guard: sweep.n = 10, D = 9 would need 4.3 GB of tables.
        monkeypatch.setattr(
            "qnute.evolution.gather_tables",
            lambda _: pytest.fail("basis tables were built"),
        )
        monkeypatch.setattr(qnute.cli, "_sweep_one", lambda *_: pytest.fail("a cell ran"))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *_, **__: pytest.fail("a worker started")
        )
        text = SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 10").replace("D = 2", "D = 9")
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.n/sweep.D: a 9-qubit odd-y basis")
        assert f"gather tables need {130816 * 1024 * 32} bytes" in err
        assert not (out / "fidelity.csv").exists()

    def test_one_qubit_cell_exits_2_before_any_worker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(qnute.cli, "_sweep_one", lambda *_: pytest.fail("a cell ran"))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *_, **__: pytest.fail("a worker started")
        )
        text = SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 1,5").replace("D = 2", "D = 1,2")
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipping D=2 > n=1 for call:75",
            "config error: sweep.n: linear boundary mode requires n >= 2 qubits, got 1",
        ]
        assert not (out / "fidelity.csv").exists()

    def test_empty_option_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.n = 2\nsweep.D = 2\n")
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_rows_match_serial_cells_in_config_order(self, tmp_path):
        text = """
schedule.T = 0.3
schedule.N_T = 10
sweep.options = put:65; call:75
sweep.n = 3,2
sweep.D = 3,2
"""
        cfg = parse_config(text)
        want = [
            [format_contract_spec(c), str(n), str(d), *map(_fmt, _sweep_one(cfg, c, n, d))]
            for c in cfg.sweep_options for n in cfg.sweep_n for d in cfg.sweep_D if d <= n
        ]
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        _, rows = read_csv(out / "fidelity.csv")
        assert len(rows) == 6
        assert rows == want

    def test_cell_runs_no_step_diagnostic(self, monkeypatch):
        # fidelity_stats reads the states alone: a cell resolves each term's
        # propagator once for the exact evolution and takes no exact step
        # for the fitted steps' fidelity.
        text = "schedule.T = 0.3\nschedule.N_T = 10\nsweep.options = call:75\nsweep.n = 4\nsweep.D = 2\n"
        cfg = parse_config(text)
        calls = {"exact_step": [], "step_propagator": []}
        for name in calls:
            def spy(*args, _fn=getattr(qnute.exact, name), _calls=calls[name]):
                _calls.append(args)
                return _fn(*args)

            monkeypatch.setattr(qnute.exact, name, spy)
        _sweep_one(cfg, cfg.sweep_options[0], 4, 2)
        terms = split_terms(build_bs_pauli(cfg.grid(4), cfg.params(), "linear"), 4, 2)
        assert len(terms) > 1 and not calls["exact_step"]
        assert len(calls["step_propagator"]) == len(terms)
        for (got, _), term in zip(calls["step_propagator"], terms):
            want = span_matrix(term.pauli)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_failure_matches_serial_run(self, tmp_path, capsys):
        text = (GOLDEN / "sweep" / "run.cfg").read_text(encoding="utf-8")
        text = text.replace("schedule.T = 0.3", "schedule.T = 3").replace("N_T = 50", "N_T = 20")
        cfg = parse_config(text)
        with pytest.raises(StepSizeError) as serial:
            for c in cfg.sweep_options:
                for n in cfg.sweep_n:
                    for d in cfg.sweep_D:
                        _sweep_one(cfg, c, n, d)
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", write_config(tmp_path, text), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical failure: {serial.value}"]
        assert not (out / "fidelity.csv").exists()

    def test_first_failing_cell_in_config_order_wins(self, tmp_path, monkeypatch, capsys):
        def fail(cfg, contract, n, domain):
            raise StepSizeError(f"cell n={n} D={domain}")

        monkeypatch.setattr(qnute.cli, "_sweep_one", fail)
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 2,3,4"))
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == ["numerical failure: cell n=2 D=2"]


DECOMPOSE_CONFIG = """
grid.n = 2
hamiltonian.boundary = central
"""


class TestDecompose:
    def test_dense_csv_matches_tridiagonal(self, tmp_path):
        cfg = write_config(tmp_path, DECOMPOSE_CONFIG)
        out = tmp_path / "out"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "hamiltonian_dense.csv")
        got = np.zeros((4, 4), dtype=complex)
        for row, col, re, im in rows:
            got[int(row), int(col)] = float(re) + 1j * float(im)
        want = tridiagonal_dense(bs_coefficients(Grid(0.0, 150.0, 2), BSParams(0.04, 0.2)))
        assert np.max(np.abs(got - want)) < 1e-10
        assert (out / "hamiltonian_pauli.txt").exists()

    def test_prints_term_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DECOMPOSE_CONFIG)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "Pauli terms" in capsys.readouterr().out

    def test_zero_operator_has_zero_terms(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, DECOMPOSE_CONFIG + "params.r = 0\nparams.sigma = 0\n"
        )
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "0 Pauli terms" in capsys.readouterr().out

    def test_linear_single_qubit_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "grid.n = 1\nhamiltonian.boundary = linear\n")
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_capacity_guard_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "grid.n = 11\n")
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


GOLDEN = Path(__file__).parent / "data"


class TestGoldenBytes:
    """Output bodies pinned byte for byte; tests/data/*/run.cfg regenerates them."""

    @staticmethod
    def check_price(golden, out):
        assert main(["price", "--config", str(golden / "run.cfg"), "--out", str(out)]) == 0
        for name in ("prices.csv", "trajectory.csv"):
            assert (out / name).read_bytes() == (golden / name).read_bytes()

    def test_price(self, tmp_path):
        self.check_price(GOLDEN / "price", tmp_path)

    def test_price_full_register(self, tmp_path):
        # n = D = 6: one 2016-string odd-Y basis, fitted through a 2016 x 128 factor.
        self.check_price(GOLDEN / "price-n6", tmp_path)

    @pytest.mark.parametrize("kind", ["put", "bull-spread", "bear-spread", "straddle", "strangle"])
    def test_price_kind(self, tmp_path, kind):
        # test_price's settings for every other contract kind: its legs and rescale side.
        self.check_price(GOLDEN / f"price-{kind}", tmp_path)

    def test_decompose(self, tmp_path):
        # n = 6, linear boundary: the generator's 272 strings and its dense entries.
        golden = GOLDEN / "decompose"
        assert main(["decompose", "--config", str(golden / "run.cfg"), "--out", str(tmp_path)]) == 0
        for name in ("hamiltonian_pauli.txt", "hamiltonian_dense.csv"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()

    def test_windowed_sweep(self, tmp_path):
        cfg = str(GOLDEN / "sweep" / "run.cfg")
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        want = (GOLDEN / "sweep" / "fidelity.csv").read_bytes()
        assert (tmp_path / "fidelity.csv").read_bytes() == want

    def test_windowed_sweep_under_spawn(self, tmp_path, monkeypatch):
        # Spawned workers start from a fresh import, so the pool's entry point
        # must pickle by name.
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context", lambda *_: get_context("spawn"))
        self.test_windowed_sweep(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_windowed_sweep_on_one_cpu(self, tmp_path):
        cpu = min(os.sched_getaffinity(0))
        cfg = str(GOLDEN / "sweep" / "run.cfg")
        proc = subprocess.run(
            [sys.executable, "-m", "qnute", "fidelity-sweep", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        assert proc.returncode == 0, proc.stderr
        want = (GOLDEN / "sweep" / "fidelity.csv").read_bytes()
        assert (tmp_path / "fidelity.csv").read_bytes() == want


# A forked worker inherits the test's patches.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)

# Runs every golden config in one interpreter that cannot import scipy, then
# checks that nothing imported it.
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")

sys.meta_path.insert(0, NoScipy())
from pathlib import Path
from qnute.cli import main

golden, out = sys.argv[1:]
commands = {"sweep": "fidelity-sweep", "decompose": "decompose"}
for cfg in sorted(Path(golden).glob("*/run.cfg")):
    name = cfg.parent.name
    assert main([commands.get(name, "price"), "--config", str(cfg), "--out", f"{out}/{name}"]) == 0
assert "scipy" not in sys.modules
"""


class TestSweepWorkers:
    """The commands and their workers need no scipy and run without OpenBLAS."""

    def test_commands_run_without_scipy(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, str(GOLDEN), str(tmp_path)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        for want in GOLDEN.glob("*/*.csv"):
            got = tmp_path / want.parent.name / want.name
            assert got.read_bytes() == want.read_bytes(), want

    @needs_fork
    def test_golden_bytes_without_openblas(self, tmp_path, monkeypatch):
        # Every OpenBLAS lookup leaves a file and finds no library.  main looks
        # it up in this process and every sweep worker in its own.
        def no_openblas():
            (tmp_path / f"lookup-{os.getpid()}").touch()

        monkeypatch.setattr(qnute.cli, "_openblas_threads", no_openblas)
        TestGoldenBytes.check_price(GOLDEN / "price-n6", tmp_path / "price")
        out = tmp_path / "sweep"
        assert main(["fidelity-sweep", "--config", str(GOLDEN / "sweep" / "run.cfg"), "--out", str(out)]) == 0
        assert (out / "fidelity.csv").read_bytes() == (GOLDEN / "sweep" / "fidelity.csv").read_bytes()
        lookups = {path.name for path in tmp_path.glob("lookup-*")}
        assert f"lookup-{os.getpid()}" in lookups and len(lookups) >= 2


# Runs one price in a fresh interpreter, then names the pool modules it loaded.
PRICE_ONLY = """
import sys
from qnute.cli import main

config, out = sys.argv[1:]
assert main(["price", "--config", config, "--out", out]) == 0
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
sys.exit(f"price loaded {loaded}" if loaded else 0)
"""


class TestPoolModules:
    """Only fidelity-sweep loads the process pool; the sweep tests above cover the pool."""

    def test_price_loads_no_pool(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", PRICE_ONLY, str(GOLDEN / "price" / "run.cfg"), str(tmp_path)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr


class TestOneBuild:
    def test_price_builds_and_splits_its_generator_once(self, monkeypatch, tmp_path):
        # Counted through every qnute module that binds the builders.
        calls = []
        for name in ("build_bs_pauli", "split_terms"):
            original = getattr(qnute.hamiltonian, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            bound = [m for key, m in sys.modules.items()
                     if key.split(".")[0] == "qnute" and getattr(m, name, None) is original]
            assert qnute.market in bound
            for module in bound:
                monkeypatch.setattr(module, name, counted)
        cfg = write_config(tmp_path, PRICE_CONFIG)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert sorted(calls) == ["build_bs_pauli", "split_terms"]


class TestBlasThreads:
    """main runs a command on one OpenBLAS thread and restores the caller's count."""

    @staticmethod
    def spy(monkeypatch, module, name, record):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            record(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def test_price_steps_and_reference_on_one_thread(self, blas_threads, monkeypatch, tmp_path):
        get, _ = blas_threads
        seen = set()

        def record(name):
            seen.add((name, get()))

        # The reference advances by apply_span, called in market only for it.
        self.spy(monkeypatch, qnute.evolution, "trotter_step", record)
        self.spy(monkeypatch, qnute.market, "apply_span", record)
        cfg = write_config(tmp_path, PRICE_CONFIG)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert seen == {("trotter_step", 1), ("apply_span", 1)}
        assert get() == 2

    @needs_fork
    def test_forked_sweep_cell_on_one_thread(self, blas_threads, monkeypatch, tmp_path):
        # The worker reports through files: each step leaves one per thread count.
        get, _ = blas_threads
        seen = tmp_path / "seen"
        seen.mkdir()

        def record(name):
            (seen / f"{name}-{get()}").touch()

        self.spy(monkeypatch, qnute.evolution, "trotter_step", record)
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 3"))
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert [path.name for path in seen.iterdir()] == ["trotter_step-1"]
        assert get() == 2

    @pytest.mark.parametrize(
        "config, code",
        [
            (PRICE_CONFIG, 0),
            (PRICE_CONFIG + "grid.xN = 1e300\n", 2),
            (PRICE_CONFIG.replace("call:75", "call:200"), 3),
        ],
        ids=["exit-0", "exit-2", "exit-3"],
    )
    def test_prior_count_restored(self, blas_threads, tmp_path, config, code):
        get, _ = blas_threads
        cfg = write_config(tmp_path, config)
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert get() == 2


def _child_env():
    """Environment for a child that imports the same qnute as this process, installed or not."""
    pythonpath = [str(Path(qnute.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Exit code of every concrete error: 2 for a usage error, 3 for a numerical one.
EXIT_CODES = {
    "CapacityError": 2,
    "ConfigError": 2,
    "DimensionMismatchError": 2,
    "InvalidDomainError": 2,
    "UnsupportedSizeError": 2,
    "DegenerateInputError": 3,
    "ProtocolFailureError": 3,
    "RescaleDegeneracyError": 3,
    "SingularSystemError": 3,
    "StepSizeError": 3,
}
CONCRETE_ERRORS = [
    cls for cls in _subclasses(QnuteError) if cls not in (UsageError, NumericalError)
]


def test_every_concrete_error_has_an_exit_code():
    assert sorted(cls.__name__ for cls in CONCRETE_ERRORS) == sorted(EXIT_CODES)


@pytest.mark.parametrize("cls", CONCRETE_ERRORS, ids=lambda cls: cls.__name__)
def test_error_exit_code(tmp_path, monkeypatch, capsys, cls):
    assert issubclass(cls, UsageError) != issubclass(cls, NumericalError)
    code, prefix = (2, "config error") if issubclass(cls, UsageError) else (3, "numerical failure")
    assert code == EXIT_CODES[cls.__name__]

    def fail(cfg, out_dir):
        raise cls("what failed")

    monkeypatch.setattr(qnute.cli, "cmd_price", fail)
    cfg = write_config(tmp_path, PRICE_CONFIG)
    assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{prefix}: what failed\n"


def test_errors_survive_pickle():
    for cls in (QnuteError, *_subclasses(QnuteError)):
        copy = pickle.loads(pickle.dumps(cls("what failed and where")))
        assert type(copy) is cls
        assert str(copy) == "what failed and where"


def test_options_are_config_and_out():
    sub = build_parser()._subparsers._group_actions[0]
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out"}, name


def test_module_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path, PRICE_CONFIG.replace("N_T = 20", "N_T = 0"))
    proc = subprocess.run(
        [sys.executable, "-m", "qnute", "price", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "prices.csv").exists()
