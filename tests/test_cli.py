"""Command-line harness: artifacts, exit codes, and determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnute
from qnute.cli import build_parser, main
from qnute.hamiltonian import BSParams, Grid, bs_coefficients
from qnute.market import OptionContract, payoff_samples

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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["price", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_domain_larger_than_register_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, PRICE_CONFIG + "qnute.domain_size = 5\n")
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
        # grid.n = 10 fits one odd-y basis over all 10 qubits: 523776 strings
        # whose action arrays would need 12.9 GB; no string is ever built.
        monkeypatch.setattr(
            "qnute.evolution.PauliString",
            lambda _: pytest.fail("basis strings were enumerated"),
        )
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("grid.n = 3", "grid.n = 10"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"need {523776 * 1024 * 24} bytes" in capsys.readouterr().err

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

    def test_empty_option_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.n = 2\nsweep.D = 2\n")
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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
        want = bs_coefficients(Grid(0.0, 150.0, 2), BSParams(0.04, 0.2)).to_dense()
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
    """CSV bodies pinned byte for byte; tests/data/*/run.cfg regenerates them."""

    def test_price(self, tmp_path):
        cfg = str(GOLDEN / "price" / "run.cfg")
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == 0
        for name in ("prices.csv", "trajectory.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / "price" / name).read_bytes()

    def test_windowed_sweep(self, tmp_path):
        cfg = str(GOLDEN / "sweep" / "run.cfg")
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        want = (GOLDEN / "sweep" / "fidelity.csv").read_bytes()
        assert (tmp_path / "fidelity.csv").read_bytes() == want


def test_options_are_config_and_out():
    sub = build_parser()._subparsers._group_actions[0]
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out"}, name


def test_module_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path, PRICE_CONFIG.replace("N_T = 20", "N_T = 0"))
    # The child imports the same qnute as this process, installed or not.
    pythonpath = [str(Path(qnute.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(
        [sys.executable, "-m", "qnute", "price", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "prices.csv").exists()
