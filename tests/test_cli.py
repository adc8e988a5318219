"""Command-line harness: artifacts, exit codes, and determinism."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnute
import qnute.cli
from oracles import tridiagonal_dense
from qnute.cli import _fmt, _sweep_one, build_parser, main
from qnute.errors import NumericalError, QnuteError, StepSizeError, UsageError
from qnute.hamiltonian import BSParams, Grid, bs_coefficients
from qnute.market import OptionContract, format_contract_spec, payoff_samples
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
        # grid.n = 10 fits one odd-y basis over all 10 qubits: 523776 strings
        # whose tables would need 17.2 GB; the guard raises before any is built.
        monkeypatch.setattr(
            "qnute.evolution.gather_tables",
            lambda _: pytest.fail("basis tables were built"),
        )
        cfg = write_config(tmp_path, PRICE_CONFIG.replace("grid.n = 3", "grid.n = 10"))
        assert main(["price", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"need {523776 * 1024 * 32} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, message",
        [
            (15, "dense realization of 15 qubits exceeds the 14-qubit guard"),
            (12, f"need {(4**12 - 2**12) // 2 * 4096 * 32} bytes"),
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
            qnute.cli, "ProcessPoolExecutor", lambda *_, **__: pytest.fail("a worker started")
        )
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("sweep.n = 2", "sweep.n = 2,15"))
        out = tmp_path / "out"
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: dense realization of 15 qubits exceeds the 14-qubit guard"
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
    """CSV bodies pinned byte for byte; tests/data/*/run.cfg regenerates them."""

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

    def test_windowed_sweep(self, tmp_path):
        cfg = str(GOLDEN / "sweep" / "run.cfg")
        assert main(["fidelity-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        want = (GOLDEN / "sweep" / "fidelity.csv").read_bytes()
        assert (tmp_path / "fidelity.csv").read_bytes() == want

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
