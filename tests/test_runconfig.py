"""Run-configuration parsing, validation, and canonical serialization."""

import pytest

from qnute.errors import ConfigError
from qnute.market import OptionContract
from qnute.runconfig import RunConfig, parse_config, serialize_config

MINIMAL = """
# price run on defaults
contract = call:75
grid.n = 3
schedule.N_T = 20
"""


class TestParse:
    def test_defaults_are_paper_parameters(self):
        cfg = parse_config("")
        assert (cfg.x0, cfg.xN) == (0.0, 150.0)
        assert cfg.maturity == 3.0
        assert cfg.num_steps == 500
        assert (cfg.r, cfg.sigma) == (0.04, 0.2)

    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.contract == OptionContract("call", (75.0,))
        assert cfg.n == 3
        assert cfg.num_steps == 20
        assert cfg.resolved_domain_size() == 3

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# just a comment\n\ngrid.n = 4  # trailing\n")
        assert cfg.n == 4

    def test_sweep_lists(self):
        cfg = parse_config(
            "sweep.options = call:75; strangle:50,100\nsweep.n = 2,3\nsweep.D = 2\n"
        )
        assert cfg.sweep_options == (
            OptionContract("call", (75.0,)),
            OptionContract("strangle", (50.0, 100.0)),
        )
        assert cfg.sweep_n == (2, 3)
        assert cfg.sweep_D == (2,)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("grid.m = 3\n")
        with pytest.raises(ConfigError, match="unknown configuration key 'output.formats'"):
            parse_config("output.formats = csv\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.n = 3\ngrid.n = 4\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("grid.n 3\n")

    def test_error_names_field(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config("grid.n = three\n")
        with pytest.raises(ConfigError, match="contract"):
            parse_config("contract = call:\n")
        with pytest.raises(ConfigError, match="params.sigma"):
            parse_config("params.sigma = -1\n")
        with pytest.raises(ConfigError, match="qnute.basis_mode"):
            parse_config("qnute.basis_mode = evens\n")
        with pytest.raises(ConfigError, match="qnute.lstsq_rel_tol"):
            parse_config("qnute.lstsq_rel_tol = 2\n")
        with pytest.raises(ConfigError, match="grid.x0"):
            parse_config("grid.x0 = 200\n")
        with pytest.raises(ConfigError, match="hamiltonian.boundary"):
            parse_config("hamiltonian.boundary = reflecting\n")


class TestSerialize:
    def test_round_trip_is_canonical(self):
        canonical = serialize_config(parse_config(MINIMAL))
        assert serialize_config(parse_config(canonical)) == canonical

    def test_canonical_contains_every_section(self):
        text = serialize_config(RunConfig())
        for key in (
            "contract =",
            "grid.x0 =",
            "params.r =",
            "schedule.T =",
            "qnute.domain_size =",
            "hamiltonian.boundary =",
            "output.dir =",
        ):
            assert key in text

    def test_sweep_keys_preserved(self):
        cfg = parse_config("sweep.options = put:75\nsweep.n = 2\nsweep.D = 2\n")
        text = serialize_config(cfg)
        assert "sweep.options = put:75" in text
        assert parse_config(text).sweep_options == cfg.sweep_options
