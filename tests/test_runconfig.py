"""Run-configuration parsing, validation, and canonical serialization."""

import re
from pathlib import Path

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

FLOAT_KEYS = (
    "grid.x0",
    "grid.xN",
    "params.r",
    "params.sigma",
    "schedule.T",
)


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
        for key in (
            "output.formats",
            "qnute.basis_mode",
            "qnute.term_strategy",
            "qnute.lstsq_rel_tol",
        ):
            with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
                parse_config(f"{key} = auto\n")

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
        with pytest.raises(ConfigError, match="grid.x0"):
            parse_config("grid.x0 = 200\n")
        with pytest.raises(ConfigError, match="hamiltonian.boundary"):
            parse_config("hamiltonian.boundary = reflecting\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_number(self, key, value):
        with pytest.raises(ConfigError, match=f"{re.escape(key)}: expected a finite number"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["contract", "sweep.options"])
    def test_non_finite_strike(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: strikes must be positive and finite"):
            parse_config(f"{key} = put:{value}\n")
        with pytest.raises(ConfigError, match=f"{key}: strikes must be positive and finite"):
            parse_config(f"{key} = strangle:50,{value}\n")

    @pytest.mark.parametrize("value", ["0", "-2", "3,0"])
    @pytest.mark.parametrize("key", ["sweep.n", "sweep.D"])
    def test_sweep_entries_below_one(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: entries must be at least 1"):
            parse_config(f"sweep.options = call:75\n{key} = {value}\n")


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

    def test_every_key_pinned(self):
        text = """contract = strangle:50.5,100
grid.x0 = 1.25
grid.xN = 140
grid.n = 5
params.r = 0.035
params.sigma = 0.3
schedule.T = 1.5
schedule.N_T = 250
qnute.domain_size = 3
hamiltonian.boundary = linear
sweep.options = call:75; put:65; bull-spread:60,90
sweep.n = 3,4,5
sweep.D = 2,3
output.dir = runs/out
"""
        assert serialize_config(parse_config(text)) == text

    def test_sweep_keys_preserved(self):
        cfg = parse_config("sweep.options = put:75\nsweep.n = 2\nsweep.D = 2\n")
        text = serialize_config(cfg)
        assert "sweep.options = put:75" in text
        assert parse_config(text).sweep_options == cfg.sweep_options


def test_readme_config_block_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.n == 6 and cfg.resolved_domain_size() == 6
