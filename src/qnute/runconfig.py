"""Flat key-value run configurations with dotted section keys."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .evolution import BASIS_AUTO, BASIS_MODES, STRATEGY_AUTO, TERM_STRATEGIES
from .hamiltonian import CENTRAL, LINEAR, BSParams, Grid
from .market import OptionContract, format_contract_spec, parse_contract_spec


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one experiment run."""

    contract: OptionContract = OptionContract("call", (75.0,))
    x0: float = 0.0
    xN: float = 150.0
    n: int = 6
    r: float = 0.04
    sigma: float = 0.2
    maturity: float = 3.0
    num_steps: int = 500
    domain_size: int | None = None  # defaults to n
    basis_mode: str = BASIS_AUTO
    term_strategy: str = STRATEGY_AUTO
    lstsq_rel_tol: float = 1e-8
    boundary: str = CENTRAL
    sweep_options: tuple[OptionContract, ...] = ()
    sweep_n: tuple[int, ...] = ()
    sweep_D: tuple[int, ...] = ()
    out_dir: str = "out"

    def grid(self, n: int | None = None) -> Grid:
        return Grid(self.x0, self.xN, self.n if n is None else n)

    def params(self) -> BSParams:
        return BSParams(self.r, self.sigma)

    def resolved_domain_size(self) -> int:
        return self.n if self.domain_size is None else self.domain_size


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    return out


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, item.strip()) for item in value.split(",") if item.strip())


def _parse_contract(key: str, value: str) -> OptionContract:
    try:
        return parse_contract_spec(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


_KEY_PARSERS = {
    "contract": ("contract", _parse_contract),
    "grid.x0": ("x0", _parse_float),
    "grid.xN": ("xN", _parse_float),
    "grid.n": ("n", _parse_int),
    "params.r": ("r", _parse_float),
    "params.sigma": ("sigma", _parse_float),
    "schedule.T": ("maturity", _parse_float),
    "schedule.N_T": ("num_steps", _parse_int),
    "qnute.domain_size": ("domain_size", _parse_int),
    "qnute.basis_mode": ("basis_mode", lambda k, v: v.strip()),
    "qnute.term_strategy": ("term_strategy", lambda k, v: v.strip()),
    "qnute.lstsq_rel_tol": ("lstsq_rel_tol", _parse_float),
    "hamiltonian.boundary": ("boundary", lambda k, v: v.strip()),
    "sweep.options": ("sweep_options", None),  # ';'-separated specs, handled inline
    "sweep.n": ("sweep_n", _parse_int_list),
    "sweep.D": ("sweep_D", _parse_int_list),
    "output.dir": ("out_dir", lambda k, v: v.strip()),
}


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.n < 1:
        raise ConfigError(f"grid.n: must be at least 1, got {cfg.n}")
    if not cfg.xN > cfg.x0 >= 0.0:
        raise ConfigError(f"grid.x0/grid.xN: need xN > x0 >= 0, got [{cfg.x0}, {cfg.xN}]")
    if cfg.r < 0.0:
        raise ConfigError(f"params.r: must be non-negative, got {cfg.r}")
    if cfg.sigma < 0.0:
        raise ConfigError(f"params.sigma: must be non-negative, got {cfg.sigma}")
    if cfg.num_steps < 0:
        raise ConfigError(f"schedule.N_T: must be non-negative, got {cfg.num_steps}")
    if cfg.num_steps > 0 and not cfg.maturity > 0.0:
        raise ConfigError(f"schedule.T: must be positive, got {cfg.maturity}")
    if cfg.domain_size is not None and cfg.domain_size < 1:
        raise ConfigError(f"qnute.domain_size: must be at least 1, got {cfg.domain_size}")
    if cfg.basis_mode not in BASIS_MODES:
        raise ConfigError(
            f"qnute.basis_mode: expected one of {', '.join(BASIS_MODES)}, got {cfg.basis_mode!r}"
        )
    if cfg.term_strategy not in TERM_STRATEGIES:
        raise ConfigError(
            f"qnute.term_strategy: expected one of {', '.join(TERM_STRATEGIES)}, "
            f"got {cfg.term_strategy!r}"
        )
    if not 0.0 < cfg.lstsq_rel_tol < 1.0:
        raise ConfigError(
            f"qnute.lstsq_rel_tol: must lie in (0, 1), got {cfg.lstsq_rel_tol}"
        )
    if cfg.boundary not in (CENTRAL, LINEAR):
        raise ConfigError(
            f"hamiltonian.boundary: expected central or linear, got {cfg.boundary!r}"
        )
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment, unknown keys are errors."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser = _KEY_PARSERS[key]
        if key == "sweep.options":
            # Contract specs contain commas; option lists are separated by ';'.
            specs = [item.strip() for item in value.split(";")]
            values[attr] = tuple(
                _parse_contract(key, item) for item in specs if item
            )
        else:
            values[attr] = parser(key, value)
    return _validate(replace(RunConfig(), **values))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key in fixed order, floats to 12 significant digits."""
    lines = [
        f"contract = {format_contract_spec(cfg.contract)}",
        f"grid.x0 = {cfg.x0:.12g}",
        f"grid.xN = {cfg.xN:.12g}",
        f"grid.n = {cfg.n}",
        f"params.r = {cfg.r:.12g}",
        f"params.sigma = {cfg.sigma:.12g}",
        f"schedule.T = {cfg.maturity:.12g}",
        f"schedule.N_T = {cfg.num_steps}",
        f"qnute.domain_size = {cfg.resolved_domain_size()}",
        f"qnute.basis_mode = {cfg.basis_mode}",
        f"qnute.term_strategy = {cfg.term_strategy}",
        f"qnute.lstsq_rel_tol = {cfg.lstsq_rel_tol:.12g}",
        f"hamiltonian.boundary = {cfg.boundary}",
    ]
    if cfg.sweep_options:
        lines.append(
            "sweep.options = "
            + "; ".join(format_contract_spec(c) for c in cfg.sweep_options)
        )
    if cfg.sweep_n:
        lines.append("sweep.n = " + ",".join(str(v) for v in cfg.sweep_n))
    if cfg.sweep_D:
        lines.append("sweep.D = " + ",".join(str(v) for v in cfg.sweep_D))
    lines.append(f"output.dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"
