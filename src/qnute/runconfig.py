"""Flat key-value run configurations with dotted section keys."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .hamiltonian import CENTRAL, LINEAR, BSParams, Grid
from .market import OptionContract, format_contract_spec, parse_contract_spec
from .pauli import DENSE_QUBIT_GUARD


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
    if not math.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, item.strip()) for item in value.split(",") if item.strip())


def _parse_contract(key: str, value: str) -> OptionContract:
    try:
        return parse_contract_spec(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_contract_list(key: str, value: str) -> tuple[OptionContract, ...]:
    # Contract specs contain commas; option lists are separated by ';'.
    return tuple(_parse_contract(key, item.strip()) for item in value.split(";") if item.strip())


def _format_float(value: float) -> str:
    return f"{value:.12g}"


def _format_int_list(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values)


# Every key, in canonical order: its RunConfig field, parser and formatter.
_KEYS = {
    "contract": ("contract", _parse_contract, format_contract_spec),
    "grid.x0": ("x0", _parse_float, _format_float),
    "grid.xN": ("xN", _parse_float, _format_float),
    "grid.n": ("n", _parse_int, str),
    "params.r": ("r", _parse_float, _format_float),
    "params.sigma": ("sigma", _parse_float, _format_float),
    "schedule.T": ("maturity", _parse_float, _format_float),
    "schedule.N_T": ("num_steps", _parse_int, str),
    "qnute.domain_size": ("domain_size", _parse_int, str),
    "hamiltonian.boundary": ("boundary", lambda k, v: v, str),
    "sweep.options": (
        "sweep_options",
        _parse_contract_list,
        lambda cs: "; ".join(format_contract_spec(c) for c in cs),
    ),
    "sweep.n": ("sweep_n", _parse_int_list, _format_int_list),
    "sweep.D": ("sweep_D", _parse_int_list, _format_int_list),
    "output.dir": ("out_dir", lambda k, v: v, str),
}


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.n < 1:
        raise ConfigError(f"grid.n: must be at least 1, got {cfg.n}")
    if not cfg.xN > cfg.x0 >= 0.0:
        raise ConfigError(f"grid.x0/grid.xN: need xN > x0 >= 0, got [{cfg.x0}, {cfg.xN}]")
    # The generator squares the grid points; the encoding sums up to 2^guard squares.
    if not math.isfinite(cfg.xN * cfg.xN * 2.0**DENSE_QUBIT_GUARD):
        raise ConfigError(
            f"grid.x0/grid.xN: the squares of 2^{DENSE_QUBIT_GUARD} points up to {cfg.xN} overflow"
        )
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
    for key, values in (("sweep.n", cfg.sweep_n), ("sweep.D", cfg.sweep_D)):
        if any(v < 1 for v in values):
            raise ConfigError(f"{key}: entries must be at least 1, got {values}")
    # The generator divides by the squared grid step, which shrinks with n.
    n = max((cfg.n, *cfg.sweep_n))
    h = cfg.grid(n).h
    if h * h == 0.0 or not math.isfinite(1.0 / (h * h)):
        raise ConfigError(
            f"grid.x0/grid.xN: the square of the grid step {h:.3e} at n = {n} underflows"
        )
    # (sigma m)^2 + r m bounds the generator's entries and the products that
    # form them; 2^4 of headroom covers its Pauli coefficients and their sums.
    m = max(1.0, cfg.xN) * max(1.0, 1.0 / h)
    for key, value, size in (
        ("params.sigma", cfg.sigma, cfg.sigma * m * cfg.sigma * m),
        ("params.r", cfg.r, cfg.r * m),
    ):
        if not math.isfinite(size * 2.0**4):
            raise ConfigError(f"{key}: {value:g} makes the generator at n = {n} overflow")
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser, _ = _KEYS[key]
        values[attr] = parser(key, value)
    return _validate(replace(RunConfig(), **values))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key in fixed order, floats to 12 significant digits.

    Empty sweep lists are left out; qnute.domain_size is the resolved size.
    """
    cfg = replace(cfg, domain_size=cfg.resolved_domain_size())
    lines = []
    for key, (attr, _, fmt) in _KEYS.items():
        value = getattr(cfg, attr)
        if value != ():
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"
