"""Command-line experiment harness: price curves, fidelity sweeps, operator dumps.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures (step-size, singular fitting system, or boundary-protocol failure).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    InvalidDomainError,
    ProtocolFailureError,
    RescaleDegeneracyError,
    SingularSystemError,
    StepSizeError,
    UnsupportedSizeError,
)
from .evolution import (
    QnuteConfig,
    evolve,
    terms_for_config,
    trajectory_rows,
)
from .exact import exact_trajectory, fidelity_stats, reference_pde_solution
from .hamiltonian import build_bs_pauli
from .market import analytic_price, format_contract_spec, payoff_samples, price_run
from .pauli import dense_matrix, format_pauli_sum
from .runconfig import RunConfig, parse_config
from .statevector import encode_samples

DECOMPOSE_QUBIT_LIMIT = 10

_USAGE_ERRORS = (
    ConfigError,
    InvalidDomainError,
    UnsupportedSizeError,
    CapacityError,
    DimensionMismatchError,
)
_NUMERICAL_ERRORS = (
    StepSizeError,
    SingularSystemError,
    ProtocolFailureError,
    RescaleDegeneracyError,
    DegenerateInputError,
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else _fmt(v) for v in row))
            fh.write("\n")


def _qnute_config(cfg: RunConfig, domain_size: int) -> QnuteConfig:
    return QnuteConfig(
        delta_t=cfg.maturity / cfg.num_steps,
        num_steps=cfg.num_steps,
        domain_size=domain_size,
        basis_mode=cfg.basis_mode,
        lstsq_rel_tol=cfg.lstsq_rel_tol,
        term_strategy=cfg.term_strategy,
    )


def cmd_price(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid()
    params = cfg.params()
    domain = cfg.resolved_domain_size()
    if domain > cfg.n:
        raise ConfigError(
            f"qnute.domain_size: {domain} exceeds grid.n = {cfg.n}"
        )
    points = grid.points()
    samples = payoff_samples(cfg.contract, grid)

    if cfg.num_steps == 0:
        qnute_prices = samples
        reference = samples
        rows = []
        delta_t = 0.0
    else:
        qcfg = _qnute_config(cfg, domain)
        run = price_run(cfg.contract, grid, params, qcfg)
        qnute_prices = run.prices
        reference = reference_pde_solution(cfg.contract, grid, params, qcfg)
        rows = trajectory_rows(run.trajectory, qcfg.delta_t)
        delta_t = qcfg.delta_t
    tau = delta_t * cfg.num_steps if cfg.num_steps else 0.0
    analytic = [analytic_price(cfg.contract, float(x), tau, params) for x in points]

    _write_csv(
        out_dir / "prices.csv",
        "x,qnute_price,reference_pde_price,analytic_price",
        zip(points, qnute_prices, reference, analytic),
    )
    _write_csv(
        out_dir / "trajectory.csv",
        "step,tau,c,cumulative_scale,residual,step_fidelity",
        rows,
    )
    print(f"wrote {out_dir / 'prices.csv'} and {out_dir / 'trajectory.csv'}")
    return 0


def _sweep_one(cfg: RunConfig, contract, n: int, domain: int):
    grid = cfg.grid(n)
    params = cfg.params()
    qcfg = _qnute_config(cfg, domain)
    gen = build_bs_pauli(grid, params, "linear")
    terms = terms_for_config(gen, n, qcfg)
    initial = encode_samples(payoff_samples(contract, grid))
    qnute_traj = evolve(initial, terms, qcfg)
    exact_traj = exact_trajectory(initial, terms, qcfg)
    stats = fidelity_stats(qnute_traj, exact_traj)
    return stats.mean, stats.std


def cmd_fidelity_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.sweep_options:
        raise ConfigError("sweep.options: at least one contract is required")
    if not cfg.sweep_n:
        raise ConfigError("sweep.n: at least one qubit count is required")
    if not cfg.sweep_D:
        raise ConfigError("sweep.D: at least one domain size is required")
    if cfg.num_steps == 0:
        raise ConfigError("schedule.N_T: a fidelity sweep needs at least one step")

    rows = []
    for contract in cfg.sweep_options:
        spec = format_contract_spec(contract)
        for n in cfg.sweep_n:
            for domain in cfg.sweep_D:
                if domain > n:
                    print(f"warning: skipping D={domain} > n={n} for {spec}", file=sys.stderr)
                    continue
                mu, sigma = _sweep_one(cfg, contract, n, domain)
                rows.append((spec, n, domain, mu, sigma))

    _write_csv(out_dir / "fidelity.csv", "option,n,D,mu_F,sigma_F", rows)
    print(f"wrote {out_dir / 'fidelity.csv'} ({len(rows)} rows)")
    return 0


def cmd_decompose(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.n > DECOMPOSE_QUBIT_LIMIT:
        raise CapacityError(
            f"grid.n: decompose supports up to {DECOMPOSE_QUBIT_LIMIT} qubits, got {cfg.n}"
        )
    grid = cfg.grid()
    gen = build_bs_pauli(grid, cfg.params(), cfg.boundary)
    pauli_path = out_dir / "hamiltonian_pauli.txt"
    pauli_path.write_text(format_pauli_sum(gen) + "\n", encoding="utf-8")

    dense = dense_matrix(gen, cfg.n)
    rows = []
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            v = dense[i, j]
            if v != 0:
                rows.append((i, j, v.real, v.imag))
    _write_csv(out_dir / "hamiltonian_dense.csv", "row,col,real,imag", rows)
    print(f"{len(gen)} Pauli terms")
    print(f"wrote {pauli_path} and {out_dir / 'hamiltonian_dense.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnute",
        description="Simulate non-unitary time evolution for Black-Scholes option pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("price", cmd_price, "price an option and dump the solution curves"),
        ("fidelity-sweep", cmd_fidelity_sweep, "sweep (option, n, D) fidelities"),
        ("decompose", cmd_decompose, "dump the discretized generator"),
    )
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"--config: no such file {config_path}")
        cfg = parse_config(config_path.read_text(encoding="utf-8"))
        out_dir = Path(os.environ.get("QNUTE_OUT") or args.out or cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out_dir)
    except _USAGE_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
