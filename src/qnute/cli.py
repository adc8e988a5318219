"""Command-line experiment harness: price curves, fidelity sweeps, operator dumps.

Exit codes: 0 on success, 2 for a UsageError (a malformed or oversized
request), 3 for a NumericalError (step size, singular fitting system, or
boundary-protocol failure).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConfigError, NumericalError, UsageError
from .evolution import QnuteConfig, check_basis_size, evolve, trajectory_rows
from .exact import exact_trajectory, fidelity_stats, reference_pde_solution
from .hamiltonian import build_bs_pauli, split_terms
from .market import analytic_price, format_contract_spec, payoff_samples, price_run
from .pauli import check_dense_size, dense_matrix, format_pauli_sum
from .runconfig import RunConfig, parse_config
from .statevector import encode_samples

DECOMPOSE_QUBIT_LIMIT = 10


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
    )


def _check_capacity(n: int, domain: int) -> None:
    """Refuse a too-large (n, D) run up front; the CLI's real runs fit odd-Y bases."""
    check_dense_size(n)
    check_basis_size(domain, True, n)


def cmd_price(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid()
    params = cfg.params()
    domain = cfg.resolved_domain_size()
    if domain > cfg.n:
        raise ConfigError(f"qnute.domain_size: {domain} exceeds grid.n = {cfg.n}")
    points = grid.points()
    samples = payoff_samples(cfg.contract, grid)

    if cfg.num_steps == 0:
        qnute_prices = samples
        reference = samples
        rows = []
        delta_t = 0.0
    else:
        _check_capacity(cfg.n, domain)
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
    terms = split_terms(gen, n, domain)
    initial = encode_samples(payoff_samples(contract, grid))
    qnute_traj = evolve(initial, terms, qcfg)
    exact_traj = exact_trajectory(initial, terms, qcfg)
    stats = fidelity_stats(qnute_traj, exact_traj)
    return stats.mean, stats.std


def _sweep_cell(cfg: RunConfig, contract, n: int, domain: int):
    """Pool entry point, pickled by name.

    It looks ``_sweep_one`` up when it runs, so a wrapped or patched
    ``_sweep_one``, which need not pickle, is what a forked worker calls.
    """
    return _sweep_one(cfg, contract, n, domain)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_fidelity_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.sweep_options:
        raise ConfigError("sweep.options: at least one contract is required")
    if not cfg.sweep_n:
        raise ConfigError("sweep.n: at least one qubit count is required")
    if not cfg.sweep_D:
        raise ConfigError("sweep.D: at least one domain size is required")
    if cfg.num_steps == 0:
        raise ConfigError("schedule.N_T: a fidelity sweep needs at least one step")

    cells = []
    for contract in cfg.sweep_options:
        spec = format_contract_spec(contract)
        for n in cfg.sweep_n:
            for domain in cfg.sweep_D:
                if domain > n:
                    print(f"warning: skipping D={domain} > n={n} for {spec}", file=sys.stderr)
                    continue
                cells.append((spec, contract, n, domain))
    if not cells:
        raise ConfigError("sweep.D: every domain size exceeds every qubit count in sweep.n")
    for _, _, n, domain in cells:
        _check_capacity(n, domain)

    # Cells are independent runs. Fork workers inherit the imported numpy and
    # scipy; the largest registers go first so they do not finish last.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    order = sorted(range(len(cells)), key=lambda i: cells[i][2:], reverse=True)
    pool = ProcessPoolExecutor(max_workers=min(_cpu_count(), len(cells)) or 1, mp_context=context)
    try:
        futures = {i: pool.submit(_sweep_cell, cfg, *cells[i][1:]) for i in order}
        # Reading in config order raises the first failing cell's error, as a
        # serial run would; the finally clause then cancels unstarted cells.
        rows = [(spec, n, domain, *futures[i].result())
                for i, (spec, _, n, domain) in enumerate(cells)]
    finally:
        pool.shutdown(cancel_futures=True)

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
    i, j = np.nonzero(dense)
    values = dense[i, j]
    rows = zip(i.tolist(), j.tolist(), values.real, values.imag)
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
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
