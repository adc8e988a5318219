"""Command-line experiment harness: price curves, fidelity sweeps, operator dumps.

Exit codes: 0 on success, 2 for a UsageError (a malformed or oversized
request), 3 for a NumericalError (step size, singular fitting system, or
boundary-protocol failure).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from .errors import CapacityError, ConfigError, NumericalError, UnsupportedSizeError, UsageError
from .evolution import QnuteConfig, check_basis_size
from .exact import fidelity_stats
from .hamiltonian import LINEAR, build_bs_pauli, split_terms
from .market import analytic_price, format_contract_spec, payoff_samples, price_run
from .pauli import check_dense_size, dense_matrix, format_pauli_sum
from .runconfig import RunConfig, parse_config
from .statevector import encode_samples

DECOMPOSE_QUBIT_LIMIT = 10


@lru_cache(maxsize=None)
def _openblas_threads():
    """numpy's OpenBLAS (get, set) thread-count functions, or None.

    They are looked up through numpy's core extension module, whose
    dependencies dlsym also searches.  Under another BLAS the lookup returns
    None.
    """
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _set_blas_threads(count: int | None) -> int | None:
    """Set numpy's OpenBLAS thread count and return the prior one (None: no OpenBLAS).

    An equal count is not set again: in a forked process that would start
    OpenBLAS's thread pool, which spins for about 0.1 s.
    """
    threads = _openblas_threads()
    if threads is None or count is None:
        return None
    get, put = threads
    prior = get()
    if prior != count:
        put(count)
    return prior


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


def _check_capacity(key: str, domain_key: str, n: int, domain: int | None) -> None:
    """Refuse an (n, D) run up front that cannot run or is too large.

    key and domain_key name the config keys of n and D.  Every run holds
    arrays of 2^n points, so n must pass the dense guard.  A run that evolves
    (domain given) evolves the linear-boundary generator, which needs two
    qubits, and its real runs fit odd-Y bases.
    """
    try:
        check_dense_size(n)
    except CapacityError as exc:
        raise CapacityError(f"{key}: {exc}") from None
    if domain is None:
        return
    if n < 2:
        raise UnsupportedSizeError(f"{key}: linear boundary mode requires n >= 2 qubits, got {n}")
    try:
        check_basis_size(domain, True, n)
    except CapacityError as exc:
        raise CapacityError(f"{key}/{domain_key}: {exc}") from None


def cmd_price(cfg: RunConfig, out_dir: Path) -> int:
    grid = cfg.grid()
    params = cfg.params()
    domain = cfg.resolved_domain_size()
    if domain > cfg.n:
        raise ConfigError(f"qnute.domain_size: {domain} exceeds grid.n = {cfg.n}")
    _check_capacity("grid.n", "qnute.domain_size", cfg.n, domain if cfg.num_steps else None)
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
        reference = run.reference
        rows = run.rows
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
    gen = build_bs_pauli(grid, params, LINEAR)
    terms = split_terms(gen, n, domain)
    initial = encode_samples(payoff_samples(contract, grid))
    stats = fidelity_stats(initial, terms, qcfg)
    return stats.mean, stats.std


def _sweep_cell(cfg: RunConfig, contract, n: int, domain: int):
    """Pool entry point, pickled by name.

    A forked worker inherits main's one BLAS thread; a spawned one is set to
    it here.  It looks ``_sweep_one`` up when it runs, so a wrapped or patched
    ``_sweep_one``, which need not pickle, is what a forked worker calls.
    """
    _set_blas_threads(1)
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
        _check_capacity("sweep.n", "sweep.D", n, domain)

    # Cells are independent runs. Fork workers inherit the imported numpy;
    # the largest registers go first so they do not finish last. Only this
    # command loads the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    order = sorted(range(len(cells)), key=lambda i: cells[i][2:], reverse=True)
    pool = ProcessPoolExecutor(
        max_workers=min(_cpu_count(), len(cells)) or 1,
        mp_context=context,
    )
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
    """Run one command on one OpenBLAS thread, so its bytes do not depend on the core count."""
    args = build_parser().parse_args(argv)
    prior = _set_blas_threads(1)
    try:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"--config: no such file {config_path}")
        cfg = parse_config(config_path.read_text(encoding="utf-8"))
        source, out_dir = "output.dir", cfg.out_dir
        if args.out is not None:
            source, out_dir = "--out", args.out
        if os.environ.get("QNUTE_OUT"):
            source, out_dir = "QNUTE_OUT", os.environ["QNUTE_OUT"]
        if not out_dir:
            raise ConfigError(f"{source}: the output directory is empty")
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{source}: cannot create {out_dir}: {exc.strerror or exc}") from None
        return args.func(cfg, out_dir)
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        _set_blas_threads(prior)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
