"""Benchmark of the qnute command line: end-to-end time, memory and accuracy.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload price-n6 --seed 0 --seconds 60 --trace 0

Every sample is one ``qnute`` command (``price`` or ``fidelity-sweep``) in a
fresh interpreter, started through ``bench/child.py``
with the checkout's ``src`` on ``PYTHONPATH``. A fresh process is needed
because qnute keeps unbounded ``lru_cache``s (generator, dense matrices,
propagators, gather tables, basis action arrays): a second command in the
same process would skip the set-up that a command-line user pays every time.
Samples run one at a time, closed loop, until ``--seconds`` have passed.

The seed picks the run's input, contract kinds and strikes, from a finite
table per workload; qnute only sees the generated config. ``bench/recorded.json`` holds the outputs of every table
entry as produced when this benchmark was written (``bench/record.py``), and
every sample's outputs are checked against them and against independent
oracles; any failure counts in ``failed`` and in ``ok_ratio``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the samples):

- ``wall_ref_s``: time from entering ``qnute.cli.main`` to its return,
  rescaled to a reference host speed. Before each sample a calibration probe
  (``child.py calibrate``: fixed numpy and interpreter kernels, no qnute) is
  timed; the wall-time median is multiplied by the reference time of the
  kernels that resemble the workload's hot paths over their median in this
  run. The shared host drifts in speed by up to 1.7x over minutes, so the
  raw median (``wall_s`` in the report line) does not repeat across runs
  while the rescaled one does.
- ``setup_s``: fresh interpreter until ``main`` is entered (imports plus the
  config read), one value per sample.
- ``peak_rss_mb``: ``ru_maxrss`` of the command's own process.
- ``work_per_s``: fitted Trotter factors per ``wall_ref_s``.
- ``price_err_ref``, ``price_err_bs``: the largest relative price error
  against the discretization-matched reference (where the closed form is at
  least 1) and against the closed form (where it is at least 5), each divided
  by the same error recorded for the same input. Raw errors differ by input,
  so the ratio is what stays comparable across seeds; it reads 1 on the
  sweep, which prices nothing.
- ``ok_ratio``: samples that exited 0 and passed every check, over samples
  attempted (one minus the failed ratio; a metric may not read 0).

With ``--trace 1`` the last line carries per-layer self times and counts from
one traced sample (spans around each layer's public functions, see
``child.py``), one more traced sample with OpenBLAS pinned to one thread
(``blas1.*``, a single-threaded reference for parallelism claims) and the
untraced median that gives ``trace.overhead_s``. The line before the last
holds the full report: quartiles and sample counts, raw errors, check
failures, absent layer names, environment and computed working sets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
RECORDED = BENCH_DIR / "recorded.json"
WORK = ROOT / ".bench_work"

STRIKES = (65.0, 75.0, 85.0)
KINDS = ("call", "put")
RATE, VOLATILITY = 0.04, 0.2  # the config defaults

# Typical calibration kernel times on the 2-vCPU host this benchmark was
# written on. wall_ref_s is the wall time rescaled by the sum of a workload's
# kernels here over the run's own median of that sum: seconds on a host
# running at this reference speed.
CALIBRATION_REF_S = {"interpreter": 0.1, "vector": 0.1, "svd": 0.15}
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
AGREEMENT = 1e-10  # relative to the column's largest magnitude
CRITERION_4 = 1e-2  # max relative error vs the reference, where closed form >= 1
CRITERION_5 = 0.05  # max relative error vs the closed form, where it is >= 5

PRICES_HEADER = "x,qnute_price,reference_pde_price,analytic_price"
TRAJECTORY_HEADER = "step,tau,c,cumulative_scale,residual,step_fidelity"
FIDELITY_HEADER = "option,n,D,mu_F,sigma_F"
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    n: int
    steps: int
    domain: int
    basis_rows: int  # largest fitted basis, for the computed working set
    calibration: tuple[str, ...]  # child.calibrate kernels like its hot paths


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "price-n6", "price",
            "criterion-5 inputs (n=6, D=6, one full-register term, 2016-string "
            "basis): the fit solve and the rotation loop, cache-resident",
            n=6, steps=100, domain=6, basis_rows=2016,
            calibration=("svd", "vector"),
        ),
        Workload(
            "sweep-windowed", "fidelity-sweep",
            "12 windowed runs of 250 steps with 6-63-string bases: per-call "
            "overhead and the dense per-step diagnostic dominate",
            n=5, steps=250, domain=3, basis_rows=63,
            calibration=("interpreter", "vector"),
        ),
    )
}


@dataclass(frozen=True)
class Case:
    label: str
    config: str
    kind: str = ""
    strike: float = 0.0
    options: tuple[str, ...] = ()


def maturity(workload: Workload) -> float:
    return 3.0 * workload.steps / 500  # the paper's time step, T = 3 in 500 steps


def make_case(workload: Workload, seed: int) -> Case:
    """The input of one run, drawn from the workload's table by the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.command == "price":
        kind, strike = rng.choice(KINDS), rng.choice(STRIKES)
        label = f"{kind}:{strike:g}"
        config = (
            f"contract = {label}\ngrid.n = {workload.n}\n"
            f"qnute.domain_size = {workload.domain}\n"
            f"schedule.T = {maturity(workload)!r}\nschedule.N_T = {workload.steps}\n"
        )
        return Case(label, config, kind=kind, strike=strike)
    options = (f"call:{rng.choice(STRIKES):g}", f"put:{rng.choice(STRIKES):g}")
    label = "; ".join(options)
    config = (
        f"sweep.options = {label}\nsweep.n = 3,4,5\nsweep.D = 2,3\n"
        f"schedule.T = {maturity(workload)!r}\nschedule.N_T = {workload.steps}\n"
    )
    return Case(label, config, options=options)


def all_cases(workload: Workload) -> list[Case]:
    """Every table entry the seed can pick, for recording."""
    if workload.command == "price":
        labels = [(k, s) for k in KINDS for s in STRIKES]
    else:
        labels = [(a, b) for a in STRIKES for b in STRIKES]
    cases: dict[str, Case] = {}
    seed = 0
    while len(cases) < len(labels):
        case = make_case(workload, seed)
        cases.setdefault(case.label, case)
        seed += 1
    return sorted(cases.values(), key=lambda c: c.label)


# --- checks -------------------------------------------------------------

def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _floats(rows: list[list[str]], col: int, name: str) -> np.ndarray:
    values = np.array([float(r[col]) for r in rows])
    if not np.all(np.isfinite(values)):
        raise CheckError(f"{name}: non-finite values")
    return values


def _agree(name: str, got, want, failures: list[str]) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        failures.append(f"{name}: shape {got.shape} differs from recorded {want.shape}")
        return
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    worst = float(np.max(np.abs(got - want))) if want.size else 0.0
    if worst > AGREEMENT * scale:
        failures.append(f"{name}: differs from recorded by {worst:.3e} (scale {scale:.3e})")


class CheckError(Exception):
    """An output that cannot be read as the CLI contract describes."""


def _closed_form(kind: str, x: float, strike: float, tau: float, r: float, sigma: float) -> float:
    def norm_cdf(z: float) -> float:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    discounted = strike * math.exp(-r * tau)
    if x == 0.0:
        call = 0.0
    else:
        vol = sigma * math.sqrt(tau)
        d1 = (math.log(x / strike) + (r + 0.5 * sigma**2) * tau) / vol
        call = x * norm_cdf(d1) - discounted * norm_cdf(d1 - vol)
    return call if kind == "call" else call - x + discounted


def price_errors(workload: Workload, case: Case, out: Path) -> dict:
    """Read prices.csv and trajectory.csv; return columns and errors."""
    rows = _read_csv(out / "prices.csv", PRICES_HEADER)
    if len(rows) != 1 << workload.n:
        raise CheckError(f"prices.csv: {len(rows)} rows, expected {1 << workload.n}")
    x, qnute, reference, analytic = (
        _floats(rows, i, name) for i, name in enumerate(PRICES_HEADER.split(","))
    )
    traj = _read_csv(out / "trajectory.csv", TRAJECTORY_HEADER)
    last = [_floats(traj[-1:], i, "trajectory.csv")[0] for i in (2, 3, 5)] if traj else []
    tau = maturity(workload)
    closed = np.array([_closed_form(case.kind, v, case.strike, tau, RATE, VOLATILITY) for v in x])
    ref_mask, bs_mask = closed >= 1.0, closed >= 5.0
    return {
        "x": x, "qnute_price": qnute, "reference_pde_price": reference,
        "analytic_price": analytic, "closed_form": closed, "trajectory_rows": len(traj),
        "trajectory_last": last,
        "err_ref": float(np.max(np.abs(qnute[ref_mask] - reference[ref_mask]) / np.abs(reference[ref_mask]))),
        "err_bs": float(np.max(np.abs(qnute[bs_mask] - closed[bs_mask]) / closed[bs_mask])),
    }


def check_price(workload: Workload, case: Case, out: Path, expected: dict) -> tuple[list[str], dict]:
    got = price_errors(workload, case, out)
    failures: list[str] = []
    grid = np.linspace(0.0, 150.0, 1 << workload.n)
    if np.max(np.abs(got["x"] - grid)) > 1e-9 * 150.0:
        failures.append("prices.csv: x column is not the grid")
    if np.max(np.abs(got["analytic_price"] - got["closed_form"])) > 1e-9 * max(1.0, np.max(got["closed_form"])):
        failures.append("prices.csv: analytic_price differs from the closed form")
    if got["err_ref"] > CRITERION_4:
        failures.append(f"criterion 4: error vs reference {got['err_ref']:.3e} > {CRITERION_4}")
    if got["err_bs"] > CRITERION_5:
        failures.append(f"criterion 5: error vs closed form {got['err_bs']:.3e} > {CRITERION_5}")
    if got["trajectory_rows"] != expected["work"]:
        failures.append(f"trajectory.csv: {got['trajectory_rows']} rows, expected {expected['work']}")
    for key in ("qnute_price", "reference_pde_price"):
        _agree(key, got[key], expected[key], failures)
    for i, name in enumerate(("c", "cumulative_scale", "step_fidelity")):  # unlike scales
        _agree(f"trajectory.csv last {name}", got["trajectory_last"][i:i + 1],
               expected["trajectory_last"][i:i + 1], failures)
    ratios = {
        "price_err_ref": got["err_ref"] / expected["err_ref"],
        "price_err_bs": got["err_bs"] / expected["err_bs"],
    }
    return failures, {"raw": {"err_ref": got["err_ref"], "err_bs": got["err_bs"]}, **ratios}


def sweep_values(workload: Workload, case: Case, out: Path) -> dict:
    rows = _read_csv(out / "fidelity.csv", FIDELITY_HEADER)
    expected_keys = [[o, str(n), str(d)] for o in case.options for n in (3, 4, 5) for d in (2, 3)]
    if [r[:3] for r in rows] != expected_keys:
        raise CheckError("fidelity.csv: rows are not the expected (option, n, D) combinations")
    return {"mu_F": _floats(rows, 3, "mu_F"), "sigma_F": _floats(rows, 4, "sigma_F")}


def check_sweep(workload: Workload, case: Case, out: Path, expected: dict) -> tuple[list[str], dict]:
    got = sweep_values(workload, case, out)
    failures: list[str] = []
    if not np.all((got["mu_F"] > 0.0) & (got["mu_F"] <= 1.0 + 1e-9)) or np.any(got["sigma_F"] < 0.0):
        failures.append("fidelity.csv: fidelity statistics out of range")
    for key in ("mu_F", "sigma_F"):
        _agree(key, got[key], expected[key], failures)
    return failures, {"raw": {"min_mu_F": float(np.min(got["mu_F"]))}}


CHECKS = {"price": check_price, "fidelity-sweep": check_sweep}


# --- samples ------------------------------------------------------------

@dataclass
class Sample:
    mode: str
    setup_s: float = math.nan
    wall_s: float = math.nan
    duration_s: float = math.nan
    rss_mb: float = math.nan
    ok: bool = False
    failures: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)


class Runner:
    """Starts children one at a time and checks each command's outputs."""

    def __init__(self, workload: Workload, case: Case, expected: dict | None, seed: int = 0):
        self.workload, self.case, self.expected = workload, case, expected
        self.run_id = f"{workload.name}-seed{seed}-{os.getpid()}"
        self.samples: list[Sample] = []
        self.started = time.monotonic()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.config = WORK / "run.cfg"
        self.config.write_text(case.config, encoding="utf-8")

    def child(self, mode: str, extra_env: dict | None = None) -> Sample:
        tag = f"{mode}{len(self.samples)}"
        out = WORK / tag
        result_path = WORK / f"{self.run_id}-{tag}.json"  # its stem is the child's run id
        env = {k: v for k, v in os.environ.items() if k != "QNUTE_OUT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env.update(extra_env or {})
        cmd = [sys.executable, str(CHILD), mode, str(result_path), "--",
               self.workload.command, "--config", str(self.config), "--out", str(out)]
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        sample = Sample(mode)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            sample.failures.append(f"{mode}: timed out after {timeout:.0f} s")
            self.samples.append(sample)
            return sample
        sample.duration_s = time.monotonic() - spawned
        self.samples.append(sample)
        if proc.returncode != 0 or not result_path.is_file():
            sample.failures.append(f"{mode}: child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return sample
        result = json.loads(result_path.read_text(encoding="utf-8"))
        sample.result = result
        if mode == "calibrate":
            sample.ok = True
            return sample
        sample.setup_s = result["ready"] - spawned
        sample.rss_mb = result["maxrss_kb"] / 1024.0
        sample.wall_s = result["wall_s"]
        if result["rc"] != 0:
            sample.failures.append(f"{mode}: qnute exited {result['rc']}: {proc.stderr.strip()[-400:]}")
            return sample
        if self.expected is None:  # recording: the caller reads the outputs
            sample.ok = True
            return sample
        try:
            failures, values = CHECKS[self.workload.command](self.workload, self.case, out, self.expected)
        except (CheckError, OSError, ValueError, IndexError) as exc:
            failures, values = [f"{type(exc).__name__}: {exc}"], {}
        sample.failures, sample.values = failures, values
        sample.ok = not failures
        if mode != "trace":
            shutil.rmtree(out, ignore_errors=True)
        return sample

    def fill(self, deadline: float, minimum: int, calibrate: bool = False) -> None:
        """Untraced samples until the next one would end after the deadline.

        With ``calibrate`` each sample is preceded by a calibration probe.
        """
        durations: list[float] = []
        while True:
            if len(durations) >= minimum and time.monotonic() + max(durations) > deadline:
                return
            started = time.monotonic()
            if calibrate:
                self.child("calibrate")
            sample = self.child("run")
            if math.isnan(sample.duration_s):
                return
            durations.append(time.monotonic() - started)


def _stats(values: list[float]) -> dict:
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def working_set(workload: Workload) -> dict:
    """Computed, not measured: bytes the dominant arrays occupy."""
    dim = 1 << workload.n
    rows = workload.basis_rows
    out = {
        "action_arrays_bytes": rows * dim * 24,  # int64 gather index + complex128 phase
        "solver_factor_bytes": rows * 2 * dim * 8 + rows * min(rows, 2 * dim) * 8,  # V and U
    }
    return out


def environment(samples: list[Sample]) -> dict:
    env = next((s.result["env"] for s in samples if "env" in s.result), {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        **env,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    workload, expected = runner.workload, runner.expected
    runner.fill(runner.started + seconds, MIN_SAMPLES, calibrate=True)
    runs = [s for s in runner.samples if s.mode == "run"]
    good = [s for s in runs if s.ok]
    wall = _stats([s.wall_s for s in runs])
    calibration = _stats([sum(s.result["calibration_s"][k] for k in workload.calibration)
                          for s in runner.samples if s.mode == "calibrate" and s.ok])
    reference = sum(CALIBRATION_REF_S[k] for k in workload.calibration)
    wall_ref = wall["median"] * reference / calibration["median"]
    setup = _stats([s.setup_s for s in runner.samples])
    rss = _stats([s.rss_mb for s in runs])
    ratios = {k: _stats([s.values.get(k, math.nan) for s in good]) for k in ("price_err_ref", "price_err_bs")}
    ok_ratio = len(good) / len(runs) if runs else 0.0
    metrics = {
        "wall_ref_s": _metric(wall_ref, "s"),
        "setup_s": _metric(setup["median"], "s"),
        "peak_rss_mb": _metric(rss["median"], "MB"),
        "work_per_s": _metric(expected["work"] / wall_ref, "1/s"),
        "price_err_ref": _metric(ratios["price_err_ref"].get("median", 1.0), "ratio"),
        "price_err_bs": _metric(ratios["price_err_bs"].get("median", 1.0), "ratio"),
        "ok_ratio": _metric(ok_ratio, "1"),
    }
    details = {
        "wall_s": wall, "calibration_s": calibration, "wall_ref_s": wall_ref,
        "setup_s": setup, "peak_rss_mb": rss,
        "work": expected["work"], "price_err": ratios,
        "raw": good[0].values.get("raw") if good else None,
    }
    return metrics, details


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    traced = runner.child("trace")
    blas1 = runner.child("trace", BLAS1_ENV)
    runner.fill(runner.started + seconds, 1)
    untraced = _stats([s.wall_s for s in runner.samples if s.mode == "run"])
    metrics: dict = {}
    summary = traced.result.get("trace")
    if summary is not None:
        wall = traced.wall_s
        for name, value in summary["self_s"].items():
            metrics[name] = _metric(value, "s")
        metrics["trace.unaccounted_s"] = _metric(summary["unaccounted_s"], "s")
        metrics["trace.wall_s"] = _metric(wall, "s")
        metrics["trace.overhead_s"] = _metric(wall - untraced.get("median", math.nan), "s")
        for name, value in summary["counts"].items():
            metrics[name] = _metric(value, "count")
        metrics["cli.bytes_written"] = _metric(
            sum(p.stat().st_size for p in (WORK / "trace0").iterdir()), "count")
        metrics["trace.absent"] = _metric(len(summary["absent"]), "count")
    blas1_summary = blas1.result.get("trace")
    if blas1_summary is not None:
        metrics["blas1.wall_s"] = _metric(blas1.wall_s, "s")
        metrics["blas1.solve_s"] = _metric(blas1_summary["self_s"]["evolution.solve_s"], "s")
    details = {
        "untraced_wall_s": untraced,
        "spans": summary and summary["spans"],
        "absent": summary and summary["absent"],
        "unreadable": summary and summary["unreadable"],
        "self_plus_unaccounted_minus_wall": summary and (
            sum(summary["self_s"].values()) + summary["unaccounted_s"] - traced.wall_s),
        "blas1_openblas": blas1.result.get("env", {}).get("openblas"),
        "spans_file": str((WORK / f"{runner.run_id}-trace0.spans.jsonl").relative_to(ROOT)),
    }
    return metrics, details


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qnute" / "cli.py").is_file():
        print(f"error: no qnute sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    case = make_case(workload, args.seed)
    expected = json.loads(RECORDED.read_text(encoding="utf-8"))[workload.name].get(case.label)
    if expected is None:
        print(f"error: no recorded outputs for {workload.name} {case.label!r}", file=sys.stderr)
        return 2
    runner = Runner(workload, case, expected, args.seed)
    if args.trace:
        metrics, details = traced_run(runner, args.seconds)
    else:
        metrics, details = timed_run(runner, args.seconds)
    checked = [s for s in runner.samples if s.mode != "calibrate"]
    failed = sum(1 for s in runner.samples if not s.ok)
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "input": case.label, "trace": args.trace, "details": details,
        "failures": sorted({f for s in runner.samples for f in s.failures}),
        "environment": environment(runner.samples),
        "working_set_computed": working_set(workload),
        "elapsed_s": time.monotonic() - runner.started,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and bool(checked),
        "attempted": len(runner.samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
