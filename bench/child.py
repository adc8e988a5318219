"""Run one qnute CLI command in this fresh interpreter and report what it cost.

Usage::

    python3 bench/child.py MODE RESULT_JSON -- CLI_ARGS...

MODE is ``calibrate`` (fixed reference work, no qnute), ``run`` (the command
untraced) or ``trace`` (the command with every layer wrapped in spans). The
result file gets the monotonic time at which ``qnute.cli.main`` was about to
be entered, after the imports and the config read, the command's wall time
and exit code, this process's peak RSS and the numeric environment; in
``trace`` mode also the per-layer self times and counts. ``bench/run.py`` starts this script with
``src`` of the checkout on ``PYTHONPATH``; nothing under ``src`` is edited.
"""

from __future__ import annotations

import array
import collections
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

# Wrapped layer boundaries: (module, attribute, metric). A span's self time,
# its duration minus that of its child spans, is added to the metric. Names
# missing from the code under test are reported as absent, so the same table
# measures both sides of a refactor that renames or removes one of them.
LAYERS = (
    ("qnute.cli", "cmd_price", "cli.self_s"),
    ("qnute.cli", "cmd_fidelity_sweep", "cli.self_s"),
    ("qnute.cli", "_sweep_one", "cli.self_s"),
    ("qnute.cli", "_write_csv", "cli.write_s"),
    ("qnute.hamiltonian", "build_bs_pauli", "hamiltonian.build_s"),
    ("qnute.hamiltonian", "split_terms", "hamiltonian.split_s"),
    ("qnute.evolution", "terms_for_config", "hamiltonian.split_s"),
    ("qnute.pauli", "dense_matrix", "pauli.dense_s"),
    ("qnute.evolution", "evolve", "evolution.drive_s"),
    ("qnute.evolution", "trajectory_rows", "evolution.drive_s"),
    ("qnute.evolution", "trotter_step", "evolution.rotate_s"),
    ("qnute.evolution", "_solve_gram_factor", "evolution.solve_s"),
    ("qnute.evolution", "solve_coefficients", "evolution.solve_s"),
    ("qnute.evolution", "_apply_generator", "evolution.measure_s"),
    ("qnute.evolution", "measure_c", "evolution.measure_s"),
    ("qnute.evolution", "measure_b", "evolution.measure_s"),
    ("qnute.evolution", "SigmaBasis.apply_all", "evolution.measure_s"),
    ("qnute.evolution", "sigma_basis", "evolution.basis_s"),
    ("qnute.evolution", "SigmaBasis.action_arrays", "evolution.basis_s"),
    ("qnute.exact", "exact_step", None),  # diag under trotter_step, else reference
    ("qnute.exact", "exact_trajectory", "exact.reference_s"),
    ("qnute.exact", "reference_pde_solution", "exact.reference_s"),
    ("qnute.exact", "step_propagator", "exact.propagator_s"),
    ("qnute.statevector", "fidelity", "statevector.fidelity_s"),
    ("qnute.market", "price_run", "market.price_run_s"),
    ("qnute.market", "rescale_factor", "market.rescale_s"),
    ("qnute.market", "analytic_price", "market.closed_form_s"),
)

TIME_METRICS = tuple(
    dict.fromkeys([m for _, _, m in LAYERS if m] + ["exact.diag_s", "exact.reference_s"])
)

STEP = "qnute.evolution.trotter_step"

# Call counters without spans: too many calls to time each one cheaply.
COUNTED = (("qnute.pauli", "multiply_strings", "pauli.multiply_calls"),)

# lru_cache misses, read through cache_info() after the command.
CACHE_MISSES = (
    ("qnute.pauli", "string_action", "pauli.string_actions"),
    ("qnute.exact", "step_propagator", "exact.propagators"),
)


def _resolve(module_name: str, attr: str):
    """(owner, name, object) for ``attr`` ("func" or "Class.method"), or None."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def _rebind(original, replacement) -> None:
    """Point every qnute module global bound to ``original`` at ``replacement``.

    ``from .x import f`` copies the binding, so patching the defining module
    alone would miss callers in other modules.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "qnute" or module_name.startswith("qnute.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """In-memory spans around the calls into each layer, written out at the end.

    Span i (id i + 1; parent id 0 is the root) lives in flat arrays, so
    recording a span allocates nothing the garbage collector tracks.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.metrics: list[str] = list(TIME_METRICS)
        self.parent = array.array("q")
        self.name_id = array.array("q")
        self.metric_id = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.generator_terms: dict[int, int] = {}
        self.max_factors = 0
        self.originals: dict[str, object] = {}

    def _span(self, name: str, metric: str | None, fn, on_result=None):
        stack, clock, names = self.stack, time.perf_counter, self.names
        parents, name_ids, metric_ids, t0s, t1s = (
            self.parent, self.name_id, self.metric_id, self.t0, self.t1)
        self.names.append(name)
        nid = len(self.names) - 1
        mid = self.metrics.index(metric) if metric else -1
        diag, reference = self.metrics.index("exact.diag_s"), self.metrics.index("exact.reference_s")
        counts = self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(t0s)
            parents.append(parent)
            name_ids.append(nid)
            if mid >= 0:
                metric_ids.append(mid)
            else:
                under_step = parent >= 0 and names[name_ids[parent]] == STEP
                metric_ids.append(diag if under_step else reference)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                t1s[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_step(self, result) -> None:
        try:
            self.counts["evolution.basis_rows"] += len(result[1].a)
        except (AttributeError, IndexError, TypeError):
            self.counts["evolution.basis_rows.unreadable"] += 1

    def _on_generator(self, result) -> None:
        self.generator_terms[id(result)] = len(result)

    def _on_split(self, result) -> None:
        self.max_factors = max(self.max_factors, len(result))

    def install(self) -> None:
        hooks = {
            STEP: self._on_step,
            "qnute.hamiltonian.build_bs_pauli": self._on_generator,
            "qnute.hamiltonian.split_terms": self._on_split,
        }
        for module_name, attr, metric in LAYERS:
            self._wrap(module_name, attr, lambda name, fn, m=metric: self._span(
                name, m, fn, hooks.get(name)))
        for module_name, attr, metric in COUNTED:
            self._wrap(module_name, attr, lambda name, fn, m=metric: self._count(m, fn))

    def _wrap(self, module_name: str, attr: str, make) -> None:
        name = f"{module_name}.{attr}"
        found = _resolve(module_name, attr)
        if found is None or not callable(found[2]):
            self.absent.append(name)
            return
        owner, key, original = found
        self.originals[name] = original
        wrapper = make(name, original)
        if isinstance(owner, type):
            setattr(owner, key, wrapper)
        else:
            _rebind(original, wrapper)

    def summary(self, wall_s: float) -> dict:
        durations = [b - a for a, b in zip(self.t0, self.t1)]
        child_time = [0.0] * len(durations)
        for parent, d in zip(self.parent, durations):
            if parent >= 0:
                child_time[parent] += d
        self_s = dict.fromkeys(self.metrics, 0.0)
        for mid, d, c in zip(self.metric_id, durations, child_time):
            self_s[self.metrics[mid]] += d - c
        covered = sum(d for parent, d in zip(self.parent, durations) if parent < 0)
        counts = {
            "hamiltonian.pauli_terms": sum(self.generator_terms.values()),
            "hamiltonian.factors_per_step": self.max_factors,
            "evolution.factors": sum(1 for nid in self.name_id if self.names[nid] == STEP),
            "evolution.basis_rows": self.counts["evolution.basis_rows"],
            "evolution.step_errors": self.counts[STEP + ".errors"],
            "pauli.multiply_calls": self.counts["pauli.multiply_calls"],
        }
        for module_name, attr, metric in CACHE_MISSES:
            found = _resolve(module_name, attr)
            cached = self.originals.get(f"{module_name}.{attr}", found and found[2])
            info = getattr(cached, "cache_info", None)
            if info is None:
                self.absent.append(f"{module_name}.{attr}.cache_info")
                counts[metric] = 0
            else:
                counts[metric] = info().misses
        return {
            "self_s": self_s,
            "unaccounted_s": wall_s - covered,
            "counts": counts,
            "spans": len(durations),
            "absent": self.absent,
            "unreadable": {k: v for k, v in self.counts.items() if k.endswith(".unreadable")},
        }

    def write(self, path: Path) -> None:
        """One JSON line per span: run id, span id, parent id, name, metric, t0, t1."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (parent, nid, mid, t0, t1) in enumerate(
                zip(self.parent, self.name_id, self.metric_id, self.t0, self.t1)
            ):
                row = [self.run_id, i + 1, parent + 1, self.names[nid], self.metrics[mid], t0, t1]
                fh.write(json.dumps(row) + "\n")


def _blas_info() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "", "_64_"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def _environment() -> dict:
    import numpy
    import scipy

    import qnute

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qnute": getattr(qnute, "__version__", "unknown"),
        "qnute_path": os.path.relpath(os.path.dirname(qnute.__file__)),
        "openblas": _blas_info(),
    }


def calibrate() -> dict[str, float]:
    """Seconds this process takes for fixed kernels shaped like the workloads' hot paths.

    No qnute code runs here, so the times track only how fast the host is
    right now, per kind of work: an interpreter loop, small-vector numpy calls
    as in the rotation loop, and thin SVDs as in the fit solve.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    flip = np.arange(64) ^ 37  # a Pauli-X gather, so each rotation below is unitary
    factor = rng.normal(size=(2016, 128))

    def interpreter():
        total = 0
        for i in range(1_000_000):
            total += i * i

    def vector():
        v = psi
        for _ in range(20_000):
            v = 0.8 * v - 0.6j * v[flip]

    def svd():
        for _ in range(2):
            np.linalg.svd(factor, full_matrices=False)

    times = {}
    for kernel in (interpreter, vector, svd):
        t0 = time.perf_counter()
        kernel()
        times[kernel.__name__] = time.perf_counter() - t0
    return times


def main() -> int:
    mode, result_path = sys.argv[1], Path(sys.argv[2])
    if sys.argv[3] != "--" or mode not in ("calibrate", "run", "trace"):
        print("usage: child.py calibrate|run|trace RESULT_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    cli_args = sys.argv[4:]
    if mode == "calibrate":
        result_path.write_text(json.dumps({"calibration_s": calibrate()}), encoding="utf-8")
        return 0

    import qnute.cli

    config_path = Path(cli_args[cli_args.index("--config") + 1])
    text = config_path.read_text(encoding="utf-8")
    parse_config = getattr(sys.modules.get("qnute.runconfig"), "parse_config", None)
    if parse_config is not None:
        parse_config(text)

    tracer = None
    if mode == "trace":
        tracer = Tracer(result_path.stem)
        tracer.install()
    result: dict = {"ready": time.monotonic()}
    t0 = time.perf_counter()
    try:
        rc = qnute.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    result["wall_s"] = time.perf_counter() - t0
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = _environment()
    if tracer is not None:
        result["trace"] = tracer.summary(result["wall_s"])
        tracer.write(result_path.with_suffix(".spans.jsonl"))
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
