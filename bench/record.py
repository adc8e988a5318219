"""Record the outputs of every benchmark input into ``bench/recorded.json``.

Usage, from the root of a checkout::

    python3 bench/record.py [WORKLOAD ...]

Each table entry that ``run.py`` can draw from a seed is run once, traced (the
spans do not change outputs) so that the number of fitted factors is counted.
Run it only at a commit whose outputs are the reference: every benchmark run
afterwards is checked against what it writes.
"""

from __future__ import annotations

import json
import sys

from run import (
    RECORDED,
    WORK,
    WORKLOADS,
    Runner,
    all_cases,
    price_errors,
    sweep_values,
)


def record_case(workload, case) -> dict:
    runner = Runner(workload, case, None)
    sample = runner.child("trace")
    if not sample.ok:
        raise SystemExit(f"{workload.name} {case.label}: {sample.failures}")
    out = WORK / "trace0"
    counts = sample.result["trace"]["counts"]
    if workload.command == "price":
        v = price_errors(workload, case, out)
        return {
            "work": counts["evolution.factors"],
            "err_ref": v["err_ref"],
            "err_bs": v["err_bs"],
            "trajectory_last": v["trajectory_last"],
            "qnute_price": v["qnute_price"].tolist(),
            "reference_pde_price": v["reference_pde_price"].tolist(),
        }
    v = sweep_values(workload, case, out)
    return {
        "work": counts["evolution.factors"],
        "mu_F": v["mu_F"].tolist(),
        "sigma_F": v["sigma_F"].tolist(),
    }


def main(names: list[str]) -> int:
    recorded = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        recorded[name] = {}
        for case in all_cases(workload):
            recorded[name][case.label] = record_case(workload, case)
            print(f"{name} {case.label}: work {recorded[name][case.label]['work']}", flush=True)
    lines = []
    for name in sorted(recorded):
        cases = [f"  {json.dumps(label)}: {json.dumps(recorded[name][label], sort_keys=True)}"
                 for label in sorted(recorded[name])]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(cases) + "\n }")
    RECORDED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
