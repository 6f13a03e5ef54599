"""Collect run.py results into one baseline file.

    python3 perfbench/baseline.py OUTPUT.json

Reads every perfbench/out/<workload>-seed<N>-trace<T>.json that run.py
wrote.  Per workload it keeps the median and quartiles of each end-to-end
metric over the --trace 0 runs, every such run's figures, the per-layer
metrics of the lowest-seeded --trace 1 run, and the outputs (size and
sha256) of the lowest-seeded --trace 0 run.  It also checks the traced run
against the shares the workloads were chosen for: the layer that should
dominate an invocation kind, as a share of that kind's median time.
"""
import json
import re
import statistics
import sys
from pathlib import Path

from run import probe_lower_quartile

OUT = Path(__file__).resolve().parent / "out"
NAME = re.compile(r"(\w+)-seed(-?\d+)-trace([01])\.json")
# workload -> (layer figure, invocation kind) whose share is checked
SHARES = {"mesh": [("address.self_s", "eval_csv"), ("address.self_s", "eval_json")],
          "spectral": [("oracle.self_s", "spectrum_verify")],
          "pointwise": [("cli.import_s", "tangent_verify")]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main(target):
    results = {}
    for path in sorted(OUT.glob("*.json")):
        match = NAME.fullmatch(path.name)
        if match:
            workload, seed, trace = match.group(1), int(match.group(2)), int(match.group(3))
            results.setdefault(workload, {}).setdefault(trace, {})[seed] = \
                json.loads(path.read_text())
    if not results:
        sys.exit(f"no results in {OUT}; run perfbench/run.py first")
    baseline = {"how": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1 "
                       "from the repository root, then python3 perfbench/baseline.py",
                "end_to_end": {}, "per_layer": {}, "invocations": {}, "acceptance": {}}
    for workload, by_trace in sorted(results.items()):
        plain = [by_trace[0][s] for s in sorted(by_trace.get(0, {}))]
        if plain:
            first = plain[0]
            baseline.setdefault("facts", {k: v for k, v in first["facts"].items()
                                          if k not in ("workload", "workload_seed", "trace")})
            baseline.setdefault("provenance", first["provenance"])
            baseline["end_to_end"][workload] = {
                "summary": {m: quartiles([r["metrics"][m]["value"] for r in plain])
                            for m in first["metrics"]},
                "attempted": sum(r["attempted"] for r in plain),
                "failed": sum(r["failed"] for r in plain),
                "runs": [{"seed": r["facts"]["workload_seed"], "correct": r["correct"],
                          "attempted": r["attempted"], "failed": r["failed"],
                          "stderr_warnings": r["stderr_warnings"],
                          "metrics": {m: v["value"] for m, v in r["metrics"].items()},
                          "probe_lower_quartile_s": probe_lower_quartile(r["probe_samples_s"]),
                          "kinds_median_s": {k: v["median_s"] for k, v in r["kinds"].items()}}
                         for r in plain]}
            baseline["invocations"][workload] = [
                {k: r[k] for k in ("kind", "args", "exit", "stdout_bytes", "stdout_sha256",
                                   "problems")} for r in first["invocations"]]
        if by_trace.get(1):
            traced = by_trace[1][min(by_trace[1])]
            baseline["per_layer"][workload] = {
                "seed": traced["facts"]["workload_seed"],
                "metrics": {m: v["value"] for m, v in traced["metrics"].items()},
                "kinds": traced["kinds"], "absent": traced["absent"]}
            for layer, kind in SHARES.get(workload, []):
                row = traced["kinds"].get(kind)
                if row and layer in row:
                    baseline["acceptance"][f"{workload} {layer} / {kind}"] = {
                        "layer_s": row[layer], "untraced_median_s": row["median_s"],
                        "share_of_untraced": row[layer] / row["median_s"]}
            baseline["acceptance"][f"{workload} trace.overhead_frac"] = \
                traced["metrics"]["trace.overhead_frac"]["value"]
    Path(target).write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
