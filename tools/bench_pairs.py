"""Alternating parent/change pairs of perfbench runs, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --workdir DIR \
        --workload mesh:12301:10 --workload spectral:12401:10 \
        --claim spectral:peak_rss_mb --note "what the change does" --out BENCH_14.json

--claim WORKLOAD[:METRIC] names the workload and the end-to-end metric of
BENCHMARK.json whose gain the change claims; the metric defaults to wall_s.
Without --claim the record's claim is null: the pairs are recorded and no
metric is claimed.

Each commit is exported with `git archive` into its own new or empty
directory under DIR and byte-compiled there (`python -m compileall -q`),
and `perfbench/run.py --workload W --seed S --seconds T --trace 0`, with T
BENCHMARK.json's run_seconds, runs from the root of each export with
PYTHONDONTWRITEBYTECODE=1, which stops the children writing .pyc files,
not reading the compiled ones.  A workload given as NAME:FIRST:COUNT runs
seeds FIRST..FIRST+COUNT-1; one pair is one run of each commit with the
same seed, back to back, the parent first for even seeds and the change
first for odd ones.  The end-to-end metrics of BENCHMARK.json are recorded
for both sides with their quartiles, the per-pair direction and the median
delta, together with the attempted and failed counts of every run.  So are
the median wall time and the largest peak RSS of each invocation kind
(`spectrum_s`, `spectrum_peak_rss_mb`, ...), read from the `kinds` block of
the `perfbench/out/` record each run leaves in its tree, which show the kind
a change moved: a workload's peak_rss_mb is the largest of its kinds' and
hides a drop in any other kind.  Each run's failed count per kind, from
the same block, is kept as a plain list per side (`failed_by_kind`), so
that a failure names its kind.  Beside the scaled setup_s, the record
holds each run's two raw factors of it: the median unscaled `import
sglap.cli` time (`setup_raw_s`) and the probe's lower quartile
(`probe_q1_s`), so that a change in set-up can be told apart from probe
noise.  Beside the scaled wall_s, the record holds each run's unscaled
`wall_raw_s`: one pass's invocations of each kind times the kind's raw
median wall time, summed, which the probe scaling does not move.  A pair
runs the same invocations on both sides, so `stdout_identical` counts the
pairs whose two runs gave every invocation the same stdout, by the
`stdout_sha256` of each invocation in the two records.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a field of a perfbench kind row -> (the suffix of its name here, its unit)
KIND_FIELDS = {"median_s": ("_s", "s"), "peak_rss_mb": ("_peak_rss_mb", "MB")}


def export(rev: str, dest: Path) -> Path:
    """Untar `git archive rev` into dest, which must be new or empty, so
    that no file of an earlier export stays in the tree, and byte-compile
    it, so that the timed children read each module's .pyc instead of
    compiling the source every time."""
    if dest.exists() and any(dest.iterdir()):
        raise SystemExit(f"export destination {dest} exists and is not empty")
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True)
    return dest


def src_sha256(tree: Path) -> str:
    """sha256 over the relative path and bytes of every file under src/."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(tree)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    # no .pyc written on one side only, which moves fresh runs more than a change does
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    result["kind_metrics"] = kind_metrics(record)
    result["kind_failed"] = kind_failed(record)
    result["setup_metrics"] = setup_metrics(record)
    result["wall_raw_s"] = wall_raw_s(record)
    result["stdout"] = stdout_digests(record)
    return result


def kind_metrics(record: dict) -> dict:
    """Each invocation kind's median wall time and peak RSS in a perfbench
    record, as `<kind>_s` and `<kind>_peak_rss_mb`."""
    return {f"{kind}{suffix}": row[field] for kind, row in record["kinds"].items()
            for field, (suffix, _) in KIND_FIELDS.items()}


def kind_failed(record: dict) -> dict:
    """Each invocation kind's failed count in a perfbench record."""
    return {kind: row["failed"] for kind, row in record["kinds"].items()}


def setup_metrics(record: dict) -> dict:
    """The raw factors of a perfbench record's setup_s, which scales the
    first by the probe's reference time over the second: the median of its
    unscaled set-up samples and the lower quartile of its probe samples,
    taken as perfbench takes it."""
    probes = sorted(record["probe_samples_s"])
    return {"setup_raw_s": statistics.median(record["setup_samples_s"]),
            "probe_q1_s": probes[len(probes) // 4]}


def wall_raw_s(record: dict) -> float:
    """A perfbench record's wall_s before the probe scales it: each kind's
    invocations in one pass, counted from the untraced invocations' `pass`
    fields, times the kind's median_s, summed over the kinds."""
    plain = [r for r in record["invocations"] if not r["traced"]]
    passes = len({r["pass"] for r in plain})
    counts = Counter(r["kind"] for r in plain)
    return sum(counts[kind] / passes * row["median_s"] for kind, row in record["kinds"].items())


def stdout_digests(record: dict) -> list:
    """Each invocation's arguments and stdout sha256 in a perfbench
    record, in run order."""
    return [(r["args"], r["stdout_sha256"]) for r in record["invocations"]]


def stdout_identical(parent: list, change: list) -> str:
    """How many pairs of runs, given as their stdout_digests, gave every
    invocation the same stdout on both sides."""
    return f"{sum(p == c for p, c in zip(parent, change))} of {len(parent)} pairs"


def kind_unit(name: str) -> str:
    """The unit of a kind_metrics name."""
    return next(unit for suffix, unit in KIND_FIELDS.values() if name.endswith(suffix))


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "runs": [round(r, 5) for r in runs]}


def compare(spec: dict, parent: list, change: list) -> dict:
    out = {**spec, "parent": summary(parent), "change": summary(change)}
    delta = out["change"]["median"] - out["parent"]["median"]
    out["median_delta"] = round(delta, 5)
    out["median_delta_frac"] = round(delta / out["parent"]["median"], 4)
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 5)
    pairs = len(parent)
    out["change_lower_in"] = f"{sum(c < p for p, c in zip(parent, change))} of {pairs} pairs"
    out["change_higher_in"] = f"{sum(c > p for p, c in zip(parent, change))} of {pairs} pairs"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:FIRST_SEED:PAIRS")
    parser.add_argument("--claim", metavar="WORKLOAD[:METRIC]",
                        help="the workload and end-to-end metric whose gain is claimed "
                             "(metric default: wall_s; default: no claim)")
    parser.add_argument("--note", required=True, help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
             for m in bench["end_to_end"]}
    workloads = [item.split(":")[0] for item in args.workload]
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        metric = metric or "wall_s"
        if metric not in specs:
            parser.error(f"--claim metric {metric!r} is not an end_to_end metric of "
                         f"BENCHMARK.json ({', '.join(specs)})")
        if workload not in workloads:
            parser.error(f"--claim workload {workload!r} is not among the --workload runs")
        claim = {"workload": workload, "metric": metric,
                 "rule": "change better in at least 9 of 10 pairs, and the median gain "
                         "larger than the parent's interquartile range"}
    trees = {side: export(rev, args.workdir / side)
             for side, rev in (("parent", args.parent), ("change", args.change))}
    record = {
        "change": args.note,
        "parent_commit": subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                                         args.parent], check=True, capture_output=True,
                                        text=True).stdout.strip(),
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
        "how": f"OPENBLAS_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
               f"--workload W --seed S --seconds {seconds} --trace 0, from the root of a clean "
               "checkout of each commit in a new or empty directory, byte-compiled with "
               "python -m compileall -q before the timed runs; one pair is one run of "
               "each commit with the same seed, the two run back to back; src_sha256 hashes "
               "the path and bytes of every file under src/",
        "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
        "machine": {"nproc": os.cpu_count(), "cpu_model": platform.processor() or
                    platform.machine(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "OPENBLAS_NUM_THREADS": 1},
        "claim": claim,
        "workloads": {},
    }
    for item in args.workload:
        name, first, count = item.split(":")
        seeds = list(range(int(first), int(first) + int(count)))
        results = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(trees[side], name, seed, seconds))
                print(f"{name} seed {seed} {side}: {results[side][-1]['metrics']['wall_s']}",
                      file=sys.stderr, flush=True)
        record["workloads"][name] = {
            "seeds": seeds, "pairs": len(seeds),
            "order": "alternating: parent first for even seeds, change first for odd seeds",
            "metrics": {metric: compare(spec, *([r["metrics"][metric]["value"]
                                                 for r in results[side]]
                                                for side in ("parent", "change")))
                        for metric, spec in specs.items()},
            "kinds": {name: compare({"unit": kind_unit(name), "better": "lower"},
                                    *([r["kind_metrics"][name] for r in results[side]]
                                      for side in ("parent", "change")))
                      for name in results["parent"][0]["kind_metrics"]},
            "wall_raw_s": compare({"unit": "s", "better": "lower"},
                                  *([r["wall_raw_s"] for r in results[side]]
                                    for side in ("parent", "change"))),
            "setup": {name: compare({"unit": "s", "better": "lower"},
                                    *([r["setup_metrics"][name] for r in results[side]]
                                      for side in ("parent", "change")))
                      for name in results["parent"][0]["setup_metrics"]},
            "attempted": {side: [r["attempted"] for r in runs] for side, runs in results.items()},
            "failed": {side: [r["failed"] for r in runs] for side, runs in results.items()},
            # plain lists: a parent median of 0 leaves compare's delta fraction undefined
            "failed_by_kind": {side: {kind: [r["kind_failed"][kind] for r in runs]
                                      for kind in runs[0]["kind_failed"]}
                               for side, runs in results.items()},
            "stdout_identical": stdout_identical(*([r["stdout"] for r in results[side]]
                                                   for side in ("parent", "change"))),
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
