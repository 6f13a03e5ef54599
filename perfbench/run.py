"""End-to-end and per-layer benchmark of the sglap command line.

    python3 perfbench/run.py --workload mesh|spectral|pointwise --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  A closed loop with one client: each invocation of the workload's
seeded list (see workloads.py) runs as a fresh `python -m sglap.cli`
process, the next one starting when the previous one has exited.  A run
makes as many whole passes over the list as take S seconds on the reference
host (workloads.run_passes), so the same seed and S always give the same
invocations, however fast the host is at the time.  Every output is
checked (checks.py), its size and sha256 are recorded, and peak RSS comes
from os.wait4 of that one child (see spawner.py).

--trace 0 prints the end-to-end metrics:
  wall_s         one pass over the workload's list: each invocation kind's
                 median wall time times its count in a pass, summed
  setup_s        set-up: the median wall time of fresh interpreters that run
                 `import sglap.cli`, a few before the invocations and a few after
  peak_rss_mb    the largest peak RSS of a single invocation
The two times are scaled to the speed of a reference host: the shared host
this runs on drifts by a fifth or more over minutes, so run.py times a fixed
probe (probe.py) between invocations, about PROBE_SHARE of the run, and
multiplies both by probe.REFERENCE_S over the lower quartile of the probe's
times.  The lower quartile, not the median: other tenants' bursts of load
slow a few 0.1 s probes several-fold but whole invocations far less.  The
probe imports nothing from the program, so a change to the program moves
the scaled times by the same share as the raw ones.  The report lines above
the JSON give the raw times: each kind's median (eval_csv_s, ...,
special_upsilon_s), with failed_frac and both its counts, the number of
Warning lines the children wrote to stderr, and the probe's lower quartile.

--trace 1 makes half as many passes and runs each invocation
twice, untraced and through launcher.py, which records spans around the
public functions of every layer, and prints the per-layer metrics: self
time and calls per invocation (kinds weighted as in one pass), the largest
graph, spectrum and dense matrix built, cache hit ratios with their base,
and the tracing overhead (traced minus untraced time per invocation).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
The full record, with the machine facts, goes to perfbench/out/.
A failed invocation is one whose exit code is not 0 or whose output fails a
check; since the invocations are fixed, so is the number that fail.  The run is incorrect, and exits 1, when an output fails a check or
an exit code is not one the CLI documents for that invocation (0, or 4 for
a --verify whose closed form and oracle disagree).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata, util
from pathlib import Path

import checks
import launcher
import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3  # set-up samples before the invocations, and again after
PROBE_SHARE = 0.1  # probe time, as a share of the invocations' time
CHILD_TIMEOUT_S = 50
WARNING_LINE = re.compile(r"\w+Warning\b")
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in launcher.SPANNED))


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """Runs children through spawner.py, which reports each one's exit code,
    wall time and peak RSS; stdout and stderr pass through files in OUT."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.terminate()  # the spawner stops its running child first
        self.proc.wait()

    def run(self, argv, tag):
        out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        result = json.loads(reply)
        result["stdout"] = out_path.read_bytes()
        result["stderr"] = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return result


def run_invocation(inv, spawner, tag, traced):
    if traced:
        spans_path = OUT / f"{tag}.spans.json"
        argv = [str(HERE / "launcher.py"), "{spawn_ns}", str(spans_path), *inv.args]
    else:
        argv = ["-m", "sglap.cli", *inv.args]
    res = spawner.run(argv, tag)
    out = res.pop("stdout")
    err = res.pop("stderr")
    problems = [] if res["exit"] is not None else [f"timed out after {CHILD_TIMEOUT_S} s"]
    problems += checks.check_output(inv.args, out.decode("utf-8", errors="replace"))
    allowed = (0, 4) if inv.verify else (0,)
    record = {"kind": inv.kind, "args": list(inv.args), "traced": traced, **res,
              "stdout_bytes": len(out), "stdout_sha256": hashlib.sha256(out).hexdigest(),
              "stderr_warnings": sum(1 for line in err.splitlines() if WARNING_LINE.search(line)),
              "problems": problems,
              "failed": bool(problems) or res["exit"] != 0,
              "wrong": bool(problems) or res["exit"] not in allowed}
    if res["exit"] not in (0, None):
        record["stderr_tail"] = err.strip().splitlines()[-1:]
    if traced:
        try:
            record["trace"] = json.loads(spans_path.read_text())
            record["values"] = trace_values(record)
        except (OSError, ValueError):
            record["trace"] = record["values"] = None
            record["problems"].append("traced child wrote no spans")
            record["failed"] = record["wrong"] = True
        spans_path.unlink(missing_ok=True)
    return record


def time_setup(spawner, repeats):
    """Wall times of fresh interpreters running `import sglap.cli`."""
    samples = []
    for i in range(repeats):
        res = spawner.run(["-c", "import sglap.cli"], f"setup{i}")
        if res["exit"] != 0:
            sys.exit(f"`import sglap.cli` failed:\n{res['stderr']}")
        samples.append(res["wall_s"])
    return samples


def machine_facts(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sglap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "numba_present": util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    provenance = {
        "nproc": "os.cpu_count()",
        "cpu_model": "'model name' in /proc/cpuinfo, else platform.machine()",
        "python": "platform.python_version() of the interpreter running the children",
        "numpy": "importlib.metadata.version('numpy')",
        "mpmath": "importlib.metadata.version('mpmath')",
        "numba_present": "importlib.util.find_spec('numba')",
        "git_commit": ".git/HEAD of the checkout; null outside a git clone",
        "src_sha256": "sha256 over src/sglap/*.py names and contents",
        "workload": "--workload", "workload_seed": "--seed",
        "seconds": "--seconds", "trace": "--trace",
    }
    return facts, provenance


def per_pass(records, workload, value):
    """Sum over one pass's invocations of each kind's median `value`."""
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(value(r))
    return sum(count * statistics.median(by_kind[kind])
               for kind, count in workloads.PASSES[workload].items())


def per_invocation(records, workload, value):
    """Mean of `value` per invocation, each kind weighted by its share of a
    pass."""
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(value(r))
    mix = {k: n for k, n in workloads.PASSES[workload].items() if by_kind[k]}
    return sum(n * statistics.fmean(by_kind[k]) for k, n in mix.items()) / sum(mix.values())


def probe_lower_quartile(probes):
    return sorted(probes)[len(probes) // 4]


def end_to_end(records, workload, setup_samples, probes):
    """The end-to-end metrics; times are scaled by the host's speed during
    the run, as the probe's reference time over its lower quartile."""
    scale = probe.REFERENCE_S / probe_lower_quartile(probes)
    return {
        "wall_s": (scale * per_pass(records, workload, lambda r: r["wall_s"]), "s"),
        "setup_s": (scale * statistics.median(setup_samples), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MB"),
    }


def trace_values(record):
    """Flat per-invocation figures of one traced record."""
    trace = record["trace"]
    summary = spans.summarize([tuple(s) for s in trace["spans"]])
    values = defaultdict(float)
    for name, figures in summary.items():
        if name == "cli.import":
            values["cli.import_s"] = figures["self_s"]
            continue
        values[f"{name}.self_s"] += figures["self_s"]
        values[f"{name}.calls"] += figures["calls"]
        layer = name.split(".")[0]
        if layer in LAYERS:
            values[f"{layer}.self_s"] += figures["self_s"]
    for name, count in trace["counts"].items():
        values[f"{name}.calls"] = count
    values.update(trace["sizes"])
    for name, (hits, misses) in trace["caches"].items():
        values[f"{name}.hits"] = hits
        values[f"{name}.misses"] = misses
    values["cli.stdout_bytes"] = record["stdout_bytes"]
    values["cli.stderr_warnings"] = record["stderr_warnings"]
    return values


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for name in launcher.SPANNED:
        names += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    names += [(f"{name}.calls", "count", "lower") for name in launcher.COUNTED]
    names += [(f"{name}.{measure}", "count", "lower")
              for name, (measure, _) in launcher.SIZES.items()]
    for name in launcher.CACHES:
        names += [(f"{name}.hit_ratio", "ratio", "higher"), (f"{name}.hits", "count", "higher"),
                  (f"{name}.misses", "count", "lower")]
    names += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    names += [("cli.main.self_s", "s", "lower"), ("cli.import_s", "s", "lower"),
              ("cli.stdout_bytes", "count", "lower"), ("cli.stderr_warnings", "count", "lower"),
              ("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return names


def per_layer(records, workload):
    traced = [r for r in records if r.get("values") is not None]
    untraced = [r for r in records if not r["traced"]]
    values = {}
    for name, unit, _ in per_layer_names():
        if name.endswith(".hit_ratio") or name.startswith("trace."):
            continue  # derived below
        values[name] = (per_invocation(traced, workload, lambda r: r["values"].get(name, 0.0))
                        if traced else 0.0, unit)
    for name in launcher.CACHES:
        hits = sum(r["values"].get(f"{name}.hits", 0) for r in traced)
        total = hits + sum(r["values"].get(f"{name}.misses", 0) for r in traced)
        values[f"{name}.hit_ratio"] = (hits / total if total else 0.0, "ratio")
    for name, (measure, _) in launcher.SIZES.items():
        key = f"{name}.{measure}"  # the largest, not the mean over invocations
        values[key] = (max((r["values"].get(key, 0) for r in traced), default=0), "count")
    traced_s = per_invocation(traced, workload, lambda r: r["wall_s"])
    untraced_s = per_invocation(untraced, workload, lambda r: r["wall_s"])
    values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    values["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return values


def kind_table(records):
    """Per invocation kind: samples, median wall, failures, and for traced
    runs the mean self time of each layer per invocation."""
    table = {}
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r)
    for kind, rs in by_kind.items():
        plain = [r for r in rs if not r["traced"]]
        row = {"n": len(plain), "median_s": statistics.median(r["wall_s"] for r in plain),
               "failed": sum(r["failed"] for r in plain),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        flat = [r["values"] for r in rs if r.get("values") is not None]
        if flat:
            row["traced_median_s"] = statistics.median(r["wall_s"] for r in rs if r["traced"])
            for key in ("cli.import_s", "cli.main.self_s",
                        *(f"{layer}.self_s" for layer in LAYERS)):
                row[key] = statistics.fmean(v.get(key, 0.0) for v in flat)
        table[kind] = row
    return table


def report(facts, table, metrics, attempted, failed, warnings, absent, probes):
    print(f"sglap benchmark: workload={facts['workload']} seed={facts['workload_seed']} "
          f"trace={facts['trace']} commit={facts['git_commit']}")
    print("machine: " + ", ".join(f"{k}={facts[k]}" for k in
                                  ("nproc", "cpu_model", "python", "numpy", "mpmath",
                                   "numba_present")))
    for kind, row in table.items():
        extra = "".join(f"  {k}={v:.4f}" for k, v in row.items()
                        if k not in ("n", "median_s", "failed", "peak_rss_mb"))
        print(f"  {kind + '_s':<22} {row['median_s']:.4f} s  (n={row['n']}, "
              f"failed={row['failed']}, peak_rss={row['peak_rss_mb']:.1f} MB){extra}")
    print(f"  failed_frac            {failed / attempted:.4f} ratio  ({failed} of {attempted})")
    print(f"  stderr_warnings        {warnings} count")
    print(f"  host probe             {probe_lower_quartile(probes):.4f} s  (lower quartile "
          f"of {len(probes)}; {probe.REFERENCE_S} s on the reference host)")
    if absent:
        print(f"  absent in this tree: {', '.join(sorted(absent))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:.6g} {unit}")


def _terminate(signum, frame):
    raise SystemExit(1)  # so that the spawner and its child are stopped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sglap" / "cli.py").is_file():
        print(f"no sglap source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, _terminate)
    facts, provenance = machine_facts(args)
    records, probes, owed = [], [], 0.0
    batches = workloads.run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    with Spawner(child_env()) as spawner:
        time_setup(spawner, 1)  # compiles bytecode and warms the file cache
        setup_samples = time_setup(spawner, SETUP_REPEATS)
        probe.work()  # the first call also allocates what later calls reuse
        for number, batch in enumerate(batches):
            for index, inv in enumerate(batch):
                order = [False, True] if (number + index) % 2 == 0 else [True, False]
                for traced in (order if args.trace else [False]):
                    record = run_invocation(inv, spawner, f"p{number}i{index}", traced)
                    record["pass"] = number
                    records.append(record)
                    # time the probe between invocations, spread over the run
                    owed += PROBE_SHARE * record["wall_s"]
                    while owed > 0:
                        probes.append(probe.time_once())
                        owed -= probes[-1]
        setup_samples += time_setup(spawner, SETUP_REPEATS)

    plain = [r for r in records if not r["traced"]]
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["wrong"] for r in records)
    warnings = sum(r["stderr_warnings"] for r in plain)
    absent = sorted({a for r in records if r.get("trace") for a in r["trace"]["absent"]})
    metrics = (per_layer(records, args.workload) if args.trace
               else end_to_end(plain, args.workload, setup_samples, probes))
    table = kind_table(records)
    report(facts, table, metrics, attempted, failed, warnings, absent, probes)

    for r in records:
        r.pop("trace", None)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        **result, "facts": facts, "provenance": provenance, "failed_frac": failed / attempted,
        "stderr_warnings": warnings, "absent": absent, "setup_samples_s": setup_samples,
        "probe_samples_s": probes,
        "kinds": table, "invocations": records}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
