"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`."""
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(ROOT / "src")}
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def first_passes(workload, seed, n=5):
    return list(itertools.islice(workloads.passes(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_same_seed_same_invocations(workload):
    assert first_passes(workload, 7) == first_passes(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_different_seeds_different_invocations(workload):
    assert first_passes(workload, 7) != first_passes(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_pass_composition_is_fixed(workload):
    for batch in first_passes(workload, 3):
        kinds = [inv.kind for inv in batch]
        assert {k: kinds.count(k) for k in kinds} == workloads.PASSES[workload]


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_run_length_fixes_the_invocations(workload):
    run = workloads.run_passes(workload, 5, 30)
    assert run == workloads.run_passes(workload, 5, 30)
    assert run == first_passes(workload, 5, len(run))
    assert 1 <= len(workloads.run_passes(workload, 5, 30, traced=True)) <= len(run)
    assert len(workloads.run_passes(workload, 5, 1)) == 1


def test_series_dimensions_add_up():
    for level in range(1, 11):
        parts = sum(checks.series_dimension(s, level) for s in ("two", "five", "six"))
        assert parts == checks.dirichlet_dimension(level)
    assert checks.vertex_count(10) == 88575


EVAL_ARGS = ("eval", "--seed", "two:1:1", "--level", "1", "--format", "csv")
EVAL_CSV = ("address,level,x,y,value\n:0,1,0.0,0.0,0.0\n:1,1,1.0,0.0,0.0\n"
            ":2,1,0.5,0.8660254037844386,0.0\n0:1,1,0.5,0.0,1.0\n"
            "0:2,1,0.25,0.4330127018922193,1.0\n1:2,1,0.75,0.4330127018922193,1.0\n")


def test_checker_accepts_good_output():
    assert checks.check_output(EVAL_ARGS, EVAL_CSV) == []


def test_checker_rejects_nan_row():
    text = EVAL_CSV.replace("0.25,0.4330127018922193,1.0", "0.25,0.4330127018922193,nan")
    problems = checks.check_output(EVAL_ARGS, text)
    assert any("not finite" in p for p in problems)


def test_checker_rejects_nan_in_json():
    rows = [{"z": 0.5, "value": float("nan"), "error": 0.0, "note": None}]
    args = ("special", "--fn", "upsilon", "--range=0:1:1", "--format", "json")
    assert any("not finite" in p for p in checks.check_output(args, json.dumps(rows)))


def test_checker_rejects_short_row_count():
    text = "".join(EVAL_CSV.splitlines(keepends=True)[:-1])
    assert any("rows, expected 6" in p for p in checks.check_output(EVAL_ARGS, text))


def test_checker_rejects_wrong_multiplicities():
    args = ("spectrum", "--level", "1", "--series", "all", "--format", "csv")
    header = "series,m0,branches,lambda_m,lambda,multiplicity\n"
    good = header + "two,1,,2.0,3.0,1\nfive,1,,5.0,7.5,2\n"
    assert checks.check_output(args, good) == []
    assert checks.check_output(args, header + "two,1,,2.0,3.0,1\n")


def test_checker_rejects_unparsable_output():
    assert checks.check_output(EVAL_ARGS, "")


def test_self_time_on_synthetic_tree():
    s = 10**9  # spans are in nanoseconds
    tree = [
        ("cli.main", 0, 10 * s, None),
        ("address.build_level_graph", 1 * s, 4 * s, 0),
        ("address.LevelGraph.vertex_ids", 2 * s, 3 * s, 1),
        ("oracle.direct_tangent_limit", 5 * s, 7 * s, 0),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    summary = spans.summarize(tree + [("oracle.direct_tangent_limit", 8 * s, 9 * s, 0)])
    assert summary["oracle.direct_tangent_limit"] == {"self_s": 3.0, "calls": 2}
    assert summary["cli.main"]["self_s"] == 4.0


def test_overlapping_children_count_once():
    s = 10**9
    tree = [("a", 0, 10 * s, None), ("b", 1 * s, 5 * s, 0), ("c", 3 * s, 12 * s, 0)]
    assert spans.self_times(tree)[0] == 1.0


def test_launcher_records_layer_spans(tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launcher.py"), "0", str(out),
         "spectrum", "--level", "2"],
        env={**os.environ, **ENV}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("series,")
    record = json.loads(out.read_text())
    names = {span[0] for span in record["spans"]}
    assert {"cli.import", "cli.main", "decimation.enumerate_dirichlet_spectrum"} <= names
    assert record["sizes"]["decimation.enumerate_dirichlet_spectrum.lines"] > 0
    assert record["absent"] == []


def test_launcher_reports_missing_targets_as_absent():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import launcher, sglap.cli; "
            "launcher.SPANNED += ('address.no_such_function', 'nosuchlayer.f'); "
            "print(launcher.install(launcher.Recorder()))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                          env={**os.environ, **ENV}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['address.no_such_function', 'nosuchlayer.f']"


def test_end_to_end_times_are_scaled_by_the_probe():
    import probe
    import run

    records = [{"kind": kind, "wall_s": 1.0, "peak_rss_mb": 50.0}
               for kind, count in workloads.PASSES["mesh"].items() for _ in range(count)]
    slow_host = [2 * probe.REFERENCE_S] * 3
    metrics = run.end_to_end(records, "mesh", [0.4, 0.2, 0.3], slow_host)
    assert metrics["wall_s"] == (1.5, "s")  # three invocations of 1 s, at half speed
    assert metrics["setup_s"] == (0.15, "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")


def test_peak_rss_is_the_childs_own():
    import run

    ballast = bytearray(200 * 2**20)  # the starting process's peak must not leak in
    ballast[::4096] = b"x" * len(ballast[::4096])
    run.OUT.mkdir(exist_ok=True)
    with run.Spawner(run.child_env()) as spawner:
        small = spawner.run(["-c", "pass"], "test-rss")
        big = spawner.run(["-c", "b = bytearray(120 * 2**20); b[::4096] = b'x' * len(b[::4096])"],
                          "test-rss")
    del ballast
    assert small["exit"] == 0 and big["exit"] == 0
    assert small["peak_rss_mb"] < 60
    assert big["peak_rss_mb"] > 120
