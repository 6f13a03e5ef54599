"""tools/bench_pairs.py: the quartiles and pair counts a BENCH record holds."""
import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys
from unittest import mock

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_takes_inclusive_quartiles_and_keeps_the_runs():
    runs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bench_pairs.summary(runs) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": runs}
    # inclusive quartiles interpolate between order statistics
    out = bench_pairs.summary([1.0, 2.0, 3.0, 4.0])
    assert (out["q1"], out["median"], out["q3"]) == (1.75, 2.5, 3.25)


def test_summary_rounds_to_five_decimals():
    out = bench_pairs.summary([0.1234567, 0.1234567, 0.1234567])
    assert out == {"median": 0.12346, "q1": 0.12346, "q3": 0.12346, "runs": [0.12346] * 3}


def test_compare_reports_the_median_delta_and_the_parent_iqr():
    spec = {"unit": "s", "better": "lower", "bound": 0.25}
    parent = [1.0, 1.2, 1.1, 1.3, 1.4]
    change = [0.9, 1.0, 1.0, 1.2, 1.1]
    out = bench_pairs.compare(spec, parent, change)
    assert {k: out[k] for k in spec} == spec
    assert out["parent"]["median"] == 1.2 and out["change"]["median"] == 1.0
    assert out["median_delta"] == pytest.approx(-0.2)
    assert out["median_delta_frac"] == pytest.approx(-0.1667)
    assert out["parent_iqr"] == pytest.approx(1.3 - 1.1)
    assert out["change_lower_in"] == "5 of 5 pairs"
    assert out["change_higher_in"] == "0 of 5 pairs"


def test_compare_counts_ties_for_neither_side():
    out = bench_pairs.compare({"unit": "s", "better": "lower"},
                              [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 4.0])
    assert out["change_lower_in"] == "1 of 4 pairs"
    assert out["change_higher_in"] == "1 of 4 pairs"
    assert out["median_delta"] == 0.0 and out["median_delta_frac"] == 0.0


def test_kind_metrics_reads_the_median_and_the_peak_rss_of_each_kind():
    record = {"kinds": {
        "tangent_verify": {"n": 42, "median_s": 0.2045, "failed": 1, "peak_rss_mb": 34.9},
        "special_upsilon": {"n": 7, "median_s": 0.8596, "failed": 0, "peak_rss_mb": 60.1},
    }}
    metrics = bench_pairs.kind_metrics(record)
    assert metrics == {"tangent_verify_s": 0.2045, "tangent_verify_peak_rss_mb": 34.9,
                       "special_upsilon_s": 0.8596, "special_upsilon_peak_rss_mb": 60.1}
    assert {name: bench_pairs.kind_unit(name) for name in metrics} == {
        "tangent_verify_s": "s", "tangent_verify_peak_rss_mb": "MB",
        "special_upsilon_s": "s", "special_upsilon_peak_rss_mb": "MB"}


def test_kind_failed_reads_the_failed_count_of_each_kind():
    record = {"kinds": {
        "tangent_verify": {"n": 42, "median_s": 0.2045, "failed": 3, "peak_rss_mb": 34.9},
        "special_upsilon": {"n": 7, "median_s": 0.8596, "failed": 0, "peak_rss_mb": 60.1},
    }}
    assert bench_pairs.kind_failed(record) == {"tangent_verify": 3, "special_upsilon": 0}


def test_setup_metrics_reads_the_raw_setup_median_and_the_probe_lower_quartile():
    record = {"setup_samples_s": [0.081, 0.079, 0.2, 0.078],
              "probe_samples_s": [0.13, 0.11, 0.12, 0.5, 0.1, 0.14, 0.12, 0.16, 0.3]}
    # median of four takes the mean of the middle two; the lower quartile is
    # the order statistic perfbench scales by, sorted(probes)[len // 4]
    assert bench_pairs.setup_metrics(record) == {"setup_raw_s": pytest.approx(0.08),
                                                 "probe_q1_s": 0.12}
    # two probes, as a short mesh run takes: the quartile is the faster one
    record["probe_samples_s"] = [0.2, 0.1]
    assert bench_pairs.setup_metrics(record)["probe_q1_s"] == 0.1


def test_wall_raw_s_weights_each_kind_median_by_its_count_in_one_pass():
    # two passes of two csv and one json invocation; a traced one is not counted
    kinds = ["eval_csv", "eval_csv", "eval_json"] * 2
    record = {
        "kinds": {"eval_csv": {"n": 4, "median_s": 0.25, "failed": 0, "peak_rss_mb": 35.0},
                  "eval_json": {"n": 2, "median_s": 0.5, "failed": 0, "peak_rss_mb": 35.2}},
        "invocations": [{"kind": kind, "pass": i // 3, "traced": False, "wall_s": 9.0}
                        for i, kind in enumerate(kinds)]
                       + [{"kind": "eval_json", "pass": 1, "traced": True, "wall_s": 9.0}],
    }
    assert bench_pairs.wall_raw_s(record) == pytest.approx(2 * 0.25 + 1 * 0.5)


def test_stdout_identical_counts_the_pairs_whose_every_invocation_matches():
    def record(*digests):
        return {"invocations": [{"args": ["eval", "--level", str(i)], "stdout_sha256": d}
                                for i, d in enumerate(digests)]}

    parent = [bench_pairs.stdout_digests(record("a", "b")) for _ in range(3)]
    assert parent[0] == [(["eval", "--level", "0"], "a"), (["eval", "--level", "1"], "b")]
    # one stdout differs in the second pair, and the third ran one invocation fewer
    change = [bench_pairs.stdout_digests(r) for r in [record("a", "b"), record("a", "c"),
                                                      record("a")]]
    assert bench_pairs.stdout_identical(parent, change) == "1 of 3 pairs"
    assert bench_pairs.stdout_identical(parent, parent) == "3 of 3 pairs"


def test_export_refuses_a_destination_that_is_not_empty(tmp_path):
    # a file left by an earlier export would stay in the tree and in src_sha256
    (tmp_path / "stale.py").write_text("")
    with pytest.raises(SystemExit, match=f"{tmp_path} exists and is not empty"):
        bench_pairs.export("HEAD", tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["stale.py"]


def test_run_once_writes_no_bytecode(tmp_path, monkeypatch):
    # a .pyc on one side only moves fresh runs, so neither side writes one
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    seen = {}

    def fake_run(argv, cwd, env, **kwargs):
        seen.update(env)
        raise RuntimeError("stop before perfbench runs")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError, match="stop before"):
        bench_pairs.run_once(tmp_path, "mesh", 1, 24)
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1" and seen["OPENBLAS_NUM_THREADS"] == "1"


def test_run_once_keeps_each_kind_failed_count(tmp_path, monkeypatch):
    # failed_by_kind is built from these, one list per side and kind
    kinds = {"tangent_verify": {"n": 6, "median_s": 0.05, "failed": 2, "peak_rss_mb": 15.0},
             "special_psi": {"n": 1, "median_s": 0.07, "failed": 0, "peak_rss_mb": 14.5}}
    record = {"kinds": kinds, "setup_samples_s": [0.06], "probe_samples_s": [0.1],
              "invocations": [{"kind": kind, "pass": 0, "traced": False, "args": [kind],
                               "stdout_sha256": "0"} for kind in kinds]}
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "pointwise-seed1-trace0.json").write_text(json.dumps(record))
    result = {"attempted": 2, "failed": 2, "metrics": {}}
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: mock.Mock(
        returncode=0, stdout="report\n" + json.dumps(result) + "\n"))
    got = bench_pairs.run_once(tmp_path, "pointwise", 1, 24)
    assert got["failed"] == 2
    assert got["kind_failed"] == {"tangent_verify": 2, "special_psi": 0}


def test_main_runs_for_the_run_seconds_of_benchmark_json(tmp_path, monkeypatch):
    # a resized benchmark is paired at its own length
    seconds = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs, real_run = [], subprocess.run

    def fake_run(argv, **kwargs):
        if argv[0] == "git":  # rev-parse of the parent
            return mock.Mock(stdout="abc1234\n")
        if "perfbench/run.py" not in argv:  # platform's uname
            return real_run(argv, **kwargs)
        runs.append(argv)
        raise RuntimeError("stop before perfbench runs")

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD~1", "--change", "HEAD",
                                      "--workdir", str(tmp_path), "--workload", "mesh:1:1",
                                      "--note", "n", "--out", str(tmp_path / "out.json")])
    with pytest.raises(RuntimeError, match="stop before"):
        bench_pairs.main()
    argv = runs[0]
    assert argv[argv.index("--seconds") + 1] == str(seconds)


def test_export_byte_compiles_every_module(tmp_path, monkeypatch):
    # the children write no .pyc, so each side reads the ones compiled here;
    # src/sglap is committed to a repository of its own, so that the test
    # runs outside a git checkout too
    repo = tmp_path / "repo"
    shutil.copytree(bench_pairs.ROOT / "src" / "sglap", repo / "src" / "sglap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=sglap", "-c", "user.email=sglap@localhost",
           "-c", "commit.gpgsign=false"]
    for argv in [["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "export"]]:
        subprocess.run(git + argv, check=True, capture_output=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    tree = bench_pairs.export("HEAD", tmp_path / "export")
    modules = sorted(path.stem for path in (tree / "src" / "sglap").glob("*.py"))
    assert modules and sorted(
        path.name.split(".")[0] for path in (tree / "src" / "sglap" / "__pycache__").glob("*.pyc")
    ) == modules
