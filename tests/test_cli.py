"""Command-line surface: seed grammar, formats, determinism, exit codes."""
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sglap import cli
from sglap.address import build_level_graph
from sglap.errors import DomainError, UsageError


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_spectrum_level1(capsys):
    code, out, _ = run(["spectrum", "--level", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["series", "m0", "branches"]
    flat = sorted(float(r[header.index("lambda_m")]) for r in rows for _ in range(int(r[-1])))
    assert flat == [2.0, 5.0, 5.0]


def test_spectrum_verify_adds_residuals(capsys):
    code, out, _ = run(["spectrum", "--level", "2", "--verify"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "residual"
    assert all(float(r[-1]) < 1e-9 for r in rows)


def test_spectrum_series_filter(capsys):
    code, out, _ = run(["spectrum", "--level", "3", "--series", "six"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows and all(r[0] == "six" for r in rows)


def test_determinism_across_repeats(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(
            ["eval", "--seed", "five:2:2", "--level", "4", "--format", "json"], capsys
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_eval_json_round_trips(capsys):
    code, out, _ = run(["eval", "--seed", "two:1:1", "--level", "2", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 15
    assert {"address", "level", "x", "y", "value"} <= records[0].keys()
    # Dirichlet boundary
    by_address = {r["address"]: r["value"] for r in records}
    assert by_address[":0"] == 0.0 and by_address[":1"] == 0.0 and by_address[":2"] == 0.0


def test_eval_obj_is_plain_floats(capsys):
    code, out, _ = run(["eval", "--seed", "six:2:1", "--level", "3", "--format", "obj"], capsys)
    assert code == 0
    vlines = [l for l in out.splitlines() if l.startswith("v ")]
    flines = [l for l in out.splitlines() if l.startswith("f ")]
    assert len(vlines) == 42 and len(flines) == 27
    for line in vlines:
        _, x, y, z = line.split()
        float(x), float(y), float(z)  # every field parses
    assert "np.float" not in out


def test_eval_verify_round_trip(capsys):
    code, _, _ = run(["eval", "--seed", "six:1:1", "--level", "4", "--verify"], capsys)
    assert code == 0


def test_tangent_six_worked_value(capsys):
    code, out, _ = run(["tangent", "--seed", "six:1:1", "--word", ":0", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)[0]
    lam = 135.57212699578887
    assert rec["t0"] == pytest.approx(0.0, abs=1e-9)
    assert rec["t1"] == pytest.approx(lam / 9.0, rel=1e-10)
    assert rec["t2"] == pytest.approx(-lam / 9.0, rel=1e-10)
    assert rec["g0"] + rec["g1"] + rec["g2"] == pytest.approx(0.0, abs=1e-12)


def test_tangent_verify_reports_its_oracle(capsys):
    code, out, _ = run(["tangent", "--seed", "six:1:1", "--word", "0:1", "--verify"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert "deviation" in header and "error_estimate" in header
    assert float(rows[0][header.index("deviation")]) < 1e-7


def test_tangent_verify_tol_zero_fails(capsys):
    code, _, err = run(
        ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify", "--verify-tol", "0"], capsys
    )
    assert code == 4
    assert "verification failed" in err


def test_free_seed_harmonic_tangent(capsys):
    code, out, _ = run(
        ["tangent", "--seed", "free:0:0.3,-1.2,2", "--word", "21:0", "--format", "json"], capsys
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert (rec["t0"], rec["t1"], rec["t2"]) == pytest.approx((0.3, -1.2, 2.0), abs=1e-12)


def test_special_psi_table(capsys):
    code, out, _ = run(["special", "--fn", "psi", "--range=-5:5:11"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 11
    feq = header.index("functional_eq")
    assert all(abs(float(r[feq])) < 1e-10 for r in rows if r[feq])


def test_special_upsilon_at_zero(capsys):
    code, out, _ = run(["special", "--fn", "upsilon", "--range", "0:0:1", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value"] == pytest.approx(0.5, abs=1e-13)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(["spectrum", "--level", "1", "--output", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text().startswith("series,")


def test_usage_errors_exit_two(capsys):
    assert run(["eval", "--seed", "free:bogus:1,1,1", "--level", "2"], capsys)[0] == 2
    assert run(["eval", "--seed", "two:1", "--level", "2"], capsys)[0] == 2
    assert run(["special", "--fn", "psi", "--range", "1:2"], capsys)[0] == 2


def test_domain_errors_exit_three(capsys):
    assert run(["eval", "--seed", "nope:1:1", "--level", "2"], capsys)[0] == 3
    assert run(["spectrum", "--level", "99"], capsys)[0] == 3
    assert run(["eval", "--seed", "six:1:2", "--level", "2"], capsys)[0] == 3


def test_seed_grammar_units():
    u = cli.parse_seed("six:1:1")
    assert u.m0 == 1 and u.sequence.lambda_m0 == 6.0
    free = cli.parse_seed("free:2.0:1,0,0")
    assert free.m0 == 0
    with pytest.raises(UsageError):
        cli.parse_seed("six")
    with pytest.raises(DomainError):
        cli.parse_seed("six:1:2")


# sha256 of `eval --seed five:2:3:+-+ --level 7` stdout, pinned from the
# per-vertex canonical_address implementation with csv.writer/json.dumps rows
EVAL_GOLDEN_SHA256 = {
    "csv": "e68e0011c0f9f9034e4c416d9339442e7f23025d8d895bf0d5e6f9f31ded07b1",
    "json": "c98f0ee1dc8e2afcdb6e54c20cc60e4c8752b6bcb252e2a1eef20d185953f586",
    "obj": "bcc6076028b69aac9902dca86990a2ecc64d20b10c259a412e77e41f7740078b",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_GOLDEN_SHA256))
def test_eval_golden_bytes(fmt, capsys):
    code, out, _ = run(["eval", "--seed", "five:2:3:+-+", "--level", "7", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_GOLDEN_SHA256[fmt]


# sha256 of `special` stdout, pinned from the per-point scalar loops: a
# workload-sized grid in both formats, out-of-domain rows, out-of-domain
# tail factors, and a tolerance that only an exact zero increment meets
SPECIAL_GOLDEN_SHA256 = {
    ("--fn", "psi", "--range=-12.3:14.2:2000", "--format", "csv"):
        "a3010d0523c6095e6d76216d1e3abcb514074cfee3d551d1217cd12e24358e3d",
    ("--fn", "psi", "--range=-12.3:14.2:2000", "--format", "json"):
        "137e4fd2dd1e5114d8c0f06eece81e3c5dab8de34fbab09fdfc6e64b7d2cdc5c",
    ("--fn", "upsilon", "--range=-12.3:14.2:2000", "--format", "csv"):
        "2ba2c8077065dee55bb3a68eb715a63c48284bdaae46acd0ac1e11f0094be5de",
    ("--fn", "upsilon", "--range=-12.3:14.2:2000", "--format", "json"):
        "24a296a5f94939cd435f7f4ac48e5bce3345712cbdf9ee7b84814a6dee88a8c4",
    ("--fn", "psi", "--range=-150:150:601"):
        "5d2b333d0a0d84bdeab5fcf42c9d5e1fe7612ad7e648a9fad8bc677d5502b521",
    ("--fn", "upsilon", "--range=-1e4:1e4:101"):
        "d049299ada96e98f1c6e25ba2de885f538baf04bc62ab72cd36f05812c2de292",
    ("--fn", "psi", "--range=1:2:5", "--tol=1e-300"):
        "05ef9bde260c27dc32c2b39cb77d7611e986b3a213317e5d11bbbd4c4fbdea36",
}


@pytest.mark.parametrize("args", list(SPECIAL_GOLDEN_SHA256), ids=" ".join)
def test_special_golden_bytes(args, capsys):
    code, out, err = run(["special", *args], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECIAL_GOLDEN_SHA256[args]


def test_special_audit_of_an_overflowing_5z_is_skipped(capsys):
    # 5 * 1e308 overflows; the row is out of the domain, with no warning
    code, out, err = run(["special", "--fn", "psi", "--range=1e308:1e308:2"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [r[-1].split(" ")[:2] for r in rows] == [["pole:", "argument"]] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_rows_match_generic_writers(fmt, capsys):
    seed, level = "free:-7.25:0.1,-2,1e-05", 4
    code, out, _ = run(["eval", "--seed", seed, "--level", str(level), "--format", fmt], capsys)
    assert code == 0
    graph = build_level_graph(level)
    values = cli.parse_seed(seed).values_on_level(level)
    rows = [[str(vid), level, float(x), float(y), float(v)]
            for vid, (x, y), v in zip(graph.vertex_ids(), graph.coords, values)]
    writer = cli._write_csv if fmt == "csv" else cli._write_json
    assert out == writer(["address", "level", "x", "y", "value"], rows)


def test_eval_non_finite_values_exit_three_with_empty_stdout(capsys):
    code, out, err = run(["eval", "--seed", "free:-1e9:1,0,0", "--level", "2"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["free:nan:1,0,0", "free:inf:1,2,3", "free:1:1,-inf,0"])
def test_non_finite_free_seed_exits_two(seed, capsys):
    code, out, err = run(["eval", "--seed", seed, "--level", "2"], capsys)
    assert code == 2 and out == ""
    assert "finite" in err and err.count("\n") == 1


def test_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(["eval", "--seed", "two:1:1", "--level", "2", "--output", str(target)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write") and err.count("\n") == 1


def test_malformed_word_exits_two(capsys):
    code, out, err = run(["tangent", "--seed", "six:1:1", "--word", "abc"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


def test_special_nan_range_endpoint_exits_two(capsys):
    code, out, err = run(["special", "--fn", "psi", "--range=nan:1:3"], capsys)
    assert code == 2 and out == ""
    assert "finite" in err and err.count("\n") == 1


def test_special_infinite_range_endpoint_exits_two(capsys):
    # 0:inf:3 would put inf * 0 = nan on the grid
    code, out, err = run(["special", "--fn", "upsilon", "--range=0:inf:3"], capsys)
    assert code == 2 and out == ""
    assert "finite" in err and err.count("\n") == 1


def test_special_overflowing_grid_exits_two(capsys):
    # finite endpoints whose difference overflows
    code, out, err = run(["special", "--fn", "psi", "--range=-1e308:1e308:3"], capsys)
    assert code == 2 and out == ""
    assert "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_special_non_finite_or_non_positive_tol_exits_two(tol, capsys):
    code, out, err = run(["special", "--fn", "psi", "--range=0:1:3", f"--tol={tol}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["spectrum", "--level", "2", "--verify"],
    ["eval", "--seed", "six:1:1", "--level", "2", "--verify"],
    ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify"],
])
def test_nan_verify_tol_exits_two(command, capsys):
    code, out, err = run(command + ["--verify-tol", "nan"], capsys)
    assert code == 2 and out == ""
    assert "NaN" in err and err.count("\n") == 1


def test_spectrum_verify_tol_zero_fails(capsys):
    code, _, err = run(["spectrum", "--level", "2", "--verify", "--verify-tol", "0"], capsys)
    assert code == 4 and err.startswith("verification failed")


def test_spectrum_verify_at_the_dense_cap():
    # a fresh process, so that numpy warnings would reach the real stderr
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "spectrum", "--level", "6",
                           "--verify"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    _, rows = parse_csv(proc.stdout)
    assert sum(int(r[5]) for r in rows) == (3**7 - 3) // 2
    assert max(float(r[-1]) for r in rows) < 1e-9


@pytest.mark.parametrize("command", [
    # argparse reads a negative number in scientific notation as a flag
    ["special", "--fn", "psi", "--range=0:1:3", "--tol", "-1e-9"],
    ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify", "--verify-tol", "-1e-9"],
    ["eval", "--seed", "six:1:1", "--level", "abc"],
    ["spectrum", "--series", "seven"],
], ids=["special-tol", "tangent-verify-tol", "eval-level", "spectrum-series"])
def test_argparse_errors_are_one_line(command, capsys):
    code, out, err = run(command, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument ") and err.count("\n") == 1


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["special", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sglap special")


# mostly well-formed input, so that about half the examples reach the kernel
_finite_numbers = st.one_of(st.floats(-200.0, 200.0), st.floats(-1e4, 1e4)).map(repr)
_numbers = st.one_of(_finite_numbers, _finite_numbers, _finite_numbers, st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "abc", "", "5e-324"]))
_counts = st.one_of(st.integers(1, 40).map(str), st.integers(1, 40).map(str),
                    st.sampled_from(["0", "-2", "x", "2.5", ""]))
_ranges = st.one_of(st.builds(lambda a, b, n: f"{a}:{b}:{n}", _numbers, _numbers, _counts),
                    st.sampled_from(["", "1:2", "1:2:3:4", "::"]))
_tols = st.one_of(
    st.just([]),
    st.floats(1e-15, 1e-3).map(lambda tol: [f"--tol={tol!r}"]),
    st.tuples(st.sampled_from(["1e-300", "0", "-1e-9", "nan", "inf", "abc"]), st.booleans())
    .map(lambda t: [f"--tol={t[0]}"] if t[1] else ["--tol", t[0]]),
)


def _finite(field) -> bool:
    try:
        return math.isfinite(float(field))
    except (TypeError, ValueError):
        return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["psi", "upsilon"] * 4 + ["tau"]), _ranges, _tols,
       st.sampled_from(["csv", "json"] * 4 + ["obj"]))
def test_special_grammar_fuzz(fn, grid, tol, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["special", "--fn", fn, f"--range={grid}", *tol, "--format", fmt])
    event(f"exit {code}")
    assert code in (0, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        return
    if fmt == "json":
        records = json.loads(out.getvalue())
    else:
        records = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert records
    for record in records:
        assert _finite(record["z"])
        if record["note"]:
            assert record["note"].startswith("pole: ") and record["value"] in ("", None)
            continue
        assert _finite(record["value"]) and _finite(record["error"])
        assert record.get("functional_eq") in ("", None) or _finite(record["functional_eq"])
