"""Command-line surface: seed grammar, formats, determinism, exit codes."""
import argparse
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (build_level_graph, dense_values, key_coords, level_cells, level_columns,
                      level_keys, level_vertices, resolve_addresses, seed_array, values_on_level,
                      vertex_value_walks, whole_level_residual)

from sglap import cli, mesh
from sglap.address import format_address, lattice_lines
from sglap.decimation import enumerate_dirichlet_spectrum, max_level, vertex_count
from sglap.harmonic import SpectralEigenfunction
from sglap.mesh import cells, eigen_residual, walk
from sglap.errors import DomainError, SglapError, UsageError


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# the generic writers that cli._table_blocks replaced, kept as its reference
def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip
    return "" if value is None else str(value)


def reference_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def reference_json(columns, rows) -> str:
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps(records, indent=2) + "\n"


REFERENCE_WRITERS = {"csv": reference_csv, "json": reference_json}


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


@pytest.mark.parametrize("offset, code", [(2e-7, 4), (5e-8, 0)])
def test_tangent_verify_default_tolerance(offset, code, monkeypatch, capsys):
    # the default --verify-tol, cli.TANGENT_TOL = 1e-7, lies between an
    # oracle 2e-7 away from the closed form (fails) and one 5e-8 away (passes)
    from sglap import oracle, tangent

    def stand_in(u, w, m):
        return tuple(t + offset for t in tangent.tangent_at(u, w)[0]), 0.0

    monkeypatch.setattr(oracle, "direct_tangent_limit", stand_in)
    result, _, err = run(["tangent", "--seed", "six:1:1", "--word", "0:1", "--verify"], capsys)
    assert result == code
    assert err.startswith("verification failed: tangent deviates") == (code == 4)


@pytest.mark.parametrize("residual, code", [(2e-9, 4), (5e-10, 0)])
def test_eval_verify_default_tolerance(residual, code, monkeypatch, capsys):
    # the default --verify-tol, cli.EVAL_TOL = 1e-9, lies between a
    # round-trip residual of 2e-9 (fails) and one of 5e-10 (passes)
    monkeypatch.setattr(mesh, "eigen_residual", lambda parts, values, lam: residual)
    result, _, err = run(["eval", "--seed", "six:1:1", "--level", "2", "--verify"], capsys)
    assert result == code
    assert err.startswith("verification failed: round-trip residual") == (code == 4)


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


def _assert_exit(code, args, capsys):
    """args exits with code, an empty stdout and a one-line message, which
    is returned."""
    got, out, err = run(args, capsys)
    assert (got, out) == (code, "")
    assert err.endswith("\n") and err.count("\n") == 1
    return err


def test_usage_errors_exit_two(capsys):
    # the limit of a 2-series line snaps onto the singular value at m0 = 1
    two_limit = next(line.limit for line in enumerate_dirichlet_spectrum(3)
                     if line.series == "two")
    for seed in ["free:bogus:1,1,1", "two:1", "free:1", "free:1:1,2", "six:x:1", "six:2:1:+*",
                 f"free:{two_limit!r}:0,0,0"]:
        _assert_exit(2, ["eval", "--seed", seed, "--level", "2"], capsys)
    _assert_exit(2, ["special", "--fn", "psi", "--range", "1:2"], capsys)


# int and float read "1_0" as 10; every number on the command line is
# refused with it, where each of these ran (exit 0) or, for the index, was
# read as 10 (exit 3)
@pytest.mark.parametrize("argv, line", [
    (["eval", "--seed", "six:0_2:1", "--level", "2", "--format", "obj"],
     "malformed seed 'six:0_2:1': invalid digit grouping in '0_2'"),
    (["eval", "--seed", "six:2:1_0", "--level", "2"],
     "malformed seed 'six:2:1_0': invalid digit grouping in '1_0'"),
    (["eval", "--seed", "free:1_0:1,1,1", "--level", "1"],
     "malformed free seed 'free:1_0:1,1,1': invalid digit grouping in '1_0'"),
    (["tangent", "--seed", "free:1:1,1_0,1", "--word", ":0"],
     "malformed free seed 'free:1:1,1_0,1': invalid digit grouping in '1_0'"),
    (["spectrum", "--level", "1_0"], "argument --level: invalid int value: '1_0'"),
    (["eval", "--seed", "two:1:1", "--level", "0_2"], "argument --level: invalid int value: '0_2'"),
    (["special", "--fn", "psi", "--range=0:1:1_0"],
     "malformed range '0:1:1_0': invalid digit grouping in '1_0'"),
    (["special", "--fn", "psi", "--range=0_0:1:3"],
     "malformed range '0_0:1:3': invalid digit grouping in '0_0'"),
    (["tangent", "--seed", "six:1:1", "--word", ":0", "--verify", "--verify-tol", "1e-1_0"],
     "verify tolerance must be a number, got '1e-1_0'"),
    (["spectrum", "--level", "2", "--verify", "--verify-tol", "1_0"],
     "verify tolerance must be a number, got '1_0'"),
])
def test_underscore_digit_grouping_exits_two(argv, line, capsys):
    assert _assert_exit(2, argv, capsys) == f"usage error: {line}\n"


# int and float read "+2" as 2; every number on the command line is refused
# with a leading "+", where each of these ran (exit 0)
@pytest.mark.parametrize("argv, line", [
    (["spectrum", "--level", "+2"], "argument --level: invalid int value: '+2'"),
    (["eval", "--seed", "six:+2:1", "--level", "2"],
     "malformed seed 'six:+2:1': a number must not start with '+', got '+2'"),
    (["eval", "--seed", "six:2:+1", "--level", "2"],
     "malformed seed 'six:2:+1': a number must not start with '+', got '+1'"),
    (["eval", "--seed", "free:+1:1,1,1", "--level", "1"],
     "malformed free seed 'free:+1:1,1,1': a number must not start with '+', got '+1'"),
    (["tangent", "--seed", "free:1:1,+1,1", "--word", ":0"],
     "malformed free seed 'free:1:1,+1,1': a number must not start with '+', got '+1'"),
    (["special", "--fn", "psi", "--range=+0:1:3"],
     "malformed range '+0:1:3': a number must not start with '+', got '+0'"),
    (["special", "--fn", "psi", "--range=0:+1:3"],
     "malformed range '0:+1:3': a number must not start with '+', got '+1'"),
    (["special", "--fn", "psi", "--range=0:1:+2"],
     "malformed range '0:1:+2': a number must not start with '+', got '+2'"),
    (["tangent", "--seed", "two:1:1", "--word", "01:2", "--verify", "--verify-tol", "+1e-8"],
     "verify tolerance must be a number, got '+1e-8'"),
], ids=["level", "m0", "index", "free-lambda", "boundary-value", "range-start", "range-end",
        "range-count", "verify-tol"])
def test_leading_plus_exits_two(argv, line, capsys):
    assert _assert_exit(2, argv, capsys) == f"usage error: {line}\n"


def test_an_exponent_keeps_its_sign(capsys):
    # repr writes 1e16 as "1e+16", and a seed copied from the output reads back
    assert run(["tangent", "--seed", "free:1e+0:1,2e+0,3", "--word", ":0"], capsys) == \
        run(["tangent", "--seed", "free:1:1,2,3", "--word", ":0"], capsys)


# int and float skip whitespace around a number and read digits of any
# script; each of these ran (exit 0), where seeds were already refused
@pytest.mark.parametrize("argv, line", [
    (["spectrum", "--level", "\u0661"], "argument --level: invalid int value: '\u0661'"),
    (["spectrum", "--level", " 1"], "argument --level: invalid int value: ' 1'"),
    (["special", "--fn", "psi", "--range=0:1:\u0663"],
     "malformed range '0:1:\u0663': a number must be printable ASCII without whitespace, "
     "got '\u0663'"),
    (["special", "--fn", "psi", "--range= 0:1:2 "],
     "malformed range ' 0:1:2 ': a number must be printable ASCII without whitespace, got ' 0'"),
    (["eval", "--seed", "two:1:1", "--level", "1", "--verify", "--verify-tol", "\u0660.\u0661"],
     "verify tolerance must be a number, got '\u0660.\u0661'"),
    (["spectrum", "--level", "2", "--verify", "--verify-tol", "\u0661e-3"],
     "verify tolerance must be a number, got '\u0661e-3'"),
], ids=["level-digit", "level-space", "range-digit", "range-space", "tol", "verify-tol"])
def test_other_scripts_digits_and_whitespace_exit_two(argv, line, capsys):
    assert _assert_exit(2, argv, capsys) == f"usage error: {line}\n"


SEED_ERROR_LINES = {
    "nope:1:1": "unknown series 'nope'",
    "six:1:2": "seed index must be in 1..1 for the six-series at m0=1, got 2",
    "two:1:2": "seed index must be in 1..1 for the two-series at m0=1, got 2",
    "five:1:3": "seed index must be in 1..2 for the five-series at m0=1, got 3",
    "five:2:4": "seed index must be in 1..3 for the five-series at m0=2, got 4",
    "six:2:4": "seed index must be in 1..3 for the six-series at m0=2, got 4",
    "six:1:0": "seed index must be in 1..1 for the six-series at m0=1, got 0",
    "two:1:0": "seed index must be in 1..1 for the two-series at m0=1, got 0",
    "five:3:1": "no closed-form seeds for the five-series at m0=3 "
                "(multiplicity 6 is still counted in the spectrum)",
    "six:0:1": "the 6-series needs m0 >= 2",
    "six:-1:1": "the 6-series needs m0 >= 2",
    "six:1:1:-": "the 6-series must take the plus root at level m0 + 1",
}


def test_domain_errors_exit_three(monkeypatch, capsys):
    monkeypatch.delenv("SG_MAX_LEVEL", raising=False)
    for seed, line in SEED_ERROR_LINES.items():
        err = _assert_exit(3, ["eval", "--seed", seed, "--level", "2"], capsys)
        assert err == f"error: {line}\n", seed
    assert _assert_exit(3, ["spectrum", "--level", "99"], capsys) == (
        "error: level 99 exceeds cap 12 (override with SG_MAX_LEVEL)\n")
    assert _assert_exit(3, ["eval", "--seed", "six:2:1", "--level", "1"], capsys) == (
        "error: level 1 below seed level 2\n")
    # an integer is an optional "-" and ASCII digits; int() reads each of
    # the others as 10
    for raw in ["abc", "1_0", " 10", "10 ", "+10", "١٠", "-", "--1"]:
        monkeypatch.setenv("SG_MAX_LEVEL", raw)
        assert _assert_exit(3, ["eval", "--seed", "two:1:1", "--level", "2"], capsys) == (
            f"error: SG_MAX_LEVEL must be an integer, got {raw!r}\n")


def test_max_level_outside_its_range_exits_three(monkeypatch, capsys):
    # 440 is the deepest level whose 1.5 * 5^j is a float; a larger cap let
    # `five:9100:1` overrun int-to-str limits in its seed line (exit 1)
    argv = ["eval", "--seed", "five:9100:1", "--level", "2"]
    for raw in ["99999", "442", "441", "-1"]:
        monkeypatch.setenv("SG_MAX_LEVEL", raw)
        assert _assert_exit(3, argv, capsys) == (
            f"error: SG_MAX_LEVEL must be in 0..440, got '{raw}'\n")
    monkeypatch.setenv("SG_MAX_LEVEL", "440")
    assert max_level() == 440
    assert _assert_exit(3, argv, capsys) == (
        "error: level 9100 exceeds cap 440 (override with SG_MAX_LEVEL)\n")
    err = _assert_exit(3, ["eval", "--seed", "five:440:1", "--level", "2"], capsys)
    assert err.startswith("error: no closed-form seeds") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--seed", "five:9100:1", "--level", "2"],
    ["eval", "--seed", "five:9000:1", "--level", "2"],
    ["tangent", "--seed", "six:99999999999999999999:1", "--word", ":0"],
])
def test_seed_past_the_level_cap_exits_three(argv):
    # the cap is checked before 3^m0 is formed: formatting it overran
    # int-to-str limits, and computing it for a 20-digit m0 never ended
    env = {k: v for k, v in os.environ.items() if k != "SG_MAX_LEVEL"}
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=5)
    m0 = argv[2].split(":")[1]
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: level {m0} exceeds cap 12 (override with SG_MAX_LEVEL)\n"


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
# per-vertex canonical_address implementation with csv.writer/json.dumps rows,
# and re-pinned when refinement left BLAS for matvec's fixed summation order
# (only values moved: within 2.8e-16 of a 50-digit Decimal refinement,
# relative to max(1, max |u|))
EVAL_GOLDEN_SHA256 = {
    "csv": "2ea937e73ed01cbd37d9a107bc495e021f9e4510f427f2f553671fac9fc014a1",
    "json": "c1ae2018adde74b91de34e17b7d951e38e94b939c263e89e75e202920f665695",
    "obj": "9d3ff0f1d1ee1d72c6c7da8729d1daba5726ce7284d35709ed7fd1d1ea800f31",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_GOLDEN_SHA256))
def test_eval_golden_bytes(fmt, capsys):
    code, out, _ = run(["eval", "--seed", "five:2:3:+-+", "--level", "7", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_GOLDEN_SHA256[fmt]


@pytest.mark.parametrize("block_rows", [1, 256, 1000])
@pytest.mark.parametrize("fmt", sorted(EVAL_GOLDEN_SHA256))
def test_eval_golden_bytes_across_block_seams(fmt, block_rows, monkeypatch, capsys):
    # the 3282 rows of the golden run come in three parts, each a V_6
    # subtree's 1092 rows with the few vertices of V_1 before them; a block
    # of 1 row puts a seam after every row, 256 rows (the shipped block)
    # put five blocks in a part and 1000 rows two
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    code, out, _ = run(["eval", "--seed", "five:2:3:+-+", "--level", "7", "--format", fmt,
                        "--verify"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_GOLDEN_SHA256[fmt]


# sha256 of `eval --seed six:2:1:+-+ --level 10 --format obj` stdout,
# pinned from the walk that mapped every vertex's address, obj's included
EVAL_OBJ_L10_SHA256 = "e4c81a86b7b6d00910b53f28081813198a20d2699772670b246a7fc7defce588"


@pytest.mark.parametrize("seed, level, digest", [
    ("five:2:3:+-+", "7", EVAL_GOLDEN_SHA256["obj"]),
    ("six:2:1:+-+", "10", EVAL_OBJ_L10_SHA256),
])
def test_eval_obj_spells_no_address(seed, level, digest, monkeypatch, capsys):
    # obj writes points, values and faces: it gives its bytes without
    # asking mesh for a single address
    def addresses(m):
        raise AssertionError(f"obj asked for the addresses of V_{m}")

    monkeypatch.setattr(mesh, "addresses", addresses)
    code, out, _ = run(["eval", "--seed", seed, "--level", level, "--format", "obj"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `eval --seed six:3:5:+-+- --level 9` stdout, pinned from the
# per-row repr formatting: 29526 rows, so 29 default blocks, mostly zeros;
# re-pinned as above (values within 7.4e-16 of the Decimal refinement)
EVAL_L9_GOLDEN_SHA256 = {
    "csv": "f8640cec28c5d5e3959f06be2babbc5f99413373071753fdb48a0c68277952aa",
    "json": "15afe59c9c6d68f75f1f170b56718eface0bcfa49cea4d8b8d107abeeae19029",
    "obj": "6462c4efc92df6cf989054f27787eea457c5668f76ff1a4313f3ae0c2862349b",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_L9_GOLDEN_SHA256))
def test_eval_golden_bytes_over_many_blocks(fmt, capsys):
    code, out, _ = run(["eval", "--seed", "six:3:5:+-+-", "--level", "9", "--format", fmt],
                       capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_L9_GOLDEN_SHA256[fmt]


# sha256 of `eval --seed free:7.3:1,-2,3 --level 7` stdout, pinned while a
# free: seed still reached SpectralEigenfunction as a dense triple
EVAL_FREE_GOLDEN_SHA256 = {
    "csv": "ce5dc319807b8a0ff316fb807a0df619dd9c0d73d813d3dbebeedc6b8bf4265a",
    "json": "f8c06bdcccd7cef34820cf2f353647b30e4c88f9eeb49a9abc4417b18069652d",
    "obj": "afdbd907890afb6165b2fc9ad490b4b6f7ea446d79d6d088e46b3db31c0f354c",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_FREE_GOLDEN_SHA256))
def test_eval_free_seed_golden_bytes(fmt, capsys):
    code, out, err = run(["eval", "--seed", "free:7.3:1,-2,3", "--level", "7", "--format", fmt],
                         capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_FREE_GOLDEN_SHA256[fmt]


# sha256 of `tangent --seed S --word W --format F [--verify]` stdout, keyed
# (S, W, F[, "--verify"]): series and free: seeds (a harmonic one among
# them), corner, junction and deeper words.  Re-pinned when the closed form
# moved from floats to decimal: t and g moved in their last bits for every
# pair but six:3:5:+-+- 2:0, each onto the floats of the direct limit at
# depth k + 60 in 120 digits, and the oracle columns stayed as they were.
# The --verify entries but six:3:5:+-+- 2:0 were re-pinned when the oracle's
# depth and digits came from the word: each deviation went to 0.0, and each
# error_estimate fell by 7 to 10 orders, but the harmonic free:0 seed's,
# which was at roundoff already (6e-34 to 1.9e-34)
TANGENT_GOLDEN_SHA256 = {
    ("six:1:1", "0:1", "csv"):
        "adbd72873af41d3c241cac87b70164376f22e69db3b8736a271f112c83ffa78d",
    ("six:1:1", "0:1", "csv", "--verify"):
        "6d8e058dd9d6b28fdfc315ee125b75456d29e5faf2e1e9717c3661fb40cf2129",
    ("six:1:1", "0:1", "json"):
        "9a64d76af955a1cb6ff03d93ae37acae8704bca3c187f620d86532ceca582ee4",
    ("six:1:1", "0:1", "json", "--verify"):
        "3f823cce7a4611244e40d168cc73e18f7d04e64639211bb7f9711c32ba01621d",
    ("two:1:1", "01:2", "csv"):
        "b25a862a3fd2c3850210e19df099b3b4f26f673f89449720dd6f31f482886af3",
    ("two:1:1", "01:2", "csv", "--verify"):
        "1a69598492f67de1dc051172edecca41c5858d48a3fc14a8d6e636db5c5e815b",
    ("two:1:1", "01:2", "json"):
        "07d8e889a80a0f872255f041dec9db79ae0b3fa828ecd80591de4464ad264fc3",
    ("two:1:1", "01:2", "json", "--verify"):
        "a239059dba83c691117aab4c1fb09496e90262702980c40bb666d59b99195659",
    ("five:2:3:+-+", "120:1", "csv"):
        "aca9f9bcaea936ed51db07001bda964b457688b5845815d4923426c5dfb8c6a3",
    ("five:2:3:+-+", "120:1", "csv", "--verify"):
        "416840ec5b6835887a0c30f791c4a8a65dc2d0a9bae7880f3b24c6d82c1631a2",
    ("five:2:3:+-+", "120:1", "json"):
        "65dfd1660b69b6a4b4fe394e66d2997ce1e6787fbcaff0a2b763d6edcef8d23c",
    ("five:2:3:+-+", "120:1", "json", "--verify"):
        "beb781fb4d5e96f1acd7f4ccf5e603ad6918d332444bebf36b00e8c9f2952525",
    ("six:3:5:+-+-", "2:0", "csv"):
        "3ed48c4f15692ef7dd0652cdc5f94e69abd351d83350c1fdd86f8e9e17683941",
    ("six:3:5:+-+-", "2:0", "csv", "--verify"):
        "e0a195ccf8d33b2d143549a4f302623fb64064c1b363f1d7ec2fe18a314820ba",
    ("six:3:5:+-+-", "2:0", "json"):
        "c7019f5f1c3cae4f04cccb9c2ebd33f049014c88485abaaaa5e27fef7300a5d7",
    ("six:3:5:+-+-", "2:0", "json", "--verify"):
        "b5df4ccef65ea1a80f095f3261c5425c60c1470c06e42c7993018a1457002297",
    ("free:7.3:1,-2,3", ":0", "csv"):
        "b0817dd42c1cb36a72fc0871d9bbae7e9c86545dd72ed6e90e921d76554e6ddc",
    ("free:7.3:1,-2,3", ":0", "csv", "--verify"):
        "3c0a73f02493eadd5d7138d07165849db9b33875c671a017b5764a63656f5265",
    ("free:7.3:1,-2,3", ":0", "json"):
        "d8f344dd9434d5e357a692a0333e3cd0aac70138b34e23f46f6b16b23aeb3a7d",
    ("free:7.3:1,-2,3", ":0", "json", "--verify"):
        "6c11eec0d3ca65c1db99ab70f20a29f345cbcdfe58e74c4ed9e0785216452538",
    ("free:7.3:1,-2,3", "0122:1", "csv"):
        "f0b4c869ab5edb515a0bed799bd9ce8f7ad8586547dbb7fdc4c3478673bbafea",
    ("free:7.3:1,-2,3", "0122:1", "csv", "--verify"):
        "f354ee1c2b2d3061230d3d9f773b60082a1426401540d7b8c33e84b23a981638",
    ("free:7.3:1,-2,3", "0122:1", "json"):
        "34c57b726c8df2d5fe6543e2a2badccc697c1094a3af151ef6021324752d4efd",
    ("free:7.3:1,-2,3", "0122:1", "json", "--verify"):
        "2296e15ad398827e34f4e07c03a5c02456dad62d71c8ba8b57cf146b50723869",
    ("free:0:0.3,-1.2,2", "012:0", "csv"):
        "5eb54da5282283096542328e5f847407de089431e8b7ea30d785a649af9b995f",
    ("free:0:0.3,-1.2,2", "012:0", "csv", "--verify"):
        "75b535b5bbc21895776215084ade688a02aff5eaa1e32ea41835f74070e3d050",
    ("free:0:0.3,-1.2,2", "012:0", "json"):
        "d7662b84b8947a67ece9b6173806ccaa460524f9ddeb82831b0fc5ec451693c0",
    ("free:0:0.3,-1.2,2", "012:0", "json", "--verify"):
        "c581744cdc9489640de7132506cf4d167866aa40b45ee527a427d6b77776aedd",
    ("free:-3.5:2,0.5,-1", "21:1", "csv"):
        "ac5f8410e7b04fc2cec82d4fc4f04ada0428cd8417e154fc3ad0dcb339ced06c",
    ("free:-3.5:2,0.5,-1", "21:1", "csv", "--verify"):
        "d597440bf107a8426b0e45b391d039420f785dbdeae17c000b3a23606e6ac90e",
    ("free:-3.5:2,0.5,-1", "21:1", "json"):
        "9ba00e7e4ea8ffb305e111b9abac73b399faf7bae4e41a5c7ac6ee110a218ae5",
    ("free:-3.5:2,0.5,-1", "21:1", "json", "--verify"):
        "d45a1c14191f71d6eaea5e5b0fac8051e7fccffd7957ff658837cff052b4426d",
}


@pytest.mark.parametrize("args", list(TANGENT_GOLDEN_SHA256), ids=" ".join)
def test_tangent_golden_bytes(args, capsys):
    seed, word, fmt, *verify = args
    code, out, err = run(["tangent", "--seed", seed, "--word", word, "--format", fmt, *verify],
                         capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TANGENT_GOLDEN_SHA256[args]


def _reference_eval_blocks(args, graph, values):
    """The eval blocks as formatted one row at a time with repr."""
    level, fmt = args.level, args.format
    if fmt == "obj":
        yield f"# sglap eval seed={args.seed} level={level}\n"
    else:
        yield "address,level,x,y,value\n" if fmt == "csv" else "[\n"
    level_keys, level_names = level_vertices(level)
    for lo, hi in cli._row_ranges(graph.size):
        keys, names = level_keys[lo:hi], level_names[lo:hi]
        x, y = key_coords(keys, level).T.tolist()
        v = values[lo:hi].tolist()
        if fmt == "obj":
            yield "".join([f"v {a!r} {b!r} {c!r}\n" for a, b, c in zip(x, y, v)])
        elif fmt == "csv":
            yield "".join([f"{s},{level},{a!r},{b!r},{c!r}\n" for s, a, b, c in zip(names, x, y, v)])
        else:
            yield ("" if lo == 0 else ",\n") + ",\n".join(
                [f'  {{\n    "address": "{s}",\n    "level": {level},\n    "x": {a!r},\n'
                 f'    "y": {b!r},\n    "value": {c!r}\n  }}'
                 for s, a, b, c in zip(names, x, y, v)])
    if fmt == "obj":
        for lo, hi in cli._row_ranges(len(graph.cells)):
            yield "".join([f"f {a} {b} {c}\n" for a, b, c in (graph.cells[lo:hi] + 1).tolist()])
    elif fmt == "json":
        yield "\n]\n"


# the benchmark's series seeds: (series, m0, number of indices); the six:3
# seeds vanish on whole cells, so their blocks are mostly zeros
_EVAL_SERIES = (("two", 1, 1), ("five", 1, 2), ("five", 2, 3), ("six", 1, 1), ("six", 2, 3),
                ("six", 3, 12))


def _eval_seed(family, index, branches):
    """(seed, m0) drawn as the benchmark draws them; the 6-series takes the
    plus root at m0 + 1."""
    series, m0, count = family
    if series == "six" and branches:
        branches = "+" + branches[1:]
    seed = f"{series}:{m0}:{index % count + 1}"
    return (f"{seed}:{branches}" if branches else seed), m0


_eval_seeds = st.builds(_eval_seed, st.one_of(st.sampled_from(_EVAL_SERIES),
                                              st.just(("six", 3, 12))),
                        st.integers(0, 11), st.text("+-", max_size=6))


@settings(max_examples=30, deadline=None)
@given(_eval_seeds.flatmap(lambda seed: st.tuples(st.just(seed[0]), st.integers(seed[1], 6))
                           .flatmap(lambda sl: st.tuples(st.just(sl), st.integers(0, sl[1])))),
       st.sampled_from(["csv", "json", "obj"]), st.sampled_from([1, 7, 256, 4096]))
def test_eval_blocks_equal_per_row_repr(seed_level_depth, fmt, block_rows):
    # the rows come from a walk of any depth, so that the seams between
    # subtrees and the rows of V_depth between them show below level 8; the
    # reference's values are those of the whole-level numpy refinement
    (seed, level), depth = seed_level_depth
    graph = build_level_graph(level)
    u = cli.parse_seed(seed)
    args = argparse.Namespace(seed=seed, level=level, format=fmt)
    lattice = [list(map(repr, column)) for column in lattice_lines(level)]
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows), \
            mock.patch.object(mesh, "SUBTREE_LEVELS", max(1, level - depth)):
        assert "".join(cli._eval_blocks(args, u, lattice)) == \
            "".join(_reference_eval_blocks(args, graph, dense_values(u, level)))


@pytest.mark.parametrize("level", range(13))
def test_lattice_reprs_equal_the_coordinate_reprs(level):
    # every vertex of V_0..V_12: its lattice lines' entries have the bits of
    # the vertex's own coordinates, as eval computed them before its lattice
    x_table, y_table = lattice_lines(level)
    keys = level_keys(level)
    _, n1, n2 = keys.T
    x, y = key_coords(keys, level).T
    assert np.array(x_table)[2 * n1 + n2].tobytes() == x.tobytes()
    assert np.array(y_table)[n2].tobytes() == y.tobytes()


def _d3_vertex_map(level, p):
    """perm[x] is the vertex sigma(x) of V_level, where sigma takes corner
    q_i to q_p[i]: sigma F_i = F_p[i] sigma, so cells[c, i] goes to
    cells[p(c), p[i]], with p applied to each base-3 digit of c."""
    graph = build_level_graph(level)
    cell = np.arange(3 ** level)
    moved = np.zeros_like(cell)
    for t in range(level):
        moved += np.array(p)[cell // 3 ** t % 3] * 3 ** t
    perm = np.empty(graph.size, dtype=np.int64)
    perm[graph.cells] = graph.cells[moved][:, list(p)]
    return perm


_free_seeds = st.builds(lambda lam, b: f"free:{lam!r}:{b[0]!r},{b[1]!r},{b[2]!r}",
                        st.floats(-60.0, 60.0).filter(lambda lam: lam == 0.0 or abs(lam) >= 1e-9),
                        st.tuples(*[st.floats(-5.0, 5.0)] * 3))

# Worst gap measured, relative to max(1, max |u|): 2.6e-15 over 6300 random
# draws x 6 permutations (series and free: seeds, L <= 8), and 3.4e-15 over
# 2000 examples of the test below.  The two sides differ only in the order in
# which a refinement step sums a triple, so the tolerance allows about 30
# times the worst gap seen.
D3_EVAL_TOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(st.one_of(_eval_seeds.map(lambda seed: seed[0]), _free_seeds), st.integers(0, 8))
def test_eval_values_are_d3_equivariant(seed, level):
    # u o sigma, seeded with u's seed values moved by sigma on V_m0, takes on
    # V_level the values of u moved by sigma
    try:
        u = cli.parse_seed(seed)
    except SglapError:
        assume(False)  # a free: lambda that hits a singular level
    assume(level >= u.m0)
    values = values_on_level(u, level)
    scale = max(1.0, float(np.abs(values).max()))
    for p in itertools.permutations(range(3)):
        moved = seed_array(u)[_d3_vertex_map(u.m0, p)]
        moved = SpectralEigenfunction(u.sequence, dict(enumerate(moved)))
        gap = float(np.abs(values_on_level(moved, level) - values[_d3_vertex_map(level, p)]).max())
        assert gap <= D3_EVAL_TOL * scale, (p, gap / scale)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _parse_eval_seed(seed, level):
    try:
        u = cli.parse_seed(seed)
    except SglapError:
        assume(False)  # a free: lambda that hits a singular level
    assume(level >= u.m0)
    return u


@settings(max_examples=30, deadline=None)
@given(st.one_of(_eval_seeds.map(lambda seed: seed[0]), _free_seeds), st.integers(0, 8))
def test_eval_values_equal_the_cell_walks_bitwise(seed, level):
    # refined one subtree at a time in matvec's order, a vertex takes the
    # bits of the cell_triple walks of its cells, at every subtree size
    u = _parse_eval_seed(seed, level)
    values = values_on_level(u, level)
    assert np.array_equal(_bits(values), _bits(vertex_value_walks(u, level)))
    for levels in [1, 2, level, level + 3]:
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            assert np.array_equal(_bits(values_on_level(u, level)), _bits(values)), levels


@settings(max_examples=30, deadline=None)
@given(st.one_of(_eval_seeds.map(lambda seed: seed[0]), _free_seeds), st.integers(0, 8),
       st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_eval_residual_by_subtrees_equals_the_whole_level_bitwise(seed, level, levels, noise):
    # what eval --verify reads back: the eigenfunction, and the same with
    # noise, whose residual is far from 0
    u = _parse_eval_seed(seed, level)
    lam = u.sequence.value(level)
    values = values_on_level(u, level)
    noisy = values + np.random.default_rng(noise).standard_normal(values.size)
    graph = build_level_graph(level)
    with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
        for back in [values, noisy]:
            expected = whole_level_residual(graph, back, lam)
            # eval passes an array('d')
            for given in [back, array("d", back)]:
                assert eigen_residual(cells(level), given, lam) == expected


@functools.lru_cache(maxsize=None)
def _level_rows(level):
    """V_level's addresses and lattice lines by the scalar references:
    resolve_addresses and the key_coords lines of each vertex's key."""
    keys = level_keys(level)
    _, n1, n2 = keys.T
    return ([format_address(*resolve_addresses(tuple(k), level)[0]) for k in keys.tolist()],
            (2 * n1 + n2).tolist(), n2.tolist())


# boundary values that round-trip through repr, -0.0 and large ones among them
_boundary_values = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(
    [-0.0, 0.0, 1e300, -1e300, 1e307, -3e306, 5e-324, -1e-310]))
_walk_free_seeds = st.builds(lambda lam, b: f"free:{lam!r}:{b[0]!r},{b[1]!r},{b[2]!r}",
                             st.one_of(st.floats(-60.0, 6.0), st.sampled_from([0.0, -0.0])),
                             st.tuples(*[_boundary_values] * 3))
# up to 9 branch letters, or a 20-letter minus run after a plus
_walk_series_seeds = st.builds(
    _eval_seed, st.sampled_from(_EVAL_SERIES), st.integers(0, 11),
    st.one_of(st.text("+-", max_size=9), st.just("+" + "-" * 20 + "+"))).map(lambda s: s[0])
# seeds born deep: the 6-series from m0 = 4 to 8, below the walk's depth
_walk_deep_seeds = st.builds(lambda m0, index, branches: f"six:{m0}:{index}:+{branches}",
                             st.integers(4, 8), st.integers(1, 40), st.text("+-", max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_walk_free_seeds, _walk_series_seeds, _walk_deep_seeds), st.integers(0, 8),
       st.integers(1, 9))
@example("free:0.0:-0.0,1.0,-0.0", 2, 6)
@example("free:7.3:1e307,-1e307,1e307", 4, 6)
@example("free:0.0:1.7e308,1.7e308,1.7e308", 3, 2)
def test_walk_equals_the_dense_reference_bitwise(seed, level, levels):
    # the walk at any subtree size against the whole-level numpy refinement
    # and collapse that eval ran before it: every value's bits, zero signs
    # included (a -0.0 seed value prints 0.0), and the rows
    u = _parse_eval_seed(seed, level)
    reference = dense_values(u, level)
    with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
        values = values_on_level(u, level)
        rows = level_columns(level, [list(range(2 ** (level + 1) + 1)), list(range(2 ** level + 1))])
    assert rows == _level_rows(level)
    if np.isfinite(reference).all():
        assert _bits(values).tobytes() == _bits(reference).tobytes()
    else:
        # a value the walk computes once can pass 2^1023, where the collapse
        # summed its two copies past the float range
        event("non-finite reference")
        values = np.array(values)
        assert not np.isfinite(values).all() or np.abs(values).max() > sys.float_info.max / 2


@pytest.mark.parametrize("level", range(11))
def test_subtree_faces_are_the_level_cells(level):
    # the obj faces: the cells of each subtree, joined, are the level graph,
    # counted from 0 and from 1, at the default cut and, up to level 8, at
    # every cut from 1 to the level
    expected = build_level_graph(level).cells.ravel().tolist()
    for levels in [mesh.SUBTREE_LEVELS, *(range(1, level + 1) if level <= 8 else [])]:
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            assert level_cells(level) == expected, levels
            assert [v - 1 for part in cells(level, 1) for v in part] == expected, levels


def _tampered_eval(monkeypatch, tmp_path, capsys, level, tamper):
    """eval --level 6 --output with subtrees of V_5, one per 1-cell, where
    tamper(mats) may change the matrices of the given level: exit 3, an
    empty stdout and no file."""
    original = mesh.eigen_matrices
    u = cli.parse_seed("free:7.3:1,-2,3")

    def eigen_matrices(lam):
        mats = [list(map(list, mat)) for mat in original(lam)]
        if lam == u.sequence.value(level):
            tamper(mats)
        return tuple(tuple(map(tuple, mat)) for mat in mats)

    monkeypatch.setattr(mesh, "SUBTREE_LEVELS", 5)
    monkeypatch.setattr(mesh, "eigen_matrices", eigen_matrices)
    err = _assert_exit(3, ["eval", "--seed", "free:7.3:1,-2,3", "--level", "6",
                           "--output", str(tmp_path / "out.csv")], capsys)
    assert os.listdir(tmp_path) == []
    return err


def test_eval_junction_gap_inside_a_subtree_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    # the walk computes each vertex once, so no two copies of it can
    # differ; it checks instead that the two matrices giving a midpoint give
    # it by one row.  Level 6 is refined inside the subtrees only
    def tamper(mats):
        mats[1][0][2] += 1e-3

    err = _tampered_eval(monkeypatch, tmp_path, capsys, 6, tamper)
    assert err == "error: the extension matrices of level 6 give a vertex two values\n"


def test_eval_junction_gap_between_subtrees_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    # the V_1 midpoints, which level 1's matrices give, are the vertices
    # between the subtrees; a matrix that moves its own corner is caught too
    def tamper(mats):
        mats[2][0][1] += 1e-3
        mats[0][0][0] = 1.0 + 1e-3

    err = _tampered_eval(monkeypatch, tmp_path, capsys, 1, tamper)
    assert err == "error: the extension matrices of level 1 give a vertex two values\n"


def test_eval_non_finite_subtree_fails_before_the_first_byte(monkeypatch, tmp_path, capsys):
    # rows that agree but overflow: every vertex born at level 6 is past
    # the float range
    def tamper(mats):
        for row in (mats[0][1], mats[1][0], mats[0][2], mats[2][0], mats[1][2], mats[2][1]):
            row[:] = [1e308] * 3

    err = _tampered_eval(monkeypatch, tmp_path, capsys, 6, tamper)
    assert err == "error: seed 'free:7.3:1,-2,3' gives non-finite values on V_6\n"


def _tampered_last_subtree(monkeypatch, tmp_path, capsys, tamper):
    """eval --level 9, walked as 27 subtrees of V_6, where tamper(part) may
    change the last part of every walk of V_9; run to stdout and to
    --output, each exits 3 with an empty stdout and leaves no file.  A
    writer that checked each subtree as it wrote it would have written the
    other 26 first.  Returns the two messages."""
    original = mesh.walk

    def walk(u, m):
        parts = list(original(u, m))
        assert len(parts) == 27
        tamper(parts[-1])
        return iter(parts)

    monkeypatch.setattr(mesh, "walk", walk)
    errs = []
    for output in [[], ["--output", str(tmp_path / "out.csv")]]:
        errs.append(_assert_exit(3, ["eval", "--seed", "free:7.3:1,-2,3", "--level", "9",
                                     *output], capsys))
        assert os.listdir(tmp_path) == []
    return errs


def test_eval_junction_gap_in_the_last_subtree_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    # a fault in the deepest level's matrices reaches every subtree, the
    # last included, and is caught before the walk yields its first part
    original = mesh.eigen_matrices
    deepest = cli.parse_seed("free:7.3:1,-2,3").sequence.value(9)

    def eigen_matrices(lam):
        mats = [list(map(list, mat)) for mat in original(lam)]
        if lam == deepest:
            mats[1][2][0] += 1e-3
        return tuple(tuple(map(tuple, mat)) for mat in mats)

    monkeypatch.setattr(mesh, "eigen_matrices", eigen_matrices)
    for err in _tampered_last_subtree(monkeypatch, tmp_path, capsys, lambda part: None):
        assert err == "error: the extension matrices of level 9 give a vertex two values\n"


def test_eval_non_finite_last_subtree_fails_before_the_first_byte(monkeypatch, tmp_path, capsys):
    def tamper(part):
        part[5] = math.inf

    for err in _tampered_last_subtree(monkeypatch, tmp_path, capsys, tamper):
        assert err == "error: seed 'free:7.3:1,-2,3' gives non-finite values on V_9\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_eval_verify_reads_back_the_written_blocks(fmt, monkeypatch, capsys):
    # the first row is the corner q_0, where six:1:1 is 0.0; writing 1.0
    # there fails the check on the values read back, not the computed ones
    spelling = {"csv": ",{}\n", "json": '"value": {}\n', "obj": " {}\n"}[fmt]

    def blocks(args, u, lattice):
        for i, block in enumerate(original(args, u, lattice)):
            if i == 1:
                corrupted = block.replace(spelling.format(0.0), spelling.format(1.0), 1)
                assert corrupted != block
                block = corrupted
            yield block

    original = cli._eval_blocks
    monkeypatch.setattr(cli, "BLOCK_ROWS", 16)
    args = ["eval", "--seed", "six:1:1", "--level", "4", "--format", fmt, "--verify"]
    assert run(args, capsys)[0] == 0
    monkeypatch.setattr(cli, "_eval_blocks", blocks)
    code, _, err = run(args, capsys)
    assert code == 4 and err.startswith("verification failed: round-trip residual")


class _Sink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, texts):
        # as a real stream does, holds no text once it is counted
        self.size += sum(map(len, texts))

    def flush(self):
        pass


class _WidestRow(_Sink):
    """A sink that keeps the length of the widest row it is written: a csv
    line, or the text of a json record up to its closing brace."""

    def __init__(self, row_end):
        super().__init__()
        self.row_end, self.widest = row_end, 0

    def write(self, text):
        super().write(text)
        self.widest = max(self.widest, *map(len, text.split(self.row_end)))

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def _emission_peak(fmt, level):
    seed = "five:1:2:+-+-++"
    u = cli.parse_seed(seed)
    lattice = [list(map(repr, column)) for column in lattice_lines(level)]
    args = argparse.Namespace(seed=seed, level=level, format=fmt, output=None)
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            cli._emit(args, cli._eval_blocks(args, u, lattice))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > vertex_count(level) * 20
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_eval_output_memory_does_not_grow_with_the_level(fmt):
    # V_10 has 9x the rows of V_8; held output text is one block either way
    assert _emission_peak(fmt, 10) <= 1.5 * _emission_peak(fmt, 8)


def test_eval_pipeline_peak_memory():
    # eval --level 10 as cmd_eval runs it: the lattice strings, the check
    # walk and every csv block.  It peaks at 0.70-0.71 MB under tracemalloc,
    # holding one subtree's rows at a time; 0.73 MB while it walked numpy
    # subtree tables, 1.35 MB when it held the level's values, 4.3 MB when
    # the level's graph and every cell triple were held, and 7.5 MB when the
    # graph also held every vertex's keys and address bytes
    seed, level = "six:2:1:+-+", 10
    args = argparse.Namespace(seed=seed, level=level, format="csv")
    tracemalloc.start()
    try:
        u = cli.parse_seed(seed)
        lattice = [list(map(repr, column)) for column in lattice_lines(level)]
        assert all(all(map(math.isfinite, part)) for part in walk(u, level))
        rows = sum(block.count("\n") for block in cli._eval_blocks(args, u, lattice))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == vertex_count(level) + 1
    assert peak < 1e6


# what a run holds besides its output block: spectrum's family walk (about
# 0.17 MB in json, 0.3 MB in csv) and eval's layout and walk at L8 (0.34 MB)
_NOT_THE_BLOCK = 0.35e6
# a block is held as its rows' cells, their text and the joined text at
# once: 4.2 (json) to 5.3 (csv) times the widest row's length per row
_BLOCK_COPIES = 5
# the rows of one block that the bound allows for; it is not read from
# cli.BLOCK_ROWS, so that a larger block fails the bound
_BLOCK_ROWS = 1 << 8


@pytest.mark.parametrize("argv, row_end", [
    (["spectrum", "--level", "10", "--format", "json"], "}"),
    (["spectrum", "--level", "10", "--format", "csv"], "\n"),
    (["eval", "--seed", "six:2:1:+-+", "--level", "8", "--format", "json"], "}"),
], ids=["spectrum-json", "spectrum-csv", "eval-json"])
def test_writers_hold_one_block_of_256_rows(argv, row_end):
    # what a run allocates above what it leaves behind is the writer's
    # block on top of the walk.  A warm-up run with the same arguments
    # imports what the format writes with and measures the widest row, so
    # that the traced run counts the run alone.  tracemalloc's counts are
    # deterministic: 341, 376 and 356 KB here in 256-row blocks, against
    # 721, 576 and 653 KB in 1024-row blocks, above the bound
    widest = _WidestRow(row_end)
    with contextlib.redirect_stdout(widest):
        assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            assert cli.main(argv) == 0
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - after < _NOT_THE_BLOCK + _BLOCK_COPIES * _BLOCK_ROWS * widest.widest


# A child process measures a workload by its resident set: it warms up with
# a small run of the same kind (imports, re's patterns), reads VmRSS, runs
# the workload and prints how far its RSS grew past that reading, up to its
# high-water mark.  It takes a second or so at L12, where tracemalloc,
# which traces every float the walk makes, took 20-36 s.  The figures
# repeat to within 4 KB; each test failed with the planted regression it
# names
_RSS_PRELUDE = """if True:
        import math, os, sys
        import sglap.cli
        from sglap import mesh

        def status(field):
            with open("/proc/self/status") as lines:
                for line in lines:
                    if line.startswith(field):
                        return int(line.split()[1]) * 1024

        def rss():
            return status("VmRSS:")

        # the high-water mark of this process's own memory map: ru_maxrss
        # would keep the forking parent's
        def peak():
            return status("VmHWM:")

        def run(*argv):
            assert sglap.cli.main([*argv, "--output", os.devnull]) == 0, argv
"""


def _rss_growth(script: str, *argv):
    """What the child's script prints, parsed: the script runs after
    _RSS_PRELUDE, inside its `if True:` block."""
    proc = subprocess.run([sys.executable, "-c", _RSS_PRELUDE + script, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_eval_verify_holds_one_value_array():
    # eval --level 10 --verify reads each block back into one array('d'),
    # the only array of the level's values.  Past a warm-up L2 --verify,
    # the RSS has grown by 1.53 (csv), 1.70 (json) and 1.43 MB (obj) when
    # the residual starts, the 0.71 MB array among it, and peaks 1.50-1.56
    # MB above it over the three formats; a walk that also holds its values
    # reads 8.5, 15.7 and 22.5 MB there and peaks 22.5 MB above, and a list
    # of floats read back in place of the array('d') 4.2-4.3 MB and 4.2 MB.
    # Under tracemalloc the bounds were 8 V_10 + 0.4 MB held and 2.2 MB peak
    held, grown = _rss_growth("""
        run("eval", "--seed", "six:2:1:+-+", "--level", "2", "--verify")
        residual, held = mesh.eigen_residual, []

        def recording(*args):
            held.append(rss() - base)
            return residual(*args)

        mesh.eigen_residual = recording
        base = rss()
        for fmt in ("csv", "json", "obj"):
            run("eval", "--seed", "six:2:1:+-+", "--level", "10", "--format", fmt, "--verify")
        print([held, peak() - base])
    """)
    assert len(held) == 3
    assert max(held) < 8 * vertex_count(10) + 2.4e6, held
    assert grown < 3.2e6


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
@pytest.mark.parametrize("change", [-1, 1])
def test_eval_verify_counts_the_values_read_back(fmt, change, monkeypatch, capsys):
    # a block that reads back one value too few or too many fails the run
    def block_values(fmt, block):
        parsed = original(fmt, block)
        if parsed and not changed:
            changed.append(block)
            return parsed[:change] if change < 0 else parsed + parsed[:change]
        return parsed

    original, changed = cli._block_values, []
    monkeypatch.setattr(cli, "_block_values", block_values)
    code, _, err = run(["eval", "--seed", "two:1:1", "--level", "3", "--format", fmt,
                        "--verify"], capsys)
    rows = vertex_count(3)
    assert code == 3
    assert err == f"error: re-ingested {rows + change} values, expected {rows}\n"


def test_eval_peak_memory_at_level_12_stays_near_level_10():
    # V_12 has 9x the vertices of V_10, but eval holds one subtree's rows
    # and one block at a time.  Past a warm-up L2 run, the RSS of an L12
    # run peaks 2.33 MB higher and that of an L10 run 1.17 MB, half as
    # much, most of the difference being the lattice strings, which grow as
    # 2^level; a walk that holds the level's values peaks 66 MB higher at
    # L12 and 7.8 MB at L10, 8.4 times.  Under tracemalloc the peaks were
    # 1.69 and 0.76 MB, with the same bound
    script = """
        run("eval", "--seed", "six:2:1:+-+", "--level", "2")
        base = rss()
        run("eval", "--seed", "six:2:1:+-+", "--level", sys.argv[1])
        print(peak() - base)
    """
    assert _rss_growth(script, "12") <= 3 * _rss_growth(script, "10")


def test_spectrum_at_level_12_holds_no_lines():
    # the lines are merged from each family's ranked members as they are
    # printed, and --verify makes each bracket when the next line arrives.
    # Past a warm-up L2 run, an L12 run grows the RSS by 0.93 MB in csv,
    # 1.38 MB in json and 1.10 MB with --verify; a spectrum that builds,
    # sorts and holds every line grows it by 3.18, 3.62 and 3.57 MB, and
    # each bound is half of that
    script = """
        run("spectrum", "--level", "2")
        base = rss()
        run("spectrum", "--level", "12", *sys.argv[1:])
        print(peak() - base)
    """
    held = {("--format", "csv"): 3.18e6, ("--format", "json"): 3.62e6, ("--verify",): 3.57e6}
    for argv, grown in held.items():
        assert _rss_growth(script, *argv) <= grown / 2, argv


def test_a_seed_born_deep_is_refined_by_subtrees():
    # a seed born below the walk's depth is read one vertex at a time from
    # its sparse map: both walks over V_12 of six:12:1 peak 0.18 MB above
    # the RSS they start from, and 64 MB above it when each walk holds the
    # level's values.  Under tracemalloc they peaked at 0.30-0.41 MB, with
    # the same bound; 6.75 MB when the level's values were held, and 32 MB
    # when the walk refined from a dense seed array
    count, grown = _rss_growth("""
        u = sglap.cli.parse_seed("six:12:1")
        next(iter(mesh.walk(u, 12)))
        base = rss()
        assert all(all(map(math.isfinite, part)) for part in mesh.walk(u, 12))
        print([sum(map(len, mesh.walk(u, 12))), peak() - base])
    """)
    assert count == vertex_count(12)
    assert grown < 0.6e6


@pytest.mark.parametrize("seed", ["six:5:3", "six:6:2:+-", "five:2:2", "two:1:1:+"])
def test_a_seed_born_deep_takes_the_cell_walk_bits(seed):
    # at every depth below the seed level and above it, the values take the
    # bits of the cell_triple walks of their cells
    u = cli.parse_seed(seed)
    level = u.m0 + 1
    walks = _bits(vertex_value_walks(u, level))
    for levels in range(1, level + 1):
        with mock.patch.object(mesh, "SUBTREE_LEVELS", levels):
            assert np.array_equal(_bits(values_on_level(u, level)), walks), levels


# branch strings with a long minus run between two plus roots
_minus_runs = st.integers(0, 11).map(lambda k: "+" + "-" * k + "+")


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.builds(_eval_seed, st.sampled_from(_EVAL_SERIES), st.integers(0, 11),
                           st.one_of(st.text("+-", max_size=6), _minus_runs))
                 .map(lambda seed: seed[0]), _free_seeds),
       st.integers(8, 12))
def test_eval_and_tangent_read_the_same_top_level_triples(seed, level):
    # eval walks the seed's m0-cells down to the subtree roots, tangent
    # walks one cell's triple down its word (cell_triple): the vertices of
    # V_depth, which come between the subtrees, take the bits of the walks
    u = _parse_eval_seed(seed, level)
    depth = level - mesh.SUBTREE_LEVELS
    assume(u.m0 <= depth)
    added = vertex_count(mesh.SUBTREE_LEVELS) - 3
    top = [value for part in walk(u, level) for value in part[:-added]]
    assert np.array_equal(_bits(top), _bits(vertex_value_walks(u, depth)))


def test_failed_emission_leaves_the_target_unchanged(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.csv"
    target.write_text("earlier output\n")

    def blocks(args, graph, values):
        yield "address,level,x,y,value\n"
        raise SglapError("stopped mid-stream")

    monkeypatch.setattr(cli, "_eval_blocks", blocks)
    code, out, err = run(["eval", "--seed", "two:1:1", "--level", "2", "--output", str(target)],
                         capsys)
    assert (code, out, err) == (3, "", "error: stopped mid-stream\n")
    assert target.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["out.csv"]


# a walk cut wrong: one part short, one too many, one value too many
_BROKEN_STREAMS = {
    "too few": lambda parts: parts[:-1],
    "too many": lambda parts: [*parts, parts[-1]],
    "wrong length": lambda parts: [*parts[:-1], parts[-1] + [0.0]],
}


@pytest.mark.parametrize("level", [0, 8])
@pytest.mark.parametrize("broken", sorted(_BROKEN_STREAMS))
def test_rows_reject_a_values_stream_cut_wrong(broken, level, monkeypatch, capsys):
    # the writer takes the walk's parts whole, each with as many values as
    # rows, and V_level's rows in all: V_0 is one part, V_8 has nine
    original = mesh.walk

    def walk(u, m):
        return iter(_BROKEN_STREAMS[broken](list(original(u, m))))

    monkeypatch.setattr(mesh, "walk", walk)
    code, _, err = run(["eval", "--seed", "free:-7.25:0.1,-2,1e-05", "--level", str(level),
                        "--output", os.devnull], capsys)
    assert code == 3 and err.startswith(f"error: the values of V_{level} ")
    assert err.count("\n") == 1, err


def test_emit_removes_its_file_on_any_exception(tmp_path):
    target = tmp_path / "out.txt"

    def blocks():
        yield "first block\n"
        raise RuntimeError("not a package error")

    with pytest.raises(RuntimeError):
        cli._emit(argparse.Namespace(output=str(target)), blocks())
    assert os.listdir(tmp_path) == []


def test_output_replaces_an_existing_file(tmp_path, capsys):
    args = ["eval", "--seed", "six:2:1", "--level", "3", "--format", "json"]
    target = tmp_path / "out.json"
    target.write_text("x" * 100_000)
    expected = run(args, capsys)[1]
    assert run(args + ["--output", str(target)], capsys)[:2] == (0, "")
    assert target.read_text() == expected
    assert os.listdir(tmp_path) == ["out.json"]


def test_output_through_a_symlink_writes_the_linked_file(tmp_path, capsys):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert run(["spectrum", "--level", "1", "--output", str(link)], capsys)[0] == 0
    assert link.is_symlink() and real.read_text().startswith("series,")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["spectrum", "--level", "1", "--output", str(fifo)], capsys)[0] == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and received[0].startswith("series,")
    assert os.listdir(tmp_path) == ["pipe"]


def test_spectrum_above_the_cap_raises_level_cap_error(capsys):
    cap = max_level()
    with pytest.raises(DomainError, match=f"level {cap + 1} exceeds cap {cap} "):
        enumerate_dirichlet_spectrum(cap + 1)
    code, out, err = run(["spectrum", "--level", str(cap + 1)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: level {cap + 1} exceeds cap {cap} (override with SG_MAX_LEVEL)\n"


@pytest.mark.parametrize("singular", [
    # test_spectrum_failures_raise_from_the_walk's planted values: every
    # 6-series at its forced plus root, the 2-series members with a plus at
    # level 2
    (2.0, 5.0, 6.0, 3.0),
    (2.0, 5.0, 6.0, 4.561552812808831),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_failures_exit_three_before_the_first_byte(singular, fmt, monkeypatch,
                                                            tmp_path, capsys):
    # every branch tree is walked before the first line is read, so a
    # failed step is the one message, to stdout and to --output alike
    from sglap import decimation

    monkeypatch.setattr(decimation, "SINGULAR_VALUES", singular)
    with pytest.raises(DomainError, match="eigenvalue sequence is singular at level ") as raised:
        enumerate_dirichlet_spectrum(4)
    for output in [[], ["--output", str(tmp_path / f"out.{fmt}")]]:
        err = _assert_exit(3, ["spectrum", "--level", "4", "--format", fmt, *output], capsys)
        assert err == f"error: {raised.value}\n"
        assert os.listdir(tmp_path) == []


def _cap_address_space():
    cap = 256 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_spectrum_past_level_23_exits_three():
    # after a 22-level minus run the plus root of lambda_23 ~ 9e-16 rounds to
    # 5.0 at level 24: the float resolution, not a singular level, whose
    # message it once gave.  The walk's failure is the answer; the
    # address-space cap keeps a regression that visits the 2^24 members of a
    # family one by one from exhausting the host's memory.
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "spectrum", "--level", "25"],
                          env={**os.environ, "SG_MAX_LEVEL": "25"},
                          preexec_fn=_cap_address_space, capture_output=True, text=True,
                          timeout=5)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: the plus root at level 24 of lambda_23 = 9.404188187411938e-16 "
                           "rounds to 5, past the resolution of the arithmetic, not a singular "
                           "level\n")


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_eval_runs_in_a_64_mb_address_space(fmt):
    # eval runs on Python floats and holds one subtree's rows at a time, and
    # --verify reads the values back into one array('d'), so level 10 runs
    # under an address-space cap below what importing numpy alone takes,
    # with and without --verify; its stdout is the uncapped run's
    def cap_64_mb():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    for verify in [], ["--verify"]:
        argv = [sys.executable, "-m", "sglap.cli", "eval", "--seed", "six:2:1:+-+", "--level",
                "10", "--format", fmt, *verify]
        capped = subprocess.run(argv, preexec_fn=cap_64_mb, capture_output=True, timeout=30)
        assert (capped.returncode, capped.stderr) == (0, b""), verify
        assert capped.stdout == subprocess.run(argv, capture_output=True, timeout=30).stdout
    numpy = subprocess.run([sys.executable, "-c", "import numpy"], preexec_fn=cap_64_mb,
                           capture_output=True, timeout=30)
    assert numpy.returncode != 0


@pytest.mark.parametrize("cap, argv", [
    ("22", ["eval", "--seed", "two:1:1", "--level", "22"]),
], ids=["eval"])
def test_out_of_memory_exits_three(cap, argv):
    # eval makes the lattice lines' strings before its first walk: at level
    # 22 the 2^23 + 1 x lines take over 256 MB and do not fit in the capped
    # address space (at level 16, where the level's values took 516 MB, it
    # no longer runs out).  numpy's MemoryError once ended in a traceback
    # and exit 1; until the walk ran on Python floats its subtree layout,
    # 3^15 rows of 32 bytes at level 22, was what ran out
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", *argv],
                          env={**os.environ, "SG_MAX_LEVEL": cap},
                          preexec_fn=_cap_address_space, capture_output=True, text=True,
                          timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("word", [":0", "0" + "1" * 13 + ":0"])
def test_deep_six_seed_tangent_runs_under_the_memory_cap(word):
    # a seed is looked up one vertex at a time, so a tangent at m0 = 14 no
    # longer builds V_13, which ran out of the capped address space; the
    # second word lies in the seed's support
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "tangent", "--seed", "six:14:1",
                           "--word", word],
                          env={**os.environ, "SG_MAX_LEVEL": "14"},
                          preexec_fn=_cap_address_space, capture_output=True, text=True,
                          timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    [record] = csv.DictReader(io.StringIO(proc.stdout))
    assert record.pop("word") == word and all(_finite(field) for field in record.values())


# sha256 of `spectrum --level 10` stdout, pinned from the per-family scalar
# EigenvalueSequence.value/limit loops.  Re-pinned when the limit became
# 1.5 * 5^t * Phi(lambda_t): only the lambda column moved, and against a
# 60-digit minus run from the same lambda_t its worst relative error went
# 2.1e-14 -> 5.1e-16
SPECTRUM_GOLDEN_SHA256 = {
    ("--series", "all"): "aa29018d3725830f8cb4667310beae4e62747fa754315a0ffd31aaca8c24add2",
    ("--series", "two"): "3e1c7b9670c917be6eeba22b62a8583d3ba4d2693fb0a25f0d8ad438830dc7da",
    ("--series", "five"): "ecb80ef54c5e2235fd18e007ee1c1d263ef88478c090b29235e1703964fa0226",
    ("--series", "six"): "5192f5db734b93d3f494440130cda8de3123facf80bf5c72f22636895b6406f1",
    ("--format", "json"): "5a38d96b710d42bd540fa993f8d618a4ce438e95b8c22f5fe5d7fc1c0982f0d9",
    # recorded from the enumeration that walked every series and dropped rows
    ("--series", "two", "--format", "json"):
        "5df00ca83d366eccf4e6b31042ad79ed8bc350b8e20e74df4d46f940640042da",
    ("--series", "five", "--format", "json"):
        "b1b6b9d12f9caab8de0ca0aea489abd5520dc8f416f2a4b1e82c64c423732d9f",
    ("--series", "six", "--format", "json"):
        "e0aaa6132d4232ea0e328b1fd7980a3d28b6a53aab7361b2f29d80db71bfa3b7",
}


@pytest.mark.parametrize("args", list(SPECTRUM_GOLDEN_SHA256), ids=" ".join)
def test_spectrum_golden_bytes(args, capsys):
    code, out, err = run(["spectrum", "--level", "10", *args], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_GOLDEN_SHA256[args]


def test_spectrum_verify_golden_columns(capsys):
    # columns 1-6 are pinned from the scalar loops and Phi; the residual
    # column, the bracket half-widths of the inertia counts, runs on Python
    # floats and is pinned with them in the whole output
    code, out, _ = run(["spectrum", "--level", "4", "--verify"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][6] == "residual" and all(float(r[6]) < 1e-9 for r in rows[1:])
    cut = "".join(",".join(r[:6]) + "\n" for r in rows)
    assert hashlib.sha256(cut.encode()).hexdigest() == \
        "80b487e455cf9070ec0793e67782882030c75ccbc547c3e2b26d72db93c72c32"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "198897c1c8700f5d4e16cbfb2e54dc50c595623ef043c9acdeaff45092b9aae2"


@pytest.mark.parametrize("series", ["two", "five", "six"])
def test_spectrum_verify_prints_the_series_rows_of_the_whole_table(series, capsys):
    # --verify brackets every line of the whole spectrum, then filters rows
    code, out, _ = run(["spectrum", "--level", "4", "--verify"], capsys)
    assert code == 0
    header, *rows = out.splitlines(keepends=True)
    code, picked, _ = run(["spectrum", "--level", "4", "--verify", "--series", series], capsys)
    assert code == 0
    assert picked == header + "".join(row for row in rows if row.startswith(series + ","))


def test_each_subcommand_loads_only_the_layers_it_runs():
    # fresh processes, since this one has long loaded every layer, numpy and
    # mpmath; `spectrum`, `tangent`, `eval` and `spectrum --verify` get one
    # each, as a tangent check loads the tangent layers
    prelude = """if True:
        import contextlib, io, sys

        def layers():
            return {name for name in sys.modules if name.startswith("sglap.")}

        def run(*argv, code=0):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    assert sglap.cli.main(list(argv)) == code, argv
                except SystemExit as exc:  # --help
                    assert exc.code == code, argv
            assert "mpmath" not in sys.modules, argv
            return layers()

        import sglap.cli
        base = {"sglap.cli", "sglap.special", "sglap.errors"}
        assert layers() == base, layers()
        assert "numpy" not in sys.modules
    """
    # the scripts below go on in the prelude's `if True:` block
    spectrum = """
        for level in ("0", "10"):
            for fmt in ("csv", "json"):
                assert run("spectrum", "--level", level, "--format", fmt) == \\
                    base | {"sglap.decimation"}
        assert "numpy" not in sys.modules and "decimal" not in sys.modules
    """
    others = """
        assert run("--help") == run("spectrum", "--level", "x", code=2) == base
        assert "numpy" not in sys.modules
        # a special grid runs on Python floats, point by point
        assert run("special", "--fn", "psi", "--range=0:1:3") == base
        assert run("special", "--fn", "upsilon", "--range=0:1:3") == base
        assert "numpy" not in sys.modules and "heapq" not in sys.modules
        checks = {"sglap.oracle", "sglap.tangent"}
        assert not run("spectrum", "--level", "2") & checks
        assert not run("eval", "--seed", "six:2:1", "--level", "2", "--verify") & checks
        assert "decimal" not in sys.modules
        run("tangent", "--seed", "six:1:1", "--word", ":0", "--verify")
        assert "decimal" in sys.modules
    """
    # the inertia counts run on Python floats, on no cells of the level and
    # without the tangent layers, dataclasses or decimal
    spectrum_verify = """
        for level in ("2", "8"):
            assert run("spectrum", "--level", level, "--verify") == base | {
                "sglap.decimation", "sglap.oracle"}
        assert "dataclasses" not in sys.modules and "decimal" not in sys.modules
    """
    tangent = """
        closed_form = base | {"sglap.decimation", "sglap.address", "sglap.harmonic",
                              "sglap.tangent"}
        seeds = ("free:7.3:1,-2,3", "six:3:1", "six:3:12:+-+")
        for verify, loaded in (((), closed_form), (("--verify",), closed_form | {"sglap.oracle"})):
            for seed in seeds:
                for word in (":0", "0121:2"):
                    assert run("tangent", "--seed", seed, "--word", word, *verify) == loaded
                    # the closed form runs in decimal, with --verify or without
                    assert "decimal" in sys.modules
        assert "numpy" not in sys.modules and "dataclasses" not in sys.modules
        assert "heapq" not in sys.modules
    """
    # eval runs on Python floats, point by point, and walks no level graph;
    # --verify reads its values back and sums its residual on them too
    evaluate = """
        for verify in ((), ("--verify",)):
            for fmt in ("csv", "json", "obj"):
                for seed in ("free:7.3:1,-2,3", "six:3:12:+-+", "six:8:1"):
                    assert run("eval", "--seed", seed, "--level", "8", "--format", fmt,
                               *verify) == base | {"sglap.decimation", "sglap.address",
                                                   "sglap.harmonic", "sglap.mesh"}
        assert "numpy" not in sys.modules and "decimal" not in sys.modules
        assert "dataclasses" not in sys.modules and "heapq" not in sys.modules
    """
    # no subcommand loads numpy, with or without --verify
    no_numpy = """
        run("spectrum", "--level", "6", "--verify", "--series", "five", "--format", "json")
        run("eval", "--seed", "six:2:1", "--level", "3", "--format", "obj", "--verify")
        run("tangent", "--seed", "six:1:1", "--word", "01:2", "--verify")
        run("special", "--fn", "psi", "--range=0:1:3")
        assert "numpy" not in sys.modules
    """
    for script in [spectrum, tangent, spectrum_verify, others, evaluate, no_numpy]:
        proc = subprocess.run([sys.executable, "-c", prelude + script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (script, proc.stderr)
        assert proc.stdout == proc.stderr == ""


@pytest.mark.parametrize("argv, lines", [
    (["spectrum", "--level", "10"], 1),
    (["eval", "--seed", "six:2:1", "--level", "8"], 1),
    (["special", "--fn", "psi", "--range=1:2:100000"], 1),
    # one row fits in the pipe whole, so its reader is gone before it is written
    (["tangent", "--seed", "six:1:1", "--word", ":0"], 0),
], ids=lambda a: a[0] if isinstance(a, list) else None)
def test_closed_stdout_exits_two(argv, lines):
    proc = subprocess.Popen([sys.executable, "-m", "sglap.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, "usage error: cannot write to stdout: Broken pipe\n")


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--level", "99"], 3),
    (["eval", "--seed", "bogus", "--level", "2"], 2),
    (["eval", "--seed", "six:2:3", "--level", "2", "--verify", "--verify-tol", "-1"], 4),
], ids=["domain", "usage", "verify"])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # the one-line message cannot be written, and the exit code is all
    # that tells; a print that raised made every such run exit 1
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "sglap.cli", *argv],
                              stdout=subprocess.DEVNULL, stderr=write, timeout=30)
    finally:
        os.close(write)
    assert proc.returncode == code


# sha256 of `special` stdout, pinned from the per-point scalar loops: a
# workload-sized grid in both formats, out-of-domain rows, out-of-domain
# tail factors, and a small Psi grid, pinned under --tol=1e-300 while
# `special` had a --tol, which Psi never read.  The Upsilon entries were re-pinned when Upsilon became tau along its own
# sequence; against a 50-digit mpmath Upsilon their worst relative error
# went 1.1e-13 -> 7.2e-15 (-12.3:14.2:2000) and 5.1e-14 -> 4.0e-15
# (-1e4:1e4:101).  Every entry was re-pinned when the error column became a
# bound, and again when Psi became g's Taylor series: against a 50-digit
# Psi the worst absolute error went 2.5e-13 -> 4.9e-15 (-12.3:14.2:2000)
# and 1.5e-11 -> 6.0e-13 (-150:150:601), and
# Upsilon's 2.2e-14 -> 6.9e-15 and 3.8e-16 -> 1.1e-16.  The Upsilon entries
# were re-pinned when the tail became P's series: against a 50-digit
# Upsilon the worst error relative to max(1, |Upsilon|) went 2.7e-15 ->
# 1.5e-15 (-12.3:14.2:2000) and 1.1e-16 -> 2.0e-17 (-1e4:1e4:101)
SPECIAL_GOLDEN_SHA256 = {
    ("--fn", "psi", "--range=-12.3:14.2:2000", "--format", "csv"):
        "9de208d1318eec0ec015d3182b080fe232a432299d36e186f38ee9f9af87feed",
    ("--fn", "psi", "--range=-12.3:14.2:2000", "--format", "json"):
        "c72d240bb921c3ed0e96fa66abc460adba89874b7267c73ab984006c845d7551",
    ("--fn", "upsilon", "--range=-12.3:14.2:2000", "--format", "csv"):
        "76043d0b19c0179702ce5b5c92a4bc06df72e9c615b420483ede605e2f8f6640",
    ("--fn", "upsilon", "--range=-12.3:14.2:2000", "--format", "json"):
        "c4a4c1881807b53a3d91e17cb087417f23d935caf9b427d74e9bce16b87608e5",
    ("--fn", "psi", "--range=-150:150:601"):
        "8fd5b73d1a9752ab3cd3367d8c6d477bc577d148bf2feee03abeed6156f319f1",
    ("--fn", "upsilon", "--range=-1e4:1e4:101"):
        "9038586a616865fbc9864dcaa6061963bfa1716fdd4611b72265fdbfab17bc42",
    ("--fn", "psi", "--range=1:2:5"):
        "5f5504505504a8978a8b8304ccaee2c828298b0bca331a687df6bf6c3051455a",
}


@pytest.mark.parametrize("args", list(SPECIAL_GOLDEN_SHA256), ids=" ".join)
def test_special_golden_bytes(args, capsys):
    code, out, err = run(["special", *args], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECIAL_GOLDEN_SHA256[args]


@pytest.mark.parametrize("fn", ["psi", "upsilon"])
def test_special_default_tol_errors_are_finite_across_the_pole(fn, capsys):
    # the benchmark's grids: 2000 points over [-50, 60], across Upsilon's
    # pole at 16.816.  No converged row's error is inf, which a benchmark
    # check counts as wrong output
    code, out, err = run(["special", "--fn", fn, "--range=-50:60:2000"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    value, error, note = header.index("value"), header.index("error"), header.index("note")
    converged = [row for row in rows if row[note] == ""]
    assert len(converged) == 2000
    assert all(math.isfinite(float(row[value])) and math.isfinite(float(row[error]))
               for row in converged)


def test_special_audit_of_an_overflowing_5z_is_skipped(capsys):
    # 5 * 1e308 overflows; the row is out of the domain, with no warning
    code, out, err = run(["special", "--fn", "psi", "--range=1e308:1e308:2"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [r[-1] for r in rows] == ["argument 1e+308 outside the validated region |z| <= 100"] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_rows_match_generic_writers(fmt, capsys):
    seed, level = "free:-7.25:0.1,-2,1e-05", 4
    code, out, _ = run(["eval", "--seed", seed, "--level", str(level), "--format", fmt], capsys)
    assert code == 0
    values = dense_values(cli.parse_seed(seed), level)
    keys = level_keys(level)
    points = key_coords(keys, level)
    rows = [[format_address(*resolve_addresses(tuple(key), level)[0]), level, float(x), float(y),
             float(v)] for key, (x, y), v in zip(keys.tolist(), points, values)]
    assert out == REFERENCE_WRITERS[fmt](["address", "level", "x", "y", "value"], rows)


def test_eval_non_finite_values_exit_three_with_empty_stdout(capsys):
    code, out, err = run(["eval", "--seed", "free:-1e9:1,0,0", "--level", "2"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_non_finite_guard_exits_three_with_empty_stdout(monkeypatch, capsys):
    # no known seed reaches the guard (free: lambdas this large stop in
    # sequence_from_limit), so the walk hands it a NaN, in the last vertex
    original = mesh.walk

    def walk(u, m):
        for part in original(u, m):
            part[-1] = math.nan
            yield part

    monkeypatch.setattr(mesh, "walk", walk)
    code, out, err = run(["eval", "--seed", "two:1:1", "--level", "3"], capsys)
    assert code == 3 and out == ""
    assert err == "error: seed 'two:1:1' gives non-finite values on V_3\n"


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


# an empty --output names no file, and the current directory it resolves
# to cannot be written: it is refused, not read as stdout
@pytest.mark.parametrize("argv", [
    ["spectrum", "--level", "2"],
    ["eval", "--seed", "two:1:1", "--level", "2"],
    ["tangent", "--seed", "six:1:1", "--word", "0:1"],
    ["special", "--fn", "psi", "--range=0:1:3"],
])
@pytest.mark.parametrize("empty", [["--output", ""], ["--output="]])
def test_empty_output_exits_two(argv, empty, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = _assert_exit(2, [*argv, *empty], capsys)
    assert err == "usage error: cannot write '': Is a directory\n"
    assert os.listdir(tmp_path) == []


def test_a_range_of_no_points_exits_two(capsys):
    err = _assert_exit(2, ["special", "--fn", "psi", "--range=0:1:0"], capsys)
    assert err == "usage error: range needs at least one point, got 0\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_that_fails_after_the_open_exits_two(capsys):
    # /dev/full opens, and the write fails when the file is flushed
    err = _assert_exit(2, ["spectrum", "--level", "2", "--output", "/dev/full"], capsys)
    assert err == "usage error: cannot write '/dev/full': No space left on device\n"


def test_malformed_word_exits_two(capsys):
    code, out, err = run(["tangent", "--seed", "six:1:1", "--word", "abc"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


def test_eval_level0_verify_has_no_interior_to_check(capsys):
    # V_0 is the three corners: the eigen-equation residual is over no vertex
    code, out, err = run(["eval", "--seed", "free:3.1:1,2,3", "--level", "0", "--verify"], capsys)
    assert code == 0 and err == ""
    assert len(parse_csv(out)[1]) == 3


# superscript two, and a fullwidth one that int() would read as 1
@pytest.mark.parametrize("word", ["\u00b2:1", "0\u00b2:1", ":\u00b2", "1:\uff11"])
def test_non_ascii_digit_words_exit_two(word, capsys):
    code, out, err = run(["tangent", "--seed", "two:1:1", "--word", word], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


# float and int skip whitespace around a number and read digits of any
# script: the first seed broke the obj header over two lines, the second
# ended in a UnicodeEncodeError on an ASCII stdout, the third read m0 = 2
@pytest.mark.parametrize("seed", ["free:3\n:1,1,1", "free:٣:1,1,1", "six:٢:1"])
def test_seeds_outside_printable_ascii_exit_two(seed):
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "eval", "--seed", seed,
                           "--level", "1", "--format", "obj", "--verify"],
                          env={**os.environ, "PYTHONIOENCODING": "ascii"},
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error: seed must be printable ASCII")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("seed", ["free:1e300:1,2,3", "free:1e15:1,2,3"])
def test_overflowing_free_seed_tangent_exits_three(seed, capsys):
    code, out, err = run(["tangent", "--seed", seed, "--word", ":0"], capsys)
    assert code == 3 and out == ""
    assert "no finite generating sequence" in err and err.count("\n") == 1


@pytest.mark.parametrize("seed, word", [
    # t2 is past the float range (and t1 too in the second); the check comes
    # before the direct limit, whose deviation inf - inf = NaN would pass
    # --verify, since nan >= tol is False
    ("free:7.3:1e308,-1e308,1e308", ":0"),
    ("free:7.3:1e308,1e308,1e308", "0122:1"),
], ids=["free-nan", "free-overflow"])
@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_tangent_past_the_float_range_exits_three_with_empty_stdout(seed, word, verify, capsys):
    code, out, err = run(["tangent", "--seed", seed, "--word", word, *verify], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: seed {seed!r} gives a non-finite tangent at {word}\n"


# The row of `tangent --seed S --word W` past 440 prefix letters, after its
# word and k columns, where the float closed form overflowed (a NaN from the
# pullback, or 5.0**446 in M0) and exited 3.  Each equals the floats of the
# direct limit at depth k + 60 in 0.7 (k + 60) + 60 digits, g formed before
# rounding
LONG_PREFIX_TANGENTS = {
    ("two:1:1", "0" * 450 + "1:2"): ("0.0,2.3045206060973604,2.3045206060973604,"
                                     "-1.5363470707315736,0.7681735353657868,0.7681735353657868"),
    ("free:7.3:1,2,3", "0" * 450 + "1:2"): ("1.0,5.76027895195413,7.049526499574197,"
                                            "-3.603268483842776,1.1570104681113544,"
                                            "2.4462580157314213"),
    ("free:1e6:1,2,3", "0" * 445 + "1:2"): ("1.0,-140.1096770531585,-140.1096770531585,"
                                            "94.07311803543898,-47.03655901771949,"
                                            "-47.03655901771949"),
}


@pytest.mark.parametrize("seed, word", list(LONG_PREFIX_TANGENTS), ids=["two", "free", "free-1e6"])
def test_tangent_past_440_prefix_letters_is_the_direct_limit(seed, word, capsys):
    code, out, err = run(["tangent", "--seed", seed, "--word", word], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"{word},{word.index(':')},{LONG_PREFIX_TANGENTS[seed, word]}"


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_tangent_self_check_takes_a_neighbouring_float_and_no_farther(steps, monkeypatch,
                                                                       capsys):
    # the run 20 digits higher prints if each of its floats is the lower
    # run's or its neighbour; two floats apart exits 3 with one line
    from sglap import tangent

    high = ((1.0, 2.0, 3.0), (-1.0, 0.0, 1.0))
    low = high[0], (-1.0, 0.0, 1.0 + steps * math.ulp(1.0))
    runs = iter([low, high])
    monkeypatch.setattr(tangent, "_rounded", lambda u, w, k, digits: next(runs))
    code, out, err = run(["tangent", "--seed", "free:7.3:1,2,3", "--word", ":0"], capsys)
    if steps < 2:
        assert (code, err) == (0, "") and out.splitlines()[1] == ":0,0,1.0,2.0,3.0,-1.0,0.0,1.0"
    else:
        assert (code, out) == (3, "")
        assert err == "error: the tangent at :0 differs between 46 and 66 significant digits\n"


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


def test_special_count_past_the_float_range_exits_two(capsys):
    # a point divides by n - 1, which no float holds; this used to be a traceback
    code, out, err = run(["special", "--fn", "psi", "--range=1:2:" + "1" * 400], capsys)
    assert code == 2 and out == ""
    assert "int too large to convert to float" in err and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_special_non_finite_or_non_positive_tol_exits_two(tol, capsys):
    # special takes no --tol, whatever its value: Psi and Upsilon are fixed
    # sums, and the option is argparse's one-line refusal
    for fn in ("psi", "upsilon"):
        code, out, err = run(["special", "--fn", fn, "--range=0:1:3", f"--tol={tol}"], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: unrecognized arguments: --tol={tol}\n"


@pytest.mark.parametrize("command", [
    ["spectrum", "--level", "2", "--verify"],
    ["eval", "--seed", "six:1:1", "--level", "2", "--verify"],
    ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify"],
])
def test_nan_verify_tol_exits_two(command, capsys):
    code, out, err = run(command + ["--verify-tol", "nan"], capsys)
    assert code == 2 and out == ""
    assert "NaN" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    # level 0 has no interior vertex, so its worst residual is 0.0, not below 0
    ["spectrum", "--level", "0", "--verify"],
    ["spectrum", "--level", "2", "--verify"],
    ["eval", "--seed", "free:3.1:1,2,3", "--level", "0", "--verify"],
    ["tangent", "--seed", "six:1:1", "--word", ":0", "--verify"],
], ids=["spectrum-L0", "spectrum-L2", "eval-L0", "tangent"])
def test_verify_tol_zero_fails(command, capsys):
    # every check passes only below its tolerance, and no figure is below 0
    code, _, err = run(command + ["--verify-tol", "0"], capsys)
    assert code == 4
    assert err.startswith("verification failed: ") and err.count("\n") == 1


def test_spectrum_verify_at_the_dense_cap():
    # a fresh process, so that any warning would reach the real stderr
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "spectrum", "--level", "6",
                           "--verify"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    _, rows = parse_csv(proc.stdout)
    assert sum(int(r[5]) for r in rows) == (3**7 - 3) // 2
    assert max(float(r[-1]) for r in rows) < 1e-9


def test_spectrum_verify_above_the_former_dense_cap(capsys):
    # level 7 and up exited 3 ("dense solves are capped at level 6")
    code, out, err = run(["spectrum", "--level", "8", "--verify"], capsys)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert header[6] == "residual" and len(rows) == 447
    assert max(float(r[6]) for r in rows) < 1e-9
    assert "".join(",".join(r[:6]) + "\n" for r in [header[:6], *rows]) == \
        run(["spectrum", "--level", "8"], capsys)[1]


_SPECTRUM_AT_THE_CAP = """if True:
    import sys
    from sglap import cli
    code = cli.main(["spectrum", "--level", "12", "--verify"])
    sys.stdout.flush()
    assert "numpy" not in sys.modules
    sys.exit(code)
"""


def test_spectrum_verify_at_the_level_cap_in_a_fresh_process(monkeypatch):
    monkeypatch.delenv("SG_MAX_LEVEL", raising=False)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SPECTRUM_AT_THE_CAP],
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    _, rows = parse_csv(proc.stdout)
    assert sum(int(r[5]) for r in rows) == (3**13 - 3) // 2
    assert max(float(r[6]) for r in rows) < 1e-9
    assert elapsed < 1.0


def _spectrum_verify_with(monkeypatch, capsys, level, change):
    """`spectrum --verify` at `level` on the lines that change(lines)
    gives: (exit code, csv rows, stderr)."""
    from sglap import decimation

    enumerate_lines = decimation.enumerate_dirichlet_spectrum
    monkeypatch.setattr(decimation, "enumerate_dirichlet_spectrum",
                        lambda *args: change(list(enumerate_lines(*args))))
    code, out, err = run(["spectrum", "--level", str(level), "--verify"], capsys)
    return code, parse_csv(out)[1], err


@pytest.mark.parametrize("e", [1e-8, -1e-8])
def test_spectrum_verify_fails_a_planted_eigenvalue_error(e, monkeypatch, capsys):
    # every line of L4 with |lambda_m| >= 1, moved by e relative
    lines = list(enumerate_dirichlet_spectrum(4))
    planted = [i for i, line in enumerate(lines) if abs(line.value) >= 1.0]
    assert len(planted) > 10
    for i in planted:
        lam = lines[i].value * (1.0 + e)

        def plant(got):
            return [*got[:i], got[i]._replace(value=lam), *got[i + 1:]]

        code, rows, err = _spectrum_verify_with(monkeypatch, capsys, 4, plant)
        assert code == 4 and err.startswith("verification failed: widest eigenvalue bracket")
        floor = 2.0**-53 * (abs(lam) + abs(4.0 - lam))
        assert float(rows[i][6]) >= abs(e * lines[i].value) - floor, lines[i]


@pytest.mark.parametrize("change", [
    lambda lines: lines[:5] + lines[6:],
    lambda lines: lines[:-1],
    lambda lines: lines[1:],
    lambda lines: [*lines[:3], lines[3]._replace(multiplicity=lines[3].multiplicity + 1),
                   *lines[4:]],
    lambda lines: [*lines[:-1], lines[-1]._replace(multiplicity=lines[-1].multiplicity - 1)],
], ids=["dropped", "dropped-last", "dropped-first", "one-more", "one-less"])
def test_spectrum_verify_fails_a_dropped_line_or_a_wrong_multiplicity(change, monkeypatch,
                                                                      capsys):
    # the figure is sys.float_info.max: no bracket below the gap to the
    # neighbouring lines, or multiplicities that miss eigenvalues above the
    # last line
    from sglap import oracle

    shifts, count = [], oracle.dirichlet_count
    monkeypatch.setattr(oracle, "dirichlet_count", lambda x, level: shifts.append(x) or
                        count(x, level))
    code, rows, err = _spectrum_verify_with(monkeypatch, capsys, 4, change)
    assert (code, err) == (4, "verification failed: widest eigenvalue bracket "
                              "1.798e+308 >= 1.000e-09\n")
    assert all(math.isfinite(float(field)) for row in rows for field in row[3:])
    # a bracket grows no wider than the gap to a neighbouring line, which is
    # below 6 at L4, so that a failing check stops early
    assert shifts and max(map(abs, shifts)) < 12.0


@pytest.mark.parametrize("seed, level", [("free:3:1e308,1e308,1e308", 3),
                                         ("free:3:1e308,-1e308,1e308", 5)])
def test_eval_verify_takes_values_near_the_float_maximum(seed, level, capsys):
    # the residual's cell sums overflowed here: three RuntimeWarnings, a nan
    # residual and exit 4, for values that eval writes with exit 0.  Scaled
    # by a power of 2 first, the residual reads 8.4e-16 to 1.3e-15.  A fresh
    # process, so that numpy warnings would reach the real stderr
    argv = ["eval", "--seed", seed, "--level", str(level)]
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", *argv, "--verify"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(argv, capsys)[1]
    u = cli.parse_seed(seed)
    assert eigen_residual(cells(level), values_on_level(u, level), u.sequence.value(level)) < 1e-14


@pytest.mark.parametrize("command, start", [
    # special takes no --tol: argparse refuses the option and its value
    (["special", "--fn", "psi", "--range=0:1:3", "--tol", "-1e-9"],
     "usage error: unrecognized arguments: --tol -1e-9"),
    # argparse reads a negative number in scientific notation as a flag
    (["tangent", "--seed", "six:1:1", "--word", ":0", "--verify", "--verify-tol", "-1e-9"],
     "usage error: argument --verify-tol: "),
    (["eval", "--seed", "six:1:1", "--level", "abc"], "usage error: argument --level: "),
    (["spectrum", "--series", "seven"], "usage error: argument --series: "),
], ids=["special-tol", "tangent-verify-tol", "eval-level", "spectrum-series"])
def test_argparse_errors_are_one_line(command, start, capsys):
    code, out, err = run(command, capsys)
    assert code == 2 and out == ""
    assert err.startswith(start) and err.count("\n") == 1


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # the sh block under README's "## CLI", run in tmp_path, where its
    # --output file lands
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sglap ")]
    assert len(examples) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert run(argv, capsys)[::2] == (0, ""), argv


def test_readme_states_the_block_size():
    # README states the block size where it describes the table writer,
    # special's grid and eval's parts, so a change to the constant must
    # bring the prose along
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"blocks of (?:at most )?(\d+) (?:rows|points)", text)
    assert len(stated) == 3
    assert set(stated) == {str(cli.BLOCK_ROWS)}


# the README lines that may state a run-time figure, each by a phrase that
# holds the figure, with the test that checks it; measurements belong in
# CHANGES.md and the BENCH_*.json files, where no later change rewrites them
README_FIGURES = {
    "in a 64 MB address space": "test_eval_runs_in_a_64_mb_address_space",
}
# a number followed by MB, KB, ms or s
_RUN_TIME_FIGURE = re.compile(r"\d\s?(?:[MK]B|m?s)\b")


def test_readme_figures_are_checked():
    root = Path(__file__).parents[1]
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    stated = [line for line in lines if _RUN_TIME_FIGURE.search(line)]
    assert [line for line in stated if not any(phrase in line for phrase in README_FIGURES)] == []
    tests = "".join(path.read_text(encoding="utf-8") for path in root.glob("tests/test_*.py"))
    for phrase, test in README_FIGURES.items():
        # an entry whose line is gone is dropped, and its test must exist
        assert any(phrase in line for line in stated), phrase
        assert f"\ndef {test}(" in tests, test


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["special", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sglap special")


# mostly well-formed input, so that about half the examples reach the kernel
_finite_numbers = st.one_of(st.floats(-200.0, 200.0), st.floats(-1e4, 1e4)).map(repr)
_numbers = st.one_of(_finite_numbers, _finite_numbers, _finite_numbers, st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "abc", "", "5e-324", "1e-300", "0",
     "-1e-9"]))
_counts = st.one_of(st.integers(1, 40).map(str), st.integers(1, 40).map(str),
                    st.sampled_from(["0", "-2", "x", "2.5", ""]))
_ranges = st.one_of(st.builds(lambda a, b, n: f"{a}:{b}:{n}", _numbers, _numbers, _counts),
                    st.sampled_from(["", "1:2", "1:2:3:4", "::"]))
# every way a special row can fail names itself in its note
FAILURE_NOTE = re.compile("has a pole|outside")


def _finite(field) -> bool:
    try:
        return math.isfinite(float(field))
    except (TypeError, ValueError):
        return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["psi", "upsilon"] * 4 + ["tau"]), _ranges,
       st.sampled_from(["csv", "json"] * 4 + ["obj"]))
def test_special_grammar_fuzz(fn, grid, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["special", "--fn", fn, f"--range={grid}", "--format", fmt])
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
            assert FAILURE_NOTE.search(record["note"]) and record["value"] in ("", None)
            continue
        assert _finite(record["value"]) and _finite(record["error"])
        assert record.get("functional_eq") in ("", None) or _finite(record["functional_eq"])


_series_seeds = st.builds(
    lambda name, m0, index, branches: f"{name}:{m0}:{index}" + branches,
    st.sampled_from(["two", "five", "six", "six", "seven", ""]), st.integers(-1, 4),
    st.integers(-1, 15),
    st.one_of(st.just(""), st.text("+-", max_size=5).map(":".__add__),
              st.text("+-x\u00b2 ", max_size=3).map(":".__add__),
              # a long minus run before a plus: the tail products wait for the
              # plus, and a plus root near 5 can be taken as singular (exit 3)
              st.integers(15, 40).map(lambda n: ":" + "-" * n + "+")))
_free_seeds = st.builds(
    lambda lam, values: f"free:{lam}:{values}",
    st.one_of(st.sampled_from(["0", "1e-320", "-1e-320", "1e12", "-1e12", "1e300", "-1e300"]),
              st.floats(-50.0, 50.0).map(repr)),
    st.sampled_from(["1,2,3", "0,0,1", "0.5,-1,2"]))
_word_letters = st.sampled_from(list("012" * 4 + "3") + ["\u00b2", "\uff11", "\u0661"])
# long prefixes, random or a run of one letter, overflow the closed form's
# pullback, which must exit 3 and not print NaN
_long_prefixes = st.one_of(
    st.lists(st.sampled_from("012"), min_size=100, max_size=500),
    st.builds(lambda letter, n, rest: letter * n + "".join(rest), st.sampled_from("012"),
              st.integers(100, 500), st.lists(st.sampled_from("012"), max_size=4)))
_words = st.builds(
    lambda prefix, tail: "".join(prefix) + ":" + tail,
    st.one_of(st.lists(_word_letters, max_size=4), st.lists(_word_letters, max_size=4),
              _long_prefixes),
    st.one_of(st.sampled_from(list("012") * 3), st.just(""),
              st.text(st.sampled_from(list("012") + ["\u00b2", "x"]), min_size=2, max_size=2)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_series_seeds, _free_seeds, _free_seeds), _words, st.booleans())
def test_tangent_grammar_fuzz(seed, word, verify):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tangent", "--seed", seed, "--word", word, *(["--verify"] * verify)])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if code != 0:
        return
    [record] = csv.DictReader(io.StringIO(out.getvalue()))
    assert record.pop("word") and len(record) == (12 if verify else 7)
    assert all(_finite(field) for field in record.values())


# Right tangents that exited 4 while the oracle stopped at depth 25 in 50
# digits, whatever the word, each with the deviation it then reported
@pytest.mark.parametrize("seed, word", [
    ("six:3:9:+-+", "111111:2"),  # 9.7e-6
    ("five:2:3:-+-+", "121212:0"),  # 2.4e-5
    ("two:1:1:--------------------+", ":1"),  # 9.2e12, of a tangent near 1.2e15
    ("free:7:1,2,3", "0101010101010101010101010101:1"),  # 4.8e-3
    ("two:1:1", "0210012120201102210120110212012010212102:1"),  # 4.2e-6
])
def test_tangent_verify_iterates_past_the_cut_and_the_last_plus(seed, word, capsys):
    code, _, err = run(["tangent", "--seed", seed, "--word", word, "--verify"], capsys)
    assert (code, err) == (0, "")


_verify_seeds = st.one_of(
    st.builds(_eval_seed, st.sampled_from(_EVAL_SERIES), st.integers(0, 11),
              st.text("+-", max_size=30)).map(lambda seed: seed[0]),
    st.builds(lambda sign, e, values: f"free:{sign * 10.0 ** e!r}:{values}",
              st.sampled_from([1, -1]), st.floats(-9.0, 5.0),
              st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(
                  lambda v: ",".join(map(str, v)))))


@settings(max_examples=150, deadline=None)
@given(_verify_seeds, st.text("012", max_size=40), st.sampled_from("012"))
def test_tangent_verify_passes_on_series_and_free_seeds_and_long_prefixes(seed, prefix, tail):
    # with the oracle stopped at depth 25 in 50 digits, about half of such
    # draws exited 4
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tangent", "--seed", seed, "--word", f"{prefix}:{tail}", "--verify"])
    assert (code, err.getvalue()) == (0, "")


# --- table writer -------------------------------------------------------------

_text = st.text(st.one_of(st.sampled_from(list(',"\\%\r\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600 ')),
                          st.characters()), max_size=8)
_cells = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-5, math.inf, -math.inf, math.nan]),
    st.integers(-10**20, 10**20), st.booleans(), st.none(), _text)


@st.composite
def _tables(draw):
    columns = draw(st.lists(_text, min_size=1, max_size=4, unique=True))
    width = len(columns)
    return columns, draw(st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=9))


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


_SPECTRUM_COLUMNS = ["series", "m0", "branches", "lambda_m", "lambda", "multiplicity"]


@settings(max_examples=300, deadline=None)
@given(_tables(), st.one_of(st.integers(1, 4), st.just(256)), st.sampled_from(["csv", "json"]))
# the json branch cuts the encoder's text at "]\x1f[" and "\x1f", which a
# string cell or a column name spells as escapes
@example((["a", "b"], [["]\x1f[", "\x1f"], ["\x1f", "]\x1f["]]), 256, "json")
@example((["%s\x1f"], [["x"], [None]]), 1, "json")
@example((_SPECTRUM_COLUMNS, [*enumerate_dirichlet_spectrum(2)]), 2, "json")
@example((["f", "i", "s"], [[_Float(0.1), _Int(3), _Str("x")]]), 256, "json")
@example((["f", "i", "s"], [[_Float(0.1), _Int(3), _Str("x")]]), 256, "csv")
def test_table_blocks_equal_the_reference_writers(table, block_rows, fmt):
    columns, rows = table
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        blocks = list(cli._table_blocks(fmt, columns, iter(rows)))
    assert "".join(blocks) == REFERENCE_WRITERS[fmt](columns, rows)
    # one block per BLOCK_ROWS rows, and one for the csv header or json footer
    assert len(blocks) == -(-len(rows) // block_rows) + 1


@pytest.mark.parametrize("cell", [np.int64(3), b"bytes", [1.0], (1.0,), {"a": 1.0}],
                         ids=["int64", "bytes", "list", "tuple", "dict"])
def test_table_blocks_reject_other_cell_types(cell):
    # no numpy value reaches a table: a json cell that is not a str, int,
    # float, bool or None is a bug, and raises instead of being converted
    # (json's encoder would nest a list, tuple or dict)
    with pytest.raises(TypeError, match="a table cell must be"):
        list(cli._table_blocks("json", ["c"], [[cell]]))


# sha256 of `spectrum --level m` stdout, recorded from the json.dumps and
# csv.writer-per-row writers that cli._table_blocks replaced, and re-pinned
# at levels 1-10 when the lambda column became 1.5 * 5^t * Phi(lambda_t)
SPECTRUM_LEVEL_SHA256 = {
    (0, "csv"): "d043b44a34eda3c326e89e8497475e5f0628261e75b2a8d80b0908cd07a5833c",
    (1, "csv"): "bc5fc1b149a2ed90a3c8ebe54412d38bbf1385e0251ad9a6755762ee59bcee93",
    (2, "csv"): "ec79da45154fa4836b233b45fb9411debae92e3d9acada618af0242ef0bd73bb",
    (3, "csv"): "339ea1d90b867c738151587439859d43e0502b4fd2897d24201cfec0e57bf246",
    (4, "csv"): "80b487e455cf9070ec0793e67782882030c75ccbc547c3e2b26d72db93c72c32",
    (5, "csv"): "ed027b10a8bb04d7fef7374cf8c77c828c12ac774c9044bee0c41da230e4d530",
    (6, "csv"): "14f650b2530cde5a9ea821ab2ffdd16731767ad52c745ead2d85d0bc78e92f1a",
    (7, "csv"): "ac4bea9b2cfe9f5f0c5093c72ff512d4b75f23d78c5732e95a59e292ae61fc5a",
    (8, "csv"): "81047f246c9d8e9e61629362e5afabbd526ac4461f26252c5f312485badb2725",
    (9, "csv"): "50264fe7d25d05cc3a5d5d4c3cc78adedb489611b57e549955883b03226b6594",
    (10, "csv"): "aa29018d3725830f8cb4667310beae4e62747fa754315a0ffd31aaca8c24add2",
    (0, "json"): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (1, "json"): "3908951e6782e45b289b92a558cccf03e388863816a8433aeac817170f9884e9",
    (2, "json"): "3fffc9a380b6f9bc362dc18a7efb65d9743809832ae6cee231261a3438bc989f",
    (3, "json"): "f4767eea487313c440c69dfe567ef1e5e8b6fe0967f8aa273b7932162c698f4d",
    (4, "json"): "b159e1be5926d8505de208dfca3a8cda9d90075993f8320da81fe587dc661c01",
    (5, "json"): "66413bac56f885a7769b3f982fef0c2b7f1b8825950fe1da893069f4c03930b7",
    (6, "json"): "258ef2daf41326a971ef34e2b9521554fe143250c6140b5a5819f8ee31b0e2e5",
    (7, "json"): "6c8b94f683e7c7a01a2fa87269673e78acd852f96ff84311a85d849db0c16342",
    (8, "json"): "4bdfeacedd435167eac116d4fb6de5a06e3fa020e79fa2383393835f52a9eb22",
    (9, "json"): "a711e5ea8f342c193f454a6b0eb54c627fed8c1bb91916f4629a47b8cfa5cc8f",
    (10, "json"): "5a38d96b710d42bd540fa993f8d618a4ce438e95b8c22f5fe5d7fc1c0982f0d9",
}


@pytest.mark.parametrize("level, fmt", list(SPECTRUM_LEVEL_SHA256))
def test_spectrum_golden_bytes_at_every_level(level, fmt, capsys):
    code, out, err = run(["spectrum", "--level", str(level), "--format", fmt], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_LEVEL_SHA256[level, fmt]


def test_import_loads_no_csv_json_or_dataclasses():
    # a fresh process; the formats import what they write with
    script = ("import sys, sglap.cli; "
              "print(sorted({'csv', 'json', 'dataclasses'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("fn, spec", [("psi", "-150:150"), ("upsilon", "-1e4:1e4")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_special_blocks_equal_one_whole_grid_table(fn, spec, fmt, capsys):
    # three full blocks and a partial one, failed rows included
    n = 3 * cli.BLOCK_ROWS + 5
    code, out, err = run(["special", "--fn", fn, f"--range={spec}:{n}", "--format", fmt], capsys)
    assert code == 0 and err == ""
    columns = ["z", "value", "error", *["functional_eq"] * (fn == "psi"), "note"]
    # the same rows written as one whole table
    rows = list(cli._special_rows(fn, cli.parse_range(f"{spec}:{n}")))
    assert any(row[-1] for row in rows) and not all(row[-1] for row in rows)
    assert out == REFERENCE_WRITERS[fmt](columns, rows)


def _special_peak(fn, n):
    args = cli.build_parser().parse_args(["special", "--fn", fn, f"--range=-60:60:{n}",
                                          "--format", "json"])
    # a first run, untraced, fills the interpreter's tuple freelist, whose
    # entries tracemalloc counts as held: up to 2000 of a size, 160 KB of
    # 5-tuples for these rows
    with contextlib.redirect_stdout(_Sink()):
        assert cli.cmd_special(args) == 0
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.cmd_special(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > n * 40
    return peak


@pytest.mark.parametrize("fn", ["psi", "upsilon"])
def test_special_memory_does_not_grow_with_the_grid(fn):
    # 10x the points, 4 and 40 blocks; the grid and the text are one block.
    # The blocks are 50 rows, since tracemalloc traces every new Python
    # float and a point makes hundreds (4,000 and 40,000 points in 1024-row
    # blocks took 74 s on a 2-CPU host)
    with mock.patch.object(cli, "BLOCK_ROWS", 50):
        assert _special_peak(fn, 2_000) <= 1.5 * _special_peak(fn, 200)


def test_special_huge_grid_starts_without_building_the_grid():
    # the first block of a 10^8-point grid; the rest is never computed
    grid = cli.parse_range("1:2:100000000")
    assert grid == (1.0, 2.0, 100_000_000)
    blocks = cli._table_blocks("csv", ["z", "value", "error", "note"],
                               cli._special_rows("upsilon", grid))
    assert next(blocks) == "z,value,error,note\n"
    _, rows = parse_csv("\n" + next(blocks))
    assert [float(r[0]) for r in rows] == [1.0 + i / 99_999_999 for i in range(cli.BLOCK_ROWS)]


@pytest.mark.parametrize("lam", ["1e-320", "1e-318", "1e-315", "-3e-322"])
@pytest.mark.parametrize("word", [":0", "2:1", "012:1", "120012:2"])
def test_subnormal_lambda_tangent_is_the_harmonic_tangent(lam, word, capsys):
    harmonic = run(["tangent", "--seed", "free:0:1,2,3", "--word", word, "--verify"], capsys)
    assert harmonic[0] == 0
    assert run(["tangent", "--seed", f"free:{lam}:1,2,3", "--word", word, "--verify"],
               capsys) == harmonic
