"""Command-line surface: seed grammar, formats, determinism, exit codes."""
import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (level_vertices, resolve_addresses, seed_array, values_on_level,
                      vertex_value_walks, walk_stream, whole_level_residual)

from sglap import address, cli, harmonic
from sglap.address import (addresses, build_level_graph, format_address, key_coords,
                           subtree_walk)
from sglap.decimation import enumerate_dirichlet_spectrum, max_level
from sglap.harmonic import SpectralEigenfunction, eigen_residual
from sglap.errors import DomainError, LevelCapError, SglapError, UsageError


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
        return repr(float(value))  # shortest round-trip, numpy scalars included
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
    return json.dumps(records, indent=2, default=lambda o: o.item()) + "\n"


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
    monkeypatch.setenv("SG_MAX_LEVEL", "abc")
    assert _assert_exit(3, ["eval", "--seed", "two:1:1", "--level", "2"], capsys) == (
        "error: SG_MAX_LEVEL must be an integer, got 'abc'\n")


def test_max_level_outside_its_range_exits_three(monkeypatch, capsys):
    # 441 is the deepest level whose 1.5 * 5^j is a float; a larger cap let
    # `five:9100:1` overrun int-to-str limits in its seed line (exit 1)
    argv = ["eval", "--seed", "five:9100:1", "--level", "2"]
    for raw in ["99999", "442", "-1"]:
        monkeypatch.setenv("SG_MAX_LEVEL", raw)
        assert _assert_exit(3, argv, capsys) == (
            f"error: SG_MAX_LEVEL must be in 0..441, got '{raw}'\n")
    monkeypatch.setenv("SG_MAX_LEVEL", "441")
    assert max_level() == 441
    assert _assert_exit(3, argv, capsys) == (
        "error: level 9100 exceeds cap 441 (override with SG_MAX_LEVEL)\n")
    err = _assert_exit(3, ["eval", "--seed", "five:441:1", "--level", "2"], capsys)
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


@pytest.mark.parametrize("block_rows", [1, 1000])
@pytest.mark.parametrize("fmt", sorted(EVAL_GOLDEN_SHA256))
def test_eval_golden_bytes_across_block_seams(fmt, block_rows, monkeypatch, capsys):
    # the 3282 rows of the golden run take seven default blocks: the three
    # corners, then 1024 rows and the rest of each of the three copies of
    # V_6 after them; a block of 1 row puts a seam after every row, and 1000
    # rows move every seam inside a copy
    monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
    code, out, _ = run(["eval", "--seed", "five:2:3:+-+", "--level", "7", "--format", fmt,
                        "--verify"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_GOLDEN_SHA256[fmt]


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


def test_reprs_key_floats_by_bit_pattern():
    tiny = np.nextafter(1.0, 2.0)
    column = np.array([tiny, 0.0, -3.5, 5e-324, -0.0, 1.0, tiny, 0.0, -0.0, 2.5e-310, -3.5,
                       1.0, 5e-324])
    assert cli._reprs(column) == [repr(v) for v in column.tolist()]
    strided = np.stack([column, column[::-1]], axis=1)[:, 1]
    assert cli._reprs(strided) == [repr(v) for v in strided.tolist()]


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
            yield "".join([f"{s},{level},{a!r},{b!r},{c!r}\n"
                           for s, a, b, c in zip(addresses(names), x, y, v)])
        else:
            yield ("" if lo == 0 else ",\n") + ",\n".join(
                [f'  {{\n    "address": "{s}",\n    "level": {level},\n    "x": {a!r},\n'
                 f'    "y": {b!r},\n    "value": {c!r}\n  }}'
                 for s, a, b, c in zip(addresses(names), x, y, v)])
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
       st.sampled_from(["csv", "json", "obj"]), st.sampled_from([1, 7, 4096]))
def test_eval_blocks_equal_per_row_repr(seed_level_depth, fmt, block_rows):
    # the rows come from a walk of any depth, so that the seams between
    # subtrees and the rows of V_depth between them show below level 8
    (seed, level), depth = seed_level_depth
    graph = build_level_graph(level)
    values = values_on_level(cli.parse_seed(seed), level)
    args = argparse.Namespace(seed=seed, level=level, format=fmt)
    walk = address._subtree_walk(level, depth)
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        assert "".join(cli._eval_blocks(args, walk, walk_stream(walk, values))) == \
            "".join(_reference_eval_blocks(args, graph, values))


@pytest.mark.parametrize("level", range(13))
def test_lattice_reprs_equal_the_coordinate_reprs(level):
    # every vertex of V_0..V_12 (L12 takes about 0.7 s): its lattice lines'
    # strings are the per-row reprs of the vertices' key_coords
    x_table, y_table = cli._lattice_reprs(level)
    keys, _ = level_vertices(level)
    _, n1, n2 = keys.T
    x, y = key_coords(keys, level).T.tolist()
    assert x_table[2 * n1 + n2].tolist() == [repr(a) for a in x]
    assert y_table[n2].tolist() == [repr(b) for b in y]


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
        moved = SpectralEigenfunction(u.sequence, seed_array(u)[_d3_vertex_map(u.m0, p)])
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
        with mock.patch.object(address, "SUBTREE_LEVELS", levels):
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
    with mock.patch.object(address, "SUBTREE_LEVELS", levels):
        walk = subtree_walk(level)
        for back in [values, noisy]:
            assert eigen_residual(walk, back, lam) == whole_level_residual(graph, back, lam)


@pytest.mark.parametrize("level", range(11))
def test_subtree_faces_are_the_level_cells(level):
    cells = np.concatenate(list(subtree_walk(level).faces()))
    assert np.array_equal(cells, build_level_graph(level).cells)


def _tampered_eval(monkeypatch, tmp_path, capsys, tamper):
    """eval --level 6 --output with subtrees of V_5, one per 1-cell, where
    tamper(out, count) may change the count-th 243-row (level-6) triples of
    a subtree: exit 3, an empty stdout and no file."""
    count = itertools.count()

    def extend_level(cell_values, mats):
        out = original(cell_values, mats)
        if len(out) == 243:
            tamper(out, next(count))
        return out

    original = harmonic.extend_level
    monkeypatch.setattr(address, "SUBTREE_LEVELS", 5)
    monkeypatch.setattr(harmonic, "extend_level", extend_level)
    err = _assert_exit(3, ["eval", "--seed", "free:7.3:1,-2,3", "--level", "6",
                           "--output", str(tmp_path / "out.csv")], capsys)
    assert os.listdir(tmp_path) == []
    return err


def test_eval_junction_gap_inside_a_subtree_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    # corner 1 of the second subtree's first cell is a vertex it adds
    def tamper(out, count):
        if count == 1:
            out[0, 1] += 1e-3

    err = _tampered_eval(monkeypatch, tmp_path, capsys, tamper)
    assert err.startswith("error: cell triples disagree at a junction by 5.0")


def test_eval_junction_gap_between_subtrees_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    # corner 1 of subtree 0 is the V_1 vertex (0):1, corner 0 of subtree 1
    def cell_triple(self, word):
        out = original(self, word)
        return (out[0], out[1] + 1e-3, out[2]) if word == (0,) else out

    original = SpectralEigenfunction.cell_triple
    monkeypatch.setattr(SpectralEigenfunction, "cell_triple", cell_triple)
    err = _tampered_eval(monkeypatch, tmp_path, capsys, lambda out, count: None)
    assert err.startswith("error: cell triples disagree at a junction by 5.0")


def test_eval_non_finite_subtree_fails_before_the_first_byte(monkeypatch, tmp_path, capsys):
    def tamper(out, count):
        if count == 2:
            out[5, 2] = math.inf

    err = _tampered_eval(monkeypatch, tmp_path, capsys, tamper)
    assert err == "error: seed 'free:7.3:1,-2,3' gives non-finite values on V_6\n"


def _tampered_last_subtree(monkeypatch, tmp_path, capsys, tamper):
    """eval --level 9, walked as 9 subtrees of V_7, where tamper(out)
    changes the level-9 triples of the last subtree that the first pass
    refines; run to stdout and to --output, each exits 3 with an empty
    stdout and leaves no file.  A writer that checked each subtree as it
    wrote it would have written the other eight first.  Returns the two
    messages."""
    original = harmonic.extend_level
    assert len(subtree_walk(9).layout) == 9
    errs = []
    for output in [[], ["--output", str(tmp_path / "out.csv")]]:
        def extend_level(cell_values, mats, count=itertools.count()):
            out = original(cell_values, mats)
            if len(out) == 3 ** 7 and next(count) == 8:
                tamper(out)
            return out

        monkeypatch.setattr(harmonic, "extend_level", extend_level)
        errs.append(_assert_exit(3, ["eval", "--seed", "free:7.3:1,-2,3", "--level", "9",
                                     *output], capsys))
        assert os.listdir(tmp_path) == []
    return errs


def test_eval_junction_gap_in_the_last_subtree_fails_before_the_first_byte(
        monkeypatch, tmp_path, capsys):
    def tamper(out):
        out[0, 1] += 1e-3

    for err in _tampered_last_subtree(monkeypatch, tmp_path, capsys, tamper):
        assert err.startswith("error: cell triples disagree at a junction by 5.0")


def test_eval_non_finite_last_subtree_fails_before_the_first_byte(monkeypatch, tmp_path, capsys):
    def tamper(out):
        out[5, 2] = math.inf

    for err in _tampered_last_subtree(monkeypatch, tmp_path, capsys, tamper):
        assert err == "error: seed 'free:7.3:1,-2,3' gives non-finite values on V_9\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_eval_verify_reads_back_the_written_blocks(fmt, monkeypatch, capsys):
    # the first row is the corner q_0, where six:1:1 is 0.0; writing 1.0
    # there fails the check on the values read back, not the computed ones
    spelling = {"csv": ",{}\n", "json": '"value": {}\n', "obj": " {}\n"}[fmt]

    def blocks(args, walk, values):
        for i, block in enumerate(original(args, walk, values)):
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


def _emission_peak(fmt, level):
    seed = "five:1:2:+-+-++"
    walk = subtree_walk(level)
    values = values_on_level(cli.parse_seed(seed), level)
    stream = walk_stream(walk, values)
    args = argparse.Namespace(seed=seed, level=level, format=fmt, output=None)
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            cli._emit(args, cli._eval_blocks(args, walk, stream))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > walk.size * 20
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_eval_output_memory_does_not_grow_with_the_level(fmt):
    # V_10 has 9x the rows of V_8; held output text is one block either way
    assert _emission_peak(fmt, 10) <= 1.5 * _emission_peak(fmt, 8)


def test_eval_pipeline_peak_memory():
    # eval --level 10 as cmd_eval runs it, from cold level caches: the
    # subtree walk, both passes of the refinement and every csv block.  It
    # peaks at 0.73 MB under tracemalloc (numpy 2.4), holding one subtree's
    # values at a time; 1.35 MB when it held the level's values,
    # 4.3 MB when the level's graph and every cell triple were held, and
    # 7.5 MB when the graph also held every vertex's keys and address bytes
    seed, level = "six:2:1:+-+", 10
    address._build_level_graph.cache_clear()
    address._subtree_walk.cache_clear()
    args = argparse.Namespace(seed=seed, level=level, format="csv")
    tracemalloc.start()
    try:
        u = cli.parse_seed(seed)
        assert u.check_values(level)
        walk = subtree_walk(level)
        rows = sum(block.count("\n")
                   for block in cli._eval_blocks(args, walk, u.level_values(level)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == walk.size + 1
    assert peak < 1e6


def test_eval_verify_holds_one_value_array():
    # eval --level 10 --verify from cold level caches parses each block into
    # one preallocated array, the only array of the level's values: what is
    # held when the residual starts takes 0.78-0.79 MB under tracemalloc
    # (numpy 2.4), against 1.49-1.50 MB when the computed values were held
    # too.  The whole run peaks at 1.50-1.89 MB (2.25-2.52 MB then), while a
    # block is parsed, json the highest
    held = []

    def residual(walk, values, lam):
        held.append(tracemalloc.get_traced_memory()[0])
        return eigen_residual(walk, values, lam)

    for fmt in ["csv", "json", "obj"]:
        address._build_level_graph.cache_clear()
        address._subtree_walk.cache_clear()
        tracemalloc.start()
        try:
            with mock.patch.object(harmonic, "eigen_residual", residual):
                code = cli.main(["eval", "--seed", "six:2:1:+-+", "--level", "10", "--format", fmt,
                                 "--verify", "--output", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert held[-1] < 8 * subtree_walk(10).size + 0.4e6, fmt
        assert peak < 2.2e6, fmt


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
    rows = subtree_walk(3).size
    assert code == 3
    assert err == f"error: re-ingested {rows + change} values, expected {rows}\n"


def _eval_peak(level):
    """The tracemalloc peak of eval --level <level> --output /dev/null, run
    through cli.main from cold level caches."""
    address._build_level_graph.cache_clear()
    address._subtree_walk.cache_clear()
    tracemalloc.start()
    try:
        code = cli.main(["eval", "--seed", "six:2:1:+-+", "--level", str(level),
                         "--output", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_eval_peak_memory_at_level_12_stays_near_level_10():
    # V_12 has 9x the vertices of V_10, but eval holds one subtree's values
    # and one block at a time: the L12 run peaks at 1.60-1.80 MB under
    # tracemalloc (numpy 2.4), 2.1-2.3 times the L10 run's 0.77-0.79 MB,
    # most of the difference being the lattice tables, which grow as
    # 2^level; it peaked at 7.9 MB, 5.6 times the L10 run, when the level's
    # values were held.  A small run first loads what eval imports.
    assert cli.main(["eval", "--seed", "six:2:1:+-+", "--level", "2", "--output", os.devnull]) == 0
    assert _eval_peak(12) <= 3 * _eval_peak(10)


def test_a_seed_born_deep_is_refined_by_subtrees():
    # a seed born below the walk's depth gives each subtree its cells from
    # the sparse seed: both passes over V_12 of six:12:1 peak at 0.39 MB
    # under tracemalloc (numpy 2.4), 6.75 MB when the level's values were
    # held, and 32 MB when it refined from the whole seed level, a dense
    # seed array indexed by the level's cells
    u = cli.parse_seed("six:12:1")
    subtree_walk(12)
    tracemalloc.start()
    try:
        assert u.check_values(12)
        count = sum(map(len, u.level_values(12)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == subtree_walk(12).size
    assert peak < 0.6e6


@pytest.mark.parametrize("seed", ["six:5:3", "six:6:2:+-", "five:2:2", "two:1:1:+"])
def test_a_seed_born_deep_takes_the_cell_walk_bits(seed):
    # at every depth below the seed level and above it, the values take the
    # bits of the cell_triple walks of their cells
    u = cli.parse_seed(seed)
    level = u.m0 + 1
    walks = _bits(vertex_value_walks(u, level))
    for levels in range(1, level + 1):
        with mock.patch.object(address, "SUBTREE_LEVELS", levels):
            assert np.array_equal(_bits(values_on_level(u, level)), walks), levels


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


# a values stream cut wrong: one array short, one too many, one value too many
_BROKEN_STREAMS = {
    "too few": lambda parts: parts[:-1],
    "too many": lambda parts: [*parts, parts[-1]],
    "wrong length": lambda parts: [*parts[:-1], np.append(parts[-1], 0.0)],
}


@pytest.mark.parametrize("level", [0, 8])
@pytest.mark.parametrize("broken", sorted(_BROKEN_STREAMS))
def test_rows_reject_a_values_stream_cut_wrong(broken, level, monkeypatch, capsys):
    # SubtreeWalk.rows takes one array per part of the level, each of its
    # part's length: V_0 has one subtree that adds nothing, V_8 has three
    original = harmonic.SpectralEigenfunction.level_values

    def level_values(self, m):
        return iter(_BROKEN_STREAMS[broken](list(original(self, m))))

    monkeypatch.setattr(harmonic.SpectralEigenfunction, "level_values", level_values)
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
    with pytest.raises(LevelCapError):
        enumerate_dirichlet_spectrum(cap + 1)
    code, out, err = run(["spectrum", "--level", str(cap + 1)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: level {cap + 1} exceeds cap {cap} (override with SG_MAX_LEVEL)\n"


def _cap_address_space():
    cap = 256 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_spectrum_past_level_23_exits_three():
    # after a 22-level minus run the plus root of lambda_23 ~ 6e-16 rounds to
    # 5.0 at level 24.  The walk's failure is the answer; the address-space
    # cap keeps a regression that visits the 2^24 members of a family one by
    # one from exhausting the host's memory.
    proc = subprocess.run([sys.executable, "-m", "sglap.cli", "spectrum", "--level", "25"],
                          env={**os.environ, "SG_MAX_LEVEL": "25"},
                          preexec_fn=_cap_address_space, capture_output=True, text=True,
                          timeout=5)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and "singular at level 24" in proc.stderr


@pytest.mark.parametrize("cap, argv", [
    ("22", ["eval", "--seed", "two:1:1", "--level", "22"]),
], ids=["eval"])
def test_out_of_memory_exits_three(cap, argv):
    # the subtree walk's layout, 3^15 rows of 32 bytes at level 22, does not
    # fit in the capped address space; numpy's MemoryError ended in a
    # traceback and exit 1.  eval holds no array of a whole level's values,
    # so at level 16, where that array took 516 MB, it no longer runs out
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
# EigenvalueSequence.value/limit loops
SPECTRUM_GOLDEN_SHA256 = {
    ("--series", "all"): "a3e7b4352b24fa7217660b97987081846721b3886b745cc275b9c101b003c030",
    ("--series", "two"): "35f522d0819116a4f024a113b1a353b14d251e6b1c4fbae41bc54f62aebe9452",
    ("--series", "five"): "bd5e0f19ab904e483f80d920067905cd7cc09db196f1e336918caab16e0bb5f0",
    ("--series", "six"): "88404f1d83fa4e17f991d2e10f5c78687434d25103f8c981ef3498a16e361a7c",
    ("--format", "json"): "6e442571a8b49dc2dbb8dee1e75e184081f93907f8a2f3d3ad551af862a9a39f",
    # recorded from the enumeration that walked every series and dropped rows
    ("--series", "two", "--format", "json"):
        "6d6720dbd19e1dc67d1978fc4910b1da6ba02c66c41a2ccc60f5b5edff14746b",
    ("--series", "five", "--format", "json"):
        "9e9f8e6f69e9d12105b19124adf582111e9a650a9d8655736b64a70d95835c19",
    ("--series", "six", "--format", "json"):
        "46910fea989a644d351d7c2606292c342e0bf7c3bbd85592e09a1e501708eb60",
}


@pytest.mark.parametrize("args", list(SPECTRUM_GOLDEN_SHA256), ids=" ".join)
def test_spectrum_golden_bytes(args, capsys):
    code, out, err = run(["spectrum", "--level", "10", *args], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_GOLDEN_SHA256[args]


def test_spectrum_verify_golden_columns(capsys):
    # the residual column carries LAPACK's last bits, which follow the BLAS
    # thread count; columns 1-6 are pinned, from the same scalar loops
    code, out, _ = run(["spectrum", "--level", "4", "--verify"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][6] == "residual" and all(float(r[6]) < 1e-9 for r in rows[1:])
    cut = "".join(",".join(r[:6]) + "\n" for r in rows)
    assert hashlib.sha256(cut.encode()).hexdigest() == \
        "235ffd28ee1184eb44abfd50a38e6af0713bae8ea3cb718f87542d97262198e8"


@pytest.mark.parametrize("series", ["two", "five", "six"])
def test_spectrum_verify_prints_the_series_rows_of_the_whole_table(series, capsys):
    # --verify pairs the whole spectrum with the dense one, then filters rows
    code, out, _ = run(["spectrum", "--level", "4", "--verify"], capsys)
    assert code == 0
    header, *rows = out.splitlines(keepends=True)
    code, picked, _ = run(["spectrum", "--level", "4", "--verify", "--series", series], capsys)
    assert code == 0
    assert picked == header + "".join(row for row in rows if row.startswith(series + ","))


def test_each_subcommand_loads_only_the_layers_it_runs():
    # fresh processes, since this one has long loaded every layer, numpy and
    # mpmath; `spectrum`, `tangent` and `spectrum --verify` get one each, as a
    # `special` grid loads numpy and a tangent check the tangent layers
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
        assert run("special", "--fn", "psi", "--range=0:1:3") == base
        assert run("special", "--fn", "upsilon", "--range=0:1:3") == base
        checks = {"sglap.oracle", "sglap.tangent"}
        assert not run("spectrum", "--level", "2") & checks
        assert not run("eval", "--seed", "six:2:1", "--level", "2", "--verify") & checks
        assert "decimal" not in sys.modules
        run("tangent", "--seed", "six:1:1", "--word", ":0", "--verify")
        assert "decimal" in sys.modules
    """
    # the dense check runs without the tangent layers, dataclasses or decimal
    spectrum_verify = """
        assert run("spectrum", "--level", "2", "--verify") == \\
            base | {"sglap.decimation", "sglap.address", "sglap.oracle"}
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
                    # only the direct limit loads decimal
                    assert ("decimal" in sys.modules) == bool(verify)
        assert "numpy" not in sys.modules and "dataclasses" not in sys.modules
    """
    # every other subcommand that computes values still loads numpy
    loads_numpy = """
        run(*sys.argv[1:])
        assert "numpy" in sys.modules and "decimal" not in sys.modules
    """
    for script, argv in [(spectrum, []), (tangent, []), (spectrum_verify, []), (others, []),
                         *[(loads_numpy, argv) for argv in (
                             ["eval", "--seed", "free:7.3:1,-2,3", "--level", "1"],
                             ["special", "--fn", "psi", "--range=0:1:3"],
                             ["special", "--fn", "upsilon", "--range=0:1:3"],
                             ["spectrum", "--level", "1", "--verify"])]]:
        proc = subprocess.run([sys.executable, "-c", prelude + script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (script, argv, proc.stderr)
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
        "2b6a6c5502a71dc59f8d51797a49e6f3a68412d649aefb68f0fb2785cb346222",
    ("--fn", "upsilon", "--range=-1e4:1e4:101"):
        "173f2981f6cb0fb51545fa54e7c23b7588f012f21aca4846a2d56f4a0c65e07f",
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
    assert [r[-1] for r in rows] == ["argument 1e+308 outside the validated region |z| <= 100"] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_rows_match_generic_writers(fmt, capsys):
    seed, level = "free:-7.25:0.1,-2,1e-05", 4
    code, out, _ = run(["eval", "--seed", seed, "--level", str(level), "--format", fmt], capsys)
    assert code == 0
    values = values_on_level(cli.parse_seed(seed), level)
    keys, _ = level_vertices(level)
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
    # sequence_from_limit), so the collapse of the one V_3 subtree hands it
    # a NaN, in the last vertex and after its junction gap is taken
    def cell_values_to_vertex(graph, cell_values):
        out, gap, scale = original(graph, cell_values)
        if graph.level == 3:
            out[-1] = math.nan
        return out, gap, scale

    original = harmonic.cell_values_to_vertex
    monkeypatch.setattr(harmonic, "cell_values_to_vertex", cell_values_to_vertex)
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


@pytest.mark.parametrize("seed", ["free:1e300:1,2,3", "free:1e15:1,2,3"])
def test_overflowing_free_seed_tangent_exits_three(seed, capsys):
    code, out, err = run(["tangent", "--seed", seed, "--word", ":0"], capsys)
    assert code == 3 and out == ""
    assert "no finite generating sequence" in err and err.count("\n") == 1


@pytest.mark.parametrize("seed, word, error", [
    # the pullback overflows: NaN in t1, t2, g* and deviation, which passed
    # --verify since nan >= tol is False
    ("two:1:1", "0" * 450 + "1:2", "gives a non-finite tangent"),
    ("free:7.3:1,2,3", "0" * 450 + "1:2", "gives a non-finite tangent"),
    # 5.0**446 raised OverflowError from m0_matrix
    ("free:1e6:1,2,3", "0" * 445 + "1:2", "cut level 446 is past the float range of 5^k"),
], ids=["two-nan", "free-nan", "free-overflow"])
@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_tangent_past_the_float_range_exits_three_with_empty_stdout(seed, word, error, verify,
                                                                    capsys):
    code, out, err = run(["tangent", "--seed", seed, "--word", word, *verify], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and error in err and err.count("\n") == 1


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


# every way a special row can fail names itself in its note
FAILURE_NOTE = re.compile("has a pole|outside|overflowed|did not settle|did not converge")


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


# --- table writer -------------------------------------------------------------

_text = st.text(st.one_of(st.sampled_from(list(',"\\%\r\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600 ')),
                          st.characters()), max_size=8)
_cells = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-5, math.inf, -math.inf, math.nan]),
    st.integers(-10**20, 10**20), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.none(), _text)


@st.composite
def _tables(draw):
    columns = draw(st.lists(_text, min_size=1, max_size=4, unique=True))
    width = len(columns)
    return columns, draw(st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=9))


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(1, 4), st.sampled_from(["csv", "json"]))
def test_table_blocks_equal_the_reference_writers(table, block_rows, fmt):
    columns, rows = table
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        blocks = list(cli._table_blocks(fmt, columns, iter(rows)))
    assert "".join(blocks) == REFERENCE_WRITERS[fmt](columns, rows)
    # one block per BLOCK_ROWS rows, and one for the csv header or json footer
    assert len(blocks) == -(-len(rows) // block_rows) + 1


# sha256 of `spectrum --level m` stdout, recorded from the json.dumps and
# csv.writer-per-row writers that cli._table_blocks replaced
SPECTRUM_LEVEL_SHA256 = {
    (0, "csv"): "d043b44a34eda3c326e89e8497475e5f0628261e75b2a8d80b0908cd07a5833c",
    (1, "csv"): "d203a2f49b140c76412a7c0b3805881ffbc02c852c72a73b4a4a717540441567",
    (2, "csv"): "6c3d896ad4977890dc5b3a0f72a49542cbfdca583b3440891351e0b23e57c030",
    (3, "csv"): "378195acf191934cd0773780956f540011fce4318d360c294a22d1ad47d69e05",
    (4, "csv"): "235ffd28ee1184eb44abfd50a38e6af0713bae8ea3cb718f87542d97262198e8",
    (5, "csv"): "16ad22ff615db8791529e79007fd6400f80ac75978a6c9c1437cbc8e6d4ff66b",
    (6, "csv"): "9c660191e48e5da9fa4ee1ea9dbfcdc3e8f41a10a73fc17fdc9c0767d624c117",
    (7, "csv"): "f5034b76518845eeda4a3aee4e7379bbcdf7a160389239f74680d82df4e61d88",
    (8, "csv"): "6378d52420f4ac31d097d95f753fa57f649a5db6b5e8beaa1a5003ae61103e42",
    (9, "csv"): "6f219b0b2b0341e56f7a377c0977fae5189f065e9dc3596448a5d62e8c85536a",
    (10, "csv"): "a3e7b4352b24fa7217660b97987081846721b3886b745cc275b9c101b003c030",
    (0, "json"): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (1, "json"): "497335a5e9df8649eef63d49561672d08931bca40bb35ba6d9782afcf8666fbb",
    (2, "json"): "d377cd6937b18487a13683b98618f17ac701e3c8df6a02b26972c4859c0c4242",
    (3, "json"): "2966c65ec6c44502f428f144ad805a9ec76fa04331289696fcffd2cbc1519440",
    (4, "json"): "230427aa1cbcf223970e46906cea06f393cbd1e1423a63e70012dc4ed3951c04",
    (5, "json"): "746520eba6e8583a58bae7be0b24da7e3346ac0ee1ae8eed43646094c6d576c2",
    (6, "json"): "3a3e210bcd5b8c3cb2d778f35e603b5797e6b51ec865afa354a809f4d11f9853",
    (7, "json"): "8e3fd27b6b2f2d0053d122e02614bc349c920f18c5bbea65f1e286432c48e9cd",
    (8, "json"): "1fa7bcea7762ed28a33d3ad1cc83bff13c062a1b4e2011cf6c6e39e6a52a5f9e",
    (9, "json"): "6e1b37d20ca0e55785035dca53d1978adf054f6ed04d4f1753878bed78f9be04",
    (10, "json"): "6e442571a8b49dc2dbb8dee1e75e184081f93907f8a2f3d3ad551af862a9a39f",
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
    # the same rows from one block of the whole grid
    with mock.patch.object(cli, "BLOCK_ROWS", n):
        rows = list(cli._special_rows(fn, cli.parse_range(f"{spec}:{n}"),
                                      cli.special.DEFAULT_CONFIG))
    assert any(row[-1] for row in rows) and not all(row[-1] for row in rows)
    assert out == REFERENCE_WRITERS[fmt](columns, rows)


def _special_peak(fn, n):
    args = cli.build_parser().parse_args(["special", "--fn", fn, f"--range=-60:60:{n}",
                                          "--format", "json"])
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
    # 10x the points; the grid, the kernel arrays and the text are one block
    assert _special_peak(fn, 40_000) <= 1.5 * _special_peak(fn, 4_000)


def test_special_huge_grid_starts_without_building_the_grid():
    # the first block of a 10^8-point grid; the rest is never computed
    grid = cli.parse_range("1:2:100000000")
    assert grid == (1.0, 2.0, 100_000_000)
    blocks = cli._table_blocks("csv", ["z", "value", "error", "note"],
                               cli._special_rows("upsilon", grid, cli.special.DEFAULT_CONFIG))
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
