"""Output checks for sglap CLI invocations.

Each checker parses one invocation's stdout in its format and returns a list
of problems; an empty list means the output is well formed, every numeric
field is finite and the row count is the one the inputs imply.  The expected
counts are recomputed here from the closed formulas of the paper, not taken
from the program under test.
"""
from __future__ import annotations

import csv
import io
import json
import math

COLUMNS = {
    "eval": ["address", "level", "x", "y", "value"],
    "spectrum": ["series", "m0", "branches", "lambda_m", "lambda", "multiplicity"],
    "tangent": ["word", "k", "t0", "t1", "t2", "g0", "g1", "g2"],
    "special_psi": ["z", "value", "error", "functional_eq", "note"],
    "special_upsilon": ["z", "value", "error", "note"],
}
VERIFY_COLUMNS = {
    "spectrum": ["residual"],
    "tangent": ["oracle_t0", "oracle_t1", "oracle_t2", "deviation", "error_estimate"],
}
TEXT_COLUMNS = {"address", "series", "branches", "word", "note"}
# numeric columns that a row may leave empty: pole rows and the psi audit
OPTIONAL_COLUMNS = {"value", "error", "functional_eq"}


def vertex_count(level: int) -> int:
    return (3 ** (level + 1) + 3) // 2


def dirichlet_dimension(level: int) -> int:
    return (3 ** (level + 1) - 3) // 2


def _five_multiplicity(m0: int) -> int:
    return 2 if m0 == 1 else (3 ** (m0 - 1) + 3) // 2


def series_dimension(series: str, level: int) -> int:
    """Sum of the multiplicities a `spectrum --series` filter keeps at a level.

    Each family born at m0 splits into 2^(free branch levels) lines: levels
    m0+1..level are free, except that the 6-series forces its first one.
    """
    if series == "all":
        return dirichlet_dimension(level)
    if series == "two":
        return 2 ** (level - 1)
    if series == "five":
        return sum(2 ** (level - m0) * _five_multiplicity(m0) for m0 in range(1, level + 1))
    if series == "six":
        return sum(2 ** max(0, level - m0 - 1) * (3 ** m0 - 3) // 2
                   for m0 in range(2, level + 1))
    raise ValueError(f"unknown series {series!r}")


def _option(args, name, default=None):
    for i, arg in enumerate(args):
        if arg == name:
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def _records(fmt: str, columns, text: str):
    """Rows of a csv or json table as lists ordered like `columns`."""
    if fmt == "json":
        rows = []
        for record in json.loads(text):
            if list(record) != columns:
                raise ValueError(f"json keys {list(record)} != {columns}")
            rows.append([record[c] for c in columns])
        return rows
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != columns:
        raise ValueError(f"csv header {table[:1]} != {columns}")
    for row in table[1:]:
        if len(row) != len(columns):
            raise ValueError(f"csv row has {len(row)} fields, expected {len(columns)}")
    return table[1:]


def _bad_numbers(name, values):
    """Problems with a column's values, scanned one by one only when the
    fast whole-column test fails."""
    try:
        if all(map(math.isfinite, map(float, values))):
            return []
    except (TypeError, ValueError):
        pass
    problems = []
    for i, value in enumerate(values):
        try:
            if not math.isfinite(float(value)):
                problems.append(f"row {i}: {name}={value!r} is not finite")
        except (TypeError, ValueError):
            problems.append(f"row {i}: {name}={value!r} is not a number")
        if len(problems) >= 5:
            break
    return problems


def _non_finite(columns, rows):
    problems = []
    for j, name in enumerate(columns):
        if name in TEXT_COLUMNS:
            continue
        values = [row[j] for row in rows]
        if name in OPTIONAL_COLUMNS:
            values = [v for v in values if v not in (None, "")]
        problems += _bad_numbers(name, values)
    return problems


def _check_obj(level: int, text: str):
    lines = text.splitlines()
    vertices = [line.split() for line in lines if line.startswith("v ")]
    faces = [line.split() for line in lines if line.startswith("f ")]
    problems = []
    if len(vertices) != vertex_count(level):
        problems.append(f"{len(vertices)} vertices, expected {vertex_count(level)}")
    if len(faces) != 3 ** level:
        problems.append(f"{len(faces)} faces, expected {3 ** level}")
    if any(len(v) != 4 for v in vertices):
        problems.append("a vertex line does not have three coordinates")
    problems += _bad_numbers("vertex", [x for v in vertices for x in v[1:]])
    n = len(vertices)
    if any(len(f) != 4 for f in faces) or not all(
            1 <= i <= n for i in map(int, (x for f in faces for x in f[1:]))):
        problems.append("a face line is malformed or out of range")
    return problems


def check_output(args, text: str):
    """Problems with the stdout of `sglap <args>`; empty when it checks out."""
    command = args[0]
    fmt = _option(args, "--format", "csv")
    try:
        if command == "eval" and fmt == "obj":
            return _check_obj(int(_option(args, "--level")), text)
        key = f"special_{_option(args, '--fn')}" if command == "special" else command
        columns = COLUMNS[key] + (VERIFY_COLUMNS.get(command, []) if "--verify" in args else [])
        rows = _records(fmt, columns, text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparsable {fmt} output: {exc}"]
    problems = _non_finite(columns, rows)
    if command == "eval":
        expected = vertex_count(int(_option(args, "--level")))
    elif command == "special":
        expected = int(_option(args, "--range").split(":")[2])
    elif command == "tangent":
        expected = 1
    else:
        expected = None
        series = _option(args, "--series", "all")
        level = int(_option(args, "--level"))
        try:
            total = sum(int(row[columns.index("multiplicity")]) for row in rows)
        except (TypeError, ValueError):
            total = None
        if total != series_dimension(series, level):
            problems.append(f"multiplicities sum to {total}, expected "
                            f"{series_dimension(series, level)} for --series {series}")
        if series != "all" and any(row[0] != series for row in rows):
            problems.append(f"a row is outside --series {series}")
    if expected is not None and len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    return problems
