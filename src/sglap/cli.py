"""Command-line surface: spectra, eigenfunction meshes, tangents, tables.

Output is deterministic: rows follow canonical address order, floats print in
shortest round-trip form (repr), and nothing time- or locale-dependent is
emitted, so identical invocations are byte-identical.

Seed mini-grammar (one line reproduces any figure):
    series:m0:index:branches   e.g. six:2:1:+-  (branches from level m0+1 on,
                               missing trailing branches default to minus)
    free:lambda:u0,u1,u2       non-Dirichlet function from boundary values
                               and the renormalized eigenvalue (0 = harmonic)

Exit codes: 0 ok, 2 usage, 3 domain error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import decimation, oracle, special, tangent
from .address import EventuallyConstantWord, build_level_graph
from .decimation import SpectralEigenfunction, eigen_residual, sequence_from_limit
from .errors import DomainError, SglapError, UsageError

SPECTRUM_TOL = 1e-9
EVAL_TOL = 1e-9
TANGENT_TOL = 1e-7


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, numpy scalars included
    return "" if value is None else str(value)


def _write_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _write_json(columns, rows) -> str:
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps(records, indent=2, default=lambda o: o.item()) + "\n"


def _emit(args, text: str):
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {text!r}") from None


def parse_tol(text: str) -> float:
    """--tol: a finite positive number."""
    tol = _float(text, "tolerance")
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def parse_verify_tol(text: str) -> float:
    """--verify-tol: any number but NaN (0 makes every check fail)."""
    tol = _float(text, "verify tolerance")
    if math.isnan(tol):
        raise UsageError(f"verify tolerance must not be NaN, got {text!r}")
    return tol


def parse_range(text: str) -> list:
    """--range a:b:n: the n-point inclusive grid, every point finite."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise UsageError(f"malformed range {text!r}: {exc}") from None
    if n < 1:
        raise UsageError(f"range needs at least one point, got {n}")
    grid = [a + (b - a) * i / (n - 1) for i in range(n)] if n > 1 else [a]
    if not all(math.isfinite(z) for z in [a, b, *grid]):
        raise UsageError(f"range endpoints and grid points must be finite, got {text!r}")
    return grid


def parse_seed(text: str) -> SpectralEigenfunction:
    """Resolve the seed mini-grammar to an eigenfunction."""
    parts = text.split(":")
    if not parts or parts[0] == "":
        raise UsageError(f"empty seed spec {text!r}")
    if parts[0] == "free":
        if len(parts) != 3:
            raise UsageError(f"free seed needs free:lambda:u0,u1,u2, got {text!r}")
        try:
            lam = float(parts[1])
            triple = [float(x) for x in parts[2].split(",")]
        except ValueError as exc:
            raise UsageError(f"malformed free seed {text!r}: {exc}") from None
        if len(triple) != 3:
            raise UsageError(f"free seed needs exactly three boundary values, got {parts[2]!r}")
        if not np.isfinite([lam, *triple]).all():
            raise UsageError(f"free seed values must be finite, got {text!r}")
        seq = sequence_from_limit(lam)
        if seq.m0 != 0:
            raise UsageError(f"lambda={lam!r} hits a singular level; "
                             "use a series seed for Dirichlet eigenfunctions")
        return SpectralEigenfunction(seq, np.array(triple), label=f"free:{lam!r}")
    if len(parts) not in (3, 4):
        raise UsageError(f"seed needs series:m0:index[:branches], got {text!r}")
    series = parts[0]
    try:
        m0 = int(parts[1])
        index = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed seed {text!r}: {exc}") from None
    plus = None
    if len(parts) == 4:
        plus = set()
        for offset, ch in enumerate(parts[3]):
            if ch == "+":
                plus.add(m0 + 1 + offset)
            elif ch != "-":
                raise UsageError(f"branch string may only contain '+'/'-', got {parts[3]!r}")
    if series == "six" and m0 == 1:
        # the basic (non-Dirichlet) 6-series element; Dirichlet gluings start at m0 = 2
        if index != 1:
            raise DomainError("the basic 6-series element is unique (index 1)")
        return decimation.six_series_element(plus)
    return decimation.dirichlet_eigenfunction(series, m0, index, plus)


# --- spectrum ---------------------------------------------------------------

def cmd_spectrum(args) -> int:
    lines = decimation.enumerate_dirichlet_spectrum(args.level)
    columns = ["series", "m0", "branches", "lambda_m", "lambda", "multiplicity"]
    residuals = None
    if args.verify:
        dense = oracle.dense_dirichlet_spectrum(args.level)
        residuals = []
        start = 0
        # both sides ascend, so multiplicity blocks pair off in order
        for line in lines:
            block = dense.eigenvalues[start:start + line.multiplicity]
            residuals.append(float(np.max(np.abs(block - line.value))) if block.size else 0.0)
            start += line.multiplicity
        columns.append("residual")
    rows = []
    for i, line in enumerate(lines):
        if args.series != "all" and line.series != args.series:
            continue
        row = [line.series, line.m0, line.branch_string(), line.value,
               line.sequence().limit(), line.multiplicity]
        if residuals is not None:
            row.append(residuals[i])
        rows.append(row)
    text = (_write_csv if args.format == "csv" else _write_json)(columns, rows)
    _emit(args, text)
    if residuals is not None and residuals and max(residuals) >= args.verify_tol:
        print(f"verification failed: worst dense residual {max(residuals):.3e} "
              f">= {args.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


# --- eval -------------------------------------------------------------------

def _reingest_values(fmt: str, text: str, size: int) -> np.ndarray:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        vals = [float(r[4]) for r in rows[1:]]
    elif fmt == "json":
        vals = [float(rec["value"]) for rec in json.loads(text)]
    else:
        vals = [float(line.split()[3]) for line in text.splitlines()
                if line.startswith("v ")]
    if len(vals) != size:
        raise SglapError(f"re-ingested {len(vals)} values, expected {size}")
    return np.array(vals)


def _eval_text(args, graph, values) -> str:
    # Row by row from plain Python columns; the bytes equal what csv.writer
    # and json.dumps(indent=2) give for these rows (addresses need no quoting
    # or escaping, and finite floats print as repr in both).
    x, y = graph.coords.T.tolist()
    v = values.tolist()
    if args.format == "obj":
        lines = [f"v {a!r} {b!r} {c!r}\n" for a, b, c in zip(x, y, v)]
        lines += [f"f {a} {b} {c}\n" for a, b, c in (graph.cells + 1).tolist()]
        return f"# sglap eval seed={args.seed} level={args.level}\n" + "".join(lines)
    level = args.level
    addresses = graph.addresses()
    if args.format == "csv":
        lines = [f"{s},{level},{a!r},{b!r},{c!r}\n"
                 for s, a, b, c in zip(addresses, x, y, v)]
        return "address,level,x,y,value\n" + "".join(lines)
    records = [f'  {{\n    "address": "{s}",\n    "level": {level},\n    "x": {a!r},\n'
               f'    "y": {b!r},\n    "value": {c!r}\n  }}'
               for s, a, b, c in zip(addresses, x, y, v)]
    return "[\n" + ",\n".join(records) + "\n]\n"


def cmd_eval(args) -> int:
    u = parse_seed(args.seed)
    graph = build_level_graph(args.level)
    values = u.values_on_level(args.level)
    if not np.isfinite(values).all():
        raise SglapError(f"seed {args.seed!r} gives non-finite values on V_{args.level}")
    text = _eval_text(args, graph, values)
    _emit(args, text)
    if args.verify:
        back = _reingest_values(args.format, text, graph.size)
        residual = eigen_residual(graph, back, u.sequence.value(args.level))
        if residual >= args.verify_tol:
            print(f"verification failed: round-trip residual {residual:.3e} "
                  f">= {args.verify_tol:.3e}", file=sys.stderr)
            return 4
    return 0


# --- tangent ----------------------------------------------------------------

def cmd_tangent(args) -> int:
    u = parse_seed(args.seed)
    try:
        word = EventuallyConstantWord.parse(args.word)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    triple = tangent.tangent_at(u, word)
    grad = tangent.gradient_at(u, word)
    k = max(len(word.prefix), u.m0)
    columns = ["word", "k", "t0", "t1", "t2", "g0", "g1", "g2"]
    row = [str(word), k, triple.t0, triple.t1, triple.t2,
           float(grad[0]), float(grad[1]), float(grad[2])]
    deviation = None
    if args.verify:
        ref, err = oracle.direct_tangent_limit(u, word, 25)
        deviation = float(np.max(np.abs(triple.as_array() - ref.as_array())))
        columns += ["oracle_t0", "oracle_t1", "oracle_t2", "deviation", "error_estimate"]
        row += [ref.t0, ref.t1, ref.t2, deviation, err]
    text = (_write_csv if args.format == "csv" else _write_json)(columns, [row])
    _emit(args, text)
    if deviation is not None and deviation >= args.verify_tol:
        print(f"verification failed: tangent deviates from the direct limit by "
              f"{deviation:.3e} >= {args.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


# --- special ----------------------------------------------------------------

def cmd_special(args) -> int:
    config = dataclasses.replace(special.DEFAULT_CONFIG, tol=args.tol)
    z = np.array(args.range)
    if args.fn == "psi":
        columns = ["z", "value", "error", "functional_eq", "note"]
        values, errors, failures = special.psi_limit_array(z, config)
        # audit psi(Psi(z)) = Psi(5z) wherever 5z is in the domain (an
        # overflowing 5z is not); a failure there fails the row
        with np.errstate(over="ignore"):
            in_domain = np.abs(5.0 * z) <= special.PSI_DOMAIN_BOUND
        audited = [i for i in np.flatnonzero(in_domain).tolist() if i not in failures]
        five, _, five_failures = special.psi_limit_array(5.0 * z[audited], config)
        audit = [None] * z.size
        for i, gap in zip(audited, np.abs(special.psi(values[audited]) - five).tolist()):
            audit[i] = gap
        failures.update((audited[k], exc) for k, exc in five_failures.items())
        fields = [values.tolist(), errors.tolist(), audit]
    else:
        columns = ["z", "value", "error", "note"]
        values, errors, failures = special.upsilon_with_error_array(z, config)
        fields = [values.tolist(), errors.tolist()]
    rows = []
    for i, (point, *row) in enumerate(zip(args.range, *fields)):
        if i in failures:
            rows.append([point, *[None] * len(row), f"pole: {failures[i]}"])
        else:
            rows.append([point, *row, None])
    text = (_write_csv if args.format == "csv" else _write_json)(columns, rows)
    _emit(args, text)
    return 0


# --- wiring -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as a UsageError: exit 2, one line."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sglap", description="Laplacian spectra and harmonic "
                                               "tangents on the Sierpinski gasket")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="enumerate the level-m Dirichlet spectrum")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--series", choices=["two", "five", "six", "all"], default="all")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--verify", action="store_true",
                    help="cross-check against the dense eigensolver (level <= 6)")
    sp.add_argument("--verify-tol", type=parse_verify_tol, default=SPECTRUM_TOL)
    sp.add_argument("--output")
    sp.set_defaults(run=cmd_spectrum)

    ev = sub.add_parser("eval", help="evaluate an eigenfunction on V_m")
    ev.add_argument("--seed", required=True)
    ev.add_argument("--level", type=int, required=True)
    ev.add_argument("--format", choices=["csv", "json", "obj"], default="csv")
    ev.add_argument("--verify", action="store_true",
                    help="re-ingest the output and check the eigen-equation residual")
    ev.add_argument("--verify-tol", type=parse_verify_tol, default=EVAL_TOL)
    ev.add_argument("--output")
    ev.set_defaults(run=cmd_eval)

    tg = sub.add_parser("tangent", help="harmonic tangent at an addressed point")
    tg.add_argument("--seed", required=True)
    tg.add_argument("--word", required=True, help="prefix:tail, e.g. 01:2 or :0")
    tg.add_argument("--format", choices=["csv", "json"], default="csv")
    tg.add_argument("--verify", action="store_true",
                    help="compare against the direct limit iterated to m=25")
    tg.add_argument("--verify-tol", type=parse_verify_tol, default=TANGENT_TOL)
    tg.add_argument("--output")
    tg.set_defaults(run=cmd_tangent)

    spc = sub.add_parser("special", help="tabulate Psi or Upsilon on a grid")
    spc.add_argument("--fn", choices=["psi", "upsilon"], required=True)
    spc.add_argument("--range", type=parse_range, required=True,
                     help="a:b:n inclusive grid (write --range=-2:2:5 for negative a)")
    spc.add_argument("--tol", type=parse_tol, default=special.DEFAULT_CONFIG.tol)
    spc.add_argument("--format", choices=["csv", "json"], default="csv")
    spc.add_argument("--output")
    spc.set_defaults(run=cmd_special)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argparse and the number parsers raise UsageError from parse_args
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SglapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
