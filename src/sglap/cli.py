"""Command-line surface: spectra, eigenfunction meshes, tangents, tables.

Output is deterministic: rows follow canonical address order, floats print in
shortest round-trip form (repr), and nothing time- or locale-dependent is
emitted, so identical invocations are byte-identical.

Seed mini-grammar (one line reproduces any figure):
    series:m0:index:branches   e.g. six:2:1:+-  (branches from level m0+1 on,
                               missing trailing branches default to minus)
    free:lambda:u0,u1,u2       non-Dirichlet function from boundary values
                               and the renormalized eigenvalue (0 = harmonic)

Exit codes: 0 ok, 2 usage (an unwritable --output or a closed stdout
included), 3 domain error or out of memory, 4 verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import sys

# numpy and the other layers are imported by the functions that use them,
# so that a process loads only what its subcommand runs
from . import special
from .errors import DomainError, SglapError, UsageError

SPECTRUM_TOL = 1e-9
EVAL_TOL = 1e-9
TANGENT_TOL = 1e-7


BLOCK_ROWS = 1 << 10  # rows per output block
CSV_HEADER = "address,level,x,y,value"  # of eval


def _row_ranges(n: int):
    """(lo, hi) bounds of the BLOCK_ROWS-row blocks of n rows."""
    return ((lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


def _csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    # csv.writer prints a float (numpy float64 included) as its repr and
    # None as an empty field
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _table_blocks(fmt: str, columns, rows):
    """A table as text blocks: the header, then BLOCK_ROWS rows at a time,
    then the footer.  The blocks are mapped to text, so that neither a block
    nor its text is held once it is yielded and one block is taken from
    `rows` at a time.

    The bytes equal what csv.writer(lineterminator="\n") and
    json.dumps(records, indent=2) give for these rows; a JSON block after
    the first starts with the ",\n" seam.  A cell is a str, int, float,
    bool, None or numpy scalar."""
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, BLOCK_ROWS)), [])
    if fmt == "csv":
        yield _csv_text([columns])
        yield from map(_csv_text, blocks)
        return
    from json.encoder import encode_basestring_ascii as encode

    def cell(value) -> str:
        # the cases and order of json's encoder; numpy scalars as .item()
        if isinstance(value, str):
            return encode(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            if value != value:
                return "NaN"
            if value == math.inf:
                return "Infinity"
            if value == -math.inf:
                return "-Infinity"
            return float.__repr__(value)
        return cell(value.item())

    record = "  {\n" + ",\n".join(
        [f"    {encode(c).replace('%', '%%')}: %s" for c in columns]) + "\n  }"
    seam = "[\n"

    def json_block(block) -> str:
        nonlocal seam
        out, seam = seam + ",\n".join([record % tuple(map(cell, row)) for row in block]), ",\n"
        return out

    yield from map(json_block, blocks)
    yield "[]\n" if seam == "[\n" else "\n]\n"


def _emit(args, blocks):
    """Write the text blocks to stdout or to --output.

    A regular --output file is written atomically: into a new file in the
    target's directory, renamed onto the target once every block is written,
    and removed on any failure, so that a failure leaves no file behind.
    Targets that exist but are not regular files (/dev/null, a FIFO) are
    written in place.  writelines lets go of each block once it is written,
    before the next one is made."""
    if not args.output:
        sys.stdout.writelines(blocks)
        return
    target = os.path.realpath(args.output)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    path = target if in_place else os.path.join(
        os.path.dirname(target), f".{os.path.basename(target)}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(path, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from None
    try:
        with fh:
            fh.writelines(blocks)
        if not in_place:
            os.replace(path, target)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output!r}: {exc.strerror}") from None
    finally:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(path)  # already gone once renamed


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


def _grid_points(grid, lo: int, hi: int) -> list:
    """Points lo..hi-1 of the inclusive grid (a, b, n) from parse_range."""
    a, b, n = grid
    return [a + (b - a) * i / (n - 1) for i in range(lo, hi)] if n > 1 else [a]


def parse_range(text: str) -> tuple:
    """--range a:b:n: the n-point inclusive grid as (a, b, n), every point
    finite.  Each step of a point's expression is a correctly rounded
    monotone operation in i, so the points lie between the two ends and the
    ends decide finiteness (inf * 0 = nan can only happen at i = 0)."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        float(n)  # a point divides by n - 1
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"malformed range {text!r}: {exc}") from None
    if n < 1:
        raise UsageError(f"range needs at least one point, got {n}")
    grid = a, b, n
    if not all(math.isfinite(z) for z in [a, b, *_grid_points(grid, 0, 1),
                                           *_grid_points(grid, n - 1, n)]):
        raise UsageError(f"range endpoints and grid points must be finite, got {text!r}")
    return grid


def parse_seed(text: str):
    """Resolve the seed mini-grammar to a harmonic.SpectralEigenfunction."""
    from . import decimation, harmonic

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
        if not all(map(math.isfinite, [lam, *triple])):
            raise UsageError(f"free seed values must be finite, got {text!r}")
        seq = decimation.sequence_from_limit(lam)
        if seq.m0 != 0:
            raise UsageError(f"lambda={lam!r} hits a singular level; "
                             "use a series seed for Dirichlet eigenfunctions")
        return harmonic.SpectralEigenfunction(seq, triple)
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
    return harmonic.dirichlet_eigenfunction(series, m0, index, plus)


# --- spectrum ---------------------------------------------------------------

def cmd_spectrum(args) -> int:
    from . import decimation

    # --verify pairs every line in order with the dense eigenvalues, so it
    # walks the whole spectrum and prints the series' rows of it
    lines = decimation.enumerate_dirichlet_spectrum(
        args.level, "all" if args.verify else args.series)
    columns = ["series", "m0", "branches", "lambda_m", "lambda", "multiplicity"]
    residuals = None
    if args.verify:
        from . import oracle

        dense = oracle.dense_dirichlet_spectrum(args.level)
        residuals = []
        start = 0
        # both sides ascend, so multiplicity blocks pair off in order
        for line in lines:
            block = dense.eigenvalues[start:start + line.multiplicity]
            residuals.append(float(abs(block - line.value).max()) if block.size else 0.0)
            start += line.multiplicity
        columns.append("residual")
    rows = ([line.series, line.m0, line.branches, line.value, line.limit, line.multiplicity,
             *([] if residuals is None else [residuals[i]])]
            for i, line in enumerate(lines) if args.series in ("all", line.series))
    _emit(args, _table_blocks(args.format, columns, rows))
    if residuals is not None and residuals and max(residuals) >= args.verify_tol:
        print(f"verification failed: worst dense residual {max(residuals):.3e} "
              f">= {args.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


# --- eval -------------------------------------------------------------------

def _reprs(column) -> list:
    """repr of each float64 in `column`, computing each distinct one once.

    Floats are keyed by bit pattern, not by value, so 0.0 and -0.0 (equal,
    with different reprs) keep their own strings."""
    import numpy as np

    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    table = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return table[inverse].tolist()


def _lattice_reprs(level: int):
    """repr of x on each lattice line 2 n_1 + n_2 = t (t = 0..2^(level+1))
    and of y on each line n_2 = t (t = 0..2^level) of V_level: key_coords of
    the points (0, 0, t), as object arrays to index with a block's keys."""
    import numpy as np

    from .address import key_coords

    lines = key_coords(np.outer(np.arange(2 ** (level + 1) + 1), [0, 0, 1]), level)
    return (np.array([repr(x) for x in lines[:, 0].tolist()], dtype=object),
            np.array([repr(y) for y in lines[:2 ** level + 1, 1].tolist()], dtype=object))


def _eval_blocks(args, walk, values):
    """The eval output as text blocks: a header, then each run of the
    SubtreeWalk's rows in blocks of at most BLOCK_ROWS rows, so that no more
    than one block of rows is held as text; then the obj faces, one subtree
    at a time.  `values` is the stream of V_level's values that walk.rows
    puts in vertex order (SpectralEigenfunction.level_values).

    The bytes equal what csv.writer and json.dumps(indent=2) give for these
    rows (addresses need no quoting or escaping, and finite floats print as
    repr in both); a JSON block after the first starts with the ",\n" seam.
    x and y depend on a vertex's key only through its lattice lines, so they
    are looked up in the level's _lattice_reprs; the values repeat by
    symmetry, so each block formats every distinct value once (_reprs)."""
    from .address import addresses

    level, fmt = args.level, args.format
    x_table, y_table = _lattice_reprs(level)
    if fmt == "obj":
        yield f"# sglap eval seed={args.seed} level={level}\n"
    else:
        yield CSV_HEADER + "\n" if fmt == "csv" else "[\n"
    for start, run_keys, run_names, run_values in walk.rows(values):
        for i, j in _row_ranges(len(run_keys)):
            lo, keys, names = start + i, run_keys[i:j], run_names[i:j]
            _, n1, n2 = keys.T
            x, y = x_table[2 * n1 + n2].tolist(), y_table[n2].tolist()
            v = _reprs(run_values[i:j])
            if fmt == "obj":
                yield "v " + "\nv ".join(map(" ".join, zip(x, y, v))) + "\n"
            elif fmt == "csv":
                yield "\n".join(map(",".join, zip(addresses(names), itertools.repeat(str(level)),
                                                   x, y, v))) + "\n"
            else:
                # a leading "" puts the seam before every block but the first
                yield ",\n".join([""] * (lo > 0) + [
                    f'  {{\n    "address": "{s}",\n    "level": {level},\n    "x": {a},\n'
                    f'    "y": {b},\n    "value": {c}\n  }}'
                    for s, a, b, c in zip(addresses(names), x, y, v)])
    if fmt == "obj":
        for faces in walk.faces():
            yield ("f %d %d %d\n" * len(faces)) % tuple((faces + 1).ravel().tolist())
    elif fmt == "json":
        yield "\n]\n"


def _block_values(fmt: str, block: str) -> list:
    """The vertex values that one eval output block spells."""
    import json

    if fmt == "csv":
        # no field is quoted, so a row's value is the text after its last comma
        return [float(row.rpartition(",")[2]) for row in block.splitlines()
                if row != CSV_HEADER]
    if fmt == "json":
        # a block is whole records between the list's brackets and seams
        return [float(rec["value"]) for rec in json.loads("[" + block.strip("[],\n") + "]")]
    return [float(line.split()[3]) for line in block.splitlines() if line.startswith("v ")]


def cmd_eval(args) -> int:
    import numpy as np

    from .address import subtree_walk
    from .harmonic import eigen_residual

    u = parse_seed(args.seed)
    # every value is checked in a first pass, before the first byte, and
    # refined again to be written
    if not u.check_values(args.level):
        raise SglapError(f"seed {args.seed!r} gives non-finite values on V_{args.level}")
    # the walk that the values are refined by gives the faces and the residual
    walk = subtree_walk(args.level)
    blocks = _eval_blocks(args, walk, u.level_values(args.level))
    if not args.verify:
        _emit(args, blocks)
        return 0
    back, count = np.empty(walk.size), 0

    def reingest():
        nonlocal count  # of the values read back, past the end of back too
        for block in blocks:
            yield block
            parsed = _block_values(args.format, block)
            if count + len(parsed) <= walk.size:
                back[count:count + len(parsed)] = parsed
            count += len(parsed)

    _emit(args, reingest())
    if count != walk.size:
        raise SglapError(f"re-ingested {count} values, expected {walk.size}")
    residual = eigen_residual(walk, back, u.sequence.value(args.level))
    if not residual < args.verify_tol:
        print(f"verification failed: round-trip residual {residual:.3e} "
              f">= {args.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


# --- tangent ----------------------------------------------------------------

def cmd_tangent(args) -> int:
    from . import tangent
    from .address import EventuallyConstantWord

    u = parse_seed(args.seed)
    try:
        word = EventuallyConstantWord.parse(args.word)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    triple = tangent.tangent_at(u, word)
    grad = triple.gradient()
    if not all(map(math.isfinite, [*triple, *grad])):
        raise SglapError(f"seed {args.seed!r} gives a non-finite tangent at {word}")
    k = max(len(word.prefix), u.m0)
    columns = ["word", "k", "t0", "t1", "t2", "g0", "g1", "g2"]
    row = [str(word), k, *triple, *grad]
    deviation = None
    if args.verify:
        from . import oracle

        ref, err = oracle.direct_tangent_limit(u, word, 25)
        deviation = max(abs(a - b) for a, b in zip(triple, ref))
        columns += ["oracle_t0", "oracle_t1", "oracle_t2", "deviation", "error_estimate"]
        row += [*ref, deviation, err]
    _emit(args, _table_blocks(args.format, columns, [row]))
    # written so that a NaN deviation fails too
    if deviation is not None and not deviation < args.verify_tol:
        print(f"verification failed: tangent deviates from the direct limit by "
              f"{deviation:.3e} >= {args.verify_tol:.3e}", file=sys.stderr)
        return 4
    return 0


# --- special ----------------------------------------------------------------

def _special_block(fn: str, points: list, config) -> list:
    """The special table's rows at these grid points."""
    import numpy as np

    z = np.array(points)
    if fn == "psi":
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
        values, errors, failures = special.upsilon_with_error_array(z, config)
        fields = [values.tolist(), errors.tolist()]
    return [[point, *[None] * len(row), str(failures[i])] if i in failures else
            [point, *row, None] for i, (point, *row) in enumerate(zip(points, *fields))]


def _special_rows(fn: str, grid, config):
    """The special table's rows, one BLOCK_ROWS-point block of the grid at
    a time (a value does not depend on the grid it is in)."""
    for lo, hi in _row_ranges(grid[2]):
        yield from _special_block(fn, _grid_points(grid, lo, hi), config)


def cmd_special(args) -> int:
    config = special.DEFAULT_CONFIG._replace(tol=args.tol)
    columns = ["z", "value", "error", *["functional_eq"] * (args.fn == "psi"), "note"]
    _emit(args, _table_blocks(args.format, columns, _special_rows(args.fn, args.range, config)))
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
        code = args.run(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError as exc:
        # the reader is gone; the rest goes to devnull, so that exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"usage error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SglapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
