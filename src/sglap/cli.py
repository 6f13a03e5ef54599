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
import re
import sys

# the other layers are imported by the functions that use them, so that a
# process loads only what its subcommand runs
from . import special
from .errors import DomainError, SglapError, UsageError

SPECTRUM_TOL = 1e-9
EVAL_TOL = 1e-9
TANGENT_TOL = 1e-7

# rows per output block: a writer holds one block at a time, as row text,
# joined text and encoded bytes; below 256 rows the peak hardly falls
BLOCK_ROWS = 1 << 8


def _row_ranges(n: int):
    """(lo, hi) bounds of the BLOCK_ROWS-row blocks of n rows."""
    return ((lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


def _csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    # csv.writer prints a float as its repr and None as an empty field
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _table_blocks(fmt: str, columns, rows):
    """A table as text blocks: the header, then BLOCK_ROWS rows at a time,
    taken from `rows` one block at a time and held no longer than their
    text, then the footer.  The bytes equal what csv.writer(lineterminator=
    "\n") and json.dumps(records, indent=2) give for these rows; a JSON
    block after the first starts with ",\n".  json's own encoder spells
    each JSON cell, one call per block.  A cell is a str, int, float, bool
    or None, or a subclass of one; anything else raises TypeError."""
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, BLOCK_ROWS)), [])
    if fmt == "csv":
        yield _csv_text([columns])
        yield from map(_csv_text, blocks)
        return
    from json.encoder import JSONEncoder, encode_basestring_ascii

    # the encoder writes a control character inside a string as \u00XX, so
    # in its text "\x1f" only ends a cell and "]\x1f[" only ends a row
    encode = JSONEncoder(separators=("\x1f", ":")).encode
    record = "  {\n" + ",\n".join(
        [f"    {encode_basestring_ascii(c).replace('%', '%%')}: %s" for c in columns]) + "\n  }"
    seam = "[\n"
    for block in blocks:
        # the block's distinct types in the order they first appear, so that
        # a refusal names the first cell of another type
        for kind in dict.fromkeys(map(type, itertools.chain.from_iterable(block))):
            if not issubclass(kind, (str, int, float, type(None))):
                raise TypeError(f"a table cell must be a str, int, float, bool or None, "
                                f"got {kind.__name__}")
        yield seam + ",\n".join([record % tuple(row.split("\x1f"))
                                 for row in encode(block)[2:-2].split("]\x1f[")])
        seam = ",\n"
    yield "[]\n" if seam == "[\n" else "\n]\n"


def _emit(args, blocks):
    """Write the text blocks to stdout or to --output.

    A regular --output file is written atomically: into a new file in the
    target's directory, renamed onto the target once every block is written,
    and removed on any failure, so that a failure leaves no file behind.
    Targets that exist but are not regular files (/dev/null, a FIFO) are
    written in place.  writelines lets go of each block once it is written,
    before the next one is made."""
    if args.output is None:
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


def _plain(kind, text: str):
    """int or float of text, refusing what both read besides ASCII numbers:
    "1_0" as 10, "+10" as 10, digits of any script and whitespace around the
    number.  An exponent keeps its sign: repr writes 1e16 as "1e+16"."""
    if "_" in text:
        raise ValueError(f"invalid digit grouping in {text!r}")
    if text.startswith("+"):
        raise ValueError(f"a number must not start with '+', got {text!r}")
    if not (text.isascii() and text.isprintable()) or " " in text:
        raise ValueError(f"a number must be printable ASCII without whitespace, got {text!r}")
    return kind(text)


def parse_verify_tol(text: str) -> float:
    """--verify-tol: any number but NaN.  _verdict passes a check only when
    its figure is below the tolerance, so 0 or less makes every check fail."""
    try:
        tol = _plain(float, text)
    except ValueError:
        raise UsageError(f"verify tolerance must be a number, got {text!r}") from None
    if math.isnan(tol):
        raise UsageError(f"verify tolerance must not be NaN, got {text!r}")
    return tol


def parse_level(text: str) -> int:
    """--level: an int, with argparse's message for a malformed one."""
    try:
        return _plain(int, text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _grid_point(grid, i: int) -> float:
    """Point i of the inclusive grid (a, b, n) from parse_range."""
    a, b, n = grid
    return a + (b - a) * i / (n - 1) if n > 1 else a


def parse_range(text: str) -> tuple:
    """--range a:b:n: the n-point inclusive grid as (a, b, n), every point
    finite.  Each step of a point's expression is a correctly rounded
    monotone operation in i, so the points lie between the two ends and the
    ends decide finiteness (inf * 0 = nan can only happen at i = 0)."""
    try:
        a, b, n = text.split(":")
        a, b, n = _plain(float, a), _plain(float, b), _plain(int, n)
        float(n)  # a point divides by n - 1
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"malformed range {text!r}: {exc}") from None
    if n < 1:
        raise UsageError(f"range needs at least one point, got {n}")
    grid = a, b, n
    if not all(math.isfinite(z) for z in [a, b, _grid_point(grid, 0), _grid_point(grid, n - 1)]):
        raise UsageError(f"range endpoints and grid points must be finite, got {text!r}")
    return grid


def parse_seed(text: str):
    """Resolve the seed mini-grammar to a harmonic.SpectralEigenfunction."""
    from . import decimation, harmonic

    # float and int would skip whitespace around a number and read digits of any script
    if not (text.isascii() and text.isprintable()) or " " in text:
        raise UsageError(f"seed must be printable ASCII without whitespace, got {text!a}")
    parts = text.split(":")
    if not parts or parts[0] == "":
        raise UsageError(f"empty seed spec {text!r}")
    if parts[0] == "free":
        if len(parts) != 3:
            raise UsageError(f"free seed needs free:lambda:u0,u1,u2, got {text!r}")
        try:
            lam = _plain(float, parts[1])
            triple = [_plain(float, x) for x in parts[2].split(",")]
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
        return harmonic.SpectralEigenfunction(seq, dict(enumerate(triple)))
    if len(parts) not in (3, 4):
        raise UsageError(f"seed needs series:m0:index[:branches], got {text!r}")
    series = parts[0]
    try:
        m0 = _plain(int, parts[1])
        index = _plain(int, parts[2])
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


def _complain(line: str) -> None:
    """One line to stderr; a closed stderr goes to devnull, as stdout does."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _verdict(what: str, worst: float, tol: float) -> int:
    """The exit code of a --verify check: 0 when its worst figure is below
    the tolerance, else 4 with one stderr line.  Written so that a NaN
    figure fails too."""
    if worst < tol:
        return 0
    _complain(f"verification failed: {what} {worst:.3e} >= {tol:.3e}")
    return 4


# --- spectrum ---------------------------------------------------------------

def cmd_spectrum(args) -> int:
    from . import decimation

    # --verify counts the eigenvalues below and above each line, so it walks
    # the whole spectrum and prints the series' rows of it
    lines = decimation.enumerate_dirichlet_spectrum(
        args.level, "all" if args.verify else args.series)
    columns = ["series", "m0", "branches", "lambda_m", "lambda", "multiplicity"]
    if not args.verify:
        _emit(args, _table_blocks(args.format, columns, lines))
        return 0
    from . import oracle

    worst = 0.0

    def rows():
        # the last pair, with no line, holds the count of all the eigenvalues
        nonlocal worst
        for line, width in oracle.bracket_half_widths(args.level, lines):
            worst = max(worst, width)
            if line is not None and args.series in ("all", line.series):
                yield (*line, width)

    _emit(args, _table_blocks(args.format, [*columns, "residual"], rows()))
    return _verdict("widest eigenvalue bracket", worst, args.verify_tol)


# --- eval -------------------------------------------------------------------

def _eval_blocks(args, u, lattice):
    """The eval output as text blocks: a header, then each part of
    mesh.walk zipped with its mesh.points of `lattice` (the reprs of
    address.lattice_lines(level)) and, but for obj, its mesh.addresses, as
    rows in blocks of at most BLOCK_ROWS, one block held as text at a time;
    then obj's faces, one part of mesh.cells(level, 1) at a time.  Columns
    that differ in length, or parts that do not make |V_level| rows, raise
    SglapError.  The bytes equal what csv.writer and json.dumps(indent=2)
    give for these rows (addresses need no quoting, and finite floats print
    as repr in both); a JSON block after the first starts with ",\n"."""
    from .decimation import vertex_count
    from .mesh import addresses, cells, points, walk

    level, fmt = args.level, args.format
    if fmt == "obj":
        yield f"# sglap eval seed={args.seed} level={level}\n"
    else:
        yield "address,level,x,y,value\n" if fmt == "csv" else "[\n"
    seam, rows, parts = [], 0, walk(u, level)
    # the values come last, so that a part of them left over is counted below
    layout = [points(level, lattice), *([] if fmt == "obj" else [addresses(level)])]
    for (xs, ys), *names, values in zip(*layout, parts):
        if len({len(values), len(xs), len(ys), *map(len, names)}) > 1:
            raise SglapError(f"the values of V_{level} come in a part of the wrong length")
        rows += len(values)
        for i, j in _row_ranges(len(values)):
            x, y, v = xs[i:j], ys[i:j], list(map(repr, values[i:j]))
            if fmt == "obj":
                yield "v " + "\nv ".join(map(" ".join, zip(x, y, v))) + "\n"
            elif fmt == "csv":
                yield "\n".join(map(",".join, zip(names[0][i:j], itertools.repeat(str(level)),
                                                   x, y, v))) + "\n"
            else:
                # a leading "" puts the seam before every block but the first
                yield ",\n".join(seam + [
                    f'  {{\n    "address": "{s}",\n    "level": {level},\n    "x": {a},\n'
                    f'    "y": {b},\n    "value": {c}\n  }}'
                    for s, a, b, c in zip(names[0][i:j], x, y, v)])
                seam = [""]
    rows += sum(map(len, parts))
    if rows != vertex_count(level):
        raise SglapError(f"the values of V_{level} take {rows} rows, not {vertex_count(level)}")
    if fmt == "obj":
        for part in cells(level, 1):
            yield ("f %d %d %d\n" * (len(part) // 3)) % part
    elif fmt == "json":
        yield "\n]\n"


# the text of each value in an eval block: the last field of a csv row (an
# address starts with a digit or ":", the header with a letter, and no field
# is quoted), the rest of a json "value" line, the last field of an obj vertex
_VALUE_PATTERNS = {"csv": r"^[0-9:].*,(.*)$", "json": r'"value": (.*)', "obj": r"^v .* (.*)$"}


def _block_values(fmt: str, block: str) -> list:
    """The vertex values that one eval output block spells, read by one
    multiline pattern per format, so that no row is split or parsed whole
    in Python.  re compiles each pattern on first use and caches it, so
    that a process that writes no eval block compiles none."""
    return list(map(float, re.findall(_VALUE_PATTERNS[fmt], block, re.MULTILINE)))


def cmd_eval(args) -> int:
    from .address import lattice_lines
    from .decimation import vertex_count
    from .mesh import cells, eigen_residual, walk

    u = parse_seed(args.seed)
    # repr runs once per lattice line, O(2^level) of them, not per vertex:
    # mesh.points takes each subtree's x and y from a slice of these strings
    blocks = _eval_blocks(args, u, [list(map(repr, column)) for column in lattice_lines(args.level)])
    # every value is checked in a first walk, before the first byte, and
    # walked again to be written
    if not all(all(map(math.isfinite, part)) for part in walk(u, args.level)):
        raise SglapError(f"seed {args.seed!r} gives non-finite values on V_{args.level}")
    if not args.verify:
        _emit(args, blocks)
        return 0
    from array import array

    back = array("d")

    def reingest():
        for block in blocks:
            yield block
            back.extend(_block_values(args.format, block))

    _emit(args, reingest())
    if len(back) != vertex_count(args.level):
        raise SglapError(f"re-ingested {len(back)} values, expected {vertex_count(args.level)}")
    residual = eigen_residual(cells(args.level), back, u.sequence.value(args.level))
    return _verdict("round-trip residual", residual, args.verify_tol)


# --- tangent ----------------------------------------------------------------

def cmd_tangent(args) -> int:
    from . import tangent
    from .address import EventuallyConstantWord

    u = parse_seed(args.seed)
    try:
        word = EventuallyConstantWord.parse(args.word)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    triple, grad = tangent.tangent_at(u, word)
    if not all(map(math.isfinite, [*triple, *grad])):
        raise SglapError(f"seed {args.seed!r} gives a non-finite tangent at {word}")
    columns = ["word", "k", "t0", "t1", "t2", "g0", "g1", "g2"]
    row = [str(word), tangent.cut_level(word, u.m0), *triple, *grad]
    deviation = None
    if args.verify:
        from . import oracle

        # past the cut and the last plus level the iterates contract three-fold per level
        depth = max(tangent.cut_level(word, u.m0), max(u.sequence.plus_indices, default=0))
        ref, err = oracle.direct_tangent_limit(u, word, depth + 40)
        deviation = max(abs(a - b) for a, b in zip(triple, ref))
        columns += ["oracle_t0", "oracle_t1", "oracle_t2", "deviation", "error_estimate"]
        row += [*ref, deviation, err]
    _emit(args, _table_blocks(args.format, columns, [row]))
    if deviation is None:
        return 0
    return _verdict("tangent deviates from the direct limit by", deviation, args.verify_tol)


# --- special ----------------------------------------------------------------

def _special_row(fn: str, z: float) -> list:
    """The special table's row at grid point z; a failure fills its note."""
    try:
        if fn == "upsilon":
            return [z, *special.upsilon_with_error(z), None]
        value, error = special.psi_limit_with_error(z)
        # audit psi(Psi(z)) = Psi(5z) wherever 5z is in the domain (an
        # overflowing 5z is not); a failure there fails the row
        audit = None
        if abs(5.0 * z) <= special.PSI_DOMAIN_BOUND:
            audit = abs(special.psi(value) - special.psi_limit_with_error(5.0 * z)[0])
        return [z, value, error, audit, None]
    except SglapError as exc:
        return [z, None, None, *[None] * (fn == "psi"), str(exc)]


def _special_rows(fn: str, grid):
    """The special table's rows, one grid point at a time, so that no grid
    is held."""
    for i in range(grid[2]):
        yield _special_row(fn, _grid_point(grid, i))


def cmd_special(args) -> int:
    columns = ["z", "value", "error", *["functional_eq"] * (args.fn == "psi"), "note"]
    _emit(args, _table_blocks(args.format, columns, _special_rows(args.fn, args.range)))
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
    sp.add_argument("--level", type=parse_level, required=True)
    sp.add_argument("--series", choices=["two", "five", "six", "all"], default="all")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--verify", action="store_true",
                    help="bracket each eigenvalue by counting eigenvalues by inertia")
    sp.add_argument("--verify-tol", type=parse_verify_tol, default=SPECTRUM_TOL)
    sp.add_argument("--output")
    sp.set_defaults(run=cmd_spectrum)

    ev = sub.add_parser("eval", help="evaluate an eigenfunction on V_m")
    ev.add_argument("--seed", required=True)
    ev.add_argument("--level", type=parse_level, required=True)
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
                    help="compare against the direct limit iterated 40 levels past the cut "
                         "and the last plus level")
    tg.add_argument("--verify-tol", type=parse_verify_tol, default=TANGENT_TOL)
    tg.add_argument("--output")
    tg.set_defaults(run=cmd_tangent)

    spc = sub.add_parser("special", help="tabulate Psi or Upsilon on a grid")
    spc.add_argument("--fn", choices=["psi", "upsilon"], required=True)
    spc.add_argument("--range", type=parse_range, required=True,
                     help="a:b:n inclusive grid (write --range=-2:2:5 for negative a)")
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
        _complain(f"usage error: cannot write to stdout: {exc.strerror}")
        return 2
    except UsageError as exc:
        _complain(f"usage error: {exc}")
        return 2
    except SglapError as exc:
        _complain(f"error: {exc}")
        return 3
    except MemoryError as exc:
        _complain(f"error: out of memory: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
