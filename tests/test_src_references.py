"""Tooling guards: every top-level function, private ones included, and
every public class, method and module-level constant in src has a caller
elsewhere in src, and every field of a dataclass, typing.NamedTuple or
__slots__ class in src is read somewhere in src, or each has a stated
reason to exist without one.

A name counts as referenced when it appears anywhere in src outside its own
definition: as a bare name, an attribute or an imported name.  A constant's
module-level `NAME.setflags(write=False)` is part of its definition.  A
field counts as read when some `x.field` in src loads it, unless x is
`args`, the argparse namespace, whose options share names with fields.
Matching is by name, so a method or field shares its uses with every other
use of the same word; the guards catch what nothing names at all.

A third guard checks that every parameter with a default in src is passed
at some call in src of its function's name, by position or by keyword (a
class's name for its __init__), or has a stated reason not to be: a default
that no call overrides is a setting that nothing sets.

A fourth guard runs the CLI and checks that every function and method of
src ran, private and special ones (__len__, __repr__, ...) included,
matched by code object, so that a name shared with another definition
hides nothing.

A fifth guard lists the functions of src that import numpy, and no module
imports it at its top.  The list is empty: numpy is a test dependency, for
the references that the tests compare against.

A sixth guard checks that every exception class errors.py defines is named
by some `except` clause in src: a class that nothing catches by name tells
apart nothing, and its raises can raise the class it derives from."""
import ast
import importlib
import json
import math
import pathlib
import subprocess
import sys

import sglap

SRC = pathlib.Path(sglap.__file__).parent

UNREFERENCED = {}

UNREAD_FIELDS = {
    "decimation.SpectrumLine.branches": "a line is the row `spectrum` prints, which "
                                        "cli.cmd_spectrum unpacks whole; nothing reads "
                                        "the branch string alone",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _setflags(tree, name):
    """The module-level `name.setflags(...)` statements."""
    return [node for node in tree.body if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "setflags"
            and isinstance(node.value.func.value, ast.Name) and node.value.func.value.id == name]


def _definitions(tree):
    """(qualified name, defining nodes) of the top-level functions, private
    ones included, of the public top-level classes and constants and of the
    public methods of public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) or (isinstance(node, ast.ClassDef)
                                                 and not node.name.startswith("_")):
            yield node.name, [node]
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", [item]
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, [node, *_setflags(tree, target.id)]


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced(trees=None):
    trees = _trees() if trees is None else trees
    everywhere = [name for tree in trees.values() for name in _names(tree)]
    found = []
    for module, tree in trees.items():
        for qualname, nodes in _definitions(tree):
            name = qualname.rpartition(".")[2]
            own = [n for node in nodes for n in _names(node)]
            if everywhere.count(name) == own.count(name):
                found.append(f"{module}.{qualname}")
    return found


def test_every_public_definition_has_a_caller_or_a_reason():
    assert sorted(set(_unreferenced()) - set(UNREFERENCED)) == []


def test_every_allowlist_entry_is_still_unreferenced():
    assert sorted(set(UNREFERENCED) - set(_unreferenced())) == []
    assert all(UNREFERENCED.values())


def test_a_private_helper_that_only_tests_call_is_unreferenced():
    # a test's call is no caller: a private step kept for the tests alone is
    # found like a public one
    source = """
def _step(x):
    return x + 1

def _run(x):
    return _step(x)

def run(x):
    return _run(x)
"""
    tree = ast.parse(source)
    assert _unreferenced({"synthetic": tree}) == ["synthetic.run"]
    tree.body.pop()
    assert _unreferenced({"synthetic": tree}) == ["synthetic._run"]


def _is_record(node):
    """A class decorated with @dataclass(...) or derived from NamedTuple."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple"
        or isinstance(b, ast.Attribute) and b.attr == "NamedTuple" for b in node.bases)


def _slots(node):
    """The names a class body assigns to __slots__, a string or a tuple or
    list of strings."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            value = item.value
            return [e.value for e in (value.elts if isinstance(value, (ast.Tuple, ast.List))
                                      else [value])]
    return []


def _fields(tree):
    """(qualified name, field name) of every field of a top-level
    dataclass or NamedTuple (its annotated names) and of every slot of a
    top-level __slots__ class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if _is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}", item.target.id
            for name in _slots(node):
                yield f"{node.name}.{name}", name


def _unread_fields(trees=None):
    """The fields of the trees (src by default) that no load reads; a load
    off `args`, the argparse namespace, reads an option, not a field."""
    trees = _trees() if trees is None else trees
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and not (isinstance(sub.value, ast.Name) and sub.value.id == "args")}
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name in _fields(tree) if name not in read]


def test_every_dataclass_field_is_read_or_has_a_reason():
    assert sorted(set(_unread_fields()) - set(UNREAD_FIELDS)) == []


def test_every_unread_field_entry_is_still_unread():
    assert sorted(set(UNREAD_FIELDS) - set(_unread_fields())) == []
    assert all(UNREAD_FIELDS.values())


def test_an_option_of_the_same_name_is_no_read_of_a_field():
    # `level` is read only as an argparse option, `value` off a record
    source = """
from typing import NamedTuple

class Row(NamedTuple):
    level: int
    value: float

def show(row, args):
    return row.value, args.level
"""
    assert _unread_fields({"synthetic": ast.parse(source)}) == ["synthetic.Row.level"]


def test_the_field_guard_reads_every_slot_of_every_class():
    # the classes as the interpreter sees them, against what _fields parses
    found = {f"{module}.{qualname}" for module, tree in _trees().items()
             for qualname, _ in _fields(tree)}
    slots = set()
    for module in _trees():
        for name, obj in vars(importlib.import_module(f"sglap.{module}")).items():
            if isinstance(obj, type) and obj.__module__ == f"sglap.{module}":
                slots.update(f"{module}.{name}.{slot}" for slot in vars(obj).get("__slots__", ()))
    assert slots and slots <= found
    assert {"address.EventuallyConstantWord.prefix", "decimation.EigenvalueSequence._values", "harmonic.SpectralEigenfunction.seed_values",
            "harmonic.SpectralEigenfunction.sequence"} <= slots


# every function of src that imports numpy, by its qualified name
NUMPY_IMPORTERS = set()


def _numpy_importers():
    """The qualified names of the functions, nested ones included, whose own
    body imports numpy or a submodule of it, and of the modules that import
    it outside any function."""
    def imports_numpy(node):
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "numpy" for alias in node.names) or \
            isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"

    def visit(node, qualname):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(item, f"{qualname}.{item.name}")
            elif imports_numpy(item):
                yield qualname
            else:
                yield from visit(item, qualname)

    return {name for module, tree in _trees().items() for name in visit(tree, module)}


def test_only_the_listed_functions_import_numpy():
    assert _numpy_importers() == NUMPY_IMPORTERS


UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script and `python -m sglap.cli` call main() to read "
                     "sys.argv; the tests pass argv",
}


def _defaults(tree):
    """(qualified name, call name, position, parameter) of every parameter
    with a default of a function or method in the tree, nested ones
    included.  position counts the arguments a call passes, so a method's
    self or cls is not counted; it is None for a keyword-only parameter."""
    def visit(node, prefix, owner):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{item.name}"
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                skip = owner is not None and not static
                args = item.args
                positional = args.posonlyargs + args.args
                call = owner if owner is not None and item.name == "__init__" else item.name
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    yield qualname, call, index - skip, positional[index].arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualname, call, None, arg.arg
                yield from visit(item, f"{qualname}.", None)
            else:
                yield from visit(item, prefix, owner)

    yield from visit(tree, "", None)


def _unpassed_defaults():
    trees = _trees()
    calls = {}  # call name -> [(positional count, keyword names)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), keywords))
    return [f"{module}.{qualname}.{param}" for module, tree in trees.items()
            for qualname, call, position, param in _defaults(tree)
            if not any(None in keywords or param in keywords
                       or position is not None and count > position
                       for count, keywords in calls.get(call, []))]


def test_every_default_is_passed_somewhere_or_has_a_reason():
    assert sorted(set(_unpassed_defaults()) - set(UNPASSED_DEFAULTS)) == []


def test_every_unpassed_default_entry_is_still_unpassed():
    assert sorted(set(UNPASSED_DEFAULTS) - set(_unpassed_defaults())) == []
    assert all(UNPASSED_DEFAULTS.values())


# small invocations, each with its exit code, that together reach every
# subcommand, format and option that changes what runs, with a free:, a
# series and a six: seed, and a usage error
REACH_INVOCATIONS = [
    (["spectrum", "--level", "3", "--format", "json", "--verify", "--verify-tol", "1e-8"], 0),
    (["spectrum", "--level", "2", "--series", "five"], 0),
    (["spectrum", "--level", "x"], 2),
    (["eval", "--seed", "free:7.3:1,-2,3", "--level", "3", "--verify"], 0),
    (["eval", "--seed", "six:2:1:+-", "--level", "3", "--format", "json", "--verify",
      "--verify-tol", "1e-8"], 0),
    (["eval", "--seed", "five:2:1", "--level", "2", "--format", "obj"], 0),
    # level 8 walks V_8 as 9 subtrees of V_6 and the V_2 vertices between them
    (["eval", "--seed", "two:1:1", "--level", "8"], 0),
    (["tangent", "--seed", "two:1:1", "--word", "01:2", "--verify"], 0),
    (["tangent", "--seed", "free:7.3:1,-2,3", "--word", ":0", "--format", "json"], 0),
    (["special", "--fn", "psi", "--range=-2:2:5"], 0),
    (["special", "--fn", "upsilon", "--range", "0:3:4", "--format", "json"], 0),
]

UNRUN = {}

# run in a fresh process, so that no cache an earlier test filled hides a call
_REACH_SCRIPT = """if True:
    import contextlib, importlib, inspect, io, json, os, pkgutil, sys

    import sglap
    from sglap import cli

    src = os.path.dirname(sglap.__file__) + os.sep
    defined = {}  # code object -> module.qualified name
    for info in pkgutil.iter_modules(sglap.__path__):
        module = importlib.import_module(f"sglap.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                # a property's getter, a classmethod's function, an lru_cache's target
                member = inspect.unwrap(getattr(member, "fget", None)
                                        or getattr(member, "__func__", member))
                # src's own code, not the methods NamedTuple generates
                if inspect.isfunction(member) and member.__code__.co_filename.startswith(src):
                    defined[member.__code__] = ".".join(filter(None, [info.name, name, attr]))

    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    for argv, expected in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()) as err:
            sys.setprofile(profile)
            got = cli.main(argv)
            sys.setprofile(None)
        assert got == expected, (argv, got, err.getvalue())
    print(json.dumps(sorted(name for code, name in defined.items() if code not in ran)))
"""


def test_every_function_runs_in_a_cli_invocation():
    proc = subprocess.run([sys.executable, "-c", _REACH_SCRIPT, json.dumps(REACH_INVOCATIONS)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(UNRUN)
    assert all(UNRUN.values())


def _caught(trees):
    """The names in the `except` clauses of the trees, bare or as the last
    part of an attribute, alone or in a tuple."""
    return {name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for name in _names(node.type)}


def _uncaught_errors(trees=None):
    """The classes errors.py defines that no `except` clause of the trees
    (src by default) names."""
    trees = _trees() if trees is None else trees
    caught = _caught(trees)
    return [node.name for node in trees["errors"].body
            if isinstance(node, ast.ClassDef) and node.name not in caught]


def test_every_error_class_is_caught_by_name():
    assert _uncaught_errors() == []


def test_an_uncaught_error_class_is_found():
    # a class that is raised but never named by an except, next to one
    # caught in a tuple and one caught as an attribute
    trees = {"errors": ast.parse("class A(Exception): pass\n"
                                 "class B(A): pass\n"
                                 "class C(A): pass\n"),
             "cli": ast.parse("try:\n    raise B()\nexcept (KeyError, errors.A):\n    pass\n"
                              "try:\n    pass\nexcept C:\n    raise B()\n")}
    assert _uncaught_errors(trees) == ["B"]
