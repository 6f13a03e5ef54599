"""Tooling guards: every public function, class, method and module-level
constant in src has a caller elsewhere in src, and every field of a
dataclass or typing.NamedTuple in src is read somewhere in src, or each has
a stated reason to exist without one.

A name counts as referenced when it appears anywhere in src outside its own
definition: as a bare name, an attribute or an imported name.  A constant's
module-level `NAME.setflags(write=False)` is part of its definition.  A
field counts as read when some `x.field` in src loads it.  Matching is by
name, so a method or field shares its uses with every other use of the same
word; the guards catch what nothing names at all.

A third guard runs the CLI and checks that every public function and
method of src ran, matched by code object, so that a name shared with
another definition hides nothing."""
import ast
import json
import pathlib
import subprocess
import sys

import sglap

SRC = pathlib.Path(sglap.__file__).parent

UNREFERENCED = {
    "tangent.normal_derivative": "the paper's closed-form normal derivative; its runtime "
                                 "caller is the planned `sglap normal` subcommand",
}

UNREAD_FIELDS = {}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _setflags(tree, name):
    """The module-level `name.setflags(...)` statements."""
    return [node for node in tree.body if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "setflags"
            and isinstance(node.value.func.value, ast.Name) and node.value.func.value.id == name]


def _definitions(tree):
    """(qualified name, defining nodes) of the public top-level
    functions, classes and constants and of the public methods of public
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
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


def _unreferenced():
    trees = _trees()
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


def _is_record(node):
    """A class decorated with @dataclass(...) or derived from NamedTuple."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple"
        or isinstance(b, ast.Attribute) and b.attr == "NamedTuple" for b in node.bases)


def _fields(tree):
    """(qualified name, field name) of every field of a top-level dataclass
    or NamedTuple."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _unread_fields():
    trees = _trees()
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, name in _fields(tree) if name not in read]


def test_every_dataclass_field_is_read_or_has_a_reason():
    assert sorted(set(_unread_fields()) - set(UNREAD_FIELDS)) == []


def test_every_unread_field_entry_is_still_unread():
    assert sorted(set(UNREAD_FIELDS) - set(_unread_fields())) == []
    assert all(UNREAD_FIELDS.values())


# small invocations that together reach every subcommand, format and
# option that changes what runs, with a free:, a series and a six: seed
REACH_INVOCATIONS = [
    ["spectrum", "--level", "3", "--format", "json", "--verify", "--verify-tol", "1e-8"],
    ["spectrum", "--level", "2", "--series", "five"],
    ["eval", "--seed", "free:7.3:1,-2,3", "--level", "3", "--verify"],
    ["eval", "--seed", "six:2:1:+-", "--level", "3", "--format", "json", "--verify",
     "--verify-tol", "1e-8"],
    ["eval", "--seed", "five:2:1", "--level", "2", "--format", "obj"],
    ["tangent", "--seed", "two:1:1", "--word", "01:2", "--verify"],
    ["tangent", "--seed", "free:7.3:1,-2,3", "--word", ":0", "--format", "json"],
    ["special", "--fn", "psi", "--range=-2:2:5", "--tol", "1e-12"],
    ["special", "--fn", "upsilon", "--range", "0:3:4", "--format", "json"],
]

UNRUN = {
    "tangent.normal_derivative": "no subcommand prints normal derivatives yet",
    "harmonic.normal_derivative_limit": "called by tangent.normal_derivative only",
    "harmonic.harmonic_normal_derivative": "called by tangent.normal_derivative only",
    "harmonic.SpectralEigenfunction.value_at": "called by tangent.normal_derivative only",
}

# run in a fresh process, so that no cache an earlier test filled hides a call
_REACH_SCRIPT = """if True:
    import contextlib, importlib, inspect, io, json, pkgutil, sys

    import sglap
    from sglap import cli

    public = {}  # code object -> module.qualified name
    for info in pkgutil.iter_modules(sglap.__path__):
        module = importlib.import_module(f"sglap.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                # a property's getter, a classmethod's function, an lru_cache's target
                member = inspect.unwrap(getattr(member, "fget", None)
                                        or getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    public[member.__code__] = ".".join(filter(None, [info.name, name, attr]))

    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()) as err:
            sys.setprofile(profile)
            codes.append(cli.main(argv))
            sys.setprofile(None)
        assert codes[-1] == 0, (argv, err.getvalue())
    print(json.dumps(sorted(name for code, name in public.items() if code not in ran)))
"""


def test_every_public_function_runs_in_a_cli_invocation():
    proc = subprocess.run([sys.executable, "-c", _REACH_SCRIPT, json.dumps(REACH_INVOCATIONS)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(UNRUN)
    assert all(UNRUN.values())
