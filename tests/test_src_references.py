"""Tooling guards: every public function, class, method and module-level
constant in src has a caller elsewhere in src, and every field of a
dataclass or typing.NamedTuple in src is read somewhere in src, or each has
a stated reason to exist without one.

A name counts as referenced when it appears anywhere in src outside its own
definition: as a bare name, an attribute or an imported name.  A constant's
module-level `NAME.setflags(write=False)` is part of its definition.  A
field counts as read when some `x.field` in src loads it.  Matching is by
name, so a method or field shares its uses with every other use of the same
word; the guards catch what nothing names at all."""
import ast
import pathlib

import sglap

SRC = pathlib.Path(sglap.__file__).parent

UNREFERENCED = {
    "address.apply_ifs": "float reference for the exact vertex keys",
    "address.vertex_key": "scalar addressing reference for the level graph",
    "address.resolve_addresses": "scalar addressing reference for the level graph",
    "harmonic.HARMONIC_MATRICES": "the 1-5-5 matrices that extend_level and "
                                  "eigen_matrices(0.0) are tested against",
    "tangent.normal_derivative": "the paper's closed-form normal derivative",
    "special.psi_m": "the paper's psi_m approximant",
    "special.upsilon": "the paper's tail product Upsilon",
    "special.upsilon_with_error": "a layer span of perfbench/launcher.py",
    "oracle.sorted_pairing_gap": "oracle helper: pairs two spectra in order",
    "oracle.interval_tangent": "oracle helper: the unit-interval comparison model",
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
