"""Tooling guard: every public function, class and method in src has a
caller elsewhere in src, or a stated reason to exist without one.

A name counts as referenced when it appears anywhere in src outside its own
definition: as a bare name, an attribute or an imported name.  Matching is
by name, so a method shares its references with every other use of the same
word; the guard catches definitions that nothing names at all."""
import ast
import pathlib

import sglap

SRC = pathlib.Path(sglap.__file__).parent

UNREFERENCED = {
    "address.apply_ifs": "float reference for the exact vertex keys",
    "address.vertex_key": "scalar addressing reference for the level graph",
    "address.resolve_addresses": "scalar addressing reference for the level graph",
    "tangent.limit_action": "the paper's closed form of the tail action",
    "tangent.normal_derivative": "the paper's closed-form normal derivative",
    "tangent.dirichlet_tangent_seed": "the paper's Dirichlet tangent seed pieces",
    "special.psi_m": "the paper's psi_m approximant",
    "special.upsilon": "the paper's tail product Upsilon",
    "special.upsilon_with_error": "a layer span of perfbench/launcher.py",
    "oracle.sorted_pairing_gap": "oracle helper: pairs two spectra in order",
    "oracle.interval_tangent": "oracle helper: the unit-interval comparison model",
}


def _definitions(tree):
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = [name for tree in trees.values() for name in _names(tree)]
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            own = list(_names(node))
            if everywhere.count(node.name) == own.count(node.name):
                found.append(f"{module}.{qualname}")
    return found


def test_every_public_definition_has_a_caller_or_a_reason():
    assert sorted(set(_unreferenced()) - set(UNREFERENCED)) == []


def test_every_allowlist_entry_is_still_unreferenced():
    assert sorted(set(UNREFERENCED) - set(_unreferenced())) == []
    assert all(UNREFERENCED.values())
