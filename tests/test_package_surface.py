"""The package holds what a run or its public API reaches.

Every function and method defined in ``src/supergeo`` must be named
somewhere else: in ``src`` beyond its own definition, or in ``demos/`` or
``perfbench/``.  A function is named by an identifier, an attribute, or a
dotted part of a string that is not a docstring, since the benchmark tracer
names its entry points by string (``"Superfunction.substitute"``).  A
method is named only by an attribute (``pool.scalar``), an identifier in
its own class body (``MODES = {"i": mode_i}``) or a part of a dotted string:
a local variable or keyword of the same name does not reach it.  Code
reached only from ``tests/`` belongs in ``tests/``.
"""

import ast
import pathlib

import supergeo

from conftest import SRC, walk_scopes

ROOT = pathlib.Path(__file__).resolve().parent.parent
USERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# the deliberate dual routes: independent oracles that the tests compare the
# package's own routes against
ORACLES = {
    "connection_residuals",
    "divergence_via_frame",
    "str_with_metric_via_matrix",
    "tension_with_frame",
}


def _docstrings(tree):
    """The ids of the docstring nodes of ``tree``."""
    out = set()
    for node, _, _ in walk_scopes(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _scan(path, defined, uses):
    """Add the functions and methods defined in ``path`` to ``defined``
    (name -> [(place, class or None)]) and the names it uses to ``uses``, as
    ``(kind, name)``: kind ``"any"`` for every identifier, attribute and
    string part, ``"member"`` for an attribute or a part of a dotted string,
    and the class itself for an identifier in a class body.  A use inside
    the function of the same name (a recursive call) does not count, nor
    does ``__all__`` itself."""
    tree = ast.parse(path.read_text())
    skipped = _docstrings(tree) | {id(node) for assign, _, _ in walk_scopes(tree)
                                   if isinstance(assign, ast.Assign) and any(
                                       isinstance(t, ast.Name) and t.id == "__all__"
                                       for t in assign.targets)
                                   for node, _, _ in walk_scopes(assign)}
    for node, enclosing, owner in walk_scopes(tree):
        owner = owner and f"{path.name}:{owner}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.setdefault(node.name, []).append((f"{path.name}:{node.lineno}", owner))
        kinds = ["any"]
        if id(node) in skipped:
            names = []
        elif isinstance(node, ast.Name):
            names = [node.id]
            kinds += [owner] if owner else []
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            kinds.append("member")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [p for p in node.value.split(".") if p.isidentifier()]
            kinds += ["member"] if len(names) > 1 else []
        else:
            names = []
        uses.update((kind, n) for n in names if n not in enclosing for kind in kinds)


def test_every_function_in_src_is_reached_outside_tests():
    """Dunder methods are exempt: the interpreter calls them through
    operators and builtins.  So are the public API and the oracles, which
    must still be defined, so that no exemption outlives its name."""
    defined, uses = {}, set()
    for path in SRC:
        _scan(path, defined, uses)
    for path in USERS:
        _scan(path, {}, uses)
    assert ORACLES <= set(defined)
    exempt = set(supergeo.__all__) | ORACLES
    unreached = {}
    for name, places in sorted(defined.items()):
        if name in exempt or (name.startswith("__") and name.endswith("__")):
            continue
        # a function by any use of its name, a method as a member or in its class body
        if missed := [place for place, owner in places
                      if not uses & ({("any", name)} if owner is None
                                     else {("member", name), (owner, name)})]:
            unreached[name] = missed
    assert not unreached, f"defined in src/supergeo but named only in tests: {unreached}"
