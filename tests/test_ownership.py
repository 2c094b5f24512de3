"""The ownership rules of the package, as one table read off its source.

Each representation and sign rule has one owning module: odd monomials and
``Superfunction.terms`` in ``scalars``, exponent keys in ``zpoly``, the
supermetric axioms in ``supermatrix`` and the J signs in ``geometry``;
sympy stays out of every module's import, and ``dataclasses``, ``inspect``
and ``typing`` out of the package.  ``RULES`` states each rule as a
row, a set of owner modules and a forbidden construct: the owners may use
the construct, every other module may not.  One checker runs every row on
the syntax tree of each module of ``src/supergeo``, read through
``conftest.walk_scopes``, so the rules read code, never comments or
docstrings.  Imports are resolved, under any alias and whether a statement
or an ``importlib.import_module``/``__import__`` call makes them; an
attribute is read by a dot or by ``getattr``/``hasattr`` of a string.  A
rule keyed on a variable name (``mono[``) stays name-based: the checker
knows no types.  Each row has seeded violations below that fail it in a
module it names and pass in an owner.
"""

import ast
from typing import Callable, NamedTuple

import pytest

from conftest import SRC, walk_scopes

PACKAGE = "supergeo"
MODULES = frozenset(path.stem for path in SRC)

_IMPORT_CALLS = {"importlib.import_module", "__import__", "builtins.__import__"}
_ATTRIBUTE_CALLS = {"getattr", "hasattr"}


class _Module:
    """A module as the rules read it: its syntax tree, and the dotted names
    that its imports bind, alias -> {dotted name}."""

    def __init__(self, source):
        self.tree = ast.parse(source)
        self.aliases = {}
        for node, _, _ in walk_scopes(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases.setdefault(alias.asname or bound, set()).add(bound)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(node.module or "", node.level)
                for alias in node.names:
                    self.aliases.setdefault(alias.asname or alias.name, set()).add(
                        f"{base}.{alias.name}")

    @staticmethod
    def _absolute(module, level):
        """The absolute name of ``module`` imported at relative ``level``
        from a module of the package."""
        return ".".join(filter(None, [PACKAGE if level else "", module]))

    def resolve(self, node):
        """The dotted names an expression may stand for: a name as its
        imports bind it, an attribute as its base's names and the attribute;
        any other base is empty."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, {node.id})
        if isinstance(node, ast.Attribute):
            return {f"{base}.{node.attr}" for base in self.resolve(node.value)}
        return {""}

    def imported(self, node):
        """The dotted names that an import statement or call loads."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            base = self._absolute(node.module or "", node.level)
            return [f"{base}.{alias.name}" for alias in node.names]
        if isinstance(node, ast.Call) and node.args and self.resolve(node.func) & _IMPORT_CALLS:
            text = _string(node.args[0])
            if text is not None:
                dots = len(text) - len(text.lstrip("."))
                return [self._absolute(text[dots:], dots)]
        return []

    def calls(self, node, names):
        """Whether ``node`` calls a function that one of ``names`` ends."""
        return isinstance(node, ast.Call) and any(
            name.rsplit(".", 1)[-1] in names for name in self.resolve(node.func))


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _imports(*tops):
    """The construct: an import of one of the packages ``tops`` or of one of
    their modules."""
    return lambda module, node, functions: any(
        name.split(".")[0] in tops for name in module.imported(node))


def _attribute(*names):
    """The construct: an attribute ``names`` read or written by a dot, or
    read by ``getattr`` or ``hasattr`` of a string."""
    names = set(names)

    def construct(module, node, functions):
        if isinstance(node, ast.Attribute):
            return node.attr in names
        return (module.calls(node, _ATTRIBUTE_CALLS) and len(node.args) > 1
                and _string(node.args[1]) in names)

    return construct


def _key_layout(module, node, functions):
    """The construct: the exponent-key layout of ``zpoly`` -- the name
    ``zpoly``, imported, aliased or read as an attribute; a call of
    ``pack``, ``unpack``, ``fields`` or ``guard``; the names ``BITS`` and
    ``BOUND``; a shift ``<<`` or ``>>``, augmented or not."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, (ast.LShift, ast.RShift))
    if module.calls(node, {"pack", "unpack", "fields", "guard"}):
        return True
    names = module.imported(node) or (
        module.resolve(node) if isinstance(node, (ast.Name, ast.Attribute)) else ())
    return any("zpoly" in name.split(".") or name.rsplit(".", 1)[-1] in ("BITS", "BOUND")
               for name in names)


def _raises_value_error(module, node, functions):
    """The construct: ``raise ValueError``, called or not."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return bool(module.resolve(exc) & {"ValueError", "builtins.ValueError"})


class Rule(NamedTuple):
    """The modules that may use ``construct(module, node, functions)``;
    ``functions`` are the names of the functions around the node."""

    owners: frozenset
    construct: Callable


_SYMPY = _imports("sympy")

RULES = {
    # a scenario run imports no sympy; the few paths that still use it import
    # it inside the function that needs it
    "no module imports sympy outside a function body": Rule(
        frozenset(), lambda module, node, functions: not functions and _SYMPY(module, node, ())),
    # sympy values come in through GeneratorPool.scalar alone, and zpoly falls
    # back on sympy's exact gcd
    "only scalars and zpoly import sympy": Rule(frozenset({"scalars", "zpoly"}), _SYMPY),
    # the integer-polynomial kernel stands below every other module
    "zpoly imports nothing from the package": Rule(MODULES - {"zpoly"}, _imports(PACKAGE)),
    # other modules build coefficients as superfunctions
    "only scalars reads a pool's ring or field": Rule(
        frozenset({"scalars"}), _attribute("ring", "field")),
    # the layout of an odd monomial (an increasing index tuple) and its sign
    # rules stay in scalars; other modules pass (mono, exps) keys on
    "only scalars slices an odd monomial": Rule(
        frozenset({"scalars"}),
        lambda module, node, functions: isinstance(node, ast.Subscript)
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "mono"),
    # a polynomial's key packs its exponent tuple into one int; other modules
    # pass the keys of the pool's monomial methods on unread
    "only zpoly and scalars read an exponent key": Rule(
        frozenset({"zpoly", "scalars"}), _key_layout),
    # the term dict is the sealed representation of a superfunction
    "only scalars reads Superfunction.terms": Rule(frozenset({"scalars"}), _attribute("terms")),
    # evenness, supersymmetry and nondegeneracy of the body are one method,
    # SuperMatrix.check_supermetric
    "only supermatrix decides the supermetric axioms": Rule(
        frozenset({"supermatrix"}), _attribute("is_homogeneous", "supersymmetry_violation")),
    # every sum against J e_j over an OSp frame is geometry.frame_sum
    "only geometry reads the J signs of an OSp frame": Rule(
        frozenset({"geometry"}), _attribute("j_signs")),
    # errors.InvalidArgument is still a ValueError, and one `except
    # SupergeoError` catches every error the package raises
    "no module raises a bare ValueError": Rule(frozenset(), _raises_value_error),
    # a run starts without the introspection modules: a record is a slotted
    # errors._Record, not a dataclass or a NamedTuple
    "no module imports dataclasses, inspect or typing": Rule(
        frozenset(), _imports("dataclasses", "inspect", "typing")),
}


def violations(name, source):
    """``(rule, line)`` of each use of a rule's construct in the module
    ``name`` of the package, whose source is ``source``, outside the rule's
    owners."""
    module = _Module(source)
    rules = [(text, rule.construct) for text, rule in RULES.items() if name not in rule.owners]
    return sorted({(text, node.lineno) for node, functions, _ in walk_scopes(module.tree)
                   for text, construct in rules if construct(module, node, functions)})


def test_the_package_keeps_every_rule():
    found = {path.name: v for path in SRC if (v := violations(path.stem, path.read_text()))}
    assert not found


# (rule, a module outside its owners, an owner or None, a violating snippet)
SEEDS = [
    ("no module imports sympy outside a function body", "geometry", None, "import sympy\n"),
    ("no module imports sympy outside a function body", "scalars", None,
     "try:\n    import sympy as sp\nexcept ImportError:\n    sp = None\n"),
    ("no module imports sympy outside a function body", "zpoly", None,
     "if True:\n    from sympy.polys import ZZ\n"),
    ("no module imports sympy outside a function body", "lie", None,
     "import importlib\nsp = importlib.import_module('sympy')\n"),
    ("no module imports sympy outside a function body", "lie", None,
     "from importlib import import_module as load\nsp = load('sympy.polys')\n"),
    ("no module imports sympy outside a function body", "lie", None,
     "sp = __import__('sympy')\n"),
    ("only scalars and zpoly import sympy", "geometry", "scalars",
     "def f():\n    import sympy\n"),
    ("only scalars and zpoly import sympy", "morphisms", "zpoly",
     "def f():\n    from sympy import Symbol\n"),
    ("only scalars and zpoly import sympy", "lie", "scalars",
     "def f():\n    return __import__('sympy')\n"),
    ("only scalars and zpoly import sympy", "lie", "zpoly",
     "import importlib as il\ndef f():\n    return il.import_module('sympy')\n"),
    ("zpoly imports nothing from the package", "zpoly", "scalars",
     "from .errors import InvalidArgument\n"),
    ("zpoly imports nothing from the package", "zpoly", "geometry",
     "def f():\n    from . import scalars\n"),
    ("zpoly imports nothing from the package", "zpoly", "parsing", "import supergeo.errors\n"),
    ("zpoly imports nothing from the package", "zpoly", "lie",
     "from importlib import import_module\nerrors = import_module('.errors', 'supergeo')\n"),
    ("only scalars reads a pool's ring or field", "geometry", "scalars", "pool.ring\n"),
    ("only scalars reads a pool's ring or field", "lie", "scalars", "x = pool.field(1)\n"),
    ("only scalars reads a pool's ring or field", "lie", "scalars", "getattr(pool, 'ring')\n"),
    ("only scalars slices an odd monomial", "geometry", "scalars", "first = mono[0]\n"),
    ("only scalars slices an odd monomial", "lie", "scalars", "rest = key.mono[1:]\n"),
    ("only zpoly and scalars read an exponent key", "geometry", "scalars",
     "from . import zpoly as z\n"),
    ("only zpoly and scalars read an exponent key", "geometry", "zpoly",
     "from .zpoly import pack as p\nkey = p(e)\n"),
    ("only zpoly and scalars read an exponent key", "lie", "scalars", "e = unpack(key, 2)\n"),
    ("only zpoly and scalars read an exponent key", "lie", "scalars",
     "spans = kernel.fields(3)\n"),
    ("only zpoly and scalars read an exponent key", "lie", "scalars", "mask = guard(2)\n"),
    ("only zpoly and scalars read an exponent key", "morphisms", "zpoly", "width = BITS\n"),
    ("only zpoly and scalars read an exponent key", "morphisms", "scalars",
     "ok = d < kernel.BOUND\n"),
    ("only zpoly and scalars read an exponent key", "integration", "scalars", "k = e >> 32\n"),
    ("only zpoly and scalars read an exponent key", "integration", "zpoly", "k <<= 32\n"),
    ("only zpoly and scalars read an exponent key", "scenario", "scalars",
     "import supergeo.zpoly\n"),
    ("only zpoly and scalars read an exponent key", "scenario", "scalars",
     "import importlib\nkernel = importlib.import_module('supergeo.zpoly')\n"),
    ("only zpoly and scalars read an exponent key", "cli", "scalars",
     "import supergeo\nsupergeo.zpoly.evaluate(p, x)\n"),
    ("only scalars reads Superfunction.terms", "geometry", "scalars", "t = f.terms\n"),
    ("only scalars reads Superfunction.terms", "lie", "scalars", "t = getattr(f, 'terms')\n"),
    ("only scalars reads Superfunction.terms", "lie", "scalars", "ok = hasattr(f, 'terms')\n"),
    ("only supermatrix decides the supermetric axioms", "geometry", "supermatrix",
     "M.is_homogeneous(0)\n"),
    ("only supermatrix decides the supermetric axioms", "lie", "supermatrix",
     "bad = M.supersymmetry_violation\n"),
    ("only geometry reads the J signs of an OSp frame", "morphisms", "geometry",
     "signs = frame.j_signs\n"),
    ("no module raises a bare ValueError", "geometry", None, "raise ValueError('no')\n"),
    ("no module raises a bare ValueError", "scalars", None, "raise ValueError\n"),
    ("no module raises a bare ValueError", "zpoly", None,
     "import builtins\nraise builtins.ValueError\n"),
    ("no module imports dataclasses, inspect or typing", "geometry", None,
     "from dataclasses import dataclass\n"),
    ("no module imports dataclasses, inspect or typing", "scenario", None,
     "import typing as t\n"),
    ("no module imports dataclasses, inspect or typing", "lie", None,
     'import importlib\nimportlib.import_module("inspect")\n'),
]


@pytest.mark.parametrize("rule, module, owner, source", SEEDS)
def test_a_seeded_violation_fails_its_rule_and_passes_in_an_owner(rule, module, owner, source):
    assert module not in RULES[rule].owners
    assert rule in {text for text, _ in violations(module, source)}
    if owner is not None:
        assert owner in RULES[rule].owners
        assert rule not in {text for text, _ in violations(owner, source)}


def test_every_rule_has_a_seeded_violation():
    assert {rule for rule, *_ in SEEDS} == set(RULES)


@pytest.mark.parametrize("module, source", [
    ("scalars", "def f():\n    import sympy\n"),
    ("lie", "# import sympy; mono[0]; f.terms; raise ValueError\n"),
    ("lie", '"""f.terms, mono[0] and raise ValueError in a docstring."""\n'),
    ("lie", "terms = {}\nfields = (1, 2)\nmono = (1,)\nring = frame.signs\n"),
    ("lie", "import sympy_helpers\nfrom .errors_table import x\n"),
    ("scenario", "import typing_helpers\nfrom .dataclasses import x\ninspected = 1\n"),
    ("zpoly", "import math\nfrom functools import cache\n"),
    ("lie", "raise InvalidArgument('no')\n"),
])
def test_code_outside_every_construct_passes(module, source):
    """Comments, docstrings, plain names, lookalike modules, the standard
    library and the package's own errors break no rule; nor does an owner's
    import of sympy inside a function."""
    assert violations(module, source) == []
