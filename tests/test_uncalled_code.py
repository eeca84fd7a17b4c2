"""Every top-level function and class in ``src/feedlab``, and every
non-dunder method and property of a top-level class, has a caller.

A definition passes when one of these holds:

* its name is referenced (as a name or an attribute) somewhere in
  ``src/feedlab`` outside its own definition;
* ``feedlab/__init__.py`` exports it;
* the benchmark tracer wraps it (``LAYER_FUNCTIONS`` in ``perfbench/tracing.py``,
  which names a method ``Class.method`` and so exempts its class too);
* it is one of the read-back functions kept for saved artifacts
  (``load_movement_model``, ``load_pca_fit``).

Code that only tests call fails here: inline it in the tests or move it to
``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import feedlab
from test_traced_layers import layer_functions

PACKAGE = Path(feedlab.__file__).resolve().parent
KEPT_READERS = {"load_movement_model", "load_pca_fit"}


def _references(node: ast.AST) -> Counter:
    """How often each name is read inside ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module):
    """``(label, node)`` for each top-level function and class, and for each
    non-dunder method or property of a top-level class, labelled ``Class.method``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from (
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, functions)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )


def test_every_definition_has_a_caller():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = sum(map(_references, modules.values()), Counter())
    exported = {
        alias.asname or alias.name
        for node in modules["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = {
        name
        for funcs in layer_functions().values()
        for func in funcs
        for name in (func, func.split(".")[0])
    }
    uncalled = [
        f"{name}:{label}"
        for name, tree in modules.items()
        for label, node in _definitions(tree)
        if referenced[node.name] <= _references(node)[node.name]
        and label not in exported | traced | KEPT_READERS
    ]
    assert uncalled == []
