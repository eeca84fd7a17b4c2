"""Every top-level function and class in ``src/feedlab`` has a caller.

A definition passes when one of these holds:

* its name is referenced (as a name or an attribute) somewhere in
  ``src/feedlab`` outside its own definition;
* ``feedlab/__init__.py`` exports it;
* the benchmark tracer wraps it (``LAYER_FUNCTIONS`` in ``perfbench/tracing.py``);
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


def test_every_definition_has_a_caller():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = sum(map(_references, modules.values()), Counter())
    exported = {
        alias.asname or alias.name
        for node in modules["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = {func.split(".")[0] for funcs in layer_functions().values() for func in funcs}
    uncalled = [
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and referenced[node.name] <= _references(node)[node.name]
        and node.name not in exported | traced | KEPT_READERS
    ]
    assert uncalled == []
