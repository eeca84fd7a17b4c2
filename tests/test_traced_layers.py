"""The benchmark tracer's layer functions exist where it looks them up.

``perfbench/tracing.py`` wraps every name in its ``LAYER_FUNCTIONS`` in the
module ``feedlab.<layer>``: a function through the module's attribute, a
``Class.method`` through the class ``__dict__``. Renaming or removing one of
them fails here, not only in the slower ``perfbench/test_smoke.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def layer_functions() -> dict[str, tuple[str, ...]]:
    """``LAYER_FUNCTIONS`` read from the tracer module, which is left unchanged."""
    name = "_traced_layers_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.LAYER_FUNCTIONS


def test_every_traced_function_resolves():
    missing = []
    for layer, funcs in layer_functions().items():
        home = importlib.import_module(f"feedlab.{layer}")
        for func in funcs:
            if "." in func:
                cls_name, meth = func.split(".")
                target = vars(getattr(home, cls_name, object)).get(meth)
            else:
                target = getattr(home, func, None)
            if not callable(target):
                missing.append(f"feedlab.{layer}.{func}")
    assert missing == []
