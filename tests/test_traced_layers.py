"""The benchmark harness's references into feedlab resolve.

``perfbench/tracing.py`` wraps every name in its ``LAYER_FUNCTIONS`` in the
module ``feedlab.<layer>``: a function through the module's attribute, a
``Class.method`` through the class ``__dict__``. ``perfbench/workloads.py``
and ``perfbench/loop.py`` import names from feedlab and call its modules'
functions with keywords. Renaming or removing any of them, or a keyword
parameter they pass, fails here, not only in the slower
``perfbench/test_smoke.py``. A traced function that the code no longer
calls through its module attribute reads 0 s in every traced run; the
policy experiment's quadrature and the simulators' two-stage evaluation are
checked for that here too.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from feedlab import sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
HARNESS = (PERFBENCH / "workloads.py", PERFBENCH / "loop.py")


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


def feedlab_imports(tree: ast.Module, problems: list[str]) -> dict:
    """Local name -> object for each ``from feedlab[.module] import name`` in ``tree``;
    a name that does not resolve goes into ``problems``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "feedlab":
            home = importlib.import_module(node.module)
            for alias in node.names:
                target = getattr(home, alias.name, None)
                if target is None:  # ``from package import submodule`` imports it
                    try:
                        target = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        problems.append(f"line {node.lineno}: {node.module}.{alias.name}")
                        continue
                bound[alias.asname or alias.name] = target
    return bound


def harness_problems(path: Path) -> list[str]:
    """Each name imported from feedlab, ``module.attribute`` read from an imported feedlab
    module, or keyword passed to a call of one, in ``path`` that does not resolve."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = []
    modules = {
        local: m for local, m in feedlab_imports(tree, problems).items() if inspect.ismodule(m)
    }
    reads = {
        node: getattr(modules[node.value.id], node.attr, None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    problems += [f"line {n.lineno}: {n.value.id}.{n.attr}" for n, t in reads.items() if t is None]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and reads.get(node.func) is not None:
            params = inspect.signature(reads[node.func]).parameters
            problems += [
                f"line {node.lineno}: {node.func.value.id}.{node.func.attr}(..., {kw.arg}=...)"
                for kw in node.keywords if kw.arg and kw.arg not in params
            ]
    return [f"{path.name} {p}" for p in problems]


def test_harness_references_resolve():
    assert [p for path in HARNESS for p in harness_problems(path)] == []


def test_policy_experiment_scores_through_the_traced_function(monkeypatch):
    # the tracer wraps the module attribute sim.expected_engagement, so the
    # quadrature must be reached through it; the bounds leave it a few rows
    config, replications = sim.SimConfig(participants=1, seed=29), 40
    expected = sim.run_policy_experiment(config, k=20, replications=replications)
    quadrature, rows = sim.expected_engagement, []

    def counting(params, c, s, loc, scale):
        rows.append(np.size(c))
        return quadrature(params, c, s, loc, scale)

    monkeypatch.setattr(sim, "expected_engagement", counting)
    assert sim.run_policy_experiment(config, k=20, replications=replications) == expected
    assert rows and sum(rows) < 0.25 * replications * config.pool.size


def test_simulators_evaluate_through_the_traced_function(monkeypatch):
    # the tracer wraps the module attribute sim.simulate_impressions, so both batched
    # simulators must evaluate their whole block through it, once per run
    session_config = sim.SimConfig(participants=3, seed=31)
    policy_config = sim.SimConfig(participants=1, seed=31)
    session = sim.simulate_session(session_config)[0]
    outcomes = sim.run_policy_experiment(policy_config, k=20, replications=5)
    evaluate, blocks = sim.simulate_impressions, []

    def counting(c, *args):
        blocks.append(np.shape(c))
        return evaluate(c, *args)

    monkeypatch.setattr(sim, "simulate_impressions", counting)
    assert sim.simulate_session(session_config)[0] == session
    assert sim.run_policy_experiment(policy_config, k=20, replications=5) == outcomes
    assert blocks == [(3, 120), (len(sim.POLICIES), 5, 20)]
