"""The benchmark's own output check, run at its full size in Tier-1.

``perfbench/workloads.py`` is loaded by path and left unchanged. Each measured
workload is set up at the default seed and run once at the reference
sub-seed, as ``perfbench/run.py`` runs its first operation. Its output checks
must all pass, and its summary must match ``perfbench/reference.json``: the
exact values equal and the approximate ones within the reference tolerance.
So a change that would make a benchmark run report incorrect outputs fails
here first.

The reference digests are not compared. Several have not matched since the
faster EM, IRLS, OLS and p-value kernels moved the last bits of the fit files
(at the default seed: ``study`` 2 of 5, ``recovery`` 0 of 1, ``policy`` 1 of
1), and re-recording them is a change to the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "_benchmark_reference_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name", ["study", "recovery", "policy"])
def test_full_size_run_matches_the_reference(workloads, tmp_path, name):
    wl = workloads.make_workload(name)
    wl.setup(tmp_path / name, workloads.DEFAULT_SEED)
    out = wl.run(workloads.reference_sub_seed(), 0)
    assert wl.check(out) == []
    reference = workloads.load_reference(wl)
    assert reference is not None
    assert workloads.compare_reference(wl.summary(out), reference) == []
