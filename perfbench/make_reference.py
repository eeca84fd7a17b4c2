"""Record reference.json: outputs of the default-seed reference operation.

    python3 perfbench/make_reference.py

For each size and each of study, recovery and policy, runs the operation at the
default seed's first sub-seed and stores the exact values (audit counts,
iteration and row counts), the approximate values (movement-model
parameters, fit estimates and SEs, the recovery summary and estimates, the
policy outcomes) and
the SHA-256 digests of the outputs. The benchmark compares
recovery_t2 with the recovery entry. Rerun only when a change is meant to
alter these outputs, and say why in CHANGES.md.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(name: str, size: str, workdir: Path) -> dict:
    wl = workloads.make_workload(name, size)
    wl.setup(workdir / f"{name}-{size}", workloads.DEFAULT_SEED)
    seed = workloads.reference_sub_seed()
    out = wl.run(seed, 0)
    failures = wl.check(out)
    if failures:
        raise SystemExit(f"{name} ({size}) failed its checks: {failures}")
    entry = {"sub_seed": seed, **wl.summary(out), "digests": wl.digests(out)}
    wl.cleanup(0)
    return entry


def main() -> int:
    workdir = HERE.parent / ".perfbench_out" / "reference-work"
    ref = {
        "seed": workloads.DEFAULT_SEED,
        "rtol": workloads.REFERENCE_RTOL,
        "atol": workloads.REFERENCE_ATOL,
    }
    try:
        for size in workloads.SIZES:
            ref[size] = {n: record(n, size, workdir) for n in ("study", "recovery", "policy")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
