"""feedlab benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

One client in one process runs operations back to back for ``--seconds``,
each with a sub-seed derived from ``--seed``, and checks every output. With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the layer functions are wrapped and
the result holds the per-layer metrics instead. See README.md.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # this process plus two set-up-only child processes
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("impressions_per_s", "1/s", "higher"),
    ("op_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed and recorded beside the end-to-end metrics, not reported in the JSON line
UNSCALED = ("op_p50_wall_s", "op_cpu_unscaled_s", "calibration_s")
WORKLOAD_NAMES = ("study", "recovery", "policy")  # as in BENCHMARK.json
EXTRA_WORKLOADS = ("recovery_t2",)  # runnable by name, not measured by default


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, *EXTRA_WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="operation size; smoke is a tiny size for the benchmark's own tests",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_program():
    """Put the checkout's src/ first on the path and import feedlab from it."""
    src = ROOT / "src"
    if not (src / "feedlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no feedlab sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import feedlab

    if Path(feedlab.__file__).resolve().parent != (src / "feedlab").resolve():
        raise SystemExit(f"error: imported feedlab from {feedlab.__file__}, not {src}")


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, (value, n) in metrics.items():
        unit, better = units[name]
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n:<4d} ({better} is better)")


def child_setups(args: argparse.Namespace) -> list[float]:
    """Scaled set-up seconds of fresh processes that only set up (median set-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_one(args: argparse.Namespace) -> int:
    import calibrate  # imports numpy, which the calibration snippet needs

    sampler = calibrate.Sampler()
    sampled_from = time.perf_counter()
    with sampler:
        import_program()
        import loop

        run = loop.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, OUT)
        try:
            run.set_up()
        except BaseException:
            shutil.rmtree(run.workdir, ignore_errors=True)
            raise
    setup = sampler.record()
    setup_s = calibrate.scale(sampled_from - T0 + setup["wall_s"], setup["calibration_s"])
    if args.setup_only:
        shutil.rmtree(run.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        run.loop()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    setups = [setup_s, *child_setups(args)]

    import machine
    import tracing

    attempted = len(run.ops)
    failed = sum(1 for o in run.ops if o["failures"])
    units = {n: (u, b) for n, u, b in (*END_TO_END, *tracing.per_layer_metrics())}
    units["failed_ops_ratio"] = ("ratio", "lower")
    units.update({n: ("s", "lower") for n in UNSCALED})
    if args.trace:
        # traced timings carry the tracing overhead: only per-layer metrics
        reported, detail = run.per_layer()
        shown = reported
    else:
        reported, detail = run.end_to_end(setups), {}
        shown = dict(reported, failed_ops_ratio=(failed / attempted, attempted),
                     **run.unscaled())
    record = machine.machine_record(ROOT, args.seed)

    print_table(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
                f"trace {args.trace}  ops {attempted}  failed {failed}", shown, units)
    for o in run.ops:
        for f in o["failures"]:
            print(f"  op {o['index']} (sub-seed {o['sub_seed']}) failed: {f.strip()}")
    print("machine: " + json.dumps(record, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "machine": record,
        "failed_ops_ratio": failed / attempted,
        "metrics": {n: {"value": v, "unit": units[n][0], "samples": k}
                    for n, (v, k) in shown.items()},
        "ops": run.ops, **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str) + "\n")
    if run.tracer is not None:
        run.tracer.dump(OUT / f"{stem}-spans.jsonl")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n][0]} for n, (v, _) in reported.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table of every workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
