"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload {solve,serve,cold} --seed N \
        --seconds S --trace {0,1}

Runs one workload on inputs drawn from the seed, checks every timed
job's result against a loop-baseline reference, prints every metric by
name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones (plus the span file under
``.perfbench/traces/``).  Every run is hermetic: the ``.so`` cache, the
autotune registry, checkpoints and temporary files live in a fresh
directory under ``.perfbench/`` that is removed at the end.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3

#: The traced run's check of why each workload was chosen.
WORKLOAD_CHOICE = {
    "solve": ("leaf.wall_frac", ">=", 0.9),
    "serve": ("leaf.cpu_frac", "<", 0.5),
    "cold": ("compiler.cc.wall_frac", ">", 0.5),
}

#: Environment hooks that would change what the program does.
_FOREIGN_ENV = ("REPRO_FAULTS", "REPRO_NO_CC", "REPRO_WALK_POOL_FAIL", "REPRO_CC_TIMEOUT")


def _args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "serve", "cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Reduced-size and self-test knobs used by perfbench/smoke.py.
    ap.add_argument("--scale", default="small", help=argparse.SUPPRESS)
    ap.add_argument("--max-units", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _hermetic_dir() -> Path:
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("cc", "tune", "tmp"):
        (run_dir / sub).mkdir(parents=True)
    for key in _FOREIGN_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_CC_CACHE"] = str(run_dir / "cc")
    os.environ["REPRO_TUNE_REGISTRY"] = str(run_dir / "tune" / "registry.json")
    os.environ["REPRO_CC_COUNT_FILE"] = str(run_dir / "cc-count")
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    return run_dir


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _setup_samples(args: argparse.Namespace, own: float) -> list[float]:
    """``setup_s`` samples: this process's own plus fresh processes that
    stop after set-up (each with its own empty caches)."""
    samples = [own]
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--scale", args.scale, "--setup-probe",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv: list[str]) -> int:
    args = _args(argv)
    run_dir = _hermetic_dir()
    try:
        _import_program()
        from perfbench import machine, workloads
        from perfbench.spans import Tracer

        run = workloads.Run(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scale=args.scale,
            max_units=args.max_units,
            run_dir=run_dir,
            t_start=T_START,
            corrupt_reference=args.corrupt_reference,
            setup_only=args.setup_probe,
            tracer=Tracer() if args.trace else None,
        )
        workloads.WORKLOADS[args.workload](run)
        if args.setup_probe:
            print(json.dumps({"setup_s": run.setup_s}))
            return 0

        fp = machine.fingerprint(args.seed)
        if run.trace:
            from perfbench.layers import per_layer

            run.bandwidth = machine.copy_bandwidth(fp["llc_bytes"])
            metrics = per_layer(run)
        else:
            samples = _setup_samples(args, run.setup_s)
            run.setup_s = statistics.median(samples)
            metrics = workloads.end_to_end(run)
        failed = sum(1 for j in run.jobs if not j.ok)
        attempted = len(run.jobs)
        _print_summary(run, fp, metrics, attempted, failed)
        if run.trace:
            trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            run.tracer.write(trace_path, {"workload": args.workload, **fp, **run.bandwidth})
            print(f"spans: {len(run.tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": failed == 0 and not run.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _print_summary(run, fp: dict, metrics: dict, attempted: int, failed: int) -> None:
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}")
    print("host " + "  ".join(f"{k}={v}" for k, v in fp.items()))
    timed = [j for j in run.jobs if not j.traced]
    print(f"jobs {attempted} attempted, {failed} failed; "
          f"{len(timed)} untraced job latencies in {len(run.units)} units")
    for app in sorted({j.app for j in timed}):
        walls = [j.latency for j in timed if j.app == app]
        print(f"  {app}: {len(walls)} jobs, latency s " + " ".join(f"{w:.4g}" for w in walls[:12])
              + (" ..." if len(walls) > 12 else ""))
    print(f"error_rate {failed / attempted:.6g} fraction")
    for err in run.errors:
        print(f"ERROR {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if run.trace:
        name, op, limit = WORKLOAD_CHOICE[run.workload]
        value = metrics[name][0]
        held = {">=": operator.ge, "<": operator.lt, ">": operator.gt}[op](value, limit)
        print(f"workload choice: {name} {value:.3f} {op} {limit}: "
              + ("confirmed" if held else "NOT confirmed"))
        bw = run.bandwidth
        print(f"roofline: copy bandwidth {bw['bytes_per_s'] / 1e9:.2f} GB/s measured with "
              f"{bw['array_bytes'] >> 20} MiB arrays (LLC {bw['llc_bytes'] >> 20} MiB); "
              "bytes per point computed: "
              + ", ".join(f"{k}={v}" for k, v in run.bytes_per_point.items()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
