"""Re-measure the ROADMAP's three disagreements under this harness.

    python3 perfbench/ledger.py [--seed N]

1. psa C over NumPy (3.87x in BENCH_c_backend.json, 1.15x in
   BENCH_harness.json);
2. heat2d with the tuned config of BENCH_autotune.json (440 Mpts/s
   recorded, 92 re-measured);
3. pt7 against the blocked-loop autotuner (0.47x in BENCH_harness.json).

Same inputs, hermetic caches and reference check as ``run.py``: every
configuration runs the seeded ``small`` instance with its kernel
compiled beforehand, three times, and reports the median wall; each
result must match the loop-baseline digest.  The numbers are recorded
in ``perfbench/LEDGER.md``.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import time

import run as bench_run  # the script's directory: hermetic dirs, program import

REPS = 3


def timed(name: str, seed: int, **options) -> float:
    """Median Mpts/s of ``REPS`` runs of app ``name`` under ``options``."""
    from perfbench import problems
    from repro.compiler.pipeline import compile_kernel_resilient

    app = problems.build(name, "small", seed)
    state = problems.capture(app)
    ref = problems.reference_digest(problems.build(name, "small", seed))
    compile_kernel_resilient(app.stencil.prepare(app.steps, app.kernel), options.get("mode", "auto"))
    rates = []
    for _ in range(REPS):
        problems.restore(app, state)
        t0 = time.perf_counter()
        report = app.stencil.run(app.steps, app.kernel, **options)
        rates.append(report.points_updated / (time.perf_counter() - t0) / 1e6)
        if problems.digest(app) != ref:
            raise AssertionError(f"{name} {options} disagrees with the loop baseline")
    return statistics.median(rates)


def blocked(name: str, seed: int) -> float:
    """Best Mpts/s of the blocked-loop autotuner (C clones, blocks 16-64)."""
    from perfbench import problems
    from repro.autotune import tune_blocked_loops

    def make():
        app = problems.build(name, "small", seed)
        return app.stencil, app.kernel

    steps = problems.build(name, "small", seed).steps
    tune_blocked_loops(make, steps, block_candidates=(16,), mode="c")  # compile
    result = tune_blocked_loops(make, steps, block_candidates=(16, 32, 64), mode="c")
    return result.points_per_second / 1e6


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    run_dir = bench_run._hermetic_dir()
    try:
        bench_run._import_program()
        from perfbench import machine

        print("host", machine.fingerprint(args.seed))
        psa_np = timed("psa", args.seed)
        psa_c = timed("psa", args.seed, mode="c")
        print(f"1. psa small: NumPy {psa_np:.1f}, C {psa_c:.1f} Mpts/s, "
              f"C/NumPy {psa_c / psa_np:.2f}x")
        heat_np = timed("heat2d", args.seed)
        heat_c = timed("heat2d", args.seed, mode="c")
        heat_tuned = timed(
            "heat2d", args.seed, mode="c", dt_threshold=24, space_thresholds=(128, 128)
        )
        print(f"2. heat2d small: defaults {heat_np:.1f}, mode=c {heat_c:.1f}, "
              f"tuned config (c, dt 24, 128x128) {heat_tuned:.1f} Mpts/s")
        pt7_np = timed("pt7", args.seed)
        pt7_c = timed("pt7", args.seed, mode="c")
        pt7_blocked = blocked("pt7", args.seed)
        print(f"3. pt7 small: defaults {pt7_np:.1f}, mode=c {pt7_c:.1f}, "
              f"blocked-loop autotuner {pt7_blocked:.1f} Mpts/s; "
              f"C TRAP / blocked {pt7_c / pt7_blocked:.2f}x, "
              f"defaults / blocked {pt7_np / pt7_blocked:.2f}x")
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
