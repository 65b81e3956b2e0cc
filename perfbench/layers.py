"""Per-layer metrics of a traced run.

Each metric is read from the spans and counters of the traced segment
(see :mod:`perfbench.spans`) or from the program's own ``RunReport``s of
the traced jobs.  A layer a workload does not exercise reads 0.  Which
end-to-end metric each layer metric should move, on which workload, is
written down in ``perfbench/LEDGER.md``.
"""

from __future__ import annotations

import statistics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(run) -> dict[str, tuple[float, str]]:
    t = run.tracer
    c = t.counts
    reports = [(r, label) for r, traced, label in run.reports if traced]
    jobs = [j for j in run.jobs if j.traced]
    wall = run.traced_wall

    leaf_s = t.total("leaf")
    points = sum(r.points_updated for r, _ in reports)
    traffic = sum(r.points_updated * run.bytes_per_point.get(label, 0) for r, label in reports)
    # Batched reports share one run: count its busy time once per batch.
    busy = sum(r.busy_time / r.batch_size for r, _ in reports)
    capacity = sum(r.elapsed * r.n_workers / r.batch_size for r, _ in reports)
    compile_calls = t.count("compile")
    lookups = t.count("autotune.lookup")

    rtt = []
    for _, name, t0, t1, _, job, _ in t.spans:
        if name == "serve.job" and job is not None:
            send, recv = t.marks.get(f"send:{job}"), t.marks.get(f"recv:{job}")
            if send is not None and recv is not None:
                rtt.append((recv - send) - (t1 - t0))
    serve_reports = [r for r, _ in reports if r.transport == "tcp"]
    ckpt = [j for j in jobs if j.app == "heat2d-ckpt" and j.ok]
    untraced_units = [w for w, traced in run.units if not traced]
    traced_units = [w for w, traced in run.units if traced]

    return {
        "leaf.calls": (t.count("leaf"), "count"),
        "leaf.s": (leaf_s, "s"),
        "leaf.mpts_s": (_ratio(points, leaf_s) / 1e6, "Mpts/s"),
        "leaf.roofline_frac": (
            _ratio(_ratio(traffic, leaf_s), run.bandwidth.get("bytes_per_s", 0.0)),
            "fraction",
        ),
        "leaf.wall_frac": (_ratio(t.covered("leaf"), wall), "fraction"),
        "leaf.cpu_frac": (_ratio(t.cpu("leaf"), run.traced_cpu), "fraction"),
        "exec.busy_s": (busy, "s"),
        "exec.idle_frac": (max(0.0, 1.0 - _ratio(busy, capacity)) if capacity else 0.0, "fraction"),
        "trap.regions": (c["trap.regions"], "count"),
        "trap.subtree_tasks": (c["trap.subtree_tasks"], "count"),
        "trap.boundary_regions": (c["trap.boundary_regions"], "count"),
        "trap.walk_self_s": (t.self_time("exec.stream", "leaf"), "s"),
        "compiler.compile.calls": (compile_calls, "count"),
        "compiler.compile.hit_ratio": (
            _ratio(compile_calls - t.count("compile.miss"), compile_calls), "fraction"
        ),
        "compiler.cc.invocations": (run.deltas.get("cc", 0), "count"),
        "compiler.cc.s": (t.total("cc"), "s"),
        "compiler.cc.wall_frac": (_ratio(t.covered("cc"), wall), "fraction"),
        "compiler.c_source_bytes": (c["compiler.c_source_bytes"], "bytes"),
        "compiler.so_bytes": (c["compiler.so_bytes"], "bytes"),
        "batch.compile.calls": (t.count("batch.compile"), "count"),
        "batch.compile.s": (t.total("batch.compile"), "s"),
        "batch.stack.s": (t.total("batch.stack"), "s"),
        "batch.scatter.s": (t.total("batch.scatter"), "s"),
        "batch.bytes": (c["batch.bytes"], "bytes"),
        "batch.size_mean": (_ratio(c["batch.jobs"], c["batch.stacks"]), "jobs"),
        "autotune.lookup.calls": (lookups, "count"),
        "autotune.lookup.s": (t.total("autotune.lookup"), "s"),
        "autotune.lookup.hit_ratio": (_ratio(c["autotune.hits"], lookups), "fraction"),
        "serve.queue_wait_p50_s": (_median([r.queue_wait for r in serve_reports]), "s"),
        "serve.batches": (run.deltas.get("serve.batches", 0), "count"),
        "serve.busy_rejects": (run.deltas.get("serve.rejected", 0), "count"),
        "serve.execute_batch.s": (t.total("serve.execute_batch"), "s"),
        "wire.frames": (c["wire.frames"], "count"),
        "wire.bytes_per_job": (_ratio(c["wire.bytes"], len(serve_reports)), "bytes"),
        "wire.pack.s": (t.total("wire.pack"), "s"),
        "wire.unpack.s": (t.total("wire.unpack"), "s"),
        "wire.attempts_mean": (
            _ratio(sum(r.attempts for r in serve_reports), len(serve_reports)), "attempts"
        ),
        "wire.rtt_minus_server_s": (_median(rtt), "s"),
        "checkpoint.writes": (t.count("checkpoint.write"), "count"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "checkpoint.s": (t.total("checkpoint.write"), "s"),
        "heat2d-ckpt.mpts_s": (
            _ratio(sum(j.points for j in ckpt), sum(j.latency for j in ckpt)) / 1e6,
            "Mpts/s",
        ),
        "language.prepare.s": (t.total("language.prepare"), "s"),
        "trace.overhead_frac": (
            _ratio(_median(traced_units), _median(untraced_units)) - 1.0
            if untraced_units and traced_units
            else 0.0,
            "fraction",
        ),
    }
