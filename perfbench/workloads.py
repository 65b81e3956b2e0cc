"""The three workloads: ``solve``, ``serve`` and ``cold``.

Each workload has a set-up phase (timed from process start, reported as
``setup_s``), a timed phase made of *units* (a ``solve`` round, a
``serve`` burst, a ``cold`` pass), and a check phase that compares every
timed job's result digest with a loop-baseline reference computed
outside the timed and set-up windows.

In a traced run the first unit (on ``serve``: the first third of the
time) runs untraced and the rest traced; ``trace.overhead_frac``
compares the two.  Per-layer metrics come from the traced units only.
"""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import problems

#: Apps whose per-app row (``<app>.mpts_s``) every workload reports.
ROW_APPS = problems.SOLVE_APPS


@dataclass
class Job:
    app: str
    points: int
    latency: float
    ok: bool
    traced: bool


@dataclass
class Run:
    """One benchmark run: its arguments, its jobs and its outcome."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    max_units: int | None
    run_dir: Path
    t_start: float
    corrupt_reference: bool = False
    #: Stop after set-up (a ``setup_s`` sample taken in a fresh process).
    setup_only: bool = False
    tracer: object | None = None
    setup_s: float = 0.0
    timed_wall: float = 0.0
    #: Wall-clock and process CPU time of the traced segment.
    traced_wall: float = 0.0
    traced_cpu: float = 0.0
    #: In-process copy bandwidth probe (traced runs).
    bandwidth: dict = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    #: (wall of one unit, traced?) — for trace.overhead_frac.
    units: list[tuple[float, bool]] = field(default_factory=list)
    reports: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: Layer counters read around the traced segment (server stats,
    #: cc invocations).
    deltas: dict[str, float] = field(default_factory=dict)
    #: app -> computed bytes per point (for the roofline fraction).
    bytes_per_point: dict[str, int] = field(default_factory=dict)

    # -- unit control ----------------------------------------------------
    def traced_unit(self, index: int) -> bool:
        return self.trace and index >= 1

    def more_units(self, done: int, elapsed: float, last: float) -> bool:
        """Whether to start another unit: stop at ``max_units``, or when
        the next unit, taking as long as the last, would end more than
        half a unit past ``seconds``.  A traced run always gets one
        untraced and one traced unit."""
        if self.max_units is not None:
            return done < self.max_units
        if self.trace and done < 2:
            return True
        return done == 0 or elapsed + last / 2 <= self.seconds

    def set_tracing(self, on: bool) -> None:
        from perfbench.spans import install_layer_spans

        if self.tracer is None:
            return
        if on and not self.tracer.active:
            install_layer_spans(self.tracer)
            self.traced_cpu -= time.process_time()
        elif not on and self.tracer.active:
            self.tracer.unpatch_all()
            self.traced_cpu += time.process_time()

    def cc_invocations(self) -> int:
        path = os.environ.get("REPRO_CC_COUNT_FILE")
        try:
            return len(Path(path).read_text().splitlines()) if path else 0
        except OSError:
            return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(run: Run, digests: list[tuple], refs: dict, apps) -> None:
    """Mark each timed job failed unless its digest matches its
    reference (``digests`` holds job index, reference key, digest), and
    spot-check the reference path of every app against Phase 1."""
    for n, (i, key, got) in enumerate(digests):
        want = "0" * 64 if run.corrupt_reference and n == 0 else refs[key]
        if got != want:
            run.jobs[i].ok = False
    for name in apps:
        if not problems.phase1_agrees(name, run.seed):
            run.errors.append(f"loop baseline disagrees with phase1 on tiny {name}")


# -- solve --------------------------------------------------------------------
def solve(run: Run) -> None:
    """heat2d, life, wave3d, psa and pt7 at the registry scale, one after
    another through ``Stencil.run()`` with no options, then heat2d again
    under a checkpoint policy; kernels compile during set-up."""
    from repro import CheckpointPolicy
    from repro.compiler.pipeline import compile_kernel

    apps = {name: problems.build(name, run.scale, run.seed) for name in ROW_APPS}
    states = {name: problems.capture(app) for name, app in apps.items()}
    for app in apps.values():
        compile_kernel(app.stencil.prepare(app.steps, app.kernel))
    heat = apps["heat2d"]
    policy = CheckpointPolicy(run.run_dir / "ckpt", every_dt=max(1, heat.steps // 4))
    order = [(name, name, {}) for name in ROW_APPS]
    order.append(("heat2d-ckpt", "heat2d", {"checkpoint": policy}))
    run.bytes_per_point = {n: problems.bytes_per_point(a) for n, a in apps.items()}
    run.bytes_per_point["heat2d-ckpt"] = run.bytes_per_point["heat2d"]
    run.setup_s = time.perf_counter() - run.t_start
    if run.setup_only:
        return

    digests: list[tuple[int, str, str]] = []
    done, last, elapsed = 0, 0.0, 0.0
    while run.more_units(done, elapsed, last):
        traced = run.traced_unit(done)
        run.set_tracing(traced)
        unit = 0.0
        for label, name, options in order:
            app = apps[name]
            problems.restore(app, states[name])
            if run.tracer is not None:
                run.tracer.set_job(f"r{done}:{label}")
            t0 = time.perf_counter()
            report = app.stencil.run(app.steps, app.kernel, **options)
            wall = time.perf_counter() - t0
            unit += wall
            run.reports.append((report, traced, label))
            run.jobs.append(Job(label, report.points_updated, wall, True, traced))
            digests.append((len(run.jobs) - 1, name, problems.digest(app)))
        run.set_tracing(False)
        run.units.append((unit, traced))
        done, last, elapsed = done + 1, unit, elapsed + unit
    run.timed_wall = elapsed
    run.traced_wall = sum(w for w, traced in run.units if traced)
    run.peak_rss_mb = _peak_rss_mb()

    del apps, states
    refs = {
        name: problems.reference_digest(problems.build(name, run.scale, run.seed))
        for name in ROW_APPS
    }
    _check(run, digests, refs, ROW_APPS)


# -- serve --------------------------------------------------------------------
BURST = 8
CONNECTIONS = 2
POOL = 4


def serve(run: Run) -> None:
    """Two closed-loop clients send seeded bursts of 8 jobs through
    ``submit_many`` to an in-process loopback server with default
    ``ServeOptions``; set-up starts the server and sends one warm-up
    burst per job signature."""
    import numpy as np

    from repro import ServeOptions, StencilClient
    from repro.serve import LoopbackServer

    kinds = list(problems.SERVE_KINDS)
    rng = np.random.default_rng(run.seed)
    pool_seeds = {k: [int(s) for s in rng.integers(1 << 30, size=POOL)] for k in kinds}
    pool = {
        k: [problems.capture(problems.build_serve(k, s)) for s in pool_seeds[k]]
        for k in kinds
    }
    # Per connection, one reusable instance per (kind, burst position).
    slots = [
        {k: [problems.build_serve(k, 0) for _ in range(BURST)] for k in kinds}
        for _ in range(CONNECTIONS)
    ]
    run.bytes_per_point = {k: problems.bytes_per_point(slots[0][k][0]) for k in kinds}
    server = LoopbackServer(ServeOptions()).start()
    clients = [StencilClient(server.host, server.port) for _ in range(CONNECTIONS)]
    try:
        for k in kinds:
            burst = slots[0][k]
            for i, app in enumerate(burst):
                problems.restore(app, pool[k][i % POOL])
            clients[0].submit_many([(a.stencil, a.steps, a.kernel) for a in burst])
        run.setup_s = time.perf_counter() - run.t_start
        if run.setup_only:
            return
        digests = _serve_timed(run, server, clients, slots, pool, kinds)
    finally:
        for client in clients:
            client.close()
        server.stop()
    run.peak_rss_mb = _peak_rss_mb()

    refs = {
        (k, p): problems.reference_digest(problems.build_serve(k, s))
        for k in kinds
        for p, s in enumerate(pool_seeds[k])
    }
    _check(run, digests, refs, kinds)


def _serve_timed(run, server, clients, slots, pool, kinds) -> list:
    import numpy as np

    lock = threading.Lock()
    digests: list[tuple[int, tuple, str]] = []
    # Traced runs leave the first third untraced for trace.overhead_frac;
    # a unit-capped run (the smoke test's exact-repeat check) traces all.
    split = None
    if run.trace:
        split = 0.0 if run.max_units is not None else run.seconds / 3
    t0 = time.perf_counter()
    stop_at = t0 + run.seconds

    def loop(conn: int) -> None:
        rng = np.random.default_rng([run.seed, conn])
        client = clients[conn]
        done = 0
        while True:
            now = time.perf_counter()
            if run.max_units is not None:
                if done >= run.max_units:
                    return
            elif now >= stop_at:
                return
            traced = split is not None and now - t0 >= split
            picks = [(kinds[int(rng.integers(len(kinds)))], int(rng.integers(POOL)))
                     for _ in range(BURST)]
            batch, used = [], {k: 0 for k in kinds}
            for k, p in picks:
                app = slots[conn][k][used[k]]
                used[k] += 1
                problems.restore(app, pool[k][p])
                batch.append(app)
            if run.tracer is not None:
                run.tracer.set_job(f"c{conn}:b{done}")
            b0 = time.perf_counter()
            try:
                reports = client.submit_many([(a.stencil, a.steps, a.kernel) for a in batch])
            except Exception as exc:  # a failed burst counts all its jobs failed
                reports = [None] * len(batch)
                with lock:
                    run.errors.append(f"burst failed: {exc!r}")
            wall = time.perf_counter() - b0
            with lock:
                run.units.append((wall, traced))
                for (k, p), app, report in zip(picks, batch, reports):
                    ok = report is not None
                    run.jobs.append(Job(k, report.points_updated if ok else 0, wall, ok, traced))
                    if ok:
                        run.reports.append((report, traced, k))
                        digests.append((len(run.jobs) - 1, (k, p), problems.digest(app)))
            done += 1

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(CONNECTIONS)]
    stats0, cc0 = dict(server.server.stats), run.cc_invocations()

    def begin_tracing() -> None:
        nonlocal stats0, cc0
        stats0, cc0 = dict(server.server.stats), run.cc_invocations()
        run.set_tracing(True)

    if split == 0:
        begin_tracing()
    for th in threads:
        th.start()
    if split:
        time.sleep(max(0.0, t0 + split - time.perf_counter()))
        begin_tracing()
    for th in threads:
        th.join()
    run.set_tracing(False)
    run.timed_wall = time.perf_counter() - t0
    if split is not None:
        run.traced_wall = run.timed_wall - split
    stats1 = server.server.stats
    for key in ("batches", "rejected"):
        run.deltas[f"serve.{key}"] = stats1[key] - stats0[key]
    run.deltas["cc"] = run.cc_invocations() - cc0
    return digests


# -- cold ---------------------------------------------------------------------
def cold(run: Run) -> None:
    """The first run of every registered kernel at ``tiny`` scale, once
    with no options and once with ``mode="c"``, each against an emptied
    ``.so`` cache and a cleared in-process compile cache."""
    from repro.apps.registry import available_apps
    from repro.compiler import pipeline

    names = available_apps()
    run.setup_s = time.perf_counter() - run.t_start
    if run.setup_only:
        return

    cc_root = run.run_dir / "cold-cc"
    os.environ["REPRO_CC_CACHE"] = str(cc_root)
    digests: list[tuple[int, str, str]] = []
    done, last, elapsed = 0, 0.0, 0.0
    cc0 = run.cc_invocations()
    while run.more_units(done, elapsed, last):
        traced = run.traced_unit(done)
        if traced and done == 1:
            cc0 = run.cc_invocations()
        run.set_tracing(traced)
        unit = 0.0
        for name in names:
            for options in ({}, {"mode": "c"}):
                label = f"{name}:{options.get('mode', 'default')}"
                app = problems.build(name, "tiny", run.seed)
                shutil.rmtree(cc_root, ignore_errors=True)
                cc_root.mkdir(parents=True)
                pipeline.clear_cache()
                if run.tracer is not None:
                    run.tracer.set_job(f"p{done}:{label}")
                t0 = time.perf_counter()
                report = app.stencil.run(app.steps, app.kernel, **options)
                wall = time.perf_counter() - t0
                unit += wall
                run.reports.append((report, traced, name))
                run.jobs.append(Job(name, report.points_updated, wall, True, traced))
                digests.append((len(run.jobs) - 1, name, problems.digest(app)))
        run.set_tracing(False)
        run.units.append((unit, traced))
        done, last, elapsed = done + 1, unit, elapsed + unit
    run.deltas["cc"] = run.cc_invocations() - cc0
    run.timed_wall = elapsed
    run.traced_wall = sum(w for w, traced in run.units if traced)
    run.peak_rss_mb = _peak_rss_mb()

    refs = {}
    for name in names:
        run.bytes_per_point[name] = problems.bytes_per_point(problems.build(name, "tiny", run.seed))
        refs[name] = problems.reference_digest(problems.build(name, "tiny", run.seed))
    _check(run, digests, refs, names)


WORKLOADS = {"solve": solve, "serve": serve, "cold": cold}


# -- metrics ------------------------------------------------------------------
def _quantile(values: list[float], q: float) -> float:
    """``statistics.quantiles`` cut point (exclusive method) for q in
    (0, 1); the single value when there is only one."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    jobs = [j for j in run.jobs if not j.traced]
    ok = [j for j in jobs if j.ok]
    wall = run.timed_wall
    lat = [j.latency for j in jobs]
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "mpts_s": (sum(j.points for j in ok) / wall / 1e6, "Mpts/s"),
        "jobs_s": (len(ok) / wall, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (_quantile(lat, 0.9), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    for app in ROW_APPS:
        mine = [j for j in ok if j.app == app]
        app_wall = sum(j.latency for j in mine)
        metrics[f"{app}.mpts_s"] = (
            sum(j.points for j in mine) / app_wall / 1e6 if app_wall else 0.0, "Mpts/s"
        )
    return metrics
