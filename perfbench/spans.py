"""Spans recorded from outside the program.

The tracer wraps public functions of each layer *in the namespace the
caller looks them up in* (a module attribute or a class attribute), so
nothing under ``src/`` changes.  Wrappers are installed only for the
traced segment of a run and removed afterwards; untraced runs never
install them.

Each span records name, start, end, parent and job id (when one exists)
and stays in memory until :meth:`Tracer.write` at the end of the run.
Counters (bytes moved, regions yielded, cache hits) are recorded at the
same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        #: (id, name, start, end, parent id or None, job id or None,
        #: CPU seconds of the calling thread inside the span)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Per-key timestamps and seen-sets (wire send/receive, .so paths).
        self.marks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: id(Problem) -> job id, filled where a job crosses the wire.
        self.problem_jobs: dict[int, str] = {}

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job: str | None) -> None:
        """Job id for spans this thread opens until the next call."""
        self._local.job = job

    def _job(self) -> str | None:
        stack = self._stack()
        if stack:
            return stack[-1][1]
        return getattr(self._local, "job", None)

    def span(self, name: str, fn, *args, job: str | None = None, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, start, end)``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        job = job if job is not None else self._job()
        stack.append((sid, job))
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, job, cpu))
        return result, t0, t1

    def record(self, name: str, t0: float, t1: float, job: str | None) -> None:
        """A span measured by the caller (async code: no parent, and its
        CPU time is not its own)."""
        self.spans.append((next(self._ids), name, t0, t1, None, job, 0.0))

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    # -- patching ------------------------------------------------------------
    def patch(self, target: str, attr: str, make_wrapper) -> None:
        """Replace ``target.attr`` (module or ``module.Class``) with
        ``make_wrapper(original)`` until :meth:`unpatch_all`."""
        module_name, _, cls = target.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr] if cls else getattr(owner, attr)
        wrapper = make_wrapper(original)
        if not isinstance(wrapper, (staticmethod, classmethod)):
            functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @property
    def active(self) -> bool:
        """Whether the layer wrappers are installed."""
        return bool(self._patches)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed(self, name: str, on_result=None):
        """Wrapper factory: a span around every call, plus an optional
        ``on_result(result, args, kwargs)`` hook for counters."""

        def make(original):
            def wrapper(*args, **kwargs):
                result, _, _ = self.span(name, original, *args, **kwargs)
                if on_result is not None:
                    on_result(result, args, kwargs)
                return result

            return wrapper

        return make

    # -- reading -------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed wall-clock duration of ``name`` spans."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def cpu(self, name: str) -> float:
        """Summed CPU time of the threads inside ``name`` spans (a
        GIL-released native call counts; waiting for the GIL does not)."""
        return sum(s[6] for s in self.spans if s[1] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def covered(self, name: str) -> float:
        """Wall-clock covered by at least one ``name`` span (concurrent
        spans count once)."""
        total, end = 0.0, float("-inf")
        for t0, t1 in sorted((s[2], s[3]) for s in self.spans if s[1] == name):
            if t1 > end:
                total += t1 - max(t0, end)
                end = t1
        return total

    def self_time(self, name: str, child: str) -> float:
        """Summed duration of ``name`` spans minus the part their
        direct ``child`` spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for sid, sname, t0, t1, parent, *_ in self.spans:
            if sname == child and parent is not None:
                covered[parent] += t1 - t0
        return sum(
            (t1 - t0) - covered.get(sid, 0.0)
            for sid, sname, t0, t1, *_ in self.spans
            if sname == name
        )

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as JSON lines (one header line first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "counts": self.counts}) + "\n")
            for sid, name, t0, t1, parent, job, cpu in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1,
                         "parent": parent, "job": job, "cpu": cpu}
                    )
                    + "\n"
                )


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    t = tracer

    # trap.executor: the leaf.  Called from the executors' own module.
    t.patch("repro.trap.executor", "run_base_region", t.timed("leaf"))

    # trap: regions the walker yields into the serial stream.
    def wrap_regions(original):
        def iter_base_events(events):
            for region in original(events):
                t.add("trap.regions")
                if not region.interior:
                    t.add("trap.boundary_regions")
                if region.walk is not None:
                    t.add("trap.subtree_tasks")
                yield region

        return iter_base_events

    t.patch("repro.trap.executor", "iter_base_events", wrap_regions)
    t.patch("repro.trap.driver", "execute_serial_stream", t.timed("exec.stream"))

    # compiler: compile cache, codegen misses, cc.
    t.patch("repro.compiler.pipeline", "compile_kernel", t.timed("compile"))
    t.patch(
        "repro.compiler.codegen_numpy", "make_numpy_interior",
        t.timed("compile.miss"),
    )
    t.patch("repro.compiler.codegen_c", "make_c_clones", t.timed("compile.miss"))
    t.patch(
        "repro.compiler.codegen_c", "generate_c_source",
        t.timed("codegen.c", lambda r, a, k: t.add("compiler.c_source_bytes", len(r))),
    )

    def on_so(path, args, kwargs):
        key = f"so:{path}"
        if key not in t.marks:
            t.marks[key] = 1.0
            t.add("compiler.so_bytes", Path(path).stat().st_size)

    t.patch("repro.compiler.codegen_c", "build_shared_object", t.timed("cc", on_so))

    # compiler.batch: looked up in repro.compiler.batch by execute_batch.
    t.patch("repro.compiler.batch", "compile_batch_kernel", t.timed("batch.compile"))

    def on_stack(stack, args, kwargs):
        t.add("batch.stacks")
        t.add("batch.jobs", stack.nb)
        t.add(
            "batch.bytes",
            sum(b.nbytes for b in stack.stacked.values())
            + sum(b.nbytes for b in stack.stacked_consts.values()),
        )

    t.patch("repro.compiler.batch", "stack_problems", t.timed("batch.stack", on_stack))
    t.patch("repro.compiler.batch", "scatter_results", t.timed("batch.scatter"))

    # autotune: the registry consult of every run and batch.
    def on_lookup(result, args, kwargs):
        if result is not None:
            t.add("autotune.hits")

    t.patch("repro.autotune.registry", "lookup", t.timed("autotune.lookup", on_lookup))

    # serve: one batched dispatch; child spans inherit its job ids.
    def wrap_batch(original):
        def execute_batch(problems, options):
            jobs = ",".join(
                t.problem_jobs.get(id(p), "?") for p in problems
            )
            result, _, _ = t.span("serve.execute_batch", original, problems, options, job=jobs)
            return result

        return execute_batch

    t.patch("repro.trap.driver", "execute_batch", wrap_batch)

    def wrap_submit(original):
        async def submit_problem(self, problem, options=None, **kwargs):
            t0 = time.perf_counter()
            try:
                return await original(self, problem, options, **kwargs)
            finally:
                t.record(
                    "serve.job", t0, time.perf_counter(),
                    t.problem_jobs.get(id(problem)),
                )

        return submit_problem

    t.patch("repro.serve.server:StencilServer", "submit_problem", wrap_submit)

    # wire: both ends share repro.serve.protocol.
    def wrap_pack(original):
        def pack(obj):
            result, t0, t1 = t.span("wire.pack", original, obj)
            if isinstance(obj, dict) and "problem" in obj:
                t.marks[f"send:{obj['key']}"] = t0
            return result

        return pack

    def wrap_unpack(original):
        def unpack(payload):
            result, t0, t1 = t.span("wire.unpack", original, payload)
            if isinstance(result, dict) and "key" in result:
                if "problem" in result:
                    t.problem_jobs[id(result["problem"])] = result["key"]
                elif "report" in result:
                    t.marks[f"recv:{result['key']}"] = t1
            return result

        return unpack

    t.patch("repro.serve.protocol", "pack", wrap_pack)
    t.patch("repro.serve.protocol", "unpack", wrap_unpack)

    def on_frame(frame, args, kwargs):
        t.add("wire.frames")
        t.add("wire.bytes", len(frame))

    t.patch("repro.serve.protocol", "encode_frame", t.timed("wire.encode", on_frame))

    # resilience: the background checkpoint writer's durable write.
    def on_ckpt(result, args, kwargs):
        arrays = args[2]
        t.add("checkpoint.bytes", sum(a.nbytes for a in arrays.values()))

    t.patch(
        "repro.resilience.runner", "write_checkpoint_arrays",
        t.timed("checkpoint.write", on_ckpt),
    )

    # language: kernel validation into a Problem.
    t.patch("repro.language.stencil:Stencil", "prepare", t.timed("language.prepare"))
