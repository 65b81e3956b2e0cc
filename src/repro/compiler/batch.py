"""Batched compilation: K same-signature problems as one compiled kernel.

The serving layer's codegen unlock (ROADMAP "stencil-as-a-service"): a
server receiving thousands of small same-shape jobs should not pay K
Python dispatches per region — it should run one compiled call whose
innermost wrapper loops over the jobs.  This module provides the three
pieces the driver's :func:`repro.trap.driver.execute_batch` composes:

* :func:`stack_problems` — validate that the jobs are batchable (same
  problem signature, same time range) and copy each job's arrays into
  one contiguous stacked buffer per array name, ``(nb, slots, *sizes)``,
  whose slab ``[b]`` has exactly the single-job layout;
* :func:`compile_batch_kernel` — compile the template job's IR with the
  batched clones (:func:`repro.compiler.codegen_c.make_c_batch_clones`
  or :func:`repro.compiler.codegen_numpy.make_numpy_batch_clones`) bound
  against the stacked buffers, packaged as an ordinary
  :class:`~repro.compiler.pipeline.CompiledKernel` — so the existing
  event-stream executor runs a whole batch without knowing it;
* :func:`scatter_results` — copy the stacked slabs back into each job's
  own arrays after the run.

Bitwise contract: every batched clone runs the jobs in index order with
the single-job clone's exact instruction sequence per slab (the C
wrappers call the same functions with offset base pointers; the NumPy
clones rebind ``D_``/``C_`` names inside an outer job loop).  Batched
results are therefore bitwise identical to running each job alone, and
the serve tests pin that across apps and backends.

What is cached is the C library and its declared entry points: the
first compile of a kernel, batched or not, loads one library (batch
wrappers are always emitted, so single-job and batched compiles share
it) and every later batch of that kernel reuses it from the process-wide
cache in :mod:`repro.compiler.codegen_c`.  Only the pointers into each
batch's stacked buffers, and the closures over them, are bound per
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompileError, SpecificationError
from repro.compiler import codegen_c, codegen_numpy
from repro.compiler.frontend import KernelIR, build_ir
from repro.compiler.pipeline import CompiledKernel, resolve_mode
from repro.language.stencil import Problem
from repro.resilience import degradations


@dataclass
class BatchStack:
    """K stacked jobs ready for batched compilation/execution."""

    problems: list[Problem]
    signature: str
    #: array name -> (nb, slots, *sizes) float64, C-contiguous.
    stacked: dict[str, np.ndarray]
    #: const array name -> (nb, *sizes), original dtype.
    stacked_consts: dict[str, np.ndarray]

    @property
    def nb(self) -> int:
        return len(self.problems)


def batch_signature(problem: Problem) -> tuple:
    """What must match for two jobs to share one batched kernel: the
    tuning/codegen signature plus the time range (one decomposition
    serves every job, so the trapezoid geometry must be identical)."""
    from repro.autotune.registry import problem_signature

    return (problem_signature(problem), problem.t_start, problem.t_end)


def stack_problems(problems: list[Problem]) -> BatchStack:
    """Validate batchability and stack every job's data.

    Raises :class:`SpecificationError` when the jobs disagree on
    signature or time range — batching is only ever attempted on groups
    the admission layer already keyed by :func:`batch_signature`, so a
    mismatch here is a caller bug, not a degradation.
    """
    if not problems:
        raise SpecificationError("stack_problems needs at least one problem")
    key = batch_signature(problems[0])
    for p in problems[1:]:
        if batch_signature(p) != key:
            raise SpecificationError(
                "batched problems must share signature and time range"
            )
    nb = len(problems)
    template = problems[0]
    stacked: dict[str, np.ndarray] = {}
    for name, arr in template.arrays.items():
        buf = np.empty((nb,) + arr.data.shape, dtype=np.float64)
        for b, p in enumerate(problems):
            buf[b] = p.arrays[name].data
        stacked[name] = buf
    stacked_consts: dict[str, np.ndarray] = {}
    for name, c in template.const_arrays.items():
        stacked_consts[name] = np.stack(
            [np.asarray(p.const_arrays[name].values) for p in problems]
        )
    return BatchStack(list(problems), key[0], stacked, stacked_consts)


def scatter_results(stack: BatchStack) -> None:
    """Copy each job's slab back into its own arrays after the run."""
    for name, buf in stack.stacked.items():
        for b, p in enumerate(stack.problems):
            p.arrays[name].data[...] = buf[b]


def _batchable_ir(ir: KernelIR) -> None:
    for arr in ir.arrays.values():
        if not codegen_numpy.is_vectorizable_boundary(arr.boundary):
            raise CompileError(
                f"array {arr.name!r} uses a non-vectorizable boundary; "
                f"batched clones cannot express it — run the jobs unbatched"
            )


def compile_batch_kernel(stack: BatchStack, mode: str = "auto") -> CompiledKernel:
    """Compile the template job with batched clones over the stack.

    ``"c"`` degrades to batched NumPy on any compile failure (with the
    usual ``cc:compile-failed->split_pointer`` note); modes without
    fused clones (``interp``/``macro_shadow``) and non-vectorizable
    boundaries raise :class:`CompileError` — callers run those jobs
    unbatched instead.
    """
    resolved = resolve_mode(mode)
    ir = build_ir(stack.problems[0])
    _batchable_ir(ir)
    if resolved == "c":
        try:
            clones = codegen_c.make_c_batch_clones(
                ir, stack.stacked, stack.stacked_consts, stack.nb
            )
            return CompiledKernel(
                interior=clones.interior,
                boundary=clones.boundary,
                mode="c",
                boundary_mode="c",
                ir=ir,
                sources={"c": clones.source},
                leaf=clones.leaf,
                leaf_boundary=clones.leaf_boundary,
                walk=clones.walk,
            )
        except CompileError:
            degradations.note("cc:compile-failed->split_pointer")
            resolved = "split_pointer"
    if resolved == "split_pointer":
        clones = codegen_numpy.make_numpy_batch_clones(
            ir, stack.stacked, stack.stacked_consts, stack.nb
        )
        return CompiledKernel(
            interior=clones.interior,
            boundary=clones.boundary,
            mode="split_pointer",
            boundary_mode="split_pointer",
            ir=ir,
            sources=clones.sources,
            leaf=clones.leaf,
            leaf_boundary=clones.leaf_boundary,
        )
    raise CompileError(f"mode {resolved!r} cannot run batched")
