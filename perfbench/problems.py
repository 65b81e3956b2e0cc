"""Seeded problem instances, result digests and loop-baseline references.

The program under test only ever sees the generated inputs: each
workload builds its problems here from ``--seed``.  Sizes come from the
app registry (``small``/``tiny``) or from the serve mix below; only the
initial conditions and sequences depend on the seed.

A result digest hashes every registered array at the final time level.
The reference digest of a problem comes from the loop baseline
(``algorithm="serial_loops", mode="split_pointer"``: no TRAP, no fused
leaves, no C, no batching, no wire) run on a fresh instance built from
the same seed, outside every timed and set-up window.  The baseline
itself is spot-checked against the Phase-1 interpreter on a tiny twin.
"""

from __future__ import annotations

import hashlib

import numpy as np

SOLVE_APPS = ("heat2d", "life", "wave3d", "psa", "pt7")

#: The ``serve`` mix: one job size per app.  heat2d, life and psa are the
#: small-job mix whose cost is per-batch overhead; small wave3d and pt7
#: jobs ride along so that every per-app row has jobs on every workload.
SERVE_KINDS = ("heat2d", "life", "psa", "wave3d", "pt7")

REFERENCE = {"algorithm": "serial_loops", "mode": "split_pointer"}


def _reseeded(name: str, base, seed: int):
    """Rebuild the registry instance ``base`` with seeded inputs (same
    sizes, steps and kernel); apps without random inputs return ``base``."""
    from repro.apps import heat, lbm, lcs, life, points3d, psa, rna, wave

    n0 = base.sizes[0]
    if name.startswith("heat"):
        return heat.build_heat(
            base.sizes, base.steps, periodic=base.meta["periodic"],
            alpha=base.meta["alpha"], seed=seed,
        )
    if name == "life":
        return life.build_life(n0, base.steps, seed=seed, density=base.meta["density"])
    if name == "wave3d":
        return wave.build_wave(base.sizes, base.steps, seed=seed, c2=base.meta["c2"])
    if name == "psa":
        return psa.build_psa(base.meta["n"], base.steps, seed=seed)
    if name == "lcs":
        return lcs.build_lcs(base.meta["n"], base.steps, seed=seed)
    if name == "rna":
        return rna.build_rna(base.meta["n"], base.steps, seed=seed)
    if name == "lbm":
        return lbm.build_lbm(base.sizes, base.steps, seed=seed, omega=base.meta["omega"])
    if name in ("pt7", "pt27"):
        return points3d.build_points3d(
            n0, base.steps, points=base.meta["points"], seed=seed
        )
    return base


def build(name: str, scale: str, seed: int):
    """Registry app ``name`` at ``scale`` with inputs drawn from ``seed``."""
    from repro.apps import registry

    base = registry.build(name, scale)
    app = _reseeded(name, base, seed)
    if (app.sizes, app.steps, app.kernel.name) != (
        base.sizes, base.steps, base.kernel.name
    ):
        raise RuntimeError(f"seeded {name} differs from the registry's {scale} scale")
    return app


def build_serve(kind: str, seed: int):
    """One job of the ``serve`` mix with seeded inputs."""
    from repro.apps import heat, life, points3d, psa, wave

    if kind == "heat2d":
        return heat.build_heat((64, 64), 16, periodic=False, seed=seed)
    if kind == "life":
        return life.build_life(64, 16, seed=seed)
    if kind == "psa":
        return psa.build_psa(256, seed=seed)
    if kind == "wave3d":
        return wave.build_wave((24, 24, 24), 8, seed=seed)
    return points3d.build_points3d(32, 4, points=7, seed=seed)


def capture(app) -> tuple[dict, dict]:
    """The instance's full input state (every time slot, every const)."""
    st = app.stencil
    return (
        {n: a.data.copy() for n, a in st.arrays.items()},
        {n: c.values.copy() for n, c in st.const_arrays.items()},
    )


def restore(app, state: tuple[dict, dict]) -> None:
    """Put ``state`` back in place (buffers keep their addresses, so
    compiled kernels stay bound) and rewind the stencil to its start."""
    arrays, consts = state
    st = app.stencil
    for n, buf in arrays.items():
        st.arrays[n].data[...] = buf
    for n, buf in consts.items():
        st.const_arrays[n].values[...] = buf
    st.cursor = None


def digest(app) -> str:
    """Hash of every registered array at the final time level."""
    st = app.stencil
    h = hashlib.sha256()
    for name in sorted(st.arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(st.arrays[name].snapshot(st.cursor)).tobytes())
    return h.hexdigest()


def reference_digest(app) -> str:
    """Digest of the loop baseline on ``app`` (which it consumes)."""
    app.stencil.run(app.steps, app.kernel, **REFERENCE)
    return digest(app)


def phase1_agrees(name: str, seed: int) -> bool:
    """Spot check of the reference path: on a tiny twin, the loop
    baseline and the Phase-1 interpreter give the same digest."""
    from repro import run_phase1

    loops = build(name, "tiny", seed)
    checked = build(name, "tiny", seed)
    run_phase1(checked.stencil, checked.steps, checked.kernel)
    return reference_digest(loops) == digest(checked)


def bytes_per_point(app) -> int:
    """Computed compulsory traffic of one point update: 8 bytes per
    distinct (array, time level) read, per const array read and per
    array written — perfect reuse of spatial neighbours assumed."""
    from repro.expr.analysis import validate_kernel

    problem = app.stencil.prepare(app.steps, app.kernel)
    summary = validate_kernel(problem.statements, ndim=problem.ndim)
    reads = {(name, dt) for name, cells in summary.reads.items() for dt, _ in cells}
    return 8 * (len(reads) + len(summary.const_reads) + len(summary.writes))
