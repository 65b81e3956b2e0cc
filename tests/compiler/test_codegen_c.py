"""The C backend's source structure and shared-object cache behavior.

Equivalence of the generated kernels is covered by
``tests/compiler/test_codegen.py`` (cross-backend construct sweep) and
``tests/trap/test_c_leaf_fusion.py`` (fused-vs-per-step property tests);
this file checks what the postsource *looks like* (fused clones, scalar
signatures) and that the on-disk ``.so`` cache is keyed on the compiler
identity and self-heals on load failure.
"""

from __future__ import annotations

import ctypes

import pytest

from repro.compiler import codegen_c
from repro.compiler.codegen_c import (
    build_shared_object,
    compiler_identity,
    find_c_compiler,
    generate_c_source,
    load_shared_object,
)
from repro.compiler.frontend import build_ir
from tests.conftest import has_c_backend, make_heat_problem

pytestmark = pytest.mark.skipif(not has_c_backend(), reason="no C compiler")


def _heat_ir(sizes=(8, 8)):
    st_, u, k = make_heat_problem(sizes)
    return build_ir(st_.prepare(1, k))


@pytest.fixture
def cc_cache(tmp_path, monkeypatch):
    """Point the on-disk cache at a fresh directory."""
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    return tmp_path


class TestGeneratedSource:
    def test_all_four_clones_present(self):
        src = generate_c_source(_heat_ir())
        for name in ("interior_step", "boundary_step", "leaf", "leaf_boundary"):
            assert f"void {name}(" in src

    def test_leaf_fuses_whole_trapezoid(self):
        """The fused clone owns the time loop, the per-step slot
        arithmetic, and the slope shift — the whole Figure-2 base case."""
        src = generate_c_source(_heat_ir())
        assert "for (i64 t = ta; t < tb; ++t)" in src
        assert "l0 += dl0; h0 += dh0;" in src
        assert "MOD(t+0, 2L)" in src or "MOD(t-1, 2L)" in src

    def test_scalar_bounds_no_pointer_arrays(self):
        """Bounds are scalar i64 parameters: calls marshal plain ints
        (no per-call ctypes array construction, nothing for concurrent
        DAG workers to contend on)."""
        src = generate_c_source(_heat_ir())
        assert "i64 l0" in src and "i64 h1" in src
        assert "const i64* lo" not in src and "const i64* hi" not in src

    def test_boundary_leaf_reduces_virtual_coordinates(self):
        src = generate_c_source(_heat_ir())
        assert "MOD(v0, 8L)" in src  # virtual -> true reduction per point

    def test_pointer_params_are_restrict_qualified(self):
        """Every data pointer is ``restrict``: arrays own distinct
        buffers, so the qualifier is sound and frees the optimizer from
        cross-array aliasing assumptions."""
        src = generate_c_source(_heat_ir())
        assert "double* restrict D_u" in src
        assert "double* D_u" not in src  # no unqualified data pointer

    def test_walk_subtree_present_with_scalar_recursion_params(self):
        """The compiled interior recursion: a static recursive helper,
        the exported entry point with scalar threshold/slope arguments,
        and a bottom-out into the fused leaf."""
        src = generate_c_source(_heat_ir())
        assert "static void walk_rec(" in src
        assert "void walk_subtree(" in src
        assert "i64 th0" in src and "i64 s0" in src and "i64 hyper" in src
        assert "leaf(D_u," in src  # recursion bottoms out in the fused leaf
        # walk is generated even when the boundary clones are not: it
        # only ever touches interior zoids.
        assert "walk_subtree" in generate_c_source(
            _heat_ir(), include_boundary=False
        )

    def test_parallel_walk_section_is_opt_in(self):
        """The pthread pool is emitted only on request (the serial-only
        source must stay buildable on toolchains without -pthread), and
        both recursions share one decomposition helper — the structural
        guarantee behind the bitwise-identity contract."""
        src = generate_c_source(_heat_ir())
        assert "walk_subtree_par" not in src
        assert "pthread.h" not in src
        par = generate_c_source(_heat_ir(), include_parallel=True)
        assert "void walk_subtree_par(" in par
        assert "#include <pthread.h>" in par
        assert "static void walk_rec_par(" in par
        assert "wq_ensure_pool" in par
        # one walk_cuts, used by both walk_rec and walk_rec_par: the
        # parallel walk cannot drift from the serial decomposition.
        assert par.count("static int walk_cuts(") == 1

    def test_walk_clone_matches_per_leaf_bitwise(self):
        """One subtree through walk_subtree vs the same recursion
        replayed in Python over the fused leaf — bitwise identical (the
        restrict/-fno-math-errno audit would surface here first)."""
        from dataclasses import replace

        import numpy as np

        from repro.compiler.pipeline import compile_kernel
        from repro.trap.executor import run_base_region
        from repro.trap.plan import BaseRegion, WalkParams

        region = BaseRegion(
            1, 4, ((1, 7, 0, 0), (1, 7, 1, -1)), interior=True,
            walk=WalkParams((1, 1), (2, 2), 1, True, 1),
        )
        st_a, u_a, k_a = make_heat_problem((8, 8), seed=3)
        compiled = compile_kernel(st_a.prepare(5, k_a), "c")
        assert compiled.walk is not None
        run_base_region(region, compiled)
        st_b, u_b, k_b = make_heat_problem((8, 8), seed=3)
        compiled_b = compile_kernel(st_b.prepare(5, k_b), "c")
        run_base_region(region, replace(compiled_b, walk=None))
        assert np.array_equal(u_a.data, u_b.data)


class TestSharedObjectCache:
    SRC = "double kernel_probe(double x) { return x * 2.0; }\n"

    def test_cache_reuses_identical_source(self, cc_cache):
        p1 = build_shared_object(self.SRC)
        mtime = p1.stat().st_mtime_ns
        p2 = build_shared_object(self.SRC)
        assert p1 == p2 and p2.stat().st_mtime_ns == mtime

    def test_cache_keyed_on_compiler_identity(self, cc_cache, monkeypatch):
        """A toolchain upgrade (different identity banner) must map to a
        different cache entry — never load the old compiler's object."""
        p1 = build_shared_object(self.SRC)
        monkeypatch.setattr(
            codegen_c, "compiler_identity", lambda cc: "upgraded-cc|99.0"
        )
        p2 = build_shared_object(self.SRC)
        assert p1 != p2
        assert p1.exists() and p2.exists()

    def test_identity_names_compiler_and_memoizes(self):
        import os

        cc = find_c_compiler()
        ident = compiler_identity(cc)
        assert ident.split("|", 1)[0] == os.path.basename(cc)
        # Memoized: the subprocess runs once per compiler path.
        assert codegen_c._CC_IDENTITY[cc] == ident

    def test_load_failure_evicts_and_rebuilds(self, cc_cache):
        """A corrupt cached object (truncated write, foreign arch) is
        evicted and rebuilt instead of erroring forever."""
        path = build_shared_object(self.SRC)
        path.write_bytes(b"not an ELF object")
        with pytest.raises(OSError):
            ctypes.CDLL(str(path))  # precondition: it really is broken
        lib = load_shared_object(self.SRC)
        fn = lib.kernel_probe
        fn.restype = ctypes.c_double
        fn.argtypes = [ctypes.c_double]
        assert fn(21.0) == 42.0
        # and the cache entry is healthy again
        ctypes.CDLL(str(build_shared_object(self.SRC)))


class TestNoCompilerGate:
    def test_repro_no_cc_hides_the_toolchain(self, monkeypatch):
        """The CI no-toolchain leg sets REPRO_NO_CC to prove degradation;
        the gate must make every discovery path report 'no compiler'."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert find_c_compiler() is None
        from repro.compiler.pipeline import available_modes

        assert "c" not in available_modes()


class TestLibraryCache:
    """Each kernel's library is generated, built and loaded once per
    process; later compiles and batches of the kernel only bind
    pointers, until ``pipeline.clear_cache()`` drops the library."""

    SIZES = (12, 12)
    STEPS = 4

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count generate_c_source / build_shared_object calls."""
        counts = {"generate_c_source": 0, "build_shared_object": 0}
        for name in counts:
            original = getattr(codegen_c, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(codegen_c, name, counted)
        return counts

    def _problems(self, seeds):
        out = []
        for seed in seeds:
            st_, _, k = make_heat_problem(self.SIZES, seed=seed)
            out.append(st_.prepare(self.STEPS, k))
        return out

    def _run_single(self, seed):
        st_, _, k = make_heat_problem(self.SIZES, seed=seed)
        return st_.run(self.STEPS, k, mode="c")

    def _batch(self, seeds):
        from repro.language.stencil import RunOptions
        from repro.trap.driver import execute_batch

        return execute_batch(self._problems(seeds), RunOptions(mode="c"))

    def test_warm_kernel_binds_without_codegen_or_cc(self, cc_cache, calls):
        first = self._batch([0, 1, 2])
        assert first[0].mode == "c"
        assert calls["generate_c_source"] >= 1
        assert calls["build_shared_object"] >= 1
        calls.update(generate_c_source=0, build_shared_object=0)
        later = self._batch([3, 4, 5])
        single = self._run_single(6)  # fresh arrays: a compile-cache miss
        assert later[0].mode == "c" and single.mode == "c"
        assert calls == {"generate_c_source": 0, "build_shared_object": 0}

    def test_clear_cache_rebuilds_and_refires_so_load(self, cc_cache, calls):
        from repro.compiler.pipeline import clear_cache
        from repro.resilience import faults

        self._run_single(0)
        with faults.injected("so.load", times=1) as spec:
            warm = self._run_single(1)
            assert spec.fired == 0  # a warm bind loads nothing
        assert "so-cache:evicted-rebuilt" not in warm.degradations
        clear_cache()
        calls.update(generate_c_source=0, build_shared_object=0)
        with faults.injected("so.load", times=1) as spec:
            report = self._run_single(2)
            assert spec.fired == 1
        assert report.mode == "c"
        assert "so-cache:evicted-rebuilt" in report.degradations
        assert calls["generate_c_source"] >= 1
        assert calls["build_shared_object"] >= 1

    def test_other_cache_dir_misses(self, tmp_path, monkeypatch, calls):
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "a"))
        self._run_single(0)
        calls.update(generate_c_source=0, build_shared_object=0)
        monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "b"))
        assert self._run_single(1).mode == "c"
        assert calls["generate_c_source"] >= 1
        assert calls["build_shared_object"] >= 1
        assert list((tmp_path / "b").glob("kernel_*.so"))

    def test_serial_fallback_is_noted_on_every_bind(self, cc_cache, monkeypatch):
        """A library cached after the pthread source failed keeps
        reporting that fallback: later batches, served from the cache,
        report exactly what the first one did."""
        from repro.compiler.pipeline import compile_kernel
        from repro.errors import CompileError

        load = codegen_c.load_shared_object

        def no_pthread(source, *, extra_flags=()):
            if extra_flags:
                raise CompileError("injected: pthread source does not build")
            return load(source)

        monkeypatch.setattr(codegen_c, "load_shared_object", no_pthread)
        first = self._batch([0, 1])
        later = self._batch([2, 3])
        assert "cc:parallel-source-failed->serial-clones" in first[0].degradations
        assert [r.degradations for r in later] == [r.degradations for r in first]
        single = compile_kernel(self._problems([4])[0], "c")
        assert single.walk_par is None and single.walk is not None

    def test_concurrent_cold_binds_share_one_library(self, cc_cache):
        """More threads than cores bind one cold kernel at once: every
        run is bound through the single cached library and computes the
        same bits as a run on the warm cache."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import numpy as np

        from repro.compiler.pipeline import compile_kernel

        def run(seed):
            st_, u, k = make_heat_problem(self.SIZES, seed=seed)
            problem = st_.prepare(self.STEPS, k)
            st_.run(self.STEPS, k, mode="c")
            return compile_kernel(problem, "c"), u.snapshot(st_.cursor)

        seeds = range(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(run, s) for s in seeds]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        entries = [k for k in codegen_c._LIBRARIES if k[2] == str(cc_cache)]
        assert len(entries) == 1
        assert len({id(compiled.sources["c"]) for compiled, _ in results}) == 1
        for seed, (_, got) in zip(seeds, results):
            assert np.array_equal(got, run(seed)[1])
