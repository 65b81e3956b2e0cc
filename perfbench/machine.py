"""Host fingerprint and the in-process memory-bandwidth probe."""

from __future__ import annotations

import platform
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    """Size of the largest CPU cache sysfs reports (0 when unknown)."""
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def fingerprint(seed: int) -> dict:
    import numpy as np

    from repro.compiler.codegen_c import compiler_identity, find_c_compiler
    from repro.util import detect_cpu_count

    cc = find_c_compiler()
    return {
        "nproc": detect_cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "compiler": compiler_identity(cc) if cc else "none",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def copy_bandwidth(llc: int, reps: int = 3) -> dict:
    """NumPy copy bandwidth (read + write bytes per second) with source
    and destination each at least four times the last-level cache."""
    import numpy as np

    nbytes = max(4 * llc, 64 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    del src, dst
    return {
        "array_bytes": nbytes,
        "llc_bytes": llc,
        "bytes_per_s": 2 * nbytes / best,
    }
