"""Smoke test of the benchmark itself, at reduced size (about two minutes).

    python3 perfbench/smoke.py

Checks that:

* every metric name in BENCHMARK.json and in the output uses only
  letters, digits, ``_``, ``.`` and ``-``, and each run prints exactly
  the metrics BENCHMARK.json lists for its trace mode;
* a corrupted reference digest shows up as failed jobs
  (``error_rate > 0``) and ``correct: false``;
* the counts ``trap.regions`` (solve), ``wire.frames`` and
  ``batch.bytes`` (serve) and ``compiler.cc.invocations`` (cold) repeat
  exactly across two traced runs with the same seed;
* without the program's sources the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *extra: str, trace: int = 0) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", "7", "--seconds", "5", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected], workload
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)), name
    return result


def metric(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def main() -> int:
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert NAME.match(m["name"]), m["name"]

    tiny = ("--scale", "tiny")
    clean = bench("solve", *tiny, "--max-units", "1")
    assert clean["correct"] and clean["failed"] == 0, clean
    assert all(m["value"] > 0 for m in clean["metrics"].values()), clean
    corrupt = bench("solve", *tiny, "--max-units", "1", "--corrupt-reference")
    assert corrupt["failed"] > 0 and not corrupt["correct"], corrupt
    print(f"corrupted reference: {corrupt['failed']}/{corrupt['attempted']} jobs failed")

    repeats = [
        ("solve", ("trap.regions",), (*tiny, "--max-units", "2")),
        ("serve", ("wire.frames", "batch.bytes"), ("--max-units", "3")),
        ("cold", ("compiler.cc.invocations",), ("--max-units", "2")),
    ]
    for workload, names, extra in repeats:
        first, second = (bench(workload, *extra, trace=1) for _ in range(2))
        for name in names:
            a, b = metric(first, name), metric(second, name)
            assert a == b and a > 0, (workload, name, a, b)
            print(f"{workload}: {name} repeats exactly ({a:g})")

    stripped = ROOT / ".perfbench" / "smoke-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=stripped,
    )
    shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("without program sources: exit code", proc.returncode, "and no result")
    print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
