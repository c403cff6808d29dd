#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny size (about a minute on 2 CPUs).

Usage, from the repository root:  python3 perfbench/smoke.py

Checks, for every workload with tracing off and on, that the result line
names exactly the metrics BENCHMARK.json declares, with their units, and
that no operation failed.  Then checks that a wrong reference digest is
counted as a failure, and that the benchmark exits non-zero without a
result when the sources are missing.  Exits 1 on the first broken check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(got) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}")
    for name, m in got.items():
        if m["unit"] != declared.get(name) or not math.isfinite(m["value"]):
            problems.append(f"{name} = {m}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed="
                        f"{result['failed']} of {result['attempted']}")
    if problems:
        sys.exit(f"{workload} trace={trace}: " + "; ".join(problems))
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"error_rate 0 over {result['attempted']} checks")


def check_wrong_digest() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    reference = json.loads((HERE / "reference.json").read_text())
    for entry in reference["search"].values():
        entry["sha256"] = "0" * 64
    result = run.execute("search-full", 1, 1.0, False, "tiny", reference)
    if result["correct"] or not result["failed"]:
        sys.exit(f"a wrong reference digest went unnoticed: {result}")
    print(f"ok  wrong digest: {result['failed']} of {result['attempted']} "
          f"failed")


def check_missing_sources() -> None:
    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("search-full", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"bare checkout: exit {proc.returncode}, "
                 f"stdout {proc.stdout!r}")
    print(f"ok  bare checkout: exit {proc.returncode}, no result")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_wrong_digest()
    check_missing_sources()


if __name__ == "__main__":
    main()
