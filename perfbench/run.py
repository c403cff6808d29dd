#!/usr/bin/env python3
"""niho-perm benchmark: three workloads against the public library API.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search-full, verify-small, circle-large (see workloads.py and
METRICS.md).  The run builds every field it needs, then repeats timed passes
of the workload's fixed operations while another pass fits in S seconds (at
least three), with cold set-ups in fresh processes spread between the
passes, and a fixed reference work timed inside every pass to scale the
pass times to one machine speed.  Every output is checked.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, from three untraced
and three traced passes, alternating, and the layer probe.  A record of the
machine, the inputs and every pass goes to .perfbench_runs/ in the checkout;
a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"

# niho_perm, and the benchmark modules that import it, are imported inside
# functions: main() first checks that src/ exists and puts it on the path.

# Fresh-process set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 11
# Passes per run, at least, so that each operation has repeats to choose from.
MIN_PASSES = 3
# The fastest time of workloads.reference_work on the baseline machine
# (shared 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).  The pass times
# reported are the measured ones times REF_SAMPLE_S over the reference
# work's time in the same run: what the pass would take at the speed the
# machine had when the reference took REF_SAMPLE_S.  setup_s is not scaled.
REF_SAMPLE_S = 0.0022


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("search-full", "verify-small", "circle-large"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every count; used by smoke.py")
    return p.parse_args(argv)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10
                             ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "platform": platform.platform()}


def measure_setup(workload: str, scale: dict) -> float:
    """Seconds for one cold set-up of the workload, in a fresh process."""
    from probe import cold_build
    import workloads as wl
    return cold_build(wl.setup_builds(workload, scale))["total_s"]


def per_op_floor(passes: list[dict], key: str) -> float:
    """Sum over operations of each operation's fastest time across passes.

    The machine's slow spells come and go within seconds and only ever add
    time.  An operation's median across passes moves with the share of the
    run that fell in a slow spell; its fastest repeat barely moves, and it
    still grows with any change to the work the operation does.
    """
    return sum(min(times) for times in zip(*(p[key] for p in passes)))


def per_op_median(passes: list[dict], key: str) -> float:
    """Sum over operations of each operation's median time across passes."""
    return sum(statistics.median(times)
               for times in zip(*(p[key] for p in passes)))


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def execute(workload: str, seed: int, seconds: float, trace: bool,
            scale_name: str = "full", reference: dict | None = None) -> dict:
    """Run one benchmark invocation and return its result and record."""
    import probe
    import workloads as wl
    from setup_child import build
    from spans import Tracer, span_cost_s

    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    scale = wl.SCALES[scale_name]
    OUT_DIR.mkdir(exist_ok=True)
    checks = wl.Checks()
    unit_of = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
               for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "scale": scale_name, "machine": machine_info(),
              "loadavg_before": os.getloadavg()}

    for kind, n in wl.setup_builds(workload, scale):
        build(kind, n)
    inputs = wl.make_inputs(workload, scale, seed)
    ops = wl.make_ops(workload, scale, inputs, reference)
    record["inputs"] = {f"k{k}": v for k, v in inputs.items()}

    # Untraced passes repeat while another fits in the run.  The cold
    # set-ups of an untraced run are spread over it, one after each pass
    # until as many are done as the share of the run gone by, so that no
    # single slow spell of the machine lands on all of them.
    setup_repeats = 0 if trace else (SETUP_REPEATS if scale_name == "full"
                                     else 1)
    min_passes = 1 if scale_name == "tiny" else MIN_PASSES
    passes, setups = [], []
    untraced = Tracer(False)
    ref_reps = wl.REF_REPS[workload]
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(ops, untraced, checks, ref_reps))
        elapsed = time.perf_counter() - start
        while len(setups) < min(setup_repeats,
                                setup_repeats * elapsed / seconds):
            setups.append(measure_setup(workload, scale))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if trace or (len(passes) >= min_passes
                     and elapsed + typical > seconds):
            break
    while len(setups) < setup_repeats:
        setups.append(measure_setup(workload, scale))
    first = passes[0]
    verdicts = sum(op.verdicts for op in ops)
    # pass times use each operation's fastest repeat, and so are scaled by
    # the reference's fastest repeat per slot
    ref_floor = per_op_floor(passes, "ref_s") / len(first["ref_s"])
    raw_wall = per_op_floor(passes, "op_wall_s")
    raw_cpu = (per_op_floor(passes, "op_cpu_s")
               + min(p["child_cpu_s"] for p in passes))
    scale = REF_SAMPLE_S / ref_floor
    metrics = {
        "wall_s": raw_wall * scale,
        "verdicts_per_s": verdicts / (raw_wall * scale),
        "cpu_s": raw_cpu * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    record["unscaled"] = {
        "wall_s": raw_wall, "cpu_s": raw_cpu,
        "wall_s_op_medians": per_op_median(passes, "op_wall_s"),
        "ref_floor_s": ref_floor}

    if trace:
        # untraced and traced passes alternate, so a slow spell of the
        # machine does not land on one side only
        tr = Tracer(True)
        traced = [wl.run_pass(ops, tr, checks)]
        for _ in range(min_passes - 1):
            passes.append(wl.run_pass(ops, untraced, checks, ref_reps))
            traced.append(wl.run_pass(ops, tr, checks))
        untraced_wall = per_op_floor(passes, "op_wall_s")
        traced_wall = per_op_floor(traced, "op_wall_s")
        spans_per_pass = len(tr.spans) / len(traced)
        cost = span_cost_s()
        metrics = probe.run_probe(tr, scale_name, seed, reference, OUT_DIR,
                                  checks)
        metrics.update(probe.span_metrics(tr))
        metrics["trinomials.pass_share"] = first["pass_share"]
        # The tracer's own cost: spans per pass times the measured cost of
        # one span around an empty call, over the untraced pass.  The gap
        # between traced and untraced passes is recorded beside it, but on
        # a machine whose speed drifts it is mostly noise.
        metrics["trace.overhead_share"] = (
            cost * spans_per_pass / untraced_wall)
        trace_path = OUT_DIR / f"{workload}-seed{seed}-trace.json"
        tr.write(trace_path, {"workload": workload, "seed": seed,
                              "untraced_wall_s": untraced_wall,
                              "traced_wall_s": traced_wall,
                              "span_cost_s": cost,
                              "spans_per_pass": spans_per_pass})
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["trace_gap_share"] = (traced_wall - untraced_wall) / untraced_wall
        passes += traced

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit_of.get(name, "?")}
                    for name, value in metrics.items()},
    }
    record.update({
        "loadavg_after": os.getloadavg(),
        "setup_runs_s": setups,
        "passes": [{"wall_s": p["wall_s"], "cpu_s": sum(p["op_cpu_s"]),
                    "child_cpu_s": p["child_cpu_s"], "ref_s": p["ref_s"]}
                   for p in passes],
        "verdicts_per_pass": verdicts,
        "pass_share": first["pass_share"],
        "error_rate": len(checks.failures) / max(checks.attempted, 1),
        "failures": checks.failures[:50],
        "result": result,
    })
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "niho_perm" / "__init__.py").is_file():
        print(f"error: no niho_perm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("NIHO_PERM_THREADS", None)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
