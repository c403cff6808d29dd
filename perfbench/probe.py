"""Layer probe for the traced run: seeded calls into every niho_perm layer.

The probe's calls are the same in every traced run; its random inputs
(trinomials, kernel operands, batch arrays) follow the run's --seed, so the
per-layer criterion and oracle figures vary a little with the seed.  It
times each layer from outside: spans around calls into public functions,
timed loops for the field kernels, and fresh processes for cold field
builds.  Its outputs are checked like the workloads' outputs, and each
failure is recorded in the caller's Checks.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from niho_perm import UnityGroup, make_field, resolve_residue, tower_field
from niho_perm.cli import main as cli_main
from niho_perm.conjectures import (conjecture2_check, proposition_check,
                                   search_problem_instances)
from niho_perm.transforms import PAIR_TABLE
from niho_perm.trinomials import FAMILY_CATALOG, FAMILY_IDS, family_admits
from niho_perm.unity import MAP_SPECS

import workloads as wl

HERE = Path(__file__).resolve().parent

# Samples per probed call: (full scale, tiny scale).
PROBE_COUNTS = {
    "cold_builds": (3, 1), "group_builds": (5, 1), "kernel_reps": (5, 1),
    "mu_rounds": ({4: 4, 5: 4, 6: 1}, {4: 1, 5: 1, 6: 1}),
    "dual": ({3: 40, 4: 20}, {3: 2, 4: 1}),
    "criterion": ({5: 20, 6: 10}, {5: 1, 6: 1}),
    "pool_reps": (3, 1), "cli_reps": (3, 1), "resolve_reps": (20, 2),
}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def cold_build(specs: list[list]) -> dict:
    """Run the set-up timer in a fresh process; returns its JSON report."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), json.dumps(specs)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def p50_tail(values: list[float]) -> tuple[float, float, int]:
    """Median and the highest whole percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    samples beyond it, and the tail reads as the median.
    """
    n = len(values)
    med = statistics.median(values)
    pct = 100 - -(-1000 // n)          # largest p with n*(100-p)/100 >= 10
    if pct <= 50:
        return med, med, n
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return med, cuts[pct - 1], n


def catalog_expressions() -> list[tuple[str, int]]:
    """(expression, k) for every residue formula in the catalogs, at each
    k in 1..6 that its entry's parity condition admits."""
    entries = []
    for parity, terms, _ in FAMILY_CATALOG.values():
        entries.append((parity, [e for _, e in terms]))
    for spec in MAP_SPECS.values():
        if spec["kind"] == "power":
            exprs = [e for _, e in spec["h"]]
        else:
            exprs = [spec["pre"]] + [e for _, e in spec["num"] + spec["den"]]
        entries.append((spec["parity"], exprs))
    for row in PAIR_TABLE:
        exprs = [e for _, e in row.pair]
        exprs += [e for eq in row.equivalents for _, e in eq]
        entries.append((row.condition, exprs))
    return [(e, k) for parity, exprs in entries for k in range(1, 7)
            if wl.parity_admits(parity, k) for e in exprs]


def timed_loop(tr, name: str, m: int, fn, args_list) -> float:
    """Seconds for one call of fn per args tuple, inside one span."""
    with tr.span(name, m=m, count=len(args_list)):
        t = time.perf_counter()
        for args in args_list:
            fn(*args)
        return time.perf_counter() - t


def run_probe(tr, scale_name: str, seed: int, reference: dict,
              out_dir: Path, checks: wl.Checks) -> dict:
    """Run every probe item; returns the per-layer metrics it measures
    directly (span_metrics reads the rest off the spans).  Each checked
    output is recorded in checks."""
    tiny = scale_name == "tiny"
    counts = {key: v[tiny] for key, v in PROBE_COUNTS.items()}
    scale = wl.SCALES[scale_name]
    rng = random.Random(seed ^ 0x5EED)
    metrics: dict[str, float] = {}

    # field: cold builds, each in a fresh process
    builds = [cold_build([["make", 8], ["make", 10], ["make", 12]])
              ["builds_ms"] for _ in range(counts["cold_builds"])]
    for m in (8, 10, 12):
        metrics[f"field.build_ms.m{m}"] = statistics.median(
            b[f"make{m}"] for b in builds)

    # field: scalar kernel ops through FieldParams.kernel
    for m, n_ops, n_pow in ((8, 20000, 20000), (12, 5000, 500)):
        kern = make_field(m).kernel
        order = 5 ** m
        handles = [kern.from_index(rng.randrange(1, order))
                   for _ in range(2 * n_ops)]
        pairs = list(zip(handles[::2], handles[1::2]))
        pows = [(handles[i], rng.randrange(order - 1)) for i in range(n_pow)]
        for op, fn, args in (("mul", kern.mul, pairs), ("add", kern.add, pairs),
                             ("pow", kern.pow, pows)):
            reps = [timed_loop(tr, f"field.kernel_{op}", m, fn, args)
                    for _ in range(counts["kernel_reps"])]
            metrics[f"field.kernel_{op}_ns.m{m}"] = (
                statistics.median(reps) / len(args) * 1e9)

    # field: batch ops over arrays the size of GF(5^8)
    kern = make_field(8).kernel
    np_rng = np.random.default_rng(seed)
    a = np_rng.integers(0, kern.order, kern.order - 1, dtype=np.int64)
    b = np_rng.integers(0, kern.order, kern.order - 1, dtype=np.int64)
    for op in ("bmul", "badd"):
        fn = getattr(kern, op)
        reps = [timed_loop(tr, f"field.{op}", 8, fn, [(a, b)])
                for _ in range(counts["kernel_reps"])]
        metrics[f"field.batch_ns_per_elem.{op}.m8"] = (
            statistics.median(reps) / a.size * 1e9)

    # unity: circle builds, bypassing the per-field cache
    for k in (4, 5, 6):
        field = tower_field(k)
        for _ in range(counts["group_builds"]):
            group = tr.call("unity.UnityGroup", k, UnityGroup, field)
            checks.record(f"unity group k={k}",
                          None if group.n == 5 ** k + 1
                          else f"{group.n} points")

    # unity, trinomials: circle maps and seeded verdicts
    ops = []
    for k, rounds in counts["mu_rounds"].items():
        ops += wl.mu_ops(k) * rounds
    for k, n in counts["dual"].items():
        ops += [wl.dual_op(k, wl.random_terms(k, rng), f"probe dual k={k}")
                for _ in range(n)]
    for k, n in counts["criterion"].items():
        ops += [wl.criterion_op(k, wl.random_terms(k, rng),
                                f"probe criterion k={k}") for _ in range(n)]
    ops += [wl.family_op(fid, 6, False) for fid in FAMILY_IDS
            if family_admits(fid, 6)]

    # transforms, conjectures: tables, searches, circle checks, propositions
    ops += [wl.table_op(k) for k in (2, 3, 4)]
    for k in (3, 4):
        ops += [wl.search_op("conjectures.search_sum", k, c, "all",
                             reference) for c in ("sum_zero", "sum_half")]
    ops.append(wl.search_op("conjectures.search_square",
                            scale["probe_search_k"], "none", "++", reference))
    ops.append(wl.report_op("conjectures.conjecture2", 6, conjecture2_check,
                            6, label="probe conjecture 2 k=6"))
    ops += [wl.report_op(f"conjectures.proposition.{p}", k, proposition_check,
                         p, k, label=f"probe {p} k={k}")
            for p, k in (("P1", 5), ("P2", 6))]
    wl.run_pass(ops, tr, checks)

    # conjectures: the fork pool, 1 worker against 2, at k=3
    key = wl.search_key(3, "none", "++")
    walls = {1: [], 2: []}
    child_cpu, all_cpu = 0.0, 0.0
    for _ in range(counts["pool_reps"]):
        for workers in (1, 2):
            c0, a0 = wl.child_cpu_seconds(), cpu_seconds()
            t = time.perf_counter()
            hits = tr.call(f"conjectures.search_pool{workers}", 3,
                           search_problem_instances, 3, "none", "++",
                           threads=workers)
            walls[workers].append(time.perf_counter() - t)
            if workers == 2:
                child_cpu += wl.child_cpu_seconds() - c0
                all_cpu += cpu_seconds() - a0
            checks.record(f"search k=3 with {workers} workers",
                   wl.check_hits(hits, reference["search"][key]))
    metrics["conjectures.pool_speedup.k3"] = (
        statistics.median(walls[1]) / statistics.median(walls[2]))
    metrics["conjectures.pool_cpu_share"] = child_cpu / all_cpu

    # cli: the search subcommand against the same library call
    out_path = out_dir / "cli_search.tsv"
    cli_walls, lib_walls = [], []
    for _ in range(counts["cli_reps"]):
        t = time.perf_counter()
        code = tr.call("cli.main", 3, cli_main,
                       ["search", "--k", "3", "--signs", "++",
                        "--out", str(out_path)])
        cli_walls.append(time.perf_counter() - t)
        t = time.perf_counter()
        hits = tr.call("conjectures.search_lib", 3, search_problem_instances,
                       3, "none", "++", threads=1)
        lib_walls.append(time.perf_counter() - t)
        rows = out_path.read_text().splitlines()[1:]
        expected = [f"{h.s}\t{h.t}\t{h.sign1}\t{h.sign2}\tTrue" for h in hits]
        checks.record("cli search", None if code == 0 and rows == expected
                      else f"exit {code}, {len(rows)} rows vs "
                           f"{len(expected)} hits")
    metrics["cli.overhead_ms"] = (statistics.median(cli_walls)
                                  - statistics.median(lib_walls)) * 1e3

    # residues: every catalog expression at every admissible k
    exprs = catalog_expressions()
    reps = []
    for _ in range(counts["resolve_reps"]):
        with tr.span("residues.resolve_residue", count=len(exprs)):
            t = time.perf_counter()
            for e, k in exprs:
                resolve_residue(e, 5 ** k, k)
            reps.append(time.perf_counter() - t)
    metrics["residues.resolve_us"] = statistics.median(reps) / len(exprs) * 1e6
    return metrics


def span_metrics(tr) -> dict[str, float]:
    """Per-layer metrics read off the spans of the whole traced run."""
    out: dict[str, float] = {}

    def ms(name, **attrs):
        return [d * 1e3 for d in tr.durations(name, **attrs)]

    for k in (4, 5, 6):
        out[f"unity.group_build_ms.k{k}"] = statistics.median(
            ms("unity.UnityGroup", k=k))
    for prefix, name, ks in (("unity.mu_check_ms", "unity.mu_check",
                              (4, 5, 6)),
                             ("trinomials.oracle_ms", "trinomials.oracle",
                              (3, 4)),
                             ("trinomials.criterion_ms",
                              "trinomials.criterion", (3, 4, 5, 6))):
        for k in ks:
            p50, tail, n = p50_tail(ms(name, k=k))
            out[f"{prefix}.k{k}.p50"] = p50
            out[f"{prefix}.k{k}.tail"] = tail
            out[f"{prefix}.k{k}.n"] = n
    for k in (5, 6):
        secs = tr.durations("unity.mu_check", k=k)
        out[f"unity.points_per_s.k{k}"] = (5 ** k + 1) * len(secs) / sum(secs)
    secs = tr.durations("trinomials.oracle", k=4)
    out["trinomials.oracle_elements_per_s.k4"] = 5 ** 8 * len(secs) / sum(secs)
    for k in (2, 3, 4):
        out[f"transforms.table_ms.k{k}"] = statistics.median(
            ms("transforms.table_report", k=k))
    for k in (3, 4):
        out[f"conjectures.search_sum_ms.k{k}"] = statistics.median(
            ms("conjectures.search_sum", k=k))
    square = [s for s in tr.spans if s["name"] == "conjectures.search_square"]
    out["conjectures.search_row_ms"] = statistics.median(
        (s["end"] - s["start"]) * 1e3 / (5 ** s["k"] + 1) for s in square)
    out["conjectures.conj2_ms.k6"] = statistics.median(
        ms("conjectures.conjecture2", k=6))
    out["conjectures.proposition_ms.P1.k5"] = statistics.median(
        ms("conjectures.proposition.P1", k=5))
    out["conjectures.proposition_ms.P2.k6"] = statistics.median(
        ms("conjectures.proposition.P2", k=6))
    return out
