"""The three workloads: seeded inputs, the operations of one pass, and the
check applied to each operation's output.

search-full   the k=3 full-square (s, t) search with sign pattern ++: the
              conjectures row kernel on the field's log/Zech tables, and
              nothing else.  (One k=4 square takes over 20 s, too long to
              repeat within a run; the traced run times it.)
verify-small  the paper-reproduction path at k <= 3: oracle vs criterion on
              seeded trinomials, families, circle maps, the pair table,
              sum-constrained searches, conjectures and propositions (plus
              the cheap circle-map and conjecture checks at k = 4, 5, 7).
circle-large  criterion verdicts at k = 5, where the field has no
              acceleration tables and unity runs its scalar branch.

Every random input is a list of three signed residues handed to
``build_trinomial``; the library never sees the seed.
"""

from __future__ import annotations

import hashlib
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from niho_perm import mu_check_report
from niho_perm.conjectures import (conjecture1_check, conjecture2_check,
                                   proposition_check,
                                   search_problem_instances)
from niho_perm.transforms import table_report
from niho_perm.trinomials import (FAMILY_IDS, build_trinomial, family_admits,
                                  is_permutation_exhaustive,
                                  is_permutation_via_criterion,
                                  theorem_family)
from niho_perm.unity import MAP_SPECS, PUBLIC_MAP_NAMES

WORKLOADS = ("search-full", "verify-small", "circle-large")

# Work per pass.  "full" is what the benchmark measures: 0.1 to 1.5 s a pass
# on 2 shared CPUs, made of calls of at most about 0.15 s, so that a run
# holds tens of passes and each operation's fastest repeat rides out the
# machine's slow spells.  The costlier single calls (every k=4 oracle and
# criterion, the k=4 sum searches and pair table, everything at k=6, the
# k=4 square search) run in the traced run's layer probe instead.  "tiny"
# keeps every operation kind and every metric but shrinks the counts, for
# the smoke run.
SCALES = {
    "full": {
        "search_k": 3,
        "probe_search_k": 4,
        "dual": {1: 100, 2: 100, 3: 100},
        "small_ks": (1, 2, 3),
        "mu_ks": (1, 2, 3, 4),
        "table_ks": (2, 3),
        "sum_search_ks": (3,),
        "conj1_ks": (1, 3, 5, 7),
        "conj2_small_ks": (2, 4),
        "props_small": (("P1", 3),),
        "criterion": {5: 20},
        "large_ks": (5,),
        "props_large": (("P1", 5),),
    },
    "tiny": {
        "search_k": 2,
        "probe_search_k": 2,
        "dual": {1: 5, 2: 5, 3: 5},
        "small_ks": (1, 2),
        "mu_ks": (1, 2, 4),
        "table_ks": (2, 3),
        "sum_search_ks": (3,),
        "conj1_ks": (1, 3),
        "conj2_small_ks": (2,),
        "props_small": (("P1", 3),),
        "criterion": {5: 2},
        "large_ks": (5,),
        "props_large": (("P1", 5),),
    },
}


def setup_builds(workload: str, scale: dict) -> list[list]:
    """Every field and circle a workload uses, as [kind, n] build specs."""
    if workload == "search-full":
        return [["tower", scale["search_k"]]]
    if workload == "verify-small":
        ks = sorted(set(scale["dual"]) | set(scale["small_ks"])
                    | set(scale["table_ks"]) | set(scale["sum_search_ks"])
                    | set(scale["mu_ks"]) | set(scale["conj2_small_ks"]))
        return ([["tower", k] for k in ks]
                + [["make", k] for k in scale["conj1_ks"]])
    if workload == "circle-large":
        return [["tower", k] for k in sorted(
            set(scale["criterion"]) | set(scale["large_ks"])
            | {k for _, k in scale["props_large"]})]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# inputs and checks

def random_terms(k: int, rng: random.Random) -> list[list[int]]:
    """Signed residues of x + s1*x^(c1(q-1)+1) + s2*x^(c2(q-1)+1)."""
    n = 5 ** k + 1
    return [[1, 0], [rng.choice((1, -1)), rng.randrange(n)],
            [rng.choice((1, -1)), rng.randrange(n)]]


def hits_digest(hits) -> str:
    text = "\n".join(f"{h.s}\t{h.t}\t{h.sign1}\t{h.sign2}"
                     for h in sorted(hits))
    return hashlib.sha256(text.encode()).hexdigest()


def search_key(k: int, constraint: str, signs: str) -> str:
    return f"{k}/{constraint}/{signs}"


def check_hits(hits, expected: dict) -> str | None:
    """Hit count and digest of the sorted hits against a recorded reference."""
    if len(hits) != expected["count"]:
        return f"{len(hits)} hits, expected {expected['count']}"
    if hits_digest(hits) != expected["sha256"]:
        return "hit digest differs from the reference"
    return None


def replay_witness(f, witness: dict | None) -> str | None:
    """Replay a failing criterion witness with scalar FieldElement arithmetic.

    A zero witness must be a circle point where h vanishes; a collision
    witness must be two distinct circle points that x*h(x)^(q-1) sends to
    the reported value.  Nothing here touches the batch evaluation paths.
    """
    F, q = f.field, f.q
    if not witness:
        return "failing criterion verdict carries no witness"

    def h(x):
        acc = F.zero
        for sign, c in f.terms:
            acc = acc + x ** c if sign > 0 else acc - x ** c
        return acc

    def on_circle(x):
        return x ** (q + 1) == F.one

    if witness.get("type") == "zero":
        x = F.from_csv(witness["x"])
        if on_circle(x) and h(x).is_zero:
            return None
        return "zero witness does not replay"
    if witness.get("type") == "collision":
        x1, x2 = F.from_csv(witness["x1"]), F.from_csv(witness["x2"])
        v = F.from_csv(witness["value"])
        if (x1 != x2 and on_circle(x1) and on_circle(x2)
                and x1 * h(x1) ** (q - 1) == v and x2 * h(x2) ** (q - 1) == v):
            return None
        return "collision witness does not replay"
    return f"unexpected witness type {witness.get('type')!r}"


def check_criterion(f, rep) -> str | None:
    return None if rep.passed else replay_witness(f, rep.witness)


def check_passed(rep) -> str | None:
    return None if rep.passed else f"failed: {rep.subject}"


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    """One workload operation: a closure over the tracer, the check of its
    output, the permutation verdicts it makes, and ``tally``, which gives
    (criterion passes, criterion verdicts) of an output for the pass share."""

    label: str
    run: Callable[[object], object]
    check: Callable[[object], str | None]
    verdicts: int
    tally: Callable[[object], tuple[int, int]] = lambda out: (0, 0)


def dual_op(k: int, terms, label: str) -> Op:
    def run(tr):
        f = tr.call("trinomials.build_trinomial", k, build_trinomial, k, terms)
        o = tr.call("trinomials.oracle", k, is_permutation_exhaustive, f)
        c = tr.call("trinomials.criterion", k, is_permutation_via_criterion, f)
        return f, o, c

    def check(out):
        f, o, c = out
        if o.passed != c.passed:
            return f"oracle {o.passed} vs criterion {c.passed}"
        return check_criterion(f, c)

    return Op(label, run, check, 2, lambda out: (out[2].passed, 1))


def criterion_op(k: int, terms, label: str) -> Op:
    def run(tr):
        f = tr.call("trinomials.build_trinomial", k, build_trinomial, k, terms)
        return f, tr.call("trinomials.criterion", k,
                          is_permutation_via_criterion, f)

    return Op(label, run, lambda out: check_criterion(*out), 1,
              lambda out: (out[1].passed, 1))


def family_op(fid: str, k: int, with_oracle: bool) -> Op:
    def run(tr):
        f = tr.call("trinomials.theorem_family", k, theorem_family, fid, k)
        reps = [tr.call("trinomials.criterion", k,
                        is_permutation_via_criterion, f)]
        if with_oracle:
            reps.append(tr.call("trinomials.oracle", k,
                                is_permutation_exhaustive, f))
        return reps

    def check(reps):
        return next((check_passed(r) for r in reps if not r.passed), None)

    return Op(f"family {fid} k={k}", run, check, 1 + with_oracle,
              lambda reps: (reps[0].passed, 1))


def report_op(name: str, k: int, fn, *args, label: str) -> Op:
    """A call returning one VerificationReport that must pass."""
    return Op(label, lambda tr: tr.call(name, k, fn, *args), check_passed, 1)


def table_op(k: int) -> Op:
    return Op(f"table k={k}",
              lambda tr: tr.call("transforms.table_report", k, table_report,
                                 k)[0],
              check_passed, 1)


def search_op(name: str, k: int, constraint: str, signs: str,
              reference: dict, per_candidate: bool = False) -> Op:
    """A search checked against its reference digest.  With per_candidate,
    each (s, t, signs) candidate counts as one verdict; otherwise the whole
    call counts as one."""
    key = search_key(k, constraint, signs)

    def run(tr):
        return tr.call(name, k, search_problem_instances, k, constraint,
                       signs, threads=1)

    def check(hits):
        if key not in reference["search"]:
            return f"no reference digest for search {key}"
        return check_hits(hits, reference["search"][key])

    if not per_candidate:
        return Op(f"search {key}", run, check, 1)
    n = 5 ** k + 1
    candidates = n * n * (4 if signs == "all" else 1)
    return Op(f"search {key}", run, check, candidates,
              lambda hits: (len(hits), candidates))


def parity_admits(parity: str, k: int) -> bool:
    """Catalog parity conditions: "any", "odd" or "even" k."""
    return parity == "any" or (parity == "odd") == (k % 2 == 1)


def admissible_maps(k: int) -> list[str]:
    return [name for name in PUBLIC_MAP_NAMES
            if parity_admits(MAP_SPECS[name]["parity"], k)]


def mu_ops(k: int) -> list[Op]:
    return [report_op("unity.mu_check", k, mu_check_report, g, k,
                      label=f"mu-check {g} k={k}")
            for g in admissible_maps(k)]


# circle-large draws its trinomials in two strata, by the kind of failure
# the criterion finds.  For about one random trinomial in ten, h vanishes on
# the circle and the verdict stops after a tenth of the usual work; the
# rest end in a collision.  A plain draw of 20 lets the number of early
# stops, and with it the work of a pass, swing by about a tenth from seed
# to seed, so each draw is fixed at one in ten of the first kind.
ZERO_SHARE = 0.1
# Draws allowed per trinomial wanted before the strata count as unfillable.
MAX_DRAWS = 50


def stratified_terms(k: int, n: int, rng: random.Random) -> list:
    """n random trinomials at k, round(n * ZERO_SHARE) of them with a zero
    witness and the rest with a collision witness, in draw order."""
    zeros = round(n * ZERO_SHARE)
    want = {"zero": zeros, "collision": n - zeros}
    out = []
    for _ in range(MAX_DRAWS * n):
        terms = random_terms(k, rng)
        rep = is_permutation_via_criterion(build_trinomial(k, terms))
        kind = None if rep.passed else rep.witness.get("type")
        if want.get(kind):
            want[kind] -= 1
            out.append(terms)
            if len(out) == n:
                return out
    raise RuntimeError(f"k={k}: no {want} left after {MAX_DRAWS * n} "
                       "random trinomials")


def make_inputs(workload: str, scale: dict, seed: int) -> dict:
    """The workload's generated trinomials, by k, as signed residues."""
    rng = random.Random(seed)
    if workload == "circle-large":
        return {k: stratified_terms(k, n, rng)
                for k, n in scale["criterion"].items()}
    counts = {"search-full": {}, "verify-small": scale["dual"]}[workload]
    return {k: [random_terms(k, rng) for _ in range(n)]
            for k, n in counts.items()}


def make_ops(workload: str, scale: dict, inputs: dict,
             reference: dict) -> list[Op]:
    if workload == "search-full":
        return [search_op("conjectures.search_full", scale["search_k"],
                          "none", "++", reference, per_candidate=True)]
    ops: list[Op] = []
    if workload == "verify-small":
        for k, terms_list in inputs.items():
            ops += [dual_op(k, t, f"dual k={k} #{i}")
                    for i, t in enumerate(terms_list)]
        for k in scale["small_ks"]:
            ops += [family_op(fid, k, True) for fid in FAMILY_IDS
                    if family_admits(fid, k)]
        for k in scale["mu_ks"]:
            ops += mu_ops(k)
        ops += [table_op(k) for k in scale["table_ks"]]
        for k in scale["sum_search_ks"]:
            ops += [search_op("conjectures.search_sum", k, c, "all",
                              reference) for c in ("sum_zero", "sum_half")]
        ops += [report_op("conjectures.conjecture1", k, conjecture1_check, k,
                          label=f"conjecture 1 k={k}")
                for k in scale["conj1_ks"]]
        ops += [report_op("conjectures.conjecture2", k, conjecture2_check, k,
                          label=f"conjecture 2 k={k}")
                for k in scale["conj2_small_ks"]]
        ops += [report_op(f"conjectures.proposition.{p}", k,
                          proposition_check, p, k, label=f"{p} k={k}")
                for p, k in scale["props_small"]]
        return ops
    if workload == "circle-large":
        for k, terms_list in inputs.items():
            ops += [criterion_op(k, t, f"criterion k={k} #{i}")
                    for i, t in enumerate(terms_list)]
        for k in scale["large_ks"]:
            ops += [family_op(fid, k, False) for fid in FAMILY_IDS
                    if family_admits(fid, k)]
            ops += mu_ops(k)
        ops += [report_op(f"conjectures.proposition.{p}", k,
                          proposition_check, p, k, label=f"{p} k={k}")
                for p, k in scale["props_large"]]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# passes

class Checks:
    """Every checked operation and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")


def child_cpu_seconds() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


# The machine's speed drifts by up to a half over minutes, for all code
# alike.  A fixed piece of work that never touches niho_perm is timed at up
# to REF_SLOTS evenly spaced points of every pass, and the run's times are
# scaled by its time in the same run (see run.py).  A slot repeats the work
# REF_REPS times, so that it lasts about as long as the workload's typical
# call: a short call finds the machine's brief fast moments that a long
# one averages over, so the two must be of a length to be compared.
REF_SLOTS = 8
REF_REPS = {"search-full": 40, "verify-small": 1, "circle-large": 1}
_REF_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, 1 << 14)


def reference_work() -> int:
    """About 2.5 ms of interpreter and numpy work, the program's mix."""
    acc, seen = 0, {}
    for i in range(8000):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 1023] = i
    order = np.argsort(_REF_ARRAY, kind="stable")
    return acc + len(seen) + int(np.bincount(_REF_ARRAY[order] & 4095).max())


def time_reference(reps: int) -> float:
    """Seconds for one reference slot, divided by its reps."""
    t = time.perf_counter()
    for _ in range(reps):
        reference_work()
    return (time.perf_counter() - t) / reps


def run_pass(ops: list[Op], tr, checks: Checks, ref_reps: int = 1) -> dict:
    """One pass over the operations, each timed by wall clock and by the
    process's CPU clock, with a reference slot of ref_reps repeats timed
    before every len(ops) / REF_SLOTS operations; outputs are checked
    after the pass."""
    n_slots = min(REF_SLOTS, len(ops))
    slots = [len(ops) * j // n_slots for j in range(n_slots)]
    results, walls, cpus, refs = [], [], [], []
    child0, start = child_cpu_seconds(), time.perf_counter()
    for i, op in enumerate(ops):
        while len(refs) < n_slots and slots[len(refs)] == i:
            refs.append(time_reference(ref_reps))
        with tr.op(op.label):
            t, c = time.perf_counter(), time.process_time()
            try:
                results.append(op.run(tr))
            except Exception as exc:                  # noqa: BLE001
                results.append(exc)
            walls.append(time.perf_counter() - t)
            cpus.append(time.process_time() - c)
    wall = time.perf_counter() - start
    child_cpu = child_cpu_seconds() - child0
    passed = decided = 0
    for op, out in zip(ops, results):
        if isinstance(out, Exception):
            checks.record(op.label, f"raised {out!r}")
            continue
        try:
            reason = op.check(out)
            p, d = op.tally(out)
            passed, decided = passed + p, decided + d
        except Exception as exc:                      # noqa: BLE001
            reason = f"check raised {exc!r}"
        checks.record(op.label, reason)
    return {"wall_s": wall, "op_wall_s": walls, "op_cpu_s": cpus,
            "child_cpu_s": child_cpu, "ref_s": refs,
            "pass_share": passed / decided if decided else float("nan")}
