"""Finite verification of the two conjectured permutation maps, the
trace/norm profile chain behind the first conditional family, and the
(s, t, sign) search harness.

Conjecture checks are finite sweeps and are reported as VERIFIED over the
checked range, never as proved.  The search enumerates residue pairs with
an optional sum constraint, runs the subgroup criterion on each candidate,
and returns the passing set in canonical order; partitioning the s-range
across worker processes cannot change the output.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError, NihoPermError, UsageError
from .field import (CHAR, FieldElement, in_subfield, make_field, norm,
                    trace, tower_field)
from .report import VerificationReport, combine_reports, timed
from .trinomials import (EXHAUSTIVE_GUARD_K, eval_trinomial, field_values,
                         induced_mu_map, is_permutation_exhaustive,
                         is_permutation_via_criterion, theorem_family)
from .unity import (build_map, maps_agree_report, pointwise_agreement_report,
                    unity_group)

SUBFIELD_SWEEP_GUARD_K = 8      # GF(5^k) itself: the table limit is 5^8
SEARCH_GUARD_K = 4


class ProfileMismatchError(NihoPermError):
    """Direct trace/norm values disagree with the closed formulas."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


def is_square(x: FieldElement) -> bool:
    """Nonzero square test by the (order-1)/2 power."""
    if x.is_zero:
        raise UsageError("square test applies to nonzero elements")
    return x ** ((x.field.order - 1) // 2) == x.field.one


# ---------------------------------------------------------------------------
# conjecture 1: x*((x^2-x+2)/(x^2+x+2))^2 on GF(5^k), odd k

@timed
def conjecture1_check(k: int) -> VerificationReport:
    """Exhaustive permutation and square-class stability sweep on GF(5^k)."""
    if k % 2 == 0:
        raise UsageError(f"the subfield map claim needs odd k (got {k})")
    if k > SUBFIELD_SWEEP_GUARD_K:
        raise GuardExceededError(
            f"subfield sweep guarded at k <= {SUBFIELD_SWEEP_GUARD_K}")
    field = make_field(k)
    kern = field.accel_tables
    subject = f"x*((x^2-x+2)/(x^2+x+2))^2 permutes GF(5^{k})"
    n1 = kern.n1
    logs = np.arange(n1, dtype=np.int64)       # x = g^log, x != 0
    sq = (2 * logs) % n1
    num = kern.log_sum(((1, sq), (-1, logs), (2, 0)))
    den = kern.log_sum(((1, sq), (1, logs), (2, 0)))
    poles = np.nonzero(den < 0)[0]
    if poles.size:
        x = field.from_index(int(kern.antilog[poles[0]]))
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "pole", "x": x.csv()},
            counts={"elements": field.order})
    val_logs = kern.log_product(((logs, 1), (num, 2), (den, -2)))
    # permutation over the full field: 0 maps to 0, so nonzero values must
    # be nonzero and pairwise distinct; the duplicate reported is 0 if it
    # is hit, else the smallest duplicated handle
    counts = np.bincount(val_logs + 1, minlength=n1 + 1)
    if counts.max() > 1 or counts[0] > 0:
        dup = -1 if counts[0] else int(kern.logt[
            kern.antilog[np.nonzero(counts[1:] > 1)[0]].min()])
        positions = np.nonzero(val_logs == dup)[0][:2]
        wit = {"type": "collision",
               "x1": field.from_index(int(kern.antilog[positions[0]])).csv(),
               "x2": field.from_index(int(kern.antilog[positions[-1]])).csv()
               if positions.size > 1 else field.zero.csv()}
        return VerificationReport(subject=subject, method="exhaustive",
                                  passed=False, witness=wit,
                                  counts={"elements": field.order})
    # square-class stability: squares sit at even logs, twice-squares at odd
    escape = np.nonzero((logs % 2) != (val_logs % 2))[0]
    if escape.size:
        x = field.from_index(int(kern.antilog[escape[0]]))
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "class_escape", "x": x.csv()},
            counts={"elements": field.order})
    return VerificationReport(
        subject=subject, method="exhaustive", passed=True,
        counts={"elements": field.order, "square_class_stable": 1},
        notes=["0 fixed; square and non-square classes each map into "
               "themselves"])


# ---------------------------------------------------------------------------
# conjecture 2: -x*((x^2-2)/(x^2+2))^2 on the circle, even k

@timed
def conjecture2_check(k: int) -> VerificationReport:
    if k % 2 == 1:
        raise UsageError(f"the circle map claim needs even k (got {k})")
    group = unity_group(tower_field(k))
    from .unity import unity_permutation_report
    return unity_permutation_report(build_map("conj2_map", k), group, "mu")


# ---------------------------------------------------------------------------
# trace/norm profile chain for the first conditional family

@dataclass(frozen=True)
class TraceNormProfile:
    """Subfield data of one point under x + x^(2(q-1)+1) - x^((q-1)(q-1)+1)."""

    a: FieldElement          # Tr(x)
    b: FieldElement          # N(x), nonzero off the subfield
    alpha: FieldElement      # Tr(f(x))
    beta: FieldElement       # N(f(x))
    r: FieldElement          # a^2/b
    gamma: FieldElement      # alpha^2/beta


def profile_of(x: FieldElement, family: str = "P1") -> TraceNormProfile:
    """Compute the profile both directly and by the closed formulas.

    The two routes must agree and gamma must equal
    -r*((r^2-r+2)/(r^2+r+2))^2; any mismatch raises ProfileMismatchError
    with the witness point.
    """
    if family != "P1":
        raise UsageError(f"profiles are defined for family P1, not {family!r}")
    field = x.field
    k = field.subfield_degree
    if k is None or k % 2 == 0:
        raise UsageError("profiles need a tower field with odd k")
    if in_subfield(x):
        raise UsageError("profile points must lie outside the subfield")
    f = theorem_family("P1", k)
    fx = eval_trinomial(f, x)
    a, b = trace(x), norm(x)
    alpha_d, beta_d = trace(fx), norm(fx)
    binv = b.inverse()
    r = a * a * binv
    alpha_f = a * (3 + a * a * binv - (a * a * binv) ** 2)
    beta_f = b * (1 - (a * a * binv) ** 4
                  - 2 * (a * a * binv) ** 3 + a * a * binv)
    if alpha_d != alpha_f or beta_d != beta_f:
        raise ProfileMismatchError(
            "direct trace/norm of f(x) disagrees with the closed formulas",
            witness={"x": x.csv(), "alpha_direct": alpha_d.csv(),
                     "alpha_formula": alpha_f.csv(),
                     "beta_direct": beta_d.csv(),
                     "beta_formula": beta_f.csv()})
    if beta_d.is_zero:
        raise ProfileMismatchError(
            "beta vanished off the subfield", witness={"x": x.csv()})
    gamma = alpha_d * alpha_d * beta_d.inverse()
    den = r * r + r + 2
    if den.is_zero:
        raise ProfileMismatchError(
            "r^2 + r + 2 vanished", witness={"x": x.csv(), "r": r.csv()})
    closed = -(r * ((r * r - r + 2) / den) ** 2)
    if gamma != closed:
        raise ProfileMismatchError(
            "gamma does not match -r*((r^2-r+2)/(r^2+r+2))^2",
            witness={"x": x.csv(), "gamma": gamma.csv(),
                     "closed": closed.csv()})
    return TraceNormProfile(a=a, b=b, alpha=alpha_d, beta=beta_d, r=r,
                            gamma=gamma)


def _p1_image_off_subfield(field):
    """Logs of every x outside GF(5^k) (x^q != x), and the log of the
    family-P1 image f(x) at each, -1 for zero.  Needs acceleration tables."""
    n1 = field.order - 1
    logs = np.arange(n1, dtype=np.int64)
    off = logs[(logs * field.q) % n1 != logs]
    f = theorem_family("P1", field.subfield_degree)
    vals = field_values(field, [(sign, e) for (sign, _), e
                                in zip(f.terms, f.exponents)])
    return off, vals[off + 1]           # vals[0] is f(0)


@timed
def profile_sweep_report(k: int, *, image=None) -> VerificationReport:
    """Profile chain over every x outside the subfield, vectorized on logs.
    image is _p1_image_off_subfield's result, if the caller already has it;
    the witness is the first failing point of the first failing check."""
    if k % 2 == 0:
        raise UsageError(f"the profile chain needs odd k (got {k})")
    field = tower_field(k)
    kern = field.accel_tables
    if kern is None:
        raise UsageError("profile sweep needs acceleration tables (k <= 4)")
    q = field.q
    n1 = kern.n1
    subject = f"trace/norm profile chain over GF(5^{2*k}) minus GF(5^{k})"
    off, lf = image or _p1_image_off_subfield(field)

    def failure(kind: str, mask) -> VerificationReport:
        bad = int(np.nonzero(mask)[0][0])
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": kind, "x": field.from_index(
                int(kern.antilog[off[bad]])).csv()},
            counts={"points": off.size})

    if np.any(lf < 0):
        return failure("zero_image", lf < 0)
    # every value below is a log, -1 for zero; x and f(x) are nonzero, so
    # b = N(x) and beta = N(f(x)) are too
    a = kern.log_sum(((1, off), (1, (off * q) % n1)))          # Tr(x)
    b = (off * (q + 1)) % n1
    lfq = (lf * q) % n1
    alpha_d = kern.log_sum(((1, lf), (1, lfq)))
    beta_d = (lf + lfq) % n1
    rr = kern.log_product(((a, 2), (b, -1)))                   # a^2/b
    rr2, rr3, rr4 = (kern.log_product(((rr, e),)) for e in (2, 3, 4))
    alpha_f = kern.log_product(
        ((a, 1), (kern.log_sum(((3, 0), (1, rr), (-1, rr2))), 1)))
    beta_f = kern.log_product(
        ((b, 1), (kern.log_sum(((1, 0), (-1, rr4), (3, rr3), (1, rr))), 1)))
    mism = (alpha_d != alpha_f) | (beta_d != beta_f)
    if mism.any():
        return failure("route_mismatch", mism)
    gamma = kern.log_product(((alpha_d, 2), (beta_d, -1)))
    num = kern.log_sum(((1, rr2), (-1, rr), (2, 0)))
    den = kern.log_sum(((1, rr2), (1, rr), (2, 0)))
    if np.any(den < 0):
        return failure("pole", den < 0)
    closed = kern.log_sum(
        ((-1, kern.log_product(((rr, 1), (num, 2), (den, -2)))),))
    mism = gamma != closed
    if mism.any():
        return failure("gamma_mismatch", mism)
    return VerificationReport(subject=subject, method="exhaustive",
                              passed=True, counts={"points": off.size})


@timed
def subfield_stability_report(k: int, *, image=None) -> VerificationReport:
    """f(x) stays off the subfield whenever x is off it (family P1); image
    as in profile_sweep_report."""
    if k % 2 == 0:
        raise UsageError(f"stability fact needs odd k (got {k})")
    field = tower_field(k)
    kern = field.accel_tables
    if kern is None:
        raise UsageError("stability sweep needs acceleration tables (k <= 4)")
    q = field.q
    n1 = kern.n1
    subject = f"P1 maps GF(5^{2*k}) minus GF(5^{k}) into itself"
    off, lf = image or _p1_image_off_subfield(field)
    in_sub = (lf < 0) | ((lf * q) % n1 == lf)
    if np.any(in_sub):
        bad = int(np.nonzero(in_sub)[0][0])
        x = field.from_index(int(kern.antilog[off[bad]]))
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "subfield_image", "x": x.csv()},
            counts={"points": off.size})
    return VerificationReport(subject=subject, method="exhaustive",
                              passed=True, counts={"points": off.size})


@timed
def quartic_obstruction_report(k: int) -> VerificationReport:
    """x^4+2x^3+x^2+2x+1 has no root on the circle (its roots have order 13,
    and 13 never divides q+1 for odd k)."""
    if k % 2 == 0:
        raise UsageError(f"obstruction fact needs odd k (got {k})")
    return _quartic_report(unity_group(tower_field(k)))


def _quartic_report(group) -> VerificationReport:
    """The quartic obstruction on any circle: a root witness carries the
    circle index and point; with no root, gcd(13, q+1) must still be 1."""
    g13 = math.gcd(13, group.n)
    logs = group.sum_logs(range(group.n),
                          ((1, 4), (2, 3), (1, 2), (2, 1), (1, 0)))
    zero = np.flatnonzero(logs < 0)
    subject = f"no circle root of x^4+2x^3+x^2+2x+1 at k={group.k}"
    counts = {"points": group.n}
    if zero.size:
        bad = int(zero[0])
        return VerificationReport(
            subject=subject, method="enumeration", passed=False,
            witness={"type": "root", "index": bad,
                     "x": group.element(bad).csv(), "gcd_13": g13},
            counts=counts)
    if g13 != 1:
        return VerificationReport(
            subject=subject, method="enumeration", passed=False,
            witness={"type": "gcd", "gcd_13": g13}, counts=counts)
    return VerificationReport(
        subject=subject, method="enumeration", passed=True,
        counts=counts, notes=[f"gcd(13, q+1) = {g13}"])


# ---------------------------------------------------------------------------
# the two conditional families

@timed
def proposition_check(prop_id: str, k: int) -> VerificationReport:
    """Verify a conditional family and its proof-path reductions at one k."""
    if prop_id not in ("P1", "P2"):
        raise UsageError(f"unknown proposition id {prop_id!r}; valid: P1, P2")
    f = theorem_family(prop_id, k)     # parity guard lives here
    reports = [is_permutation_via_criterion(f)]
    if k <= EXHAUSTIVE_GUARD_K:
        reports.append(is_permutation_exhaustive(f))
    group = unity_group(f.field)
    if prop_id == "P1":
        if k <= EXHAUSTIVE_GUARD_K:
            image = _p1_image_off_subfield(f.field)
            reports.append(subfield_stability_report(k, image=image))
            reports.append(profile_sweep_report(k, image=image))
        reports.append(quartic_obstruction_report(k))
        reports.append(maps_agree_report(
            induced_mu_map(f), build_map("p1_bridge", k), group, "mu"))
    else:
        n = group.n
        g3 = math.gcd(3, n)
        reports.append(VerificationReport(
            subject=f"cube map permutes the circle at k={k}",
            method="integer", passed=g3 == 1,
            witness=None if g3 == 1 else {"type": "gcd", "gcd": g3},
            counts={"gcd_3_q_plus_1": g3}))
        reports.append(pointwise_agreement_report(
            f"g10 after the cube map matches its closed form at k={k}", group,
            build_map("g10", k), [(3 * i) % n for i in range(n)],
            build_map("p2_bridge", k), range(n)))
    return combine_reports(f"{prop_id} at k={k} (conditional family)",
                           "criterion+oracle+reductions", reports)


# ---------------------------------------------------------------------------
# the (s, t, sign) search harness

_SIGN_CHARS = {"+": 1, "-": -1}
CONSTRAINTS = ("none", "sum_zero", "sum_half")


@dataclass(frozen=True, order=True)
class SearchHit:
    s: int
    t: int
    sign1: str
    sign2: str


def _patterns_of(sign_pattern: str) -> tuple[tuple[int, int], ...]:
    if sign_pattern == "all":
        return ((1, 1), (1, -1), (-1, 1), (-1, -1))
    if (len(sign_pattern) == 2 and sign_pattern[0] in _SIGN_CHARS
            and sign_pattern[1] in _SIGN_CHARS):
        return ((_SIGN_CHARS[sign_pattern[0]], _SIGN_CHARS[sign_pattern[1]]),)
    raise UsageError(
        f"sign pattern must be two of +/- or 'all', got {sign_pattern!r}")


def _t_values(s: int, constraint: str, n: int) -> range:
    if constraint == "none":
        return range(n)
    if constraint == "sum_zero":
        t = (-s) % n
    elif constraint == "sum_half":
        t = (n // 2 - s) % n
    else:
        raise UsageError(
            f"unknown constraint {constraint!r}; valid: {', '.join(CONSTRAINTS)}")
    return range(t, t + 1)


def _swap_closed(patterns) -> bool:
    """(s, t, l1, l2) and (t, s, l2, l1) give the same h; a pattern set
    closed under that swap lets the search evaluate t >= s only."""
    return all((l2, l1) in patterns for l1, l2 in patterns)


def _evaluated_t(s: int, constraint: str, n: int, mirror: bool) -> range:
    ts = _t_values(s, constraint, n)
    return range(max(ts.start, s), ts.stop) if mirror else ts


def _hit(s: int, t: int, l1: int, l2: int) -> SearchHit:
    return SearchHit(s=s, t=t, sign1="+" if l1 > 0 else "-",
                     sign2="+" if l2 > 0 else "-")


def _search_range_table(k: int, s_lo: int, s_hi: int, constraint: str,
                        patterns) -> list[SearchHit]:
    """Criterion hits for s in [s_lo, s_hi), in logs only.

    sigma*zeta^j has log (q-1)*j, plus n1/2 when sigma = -1.  With
    u = 1 + l1*zeta^(si) and w = l2*zeta^(ti), h(zeta^i) = u + w has
    log h = lu + zech[lw - lu], where lu = zech[log(l1*zeta^(si))], and
    x*h^(q-1) maps zeta^i to zeta^(i + log h).  zech < 0 marks a zero; where
    u = 0, h = w.  A t-row passes when its n images fill the n circle slots
    once each.  For a swap-closed pattern set only t >= s is evaluated and
    each off-diagonal hit is also emitted as (t, s, l2, l1), which may lie
    outside [s_lo, s_hi).
    """
    kern = tower_field(k).accel_tables
    n1 = kern.n1
    n = CHAR ** k + 1
    half = n1 // 2                                  # log of -1
    mirror = _swap_closed(patterns)
    i = np.arange(n, dtype=np.int64)
    # lw[sign][t, i] = log(sign*zeta^(ti)), built once and shared by every
    # s-row (row s of it is the argument of lu)
    lw = {1: (np.outer(i, i) % n) * (n1 // n)}
    lw[-1] = (lw[1] + half) % n1
    # zn[d] + col[i] is the circle index, col = (i + lu) mod n: at
    # d = lw - lu + n1 (u != 0) zn is zech[lw - lu] mod n, at d = 2*n1 + lw
    # (u = 0, col = i) it is lw mod n; 2n sends a zero of h past both slot
    # copies, so the folded row then has an empty slot
    zech = kern.zech
    ext = np.concatenate([zech, zech, np.arange(n1)])
    zn = np.where(ext < 0, 2 * n, ext % n).astype(np.int16)
    width = 3 * n                                   # two slot copies + sink
    row_base = np.arange(n, dtype=np.int64)[:, None] * width
    hits: list[SearchHit] = []
    for s in range(s_lo, s_hi):
        ts = _evaluated_t(s, constraint, n, mirror)
        rows = len(ts)
        if not rows:
            continue
        for l1, l2 in patterns:
            lu = zech[lw[l1][s]]
            u_zero = lu < 0
            d = lw[l2][ts.start:ts.stop] + np.where(u_zero, 2 * n1, n1 - lu)
            col = np.where(u_zero, i, (i + lu) % n) + row_base[:rows]
            cnt = np.bincount((zn[d] + col).ravel(), minlength=rows * width)
            cnt = cnt.reshape(rows, 3, n)
            ok = (cnt[:, 0] + cnt[:, 1]).min(axis=1) == 1
            for t in (ts.start + np.flatnonzero(ok)).tolist():
                hits.append(_hit(s, t, l1, l2))
                if mirror and t != s:
                    hits.append(_hit(t, s, l2, l1))
    hits.sort()
    return hits


def _search_range_scalar(k: int, s_lo: int, s_hi: int, constraint: str,
                         patterns) -> list[SearchHit]:
    from .trinomials import build_trinomial
    n = CHAR ** k + 1
    hits = []
    for s in range(s_lo, s_hi):
        for t in _t_values(s, constraint, n):
            for l1, l2 in patterns:
                f = build_trinomial(k, [(1, 0), (l1, s), (l2, t)])
                if is_permutation_via_criterion(f).passed:
                    hits.append(_hit(s, t, l1, l2))
    hits.sort()
    return hits


def _search_chunk(args) -> list[SearchHit]:
    k, s_lo, s_hi, constraint, patterns, use_tables = args
    if use_tables:
        return _search_range_table(k, s_lo, s_hi, constraint, patterns)
    return _search_range_scalar(k, s_lo, s_hi, constraint, patterns)


def _split_by_work(work, parts: int) -> list[tuple[int, int]]:
    """Contiguous s-ranges of about equal total work that cover every row
    with work; empty ranges are dropped."""
    prefix = np.concatenate([[0], np.cumsum(work)])
    cuts = np.searchsorted(prefix, prefix[-1] * np.arange(parts + 1) / parts)
    return [(int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:])
            if lo < hi]


def search_problem_instances(k: int, constraint: str = "none",
                             sign_pattern: str = "all", force: bool = False,
                             threads: int = 1) -> list[SearchHit]:
    """All residue pairs whose trinomial passes the subgroup criterion.

    t is determined by s under the sum constraints; the full square is
    enumerated otherwise.  Output order is ascending (s, t, sign pattern)
    and is independent of the worker count.  The s-range is split into
    chunks of equal work (the table kernel evaluates t >= s only when the
    pattern set is swap-closed), one per worker; the worker count is
    clamped to the CPU count and to the number of non-empty chunks.
    """
    if constraint not in CONSTRAINTS:
        raise UsageError(
            f"unknown constraint {constraint!r}; valid: {', '.join(CONSTRAINTS)}")
    if k > SEARCH_GUARD_K and not force:
        raise GuardExceededError(
            f"search guarded at k <= {SEARCH_GUARD_K}; pass force to override")
    patterns = _patterns_of(sign_pattern)
    field = tower_field(k)
    unity_group(field)                 # build before any fork
    use_tables = field.accel_tables is not None
    mirror = use_tables and _swap_closed(patterns)
    n = CHAR ** k + 1
    workers = min(max(1, int(threads)), os.cpu_count() or 1)
    work = [len(_evaluated_t(s, constraint, n, mirror)) for s in range(n)]
    chunks = [(k, lo, hi, constraint, patterns, use_tables)
              for lo, hi in _split_by_work(work, workers)]
    if len(chunks) == 1:
        return _search_chunk(chunks[0])
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(chunks)) as pool:
        parts = pool.map(_search_chunk, chunks)
    return sorted(hit for part in parts for hit in part)
