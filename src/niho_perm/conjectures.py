"""Finite verification of the two conjectured permutation maps, the
trace/norm profile chain behind the first conditional family, and the
(s, t, sign) search harness.

Conjecture checks are finite sweeps and are reported as VERIFIED over the
checked range, never as proved.  The search enumerates residue pairs with
an optional sum constraint, decides the subgroup criterion for candidate
blocks on the circle's P^1 log tables (at sample points, then at every
point for the survivors), and returns the passing set in canonical order;
partitioning the s-range across worker processes cannot change the output.

Conjecture 1's map and P1's trace/norm chain have GF(5) coefficients, so
their whole-field sweeps evaluate one log per Frobenius orbit (the orbit
rule in the field module, on TableKernel.orbits).  Poles, class escapes
and failing profile checks each form a Frobenius-closed set, so the first
of each is an orbit leader; a failing permutation fills every image log
from the leaders' for the oracle's seen-table, so its collision witness is
the full sweep's.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError, NihoPermError, UsageError
from .field import (TABLE_DEGREE, FieldElement, in_subfield, lazy_attribute,
                    make_field, norm, trace, tower_field, wrap_mod)
from .report import VerificationReport, combine_reports, timed
from .trinomials import (eval_trinomial, exhaustive_permutation_report,
                         field_values, induced_mu_map, theorem_family,
                         verdicts)
from .unity import (build_map, maps_agree_report, pointwise_agreement_report,
                    unity_group, unity_permutation_report)

SEARCH_GUARD_K = 4
# The full square reads the group's n^2 log tables up to SQUARE_TABLE_K and
# base 9 above, as the sum searches do.  At k=5 the tables (19.5 MB a
# pattern) took the default all-signs square on 2 workers from 65.5 to
# 117 MB peak RSS and saved no time (38.2 against 32.9 s).
SQUARE_TABLE_K = 4


class ProfileMismatchError(NihoPermError):
    """Direct trace/norm values disagree with the closed formulas."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# conjecture 1: x*((x^2-x+2)/(x^2+x+2))^2 on GF(5^k), odd k

@timed
def conjecture1_check(k: int) -> VerificationReport:
    """Exhaustive permutation and square-class stability sweep on GF(5^k)."""
    if k % 2 == 0 or k < 1:
        raise UsageError(f"the subfield map claim needs odd k >= 1 "
                         f"(got k={k})")
    if k > TABLE_DEGREE:
        raise GuardExceededError(
            f"GF(5^{k}) has no log tables: the subfield map claim is "
            f"checked at odd k in 1..{TABLE_DEGREE} (got k={k})")
    field = make_field(k)
    kern = field.accel_tables
    subject = f"x*((x^2-x+2)/(x^2+x+2))^2 permutes GF(5^{k})"
    n1, orbits = kern.n1, kern.orbits
    logs = orbits.leaders           # x = g^log, x != 0, one per orbit
    sq = (2 * logs) % n1
    num = kern.log_sum(((1, sq), (-1, logs), (2, 0)))
    den = kern.log_sum(((1, sq), (1, logs), (2, 0)))
    poles = np.nonzero(den < 0)[0]
    if poles.size:
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "pole", "x": field.log_csv(logs[poles[0]])},
            counts={"elements": field.order})
    val_logs = kern.log_product(((logs, 1), (num, 2), (den, -2)))
    if val_logs.min() < 0 or not orbits.permutes(val_logs):
        images = np.where(val_logs[orbits.orbit] < 0, -1,
                          orbits.fill(val_logs))
        return exhaustive_permutation_report(       # 0 maps to 0
            field, np.concatenate(([-1], images)), subject)
    # square-class stability: squares sit at even logs, twice-squares at odd
    escape = np.nonzero((logs % 2) != (val_logs % 2))[0]
    if escape.size:
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "class_escape",
                     "x": field.log_csv(logs[escape[0]])},
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


def profile_of(x: FieldElement) -> TraceNormProfile:
    """Compute x's family-P1 profile both directly and by the closed formulas.

    The two routes must agree and gamma must equal
    -r*((r^2-r+2)/(r^2+r+2))^2; any mismatch raises ProfileMismatchError
    with the witness point.
    """
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
    """The Frobenius orbit leaders among the logs of x outside GF(5^k)
    (x^q != x), and the log of the family-P1 image f(x) at each, -1 for
    zero: every check on them commutes with x -> x^5, so its first failing
    log is a leader."""
    n1 = field.order - 1
    leaders = field.accel_tables.orbits.leaders
    off = leaders[(leaders * field.q) % n1 != leaders]
    f = theorem_family("P1", field.subfield_degree)
    vals = field_values(field, f.monomials)
    return off, vals[off + 1]           # vals[0] is f(0)


@timed
def profile_sweep_report(k: int, *, image=None) -> VerificationReport:
    """Profile chain over every x outside the subfield, vectorized on the
    logs of its orbit leaders.  image is _p1_image_off_subfield's result,
    if the caller already has it; the witness is the first failing point
    of the first failing check."""
    if k % 2 == 0:
        raise UsageError(f"the profile chain needs odd k (got {k})")
    field = tower_field(k)
    kern = field.accel_tables
    q = field.q
    n1 = kern.n1
    subject = f"trace/norm profile chain over GF(5^{2*k}) minus GF(5^{k})"
    off, lf = image or _p1_image_off_subfield(field)
    points = field.order - q            # off holds their orbit leaders

    def failure(kind: str, mask) -> VerificationReport:
        bad = int(np.nonzero(mask)[0][0])
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": kind, "x": field.log_csv(off[bad])},
            counts={"points": points})

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
                              passed=True, counts={"points": points})


@timed
def subfield_stability_report(k: int, *, image=None) -> VerificationReport:
    """f(x) stays off the subfield whenever x is off it (family P1); image
    as in profile_sweep_report."""
    if k % 2 == 0:
        raise UsageError(f"stability fact needs odd k (got {k})")
    field = tower_field(k)
    kern = field.accel_tables
    q = field.q
    n1 = kern.n1
    subject = f"P1 maps GF(5^{2*k}) minus GF(5^{k}) into itself"
    off, lf = image or _p1_image_off_subfield(field)
    points = field.order - q            # off holds their orbit leaders
    in_sub = (lf < 0) | ((lf * q) % n1 == lf)
    if np.any(in_sub):
        bad = int(np.nonzero(in_sub)[0][0])
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "subfield_image",
                     "x": field.log_csv(off[bad])},
            counts={"points": points})
    return VerificationReport(subject=subject, method="exhaustive",
                              passed=True, counts={"points": points})


@timed
def quartic_obstruction_report(k: int) -> VerificationReport:
    """x^4+2x^3+x^2+2x+1 has no root on the circle (its roots have order 13,
    and 13 never divides q+1 for odd k)."""
    if k % 2 == 0:
        raise UsageError(f"obstruction fact needs odd k (got {k})")
    return _quartic_report(unity_group(tower_field(k)))


def _quartic_report(group) -> VerificationReport:
    """The quartic obstruction on any circle: a root witness carries the
    circle index and point; with no root, gcd(13, q+1) must still be 1.
    The roots are Frobenius-closed, so the first one is an orbit leader."""
    g13 = math.gcd(13, group.n)
    leaders = group.orbits.leaders
    logs = group.sum_logs(leaders, ((1, 4), (2, 3), (1, 2), (2, 1), (1, 0)))
    zero = leaders[np.flatnonzero(logs < 0)]
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
    checks = verdicts(f)
    reports = list(checks.values())
    group = unity_group(f.field)
    if prop_id == "P1":
        if "exhaustive" in checks:
            image = _p1_image_off_subfield(f.field)
            reports.append(subfield_stability_report(k, image=image))
            reports.append(profile_sweep_report(k, image=image))
        reports.append(quartic_obstruction_report(k))
        reports.append(maps_agree_report(
            induced_mu_map(f), build_map("p1_bridge", k), group, "mu"))
    else:
        n, leaders = group.n, group.orbits.leaders
        g3 = math.gcd(3, n)
        reports.append(VerificationReport(
            subject=f"cube map permutes the circle at k={k}",
            method="integer", passed=g3 == 1,
            witness=None if g3 == 1 else {"type": "gcd", "gcd": g3},
            counts={"gcd_3_q_plus_1": g3}))
        # x -> x^3 commutes with x -> x^5, so the first zero, pole or
        # mismatch over the circle is at a leader: the leaders decide all n
        cube = pointwise_agreement_report(
            f"g10 after the cube map matches its closed form at k={k}", group,
            build_map("g10", k), 3 * leaders % n, build_map("p2_bridge", k),
            leaders)
        cube.counts = {"points": n}
        reports.append(cube)
    return combine_reports(f"{prop_id} at k={k} (conditional family)",
                           "criterion+oracle+reductions", reports)


# ---------------------------------------------------------------------------
# the (s, t, sign) search harness

# each sign set `search --signs` takes, and the (l1, l2) patterns it names
SIGN_SETS = {"++": ((1, 1),), "+-": ((1, -1),), "-+": ((-1, 1),),
             "--": ((-1, -1),), "all": ((1, 1), (1, -1), (-1, 1), (-1, -1))}
CONSTRAINTS = ("none", "sum_zero", "sum_half")


@dataclass(frozen=True, order=True)
class SearchHit:
    s: int
    t: int
    sign1: str
    sign2: str


def _patterns_of(sign_pattern: str) -> tuple[tuple[int, int], ...]:
    if sign_pattern in SIGN_SETS:
        return SIGN_SETS[sign_pattern]
    raise UsageError(
        f"sign pattern must be two of +/- or 'all', got {sign_pattern!r}")


def _candidate_rows(s: np.ndarray, constraint: str, n: int):
    """Per s: the first evaluated t and the number of them, as arrays.

    t runs over t >= s in Z/n, or is the one residue the sum constraint
    fixes if that one is >= s."""
    if constraint == "none":
        first, stop = s, np.full_like(s, n)
    else:
        first = (-s if constraint == "sum_zero" else n // 2 - s) % n
        stop = first + 1
        first = np.maximum(first, s)
    return first, np.maximum(stop - first, 0)


SEARCH_BLOCK = 1 << 15      # (candidate, point) pairs per kernel block


class _SearchTables:
    """One circle's search tables for h = 1 + l1*zeta^(si) + l2*zeta^(ti).

    Log h mod n (-2n at a zero) comes from the group in one of two ways.
    The full square up to SQUARE_TABLE_K reads it from the group's n^2
    table of the pattern (square_logs) at (s*i mod n)*n + (t*i mod n), one
    gather where base9_logs takes three: a k=3 square reads each
    (s*i, t*i) about 22 times, a k=4 square about 50 times.  (-1, 1) reads
    the table of (1, -1) with s and t swapped.  A sum search
    reads only n*m of the n^2 pairs, once each, so it adds the base-9
    halves of the two terms and reads base9_logs instead: through the
    table, the k=6 "sum-half ++" search (0.6 s and 107 MB) would build
    244M entries per pattern to read 7.8M of them.
    The m sample points are spread over Z/n, both parities: odd points
    alone would let one row table serve both signs, but of the 8,001 k=3
    "++" candidates with t >= s, 785 survive them against 174 here (112
    are hits).

    A block's intermediates go to four int32 buffers of SEARCH_BLOCK
    entries that the tables keep (np.take with out=, +=, and wrap_mod in
    place); the int16 square table is read into an int16 view of one.
    Blocks that allocated and freed arrays of about 128 KiB let glibc's
    malloc trim and regrow the heap around each one: in a process that had
    built no field tables, a k=3 "++" square search took about 1,300 minor
    page faults and 35% more time.  The takes are unbuffered (mode="clip"):
    with out= the default mode="raise" still allocates.  No index is
    clipped: the group checks base9_logs' tables, each chunk checks that
    its s and t lie in [0, n), and s*i is reduced mod n before it indexes a
    row.  The buffers make one table object single-threaded; the search's
    workers are processes.
    """

    def __init__(self, group):
        self.group, n = group, group.n
        self.n = np.int32(n)        # the kernel's arithmetic stays in int32
        m = min(n, math.isqrt(16 * n))
        self.points = (np.arange(m) * n // m).astype(np.int32)
        self.every = np.arange(n, dtype=np.int32)
        group.a9                    # built and checked before any fork
        self._bufs = np.empty((4, max(SEARCH_BLOCK, n)), dtype=np.int32)
        self._rows: dict[int, tuple] = {}

    def rows(self, sign):
        """The base-9 halves of sign*zeta^j for j in Z/n, and of
        sign*zeta^(j*i) at the stride points i (row j), built on first use,
        a block of rows at a time."""
        if sign not in self._rows:
            every = self.group.halves[sign]
            sampled = tuple(np.empty((self.n, self.points.size), np.int32)
                            for _ in every)
            step = max(1, SEARCH_BLOCK // self.points.size)
            for lo in range(0, self.n, step):
                exps = np.outer(np.arange(lo, min(lo + step, self.n),
                                          dtype=np.int32), self.points)
                exps %= self.n
                for half, out in zip(every, sampled):
                    np.take(half, exps, out=out[lo:lo + step])
            self._rows[sign] = every, sampled
        return self._rows[sign]

    @lazy_attribute
    def square_rows(self):
        """The two parts of the square's table index (s*i mod n)*n +
        (t*i mod n), shaped as rows() gives halves: for all i in Z/n, the
        scales n and 1 of s*i and t*i mod n, and at the stride points i,
        row j holds n*(j*i mod n) and j*i mod n (the sign-free table E)."""
        exps = np.outer(self.every, self.points) % self.n
        return (self.n, (exps * self.n,)), (1, (exps,))

    def _read_square(self, table, a, b, c) -> np.ndarray:
        """table[a] into a, through an int16 view of c (a and c int32)."""
        small = c.reshape(-1).view(np.int16)[:c.size].reshape(c.shape)
        np.take(table, a, out=small, mode="clip")
        a[...] = small
        return a

    def _blocks(self, rows: int, width: int):
        """The four block buffers as (rows, width) arrays."""
        return [buf[:rows * width].reshape(rows, width) for buf in self._bufs]

    def _verdict(self, a, b, points) -> np.ndarray:
        """Per row of logs a: h has no zero and distinct images
        i + log h at the points i.  Overwrites a and b."""
        a += points
        wrap_mod(a, self.n, scratch=b)  # the -2n zero marker stays negative
        a.sort(axis=1)
        return (a[:, 0] >= 0) & (a[:, 1:] != a[:, :-1]).all(axis=1)

    def _distinct(self, u, w, i, j, points, logs=None) -> np.ndarray:
        """Per row: h has no zero and distinct images, reading log h by
        logs (base9_logs if None) from u[i] + w[j], the rows gathered along
        axis 0 a buffer's worth of rows at a time."""
        logs = logs or self.group.base9_logs
        step = max(1, self._bufs.shape[1] // points.size)
        ok = np.empty(len(i), dtype=bool)
        for lo in range(0, len(i), step):
            a, b, c, _ = self._blocks(min(step, len(i) - lo), points.size)
            for out, uh, wh in zip((a, b), u, w):
                np.take(uh, i[lo:lo + step], axis=0, out=out, mode="clip")
                out += np.take(wh, j[lo:lo + step], axis=0, out=c,
                               mode="clip")
            ok[lo:lo + step] = self._verdict(logs(a, b, c), b, points)
        return ok

    def hits(self, s, t, l1, l2, square=False) -> np.ndarray:
        """Positions j where (s[j], t[j], l1, l2) passes the criterion,
        read from the square's table if square, else from base-9 halves.

        A repeat or a zero at the sampled points is one over the whole
        circle, so the n-point verdict runs only on the survivors, a
        buffer's worth of rows at a time."""
        if l1 < l2:     # the same h: one table serves (1, -1) and (-1, 1)
            return self.hits(t, s, l2, l1, square)
        if square:
            logs = functools.partial(self._read_square,
                                     self.group.square_logs(l1, l2))
            (pu, su), (pw, sw) = self.square_rows
        else:
            logs = self.group.base9_logs
            (pu, su), (pw, sw) = self.rows(l1), self.rows(l2)
        keep = np.flatnonzero(self._distinct(su, sw, s, t, self.points, logs))
        n = self.n
        step = max(1, self._bufs.shape[1] // int(n))
        passed = [keep[:0]]
        for lo in range(0, keep.size, step):
            part = keep[lo:lo + step]
            a, b, c, d = self._blocks(part.size, n)
            a[:] = b[:] = 0
            for x, halves in ((s, pu), (t, pw)):
                np.multiply.outer(x[part].astype(np.int32), self.every, out=d)
                d %= n                      # the exponents x*i mod n
                if square:                  # halves is the scale of x*i
                    a += np.multiply(d, halves, out=c)
                else:
                    for out, half in zip((a, b), halves):
                        out += np.take(half, d, out=c, mode="clip")
            passed.append(part[self._verdict(logs(a, b, c), b, self.every)])
        return np.concatenate(passed)


_search_tables = functools.cache(_SearchTables)    # one per circle


def _search_chunk(args) -> list[SearchHit]:
    """Criterion hits for s in [s_lo, s_hi), sorted.

    The chunk's candidates (s, t), t >= s, are listed as int arrays and
    evaluated in blocks of about SEARCH_BLOCK sample points, every block
    of one pattern before the next, so that the square reads one pattern's
    table at a time.
    (s, t, l1, l2) and (t, s, l2, l1) give the same h, so each pattern of
    the swap closure of the requested set is evaluated once: a hit is
    emitted if its pattern was requested, and its off-diagonal mirror
    (t, s, l2, l1), which may lie outside [s_lo, s_hi), if that one was.
    """
    k, s_lo, s_hi, constraint, patterns = args
    tabs = _search_tables(unity_group(tower_field(k)))
    n = int(tabs.n)
    starts, counts = _candidate_rows(np.arange(s_lo, s_hi), constraint, n)
    live = counts > 0           # the kernel's takes leave indices unchecked
    if live.any() and not (0 <= s_lo and s_hi <= n
                           and starts[live].min() >= 0
                           and (starts + counts)[live].max() <= n):
        raise IndexError(f"search candidates outside Z/{n}")
    prefix = np.concatenate(([0], np.cumsum(counts)))
    size = max(1, SEARCH_BLOCK // len(tabs.points))
    closure = dict.fromkeys(patterns + tuple((b, a) for a, b in patterns))
    square = constraint == "none" and k <= SQUARE_TABLE_K
    found = [np.empty((4, 0), dtype=np.int64)]     # rows s, t, l1, l2
    for (l1, l2), lo in itertools.product(closure, range(0, prefix[-1], size)):
        pos = np.arange(lo, min(lo + size, prefix[-1]))
        row = np.searchsorted(prefix, pos, side="right") - 1
        s, t = s_lo + row, starts[row] + pos - prefix[row]
        j = tabs.hits(s, t, l1, l2, square=square)
        if (l1, l2) in patterns:
            found.append(np.stack((s[j], t[j], np.full(j.size, l1),
                                   np.full(j.size, l2))))
        if (l2, l1) in patterns:
            j = j[s[j] != t[j]]
            found.append(np.stack((t[j], s[j], np.full(j.size, l2),
                                   np.full(j.size, l1))))
    found = np.concatenate(found, axis=1)
    s, t, l1, l2 = found
    # SearchHit order: (s, t, sign1, sign2), with '+' before '-'
    rows = found[:, np.lexsort((-l2, -l1, t, s))].T.tolist()
    return [SearchHit(s, t, "+-"[a < 0], "+-"[b < 0]) for s, t, a, b in rows]


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
    chunks of equal work (only t >= s is evaluated), one per worker; the
    worker count is clamped to the CPU count and to the number of
    non-empty chunks.
    """
    if constraint not in CONSTRAINTS:
        raise UsageError(
            f"unknown constraint {constraint!r}; valid: {', '.join(CONSTRAINTS)}")
    if k > SEARCH_GUARD_K and not force:
        raise GuardExceededError(
            f"search guarded at k <= {SEARCH_GUARD_K}; pass force to override")
    patterns = _patterns_of(sign_pattern)
    group = unity_group(tower_field(k))
    tabs = _search_tables(group)                # built before any fork
    if constraint == "none" and k <= SQUARE_TABLE_K:
        for pattern in patterns:
            group.square_logs(*sorted(pattern, reverse=True))
        tabs.square_rows
    else:
        for sign in {sign for pattern in patterns for sign in pattern}:
            tabs.rows(sign)
    n = group.n
    workers = min(max(1, int(threads)), os.cpu_count() or 1)
    work = _candidate_rows(np.arange(n), constraint, n)[1]
    chunks = [(k, lo, hi, constraint, patterns)
              for lo, hi in _split_by_work(work, workers)]
    if len(chunks) == 1:
        return _search_chunk(chunks[0])
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(chunks)) as pool:
        parts = pool.map(_search_chunk, chunks)
    return sorted(hit for part in parts for hit in part)
