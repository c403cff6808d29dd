"""Finite verification of the two conjectured permutation maps, the
trace/norm profile chain behind the first conditional family, and the
(s, t, sign) search harness.

Conjecture checks are finite sweeps and are reported as VERIFIED over the
checked range, never as proved.  The search enumerates residue pairs with
an optional sum constraint, decides the subgroup criterion for candidate
blocks on the circle's P^1 log tables (at sample points, then at every
point for the survivors), and returns the passing set in canonical order;
partitioning the s-range across worker processes cannot change the output.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError, NihoPermError, UsageError
from .field import (CHAR, FieldElement, in_subfield, make_field, norm,
                    trace, tower_field, wrap_mod)
from .report import VerificationReport, combine_reports, timed
from .trinomials import (eval_trinomial, field_values, induced_mu_map,
                         theorem_family, verdicts)
from .unity import (build_map, maps_agree_report, pointwise_agreement_report,
                    unity_group)

SEARCH_GUARD_K = 4


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
    if k % 2 == 0:
        raise UsageError(f"the subfield map claim needs odd k (got {k})")
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
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "pole", "x": field.from_log(poles[0]).csv()},
            counts={"elements": field.order})
    val_logs = kern.log_product(((logs, 1), (num, 2), (den, -2)))
    # permutation over the full field: 0 maps to 0, so nonzero values must
    # be nonzero and pairwise distinct; the duplicate reported is 0 if it
    # is hit, else the smallest duplicated element index
    counts = np.bincount(val_logs + 1, minlength=n1 + 1)
    if counts.max() > 1 or counts[0] > 0:
        dup = -1 if counts[0] else int(kern.logt[
            kern.antilog[np.nonzero(counts[1:] > 1)[0]].min()])
        positions = np.nonzero(val_logs == dup)[0][:2]
        wit = {"type": "collision",
               "x1": field.from_log(positions[0]).csv(),
               "x2": field.from_log(positions[-1] if positions.size > 1
                                    else -1).csv()}
        return VerificationReport(subject=subject, method="exhaustive",
                                  passed=False, witness=wit,
                                  counts={"elements": field.order})
    # square-class stability: squares sit at even logs, twice-squares at odd
    escape = np.nonzero((logs % 2) != (val_logs % 2))[0]
    if escape.size:
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "class_escape",
                     "x": field.from_log(escape[0]).csv()},
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
    """Logs of every x outside GF(5^k) (x^q != x), and the log of the
    family-P1 image f(x) at each, -1 for zero."""
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
    q = field.q
    n1 = kern.n1
    subject = f"trace/norm profile chain over GF(5^{2*k}) minus GF(5^{k})"
    off, lf = image or _p1_image_off_subfield(field)

    def failure(kind: str, mask) -> VerificationReport:
        bad = int(np.nonzero(mask)[0][0])
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": kind, "x": field.from_log(off[bad]).csv()},
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
    q = field.q
    n1 = kern.n1
    subject = f"P1 maps GF(5^{2*k}) minus GF(5^{k}) into itself"
    off, lf = image or _p1_image_off_subfield(field)
    in_sub = (lf < 0) | ((lf * q) % n1 == lf)
    if np.any(in_sub):
        bad = int(np.nonzero(in_sub)[0][0])
        return VerificationReport(
            subject=subject, method="exhaustive", passed=False,
            witness={"type": "subfield_image",
                     "x": field.from_log(off[bad]).csv()},
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
    logs = group.sum_logs(group.domain_indices("mu"),
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
        n, mu = group.n, group.domain_indices("mu")
        g3 = math.gcd(3, n)
        reports.append(VerificationReport(
            subject=f"cube map permutes the circle at k={k}",
            method="integer", passed=g3 == 1,
            witness=None if g3 == 1 else {"type": "gcd", "gcd": g3},
            counts={"gcd_3_q_plus_1": g3}))
        reports.append(pointwise_agreement_report(
            f"g10 after the cube map matches its closed form at k={k}", group,
            build_map("g10", k), 3 * mu % n, build_map("p2_bridge", k), mu))
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


def _swap_closed(patterns) -> bool:
    """(s, t, l1, l2) and (t, s, l2, l1) give the same h; a pattern set
    closed under that swap lets the search evaluate t >= s only."""
    return all((l2, l1) in patterns for l1, l2 in patterns)


def _candidate_rows(s: np.ndarray, constraint: str, n: int, mirror: bool):
    """Per s: the first evaluated t and the number of them, as arrays.

    t runs over Z/n, or is the one residue the sum constraint fixes; with
    mirror only t >= s is evaluated."""
    if constraint == "none":
        first, stop = np.zeros_like(s), np.full_like(s, n)
    else:
        first = (-s if constraint == "sum_zero" else n // 2 - s) % n
        stop = first + 1
    if mirror:
        first = np.maximum(first, s)
    return first, np.maximum(stop - first, 0)


def _hit(s: int, t: int, l1: int, l2: int) -> SearchHit:
    return SearchHit(s=s, t=t, sign1="+" if l1 > 0 else "-",
                     sign2="+" if l2 > 0 else "-")


SEARCH_BLOCK = 1 << 15      # (candidate, point) pairs per kernel block


class _SearchTables:
    """One circle's tables for h = 1 + l1*zeta^(si) + l2*zeta^(ti).

    Each GF(q) half of sign*zeta^j is packed in base 9, so the halves of two
    terms add without a carry; a9 and b9 take a packed sum (a9 adding the
    1) to the group's la and lb, and ctn is the group's ctn with -2n where
    h = 0.  x*h^(q-1) maps zeta^i to zeta^(i + log h), log h = ct mod n.

    Base 9 stays, though UnityGroup.sum_logs packs the same halves in
    uint64 words: summing h in those words and reading them through its
    4,096-entry table gave the same hits, but one k=3 screening block of
    744 candidates x 44 points took 307 us against 156 us here, and the
    whole k=3 square search 25-50% longer.  The sample points are spread
    over Z/n, both parities.  Odd points alone would let one table serve
    both signs, since -zeta^(si) = zeta^((s + n/2)i) at odd i, but they
    screen worse: of the 8,001 k=3 "++" candidates with t >= s, 785
    survive them against 174 here (112 are hits).

    A block's intermediates go to four int32 buffers of SEARCH_BLOCK
    entries that the tables keep (np.take with out=, +=, and wrap_mod in
    place), so no block allocates an array of its own size.  Blocks that
    allocated and freed arrays of about 128 KiB let glibc's malloc trim and
    regrow the heap around every block unless an earlier large free had
    raised its trim threshold: in a process that had built no field
    tables, a k=3 "++" square search took about 1,300 minor page faults
    and 35% more time.  The takes are unbuffered (mode="clip"), since
    np.take with out= and the default mode="raise" still allocates a
    buffer for its output.  No index is ever clipped: the build checks
    that a9 - b9 lies in ctn and that each packed half is at most
    (9^k - 1)/2, so two of them sum below 9^k; each chunk checks that its
    s and t lie in [0, n); and the exponents s*i are reduced mod n before
    they index a row.  The buffers make one table object single-threaded;
    the search's workers are processes.
    """

    def __init__(self, group):
        self.group = group
        n, k = group.n, group.k
        self.n = np.int32(n)        # the kernel's arithmetic stays in int32
        m = min(n, math.isqrt(16 * n))
        self.points = (np.arange(m) * n // m).astype(np.int32)
        self.every = np.arange(n, dtype=np.int32)
        # the GF(q) index of each of the 9^k packed values
        red = np.zeros(1, dtype=np.int64)
        for j in range(k):
            red = ((np.arange(9) % CHAR * CHAR ** j)[:, None] + red).ravel()
        self.a9 = group.la[red - red % CHAR + (red + 1) % CHAR].astype(np.int32)
        self.b9 = group.lb[red].astype(np.int32)
        self.ctn = np.where(group.ctn < 0, -2 * n, group.ctn).astype(np.int32)
        # the packed halves of sign*zeta^j for j in Z/n
        place = 9 ** np.arange(k, dtype=np.int32)
        self.halves = {}
        for sign in (1, -1):
            digits = group.coords * np.int8(sign) % CHAR
            self.halves[sign] = tuple(digits[:, h:h + k] @ place
                                      for h in (0, k))
        packed = np.concatenate([x for pair in self.halves.values()
                                 for x in pair])
        if not (self.a9.min() - self.b9.max() >= 0
                and self.a9.max() - self.b9.min() < self.ctn.size
                and packed.min() >= 0 and 2 * packed.max() < self.a9.size):
            raise IndexError("search table index out of range")
        self._bufs = np.empty((4, max(SEARCH_BLOCK, n)), dtype=np.int32)
        self._rows: dict[int, tuple] = {}

    def rows(self, sign):
        """The packed halves of sign*zeta^j for j in Z/n, and of
        sign*zeta^(j*i) at the stride points i (row j), built on first use,
        a block of rows at a time."""
        if sign not in self._rows:
            every = self.halves[sign]
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

    def _blocks(self, rows: int, width: int):
        """The four block buffers as (rows, width) arrays."""
        return [buf[:rows * width].reshape(rows, width) for buf in self._bufs]

    def _verdict(self, a, b, c, points) -> np.ndarray:
        """Per row of packed half-sums a and b: h has no zero and distinct
        images.  Overwrites a, b and c."""
        np.take(self.a9, a, out=c, mode="clip")
        np.take(self.b9, b, out=a, mode="clip")
        c -= a
        np.take(self.ctn, c, out=a, mode="clip")
        a += points
        wrap_mod(a, self.n, scratch=b)  # the -2n zero marker stays negative
        a.sort(axis=1)
        return (a[:, 0] >= 0) & (a[:, 1:] != a[:, :-1]).all(axis=1)

    def _distinct(self, u, w, i, j, points) -> np.ndarray:
        """Per row: h = 1 + u[i] + w[j] has no zero and distinct images,
        the halves gathered along axis 0 a buffer's worth of rows at a
        time."""
        step = max(1, self._bufs.shape[1] // points.size)
        ok = np.empty(len(i), dtype=bool)
        for lo in range(0, len(i), step):
            a, b, c, _ = self._blocks(min(step, len(i) - lo), points.size)
            for out, uh, wh in zip((a, b), u, w):
                np.take(uh, i[lo:lo + step], axis=0, out=out, mode="clip")
                out += np.take(wh, j[lo:lo + step], axis=0, out=c,
                               mode="clip")
            ok[lo:lo + step] = self._verdict(a, b, c, points)
        return ok

    def hits(self, s, t, l1, l2) -> np.ndarray:
        """Positions j where (s[j], t[j], l1, l2) passes the criterion.

        A repeat or a zero at the sampled points is one over the whole
        circle, so the n-point verdict runs only on the survivors, a
        buffer's worth of rows at a time."""
        (pu, su), (pw, sw) = self.rows(l1), self.rows(l2)
        keep = np.flatnonzero(self._distinct(su, sw, s, t, self.points))
        n = self.n
        step = max(1, self._bufs.shape[1] // int(n))
        passed = [keep[:0]]
        for lo in range(0, keep.size, step):
            part = keep[lo:lo + step]
            a, b, c, d = self._blocks(part.size, n)
            np.multiply.outer(s[part].astype(np.int32), self.every, out=d)
            d %= n                          # the exponents s*i mod n
            np.take(pu[0], d, out=a, mode="clip")
            np.take(pu[1], d, out=b, mode="clip")
            np.multiply.outer(t[part].astype(np.int32), self.every, out=d)
            d %= n
            a += np.take(pw[0], d, out=c, mode="clip")
            b += np.take(pw[1], d, out=c, mode="clip")
            passed.append(part[self._verdict(a, b, c, self.every)])
        return np.concatenate(passed)


_search_tables = functools.cache(_SearchTables)    # one per circle


def _search_chunk(args) -> list[SearchHit]:
    """Criterion hits for s in [s_lo, s_hi), sorted.

    The chunk's candidates (s, t) are listed as int arrays and evaluated in
    blocks of about SEARCH_BLOCK sample points.  For a swap-closed pattern
    set only t >= s is evaluated and each off-diagonal hit is also emitted
    as (t, s, l2, l1), which may lie outside [s_lo, s_hi).
    """
    k, s_lo, s_hi, constraint, patterns = args
    tabs = _search_tables(unity_group(tower_field(k)))
    mirror = _swap_closed(patterns)
    n = int(tabs.n)
    starts, counts = _candidate_rows(np.arange(s_lo, s_hi), constraint, n,
                                     mirror)
    live = counts > 0           # the kernel's takes leave indices unchecked
    if live.any() and not (0 <= s_lo and s_hi <= n
                           and starts[live].min() >= 0
                           and (starts + counts)[live].max() <= n):
        raise IndexError(f"search candidates outside Z/{n}")
    prefix = np.concatenate(([0], np.cumsum(counts)))
    size = max(1, SEARCH_BLOCK // len(tabs.points))
    found = [np.empty((4, 0), dtype=np.int64)]     # rows s, t, l1, l2
    for lo in range(0, int(prefix[-1]), size):
        pos = np.arange(lo, min(lo + size, int(prefix[-1])))
        row = np.searchsorted(prefix, pos, side="right") - 1
        s, t = s_lo + row, starts[row] + pos - prefix[row]
        for l1, l2 in patterns:
            j = tabs.hits(s, t, l1, l2)
            found.append(np.stack((s[j], t[j], np.full(j.size, l1),
                                   np.full(j.size, l2))))
            if mirror:
                j = j[s[j] != t[j]]
                found.append(np.stack((t[j], s[j], np.full(j.size, l2),
                                       np.full(j.size, l1))))
    s, t, l1, l2 = np.concatenate(found, axis=1)
    # SearchHit order: (s, t, sign1, sign2), with '+' before '-'
    order = np.lexsort((-l2, -l1, t, s))
    return [_hit(*c) for c in zip(s[order].tolist(), t[order].tolist(),
                                  l1[order].tolist(), l2[order].tolist())]


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
    chunks of equal work (only t >= s is evaluated when the pattern set is
    swap-closed), one per worker; the worker count is
    clamped to the CPU count and to the number of non-empty chunks.
    """
    if constraint not in CONSTRAINTS:
        raise UsageError(
            f"unknown constraint {constraint!r}; valid: {', '.join(CONSTRAINTS)}")
    if k > SEARCH_GUARD_K and not force:
        raise GuardExceededError(
            f"search guarded at k <= {SEARCH_GUARD_K}; pass force to override")
    patterns = _patterns_of(sign_pattern)
    group = unity_group(tower_field(k))
    for sign in {sign for pattern in patterns for sign in pattern}:
        _search_tables(group).rows(sign)        # build before any fork
    mirror = _swap_closed(patterns)
    n = group.n
    workers = min(max(1, int(threads)), os.cpu_count() or 1)
    work = _candidate_rows(np.arange(n), constraint, n, mirror)[1]
    chunks = [(k, lo, hi, constraint, patterns)
              for lo, hi in _split_by_work(work, workers)]
    if len(chunks) == 1:
        return _search_chunk(chunks[0])
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(chunks)) as pool:
        parts = pool.map(_search_chunk, chunks)
    return sorted(hit for part in parts for hit in part)
