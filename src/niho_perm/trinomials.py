"""Trinomials x^(c0(q-1)+1) + s1*x^(c1(q-1)+1) + s2*x^(c2(q-1)+1) over
GF(5^{2k}), with permutation verdicts by two independent routes.

Every exponent is congruent to 1 mod q-1, so f(x) = x * h(x^(q-1)) with h
the signed coefficient polynomial in the residues c.  The exhaustive oracle
marks a full seen-table over the field; the subgroup criterion reduces the
question to whether x * h(x)^(q-1) permutes the (q+1)-circle (the other
condition, gcd(1, q-1) = 1, always holds).
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from .errors import GuardExceededError, UsageError
from .field import (CHAR, TABLE_DEGREE, FieldElement, FieldParams,
                    tower_field, wrap_mod)
from .report import VerificationReport, timed
from .residues import parity_admits, resolve_residue
from .unity import (PowerFormMap, sparse_at, unity_group,
                    unity_permutation_report)

# one k = 4 sample (an oracle and a criterion verdict) takes about 4.4 ms
# on a 2-vCPU Xeon VM, so the largest agreement run takes about 45 s
AGREEMENT_SAMPLE_LIMIT = 10_000


class NihoTrinomial:
    """Three signed terms with exponents c*(q-1)+1, residues c mod q+1."""

    __slots__ = ("field", "k", "q", "terms")

    def __init__(self, field: FieldParams, terms: tuple[tuple[int, int], ...]):
        self.field = field
        self.k = field.subfield_degree
        self.q = field.q
        self.terms = terms

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(c * (self.q - 1) + 1 for _, c in self.terms)

    @property
    def monomials(self) -> list[tuple[int, int]]:
        """The (sign, exponent) pair of each term."""
        return [(s, c * (self.q - 1) + 1) for s, c in self.terms]

    @property
    def degenerate(self) -> bool:
        cs = [c for _, c in self.terms]
        return len(set(cs)) < len(cs)

    def subject(self) -> str:
        parts = []
        for (sign, _), e in zip(self.terms, self.exponents):
            mono = "x" if e == 1 else f"x^{e}"
            if not parts:
                parts.append(mono if sign > 0 else f"-{mono}")
            else:
                parts.append(f"{'+' if sign > 0 else '-'} {mono}")
        body = " ".join(parts)
        tag = " [degenerate]" if self.degenerate else ""
        return f"{body} over GF(5^{2*self.k}){tag}"

    def __repr__(self):
        return f"<NihoTrinomial {self.subject()}>"

    def __eq__(self, other):
        return (isinstance(other, NihoTrinomial)
                and self.field.signature == other.field.signature
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field.signature, self.terms))

    def __lt__(self, other):    # by the (residue, sign) tuples
        return ([(c, s) for s, c in self.terms]
                < [(c, s) for s, c in other.terms])

    def notation(self) -> str:
        """The last two terms as a pair, "(+[2], -[4])"."""
        return "(" + ", ".join(f"{'+' if s > 0 else '-'}[{c}]"
                               for s, c in self.terms[1:]) + ")"


def build_trinomial(k: int,
                    terms: Sequence[tuple[int, int]]) -> NihoTrinomial:
    """Canonicalize three signed residues (first sign +) into a trinomial."""
    field = tower_field(k)
    if len(terms) != 3:
        raise UsageError("a trinomial needs exactly three signed residues")
    n = field.q + 1
    canon = []
    for pos, (sign, c) in enumerate(terms):
        if sign not in (1, -1):
            raise UsageError("signs must be +1 or -1")
        if pos == 0 and sign != 1:
            raise UsageError("the leading term's sign is fixed at +1")
        canon.append((sign, int(c) % n))
    return NihoTrinomial(field, tuple(canon))


def build_pair(k: int, t1: tuple[int, int],
               t2: tuple[int, int]) -> NihoTrinomial:
    """The pair (s1[c1], s2[c2]), its terms ordered by residue mod q+1 and
    + before - at an equal residue, as a trinomial led by x."""
    n = tower_field(k).q + 1
    (c1, s1), (c2, s2) = sorted((c % n, -s) for s, c in (t1, t2))
    return build_trinomial(k, ((1, 0), (-s1, c1), (-s2, c2)))


def eval_trinomial(f: NihoTrinomial, x: FieldElement) -> FieldElement:
    """Plain evaluation; 0 maps to 0 since every exponent is positive."""
    return sparse_at(f.monomials, x)


# ---------------------------------------------------------------------------
# exhaustive oracle over the whole field

def coset_logs(field: FieldParams, abs_terms: Sequence[tuple[int, int]]):
    """(e0, m, H) for sum sign * x^e over the nonzero elements: its log at
    g^L is e0*L + H[L mod m] mod n1, and it is zero where H < 0, read from
    the field's log tables (FieldParams.accel_tables).

    With d = gcd(n1, e - e0 over the terms), e0 the first exponent, the sum
    is x^e0 * H(x^d): H is taken by Zech steps once per coset of the
    subgroup of d-th powers, at g^(d*j) for j in [0, m = n1/d).  Niho
    exponents give m <= q + 1; unrelated exponents give d = 1, a sweep of
    every log.  H's terms with the same step E = e - e0 mod n1 fold into
    one coefficient c: the step-0 term is the scalar log of c, each other
    the logs E*j + log c.
    """
    kern = field.accel_tables
    n1 = kern.n1
    e0 = abs_terms[0][1] % n1 if abs_terms else 0
    m = n1 // math.gcd(n1, *(e - e0 for _, e in abs_terms))
    coeffs: dict[int, int] = {}
    for sign, e in abs_terms:
        step = (e - e0) % n1
        coeffs[step] = coeffs.get(step, 0) + sign
    terms = []
    for step, c in coeffs.items():
        if c % CHAR:
            lc = int(kern.logt[c % CHAR])
            terms.append((1, lc if step == 0 else np.arange(
                lc, lc + m * step, step, dtype=np.int64) % n1))
    h = kern.log_sum(terms)
    if h.shape != (m,):
        h = np.broadcast_to(h, m)
    return e0, m, h


def field_values(field: FieldParams, abs_terms: Sequence[tuple[int, int]]):
    """Logs of sum sign * x^e over every field element, -1 where the sum is
    zero, in index order [0, g^0, g^1, ...], from coset_logs: one row of
    the grid per coset of the d = n1/m d-th powers."""
    kern = field.accel_tables
    n1 = kern.n1
    e0, m, h = coset_logs(field, abs_terms)
    d = n1 // m
    at_zero = sum(sign for sign, e in abs_terms if e == 0)    # 0^0 = 1
    out = np.empty(field.order, dtype=np.int64)
    out[0] = kern.logt[at_zero % CHAR]
    grid = out[1:].reshape(d, m)            # g^L at row L // m, column L % m
    np.add((np.arange(d, dtype=np.int64) * (m * e0 % n1) % n1)[:, None],
           (np.arange(m, dtype=np.int64) * e0 + h) % n1, out=grid)
    wrap_mod(grid, n1)
    if h.min() < 0:
        grid[:, h < 0] = -1
    return out


@timed
def exhaustive_permutation_report(field: FieldParams, vals: np.ndarray,
                                  subject: str) -> VerificationReport:
    """Ground-truth oracle: seen-table over all of the field.

    vals holds the logs of a map's values in the order 0, g^0, g^1, ...,
    -1 for zero, as field_values gives them; it is shifted in place.  A
    failing verdict's witness value is zero if zero is hit twice, and
    otherwise the repeated value of smallest element index (zero has index
    0, so one rule covers both); x1 and x2 are its first two points in that
    order.
    """
    vals += 1                               # log L in bin L + 1, zero in 0
    counts = np.bincount(vals, minlength=field.order)
    if counts.max() <= 1:
        return VerificationReport(
            subject=subject, method="exhaustive", passed=True,
            counts={"elements": field.order})
    # the repeated value of smallest index: element index i is in bin
    # logt[i] + 1, so scan the bins in index order, in windows that double
    logt, start, size = field.accel_tables.logt, 0, 64
    while True:
        repeats = np.flatnonzero(counts[logt[start:start + size] + 1] > 1)
        if repeats.size:
            break
        start, size = start + size, 2 * size
    value = start + int(repeats[0])
    hit = vals == logt[value] + 1
    first = int(np.argmax(hit))
    second = first + 1 + int(np.argmax(hit[first + 1:]))
    # position p holds x = g^(p - 1), and position 0 holds zero
    return VerificationReport(
        subject=subject, method="exhaustive", passed=False,
        witness={"type": "collision", "x1": field.log_csv(first - 1),
                 "x2": field.log_csv(second - 1),
                 "value": field.index_csv(value)},
        counts={"elements": field.order})


def _check_oracle_reach(field: FieldParams) -> None:
    """Refuse a field beyond the log tables, which the oracle sweeps."""
    if field.m > TABLE_DEGREE:
        raise GuardExceededError(
            f"exhaustive oracle guarded at k <= {TABLE_DEGREE // 2} "
            f"(5^{field.m} elements); use the criterion method")


def is_permutation_exhaustive(f: NihoTrinomial) -> VerificationReport:
    _check_oracle_reach(f.field)
    return exhaustive_permutation_report(
        f.field, field_values(f.field, f.monomials), f.subject())


# ---------------------------------------------------------------------------
# subgroup criterion

def induced_mu_map(f: NihoTrinomial) -> PowerFormMap:
    """The map x * h(x)^(q-1) on the circle, h the coefficient polynomial."""
    return PowerFormMap(name=f"induced:{f.subject()}", h_terms=f.terms)


@timed
def is_permutation_via_criterion(f: NihoTrinomial) -> VerificationReport:
    """Subgroup criterion: f(x) = x * h(x^(q-1)) permutes GF(q^2) iff
    gcd(1, q-1) = 1 (condition 1, which always holds) and x * h(x)^(q-1)
    permutes the (q+1)-circle (condition 2, decided by enumeration).  A
    zero of h on the circle fails condition 2 with a witness (the image
    would leave the circle).
    """
    circle = unity_permutation_report(
        PowerFormMap(name="induced", h_terms=f.terms), unity_group(f.field))
    return VerificationReport(
        subject=f.subject(), method="criterion", passed=circle.passed,
        witness=circle.witness,
        counts={"subgroup_order": f.q + 1, **circle.counts},
        notes=[f"condition 1: gcd(l=1, {f.q - 1}) = 1",
               f"condition 2: {'pass' if circle.passed else 'fail'}"])


def verdicts(f: NihoTrinomial,
             method: str | None = None) -> dict[str, VerificationReport]:
    """f's permutation reports keyed by method, criterion first: by default
    the criterion, and the exhaustive oracle too where the field has log
    tables (2k <= TABLE_DEGREE).  "both", "criterion" or "exhaustive"
    select explicitly; the oracle stays guarded."""
    if method is None:
        method = "both" if f.field.m <= TABLE_DEGREE else "criterion"
    elif method not in ("both", "criterion", "exhaustive"):
        raise UsageError(f"unknown method {method!r}; valid: both, "
                         "criterion, exhaustive")
    out = {}
    if method != "exhaustive":
        out["criterion"] = is_permutation_via_criterion(f)
    if method != "criterion":
        out["exhaustive"] = is_permutation_exhaustive(f)
    return out


# ---------------------------------------------------------------------------
# named families

# family id -> (parity requirement, three signed residue formulas, conjectural)
FAMILY_CATALOG: dict[str, tuple[str, tuple[tuple[int, str], ...], bool]] = {
    "T1":  ("any",  ((1, "0"), (1, "(q+3)/4"), (-1, "(q+3)/2")), False),
    "C1":  ("any",  ((1, "1"), (1, "(3*q+5)/4"), (-1, "(q+1)/2")), False),
    "T2":  ("odd",  ((1, "0"), (1, "(q-1)/2"), (-1, "(q+3)/2")), False),
    "C2":  ("odd",  ((1, "1"), (1, "(q+5)/2"), (-1, "(q+1)/2")), False),
    "T3a": ("odd",  ((1, "0"), (-1, "(q+3)/2"), (1, "q")), False),
    "T3b": ("odd",  ((1, "1"), (-1, "(q+1)/2"), (1, "2")), False),
    "T4a": ("odd",  ((1, "0"), (-1, "(q+3)/2"), (1, "(q+5)/2")), False),
    "T4b": ("odd",  ((1, "1"), (-1, "(q+1)/2"), (1, "(q-1)/2")), False),
    "T5a": ("even", ((1, "0"), (-1, "2"), (1, "(q+3)/2")), False),
    "T5b": ("even", ((1, "1"), (-1, "q"), (1, "(q+1)/2")), False),
    "T6":  ("even", ((1, "0"), (1, "1"), (-1, "(q-1)/2")), False),
    "T7a": ("even", ((1, "0"), (-1, "1"), (1, "(q+5)/2")), False),
    "T7b": ("even", ((1, "0"), (1, "(q+3)/2"), (1, "(q+5)/2")), False),
    "T7c": ("even", ((1, "0"), (1, "(q+3)/2"), (-1, "q")), False),
    "P1":  ("odd",  ((1, "0"), (1, "2"), (-1, "q-1")), True),
    "P2":  ("even", ((1, "0"), (-1, "(q+2)/3+1"), (-1, "2*(q+2)/3")), True),
}

FAMILY_IDS = tuple(FAMILY_CATALOG)


def family_parity(family_id: str) -> str:
    if family_id not in FAMILY_CATALOG:
        raise UsageError(
            f"unknown family {family_id!r}; valid ids: {', '.join(FAMILY_IDS)}")
    return FAMILY_CATALOG[family_id][0]


def family_admits(family_id: str, k: int) -> bool:
    return parity_admits(family_parity(family_id), k)


def theorem_family(family_id: str, k: int) -> NihoTrinomial:
    """Instantiate a named family at a concrete k (parity checked)."""
    parity = family_parity(family_id)
    if not family_admits(family_id, k):
        raise UsageError(
            f"family {family_id} is defined only where k is {parity} "
            f"(got k={k})")
    q = tower_field(k).q
    _, exprs, _ = FAMILY_CATALOG[family_id]
    terms = [(sign, resolve_residue(e, q, k)) for sign, e in exprs]
    return build_trinomial(k, terms)


def family_is_conjectural(family_id: str) -> bool:
    family_parity(family_id)
    return FAMILY_CATALOG[family_id][2]


# ---------------------------------------------------------------------------
# randomized dual-method agreement

def random_trinomial(k: int, rng: random.Random) -> NihoTrinomial:
    """Uniform c1, c2 in [0, q], independent signs, fixed leading +x."""
    q = tower_field(k).q
    c1, c2 = rng.randrange(q + 1), rng.randrange(q + 1)
    s1 = 1 if rng.randrange(2) == 0 else -1
    s2 = 1 if rng.randrange(2) == 0 else -1
    return build_trinomial(k, [(1, 0), (s1, c1), (s2, c2)])


@timed
def oracle_agreement_report(k: int, samples: int,
                            seed: int) -> VerificationReport:
    """Criterion verdict vs exhaustive verdict on seeded random trinomials."""
    if samples < 1:
        raise UsageError(f"agreement run needs at least one sample "
                         f"(got {samples})")
    if samples > AGREEMENT_SAMPLE_LIMIT:
        raise GuardExceededError(
            f"agreement run takes at most {AGREEMENT_SAMPLE_LIMIT} samples "
            f"(got {samples})")
    _check_oracle_reach(tower_field(k))
    rng = random.Random(seed)
    agreements = 0
    for idx in range(samples):
        f = random_trinomial(k, rng)
        reports = verdicts(f, "both")
        via_criterion = reports["criterion"].passed
        via_oracle = reports["exhaustive"].passed
        if via_oracle != via_criterion:
            return VerificationReport(
                subject=f"oracle agreement at k={k}", method="dual",
                passed=False,
                witness={"type": "disagreement", "sample": idx,
                         "terms": list(f.terms),
                         "exhaustive": via_oracle, "criterion": via_criterion},
                counts={"samples": samples, "agreements": agreements},
                notes=[f"seed={seed}"])
        agreements += 1
    return VerificationReport(
        subject=f"oracle agreement at k={k}", method="dual", passed=True,
        counts={"samples": samples, "agreements": agreements},
        notes=[f"seed={seed}"])
