"""Exponent-transform calculus on circle power forms, equivalence pairs,
and the embedded pair table with its transcription diff.

A pair (s1[c1], s2[c2]) denotes x + s1*x^(c1(q-1)+1) + s2*x^(c2(q-1)+1):
it is a NihoTrinomial whose leading term is x, built by build_pair.
When x*(1 + s1*x^i + s2*x^j)^(q-1) permutes the circle, substituting
x -> x^(1/(2i-1)) (when that inverse exists mod q+1) yields another
permuting power form; the four case clauses below track how the signs move.
The table rows are data: residue formulas in q, a parity condition, the
transcribed equivalent pairs, and the source family.  Equivalents are always
recomputed from the transform and diffed against the transcription, which
is visibly corrupted in places.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoInverseError, UsageError
from .field import tower_field
from .report import VerificationReport, combine_reports
from .residues import (frac_mod, parity_admits, parse_signed_residues,
                       resolve_residue)
from .trinomials import (NihoTrinomial, build_pair, family_is_conjectural,
                         theorem_family, verdicts)


def pair_from_text(text: str, k: int) -> NihoTrinomial:
    """Parse "+2,-4" (or "(+[2], -[4])") into a canonical pair."""
    cleaned = text.strip().strip("()").replace("[", "").replace("]", "")
    return build_pair(k, *parse_signed_residues(cleaned, 2, "pair"))


def pair_of_family(family_id: str, k: int) -> NihoTrinomial:
    """Normalize a named family to leading-term x and return its pair.

    Families whose leading term is x^q are composed with the output
    Frobenius first, which sends every residue c to 1 - c and the leading
    term to x; the permutation property is unchanged.
    """
    (_, c0), t1, t2 = theorem_family(family_id, k).terms
    if c0 == 0:
        return build_pair(k, t1, t2)
    if c0 == 1:
        return build_pair(k, (t1[0], 1 - t1[1]), (t2[0], 1 - t2[1]))
    raise UsageError(f"family {family_id} has leading residue {c0}, "
                     "expected 0 or 1")


# ---------------------------------------------------------------------------
# the four transform clauses

_CASES = {
    "1": ((1, 1), (1, 1)),     # base (+,+) -> (+,+)
    "2a": ((1, -1), (1, -1)),  # base (+,-) -> (+,-)
    "2b": ((1, -1), (-1, -1)),  # base (+,-) -> (-,-)
    "3": ((-1, -1), (-1, 1)),  # base (-,-) -> (-,+)
}


def exponent_transform(case: str, i: int, j: int,
                       k: int) -> tuple[tuple[int, int], int, int]:
    """One clause of the substitution calculus: returns (signs, s, t).

    For cases 1, 2a and 3 the substitution divides by 2i-1 mod q+1 and maps
    (i, j) to (i/(2i-1), (i-j)/(2i-1)); case 2b divides by 2j-1 and swaps
    the roles.  A non-invertible denominator raises NoInverseError carrying
    the gcd.
    """
    if case not in _CASES:
        raise UsageError(f"unknown transform case {case!r}; valid: 1, 2a, 2b, 3")
    n = tower_field(k).q + 1
    i %= n
    j %= n
    if case == "2b":
        s = frac_mod(j, 2 * j - 1, n)
        t = frac_mod(j - i, 2 * j - 1, n)
    else:
        s = frac_mod(i, 2 * i - 1, n)
        t = frac_mod(i - j, 2 * i - 1, n)
    return _CASES[case][1], s, t


def _applications(pair: NihoTrinomial) -> list[tuple[str, int, int]]:
    """Which (case, i, j) apply to this pair's sign pattern."""
    _, (sa, ca), (sb, cb) = pair.terms
    if sa > 0 and sb > 0:
        return [("1", ca, cb), ("1", cb, ca)]
    if sa < 0 and sb < 0:
        return [("3", ca, cb), ("3", cb, ca)]
    plus_c = ca if sa > 0 else cb
    minus_c = cb if sa > 0 else ca
    return [("2a", plus_c, minus_c), ("2b", plus_c, minus_c)]


def equivalent_pairs(pair: NihoTrinomial):
    """The source's `verdicts`, every pair reachable from the source by a
    single applicable transform with its `verdicts`, and the skip log.
    The source is a pair: a trinomial whose leading term is x.

    Inapplicable clauses (gcd obstruction) are skipped, each logged as one
    line of the skip log.  The pairs are deduplicated, in canonical order,
    and exclude the input pair.  Permutation preservation is verified, not
    assumed: every derived pair carries its own verdicts, and the callers
    fail on any failing one.  Each trinomial is verified once.
    """
    if pair.terms[0] != (1, 0):
        raise UsageError(f"not a pair (leading term x): {pair.subject()}")
    k = pair.k
    found: set[NihoTrinomial] = set()
    skipped: list[str] = []
    for case, i, j in _applications(pair):
        try:
            (sig_s, sig_t), s, t = exponent_transform(case, i, j, k)
        except NoInverseError as exc:
            skipped.append(f"case {case} at (i={i}, j={j}): gcd {exc.gcd}")
            continue
        found.add(build_pair(k, (sig_s, s), (sig_t, t)))
    found.discard(pair)
    base = verdicts(pair)
    derived = {p: verdicts(p) for p in sorted(found)}
    return base, derived, skipped


# ---------------------------------------------------------------------------
# the embedded pair table

@dataclass(frozen=True)
class PairTableRow:
    index: int
    pair: tuple[tuple[int, str], ...]          # (sign, residue formula)
    condition: str                             # any | odd | even
    equivalents: tuple[tuple[tuple[int, str], ...], ...]
    source: str                                # family id


PAIR_TABLE: tuple[PairTableRow, ...] = (
    PairTableRow(1, ((1, "(q+3)/4"), (-1, "(q+3)/2")), "any",
                 (((-1, "(q+3)/4"), (-1, "(q+3)/2")),), "T1"),
    PairTableRow(2, ((1, "(q-1)/2"), (-1, "(q+3)/2")), "odd",
                 (((-1, "2"), (-1, "(q+3)/2")),), "T2"),
    PairTableRow(3, ((1, "-1"), (-1, "(q+3)/2")), "odd",
                 (((-1, "(q+3)/2"), (-1, "(q+5)/2")),), "T3a"),
    PairTableRow(4, ((-1, "(q+3)/2"), (1, "(q+5)/2")), "odd",
                 (((-1, "-1"), (-1, "(q+3)/2")),), "T4a"),
    PairTableRow(5, ((-1, "2"), (1, "(q+3)/2")), "even",
                 (((1, "(q+3)/2"), (-1, "(q-1)/2")),
                  ((-1, "2*(q+2)/3"), (-1, "(q+2)/3*(q+3)/2"))), "T5a"),
    PairTableRow(6, ((1, "1"), (-1, "(q-1)/2")), "even",
                 (((1, "1"), (-1, "(q+5)/2")),
                  ((-1, "(q+2)/3*(q+5)/2"), (-1, "(q+2)/3*(q+3)/2"))), "T6"),
    PairTableRow(7, ((-1, "1"), (1, "(q+5)/2")), "even",
                 (((-1, "1"), (-1, "(q-1)/2")),
                  ((1, "(q+2)/3*(q+5)/2"), (-1, "(q+2)/3*(q+3)/2"))), "T7a"),
    PairTableRow(8, ((1, "(q+3)/2"), (1, "(q+5)/2")), "even",
                 (((1, "(q+3)/2"), (1, "-1")),
                  ((1, "(q+2)/3*(q+5)/2"), (1, "(q+2)/3"))), "T7b"),
    PairTableRow(9, ((1, "(q+3)/2"), (-1, "-1")), "even",
                 (((1, "(q+3)/2"), (-1, "(q+5)/2")),
                  ((-1, "(q+2)/3*(q+5)/2"), (-1, "(q+2)/3"))), "T7c"),
    PairTableRow(10, ((1, "2"), (-1, "-2")), "odd",
                 (((-1, "-2*5**(k-1)"), (-1, "-4*5**(k-1)")),), "P1"),
    PairTableRow(11, ((-1, "(q+5)/3"), (-1, "2*(q+2)/3")), "even",
                 (((1, "-2*5**(k-1)"), (-1, "-4*5**(k-1)")),), "P2"),
)


def _resolve_pair(raw: tuple[tuple[int, str], ...], q: int,
                  k: int) -> NihoTrinomial:
    return build_pair(k, *((s, resolve_residue(e, q, k)) for s, e in raw))


def table_report(k: int) -> tuple[VerificationReport, list[dict]]:
    """Reproduce every admissible table row at this k.

    Per row: resolve the pair, recompute the equivalent pairs, take the
    `verdicts` of each, and diff the recomputed set against the
    transcription.  Rows whose parity condition excludes k appear with a
    skip reason.
    """
    q = tower_field(k).q
    rows: list[dict] = []
    reports: list[VerificationReport] = []
    for row in PAIR_TABLE:
        source = row.source + (" (conjectural)"
                               if family_is_conjectural(row.source) else "")
        if not parity_admits(row.condition, k):
            rows.append({
                "row": row.index, "pair": "-",
                "condition": row.condition, "criterion_pass": "skipped",
                "oracle_pass": "skipped", "equivalents_checked": 0,
                "equivalents_pass": "skipped", "source": source,
                "skip_reason": f"condition 'k {row.condition}' excludes k={k}",
            })
            continue
        pair = _resolve_pair(row.pair, q, k)
        base, derived, skipped_cases = equivalent_pairs(pair)
        recomputed = list(derived)
        derived_reports = [r for v in derived.values() for r in v.values()]
        reports += [*base.values(), *derived_reports]
        transcribed = sorted(
            _resolve_pair(raw, q, k) for raw in row.equivalents)
        rec_set, tr_set = set(recomputed), set(transcribed)
        diff = {
            "recomputed_only": [p.notation() for p in recomputed
                                if p not in tr_set],
            "transcribed_only": [p.notation() for p in transcribed
                                 if p not in rec_set],
        }
        rows.append({
            "row": row.index, "pair": pair.notation(),
            "condition": row.condition,
            "criterion_pass": base["criterion"].passed,
            "oracle_pass": (base["exhaustive"].passed if "exhaustive" in base
                            else "skipped"),
            "equivalents_checked": len(recomputed),
            "equivalents_pass": all(r.passed for r in derived_reports),
            "source": source,
            "recomputed_equivalents": [p.notation() for p in recomputed],
            "transcribed_equivalents": [p.notation() for p in transcribed],
            "transcription_diff": diff,
            "skipped_transforms": skipped_cases,
        })
    overall = combine_reports(f"pair table at k={k}", "criterion+oracle",
                              reports)
    return overall, rows
