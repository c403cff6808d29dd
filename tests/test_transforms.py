"""Modular fractions, exponent transforms, pair equivalences, pair table."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from niho_perm import transforms, trinomials
from niho_perm.cli import main
from niho_perm.errors import NoInverseError, ResidueError, UsageError
from niho_perm.report import VerificationReport
from niho_perm.residues import frac_mod, resolve_residue
from niho_perm.transforms import (PAIR_TABLE, equivalent_pairs,
                                  exponent_transform, pair_from_text,
                                  pair_of_family, table_report)
from niho_perm.trinomials import (FAMILY_CATALOG, build_pair,
                                  build_trinomial, family_admits,
                                  family_parity, is_permutation_exhaustive,
                                  theorem_family)
from niho_perm.unity import MAP_SPECS, build_map


class TestFracMod:
    def test_even_denominator_even_modulus(self):
        with pytest.raises(NoInverseError) as exc:
            frac_mod(1, 2, 6)
        assert exc.value.gcd == 2

    def test_worked_value(self):
        assert frac_mod(3, 5, 26) == 11

    def test_unit_denominator(self):
        for c in (-7, 0, 3, 40):
            assert frac_mod(c, 1, 26) == c % 26

    @settings(deadline=None, max_examples=200)
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60),
           st.integers(2, 60))
    def test_common_factor_cancels(self, a, b, c, m):
        # frac_mod(a*c, b*c, m) = frac_mod(a, b, m) when both sides exist
        # and gcd(c, m) = 1
        if math.gcd(c, m) != 1 or math.gcd(b % m, m) != 1:
            return
        assert frac_mod(a * c, b * c, m) == frac_mod(a, b, m)

    def test_brute_force_small_moduli(self):
        # every denominator in [-2m, 2m] against a search for its inverse;
        # without one, the error reports gcd(den, m)
        for m in range(2, 41):
            for den in range(-2 * m, 2 * m + 1):
                inv = [y for y in range(m) if den * y % m == 1]
                g = max(d for d in range(1, m + 1)
                        if den % d == 0 and m % d == 0)
                for num in (-m - 3, -7, -1, 0, 1, 5, m + 2):
                    if inv:
                        assert frac_mod(num, den, m) == num * inv[0] % m
                        continue
                    with pytest.raises(NoInverseError) as exc:
                        frac_mod(num, den, m)
                    assert exc.value.gcd == g > 1
                    assert str(exc.value) == \
                        f"{den} is not invertible mod {m} (gcd {g})"

    def test_small_modulus_rejected(self):
        with pytest.raises(ResidueError):
            frac_mod(1, 1, 1)


class TestResolveResidue:
    def test_always_divisible(self):
        for k in range(1, 7):
            q = 5 ** k
            assert resolve_residue("(q+3)/4", q, k) == (q + 3) // 4
            assert resolve_residue("(q+3)/2", q, k) == ((q + 3) // 2) % (q + 1)

    def test_conditional_divisibility(self):
        # (q+2)/3 is integral exactly when k is even
        for k in (2, 4, 6):
            q = 5 ** k
            assert resolve_residue("(q+2)/3", q, k) == (q + 2) // 3
        for k in (1, 3, 5):
            with pytest.raises(ResidueError):
                resolve_residue("(q+2)/3", 5 ** k, k)

    def test_negative_wraps(self):
        assert resolve_residue("-1", 5, 1) == 5
        assert resolve_residue("-2*5**(k-1)", 25, 2) == 16

    def test_cached_residue_is_the_fresh_value(self):
        # a kept result equals a fresh Fraction evaluation (the uncached
        # function) on every read; an error is not kept and raises each time
        exprs = {e for spec in MAP_SPECS.values()
                 for key in ("h", "num", "den") for _, e in spec.get(key, ())}
        for k in range(1, 7):
            q = 5 ** k
            for expr in sorted(exprs):
                try:
                    fresh = resolve_residue.__wrapped__(expr, q, k)
                except ResidueError:
                    continue
                for _ in range(2):
                    assert resolve_residue(expr, q, k) == fresh, (expr, k)
        before = resolve_residue.cache_info()
        for expr, q, k in (("(q+2)/3", 5, 1), ("(q+2)/3", 125, 3),
                           ("1/(q-5**k)", 25, 2), ("q/(k-2)", 25, 2)):
            for _ in range(3):
                with pytest.raises(ResidueError):
                    resolve_residue(expr, q, k)
        assert resolve_residue.cache_info().currsize == before.currsize

    @staticmethod
    def _eval_reference(expr, q, k):
        """The former resolver: Python eval with q a Fraction, k an int."""
        try:
            value = Fraction(eval(expr, {"__builtins__": {}},
                                  {"q": Fraction(q), "k": k}))
        except ZeroDivisionError:
            return "error"
        return int(value) % (q + 1) if value.denominator == 1 else "error"

    def test_catalog_expressions_match_eval(self):
        exprs = {e for _, terms, _ in FAMILY_CATALOG.values()
                 for _, e in terms}
        for spec in MAP_SPECS.values():
            exprs.add(spec.get("pre", "0"))
            for key in ("h", "num", "den"):
                exprs.update(e for _, e in spec.get(key, ()))
        for row in PAIR_TABLE:
            exprs.update(e for _, e in row.pair)
            exprs.update(e for raw in row.equivalents for _, e in raw)
        for k in range(1, 9):
            q = 5 ** k
            for expr in sorted(exprs):
                try:
                    got = resolve_residue(expr, q, k)
                except ResidueError:
                    got = "error"
                assert got == self._eval_reference(expr, q, k), (expr, k)

    @pytest.mark.parametrize("expr", [
        "abs(q)", "q.numerator", "x", "__import__('os')", "[q][0]",
        "q if k else 1", "q // 2", "q % 3", "1.5", "'q'", "+q", "(q+1",
        "lambda: 1"])
    def test_other_syntax_rejected(self, expr):
        with pytest.raises(ResidueError):
            resolve_residue(expr, 25, 2)

    def test_k_needs_a_value(self):
        assert resolve_residue("q*k", 25, 2) == 50 % 26
        with pytest.raises(ResidueError):
            resolve_residue("q*k", 25)


class TestExponentTransform:
    def test_case_2b_on_first_table_pair(self):
        # i = (q+3)/4, j = (q+3)/2 at q=5: 2j-1 = 1 mod 6
        signs, s, t = exponent_transform("2b", 2, 4, 1)
        assert signs == (-1, -1)
        assert (s, t) == (4, 2)

    def test_case_2a_blocked_by_gcd(self):
        with pytest.raises(NoInverseError) as exc:
            exponent_transform("2a", 2, 4, 1)
        assert exc.value.gcd == 3

    def test_monomial_degeneration(self):
        signs, s, t = exponent_transform("1", 4, 4, 2)
        assert t == 0

    def test_unknown_case(self):
        with pytest.raises(UsageError):
            exponent_transform("4", 1, 2, 1)

    @pytest.mark.parametrize("k,i,j", [(1, 2, 4), (2, 14, 2), (3, 62, 64)])
    def test_round_trip_recovers_pair(self, k, i, j):
        # the 2b clause followed by the case-3 clause on its output returns
        # the original signed pair (the substitution is self-inverse on the
        # exponent description)
        (s1, s2), s, t = exponent_transform("2b", i, j, k)
        assert (s1, s2) == (-1, -1)
        (r1, r2), u, v = exponent_transform("3", s, t, k)
        assert (r1, r2) == (-1, 1)
        assert build_pair(k, (r1, u), (r2, v)) == build_pair(
            k, (1, i), (-1, j))


def _every_pair(k):
    n = 5 ** k + 1
    return [build_pair(k, (s1, c1), (s2, c2))
            for c1 in range(n) for c2 in range(c1, n)
            for s1 in (1, -1) for s2 in (1, -1)
            if c1 < c2 or s1 >= s2]


class TestPairs:
    def test_canonical_order(self):
        p = build_pair(1, (-1, 4), (1, 2))
        assert p.notation() == "(+[2], -[4])"
        assert p == build_pair(1, (1, 2), (-1, 4))
        assert p.terms == ((1, 0), (1, 2), (-1, 4))
        # + before - at an equal residue, residues read mod q+1
        assert build_pair(1, (-1, 8), (1, 2)).terms == (
            (1, 0), (1, 2), (-1, 2))

    def test_parse(self):
        assert pair_from_text("+2,-4", 1).notation() == "(+[2], -[4])"
        assert pair_from_text("(-[2], -[4])", 1).notation() == "(-[2], -[4])"
        with pytest.raises(UsageError):
            pair_from_text("+2", 1)

    def test_degenerate(self):
        assert build_pair(1, (1, 2), (-1, 2)).degenerate
        assert build_pair(1, (1, 0), (-1, 2)).degenerate
        assert not build_pair(1, (1, 2), (-1, 4)).degenerate

    @pytest.mark.parametrize("k", [1, 2])
    def test_degenerate_is_the_pair_rule(self, k):
        # a repeated residue among (0, c1, c2): c1 = c2, c1 = 0 or c2 = 0
        for p in _every_pair(k):
            (_, c1), (_, c2) = p.terms[1:]
            assert p.degenerate == (c1 == c2 or c1 == 0 or c2 == 0), p

    @pytest.mark.parametrize("k", [1, 2])
    def test_sorted_by_residue_sign_tuples(self, k):
        # at an equal residue - sorts before + across pairs, though +
        # comes first within one pair
        pairs = _every_pair(k)
        key = lambda p: tuple((c, s) for s, c in p.terms[1:])
        assert sorted(pairs) == sorted(pairs, key=key)
        assert sorted(pairs[::-1]) == sorted(pairs)

    def test_family_pairs(self):
        assert pair_of_family("T1", 1).notation() == "(+[2], -[4])"
        # the x^q-led twin normalizes to the same pair
        assert pair_of_family("C1", 1) == pair_of_family("T1", 1)
        assert pair_of_family("T3b", 1) == pair_of_family("T3a", 1)
        assert pair_of_family("T5b", 2) == pair_of_family("T5a", 2)


class TestEquivalentPairs:
    def test_t1_equivalents_at_k1(self):
        base = pair_of_family("T1", 1)
        out = equivalent_pairs(base)[1]
        assert build_pair(1, (-1, 2), (-1, 4)) in out

    def test_equivalent_trinomial_is_permutation(self):
        p = build_pair(1, (-1, 2), (-1, 4))
        rep = is_permutation_exhaustive(p)
        assert rep.passed    # x - x^9 - x^17 over GF(25)

    def test_skip_log(self):
        skipped = equivalent_pairs(pair_of_family("T1", 1))[2]
        assert any("gcd" in s for s in skipped)

    def test_leading_term_must_be_x(self):
        with pytest.raises(UsageError, match="not a pair"):
            equivalent_pairs(build_trinomial(1, [(1, 1), (1, 2), (-1, 3)]))

    def test_coincident_residues(self):
        # equal residues with opposite signs: transforms at most degenerate
        p = build_pair(1, (1, 2), (-1, 2))
        out = equivalent_pairs(p)[1]
        assert all(q.degenerate for q in out)
        p2 = build_pair(2, (1, 2), (-1, 2))
        out2 = equivalent_pairs(p2)[1]
        assert all(q.degenerate for q in out2)

    def test_original_excluded(self):
        base = pair_of_family("T1", 1)
        assert base not in equivalent_pairs(base)[1]


class TestPairTable:
    def test_row_expressions_resolve_under_condition(self):
        for row in PAIR_TABLE:
            ks = {"any": (1, 2), "odd": (1, 3), "even": (2, 4)}[row.condition]
            for k in ks:
                q = 5 ** k
                for _, expr in row.pair:
                    resolve_residue(expr, q, k)
                for raw in row.equivalents:
                    for _, expr in raw:
                        resolve_residue(expr, q, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_table_reproduction(self, k):
        overall, rows = table_report(k)
        assert overall.passed
        active = [r for r in rows if r["criterion_pass"] != "skipped"]
        skipped = [r for r in rows if r["criterion_pass"] == "skipped"]
        expected_active = 7 if k == 2 else 5
        assert len(active) == expected_active
        assert len(active) + len(skipped) == 11
        for r in active:
            assert r["criterion_pass"] is True
            assert r["oracle_pass"] is True
            assert r["equivalents_pass"] is True
            # transcription fully recovered by recomputation
            assert r["transcription_diff"]["transcribed_only"] == []
        for r in skipped:
            assert "excludes" in r["skip_reason"]

    def test_recomputation_can_exceed_transcription(self):
        # the second ordering of the last row's transform yields one more
        # valid pair than the printed column
        _, rows = table_report(2)
        row11 = next(r for r in rows if r["row"] == 11)
        assert row11["transcription_diff"]["recomputed_only"] == ["(-[2], +[24])"]

    @pytest.mark.parametrize("k", [2, 3])
    def test_criterion_once_per_trinomial(self, k, monkeypatch):
        calls = []
        criterion = trinomials.is_permutation_via_criterion
        monkeypatch.setattr(trinomials, "is_permutation_via_criterion",
                            lambda t: calls.append(t) or criterion(t))
        table_report(k)
        assert len(calls) == len(set(calls)) == {2: 20, 3: 10}[k]

    def test_contract_violation_fails_with_witness(self, monkeypatch, capsys):
        # the source passes and a derived pair fails: the verdict gates of
        # table1 and equivalents fail (exit 1), naming the failing pair
        source = pair_of_family("T1", 3)

        def fake(passed):
            return lambda t: VerificationReport(
                subject=t.subject(), method="fake", passed=passed(t),
                witness=None if passed(t) else {"type": "fake"})

        monkeypatch.setattr(trinomials, "is_permutation_via_criterion",
                            fake(lambda t: t == source))
        monkeypatch.setattr(trinomials, "is_permutation_exhaustive",
                            fake(lambda t: True))
        overall, rows = table_report(3)
        row = next(r for r in rows if r["pair"] == source.notation())
        assert row["criterion_pass"] is True
        assert row["equivalents_checked"] > 0
        assert row["equivalents_pass"] is False
        assert not overall.passed
        assert main(["table1", "--k", "3", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False
        assert main(["equivalents", "--family", "T1", "--k", "3"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["criterion_pass"] is True
        assert out["equivalents"][0]["criterion_pass"] is False
        assert out["witness"]["type"] == "fake"
        assert out["witness"]["pair"] == out["equivalents"][0]["pair"]

    def test_catalog_transcriptions_agree(self):
        # g2..g10 restate the h residues of nine families, and each table
        # row its source family's last two terms and parity
        maps = {"g2": "C1", "g3": "T2", "g4": "C2", "g5": "T3a", "g6": "T3b",
                "g7": "T5a", "g8": "T5b", "g9": "T6", "g10": "P2"}
        checked = 0
        for g, fam in maps.items():
            assert MAP_SPECS[g]["parity"] == family_parity(fam), g
            for k in range(1, 7):
                if family_admits(fam, k):
                    assert build_map(g, k).h_terms == \
                        theorem_family(fam, k).terms, (g, k)
                    checked += 1
        for row in PAIR_TABLE:
            assert row.condition == family_parity(row.source), row.index
            assert FAMILY_CATALOG[row.source][1][0][1] == "0", row.index
            for k in range(1, 7):
                if family_admits(row.source, k):
                    assert transforms._resolve_pair(row.pair, 5 ** k, k) == \
                        pair_of_family(row.source, k), (row.index, k)
                    checked += 1
        assert checked == 30 + 36

    def test_conjectural_rows_labeled(self):
        _, rows = table_report(2)
        row11 = next(r for r in rows if r["row"] == 11)
        assert "conjectural" in row11["source"]
