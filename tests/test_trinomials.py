"""Trinomial construction, evaluation, and the two permutation routes."""

import itertools
import math
import random

import pytest

from niho_perm.errors import GuardExceededError, UsageError
from niho_perm.field import frobenius, tower_field
from niho_perm.trinomials import (AGREEMENT_SAMPLE_LIMIT, FAMILY_CATALOG,
                                  FAMILY_IDS, build_trinomial,
                                  eval_trinomial, exhaustive_permutation_report,
                                  family_admits, family_is_conjectural,
                                  field_values, induced_mu_map,
                                  is_permutation_exhaustive,
                                  is_permutation_via_criterion,
                                  oracle_agreement_report, random_trinomial,
                                  theorem_family, verdicts)
from niho_perm.unity import (eval_power_on_unity, is_permutation_of,
                             unity_group)
from niho_perm import trinomials as trinomials_mod
from niho_perm import unity as unity_mod
from representation_twin import digit_row_field_values


class TestConstruction:
    def test_exponents(self):
        f = build_trinomial(1, [(1, 0), (1, 2), (-1, 4)])
        assert f.exponents == (1, 9, 17)

    def test_residue_canonicalization(self):
        # c = q+1+2 reduces to 2
        f = build_trinomial(1, [(1, 0), (1, 8), (-1, 4)])
        assert f.terms == ((1, 0), (1, 2), (-1, 4))

    def test_c_one_is_frobenius_monomial(self):
        f = build_trinomial(1, [(1, 1), (1, 2), (-1, 4)])
        assert f.exponents[0] == 5

    def test_leading_sign_fixed(self):
        with pytest.raises(UsageError, match="leading"):
            build_trinomial(1, [(-1, 0), (1, 2), (-1, 4)])

    def test_three_terms_required(self):
        with pytest.raises(UsageError):
            build_trinomial(1, [(1, 0), (1, 2)])

    def test_degenerate_flagged_in_subject(self):
        f = build_trinomial(1, [(1, 0), (1, 2), (-1, 2)])
        assert f.degenerate
        assert "degenerate" in f.subject()
        g = build_trinomial(1, [(1, 0), (1, 2), (-1, 4)])
        assert not g.degenerate

    def test_niho_exponent_congruence(self):
        for k in (1, 2, 3):
            q = 5 ** k
            rng = random.Random(k)
            for _ in range(20):
                f = random_trinomial(k, rng)
                assert all(e % (q - 1) == 1 for e in f.exponents)


class TestEvaluation:
    def test_zero_maps_to_zero(self):
        for fam in ("T1", "C1"):
            f = theorem_family(fam, 1)
            assert eval_trinomial(f, f.field.zero).is_zero

    def test_value_at_w(self):
        f = build_trinomial(1, [(1, 0), (1, 2), (-1, 4)])
        w = f.field.generator
        assert eval_trinomial(f, w).digits == (2, 3)    # 3w + 2

    def test_value_at_one(self):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            f = build_trinomial(1, [(1, 0), (signs[0], 2), (signs[1], 4)])
            expected = f.field.scalar(1 + signs[0] + signs[1])
            assert eval_trinomial(f, f.field.one) == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_commutes_with_frobenius(self, k):
        # coefficients are in the prime field, so f(x)^q = f(x^q)
        f = theorem_family("T1", k)
        for x in f.field.elements():
            assert eval_trinomial(f, x) ** f.q == eval_trinomial(f, frobenius(x))


class TestExhaustiveOracle:
    def test_t1_passes(self):
        rep = is_permutation_exhaustive(theorem_family("T1", 1))
        assert rep.passed
        assert rep.counts["elements"] == 25

    def test_monomial_path(self):
        # x^7 permutes GF(25) because gcd(7, 24) = 1
        field = tower_field(1)
        rep = exhaustive_permutation_report(
            field, field_values(field, [(1, 7)]), "x^7")
        assert rep.passed
        rep = exhaustive_permutation_report(
            field, field_values(field, [(1, 6)]), "x^6")
        assert not rep.passed

    def test_off_theorem_sign_pattern_reported_honestly(self):
        f = build_trinomial(1, [(1, 0), (1, 2), (1, 4)])
        rep = is_permutation_exhaustive(f)
        assert not rep.passed
        wit = rep.witness
        assert wit["type"] == "collision"
        x1 = f.field.from_csv(wit["x1"])
        x2 = f.field.from_csv(wit["x2"])
        assert eval_trinomial(f, x1) == eval_trinomial(f, x2)
        assert eval_trinomial(f, x1).csv() == wit["value"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_field_values_match_digit_row_twin(self, k):
        field = tower_field(k)
        rng = random.Random(k)
        q, n1 = field.q, field.order - 1
        cases = []
        # random signed terms, repeated and zero exponents included, so
        # that sums cancel (x^e - x^e) and x^0 = 1 takes part
        for _ in range(4):
            exps = [rng.randrange(2 * n1) for _ in range(3)]
            terms = [(rng.choice((1, -1, 2, 3)), e) for e in exps]
            cases.append(terms + [(1, 0), (1, exps[0]), (-1, exps[0])])
        # one coset: a single term, and terms whose exponents agree mod n1
        e = rng.randrange(1, n1)
        cases += [[(1, e)], [(1, e), (2, e + n1), (-1, e)], [(3, 0), (1, n1)]]
        # the leading exponent e0 = 0
        cases.append([(1, 0), (1, q - 1), (-1, 2 * (q - 1))])
        # Niho trinomials with c0 != 0, and with repeated residues
        for _ in range(6):
            c = [rng.randrange(1, q + 1)] + [rng.randrange(q + 1)] * 2
            if rng.randrange(2):
                c[2] = rng.randrange(q + 1)
            signs = (1, rng.choice((1, -1)), rng.choice((1, -1)))
            cases.append([(s, ci * (q - 1) + 1) for s, ci in zip(signs, c)])
        # h(1) = 1 + 2 + 2 = 0: the sum vanishes on the whole coset GF(q)*
        vanishing = [(1, 1), (2, 2 * (q - 1) + 1), (2, q * (q - 1) + 1)]
        cases.append(vanishing)
        for terms in cases:
            indices = digit_row_field_values(field, terms)
            assert (field_values(field, terms)
                    == field.kernel.logt[indices]).all(), terms
        assert (field_values(field, vanishing) < 0).sum() >= q

    @pytest.mark.parametrize("k", [3, 4])
    def test_collision_witness_replays_by_scalar_evaluation(self, k):
        # seeded random trinomials with c0 != 0; every failing verdict's
        # witness must be two distinct points with the reported common value
        rng = random.Random(k)
        q = 5 ** k
        failed = 0
        while failed < 4:
            c = [rng.randrange(1, q + 1), rng.randrange(q + 1),
                 rng.randrange(q + 1)]
            f = build_trinomial(k, [(1, c[0]), (rng.choice((1, -1)), c[1]),
                                    (rng.choice((1, -1)), c[2])])
            rep = is_permutation_exhaustive(f)
            if rep.passed:
                continue
            failed += 1
            wit = rep.witness
            x1 = f.field.from_csv(wit["x1"])
            x2 = f.field.from_csv(wit["x2"])
            assert wit["type"] == "collision" and x1 != x2
            assert eval_trinomial(f, x1).csv() == wit["value"]
            assert eval_trinomial(f, x2).csv() == wit["value"]

    @staticmethod
    def seen_table_witness(f):
        """The oracle's verdict by a scalar seen-table: eval_trinomial at
        0, g^0, g^1, ... in log order.  The witness value is the repeated
        value of smallest element index, x1 and x2 its first two points."""
        field = f.field
        points, x = [field.zero], field.one
        for _ in range(field.order - 1):
            points.append(x)
            x = x * field.generator
        seen = {}
        for x in points:
            seen.setdefault(eval_trinomial(f, x).index, []).append(x)
        repeated = [v for v, xs in seen.items() if len(xs) > 1]
        if not repeated:
            return None
        v = min(repeated)
        x1, x2 = seen[v][:2]
        return {"type": "collision", "x1": x1.csv(), "x2": x2.csv(),
                "value": field.from_index(v).csv()}

    def check_witness_choice(self, f):
        rep = is_permutation_exhaustive(f)
        want = self.seen_table_witness(f)
        assert rep.passed == (want is None), f
        assert rep.witness == want, f

    def test_witness_choice_every_trinomial_at_k1(self):
        for c0, c1, c2 in itertools.product(range(6), repeat=3):
            for s1, s2 in itertools.product((1, -1), repeat=2):
                self.check_witness_choice(
                    build_trinomial(1, [(1, c0), (s1, c1), (s2, c2)]))

    def test_witness_choice_seeded_at_k2(self):
        rng = random.Random(2021)
        for _ in range(20):
            self.check_witness_choice(build_trinomial(2, [
                (1, rng.randrange(26)), (rng.choice((1, -1)), rng.randrange(26)),
                (rng.choice((1, -1)), rng.randrange(26))]))

    def test_witness_choice_zero_hit_twice(self):
        # h = 1 + x^2 + x^4 vanishes on the circle, so f vanishes on a
        # whole coset as well as at 0: the value 0 is the witness
        f = build_trinomial(1, [(1, 0), (1, 2), (1, 4)])
        self.check_witness_choice(f)
        wit = is_permutation_exhaustive(f).witness
        assert wit["value"] == "0,0" and wit["x1"] == "0,0"

    @pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
    def test_witness_choice_degenerate(self, signs):
        # c0 = c1 = c2 = 7 at k = 2: f = c * x^169 and 13 | gcd(169, 624)
        f = build_trinomial(2, [(1, 7), (signs[0], 7), (signs[1], 7)])
        assert f.degenerate
        self.check_witness_choice(f)
        assert not is_permutation_exhaustive(f).passed

    def test_guard(self):
        f = theorem_family("T1", 5)
        with pytest.raises(GuardExceededError, match="criterion"):
            is_permutation_exhaustive(f)


class TestCriterion:
    def test_induced_map_values(self):
        f = theorem_family("T1", 1)
        m = induced_mu_map(f)
        field = f.field
        one = field.one
        assert m.eval_at(one) == one
        assert m.eval_at(-one) == -one
        # h(1) = 1 + 1 - 1 = 1
        assert m.h_at(one) == one

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_t1_criterion(self, k):
        rep = is_permutation_via_criterion(theorem_family("T1", k))
        assert rep.passed
        assert "gcd" in rep.notes[0]

    def test_zero_witness_fails(self):
        f = build_trinomial(1, [(1, 0), (1, 2), (1, 4)])
        rep = is_permutation_via_criterion(f)
        assert not rep.passed
        assert rep.witness["type"] == "zero"
        # replay: h vanishes at the witness, so f collapses the line through it
        x = f.field.from_csv(rep.witness["x"])
        h = induced_mu_map(f).h_at(x)
        assert h.is_zero

    def test_report_shape(self):
        rep = is_permutation_via_criterion(theorem_family("T1", 1))
        assert rep.as_dict(with_elapsed=False) == {
            "subject": "x + x^9 - x^17 over GF(5^2)", "method": "criterion",
            "pass": True, "counts": {"subgroup_order": 6, "points": 6},
            "notes": ["condition 1: gcd(l=1, 4) = 1", "condition 2: pass"]}

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_scalar_circle_enumeration(self, k):
        # the batched circle verdict against element-by-element evaluation
        # of x*h(x)^(q-1) over the circle's members
        rng = random.Random(k)
        group = unity_group(tower_field(k))
        circle = [group.element(i) for i in range(group.n)]
        for _ in range(40):
            f = random_trinomial(k, rng)
            scalar = is_permutation_of(circle, induced_mu_map(f))
            assert is_permutation_via_criterion(f).passed == scalar.passed

    @staticmethod
    def unscreened_verdict(subject, group, map_):
        """The circle verdict with no prefix screen: every point, then
        _verdict."""
        mu = group.domain_indices("mu")
        return unity_mod._verdict(subject, group, map_, mu,
                                  *eval_power_on_unity(map_, group, mu))

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_screen_gives_the_full_circle_report(self, k, monkeypatch):
        rng = random.Random(300 + k)
        n = 5 ** k + 1
        m = math.isqrt(16 * n)          # the screen's prefix
        cases = [build_trinomial(k, [(1, rng.randrange(n))] + [
            (rng.choice((1, -1)), rng.randrange(n)) for _ in range(2)])
            for _ in range(60)]
        cases += [theorem_family(fid, k) for fid in FAMILY_IDS
                  if family_admits(fid, k)]
        # h = 3x^c sends zeta^i to zeta^((1-2c)i), whose first repeat lies
        # past the prefix: at i = n/3 for c = 2 at k = 5, n/13 for c = 7
        # at k = 6
        late = {5: 2, 6: 7}.get(k)
        if late:
            cases.append(build_trinomial(k, [(1, late)] * 3))
        # at k = 5 the prefix of this one holds a repeat, but h vanishes at
        # index 521, past the prefix, and the zero wins
        pinned = build_trinomial(5, [(1, 0), (-1, 533), (-1, 2413)])
        if k == 5:
            cases.append(pinned)
        screened = [is_permutation_via_criterion(f).as_dict(with_elapsed=False)
                    for f in cases]
        monkeypatch.setattr(unity_mod, "_circle_verdict",
                            self.unscreened_verdict)
        full = [is_permutation_via_criterion(f).as_dict(with_elapsed=False)
                for f in cases]
        assert screened == full
        # h = x^c0 * (1 + s1*y1 + s2*y2) with y1, y2 on the circle can only
        # vanish where y1^2 + s1*y1 + 1 = 0: y1 of order 3 or 6, on the
        # circle only where 3 divides q+1, i.e. k is odd
        kinds = {(r.get("witness") or {}).get("type") for r in screened}
        assert kinds == {None, "collision"} | ({"zero"} if k % 2 else set())
        if late:
            pos = cases.index(build_trinomial(k, [(1, late)] * 3))
            assert screened[pos]["witness"]["index2"] == n // {5: 3, 6: 13}[k]
        if k == 5:
            assert screened[-1]["witness"] == {
                "type": "zero", "x": "0,0,2,3,4,4,3,1,3,4", "index": 521}
            values, zero = eval_power_on_unity(
                induced_mu_map(pinned), unity_group(pinned.field), range(m))
            assert zero is None and len(set(values.tolist())) < m <= 521

    def test_nonvanishing_facts(self):
        # the h polynomials behind T1, T2, T5a, T6 never vanish on the circle
        for fam, k in (("T1", 1), ("T1", 2), ("T2", 1), ("T5a", 2), ("T6", 2)):
            f = theorem_family(fam, k)
            group = unity_group(f.field)
            m = induced_mu_map(f)
            for i in range(group.n):
                assert not m.h_at(group.element(i)).is_zero, (fam, k, i)


class TestVerdicts:
    @pytest.mark.parametrize("k, method, keys", [
        (4, None, ["criterion", "exhaustive"]),
        (4, "both", ["criterion", "exhaustive"]),
        (4, "criterion", ["criterion"]),
        (4, "exhaustive", ["exhaustive"]),
        (5, None, ["criterion"]),
        (5, "criterion", ["criterion"])])
    @pytest.mark.parametrize("terms", [None, [(1, 0), (1, 1), (-1, 2)]])
    def test_keys_and_reports(self, k, method, keys, terms):
        f = theorem_family("T1", k) if terms is None else \
            build_trinomial(k, terms)
        reports = verdicts(f, method)
        assert list(reports) == keys
        direct = {"criterion": is_permutation_via_criterion,
                  "exhaustive": is_permutation_exhaustive}
        for m, rep in reports.items():
            assert rep.method == m
            assert rep.as_dict(with_elapsed=False) == \
                direct[m](f).as_dict(with_elapsed=False)

    @pytest.mark.parametrize("method", ["both", "exhaustive"])
    def test_oracle_guarded_at_k5(self, method):
        with pytest.raises(GuardExceededError, match="criterion"):
            verdicts(theorem_family("T1", 5), method)

    def test_unknown_method(self):
        with pytest.raises(UsageError, match="unknown method"):
            verdicts(theorem_family("T1", 1), "oracle")


class TestFamilies:
    def test_t1_instantiation(self):
        assert theorem_family("T1", 1).terms == ((1, 0), (1, 2), (-1, 4))

    def test_c1_instantiation(self):
        # leading term x^q; residues from the proof-derived form
        f = theorem_family("C1", 1)
        assert f.terms == ((1, 1), (1, 5), (-1, 3))
        assert f.exponents == (5, 21, 13)

    def test_parity_guards(self):
        with pytest.raises(UsageError, match="where k is even"):
            theorem_family("T6", 3)
        with pytest.raises(UsageError, match="where k is odd"):
            theorem_family("T2", 2)

    def test_unknown_family(self):
        with pytest.raises(UsageError, match="T1"):
            theorem_family("T99", 1)

    def test_conjectural_marking(self):
        assert family_is_conjectural("P1")
        assert family_is_conjectural("P2")
        assert not family_is_conjectural("T1")

    def test_all_families_both_methods_smallest_k(self):
        for fam in FAMILY_IDS:
            k = 1 if family_admits(fam, 1) else 2
            f = theorem_family(fam, k)
            assert is_permutation_via_criterion(f).passed, fam
            assert is_permutation_exhaustive(f).passed, fam

    def test_catalog_parities_cover_spec(self):
        assert FAMILY_CATALOG["T1"][0] == "any"
        assert {f for f in FAMILY_IDS if FAMILY_CATALOG[f][0] == "odd"} == {
            "T2", "C2", "T3a", "T3b", "T4a", "T4b", "P1"}
        assert {f for f in FAMILY_IDS if FAMILY_CATALOG[f][0] == "even"} == {
            "T5a", "T5b", "T6", "T7a", "T7b", "T7c", "P2"}


class TestAgreement:
    def test_sampling_deterministic(self):
        a = [random_trinomial(2, random.Random(9)).terms for _ in range(1)]
        b = [random_trinomial(2, random.Random(9)).terms for _ in range(1)]
        assert a == b

    def test_k4_agreement_sample(self):
        rep = oracle_agreement_report(4, samples=40, seed=4)
        assert rep.passed
        assert rep.counts == {"samples": 40, "agreements": 40}

    def test_sample_limit(self):
        assert AGREEMENT_SAMPLE_LIMIT == 10_000
        with pytest.raises(GuardExceededError, match="at most 10000 "):
            oracle_agreement_report(1, samples=10_001, seed=0)

    @pytest.mark.parametrize("k", [5, 6])
    def test_beyond_the_tables_refused_before_any_sample(self, monkeypatch,
                                                          k):
        # the oracle's reach is checked first: no criterion verdict is spent
        calls = []
        real = trinomials_mod.is_permutation_via_criterion

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(trinomials_mod, "is_permutation_via_criterion",
                            counting)
        with pytest.raises(GuardExceededError, match="criterion method"):
            oracle_agreement_report(k, samples=1, seed=0)
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_agreement_run(self, k):
        rep = oracle_agreement_report(k, samples=100, seed=7)
        assert rep.passed
        assert rep.counts == {"samples": 100, "agreements": 100}
        assert "seed=7" in rep.notes
