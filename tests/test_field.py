"""Field construction, arithmetic, tower operations, identity suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from niho_perm import field as field_mod
from niho_perm.conjectures import (conjecture1_check, profile_sweep_report,
                                   subfield_stability_report)
from niho_perm.errors import (FieldConstructionError, GuardExceededError,
                              UsageError)
from niho_perm.field import (PRIMITIVE_MODULI, PolyKernel, TableKernel,
                             make_field, tower_field, frobenius, trace, norm,
                             in_subfield, factorize, power_rows,
                             trace_power_identity_report, wrap_mod, _pmulmod,
                             _pstrip)
from niho_perm.trinomials import build_trinomial, field_values, induced_mu_map
from niho_perm.unity import eval_power_on_unity, unity_group
from fresh_interpreter import run_python
from representation_twin import (bsum, identity_first_failure,
                                 polynomial_twin,
                                 representation_agreement_report)


TABLES = ("antilog", "logt", "zech")


@pytest.fixture(scope="module")
def gf25():
    return make_field(2)


class TestConstruction:
    def test_prime_field(self):
        f = make_field(1)
        assert f.order == 5
        # embedded linear modulus has a primitive root: order exactly 4
        g = f.generator
        powers = [g]
        while powers[-1] != f.one:
            powers.append(powers[-1] * g)
        assert len(powers) == 4

    def test_gf25_generator_order_by_repeated_multiplication(self, gf25):
        g = gf25.generator
        cur = g
        order = 1
        while cur != gf25.one:
            cur = cur * g
            order += 1
        assert order == 24

    def test_reducible_override_rejected(self):
        # x^2 + 1 = (x+2)(x+3) over GF(5)
        with pytest.raises(FieldConstructionError, match="reducible"):
            make_field(2, [1, 0, 1])

    def test_nonprimitive_override_rejected(self):
        # x^2 + x + 1 is irreducible but its root has order 3
        with pytest.raises(FieldConstructionError, match="primitive"):
            make_field(2, [1, 1, 1])

    def test_non_monic_override_rejected(self):
        with pytest.raises(FieldConstructionError, match="monic"):
            make_field(2, [2, 4, 2])

    def test_degree_out_of_range(self):
        with pytest.raises(UsageError):
            make_field(0)
        with pytest.raises(UsageError, match=r"\(got 13\)"):
            make_field(13)

    def test_csv_override(self):
        f = make_field(2, "2,4,1")
        assert f.modulus == (2, 4, 1)

    def test_all_embedded_moduli_validate(self):
        for m in range(1, 13):
            f = make_field(m)
            assert f.order == 5 ** m
            assert f.modulus == PRIMITIVE_MODULI[m]

    def test_cached_identity(self, gf25):
        assert make_field(2) is gf25

    def test_modulus_validated_once_per_field(self, monkeypatch):
        calls = []
        real = field_mod._validate_modulus

        def counting(m, modulus):
            calls.append((m, tuple(modulus)))
            return real(m, modulus)

        monkeypatch.setattr(field_mod, "_validate_modulus", counting)
        # x^3 + 4x^2 + 4x + 2: primitive, and built by no other test
        fields = [make_field(3, [2, 4, 4, 1]) for _ in range(3)]
        fields.append(make_field(3, "2,4,4,1"))
        assert all(f is fields[0] for f in fields)
        assert calls == [(3, (2, 4, 4, 1))]

    def test_bad_override_raises_on_every_call(self, monkeypatch):
        calls = []
        real = field_mod._validate_modulus

        def counting(m, modulus):
            calls.append(m)
            return real(m, modulus)

        monkeypatch.setattr(field_mod, "_validate_modulus", counting)
        for _ in range(2):
            with pytest.raises(FieldConstructionError, match="reducible"):
                make_field(2, [1, 0, 1])
        assert calls == [2, 2]

    def test_subfield_degree_marking(self):
        assert make_field(4).subfield_degree == 2
        assert make_field(3).subfield_degree is None
        assert tower_field(3).m == 6


class TestArithmetic:
    def test_w_squared(self, gf25):
        w = gf25.generator
        assert (w * w).digits == (3, 1)      # w^2 = w + 3

    def test_mul_inverse(self, gf25):
        for x in gf25.elements():
            if not x.is_zero:
                assert x * x.inverse() == gf25.one

    def test_inv_zero_raises(self, gf25):
        with pytest.raises(ZeroDivisionError):
            gf25.zero.inverse()

    def test_pow_zero_exponent(self, gf25):
        assert gf25.generator ** 0 == gf25.one
        assert gf25.zero ** 0 == gf25.one       # total convention
        assert gf25.zero ** 7 == gf25.zero

    def test_pow_reduces_mod_group_order(self, gf25):
        w = gf25.generator
        assert w ** 24 == gf25.one
        assert w ** (24 * 10**9 + 5) == w ** 5
        assert w ** -1 == w.inverse()

    def test_generator_power_order_divisors(self):
        # g^d = 1 exactly when 5^m - 1 divides d
        for m in (2, 3):
            f = make_field(m)
            g = f.generator
            n1 = f.order - 1
            for d in (1, 2, 3, n1 // 2, n1 - 1, n1, 2 * n1, 3 * n1 + 1):
                assert (g ** d == f.one) == (d % n1 == 0)

    def test_cross_field_operands_rejected(self, gf25):
        other = make_field(4)
        with pytest.raises(UsageError):
            gf25.generator + other.generator

    def test_equality_and_hash(self, gf25):
        w = gf25.generator
        assert w == gf25.from_digits([0, 1])
        assert hash(w) == hash(gf25.from_csv("0,1"))
        assert w != gf25.one
        assert gf25.scalar(7) == 2
        for m in (4, 10):                      # a table field and a larger one
            f = make_field(m)
            x = f.generator ** 7
            y = f.from_csv(x.csv())
            assert x == y and hash(x) == hash(y)
            assert len({f.from_index(i) for i in range(50)}
                       | {f.from_index(i) for i in range(25, 75)}) == 75

    def test_int_coercion(self, gf25):
        w = gf25.generator
        assert w + 0 == w
        assert 2 * w == w + w
        assert (w - 2) + 2 == w

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1),
           st.integers(0, 5**3 - 1))
    def test_ring_axioms_sampled(self, ia, ib, ic):
        f = make_field(3)
        a, b, c = f.from_index(ia), f.from_index(ib), f.from_index(ic)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (b + c) == (a + b) + c

    def test_ring_axioms_exhaustive_gf25(self, gf25):
        elems = list(gf25.elements())
        for a in elems:
            for b in elems:
                assert a * b == b * a
                assert a + b == b + a
                assert (a - b) + b == a


class TestTower:
    def test_frobenius_fixes_prime_field(self, gf25):
        for c in range(5):
            assert frobenius(gf25.scalar(c)) == gf25.scalar(c)

    def test_frobenius_of_w(self, gf25):
        assert frobenius(gf25.generator).digits == (1, 4)   # w^5 = 4w + 1

    def test_frobenius_involution(self, gf25):
        for x in gf25.elements():
            assert frobenius(frobenius(x)) == x

    def test_frobenius_fixed_set_size(self, gf25):
        fixed = [x for x in gf25.elements() if in_subfield(x)]
        assert len(fixed) == 5

    def test_frobenius_needs_tower(self):
        odd = make_field(3)
        with pytest.raises(UsageError):
            frobenius(odd.generator)

    def test_trace_norm_of_w(self, gf25):
        w = gf25.generator
        assert trace(w) == gf25.one
        assert norm(w) == gf25.scalar(2)
        # cross-check against the modulus: for monic x^2 + a1 x + a0 with
        # root w, trace = -a1 and norm = a0
        a0, a1, _ = gf25.modulus
        assert trace(w) == gf25.scalar(-a1)
        assert norm(w) == gf25.scalar(a0)

    def test_trace_norm_on_subfield(self, gf25):
        for c in range(5):
            x = gf25.scalar(c)
            assert trace(x) == gf25.scalar(2 * c)
            assert norm(x) == gf25.scalar(c * c)

    def test_trace_norm_land_in_subfield(self):
        f = tower_field(2)
        for idx in range(0, f.order, 13):
            x = f.from_index(idx)
            assert in_subfield(trace(x))
            assert in_subfield(norm(x))

    def test_norm_power_is_one(self, gf25):
        q = gf25.q
        for x in gf25.elements():
            if not x.is_zero:
                assert norm(x) ** (q - 1) == gf25.one

    def test_frobenius_invariance(self, gf25):
        for x in gf25.elements():
            assert trace(frobenius(x)) == trace(x)
            assert norm(frobenius(x)) == norm(x)

    def test_poly_kernel_frobenius_involution(self):
        f = tower_field(5)      # m = 10, no tables
        with pytest.raises(GuardExceededError, match=r"GF\(5\^10\)"):
            f.accel_tables
        import random
        rng = random.Random(11)
        for _ in range(20):
            x = f.random_element(rng)
            assert frobenius(frobenius(x)) == x
        for c in range(5):
            assert frobenius(f.scalar(c)) == f.scalar(c)
        assert frobenius(f.generator) != f.generator


class TestBatchSum:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_bsum_matches_element_arithmetic(self, m):
        f = make_field(m)
        kern = f.kernel
        rng = np.random.default_rng(m)
        arrays = [rng.integers(0, f.order, 50) for _ in range(3)]
        terms = [(1, arrays[0]), (-1, arrays[1]), (7, arrays[2]),
                 (3, kern.one)]
        got = bsum(kern, terms)
        for p in range(50):
            want = 3 * f.one
            for c, a in terms[:3]:
                want = want + c * f.from_index(int(a[p]))
            assert f.from_index(int(got[p])) == want

    def test_badd_is_a_two_term_bsum(self, gf25):
        kern = gf25.kernel
        a = np.arange(25).repeat(25)
        b = np.tile(np.arange(25), 25)
        got = kern.badd(a, b)
        assert [kern.to_index(kern.add(kern.from_index(int(x)),
                                       kern.from_index(int(y))))
                for x, y in zip(a, b)] == got.tolist()
        assert (got == bsum(kern, ((1, a), (1, b)))).all()

    def test_badd_matches_scalar_add_m8(self):
        kern = make_field(8).kernel
        rng = np.random.default_rng(8)
        a, b = (rng.integers(0, kern.order, 2000) for _ in range(2))
        a[:50], b[50:100], b[100:150] = 0, 0, a[100:150]
        b[150:200] = [kern.to_index(kern.neg(kern.from_index(int(x))))
                      for x in a[150:200]]                    # sums to 0
        got = kern.badd(a, b)
        assert got.tolist() == [kern.to_index(kern.add(kern.from_index(int(x)),
                                                       kern.from_index(int(y))))
                                for x, y in zip(a, b)]
        assert kern.badd(0, 0) == 0


class TestTableBuild:
    """The log/antilog/Zech tables against powers of x taken in the packed
    power-basis twin over the same modulus."""

    @staticmethod
    def _check_logs(field, logs):
        kern, twin = field.kernel, polynomial_twin(field)
        x = twin.generator_handle
        for n in logs:
            power = twin.pow(x, n)
            assert kern.antilog[n] == twin.to_index(power)
            plus_one = twin.add(power, twin.one)
            z = int(kern.zech[n])
            if plus_one == twin.zero:
                assert z == -1
            else:
                assert kern.antilog[z] == twin.to_index(plus_one)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_log_small(self, m):
        f = make_field(m)
        kern = f.kernel
        self._check_logs(f, range(kern.n1))
        assert (kern.logt[kern.antilog] == np.arange(kern.n1)).all()
        assert kern.logt[0] == -1

    @pytest.mark.parametrize("m", [6, 8])
    def test_sampled_logs(self, m):
        f = make_field(m)
        rng = np.random.default_rng(m)
        self._check_logs(f, rng.integers(0, f.kernel.n1, 300).tolist())

    def test_build_peak_m8(self):
        import tracemalloc
        tracemalloc.start()
        try:
            # zech reads the other two tables: all three are built
            field_mod.TableKernel(8, PRIMITIVE_MODULI[8]).zech
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, f"TableKernel(8) build peak {peak} B"

    def test_tables_built_on_first_read(self):
        kern = TableKernel(8, PRIMITIVE_MODULI[8])
        assert not set(TABLES) & set(vars(kern))
        built = make_field(8).kernel
        for name in TABLES:
            assert (getattr(kern, name) == getattr(built, name)).all()
        assert set(TABLES) <= set(vars(kern))

    def test_table_free_paths_build_no_table(self):
        # in a fresh interpreter: the circle verdicts and the search read
        # only the circle's GF(q) tables, and the first oracle sweep builds
        # the field's own
        script = f"""
from niho_perm import mu_check_report, tower_field
from niho_perm.conjectures import search_problem_instances
from niho_perm.trinomials import (build_trinomial, is_permutation_exhaustive,
                                  is_permutation_via_criterion)
tables, kern = set({TABLES!r}), tower_field(4).kernel
f = build_trinomial(4, [(1, 0), (1, 1), (-1, 2)])
assert mu_check_report("g1", 4).passed
assert not is_permutation_via_criterion(f).passed
assert search_problem_instances(4, "sum_half", "++")
assert not tables & set(vars(kern)), vars(kern).keys()
assert not is_permutation_exhaustive(f).passed
assert tables <= set(vars(kern)), vars(kern).keys()
"""
        run = run_python(script)
        assert run.returncode == 0, run.stderr


def _to_logs(kern, indices):
    return kern.logt[indices]                  # logt[0] = -1


def _to_indices(kern, logs):
    return np.where(logs < 0, 0, kern.antilog[logs])


class TestLogSum:
    """log_sum (Zech steps on logs) against the twin's bsum (GF(5) digit
    arithmetic on base-5 indices)."""

    @pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
    def test_matches_bsum(self, m):
        kern = make_field(m).kernel
        rng = np.random.default_rng(m)
        arrays = [rng.integers(0, kern.order, 400) for _ in range(5)]
        for a in arrays:
            a[rng.integers(0, 400, 40)] = 0        # zero inputs, log -1
        coeffs = [0, 1, 2, 3, 4]
        terms = list(zip(coeffs, arrays)) + [(3, kern.one)]
        got = kern.log_sum([(c, _to_logs(kern, a)) for c, a in terms[:5]]
                           + [(3, 0)])             # a scalar log term
        assert (_to_indices(kern, got) == bsum(kern, terms)).all()

    @pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
    def test_single_terms_and_coefficients(self, m):
        kern = make_field(m).kernel
        a = np.arange(kern.order)
        for c in range(-5, 6):
            got = kern.log_sum([(c, _to_logs(kern, a))])
            assert (_to_indices(kern, got) == bsum(kern, [(c, a)])).all()

    @pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
    def test_sum_that_cancels(self, m):
        kern = make_field(m).kernel
        rng = np.random.default_rng(10 + m)
        a, b = (rng.integers(0, kern.order, 300) for _ in range(2))
        la, lb = _to_logs(kern, a), _to_logs(kern, b)
        # 2a + b + 3a - b = 5a = 0, in an order that passes through nonzero
        got = kern.log_sum([(2, la), (1, lb), (3, la), (-1, lb)])
        assert (got == -1).all()
        assert (kern.log_sum([(1, lb), (0, la)]) == lb).all()
        for terms in ([(0, la)], [(5, 0), (0, la)], [(-5, la), (0, 3)]):
            got = kern.log_sum(terms)
            assert got.shape == la.shape and (got == -1).all()
        assert kern.log_sum([(0, 3)]).shape == ()

    def test_exhaustive_pairs_gf25(self, gf25):
        kern = gf25.kernel
        a = np.arange(25).repeat(25)
        b = np.tile(np.arange(25), 25)
        got = kern.log_sum([(1, _to_logs(kern, a)), (1, _to_logs(kern, b))])
        assert (_to_indices(kern, got) == bsum(kern, ((1, a), (1, b)))).all()

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("size", [None, 1, 6])
    def test_scalar_and_short_operands(self, m, size):
        # None: every operand a scalar log; 1 and 6: short arrays, with
        # zeros and a cancelling pair among the draws
        kern = make_field(m).kernel
        rng = np.random.default_rng(20 + m)
        for _ in range(30):
            count = int(rng.integers(1, 5))
            coeffs = rng.integers(-5, 6, count)
            handles = [rng.integers(0, kern.order, size) for _ in coeffs]
            if rng.random() < 0.3:
                handles[-1] = handles[0]
                coeffs[-1] = -coeffs[0]
            got = kern.log_sum([(int(c), _to_logs(kern, a))
                                for c, a in zip(coeffs, handles)])
            want = bsum(kern, list(zip(coeffs.tolist(), handles)))
            assert np.shape(got) == np.shape(want)
            assert (_to_indices(kern, got) == want).all()

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_log_product_matches_element_arithmetic(self, m):
        f = make_field(m)
        kern = f.kernel
        rng = np.random.default_rng(m)
        a, b = (rng.integers(0, f.order, 200) for _ in range(2))
        a[:20] = 0
        b[b == 0] = 1                              # b^-1 needs b != 0
        for ea in (0, 1, 2, 7):
            got = kern.log_product(((_to_logs(kern, a), ea),
                                    (_to_logs(kern, b), -3)))
            for p in range(200):
                x, y = f.from_index(int(a[p])), f.from_index(int(b[p]))
                want = x ** ea * y.inverse() ** 3        # 0^0 = 1
                assert f.from_index(int(_to_indices(kern, got[p]))) == want


class TestWrapMod:
    """wrap_mod: s mod n for sums of two residues, by an unsigned view."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("n", [1, 2, 24, 5 ** 8 - 1, 2 ** 30 - 1])
    def test_matches_mod_at_the_edges(self, dtype, n):
        s = np.array([0, n - 1, n, 2 * n - 1], dtype=dtype)
        want = s % n
        got = wrap_mod(s, n)
        assert got is s                          # in place, same array
        assert got.dtype == dtype and (got == want).all()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_negative_marker_stays_negative(self, dtype):
        n = 626
        s = np.array([-1, -2 * n, -2 * n + n - 1], dtype=dtype)
        assert (wrap_mod(s.copy(), n) == s - n).all()

    def test_numpy_scalar_gives_a_zero_d_array(self):
        got = wrap_mod(np.int64(30), 24)
        assert isinstance(got, np.ndarray) and got.shape == () and got == 6

    @pytest.mark.parametrize("m", [2, 4])
    def test_log_sum_of_scalar_logs(self, m):
        # 2*g^0 + g^5 with both logs scalars: the sum is a 0-d array
        kern = make_field(m).kernel
        got = kern.log_sum([(2, 0), (1, 5)])
        want = kern.logt[kern.to_index(kern.add(
            kern.mul(kern.from_index(2), kern.one),
            kern.from_index(int(kern.antilog[5]))))]
        assert np.shape(got) == () and got == want
        cancel = kern.log_sum([(2, 3), (-2, 3)])
        assert np.shape(cancel) == () and cancel == -1

    def test_log_sum_leaves_its_operands_alone(self):
        kern = make_field(4).kernel
        la = np.arange(-1, kern.n1, dtype=np.int64)
        lb = la[::-1].copy()
        keep_a, keep_b = la.copy(), lb.copy()
        kern.log_sum([(1, la), (1, lb), (1, la)])
        kern.log_sum([(3, la), (1, lb)])
        assert (la == keep_a).all() and (lb == keep_b).all()

    @pytest.mark.parametrize("k", [1, 3])
    def test_wrapped_results_stay_int64(self, k):
        # under numpy 1.x value-based casting, uint64 mixed with an int64
        # scalar promotes to float64; every wrap site must stay int64
        f = build_trinomial(k, [(1, 0), (1, 1), (-1, 2)])
        kern = f.field.kernel
        assert field_values(f.field, list(zip(
            (s for s, _ in f.terms), f.exponents))).dtype == np.int64
        logs = np.arange(kern.n1, dtype=np.int64)
        assert kern.log_sum([(2, logs), (1, logs[::-1])]).dtype == np.int64
        group = unity_group(f.field)
        values, zero = eval_power_on_unity(
            induced_mu_map(f), group, np.arange(group.n))
        assert zero is None and values.dtype == np.int64


class TestIdentitySuite:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identities_hold(self, k):
        rep = trace_power_identity_report(k)
        assert rep.passed
        assert rep.counts["elements"] == 5 ** (2 * k)
        assert rep.counts["identities"] == 5

    def test_zero_case_is_trivial(self, gf25):
        z = gf25.zero
        assert trace(z * z) == gf25.zero
        assert trace(z) ** 2 - 2 * norm(z) == gf25.zero

    def test_subfield_case_by_hand(self, gf25):
        # for subfield x: Tr(x^2) = 2x^2 and Tr(x)^2 - 2N(x) = 4x^2 - 2x^2
        for c in range(1, 5):
            x = gf25.scalar(c)
            assert trace(x * x) == gf25.scalar(2 * c * c)
            assert trace(x) ** 2 - 2 * norm(x) == gf25.scalar(2 * c * c)

    def test_guard(self):
        # the table limit is the sweep's only limit: k = 4 runs unforced
        assert trace_power_identity_report(4).passed
        with pytest.raises(GuardExceededError):
            trace_power_identity_report(5)

    @pytest.mark.parametrize("which", range(5))
    def test_corrupted_identity_witness_is_first_failure(self, monkeypatch,
                                                         which):
        # one coefficient of identity `which` is off by one: the witness is
        # the first failing power and point, in sweep order x = g^0, g^1,
        # ..., found by scalar FieldElement arithmetic
        table = [list(terms) for _, terms in
                 field_mod.TRACE_POWER_IDENTITIES]
        coeff, a_exp, b_exp = table[which][-1]
        table[which][-1] = ((coeff + 1) % 5, a_exp, b_exp)
        patched = tuple((e, tuple(t)) for (e, _), t in
                        zip(field_mod.TRACE_POWER_IDENTITIES, table))
        monkeypatch.setattr(field_mod, "TRACE_POWER_IDENTITIES", patched)
        f = tower_field(2)
        rep = trace_power_identity_report(2)
        assert not rep.passed

        def first_failure():
            for e, terms in patched:
                x = f.one
                for _ in range(f.order - 1):
                    t, nm = trace(x), norm(x)
                    rhs = f.zero
                    for c, a, b in terms:
                        rhs = rhs + c * t ** a * nm ** b
                    if trace(x ** e) != rhs:
                        return e, x.csv()
                    x = x * f.generator
            return None

        e, x = first_failure()
        assert (e, x) == (patched[which][0], rep.witness["x"])
        assert rep.witness == {"type": "identity_mismatch", "power": e,
                               "x": x}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_coset_sweep_matches_full_sweep(self, monkeypatch, k):
        # a wrong coefficient in each identity, and a wrong homogeneous
        # term (Tr^2 N for Tr^4): the same first failure both ways
        identities = field_mod.TRACE_POWER_IDENTITIES
        assert identity_first_failure(k, identities) is None
        assert trace_power_identity_report(k).passed
        variants = []
        for which in range(5):
            for bump in (1, 2):
                table = [list(terms) for _, terms in identities]
                coeff, a_exp, b_exp = table[which][0]
                table[which][0] = ((coeff + bump) % 5, a_exp, b_exp)
                variants.append(table)
        table = [list(terms) for _, terms in identities]
        table[2][0] = (1, 2, 1)
        variants.append(table)
        for table in variants:
            patched = tuple((e, tuple(t)) for (e, _), t in
                            zip(identities, table))
            monkeypatch.setattr(field_mod, "TRACE_POWER_IDENTITIES", patched)
            rep = trace_power_identity_report(k)
            e, x = identity_first_failure(k, patched)
            assert rep.witness == {"type": "identity_mismatch", "power": e,
                                   "x": x}
            assert rep.counts == {"elements": 5 ** (2 * k), "identities": 5}

    def test_inhomogeneous_identity_is_refused(self, monkeypatch):
        table = list(field_mod.TRACE_POWER_IDENTITIES)
        table[0] = (2, ((1, 2, 0), (3, 1, 1)))
        monkeypatch.setattr(field_mod, "TRACE_POWER_IDENTITIES", tuple(table))
        with pytest.raises(AssertionError):
            trace_power_identity_report(1)

    def test_scalar_identity_spot_check(self):
        # one random point per k, all five identities via element arithmetic
        import random
        rng = random.Random(3)
        for k in (1, 2, 3):
            f = tower_field(k)
            x = f.random_element(rng)
            t, nm = trace(x), norm(x)
            assert trace(x ** 2) == t ** 2 - 2 * nm
            assert trace(x ** 3) == t ** 3 + 2 * nm * t
            assert trace(x ** 4) == t ** 4 + nm * t ** 2 + 2 * nm ** 2
            assert trace(x ** 8) == (t ** 8 + 2 * nm * t ** 6
                                     - nm ** 3 * t ** 2 + 2 * nm ** 4)
            assert trace(x ** 9) == (t ** 9 + nm * t ** 7
                                     + 4 * nm ** 4 * x.field.one * t
                                     + 2 * nm ** 2 * t ** 5)


class TestTableGuard:
    """FieldParams.accel_tables is the one table guard: every whole-field
    sweep refuses a field without log tables with one error naming it."""

    @pytest.mark.parametrize("sweep, name", [
        (lambda: field_values(tower_field(5), [(1, 1)]), "GF(5^10)"),
        (lambda: trace_power_identity_report(5), "GF(5^10)"),
        (lambda: profile_sweep_report(5), "GF(5^10)"),
        (lambda: subfield_stability_report(5), "GF(5^10)"),
        (lambda: conjecture1_check(9), "GF(5^9)"),
        (lambda: conjecture1_check(11), "GF(5^11)"),
    ], ids=["field_values", "lemma1", "profile_sweep", "subfield_stability",
            "conjecture1_k9", "conjecture1_k11"])
    def test_every_sweep_refuses_a_field_without_tables(self, sweep, name):
        with pytest.raises(GuardExceededError) as exc:
            sweep()
        assert str(exc.value).startswith(f"{name} has no log tables")


class TestRepresentations:
    def test_agreement_exhaustive_small(self):
        for m in (1, 2, 3, 4):
            rep = representation_agreement_report(make_field(m))
            assert rep.passed
            assert rep.method == "exhaustive"

    def test_agreement_sampled_m6(self):
        rep = representation_agreement_report(make_field(6), samples=10_000,
                                              seed=0)
        assert rep.passed
        assert rep.counts["pairs"] == 10_000

    def test_agreement_sampled_m8(self):
        rep = representation_agreement_report(make_field(8), samples=10_000,
                                              seed=0)
        assert rep.passed
        assert rep.counts["pairs"] == 10_000

    def test_agreement_catches_a_corrupted_antilog_entry(self):
        # a fresh, uncached field, so the corruption reaches no other test
        f = field_mod.FieldParams(2, PRIMITIVE_MODULI[2],
                                  _token=field_mod._FIELD_TOKEN)
        kern = f.kernel
        g7 = int(kern.antilog[7])
        kern.antilog[7] = kern.antilog[8]
        rep = representation_agreement_report(f)
        assert not rep.passed
        # first in sweep order: 0 + g^7 reads its log back through antilog
        assert rep.witness == {"type": "representation_mismatch", "op": "add",
                               "a": "0", "b": str(g7)}

    @pytest.mark.parametrize("m", [4, 8, 9, 10])
    def test_one_handle_format(self, m):
        # PolyKernel handles at every m; up to m = 8 the field also carries
        # tables, indexed by element index
        f = make_field(m)
        twin = PolyKernel(m, PRIMITIVE_MODULI[m])
        rng = np.random.default_rng(m)
        for d in rng.integers(0, 5, (50, m)).tolist():
            assert f.from_digits(d).handle == twin.from_digits(d)
        kern = f.kernel
        assert isinstance(kern, TableKernel) == (m <= 8)
        if m <= 8:
            logs = rng.integers(0, kern.n1, 50).tolist() + [0, kern.n1 - 1]
            for log in logs:
                assert kern.antilog[log] == (f.generator ** log).index
                assert f.from_log(log) == f.generator ** log
        assert f.from_log(-1).is_zero

    @pytest.mark.parametrize("m", [2, 5, 10, 12])
    def test_poly_kernel_against_dense_reference(self, m):
        import random
        rng = random.Random(m)
        modulus = PRIMITIVE_MODULI[m]
        kern = PolyKernel(m, modulus)
        for _ in range(200):
            da = [rng.randrange(5) for _ in range(m)]
            db = [rng.randrange(5) for _ in range(m)]
            ref = _pmulmod(list(da), list(db), modulus)
            ref = tuple(ref + [0] * (m - len(ref)))
            got = kern.digits(kern.mul(kern.from_digits(da),
                                       kern.from_digits(db)))
            assert got == ref
            ref_add = tuple((x + y) % 5 for x, y in zip(da, db))
            assert kern.digits(kern.add(kern.from_digits(da),
                                        kern.from_digits(db))) == ref_add

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_power_rows_against_repeated_products(self, m):
        import random
        rng = random.Random(m)
        modulus = PRIMITIVE_MODULI[m]
        for base in ([0, 1], [rng.randrange(5) for _ in range(m)] + [1]):
            rows = power_rows(base, 77, modulus)
            assert rows.shape == (77, m) and rows.dtype == np.int8
            want = [1]
            for row in rows.tolist():
                assert _pstrip(row) == want
                want = _pmulmod(want, base, modulus)

    def test_factorize(self):
        assert factorize(5 ** 4 - 1) == [2, 2, 2, 2, 3, 13]
        assert math.prod(factorize(5 ** 12 - 1)) == 5 ** 12 - 1
