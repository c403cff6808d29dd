"""Circle enumeration, the map catalog, permutation checks and claims."""

import math
import random

import numpy as np
import pytest

from niho_perm.errors import PoleError, ResidueError, UsageError
from niho_perm.field import make_field, tower_field, wrap_mod
from niho_perm.residues import parity_admits
from niho_perm.trinomials import (FAMILY_IDS, family_admits, induced_mu_map,
                                  theorem_family)
from niho_perm.unity import (MAP_SPECS, OMEGA_SPECIALIZATIONS,
                             PUBLIC_MAP_NAMES, ClosedFormMap, PowerFormMap,
                             build_map, check_circle_claim, eval_on_unity,
                             is_permutation_of, maps_agree_report,
                             mu_check_report, pointwise_agreement_report,
                             reciprocal_identity_report, reciprocal_map,
                             unity_group, unity_permutation_report)
from niho_perm import unity as unity_mod

from representation_twin import digit_row_sum_logs


def x_plus(c):
    """x + c, a closed form that leaves the circle at most points."""
    return ClosedFormMap(name=f"x+{c}", sign=1, pre_exp=0,
                         num=((1, 1), (c, 0)), den=((1, 0),), outer=1)


@pytest.fixture(scope="module")
def mu6():
    return unity_group(tower_field(1))


def assert_coords_replay(g):
    """(a, b) digit rows map back to zeta^i under a + b*omega, where a and
    b are GF(q) digits in powers of G = g^(q+1); zeta^i is built by scalar
    multiplication, and element(i) decodes to it."""
    field, k = g.field, g.k
    big_g = field.generator ** g.n
    omega = field.generator ** (g.n // 2)
    assert omega * omega == big_g and omega ** g.q == -omega
    basis = [big_g ** j for j in range(k)]
    basis += [b * omega for b in basis]
    phi = np.array([b.digits for b in basis]).T
    zeta, x, powers = field.generator ** (g.q - 1), field.one, []
    for _ in range(g.n):
        powers.append(x)
        x = x * zeta
    assert x == field.one
    assert g.coords.shape == (g.n, 2 * k)
    digits = g.coords.astype(np.int64) @ phi.T % 5
    assert digits.tolist() == [list(p.digits) for p in powers]
    assert [g.element(i) for i in range(g.n)] == powers
    assert [g.csv(i) for i in range(g.n)] == [p.csv() for p in powers]


def assert_p1_logs_replay(g):
    """g^pair_logs(a, b) = a + b*omega for GF(q) indices a, b, where a and
    b are GF(q) digits in powers of G = g^(q+1); the pairs cover the four
    ranges of la[a] - lb[b]: a, b != 0, a = 0, b = 0 and a = b = 0."""
    field, sub = g.field, g.subfield
    big_g = field.generator ** g.n
    omega = field.generator ** (g.n // 2)
    picks = sorted({0, 1, 2, g.q - 1} | set(range(0, g.q, max(1, g.q // 12))))
    a, b = (np.array(v) for v in zip(*[(x, y) for x in picks for y in picks]))
    logs = g.pair_logs(a, b)
    # the circle verdicts read log mod n from one int32 table, -2n at zero
    assert g.ctn.dtype == np.int32
    assert (g.ctn[g.la[a] - g.lb[b]]
            == np.where(logs < 0, -2 * g.n, logs % g.n)).all()
    for x, y, log in zip(a.tolist(), b.tolist(), logs.tolist()):
        elem = [field.zero, field.zero]
        for pos, idx in enumerate((x, y)):
            for j, d in enumerate(sub.digits(sub.from_index(idx))):
                elem[pos] = elem[pos] + d * big_g ** j
        value = elem[0] + elem[1] * omega
        if value.is_zero:
            assert log == -1 and x == y == 0
        else:
            assert 0 <= log < g.log_order
            assert field.generator ** log == value, (x, y)


class TestEnumeration:
    def test_size(self, mu6):
        assert mu6.n == 6
        assert len({mu6.element(i).handle for i in range(mu6.n)}) == 6

    def test_power_order_listing(self, mu6):
        listed = [mu6.element(i).digits for i in range(6)]
        assert listed == [(1, 0), (2, 2), (1, 2), (4, 0), (3, 3), (4, 3)]

    def test_omega_split(self, mu6):
        plus_idx = mu6.domain_indices("omega_plus")
        plus = {mu6.element(i).digits for i in plus_idx}
        minus = {mu6.element(i).digits
                 for i in mu6.domain_indices("omega_minus")}
        assert plus == {(1, 0), (1, 2), (3, 3)}
        assert minus == {(-mu6.element(i)).digits for i in plus_idx}
        assert plus | minus == {mu6.element(i).digits for i in range(6)}
        assert not plus & minus

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_omega_plus_two_characterizations(self, k):
        g = unity_group(tower_field(k))
        field = g.field
        handles = [g.element(i).handle for i in range(g.n)]
        squares = {field.kernel.mul(h, h) for h in handles}
        by_power = {h for h in handles
                    if field.kernel.pow(h, g.n // 2) == field.kernel.one}
        assert squares == by_power
        assert squares == {g.element(i).handle
                           for i in g.domain_indices("omega_plus")}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_zeta_order_and_minus_one(self, k):
        g = unity_group(tower_field(k))
        kern = g.field.kernel
        assert kern.pow(g.zeta, g.n) == kern.one
        assert kern.pow(g.zeta, g.n // 2) == kern.neg(kern.one)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_half_power_is_sign(self, k):
        g = unity_group(tower_field(k))
        field = g.field
        one, minus_one = field.one, -field.one
        for i in range(g.n):
            x = g.element(i)
            up = x ** (g.n // 2)
            down = x ** (-(g.n // 2))
            assert up in (one, minus_one)
            assert up == down

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_plus_minus_two_off_circle(self, k):
        field = tower_field(k)
        two = field.scalar(2)
        assert two ** (field.q + 1) != field.one
        assert (-two) ** (field.q + 1) != field.one
        if k <= 3:
            g = unity_group(field)
            for x in (two, -two):
                assert x.is_zero or x ** g.n != field.one

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gcd_facts(self, k):
        q = 5 ** k
        if k % 2 == 1:
            assert 6 % math.gcd(q + 1, 12) == 0
            assert math.gcd(13, q + 1) == 1
        else:
            assert math.gcd(3, q + 1) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_p1_coordinates(self, k):
        assert_coords_replay(unity_group(tower_field(k)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_p1_logs_replay(self, k):
        assert_p1_logs_replay(unity_group(tower_field(k)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_zero_marker_survives_the_wrap(self, k):
        # ctn is -2n where a sum is zero (ct = -1): plus a circle index and
        # wrapped it stays negative, so a zero of h sorts first and fails
        g = unity_group(tower_field(k))
        n = g.n
        assert g.ctn.dtype == np.int32
        assert (g.ctn == np.where(g.ct < 0, -2 * n, g.ct % n)).all()
        assert g.ctn.min() == -2 * n
        img = wrap_mod(g.ctn.min() + np.arange(n, dtype=np.int32), n)
        assert img.dtype == np.int32 and (img < 0).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_negated_halves_are_shifted_halves(self, k):
        # the base-9 halves of -zeta^j, read at zeta^(j + n/2), against
        # the digit-negated coordinates packed in base 9
        g = unity_group(tower_field(k))
        place = 9 ** np.arange(k, dtype=np.int32)
        for sign in (1, -1):
            digits = g.coords * np.int8(sign) % 5
            want = [digits[:, h:h + k] @ place for h in (0, k)]
            got = g.halves[sign]
            assert [x.dtype for x in got] == [np.int32] * 2
            assert all((x == w).all() for x, w in zip(got, want)), sign

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_base9_logs_match_circle_logs(self, k):
        # the two packings of the circle give one log of 1 + y + z, for
        # y = s1*zeta^(c1*i) and z = s2*zeta^(c2*i) at seeded residues
        g = unity_group(tower_field(k))
        n, i = g.n, np.arange(g.n)
        rng = np.random.default_rng(70 + k)
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for c1, c2 in rng.integers(0, n, size=(8, 2)).tolist():
                y, z = g.halves[s1], g.halves[s2]
                a, b = (y[h][c1 * i % n] + z[h][c2 * i % n] for h in (0, 1))
                got = g.base9_logs(a, b, np.empty_like(a))
                terms = ((1, 0), (s1, c1), (s2, c2))
                assert (got == g.circle_logs(g.sum_words(i, terms))).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_square_logs_match_both_packings(self, k):
        # entry a*n + b is log h mod n of h = 1 + l1*zeta^a + l2*zeta^b,
        # from the base-9 halves and, independently, from the packed words
        # (-zeta^j is zeta^(j + n/2), and three unit terms add with no
        # fold); a zero of h reads -2n, at odd k only
        g = unity_group(tower_field(k))
        n = g.n
        a, b = np.divmod(np.arange(n * n), n)
        for l1, l2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            table = g.square_logs(l1, l2)
            assert table.dtype == np.int16 and table.shape == (n * n,)
            assert table is g.square_logs(l1, l2)
            y, z = g.halves[l1], g.halves[l2]
            sums = [y[h][a] + z[h][b] for h in (0, 1)]
            assert (table == g.base9_logs(*sums, np.empty_like(sums[0]))).all()
            words = (g.words[0] + g.words[(a + n // 2 * (l1 < 0)) % n]
                     + g.words[(b + n // 2 * (l2 < 0)) % n])
            assert (table == g.circle_logs(words)).all()
            assert (table == -2 * n).any() == (k % 2 == 1)
            assert table.min() >= -2 * n and table.max() < n
            # swapping the pattern transposes the table
            swapped = g.square_logs(l2, l1).reshape(n, n)
            assert (table.reshape(n, n) == swapped.T).all()

    @pytest.mark.parametrize("modulus", [(3, 2, 4, 3, 1),
                                         (2, 0, 2, 1, 1, 4, 1)])
    def test_other_primitive_modulus(self, modulus):
        # the circle is built from the modulus alone: on another primitive
        # modulus its tables replay, and every catalog map on every domain
        # keeps the verdict it has on the default modulus
        k = (len(modulus) - 1) // 2
        g = unity_group(make_field(2 * k, modulus))
        default = unity_group(tower_field(k))
        assert g.field.modulus == modulus != default.field.modulus
        assert_coords_replay(g)
        assert_p1_logs_replay(g)
        verdicts = []
        for name, spec in MAP_SPECS.items():
            if spec["parity"] not in ("any", ("even", "odd")[k % 2]):
                continue
            map_ = build_map(name, k)
            for dom in ("mu", "omega_plus", "omega_minus"):
                got, want = (unity_permutation_report(map_, group, dom)
                             for group in (g, default))
                assert got.passed == want.passed, (name, dom)
                assert ((got.witness or {}).get("type")
                        == (want.witness or {}).get("type")), (name, dom)
                verdicts.append(got.passed)
        assert len(verdicts) >= 30 and 0 < sum(verdicts) < len(verdicts)

    def test_group_cached(self):
        f = tower_field(2)
        assert unity_group(f) is unity_group(f)

    def test_needs_tower(self):
        with pytest.raises(UsageError):
            unity_group(make_field(3))


class TestMapEvaluation:
    def test_g1_at_one(self, mu6):
        g1 = build_map("g1", 1)
        assert g1.eval_at(mu6.field.one) == mu6.field.one

    def test_half_f_values(self, mu6):
        f = build_map("half_f", 1)
        one = mu6.field.one
        assert f.eval_at(one) == one
        assert f.eval_at(-one) == -one

    # off-catalog shapes that leave the circle, hit a pole or vanish
    EXTRA_MAPS = (
        x_plus(1),
        ClosedFormMap(name="mixed", sign=-1, pre_exp=3,
                      num=((1, 2), (1, 1), (2, 0)), den=((1, 1), (3, 0))),
        ClosedFormMap(name="polar", sign=1, pre_exp=0,
                      num=((1, 0),), den=((1, 1), (4, 0)), outer=1),
        ClosedFormMap(name="x^3-1", sign=1, pre_exp=0,
                      num=((1, 3), (4, 0)), den=((2, 1), (1, 0)), outer=1),
        ClosedFormMap(name="cubed", sign=1, pre_exp=1,
                      num=((1, 2), (3, 0)), den=((1, 1), (2, 0)), outer=3),
        PowerFormMap(name="vanishing", h_terms=((1, 0), (1, 2), (1, 4))),
    )

    @classmethod
    def assert_batch_matches_scalar(cls, k, indices):
        """Every catalog map and EXTRA_MAPS: batch circle indices vs one
        scalar evaluation per point; zeros and poles are dropped and
        checked by hand."""
        g = unity_group(tower_field(k))
        maps = list(cls.EXTRA_MAPS)
        for name in MAP_SPECS:
            try:
                maps.append(build_map(name, k))
            except ResidueError:
                continue                  # parity-bound residue, e.g. g10
        for map_ in maps:
            name = map_.name
            idx = list(indices)
            vals, bad = eval_on_unity(map_, g, idx)
            while bad is not None:
                x = g.element(bad)
                try:
                    assert map_.eval_at(x).is_zero, (name, k, bad)
                except PoleError:
                    pass
                idx.remove(bad)
                vals, bad = eval_on_unity(map_, g, idx)
            for pos, i in enumerate(idx):
                scalar = map_.eval_at(g.element(i))
                if vals[pos] < 0:
                    assert (scalar.is_zero
                            or scalar ** g.n != g.field.one), (name, k, i)
                else:
                    assert g.element(vals[pos]) == scalar, (name, k, i)

    def test_scalar_matches_batch(self):
        for k in (1, 2):
            self.assert_batch_matches_scalar(k, range(5 ** k + 1))

    def test_scalar_matches_batch_poly_kernel(self):
        self.assert_batch_matches_scalar(5, range(0, 5 ** 5 + 1, 97))

    def test_scalar_matches_batch_k6(self):
        self.assert_batch_matches_scalar(6, range(0, 5 ** 6 + 1, 499))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_sum_logs_every_pair_range(self, k):
        # with y = x^e and y^q = x^-e = conj(y): y + y^q lies in GF(q)
        # (b = 0), y - y^q in GF(q)*omega (a = 0), y - 1 vanishes at x = 1,
        # and y + 2 has both halves nonzero at most points
        g = unity_group(tower_field(k))
        e = 3 if k > 1 else 1
        sums = (((1, e), (1, -e)), ((1, e), (-1, -e)), ((1, e), (-1, 0)),
                ((1, e), (2, 0)))
        idx = sorted({0, g.n // 2} | set(range(1, g.n, max(1, g.n // 60))))
        seen = set()
        for terms in sums:
            logs = g.sum_logs(idx, terms)
            for i, log in zip(idx, logs.tolist()):
                x = g.element(i)
                value = g.field.zero
                for c, exp in terms:
                    value = value + c * x ** exp
                if value.is_zero:
                    assert log == -1, (terms, i)
                    seen.add("zero")
                    continue
                assert g.field.generator ** log == value, (terms, i)
                # log_g is a multiple of n on GF(q), n/2 mod n on GF(q)*omega
                seen.add({0: "b=0", g.n // 2: "a=0"}.get(log % g.n, "both"))
        assert seen == {"zero", "b=0", "a=0", "both"}

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_off_circle_escape_replays(self, k):
        g = unity_group(tower_field(k))
        shift = x_plus(1)
        rep = unity_permutation_report(shift, g, "mu")
        assert not rep.passed
        wit = rep.witness
        assert wit["type"] == "escape"
        x = g.field.from_csv(wit["x"])
        assert x == g.element(wit["index"])
        assert shift.eval_at(x).csv() == wit["image"]
        assert wit["image"] == (x + 1).csv()

    def test_unknown_map(self):
        with pytest.raises(UsageError, match="g1"):
            build_map("g99", 1)

    def test_g10_needs_even_k(self):
        with pytest.raises(ResidueError):
            build_map("g10", 1)
        assert build_map("g10", 2)


class TestPackedKernel:
    """The packed-word sum_logs against its digit-row twin, the chunk
    reader at k = 7, 8, and the collision witness against brute force and
    on the verdict's uint16 keys."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_sum_logs_matches_digit_row_twin(self, k):
        g = unity_group(tower_field(k))
        n = g.n
        rng = np.random.default_rng(40 + k)
        idx = np.sort(rng.choice(n, size=min(n, 300), replace=False))
        fixed = [[(2, 0)] * 9, [(4, 1)] * 9, [(-2, 3)] * 9,
                 [(c, e) for c, e in zip(range(9), range(9))],
                 [(3, 5), (-3, 5)], [(0, 2)], [(5, 1), (1, 0)],
                 [(1, 4), (2, 3), (1, 2), (2, 1), (1, 0)]]
        drawn = [list(zip(rng.integers(-7, 8, size).tolist(),
                          rng.integers(-3 * n, 3 * n, size).tolist()))
                 for size in range(1, 10) for _ in range(4)]
        for terms in fixed + drawn:
            got = g.sum_logs(idx, terms)
            assert got.dtype == np.int64
            assert (got == digit_row_sum_logs(g, idx, terms)).all(), terms
            assert (g.circle_logs(g.sum_words(idx, terms))
                    == np.where(got < 0, -2 * n, got % n)).all(), terms

    @pytest.mark.parametrize("k", [1, 3, 5, 6])
    def test_sum_logs_index_forms(self, k):
        g = unity_group(tower_field(k))
        n = g.n
        terms = ((1, 0), (-2, 7), (3, n + 2))
        step = max(1, n // 50)
        for indices in (range(n), range(0, n, step), list(range(1, n, step)),
                        np.arange(2, n, step, dtype=np.int64),
                        g.domain_indices("omega_minus"),
                        np.array([], dtype=np.int64), []):
            got = g.sum_logs(indices, terms)
            assert got.shape == (len(indices),)
            assert (got == digit_row_sum_logs(g, indices, terms)).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_chunk_sum_reads_each_half(self, k):
        # random fields 0..15 in both halves of the uint64 word, at every
        # k the layout holds (k = 7, 8 have no circle yet)
        rng = np.random.default_rng(k)
        fields = rng.integers(0, 16, (200, 16))
        fields[:, k:8] = fields[:, 8 + k:] = 0
        words = np.zeros(200, dtype=np.uint64)
        for i in range(16):
            words |= fields[:, i].astype(np.uint64) << np.uint64(4 * i)
        pow5 = 5 ** np.arange(k)
        for half, cols in ((0, fields[:, :k]), (32, fields[:, 8:8 + k])):
            assert (unity_mod._chunk_sum(words, half, k)
                    == cols % 5 @ pow5).all()

    def test_fold_reduces_every_field(self):
        rng = np.random.default_rng(3)
        fields = rng.integers(0, 13, (500, 16))
        fields[0] = 12
        place = [np.uint64(4 * i) for i in range(16)]
        words = np.zeros(500, dtype=np.uint64)
        for i in range(16):
            words |= fields[:, i].astype(np.uint64) << place[i]
        folded = unity_mod._fold(words)
        for i in range(16):
            got = (folded >> place[i]) & np.uint64(15)
            assert (got == fields[:, i] % 5).all()

    def test_words_built_on_first_sum(self):
        g = unity_mod.UnityGroup(tower_field(2))       # a fresh group
        assert "words" not in vars(g)
        g.sum_logs(range(3), ((1, 1),))
        assert "words" in vars(g)
        assert g.words.dtype == np.uint64 and g.words.shape == (g.n,)

    @staticmethod
    def brute_first_collision(values):
        for j in range(len(values)):
            for i in range(j):
                if values[i] == values[j]:
                    return i, j
        return None

    def test_first_collision_against_brute_force(self):
        rng = np.random.default_rng(9)
        cases = [np.array([], dtype=np.int64), np.array([7]), [3, 3],
                 np.arange(50), np.arange(50)[::-1], np.full(40, 11),
                 np.array([5, -2, 9, -2, 5]), [1 << 20, 3, 1 << 20]]
        for size in (2, 3, 10, 57, 200):
            for span in (2, size, 1 << 17, 1 << 40):
                cases.append(rng.integers(-span // 2, span, size))
        for values in cases:
            want = self.brute_first_collision(list(values))
            assert unity_mod._first_collision(values) == want, values

    @pytest.mark.parametrize("k", [1, 4, 5, 6])
    def test_uint16_keys_give_the_int64_witness(self, k):
        # circle indices sort as uint16 keys (a radix sort) from 512 values
        # on; the witness must be the one an int64 sort gives, here of the
        # values shifted past 2^16
        n = 5 ** k + 1
        rng = np.random.default_rng(k)
        for values in (rng.integers(0, n, n), rng.permutation(n),
                       np.where(np.arange(n) < n - 1, np.arange(n), 0),
                       rng.integers(0, n // 2, n) * 2, np.full(n, n - 1),
                       np.arange(n)[:1], np.arange(n)[:0]):
            want = unity_mod._first_collision(values + (1 << 16))
            assert unity_mod._first_collision(values) == want
            assert unity_mod._first_collision(values.astype(np.uint16)) == want
            if n <= 200:
                assert want == self.brute_first_collision(list(values))


class TestPermutationChecker:
    def test_identity_passes(self, mu6):
        rep = is_permutation_of([mu6.element(i) for i in range(6)],
                                lambda x: x)
        assert rep.passed

    def test_square_map_fails_with_collision(self, mu6):
        rep = is_permutation_of([mu6.element(i) for i in range(6)],
                                lambda x: x * x)
        assert not rep.passed
        assert rep.witness["type"] == "collision"
        # replay: both witnesses square to the same value
        x1 = mu6.field.from_csv(rep.witness["x1"])
        x2 = mu6.field.from_csv(rep.witness["x2"])
        assert x1 * x1 == x2 * x2

    def test_escape_detected(self, mu6):
        rep = is_permutation_of([mu6.element(i) for i in range(6)],
                                lambda x: x + 1)
        assert not rep.passed
        assert rep.witness["type"] == "escape"

    def test_pole_reported_not_raised(self, mu6):
        bad = ClosedFormMap(name="polar", sign=1, pre_exp=0,
                            num=((1, 0),), den=((1, 1), (4, 0)), outer=1)
        rep = is_permutation_of([mu6.element(i) for i in range(6)], bad)
        assert not rep.passed
        assert rep.witness["type"] == "pole"
        assert rep.witness["x"] == "1,0"

    def test_pole_in_batch_path(self, mu6):
        bad = ClosedFormMap(name="polar", sign=1, pre_exp=0,
                            num=((1, 0),), den=((1, 1), (4, 0)), outer=1)
        rep = unity_permutation_report(bad, mu6, "mu")
        assert not rep.passed
        assert rep.witness["type"] == "pole"

    @pytest.mark.parametrize("k", [1, 5])
    def test_escape_from_half_stays_on_circle(self, k):
        # -x sends the squares onto the negated squares
        g = unity_group(tower_field(k))
        minus = ClosedFormMap(name="-x", sign=-1, pre_exp=1, num=((1, 0),),
                              den=((1, 0),), outer=1)
        rep = unity_permutation_report(minus, g, "omega_plus")
        wit = rep.witness
        assert wit["type"] == "escape"
        x = g.field.from_csv(wit["x"])
        assert wit["image"] == (-x).csv()
        image = -x
        assert not image.is_zero and image ** g.n == g.field.one

    def test_empty_domain_rejected(self):
        with pytest.raises(UsageError):
            is_permutation_of([], lambda x: x)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_g1_permutes_circle(self, k):
        rep = mu_check_report("g1", k)
        assert rep.passed
        assert rep.counts["points"] == 5 ** k + 1


class TestClaims:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_circle_claim(self, k):
        assert check_circle_claim("L3", k).passed

    @pytest.mark.parametrize("k", [1, 3])
    def test_halves_odd(self, k):
        rep = check_circle_claim("L4", k)
        assert rep.passed
        assert rep.counts["checks"] == 2

    @pytest.mark.parametrize("k", [2, 4])
    def test_halves_even(self, k):
        assert check_circle_claim("L5", k).passed

    def test_parity_guard(self):
        with pytest.raises(UsageError, match="odd"):
            check_circle_claim("L4", 2)
        with pytest.raises(UsageError, match="even"):
            check_circle_claim("halves-even", 3)

    def test_unknown_claim(self):
        with pytest.raises(UsageError):
            check_circle_claim("L9", 1)


class TestStructure:
    @pytest.mark.parametrize("k,pairs", [
        (1, [("g1", "g2"), ("g3", "g4"), ("g5", "g6")]),
        (2, [("g1", "g2"), ("g7", "g8")]),
        (3, [("g1", "g2"), ("g3", "g4"), ("g5", "g6")]),
    ])
    def test_reciprocal_identities(self, k, pairs):
        for a, b in pairs:
            rep = reciprocal_identity_report(a, b, k)
            assert rep.passed, (a, b, k)

    def test_non_reciprocal_pair_names_first_mismatch(self):
        rep = reciprocal_identity_report("g1", "g3", 1)
        g = unity_group(tower_field(1))
        g1, g3 = build_map("g1", 1), build_map("g3", 1)
        for i in range(g.n):
            x = g.element(i)
            if g1.eval_at(x) * g3.eval_at(x) != x.field.one:
                break
        assert rep.witness == {"type": "mismatch", "x": x.csv(), "index": i}

    def test_reciprocal_of_vanishing_h_is_a_zero(self, mu6):
        # 1 + y^2 + y^4 vanishes first at zeta on the 6-circle
        pf = PowerFormMap(name="vanishing", h_terms=((1, 0), (1, 2), (1, 4)))
        mu = mu6.domain_indices("mu")
        rep = pointwise_agreement_report("pf = 1/pf", mu6, pf, mu,
                                         reciprocal_map(pf), mu)
        assert rep.witness == {"type": "zero_or_pole", "x": "2,2", "index": 1}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reciprocal_map_inverts_on_the_circle(self, k):
        # every catalog map: the public g1..g10, and the internal closed
        # forms, whose pre_exp is not n/2 as g1's is
        g = unity_group(tower_field(k))
        for name, spec in MAP_SPECS.items():
            if not parity_admits(spec["parity"], k):
                continue
            m = build_map(name, k)
            inverse = reciprocal_map(m)
            for i in range(g.n):
                x = g.element(i)
                assert inverse.eval_at(x) * m.eval_at(x) == g.field.one, \
                    (name, k, i)

    @pytest.mark.parametrize("k", [1, 3])
    def test_omega_specializations_odd(self, k):
        g = unity_group(tower_field(k))
        for name in ("g1", "g3", "g5"):
            spec = OMEGA_SPECIALIZATIONS[name]
            for dom, closed_name in spec.items():
                rep = maps_agree_report(build_map(name, k),
                                        build_map(closed_name, k), g, dom)
                assert rep.passed, (name, dom, k)

    @pytest.mark.parametrize("k", [2, 4])
    def test_omega_specializations_even(self, k):
        g = unity_group(tower_field(k))
        for name in ("g1", "g7", "g9"):
            spec = OMEGA_SPECIALIZATIONS[name]
            for dom, closed_name in spec.items():
                rep = maps_agree_report(build_map(name, k),
                                        build_map(closed_name, k), g, dom)
                assert rep.passed, (name, dom, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_off_circle_images_compared_exactly(self, k):
        g = unity_group(tower_field(k))
        assert maps_agree_report(x_plus(1), x_plus(1), g, "mu").passed
        rep = maps_agree_report(x_plus(1), x_plus(2), g, "mu")
        assert rep.witness == {"type": "mismatch", "x": g.element(0).csv(),
                               "index": 0}

    @pytest.mark.parametrize("k", [1, 2])
    def test_half_map_image_containment(self, k):
        # the claim checks assert containment; make it explicit once
        g = unity_group(tower_field(k))
        fmap = build_map("half_f", k)
        dom = "omega_plus" if k % 2 == 1 else "omega_minus"
        members = {g.element(i).handle for i in g.domain_indices(dom)}
        for i in g.domain_indices(dom):
            assert fmap.eval_at(g.element(i)).handle in members

    def test_zero_witness_of_vanishing_h(self, mu6):
        from niho_perm.unity import PowerFormMap
        # 1 + y^2 + y^4 vanishes at zeta on the 6-circle
        pf = PowerFormMap(name="vanishing", h_terms=((1, 0), (1, 2), (1, 4)))
        rep = unity_permutation_report(pf, mu6, "mu")
        assert not rep.passed
        assert rep.witness["type"] == "zero"
        assert rep.witness["x"] == "2,2"


def signed_triple(rng, n, force):
    """Three random signed residues mod n; with force, c2 = 2*c1 - c0 or
    that plus n/2, so z = x^(c2-c0) is +-y^2 for y = x^(c1-c0) and h has
    zeros wherever y has order 3 or 6 on the circle."""
    (s0, c0), (s1, c1), (s2, c2) = [(rng.choice((1, -1)), rng.randrange(n))
                                    for _ in range(3)]
    if force:
        c2 = (2 * c1 - c0 + rng.choice((0, n // 2))) % n
    return (s0, c0), (s1, c1), (s2, c2)


class TestCircleZeroRule:
    """_circle_zero, the index rule for the zeros of h on the circle,
    against evaluation, and the circle verdict that asks it first."""

    @staticmethod
    def evaluated_zero(g, terms):
        """The first circle index where h vanishes, h evaluated at every
        point."""
        logs = g.circle_logs(g.sum_words(g.domain_indices("mu"), terms))
        zeros = np.flatnonzero(logs < 0)
        return int(zeros[0]) if zeros.size else None

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_signed_triple(self, k):
        # the leading sign -1 included: s*x^c at zeta^i has the word of
        # zeta^(c*i), or of zeta^(c*i + n/2) for s = -1, and the words of
        # every (t1, t2) for one t0 are summed in one broadcast
        g = unity_group(tower_field(k))
        n, i = g.n, np.arange(g.n)
        signed = [(s, c) for s in (1, -1) for c in range(n)]
        words = np.array([g.words[(c * i + (s < 0) * (n // 2)) % n]
                          for s, c in signed])
        zeros = 0
        for t0, w0 in zip(signed, words):
            vanish = g.circle_logs(w0 + words[:, None] + words[None, :]) < 0
            want = np.where(vanish.any(axis=2), vanish.argmax(axis=2), -1)
            got = [[unity_mod._circle_zero(n, (t0, t1, t2)) for t2 in signed]
                   for t1 in signed]
            assert [[-1 if z is None else z for z in row]
                    for row in got] == want.tolist(), t0
            zeros += int((want >= 0).sum())
        # zeros need a point of order 3 on the circle: odd k only
        assert (zeros > 0) == (k % 2 == 1)

    @pytest.mark.parametrize("k, count", [(3, 1000), (4, 500), (5, 500),
                                          (6, 200)])
    def test_seeded_triples_with_forced_zeros(self, k, count):
        g = unity_group(tower_field(k))
        rng = random.Random(2500 + k)
        zeros = 0
        for case in range(count):
            terms = signed_triple(rng, g.n, force=case % 2)
            want = self.evaluated_zero(g, terms)
            assert unity_mod._circle_zero(g.n, terms) == want, terms
            zeros += want is not None
        assert (zeros > 0) == (k % 2 == 1)

    @staticmethod
    def full_circle_witness(g, map_):
        """The witness of a full evaluation: the first zero of h, else
        _first_collision over every image, else None."""
        mu = g.domain_indices("mu")
        logs = g.circle_logs(g.sum_words(mu, map_.h_terms))
        zeros = np.flatnonzero(logs < 0)
        if zeros.size:
            return unity_mod._zero_witness(g, map_, int(zeros[0]))
        values = (logs + mu) % g.n
        coll = unity_mod._first_collision(values)
        return (None if coll is None
                else unity_mod._collision_witness(g, mu, values, coll))

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_screened_witness_is_the_full_circle_witness(self, k):
        g = unity_group(tower_field(k))
        m = math.isqrt(16 * g.n)
        rng = random.Random(2600 + k)
        maps = [PowerFormMap(f"h{case}", signed_triple(rng, g.n, case % 2))
                for case in range(40)]
        maps += [build_map(name, k) for name in PUBLIC_MAP_NAMES[1:]
                 if parity_admits(MAP_SPECS[name]["parity"], k)]
        kinds = set()
        for map_ in maps:
            rep = unity_permutation_report(map_, g)
            want = self.full_circle_witness(g, map_)
            assert rep.witness == want, map_
            assert rep.passed == (want is None)
            kinds.add((want or {}).get("type"))
            if want and want["type"] == "collision":
                kinds.add("prefix" if want["index2"] < m else "late")
        assert {None, "collision", "prefix"} <= kinds
        assert ("zero" in kinds) == (k % 2 == 1)

    def test_prefix_repeat_sums_only_the_leaders(self, monkeypatch):
        # x + x^(7(q-1)+1) - x^(14(q-1)+1) fails at k = 6 by a repeat at
        # circle index 340, inside the 500-point prefix: h is summed once,
        # at the 1,308 orbit leaders, and the prefix is filled from them
        g = unity_group(tower_field(6))
        m = math.isqrt(16 * g.n)
        summed = []
        sum_words = unity_mod.UnityGroup.sum_words

        def counting(self, indices, terms):
            summed.append(len(indices))
            return sum_words(self, indices, terms)

        monkeypatch.setattr(unity_mod.UnityGroup, "sum_words", counting)
        map_ = PowerFormMap("h", ((1, 0), (1, 7), (-1, 14)))
        rep = unity_permutation_report(map_, g)
        assert rep.witness["type"] == "collision"
        assert rep.witness["index2"] == 340 < m
        assert summed == [len(g.orbits.leaders)] == [1308]

    def test_a_zero_the_rule_misses_raises(self, monkeypatch):
        # 1 + x + x^2 vanishes at k = 5 first at zeta^(n/3), index 1042,
        # which leads the orbit {1042, 2084} of i -> 5i, so with a rule that
        # sees no zero the verdict meets it in its one sum at the leaders
        # (and the 223-point prefix has no repeat that could come first)
        g = unity_group(tower_field(5))
        m = math.isqrt(16 * g.n)
        map_ = PowerFormMap("h", ((1, 0), (1, 1), (1, 2)))
        assert unity_permutation_report(map_, g).witness == {
            "type": "zero", "x": g.csv(1042), "index": 1042}
        values, zero = unity_mod.eval_power_on_unity(map_, g, range(m))
        assert zero is None and unity_mod._first_collision(values) is None
        monkeypatch.setattr(unity_mod, "_circle_zero", lambda n, terms: None)
        with pytest.raises(RuntimeError, match="circle index 1042"):
            unity_permutation_report(map_, g)

    @pytest.mark.parametrize("terms", [((1, 0), (1, 1)),
                                       ((1, 0), (1, 1), (1, 2), (1, 3)),
                                       ((1, 0), (2, 1), (1, 2)),
                                       ((1, 0), (0, 1), (1, 2))])
    def test_power_forms_are_signed_trinomials(self, terms):
        with pytest.raises(UsageError, match="three terms"):
            PowerFormMap("h", terms)


class TestFrobeniusOrbits:
    """UnityGroup.orbits, the orbits of i -> 5i on Z/n (x -> x^5 on the
    circle), and the whole-circle verdicts that evaluate a map at the orbit
    leaders only."""

    @staticmethod
    def walked_leaders(n):
        """The least index of each orbit of i -> 5i on Z/n, for each index,
        by a plain walk."""
        lead = [None] * n
        for i in range(n):
            j = i
            while lead[j] is None:
                lead[j] = i
                j = j * 5 % n
        return lead

    @pytest.mark.parametrize("k", range(1, 7))
    def test_orbits(self, k):
        g = unity_group(tower_field(k))
        n, (leaders, orbit, power) = g.n, g.orbits
        assert (np.diff(leaders) > 0).all() and leaders[0] == 0
        assert (orbit[leaders] == np.arange(len(leaders))).all()
        assert (power * leaders[orbit] % n == np.arange(n)).all()
        assert set(power.tolist()) <= {pow(5, j, n) for j in range(2 * k)}
        # each leader is the least index of its orbit, which closes after
        # 2k steps since 5^(2k) = 1 mod n
        step = leaders
        for _ in range(2 * k):
            step = step * 5 % n
            assert (step >= leaders).all()
        assert (step == leaders).all()
        if k <= 3:
            walked = self.walked_leaders(n)
            assert leaders.tolist() == sorted(set(walked))
            assert leaders[orbit].tolist() == walked
        else:
            assert len(leaders) == {4: 80, 5: 316, 6: 1308}[k]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_leader_fill_is_the_full_circle(self, k):
        # f(x^5) = f(x)^5 for every map with GF(5) coefficients: the images
        # at the leaders, filled over the orbits, are the full evaluation,
        # and the first zero or pole is a leader's
        g = unity_group(tower_field(k))
        orbits, mu = g.orbits, g.domain_indices("mu")
        rng = random.Random(2800 + k)
        maps = [build_map(name, k) for name, spec in MAP_SPECS.items()
                if parity_admits(spec["parity"], k)] + [x_plus(1), x_plus(2)]
        maps += [reciprocal_map(m) for m in maps]       # 1/(x+1): a pole
        maps += [PowerFormMap(f"h{case}", signed_triple(rng, g.n, case % 2))
                 for case in range(30)]
        kinds = set()
        for map_ in maps:
            full, bad = eval_on_unity(map_, g, mu)
            images, lead_bad = eval_on_unity(map_, g, orbits.leaders)
            assert lead_bad == bad, map_
            if full is None:
                kinds.add(type(map_).__name__)
            elif (full < 0).any():
                kinds.add("escape")
                filled = np.where(images[orbits.orbit] < 0, -1,
                                  orbits.fill(images))
                assert filled.tolist() == full.tolist(), map_
            else:
                assert orbits.fill(images).tolist() == full.tolist(), map_
                assert orbits.fill(images, 40).tolist() == full[:40].tolist()
        # zeros of h need a point of order 3 on the circle: odd k only
        assert {"ClosedFormMap", "escape"} <= kinds
        assert ("PowerFormMap" in kinds) == (k % 2 == 1)

    @pytest.mark.parametrize("k, every", [(1, 1), (2, 7)])
    def test_pass_rule_on_signed_trinomials(self, k, every):
        # h = t0 + t1 + t2 over every (every-th) triple of signed terms,
        # the images of x*h(x)^(q-1) in one broadcast per t0
        g = unity_group(tower_field(k))
        n, orbits, i = g.n, g.orbits, np.arange(g.n)
        signed = [(s, c) for s in (1, -1) for c in range(n)]
        words = np.array([g.words[(c * i + (s < 0) * (n // 2)) % n]
                          for s, c in signed])
        checked = passed = 0
        for a, w0 in enumerate(words):
            logs = g.circle_logs(w0 + words[:, None] + words[None, :])
            images = ((logs + i) % n).reshape(-1, n)
            zero = (logs < 0).reshape(-1, n).any(axis=1)
            ranked = np.sort(images, axis=1)
            want = ~zero & (ranked[:, 1:] != ranked[:, :-1]).all(axis=1)
            start = -a * len(signed) ** 2 % every
            for row in range(start, len(images), every):
                if zero[row]:
                    continue
                got = orbits.permutes(images[row, orbits.leaders])
                assert got == want[row], (signed[a], row)
                checked += 1
                passed += got
        assert checked > 0 and 0 < passed < checked

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_pass_rule_on_seeded_trinomials_and_families(self, k):
        g = unity_group(tower_field(k))
        orbits, mu = g.orbits, g.domain_indices("mu")
        rng = random.Random(2900 + k)
        maps = [PowerFormMap(f"h{case}", signed_triple(rng, g.n, False))
                for case in range(40)]
        families = [induced_mu_map(theorem_family(fid, k))
                    for fid in FAMILY_IDS if family_admits(fid, k)]
        outcomes = []
        for map_ in maps + families:
            full, zero = unity_mod.eval_power_on_unity(map_, g, mu)
            if full is None:
                continue
            want = bool(np.bincount(full, minlength=g.n).max() <= 1)
            images, _ = unity_mod.eval_power_on_unity(map_, g,
                                                      orbits.leaders)
            assert orbits.permutes(images) == want, map_
            outcomes.append(want)
        assert outcomes.count(True) >= len(families) > 0
        assert False in outcomes

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reciprocal_identity_on_leaders_is_the_full_report(self, k):
        # the same report as a comparison at every index: index arrays that
        # are not the group's mu take the full path
        g = unity_group(tower_field(k))
        full = np.arange(g.n)
        names = [name for name in PUBLIC_MAP_NAMES
                 if parity_admits(MAP_SPECS[name]["parity"], k)]
        names += ["half_f", "g1_plus", "conj2_map" if k % 2 == 0
                  else "p1_bridge"]
        kinds = set()
        for a in names:
            for b in names:
                rep = reciprocal_identity_report(a, b, k)
                ref = pointwise_agreement_report(
                    rep.subject, g, build_map(a, k), full,
                    reciprocal_map(build_map(b, k)), full)
                assert (rep.as_dict(with_elapsed=False)
                        == ref.as_dict(with_elapsed=False)), (a, b)
                kinds.add((rep.witness or {}).get("type"))
        assert {None, "mismatch"} <= kinds
