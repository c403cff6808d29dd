"""Circle enumeration, the map catalog, permutation checks and claims."""

import math

import numpy as np
import pytest

from niho_perm.errors import PoleError, ResidueError, UsageError
from niho_perm.field import make_field, tower_field
from niho_perm.unity import (MAP_SPECS, OMEGA_SPECIALIZATIONS,
                             ClosedFormMap, PowerFormMap, build_map,
                             check_circle_claim, eval_map, eval_on_unity,
                             is_permutation_of, maps_agree_report,
                             mu_check_report, reciprocal_identity_report,
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
    assert g.members(range(g.n)) == powers
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
    # the circle verdicts read log mod n from one table
    assert (g.ctn[g.la[a] - g.lb[b]] == np.where(logs < 0, -1, logs % g.n)).all()
    for x, y, log in zip(a.tolist(), b.tolist(), logs.tolist()):
        elem = [field.zero, field.zero]
        for pos, idx in enumerate((x, y)):
            for j, d in enumerate(sub.digits(idx)):
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
        assert len({x.handle for x in mu6.members(range(mu6.n))}) == 6

    def test_power_order_listing(self, mu6):
        listed = [mu6.element(i).digits for i in range(6)]
        assert listed == [(1, 0), (2, 2), (1, 2), (4, 0), (3, 3), (4, 3)]

    def test_omega_split(self, mu6):
        plus = {mu6.element(i).digits for i in mu6.omega_plus}
        minus = {mu6.element(i).digits for i in mu6.omega_minus}
        assert plus == {(1, 0), (1, 2), (3, 3)}
        assert minus == {(-mu6.element(i)).digits for i in mu6.omega_plus}
        assert plus | minus == {mu6.element(i).digits for i in range(6)}
        assert not plus & minus

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_omega_plus_two_characterizations(self, k):
        g = unity_group(tower_field(k))
        field = g.field
        handles = [g.handle(i) for i in range(g.n)]
        squares = {field.kernel.mul(h, h) for h in handles}
        by_power = {h for h in handles
                    if field.kernel.pow(h, g.n // 2) == field.kernel.one}
        assert squares == by_power
        assert squares == {g.handle(i) for i in g.omega_plus}

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
            assert not g.contains_handle(two.handle)
            assert not g.contains_handle((-two).handle)

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
        assert eval_map(g1, mu6.field.one) == mu6.field.one

    def test_half_f_values(self, mu6):
        f = build_map("half_f", 1)
        one = mu6.field.one
        assert eval_map(f, one) == one
        assert eval_map(f, -one) == -one

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
                    assert eval_map(map_, x).is_zero, (name, k, bad)
                except PoleError:
                    pass
                idx.remove(bad)
                vals, bad = eval_on_unity(map_, g, idx)
            for pos, i in enumerate(idx):
                scalar = eval_map(map_, g.element(i))
                if vals[pos] < 0:
                    assert not g.contains_handle(scalar.handle), (name, k, i)
                else:
                    assert g.handle(vals[pos]) == scalar.handle, (name, k, i)

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
        assert eval_map(shift, x).csv() == wit["image"]
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
                    == np.where(got < 0, -1, got % n)).all(), terms

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
        assert g._words is None
        g.sum_logs(range(3), ((1, 1),))
        assert g._words.dtype == np.uint64 and g._words.shape == (g.n,)

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
        # the verdict sorts circle indices as uint16 (a radix sort); the
        # witness must be the one an int64 sort gives
        n = 5 ** k + 1
        rng = np.random.default_rng(k)
        for values in (rng.integers(0, n, n), rng.permutation(n),
                       np.where(np.arange(n) < n - 1, np.arange(n), 0),
                       rng.integers(0, n // 2, n) * 2, np.full(n, n - 1),
                       np.arange(n)[:1], np.arange(n)[:0]):
            want = unity_mod._first_collision(values)
            assert unity_mod._first_collision(values.astype(np.uint16)) == want
            if n <= 200:
                assert want == self.brute_first_collision(list(values))


class TestPermutationChecker:
    def test_identity_passes(self, mu6):
        rep = is_permutation_of(mu6.members(range(6)), lambda x: x)
        assert rep.passed

    def test_square_map_fails_with_collision(self, mu6):
        rep = is_permutation_of(mu6.members(range(6)), lambda x: x * x)
        assert not rep.passed
        assert rep.witness["type"] == "collision"
        # replay: both witnesses square to the same value
        x1 = mu6.field.from_csv(rep.witness["x1"])
        x2 = mu6.field.from_csv(rep.witness["x2"])
        assert x1 * x1 == x2 * x2

    def test_escape_detected(self, mu6):
        rep = is_permutation_of(mu6.members(range(6)), lambda x: x + 1)
        assert not rep.passed
        assert rep.witness["type"] == "escape"

    def test_pole_reported_not_raised(self, mu6):
        bad = ClosedFormMap(name="polar", sign=1, pre_exp=0,
                            num=((1, 0),), den=((1, 1), (4, 0)), outer=1)
        rep = is_permutation_of(mu6.members(range(6)), bad)
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
        assert g.contains_handle((-x).handle)

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
        members = {g.handle(i) for i in g.domain_indices(dom)}
        for i in g.domain_indices(dom):
            assert eval_map(fmap, g.element(i)).handle in members

    def test_zero_witness_of_vanishing_h(self, mu6):
        from niho_perm.unity import PowerFormMap
        # 1 + y^2 + y^4 vanishes at zeta on the 6-circle
        pf = PowerFormMap(name="vanishing", h_terms=((1, 0), (1, 2), (1, 4)))
        rep = unity_permutation_report(pf, mu6, "mu")
        assert not rep.passed
        assert rep.witness["type"] == "zero"
        assert rep.witness["x"] == "2,2"
