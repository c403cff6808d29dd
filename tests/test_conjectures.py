"""Conjecture sweeps, the trace/norm profile chain, conditional families,
and the search harness."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from niho_perm import conjectures
from niho_perm.cli import main
from niho_perm.errors import GuardExceededError, PoleError, UsageError
from niho_perm.conjectures import (CONSTRAINTS, ProfileMismatchError,
                                   SearchHit, conjecture1_check,
                                   conjecture2_check, profile_of,
                                   profile_sweep_report, proposition_check,
                                   quartic_obstruction_report,
                                   search_problem_instances,
                                   subfield_stability_report, _patterns_of,
                                   _quartic_report, _search_chunk,
                                   _search_tables, _SearchTables)
from niho_perm.field import in_subfield, make_field, norm, tower_field, trace
from niho_perm.trinomials import (build_trinomial,
                                  exhaustive_permutation_report, field_values,
                                  induced_mu_map, is_permutation_exhaustive,
                                  is_permutation_via_criterion, theorem_family)
from niho_perm.report import VerificationReport
from niho_perm.unity import (ClosedFormMap, UnityGroup, build_map,
                             maps_agree_report, pointwise_agreement_report,
                             unity_group)
from fresh_interpreter import run_python


class TestConjecture1:
    def test_k1_map_table(self):
        # x*((x^2-x+2)/(x^2+x+2))^2 on GF(5) is 0,4,3,2,1 at 0..4
        f = make_field(1)
        got = {}
        for c in range(5):
            x = f.scalar(c)
            num = x * x - x + 2
            den = x * x + x + 2
            got[c] = (x * (num / den) ** 2).digits[0]
        assert got == {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}

    def test_square_class_example(self):
        # conjecture1_check reads the square class off the log's parity:
        # squares sit at even logs.  1 is a square and maps to 4 = 2^2,
        # still a square; 2 is not a square
        for k in (1, 3):
            f = make_field(k)
            logt = f.accel_tables.logt
            squares = {(x * x).index for x in f.elements() if not x.is_zero}
            assert all((h in squares) == (logt[h] % 2 == 0)
                       for h in range(1, f.order))
            assert [logt[f.scalar(c).index] % 2
                    for c in (1, 4, 2)] == [0, 0, 1]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_verified_range(self, k):
        rep = conjecture1_check(k)
        assert rep.passed
        assert rep.counts["elements"] == 5 ** k
        assert rep.counts["square_class_stable"] == 1

    def test_even_k_rejected(self):
        with pytest.raises(UsageError, match="odd"):
            conjecture1_check(2)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            conjecture1_check(9)


def _frobenius_walk(log, n1):
    """The orbit leader of log under L -> 5L mod n1 (x -> x^5 on logs) and
    the j with log = 5^j * leader, by a plain walk."""
    orbit = [log]
    while orbit[-1] * 5 % n1 != log:
        orbit.append(orbit[-1] * 5 % n1)
    leader = min(orbit)
    walk = [leader]
    while walk[-1] != log:
        walk.append(walk[-1] * 5 % n1)
    return leader, len(walk) - 1


def _oracle_collision(field, images):
    """The oracle's collision witness over images, the scalar values at
    0, g^0, g^1, ...: the repeated value of smallest element index, and
    its first two points."""
    points = {}
    for pos, fx in enumerate(images):
        points.setdefault(fx.index, []).append(pos)
    value = min(v for v, ps in points.items() if len(ps) > 1)
    x1, x2 = (field.zero if p == 0 else field.generator ** (p - 1)
              for p in points[value][:2])
    return {"type": "collision", "x1": x1.csv(), "x2": x2.csv(),
            "value": field.from_index(value).csv()}


class TestConjecture1Witnesses:
    """Failure paths the conjecture never reaches at odd k <= 8: the GF(5^k)
    kernel's batch logs, which the sweep takes at the Frobenius orbit
    leaders, are corrupted at the leaders in positions J and J + 5 (J and
    J + 1 for the class swap), so whole orbits fail, as they must for a map
    with GF(5) coefficients.  The witness must be the first failing x in
    log order, replayed by scalar evaluation of x*((x^2-x+2)/(x^2+x+2))^2
    at each orbit's leader under the same corruption, carried over the
    orbit by x -> x^5; elsewhere the logs are the true ones, which pass."""

    J = 13

    @staticmethod
    def _corrupt(monkeypatch, kern, method, edit):
        true = getattr(kern, method)

        def corrupted(arg):
            out = true(arg).copy()
            edit(arg, out)
            return out
        monkeypatch.setattr(kern, method, corrupted)

    @staticmethod
    def _image(field, log):
        """x*((x^2-x+2)/(x^2+x+2))^2 at x = g^log, by scalar arithmetic."""
        x = field.generator ** log
        return x * ((x * x - x + 2) / (x * x + x + 2)) ** 2

    def _leaders(self, field, *positions):
        """The leaders at these positions, each of a full orbit of k logs."""
        orbits = field.accel_tables.orbits
        leaders = [int(orbits.leaders[p]) for p in positions]
        assert np.bincount(orbits.orbit)[list(positions)].tolist() == \
            [field.m] * len(positions)
        return leaders

    def _replay(self, field, lead_image, log):
        """The corrupted map at g^log: its image at the orbit's leader
        (lead_image), to the power 5^j for log = 5^j * leader."""
        leader, j = _frobenius_walk(log, field.order - 1)
        return lead_image(leader) ** (5 ** j)

    @pytest.mark.parametrize("k", [3, 5])
    def test_pole(self, monkeypatch, k):
        field = make_field(k)
        bad = [self.J, self.J + 5]
        poles = self._leaders(field, *bad)

        def edit(terms, out):
            if terms[1][0] == 1:            # the denominator x^2 + x + 2
                out[bad] = -1
        self._corrupt(monkeypatch, field.accel_tables, "log_sum", edit)
        rep = conjecture1_check(k)
        for log in range(field.order - 1):
            x = field.generator ** log
            if (x * x + x + 2).is_zero or \
                    _frobenius_walk(log, field.order - 1)[0] in poles:
                break
        assert log == poles[0]
        assert rep.witness == {"type": "pole", "x": x.csv()}
        assert rep.counts == {"elements": field.order}

    @pytest.mark.parametrize("k", [3, 5])
    def test_collision(self, monkeypatch, k):
        # orbit J + 5 takes orbit J's images: k values repeat
        field = make_field(k)
        first, copy = self._leaders(field, self.J, self.J + 5)

        def edit(_, out):
            out[self.J + 5] = out[self.J]
        self._corrupt(monkeypatch, field.accel_tables, "log_product", edit)
        rep = conjecture1_check(k)

        def lead_image(leader):
            return self._image(field, first if leader == copy else leader)
        images = [field.zero] + [self._replay(field, lead_image, log)
                                 for log in range(field.order - 1)]
        seen = set()
        for log, fx in enumerate(images[1:]):
            if fx in seen:
                break
            seen.add(fx)
        assert log == copy                  # the first repeat is a leader
        assert rep.witness == _oracle_collision(field, images)
        assert rep.counts == {"elements": field.order}

    def _zero_at(self, monkeypatch, field, position):
        """Corrupt the leader at position to a zero image: a nonzero x sent
        to 0 collides with x = 0, which maps to 0, and the whole orbit of
        the leader goes to 0, first at the leader."""
        zero = int(field.accel_tables.orbits.leaders[position])

        def edit(_, out):
            out[position] = -1
        self._corrupt(monkeypatch, field.accel_tables, "log_product", edit)
        rep = conjecture1_check(field.m)

        def lead_image(leader):
            return field.zero if leader == zero else self._image(field, leader)
        for log in range(field.order - 1):
            if self._replay(field, lead_image, log).is_zero:
                break
        assert log == zero
        assert rep.witness == {"type": "collision", "x1": field.zero.csv(),
                               "x2": (field.generator ** log).csv(),
                               "value": field.zero.csv()}

    @pytest.mark.parametrize("k", [3, 5])
    def test_zero_image(self, monkeypatch, k):
        self._zero_at(monkeypatch, make_field(k), self.J)

    @pytest.mark.parametrize("k", [3, 5])
    def test_zero_image_is_not_read_as_a_log(self, monkeypatch, k):
        # the leader whose true image lies in the orbit of log n1 - 1: a -1
        # read as a log would take that orbit, and the rule would pass
        field = make_field(k)
        orbits, logt = field.accel_tables.orbits, field.accel_tables.logt
        last = orbits.orbit[field.order - 2]
        position = next(
            p for p, leader in enumerate(orbits.leaders.tolist())
            if orbits.orbit[logt[self._image(field, leader).index]] == last)
        self._zero_at(monkeypatch, field, position)

    @pytest.mark.parametrize("k", [3, 5])
    def test_class_escape(self, monkeypatch, k):
        # two orbits of k logs trade images: still a permutation, but the
        # leaders differ in parity, so each orbit leaves its square class
        field = make_field(k)
        a, b = self._leaders(field, self.J, self.J + 1)
        swap = {a: b, b: a}

        def edit(_, out):
            out[[self.J, self.J + 1]] = out[[self.J + 1, self.J]]
        self._corrupt(monkeypatch, field.accel_tables, "log_product", edit)
        rep = conjecture1_check(k)

        def square(y):
            return y ** ((field.order - 1) // 2) == field.one

        def lead_image(leader):
            return self._image(field, swap.get(leader, leader))
        for log in range(field.order - 1):
            x = field.generator ** log
            if square(x) != square(self._replay(field, lead_image, log)):
                break
        assert log == a
        assert rep.witness == {"type": "class_escape", "x": x.csv()}


class TestConjecture2:
    @pytest.mark.parametrize("k", [2, 4])
    def test_verified_range(self, k):
        rep = conjecture2_check(k)
        assert rep.passed
        assert rep.counts["points"] == 5 ** k + 1

    def test_odd_k_rejected(self):
        with pytest.raises(UsageError, match="even"):
            conjecture2_check(3)

    def test_k_above_tower_limit(self):
        with pytest.raises(UsageError, match=r"k must be an integer in 1\.\.6"):
            conjecture2_check(8)

    def test_value_at_one(self):
        # -1*((1-2)/(1+2))^2 = 1: well defined, no pole
        f = tower_field(2)
        assert build_map("conj2_map", 2).eval_at(f.one) == f.one


class TestProfileChain:
    def test_worked_instance(self):
        f = tower_field(1)
        w = f.generator
        p = profile_of(w)
        assert (p.a, p.b) == (f.one, f.scalar(2))
        assert (p.alpha, p.beta) == (f.scalar(2), f.scalar(3))
        assert (p.r, p.gamma) == (f.scalar(3), f.scalar(3))

    def test_alpha_zero_when_trace_zero(self):
        f = tower_field(1)
        pts = [x for x in f.elements()
               if trace(x).is_zero and not x.is_zero]
        assert pts
        for x in pts:
            assert profile_of(x).alpha.is_zero

    def test_subfield_point_rejected(self):
        f = tower_field(1)
        with pytest.raises(UsageError, match="outside"):
            profile_of(f.one)

    def test_even_k_rejected(self):
        f = tower_field(2)
        with pytest.raises(UsageError, match="odd"):
            profile_of(f.generator)

    @pytest.mark.parametrize("k", [1, 3])
    def test_sweep(self, k):
        rep = profile_sweep_report(k)
        assert rep.passed
        assert rep.counts["points"] == 5 ** (2 * k) - 5 ** k

    def test_scalar_sweep_matches_batch_at_k1(self):
        # every off-subfield point passes the scalar chain without raising
        f = tower_field(1)
        from niho_perm.field import in_subfield
        count = 0
        for x in f.elements():
            if x.is_zero or in_subfield(x):
                continue
            profile_of(x)
            count += 1
        assert count == 20


def _profile_failure(x, fx):
    """The first check of the profile chain that fails at x with image fx,
    in the sweep's order, by scalar FieldElement arithmetic; None if all
    hold."""
    if fx.is_zero:
        return "zero_image"
    a, b = trace(x), norm(x)
    r = a * a / b
    alpha_f = a * (3 + r - r * r)
    beta_f = b * (1 - r ** 4 - 2 * r ** 3 + r)
    if trace(fx) != alpha_f or norm(fx) != beta_f:
        return "route_mismatch"
    den = r * r + r + 2
    if den.is_zero:
        return "pole"
    if trace(fx) ** 2 / norm(fx) != -(r * ((r * r - r + 2) / den) ** 2):
        return "gamma_mismatch"
    return None


def _stability_failure(x, fx):
    return "subfield_image" if fx.is_zero or in_subfield(fx) else None


class TestCorruptedImages:
    """Failure paths no real input reaches: the P1 image at the
    off-subfield orbit leaders in positions J and J + 5 is corrupted, first
    to zero, then to a wrong nonzero value (1, which also lies in the
    subfield), so that x -> x^5 carries it over both orbits; images are
    logs, -1 for zero.  The witness must be the first failing point in log
    order over every point off the subfield, by scalar arithmetic on the
    image replayed from its orbit's leader; elsewhere the image is the true
    one, which passes (TestProfileChain, TestPropositions)."""

    J = 3           # k = 1 has 10 off-subfield leaders

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("sweep, replay", [
        (profile_sweep_report, _profile_failure),
        (subfield_stability_report, _stability_failure)])
    def test_witness_is_first_failure(self, k, value, sweep, replay):
        field = tower_field(k)
        n1, q = field.order - 1, field.q
        off, lf = conjectures._p1_image_off_subfield(field)
        bad = {int(off[self.J]), int(off[self.J + 5])}
        corrupt = lf.copy()
        corrupt[[self.J, self.J + 5]] = field.kernel.logt[value]
        rep = sweep(k, image=(off, corrupt))
        assert not rep.passed
        lead_image = dict(zip(off.tolist(), lf.tolist()))
        for log in range(n1):
            if log * q % n1 == log:          # x in the subfield
                continue
            x = field.generator ** log
            leader, j = _frobenius_walk(log, n1)
            fx = (field.scalar(value) if leader in bad
                  else field.generator ** lead_image[leader]) ** (5 ** j)
            kind = replay(x, fx)
            if kind is not None:
                break
        assert log == off[self.J]
        assert rep.witness == {"type": kind, "x": x.csv()}
        assert rep.counts == {"points": q * q - q}


class TestLeaderSweeps:
    """The whole-field sweeps at the Frobenius orbit leaders give the
    reports of test-side sweeps over every log."""

    @staticmethod
    def conjecture1_full(k):
        """conjecture1_check's report, and the image logs, from a sweep
        over every log of GF(5^k), where the conjecture holds."""
        field = make_field(k)
        kern, subject = field.accel_tables, conjecture1_check(k).subject
        n1 = kern.n1
        logs = np.arange(n1, dtype=np.int64)
        num = kern.log_sum(((1, 2 * logs % n1), (-1, logs), (2, 0)))
        den = kern.log_sum(((1, 2 * logs % n1), (1, logs), (2, 0)))
        assert den.min() >= 0                       # no pole at odd k
        images = kern.log_product(((logs, 1), (num, 2), (den, -2)))
        assert exhaustive_permutation_report(
            field, np.concatenate(([-1], images)), subject).passed
        assert (logs % 2 == images % 2).all()       # no class escape
        return VerificationReport(
            subject=subject, method="exhaustive", passed=True,
            counts={"elements": field.order, "square_class_stable": 1},
            notes=["0 fixed; square and non-square classes each map into "
                   "themselves"]), images

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_conjecture1_is_the_full_sweep(self, k):
        want, images = self.conjecture1_full(k)
        orbits = make_field(k).accel_tables.orbits
        assert orbits.fill(images[orbits.leaders]).tolist() == images.tolist()
        assert conjecture1_check(k).as_dict(False) == want.as_dict(False)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("sweep", [profile_sweep_report,
                                       subfield_stability_report])
    def test_p1_sweeps_are_the_full_sweeps(self, k, sweep):
        # the leaders' sweep against the same checks at every point off
        # the subfield, on the true images and on images corrupted over
        # whole orbits of 2k logs (x -> x^5 carries a leader's image)
        field = tower_field(k)
        n1, q = field.order - 1, field.q
        off, lf = conjectures._p1_image_off_subfield(field)
        vals = field_values(field, theorem_family("P1", k).monomials)
        assert lf.tolist() == vals[off + 1].tolist()
        every = [log for log in range(n1) if log * q % n1 != log]
        walks = [_frobenius_walk(log, n1) for log in every]
        # a leader of an orbit smaller than 2k keeps its true image: only
        # a full orbit takes any image consistently
        sizes = Counter(leader for leader, _ in walks)
        small = [leader for leader, size in sizes.items() if size < 2 * k]
        rng = np.random.default_rng(2900 + k)
        outcomes = []
        for case in range(12):
            lead = dict(zip(off.tolist(), lf.tolist()))
            if case:        # zero, a subfield point, or any point
                for p in rng.choice(len(off), 2, replace=False):
                    lead[int(off[p])] = int(
                        (-1, (q + 1) * rng.integers(q - 1),
                         rng.integers(n1))[case % 3])
            for leader in small:
                lead[leader] = int(vals[leader + 1])
            full = [-1 if lead[leader] < 0 else lead[leader] * 5 ** j % n1
                    for leader, j in walks]
            want = sweep(k, image=(np.array(every), np.array(full)))
            got = sweep(k, image=(off, np.array([lead[x] for x in
                                                 off.tolist()])))
            assert got.as_dict(False) == want.as_dict(False), case
            outcomes.append(got.passed)
        assert outcomes[0] and outcomes.count(False) >= 6


class TestPropositions:
    @pytest.mark.parametrize("k", [1, 3])
    def test_p1(self, k):
        rep = proposition_check("P1", k)
        assert rep.passed

    def test_p1_evaluates_the_field_once(self, monkeypatch):
        calls = []
        values = conjectures.field_values
        monkeypatch.setattr(conjectures, "field_values",
                            lambda *a: calls.append(a) or values(*a))
        assert proposition_check("P1", 3).passed
        assert len(calls) == 1

    def test_p1_coincides_with_t1_at_k1(self):
        assert theorem_family("P1", 1).terms == theorem_family("T1", 1).terms

    @pytest.mark.parametrize("k", [2])
    def test_p2(self, k):
        rep = proposition_check("P2", k)
        assert rep.passed

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_p2_compares_at_the_leaders(self, monkeypatch, k):
        # g10 at 3 * leaders against the closed form at the leaders: the
        # report of the comparison at every point, counts n included
        calls = []
        agree = conjectures.pointwise_agreement_report

        def recording(*args):
            calls.append((args, agree(*args)))
            return calls[-1][1]
        monkeypatch.setattr(conjectures, "pointwise_agreement_report",
                            recording)
        assert proposition_check("P2", k).passed
        ((subject, group, g10, idx_a, bridge, idx_b), got), = calls
        n, leaders = group.n, group.orbits.leaders
        assert idx_b is leaders
        assert idx_a.tolist() == (3 * leaders % n).tolist()
        mu = np.arange(n)
        want = agree(subject, group, g10, 3 * mu % n, bridge, mu)
        assert got.as_dict(False) == want.as_dict(False)
        assert got.counts == {"points": n}
        # a wrong closed form fails first at a leader
        wrong = build_map("half_f_inv", k)
        failed = agree("wrong", group, g10, 3 * mu % n, wrong, mu)
        assert failed.witness["type"] == "mismatch"
        assert agree("wrong", group, g10, 3 * leaders % n, wrong,
                     leaders).witness == failed.witness

    def test_p2_exponents_at_k2(self):
        f = theorem_family("P2", 2)
        assert f.exponents == (1, 241, 433)
        assert is_permutation_exhaustive(f).passed

    @pytest.mark.parametrize("k", [1, 3])
    def test_stability_fact(self, k):
        assert subfield_stability_report(k).passed

    @pytest.mark.parametrize("k", [1, 3])
    def test_quartic_obstruction(self, k):
        rep = quartic_obstruction_report(k)
        assert rep.passed
        assert "gcd(13, q+1) = 1" in rep.notes[0]

    def test_quartic_root_witness_replays(self):
        # at k=2, 13 divides q+1 = 26, so the quartic has circle roots
        group = unity_group(tower_field(2))
        rep = _quartic_report(group)
        assert not rep.passed
        wit = rep.witness
        assert wit["type"] == "root" and wit["gcd_13"] == 13
        assert isinstance(wit["index"], int)
        x = group.field.from_csv(wit["x"])
        assert x == group.element(wit["index"])
        assert (x ** 4 + 2 * x ** 3 + x ** 2 + 2 * x + 1).is_zero

    def test_quartic_gcd_witness(self, monkeypatch):
        group = unity_group(tower_field(2))
        # no circle root: every log of the quartic's values is >= 0
        monkeypatch.setattr(UnityGroup, "sum_logs",
                            lambda g, idx, terms: np.zeros(g.n, dtype=np.int64))
        rep = _quartic_report(group)
        assert not rep.passed
        assert rep.witness == {"type": "gcd", "gcd_13": 13}

    @pytest.mark.parametrize("k", [1, 3])
    def test_circle_bridge(self, k):
        # the induced circle map of P1 equals its closed form pointwise
        f = theorem_family("P1", k)
        group = unity_group(f.field)
        rep = maps_agree_report(induced_mu_map(f), build_map("p1_bridge", k),
                                group, "mu")
        assert rep.passed

    @pytest.mark.parametrize("k", [2, 4])
    def test_p2_witness_replays(self, k):
        # the P2 comparison with a wrong closed form: g10(x^3) vs -x^-1
        group = unity_group(tower_field(k))
        n = group.n
        g10, wrong = build_map("g10", k), build_map("half_f_inv", k)
        rep = pointwise_agreement_report(
            "g10 after the cube map vs a wrong closed form", group,
            g10, [(3 * i) % n for i in range(n)], wrong, range(n))
        assert not rep.passed
        wit = rep.witness
        assert wit["type"] == "mismatch"
        x = group.field.from_csv(wit["x"])
        assert x == group.element(wit["index"])
        assert g10.eval_at(x ** 3) != wrong.eval_at(x)
        # a pole is reported at its own circle point
        polar = ClosedFormMap(name="polar", sign=1, pre_exp=0,
                              num=((1, 0),), den=((1, 1), (4, 0)), outer=1)
        rep = pointwise_agreement_report("pole", group, g10,
                                         range(n), polar, range(n))
        assert rep.witness["type"] == "zero_or_pole"
        x = group.field.from_csv(rep.witness["x"])
        with pytest.raises(PoleError):
            polar.eval_at(x)

    def test_parity_guards(self):
        with pytest.raises(UsageError):
            proposition_check("P1", 2)
        with pytest.raises(UsageError):
            proposition_check("P2", 3)
        with pytest.raises(UsageError):
            proposition_check("P9", 1)


def run_search_cli(capsys, k, threads=None):
    argv = ["search", "--k", str(k)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _meets(constraint, s, t, n) -> bool:
    """The search constraints by their definitions: none, s + t = 0 or
    s + t = (q+1)/2 mod n = q+1."""
    return {"none": True, "sum_zero": (s + t) % n == 0,
            "sum_half": (s + t) % n == n // 2}[constraint]


class TestSearch:
    def test_sum_zero_contains_known_pair(self):
        hits = search_problem_instances(1, "sum_zero", "+-")
        assert SearchHit(2, 4, "+", "-") in hits
        # 2 + 4 = 6 = 0 mod 6, so the pair lands in sum_zero, not sum_half
        half = search_problem_instances(1, "sum_half", "+-")
        assert SearchHit(2, 4, "+", "-") not in half

    def test_every_hit_passes_the_oracle(self):
        for h in search_problem_instances(1, "none", "all"):
            sign = {"+": 1, "-": -1}
            f_terms = [(1, 0), (sign[h.sign1], h.s), (sign[h.sign2], h.t)]
            from niho_perm.trinomials import build_trinomial
            assert is_permutation_exhaustive(
                build_trinomial(1, f_terms)).passed, h

    def test_canonical_order(self):
        hits = search_problem_instances(2, "none", "all")
        assert hits == sorted(hits)

    def test_empty_result_is_a_list(self):
        # restricting the s-range between hits exercises the empty path
        hits = _search_chunk((2, 5, 6, "sum_zero", ((1, -1),)))
        assert hits == []

    def test_worker_count_does_not_change_output(self):
        # a "+-" or "-+" worker emits mirrored hits outside its own s-range;
        # only the sorted merge keeps the output the same
        for constraint in CONSTRAINTS:
            for signs in ("all", "+-", "-+"):
                a = search_problem_instances(2, constraint, signs, threads=1)
                b = search_problem_instances(2, constraint, signs, threads=3)
                assert a == b, (constraint, signs)

    def test_hits_match_per_candidate_verdicts(self):
        # every (s, t, pattern) of the square on its own, by the criterion
        # and by the exhaustive oracle; the search's hits under each
        # constraint and sign set are exactly the passing candidates
        sign = {"+": 1, "-": -1}
        for k in (1, 2):
            n = 5 ** k + 1
            passing = set()
            for s in range(n):
                for t in range(n):
                    for l1, l2 in _patterns_of("all"):
                        f = build_trinomial(k, [(1, 0), (l1, s), (l2, t)])
                        crit = is_permutation_via_criterion(f).passed
                        assert crit == is_permutation_exhaustive(f).passed
                        if crit:
                            passing.add(SearchHit(s, t, "+-"[l1 < 0],
                                                  "+-"[l2 < 0]))
            for constraint in CONSTRAINTS:
                for signs in ("all", "++", "+-", "-+", "--"):
                    patterns = _patterns_of(signs)
                    want = sorted(
                        h for h in passing
                        if _meets(constraint, h.s, h.t, n)
                        and (sign[h.sign1], sign[h.sign2]) in patterns)
                    got = _search_chunk((k, 0, n, constraint, patterns))
                    assert got == want, (k, constraint, signs)

    def test_zero_marker_survives_the_wrap(self):
        # the group's ctn is -2n where h = 0, and stays negative plus a
        # point and wrapped (test_unity checks it at k = 1..6), so a row
        # with a zero of h sorts it first and fails.  At k=1, 10 of the 14
        # rows with a zero have otherwise distinct images: only the marker
        # fails them.
        g = unity_group(tower_field(1))
        tabs = _search_tables(g)
        n = g.n
        s, t = np.divmod(np.arange(n * n), n)
        every = np.arange(n, dtype=np.int32)
        i, j = (np.outer(x, every) % n for x in (s, t))
        zeros = 0
        for l1, l2 in _patterns_of("all"):
            distinct = tabs._distinct(tabs.rows(l1)[0], tabs.rows(l2)[0],
                                      i, j, every)
            for c in range(n * n):
                f = build_trinomial(1, [(1, 0), (l1, int(s[c])),
                                        (l2, int(t[c]))])
                rep = is_permutation_via_criterion(f)
                assert distinct[c] == rep.passed, (int(s[c]), int(t[c]))
                zeros += not rep.passed and rep.witness["type"] == "zero"
        assert zeros == 14

    def test_sample_survivors_that_fail(self):
        # seeded k=4 candidates whose images are distinct and nonzero at
        # the sampled points but not over the whole circle: no hits
        g = unity_group(tower_field(4))
        tabs = _search_tables(g)
        rng = np.random.default_rng(4)
        s, t = rng.integers(0, g.n, size=(2, 4000))
        false_survivors = 0
        for l1, l2 in _patterns_of("all"):
            keep = np.flatnonzero(tabs._distinct(
                tabs.rows(l1)[1], tabs.rows(l2)[1], s, t, tabs.points))
            hits = set(tabs.hits(s, t, l1, l2).tolist())
            assert hits <= set(keep.tolist())
            for j in keep.tolist():
                f = build_trinomial(4, [(1, 0), (l1, int(s[j])),
                                        (l2, int(t[j]))])
                passed = is_permutation_via_criterion(f).passed
                assert (j in hits) == passed, (int(s[j]), int(t[j]), l1, l2)
                false_survivors += not passed
        assert false_survivors >= 3

    def test_warm_search_allocates_no_block(self):
        # in a process that built no field tables, so that no earlier
        # large free has raised malloc's trim threshold: a warm k=3 "++"
        # square search keeps its block intermediates in the tables'
        # buffers (without them it peaks at about 680 KiB and takes
        # about 1,300 minor faults)
        run = run_python("""
import resource, tracemalloc
from niho_perm import tower_field, unity_group
from niho_perm.conjectures import search_problem_instances
unity_group(tower_field(3))
search_problem_instances(3, "none", "++")
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
hits = search_problem_instances(3, "none", "++")
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
tracemalloc.start()
search_problem_instances(3, "none", "++")
print(len(hits), faults, tracemalloc.get_traced_memory()[1])
""")
        assert run.returncode == 0, run.stderr
        hits, faults, peak = map(int, run.stdout.split())
        assert hits == 197
        assert peak < 400 * 1024, f"warm search peak {peak} B"
        assert faults < 100, f"{faults} minor faults in a warm search"

    def test_corrupted_a9_fails_the_range_check(self):
        # fresh, uncached circles whose la puts one a9 entry past ctn: the
        # group's first read of a9 (or of b9, built with it) refuses it, and
        # so the search's tables do
        for read in (lambda g: g.a9, lambda g: g.b9, _SearchTables):
            group = UnityGroup(tower_field(2))
            group.la[3] = 5 * group.q
            with pytest.raises(IndexError, match="out of range"):
                read(group)
        _SearchTables(UnityGroup(tower_field(2)))      # intact: no error

    def test_block_verdict_reads_the_group_ctn(self):
        # the search holds no ctn of its own: on a fresh circle whose ctn
        # is set to the zero marker everywhere, no candidate passes
        group = UnityGroup(tower_field(2))
        s, t = np.divmod(np.arange(group.n ** 2), group.n)
        assert _SearchTables(group).hits(s, t, 1, 1).size
        group.ctn = np.full_like(group.ctn, -2 * group.n)
        assert _SearchTables(group).hits(s, t, 1, 1).size == 0

    def test_square_table_reads_the_group_ctn(self):
        # the square's n^2 table is built from the group's ctn, on the
        # first square read, and kept: a fresh circle whose ctn is the zero
        # marker everywhere passes no candidate, and a later read of the
        # same pattern finds the cached table
        group = UnityGroup(tower_field(2))
        s, t = np.divmod(np.arange(group.n ** 2), group.n)
        group.ctn = np.full_like(group.ctn, -2 * group.n)
        tabs = _SearchTables(group)
        assert tabs.hits(s, t, 1, 1, square=True).size == 0
        assert (group.square_logs(1, 1) == -2 * group.n).all()
        assert group.square_logs(1, 1) is group.square_logs(1, 1)

    def test_swapped_pattern_reads_one_table(self):
        # (s, t, -1, 1) is (t, s, 1, -1): the square reads (1, -1)'s table
        # for both, and the search builds no table for (-1, 1)
        group = UnityGroup(tower_field(2))
        s, t = np.divmod(np.arange(group.n ** 2), group.n)
        _SearchTables(group).hits(s, t, -1, 1, square=True)
        assert list(group._squares) == [(1, -1)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_square_hits_match_the_criterion(self, k):
        # every (s, t) of the square, t < s included, through the table,
        # and the search under every sign set: exactly the candidates that
        # pass is_permutation_via_criterion
        n = 5 ** k + 1
        tabs = _search_tables(unity_group(tower_field(k)))
        s, t = np.divmod(np.arange(n * n), n)
        passing = set()
        for l1, l2 in _patterns_of("all"):
            want = [c for c in range(n * n) if is_permutation_via_criterion(
                build_trinomial(k, [(1, 0), (l1, int(s[c])),
                                    (l2, int(t[c]))])).passed]
            assert tabs.hits(s, t, l1, l2, square=True).tolist() == want
            passing |= {(int(s[c]), int(t[c]), l1, l2) for c in want}
        for signs in ("all", "++", "+-", "-+", "--"):
            patterns = _patterns_of(signs)
            want = sorted(SearchHit(s_, t_, "+-"[l1 < 0], "+-"[l2 < 0])
                          for s_, t_, l1, l2 in passing
                          if (l1, l2) in patterns)
            assert search_problem_instances(k, "none", signs) == want, signs

    def test_chunk_outside_the_circle_is_refused(self):
        with pytest.raises(IndexError, match="outside Z/26"):
            _search_chunk((2, 20, 27, "none", ((1, 1),)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("signs", ["all", "++", "--"])
    def test_hits_closed_under_swap(self, k, constraint, signs):
        # (s, t, l1, l2) and (t, s, l2, l1) give the same h
        hits = set(search_problem_instances(k, constraint, signs))
        assert hits
        assert {SearchHit(h.t, h.s, h.sign2, h.sign1) for h in hits} == hits

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @pytest.mark.parametrize("signs", ["all", "+-"])
    def test_uneven_split_merges_to_one_chunk(self, constraint, signs):
        patterns = _patterns_of(signs)
        whole = _search_chunk((2, 0, 26, constraint, patterns))
        parts = [_search_chunk((2, lo, hi, constraint, patterns))
                 for lo, hi in ((0, 5), (5, 6), (6, 26))]
        assert sorted(h for part in parts for h in part) == whole

    @pytest.mark.parametrize("cpus, threads, k, expected", [
        (2, 10 ** 6, 2, 2),     # clamped to the CPU count
        (64, 64, 1, 6),         # clamped to the non-empty chunks
    ])
    def test_worker_count_is_clamped(self, capsys, monkeypatch, cpus,
                                     threads, k, expected):
        _, single, _ = run_search_cli(capsys, k, 1)
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(conjectures.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(conjectures.multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=RecordingPool))
        code, out, _ = run_search_cli(capsys, k, threads)
        assert code == 0
        assert started == [expected]
        assert out == single

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            search_problem_instances(5, "none", "all")

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            search_problem_instances(1, "sum", "+-")
        with pytest.raises(UsageError):
            search_problem_instances(1, "none", "+?")

    def test_mismatch_raises_profile_error_type_exists(self):
        assert issubclass(ProfileMismatchError, Exception)
