"""The (q+1)-th roots of unity in GF(5^{2k}): enumeration, split halves,
named fractional maps, and permutation verdicts.

The circle mu_{q+1} is enumerated once per field as the powers of
zeta = g^(q-1), so as a set of exponents it is just Z/(q+1); the square
half Omega+ sits at even power indices and its negation Omega- at odd ones.
Maps come in two shapes: closed rational forms sign * x^pre * (num/den)^outer,
and (q-1)-power forms x * h(x)^(q-1) driven by a sparse signed h.  Power
forms on the circle never leave it unless h vanishes, which is reported as
a zero witness.

Batched evaluation speaks circle indices: at domain indices i it returns an
int64 array of j with image zeta^j, and -1 where a closed form leaves the
circle.  Its one producer, UnityGroup.sum_logs, works in GF(q) coordinates
at every k: GF(5^{2k}) = GF(q) + GF(q)*omega, a sum a + b*omega at a
circle point is b*(r + omega) (or a alone) for a point r of P^1(GF(q)), and
one table over the difference of two GF(q) logs gives its log (pair_logs),
for the circle verdicts and the (s, t, sign) search alike.  The group and
its O(q) tables are built once, from the field modulus alone: powers of
zeta and of g come as GF(5) digit rows (field.power_rows), never from the
field's element arithmetic.  Every verdict compares index arrays, and turns
an index into an element only to write a witness.

sum_logs adds packed words.  The word of zeta^j holds the 2k GF(5) digits
of its (a, b) coordinates in 4-bit fields of one uint64, a in the low 32
bits and b in the high 32, so one layout holds every k <= 8.  A term is one
gather of words (coefficients 3 and 4 are 2 and 1 at the opposite point,
2 doubles the word), and terms add as plain integers: no field carries
while the summed coefficient weight stays <= 3, since 3 * 4 < 16.  A term
that would pass that weight is added to the sum folded mod 5 field by
field (weight 1).  A 2^12-entry table that is the same at every k reads
three fields at a time into the GF(q) indices a and b.  The words are built
on the first sum, and each domain's index array once per group; the
collision witness sorts circle indices as uint16 keys at k <= 6, where
numpy's stable sort is a radix sort.

A power form on the whole circle (the subgroup criterion, mu-check g2..g10)
has a leaner verdict path.  It needs log h only mod n, and n*lb[b] is 0 mod
n since n divides q^2-1, so one table, ctn = ct mod n, reads it with no
division.  From k = 4 on, where n >= 4m for m = floor(4*sqrt(n)), the
first m points are decoded first, since a failing random h repeats within
about sqrt(n) points.  The witness stays the one a full evaluation names.
A zero of h in the prefix is the first on the circle.  A repeat in the
prefix is the earliest over the circle by second position, but any zero
outranks it, so it is reported only after the packed words of the other
n - m points show no zero (h is 0 where every field of the folded sum is
0).  A prefix with neither leads to the other points, and a pass is read
from the counts of the images, with no sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import PoleError, UsageError
from .field import (CHAR, FieldElement, FieldParams, TableKernel, _ppowmod,
                    factorize, power_rows, tower_field)
from .report import VerificationReport, combine_reports, timed
from .residues import parity_admits, resolve_residue


class UnityGroup:
    """mu_{q+1} inside GF(5^{2k}), in zeta-power order, with its halves.

    Built from the field modulus alone: zeta = g^(q-1) for the generator
    g = x, and every power list is a digit row block from power_rows.
    """

    def __init__(self, field: FieldParams):
        if field.subfield_degree is None:
            raise UsageError(f"{field!r} has no quadratic tower structure")
        self.field = field
        k = self.k = field.subfield_degree
        q = self.q = field.q
        n = self.n = q + 1
        f = field.modulus
        zeta = _ppowmod([0, 1], q - 1, f)
        for r in set(factorize(n)):
            if _ppowmod(zeta, n // r, f) == [1]:
                raise UsageError("zeta does not have full order q+1")
        self.zeta = field.from_digits(zeta).handle
        # GF(5^{2k}) = GF(q) + GF(q)*omega with omega = g^((q+1)/2),
        # omega^2 = G = g^(q+1) and omega^q = -omega.  Phi maps (a, b)
        # digits (a, b in powers of G) to field digits: its columns are
        # G^j = omega^(2j), then G^j*omega = omega^(2j+1), for j < k
        w = power_rows(_ppowmod([0, 1], n // 2, f), 2 * k + 1, f)
        phi_inv = _inverse_mod5(np.concatenate([w[0:2 * k:2],
                                                w[1:2 * k:2]]).T)
        # G^k = sum a_j G^j, so x^k - sum a_j x^j is the minpoly of G
        gk = phi_inv @ w[2 * k] % CHAR
        self.subfield = TableKernel(k, tuple((-gk[:k]) % CHAR) + (1,))
        pow5 = CHAR ** np.arange(2 * k, dtype=np.int64)
        self.log_order = q * q - 1
        # zeta^i as field digit rows, a field index, and (a, b) digit rows
        rows = self.rows = power_rows(zeta, n, f)
        self.indices = rows @ pow5
        self.coords = (rows @ phi_inv.T % CHAR).astype(np.int8)
        # log_g(a + b*omega) = n*lb[b] + ct[la[a] - lb[b]].  With q1 = q-1,
        # la[a] - lb[b] is q1 + log_G(a/b) for a, b != 0, 2q1 + log_G a for
        # b = 0 (lb[0] = -q1 adds n*-q1 = 0 mod q^2-1), 4q1 - log_G b for
        # a = 0, and 5q1 for a = b = 0, where ct is -1
        q1, logt = q - 1, self.subfield.logt
        self.la, self.lb = logt + q1, logt.copy()
        self.la[0], self.lb[0] = 4 * q1, -q1
        self.ct = np.full(5 * q1 + 1, -1, dtype=np.int64)
        # g^L = b*(a/b + omega) for L in [0, q] meets each point of P^1 once
        b, a = np.divmod(power_rows([0, 1], n, f) @ phi_inv.T % CHAR
                         @ pow5, q)
        nz = (a > 0) & (b > 0)
        self.ct[q1 + (logt[a] - logt[b])[nz] % q1] = (
            np.arange(n) - n * logt[b])[nz] % self.log_order
        self.ct[1:q1] = self.ct[q1 + 1:2 * q1]
        self.ct[2 * q1:3 * q1] = n * np.arange(q1)      # a = g^(n log_G a)
        self.ct[3 * q1 + 1:4 * q1 + 1] = n // 2         # omega = g^(n/2)
        # n*lb[b] mod q^2-1 is 0 at b = 0, so a = b = 0 still reads -1; and
        # as n divides q^2-1, log_g(a + b*omega) mod n is ct mod n alone
        self.nlb = n * self.lb % self.log_order
        self.ctn = np.where(self.ct < 0, -1, self.ct % n)
        self._words = None
        self._domains: dict[str, np.ndarray] = {}

    def pair_logs(self, a, b) -> np.ndarray:
        """log_g(a + b*omega) for arrays of GF(q) indices a and b, in
        Z/(q^2-1), and -1 where a = b = 0."""
        logs = self.nlb[b] + self.ct[self.la[a] - self.lb[b]]
        return logs - self.log_order * (logs >= self.log_order)

    def sum_logs(self, indices, terms) -> np.ndarray:
        """log_g of sum coeff * x^e at x = zeta^i for i in indices, in
        Z/(q^2-1), and -1 where the sum is zero."""
        words = self.sum_words(indices, terms)
        return self.pair_logs(*self._word_pairs(words))

    def circle_logs(self, words) -> np.ndarray:
        """sum_logs mod n from the packed words of the sums, and -1 where a
        sum is zero: (sum)^(q-1) is zeta to this power."""
        a, b = self._word_pairs(words)
        return self.ctn[self.la[a] - self.lb[b]]

    def _word_pairs(self, words):
        """The GF(q) indices a and b of packed words, by the chunk table."""
        return (_chunk_sum(words, half, self.k) for half in (0, HALF_BITS))

    def sum_words(self, indices, terms) -> np.ndarray:
        """Packed words of sum coeff * x^e at x = zeta^i for i in indices.

        Each term is one gather from the packed words of zeta^j: c = 3, 4
        read c = 2, 1 at j + n/2, since -1 = zeta^(n/2), and c = 2 doubles
        the word.  Words add field by field with no carry while the summed
        coefficients (the weight) stay <= FOLD_WEIGHT; a term that would
        pass it is added to the folded sum (every field mod 5, weight 1).
        So the sum is zero iff every field of its _fold is 0.
        """
        idx = np.asarray(indices, dtype=np.int64)
        n, words = self.n, self._packed_words()
        acc, weight = np.zeros(idx.shape, dtype=np.uint64), 0
        for c, e in terms:
            c, e = c % CHAR, e % n
            if c == 0:
                continue
            at = idx * e if e else 0            # x^0: one word, no gather
            if c > 2:                           # c * x = (5 - c) * (-x)
                c, at = CHAR - c, at + n // 2
            # at - at // n * n is at % n: numpy divides by a scalar faster
            # than it takes a remainder
            term = words[at - at // n * n]
            if c == 2:
                term <<= np.uint64(1)
            if weight + c > FOLD_WEIGHT:
                acc, weight = _fold(acc), 1
            acc += term
            weight += c
        return acc

    def _packed_words(self) -> np.ndarray:
        """The packed word of each zeta^j, built on first use."""
        if self._words is None:
            k, words = self.k, np.zeros(self.n, dtype=np.uint64)
            for i, col in enumerate(self.coords.T):     # a digits, then b
                place = FIELD_BITS * (i % k) + HALF_BITS * (i // k)
                words |= col.astype(np.uint64) << np.uint64(place)
            self._words = words
        return self._words

    def __repr__(self):
        return f"mu_{self.n} in {self.field!r}"

    @property
    def omega_plus(self) -> range:
        """Indices of the squares in mu (zeta^even)."""
        return range(0, self.n, 2)

    @property
    def omega_minus(self) -> range:
        """Indices of the negated squares (zeta^odd; -1 = zeta^((q+1)/2), odd)."""
        return range(1, self.n, 2)

    def domain_indices(self, name: str) -> np.ndarray:
        """The named domain's circle indices as a read-only int64 array,
        made once per group."""
        if name not in self._domains:
            spans = {"mu": range(self.n), "omega_plus": self.omega_plus,
                     "omega_minus": self.omega_minus}
            if name not in spans:
                raise UsageError(f"unknown unity domain {name!r}")
            r = spans[name]
            arr = np.arange(r.start, r.stop, r.step, dtype=np.int64)
            arr.flags.writeable = False
            self._domains[name] = arr
        return self._domains[name]

    def handle(self, i: int) -> int:
        return self.element(i).handle

    def element(self, i: int) -> FieldElement:
        return self.field.from_index(int(self.indices[i % self.n]))

    def csv(self, i: int) -> str:
        """element(i).csv(), read from the digit rows (for witnesses)."""
        return ",".join(map(str, self.rows[i % self.n].tolist()))

    def contains_handle(self, h: int) -> bool:
        x = FieldElement(self.field, h)
        return not x.is_zero and x ** self.n == self.field.one

    def members(self, indices) -> list[FieldElement]:
        return [self.element(i) for i in indices]


# A packed word holds the GF(5) digits of a point a + b*omega in 4-bit
# fields of a uint64: a's k digits in fields 0..k-1 (bits 0..31), b's in
# fields 8..8+k-1 (bits 32..63), so 8 fields a half and k <= 8 in one
# layout.  Summed words keep every field <= 4 * FOLD_WEIGHT = 12 < 16.
FIELD_BITS, HALF_BITS, FOLD_WEIGHT, CHUNK_FIELDS = 4, 32, 3, 3
_FIELDS = sum(1 << (FIELD_BITS * i) for i in range(64 // FIELD_BITS))
_ONES, _THREES = np.uint64(_FIELDS), np.uint64(3 * _FIELDS)


def _fold(words: np.ndarray) -> np.ndarray:
    """Every field v <= 12 of the words to v mod 5: twice, subtract 5
    where v >= 5, i.e. where v + 3 sets the field's top bit (v + 3 <= 15
    stays inside the field, and 5 * bit leaves no borrow)."""
    for _ in range(2):
        top = (words + _THREES) >> np.uint64(FIELD_BITS - 1) & _ONES
        words = words - top * np.uint64(CHAR)
    return words


@lru_cache(maxsize=None)
def _chunk_table() -> np.ndarray:
    """sum (v_i mod 5) * 5^i over the CHUNK_FIELDS fields v_i of each
    chunk value: 2^12 int64 entries, the same at every k."""
    v = np.arange(1 << (FIELD_BITS * CHUNK_FIELDS), dtype=np.int64)
    table = sum((v >> (FIELD_BITS * i) & 15) % CHAR * CHAR ** i
                for i in range(CHUNK_FIELDS))
    table.flags.writeable = False
    return table


def _chunk_sum(words: np.ndarray, half: int, k: int) -> np.ndarray:
    """The GF(q) index sum d_i * 5^i (d_i = field i mod 5) of the k fields
    from bit `half` on, CHUNK_FIELDS fields per table read."""
    table, out = _chunk_table(), None
    for i in range(0, k, CHUNK_FIELDS):
        # the mask stops at field k, so a's last chunk never reads b's
        mask = (1 << (FIELD_BITS * min(CHUNK_FIELDS, k - i))) - 1
        chunk = words >> np.uint64(half + FIELD_BITS * i) & np.uint64(mask)
        part = table[chunk.view(np.int64)]
        out = part if out is None else out + part * CHAR ** i
    return out


def _inverse_mod5(mat: np.ndarray) -> np.ndarray:
    """Inverse of an invertible square GF(5) matrix, by Gauss-Jordan."""
    size = len(mat)
    aug = np.concatenate([mat % CHAR, np.eye(size, dtype=np.int64)], axis=1)
    for c in range(size):
        p = c + int(np.flatnonzero(aug[c:, c])[0])
        aug[[c, p]] = aug[[p, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), CHAR - 2, CHAR) % CHAR
        col = aug[:, c].copy()
        col[c] = 0
        aug = (aug - np.outer(col, aug[c])) % CHAR
    return aug[:, size:]


@cache
def unity_group(field: FieldParams) -> UnityGroup:
    """Enumerate (or fetch the cached) mu_{q+1} of a tower field.  A
    search's forked workers inherit every group built before the fork."""
    return UnityGroup(field)


# ---------------------------------------------------------------------------
# map shapes

@dataclass(frozen=True)
class ClosedFormMap:
    """sign * x^pre_exp * (num(x)/den(x))^outer with sparse num and den."""

    name: str
    sign: int
    pre_exp: int
    num: tuple[tuple[int, int], ...]     # (coeff mod 5, exponent)
    den: tuple[tuple[int, int], ...]
    outer: int = 2

    def eval_at(self, x: FieldElement) -> FieldElement:
        num = _sparse_at(self.num, x)
        den = _sparse_at(self.den, x)
        if den.is_zero:
            raise PoleError(f"{self.name} has a pole at {x.csv()}", witness=x)
        val = (num / den) ** self.outer * x ** self.pre_exp
        return -val if self.sign < 0 else val


@dataclass(frozen=True)
class PowerFormMap:
    """x * h(x)^(subgroup exponent) with h a sparse signed polynomial."""

    name: str
    h_terms: tuple[tuple[int, int], ...]  # (sign, c) residues mod the subgroup order

    def h_at(self, x: FieldElement) -> FieldElement:
        acc = x.field.zero
        for sign, c in self.h_terms:
            t = x ** c
            acc = acc + t if sign > 0 else acc - t
        return acc

    def eval_at(self, x: FieldElement) -> FieldElement:
        q = x.field.q
        return x * self.h_at(x) ** (q - 1)


FractionalMap = ClosedFormMap | PowerFormMap


def _sparse_at(terms, x: FieldElement) -> FieldElement:
    acc = x.field.zero
    for coeff, e in terms:
        acc = acc + x.field.scalar(coeff) * x ** e
    return acc


def eval_map(map_: FractionalMap, x: FieldElement) -> FieldElement:
    """Exact evaluation of a named map at one point (PoleError on a pole)."""
    return map_.eval_at(x)


# ---------------------------------------------------------------------------
# catalog

_IDENT = ((1, "0"),)

MAP_SPECS: dict[str, dict] = {
    "g1": dict(kind="closed", parity="any", sign=-1, pre="(q+1)/2",
               num=((1, "(q+3)/4"), (-2, "0")),
               den=((1, "(q+3)/4"), (2, "0"))),
    "g2": dict(kind="power", parity="any",
               h=((1, "1"), (1, "3*(q-1)/4+2"), (-1, "(q+1)/2"))),
    "g3": dict(kind="power", parity="odd",
               h=((1, "0"), (1, "(q-1)/2"), (-1, "(q+3)/2"))),
    "g4": dict(kind="power", parity="odd",
               h=((1, "1"), (1, "(q+5)/2"), (-1, "(q+1)/2"))),
    "g5": dict(kind="power", parity="odd",
               h=((1, "0"), (-1, "(q+3)/2"), (1, "-1"))),
    "g6": dict(kind="power", parity="odd",
               h=((1, "1"), (-1, "(q+1)/2"), (1, "2"))),
    "g7": dict(kind="power", parity="even",
               h=((1, "0"), (-1, "2"), (1, "(q+3)/2"))),
    "g8": dict(kind="power", parity="even",
               h=((1, "1"), (-1, "-1"), (1, "(q+1)/2"))),
    "g9": dict(kind="power", parity="even",
               h=((1, "0"), (1, "1"), (-1, "(q-1)/2"))),
    "g10": dict(kind="power", parity="even",
                h=((1, "0"), (-1, "(q+2)/3+1"), (-1, "2*(q+2)/3"))),
    # internal closed forms used by claims, cross-checks and bridges
    "identity": dict(kind="closed", parity="any", sign=1, pre="1",
                     num=_IDENT, den=_IDENT, outer=1, internal=True),
    "half_f": dict(kind="closed", parity="any", sign=-1, pre="1",
                   num=((1, "1"), (-2, "0")), den=((1, "1"), (2, "0")),
                   internal=True),
    "half_g": dict(kind="closed", parity="any", sign=-1, pre="1",
                   num=((1, "1"), (2, "0")), den=((1, "1"), (-2, "0")),
                   internal=True),
    "half_f_inv": dict(kind="closed", parity="any", sign=-1, pre="-1",
                       num=((1, "1"), (-2, "0")), den=((1, "1"), (2, "0")),
                       internal=True),
    "half_g_inv": dict(kind="closed", parity="any", sign=-1, pre="-1",
                       num=((1, "1"), (2, "0")), den=((1, "1"), (-2, "0")),
                       internal=True),
    "g1_plus": dict(kind="closed", parity="any", sign=-1, pre="0",
                    num=((1, "(q+3)/4"), (-2, "0")),
                    den=((1, "(q+3)/4"), (2, "0")), internal=True),
    "g1_minus": dict(kind="closed", parity="any", sign=1, pre="0",
                     num=((1, "(q+3)/4"), (-2, "0")),
                     den=((1, "(q+3)/4"), (2, "0")), internal=True),
    "conj2_map": dict(kind="closed", parity="even", sign=-1, pre="1",
                      num=((1, "2"), (-2, "0")), den=((1, "2"), (2, "0")),
                      internal=True),
    "p1_bridge": dict(kind="closed", parity="odd", sign=-1, pre="1",
                      num=((1, "2"), (2, "0")), den=((1, "2"), (-2, "0")),
                      internal=True),
    "p2_bridge": dict(kind="closed", parity="even", sign=-1, pre="-1",
                      num=((1, "2"), (2, "0")), den=((1, "2"), (-2, "0")),
                      internal=True),
}

PUBLIC_MAP_NAMES = tuple(f"g{i}" for i in range(1, 11))

# uniform power form vs the half-specific closed forms from the proofs'
# case splits; checked pointwise on the parity the derivation covers
OMEGA_SPECIALIZATIONS: dict[str, dict[str, str]] = {
    "g1": {"omega_plus": "g1_plus", "omega_minus": "g1_minus"},
    "g3": {"omega_plus": "half_f", "omega_minus": "half_g"},
    "g5": {"omega_plus": "half_f", "omega_minus": "identity"},
    "g7": {"omega_plus": "half_f_inv", "omega_minus": "half_g_inv"},
    "g9": {"omega_plus": "half_g", "omega_minus": "identity"},
}


def build_map(name: str, k: int) -> FractionalMap:
    """Resolve a catalog map's residue expressions for a concrete k."""
    spec = MAP_SPECS.get(name)
    if spec is None:
        raise UsageError(
            f"unknown map {name!r}; valid maps: {', '.join(PUBLIC_MAP_NAMES)}")
    q = CHAR ** k
    n = q + 1
    if spec["kind"] == "power":
        terms = tuple((s, resolve_residue(e, q, k, modulus=n))
                      for s, e in spec["h"])
        return PowerFormMap(name=name, h_terms=terms)
    resolve = lambda e: resolve_residue(e, q, k, modulus=n)
    num = tuple((c % CHAR, resolve(e)) for c, e in spec["num"])
    den = tuple((c % CHAR, resolve(e)) for c, e in spec["den"])
    return ClosedFormMap(
        name=name, sign=spec["sign"], pre_exp=resolve(spec["pre"]),
        num=num, den=den, outer=spec.get("outer", 2))


# ---------------------------------------------------------------------------
# batched evaluation over unity indices

def eval_power_on_unity(map_: PowerFormMap, group: UnityGroup, indices):
    """Power-form circle indices; returns (values, zero_index).

    x * h(x)^(q-1) at x = zeta^i is zeta^(i + index of h^(q-1)), so it stays
    on the circle.  If h vanishes at some point the first such index is
    returned and values is None (the image would leave the circle).
    """
    idx = np.asarray(indices, dtype=np.int64)
    # the signs are the coefficients
    return _power_images(group, idx, group.sum_words(idx, map_.h_terms))


def _power_images(group: UnityGroup, idx: np.ndarray, words: np.ndarray):
    """eval_power_on_unity at the points idx, from h's packed words there."""
    logs = group.circle_logs(words)
    zeros = np.flatnonzero(logs < 0)
    if zeros.size:
        return None, int(idx[zeros[0]])
    # h^(q-1) = g^((q-1) log h) = zeta^(log h mod n)
    logs += idx
    return logs - group.n * (logs >= group.n), None


def eval_closed_on_unity(map_: ClosedFormMap, group: UnityGroup, indices):
    """Closed-form circle indices (-1 off the circle); returns
    (values, pole_index) as eval_power_on_unity does."""
    idx = np.asarray(indices, dtype=np.int64)
    num = group.sum_logs(idx, map_.num)
    den = group.sum_logs(idx, map_.den)
    poles = np.flatnonzero(den < 0)
    if poles.size:
        return None, int(idx[poles[0]])
    n, q = group.n, group.q
    # g^L lies on the circle iff (q-1) | L, and is then zeta^(L/(q-1))
    logs = map_.outer * (num - den) % group.log_order
    ratio = np.where((num >= 0) & (logs % (q - 1) == 0), logs // (q - 1), -1)
    # x^pre = zeta^(i*pre) and -1 = zeta^(n/2) keep a point on the circle
    shift = n // 2 if map_.sign < 0 else 0
    vals = (ratio + idx * (map_.pre_exp % n) + shift) % n
    return np.where(ratio < 0, -1, vals), None


def eval_on_unity(map_: FractionalMap, group: UnityGroup, indices):
    if isinstance(map_, PowerFormMap):
        return eval_power_on_unity(map_, group, indices)
    return eval_closed_on_unity(map_, group, indices)


# ---------------------------------------------------------------------------
# permutation verdicts

def _first_collision(values) -> tuple[int, int] | None:
    """Earliest (i, j), i < j with values[i] == values[j], by second position.

    Keys of at most 16 bits sort fastest: there numpy's stable sort is a
    radix sort."""
    arr = np.asarray(values)
    order = np.argsort(arr, kind="stable")
    ranked = arr[order]
    dup = np.flatnonzero(ranked[1:] == ranked[:-1])
    if not dup.size:
        return None
    # a stable sort puts every repeat after its first occurrence
    second = int(order[dup + 1].min())
    return int(np.argmax(arr == arr[second])), second


def _verdict(subject: str, group: UnityGroup, map_: FractionalMap, indices,
             values, failure_index) -> VerificationReport:
    """Shared pass/fail logic: pole/zero beats escape beats collision order.

    values are the circle indices of the images of the domain indices; an
    image escapes when it is off the circle or outside the domain.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if values is None:
        return _fail(subject, len(idx), _zero_witness(group, map_,
                                                      failure_index))
    # slot n stays False, so an off-circle -1 reads as outside the domain
    inside = np.zeros(group.n + 1, dtype=bool)
    inside[idx] = True
    escapes = np.flatnonzero(~inside[values])
    if escapes.size:
        i = int(idx[escapes[0]])
        x = group.element(i)
        return _fail(subject, len(idx), {"type": "escape", "x": x.csv(),
                                         "index": i,
                                         "image": map_.eval_at(x).csv()})
    # every value is now a domain index in [0, n), a uint16 at k <= 6
    coll = _first_collision(values.astype(np.uint16) if group.n <= 1 << 16
                            else values)
    if coll is not None:
        return _fail(subject, len(idx),
                     _collision_witness(group, idx, values, coll))
    return VerificationReport(subject=subject, method="enumeration",
                              passed=True, counts={"points": len(idx)})


def _circle_verdict(subject: str, group: UnityGroup,
                    map_: PowerFormMap) -> VerificationReport:
    """_verdict's report for a power form on the whole circle, screened on
    a prefix (see the module docstring).  A power form never escapes the
    circle, so the first zero, else the earliest repeat, decides."""
    idx, n = group.domain_indices("mu"), group.n
    m = math.isqrt(16 * n)
    if 4 * m > n:                   # k <= 3: too small a circle to screen
        m = n
    words = group.sum_words(idx, map_.h_terms)
    values, zero = _power_images(group, idx[:m], words[:m])
    coll = None
    if zero is None and m < n:
        coll = _first_collision(values)
        if coll is None:
            rest, zero = _power_images(group, idx[m:], words[m:])
            if zero is None:
                values = np.concatenate((values, rest))
        else:
            zeros = np.flatnonzero(_fold(words[m:]) == 0)
            if zeros.size:
                zero = int(idx[m + zeros[0]])
    if zero is not None:
        return _fail(subject, n, _zero_witness(group, map_, zero))
    if coll is None:
        if np.bincount(values, minlength=n).max() <= 1:
            return VerificationReport(subject=subject, method="enumeration",
                                      passed=True, counts={"points": n})
        coll = _first_collision(values)
    return _fail(subject, n, _collision_witness(group, idx, values, coll))


def _fail(subject: str, points: int, witness: dict) -> VerificationReport:
    return VerificationReport(subject=subject, method="enumeration",
                              passed=False, witness=witness,
                              counts={"points": points})


def _zero_witness(group: UnityGroup, map_: FractionalMap, i: int) -> dict:
    return {"type": "zero" if isinstance(map_, PowerFormMap) else "pole",
            "x": group.csv(i), "index": i}


def _collision_witness(group: UnityGroup, idx, values, coll) -> dict:
    i1, i2 = (int(idx[p]) for p in coll)
    return {"type": "collision", "x1": group.csv(i1), "x2": group.csv(i2),
            "index1": i1, "index2": i2,
            "value": group.csv(int(values[coll[1]]))}


@timed
def unity_permutation_report(map_: FractionalMap, group: UnityGroup,
                             domain: str = "mu") -> VerificationReport:
    """Does the map permute the named subset of the circle?"""
    subject = f"{map_.name} on {domain} over {group.field!r}"
    if domain == "mu" and isinstance(map_, PowerFormMap):
        return _circle_verdict(subject, group, map_)
    indices = group.domain_indices(domain)
    values, bad = eval_on_unity(map_, group, indices)
    return _verdict(subject, group, map_, indices, values, bad)


def is_permutation_of(domain: Sequence[FieldElement],
                      map_: FractionalMap | Callable[[FieldElement], FieldElement],
                      subject: str | None = None) -> VerificationReport:
    """Injectivity plus image containment for an arbitrary element set.

    Deterministic evaluation order (domain order); a pole inside the domain
    is a failure witness, not a crash.
    """
    if not domain:
        raise UsageError("domain must be nonempty")
    fn = map_.eval_at if isinstance(map_, (ClosedFormMap, PowerFormMap)) else map_
    name = getattr(map_, "name", getattr(map_, "__name__", "map"))
    subject = subject or f"{name} on {len(domain)} points"
    handles = {x.handle for x in domain}
    seen: dict = {}
    for x in domain:
        try:
            y = fn(x)
        except PoleError as exc:
            return VerificationReport(
                subject=subject, method="enumeration", passed=False,
                witness={"type": "pole", "x": exc.witness.csv()},
                counts={"points": len(domain)})
        if y.handle not in handles:
            return VerificationReport(
                subject=subject, method="enumeration", passed=False,
                witness={"type": "escape", "x": x.csv(), "image": y.csv()},
                counts={"points": len(domain)})
        if y.handle in seen:
            return VerificationReport(
                subject=subject, method="enumeration", passed=False,
                witness={"type": "collision", "x1": seen[y.handle].csv(),
                         "x2": x.csv(), "value": y.csv()},
                counts={"points": len(domain)})
        seen[y.handle] = x
    return VerificationReport(subject=subject, method="enumeration",
                              passed=True, counts={"points": len(domain)})


# ---------------------------------------------------------------------------
# the named subset-permutation claims

CIRCLE_CLAIMS = {
    "circle": ("any", (("g1", "mu"),)),
    "halves-odd": ("odd", (("half_f", "omega_plus"), ("half_g", "omega_minus"))),
    "halves-even": ("even", (("half_f", "omega_minus"), ("half_g", "omega_plus"))),
}
_CLAIM_ALIASES = {"L3": "circle", "L4": "halves-odd", "L5": "halves-even"}


def check_circle_claim(claim: str, k: int) -> VerificationReport:
    """Run one of the three named subset-permutation claims at a given k."""
    claim = _CLAIM_ALIASES.get(claim, claim)
    if claim not in CIRCLE_CLAIMS:
        raise UsageError(
            f"unknown claim {claim!r}; valid: {sorted(CIRCLE_CLAIMS)}")
    parity, checks = CIRCLE_CLAIMS[claim]
    if not parity_admits(parity, k):
        raise UsageError(
            f"claim {claim} is stated only where k is {parity} (got {k})")
    group = unity_group(tower_field(k))
    reports = [unity_permutation_report(build_map(name, k), group, dom)
               for name, dom in checks]
    return combine_reports(f"claim {claim} at k={k}", "enumeration", reports)


@timed
def reciprocal_identity_report(name_a: str, name_b: str,
                               k: int) -> VerificationReport:
    """Pointwise product of two maps equals 1 everywhere on the circle."""
    group = unity_group(tower_field(k))
    map_a, map_b = build_map(name_a, k), build_map(name_b, k)
    subject = f"{name_a}*{name_b} = 1 on mu over GF(5^{2*k})"
    counts = {"points": group.n}
    mu = group.domain_indices("mu")
    va, bad_a = eval_on_unity(map_a, group, mu)
    vb, bad_b = eval_on_unity(map_b, group, mu)
    if bad_a is not None or bad_b is not None:
        i = bad_a if bad_a is not None else bad_b
        return VerificationReport(
            subject=subject, method="enumeration", passed=False,
            witness={"type": "zero", "x": group.element(i).csv(), "index": i},
            counts=counts)
    # zeta^a * zeta^b = 1 iff a + b = 0 mod n
    bad = np.flatnonzero((va < 0) | (vb < 0) | ((va + vb) % group.n != 0))
    if bad.size:
        i = int(bad[0])
        return VerificationReport(
            subject=subject, method="enumeration", passed=False,
            witness={"type": "product_not_one",
                     "x": group.element(i).csv(), "index": i},
            counts=counts)
    return VerificationReport(subject=subject, method="enumeration",
                              passed=True, counts=counts)


@timed
def pointwise_agreement_report(subject: str, group: UnityGroup,
                               map_a: FractionalMap, indices_a,
                               map_b: FractionalMap,
                               indices_b) -> VerificationReport:
    """map_a at zeta^indices_a[p] equals map_b at zeta^indices_b[p] for all p.

    A zero or pole (map_a's first) is reported at its own circle point; a
    mismatch at the point zeta^indices_b[p].
    """
    idx_a = np.asarray(indices_a, dtype=np.int64)
    idx_b = np.asarray(indices_b, dtype=np.int64)
    counts = {"points": len(idx_b)}
    va, bad_a = eval_on_unity(map_a, group, idx_a)
    vb, bad_b = eval_on_unity(map_b, group, idx_b)
    failure = None
    if bad_a is not None or bad_b is not None:
        failure = ("zero_or_pole", bad_a if bad_a is not None else bad_b)
    else:
        diff = va != vb
        # two off-circle images carry no index: compare them exactly
        for p in np.flatnonzero((va < 0) & (vb < 0)):
            diff[p] = (map_a.eval_at(group.element(int(idx_a[p])))
                       != map_b.eval_at(group.element(int(idx_b[p]))))
        mism = np.flatnonzero(diff)
        if mism.size:
            failure = ("mismatch", int(idx_b[mism[0]]))
    if failure is None:
        return VerificationReport(subject=subject, method="enumeration",
                                  passed=True, counts=counts)
    kind, i = failure
    return VerificationReport(
        subject=subject, method="enumeration", passed=False,
        witness={"type": kind, "x": group.element(i).csv(), "index": i},
        counts=counts)


def maps_agree_report(map_a: FractionalMap, map_b: FractionalMap,
                      group: UnityGroup, domain: str) -> VerificationReport:
    """Pointwise equality of two maps on a unity subset."""
    indices = group.domain_indices(domain)
    subject = (f"{map_a.name} = {map_b.name} on {domain} "
               f"over {group.field!r}")
    return pointwise_agreement_report(subject, group, map_a, indices,
                                      map_b, indices)


@timed
def mu_check_report(map_name: str, k: int) -> VerificationReport:
    """CLI entry: does the named catalog map permute the circle at this k?"""
    if map_name not in PUBLIC_MAP_NAMES:
        raise UsageError(
            f"unknown map {map_name!r}; valid maps: "
            f"{', '.join(PUBLIC_MAP_NAMES)}")
    map_ = build_map(map_name, k)
    group = unity_group(tower_field(k))
    return unity_permutation_report(map_, group, "mu")
