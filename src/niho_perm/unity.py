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
on the first sum, and each domain's indices and leaders once per group; the
collision witness scans fewer than 256 images to their first repeat, and
sorts 512 or more as uint16 keys at k <= 6, where numpy's stable sort is
a radix sort.

The group owns a second packing, for the search's h = 1 + y + z with y, z
= +-zeta^j: the a and b digit halves of zeta^j, each as one base-9 number.
Two halves add with no carry (4 + 4 < 9), and a9 (adding the 1) and b9,
9^k entries each, read a sum's la and lb (base9_logs).  In base 9 a k=3
search block of 744 x 44 points took 243 us, in words 1,089 us.  The
search decides each candidate by the orbit rule below, at the leaders:
its full square reads each (y, z) of the circle many times (about 12
times at k=3, 40 at k=4), so square_logs keeps base9_logs of every
1 + l1*zeta^a + l2*zeta^b, one int16 table of n^2 entries per sign
pattern (l1, l2): 31 KB at k=3 and 0.8 MB at k=4.
Up to SQUARE_TABLE_K = 4 the full square and every power-form verdict
read it, and the table of (1, -1) serves (-1, 1) transposed
(square_table).  Above, a power form sums words (9% faster than base 9
over a full k=6 circle, and at k=8 a9 and b9 would take 172 MB each): at
k=5 (19.5 MB a pattern) the tables saved the search no time and took the
all-signs square from 65.5 to 117 MB peak RSS.  Closed forms always sum
words.  The sum searches, and the square above SQUARE_TABLE_K, screen in
base 9 by exact images at sample points before they read the leaders.

A power form needs log h only mod n, and n*lb[b] is 0 mod n since n
divides q^2-1, so one table, ctn = ct mod n, reads it with no division.  On
the whole circle (the subgroup criterion, mu-check g2..g10) its zeros come
from index arithmetic (_circle_zero), not from evaluation.  Every power form
has h = s0*x^c0 + s1*x^c1 + s2*x^c2 with signs +-1, i.e.
s0*x^c0 * (1 + l1*y + l2*z) with y = x^u, z = x^v on the circle and
l_i = s_i*s0.  Up to k = 4 that reads log h from the square's table T of
(l1, l2): log s0 is 0 mod n (log -1 = (q^2-1)/2 = n*(q-1)/2), and
(x^c0)^(q-1) = x^(-2*c0) as q-1 = -2 mod n, so the image index at zeta^i
is (1 - 2*c0)*i + T[(u*i mod n)*n + (v*i mod n)] mod n, and an entry -2n
is a zero.  At a zero, -l2*z is on the circle, so the norm of 1 + l1*y,
2 + l1*(y + 1/y), is 1: y^2 + l1*y + 1 = 0, and then z = l2*y^2.  So y has
order 3 (l1 = 1) or 6 (l1 = -1), which needs 3 | n, i.e. odd k, and the
first zero is the least common solution i of two linear congruences:
u*i = +-n/3 (or +-n/6) and (v - 2u)*i = 0 (l2 = 1) or n/2 (l2 = -1) mod n.
A zero outranks any repeat, so it is the witness, with no point evaluated.

Every verdict, on mu or on either half, evaluates its map once, at one
point per Frobenius orbit of its domain.  A map f with GF(5) coefficients
has f(x^5) = f(x)^5, and x -> x^5 permutes the circle as i -> 5i mod n, in
orbits of at most 2k indices (UnityGroup.orbits: 80 leaders of 626 points
at k=4, 316 of 3,126 at k=5, 1,308 of 15,626 at k=6).  As n is even,
i -> 5i keeps parity, so each half is a union of orbits with half the
leaders (158 at k=5, 654 at k=6).  The image index at p*L, p a power of 5,
is p times the image index at the orbit's leader L.  The zeros, poles and
escapes of f each form a Frobenius-closed set, so the first of each in a
domain is a leader; with none, f permutes the domain iff no two leaders'
images lie in one orbit: f maps the orbit of L onto the orbit of f(L),
which is no larger, so if the image orbits are distinct they are all the
domain's orbits, their sizes sum to its size, every orbit keeps its size
and f is injective.  A failing verdict fills the images from the leaders'.
Where the domain's N points are >= 4m for m = floor(4*sqrt(N)) (mu from
k = 4 on), it fills the first m first, since a failing random map repeats
within about sqrt(N) points: a repeat there is the earliest over the domain
by second position, the witness a full evaluation names, and only a prefix
with no repeat leads to the whole domain.  On mu a zero of a power form at
a leader is one _circle_zero missed, and raises, so a pass has found no
zero on the circle.  The comparisons of two maps on a domain (the
reciprocal identities, the half specializations, P1's bridge and P2's g10
after x -> x^3, which commutes with x -> x^5) and the first circle root of a
polynomial over GF(5) read the leaders too: a first zero, pole, mismatch or
root lies in a Frobenius-closed set, so it is a leader.  Two images off the
circle carry no circle index, so a comparison reads their logs mod q^2-1
(closed_logs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PoleError, UsageError
from .field import (CHAR, FieldElement, FieldParams, Orbits, TableKernel,
                    _ppowmod, frobenius_orbits, lazy_attribute, power_rows,
                    tower_field, wrap_mod)
from .report import VerificationReport, combine_reports, timed
from .residues import parity_admits, resolve_residue


class Domain(NamedTuple):
    """A Frobenius-closed set of circle indices: indices, ascending; orbits,
    its orbits under i -> 5i, numbered among its own leaders (orbit is read
    at its indices only); inside, True at its indices, over n + 1 slots
    (slot n, read by an off-circle image -1, stays False)."""

    indices: np.ndarray
    orbits: Orbits
    inside: np.ndarray


class UnityGroup:
    """mu_{q+1} inside GF(5^{2k}), in zeta-power order, and its tables.

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
        zeta = _ppowmod([0, 1], q - 1, f)     # order q+1: x is primitive
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
        # zeta^i as field digit rows and (a, b) digit rows
        rows = self.rows = power_rows(zeta, n, f)
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
        # -2n marks a zero: plus an index and wrapped, it stays negative
        self.ctn = np.where(self.ct < 0, -2 * n, self.ct % n).astype(np.int32)
        self._domains: dict[str, Domain] = {}
        self._squares: dict[tuple[int, int], np.ndarray] = {}

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
        """sum_logs mod n from the packed words of the sums, int32, and -2n
        where a sum is zero: (sum)^(q-1) is zeta to this power."""
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
        n, words = self.n, self.words
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

    @lazy_attribute
    def words(self) -> np.ndarray:
        """The packed word of each zeta^j, built on first read."""
        k, words = self.k, np.zeros(self.n, dtype=np.uint64)
        for i, col in enumerate(self.coords.T):         # a digits, then b
            place = FIELD_BITS * (i % k) + HALF_BITS * (i // k)
            words |= col.astype(np.uint64) << np.uint64(place)
        return words

    @lazy_attribute
    def halves(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """For sign +-1, the base-9 halves (a and b digits) of sign*zeta^j,
        j in Z/n, as int32, built on first read.  The halves of -zeta^j are
        those of zeta^(j + n/2), since -1 = zeta^(n/2)."""
        k, place = self.k, 9 ** np.arange(self.k, dtype=np.int32)
        plus = tuple(self.coords[:, h:h + k] @ place for h in (0, k))
        return {1: plus, -1: tuple(np.roll(x, -(self.n // 2)) for x in plus)}

    @lazy_attribute
    def a9(self) -> np.ndarray:
        """la at 1 + a for each base-9 sum a of two a-halves, and b9, lb at
        each sum of b-halves, int32, built on first read.  base9_logs reads
        them unchecked, so this checks that a9 - b9 lies in ctn and that two
        halves sum below 9^k."""
        # the GF(q) index of each of the 9^k base-9 values, digits mod 5
        v = np.arange(9 ** self.k, dtype=np.int64)
        red = sum(v // 9 ** j % 9 % CHAR * CHAR ** j for j in range(self.k))
        a9 = self.la[red - red % CHAR + (red + 1) % CHAR].astype(np.int32)
        b9 = self.lb[red].astype(np.int32)
        halves = np.concatenate(self.halves[1])
        if not (a9.min() - b9.max() >= 0
                and a9.max() - b9.min() < self.ctn.size
                and halves.min() >= 0 and 2 * halves.max() < a9.size):
            raise IndexError("search table index out of range")
        self.b9 = b9
        return a9

    @lazy_attribute
    def b9(self) -> np.ndarray:
        """lb at each base-9 sum of two b-halves, int32: a9's build sets it."""
        self.a9
        return self.b9

    def base9_logs(self, a, b, out) -> np.ndarray:
        """circle_logs of 1 + y + z from the sums a and b of the base-9
        halves of y and z, into a; out is overwritten (int32 arrays)."""
        np.take(self.a9, a, out=out, mode="clip")
        np.take(self.b9, b, out=a, mode="clip")
        out -= a
        return np.take(self.ctn, out, out=a, mode="clip")

    def square_logs(self, l1: int, l2: int) -> np.ndarray:
        """base9_logs of 1 + l1*zeta^a + l2*zeta^b at entry a*n + b, for
        every (a, b) in (Z/n)^2, as int16 (the values lie in [-2n, n)),
        built on the first read of each pattern from ctn and the halves, a
        block of rows at a time, so that no temporary is n^2 wide.  The
        table of (l2, l1) is this one transposed."""
        if (l1, l2) not in self._squares:
            n, (ya, yb), (za, zb) = self.n, self.halves[l1], self.halves[l2]
            self.a9                     # the range check base9_logs skips
            table = np.empty((n, n), dtype=np.int16)
            step = max(1, SQUARE_BLOCK // n)
            for lo in range(0, n, step):
                a, b = (np.add.outer(y[lo:lo + step], z)
                        for y, z in ((ya, za), (yb, zb)))
                table[lo:lo + step] = self.base9_logs(a, b, np.empty_like(a))
            self._squares[l1, l2] = table.reshape(-1)
        return self._squares[l1, l2]

    def square_table(self, l1: int, l2: int, u, v):
        """The square_logs table that reads 1 + l1*zeta^u + l2*zeta^v at
        entry u*n + v, and the u and v to read it at: (-1, 1) reads the
        table of (1, -1) with u and v swapped, the same h, so that one
        table serves both patterns."""
        if l1 < l2:
            l1, l2, u, v = l2, l1, v, u
        return self.square_logs(l1, l2), u, v

    @lazy_attribute
    def orbits(self) -> Orbits:
        """The orbits of i -> 5i on Z/n, the circle indices of x -> x^5:
        at most 2k indices each, since 5^(2k) = 1 mod n."""
        return frobenius_orbits(self.n, 2 * self.k)

    def __repr__(self):
        return f"mu_{self.n} in {self.field!r}"

    def domain(self, name: str) -> Domain:
        """A domain made once per group: mu, or its squares omega_plus
        (zeta^even) and omega_minus (odd).  i -> 5i keeps parity mod the
        even n, so a half's orbits are the group's of its parity."""
        if name not in self._domains:
            spans = {"mu": (0, 1), "omega_plus": (0, 2), "omega_minus": (1, 2)}
            if name not in spans:
                raise UsageError(f"unknown unity domain {name!r}")
            start, step = spans[name]
            inside = np.zeros(self.n + 1, dtype=bool)
            inside[start:self.n:step] = True
            leaders, orbit, power = self.orbits
            ours = inside[leaders]
            dom = Domain(np.arange(start, self.n, step, dtype=np.int64),
                         Orbits(leaders[ours], (np.cumsum(ours) - 1)[orbit],
                                power), inside)
            for arr in (dom.indices, *dom.orbits, inside):
                arr.flags.writeable = False
            self._domains[name] = dom
        return self._domains[name]

    def element(self, i: int) -> FieldElement:
        return self.field.from_digits(self.rows[i % self.n].tolist())

    def csv(self, i: int) -> str:
        """element(i).csv(), read from the digit rows (for witnesses)."""
        return ",".join(map(str, self.rows[i % self.n].tolist()))


# A packed word holds the GF(5) digits of a point a + b*omega in 4-bit
# fields of a uint64: a's k digits in fields 0..k-1 (bits 0..31), b's in
# fields 8..8+k-1 (bits 32..63), so 8 fields a half and k <= 8 in one
# layout.  Summed words keep every field <= 4 * FOLD_WEIGHT = 12 < 16.
FIELD_BITS, HALF_BITS, FOLD_WEIGHT, CHUNK_FIELDS = 4, 32, 3, 3
_FIELDS = sum(1 << (FIELD_BITS * i) for i in range(64 // FIELD_BITS))
_ONES, _THREES = np.uint64(_FIELDS), np.uint64(3 * _FIELDS)
# entries of square_logs built per block: three int32 temporaries of 256 KiB
SQUARE_BLOCK = 1 << 16
# Power-form verdicts and the full square search read the n^2 log tables
# (square_logs) up to SQUARE_TABLE_K, packed words and base 9 above.  At
# k=5 the tables (19.5 MB a pattern) took the search's default all-signs
# square on 2 workers from 65.5 to 117 MB peak RSS and saved no time (38.2
# against 32.9 s).
SQUARE_TABLE_K = 4


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
        num = sparse_at(self.num, x)
        den = sparse_at(self.den, x)
        if den.is_zero:
            raise PoleError(f"{self.name} has a pole at {x.csv()}", witness=x)
        val = (num / den) ** self.outer * x ** self.pre_exp
        return -val if self.sign < 0 else val


@dataclass(frozen=True)
class PowerFormMap:
    """x * h(x)^(subgroup exponent) with h = s0*x^c0 + s1*x^c1 + s2*x^c2,
    signs s_i = +-1: the shape whose circle zeros _circle_zero finds."""

    name: str
    h_terms: tuple[tuple[int, int], ...]  # (sign, c) residues mod the subgroup order

    def __post_init__(self):
        # s*s = 1 mod 5 iff s = +-1 mod 5; a check per criterion verdict
        if len(self.h_terms) == 3:
            (s0, _), (s1, _), (s2, _) = self.h_terms
            if s0 * s0 % CHAR == s1 * s1 % CHAR == s2 * s2 % CHAR == 1:
                return
        raise UsageError(f"{self.name}: h must be three terms with signs "
                         f"+1 or -1 (got {self.h_terms})")

    def h_at(self, x: FieldElement) -> FieldElement:
        return sparse_at(self.h_terms, x)       # a sign is a GF(5) coefficient

    def eval_at(self, x: FieldElement) -> FieldElement:
        q = x.field.q
        return x * self.h_at(x) ** (q - 1)


FractionalMap = ClosedFormMap | PowerFormMap


def sparse_at(terms, x: FieldElement) -> FieldElement:
    """sum coeff * x^e over (coeff, e) pairs by scalar arithmetic, the
    reference for the batched sums; a coefficient is read mod 5."""
    acc = x.field.zero
    for coeff, e in terms:
        acc = acc + x.field.scalar(coeff) * x ** e
    return acc


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
                     num=_IDENT, den=_IDENT, outer=1),
    "half_f": dict(kind="closed", parity="any", sign=-1, pre="1",
                   num=((1, "1"), (-2, "0")), den=((1, "1"), (2, "0"))),
    "half_g": dict(kind="closed", parity="any", sign=-1, pre="1",
                   num=((1, "1"), (2, "0")), den=((1, "1"), (-2, "0"))),
    "half_f_inv": dict(kind="closed", parity="any", sign=-1, pre="-1",
                       num=((1, "1"), (-2, "0")), den=((1, "1"), (2, "0"))),
    "half_g_inv": dict(kind="closed", parity="any", sign=-1, pre="-1",
                       num=((1, "1"), (2, "0")), den=((1, "1"), (-2, "0"))),
    "g1_plus": dict(kind="closed", parity="any", sign=-1, pre="0",
                    num=((1, "(q+3)/4"), (-2, "0")),
                    den=((1, "(q+3)/4"), (2, "0"))),
    "g1_minus": dict(kind="closed", parity="any", sign=1, pre="0",
                     num=((1, "(q+3)/4"), (-2, "0")),
                     den=((1, "(q+3)/4"), (2, "0"))),
    "conj2_map": dict(kind="closed", parity="even", sign=-1, pre="1",
                      num=((1, "2"), (-2, "0")), den=((1, "2"), (2, "0"))),
    "p1_bridge": dict(kind="closed", parity="odd", sign=-1, pre="1",
                      num=((1, "2"), (2, "0")), den=((1, "2"), (-2, "0"))),
    "p2_bridge": dict(kind="closed", parity="even", sign=-1, pre="-1",
                      num=((1, "2"), (2, "0")), den=((1, "2"), (-2, "0"))),
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
    q = tower_field(k).q
    resolve = lambda e: resolve_residue(e, q, k)
    if spec["kind"] == "power":
        return PowerFormMap(name=name, h_terms=tuple(
            (s, resolve(e)) for s, e in spec["h"]))
    num = tuple((c % CHAR, resolve(e)) for c, e in spec["num"])
    den = tuple((c % CHAR, resolve(e)) for c, e in spec["den"])
    return ClosedFormMap(
        name=name, sign=spec["sign"], pre_exp=resolve(spec["pre"]),
        num=num, den=den, outer=spec.get("outer", 2))


def reciprocal_map(map_: FractionalMap) -> ClosedFormMap:
    """1/map_ on the circle, as a closed form.  There x^q = 1/x, and h has
    GF(5) coefficients, so h(x)^q = h(1/x) and x * h(x)^(q-1) has the
    reciprocal x^-1 * h(x)/h(x^-1); a closed form swaps num and den and
    negates pre_exp."""
    name = f"1/{map_.name}"
    if isinstance(map_, PowerFormMap):
        h = tuple((s % CHAR, c) for s, c in map_.h_terms)
        return ClosedFormMap(name=name, sign=1, pre_exp=-1, num=h,
                             den=tuple((s, -c) for s, c in h), outer=1)
    return ClosedFormMap(name=name, sign=map_.sign, pre_exp=-map_.pre_exp,
                         num=map_.den, den=map_.num, outer=map_.outer)


# ---------------------------------------------------------------------------
# batched evaluation over unity indices

def eval_power_on_unity(map_: PowerFormMap, group: UnityGroup, indices):
    """Power-form circle indices; returns (values, zero_index).

    x * h(x)^(q-1) at x = zeta^i is zeta^(i + index of h^(q-1)), so it stays
    on the circle.  If h vanishes at some point the first such index is
    returned and values is None (the image would leave the circle).  Log h
    comes from the square's table up to SQUARE_TABLE_K, else from packed
    words (see the module docstring).
    """
    idx = np.asarray(indices, dtype=np.int64)
    n = group.n
    if group.k <= SQUARE_TABLE_K:
        # h = s0*x^c0 * (1 + l1*x^u + l2*x^v), l_i = s_i*s0: log s0 is 0 mod
        # n, and as q-1 = -2 mod n, x * (x^c0)^(q-1) is x^(1 - 2*c0)
        (s0, c0), (s1, c1), (s2, c2) = map_.h_terms
        table, u, v = group.square_table(
            1 if s1 * s0 % CHAR == 1 else -1, 1 if s2 * s0 % CHAR == 1 else -1,
            (c1 - c0) % n, (c2 - c0) % n)
        logs = table[idx * u % n * n + idx * v % n]
        at = idx * ((1 - 2 * c0) % n) % n
    else:       # the signs are the coefficients
        logs = group.circle_logs(group.sum_words(idx, map_.h_terms))
        at = idx
    zeros = np.flatnonzero(logs < 0)
    if zeros.size:
        return None, int(idx[zeros[0]])
    # h^(q-1) = g^((q-1) log h) = zeta^(log h mod n), as int64
    return wrap_mod(logs + at, n), None


def closed_logs(map_: ClosedFormMap, group: UnityGroup, indices):
    """log_g of a closed form's values at zeta^i for i in indices, in
    Z/(q^2-1), and -1 where the value is zero; returns (logs, pole_index)
    as eval_power_on_unity does.  x^pre at x = zeta^i is g^((q-1)*pre*i),
    and -1 is g^((q^2-1)/2)."""
    idx = np.asarray(indices, dtype=np.int64)
    num = group.sum_logs(idx, map_.num)
    den = group.sum_logs(idx, map_.den)
    poles = np.flatnonzero(den < 0)
    if poles.size:
        return None, int(idx[poles[0]])
    order = group.log_order
    shift = order // 2 if map_.sign < 0 else 0
    logs = (map_.outer * (num - den) + shift
            + idx * ((group.q - 1) * map_.pre_exp % order)) % order
    return np.where(num < 0, -1, logs), None


def eval_closed_on_unity(map_: ClosedFormMap, group: UnityGroup, indices):
    """Closed-form circle indices (-1 off the circle); returns
    (values, pole_index) as eval_power_on_unity does."""
    logs, pole = closed_logs(map_, group, indices)
    if pole is not None:
        return None, pole
    # g^L lies on the circle iff (q-1) | L, and is then zeta^(L/(q-1))
    q1 = group.q - 1
    return np.where((logs >= 0) & (logs % q1 == 0), logs // q1, -1), None


def eval_on_unity(map_: FractionalMap, group: UnityGroup, indices):
    if isinstance(map_, PowerFormMap):
        return eval_power_on_unity(map_, group, indices)
    return eval_closed_on_unity(map_, group, indices)


# ---------------------------------------------------------------------------
# permutation verdicts

def _first_collision(values) -> tuple[int, int] | None:
    """Earliest (i, j), i < j with values[i] == values[j], by second position.

    Below 256 values a scan stops at the first repeat, the earliest by
    second position: a failing map's prefix of m points repeats within
    about m/3 of them, and past about 250 values the sort costs less (on
    the 500-point k=6 prefix, 17 against 26 us).  From 512 values on,
    values in [0, 2^16) sort as uint16 keys, where numpy's stable sort is
    a radix sort (below, int64 keys cost less)."""
    arr = keys = np.asarray(values)
    if arr.size < 256:
        seen: dict[int, int] = {}
        for j, value in enumerate(arr.tolist()):
            if value in seen:
                return seen[value], j
            seen[value] = j
        return None
    if arr.size >= 512 and arr.min() >= 0 and arr.max() < 1 << 16:
        keys = arr.astype(np.uint16, copy=False)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    dup = np.flatnonzero(ranked[1:] == ranked[:-1])
    if not dup.size:
        return None
    # a stable sort puts every repeat after its first occurrence
    second = int(order[dup + 1].min())
    return int(np.argmax(arr == arr[second])), second


def _circle_zero(n: int, terms) -> int | None:
    """The first circle index i where h = sum s * x^c over three signed
    terms vanishes at zeta^i, or None: by index arithmetic, with no point
    evaluated (see the module docstring)."""
    if n % 3:                       # even k: no point of order 3 on the circle
        return None
    (s0, c0), (s1, c1), (s2, c2) = terms
    a = n // 3 if s1 * s0 % CHAR == 1 else n // 6      # y of order 3 or 6
    b = 0 if s2 * s0 % CHAR == 1 else n // 2           # z = y^2 or -y^2
    u, w = (c1 - c0) % n, (c2 + c0 - 2 * c1) % n
    # u*i = +-a and w*i = b mod n: i = +-ry mod my and i = rz mod mz
    gu, gw = math.gcd(u, n), math.gcd(w, n)
    if a % gu or b % gw:
        return None
    my, mz = n // gu, n // gw
    ry = a // gu * pow(u // gu, -1, my) % my
    rz = b // gw * pow(w // gw, -1, mz) % mz
    # the least common i of each pair, by the Chinese remainder step
    g = math.gcd(my, mz)
    step = pow(my // g, -1, mz // g)
    firsts = [r + my * ((rz - r) // g * step % (mz // g))
              for r in (ry, -ry % my) if (rz - r) % g == 0]
    return min(firsts, default=None)


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
    """Does the map permute the named domain?  Its first zero or pole, else
    its first escape, else a pass by the orbit rule, else its first repeat,
    all from the images at the domain's orbit leaders (see the module
    docstring).  A power form on mu takes its zeros from _circle_zero: a
    zero at a leader is a fault of that rule, and raises."""
    subject = f"{map_.name} on {domain} over {group.field!r}"
    dom = group.domain(domain)
    orbits, points = dom.orbits, len(dom.indices)
    ruled = domain == "mu" and isinstance(map_, PowerFormMap)
    bad = _circle_zero(group.n, map_.h_terms) if ruled else None
    if bad is None:
        images, bad = eval_on_unity(map_, group, orbits.leaders)
        if ruled and bad is not None:
            raise RuntimeError(f"h of {map_.name} vanishes at circle index "
                               f"{bad}, which _circle_zero missed")
    if bad is not None:
        return _fail(subject, points, _zero_witness(group, map_, bad))
    inside = None if ruled else dom.inside[images]  # a power form keeps mu
    if inside is not None and not inside.all():
        i = int(orbits.leaders[inside.argmin()])    # the first escape
        x = group.element(i)
        return _fail(subject, points, {"type": "escape", "x": x.csv(),
                                       "index": i,
                                       "image": map_.eval_at(x).csv()})
    if orbits.permutes(images):
        return VerificationReport(subject=subject, method="enumeration",
                                  passed=True, counts={"points": points})
    m = math.isqrt(16 * points)
    # where points >= 4m (mu from k = 4 on) the prefix first: a repeat
    # there is the first
    values = orbits.fill(images, dom.indices[:m] if 4 * m <= points
                         else dom.indices)
    coll = _first_collision(values)
    if coll is None:
        values = orbits.fill(images, dom.indices)
        coll = _first_collision(values)
    return _fail(subject, points,
                 _collision_witness(group, dom.indices, values, coll))


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


def reciprocal_identity_report(name_a: str, name_b: str,
                               k: int) -> VerificationReport:
    """Pointwise product of two maps equals 1 everywhere on the circle:
    the first map agrees with the reciprocal of the second."""
    return pointwise_agreement_report(
        f"{name_a}*{name_b} = 1 on mu over GF(5^{2*k})",
        unity_group(tower_field(k)), build_map(name_a, k),
        reciprocal_map(build_map(name_b, k)), "mu")


@timed
def pointwise_agreement_report(subject: str, group: UnityGroup,
                               map_a: FractionalMap, map_b: FractionalMap,
                               domain: str, power: int = 1
                               ) -> VerificationReport:
    """map_a at x^power equals map_b at x for every x in the named domain.

    A zero or pole (map_a's first) is reported at its own circle point; a
    mismatch at x.  Only the domain's orbit leaders are compared: x^power
    commutes with x -> x^5, so the zeros, poles and mismatches of two maps
    with GF(5) coefficients are Frobenius-closed, and the first of each is
    a leader.
    """
    dom = group.domain(domain)
    counts = {"points": len(dom.indices)}
    idx_b = dom.orbits.leaders
    idx_a = power * idx_b % group.n
    va, bad_a = eval_on_unity(map_a, group, idx_a)
    vb, bad_b = eval_on_unity(map_b, group, idx_b)
    failure = None
    if bad_a is not None or bad_b is not None:
        failure = ("zero_or_pole", bad_a if bad_a is not None else bad_b)
    else:
        diff = va != vb
        # two off-circle images carry no circle index, and only closed
        # forms leave the circle: compare their logs
        off = np.flatnonzero((va < 0) & (vb < 0))
        if off.size:
            diff[off] = (closed_logs(map_a, group, idx_a[off])[0]
                         != closed_logs(map_b, group, idx_b[off])[0])
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
    return pointwise_agreement_report(
        f"{map_a.name} = {map_b.name} on {domain} over {group.field!r}",
        group, map_a, map_b, domain)


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
