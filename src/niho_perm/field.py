"""Exact arithmetic in GF(5^m) and the quadratic tower GF(5^k) < GF(5^{2k}).

Elements live in the power basis of a validated primitive modulus.  Every
element is a handle in one format at every m: the packed power basis, one
32-bit limb per base-5 digit, so that products reduce with whole-integer
operations instead of per-digit Python loops.  Small fields (5^m <= 5^8)
also have log/antilog/Zech tables, indexed by element index (the integer
whose base-5 digits are the coordinates) and built with numpy on the first
whole-field sweep; the exhaustive sweeps read only those tables.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FieldConstructionError, GuardExceededError, UsageError
from .report import VerificationReport, timed

CHAR = 5
MAX_DEGREE = 12
TABLE_LIMIT = CHAR ** 8

# One validated primitive modulus per degree, coefficients lowest-degree
# first, monic.  Degree 2 is pinned to x^2 + 4x + 2 so the documented GF(25)
# basis satisfies w^2 = w + 3; the rest are the smallest primitive monic in
# base-5 integer encoding.  Construction re-validates every entry.
PRIMITIVE_MODULI: dict[int, tuple[int, ...]] = {
    1: (3, 1),
    2: (2, 4, 1),
    3: (2, 3, 0, 1),
    4: (2, 2, 1, 0, 1),
    5: (2, 4, 0, 0, 0, 1),
    6: (2, 1, 0, 0, 0, 0, 1),
    7: (2, 3, 0, 0, 0, 0, 0, 1),
    8: (3, 2, 1, 0, 0, 0, 0, 0, 1),
    9: (3, 2, 1, 0, 0, 0, 0, 0, 0, 1),
    10: (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    11: (2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (3, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


# ---------------------------------------------------------------------------
# dense-list polynomial helpers over GF(5), used only for validation and
# construction (never on the hot path)

def _pstrip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a: list[int], b: list[int], f: Sequence[int]) -> list[int]:
    m = len(f) - 1
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % CHAR
    for d in range(len(c) - 1, m - 1, -1):
        cd = c[d]
        if cd:
            c[d] = 0
            for j in range(m):
                c[d - m + j] = (c[d - m + j] - cd * f[j]) % CHAR
    return _pstrip(c[:m])


def _ppowmod(a: list[int], e: int, f: Sequence[int]) -> list[int]:
    r, b = [1], list(a)
    while e:
        if e & 1:
            r = _pmulmod(r, b, f)
        b = _pmulmod(b, b, f)
        e >>= 1
    return r


def power_rows(base: list[int], count: int, f: Sequence[int]) -> np.ndarray:
    """(count, m) int8 digit rows of base^0 .. base^(count-1) mod f.

    Doubling blocks: multiplication by base^filled is GF(5)-linear, so rows
    [filled, 2*filled) are rows [0, filled) times its m x m matrix, whose
    rows are x^j * base^filled.
    """
    m = len(f) - 1
    rows = np.zeros((count, m), dtype=np.int8)
    rows[0, 0] = 1
    block, filled = list(base), 1       # block = base^filled
    while filled < count:
        step = min(filled, count - filled)
        mat = np.zeros((m, m), dtype=np.int16)   # products sum to <= 16m
        prod = _pmulmod([1], block, f)
        for j in range(m):
            mat[j, :len(prod)] = prod
            prod = _pmulmod(prod, [0, 1], f)
        rows[filled:filled + step] = rows[:step] @ mat % CHAR
        block = _pmulmod(block, block, f)
        filled += step
    return rows


_UNSIGNED = {np.dtype(np.int64): np.uint64, np.dtype(np.int32): np.uint32}


def wrap_mod(s, n: int, scratch=None) -> np.ndarray:
    """s mod n, in place, for int64 or int32 sums s of two residues in
    [0, n).  Viewed unsigned, s - n wraps above s exactly where s < n, so
    the smaller of the two is the residue: no mask, branch or division.  A
    negative s (a marker) comes back as s - n, still negative.  A numpy
    scalar comes back as a new 0-d array.  The unsigned n keeps numpy 1.x
    from promoting the difference to float64.  A scratch array of s's
    shape and dtype takes the difference, so that nothing is allocated."""
    s = np.asarray(s)
    unsigned = _UNSIGNED[s.dtype]
    u = s.view(unsigned)
    diff = None if scratch is None else scratch.view(unsigned)
    np.minimum(u, np.subtract(u, unsigned(n), out=diff), out=u)
    return s


def _psub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return _pstrip([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0))
                    % CHAR for i in range(n)])


def _pmod(a: Sequence[int], b: Sequence[int]) -> list[int]:
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], CHAR - 2, CHAR)
    while a and len(a) - 1 >= db:
        d = len(a) - 1 - db
        c = a[-1] * inv_lead % CHAR
        for j in range(len(b)):
            a[d + j] = (a[d + j] - c * b[j]) % CHAR
        _pstrip(a)
    return a


def _pgcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b)
    return a


def factorize(n: int) -> list[int]:
    """Prime factorization by trial division (inputs stay below 5^12)."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _validate_modulus(m: int, modulus: Sequence[int]) -> tuple[int, ...]:
    mod = tuple(int(c) for c in modulus)
    if len(mod) != m + 1:
        raise FieldConstructionError(
            f"modulus must have degree {m} (got {len(mod) - 1})")
    if any(not 0 <= c < CHAR for c in mod):
        raise FieldConstructionError("modulus digits must lie in 0..4")
    if mod[-1] != 1:
        raise FieldConstructionError("modulus must be monic")
    if m > 1:
        # irreducible iff x^(5^m) = x mod f and x^(5^(m/r)) - x is coprime
        # to f for every prime r | m
        frob = [[0, 1]]
        y = [0, 1]
        for _ in range(m):
            y2 = _pmulmod(y, y, mod)
            y = _pmulmod(_pmulmod(y2, y2, mod), y, mod)
            frob.append(y)
        if frob[m] != [0, 1]:
            raise FieldConstructionError(
                "modulus is reducible (x^(5^m) != x in the quotient)")
        for r in set(factorize(m)):
            g = _pgcd(_psub(frob[m // r], [0, 1]), mod)
            if len(g) > 1:
                raise FieldConstructionError(
                    f"modulus is reducible (shares a factor of degree "
                    f"dividing {m // r})")
    order = CHAR ** m - 1
    for r in sorted(set(factorize(order))):
        if _ppowmod([0, 1], order // r, mod) == [1]:
            raise FieldConstructionError(
                f"modulus is not primitive (root order divides {order // r})")
    return mod


# ---------------------------------------------------------------------------
# packed power-basis kernel (any degree)

_LIMB = 32
_LMASK = (1 << _LIMB) - 1
_DIV5 = 52429          # floor(v/5) = (v * 52429) >> 18, exact for v <= 81919
_DIV5_SHIFT = 18


class PolyKernel:
    """Power-basis arithmetic on integers packed one digit per 32-bit limb.

    Multiplication is a single big-integer product (the limb spacing keeps
    convolution sums exact), followed by modulus reduction rounds and a
    parallel per-limb reduction mod 5.  Safe because every intermediate limb
    stays below 81920.
    """

    def __init__(self, m: int, modulus: Sequence[int]):
        self.m = m
        self.modulus = tuple(modulus)
        self.order = CHAR ** m
        width = 2 * m
        self._shift = _LIMB * m
        self._low = (1 << self._shift) - 1
        ones_m = sum(1 << (_LIMB * i) for i in range(m))
        self._threes = 3 * ones_m
        self._sel = 8 * ones_m
        self._fives = 5 * ones_m
        self._qmask = sum(0x3FFF << (_LIMB * i) for i in range(width))
        # x^m mod f, packed: drives the reduction rounds
        red = [(-c) % CHAR for c in modulus[:m]]
        self._rpack = self._pack(red)
        self.zero = 0
        self.one = 1
        self.generator_handle = 1 << _LIMB if m > 1 else self._pack(
            [(-modulus[0]) % CHAR])

    def _pack(self, digits: Iterable[int]) -> int:
        v = 0
        for i, d in enumerate(digits):
            v |= int(d) << (_LIMB * i)
        return v

    def _mod5(self, v: int) -> int:
        q = ((v * _DIV5) >> _DIV5_SHIFT) & self._qmask
        return v - 5 * q

    def from_digits(self, digits: Iterable[int]) -> int:
        return self._pack(d % CHAR for d in digits)

    def digits(self, h: int) -> tuple[int, ...]:
        return tuple((h >> (_LIMB * i)) & _LMASK for i in range(self.m))

    def from_index(self, idx: int) -> int:
        v = 0
        for i in range(self.m):
            idx, d = divmod(idx, CHAR)
            v |= d << (_LIMB * i)
        return v

    def to_index(self, h: int) -> int:
        v = 0
        for i in reversed(range(self.m)):
            v = v * CHAR + ((h >> (_LIMB * i)) & _LMASK)
        return v

    def add(self, a: int, b: int) -> int:
        t = a + b
        sel = (t + self._threes) & self._sel
        return t - ((sel >> 3) * 5)

    def neg(self, a: int) -> int:
        t = self._fives - a
        sel = (t + self._threes) & self._sel
        return t - ((sel >> 3) * 5)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        acc = self._mod5(a * b)
        hi = acc >> self._shift
        while hi:
            acc = self._mod5((acc & self._low) + hi * self._rpack)
            hi = acc >> self._shift
        return acc

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return self.one
            if e < 0:
                raise ZeroDivisionError("0 has no negative power")
            return 0
        e %= self.order - 1
        r, b = self.one, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)


# ---------------------------------------------------------------------------
# table-accelerated kernel (5^m <= TABLE_LIMIT)

class TableKernel(PolyKernel):
    """PolyKernel plus log/antilog/Zech tables over the element index.

    Handles and scalar ops are PolyKernel's.  The tables are indexed by
    element index, the integer whose base-5 digits are the power-basis
    coordinates: antilog[n] is the index of g^n, logt[i] the log of the
    element of index i (-1 at zero).  Each table is built on its first
    read, so a field whose tables no whole-field sweep reads (a search or
    a criterion verdict at k = 4) never pays for them; zech reads the
    other two.  Logs are the only batch form: log_sum/log_product work on
    whole arrays of logs, as the exhaustive sweeps do.  bmul/badd on arrays
    of element indices are kept only as benchmark probe surface.
    """

    def __init__(self, m: int, modulus: Sequence[int]):
        super().__init__(m, modulus)
        self.n1 = self.order - 1

    @cached_property
    def antilog(self) -> np.ndarray:
        """antilog[n] = index of g^n."""
        pow5 = CHAR ** np.arange(self.m, dtype=np.int64)
        return power_rows([0, 1], self.n1,
                          self.modulus).astype(np.int64) @ pow5

    @cached_property
    def logt(self) -> np.ndarray:
        """logt[i] = log of the element of index i, -1 at zero."""
        logt = np.full(self.order, -1, dtype=np.int64)
        logt[self.antilog] = np.arange(self.n1, dtype=np.int64)
        return logt

    @cached_property
    def zech(self) -> np.ndarray:
        """zech[n] = log(g^n + 1), -1 where g^n = -1."""
        ids = self.antilog
        # index of g^n + 1: add 1 to the lowest base-5 digit, wrapping 4 to 0
        return self.logt[ids + 1 - CHAR * (ids % CHAR == CHAR - 1)]

    # -- batch ops on int64 arrays of element indices ---------------------
    def bmul(self, a, b):
        out = self.antilog[(self.logt[a] + self.logt[b]) % self.n1]
        zero = (a == 0) | (b == 0)
        return np.where(zero, 0, out)

    def badd(self, a, b):
        s = self.log_sum(((1, self.logt[a]), (1, self.logt[b])))
        return np.where(s < 0, 0, self.antilog[s])

    # -- batch ops on int64 arrays of logs, -1 standing for zero ------------
    def log_sum(self, terms):
        """Log of sum coeff * A over (coeff, logs) pairs, where logs (of A)
        may be an array or one log; -1 where the sum is zero.  Zech steps:
        log(A + B) = lA + zech[lB - lA], a negative lB - lA indexing from
        the table's end, and zech < 0 marking A + B = 0.  Each operand is
        tested for zeros (log -1) once, and the zero masks run only in a
        step where an operand holds one.  With no coefficient live, the sum
        is -1 in the broadcast shape of the operands."""
        n1, acc, acc_zero, shape = self.n1, None, False, ()
        for c, lb in terms:
            c %= CHAR
            if c == 0:
                shape = np.broadcast_shapes(shape, np.shape(lb))
                continue
            lb = np.asarray(lb, dtype=np.int64)
            zero = bool(lb.size) and lb.min() < 0
            if c != 1:
                scaled = wrap_mod(lb + self.logt[c], n1)
                if zero:
                    np.copyto(scaled, -1, where=lb < 0)
                lb = scaled
            if acc is None:
                acc, acc_zero = lb, zero
                continue
            if acc_zero is None:             # the last step may have cancelled
                acc_zero = bool(acc.size) and acc.min() < 0
            d = lb - acc
            if acc_zero:
                d %= n1                      # lA = -1 can put d at n1
            z = self.zech[d]
            s = wrap_mod(acc + z, n1)
            np.copyto(s, -1, where=z < 0)
            if acc_zero:
                s = np.where(acc < 0, lb, s)
            if zero:
                s = np.where(lb < 0, acc, s)
            acc, acc_zero = s, None
        return np.full(shape, -1, dtype=np.int64) if acc is None else acc

    def log_product(self, factors):
        """Log of prod A^e over (logs, e) pairs, -1 standing for zero, with
        0^0 = 1; a negative e needs A nonzero."""
        out, zero = 0, False
        for la, e in factors:
            if e:
                la = np.asarray(la, dtype=np.int64)
                out = out + la * e
                zero = zero | (la < 0)
        return np.where(zero, -1, out % self.n1)


# ---------------------------------------------------------------------------
# public field objects

class FieldParams:
    """Immutable description of one realization of GF(5^m).

    Holds the validated modulus, the cached generator, the arithmetic kernel
    (with log tables, built on first read, when 5^m fits the table budget),
    and, for even m, the tower structure GF(5^k) < GF(5^{2k}) with k = m/2.
    """

    def __init__(self, m: int, modulus: tuple[int, ...], _token=None):
        if _token is not _FIELD_TOKEN:
            raise UsageError("use make_field() to construct fields")
        self.p = CHAR
        self.m = m
        self.modulus = modulus
        self.order = CHAR ** m
        self.subfield_degree = m // 2 if m % 2 == 0 else None
        if self.order <= TABLE_LIMIT:
            self.kernel: PolyKernel = TableKernel(m, modulus)
        else:
            self.kernel = PolyKernel(m, modulus)
        self.signature = (m, modulus)

    def __repr__(self):
        return f"GF(5^{self.m})"

    def __eq__(self, other):
        return isinstance(other, FieldParams) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    @property
    def q(self) -> int:
        """Subfield size 5^k of the tower; requires even m."""
        if self.subfield_degree is None:
            raise UsageError(f"{self!r} has no quadratic tower structure")
        return CHAR ** self.subfield_degree

    @property
    def accel_tables(self) -> TableKernel:
        """The log/antilog/Zech tables that every whole-field sweep reads,
        each built on its first read (the kernel's cached properties).
        Only fields of at most TABLE_LIMIT = 5^8 elements have them; any
        other field raises GuardExceededError naming it."""
        if not isinstance(self.kernel, TableKernel):
            raise GuardExceededError(
                f"{self!r} has no log tables (fields of at most 5^8 elements "
                f"have them: k <= 4 for GF(5^2k))")
        return self.kernel

    @property
    def generator(self) -> "FieldElement":
        return FieldElement(self, self.kernel.generator_handle)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.kernel.zero)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.kernel.one)

    def scalar(self, c: int) -> "FieldElement":
        return FieldElement(self, self.kernel.from_digits([c % CHAR]))

    def from_digits(self, digits: Iterable[int]) -> "FieldElement":
        digits = list(digits)
        if len(digits) > self.m:
            raise UsageError(f"too many digits for {self!r}")
        return FieldElement(self, self.kernel.from_digits(digits))

    def from_csv(self, text: str) -> "FieldElement":
        return self.from_digits(int(t) for t in text.split(","))

    def from_index(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.order:
            raise UsageError("element index out of range")
        return FieldElement(self, self.kernel.from_index(idx))

    def from_log(self, log: int) -> "FieldElement":
        """g^log, read from the log tables; a negative log, the tables'
        mark for zero, gives zero."""
        if log < 0:
            return self.zero
        return self.from_index(int(self.accel_tables.antilog[log]))

    def elements(self) -> Iterator["FieldElement"]:
        for idx in range(self.order):
            yield self.from_index(idx)

    def random_element(self, rng) -> "FieldElement":
        return self.from_index(rng.randrange(self.order))


_FIELD_TOKEN = object()


class FieldElement:
    """One element of a FieldParams context, in canonical reduced form."""

    __slots__ = ("field", "handle")

    def __init__(self, field: FieldParams, handle: int):
        self.field = field
        self.handle = handle

    @property
    def digits(self) -> tuple[int, ...]:
        return self.field.kernel.digits(self.handle)

    @property
    def index(self) -> int:
        return self.field.kernel.to_index(self.handle)

    @property
    def is_zero(self) -> bool:
        return self.handle == 0

    def csv(self) -> str:
        return ",".join(str(d) for d in self.digits)

    def __str__(self):
        return self.csv()

    def __repr__(self):
        return f"<{self.field!r} {self.csv()}>"

    def __hash__(self):
        return hash((self.field.signature, self.handle))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.signature != self.field.signature:
                raise UsageError("operands belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.handle == o.handle

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.kernel.add(self.handle, o.handle))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.kernel.sub(self.handle, o.handle))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.kernel.sub(o.handle, self.handle))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.kernel.mul(self.handle, o.handle))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.kernel.neg(self.handle))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.kernel.pow(self.handle, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.kernel.inv(self.handle))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()


@lru_cache(maxsize=None)
def _make_field_cached(m: int, modulus: tuple[int, ...]) -> FieldParams:
    # validated once per (m, modulus); a failure is not cached and raises
    # again on the next call
    return FieldParams(m, _validate_modulus(m, modulus), _token=_FIELD_TOKEN)


def make_field(m: int, modulus_override: Sequence[int] | str | None = None
               ) -> FieldParams:
    """Build (or fetch the cached) GF(5^m) with a validated primitive modulus.

    The override, if given, is a coefficient list lowest degree first (or a
    comma-separated digit string) and must be monic, irreducible and
    primitive; validation failures name the failing check.
    """
    if not isinstance(m, int) or not 1 <= m <= MAX_DEGREE:
        raise UsageError(
            f"degree m must be an integer in 1..{MAX_DEGREE} (got {m!r})")
    if modulus_override is None:
        return _make_field_cached(m, PRIMITIVE_MODULI[m])
    digits = (modulus_override.split(",") if isinstance(modulus_override, str)
              else modulus_override)
    try:
        modulus = tuple(int(c) for c in digits)
    except (TypeError, ValueError):
        raise UsageError(f"modulus digits must be integers, got "
                         f"{modulus_override!r}") from None
    return _make_field_cached(m, modulus)


def tower_field(k: int) -> FieldParams:
    """GF(5^{2k}) with its subfield tower marked."""
    if not isinstance(k, int) or not 1 <= k <= MAX_DEGREE // 2:
        raise UsageError(f"k must be an integer in 1..{MAX_DEGREE // 2}")
    return make_field(2 * k)


def frobenius(x: FieldElement) -> FieldElement:
    """x^(5^k) in the tower GF(5^k) < GF(5^{2k}); an involution."""
    return x ** x.field.q


def trace(x: FieldElement) -> FieldElement:
    """Relative trace x + x^q onto the Frobenius-fixed subfield."""
    return x + frobenius(x)


def norm(x: FieldElement) -> FieldElement:
    """Relative norm x^(q+1) onto the Frobenius-fixed subfield."""
    return x * frobenius(x)


def in_subfield(x: FieldElement) -> bool:
    return frobenius(x) == x


# ---------------------------------------------------------------------------
# the five power-trace identities

# Tr(x^e) = sum coeff * Tr(x)^a * N(x)^b, coefficients already reduced mod 5
TRACE_POWER_IDENTITIES: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...] = (
    (2, ((1, 2, 0), (3, 0, 1))),
    (3, ((1, 3, 0), (2, 1, 1))),
    (4, ((1, 4, 0), (1, 2, 1), (2, 0, 2))),
    (8, ((1, 8, 0), (2, 6, 1), (4, 2, 3), (2, 0, 4))),
    (9, ((1, 9, 0), (1, 7, 1), (4, 1, 4), (2, 5, 2))),
)


@timed
def trace_power_identity_report(k: int) -> VerificationReport:
    """Check all five Tr(x^e)-in-(Tr, N) identities over every x in GF(5^{2k}).

    Every identity is homogeneous, a + 2b = e in each term: for lambda in
    GF(q)*, lambda^q = lambda, so Tr((lambda x)^e) = lambda^e Tr(x^e) and
    Tr(lambda x)^a N(lambda x)^b = lambda^(a+2b) Tr(x)^a N(x)^b, and an
    identity holds at x iff it holds at lambda x.  Since g^(q+1) generates
    GF(q)*, g^L = g^(L mod (q+1)) * lambda: a failing log L implies a
    failing L mod (q+1) <= L.  So the sweep over L in [0, q] decides the
    whole field and finds the same first failing x = g^L as a sweep over
    every log would.
    """
    field = tower_field(k)
    kern = field.accel_tables
    q = field.q
    n1 = kern.n1
    logs = np.arange(q + 1, dtype=np.int64)      # one x per GF(q)* coset

    def tr_of_power(e: int):
        return kern.log_sum([(1, (logs * ((e * p) % n1)) % n1)
                             for p in (1, q)])

    lt = tr_of_power(1)
    ln = (logs * ((q + 1) % n1)) % n1
    subject = f"power-trace identity suite over GF(5^{2*k})"
    for e, terms in TRACE_POWER_IDENTITIES:
        # x = 0 reads 0 = 0 for every identity: Tr(0) = N(0) = 0 and every
        # right-hand term carries a positive power of Tr or N; and each
        # term must be homogeneous of degree e for the coset sweep
        assert all(a or b for _, a, b in terms)
        assert all(a + 2 * b == e for _, a, b in terms)
        lhs = tr_of_power(e)
        rhs = kern.log_sum([(coeff, kern.log_product(((lt, a_exp),
                                                      (ln, b_exp))))
                            for coeff, a_exp, b_exp in terms])
        bad = np.nonzero(lhs != rhs)[0]
        if bad.size:
            return VerificationReport(
                subject=subject, method="exhaustive", passed=False,
                witness={"type": "identity_mismatch", "power": e,
                         "x": field.from_log(bad[0]).csv()},
                counts={"elements": field.order, "identities": 5})
    return VerificationReport(
        subject=subject, method="exhaustive", passed=True,
        counts={"elements": field.order, "identities": 5})
