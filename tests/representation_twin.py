"""Cross-checks of the log/Zech table kernel: against packed power-basis
arithmetic over the same modulus, the whole-field sweep and the circle sum
against their digit-row forms, and the coset identity sweep against the
sweep over every log (test helpers, not collected)."""

import itertools
import random

import numpy as np

from niho_perm.errors import UsageError
from niho_perm.field import CHAR, FieldParams, PolyKernel, tower_field
from niho_perm.report import VerificationReport, timed


def digit_row_field_values(field: FieldParams, abs_terms):
    """trinomials.field_values by digit rows: every power x^e as a handle,
    summed with TableKernel.bsum (GF(5) digit arithmetic, no Zech table)."""
    kern = field.accel_tables
    n1 = kern.n1
    logs = np.arange(n1, dtype=np.int64)
    at_zero = sum(sign for sign, e in abs_terms if e == 0)    # 0^0 = 1
    out = np.empty(field.order, dtype=np.int64)
    out[0] = kern.from_digits([at_zero])
    out[1:] = kern.bsum([(sign, kern.antilog[(logs * (e % n1)) % n1])
                         for sign, e in abs_terms])
    return out


def digit_row_sum_logs(group, indices, terms):
    """UnityGroup.sum_logs by digit rows: one (len, 2k) gather of the
    group's int8 coords per term, an int16 sum reduced mod 5, and an int64
    matmul to the GF(q) indices a and b."""
    idx = np.asarray(indices, dtype=np.int64)
    n = group.n
    pow5 = CHAR ** np.arange(2 * group.k, dtype=np.int64)
    acc = sum(np.multiply(group.coords[(idx * (e % n)) % n], c % CHAR,
                          dtype=np.int16) for c, e in terms)
    b, a = np.divmod((acc % CHAR).astype(np.int64) @ pow5, group.q)
    return group.pair_logs(a, b)


def identity_first_failure(k: int, identities):
    """(power, x csv) of the first failing identity and point, sweeping
    every log of GF(5^{2k})* in order, or None: the whole-field form of
    field.trace_power_identity_report."""
    field = tower_field(k)
    kern = field.accel_tables
    q, n1 = field.q, kern.n1
    logs = np.arange(n1, dtype=np.int64)

    def tr_of_power(e):
        return kern.log_sum([(1, (logs * ((e * p) % n1)) % n1)
                             for p in (1, q)])

    lt, ln = tr_of_power(1), (logs * ((q + 1) % n1)) % n1
    for e, terms in identities:
        rhs = kern.log_sum([(c, kern.log_product(((lt, a), (ln, b))))
                            for c, a, b in terms])
        bad = np.flatnonzero(tr_of_power(e) != rhs)
        if bad.size:
            return e, field.from_index(int(kern.antilog[bad[0]])).csv()
    return None


def polynomial_twin(field: FieldParams) -> PolyKernel:
    """Packed power-basis kernel over the field's modulus."""
    return PolyKernel(field.m, field.modulus)


@timed
def representation_agreement_report(field: FieldParams,
                                    samples: int = 10_000,
                                    seed: int = 0) -> VerificationReport:
    """Table arithmetic vs packed power-basis arithmetic on random pairs.

    Exhaustive over all ordered pairs when the field has at most 5^4
    elements; otherwise a seeded sample of the given size.
    """
    kern = field.kernel
    if not kern.has_tables:
        raise UsageError("agreement check applies to table-backed fields")
    twin = polynomial_twin(field)
    if field.order <= CHAR ** 4:
        pairs = itertools.product(range(field.order), repeat=2)
        total = field.order ** 2
        method = "exhaustive"
    else:
        rng = random.Random(seed)
        pairs = ((rng.randrange(field.order), rng.randrange(field.order))
                 for _ in range(samples))
        total = samples
        method = f"sampled(seed={seed})"
    checked = 0
    for ia, ib in pairs:
        a_t, b_t = kern.from_index(ia), kern.from_index(ib)
        a_p, b_p = twin.from_index(ia), twin.from_index(ib)
        ops = (
            ("mul", kern.mul(a_t, b_t), twin.mul(a_p, b_p)),
            ("add", kern.add(a_t, b_t), twin.add(a_p, b_p)),
            ("sub", kern.sub(a_t, b_t), twin.sub(a_p, b_p)),
        )
        for name, via_table, via_poly in ops:
            if kern.digits(via_table) != twin.digits(via_poly):
                return VerificationReport(
                    subject=f"representation agreement over {field!r}",
                    method=method, passed=False,
                    witness={"type": "representation_mismatch", "op": name,
                             "a": str(ia), "b": str(ib)},
                    counts={"pairs": total})
        checked += 1
    return VerificationReport(
        subject=f"representation agreement over {field!r}",
        method=method, passed=True, counts={"pairs": checked})
