"""Cross-checks of the log/Zech table kernel: against packed power-basis
arithmetic over the same modulus, and the whole-field sweep against its
digit-row form (test helpers, not collected)."""

import itertools
import random

import numpy as np

from niho_perm.errors import UsageError
from niho_perm.field import CHAR, FieldParams, PolyKernel
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
