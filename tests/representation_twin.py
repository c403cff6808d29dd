"""Cross-checks of the log/Zech table kernel: its tables against PolyKernel
arithmetic over the same modulus, the whole-field sweep and the circle sum
against their digit-row forms, the circle verdicts and comparisons against
their evaluation at every point, and the coset identity sweep against the
sweep over every log (test helpers, not collected)."""

import functools
import random

import numpy as np

from niho_perm.field import CHAR, FieldParams, PolyKernel, tower_field
from niho_perm.report import VerificationReport, timed
from niho_perm.unity import PowerFormMap, eval_on_unity


@functools.lru_cache(maxsize=None)
def _digit_rows(m: int) -> np.ndarray:
    """(5^m, m) int8 base-5 digits of every index, by index arithmetic."""
    return (np.arange(CHAR ** m)[:, None] // CHAR ** np.arange(m)
            % CHAR).astype(np.int8)


def bsum(kern, terms):
    """Element indices of sum coeff * a over (coeff, indices) pairs, where a
    may be an array or one index of a table kernel's field: GF(5) digit
    arithmetic on the base-5 indices, reading none of the kernel's tables
    (the reference for TableKernel.log_sum).  One digit-row gather per term and one reduction
    mod 5."""
    rows, pow5 = _digit_rows(kern.m), CHAR ** np.arange(kern.m, dtype=np.int64)
    acc = sum(np.multiply(rows[a], c % CHAR, dtype=np.int16) for c, a in terms)
    return (acc % CHAR).astype(np.int64) @ pow5


def digit_row_field_values(field: FieldParams, abs_terms):
    """trinomials.field_values by digit rows: every power x^e as an element
    index, summed with bsum (GF(5) digit arithmetic, no Zech table)."""
    kern = field.accel_tables
    n1 = kern.n1
    logs = np.arange(n1, dtype=np.int64)
    at_zero = sum(sign for sign, e in abs_terms if e == 0)    # 0^0 = 1
    out = np.empty(field.order, dtype=np.int64)
    out[0] = at_zero % CHAR
    out[1:] = bsum(kern, [(sign, kern.antilog[(logs * (e % n1)) % n1])
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


def full_permutation_report(map_, group, domain="mu") -> VerificationReport:
    """unity_permutation_report from the map at every index of the domain:
    its first zero or pole, else its first escape, else its first repeat by
    a plain scan in domain order, else a pass."""
    idx = group.domain(domain).indices.tolist()
    values, bad = eval_on_unity(map_, group, idx)
    pairs = [] if bad is not None else list(zip(idx, values.tolist()))
    members = set(idx)
    escapes = [i for i, v in pairs if v not in members]
    witness, seen = None, {}
    if bad is not None:
        kind = "zero" if isinstance(map_, PowerFormMap) else "pole"
        witness = {"type": kind, "x": group.csv(bad), "index": bad}
    elif escapes:
        x = group.element(escapes[0])
        witness = {"type": "escape", "x": x.csv(), "index": escapes[0],
                   "image": map_.eval_at(x).csv()}
    else:
        for i, v in pairs:
            if v in seen:
                witness = {"type": "collision", "x1": group.csv(seen[v]),
                           "x2": group.csv(i), "index1": seen[v],
                           "index2": i, "value": group.csv(v)}
                break
            seen[v] = i
    return VerificationReport(
        subject=f"{map_.name} on {domain} over {group.field!r}",
        method="enumeration", passed=witness is None, witness=witness,
        counts={"points": len(idx)})


def full_agreement_report(subject, group, map_a, map_b, domain="mu",
                          power=1) -> VerificationReport:
    """pointwise_agreement_report from both maps at every index i of the
    domain, map_a at power * i: map_a's first zero or pole, else map_b's,
    else the first i where the images differ (off-circle images compared
    as elements), else a pass."""
    n, idx = group.n, group.domain(domain).indices.tolist()
    va, bad_a = eval_on_unity(map_a, group, [power * i % n for i in idx])
    vb, bad_b = eval_on_unity(map_b, group, idx)
    witness = None
    if bad_a is not None or bad_b is not None:
        i = bad_a if bad_a is not None else bad_b
        witness = {"type": "zero_or_pole", "x": group.csv(i), "index": i}
    else:
        for i, a, b in zip(idx, va.tolist(), vb.tolist()):
            if a != b or a < 0 and (
                    map_a.eval_at(group.element(power * i % n))
                    != map_b.eval_at(group.element(i))):
                witness = {"type": "mismatch", "x": group.csv(i), "index": i}
                break
    return VerificationReport(subject=subject, method="enumeration",
                              passed=witness is None, witness=witness,
                              counts={"points": len(idx)})


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
            return e, field.log_csv(bad[0])
    return None


def polynomial_twin(field: FieldParams) -> PolyKernel:
    """Packed power-basis kernel over the field's modulus."""
    return PolyKernel(field.m, field.modulus)


@timed
def representation_agreement_report(field: FieldParams,
                                    samples: int = 10_000,
                                    seed: int = 0) -> VerificationReport:
    """Log/antilog/Zech tables vs PolyKernel arithmetic on ordered pairs.

    Exhaustive over all ordered pairs when the field has at most 5^4
    elements; otherwise a seeded sample of the given size.  The tables
    give the index of a*b from logt/antilog and of a + b and a - b from
    log_sum, over the whole pair array at once; PolyKernel gives each
    pair's product, sum and difference, read back as indices.  The witness
    is the first pair in sweep order that disagrees, and its first op.
    """
    kern = field.accel_tables
    twin = polynomial_twin(field)
    if field.order <= CHAR ** 4:
        ids = np.arange(field.order, dtype=np.int64)
        a, b = ids.repeat(field.order), np.tile(ids, field.order)
        method = "exhaustive"
    else:
        rng = random.Random(seed)
        a, b = np.array([(rng.randrange(field.order),
                          rng.randrange(field.order))
                         for _ in range(samples)], dtype=np.int64).T
        method = f"sampled(seed={seed})"
    la, lb = kern.logt[a], kern.logt[b]
    via_table = (
        np.where((la < 0) | (lb < 0), -1, (la + lb) % kern.n1),
        kern.log_sum([(1, la), (1, lb)]),
        kern.log_sum([(1, la), (-1, lb)]),
    )
    handles = {i: twin.from_index(i)
               for i in set(a.tolist()) | set(b.tolist())}
    pairs = [(handles[i], handles[j]) for i, j in zip(a.tolist(), b.tolist())]
    # an exhaustive sweep maps every reduced handle; -1 marks any other
    if method == "exhaustive":
        index_of = {h: i for i, h in handles.items()}

        def to_index(h):
            return index_of.get(h, -1)
    else:
        to_index = twin.to_index
    names = ("mul", "add", "sub")
    bad = np.array([
        np.where(logs < 0, 0, kern.antilog[logs])
        != np.array([to_index(op(x, y)) for x, y in pairs])
        for logs, op in zip(via_table, (twin.mul, twin.add, twin.sub))])
    subject = f"representation agreement over {field!r}"
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size:
        p = int(hit[0])
        return VerificationReport(
            subject=subject, method=method, passed=False,
            witness={"type": "representation_mismatch",
                     "op": names[int(np.argmax(bad[:, p]))],
                     "a": str(a[p]), "b": str(b[p])},
            counts={"pairs": a.size})
    return VerificationReport(subject=subject, method=method, passed=True,
                              counts={"pairs": a.size})
