"""Command-line interface: every verification surface behind one entry
point with JSON/TSV/text reports.

Exit codes: 0 when all requested checks pass, 1 on a verification failure
(the report carries a witness), 2 on usage errors and on I/O errors such as
an --out path that cannot be written, 3 on any other (internal) error, so
that 1 always means a witness.  Given the same
arguments and seed the emitted bytes are identical run to run; elapsed
times are isolated in dedicated fields excluded from that contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from .errors import NihoPermError, UsageError
from .field import PRIMITIVE_MODULI, make_field, \
    trace_power_identity_report
from .residues import parse_signed_residue
from .transforms import equivalent_pairs, pair_from_text, pair_of_family, \
    table_report
from .trinomials import (EXHAUSTIVE_GUARD_K, FAMILY_IDS, build_trinomial,
                         family_is_conjectural, is_permutation_exhaustive,
                         is_permutation_via_criterion, oracle_agreement_report,
                         theorem_family)
from .conjectures import (conjecture1_check, conjecture2_check,
                          proposition_check, search_problem_instances)
from .unity import PUBLIC_MAP_NAMES, mu_check_report

SCHEMA_VERSION = 1


def _parse_terms(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        term = parse_signed_residue(part)
        if term is None:
            raise UsageError(f"bad signed residue {part!r} in --terms")
        out.append(term)
    if len(out) != 3:
        raise UsageError("--terms needs exactly three signed residues")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niho-perm",
        description="Construct, verify, transform and search permutation "
                    "trinomials with Niho exponents over GF(5^2k).")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, handler, fmt_default="json"):
        p.set_defaults(handler=handler)
        p.add_argument("--format", dest="fmt", default=fmt_default,
                       choices=("json", "tsv", "text"))
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")

    p = sub.add_parser("field-info", help="embedded moduli or one field")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--modulus", default=None,
                   help="override modulus, digits lowest degree first")
    add_common(p, _cmd_field_info)

    p = sub.add_parser("lemma1", help="power-trace identity sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--force", action="store_true")
    add_common(p, _cmd_lemma1)

    p = sub.add_parser("mu-check", help="does a named map permute the circle")
    p.add_argument("--map", dest="map_name", required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_mu_check)

    p = sub.add_parser("verify", help="trinomial permutation verdicts")
    p.add_argument("--family", default=None)
    p.add_argument("--terms", default=None,
                   help="three signed residues, e.g. '+0,+7,-14'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default=None,
                   choices=("both", "exhaustive", "criterion"))
    add_common(p, _cmd_verify)

    p = sub.add_parser("table1", help="reproduce the pair table at one k")
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_table1, fmt_default="tsv")

    p = sub.add_parser("equivalents", help="transform-equivalent pairs")
    p.add_argument("--family", default=None)
    p.add_argument("--pair", default=None, help="e.g. '+2,-4'")
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_equivalents)

    p = sub.add_parser("conjecture", help="finite conjecture verification")
    p.add_argument("--id", dest="conjecture_id", type=int, required=True,
                   choices=(1, 2))
    p.add_argument("--k", required=True,
                   help="one k or a comma list, e.g. '1,3,5'")
    add_common(p, _cmd_conjecture)

    p = sub.add_parser("proposition", help="conditional family verification")
    p.add_argument("--id", dest="prop_id", required=True, choices=("P1", "P2"))
    p.add_argument("--k", type=int, required=True)
    add_common(p, _cmd_proposition)

    p = sub.add_parser("search", help="criterion search over residue pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--constraint", default="none",
                   choices=("none", "sum-zero", "sum-half"))
    p.add_argument("--signs", default="all")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--force", action="store_true")
    add_common(p, _cmd_search, fmt_default="tsv")

    p = sub.add_parser("oracle-compare", help="criterion vs oracle agreement")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, _cmd_oracle_compare)
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers: each reads the parsed arguments and returns
# (passed, payload, tsv_rows | None)

def _cmd_field_info(args):
    if args.m is None and args.modulus is None:
        payload = {"embedded_moduli": {
            str(m): ",".join(str(c) for c in mod)
            for m, mod in sorted(PRIMITIVE_MODULI.items())}}
        return True, payload, None
    if args.m is None:
        raise UsageError("--modulus needs --m")
    fld = make_field(args.m, args.modulus)
    payload = {
        "m": fld.m, "order": fld.order,
        "modulus": ",".join(str(c) for c in fld.modulus),
        "generator": fld.generator.csv(),
        "subfield_degree": fld.subfield_degree,
        "accel_tables": fld.accel_tables is not None,
    }
    return True, payload, None


def _cmd_lemma1(args):
    rep = trace_power_identity_report(args.k, force=args.force)
    return rep.passed, {"k": args.k, "report": rep.as_dict()}, None


def _cmd_mu_check(args):
    rep = mu_check_report(args.map_name, args.k)
    payload = {"map": args.map_name, "k": args.k, "domain": "mu",
               "pass": rep.passed}
    if rep.witness is not None:
        payload["witness"] = rep.witness
    payload["counts"] = rep.counts
    return rep.passed, payload, None


def _cmd_verify(args):
    if (args.family is None) == (args.terms is None):
        raise UsageError("verify needs exactly one of --family or --terms")
    if args.family is not None:
        if args.family not in FAMILY_IDS:
            raise UsageError(
                f"unknown family {args.family!r}; valid ids: "
                f"{', '.join(FAMILY_IDS)}; valid maps: "
                f"{', '.join(PUBLIC_MAP_NAMES)}")
        trin = theorem_family(args.family, args.k)
    else:
        trin = build_trinomial(args.k, _parse_terms(args.terms))
    method = args.method
    if method is None:
        method = "both" if args.k <= EXHAUSTIVE_GUARD_K else "criterion"
    methods: dict = {}
    passed = True
    if method in ("both", "criterion"):
        rep = is_permutation_via_criterion(trin)
        methods["criterion"] = rep.passed
        passed = passed and rep.passed
        crit_witness = rep.witness
    else:
        crit_witness = None
    orac_witness = None
    if method in ("both", "exhaustive"):
        rep = is_permutation_exhaustive(trin)
        methods["exhaustive"] = rep.passed
        passed = passed and rep.passed
        orac_witness = rep.witness
    payload = {
        "family": args.family, "terms": list(trin.terms), "k": args.k,
        "subject": trin.subject(), "exponents": list(trin.exponents),
        "methods": methods,
    }
    if args.family and family_is_conjectural(args.family):
        payload["conjectural"] = True
    witness = orac_witness or crit_witness
    if witness:
        payload["witness"] = witness
    return passed, payload, None


_TABLE_COLUMNS = ("row", "pair", "condition", "criterion_pass", "oracle_pass",
                  "equivalents_checked", "equivalents_pass", "source")


def _cmd_table1(args):
    overall, rows = table_report(args.k)
    payload = {"k": args.k, "pass": overall.passed, "rows": rows,
               "summary": overall.as_dict()}
    tsv = [_TABLE_COLUMNS]
    for row in rows:
        tsv.append(tuple(str(row[c]) for c in _TABLE_COLUMNS))
    return overall.passed, payload, tsv


def _cmd_equivalents(args):
    if (args.family is None) == (args.pair is None):
        raise UsageError("equivalents needs exactly one of --family or --pair")
    if args.family is not None:
        base = pair_of_family(args.family, args.k)
    else:
        base = pair_from_text(args.pair, args.k)
    skipped: list[str] = []
    checks = []
    witness = None
    for p, crit in equivalent_pairs(base, args.k, skipped)[1].items():
        entry = {"pair": p.notation(), "criterion_pass": crit.passed,
                 "degenerate": p.degenerate}
        reports = [crit]
        if args.k <= EXHAUSTIVE_GUARD_K:
            reports.append(is_permutation_exhaustive(p.trinomial(args.k)))
            entry["oracle_pass"] = reports[1].passed
        failed = next((r for r in reports if not r.passed), None)
        if failed is not None and witness is None:
            witness = {"failing_subject": failed.subject,
                       "pair": p.notation(), **failed.witness}
        checks.append(entry)
    payload = {"k": args.k, "base": base.notation(),
               "equivalents": checks, "skipped_transforms": skipped}
    if witness is not None:
        payload["witness"] = witness
    return witness is None, payload, None


def _cmd_conjecture(args):
    try:
        k_list = [int(t) for t in args.k.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"--k must be an integer list, got {args.k!r}")
    if not k_list:
        raise UsageError("--k must name at least one k")
    if min(k_list) < 1:
        raise UsageError(f"every k must be >= 1 (got {min(k_list)})")
    check = conjecture1_check if args.conjecture_id == 1 else conjecture2_check
    reports = []
    passed = True
    for k in k_list:
        rep = check(k)
        passed = passed and rep.passed
        reports.append({"k": k, **rep.as_dict()})
    klist = ",".join(str(k) for k in k_list)
    status = f"VERIFIED(k={klist})" if passed else f"FAILED(k={klist})"
    payload = {"conjecture": args.conjecture_id, "checked_k": k_list,
               "status": status, "reports": reports,
               "note": "finite verification over the listed k only; "
                       "this is not a proof"}
    return passed, payload, None


def _cmd_proposition(args):
    rep = proposition_check(args.prop_id, args.k)
    return rep.passed, {"proposition": args.prop_id, "k": args.k,
                        "report": rep.as_dict()}, None


def _cmd_search(args):
    threads = args.threads
    if threads is None:
        env = os.environ.get("NIHO_PERM_THREADS")
        try:
            threads = max(1, int(env)) if env else 1
        except ValueError:
            raise UsageError(f"NIHO_PERM_THREADS must be an integer, got {env!r}")
    constraint = args.constraint.replace("-", "_")
    hits = search_problem_instances(
        args.k, constraint=constraint, sign_pattern=args.signs,
        force=args.force, threads=threads)
    rows = [("s", "t", "sign1", "sign2", "criterion_pass")]
    for h in hits:
        rows.append((str(h.s), str(h.t), h.sign1, h.sign2, "True"))
    payload = {"k": args.k, "constraint": constraint, "signs": args.signs,
               "hits": [{"s": h.s, "t": h.t, "sign1": h.sign1,
                         "sign2": h.sign2} for h in hits],
               "count": len(hits)}
    return True, payload, rows


def _cmd_oracle_compare(args):
    rep = oracle_agreement_report(args.k, args.samples, args.seed)
    payload = {"k": args.k, "samples": args.samples, "seed": args.seed,
               "report": rep.as_dict()}
    return rep.passed, payload, None


def _render(args, passed: bool, payload: dict, tsv_rows,
            elapsed_ms: float) -> str:
    if args.fmt == "tsv" and tsv_rows is not None:
        return "\n".join("\t".join(row) for row in tsv_rows) + "\n"
    body = {"schema": SCHEMA_VERSION, "command": args.subcommand, **payload,
            "elapsed_ms": round(elapsed_ms, 3)}
    if args.fmt == "text":
        lines = [f"{args.subcommand}: {'PASS' if passed else 'FAIL'}"]
        for key, value in payload.items():
            if key in ("rows", "reports", "hits", "equivalents"):
                for item in value:
                    lines.append(f"  {item}")
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"
    return json.dumps(body, indent=2) + "\n"


def main(argv=None) -> int:
    """Run one CLI invocation and return its exit code: 0 pass, 1 a
    verification failed (with a witness), 2 usage or I/O error, 3 any other
    (internal) error, reported on stderr as its traceback and an
    ``internal error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        # conjecture's --k is a comma list, checked by its handler
        if isinstance(getattr(args, "k", None), int) and args.k < 1:
            raise UsageError("k must be >= 1")
        start = time.perf_counter()
        passed, payload, tsv_rows = args.handler(args)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        text = _render(args, passed, payload, tsv_rows, elapsed_ms)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if passed else 1
    except (NihoPermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
