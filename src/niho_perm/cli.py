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
import sys
import time
import traceback

from .errors import NihoPermError, UsageError
from .field import PRIMITIVE_MODULI, TableKernel, make_field, \
    trace_power_identity_report
from .report import combine_reports
from .residues import parse_signed_residues
from .transforms import equivalent_pairs, pair_from_text, pair_of_family, \
    table_report
from .trinomials import (FAMILY_IDS, build_trinomial, family_is_conjectural,
                         oracle_agreement_report, theorem_family, verdicts)
from .conjectures import (SIGN_SETS, conjecture1_check, conjecture2_check,
                          proposition_check, search_problem_instances)
from .unity import PUBLIC_MAP_NAMES, mu_check_report

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse, with "--opt=--" read as the value "--" on every Python:
    before 3.13 argparse drops that value and hands the option []."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--threads", type=int, default=1)
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
        "accel_tables": isinstance(fld.kernel, TableKernel),
    }
    return True, payload, None


def _cmd_lemma1(args):
    rep = trace_power_identity_report(args.k)
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
        trin = build_trinomial(
            args.k, parse_signed_residues(args.terms, 3, "--terms"))
    reports = verdicts(trin, args.method)
    payload = {
        "family": args.family, "terms": list(trin.terms), "k": args.k,
        "subject": trin.subject(), "exponents": list(trin.exponents),
        "methods": {m: r.passed for m, r in reports.items()},
    }
    if args.family and family_is_conjectural(args.family):
        payload["conjectural"] = True
    failed = [r for r in reports.values() if not r.passed]
    if failed:      # the oracle's witness when both fail
        payload["witness"] = failed[-1].witness
    return not failed, payload, None


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


def _verdict_fields(reports: dict) -> dict:
    names = {"criterion": "criterion_pass", "exhaustive": "oracle_pass"}
    return {names[m]: r.passed for m, r in reports.items()}


def _cmd_equivalents(args):
    if (args.family is None) == (args.pair is None):
        raise UsageError("equivalents needs exactly one of --family or --pair")
    base = (pair_of_family(args.family, args.k) if args.family is not None
            else pair_from_text(args.pair, args.k))
    base_reports, derived, skipped = equivalent_pairs(base)
    payload = {"k": args.k, "base": base.notation(),
               **_verdict_fields(base_reports),
               "equivalents": [{"pair": p.notation(), **_verdict_fields(r),
                                "degenerate": p.degenerate}
                               for p, r in derived.items()],
               "skipped_transforms": skipped}
    # the first failing pair's witness: base first, criterion before oracle
    for p, reports in {base: base_reports, **derived}.items():
        pair_rep = combine_reports(p.notation(), "criterion+oracle",
                                   list(reports.values()))
        if not pair_rep.passed:
            payload["witness"] = {**pair_rep.witness, "pair": p.notation()}
            return False, payload, None
    return True, payload, None


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
    constraint = args.constraint.replace("-", "_")
    hits = search_problem_instances(
        args.k, constraint=constraint, sign_pattern=args.signs,
        force=args.force, threads=args.threads)
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


def _prepare_argv(argv) -> list[str]:
    """argv with "--pair -2,+4" joined to "--pair=-2,+4", and so for
    --terms, and "--signs X" joined for every sign set X, "--" included:
    argparse would read a value with a leading minus as an option of its
    own, and "--" as the end of the options."""
    out = []
    for arg in argv:
        opt = out[-1] if out else None
        if ((opt in ("--pair", "--terms") and arg[:1] == "-"
             and arg[:2] != "--") or (opt == "--signs" and arg in SIGN_SETS)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one CLI invocation and return its exit code: 0 pass, 1 a
    verification failed (with a witness), 2 usage or I/O error, 3 any other
    (internal) error, reported on stderr as its traceback and an
    ``internal error:`` line."""
    parser = build_parser()
    args = parser.parse_args(
        _prepare_argv(sys.argv[1:] if argv is None else argv))
    try:
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
