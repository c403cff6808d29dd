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
from dataclasses import dataclass, field as dc_field

from .errors import NihoPermError, UsageError
from .field import PRIMITIVE_MODULI, make_field, \
    trace_power_identity_report
from .report import VerificationReport
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


@dataclass
class RunConfig:
    """Validated CLI invocation: one subcommand plus its selectors."""

    subcommand: str
    k: int | None = None
    k_list: list[int] = dc_field(default_factory=list)
    m: int | None = None
    family: str | None = None
    terms: str | None = None
    map_name: str | None = None
    pair: str | None = None
    prop_id: str | None = None
    conjecture_id: int | None = None
    method: str | None = None
    fmt: str = "json"
    out: str | None = None
    force: bool = False
    threads: int = 1
    seed: int = 0
    samples: int = 100
    constraint: str = "none"
    signs: str = "all"
    modulus: str | None = None


def _default_threads() -> int:
    env = os.environ.get("NIHO_PERM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"NIHO_PERM_THREADS must be an integer, got {env!r}")
    return 1


def _parse_terms(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        sign = -1 if part.startswith("-") else 1
        body = part.lstrip("+-")
        if not body.isdigit():
            raise UsageError(f"bad signed residue {part!r} in --terms")
        out.append((sign, int(body)))
    if len(out) != 3:
        raise UsageError("--terms needs exactly three signed residues")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niho-perm",
        description="Construct, verify, transform and search permutation "
                    "trinomials with Niho exponents over GF(5^2k).")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, fmt_default="json"):
        p.add_argument("--format", dest="fmt", default=fmt_default,
                       choices=("json", "tsv", "text"))
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")

    p = sub.add_parser("field-info", help="embedded moduli or one field")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--modulus", default=None,
                   help="override modulus, digits lowest degree first")
    add_common(p)

    p = sub.add_parser("lemma1", help="power-trace identity sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--force", action="store_true")
    add_common(p)

    p = sub.add_parser("mu-check", help="does a named map permute the circle")
    p.add_argument("--map", dest="map_name", required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="trinomial permutation verdicts")
    p.add_argument("--family", default=None)
    p.add_argument("--terms", default=None,
                   help="three signed residues, e.g. '+0,+7,-14'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default=None,
                   choices=("both", "exhaustive", "criterion"))
    add_common(p)

    p = sub.add_parser("table1", help="reproduce the pair table at one k")
    p.add_argument("--k", type=int, required=True)
    add_common(p, fmt_default="tsv")

    p = sub.add_parser("equivalents", help="transform-equivalent pairs")
    p.add_argument("--family", default=None)
    p.add_argument("--pair", default=None, help="e.g. '+2,-4'")
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("conjecture", help="finite conjecture verification")
    p.add_argument("--id", dest="conjecture_id", type=int, required=True,
                   choices=(1, 2))
    p.add_argument("--k", required=True,
                   help="one k or a comma list, e.g. '1,3,5'")
    add_common(p)

    p = sub.add_parser("proposition", help="conditional family verification")
    p.add_argument("--id", dest="prop_id", required=True, choices=("P1", "P2"))
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("search", help="criterion search over residue pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--constraint", default="none",
                   choices=("none", "sum-zero", "sum-half"))
    p.add_argument("--signs", default="all")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--force", action="store_true")
    add_common(p, fmt_default="tsv")

    p = sub.add_parser("oracle-compare", help="criterion vs oracle agreement")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in ("k", "m", "family", "terms", "map_name", "pair", "prop_id",
                 "conjecture_id", "method", "fmt", "out", "force", "threads",
                 "seed", "samples", "signs", "modulus"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "constraint"):
        cfg.constraint = args.constraint.replace("-", "_")
    if cfg.subcommand == "conjecture":
        try:
            cfg.k_list = [int(t) for t in str(args.k).split(",") if t.strip()]
        except ValueError:
            raise UsageError(f"--k must be an integer list, got {args.k!r}")
        if not cfg.k_list:
            raise UsageError("--k must name at least one k")
        if min(cfg.k_list) < 1:
            raise UsageError(f"every k must be >= 1 (got {min(cfg.k_list)})")
        cfg.k = None
    if getattr(args, "threads", None) is None and cfg.subcommand == "search":
        cfg.threads = _default_threads()
    if cfg.k is not None and cfg.k < 1:
        raise UsageError("k must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (passed, payload, tsv_rows | None)

def _report_json(r: VerificationReport) -> dict:
    return r.as_dict()


def _cmd_field_info(cfg: RunConfig):
    if cfg.m is None and cfg.modulus is None:
        payload = {"embedded_moduli": {
            str(m): ",".join(str(c) for c in mod)
            for m, mod in sorted(PRIMITIVE_MODULI.items())}}
        return True, payload, None
    if cfg.m is None:
        raise UsageError("--modulus needs --m")
    fld = make_field(cfg.m, cfg.modulus)
    payload = {
        "m": fld.m, "order": fld.order,
        "modulus": ",".join(str(c) for c in fld.modulus),
        "generator": fld.generator.csv(),
        "subfield_degree": fld.subfield_degree,
        "accel_tables": fld.accel_tables is not None,
    }
    return True, payload, None


def _cmd_lemma1(cfg: RunConfig):
    rep = trace_power_identity_report(cfg.k, force=cfg.force)
    return rep.passed, {"k": cfg.k, "report": _report_json(rep)}, None


def _cmd_mu_check(cfg: RunConfig):
    rep = mu_check_report(cfg.map_name, cfg.k)
    payload = {"map": cfg.map_name, "k": cfg.k, "domain": "mu",
               "pass": rep.passed}
    if rep.witness is not None:
        payload["witness"] = rep.witness
    payload["counts"] = rep.counts
    return rep.passed, payload, None


def _cmd_verify(cfg: RunConfig):
    if (cfg.family is None) == (cfg.terms is None):
        raise UsageError("verify needs exactly one of --family or --terms")
    if cfg.family is not None:
        if cfg.family not in FAMILY_IDS:
            raise UsageError(
                f"unknown family {cfg.family!r}; valid ids: "
                f"{', '.join(FAMILY_IDS)}; valid maps: "
                f"{', '.join(PUBLIC_MAP_NAMES)}")
        trin = theorem_family(cfg.family, cfg.k)
    else:
        trin = build_trinomial(cfg.k, _parse_terms(cfg.terms))
    method = cfg.method
    if method is None:
        method = "both" if cfg.k <= EXHAUSTIVE_GUARD_K else "criterion"
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
        "family": cfg.family, "terms": list(trin.terms), "k": cfg.k,
        "subject": trin.subject(), "exponents": list(trin.exponents),
        "methods": methods,
    }
    if cfg.family and family_is_conjectural(cfg.family):
        payload["conjectural"] = True
    witness = orac_witness or crit_witness
    if witness:
        payload["witness"] = witness
    return passed, payload, None


_TABLE_COLUMNS = ("row", "pair", "condition", "criterion_pass", "oracle_pass",
                  "equivalents_checked", "equivalents_pass", "source")


def _cmd_table1(cfg: RunConfig):
    overall, rows = table_report(cfg.k)
    payload = {"k": cfg.k, "pass": overall.passed, "rows": rows,
               "summary": _report_json(overall)}
    tsv = [_TABLE_COLUMNS]
    for row in rows:
        tsv.append(tuple(str(row[c]) for c in _TABLE_COLUMNS))
    return overall.passed, payload, tsv


def _cmd_equivalents(cfg: RunConfig):
    if (cfg.family is None) == (cfg.pair is None):
        raise UsageError("equivalents needs exactly one of --family or --pair")
    if cfg.family is not None:
        base = pair_of_family(cfg.family, cfg.k)
    else:
        base = pair_from_text(cfg.pair, cfg.k)
    skipped: list[str] = []
    checks = []
    passed = True
    for p, crit in equivalent_pairs(base, cfg.k, skipped)[1].items():
        entry = {"pair": p.notation(), "criterion_pass": crit.passed,
                 "degenerate": p.degenerate}
        if cfg.k <= EXHAUSTIVE_GUARD_K:
            orac = is_permutation_exhaustive(p.trinomial(cfg.k))
            entry["oracle_pass"] = orac.passed
            passed = passed and orac.passed
        passed = passed and crit.passed
        checks.append(entry)
    payload = {"k": cfg.k, "base": base.notation(),
               "equivalents": checks, "skipped_transforms": skipped}
    return passed, payload, None


def _cmd_conjecture(cfg: RunConfig):
    check = conjecture1_check if cfg.conjecture_id == 1 else conjecture2_check
    reports = []
    passed = True
    for k in cfg.k_list:
        rep = check(k)
        passed = passed and rep.passed
        reports.append({"k": k, **_report_json(rep)})
    klist = ",".join(str(k) for k in cfg.k_list)
    status = f"VERIFIED(k={klist})" if passed else f"FAILED(k={klist})"
    payload = {"conjecture": cfg.conjecture_id, "checked_k": cfg.k_list,
               "status": status, "reports": reports,
               "note": "finite verification over the listed k only; "
                       "this is not a proof"}
    return passed, payload, None


def _cmd_proposition(cfg: RunConfig):
    rep = proposition_check(cfg.prop_id, cfg.k)
    return rep.passed, {"proposition": cfg.prop_id, "k": cfg.k,
                        "report": _report_json(rep)}, None


def _cmd_search(cfg: RunConfig):
    hits = search_problem_instances(
        cfg.k, constraint=cfg.constraint, sign_pattern=cfg.signs,
        force=cfg.force, threads=cfg.threads)
    rows = [("s", "t", "sign1", "sign2", "criterion_pass")]
    for h in hits:
        rows.append((str(h.s), str(h.t), h.sign1, h.sign2, "True"))
    payload = {"k": cfg.k, "constraint": cfg.constraint, "signs": cfg.signs,
               "hits": [{"s": h.s, "t": h.t, "sign1": h.sign1,
                         "sign2": h.sign2} for h in hits],
               "count": len(hits)}
    return True, payload, rows


def _cmd_oracle_compare(cfg: RunConfig):
    rep = oracle_agreement_report(cfg.k, cfg.samples, cfg.seed)
    payload = {"k": cfg.k, "samples": cfg.samples, "seed": cfg.seed,
               "report": _report_json(rep)}
    return rep.passed, payload, None


_HANDLERS = {
    "field-info": _cmd_field_info,
    "lemma1": _cmd_lemma1,
    "mu-check": _cmd_mu_check,
    "verify": _cmd_verify,
    "table1": _cmd_table1,
    "equivalents": _cmd_equivalents,
    "conjecture": _cmd_conjecture,
    "proposition": _cmd_proposition,
    "search": _cmd_search,
    "oracle-compare": _cmd_oracle_compare,
}


def _render(cfg: RunConfig, passed: bool, payload: dict, tsv_rows,
            elapsed_ms: float) -> str:
    if cfg.fmt == "tsv" and tsv_rows is not None:
        return "\n".join("\t".join(row) for row in tsv_rows) + "\n"
    body = {"schema": SCHEMA_VERSION, "command": cfg.subcommand, **payload,
            "elapsed_ms": round(elapsed_ms, 3)}
    if cfg.fmt == "text":
        lines = [f"{cfg.subcommand}: {'PASS' if passed else 'FAIL'}"]
        for key, value in payload.items():
            if key in ("rows", "reports", "hits", "equivalents"):
                for item in value:
                    lines.append(f"  {item}")
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"
    return json.dumps(body, indent=2) + "\n"


def run(cfg: RunConfig) -> int:
    """Dispatch one validated invocation; returns the process exit code."""
    handler = _HANDLERS.get(cfg.subcommand)
    if handler is None:
        raise UsageError(f"unknown subcommand {cfg.subcommand!r}")
    start = time.perf_counter()
    passed, payload, tsv_rows = handler(cfg)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    text = _render(cfg, passed, payload, tsv_rows, elapsed_ms)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def main(argv=None) -> int:
    """Run one CLI invocation and return its exit code: 0 pass, 1 a
    verification failed (with a witness), 2 usage or I/O error, 3 any other
    (internal) error, reported on stderr as its traceback and an
    ``internal error:`` line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except (NihoPermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
