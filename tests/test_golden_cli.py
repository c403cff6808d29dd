"""CLI output pinned byte for byte against recorded digests.

Each command's stdout, with every "elapsed_ms" value blanked (JSON keys and
the Python-repr keys of the text format alike), is hashed
with sha256 and compared with tests/golden_cli.json together with the exit
code.  Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from niho_perm.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

GOLDEN_COMMANDS = (
    [["mu-check", "--map", f"g{i}", "--k", str(k)]
     for i in range(1, 11) for k in range(1, 6)]
    + [["verify", "--terms", terms, "--k", "5", "--method", "criterion"]
       for terms in ("+0,+7,-14", "+0,+1,+2")]
    + [["proposition", "--id", "P1", "--k", "3"],
       ["proposition", "--id", "P1", "--k", "5"],
       ["proposition", "--id", "P2", "--k", "2"],
       ["proposition", "--id", "P2", "--k", "4"],
       ["table1", "--k", "2"]]
    + [["search", "--k", str(k), "--signs", signs, "--format", fmt]
       for k in (1, 2, 3) for signs in ("all", "++", "+-")
       for fmt in ("tsv", "json")]
    + [["search", "--k", "3", "--constraint", constraint, "--format", fmt]
       for constraint in ("sum-zero", "sum-half") for fmt in ("tsv", "json")]
    + [["verify", "--terms", terms, "--k", str(k), *method]
       for k in (1, 2, 3, 4) for terms in ("+0,+1,+2", "+0,+1,-2")
       for method in ([], ["--method", "criterion"],
                      ["--method", "exhaustive"])]
    + [["verify", "--terms", "+0,+1,+2", "--k", "5", "--method",
        "exhaustive"]]
    + [["table1", "--k", str(k), "--format", fmt]
       for k in (3, 4, 5) for fmt in ("tsv", "json")]
    + [["conjecture", "--id", "1", "--k", "1,3,5,7"],
       ["conjecture", "--id", "2", "--k", "2,4,6"]]
    + [["lemma1", "--k", str(k)] for k in (1, 2, 3, 4)]
    + [["lemma1", "--k", "5"]]
    + [["oracle-compare", "--k", str(k), "--samples", "40"]
       for k in (1, 2, 3)]
    + [["oracle-compare", "--k", "4", "--samples", "20", "--seed", "4"],
       ["proposition", "--id", "P1", "--k", "1"]]
    + [["equivalents", "--family", "T1", "--k", "3"],
       ["field-info", "--m", "4"], ["field-info", "--m", "10"]]
    + [["mu-check", "--map", f"g{i}", "--k", "6"] for i in range(1, 11)]
    + [["verify", "--terms", terms, "--k", "6", "--method", "criterion"]
       for terms in ("+0,+7,-14", "+0,+1,+2")]
    + [["proposition", "--id", "P2", "--k", "6"], ["table1", "--k", "6"],
       ["search", "--k", "5", "--constraint", "sum-half", "--signs", "++",
        "--force"]]
    + [["search", "--k", "5", "--constraint", "sum-zero", "--force"],
       ["search", "--k", "6", "--constraint", "sum-half", "--signs", "++",
        "--force"],
       ["search", "--k", "4", "--signs", "+-", "--format", "tsv"]]
    + [["verify", "--terms", terms, "--k", "3", "--method", "exhaustive"]
       for terms in ("+16,-63,-97", "+116,+40,+3")]
    + [["verify", "--terms", terms, "--k", str(k), "--method", "criterion"]
       for k, terms in ((5, "+1808,-39,-1213"), (5, "+0,+1241,-1298"),
                        (6, "+14686,+6028,-2346"))]
    + [["equivalents", "--family", "T3a", "--k", "5"]]
    + [["field-info"], ["field-info", "--m", "2", "--modulus", "2,4,1"],
       ["equivalents", "--pair", "+2,-4", "--k", "2"],
       ["equivalents", "--pair", "+2,+4", "--k", "1"],
       ["equivalents", "--pair", "-2,+4", "--k", "1"],
       ["verify", "--family", "T1", "--k", "2", "--format", "text"],
       ["search", "--k", "2", "--format", "text"],
       ["conjecture", "--id", "1", "--k", "1,3", "--format", "tsv"],
       ["oracle-compare", "--k", "1", "--samples", "5", "--format", "text"]]
    + [["oracle-compare", "--k", "2", "--samples", "99999999999999999999"]]
    + [["table1", "--k", "6152"],
       ["mu-check", "--map", "g2", "--k", "100000000"]]
)


def golden_digest(argv) -> dict:
    """Exit code and sha256 of stdout with elapsed times blanked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = re.sub(r"([\"'])elapsed_ms\1: [0-9.]+", r"\1elapsed_ms\1: X",
                  out.getvalue())
    return {"exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _key(argv) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(_key(a) for a in GOLDEN_COMMANDS)


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=_key)
def test_cli_bytes_match_golden(golden, argv):
    assert golden_digest(argv) == golden[_key(argv)]


if __name__ == "__main__":
    record = {_key(a): golden_digest(a) for a in GOLDEN_COMMANDS}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
