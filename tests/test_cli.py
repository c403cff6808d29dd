"""CLI surface: exit codes, report shapes, determinism, witnesses."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from niho_perm import cli, transforms, trinomials
from niho_perm.cli import main
from niho_perm.field import tower_field
from niho_perm.trinomials import build_trinomial, eval_trinomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', text)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "T1", "--k", "2",
                               "--method", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"] == {"criterion": True, "exhaustive": True}

    def test_parity_guard_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "T2", "--k", "2")
        assert code == 2
        assert "where k is odd" in err

    def test_failure_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--terms", "+0,+2,+4",
                               "--k", "1")
        assert code == 1
        assert json.loads(out)["witness"]["type"] in ("collision", "zero")

    def test_unknown_family_lists_ids(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "T9", "--k", "1")
        assert code == 2
        for fid in ("T1", "C1", "T7c", "P2", "g1", "g10"):
            assert fid in err

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])    # missing --k
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--terms", "+0,+1,+2", "--k", "5", "--force"],
        ["table1", "--k", "5", "--force"],
        ["lemma1", "--k", "4", "--force"]])
    def test_removed_force_flags_are_usage_errors(self, capsys, argv):
        # these commands are limited only by the log tables at k <= 4, so
        # --force could only fail
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_non_integer_modulus_digit_is_two(self, capsys):
        code, out, err = run_cli(capsys, "field-info", "--m", "2",
                                 "--modulus", "9,z")
        assert code == 2
        assert out == ""
        assert err == "error: modulus digits must be integers, got '9,z'\n"

    @pytest.mark.parametrize("klist", ["0", "-1", "1,0,3"])
    def test_conjecture_k_below_one_is_two(self, capsys, klist):
        code, out, err = run_cli(capsys, "conjecture", "--id", "1",
                                 "--k", klist)
        assert code == 2
        assert out == ""
        assert err.startswith("error: every k must be >= 1 (got ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--terms=+0,+1,+\u00b2", "--k", "1"],
        ["verify", "--terms=+0,+-1,+2", "--k", "1"],
        ["verify", "--terms=+0,+1,+\u0663", "--k", "1"],
        ["verify", "--terms=+0,+1,+" + "1" * 5000, "--k", "1"],
        ["equivalents", "--pair=+2,-\u00b2", "--k", "1"],
        ["equivalents", "--pair=+-2,-4", "--k", "1"],
        ["equivalents", "--pair=--2,-4", "--k", "1"]])
    def test_bad_signed_residue_is_two(self, capsys, argv):
        # one sign at most, ASCII digits only; never a traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad ")

    @pytest.mark.parametrize("option, value, rest", [
        ("--pair", "-2,+4", ["--k", "1"]),
        ("--terms", "-0,+1,+2", ["--k", "1"]),
        ("--terms", "-2,+1,+3", ["--k", "1", "--format", "text"])])
    def test_leading_minus_value_reads_as_equals_form(self, capsys, option,
                                                      value, rest):
        command = "equivalents" if option == "--pair" else "verify"
        plain = run_cli(capsys, command, option, value, *rest)
        joined = run_cli(capsys, command, f"{option}={value}", *rest)
        assert plain[0] == joined[0] in (1, 2)
        assert strip_elapsed(plain[1]) == strip_elapsed(joined[1])
        assert plain[2] == joined[2]

    def test_missing_value_is_still_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equivalents", "--pair", "--k", "1"])
        assert exc.value.code == 2
        assert "--pair: expected one argument" in capsys.readouterr().err

    @settings(deadline=None, max_examples=150)
    @given(st.text(max_size=30))
    def test_any_terms_text_never_exits_three(self, text):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["verify", f"--terms={text}", "--k", "1"])
            except SystemExit as exc:   # argparse rejects the argv itself
                code = exc.code
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("argv", [
        ["mu-check", "--map", "g1"], ["verify", "--family", "T1"],
        ["proposition", "--id", "P1"], ["table1"],
        ["equivalents", "--family", "T1"]])
    def test_k_above_tower_limit_names_k(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--k", "7")
        assert code == 2
        assert out == ""
        assert err == "error: k must be an integer in 1..6\n"


class TestReportShapes:
    def test_mu_check_schema(self, capsys):
        code, out, _ = run_cli(capsys, "mu-check", "--map", "g1", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["map"] == "g1"
        assert payload["k"] == 2
        assert payload["domain"] == "mu"
        assert payload["pass"] is True

    def test_mu_check_parity_bound_map(self, capsys):
        # g10 needs 3 | q+2, which fails at odd k
        code, _, err = run_cli(capsys, "mu-check", "--map", "g10", "--k", "1")
        assert code == 2
        assert "not an integer" in err

    def test_field_info_table(self, capsys):
        code, out, _ = run_cli(capsys, "field-info")
        assert code == 0
        payload = json.loads(out)
        assert payload["embedded_moduli"]["2"] == "2,4,1"
        assert len(payload["embedded_moduli"]) == 12

    def test_field_info_single(self, capsys):
        code, out, _ = run_cli(capsys, "field-info", "--m", "4")
        payload = json.loads(out)
        assert payload["order"] == 625
        assert payload["subfield_degree"] == 2
        assert payload["accel_tables"] is True

    def test_table1_tsv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--k", "2")
        assert code == 0
        header = out.splitlines()[0].split("\t")
        assert header == ["row", "pair", "condition", "criterion_pass",
                          "oracle_pass", "equivalents_checked",
                          "equivalents_pass", "source"]
        assert len(out.splitlines()) == 12   # header + 11 rows

    def test_table1_json_has_diff(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        active = [r for r in payload["rows"]
                  if r["criterion_pass"] != "skipped"]
        assert all("transcription_diff" in r for r in active)

    def test_search_tsv(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--k", "1",
                               "--constraint", "sum-zero", "--signs", "+-")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s\tt\tsign1\tsign2\tcriterion_pass"
        assert "2\t4\t+\t-\tTrue" in lines

    def test_conjecture_verified_wording(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--id", "1", "--k", "1,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "VERIFIED(k=1,3)"
        assert "not a proof" in payload["note"]

    def test_proposition(self, capsys):
        code, out, _ = run_cli(capsys, "proposition", "--id", "P2", "--k", "2")
        assert code == 0
        assert json.loads(out)["report"]["pass"] is True

    def test_oracle_compare(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--k", "1",
                               "--samples", "100", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["counts"]["agreements"] == 100

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_oracle_compare_needs_a_sample(self, capsys, samples):
        code, out, err = run_cli(capsys, "oracle-compare", "--k", "1",
                                 "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_oracle_compare_sample_limit(self, capsys, monkeypatch):
        # the count is refused before any sample is drawn
        def no_draws(k, rng):
            raise AssertionError("sampled past the limit")
        monkeypatch.setattr(trinomials, "random_trinomial", no_draws)
        limit = trinomials.AGREEMENT_SAMPLE_LIMIT
        for samples in (str(limit + 1), "99999999999999999999"):
            code, out, err = run_cli(capsys, "oracle-compare", "--k", "2",
                                     "--samples", samples)
            assert code == 2
            assert out == ""
            assert err == (f"error: agreement run takes at most {limit} "
                           f"samples (got {samples})\n")

    def test_unexpected_error_is_three(self, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(cli, "_cmd_lemma1", boom)
        code, out, err = run_cli(capsys, "lemma1", "--k", "1")
        assert code == 3
        assert out == ""
        assert "Traceback" in err
        assert err.endswith("\ninternal error: RuntimeError: handler bug\n")

    def test_lemma1(self, capsys):
        code, out, _ = run_cli(capsys, "lemma1", "--k", "1")
        assert code == 0
        assert json.loads(out)["report"]["counts"]["identities"] == 5

    def test_equivalents(self, capsys):
        code, out, _ = run_cli(capsys, "equivalents", "--pair", "+2,-4",
                               "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] == "(+[2], -[4])"
        assert payload["equivalents"][0]["pair"] == "(-[2], -[4])"

    def test_equivalents_gates_on_base(self, capsys):
        # every transform of (+[2], +[4]) is skipped at k=1, and the base
        # pair itself does not permute: exit 1 with the base's witness
        code, out, _ = run_cli(capsys, "equivalents", "--pair", "+2,+4",
                               "--k", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["equivalents"] == []
        assert payload["criterion_pass"] is False
        assert payload["oracle_pass"] is False
        wit = payload["witness"]
        assert wit["pair"] == payload["base"] == "(+[2], +[4])"
        assert wit["type"] == "zero"
        f = transforms.pair_from_text(wit["pair"], 1).trinomial(1)
        x = f.field.from_csv(wit["x"])
        h = f.field.zero
        for sign, c in f.terms:
            h = h + x ** c if sign > 0 else h - x ** c
        assert x ** (f.q + 1) == f.field.one and h == f.field.zero

    def test_equivalents_criterion_once_per_trinomial(self, capsys,
                                                      monkeypatch):
        # T1 at k=3 and its one equivalent: two trinomials, two calls
        calls = []
        criterion = trinomials.is_permutation_via_criterion
        counting = lambda t: calls.append(t) or criterion(t)
        monkeypatch.setattr(trinomials, "is_permutation_via_criterion",
                            counting)
        code, out, _ = run_cli(capsys, "equivalents", "--family", "T1",
                               "--k", "3")
        assert code == 0
        assert len(json.loads(out)["equivalents"]) == 1
        assert len(calls) == len(set(calls)) == 2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "lemma1", "--k", "1", "--format", "text")
        assert code == 0
        assert out.startswith("lemma1: PASS")


class TestDeterminism:
    def test_json_byte_stable_modulo_elapsed(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--family", "T5a", "--k", "2")
        _, second, _ = run_cli(capsys, "verify", "--family", "T5a", "--k", "2")
        assert strip_elapsed(first) == strip_elapsed(second)

    def test_search_tsv_byte_identical_across_threads(self, capsys):
        _, a, _ = run_cli(capsys, "search", "--k", "2", "--threads", "1")
        _, b, _ = run_cli(capsys, "search", "--k", "2", "--threads", "3")
        assert a == b

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NIHO_PERM_THREADS", "2")
        code, out, _ = run_cli(capsys, "search", "--k", "1")
        assert code == 0
        monkeypatch.setenv("NIHO_PERM_THREADS", "zebra")
        code, _, err = run_cli(capsys, "search", "--k", "1")
        assert code == 2
        assert "NIHO_PERM_THREADS" in err

    def test_seeded_compare_stable(self, capsys):
        _, a, _ = run_cli(capsys, "oracle-compare", "--k", "1", "--seed", "3")
        _, b, _ = run_cli(capsys, "oracle-compare", "--k", "1", "--seed", "3")
        assert strip_elapsed(a) == strip_elapsed(b)


class TestOutFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "lemma1", "--k", "1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == "lemma1"

    def test_out_missing_directory_is_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "field-info", "--m", "2",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not target.exists()


class TestWitnessReplay:
    def test_broken_trinomial_witness_replays(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--terms", "+0,+7,+14",
                               "--k", "2", "--method", "exhaustive")
        assert code == 1
        wit = json.loads(out)["witness"]
        assert wit["type"] == "collision"
        field = tower_field(2)
        f = build_trinomial(2, [(1, 0), (1, 7), (1, 14)])
        x1 = field.from_csv(wit["x1"])
        x2 = field.from_csv(wit["x2"])
        assert x1 != x2
        assert eval_trinomial(f, x1) == eval_trinomial(f, x2)

    def test_equivalents_witness_replays(self, capsys):
        # (+[2], -[4]) fails at k=2, and so does every pair derived from
        # it; the base pair's witness comes first
        code, out, _ = run_cli(capsys, "equivalents", "--pair", "+2,-4",
                               "--k", "2")
        assert code == 1
        payload = json.loads(out)
        wit = payload["witness"]
        assert wit["pair"] == payload["base"]
        f = transforms.pair_from_text(wit["pair"], 2).trinomial(2)
        assert wit["failing_subject"] == f.subject()
        assert wit["type"] == "collision"
        field, q = f.field, f.q

        def circle_map(x):
            h = field.zero
            for sign, c in f.terms:
                h = h + x ** c if sign > 0 else h - x ** c
            return x * h ** (q - 1)

        x1, x2 = field.from_csv(wit["x1"]), field.from_csv(wit["x2"])
        assert x1 != x2 and x1 ** (q + 1) == x2 ** (q + 1) == field.one
        assert circle_map(x1) == circle_map(x2) == field.from_csv(wit["value"])
