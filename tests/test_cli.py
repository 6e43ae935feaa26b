import io
import json
import os
import re
import subprocess
import sys

import pytest

import invforge
from invforge import cli, fe as fe_mod, lab, lincycle, ring
from invforge.boolfun import affine_factor_solutions, random_boolfun
from invforge.data import fixture_path, fixture_text

LZS = fixture_path("lzs-265-like.cfg")
ZREF = fixture_path("z-reference.anf")
INV7 = fixture_path("invariant-deg7.poly")
MU = fixture_path("mu.poly")
INV827 = fixture_path("invariant-827.poly")


def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "invforge", *args],
                          capture_output=True, text=True, input=stdin)


class TestVerdictsAndExitCodes:
    def test_verify_thm_pass(self):
        r = run_cli("verify-thm", "--lzs", LZS, "--boolfun", ZREF)
        assert r.returncode == 0
        assert "ALL STEPS PASS" in r.stdout

    def test_fe_invariant_exit_zero(self):
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", ZREF)
        assert r.returncode == 0
        assert "fe = 0" in r.stdout

    def test_fe_non_solution_exit_one(self, tmp_path):
        bad = tmp_path / "random.anf"
        bad.write_text("a+bc+def\n")
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7,
                    "--boolfun", str(bad))
        assert r.returncode == 1

    def test_fe_827_against_shipped_wiring(self):
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV827,
                    "--boolfun", ZREF)
        assert r.returncode == 1
        assert "is_zero = false" in r.stdout

    def test_fe_empirical_channel(self):
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--boolfun",
                    ZREF, "--empirical-trials", "5000", "--seed", "4")
        assert r.returncode == 0
        assert "empirical mismatches = 0" in r.stdout
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV827, "--boolfun",
                    ZREF, "--empirical-trials", "5000", "--seed", "4")
        assert r.returncode == 1
        assert "empirical mismatches = 0" not in r.stdout

    def test_usage_error_exit_two(self):
        r = run_cli("fe", "--lzs", "missing.cfg", "--invariant", INV7,
                    "--boolfun", ZREF)
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        r = run_cli("unknown-subcommand")
        assert r.returncode == 2

    def test_budget_overflow_exit_three(self):
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7,
                    "--symbolic", "--budget", "1000")
        assert r.returncode == 3

    def test_expanded_budget_pins_at_the_image(self, tmp_path, capsys):
        # expanded fe --budget bounds the term count of P's image, the product
        # of its parts' images: 2080 terms with z-reference, 4784 with the
        # random function of seed 5 (FE != 0, exit 1)
        fun = tmp_path / "fun5.anf"
        fun.write_text("%016x\n" % random_boolfun(5).tt)
        for boolfun, image_terms, answer in ((ZREF, 2080, 0), (str(fun), 4784, 1)):
            argv = ["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", boolfun, "--budget"]
            assert cli.main(argv + [str(image_terms)]) == answer
            assert cli.main(argv + [str(image_terms - 1)]) == cli.EXIT_BUDGET == 3
        assert capsys.readouterr().err.count("error: ") == 2

    def test_symbolic_budget_above_the_largest_intermediate(self):
        unbounded = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--symbolic")
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--symbolic",
                    "--budget", "200000")
        assert unbounded.returncode == r.returncode == 0
        assert r.stdout == unbounded.stdout

    def test_verify_thm_supplied_invariant_summary(self):
        steps = run_cli("verify-thm", "--lzs", LZS, "--boolfun", ZREF,
                        "--invariant", INV827)
        assert steps.stdout == ("step fundamental-equation:  FAIL  (supplied invariant)\n"
                                "STEP FAILURES: 1\n")
        r = run_cli("verify-thm", "--lzs", LZS, "--boolfun", ZREF,
                    "--invariant", INV827, "--report", "summary")
        assert r.returncode == steps.returncode == 1
        assert r.stdout == "STEP FAILURES: 1\n"

    def test_absorbers_verdicts(self, tmp_path):
        f = tmp_path / "f.poly"
        g = tmp_path / "g.poly"
        f.write_text("ab\n")
        g.write_text("a\n")
        assert run_cli("absorbers", "--poly", str(f), "--candidate", str(g)).returncode == 0
        g.write_text("c\n")
        assert run_cli("absorbers", "--poly", str(f), "--candidate", str(g)).returncode == 1

    def test_annihilators_verdicts(self, tmp_path):
        p = tmp_path / "p.poly"
        p.write_text("ab+1\n")
        assert run_cli("annihilators", "--poly", str(p), "--degree", "1").returncode == 1
        p.write_text("ab\n")
        r = run_cli("annihilators", "--poly", str(p), "--degree", "1")
        assert r.returncode == 0
        assert "dimension = 2" in r.stdout

    def test_annihilators_of_the_sixteen_variable_invariant(self, invariant_deg7):
        # the affine factors of P are 1 + Ann_1(P)
        r = run_cli("annihilators", "--poly", INV7, "--degree", "1")
        assert r.returncode == 0
        basis = affine_factor_solutions(invariant_deg7, sorted(invariant_deg7.support()))
        assert "dimension = %d" % len(basis) in r.stdout.splitlines()
        assert len(basis) > 0

    def test_annihilators_vars_list(self, tmp_path):
        p = tmp_path / "p.poly"
        p.write_text("ab\n")
        r = run_cli("annihilators", "--poly", str(p), "--degree", "1",
                    "--vars", "a,b,Z00")
        assert r.returncode == 0
        assert "variables = a,b,Z00" in r.stdout.splitlines()
        assert "dimension = 2" in r.stdout.splitlines()
        for bad in ("a,?", "1", "a+b", "", ",", " , "):
            r = run_cli("annihilators", "--poly", str(p), "--degree", "1",
                        "--vars", bad)
            assert r.returncode == 2, bad
            assert r.stderr.startswith("error:")
            if not bad.strip(" ,"):  # blank lists name the flag, not a parse position
                assert "--vars must list variable names" in r.stderr, bad

    def test_factor_refuses_more_than_sixteen_variables(self):
        # a..q and r+1 divide it, but the affine-factor search stops at 16
        r = run_cli("factor", "--poly", "-",
                    stdin="abcdefghijklmnopq+abcdefghijklmnopqr\n")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "18 variables" in r.stderr and "limited to 16" in r.stderr

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("boom")])
    def test_internal_error_exit_four(self, monkeypatch, capsys, exc):
        def broken(args, out):
            raise exc
        monkeypatch.setattr(cli, "cmd_validate", broken)
        assert cli.main(["validate", "--lzs", LZS]) == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and type(exc).__name__ in err

    def test_parser_is_built_once_per_process(self, capsys):
        parser = cli.build_parser()
        assert cli.main(["validate", "--lzs", LZS]) == 0
        assert cli.main(["--format", "json-lines", "validate", "--lzs", LZS]) == 0
        assert cli.build_parser() is parser
        text, record = capsys.readouterr().out.split("\n{", 1)
        assert json.loads("{" + record)["ok"] and text.startswith("wiring: valid")

    def test_linear_cycle_inconsistency_is_internal(self, monkeypatch, capsys):
        # affine_of's checks fire only if round_system is wrong: a bug, not usage
        class Quadratic:
            def output(self, i):
                return ring.parse("ab")
        monkeypatch.setattr(lincycle, "round_system", lambda *args: Quadratic())
        assert cli.main(["linear-cycle", "--lzs", LZS, "--max-period", "8"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "round is not affine" in err

    @pytest.mark.parametrize("argv", [
        ["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic", "--budget", "0"],
        ["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", ZREF, "--budget", "-1"],
        ["annihilators", "--poly", MU, "--degree", "-1"],
        ["factor", "--poly", MU, "--trees", "0"],
        ["factor", "--poly", MU, "--trees", "-2"],
        ["step", "--lzs", LZS, "--boolfun", ZREF, "--state", "-5"],
    ], ids=["symbolic-budget", "expanded-budget", "degree", "trees-0", "trees-neg",
            "state"])
    def test_out_of_range_flag_exit_two(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_unverified_factor_chain_is_internal(self, monkeypatch, capsys):
        monkeypatch.setattr(lab.Factorization, "verify", lambda self: False)
        assert cli.main(["factor", "--poly", MU]) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and "does not re-multiply" in err

    def test_fe_splits_the_invariant_once(self, monkeypatch, capsys):
        splits = []
        real = fe_mod.affine_split
        monkeypatch.setattr(fe_mod, "affine_split", lambda p: splits.append(p) or real(p))
        assert cli.main(["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", ZREF,
                         "--empirical-trials", "100"]) == 0
        assert "empirical mismatches = 0" in capsys.readouterr().out
        assert len(splits) == 1

    def test_verify_thm_builds_the_invariant_once(self, monkeypatch, capsys):
        built = []
        real = lab.product_invariant
        monkeypatch.setattr(lab, "product_invariant", lambda: built.append(1) or real())
        assert cli.main(["verify-thm", "--lzs", LZS, "--boolfun", ZREF]) == 0
        assert capsys.readouterr().out.endswith("ALL STEPS PASS\n")
        assert len(built) == 1

    def test_fe_refuses_empirical_trials_with_symbolic(self, capsys):
        argv = ["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic",
                "--empirical-trials", "100"]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--empirical-trials" in err and "--symbolic" in err

    @pytest.mark.parametrize("argv", [
        ["--boolfun", ZREF, "--seed", "5"],
        ["--boolfun", ZREF, "--empirical-trials", "0", "--seed", "0"],
        ["--symbolic", "--seed", "0"],
    ], ids=["expanded", "zero-trials", "symbolic"])
    def test_fe_refuses_seed_without_empirical_trials(self, capsys, argv):
        assert cli.main(["fe", "--lzs", LZS, "--invariant", INV827, *argv]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--seed" in err and "--empirical-trials" in err

    def test_fe_refuses_boolfun_with_symbolic(self, capsys):
        argv = ["fe", "--lzs", LZS, "--invariant", INV827, "--symbolic",
                "--boolfun", ZREF]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--boolfun" in err and "--symbolic" in err

    def test_factor_verifies_each_chain_once(self, monkeypatch, capsys):
        calls = []
        real = lab.Factorization.verify
        monkeypatch.setattr(lab.Factorization, "verify",
                            lambda self: calls.append(self) or real(self))
        assert cli.main(["factor", "--poly", MU, "--trees", "8", "--seed", "1"]) == 0
        chains = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("tree ")]
        assert len(chains) >= 2 and len(calls) == len(chains)

    def test_fe_names_boolfun_before_the_invariant_check(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a+F\n"))
        assert cli.main(["fe", "--lzs", LZS, "--invariant", "-"]) == cli.EXIT_USAGE
        assert "--boolfun" in capsys.readouterr().err

    def test_factor_finds_distinct_sets(self):
        r = run_cli("factor", "--poly", MU, "--trees", "8", "--seed", "1")
        assert r.returncode == 0
        last = r.stdout.strip().splitlines()[-1]
        assert last.startswith("distinct factor sets = ")
        assert int(last.rsplit("=", 1)[1]) >= 2

    @pytest.mark.parametrize("text,want", [("BF+F", ["B+1", "F"]),
                                           ("AF+F+A+1", ["A+1", "F+1"])])
    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_factor_forms_chain_with_lone_f(self, text, want, fmt):
        # a forms chain renders in the forms dialect, where F alone is the form
        r = run_cli("--format", fmt, "factor", "--poly", "-", stdin=text + "\n")
        assert r.returncode == 0, r.stderr
        if fmt == "text":
            assert "factors = {%s} leaf = 1" % ", ".join(want) in r.stdout
        else:
            assert json.loads(r.stdout)["trees"][0]["factors"] == want
        (chain,) = lab.explore_factorizations(ring.parse(text, "auto"), 8, 0)
        assert {ring.parse(f, "forms") for f in want} == frozenset(chain.factors)

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_annihilators_of_forms_poly_with_lone_f(self, fmt):
        # F+1 renders in the forms dialect, where F alone is the form letter
        r = run_cli("--format", fmt, "annihilators", "--poly", "-", "--degree", "1",
                    stdin="AF\n")
        assert r.returncode == 0, r.stderr
        if fmt == "text":
            lines = r.stdout.splitlines()
            basis = [line[len("basis: "):] for line in lines if line.startswith("basis: ")]
            assert "dimension = 2" in lines
        else:
            basis = json.loads(r.stdout)["basis"]
        assert basis == ["F+1", "A+F"]
        b1, b2 = (ring.parse(g, "forms") for g in basis)
        assert {b1, b2, b1 + b2} >= {ring.parse("A+1", "forms"), ring.parse("F+1", "forms")}

    def test_factor_of_mu_renders_as_by_auto_detection(self, capsys):
        mu = ring.parse(fixture_text("mu.poly"), "auto")
        for seed in range(4):
            argv = ["factor", "--poly", MU, "--trees", "32", "--seed", str(seed)]
            assert cli.main(argv) == 0
            trees = lab.explore_factorizations(mu, 32, seed)
            want = ["tree %d: factors = {%s} leaf = %s"
                    % (i, ", ".join(sorted(ring.render(f) for f in t.factors)),
                       ring.render(t.leaf)) for i, t in enumerate(trees)]
            assert capsys.readouterr().out.splitlines()[:-1] == want

    def test_validate(self):
        r = run_cli("validate", "--lzs", LZS)
        assert r.returncode == 0
        assert "wiring: valid" in r.stdout


class TestFormatsAndInputs:
    def test_json_lines_mirror(self):
        r = run_cli("--format", "json-lines", "fe", "--lzs", LZS,
                    "--invariant", INV827, "--boolfun", ZREF)
        rec = json.loads(r.stdout)
        assert rec["kind"] == "fe"
        assert rec["is_zero"] is False
        assert rec["mode"] == "expanded"
        assert isinstance(rec["depends_on"], list)

    def test_json_lines_verify(self):
        r = run_cli("--format", "json-lines", "verify-thm", "--lzs", LZS,
                    "--boolfun", ZREF)
        rec = json.loads(r.stdout)
        assert rec["passed"] is True
        assert len(rec["steps"]) == 8

    def test_stdin_dash(self):
        r = run_cli("factor", "--poly", "-", "--trees", "2", "--seed", "0",
                    stdin="a+b\n")
        assert r.returncode == 0
        assert "factors = {a+b}" in r.stdout

    def test_step_roundtrip(self):
        r = run_cli("step", "--lzs", LZS, "--boolfun", ZREF,
                    "--state", "000000001", "--f", "1")
        assert r.returncode == 0
        assert r.stdout.startswith("state = ")

    def test_step_bad_state(self):
        r = run_cli("step", "--lzs", LZS, "--boolfun", ZREF, "--state", "zzz")
        assert r.returncode == 2

    def test_step_negative_rounds(self):
        r = run_cli("step", "--lzs", LZS, "--boolfun", ZREF,
                    "--state", "000000001", "--rounds", "-3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--rounds" in r.stderr

    def test_linear_cycle_output(self):
        r = run_cli("linear-cycle", "--lzs", LZS, "--max-period", "8")
        assert r.returncode == 0
        assert "period=1" in r.stdout

    def test_truth_table_input(self, tmp_path):
        f = tmp_path / "fun.tt"
        f.write_text("f6f176fdb47cd7d3\n")  # truth table of the reference ANF
        r = run_cli("verify-thm", "--lzs", LZS, "--boolfun", str(f),
                    "--report", "summary")
        assert r.returncode == 0
        assert r.stdout.strip() == "ALL STEPS PASS"


class TestDeterminism:
    CORPUS = [
        ("verify-thm", "--lzs", LZS, "--boolfun", ZREF),
        ("fe", "--lzs", LZS, "--invariant", INV827, "--boolfun", ZREF),
        ("factor", "--poly", MU, "--trees", "6", "--seed", "3"),
        ("search", "--lzs", LZS, "--invariant", INV827, "--trials", "6",
         "--seed", "9"),
        ("linear-cycle", "--lzs", LZS, "--max-period", "12"),
        ("--format", "json-lines", "annihilators", "--poly", MU, "--degree", "1"),
        ("fe", "--lzs", LZS, "--invariant", INV827, "--symbolic"),
    ]

    def test_package_reads_no_environment_variable(self):
        # output depends on the flags and the input files alone
        pkg = os.path.dirname(invforge.__file__)
        sources = [os.path.join(base, f) for base, _dirs, files in os.walk(pkg)
                   for f in files if f.endswith(".py")]
        assert len(sources) >= 10
        for path in sources:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search(r"\b(environ|getenv|putenv)\b", text), path

    @pytest.mark.parametrize("argv", CORPUS, ids=lambda a: a[0].lstrip("-"))
    def test_byte_identical_reruns(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
