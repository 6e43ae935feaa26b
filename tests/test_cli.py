import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import invforge
from invforge import boolfun, cipher, cli, fe as fe_mod, lab, lincycle, ring
from invforge.boolfun import affine_factor_solutions, random_boolfun, truth_table
from invforge.data import fixture_path, fixture_text
from reference import spy_products

LZS = fixture_path("lzs-265-like.cfg")
ZREF = fixture_path("z-reference.anf")
INV7 = fixture_path("invariant-deg7.poly")
MU = fixture_path("mu.poly")
INV827 = fixture_path("invariant-827.poly")


def _write_wiring(path, w):
    path.write_text("D = %s\nP = %s\n" % (",".join(map(str, w.d)), ",".join(map(str, w.p))))


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
        # of its parts' images: for the degree-7 invariant 2080 terms with
        # z-reference, 4784 with the random function of seed 5 (FE != 0,
        # exit 1); for invariant-827, 93 with z-reference (exit 1)
        fun = tmp_path / "fun5.anf"
        fun.write_text("%016x\n" % random_boolfun(5).tt)
        for invariant, boolfun, image_terms, answer in ((INV7, ZREF, 2080, 0),
                                                        (INV7, str(fun), 4784, 1),
                                                        (INV827, ZREF, 93, 1)):
            argv = ["fe", "--lzs", LZS, "--invariant", invariant, "--boolfun", boolfun,
                    "--budget"]
            assert cli.main(argv[:-1]) == answer
            unbounded = capsys.readouterr().out
            assert cli.main(argv + [str(image_terms)]) == answer
            assert capsys.readouterr().out == unbounded
            assert cli.main(argv + [str(image_terms - 1)]) == cli.EXIT_BUDGET == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err.count("error: ")) == ("", 1)

    def test_symbolic_budget_above_the_largest_intermediate(self):
        unbounded = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--symbolic")
        r = run_cli("fe", "--lzs", LZS, "--invariant", INV7, "--symbolic",
                    "--budget", "200000")
        assert unbounded.returncode == r.returncode == 0
        assert r.stdout == unbounded.stdout

    def test_symbolic_budget_pins_at_the_image(self, capsys):
        # symbolic fe --budget bounds the term count of P's image, 111,584
        # terms on the shipped wiring, summed over the coefficient keys
        argv = ["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic"]
        assert cli.main(argv) == 0
        unbounded = capsys.readouterr().out
        assert cli.main(argv + ["--budget", "111584"]) == 0
        assert capsys.readouterr().out == unbounded
        assert cli.main(argv + ["--budget", "111583"]) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("error: ")) == ("", 1)

    def test_symbolic_fe_is_counted_not_built(self, capsys, monkeypatch):
        # the nonlinear FE of 110,720 terms is neither folded nor read: every
        # ring.product call is a substitution's group product, the largest of
        # 258 terms on the shipped wiring
        calls = spy_products(monkeypatch)
        assert cli.main(["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic"]) == 0
        assert capsys.readouterr().out.startswith("fe = <110720 terms, degree 13>\n")
        assert calls and {caller for caller, _ in calls} == {"substitute"}
        assert max(terms for _, terms in calls) <= 300

    def test_small_symbolic_fe_is_replayed_not_folded(self, capsys, monkeypatch):
        # invariant-827's FE is printed in full, 192 terms, with its linear
        # system of 192 equations: both are read off the replayed keyed rows,
        # so every ring.product call is a substitution's group product
        calls = spy_products(monkeypatch)
        assert cli.main(["fe", "--lzs", LZS, "--invariant", INV827, "--symbolic"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out[0].removeprefix("fe = ").split("+")) == 192
        assert "coefficient system: linear, 192 equations" in out
        assert calls and {caller for caller, _ in calls} == {"substitute"}

    def test_expanded_fe_gets_the_default_budget(self, tmp_path, capsys, monkeypatch):
        # on a random wiring the degree-7 invariant's U passes 20 variables, so
        # build_fe folds the images; ring.DEFAULT_BUDGET bounds that fold
        w = cipher.random_wiring(0)
        lzs = tmp_path / "rand.cfg"
        _write_wiring(lzs, w)
        argv = ["fe", "--lzs", str(lzs), "--invariant", INV7, "--boolfun", ZREF]
        assert cli.main(argv) == cli.EXIT_FALSE
        assert capsys.readouterr().out.startswith("fe = <")
        monkeypatch.setattr(ring, "DEFAULT_BUDGET", 1000)
        assert cli.main(argv) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("error: ")) == ("", 1)
        assert cli.main(argv + ["--budget", str(ring.DEFAULT_BUDGET << 20)]) == cli.EXIT_FALSE

    def test_every_command_fe_gets_the_default_budget(self, capsys, monkeypatch):
        # verify-thm on a supplied invariant and search's exact verdicts build
        # their FEs under ring.DEFAULT_BUDGET as fe does: at 64 terms (the images
        # of invariant-827 and of the degree-7 invariant have 93 and 2080 with
        # z-reference) both exit 3; search's trials 0 and 4 pass the screen
        monkeypatch.setattr(ring, "DEFAULT_BUDGET", 64)
        for argv in (["verify-thm", "--lzs", LZS, "--boolfun", ZREF, "--invariant", INV827],
                     ["search", "--lzs", LZS, "--invariant", INV7, "--trials", "5",
                      "--seed", "5"]):
            assert cli.main(argv) == cli.EXIT_BUDGET
            captured = capsys.readouterr()
            assert (captured.out, captured.err.count("error: ")) == ("", 1)

    def test_absorbers_past_the_table_limit_gets_the_default_budget(
            self, tmp_path, capsys, monkeypatch):
        # over 22 variables is_absorber multiplies f*g sparsely: 11 x 11 terms
        # pass a budget of 64 after the sixth row of the product
        f, g = tmp_path / "f.poly", tmp_path / "g.poly"
        f.write_text("+".join(ring.STATE_LETTERS[:11]) + "\n")
        g.write_text("+".join(ring.STATE_LETTERS[11:22]) + "\n")
        argv = ["absorbers", "--poly", str(f), "--candidate", str(g)]
        assert cli.main(argv) == cli.EXIT_FALSE
        assert capsys.readouterr().out == "absorbs = false\n"
        monkeypatch.setattr(ring, "DEFAULT_BUDGET", 64)
        assert cli.main(argv) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("error: ")) == ("", 1)

    def test_monomial_of_every_state_bit_answers(self, tmp_path, capsys):
        # P = x1 x2 ... x36 with z-reference: substitution multiplies its one
        # term's images smallest first, so the 145-term FE answers from a
        # budget of 146, as without --budget (the default, 4,194,304)
        inv = tmp_path / "all-state-bits.poly"
        inv.write_text(ring.STATE_LETTERS + "\n")
        argv = ["fe", "--lzs", LZS, "--invariant", str(inv), "--boolfun", ZREF]
        assert cli.main(argv + ["--budget", "146"]) == cli.EXIT_FALSE
        bounded = capsys.readouterr().out
        assert bounded.endswith("\nis_zero = false\ndepends_on = F,L\nmode = expanded\n")
        assert cli.main(argv) == cli.EXIT_FALSE
        assert capsys.readouterr().out == bounded
        assert cli.main(argv + ["--budget", "145"]) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert (captured.out, captured.err.count("error: ")) == ("", 1)

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
        sup = sorted(invariant_deg7.support())
        basis = affine_factor_solutions(truth_table(invariant_deg7, sup), len(sup))
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
        def broken(args):
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
        assert len(built) == 0

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

    @pytest.mark.parametrize("trials", ["0", "-5"])
    @pytest.mark.parametrize("mode", [["--boolfun", ZREF], ["--symbolic"]],
                             ids=["expanded", "symbolic"])
    def test_fe_refuses_empirical_trials_below_one(self, monkeypatch, capsys, trials, mode):
        # refused before any FE work, naming the flag
        monkeypatch.setattr(fe_mod, "build_fe", _forbidden)
        monkeypatch.setattr(fe_mod, "PreparedInvariant", _forbidden)
        argv = ["fe", "--lzs", LZS, "--invariant", INV827, *mode, "--empirical-trials", trials]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --empirical-trials")

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

    @pytest.mark.parametrize("text,names,missing", [
        ("BF+F", "F", "B"),  # F is the form letter, as in the polynomial
        ("BF+F", "B", "F"),
        ("abc", "a", "b,c"),
    ])
    def test_annihilators_vars_read_in_the_polynomials_dialect(self, text, names, missing):
        r = run_cli("annihilators", "--poly", "-", "--degree", "1", "--vars", names,
                    stdin=text + "\n")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: polynomial uses %s outside the declared variables\n" % missing

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


def _stdin(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


FE_ZREF = ["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", ZREF]
STEP = ["step", "--lzs", LZS, "--boolfun", ZREF]


class TestErrorContract:
    """A ring.UsageError or OSError exits 2 with one error line and no
    stdout; any other exception, a ValueError included, is a bug: exit 4."""

    # (argv, stdin bytes, a part of the message); NONUTF8 is a file of
    # bytes that are not UTF-8
    USAGE = {
        "parse": (["fe", "--lzs", LZS, "--invariant", "-", "--boolfun", ZREF],
                  b"a+?\n", "unknown variable '?'"),
        "wiring": (["validate", "--lzs", "-"], b"D = 1 2\nP = 1\n", "D must have 9 entries"),
        "system-too-large": (["annihilators", "--poly", "-", "--degree", "1"],
                             b"abcdefghijklmnopqrstu\n", "exceeds the 2^20-point limit"),
        "degree-bound": (["annihilators", "--poly", MU, "--degree", "99"], b"",
                         "degree bound 99 is outside 0..6"),
        "non-state-fe": (["fe", "--lzs", LZS, "--invariant", MU, "--boolfun", ZREF], b"",
                         "non-state variables: B,C,D,F,G,H"),
        "non-state-search": (["search", "--lzs", LZS, "--invariant", MU, "--trials", "4"],
                             b"", "non-state variables: B,C,D,F,G,H"),
        "boolfun-letters": (["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", "-"],
                            b"a+g\n", "variable outside a..f: g"),
        "factor-trees": (["factor", "--poly", MU, "--trees", "0"], b"", "trees must be >= 1"),
        "factor-zero": (["factor", "--poly", "-"], b"0\n",
                        "cannot factor the zero polynomial"),
        "factor-wide": (["factor", "--poly", "-"], b"abcdefghijklmnopq\n",
                        "over 17 variables: the affine factor search is limited to 16"),
        "search-trials": (["search", "--lzs", LZS, "--invariant", INV7, "--trials", "0"], b"",
                          "trials must be >= 1"),
        "empirical-trials": ([*FE_ZREF, "--empirical-trials", "-5"], b"",
                             "trials must be >= 1"),
        "max-period-0": (["linear-cycle", "--lzs", LZS, "--max-period", "0"], b"",
                         "max_period must be >= 1"),
        "max-period-4097": (["linear-cycle", "--lzs", LZS, "--max-period", "4097"], b"",
                            "max_period 4097 exceeds the guard of 4096"),
        "vars-uncovered": (["annihilators", "--poly", "-", "--degree", "1", "--vars", "a"],
                           b"ab\n", "polynomial uses b outside the declared variables"),
        "vars-lone-f": (["annihilators", "--poly", "-", "--degree", "1", "--vars", "F"],
                        b"BF+F\n", "polynomial uses B outside the declared variables"),
        "vars-blank": (["annihilators", "--poly", MU, "--degree", "1", "--vars", ","], b"",
                       "--vars must list variable names"),
        "budget": (["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic", "--budget", "0"],
                   b"", "--budget must be >= 1"),
        "no-boolfun": (["fe", "--lzs", LZS, "--invariant", INV7], b"",
                       "fe requires --boolfun unless --symbolic is given"),
        "symbolic-empirical": (["fe", "--lzs", LZS, "--invariant", INV7, "--symbolic",
                                "--empirical-trials", "9"], b"",
                               "--empirical-trials needs --boolfun, not --symbolic"),
        "symbolic-boolfun": ([*FE_ZREF, "--symbolic"], b"",
                             "--symbolic solves for the function"),
        "seed": ([*FE_ZREF, "--seed", "1"], b"", "--seed seeds the empirical check"),
        "state-hex": ([*STEP, "--state", "zzz"], b"", "state must be hexadecimal"),
        "state-range": ([*STEP, "--state", "1000000000"], b"", "of at most 36 bits"),
        "rounds": ([*STEP, "--state", "1", "--rounds", "-1"], b"", "--rounds must be >= 0"),
        "wiring-no-key": (["validate", "--lzs", "-"], b"# D\nD 1 2\n",
                          "line 2: expected 'D = ...' or 'P = ...'"),
        "wiring-non-integer": (["validate", "--lzs", "-"], b"D = 1, x\n",
                               "line 1: non-integer entry"),
        "wiring-unknown-key": (["validate", "--lzs", "-"], b"q = 1\n",
                               "line 1: unknown key 'Q'"),
        "wiring-p-length": (["validate", "--lzs", "-"], b"D = 1 2 3 4 5 6 7 8 9\nP = 1 2\n",
                            "P must have 27 entries, got 2"),
        "missing-file": (["validate", "--lzs", "missing.cfg"], b"", "No such file"),
        "non-utf8-file": (["factor", "--poly", "NONUTF8"], b"",
                          "NONUTF8: 'utf-8' codec can't decode byte 0xff"),
        "non-utf8-stdin": (["factor", "--poly", "-"], b"\xff\n",
                           "stdin: 'utf-8' codec can't decode byte 0xff"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE))
    def test_usage_error_exit_two(self, tmp_path, monkeypatch, capsys, case):
        argv, data, message = self.USAGE[case]
        bad = tmp_path / "bad.poly"
        bad.write_bytes(b"\xff\n")
        monkeypatch.setattr(sys, "stdin", _stdin(data))
        argv = [str(bad) if a == "NONUTF8" else a for a in argv]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert message.replace("NONUTF8", str(bad)) in err

    def test_named_errors_are_usage_errors(self):
        for cls in (ring.ParseError, cipher.WiringError, boolfun.SystemTooLargeError,
                    boolfun.DegreeBoundError, fe_mod.NonStateVariableError):
            assert issubclass(cls, ring.UsageError), cls

    @staticmethod
    def _boom(*args):
        raise ValueError("boom")

    @staticmethod
    def _unpack(*args):
        first, second = args[:1]  # a failed unpack: Python's own ValueError

    @staticmethod
    def _int(*args):
        return int("not a number")

    @pytest.mark.parametrize("module,name,broken,argv", [
        (fe_mod, "substitute", "_boom", FE_ZREF),
        (fe_mod, "mobius", "_unpack", FE_ZREF),
        (lab, "factor_out", "_boom", ["factor", "--poly", MU]),
        (lincycle, "_prime_factors", "_boom", ["linear-cycle", "--lzs", LZS]),
        (lincycle, "_prime_factors", "_int", ["linear-cycle", "--lzs", LZS]),
    ], ids=["fe", "fe-unpack", "factor", "linear-cycle", "linear-cycle-int"])
    def test_internal_value_error_exit_four(self, monkeypatch, capsys, module, name,
                                            broken, argv):
        monkeypatch.setattr(module, name, getattr(self, broken))
        assert cli.main(argv) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("Traceback")
        assert err.splitlines()[-1].startswith("ValueError: "), err


class TestEdgeInvariants:
    """--invariant texts whose local reading has no letters, drops one, or
    is refused: search, fe and verify-thm agree on each."""

    HIT = {"1", "0", "a+a"}  # constant: a hit on every trial, an FE of 0
    NON_STATE = "invariant candidate uses non-state variables: "
    ERROR = {"x1": "unknown variable '1' (at position 1)", "": "empty term (at position 0)",
             "ab+F": NON_STATE + "F", "Z00*a": NON_STATE + "Z00", "AB+C": NON_STATE + "A,B,C"}
    PASS = "step fundamental-equation:  PASS  (supplied invariant)\nALL STEPS PASS\n"

    @pytest.mark.parametrize("text", sorted(HIT | ERROR.keys() | {"a + b", "ab+ab+c"}))
    def test_search_fe_and_verify_thm(self, monkeypatch, capsys, text):
        runs = [["search", "--lzs", LZS, "--invariant", "-", "--trials", "3"],
                ["fe", "--lzs", LZS, "--invariant", "-", "--boolfun", ZREF],
                ["verify-thm", "--lzs", LZS, "--boolfun", ZREF, "--invariant", "-"]]
        for argv, hit in zip(runs, ("hits = 3\n", "fe = 0\n", self.PASS)):
            monkeypatch.setattr(sys, "stdin", _stdin(text.encode() + b"\n"))
            code = cli.main(argv)
            out, err = capsys.readouterr()
            if text in self.ERROR:
                assert (code, out, err) == (cli.EXIT_USAGE, "", "error: %s\n" % self.ERROR[text])
            elif text in self.HIT:
                assert (code, err) == (cli.EXIT_OK, "") and hit in out, (argv, out)
            else:  # not invariant on the shipped wiring
                assert (code, err) == (cli.EXIT_OK if argv[0] == "search" else cli.EXIT_FALSE,
                                       "") and hit not in out, (argv, out)


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

    def test_linear_cycle_without_functionals(self, tmp_path, capsys):
        w = cipher.random_wiring(0)
        lzs = tmp_path / "rand.cfg"
        _write_wiring(lzs, w)
        argv = ["linear-cycle", "--lzs", str(lzs), "--max-period", "64"]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == "no invariant functionals up to period 64\n"
        assert cli.main(["--format", "json-lines", *argv]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["entries"] == []

    def test_validate_warns_on_repeated_d(self, tmp_path, capsys):
        lzs = tmp_path / "repeated-d.cfg"
        lzs.write_text("D = 1,1,3,4,5,6,7,8,9\nP = %s\n" % ",".join(map(str, range(1, 28))))
        assert cli.main(["validate", "--lzs", str(lzs)]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["wiring: valid", "warning: D entries are not pairwise distinct"]

    def test_truth_table_input(self, tmp_path):
        f = tmp_path / "fun.tt"
        f.write_text("f6f176fdb47cd7d3\n")  # truth table of the reference ANF
        r = run_cli("verify-thm", "--lzs", LZS, "--boolfun", str(f),
                    "--report", "summary")
        assert r.returncode == 0
        assert r.stdout.strip() == "ALL STEPS PASS"


class TestPinnedOutputs:
    # stdout digests taken before verify-thm moved its product identities
    # onto truth tables and fe read its size off the FE's ANF bits
    FUN = "0123456789abcdef\n"  # a truth table on which four steps fail
    PINS = [
        (("verify-thm", "--lzs", LZS), "text",
         "b3475e30689dec08ef38c862afcfc46e3cf0f5609da8ee1b3dca16c8f3a87d87"),
        (("verify-thm", "--lzs", LZS), "json-lines",
         "9d11735e7fcbb57b65a878418b958070f24718ec84af57fb0f20670be56d4b40"),
        (("fe", "--lzs", LZS, "--invariant", INV7), "text",
         "28cf17b7517f30579b928da35bb972748f33dcfba2451e8ffa9beb778daaf353"),
        (("fe", "--lzs", LZS, "--invariant", INV7), "json-lines",
         "39e178df8981b3b439ce1872c0ddb65e066cbe0c18618112a30125ad753890ae"),
    ]

    @pytest.mark.parametrize("argv,fmt,digest", PINS,
                             ids=["verify-text", "verify-json", "fe-text", "fe-json"])
    def test_stdout_digest(self, tmp_path, capsys, argv, fmt, digest):
        fun = tmp_path / "fun.tt"
        fun.write_text(self.FUN)
        assert cli.main(["--format", fmt, *argv, "--boolfun", str(fun)]) == cli.EXIT_FALSE
        out = capsys.readouterr().out
        if fmt == "text":
            assert (out.splitlines()[-1] == "STEP FAILURES: 4" if argv[0] == "verify-thm"
                    else out.startswith("fe = <2584 terms, degree 10>\n"))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_fe_size_never_builds_the_fe(self, tmp_path, capsys, monkeypatch):
        fun = tmp_path / "fun.tt"
        fun.write_text(self.FUN)
        monkeypatch.setattr(fe_mod.FeReport, "fe", property(_forbidden))
        assert cli.main(["fe", "--lzs", LZS, "--invariant", INV7, "--boolfun",
                         str(fun)]) == cli.EXIT_FALSE
        assert capsys.readouterr().out.startswith("fe = <2584 terms, degree 10>\n")


def _forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


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
