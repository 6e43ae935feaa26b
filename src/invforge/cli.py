"""Command-line entry point.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error
(ring.UsageError or OSError), 3 term-budget overflow, 4 internal error: any
other exception, traceback on stderr.  Each cmd_* returns its result and
main alone prints it.  The library returns plain values: this module alone
writes them as text and as JSON.  '-' reads any path flag from stdin.
Identical invocations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional, Tuple

from . import boolfun, fe as fe_mod, lab, lincycle, ring
from .cipher import HYPOTHESES, Wiring, parse_wiring, round_system, step, validate
from .ring import Poly, TermBudgetError, UsageError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

MAX_RENDER_TERMS = 512  # larger FEs are reported by size and degree only

# what a command returns for main to print: (exit code, JSON record, text lines)
Result = Tuple[int, dict, List[str]]


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError("%s: %s" % ("stdin" if path == "-" else path, exc)) from None


def _load_wiring(path: str) -> Wiring:
    return parse_wiring(_read(path))


def _load_poly(path: str, local: bool = False):  # local: (P over its letters, its VarIds)
    return (ring.parse_local if local else ring.parse)(_read(path), dialect="auto")


def _dialect(p: Poly) -> str:
    """Forms over the form letters, where auto would read a lone F as the round bit."""
    return "forms" if max(p.support(), default=0) >= ring.FORM_BASE else "auto"


def _load_fun(path: str) -> boolfun.BoolFun6:
    return boolfun.load_boolfun(_read(path))


def _fe_record(report: fe_mod.FeReport) -> dict:
    """The FE's record; its "fe" is "0", the FE rendered up to MAX_RENDER_TERMS
    terms, or None past that, where size alone is reported."""
    terms, degree = report.size
    if report.is_zero:
        text = "0"
    else:
        text = ring.render(report.fe) if terms <= MAX_RENDER_TERMS else None
    return {
        "kind": "fe",
        "is_zero": report.is_zero,
        "depends_on": list(report.depends_on),
        "mode": report.mode,
        "terms": terms,
        "degree": degree,
        "fe": text,
    }


def _fe_lines(rec: dict) -> List[str]:
    return ["fe = %s" % (rec["fe"] or "<%d terms, degree %d>" % (rec["terms"], rec["degree"])),
            "is_zero = %s" % ("true" if rec["is_zero"] else "false"),
            "depends_on = %s" % (",".join(rec["depends_on"]) or "-"),
            "mode = %s" % rec["mode"]]


def cmd_fe(args) -> Result:
    w = _load_wiring(args.lzs)
    P = _load_poly(args.invariant, local=True)
    if args.budget is not None and args.budget < 1:
        raise UsageError("--budget must be >= 1")
    if not (args.symbolic or args.boolfun):
        raise UsageError("fe requires --boolfun unless --symbolic is given")
    if args.symbolic and args.empirical_trials is not None:
        raise UsageError("--empirical-trials needs --boolfun, not --symbolic")
    if args.symbolic and args.boolfun:
        raise UsageError("--symbolic solves for the function: drop --boolfun or --symbolic")
    if args.seed is not None and not args.empirical_trials:
        raise UsageError("--seed seeds the empirical check: it needs --empirical-trials")
    if args.empirical_trials is not None and args.empirical_trials < 1:
        raise UsageError("--empirical-trials must be >= 1")
    P = fe_mod.PreparedInvariant(*P)
    if args.symbolic:
        report = fe_mod.symbolic_fe(P, round_system(w, "symbolic"), args.budget)
        rec = _fe_record(report)
        lines = _fe_lines(rec)
        if report.system is None:  # () is a linear system of no equations
            rec["coefficient_system"] = {"linear": False}
            return EXIT_OK, rec, lines + ["coefficient system: nonlinear in Zij"]
        equations = [[ring.render(c), ring.render(e)] for c, e in report.system]
        rec["coefficient_system"] = {"linear": True, "equations": equations}
        lines.append("coefficient system: linear, %d equations" % len(equations))
        return EXIT_OK, rec, lines + ["  [%s] %s = 0" % tuple(eq) for eq in equations]
    fun = _load_fun(args.boolfun)
    rs = round_system(w, "expanded", fun)
    report = fe_mod.build_fe(P, rs, args.budget)
    rec = _fe_record(report)
    lines = _fe_lines(rec)
    if args.empirical_trials is not None:
        trials = args.empirical_trials
        mismatches = fe_mod.check_invariant_empirically(P, w, fun, trials, seed=args.seed or 0)
        rec["empirical"] = {"trials": trials, "rounds": 1, "mismatches": mismatches}
        lines += ["empirical trials = %d" % trials, "empirical rounds = 1",
                  "empirical mismatches = %d" % mismatches]
    return EXIT_OK if report.is_zero else EXIT_FALSE, rec, lines


def cmd_verify_thm(args) -> Result:
    w = _load_wiring(args.lzs)
    fun = _load_fun(args.boolfun)
    P = args.invariant and fe_mod.PreparedInvariant(*_load_poly(args.invariant, local=True))
    if not P or P.poly == lab.product_invariant():  # verify_attack builds its own
        try:
            steps, _ = lab.verify_attack(w, fun)
        except lab.HypothesisError as exc:
            return EXIT_FALSE, {"kind": "verify", "error": str(exc)}, ["error: %s" % exc]
    else:  # a supplied non-default invariant gets the end-to-end verdict only
        report = fe_mod.build_fe(P, round_system(w, "expanded", fun))
        steps = (("fundamental-equation", "supplied invariant",
                  report.is_zero and not report.depends_on),)
    failures = sum(not passed for _, _, passed in steps)
    rec = {
        "kind": "verify",
        "steps": [{"key": key, "description": description, "passed": passed}
                  for key, description, passed in steps],
        "passed": not failures,
    }
    lines = ["step %-22s %s  (%s)" % (key + ":", "PASS" if passed else "FAIL", description)
             for key, description, passed in steps]
    lines.append("STEP FAILURES: %d" % failures if failures else "ALL STEPS PASS")
    return (EXIT_FALSE if failures else EXIT_OK, rec,
            lines if args.report == "steps" else lines[-1:])


def cmd_annihilators(args) -> Result:
    p = _load_poly(args.poly)
    names = p
    if args.vars is not None:
        # read as p is, so a lone F names the form letter in a forms polynomial;
        # a blank or comma-only list is the empty product, ONE
        names = (ring.parse(args.vars.replace(",", "*"), _dialect(p))
                 if args.vars.replace(",", "").strip() else ring.ONE)
        if len(names) != 1 or names == ring.ONE:
            raise UsageError("--vars must list variable names")
    variables = sorted(names.support())
    basis = boolfun.annihilators(p, variables, args.degree)
    rec = {
        "kind": "annihilators",
        "degree_bound": args.degree,
        "variables": [ring.var_name(v) for v in variables],
        "dimension": len(basis),
        "basis": [ring.render(g, _dialect(names)) for g in basis],
    }
    lines = ["degree_bound = %d" % args.degree,
             "variables = %s" % ",".join(rec["variables"]),
             "dimension = %d" % len(basis)]
    lines += ["basis: %s" % g for g in rec["basis"]]
    return EXIT_OK if basis else EXIT_FALSE, rec, lines


def cmd_absorbers(args) -> Result:
    f = _load_poly(args.poly)
    g = _load_poly(args.candidate)
    verdict = boolfun.is_absorber(f, g)
    return (EXIT_OK if verdict else EXIT_FALSE, {"kind": "absorbers", "absorbs": verdict},
            ["absorbs = %s" % ("true" if verdict else "false")])


def cmd_factor(args) -> Result:
    p = _load_poly(args.poly)
    trees = lab.explore_factorizations(p, args.trees, args.seed)
    dialect = _dialect(p)
    records = []
    lines = []
    seen_sets = set()
    for i, tree in enumerate(trees):
        fs = tuple(sorted(ring.render(f, dialect) for f in tree.factors))
        leaf = ring.render(tree.leaf, dialect)
        seen_sets.add(fs)
        # explore_factorizations raises on a chain that does not re-multiply
        records.append({"factors": list(fs), "leaf": leaf, "verified": True})
        lines.append("tree %d: factors = {%s} leaf = %s" % (i, ", ".join(fs), leaf))
    lines.append("distinct factor sets = %d" % len(seen_sets))
    return EXIT_OK, {"kind": "factor", "trees": records,
                     "distinct_factor_sets": len(seen_sets)}, lines


def cmd_linear_cycle(args) -> Result:
    w = _load_wiring(args.lzs)
    ar = lincycle.affine_of(w)
    mask = lincycle.MASKS[args.mask]
    entries = lincycle.linear_invariant_periods(ar, args.max_period)
    records = []
    lines = []
    for e in entries:
        funs = []
        for fv in e.minimal_functionals:
            weights = lincycle.weight_sequence(lincycle.orbit(ar, fv, e.period), mask)
            funs.append({"functional": "%09x" % fv, "weights": weights})
            lines.append("period=%d dim=%d functional=%09x weights=%s"
                         % (e.period, e.dimension, fv,
                            ",".join(map(str, weights))))
        records.append({"period": e.period, "dimension": e.dimension,
                        "functionals": funs})
    if not entries:
        lines.append("no invariant functionals up to period %d" % args.max_period)
    return EXIT_OK, {"kind": "linear-cycle", "mask": args.mask, "entries": records}, lines


def cmd_search(args) -> Result:
    w = _load_wiring(args.lzs)
    P = _load_poly(args.invariant, local=True)
    hits = lab.search_random_functions(w, P, args.trials, args.seed)
    low, high = lab.wilson_interval(len(hits), args.trials)
    rec = {
        "kind": "search",
        "trials": args.trials,
        "hits": [{"trial": idx, "tt": "%016x" % tt} for idx, tt in hits],
        "frequency": len(hits) / args.trials,
        "wilson95": [low, high],
    }
    lines = ["trials = %d" % args.trials, "hits = %d" % len(hits)]
    lines += ["hit trial=%d tt=%s" % (h["trial"], h["tt"]) for h in rec["hits"]]
    lines += ["frequency = %.6g" % rec["frequency"], "wilson95 = [%.6g, %.6g]" % (low, high)]
    return EXIT_OK, rec, lines


def cmd_step(args) -> Result:
    w = _load_wiring(args.lzs)
    fun = _load_fun(args.boolfun)
    try:
        state = int(args.state, 16)
    except ValueError:
        raise UsageError("state must be hexadecimal")
    if not 0 <= state < 1 << 36:
        raise UsageError("state must be a nonnegative value of at most 36 bits")
    if args.rounds < 0:
        raise UsageError("--rounds must be >= 0")
    for _ in range(args.rounds):
        state = step(state, w, fun, args.f, args.k, args.l)
    return EXIT_OK, {"kind": "step", "state": "%09x" % state}, ["state = %09x" % state]


def cmd_validate(args) -> Result:
    w = _load_wiring(args.lzs)  # refuses range errors and repeated keys (exit 2)
    warnings, hypotheses = validate(w), w.hypotheses()
    rec = {"kind": "validate", "ok": True, "errors": [], "warnings": list(warnings),
           "hypotheses": hypotheses}
    lines = ["wiring: valid"] + ["warning: %s" % msg for msg in warnings]
    lines += ["hypothesis %s (%s): %s" % (key, HYPOTHESES[key], "holds" if holds else "fails")
              for key, holds in sorted(hypotheses.items())]
    return EXIT_OK, rec, lines


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept: main
    dispatches by command name, so the parser holds no command function."""
    ap = argparse.ArgumentParser(
        prog="invforge",
        description="Polynomial invariant workbench for T-310-style ciphers.")
    ap.add_argument("--format", choices=("text", "json-lines"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fe", help="build and reduce the fundamental equation")
    p.add_argument("--lzs", required=True)
    p.add_argument("--invariant", required=True)
    p.add_argument("--boolfun")
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--budget", type=int, default=None,
                   help="monomial budget (default %d): counted on tables or keys, "
                        "it bounds the terms of P's image; the sparse fold checks each "
                        "multiplication's running sum, so it can refuse a budget that "
                        "every intermediate product fits" % ring.DEFAULT_BUDGET)
    p.add_argument("--empirical-trials", type=int, default=None,
                   help="also run the independent empirical checker on this many "
                        "sampled states (>= 1; with --boolfun only)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the empirical check (default 0)")

    p = sub.add_parser("verify-thm", help="step-by-step attack verification")
    p.add_argument("--lzs", required=True)
    p.add_argument("--boolfun", required=True)
    p.add_argument("--invariant")
    p.add_argument("--report", choices=("steps", "summary"), default="steps")

    p = sub.add_parser("annihilators", help="degree-bounded annihilator basis")
    p.add_argument("--poly", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--vars", help="comma-separated variable names (default: support)")

    p = sub.add_parser("absorbers", help="test f*g = f")
    p.add_argument("--poly", required=True, help="the absorbing polynomial f")
    p.add_argument("--candidate", required=True, help="the absorbed polynomial g")

    p = sub.add_parser("factor", help="explore non-unique affine factorizations")
    p.add_argument("--poly", required=True)
    p.add_argument("--trees", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("linear-cycle", help="periods of the zero-function affine round")
    p.add_argument("--lzs", required=True)
    p.add_argument("--max-period", type=int, default=256)
    p.add_argument("--mask", choices=sorted(lincycle.MASKS), default="lowercase26")

    p = sub.add_parser("search", help="random Boolean function search")
    p.add_argument("--lzs", required=True)
    p.add_argument("--invariant", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("step", help="apply concrete rounds to a state")
    p.add_argument("--lzs", required=True)
    p.add_argument("--boolfun", required=True)
    p.add_argument("--state", required=True, help="36-bit state in hex")
    p.add_argument("--f", type=int, choices=(0, 1), default=0)
    p.add_argument("--k", type=int, choices=(0, 1), default=0)
    p.add_argument("--l", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=1)

    p = sub.add_parser("validate", help="check a wiring file")
    p.add_argument("--lzs", required=True)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # looked up on every call, so a replaced cmd_* function is the one run
    command = {"fe": cmd_fe, "verify-thm": cmd_verify_thm, "annihilators": cmd_annihilators,
               "absorbers": cmd_absorbers, "factor": cmd_factor,
               "linear-cycle": cmd_linear_cycle, "search": cmd_search, "step": cmd_step,
               "validate": cmd_validate}[args.command]
    try:
        code, record, lines = command(args)
        sys.stdout.write(json.dumps(record) + "\n" if args.format == "json-lines"
                         else "".join(line + "\n" for line in lines))
        return code
    except TermBudgetError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except (UsageError, OSError) as exc:  # the user's mistake; any other error is a bug
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback an uncaught error prints
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
