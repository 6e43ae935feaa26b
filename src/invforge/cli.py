"""Command-line entry point.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 term-budget overflow, 4 internal error (traceback on stderr).  '-' reads
any path flag from stdin.  Identical invocations (including --seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from . import boolfun, fe as fe_mod, lab, lincycle, ring
from .cipher import Wiring, parse_wiring, round_system, step, validate
from .ring import ParseError, Poly, TermBudgetError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict, text_lines: List[str]):
        if self.fmt == "json-lines":
            sys.stdout.write(json.dumps(record, sort_keys=False) + "\n")
        else:
            for line in text_lines:
                sys.stdout.write(line + "\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_wiring(path: str) -> Wiring:
    return parse_wiring(_read(path))


def _load_poly(path: str) -> Poly:
    return ring.parse(_read(path), dialect="auto")


def _dialect(p: Poly) -> str:
    """Forms over the form letters, where auto would read a lone F as the round bit."""
    return "forms" if max(p.support(), default=0) >= ring.FORM_BASE else "auto"


def _load_fun(path: str) -> boolfun.BoolFun6:
    return boolfun.load_boolfun(_read(path))


def _fe_record(report: fe_mod.FeReport) -> dict:
    return {
        "kind": "fe",
        "is_zero": report.is_zero,
        "depends_on": list(report.depends_on),
        "mode": report.mode,
        "terms": len(report.fe),
        "degree": report.fe.degree(),
        "fe": ring.render(report.fe) if len(report.fe) <= fe_mod.MAX_RENDER_TERMS else None,
    }


def cmd_fe(args, out: _Output) -> int:
    w = _load_wiring(args.lzs)
    P = _load_poly(args.invariant)
    if args.budget is not None and args.budget < 1:
        raise SystemExit2("--budget must be >= 1")
    if not (args.symbolic or args.boolfun):
        raise SystemExit2("fe requires --boolfun unless --symbolic is given")
    if args.symbolic and args.empirical_trials:
        raise SystemExit2("--empirical-trials needs --boolfun, not --symbolic")
    if args.symbolic and args.boolfun:
        raise SystemExit2("--symbolic solves for the function: drop --boolfun or --symbolic")
    if args.seed is not None and not args.empirical_trials:
        raise SystemExit2("--seed seeds the empirical check: it needs --empirical-trials")
    P = fe_mod.PreparedInvariant(P)
    if args.symbolic:
        rs = round_system(w, "symbolic")
        report = fe_mod.symbolic_fe(P, rs, args.budget or fe_mod.DEFAULT_BUDGET)
        system = fe_mod.coefficient_system(report.fe)
        rec = _fe_record(report)
        rec["coefficient_system"] = (
            {"linear": True,
             "equations": [[ring.render(c), ring.render(e)] for c, e in system.equations]}
            if system.linear else {"linear": False})
        out.emit(rec, report.lines() + system.lines())
        return EXIT_OK
    fun = _load_fun(args.boolfun)
    rs = round_system(w, "expanded", fun)
    report = fe_mod.build_fe(P, rs, args.budget)
    rec = _fe_record(report)
    lines = report.lines()
    if args.empirical_trials:
        emp = fe_mod.check_invariant_empirically(P, w, fun,
                                                 args.empirical_trials,
                                                 seed=args.seed or 0)
        rec["empirical"] = {"trials": emp.trials, "rounds": emp.rounds,
                            "mismatches": emp.mismatches}
        lines += ["empirical " + ln for ln in emp.lines()]
    out.emit(rec, lines)
    return EXIT_OK if report.is_zero else EXIT_FALSE


def cmd_verify_thm(args, out: _Output) -> int:
    w = _load_wiring(args.lzs)
    fun = _load_fun(args.boolfun)
    P = _load_poly(args.invariant) if args.invariant else None
    if P is None or P == lab.product_invariant():  # verify_attack builds its own
        try:
            chain = lab.verify_attack(w, fun)
        except lab.HypothesisError as exc:
            out.emit({"kind": "verify", "error": str(exc)}, ["error: %s" % exc])
            return EXIT_FALSE
    else:  # a supplied non-default invariant gets the end-to-end verdict only
        rs = round_system(w, "expanded", fun)
        report = fe_mod.build_fe(fe_mod.PreparedInvariant(P), rs)
        chain = lab.ChainReport((lab.StepResult(
            "fundamental-equation", "supplied invariant",
            report.is_zero and not report.depends_on),), report)
    rec = {
        "kind": "verify",
        "steps": [{"key": s.key, "description": s.description, "passed": s.passed}
                  for s in chain.steps],
        "passed": chain.passed,
    }
    lines = chain.lines() if args.report == "steps" else [chain.lines()[-1]]
    out.emit(rec, lines)
    return EXIT_OK if chain.passed else EXIT_FALSE


def cmd_annihilators(args, out: _Output) -> int:
    p = _load_poly(args.poly)
    names = p
    if args.vars is not None:
        # a blank or comma-only list is the empty product, ONE
        names = (ring.parse(args.vars.replace(",", "*"), "auto")
                 if args.vars.replace(",", "").strip() else ring.ONE)
        if len(names) != 1 or names == ring.ONE:
            raise SystemExit2("--vars must list variable names")
    variables = sorted(names.support())
    basis = boolfun.annihilators(p, variables, args.degree)
    rec = {
        "kind": "annihilators",
        "degree_bound": basis.degree_bound,
        "variables": [ring.var_name(v) for v in basis.variables],
        "dimension": basis.dimension,
        "basis": [ring.render(g, _dialect(names)) for g in basis.basis],
    }
    lines = ["degree_bound = %d" % basis.degree_bound,
             "variables = %s" % ",".join(ring.var_name(v) for v in basis.variables),
             "dimension = %d" % basis.dimension]
    lines += ["basis: %s" % g for g in rec["basis"]]
    out.emit(rec, lines)
    return EXIT_OK if basis.dimension > 0 else EXIT_FALSE


def cmd_absorbers(args, out: _Output) -> int:
    f = _load_poly(args.poly)
    g = _load_poly(args.candidate)
    verdict = boolfun.is_absorber(f, g)
    out.emit({"kind": "absorbers", "absorbs": verdict},
             ["absorbs = %s" % ("true" if verdict else "false")])
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_factor(args, out: _Output) -> int:
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
    out.emit({"kind": "factor", "trees": records,
              "distinct_factor_sets": len(seen_sets)}, lines)
    return EXIT_OK


def cmd_linear_cycle(args, out: _Output) -> int:
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
    out.emit({"kind": "linear-cycle", "mask": args.mask, "entries": records}, lines)
    return EXIT_OK


def cmd_search(args, out: _Output) -> int:
    w = _load_wiring(args.lzs)
    P = _load_poly(args.invariant)
    report = lab.search_random_functions(w, P, args.trials, args.seed)
    rec = {
        "kind": "search",
        "trials": report.trials,
        "hits": [{"trial": idx, "tt": "%016x" % tt} for idx, tt in report.hits],
        "frequency": report.frequency,
        "wilson95": [report.wilson_low, report.wilson_high],
    }
    out.emit(rec, report.lines())
    return EXIT_OK


def cmd_step(args, out: _Output) -> int:
    w = _load_wiring(args.lzs)
    fun = _load_fun(args.boolfun)
    try:
        state = int(args.state, 16)
    except ValueError:
        raise SystemExit2("state must be hexadecimal")
    if not 0 <= state < 1 << 36:
        raise SystemExit2("state must be a nonnegative value of at most 36 bits")
    if args.rounds < 0:
        raise SystemExit2("--rounds must be >= 0")
    for _ in range(args.rounds):
        state = step(state, w, fun, args.f, args.k, args.l)
    out.emit({"kind": "step", "state": "%09x" % state},
             ["state = %09x" % state])
    return EXIT_OK


def cmd_validate(args, out: _Output) -> int:
    w = _load_wiring(args.lzs)
    rep = validate(w)
    rec = {"kind": "validate", "ok": rep.ok, "errors": list(rep.errors),
           "warnings": list(rep.warnings), "hypotheses": rep.hypotheses}
    out.emit(rec, rep.lines())
    return EXIT_OK if rep.ok else EXIT_FALSE


class SystemExit2(Exception):
    """Usage-level failure with a one-line diagnostic."""


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
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--empirical-trials", type=int, default=0,
                   help="also run the independent empirical checker")
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
    out = _Output(args.format)
    # looked up on every call, so a replaced cmd_* function is the one run
    command = {"fe": cmd_fe, "verify-thm": cmd_verify_thm, "annihilators": cmd_annihilators,
               "absorbers": cmd_absorbers, "factor": cmd_factor,
               "linear-cycle": cmd_linear_cycle, "search": cmd_search, "step": cmd_step,
               "validate": cmd_validate}[args.command]
    try:
        return command(args, out)
    except TermBudgetError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except (SystemExit2, ParseError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback an uncaught error prints
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
