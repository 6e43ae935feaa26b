"""invforge benchmark: time to verdict on four workloads.

    python3 invbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports invforge from
./src only.  One process, one closed-loop client: each CLI op is an
in-process `invforge.cli.main(argv)` call, started when the previous one
has returned.  The run

  1. sets up three times and reports the median as setup_s: a fresh
     import of invforge, generation of the seeded inputs, and one untimed
     warm-up op of each kind (first calls fill lazy caches);
  2. repeats passes (workloads.py) until --seconds of timed work is done;
  3. checks every op's exit code and stdout with check.py, and requires an
     op that runs twice to print byte-identical output.

With --trace 0 it prints the end-to-end metrics; with --trace 1 every
pass runs once untraced and once traced (tracer.py), the two must print
identical output, and it prints the per-layer metrics and the tracing
overhead.  The last stdout line is the JSON result; the per-op stdout
sha256 digests, raw times and the environment go to .invbench/results/.

Times are reported at a fixed reference CPU speed.  On a shared machine
the speed of a core drifts by up to 2x over phases of several seconds,
and raw op times inherit that drift.  A fixed slice of pure-Python work
(`calibration_slice`, about 2 ms) is timed before and after every op
and every 0.1 s during it; an op's time is scaled by the mean of
REFERENCE_S over those slices.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3

sys.path.insert(0, HERE)
import check  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import MUST_CALL, SETS, WORKLOADS  # noqa: E402

# Seconds the calibration slice takes at the reference speed: the typical
# speed of the 2-CPU Intel Xeon machine the workloads were sized on.
REFERENCE_S = 0.0019
SAMPLE_EVERY_S = 0.1
_CAL_A = [(i * 2654435761) & ((1 << 40) - 1) for i in range(64)]
_CAL_B = [(i * 40503 + 7) & ((1 << 40) - 1) for i in range(64)]


def calibration_slice() -> float:
    """Seconds for fixed work shaped like the program's inner loops: a
    sparse GF(2) product over bitmask monomials and a row reduction."""
    t0 = time.perf_counter()
    for _ in range(2):
        acc = set()
        for a in _CAL_A:
            for b in _CAL_B:
                m = a | b
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        rows = [a ^ b for a, b in zip(_CAL_A, _CAL_B)]
        for col in range(40):
            bit = 1 << col
            pivot = next((r for r in rows if r & bit), 0)
            rows = [r ^ pivot if r & bit and r != pivot else r for r in rows]
    return time.perf_counter() - t0


def fail(msg: str) -> None:
    sys.stderr.write("invbench: %s\n" % msg)
    sys.exit(2)


def import_invforge():
    """Import a fresh invforge from ./src, never from an installed copy."""
    for name in [n for n in sys.modules if n == "invforge" or n.startswith("invforge.")]:
        del sys.modules[name]
    pkg = importlib.import_module("invforge")
    importlib.import_module("invforge.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        fail("imported invforge from %s, not from %s" % (pkg.__file__, SRC))
    return pkg


def timed(fn, *args, sample=True):
    """(result, raw seconds, seconds at the reference speed).

    Calibration slices run before and after the call and, when `sample`
    is set, every SAMPLE_EVERY_S during it from a SIGALRM handler; the
    raw time excludes the slices that ran inside the call.
    """
    slices = [calibration_slice()]
    if sample:
        old = signal.signal(signal.SIGALRM, lambda *_: slices.append(calibration_slice()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = time.perf_counter() - t0
        if sample:
            signal.signal(signal.SIGALRM, old)
    raw -= sum(slices[1:])
    slices.append(calibration_slice())
    return result, raw, raw * statistics.mean(REFERENCE_S / s for s in slices)


def run_op(pkg, op):
    """(exit code, or None if it raised; stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(list(op["argv"]))
    except Exception:
        rc = None
        sys.stderr.write("op %s raised:\n%s" % (" ".join(op["argv"]), traceback.format_exc()))
    return rc, out.getvalue()


def setup(workload: str, seed: int, inputs: str):
    """One full set-up, each step timed on its own.

    Returns (package, input digest, warm-up errors, raw s, reference s).
    """
    pkg, raw, ref = timed(import_invforge)
    _, r, f = timed(gen.write_inputs, os.path.join(SRC, "invforge", "data"),
                    inputs, workload, seed, SETS)
    raw, ref = raw + r, ref + f
    errors = []
    for op in WORKLOADS[workload][1](inputs):
        (rc, _), r, f = timed(run_op, pkg, op)
        raw, ref = raw + r, ref + f
        if rc != (3 if op["kind"] == "budget" else 0):
            errors.append("warm-up %s exited %s" % (op["argv"][0], rc))
    return pkg, gen.tree_digest(inputs), errors, raw, ref


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 11."""
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs)


def units_of(op, stdout):
    if op["units"] is not None:
        return op["units"]
    got = check.fields(stdout).get("fe", "")
    return 0 if got == "0" else int(got.strip("<").split()[0])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    n = 0
    for base, _dirs, files in os.walk(os.path.join(SRC, "invforge")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    n += sum(1 for _ in fh)
    return n


class Run:
    """One benchmark run: ops, their timings, digests and failures."""

    def __init__(self, pkg, inputs, seed):
        self.pkg = pkg
        self.checker = check.Checker(pkg, inputs, seed)
        self.digests = {}      # argv -> sha256 of the checked output
        self.records = []
        self.attempted = 0
        self.failures = []     # ops that raised, exited wrongly or printed wrong output
        self.problems = []     # faults of the run itself: set-up, reproducibility, tracing

    def do_pass(self, index, ops, traced):
        """Run and check ops back to back; return [(raw s, reference s, units)].

        Traced passes take no calibration slices inside an op, so the
        slices do not count as layer self time.
        """
        out = []
        for op in ops:
            (rc, stdout), raw, ref = timed(run_op, self.pkg, op, sample=not traced)
            self.judge(index, op, rc, stdout, raw, ref, traced)
            out.append((raw, ref, units_of(op, stdout) if rc is not None else 0))
        return out

    def judge(self, index, op, rc, stdout, raw, ref, traced):
        """The first run of an argv is checked; later runs must print the
        same bytes."""
        self.attempted += 1
        key = tuple(op["argv"])
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.records.append({"pass": index, "traced": traced, "argv": op["argv"],
                             "rc": rc, "raw_s": raw, "ref_s": ref, "sha256": digest})
        why = None
        if rc is None:
            why = "raised"
        elif key not in self.digests:
            why = getattr(self.checker, op["kind"])(rc, stdout, op)
            if why is None:
                self.digests[key] = digest
        elif self.digests[key] != digest:
            why = "output differs from an earlier run of the same op"
        if why:
            self.failures.append("%s: %s" % (" ".join(op["argv"]), why))


def measure(run, passes_of, seconds, tracer):
    """Repeat passes until `seconds` of raw op time is spent.

    Returns the per-op results of the untraced and of the traced passes,
    one list per pass.  A traced pass runs right after the same pass
    untraced.
    """
    plain, traced = [], []
    spent, i = 0.0, 0
    while spent < seconds:
        ops = passes_of(i % SETS)
        plain.append(run.do_pass(i, ops, False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run.do_pass(i, ops, True))
            finally:
                tracer.uninstall()
        spent += sum(r[0] for p in (plain[-1:] + traced[-1:]) for r in p)
        i += 1
    return plain, traced


def end_to_end(setups, plain):
    """The user-visible metrics, times at the reference speed."""
    latencies = [r[1] for p in plain for r in p]
    total = sum(latencies)
    t_val, t_pct, t_n = tail(latencies)
    # wall_s and work_per_s use every pass, not the median one: on search
    # a pass's cost follows how many of its trials survive the screen.
    metrics = {
        "setup_s": (statistics.median(s[4] for s in setups), "s"),
        "wall_s": (total / len(plain), "s"),
        "work_per_s": (sum(r[2] for p in plain for r in p) / total, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (t_val, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_s": "p%.1f of %d ops" % (t_pct, t_n),
             "wall_s": "mean of %d passes; raw %.4g s"
                       % (len(plain), sum(r[0] for p in plain for r in p) / len(plain)),
             "setup_s": "raw median %.4g s" % statistics.median(s[3] for s in setups)}
    return metrics, notes


def per_layer(tracer, workload, plain, traced, problems):
    """Per-layer metrics, per traced pass."""
    n = len(traced)
    out = {}
    selfs = tracer.module_self()
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)["mapping"]
    for name in (fn for entry in mapping for fn in entry["functions"]):
        calls, total, child = tracer.stats[name]
        # cli.main's self time is the whole cli layer's: argparse, reading
        # files, formatting reports
        self_s = selfs["cli"] if name == "cli.main" else total - child
        out[name + ".calls"] = (calls / n, "count")
        out[name + ".self_s"] = (self_s / n, "s")
        out[name + ".total_s"] = (total / n, "s")
    c = tracer.counts
    pairs = c["ring.mul.pairs"]
    out["ring.mul.survive_ratio"] = (c["ring.mul.terms_out"] / pairs if pairs else 0.0, "ratio")
    for name in ("ring.substitute.terms_out", "boolfun.affine_split.factors_out",
                 "gf2.solve_affine_ones.points_in", "gf2.rref.rows_in",
                 "fe.build_fe.fe_terms", "lincycle.empty_witness_entries"):
        out[name] = (c[name] / n, "count")
    hits = tracer.stats["lab.is_hit"][0]
    out["lab.is_hit.exact_fe_ratio"] = (c["lab.is_hit.exact_fe"] / hits if hits else 0.0, "ratio")
    whole = sum(selfs.values()) or 1.0
    for layer, s in selfs.items():
        out["%s.self_share" % layer] = (s / whole, "ratio")
    out["src.lines"] = (src_lines(), "count")
    plain_s = sum(r[1] for p in plain for r in p)
    traced_s = sum(r[1] for p in traced for r in p)
    out["trace.overhead_s"] = ((traced_s - plain_s) / n, "s")
    out["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    for name in MUST_CALL[workload]:
        if not tracer.stats[name][0]:
            problems.append("self-check: %s was never called on %s" % (name, workload))
    return out, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "invforge", "cli.py")):
        fail("no invforge sources at %s; run from a source checkout" % SRC)

    # One process, no workers: search never forks and peak RSS is this run's.
    os.environ["INVFORGE_THREADS"] = "1"
    sys.path.insert(0, SRC)
    state = os.path.join(ROOT, ".invbench")
    inputs = os.path.join(state, "inputs-%d" % os.getpid())
    make_pass, _warm, unit = WORKLOADS[args.workload]
    try:
        setups = [setup(args.workload, args.seed, inputs) for _ in range(SETUPS)]
        pkg = setups[-1][0]
        run = Run(pkg, inputs, args.seed)
        for s in setups:
            run.problems += s[2]
        if len({s[1] for s in setups}) != 1:
            run.problems.append("input generation is not byte-reproducible")
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(run, lambda i: make_pass(inputs, args.seed, i),
                                args.seconds, tracer)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
           "python": platform.python_version(),
           "INVFORGE_THREADS": os.environ["INVFORGE_THREADS"]}
    print("env nproc=%(nproc)s cpu=%(cpu)r python=%(python)s "
          "INVFORGE_THREADS=%(INVFORGE_THREADS)s" % env)
    print("workload=%s seed=%d trace=%d passes=%d ops=%d"
          % (args.workload, args.seed, args.trace, len(plain), run.attempted))
    if args.trace:
        metrics, notes = per_layer(tracer, args.workload, plain, traced, run.problems)
    else:
        metrics, notes = end_to_end(setups, plain)
        notes["work_per_s"] = "%s per second" % unit
    for name, (value, u) in metrics.items():
        print("%-44s %14.6g %-5s %s" % (name, value, u, notes.get(name, "")))
    print("%-44s %14.6g %-5s %d of %d ops" % ("fail_ratio", len(run.failures) / run.attempted,
                                             "", len(run.failures), run.attempted))
    for why in run.failures + run.problems:
        print("FAIL " + why)

    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    record = os.path.join(state, "results", "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "failures": run.failures + run.problems, "ops": run.records},
                  fh, indent=1)
    print(json.dumps({
        "correct": not (run.failures or run.problems),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
