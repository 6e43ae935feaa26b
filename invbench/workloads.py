"""The four workloads: which CLI ops make one pass, and why.

A pass is a fixed list of CLI invocations over one seeded input set
(files from gen.write_inputs); pass i uses set i mod SETS.  Every op is
a dict with the CLI argv, the checker method ("kind"), the file names
the checker needs and "units", the op's work in the workload's unit
(None when it is read from the output).
"""

from __future__ import annotations

import os

SETS = 32
SHIPPED_LZS = "lzs-265-like.cfg"
ZREF = "z-reference.anf"
DEG7 = "invariant-deg7.poly"
MU = "mu.poly"


def _op(d, kind, argv, units=1, **meta):
    files = {k: v for k, v in meta.items() if isinstance(v, str)}
    full = [os.path.join(d, a) if a in files.values() else a for a in argv]
    return dict(meta, kind=kind, argv=full, units=units)


def verify(d, lzs, fun):
    return _op(d, "verify", ["verify-thm", "--lzs", lzs, "--boolfun", fun], lzs=lzs, fun=fun)


def fe(d, lzs, fun, seed):
    return _op(d, "fe", ["fe", "--lzs", lzs, "--invariant", DEG7, "--boolfun", fun,
                         "--empirical-trials", "100000", "--seed", str(seed)],
               lzs=lzs, fun=fun, invariant=DEG7, trials=100000)


def factor(d, poly, trees, seed):
    return _op(d, "factor", ["factor", "--poly", poly, "--trees", str(trees),
                             "--seed", str(seed)], poly=poly, trees=trees)


def annihilators(d, poly):
    return _op(d, "annihilators", ["annihilators", "--poly", poly, "--degree", "1"], poly=poly)


def step(d, lzs, fun, state, rounds):
    with open(os.path.join(d, state), encoding="utf-8") as fh:
        value = fh.read().strip()
    return _op(d, "step", ["step", "--lzs", lzs, "--boolfun", fun, "--state", value,
                           "--f", "1", "--rounds", str(rounds)],
               lzs=lzs, fun=fun, state=state, f=1, rounds=rounds)


def search(d, lzs, trials, seed):
    return _op(d, "search", ["search", "--lzs", lzs, "--invariant", DEG7,
                             "--trials", str(trials), "--seed", str(seed)],
               units=trials, lzs=lzs, invariant=DEG7, trials=trials, seed=seed)


def symbolic(d, lzs, fun, budget=None):
    argv = ["fe", "--lzs", lzs, "--invariant", DEG7, "--symbolic"]
    if budget:
        return _op(d, "budget", argv + ["--budget", str(budget)], units=0,
                   lzs=lzs, invariant=DEG7)
    # fun is the function the checker refutes the nonzero FE with
    return _op(d, "symbolic", argv, units=None, lzs=lzs, fun=fun, invariant=DEG7)


def linear_cycle(d, lzs, max_period):
    return _op(d, "linear_cycle", ["linear-cycle", "--lzs", lzs,
                                   "--max-period", str(max_period)],
               units=max_period, lzs=lzs, max_period=max_period)


def _trial_seed(seed, i, k):
    """First function seed of op k of set i: no two ops, in this run or
    another seed's, share a trial function."""
    return (seed * 1009 + i * 31 + k) * 1000


def prove_pass(d, seed, i):
    conf, fun, prod = "conf-%d.cfg" % i, "fun-%d.anf" % i, "prod-%d.poly" % i
    return [
        verify(d, SHIPPED_LZS, ZREF),
        verify(d, conf, ZREF),
        verify(d, conf, fun),
        fe(d, conf, ZREF, i),
        fe(d, SHIPPED_LZS, fun, i),
        fe(d, conf, fun, i),
        factor(d, DEG7, 2, i),
        factor(d, MU, 8, i),
        factor(d, prod, 4, i),
        annihilators(d, prod),
        step(d, conf, fun, "state-%d.hex" % i, 1000),
    ]


def search_pass(d, seed, i):
    # Four trials per op: about 26% of functions pass the 128-sample screen
    # and then pay an exact build_fe, so most ops hold one survivor and
    # the median op stays inside that group.
    return [search(d, SHIPPED_LZS if k % 2 == 0 else "conf-%d.cfg" % i, 4,
                   _trial_seed(seed, i, k)) for k in range(6)]


def symbolic_pass(d, seed, i):
    # Two full ops per budget op keep the median op a full one.
    fun = "fun-%d.anf" % i
    return [symbolic(d, SHIPPED_LZS, fun),
            symbolic(d, "conf-%d.cfg" % i, fun),
            symbolic(d, "conf-%d.cfg" % i, None, budget=50000)]


def lincycle_pass(d, seed, i):
    # Two long ops per short one: the median and the tail op then both
    # fall among the long ops whatever the number of passes.
    return [linear_cycle(d, SHIPPED_LZS, 512),
            linear_cycle(d, "conf-%d.cfg" % i, 512),
            linear_cycle(d, "rand-%d.cfg" % i, 256)]


# name -> (pass maker, warm-up ops, unit of work_per_s)
WORKLOADS = {
    "prove": (prove_pass,
              lambda d: [verify(d, SHIPPED_LZS, ZREF), fe(d, SHIPPED_LZS, ZREF, 0),
                         factor(d, MU, 1, 0), annihilators(d, MU),
                         step(d, SHIPPED_LZS, ZREF, "state-0.hex", 1)],
              "verdicts"),
    "search": (search_pass,
               lambda d: [search(d, SHIPPED_LZS, 2, 0)],
               "trials"),
    "symbolic": (symbolic_pass,
                 lambda d: [symbolic(d, SHIPPED_LZS, None, budget=50000)],
                 "FE terms"),
    "lincycle": (lincycle_pass,
                 lambda d: [linear_cycle(d, SHIPPED_LZS, 16)],
                 "periods scanned"),
}

# Layer functions each workload must call; a traced run that shows zero
# calls for one of them means a binding escaped the tracer.
MUST_CALL = {
    "prove": ("ring.mul", "ring.substitute", "ring.product", "ring.factor_out",
              "boolfun.affine_split", "boolfun.truth_table", "boolfun.annihilators",
              "gf2.solve_affine_ones", "gf2.rref", "gf2.kernel_basis", "fe.build_fe",
              "fe.check_invariant_empirically", "cipher.step_lanes",
              "cipher.eval_poly_lanes", "cipher.step", "cipher.round_system",
              "lab.verify_attack", "lab.explore_factorizations", "cli.main"),
    "search": ("lab.is_hit", "fe.build_fe", "fe.check_invariant_empirically",
               "cipher.step_lanes", "cipher.eval_poly_lanes", "cipher.round_system",
               "ring.substitute", "ring.mul", "ring.product", "boolfun.affine_split",
               "boolfun.truth_table", "gf2.solve_affine_ones", "cli.main"),
    "symbolic": ("fe.build_fe", "fe.symbolic_fe", "ring.substitute", "ring.mul",
                 "cipher.round_system", "cli.main"),
    "lincycle": ("lincycle.linear_invariant_periods", "lincycle.affine_of", "gf2.rref",
                 "gf2.kernel_basis", "gf2.mat_mul", "cipher.round_system", "cli.main"),
}
