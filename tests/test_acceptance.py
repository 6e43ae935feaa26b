"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s); every
assertion is exact unless stated otherwise.  Stated time budgets are
expectations; the tests only guard against pathological regressions (5x).
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from invforge import gf2, lab, lincycle, ring
from invforge.boolfun import annihilators, mobius, poly_from_anf_bits, random_boolfun
from invforge.cipher import (
    LanePlan, parse_wiring, random_wiring, round_system, step, eval_poly_lanes,
)
from invforge.data import fixture_path, fixture_text
from invforge.fe import PreparedInvariant, build_fe, check_invariant_empirically
from invforge.ring import ONE, add, mul, parse, product, state_var, var
from reference import alternate_invariant, matches_presentation, states_to_lanes

LZS = fixture_path("lzs-265-like.cfg")
ZREF = fixture_path("z-reference.anf")
INV7 = fixture_path("invariant-deg7.poly")
INV7_ALT = fixture_path("invariant-deg7-alt.poly")
MU = fixture_path("mu.poly")
INV827 = fixture_path("invariant-827.poly")

# printed weight-sequence prefix for the (unpublished) LZS-31 wiring; only
# comparable when a user supplies that wiring, see criterion 8
LZS31_WEIGHT_PREFIX = [12, 12, 14, 16, 15, 15, 17, 17, 16, 18, 16, 17, 18, 17,
                       19, 18, 15, 16, 15, 13, 14, 16, 18, 20, 23, 22, 22, 22,
                       21, 20, 20, 21, 23, 23, 22, 21, 21, 19]


class _Timer:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %2d %-28s %s (%.2fs, budget %ds)"
              % (self.number, self.name, verdict, elapsed, self.budget))
        if exc_type is None:
            assert elapsed < 5 * self.budget, "pathological slowdown"
        return False


def test_criterion_1_theorem_reproduction(wiring, zref, invariant_deg7):
    with _Timer(1, "theorem reproduction", 10):
        steps, _ = lab.verify_attack(wiring, zref)
        assert all(passed for _, _, passed in steps)
        report = build_fe(PreparedInvariant(*ring.localize(invariant_deg7)),
                          round_system(wiring, "expanded", zref))
        assert report.is_zero
        assert report.depends_on == ()
        r = subprocess.run([sys.executable, "-m", "invforge", "verify-thm",
                            "--lzs", LZS, "--boolfun", ZREF],
                           capture_output=True, text=True)
        assert r.returncode == 0 and "ALL STEPS PASS" in r.stdout
        r = subprocess.run([sys.executable, "-m", "invforge", "fe",
                            "--lzs", LZS, "--invariant", INV7,
                            "--boolfun", ZREF],
                           capture_output=True, text=True)
        assert r.returncode == 0 and "fe = 0" in r.stdout
        assert "depends_on = -" in r.stdout


def test_criterion_2_final_bracket_identity():
    with _Timer(2, "mu * bracket = 0", 1):
        assert mul(lab.core_product_forms(), lab.final_bracket()) == ring.ZERO


def test_criterion_3_factorization_nonuniqueness():
    with _Timer(3, "non-unique factorization", 5):
        mu = lab.core_product_forms()
        trees = lab.explore_factorizations(mu, 32, seed=1)
        assert len(trees) <= 32
        fa, ba = lab.core_factorization_a()
        fb, bb = lab.core_factorization_b()
        assert product(fa + [ba]) == mu  # printed identities, re-multiplied
        assert product(fb + [bb]) == mu
        assert any(matches_presentation(t, fa, ba) for t in trees)
        assert any(matches_presentation(t, fb, bb) for t in trees)
        assert all(t.verify() for t in trees)
        r = subprocess.run([sys.executable, "-m", "invforge", "factor",
                            "--poly", MU, "--trees", "8", "--seed", "1"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert int(r.stdout.strip().splitlines()[-1].rsplit("=", 1)[1]) >= 2


def test_criterion_4_absorption_suite(wiring, zref):
    with _Timer(4, "absorption suite", 30):
        bank = lab.form_bank()
        B, C, D, F, G, H = (bank[n] for n in "BCDFGH")
        CHF = product([C, H, F])
        BDG = product([B, D, G])
        cCHF = product([add(C, ONE), add(H, ONE), add(F, ONE)])
        cBDG = product([add(B, ONE), add(D, ONE), add(G, ONE)])
        mu_state = lab.expand_forms(lab.core_product_forms())
        args = wiring.z_args

        def absorption_flags(fun):
            Y = fun.instantiate(args[1])
            W = fun.instantiate(args[3])
            return (mul(CHF, W) == CHF and mul(BDG, Y) == BDG,
                    mul(cCHF, W) == cCHF,
                    mul(cBDG, Y) == cBDG,
                    mul(Y, mu_state) == mu_state and mul(W, mu_state) == mu_state)

        assert absorption_flags(zref) == (True, True, True, True)
        fail_counts = [0, 0, 0, 0]
        for seed in range(100):
            flags = absorption_flags(random_boolfun(7000 + seed))
            for i, ok in enumerate(flags):
                if not ok:
                    fail_counts[i] += 1
        assert all(c >= 90 for c in fail_counts), fail_counts


def test_criterion_5_annihilator_oracle_equivalence():
    with _Timer(5, "annihilator oracle sweep", 60):
        # 32 affine truth tables on 4 variables for the exhaustive side
        affine_tts = []
        for c in range(32):
            anf = 0
            if c & 1:
                anf ^= 1  # constant
            for i in range(4):
                if (c >> (i + 1)) & 1:
                    anf ^= 1 << (1 << i)
            affine_tts.append(mobius(anf, 4))
        for f_tt in range(1 << 16):
            # linear-algebra side: kernel dimension of the point-evaluation
            # matrix over the candidate monomials {1, x1..x4}
            rows = [(x << 1) | 1 for x in range(16) if (f_tt >> x) & 1]
            alg_dim = 5 - len(gf2.rref(rows, 5)[0])
            count = sum(1 for g in affine_tts if g & f_tt == 0)
            assert count == 1 << alg_dim, f_tt
        # sampled cross-check through the full polynomial-level operation
        for f_tt in range(0, 1 << 16, 1013):
            f = poly_from_anf_bits(mobius(f_tt, 4), range(4))
            basis = annihilators(f, range(4), 1)
            rows = [(x << 1) | 1 for x in range(16) if (f_tt >> x) & 1]
            assert len(basis) == 5 - len(gf2.rref(rows, 5)[0])


def test_criterion_6_cross_path_consistency():
    with _Timer(6, "cross-path cipher agreement", 30):
        import random as _random
        rng = _random.Random(606)
        for wseed in range(5):
            w = random_wiring(wseed + 100)
            fun = random_boolfun(wseed + 200)
            rs = round_system(w, "expanded", fun)
            outputs = [rs.output(i) for i in range(1, 37)]
            n = 10000
            states = [rng.getrandbits(36) for _ in range(n)]
            fb = rng.getrandbits(n)
            kb = rng.getrandbits(n)
            lb = rng.getrandbits(n)
            wmask = (1 << n) - 1
            lanes = states_to_lanes(states)
            lane_map = {state_var(i): lanes[i - 1] for i in range(1, 37)}
            lane_map[ring.F_BIT] = fb
            lane_map[ring.K_BIT] = kb
            lane_map[ring.L_BIT] = lb
            poly_out = []
            for p in outputs:  # each over its own letters, in VarId order
                local, support = ring.localize(p)
                poly_out.append(eval_poly_lanes(LanePlan(local.terms),
                                                [lane_map[v] for v in support], wmask))
            for j, s in enumerate(states):
                got = step(s, w, fun, (fb >> j) & 1, (kb >> j) & 1, (lb >> j) & 1)
                for i in range(36):
                    assert ((poly_out[i] >> j) & 1) == ((got >> i) & 1)


def test_criterion_7_multi_round_invariance(wiring, zref, invariant_deg7):
    with _Timer(7, "256-round invariance", 60):
        mismatches = check_invariant_empirically(PreparedInvariant(*ring.localize(invariant_deg7)), wiring,
                                                 zref, trials=10000, seed=7, rounds=256)
        assert mismatches == 0


def test_criterion_8_linear_period_machinery():
    with _Timer(8, "linear-period machinery", 10):
        ar = lincycle.synthetic_permutation([(1, 2, 3), (4, 5, 6, 7, 8),
                                             (9, 10, 11, 12, 13, 14, 15)])
        entries = lincycle.linear_invariant_periods(ar, 110)
        assert {e.period for e in entries} == {1, 3, 5, 7, 15, 21, 35, 105}
        import math as _math
        for e in entries:
            assert e.dimension == (_math.gcd(e.period, 3) + _math.gcd(e.period, 5)
                                   + _math.gcd(e.period, 7) + 21)
        # the published 127-round property needs the unpublished LZS-31
        # wiring; accepted conditionally when a user supplies it
        path = os.environ.get("INVFORGE_LZS31")
        if path:
            with open(path, encoding="utf-8") as fh:
                w31 = parse_wiring(fh.read())
            ar31 = lincycle.affine_of(w31)
            entries31 = lincycle.linear_invariant_periods(ar31, 127)
            orbit127 = [e for e in entries31 if e.period == 127]
            assert orbit127, "no period-127 functional for the supplied wiring"
            weights = lincycle.weight_sequence(
                lincycle.orbit(ar31, orbit127[0].minimal_functionals[0], 127))
            assert weights[:len(LZS31_WEIGHT_PREFIX)] == LZS31_WEIGHT_PREFIX
        else:
            print("criterion 8 note: LZS-31 wiring not supplied; "
                  "period-127 comparison skipped (set INVFORGE_LZS31)")


def test_criterion_9_second_invariant_regression(wiring, zref, invariant_deg7):
    with _Timer(9, "second published invariant", 10):
        # computed, frozen verdict: the second published degree-7 product
        # expands to the same canonical polynomial as the primary one, and
        # the single published function satisfies FE = 0 for it
        alt = alternate_invariant()
        assert alt == invariant_deg7
        assert parse(fixture_text("invariant-deg7-alt.poly")) == alt
        report = build_fe(PreparedInvariant(*ring.localize(alt)), round_system(wiring, "expanded", zref))
        assert report.is_zero and report.depends_on == ()
        r = subprocess.run([sys.executable, "-m", "invforge", "verify-thm",
                            "--lzs", LZS, "--boolfun", ZREF,
                            "--invariant", INV7_ALT],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert "ALL STEPS PASS" in r.stdout


CORPUS = [
    ("verify-thm", "--lzs", LZS, "--boolfun", ZREF),
    ("fe", "--lzs", LZS, "--invariant", INV7, "--boolfun", ZREF),
    ("fe", "--lzs", LZS, "--invariant", INV827, "--boolfun", ZREF),
    ("factor", "--poly", MU, "--trees", "8", "--seed", "1"),
    ("search", "--lzs", LZS, "--invariant", INV827, "--trials", "5", "--seed", "3"),
    ("linear-cycle", "--lzs", LZS, "--max-period", "10"),
    ("annihilators", "--poly", MU, "--degree", "1"),
    ("--format", "json-lines", "verify-thm", "--lzs", LZS, "--boolfun", ZREF),
    ("fe", "--lzs", LZS, "--invariant", INV7, "--symbolic"),
    ("--format", "json-lines", "factor", "--poly", MU, "--trees", "8", "--seed", "1"),
    ("factor", "--poly", INV7, "--trees", "4", "--seed", "2"),
    ("--format", "json-lines", "factor", "--poly", INV7, "--trees", "4", "--seed", "2"),
    ("search", "--lzs", LZS, "--invariant", INV7, "--trials", "200", "--seed", "0"),
    # two batches of the empirical check, with a nonzero mismatch count
    ("fe", "--lzs", LZS, "--invariant", INV827, "--boolfun", ZREF,
     "--empirical-trials", "20000", "--seed", "3"),
    # the whole period scan up to the guard, and the json-lines record over all 36 bits
    ("linear-cycle", "--lzs", LZS, "--max-period", "4096"),
    ("--format", "json-lines", "linear-cycle", "--lzs", LZS, "--mask", "all36",
     "--max-period", "512"),
    # absorption on truth tables, a true and a false verdict, and an FE
    # that moved from the sparse fold onto tables
    ("absorbers", "--poly", INV7, "--candidate", INV7_ALT),
    ("absorbers", "--poly", MU, "--candidate", INV827),
    ("--format", "json-lines", "fe", "--lzs", LZS, "--invariant", INV827, "--boolfun", ZREF),
    # symbolic FEs counted by coefficient key: two keyed images (2,081 keys),
    # then one (65 keys) printed in full with its linear coefficient system
    ("--format", "json-lines", "fe", "--lzs", LZS, "--invariant", INV7, "--symbolic"),
    ("fe", "--lzs", LZS, "--invariant", INV827, "--symbolic"),
    # a long concrete trajectory, every round bit set
    ("step", "--lzs", LZS, "--boolfun", ZREF, "--state", "123456789", "--f", "1", "--k", "1",
     "--l", "1", "--rounds", "100000"),
    # every output that cli formats from a library's plain values: the wiring
    # report, the search record, the summary line, the supplied-invariant
    # branch (exit 1) and the linear coefficient system as JSON
    ("validate", "--lzs", LZS),
    ("--format", "json-lines", "validate", "--lzs", LZS),
    ("--format", "json-lines", "search", "--lzs", LZS, "--invariant", INV827, "--trials", "5",
     "--seed", "3"),
    ("verify-thm", "--lzs", LZS, "--boolfun", ZREF, "--report", "summary"),
    ("verify-thm", "--lzs", LZS, "--boolfun", ZREF, "--invariant", INV827),
    ("--format", "json-lines", "verify-thm", "--lzs", LZS, "--boolfun", ZREF,
     "--invariant", INV827),
    ("--format", "json-lines", "fe", "--lzs", LZS, "--invariant", INV827, "--symbolic"),
]

# sha256 of each CORPUS command's stdout, pinned so that a change to the
# printed output of any of them fails here, not only a nondeterministic rerun
CORPUS_STDOUT_SHA256 = [
    "6e9d3d519888048be3ca03cf1a197f7ddcce9d5c9ff20e423a0a601e0e98691e",
    "1dafbb99cc8ddf9f2f0aae78e4effba4e01897b15354ca73193cd00a0efc302f",
    "8c2de81939164176ca79f18bb228b59a10b0df6b6b824bc7cf446d6feaaba2c1",
    "1e14bcda5fa1251a04bf4784e471966dfff9ca367c769aea0d8a76d42c499801",
    "94996362b5e9d980e6303cec6adb5acd325180aeba0421ff220821f343986f3b",
    "3a9a7c462946015eb5656155d545d3c31942d5bb181fa9d119d44749c3ff7e3d",
    "f37871f65259be9fdfa9930f38d628c00bdc0972ec9dd24577aab95ba1bbfc00",
    "eecdcf9f059474f1cfe7a0cb5b06c0b77ac27646c9d158c7f8c2f823362fa045",
    "e6c4de6bb6f65c43afa4b7b6c2ef9fbdab8a35df3ba402bcbeb205b1ba891d5b",
    "c271dca81cb04b4fb4a74de3c1e2f07f21092c9db84fa9c15e4cca09e038c180",
    "b7f76e4cd627702f7f580dbbccf379336736d09341e622f004edc7011359b235",
    "aaeb9f03fcc5c4189ed6d337854784190888b37bb32a9c4bc0e7c88224dc0c27",
    "e51fbd3b74c846a3948697470b0e17c1df5ff675332ccd39592597cf4ec6aa86",
    "5490669ecf1d44501d22cb784963efb4b486f460daec46f173b8c0f3fff94a6e",
    "3a9a7c462946015eb5656155d545d3c31942d5bb181fa9d119d44749c3ff7e3d",
    "2bb291287f57c91e447678ba30cfff4be214fa35cacc64d7f40d13d8a7d791eb",
    "3a77ac2a33652558224a4ed0e1664e5ebcb53c4f77ddb5b4969de982054bcab5",
    "db1bfe4f260e920641dd98de83837e2b492958a94b3029da5ed979abb14dd0fc",
    "0a0f193bcd2ccfe36ef4a899d5a1fa34149d1122e12fd5664793df15a0fa294c",
    "5d39324acb71107a7337749574bf2ef21ee54fa5007a9c2e256355ee4b65b1ed",
    "f0f7ddee6cbfd83774db386886db3bca2e56af61957c4fb8e5991a1f83b3cae7",
    "3d78035d4cc9b04a8e3bac108c204cf95aa4a3b6a4d579487401ef706e16b338",
    "a1611dc39dab0bfcc94b27854da0d9ef2ca4ed067f6f5e66b873bab3cd170a68",
    "8d4298d40883f47cc7fae9a53c32123b906915bb27be7937b7c521ab451e4139",
    "e409dad1c2554741b0768101ffa86871fcbc205ff41f8edcd71eabe701749a45",
    "ec08e8b2cbf2ea7f9a88be4a1387e87848d1e35d5e34884487bf535a0d019505",
    "3c9f3f6452fa28dd9f167bdc45618dbeaf8fbdcfc4d5a00e97669674a70fd212",
    "be01ee9f8adbfd60e02e7ece381496ee281ec6a518f81d7eef570dcec9a73020",
    "164243f5cfca39052388f21b457bb2c77aa139474f2abda8c13eb471c697b561",
]


def test_criterion_10_determinism():
    with _Timer(10, "byte-identical reruns", 60):
        for argv, digest in zip(CORPUS, CORPUS_STDOUT_SHA256, strict=True):
            runs = [subprocess.run([sys.executable, "-m", "invforge", *argv],
                                   capture_output=True, text=True)
                    for _ in range(2)]
            assert runs[0].stdout == runs[1].stdout, argv
            assert runs[0].returncode == runs[1].returncode, argv
            assert hashlib.sha256(runs[0].stdout.encode()).hexdigest() == digest, argv
