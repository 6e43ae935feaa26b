import functools
import itertools
import random

import pytest

from invforge import cli, lab, ring
from invforge import fe as fe_mod
from invforge.boolfun import (
    MAX_SPLIT_VARS, ZERO_FUN, parse_anf, random_boolfun,
)
from invforge.cipher import (
    LanePlan, RoundSystem, Wiring, eval_poly_lanes, random_wiring, round_system, state_var,
    step_lanes,
)
from invforge.fe import (
    DEFAULT_BUDGET, NonStateVariableError, PreparedInvariant, build_fe, check_candidate,
    check_invariant_empirically, coefficient_system, substitute_coefficients,
    symbolic_fe,
)
from invforge.ring import ONE, TermBudgetError, add, mul, parse, substitute, var


class TestBuildFe:
    def test_single_bit_not_invariant(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(PreparedInvariant(parse("V")), rs)  # V = x1
        assert not report.is_zero
        assert report.mode == "expanded"

    def test_theorem_invariant(self, wiring, zref, invariant_deg7):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(PreparedInvariant(invariant_deg7), rs)
        assert report.is_zero
        assert report.depends_on == ()

    def test_827_invariant_does_not_transfer(self, wiring, zref):
        p = parse("a+b+c+ac+d+bd+e+ce+f+df+g+ag+eg+h+bh+fh")
        report = build_fe(PreparedInvariant(p), round_system(wiring, "expanded", zref))
        assert not report.is_zero

    def test_rejects_non_state_variables(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        with pytest.raises(NonStateVariableError):
            build_fe(PreparedInvariant(parse("a+F")), rs)

    def test_dependence_fields(self, wiring):
        rs = round_system(wiring, "placeholder")
        report = build_fe(PreparedInvariant(parse("V")), rs)
        assert "F" in report.depends_on

    def test_factored_path_matches_plain_substitution(self, wiring, zref):
        rng = random.Random(41)
        bank = lab.form_bank()
        products = [ring.product([bank[n] for n in rng.sample("ABCDEFGH", 3)])
                    for _ in range(4)]
        # no affine factor: the residual is the whole of p, with or without a 1
        plain = [parse("ab+cd"), parse("ab+cd+1"), parse("abc+de+f"), parse("abc+de+f+1")]
        wide = ring.Poly([0] + [(1 << v) | (1 << (v + 1)) for v in range(0, 18, 2)])
        assert len(wide.support()) > MAX_SPLIT_VARS
        wirings = [wiring, random_wiring(2, conforming=True), random_wiring(2)]
        for k, w in enumerate(wirings):
            systems = [round_system(w, "placeholder"),
                       round_system(w, "expanded", zref),
                       round_system(w, "expanded", random_boolfun(80 + k))]
            for p in products + plain + [wide]:
                prepared = PreparedInvariant(p)
                if p in products:
                    assert len(prepared.parts) == 4 and prepared.parts[-1] == ONE
                else:
                    assert prepared.parts == (p,)
                for rs in systems:
                    want = add(p, substitute(p, rs.as_substitution()))
                    assert build_fe(prepared, rs).fe == want

    def test_matches_sparse_oracle_on_both_product_branches(
            self, wiring, zref, invariant_deg7, monkeypatch):
        # oracle: substitute each affine-split factor, fold the images with mul
        prepared = PreparedInvariant(invariant_deg7)
        parts = prepared.parts  # split before the spies: the split's check multiplies too
        paths = []
        real_table, real_product = ring.product_table, ring.product
        monkeypatch.setattr(ring, "product_table",
                            lambda *args: paths.append("table") or real_table(*args))
        monkeypatch.setattr(ring, "product",
                            lambda *args: paths.append("sparse") or real_product(*args))
        monkeypatch.setattr(ring, "_dense_product", _forbidden)
        wirings = ([wiring] + [random_wiring(s, conforming=True) for s in range(4)]
                   + [random_wiring(s) for s in range(4)])
        zeros, taken = 0, []
        for k, w in enumerate(wirings):
            for fun in (zref, random_boolfun(70 + k)):
                rs = round_system(w, "expanded", fun)
                sub = rs.as_substitution()
                images = [substitute(f, sub) for f in parts]
                oracle = add(invariant_deg7,
                             functools.reduce(mul, sorted(images, key=len), ONE))
                del paths[:]
                report = build_fe(prepared, rs)
                taken.append(set(paths))
                assert report.fe == oracle
                if report.is_zero:
                    zeros += 1
                    rep = check_invariant_empirically(prepared, w, fun, 2000)
                    assert rep.mismatches == 0
        assert zeros >= 5  # z-reference on the shipped and conforming wirings
        # conforming images lie on 16 bits (tables); random ones on more than 20
        assert taken == [{"table"}] * 10 + [{"sparse"}] * 8

    def test_dense_budget_bounds_the_image_only(self, wiring, zref, invariant_deg7):
        # the image of the 2080-term invariant has 2080 terms; the sparse fold's
        # intermediates grew past 2500, the dense branch builds none
        rs = round_system(wiring, "expanded", zref)
        assert build_fe(PreparedInvariant(invariant_deg7), rs, budget=2500).is_zero
        with pytest.raises(TermBudgetError):
            build_fe(PreparedInvariant(invariant_deg7), rs, budget=2079)

    def test_table_verdict_matches_sparse_oracle(self, wiring, zref, invariant_deg7):
        # (x25+1)(x29+1)(x33+1) takes the table path on the shipped wiring and
        # its FE there holds F and L
        invariants = [invariant_deg7, ring.product([parse(x + "+1") for x in "dhl"]), parse("ab+cd")]
        wirings = ([wiring] + [random_wiring(s, conforming=True) for s in range(4)]
                   + [random_wiring(s) for s in range(4)])
        paths = {"table": 0, "sparse": 0}
        for k, w in enumerate(wirings):
            for fun in (zref, ZERO_FUN, random_boolfun(90 + k), random_boolfun(190 + k)):
                rs = round_system(w, "expanded", fun)
                for p in invariants:
                    prepared = PreparedInvariant(p)
                    images = [substitute(f, rs.as_substitution()) for f in prepared.parts]
                    paths["sparse" if ring.dense_variables(images) is None else "table"] += 1
                    _assert_matches_oracle(build_fe(prepared, rs), prepared, rs)
        assert paths == {"table": 48, "sparse": 60}

    @pytest.mark.parametrize("images,factors,name,listed", [
        # z maps to 1, so no image holds it, and P, which holds z, is not its image
        ({"a": "a+b+c", "b": "b+c+d", "c": "a+c+d", "d": "a+b+d", "z": "1"},
         ["a+z", "b+1", "c+1", "d+1"], "z", False),
        # the images hold F, but F cancels in their product, so the FE does not
        ({"a": "bcF+c", "b": "bcdF+cdF+b", "c": "acF+bcF+ad"},
         ["a+1", "b+1", "c+1"], "F", True),
    ])
    def test_table_path_on_hand_made_rounds(self, images, factors, name, listed):
        # rounds that map a few state bits to the given images and fix the others
        image = {parse(x): parse(y) for x, y in images.items()}
        rs = RoundSystem("expanded", tuple(image.get(x, x) for x in
                                           (var(state_var(i)) for i in range(1, 37))))
        prepared = PreparedInvariant(ring.product([parse(f) for f in factors]))
        variables = ring.dense_variables([substitute(f, rs.as_substitution())
                                          for f in prepared.parts])
        assert variables is not None and (ring.NAMES.index(name) in variables) == listed
        report = build_fe(prepared, rs)
        assert (report.is_zero, report.depends_on) == (False, ())
        _assert_matches_oracle(report, prepared, rs)


def _forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


def _assert_matches_oracle(report, prepared, rs):
    """build_fe's report against the sparse oracle's: substitute each part,
    fold the images with mul, and read every field off the result."""
    images = [substitute(f, rs.as_substitution()) for f in prepared.parts]
    fe = add(prepared.poly, functools.reduce(mul, sorted(images, key=len), ONE))
    depends_on = tuple(ring.var_name(v) for v in sorted(fe.support()) if v >= ring.N_STATE)
    oracle = fe_mod.FeReport(not fe, depends_on, rs.mode, lambda: fe)
    assert (report.is_zero, report.depends_on) == (oracle.is_zero, oracle.depends_on)
    assert report.fe == fe
    assert report.lines() == oracle.lines()
    assert cli._fe_record(report) == cli._fe_record(oracle)


def two_evaluation_mismatches(P, w, fun, trials, seed, rounds):
    """The empirical check as it was: P on the states, then P on their images."""
    states = [state_var(i) for i in range(1, 37)]
    rng = random.Random(seed)
    mism = 0
    remaining = trials
    while remaining:
        width = min(remaining, fe_mod._CHUNK)
        wmask = (1 << width) - 1
        lanes = [rng.getrandbits(width) for _ in range(36)]
        before = eval_poly_lanes(P, dict(zip(states, lanes)), wmask)
        for _ in range(rounds):
            lanes = step_lanes(lanes, w, fun,
                               rng.getrandbits(width), rng.getrandbits(width),
                               rng.getrandbits(width), wmask)
        after = eval_poly_lanes(P, dict(zip(states, lanes)), wmask)
        mism += (before ^ after).bit_count()
        remaining -= width
    return mism


class TestEmpirical:
    def test_one_evaluation_matches_the_two_evaluation_loop(
            self, wiring, zref, invariant_deg7):
        rng = random.Random(43)
        # the constant term sets both halves of the lane map; low degree keeps
        # P(start) and P(image) apart often
        monomials = [rng.sample(range(36), rng.randint(1, 3)) for _ in range(20)]
        low = ring.Poly([0] + [sum(1 << v for v in m) for m in monomials])
        wirings = [wiring, random_wiring(0, conforming=True), random_wiring(0)]
        cases = itertools.product((1, 128, fe_mod._CHUNK, fe_mod._CHUNK + 1), (0, 1, 3),
                                  enumerate(wirings), (invariant_deg7, parse("V"), low))
        nonzero = 0
        for trials, rounds, (k, w), P in cases:
            for fun in (zref, random_boolfun(90 + k)):
                seed = trials + rounds
                got = check_invariant_empirically(PreparedInvariant(P), w, fun,
                                                  trials, seed, rounds)
                want = two_evaluation_mismatches(P, w, fun, trials, seed, rounds)
                assert got.mismatches == want
                nonzero += want > 0
        assert nonzero > 0

    @pytest.mark.parametrize("trials,calls", [(1, 1), (128, 1),
                                              (fe_mod._CHUNK, 1),
                                              (fe_mod._CHUNK + 1, 2)])
    def test_one_evaluation_per_chunk(self, wiring, zref, invariant_deg7,
                                      monkeypatch, trials, calls):
        P = PreparedInvariant(invariant_deg7)
        runs, plans = [], []
        real_run, real_init = LanePlan.run, LanePlan.__init__
        monkeypatch.setattr(LanePlan, "run",
                            lambda plan, *args: runs.append(plan) or real_run(plan, *args))
        monkeypatch.setattr(LanePlan, "__init__",
                            lambda plan, p: plans.append(p) or real_init(plan, p))
        check_invariant_empirically(P, wiring, zref, trials, rounds=3)
        assert sum(plan is P.lane_plan for plan in runs) == calls
        # P's plan and the function's, each built once for every chunk and round
        assert sorted(plans, key=len) == [zref.anf_poly(), invariant_deg7]

    def test_theorem_invariant_clean(self, wiring, zref, invariant_deg7):
        rep = check_invariant_empirically(PreparedInvariant(invariant_deg7), wiring,
                                          zref, trials=10**6, seed=5)
        assert rep.mismatches == 0

    def test_single_bit_mismatches(self, wiring, zref):
        rep = check_invariant_empirically(PreparedInvariant(parse("V")), wiring, zref,
                                          trials=1000, seed=6)
        assert rep.mismatches > 0

    def test_zero_rounds_identity(self, wiring, zref):
        rng = random.Random(42)
        p = ring.Poly([rng.getrandbits(36) for _ in range(30)])
        rep = check_invariant_empirically(PreparedInvariant(p), wiring, zref, trials=5000,
                                          seed=7, rounds=0)
        assert rep.mismatches == 0

    def test_trials_validation(self, wiring, zref):
        with pytest.raises(ValueError):
            check_invariant_empirically(PreparedInvariant(parse("a")), wiring, zref,
                                        trials=0)

    def test_multi_round_preservation(self, wiring, zref, invariant_deg7):
        for rounds in (2, 17, 64):
            rep = check_invariant_empirically(PreparedInvariant(invariant_deg7), wiring,
                                              zref, trials=4000, seed=rounds,
                                              rounds=rounds)
            assert rep.mismatches == 0


class TestSymbolic:
    def test_requires_symbolic_mode(self, wiring, zref):
        with pytest.raises(ValueError):
            symbolic_fe(PreparedInvariant(parse("a")),
                        round_system(wiring, "expanded", zref))

    def test_trivially_shifted_bits_are_coefficient_free(self, wiring):
        rs = round_system(wiring, "symbolic")
        # b + c touches only x35, x34, whose images are single variables
        report = symbolic_fe(PreparedInvariant(parse("b+c")), rs)
        assert all(v < ring.COEF_BASE for v in report.fe.support())

    def test_mode_consistency_medium(self, wiring, zref):
        bank = lab.form_bank()
        p = ring.product([bank["E"], bank["G"],
                          add(bank["G"], bank["H"])])
        rs_sym = round_system(wiring, "symbolic")
        rs_exp = round_system(wiring, "expanded", zref)
        sym = symbolic_fe(PreparedInvariant(p), rs_sym)
        exp = build_fe(PreparedInvariant(p), rs_exp)
        assert substitute_coefficients(sym.fe, zref) == exp.fe
        # seeded random wirings whose four instances each repeat an argument,
        # so the expanded ANF merges x*x = x, with random functions
        for seed in range(4):
            w = random_wiring(500 + seed)
            pe = list(w.p)
            for k in (0, 6, 13, 20):
                pe[k + 1] = pe[k]
            w = Wiring(w.d, tuple(pe))
            fun = random_boolfun(600 + seed)
            rs_sym = round_system(w, "symbolic")
            rs_exp = round_system(w, "expanded", fun)
            for i in range(1, 37):
                assert (substitute_coefficients(rs_sym.output(i), fun)
                        == rs_exp.output(i)), (seed, i)

    def test_mode_consistency_theorem(self, wiring, zref, invariant_deg7):
        rs_sym = round_system(wiring, "symbolic")
        sym = symbolic_fe(PreparedInvariant(invariant_deg7), rs_sym)
        assert len(sym.fe) > 0
        assert check_candidate(sym.fe, zref)
        other = random_boolfun(4040)
        exp_other = build_fe(PreparedInvariant(invariant_deg7),
                             round_system(wiring, "expanded", other))
        assert check_candidate(sym.fe, other) == exp_other.is_zero

    def test_random_wiring_answers_within_the_default_budget(self, invariant_deg7):
        # two of the basis factors' images carry a function instance, so the
        # sparse intermediates stay within the default budget
        w = random_wiring(0)
        sym = symbolic_fe(PreparedInvariant(invariant_deg7), round_system(w, "symbolic"))
        for seed in (1, 2):
            fun = random_boolfun(seed)
            assert (substitute_coefficients(sym.fe, fun)
                    == build_fe(PreparedInvariant(invariant_deg7),
                                round_system(w, "expanded", fun)).fe)

    def test_budget_overflow(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        with pytest.raises(TermBudgetError):
            symbolic_fe(PreparedInvariant(invariant_deg7), rs, budget=500)


class TestCoefficientSystem:
    def test_linear_extraction(self, wiring):
        rs = round_system(wiring, "symbolic")
        # a single non-trivial output bit: FE is affine in the coefficients
        # d = x33, image y33 = F + x_{D(9)}
        report = symbolic_fe(PreparedInvariant(parse("d")), rs)
        system = coefficient_system(report.fe)
        assert system.linear

    def test_nonlinear_detection(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        report = symbolic_fe(PreparedInvariant(invariant_deg7), rs)
        system = coefficient_system(report.fe)
        assert not system.linear  # distinct instances multiply: quadratic terms

    def test_single_instance_linear(self, wiring):
        rs = round_system(wiring, "symbolic")
        # image x34: no instance at all
        report = symbolic_fe(PreparedInvariant(parse("b")), rs)
        system = coefficient_system(report.fe)
        assert system.linear
