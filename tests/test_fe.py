import random

import pytest

from invforge import fe as fe_mod
from invforge import lab, ring
from invforge.boolfun import ZERO_FUN, parse_anf, random_boolfun
from invforge.cipher import Wiring, random_wiring, round_system
from invforge.fe import (
    DEFAULT_BUDGET, NonStateVariableError, build_fe, check_candidate,
    check_invariant_empirically, coefficient_system, substitute_coefficients,
    symbolic_fe,
)
from invforge.ring import TermBudgetError, add, mul, parse, substitute, var


class TestBuildFe:
    def test_single_bit_not_invariant(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(parse("V"), rs)  # V = x1
        assert not report.is_zero
        assert report.mode == "expanded"

    def test_theorem_invariant(self, wiring, zref, invariant_deg7):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(invariant_deg7, rs)
        assert report.is_zero
        assert report.depends_on == ()

    def test_827_invariant_does_not_transfer(self, wiring, zref):
        p = parse("a+b+c+ac+d+bd+e+ce+f+df+g+ag+eg+h+bh+fh")
        report = build_fe(p, round_system(wiring, "expanded", zref))
        assert not report.is_zero

    def test_rejects_non_state_variables(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        with pytest.raises(NonStateVariableError):
            build_fe(parse("a+F"), rs)

    def test_dependence_fields(self, wiring):
        rs = round_system(wiring, "placeholder")
        report = build_fe(parse("V"), rs)
        assert "F" in report.depends_on

    def test_factored_path_matches_plain_substitution(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        sub = rs.as_substitution()
        rng = random.Random(41)
        bank = lab.form_bank()
        for _ in range(10):
            names = rng.sample("ABCDEFGH", 3)
            p = ring.product([bank[n] for n in names])
            fast = fe_mod._substituted(p, sub, None)
            plain = substitute(p, sub)
            assert fast == plain


class TestEmpirical:
    def test_theorem_invariant_clean(self, wiring, zref, invariant_deg7):
        rep = check_invariant_empirically(invariant_deg7, wiring, zref,
                                          trials=10**6, seed=5)
        assert rep.mismatches == 0

    def test_single_bit_mismatches(self, wiring, zref):
        rep = check_invariant_empirically(parse("V"), wiring, zref,
                                          trials=1000, seed=6)
        assert rep.mismatches > 0

    def test_zero_rounds_identity(self, wiring, zref):
        rng = random.Random(42)
        p = ring.Poly([rng.getrandbits(36) for _ in range(30)])
        rep = check_invariant_empirically(p, wiring, zref, trials=5000,
                                          seed=7, rounds=0)
        assert rep.mismatches == 0

    def test_trials_validation(self, wiring, zref):
        with pytest.raises(ValueError):
            check_invariant_empirically(parse("a"), wiring, zref, trials=0)

    def test_multi_round_preservation(self, wiring, zref, invariant_deg7):
        for rounds in (2, 17, 64):
            rep = check_invariant_empirically(invariant_deg7, wiring, zref,
                                              trials=4000, seed=rounds,
                                              rounds=rounds)
            assert rep.mismatches == 0


class TestSymbolic:
    def test_requires_symbolic_mode(self, wiring, zref):
        with pytest.raises(ValueError):
            symbolic_fe(parse("a"), round_system(wiring, "expanded", zref))

    def test_trivially_shifted_bits_are_coefficient_free(self, wiring):
        rs = round_system(wiring, "symbolic")
        # b + c touches only x35, x34, whose images are single variables
        report = symbolic_fe(parse("b+c"), rs)
        assert all(v < ring.COEF_BASE for v in report.fe.support())

    def test_mode_consistency_medium(self, wiring, zref):
        bank = lab.form_bank()
        p = ring.product([bank["E"], bank["G"],
                          add(bank["G"], bank["H"])])
        rs_sym = round_system(wiring, "symbolic")
        rs_exp = round_system(wiring, "expanded", zref)
        sym = symbolic_fe(p, rs_sym)
        exp = build_fe(p, rs_exp)
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
        sym = symbolic_fe(invariant_deg7, rs_sym)
        assert len(sym.fe) > 0
        assert check_candidate(sym.fe, zref)
        other = random_boolfun(4040)
        exp_other = build_fe(invariant_deg7,
                             round_system(wiring, "expanded", other))
        assert check_candidate(sym.fe, other) == exp_other.is_zero

    def test_budget_overflow(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        with pytest.raises(TermBudgetError):
            symbolic_fe(invariant_deg7, rs, budget=500)


class TestCoefficientSystem:
    def test_linear_extraction(self, wiring):
        rs = round_system(wiring, "symbolic")
        # a single non-trivial output bit: FE is affine in the coefficients
        report = symbolic_fe(parse("d"), rs)  # d = x33, image y33 = F + x_{D(9)}
        system = coefficient_system(report.fe)
        assert system.linear

    def test_nonlinear_detection(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        report = symbolic_fe(invariant_deg7, rs)
        system = coefficient_system(report.fe)
        assert not system.linear  # distinct instances multiply: quadratic terms

    def test_single_instance_linear(self, wiring):
        rs = round_system(wiring, "symbolic")
        report = symbolic_fe(parse("b"), rs)  # image x34: no instance at all
        system = coefficient_system(report.fe)
        assert system.linear
