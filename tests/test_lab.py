import random

import pytest

from invforge import fe as fe_mod, lab, ring
from invforge.boolfun import minimal_affine_factors, parse_anf, random_boolfun
from invforge.cipher import (
    W_INPUT_BITS, Y_INPUT_BITS, Wiring, random_wiring, round_system,
)
from invforge.fe import PreparedInvariant, build_fe
from invforge.lab import (
    HypothesisError, bracket_with_instances,
    core_factorization_a, core_factorization_b, core_product_forms, expand_forms,
    explore_factorizations, final_bracket, form_bank,
    product_invariant, search_random_functions, verify_attack, wilson_interval,
)
from invforge.ring import ONE, ZERO, add, mul, parse, product, substitute
from reference import affine_divisors, alternate_invariant, matches_presentation


def _forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


class TestFormBank:
    def test_each_form_is_two_bits(self):
        for name, p in form_bank().items():
            assert len(p) == 2 and p.degree() == 1

    def test_trivial_shift_property(self, wiring):
        rs = round_system(wiring, "placeholder")
        sub = rs.as_substitution()
        bank = form_bank()
        for src, dst in (("G", "H"), ("F", "G"), ("E", "F"),
                         ("C", "D"), ("B", "C"), ("A", "B")):
            assert substitute(bank[src], sub) == bank[dst]

    def test_expand_forms_is_homomorphism(self):
        rng = random.Random(51)
        names = list("ABCDEFGH")
        for _ in range(40):
            p = ring.Poly([sum(1 << ring.form_var(n)
                               for n in rng.sample(names, rng.randrange(1, 4)))
                           for _ in range(rng.randrange(1, 6))])
            q = ring.Poly([sum(1 << ring.form_var(n)
                               for n in rng.sample(names, rng.randrange(1, 4)))
                           for _ in range(rng.randrange(1, 6))])
            assert expand_forms(mul(p, q)) == mul(expand_forms(p), expand_forms(q))
            assert expand_forms(add(p, q)) == add(expand_forms(p), expand_forms(q))


class TestInvariants:
    def test_degree_and_nonzero(self, invariant_deg7):
        assert invariant_deg7.degree() == 7
        assert invariant_deg7

    def test_refactoring_recovers_seven_affine_factors(self, invariant_deg7):
        from invforge.boolfun import affine_split
        factors, residual = affine_split(invariant_deg7)
        assert len(factors) == 7
        assert residual == ONE
        assert product(factors) == invariant_deg7
        # a third factorization: every basis factor pairs A with one other form
        third = {lab.expand_forms(parse(f, "forms"))
                 for f in ("A+B", "A+C+1", "A+D", "A+E", "A+F+1", "A+G", "A+H+1")}
        assert set(factors) == third

    def test_alternate_equals_primary(self, invariant_deg7):
        # computed regression fact: the two published degree-7 products are
        # the same canonical polynomial (two factorizations of one support)
        assert alternate_invariant() == invariant_deg7

    def test_supports_are_the_sixteen_paired_bits(self, invariant_deg7):
        sup = {ring.N_STATE - v for v in invariant_deg7.support()}
        assert sup == set(range(5, 13)) | set(range(21, 29))


class TestVerifyAttack:
    def test_all_steps_pass(self, wiring, zref):
        report = verify_attack(wiring, zref)
        assert report.passed
        assert report.lines()[-1] == "ALL STEPS PASS"
        assert report.fe_report.is_zero

    def test_hypothesis_violation(self, zref):
        bad = Wiring((4, 24, 28, 16, 20, 8, 13, 32, 36),
                     tuple(range(1, 28)))
        with pytest.raises(HypothesisError) as err:
            verify_attack(bad, zref)
        assert "d67_pair" in str(err.value)

    def test_random_functions_fail_absorption_steps(self, wiring):
        failures = 0
        for seed in range(12):
            fun = random_boolfun(seed + 900)
            report = verify_attack(wiring, fun)
            by_key = {s.key: s.passed for s in report.steps}
            # wiring-only identities never depend on the function
            assert by_key["output-differences"]
            assert by_key["regrouped-difference"]
            assert by_key["core-factorizations"]
            assert by_key["final-bracket"]
            if not report.passed:
                failures += 1
                assert not (by_key["absorption"] and by_key["complement-absorption"])
                assert not by_key["fundamental-equation"]
        assert failures >= 11  # random functions essentially never work

    def test_chain_equivalent_to_fe_verdict(self, wiring):
        for seed in (0, 1, 2, 77):
            fun = random_boolfun(seed)
            report = verify_attack(wiring, fun)
            fe = build_fe(PreparedInvariant(lab.product_invariant()),
                          round_system(wiring, "expanded", fun))
            assert report.passed == (fe.is_zero and not fe.depends_on)

    def test_conforming_random_wirings(self, zref):
        for seed in range(3):
            w = random_wiring(seed, conforming=True)
            assert verify_attack(w, zref).passed

    def test_steps_match_reference(self, wiring, zref):
        forced = []
        for seed in range(4):
            r = random_wiring(seed + 30)
            d, p = list(r.d), list(r.p)
            d[1:3], d[5:7] = (24, 28), (8, 12)
            p[6:12], p[20:26] = Y_INPUT_BITS, W_INPUT_BITS
            forced.append(Wiring(tuple(d), tuple(p)))
        conforming = [random_wiring(seed + 20, conforming=True) for seed in range(4)]
        funs = [zref] + [random_boolfun(seed + 500) for seed in range(3)]
        for w in [wiring] + conforming + forced:
            assert all(w.hypotheses().values())
            wiring_steps = _reference_wiring_steps(w)
            for fun in funs:
                got = {s.key: s.passed for s in verify_attack(w, fun).steps}
                assert got == {**wiring_steps, **_reference_function_steps(w, fun)}

    def test_both_fe_steps_call_build_fe(self, wiring, zref, monkeypatch):
        modes = []
        real = fe_mod.build_fe
        monkeypatch.setattr(fe_mod, "build_fe",
                            lambda P, rs, *a: modes.append(rs.mode) or real(P, rs, *a))
        assert verify_attack(wiring, zref).passed
        assert modes == ["placeholder", "expanded"]

    def test_both_fe_steps_share_one_split(self, wiring, zref, monkeypatch):
        splits = []
        real = fe_mod.affine_split
        monkeypatch.setattr(fe_mod, "affine_split", lambda p: splits.append(p) or real(p))
        assert verify_attack(wiring, zref).passed
        assert splits == [product_invariant()]


def _reference_wiring_steps(w):
    """The function-free step verdicts, computed as verify_attack first did:
    the one-round difference by substituting the whole of P, and mu times
    the bracket multiplied over state bits."""
    bank = form_bank()
    Yv, Wv = ring.var(ring.PLACEHOLDER_Y), ring.var(ring.PLACEHOLDER_W)
    rs = round_system(w, "placeholder")
    P = product_invariant()
    mu = core_product_forms()
    derived = substitute(bracket_with_instances(),
                         {ring.PLACEHOLDER_Y: ONE, ring.PLACEHOLDER_W: ONE})
    return {
        "output-differences": add(rs.output(9), rs.output(5)) == add(Wv, bank["A"])
        and add(rs.output(25), rs.output(21)) == add(Yv, bank["E"]),
        "regrouped-difference": add(P, substitute(P, rs.as_substitution()))
        == mul(expand_forms(mu), expand_forms(bracket_with_instances())),
        "core-factorizations": all(product(fs + [b]) == mu for fs, b in
                                   (core_factorization_a(), core_factorization_b())),
        "final-bracket": derived == final_bracket() and not mul(mu, final_bracket()),
    }


def _reference_function_steps(w, fun):
    bank = form_bank()
    args = w.z_args
    Y, W = fun.instantiate(args[1]), fun.instantiate(args[3])
    CHF, BDG = (product([bank[n] for n in names]) for names in ("CHF", "BDG"))
    cCHF, cBDG = (product([add(bank[n], ONE) for n in names]) for names in ("CHF", "BDG"))
    mu = expand_forms(core_product_forms())
    fe = build_fe(PreparedInvariant(product_invariant()),
                  round_system(w, "expanded", fun))
    return {
        "absorption": mul(CHF, W) == CHF and mul(BDG, Y) == BDG,
        "complement-absorption": mul(cCHF, W) == cCHF and mul(cBDG, Y) == cBDG,
        "core-absorption": mul(Y, mu) == mu and mul(W, mu) == mu,
        "fundamental-equation": fe.is_zero and not fe.depends_on,
    }


class TestFactorExplorer:
    def test_mu_has_14_terms_degree_5(self):
        mu = core_product_forms()
        assert mu.degree() == 5
        assert len(mu) == 14

    def test_printed_factorizations_remultiply(self):
        mu = core_product_forms()
        for factors, bracket in (core_factorization_a(), core_factorization_b()):
            assert product(factors + [bracket]) == mu

    def test_factor_multisets_differ(self):
        fa, _ = core_factorization_a()
        fb, _ = core_factorization_b()
        assert frozenset(fa) != frozenset(fb)
        assert frozenset(fa).isdisjoint(frozenset(fb))

    def test_explorer_discovers_both_presentations(self):
        mu = core_product_forms()
        trees = explore_factorizations(mu, 32, seed=1)
        assert all(t.verify() for t in trees)
        fa, ba = core_factorization_a()
        fb, bb = core_factorization_b()
        assert any(matches_presentation(t, fa, ba) for t in trees)
        assert any(matches_presentation(t, fb, bb) for t in trees)

    def test_distinct_trees_witness_nonuniqueness(self):
        mu = core_product_forms()
        trees = explore_factorizations(mu, 8, seed=1)
        assert len({frozenset(t.factors) for t in trees}) >= 2

    def test_affine_root(self):
        trees = explore_factorizations(parse("a+b"), 4, seed=0)
        assert len(trees) == 1
        assert trees[0].factors == (parse("a+b"),)
        assert trees[0].nodes == (ONE,)
        assert trees[0].leaf == ONE

    def test_no_affine_factor_single_leaf(self):
        rng = random.Random(52)
        checked = 0
        while checked < 8:
            p = ring.Poly([rng.getrandbits(4) for _ in range(6)])
            if not p or len(p.support()) < 2:
                continue
            # exhaustive oracle over every affine form in the support vars
            sup = sorted(p.support())
            has_affine = False
            for c in range(1, 1 << (len(sup) + 1)):
                terms = [0] if c & 1 else []
                for i, v in enumerate(sup):
                    if (c >> (i + 1)) & 1:
                        terms.append(1 << v)
                ell = ring.Poly(terms)
                if ell.degree() == 1 and not mul(add(ell, ONE), p):
                    has_affine = True
                    break
            trees = explore_factorizations(p, 4, seed=3)
            if has_affine:
                assert all(t.factors for t in trees)
            else:
                assert len(trees) == 1 and trees[0].factors == ()
                assert trees[0].leaf == p
                checked += 1

    def test_each_node_is_the_previous_quotient(self):
        mu = core_product_forms()
        for t in explore_factorizations(mu, 8, seed=4):
            assert len(t.nodes) == len(t.factors)
            for prev, ell, node in zip((t.root,) + t.nodes, t.factors, t.nodes):
                assert mul(ell, node) == prev

    @pytest.mark.parametrize("text,trees", [("mu", 8), ("abcdefgh", 8), ("deg7", 2)])
    def test_candidates_computed_once_per_node(self, monkeypatch, invariant_deg7,
                                               text, trees):
        named = {"mu": core_product_forms(), "deg7": invariant_deg7}
        p = named[text] if text in named else parse(text)
        calls = []

        def counting(node):
            calls.append(node)
            return minimal_affine_factors(node)

        monkeypatch.setattr(lab, "minimal_affine_factors", counting)
        found = explore_factorizations(p, trees, seed=1)
        assert found
        visited = {n for t in found for n in (t.root,) + t.nodes}
        assert visited <= set(calls)
        assert len(calls) == len(set(calls))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            explore_factorizations(ZERO, 4, seed=0)

    def test_affine_divisors_of_pair_product(self):
        fa, _ = core_factorization_a()
        two = product(fa[:2])
        assert affine_divisors(two) == frozenset(fa)

    def test_affine_divisors_refuse_a_span_too_large_to_enumerate(self):
        # every variable divides the monomial, so an empty answer is wrong
        with pytest.raises(ValueError, match="dimension 16"):
            affine_divisors(parse("abcdefghijklmnop"))

    def test_division_by_printed_factor(self):
        from invforge.ring import factor_out
        mu = core_product_forms()
        fa, _ = core_factorization_a()
        q = factor_out(mu, fa[0])
        assert mul(fa[0], q) == mu
        assert ring.form_var("C") not in q.support()

    def test_explorer_handles_sixteen_variable_invariant(self, invariant_deg7):
        trees = explore_factorizations(invariant_deg7, 3, seed=2)
        assert trees
        for t in trees:
            assert len(t.factors) == 7
            assert t.leaf == ONE
            assert t.verify()
        assert len({frozenset(t.factors) for t in trees}) == len(trees)


class TestSearch:
    def test_planted_reference_function_detected(self, wiring, zref, invariant_deg7):
        assert lab.is_hit(wiring, PreparedInvariant(invariant_deg7), zref)

    def test_random_function_rejected_by_screen(self, wiring, invariant_deg7):
        assert not lab.is_hit(wiring, PreparedInvariant(invariant_deg7),
                              random_boolfun(123))

    @pytest.mark.parametrize("wiring_seed", [None, 0])
    def test_screen_never_changes_the_verdict(self, wiring, zref, invariant_deg7,
                                              wiring_seed):
        w = wiring if wiring_seed is None else random_wiring(wiring_seed, conforming=True)
        P = PreparedInvariant(invariant_deg7)
        for fun in [zref] + [random_boolfun(seed) for seed in range(200)]:
            exact = build_fe(P, round_system(w, "expanded", fun)).is_zero
            assert lab.is_hit(w, P, fun) == exact
        assert lab.is_hit(w, P, zref)

    def test_screen_pass_count(self, wiring, invariant_deg7, monkeypatch):
        # 16 of the first 400 functions pass the 256-sample screen, and each
        # of them pays one build_fe
        exact = []
        real_build = fe_mod.build_fe
        monkeypatch.setattr(fe_mod, "build_fe",
                            lambda *args: exact.append(1) or real_build(*args))
        report = search_random_functions(wiring, invariant_deg7, 400, 0)
        assert (len(exact), report.hits) == (16, ())

    @pytest.mark.parametrize("trials,seed,survivors,splits", [(5, 5, 2, 1), (3, 6, 0, 0)])
    def test_search_splits_the_invariant_once(self, wiring, invariant_deg7, monkeypatch,
                                              trials, seed, survivors, splits):
        # trials 0 and 4 of seed 5 pass the screen; no trial of seed 6 does
        split_calls, exact = [], []
        real_split, real_build = fe_mod.affine_split, fe_mod.build_fe
        monkeypatch.setattr(fe_mod, "affine_split",
                            lambda p: split_calls.append(p) or real_split(p))
        monkeypatch.setattr(fe_mod, "build_fe",
                            lambda *args: exact.append(1) or real_build(*args))
        search_random_functions(wiring, invariant_deg7, trials, seed)
        assert (len(exact), len(split_calls)) == (survivors, splits)

    def test_search_deterministic(self, wiring, invariant_deg7):
        a = search_random_functions(wiring, invariant_deg7, trials=12, seed=5)
        b = search_random_functions(wiring, invariant_deg7, trials=12, seed=5)
        assert a == b
        assert a.trials == 12

    def test_zero_function_verdict_computed(self, wiring, invariant_deg7):
        from invforge.boolfun import ZERO_FUN
        report = build_fe(PreparedInvariant(invariant_deg7),
                          round_system(wiring, "expanded", ZERO_FUN))
        assert not report.is_zero  # computed, frozen: the degenerate
        # function is not a hit for this invariant and wiring

    def test_search_never_builds_an_fe_poly(self, wiring, invariant_deg7, monkeypatch):
        # every screen survivor is decided on truth tables: the FE polynomial
        # is neither read nor added up
        exact = []
        real_build = fe_mod.build_fe
        monkeypatch.setattr(fe_mod, "build_fe",
                            lambda *args: exact.append(1) or real_build(*args))
        monkeypatch.setattr(fe_mod.FeReport, "fe", property(_forbidden))
        monkeypatch.setattr(fe_mod, "add", _forbidden)
        for w in (wiring, random_wiring(1, conforming=True)):
            for trials, seed, survivors in ((5, 5, 2), (100, 3, 5), (200, 1000, 14)):
                del exact[:]
                report = search_random_functions(w, invariant_deg7, trials, seed)
                assert (len(exact), report.hits) == (survivors, ())

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi > 0.999

    def test_wilson_bound_is_exact_at_no_hits_and_at_all_hits(self):
        # centre - half at 0 hits (centre + half at all hits) cancels only up
        # to rounding: 1,436 of these n gave a lower bound such as 1.08e-19
        for n in range(1, 20001):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0 and 0.0 < hi < 1.0, n
            lo, hi = wilson_interval(n, n)
            assert 0.0 < lo < 1.0 and hi == 1.0, n
        assert wilson_interval(0, 3000) == (0.0, pytest.approx(0.0012789, abs=1e-7))
