import functools
import itertools
import random
import tracemalloc

import pytest

from invforge import cli, lab, ring
from invforge import fe as fe_mod
from invforge.boolfun import (
    FORMAL_VARS, MAX_SPLIT_VARS, ZERO_FUN, parse_anf, random_boolfun,
)
from invforge.cipher import (
    LanePlan, RoundSystem, Wiring, eval_poly_lanes, random_wiring, round_system, state_var,
    step, step_lanes,
)
from invforge.data import fixture_path, fixture_text
from invforge.fe import (
    NonStateVariableError, PreparedInvariant, build_fe, check_invariant_empirically,
    coefficient_system, symbolic_fe,
)
from invforge.ring import ONE, TermBudgetError, add, mul, parse, substitute, var
from reference import check_candidate, folds, spy_products, substitute_coefficients


class TestBuildFe:
    def test_single_bit_not_invariant(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(PreparedInvariant(*ring.localize(parse("V"))), rs)  # V = x1
        assert not report.is_zero
        assert report.mode == "expanded"

    def test_theorem_invariant(self, wiring, zref, invariant_deg7):
        rs = round_system(wiring, "expanded", zref)
        report = build_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs)
        assert report.is_zero
        assert report.depends_on == ()

    def test_827_invariant_does_not_transfer(self, wiring, zref):
        p = parse("a+b+c+ac+d+bd+e+ce+f+df+g+ag+eg+h+bh+fh")
        report = build_fe(PreparedInvariant(*ring.localize(p)), round_system(wiring, "expanded", zref))
        assert not report.is_zero

    def test_rejects_non_state_variables(self, wiring, zref):
        rs = round_system(wiring, "expanded", zref)
        with pytest.raises(NonStateVariableError):
            build_fe(PreparedInvariant(*ring.localize(parse("a+F"))), rs)

    def test_dependence_fields(self, wiring):
        rs = round_system(wiring, "placeholder")
        report = build_fe(PreparedInvariant(*ring.localize(parse("V"))), rs)
        assert "F" in report.depends_on

    def test_size_and_degree_read_off_the_table(self, wiring, zref, invariant_deg7):
        # where build_fe decided on tables (the shipped and conforming
        # wirings, whose images lie on P's 16 bits, for every function, and
        # the zero function's 18 and 19 bits on the random ones), terms and
        # degree come from the FE's ANF bits without building fe
        P = PreparedInvariant(*ring.localize(invariant_deg7))
        wirings = ([wiring] + [random_wiring(s, conforming=True) for s in range(3)]
                   + [random_wiring(s) for s in range(2)])
        tabled = 0
        for k, w in enumerate(wirings):
            for fun in (zref, ZERO_FUN, random_boolfun(300 + k), random_boolfun(400 + k)):
                report = build_fe(P, round_system(w, "expanded", fun))
                size = report.size
                if report.poly is None:
                    tabled += 1
                    assert "fe" not in vars(report)
                assert size == (len(report.fe), report.fe.degree())
        assert tabled == 18

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
                prepared = PreparedInvariant(*ring.localize(p))
                if p in products:
                    assert len(prepared.parts) == 4 and prepared.parts[-1] == ONE
                else:
                    assert prepared.parts == (p,)
                for rs in systems:
                    want = add(p, substitute(p, rs.as_substitution()))
                    assert build_fe(prepared, rs).fe == want

    def test_matches_sparse_oracle_on_both_product_branches(
            self, wiring, zref, invariant_deg7, monkeypatch):
        # oracle: substitute each affine-split factor, fold the images with
        # mul; build_fe takes tables or the sparse fold, never both
        prepared = PreparedInvariant(*ring.localize(invariant_deg7))
        parts = prepared.parts  # split before the spies: the split's check tables too
        paths = []
        real_table = ring.product_table
        monkeypatch.setattr(ring, "product_table",
                            lambda *args: paths.append("table") or real_table(*args))
        products = spy_products(monkeypatch)
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
                del paths[:], products[:]
                report = build_fe(prepared, rs)
                taken.append(paths + ["sparse"] * folds(products))
                assert report.fe == oracle
                if report.is_zero:
                    zeros += 1
                    assert check_invariant_empirically(prepared, w, fun, 2000) == 0
        assert zeros >= 5  # z-reference on the shipped and conforming wirings
        # conforming images lie on 16 bits (two tables: the images', P's);
        # random ones on more than 20 (one fold)
        assert taken == [["table", "table"]] * 10 + [["sparse"]] * 8

    def test_dense_budget_bounds_the_image_only(self, wiring, zref, invariant_deg7):
        # the image of the 2080-term invariant has 2080 terms; the sparse fold's
        # intermediates grew past 2500, the table path builds none
        rs = round_system(wiring, "expanded", zref)
        assert build_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs, budget=2500).is_zero
        with pytest.raises(TermBudgetError):
            build_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs, budget=2079)

    def test_monomial_of_every_state_bit(self, wiring, zref):
        # P = x1 x2 ... x36 stays unsplit and past 20 variables: its image is
        # one substitution group, multiplied smallest first, single-monomial
        # rest included, so the 145-term FE fits a budget of 146.  It matches
        # step on the 667 states within Hamming distance 2 of all-ones, for
        # every (F, K, L)
        P = PreparedInvariant(*ring.localize(parse(ring.STATE_LETTERS)))
        report = build_fe(P, round_system(wiring, "expanded", zref), budget=146)
        assert report.size == (145, 36) and report.depends_on == ("F", "L")
        full = (1 << 36) - 1
        states = [full ^ sum(1 << i for i in flips)
                  for d in range(3) for flips in itertools.combinations(range(36), d)]
        assert len(states) == 667
        for s in states:
            for f, k, l in itertools.product((0, 1), repeat=3):
                point = {state_var(i): s >> (i - 1) & 1 for i in range(1, 37)}
                point.update({ring.F_BIT: f, ring.K_BIT: k, ring.L_BIT: l})
                want = (s == full) ^ (step(s, wiring, zref, f, k, l) == full)
                assert report.fe.evaluate(point) == want

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
                    prepared = PreparedInvariant(*ring.localize(p))
                    report = build_fe(prepared, rs)
                    tabled = len(_union_support(prepared, rs)) <= ring.MAX_DENSE_VARS
                    assert (report.poly is None) == tabled
                    paths["table" if tabled else "sparse"] += 1
                    _assert_matches_oracle(report, prepared, rs)
        assert paths == {"table": 96, "sparse": 12}

    @pytest.mark.parametrize("images,factors,name,in_images", [
        # z maps to 1, so no image holds it, and P, which holds z, is not its image
        ({"a": "a+b+c", "b": "b+c+d", "c": "a+c+d", "d": "a+b+d", "z": "1"},
         ["a+z", "b+1", "c+1", "d+1"], "z", False),
        # the images hold F, but F cancels in their product, so the FE does not
        ({"a": "bcF+c", "b": "bcdF+cdF+b", "c": "acF+bcF+ad"},
         ["a+1", "b+1", "c+1"], "F", True),
    ])
    def test_table_path_on_hand_made_rounds(self, images, factors, name, in_images):
        # rounds that map a few state bits to the given images and fix the others
        rs = _hand_made_round(images)
        prepared = PreparedInvariant(*ring.localize(ring.product([parse(f) for f in factors])))
        assert any(ring.NAMES.index(name) in substitute(f, rs.as_substitution()).support()
                   for f in prepared.parts) == in_images
        report = build_fe(prepared, rs)
        assert ring.NAMES.index(name) in report.variables
        assert (report.is_zero, report.depends_on) == (False, ())
        _assert_matches_oracle(report, prepared, rs)

    def test_constants_and_variables_no_image_holds(self, wiring, zref):
        # P = 0 and P = 1 have no variable and their images none, so U is
        # empty: FE = 0 on a 1-point table.  V = x1 and ab + V mostly hold a
        # variable that no image holds, and decide on tables where U is small
        invariants = [ring.ZERO, ONE, parse("V"), parse("ab+V")]
        systems = [round_system(w, mode, *fun) for w in (wiring, random_wiring(3, conforming=True),
                                                         random_wiring(3))
                   for mode, fun in (("placeholder", ()), ("expanded", (zref,)),
                                     ("expanded", (ZERO_FUN,)))]
        foreign = {"table": 0, "sparse": 0}
        for rs in systems:
            for p in invariants:
                prepared = PreparedInvariant(*ring.localize(p))
                report = build_fe(prepared, rs)
                _assert_matches_oracle(report, prepared, rs)
                if not p.support():
                    assert report.is_zero and (list(report.rows()), report.variables) == ([], ())
                    assert report.size == (0, -1)
                elif p.support() - set().union(*(substitute(f, rs.as_substitution()).support()
                                                 for f in prepared.parts)):
                    foreign["sparse" if report.poly is not None else "table"] += 1
        assert foreign == {"table": 14, "sparse": 1}

    def test_path_choice_at_the_variable_limit(self, monkeypatch):
        # P = ab, a -> a sum of 10 bits, b -> a sum of n - 12 others: |U| = n,
        # tables at 20 variables and the sparse fold at 21
        paths = []
        real_table = ring.product_table
        for n, taken in ((20, ["table", "table"]), (21, ["sparse"])):
            rs = _hand_made_round({
                "a": "+".join(ring.NAMES[v] for v in range(2, 12)),
                "b": "+".join(ring.NAMES[v] for v in range(12, n))})
            prepared = PreparedInvariant(*ring.localize(parse("ab")))
            assert len(_union_support(prepared, rs)) == n
            assert len(prepared.parts) == 3  # split before the spies: its check tables
            monkeypatch.setattr(ring, "product_table",
                                lambda *args: paths.append("table") or real_table(*args))
            products = spy_products(monkeypatch)
            del paths[:]
            report = build_fe(prepared, rs)
            assert paths + ["sparse"] * folds(products) == taken
            assert (report.poly is not None) == (n > ring.MAX_DENSE_VARS)
            assert len(report.fe) == 10 * (n - 12) + 1
            monkeypatch.undo()
            _assert_matches_oracle(report, prepared, rs)


def _hand_made_round(images):
    """The expanded round that maps the named state bits to the given images
    and fixes every other bit."""
    image = {parse(x): parse(y) for x, y in images.items()}
    return RoundSystem("expanded", tuple(image.get(x, x) for x in
                                         (var(state_var(i)) for i in range(1, 37))))


def _union_support(prepared, rs):
    """U: the variables of P and of its parts' images."""
    return prepared.support.union(*(substitute(f, rs.as_substitution()).support()
                                    for f in prepared.parts))


def _assert_matches_oracle(report, prepared, rs):
    """build_fe's report against the sparse oracle's: substitute each part,
    fold the images with mul, and read every field off the result."""
    images = [substitute(f, rs.as_substitution()) for f in prepared.parts]
    fe = add(prepared.poly, functools.reduce(mul, sorted(images, key=len), ONE))
    depends_on = tuple(ring.var_name(v) for v in sorted(fe.support()) if v >= ring.N_STATE)
    oracle = fe_mod.FeReport(not fe, depends_on, rs.mode, poly=fe)
    assert (report.is_zero, report.depends_on) == (oracle.is_zero, oracle.depends_on)
    assert report.fe == fe
    assert report.lines() == oracle.lines()
    assert cli._fe_record(report) == cli._fe_record(oracle)


def two_evaluation_mismatches(P, w, fun, trials, seed, rounds):
    """The empirical check as it was: P on the states, then P on their images."""
    states = [state_var(i) for i in range(1, 37)]
    plan = LanePlan(P.terms)  # over VarIds: lanes by VarId, not in P's letters' order
    rng = random.Random(seed)
    mism = 0
    remaining = trials
    while remaining:
        width = min(remaining, fe_mod._CHUNK)
        wmask = (1 << width) - 1
        lanes = [rng.getrandbits(width) for _ in range(36)]
        before = eval_poly_lanes(plan, dict(zip(states, lanes)), wmask)
        for _ in range(rounds):
            lanes = step_lanes(lanes, w, fun,
                               rng.getrandbits(width), rng.getrandbits(width),
                               rng.getrandbits(width), wmask)
        after = eval_poly_lanes(plan, dict(zip(states, lanes)), wmask)
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
                got = check_invariant_empirically(PreparedInvariant(*ring.localize(P)), w, fun,
                                                  trials, seed, rounds)
                want = two_evaluation_mismatches(P, w, fun, trials, seed, rounds)
                assert got == want
                nonzero += want > 0
        assert nonzero > 0

    def test_read_invariants_match_the_two_evaluation_loop(self, wiring, zref):
        # constants, terms that cancel, and random invariants over 0 to 20 state bits
        rng = random.Random(44)
        texts = ["0", "1", "a+a", "ab+ab+c", "a + b", "x"]
        texts += [ring.render(ring.Poly(rng.getrandbits(36) & rng.getrandbits(36) & mask
                                        for _ in range(rng.randint(1, 40))))
                  for mask in (0, 1, 0xF00F, (1 << 20) - 1 << 8) for _ in range(2)]
        for t in texts:
            P = PreparedInvariant(*ring.parse_local(t))
            assert P.variables == tuple(sorted(parse(t).support()))
            for fun, rounds in ((zref, 1), (random_boolfun(95), 2)):
                got = check_invariant_empirically(P, wiring, fun, 300, 9, rounds)
                assert got == two_evaluation_mismatches(parse(t), wiring, fun, 300, 9, rounds)

    @pytest.mark.parametrize("trials,calls", [(1, 1), (128, 1),
                                              (fe_mod._CHUNK, 1),
                                              (fe_mod._CHUNK + 1, 2)])
    def test_one_evaluation_per_chunk(self, wiring, zref, invariant_deg7,
                                      monkeypatch, trials, calls):
        P = PreparedInvariant(*ring.parse_local(fixture_text("invariant-deg7.poly")))
        runs, plans = [], []
        real_eval, real_init = fe_mod.eval_poly_lanes, LanePlan.__init__
        monkeypatch.setattr(fe_mod, "eval_poly_lanes",
                            lambda plan, *args: runs.append(plan) or real_eval(plan, *args))
        monkeypatch.setattr(LanePlan, "__init__",
                            lambda plan, terms: plans.append(terms) or real_init(plan, terms))
        monkeypatch.setattr(PreparedInvariant, "poly",  # P over VarIds is never renamed
                            property(lambda P: pytest.fail("P.poly was read")))
        check_invariant_empirically(P, wiring, zref, trials, rounds=3)
        assert len(runs) == calls and all(plan is P.lane_plan for plan in runs)
        # P's plan and the function's, each built once for every chunk and round:
        # P's from its local polynomial, every term below 2^n over its n letters
        fun_terms, p_terms = sorted(plans, key=len)
        assert p_terms is P.local.terms and len(P.variables) == 16
        assert all(0 <= t < 1 << 16 for t in p_terms)
        assert ring.rename(P.local, P.variables) == invariant_deg7
        assert sorted(fun_terms) == sorted(zref.instantiate(FORMAL_VARS).terms)  # a..f: 0..5

    def test_theorem_invariant_clean(self, wiring, zref, invariant_deg7):
        mismatches = check_invariant_empirically(PreparedInvariant(*ring.localize(invariant_deg7)), wiring,
                                                 zref, trials=10**6, seed=5)
        assert mismatches == 0

    def test_single_bit_mismatches(self, wiring, zref):
        mismatches = check_invariant_empirically(PreparedInvariant(*ring.localize(parse("V"))), wiring, zref,
                                                 trials=1000, seed=6)
        assert mismatches > 0

    def test_zero_rounds_identity(self, wiring, zref):
        rng = random.Random(42)
        p = ring.Poly([rng.getrandbits(36) for _ in range(30)])
        mismatches = check_invariant_empirically(PreparedInvariant(*ring.localize(p)), wiring, zref, trials=5000,
                                                 seed=7, rounds=0)
        assert mismatches == 0

    def test_trials_validation(self, wiring, zref):
        with pytest.raises(ValueError):
            check_invariant_empirically(PreparedInvariant(*ring.localize(parse("a"))), wiring, zref,
                                        trials=0)

    def test_multi_round_preservation(self, wiring, zref, invariant_deg7):
        for rounds in (2, 17, 64):
            mismatches = check_invariant_empirically(PreparedInvariant(*ring.localize(invariant_deg7)), wiring,
                                                     zref, trials=4000, seed=rounds,
                                                     rounds=rounds)
            assert mismatches == 0


class TestSymbolic:
    def test_requires_symbolic_mode(self, wiring, zref):
        with pytest.raises(ValueError):
            symbolic_fe(PreparedInvariant(*ring.localize(parse("a"))),
                        round_system(wiring, "expanded", zref))

    def test_trivially_shifted_bits_are_coefficient_free(self, wiring):
        rs = round_system(wiring, "symbolic")
        # b + c touches only x35, x34, whose images are single variables
        report = symbolic_fe(PreparedInvariant(*ring.localize(parse("b+c"))), rs)
        assert all(v < ring.COEF_BASE for v in report.fe.support())

    def test_mode_consistency_medium(self, wiring, zref):
        bank = lab.form_bank()
        p = ring.product([bank["E"], bank["G"],
                          add(bank["G"], bank["H"])])
        rs_sym = round_system(wiring, "symbolic")
        rs_exp = round_system(wiring, "expanded", zref)
        sym = symbolic_fe(PreparedInvariant(*ring.localize(p)), rs_sym)
        exp = build_fe(PreparedInvariant(*ring.localize(p)), rs_exp)
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
        sym = symbolic_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs_sym)
        assert len(sym.fe) > 0
        assert check_candidate(sym.fe, zref)
        other = random_boolfun(4040)
        exp_other = build_fe(PreparedInvariant(*ring.localize(invariant_deg7)),
                             round_system(wiring, "expanded", other))
        assert check_candidate(sym.fe, other) == exp_other.is_zero

    def test_random_wiring_answers_within_the_default_budget(self, invariant_deg7):
        # two of the basis factors' images carry a function instance, so the
        # sparse intermediates stay within the default budget
        w = random_wiring(0)
        sym = symbolic_fe(PreparedInvariant(*ring.localize(invariant_deg7)), round_system(w, "symbolic"))
        for seed in (1, 2):
            fun = random_boolfun(seed)
            assert (substitute_coefficients(sym.fe, fun)
                    == build_fe(PreparedInvariant(*ring.localize(invariant_deg7)),
                                round_system(w, "expanded", fun)).fe)

    def test_budget_overflow(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        with pytest.raises(TermBudgetError):
            symbolic_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs, budget=500)


class TestKeyedSymbolic:
    """Symbolic FEs counted on tables over V, one coefficient key at a time,
    against the fold: every field is read off add(P, ring.product(images))."""

    @staticmethod
    def _check(prepared, rs, monkeypatch):
        """build_fe's report against the fold; returns the path it took."""
        images = [substitute(f, rs.as_substitution()) for f in prepared.parts]
        fe = add(prepared.poly, ring.product(images))
        products = spy_products(monkeypatch)
        report = build_fe(prepared, rs, ring.DEFAULT_BUDGET)
        path = "fold" if folds(products) else "keyed"
        monkeypatch.undo()
        assert report.is_zero == (not fe)
        assert report.depends_on == tuple(ring.var_name(v) for v in sorted(fe.support())
                                          if v >= ring.N_STATE)
        assert report.size == (len(fe), fe.degree())
        assert report.system.lines() == coefficient_system(fe).lines()  # linear or not
        assert report.fe == fe
        oracle = fe_mod.FeReport(not fe, report.depends_on, rs.mode, poly=fe)
        assert cli._fe_record(report) == cli._fe_record(oracle)
        if path == "keyed":  # the replayed rows are the fold's nonzero cofactors by key
            rows = list(report.rows())
            decoded = {key: ring.poly_from_anf_bits(anf, report.variables) for key, anf in rows}
            assert len(decoded) == len(rows)
            assert decoded == {key: c for key, c in fe_mod._by_key(fe).items() if c}
            assert list(report.rows()) == rows
        return path

    def test_keyed_path_matches_the_fold(self, wiring, invariant_deg7, monkeypatch):
        # on the shipped and conforming wirings the degree-7 invariant's V is
        # its 16 bits and two of its factor images carry one instance each:
        # keyed.  Random wirings spread that V past 20 bits: the fold (run on
        # one of them, about 2.5 s with the oracle).  The small invariants
        # take tables on the conforming wirings, with 0 to 2 instance-carrying
        # images, and either path on the random ones
        assert parse(fixture_text("invariant-deg7-alt.poly")) == invariant_deg7
        rng = random.Random(3)
        bank = lab.form_bank()
        small = [ring.ZERO, ONE, parse(fixture_text("invariant-827.poly"))]
        for _ in range(4):  # seeded products of 2 to 4 of the forms A..H
            small.append(ring.product([add(bank[c], ONE) if rng.getrandbits(1) else bank[c]
                                       for c in rng.sample("ABCDEFGH", rng.randint(2, 4))]))
        conforming = [wiring] + [random_wiring(s, conforming=True) for s in range(8)]
        paths = {"keyed": 0, "fold": 0}
        carrying = set()
        randoms = [random_wiring(s) for s in range(4)]
        for w in conforming + randoms:
            rs = round_system(w, "symbolic")
            for p in small + ([] if w in randoms[1:] else [invariant_deg7]):
                prepared = PreparedInvariant(*ring.localize(p))
                path = self._check(prepared, rs, monkeypatch)
                if p is invariant_deg7:
                    assert path == ("keyed" if w in conforming else "fold")
                elif w in conforming:
                    assert path == "keyed"
                    carrying.add(sum(bool(substitute(f, rs.as_substitution()).support()
                                          & fe_mod._COEFS) for f in prepared.parts))
                paths[path] += 1
        assert paths == {"keyed": 96, "fold": 5} and carrying == {0, 1, 2}

    @pytest.mark.parametrize("images,factors,path", [
        # two images carry symbols, each affine in them: keyed
        ({"a": "b+Z00", "b": "c+Z01*d"}, ["a+1", "b+1"], "keyed"),
        # three images carry symbols: the fold, though V has 4 bits
        ({"a": "b+Z00", "b": "c+Z01*d", "c": "d+Z02"}, ["a+1", "b+1", "c+1"], "fold"),
        # one image holds a product of two symbols: the fold
        ({"a": "b+Z00*Z01*c"}, ["a+1"], "fold"),
        # both images carry Z00 and Z03: the pair (Z00, Z00) joins key Z00
        ({"a": "b+Z00*c+Z03*d", "b": "c+Z00*d+Z03"}, ["a+1", "b+1"], "keyed"),
        # a two-term cofactor: Z01 carries c+d
        ({"a": "b+Z01*c+Z01*d", "b": "c+Z00+Z01*b"}, ["a+1", "b+1"], "keyed"),
        # Z02 and Z05 in the first image only, Z01 and Z03 in the second
        # only, Z00 in both
        ({"a": "b+Z00*c+Z02*d+Z05", "b": "c+Z00+Z01*d+Z03*b*d"}, ["a+1", "b+1"], "keyed"),
        # only one image carries symbols, the other is symbol-free
        ({"a": "b+Z00*c+Z01*d+Z03*c*d", "b": "c+d"}, ["a+1", "b+1"], "keyed"),
        # L beside the symbols in more image terms than F, which the others
        # outnumber: the index order puts L before F, depends_on lists F first
        ({"a": "b+L*Z00*c+L*Z01+L*d+F*Z02", "b": "c+Z00*L+L*b+F*Z01*d"}, ["a+1", "b+1"],
         "keyed"),
    ])
    def test_keyed_rule_on_hand_made_rounds(self, images, factors, path, monkeypatch):
        rs = RoundSystem("symbolic", _hand_made_round(images).outputs)
        prepared = PreparedInvariant(*ring.localize(ring.product([parse(f) for f in factors])))
        assert len(prepared.parts) == len(factors) + 1
        assert self._check(prepared, rs, monkeypatch) == path

    def test_keys_multiplied_on_anf_bits(self, wiring, zref, invariant_deg7, monkeypatch,
                                         capsys):
        # fe --symbolic on the shipped wiring transforms a handful of tables
        # (P's and the symbol-free images'), not one per coefficient key of
        # the 2,081; an expanded or placeholder FE makes one transform over V
        calls = []  # the module each transform was called through
        real = ring.mobius
        for module in (ring, fe_mod):
            monkeypatch.setattr(module, "mobius", lambda table, n=6, module=module:
                                calls.append(module) or real(table, n))
        argv = ["fe", "--lzs", fixture_path("lzs-265-like.cfg"), "--invariant",
                fixture_path("invariant-deg7.poly"), "--symbolic"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("fe = <110720 terms, degree 13>\n")
        assert 1 <= len(calls) <= 6
        prepared = PreparedInvariant(*ring.localize(invariant_deg7))
        prepared.parts
        for rs in (round_system(wiring, "expanded", zref), round_system(wiring, "placeholder")):
            calls.clear()
            report = build_fe(prepared, rs)
            assert report.poly is None and calls.count(fe_mod) == 1

    def test_each_monomial_product_formed_once(self, capsys, monkeypatch):
        # each variable step of ring.mul_anf reads one _one_bit_mask: on the
        # shipped wiring a row's two memos form each cofactor monomial once,
        # 4,756 steps in all, where multiplying every key pair afresh took 12,740
        steps = []
        real = ring._one_bit_mask
        monkeypatch.setattr(ring, "_one_bit_mask", lambda i, n: steps.append(i) or real(i, n))
        argv = ["fe", "--lzs", fixture_path("lzs-265-like.cfg"), "--invariant",
                fixture_path("invariant-deg7.poly"), "--symbolic"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("fe = <110720 terms, degree 13>\n")
        assert 0 < len(steps) <= 5_000

    def test_counted_in_little_memory(self, wiring, invariant_deg7):
        # the 110,720-term FE is never built: two memos of at most 68 ANF
        # ints (one instance's 64 input monomials and key 0's other terms)
        # and one output key are held at a time, each int short since the
        # variables most image terms hold take the low index bits
        prepared = PreparedInvariant(*ring.localize(invariant_deg7))
        prepared.parts
        rs = round_system(wiring, "symbolic")
        tracemalloc.start()
        try:
            report = symbolic_fe(prepared, rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.size == (110720, 13) and not report.system.linear
        assert peak < 1 << 20


class TestCoefficientSystem:
    def test_linear_extraction(self, wiring):
        rs = round_system(wiring, "symbolic")
        # a single non-trivial output bit: FE is affine in the coefficients
        # d = x33, image y33 = F + x_{D(9)}
        report = symbolic_fe(PreparedInvariant(*ring.localize(parse("d"))), rs)
        system = coefficient_system(report.fe)
        assert system.linear

    def test_nonlinear_detection(self, wiring, invariant_deg7):
        rs = round_system(wiring, "symbolic")
        report = symbolic_fe(PreparedInvariant(*ring.localize(invariant_deg7)), rs)
        system = coefficient_system(report.fe)
        assert not system.linear  # distinct instances multiply: quadratic terms

    def test_single_instance_linear(self, wiring):
        rs = round_system(wiring, "symbolic")
        # image x34: no instance at all
        report = symbolic_fe(PreparedInvariant(*ring.localize(parse("b"))), rs)
        system = coefficient_system(report.fe)
        assert system.linear
