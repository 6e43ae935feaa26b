import gc
import random

import pytest

from invforge import ring
from invforge.boolfun import FORMAL_VARS, ZERO_FUN, parse_anf, random_boolfun
from invforge.cipher import (
    LanePlan, Wiring, WiringError, eval_poly_lanes, parse_wiring, random_wiring,
    round_system, step, step_lanes, validate,
)
from invforge.data import fixture_text
from invforge.lab import expand_forms, product_invariant
from invforge.ring import (
    F_BIT, K_BIT, L_BIT, PLACEHOLDER_W, PLACEHOLDER_Y,
    add, mul, parse, state_var, substitute, var,
)
from reference import render_wiring, states_to_lanes, step_by_closure


class TestWiring:
    def test_parse_render(self, wiring):
        again = parse_wiring(render_wiring(wiring))
        assert again == wiring

    def test_range_errors(self):
        with pytest.raises(WiringError):
            Wiring((40,) + (1,) * 8, (1,) * 27)
        with pytest.raises(WiringError):
            Wiring((0,) * 9, (0,) + (1,) * 26)
        with pytest.raises(WiringError):
            Wiring((1,) * 8, (1,) * 27)

    def test_d5_36_is_valid(self):
        w = Wiring((1, 2, 3, 4, 36, 5, 6, 7, 8), tuple(range(1, 28)))
        assert validate(w) == ()

    def test_duplicate_p_warns_only(self):
        w = Wiring(tuple(range(1, 10)), (5,) * 27)
        assert validate(w) == (
            "duplicate P entry 5 at positions %s" % ",".join(map(str, range(1, 28))),)

    def test_shipped_wiring_hypotheses(self, wiring):
        assert validate(wiring) == ()
        assert all(wiring.hypotheses().values())

    def test_comments_and_format(self):
        w = parse_wiring("# comment\nD = 1,2,3,4,5,6,7,8,9  # inline\n"
                         "P = " + ",".join(["1"] * 27) + "\n")
        assert w.D(1) == 1 and w.P(27) == 1

    def test_missing_section(self):
        with pytest.raises(WiringError):
            parse_wiring("D = 1,2,3,4,5,6,7,8,9\n")


class TestRoundSystem:
    def test_y33_first_equation(self, wiring):
        rs = round_system(wiring, "placeholder")
        expected = add(var(F_BIT), var(state_var(wiring.D(9))))
        assert rs.output(33) == expected

    def test_trivial_rows(self, wiring):
        rs = round_system(wiring, "placeholder")
        for i in range(1, 36):
            if i % 4 != 0:
                assert rs.output(i + 1) == var(state_var(i))

    def test_output_difference_reduction(self, wiring):
        rs = round_system(wiring, "placeholder")
        d = add(rs.output(9), rs.output(5))
        expected = add(var(PLACEHOLDER_W),
                       add(var(state_var(wiring.D(3))), var(state_var(wiring.D(2)))))
        assert d == expected

    # The round's displayed equations, y_i = F + ... + x_D((i + 3) / 4), with
    # Z, Y, X, W the four instances and Pn, Dn the input x_P(n), x_D(n)
    DISPLAYED = {
        33: "F D9",
        29: "F Z D8",
        25: "F Z P6 D7",
        21: "F Z P6 Y D6",
        17: "F Z P6 Y P13 D5",
        13: "F Z P6 Y P13 L X D4",
        9: "F Z P6 Y P13 L X P20 D3",
        5: "F Z P6 Y P13 L X P20 W D2",
        1: "F Z P6 Y P13 L X P20 W P27 D1",
    }

    def test_nontrivial_outputs_match_displayed_equations(self, wiring):
        wirings = [wiring, random_wiring(3), random_wiring(104)]
        assert wirings[1].D(8) == 0 and wirings[2].D(6) == 0
        for w in wirings:
            def x(bit):  # input x_bit; bit 0 is the key bit K
                return var(state_var(bit)) if bit else var(K_BIT)

            def value(name):
                if name[0] == "D":
                    return x(w.D(int(name[1:])))
                if name[0] == "P":
                    return x(w.P(int(name[1:])))
                return parse(name)

            rs = round_system(w, "placeholder")
            for i, names in self.DISPLAYED.items():
                want = ring.ZERO
                for name in names.split():
                    want = add(want, value(name))
                assert rs.output(i) == want, (w, i)

    def test_expanded_requires_function(self, wiring):
        with pytest.raises(ValueError):
            round_system(wiring, "expanded")

    def test_unknown_mode(self, wiring):
        with pytest.raises(ValueError):
            round_system(wiring, "bogus")

    def test_placeholder_expansion_commutes(self, wiring):
        fun = random_boolfun(21)
        rs_ph = round_system(wiring, "placeholder")
        rs_ex = round_system(wiring, "expanded", fun)
        args = wiring.z_args
        mapping = {
            ring.PLACEHOLDER_Z: fun.instantiate(args[0]),
            ring.PLACEHOLDER_Y: fun.instantiate(args[1]),
            ring.PLACEHOLDER_X: fun.instantiate(args[2]),
            PLACEHOLDER_W: fun.instantiate(args[3]),
        }
        for i in range(1, 37):
            assert substitute(rs_ph.output(i), mapping) == rs_ex.output(i)

    def test_k_bit_convention(self):
        w = Wiring((0, 24, 28, 16, 20, 8, 12, 32, 36),
                   tuple(range(1, 28)))
        rs = round_system(w, "placeholder")
        assert K_BIT in rs.output(1).support()
        fun = random_boolfun(22)
        s0 = random.Random(0).getrandbits(36)
        out0 = step(s0, w, fun, 0, 0, 0)
        out1 = step(s0, w, fun, 0, 1, 0)
        assert (out0 ^ out1) == 1  # K toggles exactly y1 here

    def test_symbolic_mode_uses_coefficients(self, wiring):
        rs = round_system(wiring, "symbolic")
        sup = rs.output(29).support()
        assert ring.coef_var(0) in sup
        assert ring.coef_var(63) in sup


class TestStep:
    def test_cross_path_random_wirings(self):
        rng = random.Random(23)
        for wseed in range(3):
            w = random_wiring(wseed)
            fun = random_boolfun(wseed + 50)
            rs = round_system(w, "expanded", fun)
            outputs = [rs.output(i) for i in range(1, 37)]
            for _ in range(300):
                s = rng.getrandbits(36)
                fb, kb, lb = (rng.getrandbits(1) for _ in range(3))
                assign = {state_var(i): (s >> (i - 1)) & 1 for i in range(1, 37)}
                assign[F_BIT] = fb
                assign[K_BIT] = kb
                assign[L_BIT] = lb
                expected = 0
                for i, p in enumerate(outputs):
                    if p.evaluate(assign):
                        expected |= 1 << i
                assert step(s, w, fun, fb, kb, lb) == expected

    def test_matches_the_closure_step(self, wiring, zref):
        # random_wiring(3) has D(8) = 0 and random_wiring(104) D(6) = 0, so
        # the key bit is read at input 0 there
        rng = random.Random(26)
        wirings = [wiring, random_wiring(3), random_wiring(104)]
        wirings += [random_wiring(s, conforming=True) for s in range(5)]
        wirings += [random_wiring(s + 200) for s in range(5)]
        funs = [zref, ZERO_FUN] + [random_boolfun(s + 80) for s in range(4)]
        for w in wirings:
            for fun in funs:
                for _ in range(50):
                    s = rng.getrandbits(36)
                    bits = [rng.getrandbits(1) for _ in range(3)]
                    assert step(s, w, fun, *bits) == step_by_closure(s, w, fun, *bits)
        s = t = 0x123456789
        for _ in range(2000):  # a trajectory, which reaches states a uniform draw rarely does
            s, t = step(s, wiring, zref, 1, 0, 1), step_by_closure(t, wiring, zref, 1, 0, 1)
            assert s == t

    def test_scalar_vs_lanes(self, wiring):
        # random_wiring(3) has D(8) = 0 and random_wiring(104) D(6) = 0, so the
        # key lane reaches y29 and y21 there; the shipped wiring has no D(i) = 0
        wirings = [wiring, random_wiring(3), random_wiring(104), random_wiring(4, True)]
        assert wirings[1].D(8) == 0 and wirings[2].D(6) == 0
        rng = random.Random(24)
        fun = random_boolfun(77)
        for w in wirings:
            states = [rng.getrandbits(36) for _ in range(257)]
            width = len(states)
            wmask = (1 << width) - 1
            fl, kl, ll = (rng.getrandbits(width) for _ in range(3))
            lanes = step_lanes(states_to_lanes(states), w, fun, fl, kl, ll, wmask)
            for j, s in enumerate(states):
                out = step(s, w, fun, (fl >> j) & 1, (kl >> j) & 1, (ll >> j) & 1)
                got = 0
                for i in range(36):
                    if (lanes[i] >> j) & 1:
                        got |= 1 << i
                assert got == out, (w, j)

    def test_bijection_collision_freeness(self, wiring):
        fun = random_boolfun(31)
        rng = random.Random(25)
        for bits in range(8):
            fb, kb, lb = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
            seen = {}
            for _ in range(20000):
                s = rng.getrandbits(36)
                out = step(s, wiring, fun, fb, kb, lb)
                if out in seen:
                    assert seen[out] == s
                else:
                    seen[out] = s

    def test_bijection_exact_small_conforming(self):
        # exhaustive inverse check on the low 2^16 states is meaningless for
        # a 36-bit map; instead verify injectivity structurally: iterate the
        # inverse-free test by collision-freeness over a seeded conforming
        # wiring distinct from the shipped one
        w = random_wiring(4, conforming=True)
        fun = random_boolfun(32)
        seen = set()
        rng = random.Random(26)
        for _ in range(20000):
            s = rng.getrandbits(36)
            seen.add(step(s, w, fun, 1, 0, 1))
        assert len(seen) >= 19900  # duplicates only from duplicate inputs

    def test_eval_poly_lanes(self):
        rng = random.Random(27)
        p = parse("ab+cd+e")
        local, variables = ring.parse_local("ab+cd+e")
        for _ in range(20):
            vals = {v: rng.getrandbits(8) for v in p.support()}
            got = eval_poly_lanes(LanePlan(local.terms), [vals[v] for v in variables], 0xFF)
            for j in range(8):
                assign = {v: (vals[v] >> j) & 1 for v in vals}
                assert ((got >> j) & 1) == p.evaluate(assign)


def evaluator_cases():
    """Polynomials the lane evaluator must agree with Poly.evaluate on."""
    rng = random.Random(61)
    state_fkl = list(range(ring.N_STATE)) + [F_BIT, K_BIT, L_BIT]

    def random_poly(variables, terms, degree):
        return ring.Poly(sum(1 << v for v in rng.sample(variables, rng.randint(0, degree)))
                         for _ in range(terms))

    cases = {
        "zero": ring.ZERO,
        "one": ring.ONE,
        "constant-term": parse("1+a+bc+dFK"),
        "deg7-invariant": product_invariant(),
        "mu-expanded": expand_forms(parse(fixture_text("mu.poly"), "auto")),
        "invariant-827": parse(fixture_text("invariant-827.poly"), "auto"),
        "random-39-sparse": random_poly(state_fkl, 40, 3),
        "random-39-dense": random_poly(state_fkl, 600, 7),
        "random-5-vars": random_poly(state_fkl[:5], 20, 5),
    }
    for seed in (0, 1, 2):
        cases["function-anf-%d" % seed] = random_boolfun(70 + seed).instantiate(FORMAL_VARS)
    return [pytest.param(p, id=name) for name, p in cases.items()]


def plan_texts():
    """Texts whose local plans must agree with Poly.evaluate: constants,
    terms that cancel and random polynomials over 0 to 20 state bits."""
    rng = random.Random(63)
    texts = ["0", "1", "a+a", "ab+ab+c", "1+a+bc+dFK", "Z00*a+Z00", "a + b*c"]
    for n in (0, 1, 2, 5, 13, 20):
        bits = rng.sample(range(ring.N_STATE), n)
        p = ring.Poly(sum(1 << v for v in bits if rng.getrandbits(1))
                      for _ in range(rng.randint(1, 60)))
        texts.append(ring.render(p))
    return texts


class TestEvalPolyLanes:
    @pytest.mark.parametrize("text", plan_texts())
    def test_plan_of_a_read_text(self, text):
        local, variables = ring.parse_local(text)
        p = parse(text)
        assert list(variables) == sorted(p.support()) and ring.rename(local, variables) == p
        assert all(0 <= t < 1 << len(variables) for t in local.terms)
        rng = random.Random(text)
        lanes = [rng.getrandbits(64) for _ in variables]
        got = eval_poly_lanes(LanePlan(local.terms), lanes, (1 << 64) - 1)
        for j in range(64):
            bits = {v: lane >> j & 1 for v, lane in zip(variables, lanes)}
            assert got >> j & 1 == p.evaluate(bits), j

    @pytest.mark.parametrize("p", evaluator_cases())
    def test_every_lane_matches_pointwise_evaluation(self, p):
        rng = random.Random(len(p))
        local, support = ring.localize(p)  # p over its own letters, letter i = support[i]
        assert list(support) == sorted(p.support()) and ring.rename(local, support) == p
        local = local.terms
        assert all(0 <= t < 1 << len(support) for t in local)
        plan = LanePlan(local)  # one plan serves every width and lane map
        for width, maps in ((1, 3), (8, 3), (257, 3), (8193, 1)):
            mask = (1 << width) - 1
            for _ in range(maps):
                # every lane carries bits above the mask, which must not leak out
                lanes = {v: rng.getrandbits(width + 9) | (1 << width) for v in support}
                got = eval_poly_lanes(plan, [lanes[v] for v in support], mask)
                assert got & ~mask == 0, width
                assert eval_poly_lanes(LanePlan(local), [lanes[v] for v in support],
                                       mask) == got, width
                for j in range(width):
                    bits = {v: lane >> j & 1 for v, lane in lanes.items()}
                    assert got >> j & 1 == p.evaluate(bits), (width, j)

    def test_leaves_no_garbage_cycles(self, invariant_deg7):
        # a memo that refers to itself outlives the call until the cyclic GC
        # runs, which raises the empirical check's peak memory
        rng = random.Random(62)
        width = 1 << 14
        local, support = ring.localize(invariant_deg7)
        lanes = [rng.getrandbits(width) for _ in support]
        gc.collect()
        eval_poly_lanes(LanePlan(local.terms), lanes, (1 << width) - 1)
        assert gc.collect() == 0
