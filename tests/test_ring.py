import random

import pytest

from invforge import ring
from invforge.ring import (
    ONE, ZERO, NotAFactorError, ParseError, Poly, UnassignedVariableError,
    add, evaluate, factor_out, mul, parse, render, state_var, substitute, var,
)


def rand_poly(rng, nvars=8, max_terms=50):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        terms.append(rng.getrandbits(nvars))
    return Poly(terms)


class TestParseRender:
    def test_product_example(self):
        p = parse("abcdijkl+efg+efh+egh+fgh")
        assert len(p) == 5
        assert sorted(t.bit_count() for t in p.terms) == [3, 3, 3, 3, 8]
        assert render(p) == "abcdijkl+efg+efh+egh+fgh"

    def test_16_term_invariant_fixture(self):
        p = parse("a+b+c+ac+d+bd+e+ce+f+df+g+ag+eg+h+bh+fh")
        assert len(p) == 16
        assert p.degree() == 2
        assert parse(render(p)) == p

    def test_constants(self):
        assert parse("1") == ONE
        assert parse("0") == ZERO
        assert render(ZERO) == "0"
        assert render(ONE) == "1"
        assert parse("a+0") == parse("a")

    def test_multichar_coefficients(self):
        p = parse("Z62*jhfpd+Z03*Lj")
        assert parse(render(p)) == p
        assert p.degree() == 6

    def test_single_letters_juxtapose(self):
        assert parse("Lj") == mul(var(ring.L_BIT), parse("j"))
        assert parse("YW") == mul(var(ring.PLACEHOLDER_Y), var(ring.PLACEHOLDER_W))

    def test_multichar_requires_star(self):
        with pytest.raises(ParseError):
            parse("Z62jh")

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse("ab?c")
        assert err.value.position == 2

    def test_empty_term_rejected(self):
        with pytest.raises(ParseError):
            parse("a++b")
        with pytest.raises(ParseError):
            parse("")

    def test_whitespace_ignored(self):
        assert parse(" a + b c ") == parse("a+bc")

    def test_forms_dialect(self):
        p = parse("AB+CH+1", dialect="forms")
        assert p.degree() == 2
        assert render(p) == "AB+CH+1"

    def test_auto_dialect(self):
        assert ring.sniff_dialect("BC+FG") == "forms"
        assert ring.sniff_dialect("ab+F+K") == "state"
        # capital F alone stays a round bit unless form letters force it
        assert ring.F_BIT in parse("F+a", dialect="auto").support()
        assert ring.form_var("F") in parse("F+B", dialect="auto").support()

    def test_render_rejects_unparseable_mix(self):
        # form letters render back only beside the Z/Y/X/W placeholders
        forms = parse("AB+Z+W", dialect="forms")
        assert parse(render(forms), dialect="auto") == forms
        for other in ("a", "K", "L", "F", "Z07"):
            mixed = add(parse("A", dialect="forms"), parse(other))
            with pytest.raises(ValueError):
                render(mixed)

    def test_duplicate_letters_collapse(self):
        assert parse("aa") == parse("a")
        assert parse("a+a") == ZERO

    def test_roundtrip_fuzz(self):
        rng = random.Random(1)
        for _ in range(300):
            p = rand_poly(rng)
            assert parse(render(p)) == p


class TestRingLaws:
    def test_add_examples(self):
        assert add(parse("a+b"), parse("b+c")) == parse("a+c")
        p = parse("abc+d")
        assert add(p, p) == ZERO
        assert add(ZERO, p) == p

    def test_mul_examples(self):
        p = parse("a+b")
        assert mul(p, p) == p
        assert mul(parse("a"), parse("a")) == parse("a")

    def test_laws_fuzz(self):
        rng = random.Random(2)
        for _ in range(120):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert add(p, q) == add(q, p)
            assert mul(p, q) == mul(q, p)
            assert add(add(p, q), r) == add(p, add(q, r))
            assert mul(mul(p, q), r) == mul(p, mul(q, r))
            assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
            assert add(p, p) == ZERO
            assert mul(p, p) == p
            assert p.degree() == -1 or mul(p, q).degree() <= p.degree() + q.degree()

    def test_budget(self):
        dense = Poly([1 << i for i in range(30)])
        with pytest.raises(ring.TermBudgetError):
            mul(dense, Poly([1 << (30 + i) for i in range(30)]), budget=10)


class TestEvaluate:
    def test_examples(self):
        p = parse("ab+c")
        assert evaluate(p, {0: 1, 1: 1, 2: 1}) == 0
        assert evaluate(ONE, {}) == 1
        bd = parse("bd")
        assert evaluate(bd, {1: 1, 3: 1}) == 1

    def test_missing_variable(self):
        with pytest.raises(UnassignedVariableError) as err:
            evaluate(parse("ab"), {0: 1})
        assert err.value.missing == (1,)

    def test_homomorphism_fuzz(self):
        rng = random.Random(3)
        for _ in range(1000):
            p, q = rand_poly(rng, 6, 12), rand_poly(rng, 6, 12)
            a = {v: rng.getrandbits(1) for v in range(6)}
            assert evaluate(mul(p, q), a) == (evaluate(p, a) & evaluate(q, a))
            assert evaluate(add(p, q), a) == (evaluate(p, a) ^ evaluate(q, a))


class TestSubstitute:
    def test_simultaneous(self):
        assert substitute(parse("ab"), {0: parse("b"), 1: parse("c")}) == parse("bc")
        swap = {0: parse("b"), 1: parse("a")}
        p = parse("a+ab+b")
        assert substitute(substitute(p, swap), swap) == p

    def test_round_substitution_example(self):
        d = state_var(33)
        assert substitute(var(d), {d: parse("F+i")}) == parse("F+i")

    def test_constants_cancel(self):
        out = substitute(parse("a+b"), {0: parse("b+1"), 1: parse("a+1")})
        assert out == parse("a+b")

    def test_identity_map(self):
        rng = random.Random(4)
        for _ in range(50):
            p = rand_poly(rng)
            assert substitute(p, {v: var(v) for v in p.support()}) == p

    def test_zero_image(self):
        assert substitute(parse("ab+c"), {0: ZERO}) == parse("c")

    def test_matches_naive_fuzz(self):
        rng = random.Random(5)
        for _ in range(80):
            p = rand_poly(rng, 6, 15)
            mapping = {v: rand_poly(rng, 6, 4) for v in range(6) if rng.random() < 0.6}
            expected = ZERO
            for t in p.terms:
                piece = ONE
                m = t
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    piece = mul(piece, mapping.get(v, var(v)))
                    m ^= low
                expected = add(expected, piece)
            assert substitute(p, mapping) == expected


class TestFactorOut:
    def test_accept_example(self):
        p = parse("ab+b")
        ell = parse("a+1")
        q = factor_out(p, ell)
        assert q == parse("b")
        assert mul(ell, q) == p

    def test_reject_example(self):
        with pytest.raises(NotAFactorError):
            factor_out(parse("a"), parse("b"))

    def test_non_affine_rejected(self):
        with pytest.raises(NotAFactorError):
            factor_out(parse("ab"), parse("ab"))

    def test_remultiplication_fuzz(self):
        rng = random.Random(6)
        hits = 0
        while hits < 40:
            ell = Poly([1 << rng.randrange(6) for _ in range(rng.randrange(1, 4))] +
                       ([0] if rng.random() < 0.5 else []))
            if ell.degree() != 1:
                continue
            q0 = rand_poly(rng, 6, 10)
            p = mul(ell, q0)
            if not p:
                continue
            q = factor_out(p, ell)
            assert mul(ell, q) == p
            hits += 1

    def test_pivot_eliminated(self):
        p = mul(parse("a+b"), parse("c+d"))
        q = factor_out(p, parse("a+b"))
        assert 0 not in q.support()  # lowest VarId of the factor is gone
