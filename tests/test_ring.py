import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invforge import ring
from invforge.boolfun import vector_to_affine
from invforge.ring import (
    ONE, ZERO, NotAFactorError, ParseError, Poly, UnassignedVariableError,
    add, evaluate, factor_out, mul, parse, render, state_var, substitute, var,
)
from reference import anf_bits_per_bit, factor_out_by_substitution

# VarId pools of the two text dialects: the state dialect's variables span
# the monomial bytes of the state bits, F/K/L, the placeholders and Z00..Z63;
# the forms dialect's are A..H and the placeholders
STATE_DIALECT_VARS = range(ring.FORM_BASE)
FORMS_DIALECT_VARS = [*range(ring.FORM_BASE, ring.N_VARS), *ring.PLACEHOLDERS]


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

    def test_render_refuses_form_f_alone(self):
        # auto-detection would read a lone form F as the round bit F
        for text in ("F+Z", "F", "FW+1"):
            with pytest.raises(ValueError, match="round bit"):
                render(parse(text, dialect="forms"))
        p = parse("BF+Z", dialect="forms")
        assert parse(render(p), dialect="auto") == p

    def test_render_forms_dialect_allows_form_f_alone(self):
        for text in ("F+Z", "F", "FW+1"):
            p = parse(text, dialect="forms")
            assert parse(render(p, "forms"), dialect="forms") == p
        with pytest.raises(ValueError, match="mixed"):
            render(add(parse("F", dialect="forms"), parse("a")), "forms")

    @pytest.mark.parametrize("text,dialect,message,position", [
        ("a+ +b", "state", "empty term", 2),
        ("ab+", "state", "empty term", 3),
        ("b+1 a", "state", "constant may not be multiplied implicitly", 4),
        ("0*Z00", "state", "constant may not be multiplied implicitly", 2),
        ("c+Z62 jh", "state", "missing '*' after multi-character name", 6),
        ("ab+c?d", "state", "unknown variable '?'", 4),
        ("aZ64", "state", "unknown variable 'Z64'", 1),
        ("AZ07", "forms", "unknown variable '0'", 2),  # no Z00..Z63 in forms
    ])
    def test_parse_error_positions(self, text, dialect, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, dialect)
        assert err.value.position == position
        assert str(err.value) == "%s (at position %d)" % (message, position)

    @given(st.lists(st.lists(st.integers(0, ring.FORM_BASE - 1), max_size=6), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_state_roundtrip(self, terms):
        # state bits, F/K/L, Z/Y/X/W and Z00..Z63
        p = Poly(sum(1 << v for v in set(t)) for t in terms)
        assert parse(render(p), dialect="auto") == p

    @given(st.lists(st.lists(st.sampled_from(
        [ring.form_var(c) for c in ring.FORM_LETTERS] + list(ring.PLACEHOLDERS)),
        max_size=6), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_forms_roundtrip(self, terms):
        p = Poly(sum(1 << v for v in set(t)) for t in terms)
        assume(p.support() & {ring.form_var(c) for c in "ABCDEGH"})
        assert parse(render(p), dialect="auto") == p

    @given(st.sampled_from(["state", "forms"]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_letter_runs_read_like_spaced_names(self, dialect, data):
        letters = (ring.STATE_LETTERS + "FKLZYXW" if dialect == "state"
                   else ring.FORM_LETTERS + "ZYXW")
        terms = data.draw(st.lists(st.text(letters, min_size=1, max_size=8),
                                   min_size=1, max_size=6))
        run = parse("+".join(terms), dialect)
        assert parse("+".join(" * ".join(t) for t in terms), dialect) == run
        assert parse("+".join(" ".join(t) for t in terms), dialect) == run

    def test_duplicate_letters_collapse(self):
        assert parse("aa") == parse("a")
        assert parse("a+a") == ZERO

    def test_roundtrip_fuzz(self):
        rng = random.Random(1)
        for _ in range(300):
            p = rand_poly(rng)
            assert parse(render(p)) == p


# Eight VarIds from across the universe: state bits, the round bit F, a
# coefficient symbol and the last form letter.
LAW_VARS = (0, 1, 2, 3, ring.N_STATE - 1, ring.F_BIT, ring.COEF_BASE, ring.N_VARS - 1)


def law_polys(max_terms=12):
    """Polynomials over LAW_VARS, zero and single monomials included."""
    return st.lists(st.integers(0, 255), max_size=max_terms).map(
        lambda xs: Poly(sum(1 << v for i, v in enumerate(LAW_VARS) if x >> i & 1)
                        for x in xs))


class TestRingLaws:
    @settings(max_examples=200, deadline=None)
    @given(law_polys(), law_polys(), law_polys())
    def test_mul_laws(self, p, q, r):
        assert mul(p, q) == mul(q, p)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, p) == p
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))

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


@st.composite
def factor_lists(draw):
    """Factor lists over 0-22 variables: random factors, ZERO, ONE and
    repeats of earlier factors; the list may be empty."""
    nvars = draw(st.integers(0, 22))
    variables = draw(st.permutations(range(ring.N_VARS)))[:nvars]
    ps = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "random", "random", "zero", "one", "repeat"]))
        if kind == "zero":
            ps.append(ZERO)
        elif kind == "one":
            ps.append(ONE)
        elif kind == "repeat" and ps:
            ps.append(draw(st.sampled_from(ps)))
        else:
            subsets = draw(st.lists(st.integers(0, (1 << nvars) - 1), max_size=6))
            ps.append(Poly(sum(1 << variables[i] for i in range(nvars) if x >> i & 1)
                           for x in subsets))
    return ps


def _support(ps):
    return sorted(set().union(*(p.support() for p in ps)))


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(factor_lists(), st.randoms(use_true_random=False))
    def test_dense_and_sparse_agree_with_mul_fold(self, ps, rnd):
        fold = functools.reduce(mul, ps, ONE)
        assert ring.product(ps) == fold
        shuffled = list(ps)
        rnd.shuffle(shuffled)
        assert ring.product(shuffled) == fold
        sup = _support(ps)
        if len(sup) <= ring.MAX_DENSE_VARS:
            assert ring._dense_product(ps, sup) == fold

    @settings(max_examples=150, deadline=None)
    @given(factor_lists(), st.integers(0, 40))
    def test_dense_budget_is_on_the_result(self, ps, budget):
        fold = functools.reduce(mul, ps, ONE)
        sup = _support(ps)
        if len(sup) <= ring.MAX_DENSE_VARS:
            if len(fold) > budget:
                with pytest.raises(ring.TermBudgetError):
                    ring._dense_product(ps, sup, budget)
            else:
                assert ring._dense_product(ps, sup, budget) == fold
        if len(fold) > budget:  # both branches refuse an oversized result
            with pytest.raises(ring.TermBudgetError):
                ring.product(ps, budget)

    @settings(max_examples=150, deadline=None)
    @given(factor_lists(), st.integers(0, 3))
    def test_product_table_and_its_dependence(self, ps, extra):
        # over the support and extra unused variables: affine factors take
        # affine_table, the others their ANF; the product's ANF holds a
        # variable iff its table depends on it
        fold = functools.reduce(mul, ps, ONE)
        variables = sorted(set(_support(ps)) | {60 + i for i in range(extra)})
        assume(len(variables) <= 16)
        n = len(variables)
        table = ring.product_table(ps, variables)
        assert table == ring.mobius(ring.anf_bits(fold, variables), n)
        assert [ring.table_depends(table, n, i) for i in range(n)] == [
            v in fold.support() for v in variables]

    def test_branch_choice_at_the_variable_limit(self, monkeypatch):
        dense_calls = []
        real = ring._dense_product

        def spy(*args):
            dense_calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(ring, "_dense_product", spy)

        def affine(lo, hi):
            return add(ONE, Poly(1 << v for v in range(lo, hi)))

        a = affine(0, 10)  # a*a = a keeps the mul fold small
        # 20 variables and 11^6 pairs > 2^20: dense
        ps = [a] * 5 + [affine(10, 20)]
        assert ring.product(ps) == mul(a, affine(10, 20))
        assert dense_calls == [list(range(20))]
        # 21 variables: sparse, although 11^6 * 12 pairs > 2^21
        ps = [a] * 6 + [affine(10, 21)]
        assert ring.product(ps) == mul(a, affine(10, 21))
        assert len(dense_calls) == 1
        # 3 variables but only 2^3 pairs: sparse
        assert ring.product([parse("a+b"), parse("b+c"), parse("a+c")]) == ZERO
        assert len(dense_calls) == 1

    def test_anf_roundtrip_and_decoder(self):
        rng = random.Random(8)
        for n in (0, 1, 5, 11, 14):
            variables = sorted(rng.sample(range(ring.N_VARS), n))
            anf = rng.getrandbits(1 << n)
            p = ring.poly_from_anf_bits(anf, variables)
            masks = ring.monomial_masks(variables)
            assert p.terms == {masks[i] for i in range(1 << n) if anf >> i & 1}
            assert ring.anf_bits(p, variables) == anf
        # a repeated variable merges x*x = x, equal monomials cancel mod 2
        assert ring.poly_from_anf_bits(0b1110, [0, 0]) == parse("a")
        # bits past 2^n name no monomial
        assert ring.poly_from_anf_bits(0b110, [0]) == parse("a")
        with pytest.raises(ValueError):
            ring.anf_bits(parse("ab"), [0])


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
    @settings(max_examples=200, deadline=None)
    @given(law_polys(), law_polys(),
           st.dictionaries(st.sampled_from(LAW_VARS), law_polys(4), max_size=4))
    def test_is_a_ring_homomorphism(self, p, q, mapping):
        sub_p, sub_q = substitute(p, mapping), substitute(q, mapping)
        assert substitute(mul(p, q), mapping) == mul(sub_p, sub_q)
        assert substitute(add(p, q), mapping) == add(sub_p, sub_q)

    @settings(max_examples=200, deadline=None)
    @given(law_polys(), st.sampled_from(LAW_VARS), st.sampled_from(LAW_VARS))
    def test_swap_twice_is_the_identity(self, p, a, b):
        swap = {a: var(b), b: var(a)}
        assert substitute(substitute(p, swap), swap) == p

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

    def test_matches_substitution_in_both_dialects(self):
        rng = random.Random(61)
        divided = refused = 0
        for pool in (STATE_DIALECT_VARS, FORMS_DIALECT_VARS):
            for _ in range(200):
                variables = sorted(rng.sample(pool, rng.randrange(1, 11)))
                n = len(variables)
                ell = vector_to_affine(rng.getrandbits(n + 1), variables)
                p = ring.poly_from_anf_bits(rng.getrandbits(1 << n), variables)
                if rng.random() < 0.7:
                    p = mul(ell, p)
                try:
                    want = factor_out_by_substitution(p, ell)
                except NotAFactorError:
                    with pytest.raises(NotAFactorError):
                        factor_out(p, ell)
                    refused += 1
                    continue
                assert factor_out(p, ell) == want
                divided += 1
        assert divided > 250 and refused > 50

    def test_refuses_more_than_max_dense_vars(self):
        n = ring.MAX_DENSE_VARS + 1
        p = mul(parse("a+1"), Poly([(1 << n) - 2]))  # b...u, times a + 1
        with pytest.raises(ValueError, match="over %d variables" % n) as err:
            factor_out(p, parse("a+1"))
        assert not isinstance(err.value, NotAFactorError)


class TestTruthTableDivision:
    def test_anf_bits_matches_per_bit_reading(self):
        # variables in any order, from every monomial byte
        rng = random.Random(62)
        groups = [range(ring.N_STATE), (ring.F_BIT, ring.K_BIT, ring.L_BIT),
                  range(ring.COEF_BASE, ring.FORM_BASE), range(ring.FORM_BASE, ring.N_VARS)]
        for _ in range(200):
            variables = [v for g in groups for v in rng.sample(g, rng.randrange(4))]
            rng.shuffle(variables)
            n = len(variables)
            dense = rng.getrandbits(1 << n)
            sparse = 0
            for _ in range(rng.randrange(6)):
                sparse |= 1 << rng.randrange(1 << n)
            for anf in (dense, sparse):
                p = ring.poly_from_anf_bits(anf, variables)
                assert ring.anf_bits(p, variables) == anf_bits_per_bit(p, variables) == anf

    def test_anf_bits_names_the_undeclared_variable(self):
        p = parse("ab+Z05*c")
        for read in (ring.anf_bits, anf_bits_per_bit):
            with pytest.raises(ValueError, match="^polynomial uses Z05 outside the "
                                                 "declared variables$"):
                read(p, [0, 1, 2])

    def test_restrict_is_substitution_pointwise(self):
        rng = random.Random(63)
        for n in range(1, 9):
            variables = sorted(rng.sample(range(ring.N_VARS), n))
            for i in range(n):
                table = rng.getrandbits(1 << n)
                low = ring._zero_bit_mask(i, n)
                image = rng.getrandbits(1 << n) & low
                image |= image << (1 << i)  # a function of the other inputs
                out = ring.restrict(table, n, i, image)
                p = ring.poly_from_anf_bits(ring.mobius(table, n), variables)
                g = ring.poly_from_anf_bits(ring.mobius(image, n), variables)
                assert variables[i] not in g.support()
                for x in range(1 << n):
                    point = {v: x >> j & 1 for j, v in enumerate(variables)}
                    point[variables[i]] = g.evaluate(point)
                    assert out >> x & 1 == p.evaluate(point), (n, i, x)

    def test_affine_table_pointwise(self):
        rng = random.Random(64)
        for n in range(9):
            variables = sorted(rng.sample(range(ring.N_VARS), n))
            vecs = {0, 1, *(2 << i for i in range(n)), *(rng.getrandbits(n + 1) for _ in range(8))}
            for vec in vecs:
                table = ring.affine_table(vec, n)
                ell = vector_to_affine(vec, variables)
                for x in range(1 << n):
                    point = {v: x >> j & 1 for j, v in enumerate(variables)}
                    assert table >> x & 1 == ell.evaluate(point), (n, vec, x)
