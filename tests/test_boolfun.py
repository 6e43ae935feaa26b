import itertools
import random

import pytest

from invforge import boolfun, gf2, ring
from invforge.boolfun import (
    FORMAL_VARS, BoolFun6, ZERO_FUN, affine_factor_solutions, annihilators, affine_split,
    DegreeBoundError, SystemTooLargeError, is_absorber, load_boolfun,
    minimal_affine_factors, mobius, parse_anf, poly_from_anf_bits,
    random_boolfun, truth_table, vector_to_affine,
)
from invforge.ring import ONE, ZERO, add, mul, parse, product, var
from reference import affine_divisors, split_by_substitution


class TestMobius:
    def test_zero_and_constant(self):
        assert mobius(0) == 0
        const1 = (1 << 64) - 1
        assert mobius(const1) == 1  # only the constant coefficient

    def test_involution_fuzz(self):
        rng = random.Random(11)
        for _ in range(10000):
            t = rng.getrandbits(64)
            assert mobius(mobius(t)) == t

    def test_small_widths(self):
        rng = random.Random(12)
        for n in (1, 2, 3, 4):
            for _ in range(200):
                t = rng.getrandbits(1 << n)
                assert mobius(mobius(t, n), n) == t

    def test_against_pointwise_definition(self):
        rng = random.Random(13)
        for _ in range(50):
            anf = rng.getrandbits(16)
            tt = mobius(anf, 4)
            for x in range(16):
                val = 0
                for m in range(16):
                    if (anf >> m) & 1 and m & x == m:
                        val ^= 1
                assert (tt >> x) & 1 == val


class TestBoolFun6:
    def test_parse_examples(self):
        assert parse_anf("1").tt == (1 << 64) - 1
        proj = parse_anf("a")
        assert proj.tt.bit_count() == 32
        assert all(proj.value(x) == (x & 1) for x in range(64))

    def test_parse_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            parse_anf("a+g")

    def test_render_roundtrip(self):
        rng = random.Random(14)
        for _ in range(200):
            f = BoolFun6(rng.getrandbits(64))
            assert parse_anf(ring.render(f.instantiate(FORMAL_VARS))) == f

    def test_anf_truth_table_agree(self):
        rng = random.Random(15)
        for _ in range(100):
            f = BoolFun6(rng.getrandbits(64))
            p = f.instantiate(FORMAL_VARS)
            for x in range(64):
                assign = {i: (x >> i) & 1 for i in range(6)}
                assert p.evaluate(assign) == f.value(x)

    def test_instantiate_order_matters(self):
        f = parse_anf("ab")
        args = [ring.state_var(i) for i in (1, 2, 3, 4, 5, 6)]
        p = f.instantiate(args)
        assert p == mul(var(ring.state_var(1)), var(ring.state_var(2)))
        swapped = f.instantiate(args[::-1])
        assert swapped == mul(var(ring.state_var(6)), var(ring.state_var(5)))

    def test_load_auto_detect(self):
        f = random_boolfun(99)
        assert load_boolfun("%016x" % f.tt) == f
        assert load_boolfun("a+b\n") == parse_anf("a+b")

    def test_random_deterministic(self):
        assert random_boolfun(7) == random_boolfun(7)
        assert random_boolfun(7) != random_boolfun(8)


def brute_force_annihilator_dim(tt, n, degree):
    """Exhaustive oracle: count annihilators by pointwise AND of truth tables."""
    monomials = []
    for d in range(degree + 1):
        monomials.extend(m for m in range(1 << n) if bin(m).count("1") == d)
    count = 0
    for coeffs in range(1 << len(monomials)):
        g_tt = 0
        for x in range(1 << n):
            val = 0
            for j, m in enumerate(monomials):
                if (coeffs >> j) & 1 and m & x == m:
                    val ^= 1
            g_tt |= val << x
        if g_tt & tt == 0:
            count += 1
    return count.bit_length() - 1  # count == 2**dim


class TestAnnihilators:
    def test_single_variable(self):
        basis = annihilators(parse("a"), [0, 1], 1)
        assert any(g == parse("a+1") for g in basis)
        for g in basis:
            assert mul(parse("a"), g) == ZERO

    def test_zero_polynomial(self):
        basis = annihilators(ZERO, [0, 1, 2], 2)
        assert len(basis) == 1 + 3 + 3  # every candidate monomial

    def test_reference_function_special_annihilators(self, zref):
        zp1 = add(zref.instantiate(FORMAL_VARS), ONE)
        basis = annihilators(zp1, list(range(6)), 3)
        g1 = product([parse("f+e"), parse("d+a"), parse("b+c")])
        g2 = product([parse("f+e+1"), parse("d+a+1"), parse("b+c+1")])
        assert mul(zp1, g1) == ZERO
        assert mul(zp1, g2) == ZERO
        # both lie in the computed annihilator space
        from invforge import gf2
        variables = list(range(6))
        span_rows, _ = gf2.rref([_poly_vec(g, variables, 3) for g in basis], 64)
        for g in (g1, g2):
            assert _in_span(span_rows, _poly_vec(g, variables, 3))

    def test_every_basis_element_annihilates_fuzz(self):
        rng = random.Random(16)
        for _ in range(25):
            f = poly_from_anf_bits(rng.getrandbits(32), range(5))
            basis = annihilators(f, range(5), 2)
            for g in basis:
                assert mul(f, g) == ZERO

    def test_matches_exhaustive_oracle_sample(self):
        rng = random.Random(17)
        for _ in range(60):
            tt = rng.getrandbits(16)
            f = poly_from_anf_bits(mobius(tt, 4), range(4))
            basis = annihilators(f, range(4), 1)
            assert len(basis) == brute_force_annihilator_dim(tt, 4, 1)

    def test_degree_bound_error(self):
        with pytest.raises(DegreeBoundError):
            annihilators(parse("a"), [0], 2)

    def test_too_many_variables(self):
        # the limit is on the size of the system, not on the variable count
        with pytest.raises(SystemTooLargeError, match=r"2\^25 points"):
            annihilators(parse("a"), list(range(25)), 1)
        with pytest.raises(SystemTooLargeError, match="32768 support points x 65536"):
            annihilators(parse("a"), list(range(16)), 16)
        assert annihilators(parse("a"), list(range(13)), 1) == (parse("a+1"),)

    def test_unused_variables_allowed(self):
        basis = annihilators(parse("a"), [0, 1, 2], 1)
        assert len(basis) == 1
        assert basis[0] == parse("a+1")

    def test_degree3_annihilators_near_systematic(self):
        # recorded observation on a seeded stream: how often does f+1 admit
        # a nonzero degree-3 annihilator?  Each basis element is re-checked
        # by the exact product.
        hits = 0
        n = 2000
        for seed in range(n):
            f = random_boolfun(seed)
            fp1 = add(f.instantiate(FORMAL_VARS), ONE)
            basis = annihilators(fp1, range(6), 3)
            if len(basis) > 0:
                hits += 1
                if seed % 97 == 0:
                    for g in basis:
                        assert mul(fp1, g) == ZERO
        print("degree-3 annihilator frequency for f+1: %d/%d" % (hits, n))
        assert hits > 0  # recorded, not asserted as a specific value


def _poly_vec(p, variables, degree_bound):
    monomials = []
    for d in range(degree_bound + 1):
        monomials.extend(
            m for m in itertools.combinations(range(len(variables)), d))
    index = {}
    for j, combo in enumerate(monomials):
        mask = 0
        for i in combo:
            mask |= 1 << variables[i]
        index[mask] = j
    v = 0
    for t in p.terms:
        v |= 1 << index[t]
    return v


def _in_span(rref_rows, v):
    for row in rref_rows:
        pivot = row & -row
        if v & pivot:
            v ^= row
    return v == 0


class TestAbsorbers:
    def test_absorb_by_one(self):
        rng = random.Random(18)
        for _ in range(20):
            f = poly_from_anf_bits(rng.getrandbits(16), range(4))
            assert is_absorber(f, ONE)

    def test_simple_negative(self):
        assert not is_absorber(parse("a"), parse("b"))

    def test_equivalence_with_annihilation_fuzz(self):
        rng = random.Random(19)
        for _ in range(1000):
            f = poly_from_anf_bits(rng.getrandbits(16), range(4))
            g = poly_from_anf_bits(rng.getrandbits(16), range(4))
            assert is_absorber(f, g) == (mul(f, add(g, ONE)) == ZERO)

    def test_tables_decide_up_to_the_dense_limit_and_mul_past_it(self, monkeypatch):
        # the forms' 16 bits and six bits no letter holds make a 22-variable
        # union: mul decides there; over 20 variables the tables do
        forms = product([add(var(ring.state_var(2 * i + 1)), var(ring.state_var(2 * i + 2)))
                         for i in range(8)])
        instance = product([var(ring.state_var(i)) for i in (17, 18, 19, 20, 21, 22)])
        muls = []
        monkeypatch.setattr(boolfun, "mul", lambda *args: muls.append(1) or mul(*args))
        cases = [(forms, instance, False), (mul(forms, instance), instance, True),
                 (forms, product([var(ring.state_var(i)) for i in (17, 18, 19, 20)]), False),
                 (mul(forms, var(ring.state_var(17))), var(ring.state_var(17)), True)]
        for f, g, verdict in cases:
            del muls[:]
            assert is_absorber(f, g) == verdict == (mul(f, g) == f)
            assert len(muls) == (len(f.support() | g.support()) > ring.MAX_DENSE_VARS)
        assert [len(f.support() | g.support()) for f, g, _ in cases] == [22, 22, 20, 17]


# the sparse multiplications affine_split must not call (boolfun imports mul by name)
SPARSE_PRODUCTS = ((ring, "product"), (ring, "mul"), (boolfun, "mul"))


class TestAffineSplit:
    def test_full_product(self):
        p = product([parse("a+b"), parse("c+d+1"), parse("e+f")])
        factors, residual = affine_split(p)
        assert product(factors + [residual]) == p
        assert len(factors) == 3

    def test_irreducible(self):
        p = parse("ab+1")
        factors, residual = affine_split(p)
        assert factors == [] and residual == p

    def test_split_divides_out_the_factor_space_basis(self):
        rng = random.Random(34)
        split = 0
        for _ in range(150):
            variables = sorted(rng.sample(range(10), rng.randrange(1, 11)))
            p = poly_from_anf_bits(rng.getrandbits(1 << len(variables)), variables)
            for _ in range(rng.randrange(5)):
                vec = rng.getrandbits(len(variables) + 1)
                p = mul(p, vector_to_affine(vec, variables))
            factors, residual = affine_split(p)
            assert product(factors + [residual]) == p
            if not p or p == ONE:
                assert factors == []
                continue
            sup = sorted(p.support())
            basis = affine_factor_solutions(truth_table(p, sup), len(sup))
            assert len(factors) == len(basis)
            for ell in factors:
                assert ell.degree() == 1 and mul(ell, p) == p
            assert minimal_affine_factors(residual)[1] == []
            split += bool(factors)
        assert split > 50

    def test_split_matches_sequential_substitution_in_both_dialects(self):
        rng = random.Random(35)
        forms = [*range(ring.FORM_BASE, ring.N_VARS), *ring.PLACEHOLDERS]
        split = 0
        for pool in (range(ring.FORM_BASE), forms):
            for _ in range(100):
                variables = sorted(rng.sample(pool, rng.randrange(1, 11)))
                p = poly_from_anf_bits(rng.getrandbits(1 << len(variables)), variables)
                for _ in range(rng.randrange(5)):
                    p = mul(p, vector_to_affine(rng.getrandbits(len(variables) + 1), variables))
                got = affine_split(p)
                assert got == split_by_substitution(p)
                split += bool(got[0])
        assert split > 50

    @staticmethod
    def _forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("affine_split must not search spans, divide, substitute "
                                 "or multiply sparsely")

        for module, name in names:
            monkeypatch.setattr(module, name, forbidden)

    def test_split_is_one_solve(self, invariant_deg7, monkeypatch):
        solves, tables = [], []
        real_solve, real_table = gf2.solve_affine_ones, boolfun.truth_table
        monkeypatch.setattr(gf2, "solve_affine_ones",
                            lambda *args: solves.append(1) or real_solve(*args))
        monkeypatch.setattr(boolfun, "truth_table",
                            lambda *args: tables.append(1) or real_table(*args))
        self._forbid(monkeypatch, (boolfun, "minimal_affine_factors"), (ring, "factor_out"),
                     (ring, "substitute"), *SPARSE_PRODUCTS)
        factors, residual = affine_split(invariant_deg7)
        monkeypatch.undo()  # the checks below multiply
        assert solves == [1] and tables == [1]
        assert len(factors) == 7 and residual == ONE
        assert product(factors) == invariant_deg7

    def test_split_is_checked_on_tables(self, invariant_deg7, monkeypatch):
        # a residual one term off (its constant flipped) fails the check,
        # which multiplies nothing sparsely: the degree-7 invariant (seven
        # factors, residual 1) and ab + 1 (no factor)
        cases = [invariant_deg7, parse("ab+1")]
        real = boolfun.poly_from_anf_bits
        monkeypatch.setattr(boolfun, "poly_from_anf_bits",
                            lambda anf, variables: real(anf ^ 1, variables))
        self._forbid(monkeypatch, *SPARSE_PRODUCTS)
        for p in cases:
            with pytest.raises(ArithmeticError):
                affine_split(p)

    def test_minimal_factors_and_divisors_match_brute_force(self):
        # oracle: try every affine form over the support, divide by mul
        rng = random.Random(33)
        for _ in range(150):
            variables = sorted(rng.sample(range(10), rng.randrange(1, 7)))
            p = poly_from_anf_bits(rng.getrandbits(1 << len(variables)), variables)
            for _ in range(rng.randrange(4)):
                vec = rng.getrandbits(len(variables) + 1)
                p = mul(p, vector_to_affine(vec, variables))
            if not p:
                continue
            sup = sorted(p.support())
            divisors = set()
            for vec in range(2, 1 << (len(sup) + 1)):
                ell = vector_to_affine(vec, sup)
                if not mul(add(ell, ONE), p):
                    divisors.add(ell)
            assert affine_divisors(p) == divisors
            got_sup, vectors, table = minimal_affine_factors(p)
            assert got_sup == sup and table == truth_table(p, sup)
            smallest = min((len(d.support()) for d in divisors), default=None)
            assert ({vector_to_affine(v, sup) for v in vectors}
                    == {d for d in divisors if len(d.support()) == smallest})
            assert len(vectors) == len(set(vectors))

    def test_truth_table_roundtrip(self):
        rng = random.Random(20)
        for _ in range(50):
            anf = rng.getrandbits(32)
            p = poly_from_anf_bits(anf, range(5))
            tt = truth_table(p, range(5))
            assert poly_from_anf_bits(mobius(tt, 5), range(5)) == p
