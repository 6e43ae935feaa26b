"""Reference implementations the tests compare the commands' code against.

None of these is on a command's path, so they live with the tests.
"""

import re
import sys
from typing import Dict, List, Sequence, Tuple

from invforge import gf2, lab, ring
from invforge.boolfun import (
    MAX_SPLIT_VARS, BoolFun6, affine_factor_solutions, affine_span, truth_table, vector_to_affine,
)
from invforge.cipher import Wiring, round_system
from invforge.fe import PreparedInvariant, build_fe
from invforge.lab import A, B, C, D, E, F, G, H, Factorization
from invforge.lincycle import (
    AffineRound, PeriodEntry, _krylov_span, _prime_factors, _residue, _witness_search,
)
from invforge.ring import (
    ONE, ZERO, NotAFactorError, Poly, add, add_many, coef_var, form_var, mul, product,
    substitute, var, var_name,
)


# The functions whose ring.product call is the FE's sparse fold: fe.build_fe
# folding the images.  Any other caller is a substitution's group product
# (ring.substitute) or a test's own.
FOLD_CALLERS = ("build_fe",)


def spy_products(monkeypatch) -> List[Tuple[str, int]]:
    """Patch ring.product to record (the calling function's name, the
    result's term count) for each call; returns the list it appends to."""
    calls = []
    real = ring.product

    def spy(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        out = real(*args, **kwargs)
        calls.append((caller, len(out)))
        return out

    monkeypatch.setattr(ring, "product", spy)
    return calls


def folds(calls: Sequence[Tuple[str, int]]) -> int:
    """How many of spy_products' calls were the FE's sparse fold."""
    return sum(caller in FOLD_CALLERS for caller, _ in calls)


def substitute_coefficients(p: Poly, fun: BoolFun6) -> Poly:
    """Replace every Z00..Z63 symbol by the function's concrete ANF bit."""
    assignment = {coef_var(j): (ONE if (fun.anf >> j) & 1 else ZERO)
                  for j in range(64)}
    return substitute(p, assignment)


def check_candidate(fe_symbolic: Poly, fun: BoolFun6) -> bool:
    """Does a concrete function solve the symbolic FE?"""
    return not substitute_coefficients(fe_symbolic, fun)


def table_depends(table: int, n: int, i: int) -> bool:
    """Does the function with this n-input truth table depend on input i:
    do its two halves at input i = 0 and input i = 1 differ?"""
    return bool((table ^ table >> (1 << i)) & ring.affine_table(1 | 2 << i, n))


def expand_forms_by_substitution(p: Poly) -> Poly:
    """lab.expand_forms by sparse substitution of each letter's two bits."""
    return substitute(p, {form_var(n): f for n, f in lab.form_bank().items()})


def alternate_invariant_factors_forms() -> List[Poly]:
    return [add_many((ONE, A, H)), add_many((B, H)), add_many((ONE, C, H)),
            add_many((D, H)), add_many((E, H)), add_many((ONE, F, H)), add_many((G, H))]


def alternate_invariant() -> Poly:
    """The second published degree-7 product (regression target).

    Computed fact: this product expands to the same canonical polynomial as
    lab.product_invariant() - the two factor lists are one more witness of
    non-unique factorization, both describing the indicator of one pair of
    antipodal form-assignments.
    """
    return product([expand_forms_by_substitution(f)
                    for f in alternate_invariant_factors_forms()])


def affine_divisors(p: Poly) -> frozenset:
    """All nonconstant affine ell with (ell+1)*p = 0, by exhaustive span."""
    sup = sorted(p.support())
    if not sup:
        return frozenset()
    basis = affine_factor_solutions(truth_table(p, sup), len(sup))
    if len(basis) > 14:
        raise ValueError("affine divisor span has dimension %d > 14" % len(basis))
    return frozenset(vector_to_affine(v, sup) for v in affine_span(basis) if v >> 1)


def parse_per_character(text: str, dialect: str = "state") -> Poly:
    """ring.parse as it was: the dialect by a regular expression, each term
    that is a run of single-letter names ORed from their VarId masks one
    character at a time, any other term read by ring._term_mask."""
    if dialect == "auto":
        dialect = "forms" if re.search(r"[A-EGH]", text) else "state"
    names = ring._NAME_BITS[dialect]
    terms, start = [], 0
    for term in text.split("+"):
        mask = 0
        try:
            for c in term:
                mask |= names[c]
        except KeyError:
            mask = 0
        if not mask:  # any other term, the empty one included
            mask = ring._term_mask(term, start, dialect, names)
        if mask is not None:
            terms.append(mask)
        start += len(term) + 1
    return Poly(terms)


def anf_bits_per_bit(p: Poly, variables: Sequence[int]) -> int:
    """ANF coefficient vector of p, one loop step per set bit of a monomial."""
    pos = {v: 1 << i for i, v in enumerate(variables)}
    anf = 0
    for t in p.terms:
        idx = 0
        while t:
            low = t & -t
            bit = pos.get(low.bit_length() - 1)
            if bit is None:
                raise ValueError("polynomial uses %s outside the declared variables"
                                 % var_name(low.bit_length() - 1))
            idx |= bit
            t ^= low
        anf |= 1 << idx
    return anf


def factor_out_on_tables(p: Poly, ell: Poly) -> Poly:
    """ring.factor_out on p's truth table and ell's vector, ell affine, over
    the sorted union of their supports."""
    variables = sorted(p.support() | ell.support())
    vec = sum(2 << variables.index(t.bit_length() - 1) if t else 1 for t in ell.terms)
    return ring.factor_out(truth_table(p, variables), vec, variables)


def factor_out_by_substitution(p: Poly, ell: Poly) -> Poly:
    """Sparse division: check (ell+1)*p = 0 by mul, substitute the pivot (the
    lowest VarId of ell) by pivot + ell + 1, check ell*q = p by mul."""
    if ell.degree() > 1:
        raise NotAFactorError("factor is not affine")
    if mul(add(ell, ONE), p):
        raise NotAFactorError("does not divide")
    linear = [t for t in ell.terms if t]
    if not linear:
        return p
    pivot = min(t.bit_length() - 1 for t in linear)
    q = substitute(p, {pivot: add(add(var(pivot), ell), ONE)})
    assert mul(ell, q) == p
    return q


def split_by_substitution(p: Poly) -> Tuple[List[Poly], Poly]:
    """affine_split by sparse substitution: x_top -> x_top + h, one basis
    vector h at a time, on the shrinking residual."""
    sup = sorted(p.support())
    if not sup or len(sup) > MAX_SPLIT_VARS:
        return [], p
    factors, residual = [], p
    for h in affine_factor_solutions(truth_table(p, sup), len(sup)):
        top = h.bit_length() - 1
        factors.append(vector_to_affine(h ^ 1, sup))
        residual = substitute(residual, {sup[top - 1]: vector_to_affine(h ^ (1 << top), sup)})
    return factors, residual


def matches_presentation(chain: Factorization, factors: Sequence[Poly],
                         bracket: Poly) -> bool:
    """Does some division prefix of the chain realize a printed factorization?

    A prefix matches when its quotient equals the printed cofactor and the
    affine divisors of the prefix product are exactly the printed factor
    set (printed presentations list dependent factors, e.g. three pairwise
    sums whose product equals that of any two of them).
    """
    want = frozenset(factors)
    for k in range(1, len(chain.factors) + 1):
        if chain.nodes[k - 1] != bracket:
            continue
        if affine_divisors(product(chain.factors[:k])) == want:
            return True
    return False


def verify_by_product(chain: Factorization) -> bool:
    """Factorization.verify as first written: the chain multiplied out by
    the sparse fold equals the root."""
    return product(chain.factors + (chain.leaf,)) == chain.root


def render_wiring(w: Wiring) -> str:
    return "D = %s\nP = %s\n" % (",".join(map(str, w.d)), ",".join(map(str, w.p)))


def states_to_lanes(states: Sequence[int]) -> List[int]:
    lanes = [0] * 36
    for j, s in enumerate(states):
        for i in range(36):
            if (s >> i) & 1:
                lanes[i] |= 1 << j
    return lanes


def affine_apply(ar: AffineRound, state: int, f_bit: int, k_bit: int, l_bit: int) -> int:
    """One zero-function round through the extracted affine map."""
    out = gf2.mat_vec(ar.matrix, state)
    if f_bit:
        out ^= ar.offset_f
    if k_bit:
        out ^= ar.offset_k
    if l_bit:
        out ^= ar.offset_l
    return out


def periods_by_full_system(ar: AffineRound, max_period: int) -> List[PeriodEntry]:
    """linear_invariant_periods over all of F2^36: per period k, one
    (36 + |K|)-row system, the rows of (M^T)^k + I and of K, the offsets'
    Krylov span."""
    n = 36
    m_t = gf2.transpose(ar.matrix, n)
    offset_span = _krylov_span(ar.matrix, (ar.offset_f, ar.offset_k, ar.offset_l))
    bases: Dict[int, List[int]] = {}
    entries: List[PeriodEntry] = []
    mt_pow = gf2.identity(n)
    for k in range(1, max_period + 1):
        mt_pow = gf2.mat_mul(m_t, mt_pow, n)
        rows = [mt_pow[i] ^ (1 << i) for i in range(n)] + offset_span
        basis = bases[k] = gf2.kernel_basis(rows, n)
        if not basis:
            continue
        maximal = sorted({k // p for p in _prime_factors(k)})
        if any(len(bases[d]) == len(basis) for d in maximal):
            continue
        excluded = [bases[d] for d in maximal]
        witnesses = [b for b in basis if all(_residue(ex, b) for ex in excluded)]
        if not witnesses:
            witnesses = [_witness_search(basis, excluded)]
        entries.append(PeriodEntry(k, len(basis), tuple(basis), tuple(witnesses)))
    return entries


TRIVIAL_OUTPUTS = sum(1 << i for i in range(1, 36) if i % 4)  # the bits y_{i+1} = x_i


def step_by_closure(state: int, w: Wiring, fun: BoolFun6,
                    f_bit: int, k_bit: int, l_bit: int) -> int:
    """cipher.step as first written: each input read through a per-bit
    closure, the wiring through Wiring.D and the function through value()."""
    def x(bit: int) -> int:
        return k_bit if bit == 0 else (state >> (bit - 1)) & 1

    p = w.p
    z1 = fun.value(l_bit | (x(p[0]) << 1) | (x(p[1]) << 2)
                   | (x(p[2]) << 3) | (x(p[3]) << 4) | (x(p[4]) << 5))
    z2 = fun.value(x(p[6]) | (x(p[7]) << 1) | (x(p[8]) << 2)
                   | (x(p[9]) << 3) | (x(p[10]) << 4) | (x(p[11]) << 5))
    z3 = fun.value(x(p[13]) | (x(p[14]) << 1) | (x(p[15]) << 2)
                   | (x(p[16]) << 3) | (x(p[17]) << 4) | (x(p[18]) << 5))
    z4 = fun.value(x(p[20]) | (x(p[21]) << 1) | (x(p[22]) << 2)
                   | (x(p[23]) << 3) | (x(p[24]) << 4) | (x(p[25]) << 5))
    out = (state << 1) & TRIVIAL_OUTPUTS
    acc = f_bit
    out |= (acc ^ x(w.D(9))) << 32                     # y33
    acc ^= z1
    out |= (acc ^ x(w.D(8))) << 28                     # y29
    acc ^= x(p[5])
    out |= (acc ^ x(w.D(7))) << 24                     # y25
    acc ^= z2
    out |= (acc ^ x(w.D(6))) << 20                     # y21
    acc ^= x(p[12])
    out |= (acc ^ x(w.D(5))) << 16                     # y17
    acc ^= l_bit ^ z3
    out |= (acc ^ x(w.D(4))) << 12                     # y13
    acc ^= x(p[19])
    out |= (acc ^ x(w.D(3))) << 8                      # y9
    acc ^= z4
    out |= (acc ^ x(w.D(2))) << 4                      # y5
    acc ^= x(p[26])
    out |= acc ^ x(w.D(1))                             # y1
    return out


def reference_wiring_steps(w: Wiring) -> Dict[str, bool]:
    """The function-free step verdicts of lab.verify_attack, computed as it
    first did: the one-round difference by substituting the whole of P, and
    mu times the bracket multiplied over state bits.  The bracket is read
    through lab, so a test that replaces it there replaces it here too."""
    bank = lab.form_bank()
    Yv, Wv = var(ring.PLACEHOLDER_Y), var(ring.PLACEHOLDER_W)
    rs = round_system(w, "placeholder")
    P = lab.product_invariant()
    mu, bracket = lab.core_product_forms(), lab.bracket_with_instances()
    derived = substitute(bracket, {ring.PLACEHOLDER_Y: ONE, ring.PLACEHOLDER_W: ONE})
    final = lab.final_bracket()
    return {
        "output-differences": add(rs.output(9), rs.output(5)) == add(Wv, bank["A"])
        and add(rs.output(25), rs.output(21)) == add(Yv, bank["E"]),
        "regrouped-difference": add(P, substitute(P, rs.as_substitution()))
        == mul(expand_forms_by_substitution(mu), expand_forms_by_substitution(bracket)),
        "core-factorizations": all(product(fs + [b]) == mu for fs, b in
                                   (lab.core_factorization_a(), lab.core_factorization_b())),
        "final-bracket": derived == final and not mul(mu, final),
    }


def reference_function_steps(w: Wiring, fun) -> Dict[str, bool]:
    """The function's step verdicts of lab.verify_attack, each product
    identity X*I = X decided by sparse mul over state bits."""
    bank = lab.form_bank()
    args = w.z_args
    Y, W = fun.instantiate(args[1]), fun.instantiate(args[3])
    CHF, BDG = (product([bank[n] for n in names]) for names in ("CHF", "BDG"))
    cCHF, cBDG = (product([add(bank[n], ONE) for n in names]) for names in ("CHF", "BDG"))
    mu = expand_forms_by_substitution(lab.core_product_forms())
    fe = build_fe(PreparedInvariant(*ring.localize(lab.product_invariant())),
                  round_system(w, "expanded", fun))
    return {
        "absorption": mul(CHF, W) == CHF and mul(BDG, Y) == BDG,
        "complement-absorption": mul(cCHF, W) == cCHF and mul(cBDG, Y) == cBDG,
        "core-absorption": mul(Y, mu) == mu and mul(W, mu) == mu,
        "fundamental-equation": fe.is_zero and not fe.depends_on,
    }
