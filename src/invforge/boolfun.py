"""6-input Boolean functions and annihilator/absorber spaces.

Truth tables are plain ints (bit k = value at input point k, where bit i of
k is the i-th formal argument).  The formal arguments of a 6-input function
are written a..f, reusing the first six state letters as ring variables.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Sequence, Tuple

from . import gf2, ring
from .ring import Poly, UsageError, _ones, anf_bits, mobius, mul, poly_from_anf_bits

FORMAL_VARS = tuple(range(6))  # VarIds of a..f

# Entries (support points x monomials) of the largest annihilator system: the
# largest one a 12-variable cap admitted, 2^12 points by 2^12 monomials.
MAX_ANNIHILATOR_SYSTEM = 1 << 24


class SystemTooLargeError(UsageError):
    pass


class DegreeBoundError(UsageError):
    pass


def truth_table(p: Poly, variables: Sequence[int]) -> int:
    """Truth table of p over an explicit ordered variable list."""
    return mobius(anf_bits(p, variables), len(variables))


class BoolFun6:
    """A Boolean function on 6 ordered inputs; truth-table and ANF views."""

    __slots__ = ("tt", "anf")

    def __init__(self, truth_table: int):
        tt = truth_table & ((1 << 64) - 1)
        object.__setattr__(self, "tt", tt)
        object.__setattr__(self, "anf", mobius(tt, 6))

    def __setattr__(self, *a):
        raise AttributeError("BoolFun6 is immutable")

    def __eq__(self, other):
        return isinstance(other, BoolFun6) and self.tt == other.tt

    def __hash__(self):
        return hash(self.tt)

    def __repr__(self):
        return "BoolFun6(0x%016x)" % self.tt

    def value(self, point: int) -> int:
        return (self.tt >> (point & 63)) & 1

    def instantiate(self, args: Sequence[int]) -> Poly:
        """Compose with an ordered list of 6 single variables (VarIds).

        The argument order is significant: ANF coefficient bit i selects
        args[i].
        """
        if len(args) != 6:
            raise ValueError("exactly 6 arguments required")
        return poly_from_anf_bits(self.anf, args)


ZERO_FUN = BoolFun6(0)


def parse_anf(text: str) -> BoolFun6:
    """Parse ANF text in the formal arguments a..f."""
    p = ring.parse(text, dialect="state")
    bad = [v for v in p.support() if v not in FORMAL_VARS]
    if bad:
        raise UsageError("variable outside a..f: %s"
                         % ",".join(ring.var_name(v) for v in sorted(bad)))
    return BoolFun6(truth_table(p, FORMAL_VARS))


def load_boolfun(text: str) -> BoolFun6:
    """Auto-detect a function file: 16 hex digits (truth table) or ANF text."""
    stripped = "".join(text.split())
    if len(stripped) == 16 and all(c in "0123456789abcdefABCDEF" for c in stripped):
        return BoolFun6(int(stripped, 16))
    return parse_anf(text)


def random_boolfun(seed: int) -> BoolFun6:
    """Uniform seeded random function."""
    return BoolFun6(random.Random(seed).getrandbits(64))


# ---------------------------------------------------------------------------
# Annihilators and absorbers.

def _monomials_up_to(variables: Sequence[int], bound: int) -> List[Tuple[int, int]]:
    """(ANF index, monomial mask) of each variable subset of size <= bound,
    in graded-lex order."""
    out = []
    for d in range(bound + 1):
        for combo in itertools.combinations(range(len(variables)), d):
            idx = mask = 0
            for i in combo:
                idx |= 1 << i
                mask |= 1 << variables[i]
            out.append((idx, mask))
    return out


def annihilators(f: Poly, variables: Sequence[int], degree_bound: int) -> Tuple[Poly, ...]:
    """Basis of {g : deg(g) <= degree_bound, f*g = 0} over GF(2).

    Works on the truth table of f over the declared (ordered-by-VarId)
    variable set: g annihilates f iff g vanishes on every point where
    f is 1, one row per support point and one column per monomial.  The
    basis is returned in reduced row echelon form over the graded-lex
    monomial ordering.  Raises UsageError when the variables miss some of
    f's, DegreeBoundError unless 0 <= degree_bound <= len(variables),
    SystemTooLargeError when that system has more than
    MAX_ANNIHILATOR_SYSTEM entries or its truth table more than 2^MAX_DENSE_VARS points.
    """
    variables = tuple(sorted(variables))
    n = len(variables)
    outside = f.support().difference(variables)
    if outside:
        raise UsageError("polynomial uses %s outside the declared variables"
                         % ",".join(ring.var_name(v) for v in sorted(outside)))
    if not 0 <= degree_bound <= n:
        raise DegreeBoundError("degree bound %d is outside 0..%d (the number of variables)"
                               % (degree_bound, n))
    if n > ring.MAX_DENSE_VARS:
        raise SystemTooLargeError("truth table of 2^%d points exceeds the 2^%d-point limit"
                                  % (n, ring.MAX_DENSE_VARS))
    points = _ones(truth_table(f, variables))
    ncols = sum(math.comb(n, d) for d in range(degree_bound + 1))
    if len(points) * ncols > MAX_ANNIHILATOR_SYSTEM:
        raise SystemTooLargeError(
            "linear system of %d support points x %d monomials = %d entries "
            "exceeds the %d-entry limit"
            % (len(points), ncols, len(points) * ncols, MAX_ANNIHILATOR_SYSTEM))
    monomials = _monomials_up_to(variables, degree_bound)
    rows = []
    for x in points:
        row = 0
        for j, (m, _) in enumerate(monomials):
            if m & x == m:
                row |= 1 << j
        rows.append(row)
    kernel = gf2.kernel_basis(rows, ncols)
    reduced, _ = gf2.rref(kernel, ncols)
    return tuple(Poly(mask for j, (_, mask) in enumerate(monomials) if (vec >> j) & 1)
                 for vec in reduced)


def is_absorber(f: Poly, g: Poly) -> bool:
    """True iff f*g = f (equivalently f*(g+1) = 0): f's table & ~g's table
    == 0 over their union support where it has at most ring.MAX_DENSE_VARS
    variables, the product by mul past that, under ring.DEFAULT_BUDGET."""
    variables = sorted(f.support() | g.support())
    if len(variables) > ring.MAX_DENSE_VARS:
        return mul(f, g, ring.DEFAULT_BUDGET) == f
    return not truth_table(f, variables) & ~truth_table(g, variables)


# ---------------------------------------------------------------------------
# Affine factor extraction (used by the FE engine and the factor explorer).

MAX_SPLIT_VARS = 16


def affine_factor_solutions(table: int, n: int) -> List[int]:
    """Homogeneous basis of the affine ell with ell = 1 wherever the n-input
    truth table is 1, bit 0 the constant term: the affine factors of the
    table's polynomial are 1 + the span of the basis (affine_span)."""
    return gf2.solve_affine_ones(_ones(table), n)


def vector_to_affine(vec: int, variables: Sequence[int]) -> Poly:
    terms = []
    if vec & 1:
        terms.append(0)
    for i, v in enumerate(variables):
        if (vec >> (i + 1)) & 1:
            terms.append(1 << v)
    return Poly(terms)


def affine_span(basis: Sequence[int]) -> List[int]:
    """Every vector 1 + (a combination of basis), 2^len(basis) of them; over
    the basis of affine_factor_solutions, every affine factor."""
    span = [1]
    for b in basis:
        span += [v ^ b for v in span]
    return span


def minimal_affine_factors(p: Poly) -> Tuple[List[int], List[int], Optional[int]]:
    """(support, vectors, table) of the nonconstant affine factors of smallest support.

    The affine ell dividing p are exactly those with ell = 1 wherever p = 1
    (the set 1 + Ann_1(p)); the whole solution span, at most 2^16 vectors
    within MAX_SPLIT_VARS variables, is searched on table, p's truth table
    over its sorted support.  Vectors are over that support as in
    vector_to_affine.  No vectors when p is zero or constant, and neither
    vectors nor table (None) over more than MAX_SPLIT_VARS variables.
    """
    sup = sorted(p.support())
    if len(sup) > MAX_SPLIT_VARS:
        return sup, [], None
    table = truth_table(p, sup)
    best, out = len(sup) + 1, []
    for vec in affine_span(affine_factor_solutions(table, len(sup))):
        weight = (vec >> 1).bit_count()
        if weight == best:
            out.append(vec)
        elif 0 < weight < best:
            best, out = weight, [vec]
    return sup, out, table


def affine_split(p: Poly) -> Tuple[List[Poly], Poly]:
    """Full split p = product(factors) * residual with affine factors.

    One factor 1 + h per vector h of the homogeneous basis of p's affine
    factor space (see affine_factor_solutions), solved once from p's truth
    table.  Each h holds a top variable no other h holds: restricting the
    table to x_top = x_top + h sets 1 + h to 1 and leaves the other factors
    alone.  The residual is the table after that restriction for every h,
    one at a time; it has no nonconstant affine factor.  The split is
    checked on tables: the AND of the factors' and the residual's tables
    must be p's.  Over more than MAX_SPLIT_VARS variables p is returned
    unsplit.
    """
    sup = sorted(p.support())
    n = len(sup)
    if not sup or n > MAX_SPLIT_VARS:
        return [], p
    table = p_table = truth_table(p, sup)
    basis = affine_factor_solutions(table, n)
    factors: List[Poly] = []
    for h in basis:
        top = h.bit_length() - 1  # the bit of variable sup[top - 1]
        factors.append(vector_to_affine(h ^ 1, sup))
        image = ring.affine_table(h ^ (1 << top), n)  # x_top + h: h without x_top
        table = ring.restrict(table, n, top - 1, image)
    residual = poly_from_anf_bits(mobius(table, n), sup)
    if ring.product_table(factors + [residual], sup) != p_table:
        raise ArithmeticError("affine split does not re-multiply to the polynomial")
    return factors, residual
