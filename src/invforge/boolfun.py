"""6-input Boolean functions and annihilator/absorber spaces.

Truth tables are plain ints (bit k = value at input point k, where bit i of
k is the i-th formal argument).  The formal arguments of a 6-input function
are written a..f, reusing the first six state letters as ring variables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from . import gf2, ring
from .ring import ONE, Poly, mul

FORMAL_VARS = tuple(range(6))  # VarIds of a..f

MAX_ANNIHILATOR_VARS = 12


class TooManyVariablesError(ValueError):
    pass


class DegreeBoundError(ValueError):
    pass


@lru_cache(maxsize=None)
def _zero_bit_mask(i: int, n: int) -> int:
    """Bitmask of point indices whose i-th input bit is 0."""
    step = 1 << i
    block = (1 << step) - 1
    out = 0
    for start in range(0, 1 << n, 2 * step):
        out |= block << start
    return out


def mobius(table: int, n: int = 6) -> int:
    """Binary Moebius transform (truth table <-> ANF); an involution."""
    t = table
    for i in range(n):
        t ^= (t & _zero_bit_mask(i, n)) << (1 << i)
    return t & ((1 << (1 << n)) - 1)


def truth_table(p: Poly, variables: Sequence[int]) -> int:
    """Truth table of p over an explicit ordered variable list."""
    n = len(variables)
    pos = {v: i for i, v in enumerate(variables)}
    anf = 0
    for t in p.terms:
        idx = 0
        m = t
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if v not in pos:
                raise ValueError("polynomial uses %s outside the declared variables"
                                 % ring.var_name(v))
            idx |= 1 << pos[v]
            m ^= low
        anf ^= 1 << idx
    return mobius(anf, n)


def monomial_masks(variables: Sequence[int]) -> List[int]:
    """Monomial bitmask of every ANF index: entry idx is the product of the
    variables[i] selected by the bits i of idx.

    A variable listed twice yields equal masks (x*x = x); Poly() then
    cancels them mod 2.
    """
    masks = [0]
    for v in variables:
        bit = 1 << v
        masks += [m | bit for m in masks]
    return masks


def poly_from_anf_bits(anf: int, variables: Sequence[int]) -> Poly:
    """Polynomial over the given variables from an ANF coefficient vector."""
    return Poly(m for idx, m in enumerate(monomial_masks(variables))
                if (anf >> idx) & 1)


class BoolFun6:
    """A Boolean function on 6 ordered inputs; truth-table and ANF views."""

    __slots__ = ("tt", "anf")

    def __init__(self, truth_table: int):
        tt = truth_table & ((1 << 64) - 1)
        object.__setattr__(self, "tt", tt)
        object.__setattr__(self, "anf", mobius(tt, 6))

    def __setattr__(self, *a):
        raise AttributeError("BoolFun6 is immutable")

    def __reduce__(self):
        return (BoolFun6, (self.tt,))

    def __eq__(self, other):
        return isinstance(other, BoolFun6) and self.tt == other.tt

    def __hash__(self):
        return hash(self.tt)

    def __repr__(self):
        return "BoolFun6(0x%016x)" % self.tt

    def value(self, point: int) -> int:
        return (self.tt >> (point & 63)) & 1

    def __call__(self, *args: int) -> int:
        point = 0
        for i, bit in enumerate(args):
            point |= (bit & 1) << i
        return self.value(point)

    def anf_poly(self) -> Poly:
        """ANF over the formal argument letters a..f."""
        return poly_from_anf_bits(self.anf, FORMAL_VARS)

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
        raise ValueError("variable outside a..f: %s"
                         % ",".join(ring.var_name(v) for v in sorted(bad)))
    return BoolFun6(truth_table(p, FORMAL_VARS))


def render_anf(f: BoolFun6) -> str:
    return ring.render(f.anf_poly())


def load_boolfun(text: str) -> BoolFun6:
    """Auto-detect a function file: 16 hex digits (truth table) or ANF text."""
    stripped = "".join(text.split())
    if len(stripped) == 16 and all(c in "0123456789abcdefABCDEF" for c in stripped):
        return BoolFun6(int(stripped, 16))
    return parse_anf(text)


def random_boolfun(seed: int, balanced: bool = False) -> BoolFun6:
    """Uniform seeded random function; optionally balanced."""
    rng = random.Random(seed)
    if not balanced:
        return BoolFun6(rng.getrandbits(64))
    ones = rng.sample(range(64), 32)
    tt = 0
    for i in ones:
        tt |= 1 << i
    return BoolFun6(tt)


# ---------------------------------------------------------------------------
# Annihilators and absorbers.

@dataclass(frozen=True)
class AnnihilatorBasis:
    degree_bound: int
    variables: Tuple[int, ...]
    basis: Tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _monomials_up_to(variables: Sequence[int], bound: int) -> List[int]:
    """Variable-index subsets of size <= bound in graded-lex order."""
    out = []
    for d in range(bound + 1):
        for combo in itertools.combinations(range(len(variables)), d):
            idx = 0
            for i in combo:
                idx |= 1 << i
            out.append(idx)
    return out


def annihilators(f: Poly, variables: Sequence[int], degree_bound: int) -> AnnihilatorBasis:
    """Basis of {g : deg(g) <= degree_bound, f*g = 0} over GF(2).

    Works on the truth table of f over the declared (ordered-by-VarId)
    variable set: g annihilates f iff g vanishes on every point where
    f is 1.  The basis is returned in reduced row echelon form over the
    graded-lex monomial ordering.
    """
    variables = tuple(sorted(variables))
    n = len(variables)
    if n > MAX_ANNIHILATOR_VARS:
        raise TooManyVariablesError("%d variables exceed the %d-variable limit"
                                    % (n, MAX_ANNIHILATOR_VARS))
    if degree_bound > n:
        raise DegreeBoundError("degree bound %d exceeds %d variables"
                               % (degree_bound, n))
    tt = truth_table(f, variables)
    monomials = _monomials_up_to(variables, degree_bound)
    rows = []
    for x in range(1 << n):
        if (tt >> x) & 1:
            row = 0
            for j, m in enumerate(monomials):
                if m & x == m:
                    row |= 1 << j
            rows.append(row)
    kernel = gf2.kernel_basis(rows, len(monomials))
    reduced, _ = gf2.rref(kernel, len(monomials))
    masks = monomial_masks(variables)
    basis = tuple(Poly(masks[m] for j, m in enumerate(monomials) if (vec >> j) & 1)
                  for vec in reduced)
    return AnnihilatorBasis(degree_bound, variables, basis)


def is_absorber(f: Poly, g: Poly) -> bool:
    """True iff f*g = f (equivalently f*(g+1) = 0)."""
    return mul(f, g) == f


# ---------------------------------------------------------------------------
# Affine factor extraction (used by the FE engine and the factor explorer).

MAX_SPLIT_VARS = 16


def affine_factor_solutions(p: Poly, variables: Sequence[int]):
    """(particular, homogeneous basis) of affine ell with ell = 1 on supp(p).

    Every such ell satisfies (ell+1)*p = 0, i.e. ell is an affine factor of
    p.  Solution vectors use bit 0 for the constant term.  None when p = 0
    or no affine form is 1 on the whole support.
    """
    variables = tuple(sorted(variables))
    if not p.terms:
        return None
    tt = truth_table(p, variables)
    points = [x for x in range(1 << len(variables)) if (tt >> x) & 1]
    return gf2.solve_affine_ones(points, len(variables))


def vector_to_affine(vec: int, variables: Sequence[int]) -> Poly:
    terms = []
    if vec & 1:
        terms.append(0)
    for i, v in enumerate(variables):
        if (vec >> (i + 1)) & 1:
            terms.append(1 << v)
    return Poly(terms)


def affine_span(particular: int, basis: Sequence[int]) -> List[int]:
    """Every vector particular + (a combination of basis), 2^len(basis) of them."""
    span = [particular]
    for b in basis:
        span += [v ^ b for v in span]
    return span


def minimal_affine_factors(p: Poly) -> Tuple[List[int], List[int]]:
    """(support, vectors) of the nonconstant affine factors of smallest support.

    The affine ell dividing p are exactly those with ell = 1 wherever p = 1
    (the set 1 + Ann_1(p)); the whole solution span, at most 2^16 vectors
    within MAX_SPLIT_VARS variables, is searched.  Vectors are over the
    sorted support of p as in vector_to_affine.  No vectors when p is zero
    or constant, or has more than MAX_SPLIT_VARS variables.
    """
    sup = sorted(p.support())
    if not sup or len(sup) > MAX_SPLIT_VARS:
        return sup, []
    best, out = len(sup) + 1, []
    # p != 0 here, so the constant 1 makes the system solvable
    for vec in affine_span(*affine_factor_solutions(p, sup)):
        weight = (vec >> 1).bit_count()
        if weight == best:
            out.append(vec)
        elif 0 < weight < best:
            best, out = weight, [vec]
    return sup, out


def affine_split(p: Poly) -> Tuple[List[Poly], Poly]:
    """Greedy full split p = product(factors) * residual with affine factors.

    Deterministic: at each step the minimal-support, lowest-VarId affine
    factor is divided out.  Polynomials over more than MAX_SPLIT_VARS
    variables are returned unsplit.
    """
    factors: List[Poly] = []
    q = p
    while q != ONE:
        sup, vectors = minimal_affine_factors(q)
        if not vectors:
            break
        ell = vector_to_affine(min(vectors), sup)
        factors.append(ell)
        q = ring.factor_out(q, ell)
    return factors, q
