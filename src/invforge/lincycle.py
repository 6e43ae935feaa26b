"""Affine-case analysis: with the Boolean function forced to zero one round
is an affine map on the 36 state bits; study its cycle structure."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import gf2
from .boolfun import ZERO_FUN
from .cipher import Wiring, round_system
from .ring import F_BIT, K_BIT, L_BIT, N_STATE, UsageError

# "active bits (out of 26)": weight restricted to the lowercase letter
# coordinates x11..x36 by default; configurable by mask.
LOWERCASE26_MASK = ((1 << 36) - 1) ^ ((1 << 10) - 1)
ALL36_MASK = (1 << 36) - 1

MASKS = {"lowercase26": LOWERCASE26_MASK, "all36": ALL36_MASK}

MAX_PERIOD_GUARD = 4096


@dataclass(frozen=True)
class AffineRound:
    """y = M x + F*offset_f + K*offset_k + L*offset_l over GF(2)."""

    matrix: Tuple[int, ...]          # 36 rows; bit j-1 of row i-1 = coeff of x_j in y_i
    offset_f: int
    offset_k: int
    offset_l: int


def affine_of(w: Wiring) -> AffineRound:
    """Extract the linear part and the F/K/L offsets of the zero-function round."""
    rs = round_system(w, "expanded", ZERO_FUN)
    rows = []
    off_f = off_k = off_l = 0
    for i in range(1, 37):
        p = rs.output(i)
        if p.degree() > 1:
            raise ArithmeticError("round is not affine with the zero function")
        row = 0
        for t in p.terms:
            if t == 0:
                raise ArithmeticError("unexpected constant term in output %d" % i)
            v = (t & -t).bit_length() - 1
            if v < N_STATE:
                row |= 1 << (N_STATE - 1 - v)  # VarId back to bit index x_j - 1
            elif v == F_BIT:
                off_f |= 1 << (i - 1)
            elif v == K_BIT:
                off_k |= 1 << (i - 1)
            elif v == L_BIT:
                off_l |= 1 << (i - 1)
            else:
                raise ArithmeticError("non-affine symbol in output %d" % i)
        rows.append(row)
    return AffineRound(tuple(rows), off_f, off_k, off_l)


def synthetic_permutation(cycles: Sequence[Sequence[int]]) -> AffineRound:
    """Permutation matrix from disjoint 1-based position cycles; no offsets.

    Positions absent from every cycle are fixed points.
    """
    perm = list(range(36))
    seen = set()
    for cyc in cycles:
        for pos in cyc:
            if not 1 <= pos <= 36 or pos in seen:
                raise ValueError("bad cycle position %d" % pos)
            seen.add(pos)
        for i, pos in enumerate(cyc):
            nxt = cyc[(i + 1) % len(cyc)]
            perm[nxt - 1] = pos - 1  # new bit nxt reads old bit pos
    rows = tuple(1 << perm[i] for i in range(36))
    return AffineRound(rows, 0, 0, 0)


@dataclass(frozen=True)
class PeriodEntry:
    period: int
    dimension: int                    # dim of the full invariant space at this period
    basis: Tuple[int, ...]            # basis of that space
    minimal_functionals: Tuple[int, ...]  # witnesses whose minimal period == period


def _prime_factors(k: int) -> List[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _residue(rows: Sequence[int], v: int) -> int:
    """v reduced by rows with distinct top bits, none holding the top bit of
    a row before it (as in any gf2.kernel_basis); zero iff v is in their span."""
    for row in rows:
        if v >> (row.bit_length() - 1) & 1:
            v ^= row
    return v


def linear_invariant_periods(ar: AffineRound, max_period: int) -> List[PeriodEntry]:
    """Functionals ell with ell(after k rounds) = ell(before) for all
    F/K/L sequences; reported at their minimal periods only.

    The invariance condition is exact: (M^T)^k ell = ell and ell . M^i v = 0
    for every offset vector v and all i >= 0, as ell . M^(i+k) v equals
    ((M^T)^k ell) . M^i v.  So the scan runs in S, the functionals vanishing
    on the offsets' Krylov span K: K is closed under M, so S is closed under
    M^T, and V_k is the kernel of N^k + I, N the s x s matrix of M^T on S.
    S-coordinate j is the bit at the top bit of S's basis vector j; those
    top bits increase with j and no basis vector holds another's, so a
    kernel_basis over the coordinates expands to the kernel_basis form;
    only reported entries are expanded to the 36 bits.

    A period k is reported iff some functional is invariant at k but at no
    proper divisor of k, iff every V_(k/p), p a prime dividing k, is
    smaller than V_k: with k = 2^a m, m odd, V_k is the direct sum of its
    components ker f(N)^(2^a) over the irreducible factors f of x^m + 1,
    each V_(k/p) the direct sum of kernels of powers of f(N) in them, and
    those kernels form a chain in each component.  A witness is found by a
    combination search over the period-k basis.
    """
    if max_period < 1:
        raise UsageError("max_period must be >= 1")
    if max_period > MAX_PERIOD_GUARD:
        raise UsageError("max_period %d exceeds the guard of %d"
                         % (max_period, MAX_PERIOD_GUARD))
    s_basis, action = annihilator_action(ar)
    s = len(s_basis)

    def expand(coords: Sequence[int]) -> Tuple[int, ...]:
        return tuple(gf2.mat_mul(coords, s_basis, N_STATE))  # XOR of picked S rows

    bases: Dict[int, List[int]] = {}
    entries: List[PeriodEntry] = []
    power = gf2.identity(s)
    for k in range(1, max_period + 1):
        power = gf2.mat_mul(action, power, s)
        basis = bases[k] = gf2.kernel_basis([power[i] ^ (1 << i) for i in range(s)], s)
        if not basis:
            continue
        maximal = sorted({k // p for p in _prime_factors(k)})
        if any(len(bases[d]) == len(basis) for d in maximal):
            continue  # every invariant functional already has a smaller period
        excluded = [bases[d] for d in maximal]
        witnesses = [b for b in basis if all(_residue(ex, b) for ex in excluded)]
        if not witnesses:
            witnesses = [_witness_search(basis, excluded)]
        entries.append(PeriodEntry(k, len(basis), expand(basis), expand(witnesses)))
    return entries


def annihilator_action(ar: AffineRound) -> Tuple[List[int], List[int]]:
    """S, the kernel_basis of the offsets' Krylov span, and the row-major
    matrix of M^T on S: bit j of row i is coordinate i of M^T S_j."""
    s_basis = gf2.kernel_basis(
        _krylov_span(ar.matrix, (ar.offset_f, ar.offset_k, ar.offset_l)), N_STATE)
    m_t = gf2.transpose(ar.matrix, N_STATE)
    tops = [b.bit_length() - 1 for b in s_basis]
    columns = [sum((gf2.mat_vec(m_t, b) >> t & 1) << i for i, t in enumerate(tops))
               for b in s_basis]
    return s_basis, gf2.transpose(columns, len(s_basis))


def _krylov_span(matrix: Sequence[int], vectors: Sequence[int]) -> List[int]:
    """Rows spanning M^i v for the given v and all i >= 0, in _residue's form."""
    span: List[int] = []
    todo = list(vectors)
    while todo:
        v = _residue(span, todo.pop())
        if v:
            span.append(v)
            todo.append(gf2.mat_vec(matrix, v))
    return span


def _witness_search(basis: Sequence[int], excluded: Sequence[Sequence[int]]) -> int:
    """First combination of two or more basis vectors outside every excluded span."""
    for weight in range(2, len(basis) + 1):
        for combo in itertools.combinations(basis, weight):
            v = 0
            for b in combo:
                v ^= b
            if all(_residue(ex, v) for ex in excluded):
                return v
    raise RuntimeError("no witness, though the dimensions promised one")


def orbit(ar: AffineRound, functional: int, length: int) -> List[int]:
    """functional, then its images under the transpose round action."""
    m_t = gf2.transpose(ar.matrix, N_STATE)
    out = [functional]
    for _ in range(length - 1):
        out.append(gf2.mat_vec(m_t, out[-1]))
    return out


def weight_sequence(orbit_functionals: Sequence[int],
                    mask: int = LOWERCASE26_MASK) -> List[int]:
    """Hamming weight of each functional restricted to the masked coordinates."""
    return [(f & mask).bit_count() for f in orbit_functionals]
