"""Build and reduce the fundamental equation for a candidate invariant."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import ring
from .boolfun import BoolFun6, affine_split
from .cipher import LanePlan, RoundSystem, Wiring, eval_poly_lanes, step_lanes
from .ring import COEF_BASE, N_STATE, Poly, TermBudgetError, add, mobius, substitute

_COEFS = frozenset(range(COEF_BASE, COEF_BASE + 64))  # the VarIds of Z00..Z63
_COEF_MASK = sum(1 << v for v in _COEFS)


class NonStateVariableError(ring.UsageError):
    def __init__(self, bad):
        names = ",".join(ring.var_name(v) for v in sorted(bad))
        super().__init__("invariant candidate uses non-state variables: %s" % names)


@dataclass(frozen=True, eq=False)
class FeReport:
    """The verdicts on a fundamental equation: is_zero, and depends_on, the
    non-state variables it holds.  The FE is poly where build_fe multiplied
    it out.  Where it counted it by key on ANF bits over variables, counts is
    (terms, layers), layers[d] the OR of the bits of the keys with d symbols,
    and rows() forms the keys again from replay.  fe, size and system are
    formed on first read."""

    is_zero: bool
    depends_on: Tuple[str, ...]
    mode: str
    poly: Optional[Poly] = field(default=None, repr=False)
    counts: Optional[Tuple[int, Tuple[int, int, int]]] = None
    variables: Tuple[int, ...] = ()
    replay: Optional[tuple] = field(default=None, repr=False)  # (F, keyed images, P's bits)

    def rows(self) -> Iterator[Tuple[int, int]]:
        """Each nonzero (key, ANF bits over variables) of a counted FE, replayed."""
        free, keyed, p_anf = self.replay
        for key, anf in _keyed_product(free, keyed, self.variables):
            if not key:
                anf ^= p_anf
            if anf:
                yield key, anf

    @cached_property
    def fe(self) -> Poly:
        if self.poly is not None:
            return self.poly
        return ring.poly_from_anf_rows(self.rows(), self.variables)

    @cached_property
    def size(self) -> Tuple[int, int]:
        if not self.counts:
            return len(self.fe), self.fe.degree()
        terms, layers = self.counts  # a degree: d plus the highest weight layer met
        weights = ring.weight_layers(len(self.variables))
        return terms, max((d + max(w for w, mask in enumerate(weights) if bits & mask)
                           for d, bits in enumerate(layers) if bits), default=-1)

    @cached_property
    def system(self) -> Optional[Tuple[Tuple[Poly, Poly], ...]]:
        """coefficient_system(fe), without fe where a term holds two symbols."""
        nonlinear = self.counts and self.counts[1][2]
        return None if nonlinear else coefficient_system(self.fe)


class PreparedInvariant:
    """A candidate P over state bits only (checked here on support, the set of
    P's variables), held as local, P over its letters, and variables, P's
    VarIds ascending, as ring.parse_local and ring.localize give them.  parts
    (P's affine factors, then the residual) and lane_plan are built from local
    on first use and kept for every FE and every empirical check; poly, P over
    VarIds, is renamed from local only where it is read.  from_parts prepares
    a P whose parts are known, so nothing is split."""

    def __init__(self, local: Poly, variables: Sequence[int]):
        self.support = _state_support(frozenset(variables))
        self.local, self.variables = local, tuple(variables)

    @classmethod
    def from_parts(cls, parts: Sequence[Poly]) -> "PreparedInvariant":
        """P = the product of parts, its affine factors then the residual,
        multiplied out only where read.  support is the parts' union: P must
        depend on each of their variables, as a product of affine factors
        with independent linear parts and the residual 1 does."""
        prepared = cls.__new__(cls)
        prepared.support = _state_support(frozenset().union(*(p.support() for p in parts)))
        prepared.variables, prepared.parts = tuple(sorted(prepared.support)), tuple(parts)
        return prepared

    @cached_property
    def local(self) -> Poly:  # from_parts: P multiplied out
        return ring.localize(ring.product(self.parts))[0]

    @cached_property
    def poly(self) -> Poly:
        return ring.rename(self.local, self.variables)

    @cached_property
    def parts(self) -> Tuple[Poly, ...]:
        factors, residual = affine_split(self.local)
        return tuple(ring.rename(p, self.variables) for p in (*factors, residual))

    @cached_property
    def lane_plan(self) -> LanePlan:
        return LanePlan(self.local.terms)


def _state_support(support: frozenset) -> frozenset:
    bad = [v for v in support if v >= N_STATE]
    if bad:
        raise NonStateVariableError(bad)
    return support


def build_fe(P: PreparedInvariant, rs: RoundSystem, budget: Optional[int] = None) -> FeReport:
    """FE = P + P(outputs-as-inputs), fully expanded and canonicalized; the
    image of P is the product of its parts' images.

    Where V, the variables of P and of its parts' images other than the
    coefficient symbols Z00..Z63, number at most ring.MAX_DENSE_VARS, and
    at most two images hold such symbols, each affine in them, the FE is
    counted on ANF bits over V, ordered by how many image terms hold each
    variable (most first, ties by VarId) where a symbol occurs and by
    VarId otherwise: the symbol-free images' table (P's added
    where no symbol occurs) is transformed once, and _keyed_product
    multiplies it by the other images' sparse cofactors by key, their
    coefficient monomial, forming each output key once from memoised
    monomial products (ring.mul_anf), P's bits joining key 0; each key is
    counted and dropped (the report replays them), the budget bounding the
    image's terms as summed.
    Otherwise ring.product multiplies the images out, budgeting each one.
    The budget, ring.DEFAULT_BUDGET where none is given, also bounds each
    image's substitution.

    In expanded mode is_zero is the attack verdict: P is then a round
    invariant for every key, IV bit and number of rounds.
    """
    budget = ring.DEFAULT_BUDGET if budget is None else budget
    sub = rs.as_substitution()
    images = [substitute(f, sub, budget) for f in P.parts]
    supports = [g.support() for g in images]
    variables = tuple(sorted(P.support.union(*supports) - _COEFS))
    n = len(variables)
    keyed = [_by_key(g) for g, s in zip(images, supports) if s & _COEFS]
    if (n > ring.MAX_DENSE_VARS or len(keyed) > 2
            or any(k & (k - 1) for split in keyed for k in split)):
        fe = add(P.poly, ring.product(images, budget))
        depends_on = tuple(ring.var_name(v) for v in sorted(fe.support()) if v >= N_STATE)
        return FeReport(not fe, depends_on, rs.mode, poly=fe)
    if keyed:  # most-held first: an ANF int is as long as its highest index bit
        image_terms = [t for g in images for t in g.terms]
        variables = tuple(sorted(variables,
                                 key=lambda v: (-sum(t >> v & 1 for t in image_terms), v)))
    p_table = ring.product_table(P.parts, variables)
    free = ring.product_table([g for g, s in zip(images, supports) if not s & _COEFS], variables)
    if keyed:  # F, free's ANF bits, times the keyed images' cofactors; P's bits join key 0
        f_anf, p_anf = mobius(free, n), mobius(p_table, n)
    else:  # one transform: FE = P + image is linear in the tables
        f_anf, p_anf = mobius(free ^ p_table, n), 0
    layers = [0, 0, 0]  # by the symbols in a key: the OR of those keys' FE ANF bits
    count = terms = held_coefs = 0
    for key, anf in _keyed_product(f_anf, keyed, variables):
        size = anf.bit_count()
        if keyed or 1 << n > budget:  # the budget bounds the image's terms: 2^n at most on one key
            count += size if keyed else mobius(free, n).bit_count()
            if count > budget:
                raise TermBudgetError(budget)
        if not key:  # P is in key 0
            anf ^= p_anf
            size = anf.bit_count()
        if size:
            terms += size
            held_coefs |= key
            layers[key.bit_count()] |= anf
    held = reduce(or_, layers)
    depends_on = [ring.var_name(v) for v in sorted(v for i, v in enumerate(variables)
                                                   if v >= N_STATE  # ANF indices holding i
                                                   and held & ring._one_bit_mask(i, n))]
    depends_on += [ring.var_name(v) for v in sorted(_COEFS) if held_coefs >> v & 1]
    return FeReport(not terms, tuple(depends_on), rs.mode, counts=(terms, tuple(layers)),
                    variables=variables, replay=(f_anf, tuple(keyed), p_anf))


def _by_key(g: Poly) -> Dict[int, Poly]:
    """g's cofactors by key, the product of symbols Z00..Z63 (0 always present)."""
    groups: Dict[int, List[int]] = {0: []}
    for t in g.terms:
        groups.setdefault(t & _COEF_MASK, []).append(t & ~_COEF_MASK)
    return {k: Poly(ts) for k, ts in groups.items()}


def _keyed_product(free: int, keyed: Tuple[Dict[int, Poly], ...], variables: Tuple[int, ...]):
    """F's ANF bits (free) times no, one or two keyed images (key -> sparse
    cofactor), each output key once, from memos of monomial products.  No
    image: key 0 is F.  One image A: key k is F*A_k, by one memo seeded
    with F.  Two, A and B: key j|k is F*(A_j*B_k + A_k*B_j), and row j's
    two memos, seeded with F*A_j and F*B_j, form it for each key k < j
    (k = 0: key j, with the pair (j, j)).  A cofactor's sub-monomials are
    those of smaller keys."""
    if len(keyed) < 2:
        memo = {}
        for key, cofactor in (keyed[0] if keyed else {0: ring.ONE}).items():
            yield key, ring.mul_anf(free, cofactor, variables, memo)
        return
    a, b = keyed
    keys = sorted(a.keys() | b.keys())  # key 0 first: _by_key gives it to both
    yield 0, ring.mul_anf(ring.mul_anf(free, a[0], variables), b[0], variables)
    for row, j in enumerate(keys[1:], 1):
        fa, fb = (ring.mul_anf(free, g.get(j, ring.ZERO), variables) for g in (a, b))
        by_b, by_a = {}, {}  # F*A_j times B's monomials, F*B_j times A's
        for k in keys[:row]:
            b_k = add(b[0], b.get(j, ring.ZERO)) if not k else b.get(k, ring.ZERO)
            yield j | k, (ring.mul_anf(fa, b_k, variables, by_b)
                          ^ ring.mul_anf(fb, a.get(k, ring.ZERO), variables, by_a))


def symbolic_fe(P: PreparedInvariant, rs: RoundSystem,
                budget: Optional[int] = None) -> FeReport:
    """build_fe over the shared coefficient symbols Z00..Z63, budgeted."""
    if rs.mode != "symbolic":
        raise ValueError("symbolic_fe requires a symbolic-mode round system")
    return build_fe(P, rs, budget)


# ---------------------------------------------------------------------------
# Coefficient-wise linear system extraction.


def coefficient_system(fe: Poly) -> Optional[Tuple[Tuple[Poly, Poly], ...]]:
    """FE = 0 as (carrier monomial, condition) pairs in graded order, each
    condition affine in Z00..Z63; None where a term holds two symbols, as
    where distinct function instances multiply."""
    if any((t & _COEF_MASK).bit_count() >= 2 for t in fe.terms):
        return None
    groups: Dict[int, List[int]] = {}
    for t in fe.terms:
        groups.setdefault(t & ~_COEF_MASK, []).append(t & _COEF_MASK)
    return tuple((Poly((carrier,)), Poly(groups[carrier]))
                 for carrier in sorted(groups, key=ring.graded_key))


# ---------------------------------------------------------------------------
# Empirical confirmation channel (independent of the symbolic path).

_CHUNK = 1 << 13  # fixes which states are drawn: changing it changes the output


def check_invariant_empirically(P: PreparedInvariant, w: Wiring, fun: BoolFun6,
                                trials: int, seed: int = 0,
                                rounds: int = 1) -> int:
    """Sample random states and per-round random (F, K, L); return the number
    of trials whose P value changed over the rounds.

    Bit-sliced: trial j has its own trajectory and per-round bits, and one
    evaluation of P reads its start in lane j, its image in lane width + j.
    Independent of build_fe: it reads P.local (through P.lane_plan), not
    P.parts, and evaluates the instances through one LanePlan of the
    function's ANF for every round of every batch.  Shared with build_fe:
    the round's schedule, which tests check against step().  It must report
    0 mismatches whenever build_fe says is_zero.
    """
    if trials < 1:
        raise ring.UsageError("trials must be >= 1")
    anf = LanePlan(ring._ones(fun.anf))
    rng = random.Random(seed)
    mism = 0
    remaining = trials
    while remaining:
        width = min(remaining, _CHUNK)
        wmask = (1 << width) - 1
        start = lanes = [rng.getrandbits(width) for _ in range(36)]
        for _ in range(rounds):
            lanes = step_lanes(lanes, w, anf,
                               rng.getrandbits(width), rng.getrandbits(width),
                               rng.getrandbits(width), wmask)
        both = eval_poly_lanes(P.lane_plan, [start[35 - v] | lanes[35 - v] << width  # x_{36-v}
                                             for v in P.variables], (1 << 2 * width) - 1)
        mism += ((both ^ both >> width) & wmask).bit_count()
        remaining -= width
    return mism
