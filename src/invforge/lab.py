"""The degree-7 product attack: linear-form bank, step-by-step verification,
factorization explorer and random function search."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from . import fe as fe_mod
from . import ring
from .boolfun import (
    MAX_SPLIT_VARS, BoolFun6, minimal_affine_factors, random_boolfun, vector_to_affine,
)
from .cipher import Wiring, round_system
from .ring import (
    N_STATE, NAMES, ONE, PLACEHOLDER_W, PLACEHOLDER_Y,
    Poly, add, add_many, anf_bits, factor_out, form_var, mobius, mul, product,
    state_var, substitute, var,
)

# The eight affine forms over state bits; each is the sum of exactly two
# bits, and the two four-bit shift registers map them into each other:
# H -> G -> F -> E and D -> C -> B -> A on the input side.
FORM_BITS = {
    "A": (24, 28), "B": (23, 27), "C": (22, 26), "D": (21, 25),
    "E": (8, 12), "F": (7, 11), "G": (6, 10), "H": (5, 9),
}
LETTER_BITS = sorted(state_var(b) for bits in FORM_BITS.values() for b in bits)


def form_bank() -> Dict[str, Poly]:
    return {name: add(var(state_var(lo)), var(state_var(hi)))
            for name, (lo, hi) in FORM_BITS.items()}


def form_anf(p: Poly, variables: Sequence[int]) -> int:
    """ANF bits of expand_forms(p) over variables, which hold LETTER_BITS and
    p's placeholders, for p over letters and placeholders: p's ANF with each
    letter at its low bit, then each monomial holding x_lo copied to x_hi."""
    if any(v < N_STATE for v in p.support()):
        raise ValueError("expand_forms reads form letters and placeholders only")
    index = {v: i for i, v in enumerate(variables)}
    letters = {state_var(lo): form_var(n) for n, (lo, _) in FORM_BITS.items()}
    anf, n = anf_bits(p, [letters.get(v, v) for v in variables]), len(variables)
    for lo, hi in FORM_BITS.values():
        i, j = index[state_var(lo)], index[state_var(hi)]
        anf ^= (anf & ring._one_bit_mask(i, n)) >> (1 << i) << (1 << j)
    return anf


def expand_forms(p: Poly) -> Poly:
    """Homomorphism from the abstract form letters A..H to state bits, by form_anf."""
    variables = sorted({*LETTER_BITS, *(v for v in p.support() if v < ring.FORM_BASE)})
    return ring.poly_from_anf_bits(form_anf(p, variables), variables)


def _forms(*names: str) -> List[Poly]:
    return [var(form_var(n)) for n in names]


def _s(*ps: Poly) -> Poly:
    return add_many(ps)


A, B, C, D, E, F, G, H = _forms(*"ABCDEFGH")


def invariant_factors(forms: Sequence[Poly] = (A, B, C, D, E, F, G, H)) -> List[Poly]:
    """The seven affine factors of the degree-7 invariant over the forms A..H:
    the letters, or the state-bit sums of form_bank()."""
    A, B, C, D, E, F, G, H = forms
    return [_s(A, B), _s(C, D), _s(D, F), _s(B, F), _s(E, F), _s(G, F), _s(G, H)]


def product_invariant() -> Poly:
    """The degree-7 product invariant, expanded over state bits."""
    return expand_forms(product(invariant_factors()))


def core_product_forms() -> Poly:
    """mu = (G+F)(G+H)(C+D)(B+C)(D+F): the factor common to both sides of
    the regrouped one-round difference."""
    return product([_s(G, F), _s(G, H), _s(C, D), _s(B, C), _s(D, F)])


def bracket_with_instances() -> Poly:
    """The cofactor of mu in the regrouped difference, with the second and
    fourth function instances still opaque (Y, W)."""
    Yv, Wv = var(PLACEHOLDER_Y), var(PLACEHOLDER_W)
    return _s(
        product([_s(A, B), _s(E, F), _s(B, F)]),
        product([_s(A, H), _s(D, E), _s(B, F)]),
        product([Yv, _s(G, D, ONE), _s(B, F), _s(H, F, ONE), _s(A, H)]),
        product([Wv, _s(H, F, ONE), _s(G, D, ONE), _s(D, E)]),
        mul(Yv, Wv),
    )


def final_bracket() -> Poly:
    """The bracket after absorbing both instances (Y = W = 1); hard-coded
    so the final annihilation check is independent of the earlier steps."""
    return _s(
        product([_s(A, B), _s(E, F), _s(B, F)]),
        product([_s(A, H), _s(D, E), _s(B, F)]),
        product([_s(G, D, ONE), _s(B, F), _s(H, F, ONE), _s(A, H)]),
        product([_s(H, F, ONE), _s(G, D, ONE), _s(D, E)]),
        ONE,
    )


def core_factorization_a() -> Tuple[List[Poly], Poly]:
    """mu = [H(B+1)(D+1)(G+1) + (H+1)BDG] (C+H+1)(C+F+1)(F+H+1)."""
    bracket = _s(product([H, _s(B, ONE), _s(D, ONE), _s(G, ONE)]),
                 product([_s(H, ONE), B, D, G]))
    return [_s(C, H, ONE), _s(C, F, ONE), _s(F, H, ONE)], bracket


def core_factorization_b() -> Tuple[List[Poly], Poly]:
    """mu = [G(C+1)(F+1)(H+1) + (G+1)CHF] (B+D+1)(D+G+1)(B+G+1)."""
    bracket = _s(product([G, _s(C, ONE), _s(F, ONE), _s(H, ONE)]),
                 product([_s(G, ONE), C, H, F]))
    return [_s(B, D, ONE), _s(D, G, ONE), _s(B, G, ONE)], bracket


# ---------------------------------------------------------------------------
# Step-by-step verification of the attack.

class HypothesisError(ValueError):
    def __init__(self, failed: Sequence[str]):
        super().__init__("wiring violates attack hypotheses: %s" % ", ".join(failed))
        self.failed = tuple(failed)


def verify_attack(w: Wiring, fun: BoolFun6
                  ) -> Tuple[Tuple[Tuple[str, str, bool], ...], fe_mod.FeReport]:
    """Re-derive the attack mechanically, one exact identity per step: the
    (key, description, passed) steps, and the report of the expanded FE.

    Raises HypothesisError when the wiring lacks the required D/P structure.
    """
    hyps = w.hypotheses()
    failed = [k for k, ok in sorted(hyps.items()) if not ok]
    if failed:
        raise HypothesisError(failed)

    steps: List[Tuple[str, str, bool]] = []

    def record(key, description, ok):
        steps.append((key, description, bool(ok)))

    bank = form_bank()
    A_, B_, C_, D_, E_, F_, G_, H_ = (bank[n] for n in "ABCDEFGH")
    Yv, Wv = var(PLACEHOLDER_Y), var(PLACEHOLDER_W)

    rs_ph = round_system(w, "placeholder")
    record("output-differences",
           "y9+y5 = W + A and y25+y21 = Y + E",
           add(rs_ph.output(9), rs_ph.output(5)) == add(Wv, A_)
           and add(rs_ph.output(25), rs_ph.output(21)) == add(Yv, E_))

    # P from its published factors: no split, and no 2,080 terms unless the fold reads them
    P_state = fe_mod.PreparedInvariant.from_parts(
        invariant_factors((A_, B_, C_, D_, E_, F_, G_, H_)) + [ONE])
    mu_forms = core_product_forms()
    bracket_yw = bracket_with_instances()
    report_ph = fe_mod.build_fe(P_state, rs_ph)
    V = (*LETTER_BITS, PLACEHOLDER_Y, PLACEHOLDER_W)  # ascending, as build_fe's variables
    mu_table = mobius(form_anf(mu_forms, V), len(V))
    table = mu_table & mobius(form_anf(bracket_yw, V), len(V))
    record("regrouped-difference",
           "one-round difference = mu * bracket with opaque Y, W",
           report_ph.variables == V and list(report_ph.rows()) == [(0, mobius(table, len(V)))])

    # X*I = X iff table(X) & ~table(I) = 0, over the 16 form bits: the instances read
    # only those, and mu's table over V at Y = W = 0 is its low 2^16 bits
    n = len(LETTER_BITS)
    mu_table &= (1 << (1 << n)) - 1
    Yt, Wt = (mobius(anf_bits(fun.instantiate(w.z_args[i]), LETTER_BITS), n) for i in (1, 3))

    def absorbs(forms, instance):
        return not ring.product_table(forms, LETTER_BITS) & ~instance

    record("absorption",
           "CHF*W = CHF and BDG*Y = BDG",
           absorbs([C_, H_, F_], Wt) and absorbs([B_, D_, G_], Yt))

    record("complement-absorption",
           "(C+1)(H+1)(F+1)*W and (B+1)(D+1)(G+1)*Y absorb too",
           absorbs([_s(C_, ONE), _s(H_, ONE), _s(F_, ONE)], Wt)
           and absorbs([_s(B_, ONE), _s(D_, ONE), _s(G_, ONE)], Yt))

    ok = True
    for factors, bracket in (core_factorization_a(), core_factorization_b()):
        ok = ok and product(factors + [bracket]) == mu_forms
    record("core-factorizations",
           "both printed factorizations re-multiply to mu",
           ok)

    record("core-absorption",
           "Y*mu = mu and W*mu = mu",
           not mu_table & ~Yt and not mu_table & ~Wt)

    derived = substitute(bracket_yw, {PLACEHOLDER_Y: ONE, PLACEHOLDER_W: ONE})
    final = final_bracket()
    record("final-bracket",
           "substituting Y = W = 1 annihilates: mu * bracket = 0",
           derived == final and not mul(mu_forms, final))

    report = fe_mod.build_fe(P_state, round_system(w, "expanded", fun))
    record("fundamental-equation",
           "FE reduces to 0 with no F/K/L dependence",
           report.is_zero and not report.depends_on)

    return tuple(steps), report


# ---------------------------------------------------------------------------
# Non-unique factorization explorer.

@dataclass(frozen=True)
class Factorization:
    """One division chain: root = factors[0] * ... * factors[-1] * leaf.

    nodes[k] is the quotient left after dividing out factors[:k+1];
    distinct chains over the same root witness non-unique factorization.
    table is the root's truth table over its sorted support.
    """

    root: Poly
    factors: Tuple[Poly, ...]
    nodes: Tuple[Poly, ...]
    table: int = field(repr=False)

    @property
    def leaf(self) -> Poly:
        return self.nodes[-1] if self.nodes else self.root

    def verify(self) -> bool:
        """Does the AND of the factors' and the leaf's tables give the root's?
        A chain with a variable outside the root's support is not one the
        explorer makes, and fails."""
        sup, chain = self.root.support(), self.factors + (self.leaf,)
        return (all(f.support() <= sup for f in chain)
                and ring.product_table(chain, sorted(sup)) == self.table)


def pool_key(vec: int, sup: Sequence[int]) -> str:
    """render(vector_to_affine(vec, sup), "forms") without the Poly: it orders a pool."""
    return "+".join([NAMES[v] for i, v in enumerate(sup) if vec >> i + 1 & 1] + ["1"][:vec & 1])


def explore_factorizations(p: Poly, max_trees: int, seed: int) -> List[Factorization]:
    """Randomized division chains; returns up to max_trees distinct chains.

    At each node one factor is drawn uniformly from the minimal-support
    affine candidates and divided out; a polynomial with no affine factor
    yields a single chain with no factors.  A chain that does not re-multiply
    to p, on tables (Factorization.verify), raises ArithmeticError.  The
    candidates of each node are computed once, and kept with the node's
    truth table and its quotients, so each distinct division is made once.
    Raises UsageError for max_trees < 1, p = 0 or p over more than MAX_SPLIT_VARS.
    """
    if max_trees < 1:
        raise ring.UsageError("trees must be >= 1")
    if not p:
        raise ring.UsageError("cannot factor the zero polynomial")
    n = len(p.support())
    if n > MAX_SPLIT_VARS:
        raise ring.UsageError("cannot factor a polynomial over %d variables: the affine "
                              "factor search is limited to %d" % (n, MAX_SPLIT_VARS))
    rng = random.Random(seed)
    pools: Dict[Poly, Tuple[List[int], List[int], int, Dict[int, Poly]]] = {}
    seen = set()
    found: List[Factorization] = []
    for _ in range(max(8 * max_trees, 16)):
        if len(found) >= max_trees:
            break
        factors: List[Poly] = []
        nodes: List[Poly] = []
        node = p
        while True:
            if node not in pools:
                sup, vectors, table = minimal_affine_factors(node)
                pools[node] = (sup, sorted(vectors, key=lambda v: pool_key(v, sup)), table, {})
            sup, pool, table, quotients = pools[node]
            if not pool:
                break
            vec = pool[rng.randrange(len(pool))]
            factors.append(vector_to_affine(vec, sup))
            if vec not in quotients:
                quotients[vec] = factor_out(table, vec, sup)
            node = quotients[vec]
            nodes.append(node)
        key = (frozenset(factors), node)
        if key in seen:
            continue
        seen.add(key)
        chain = Factorization(p, tuple(factors), tuple(nodes), pools[p][2])
        if not chain.verify():
            raise ArithmeticError("division chain does not re-multiply to the polynomial")
        found.append(chain)
    return found


# ---------------------------------------------------------------------------
# Random function search.

def wilson_interval(hits: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval; its bound at 0 hits is exactly 0, and at
    hits = trials exactly 1, where centre and half cancel only up to
    rounding."""
    if trials == 0:
        return 0.0, 1.0
    phat = hits / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, centre - half) if hits else 0.0,
            min(1.0, centre + half) if hits < trials else 1.0)


def is_hit(w: Wiring, P: fe_mod.PreparedInvariant, fun: BoolFun6,
           screen_seed: int = 0) -> bool:
    """Exact invariant verdict for one candidate function.

    A 256-sample empirical screen, one batch of lanes, rejects about 95% of
    random functions; any mismatch it sees is a true counterexample, so
    build_fe alone decides every hit.  At 128 samples about 24% passed and
    paid build_fe, and at 512 about 0.5% pass for a slightly dearer screen.
    """
    if fe_mod.check_invariant_empirically(P, w, fun, 256, seed=screen_seed):
        return False
    return fe_mod.build_fe(P, round_system(w, "expanded", fun)).is_zero


def search_random_functions(w: Wiring, invariant: Tuple[Poly, Tuple[int, ...]], trials: int,
                            seed: int) -> Tuple[Tuple[int, int], ...]:
    """Seeded stream of random functions; a hit is an exact FE = 0 verdict.
    Returns the (trial index, truth table) of each hit.

    invariant is P as read, (P over its letters, its VarIds).  Trial i uses
    the function seeded by seed+i, so results are byte-reproducible.
    """
    if trials < 1:
        raise ring.UsageError("trials must be >= 1")
    P = fe_mod.PreparedInvariant(*invariant)
    hits = []
    for i in range(trials):
        fun = random_boolfun(seed + i)
        if is_hit(w, P, fun, screen_seed=seed ^ 0x5EED ^ i):
            hits.append((i, fun.tt))
    return tuple(hits)
