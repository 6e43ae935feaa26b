"""The degree-7 product attack: linear-form bank, step-by-step verification,
factorization explorer and random function search."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import fe as fe_mod
from . import ring
from .boolfun import (
    MAX_SPLIT_VARS, BoolFun6, minimal_affine_factors, random_boolfun, vector_to_affine,
)
from .cipher import Wiring, round_system
from .ring import (
    ONE, PLACEHOLDER_W, PLACEHOLDER_Y,
    Poly, add, add_many, factor_out, form_var, mul, product, state_var,
    substitute, var,
)

# The eight affine forms over state bits; each is the sum of exactly two
# bits, and the two four-bit shift registers map them into each other:
# H -> G -> F -> E and D -> C -> B -> A on the input side.
FORM_BITS = {
    "A": (24, 28), "B": (23, 27), "C": (22, 26), "D": (21, 25),
    "E": (8, 12), "F": (7, 11), "G": (6, 10), "H": (5, 9),
}


def form_state(name: str) -> Poly:
    lo, hi = FORM_BITS[name]
    return add(var(state_var(lo)), var(state_var(hi)))


def form_bank() -> Dict[str, Poly]:
    return {name: form_state(name) for name in FORM_BITS}


def expand_forms(p: Poly) -> Poly:
    """Homomorphism from the abstract form letters A..H to state bits."""
    return substitute(p, {form_var(n): form_state(n) for n in FORM_BITS})


def _forms(*names: str) -> List[Poly]:
    return [var(form_var(n)) for n in names]


def _s(*ps: Poly) -> Poly:
    return add_many(ps)


A, B, C, D, E, F, G, H = _forms(*"ABCDEFGH")


def invariant_factors_forms() -> List[Poly]:
    """The seven affine factors of the degree-7 invariant, over A..H."""
    return [_s(A, B), _s(C, D), _s(D, F), _s(B, F), _s(E, F), _s(G, F), _s(G, H)]


def product_invariant() -> Poly:
    """The degree-7 product invariant, expanded over state bits."""
    return product([expand_forms(f) for f in invariant_factors_forms()])


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


@dataclass(frozen=True)
class StepResult:
    key: str
    description: str
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    steps: Tuple[StepResult, ...]
    fe_report: fe_mod.FeReport

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def lines(self) -> List[str]:
        out = []
        for s in self.steps:
            out.append("step %-22s %s  (%s)" % (s.key + ":",
                                                "PASS" if s.passed else "FAIL",
                                                s.description))
        out.append("ALL STEPS PASS" if self.passed else "STEP FAILURES: %d"
                   % sum(1 for s in self.steps if not s.passed))
        return out


def verify_attack(w: Wiring, fun: BoolFun6) -> ChainReport:
    """Re-derive the attack mechanically, one exact identity per step.

    Raises HypothesisError when the wiring lacks the required D/P structure.
    """
    hyps = w.hypotheses()
    failed = [k for k, ok in sorted(hyps.items()) if not ok]
    if failed:
        raise HypothesisError(failed)

    steps: List[StepResult] = []

    def record(key, description, ok):
        steps.append(StepResult(key, description, bool(ok)))

    bank = form_bank()
    A_, B_, C_, D_, E_, F_, G_, H_ = (bank[n] for n in "ABCDEFGH")
    Yv, Wv = var(PLACEHOLDER_Y), var(PLACEHOLDER_W)

    rs_ph = round_system(w, "placeholder")
    record("output-differences",
           "y9+y5 = W + A and y25+y21 = Y + E",
           add(rs_ph.output(9), rs_ph.output(5)) == add(Wv, A_)
           and add(rs_ph.output(25), rs_ph.output(21)) == add(Yv, E_))

    P_state = fe_mod.PreparedInvariant(product_invariant())
    mu_forms = core_product_forms()
    bracket_yw = bracket_with_instances()
    fe_ph = fe_mod.build_fe(P_state, rs_ph).fe
    record("regrouped-difference",
           "one-round difference = mu * bracket with opaque Y, W",
           fe_ph == expand_forms(mul(mu_forms, bracket_yw)))

    args = w.z_args
    Yex = fun.instantiate(args[1])
    Wex = fun.instantiate(args[3])
    CHF = product([C_, H_, F_])
    BDG = product([B_, D_, G_])
    record("absorption",
           "CHF*W = CHF and BDG*Y = BDG",
           mul(CHF, Wex) == CHF and mul(BDG, Yex) == BDG)

    cCHF = product([_s(C_, ONE), _s(H_, ONE), _s(F_, ONE)])
    cBDG = product([_s(B_, ONE), _s(D_, ONE), _s(G_, ONE)])
    record("complement-absorption",
           "(C+1)(H+1)(F+1)*W and (B+1)(D+1)(G+1)*Y absorb too",
           mul(cCHF, Wex) == cCHF and mul(cBDG, Yex) == cBDG)

    ok = True
    for factors, bracket in (core_factorization_a(), core_factorization_b()):
        ok = ok and product(factors + [bracket]) == mu_forms
    record("core-factorizations",
           "both printed factorizations re-multiply to mu",
           ok)

    mu_state = expand_forms(mu_forms)
    record("core-absorption",
           "Y*mu = mu and W*mu = mu",
           mul(Yex, mu_state) == mu_state and mul(Wex, mu_state) == mu_state)

    derived = substitute(bracket_yw, {PLACEHOLDER_Y: ONE, PLACEHOLDER_W: ONE})
    final = final_bracket()
    record("final-bracket",
           "substituting Y = W = 1 annihilates: mu * bracket = 0",
           derived == final and not mul(mu_forms, final))

    report = fe_mod.build_fe(P_state, round_system(w, "expanded", fun))
    record("fundamental-equation",
           "FE reduces to 0 with no F/K/L dependence",
           report.is_zero and not report.depends_on)

    return ChainReport(tuple(steps), report)


# ---------------------------------------------------------------------------
# Non-unique factorization explorer.

@dataclass(frozen=True)
class Factorization:
    """One division chain: root = factors[0] * ... * factors[-1] * leaf.

    nodes[k] is the quotient left after dividing out factors[:k+1];
    distinct chains over the same root witness non-unique factorization.
    """

    root: Poly
    factors: Tuple[Poly, ...]
    nodes: Tuple[Poly, ...]

    @property
    def leaf(self) -> Poly:
        return self.nodes[-1] if self.nodes else self.root

    def verify(self) -> bool:
        return product(self.factors + (self.leaf,)) == self.root


def explore_factorizations(p: Poly, max_trees: int, seed: int) -> List[Factorization]:
    """Randomized division chains; returns up to max_trees distinct chains.

    At each node one factor is drawn uniformly from the minimal-support
    affine candidates and divided out; a polynomial with no affine factor
    yields a single chain with no factors.  A chain that does not re-multiply
    to p raises ArithmeticError.  The candidates of each node are computed once.
    Raises ValueError for max_trees < 1, p = 0 or p over more than MAX_SPLIT_VARS.
    """
    if max_trees < 1:
        raise ValueError("trees must be >= 1")
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    n = len(p.support())
    if n > MAX_SPLIT_VARS:
        raise ValueError("cannot factor a polynomial over %d variables: the affine "
                         "factor search is limited to %d" % (n, MAX_SPLIT_VARS))
    rng = random.Random(seed)
    pools: Dict[Poly, List[Poly]] = {}
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
                sup, vectors = minimal_affine_factors(node)
                # the text only orders the pool; a forms chain may hold a lone F
                pools[node] = sorted((vector_to_affine(v, sup) for v in vectors),
                                     key=lambda f: ring.render(f, "forms"))
            pool = pools[node]
            if not pool:
                break
            ell = pool[rng.randrange(len(pool))]
            factors.append(ell)
            node = factor_out(node, ell)
            nodes.append(node)
        key = (frozenset(factors), node)
        if key in seen:
            continue
        seen.add(key)
        chain = Factorization(p, tuple(factors), tuple(nodes))
        if not chain.verify():
            raise ArithmeticError("division chain does not re-multiply to the polynomial")
        found.append(chain)
    return found


# ---------------------------------------------------------------------------
# Random function search.

@dataclass(frozen=True)
class SearchReport:
    trials: int
    hits: Tuple[Tuple[int, int], ...]  # (trial index, truth table)
    frequency: float
    wilson_low: float
    wilson_high: float

    def lines(self) -> List[str]:
        out = ["trials = %d" % self.trials, "hits = %d" % len(self.hits)]
        for idx, tt in self.hits:
            out.append("hit trial=%d tt=%016x" % (idx, tt))
        out.append("frequency = %.6g" % self.frequency)
        out.append("wilson95 = [%.6g, %.6g]" % (self.wilson_low, self.wilson_high))
        return out


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
    screen = fe_mod.check_invariant_empirically(P, w, fun, 256, seed=screen_seed)
    if screen.mismatches:
        return False
    return fe_mod.build_fe(P, round_system(w, "expanded", fun)).is_zero


def search_random_functions(w: Wiring, P: Poly, trials: int, seed: int) -> SearchReport:
    """Seeded stream of random functions; a hit is an exact FE = 0 verdict.

    Trial i uses the function seeded by seed+i, so results are
    byte-reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prepared = fe_mod.PreparedInvariant(P)
    hits = []
    for i in range(trials):
        fun = random_boolfun(seed + i)
        if is_hit(w, prepared, fun, screen_seed=seed ^ 0x5EED ^ i):
            hits.append((i, fun.tt))
    lo, hi = wilson_interval(len(hits), trials)
    return SearchReport(trials, tuple(hits), len(hits) / trials, lo, hi)
