"""Build and reduce the fundamental equation for a candidate invariant."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from . import ring
from .boolfun import BoolFun6, affine_split
from .cipher import LanePlan, RoundSystem, Wiring, eval_poly_lanes, state_var, step_lanes
from .ring import COEF_BASE, N_STATE, Poly, TermBudgetError, add, coef_var, mobius, substitute

DEFAULT_BUDGET = 1 << 22
MAX_RENDER_TERMS = 512  # larger FEs are reported by size and degree only


class NonStateVariableError(ValueError):
    def __init__(self, bad):
        names = ",".join(ring.var_name(v) for v in sorted(bad))
        super().__init__("invariant candidate uses non-state variables: %s" % names)


@dataclass(frozen=True, eq=False)
class FeReport:
    """The verdicts on a fundamental equation: is_zero, and depends_on, the
    non-state variables it holds.  fe, the reduced polynomial, is expand()
    on first read, and kept; where build_fe decided on truth tables it is
    built only then, so a caller that needs only the verdicts never builds
    it."""

    is_zero: bool
    depends_on: Tuple[str, ...]
    mode: str
    expand: Callable[[], Poly] = field(repr=False)

    @cached_property
    def fe(self) -> Poly:
        return self.expand()

    def lines(self) -> List[str]:
        out = []
        if self.is_zero:
            out.append("fe = 0")
        elif len(self.fe) <= MAX_RENDER_TERMS:
            out.append("fe = %s" % ring.render(self.fe))
        else:
            out.append("fe = <%d terms, degree %d>" % (len(self.fe), self.fe.degree()))
        out.append("is_zero = %s" % ("true" if self.is_zero else "false"))
        out.append("depends_on = %s" % (",".join(self.depends_on) or "-"))
        out.append("mode = %s" % self.mode)
        return out


class PreparedInvariant:
    """A candidate P over state bits only (checked here on support, the set
    of P's variables).  parts, P's affine factors then the residual, is
    split on first use and kept for every FE; lane_plan, P's bit-sliced
    evaluation plan, is kept the same way for every empirical check."""

    def __init__(self, poly: Poly):
        self.support = poly.support()
        bad = [v for v in self.support if v >= N_STATE]
        if bad:
            raise NonStateVariableError(bad)
        self.poly = poly

    @cached_property
    def parts(self) -> Tuple[Poly, ...]:
        factors, residual = affine_split(self.poly)
        return (*factors, residual)

    @cached_property
    def lane_plan(self) -> LanePlan:
        return LanePlan(self.poly)


def build_fe(P: PreparedInvariant, rs: RoundSystem, budget: Optional[int] = None) -> FeReport:
    """FE = P + P(outputs-as-inputs), fully expanded and canonicalized; the
    image of P is the product of its parts' images.

    Where ring.product would take its dense branch on the images, the
    verdicts are read off truth tables over the images' variables: is_zero
    holds iff P lies on those variables and the AND of its parts' tables
    equals the AND of the images' tables, and depends_on lists the
    non-state variables the image table depends on.  The budget bounds the
    image's term count there, as it does in ring.product, and the FE
    polynomial is built only when report.fe is read.  Elsewhere the images
    are multiplied out and the FE is built at once.

    In expanded mode is_zero is the attack verdict: P is then a round
    invariant for every key, IV bit and number of rounds.
    """
    sub = rs.as_substitution()
    images = [substitute(f, sub, budget) for f in P.parts]
    variables = ring.dense_variables(images)
    if variables is None:
        fe = add(P.poly, ring.product(images, budget))
        depends_on = tuple(ring.var_name(v) for v in sorted(fe.support()) if v >= N_STATE)
        return FeReport(not fe, depends_on, rs.mode, lambda: fe)
    n = len(variables)
    table = ring.product_table(images, variables)
    if budget is not None and mobius(table, n).bit_count() > budget:
        raise TermBudgetError(budget)
    is_zero = (P.support.issubset(variables)
               and ring.product_table(P.parts, variables) == table)
    depends_on = tuple(ring.var_name(v) for i, v in enumerate(variables)
                       if v >= N_STATE and ring.table_depends(table, n, i))

    def expand() -> Poly:
        if is_zero:
            return ring.ZERO
        return add(P.poly, ring.poly_from_anf_bits(mobius(table, n), variables))

    return FeReport(is_zero, depends_on, rs.mode, expand)


def symbolic_fe(P: PreparedInvariant, rs: RoundSystem,
                budget: int = DEFAULT_BUDGET) -> FeReport:
    """build_fe over the shared coefficient symbols Z00..Z63, budgeted."""
    if rs.mode != "symbolic":
        raise ValueError("symbolic_fe requires a symbolic-mode round system")
    return build_fe(P, rs, budget)


def substitute_coefficients(p: Poly, fun: BoolFun6) -> Poly:
    """Replace every Z00..Z63 symbol by the function's concrete ANF bit."""
    assignment = {coef_var(j): (ring.ONE if (fun.anf >> j) & 1 else ring.ZERO)
                  for j in range(64)}
    return substitute(p, assignment)


def check_candidate(fe_symbolic: Poly, fun: BoolFun6) -> bool:
    """Does a concrete function solve the symbolic FE?"""
    return not substitute_coefficients(fe_symbolic, fun)


# ---------------------------------------------------------------------------
# Coefficient-wise linear system extraction.

_COEF_MASK = 0
for _j in range(64):
    _COEF_MASK |= 1 << (COEF_BASE + _j)
del _j


@dataclass(frozen=True)
class CoefficientSystem:
    """FE = 0 as per-monomial conditions on the coefficient symbols.

    Only available when no products of distinct function instances occur;
    the equations are then affine in Z00..Z63, one per carrier monomial.
    """

    linear: bool
    equations: Tuple[Tuple[Poly, Poly], ...]  # (carrier monomial, affine Zij condition)

    def lines(self) -> List[str]:
        if not self.linear:
            return ["coefficient system: nonlinear in Zij"]
        out = ["coefficient system: linear, %d equations" % len(self.equations)]
        for carrier, cond in self.equations:
            out.append("  [%s] %s = 0" % (ring.render(carrier), ring.render(cond)))
        return out


def coefficient_system(fe: Poly) -> CoefficientSystem:
    for t in fe.terms:
        if (t & _COEF_MASK).bit_count() >= 2:
            return CoefficientSystem(False, ())
    groups: Dict[int, List[int]] = {}
    for t in fe.terms:
        groups.setdefault(t & ~_COEF_MASK, []).append(t & _COEF_MASK)
    eqs = []
    for carrier in sorted(groups, key=ring.graded_key):
        cond = Poly(groups[carrier])
        eqs.append((Poly((carrier,)), cond))
    return CoefficientSystem(True, tuple(eqs))


# ---------------------------------------------------------------------------
# Empirical confirmation channel (independent of the symbolic path).

@dataclass(frozen=True)
class EmpiricalReport:
    trials: int
    rounds: int
    mismatches: int

    def lines(self) -> List[str]:
        return ["trials = %d" % self.trials,
                "rounds = %d" % self.rounds,
                "mismatches = %d" % self.mismatches]


_CHUNK = 1 << 13  # fixes which states are drawn: changing it changes the output


def check_invariant_empirically(P: PreparedInvariant, w: Wiring, fun: BoolFun6,
                                trials: int, seed: int = 0,
                                rounds: int = 1) -> EmpiricalReport:
    """Sample random states and per-round random (F, K, L); count violations.

    Bit-sliced: trial j has its own trajectory and per-round bits, and one
    evaluation of P reads its start in lane j, its image in lane width + j.
    Independent of build_fe: it reads P.poly (through P.lane_plan), not P.parts,
    and evaluates the instances through one LanePlan of the function's ANF for
    every round of every batch.  Shared with build_fe: the round's schedule,
    which tests check against step().  It must report 0 mismatches whenever
    build_fe says is_zero.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    anf = LanePlan(fun.anf_poly())
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
        both = eval_poly_lanes(P.lane_plan, {state_var(i): start[i - 1] | lanes[i - 1] << width
                                             for i in range(1, 37)}, (1 << 2 * width) - 1)
        mism += ((both ^ both >> width) & wmask).bit_count()
        remaining -= width
    return EmpiricalReport(trials, rounds, mism)
