"""T-310 long-term key (LZS) model and the one-round 36-polynomial system."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .boolfun import BoolFun6
from .ring import (
    F_BIT, K_BIT, L_BIT, PLACEHOLDERS,
    Poly, UsageError, _ones, coef_var, monomial_masks, state_var, var,
)

# wiring constraints under which the degree-7 product attack applies
HYPOTHESES = {
    "d23_pair": "{D(2),D(3)} = {24,28}",
    "d67_pair": "{D(6),D(7)} = {8,12}",
    "y_inputs": "P(7..12) = (27,6,10,23,21,25)",
    "w_inputs": "P(21..26) = (26,9,5,22,7,11)",
}

Y_INPUT_BITS = (27, 6, 10, 23, 21, 25)
W_INPUT_BITS = (26, 9, 5, 22, 7, 11)


class WiringError(UsageError):
    pass


@dataclass(frozen=True)
class Wiring:
    """The long-term key: D: {1..9} -> {0..36} and P: {1..27} -> {1..36}.

    D(i) = 0 wires the key bit S1 = K in place of a state bit.
    """

    d: Tuple[int, ...]
    p: Tuple[int, ...]

    def __post_init__(self):
        if len(self.d) != 9:
            raise WiringError("D must have 9 entries, got %d" % len(self.d))
        if len(self.p) != 27:
            raise WiringError("P must have 27 entries, got %d" % len(self.p))
        for i, v in enumerate(self.d, 1):
            if not 0 <= v <= 36:
                raise WiringError("D(%d)=%d out of range 0..36" % (i, v))
        for j, v in enumerate(self.p, 1):
            if not 1 <= v <= 36:
                raise WiringError("P(%d)=%d out of range 1..36" % (j, v))

    def D(self, i: int) -> int:
        return self.d[i - 1]

    def P(self, j: int) -> int:
        return self.p[j - 1]

    @cached_property
    def z_args(self) -> Tuple[Tuple[int, ...], ...]:
        """Ordered VarId argument lists of the four function instances,
        formed on first read and kept."""
        p = self.p
        return (
            (L_BIT,) + tuple(state_var(b) for b in p[0:5]),
            tuple(state_var(b) for b in p[6:12]),
            tuple(state_var(b) for b in p[13:19]),
            tuple(state_var(b) for b in p[20:26]),
        )

    def hypotheses(self) -> Dict[str, bool]:
        return {
            "d23_pair": {self.D(2), self.D(3)} == {24, 28},
            "d67_pair": {self.D(6), self.D(7)} == {8, 12},
            "y_inputs": tuple(self.p[6:12]) == Y_INPUT_BITS,
            "w_inputs": tuple(self.p[20:26]) == W_INPUT_BITS,
        }


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: Tuple[str, ...]
    warnings: Tuple[str, ...]
    hypotheses: Dict[str, bool]

    def lines(self) -> List[str]:
        out = ["wiring: %s" % ("valid" if self.ok else "invalid")]
        out += ["error: %s" % e for e in self.errors]
        out += ["warning: %s" % w for w in self.warnings]
        for key in sorted(self.hypotheses):
            out.append("hypothesis %s (%s): %s"
                       % (key, HYPOTHESES[key], "holds" if self.hypotheses[key] else "fails"))
        return out


def validate(w: Wiring) -> ValidationReport:
    """Range checks plus duplicate-P warning and attack-hypothesis flags."""
    errors: List[str] = []
    warnings: List[str] = []
    seen: Dict[int, List[int]] = {}
    for j, v in enumerate(w.p, 1):
        seen.setdefault(v, []).append(j)
    for v, js in sorted(seen.items()):
        if len(js) > 1:
            warnings.append("duplicate P entry %d at positions %s"
                            % (v, ",".join(map(str, js))))
    if len(set(w.d)) != 9:
        warnings.append("D entries are not pairwise distinct")
    return ValidationReport(not errors, tuple(errors), tuple(warnings), w.hypotheses())


def parse_wiring(text: str) -> Wiring:
    """Line-oriented key file: 'D = ...' and 'P = ...' lists, '#' comments."""
    d: Optional[Tuple[int, ...]] = None
    p: Optional[Tuple[int, ...]] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise WiringError("line %d: expected 'D = ...' or 'P = ...'" % lineno)
        key, _, rest = line.partition("=")
        key = key.strip().upper()
        try:
            values = tuple(int(tok) for tok in rest.replace(",", " ").split())
        except ValueError:
            raise WiringError("line %d: non-integer entry" % lineno) from None
        if key == "D":
            d = values
        elif key == "P":
            p = values
        else:
            raise WiringError("line %d: unknown key %r" % (lineno, key))
    if d is None or p is None:
        raise WiringError("wiring file must define both D and P")
    return Wiring(d, p)


def random_wiring(seed: int, conforming: bool = False) -> Wiring:
    """Seeded random valid wiring.

    With conforming=True the attack hypotheses hold and the round stays a
    bijection: D is a permutation of the nine nonzero multiples of 4 fixing
    the constrained pairs, and P avoids multiples of 4.
    """
    rng = random.Random(seed)
    if conforming:
        free_d = [4, 16, 20, 32, 36]
        rng.shuffle(free_d)
        d23 = [24, 28]
        d67 = [8, 12]
        rng.shuffle(d23)
        rng.shuffle(d67)
        d = (free_d[0], d23[0], d23[1], free_d[1], free_d[2],
             d67[0], d67[1], free_d[3], free_d[4])
        non4 = [b for b in range(1, 37) if b % 4 != 0]
        p = list(rng.choice(non4) for _ in range(27))
        p[6:12] = Y_INPUT_BITS
        p[20:26] = W_INPUT_BITS
        return Wiring(d, tuple(p))
    d = tuple(rng.sample(range(0, 37), 9))
    p = tuple(rng.randrange(1, 37) for _ in range(27))
    return Wiring(d, p)


# ---------------------------------------------------------------------------
# The one-round ANF system.

MODES = ("placeholder", "expanded", "symbolic")


def _symbolic_instance(args: Sequence[int]) -> Poly:
    """Sum over j of Z_j * (product of the arguments selected by bits of j)."""
    return Poly((1 << coef_var(j)) | m for j, m in enumerate(monomial_masks(args)))


@dataclass(frozen=True)
class RoundSystem:
    """The 36 one-round output polynomials y1..y36 over the input variables."""

    mode: str
    outputs: Tuple[Poly, ...]

    def output(self, i: int) -> Poly:
        return self.outputs[i - 1]

    def as_substitution(self) -> Dict[int, Poly]:
        """Map each state VarId to the ANF of its post-round value."""
        return {state_var(i): self.outputs[i - 1] for i in range(1, 37)}


def _outputs(w: Wiring, x, f, l, inst):
    """y1..y36 of one round, for values that add with ^ (Polys or lanes): x(bit)
    is input x_bit, K for bit 0; f, l are F, L; inst are the instances Z, Y, X, W."""
    out = list(map(x, range(36)))  # y_{i+1} = x_i, except y1, y5, ..., y33 set below
    # y33, y29, ..., y1 as in step(): a running sum plus one D input each
    added = (inst[0], x(w.P(6)), inst[1], x(w.P(13)), l ^ inst[2],
             x(w.P(20)), inst[3], x(w.P(27)))
    acc = f
    out[32] = acc ^ x(w.D(9))
    for k, term in enumerate(added, 1):
        acc = acc ^ term
        out[32 - 4 * k] = acc ^ x(w.D(9 - k))
    return out


def round_system(w: Wiring, mode: str = "placeholder",
                 fun: Optional[BoolFun6] = None) -> RoundSystem:
    """Build the 36 output polynomials; only 9 are non-trivial.  The schedule
    is _outputs(), shared with step_lanes() and checked by tests against step().

    placeholder: the four function instances stay opaque as Z, Y, X, W.
    expanded:    each instance is the supplied function composed with its
                 wiring-determined argument list.
    symbolic:    each instance is expanded over the coefficient symbols
                 Z00..Z63 (shared across instances).
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    if mode == "expanded" and fun is None:
        raise ValueError("expanded mode requires a Boolean function")
    args = w.z_args
    if mode == "placeholder":
        inst = [var(v) for v in PLACEHOLDERS]  # Z, Y, X, W
    elif mode == "expanded":
        inst = [fun.instantiate(a) for a in args]
    else:
        inst = [_symbolic_instance(a) for a in args]
    outputs = _outputs(w, lambda bit: var(state_var(bit) if bit else K_BIT),
                       var(F_BIT), var(L_BIT), inst)
    return RoundSystem(mode, tuple(outputs))


# ---------------------------------------------------------------------------
# Concrete stepping.  States are 36-bit ints, bit i-1 = x_i.

_TRIVIAL_MASK = 0
for _i in range(1, 36):
    if _i % 4 != 0:
        _TRIVIAL_MASK |= 1 << _i  # output bit for y_{i+1}
del _i


def step(state: int, w: Wiring, fun: BoolFun6,
         f_bit: int, k_bit: int, l_bit: int) -> int:
    """One concrete round; independent of the polynomial path.

    Evaluates the displayed equations directly with truth-table lookups:
    input x_b is bit b of s, K for b = 0.
    """
    s = state << 1 | k_bit
    p, d, tt = w.p, w.d, fun.tt
    z1 = tt >> (l_bit | (s >> p[0] & 1) << 1 | (s >> p[1] & 1) << 2
                | (s >> p[2] & 1) << 3 | (s >> p[3] & 1) << 4 | (s >> p[4] & 1) << 5) & 1
    z2 = tt >> ((s >> p[6] & 1) | (s >> p[7] & 1) << 1 | (s >> p[8] & 1) << 2
                | (s >> p[9] & 1) << 3 | (s >> p[10] & 1) << 4 | (s >> p[11] & 1) << 5) & 1
    z3 = tt >> ((s >> p[13] & 1) | (s >> p[14] & 1) << 1 | (s >> p[15] & 1) << 2
                | (s >> p[16] & 1) << 3 | (s >> p[17] & 1) << 4 | (s >> p[18] & 1) << 5) & 1
    z4 = tt >> ((s >> p[20] & 1) | (s >> p[21] & 1) << 1 | (s >> p[22] & 1) << 2
                | (s >> p[23] & 1) << 3 | (s >> p[24] & 1) << 4 | (s >> p[25] & 1) << 5) & 1

    out = (state << 1) & _TRIVIAL_MASK
    acc = f_bit
    out |= (acc ^ s >> d[8] & 1) << 32                 # y33
    acc ^= z1
    out |= (acc ^ s >> d[7] & 1) << 28                 # y29
    acc ^= s >> p[5] & 1
    out |= (acc ^ s >> d[6] & 1) << 24                 # y25
    acc ^= z2
    out |= (acc ^ s >> d[5] & 1) << 20                 # y21
    acc ^= s >> p[12] & 1
    out |= (acc ^ s >> d[4] & 1) << 16                 # y17
    acc ^= l_bit ^ z3
    out |= (acc ^ s >> d[3] & 1) << 12                 # y13
    acc ^= s >> p[19] & 1
    out |= (acc ^ s >> d[2] & 1) << 8                  # y9
    acc ^= z4
    out |= (acc ^ s >> d[1] & 1) << 4                  # y5
    acc ^= s >> p[26] & 1
    out |= acc ^ s >> d[0] & 1                         # y1
    return out


def step_lanes(lanes: List[int], w: Wiring, fun: BoolFun6 | LanePlan,
               f_lane: int, k_lane: int, l_lane: int,
               width_mask: int) -> List[int]:
    """Bit-sliced round over many states at once.

    lanes[i] holds bit x_{i+1} of every state; the per-round bits are lanes
    too, so each trajectory can see its own F/K/L.  The function instances
    are evaluated through their ANF, which keeps this path independent of
    the truth-table lookups in step(): its terms are the ANF's indices,
    letter i the i-th argument.  fun may be the LanePlan of that ANF, so
    that many rounds share one plan.  The schedule is _outputs(), shared
    with round_system(); tests check it against step().
    """
    anf = fun if isinstance(fun, LanePlan) else LanePlan(_ones(fun.anf))
    by_var = lanes[::-1] + [f_lane, k_lane, l_lane]  # indexed by VarId
    inst = [eval_poly_lanes(anf, [by_var[v] for v in args], width_mask)
            for args in w.z_args]
    return _outputs(w, (k_lane, *lanes).__getitem__, f_lane, l_lane, inst)


class LanePlan:
    """How to evaluate one polynomial over n letters (a term is a small int,
    bit i letter i) bit-sliced, built once and run by eval_poly_lanes.  High
    parts, over letters min(n // 2, 8) and up, that occur with the same set of
    low parts form a group: the XOR of those low parts' lane products ANDed
    with the XOR of its high parts' (the degree-7 invariant's 2,080 terms make
    3 groups).  chain lists every sub-monomial the groups need in increasing
    order as (mask, mask less its lowest letter, that letter): one AND each."""

    __slots__ = ("chain", "groups")

    def __init__(self, terms: Collection[int]):
        low_mask = (1 << min(max(terms, default=0).bit_length() // 2, 8)) - 1
        high_mask, lows_of = ~low_mask, {}
        for t in terms:
            lows_of.setdefault(t & high_mask, []).append(t & low_mask)
        highs_of: Dict[FrozenSet[int], List[int]] = {}
        for high, lows in lows_of.items():
            highs_of.setdefault(frozenset(lows), []).append(high)
        needed = set(lows_of).union(*highs_of)
        for m in list(needed):
            m &= m - 1
            while m not in needed:
                needed.add(m)
                m &= m - 1
        needed.discard(0)
        self.chain = [(m, m & (m - 1), (m & -m).bit_length() - 1) for m in sorted(needed)]
        self.groups = list(highs_of.items())


def eval_poly_lanes(plan: LanePlan, lanes: Sequence[int], width_mask: int) -> int:
    """Bit-sliced value of the planned polynomial in every lane, with lanes[i]
    the lane of letter i; only lanes under width_mask are set."""
    products = {0: width_mask}
    for m, parent, v in plan.chain:
        products[m] = products[parent] & lanes[v]
    get = products.__getitem__
    acc = 0
    for lows, highs in plan.groups:
        acc ^= reduce(xor, map(get, lows)) & reduce(xor, map(get, highs))
    return acc
