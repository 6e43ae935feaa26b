"""T-310 long-term key (LZS) model and the one-round 36-polynomial system."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_, xor
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .boolfun import BoolFun6
from .ring import (
    F_BIT, K_BIT, L_BIT, PLACEHOLDERS,
    Poly, coef_var, monomial_masks, state_var, var,
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


class WiringError(ValueError):
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

    Evaluates the displayed equations directly with truth-table lookups.
    """
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

    out = (state << 1) & _TRIVIAL_MASK
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


def step_lanes(lanes: List[int], w: Wiring, fun: BoolFun6 | LanePlan,
               f_lane: int, k_lane: int, l_lane: int,
               width_mask: int) -> List[int]:
    """Bit-sliced round over many states at once.

    lanes[i] holds bit x_{i+1} of every state; the per-round bits are lanes
    too, so each trajectory can see its own F/K/L.  The function instances
    are evaluated through their ANF, which keeps this path independent of
    the truth-table lookups in step(); fun may be the LanePlan of that ANF,
    so that many rounds share one plan.  The schedule is _outputs(), shared
    with round_system(); tests check it against step().
    """
    anf = fun if isinstance(fun, LanePlan) else LanePlan(fun.anf_poly())
    by_var = lanes[::-1] + [f_lane, k_lane, l_lane]  # indexed by VarId
    # the formal inputs a..f are VarIds 0..5: a list of argument lanes is indexed by VarId
    inst = [eval_poly_lanes(anf, [by_var[v] for v in args], width_mask)
            for args in w.z_args]
    return _outputs(w, (k_lane, *lanes).__getitem__, f_lane, l_lane, inst)


class LanePlan:
    """How to evaluate one polynomial bit-sliced, built once per polynomial.

    A term is split into its low part, over the lowest min(n // 2, 8) of the
    n support variables, and its high part.  High parts that occur with the
    same set of low parts form one group, whose value is the XOR of those
    low parts' lane products ANDed with the XOR of its high parts' ones:
    the degree-7 product invariant's 2,080 terms make 3 groups.  chain
    lists every sub-monomial the groups need, and the ones they are built
    from, in increasing order as (mask, mask less its lowest variable, that
    variable), so each lane product is one AND.
    """

    __slots__ = ("chain", "groups")

    def __init__(self, p: Poly):
        terms = p.terms
        support = reduce(or_, terms, 0)
        low_mask = 0
        for _ in range(min(support.bit_count() // 2, 8)):
            rest = support ^ low_mask
            low_mask |= rest & -rest
        lows_of: Dict[int, List[int]] = {}
        for t in terms:
            low = t & low_mask
            lows_of.setdefault(t ^ low, []).append(low)
        highs_of: Dict[FrozenSet[int], List[int]] = {}
        needed = set(lows_of)
        for high, lows in lows_of.items():
            needed.update(lows)
            highs_of.setdefault(frozenset(lows), []).append(high)
        for m in list(needed):
            m &= m - 1
            while m not in needed:
                needed.add(m)
                m &= m - 1
        needed.discard(0)
        self.chain = [(m, m & (m - 1), (m & -m).bit_length() - 1) for m in sorted(needed)]
        self.groups = list(highs_of.items())

    def run(self, lanes: Dict[int, int] | Sequence[int], width_mask: int) -> int:
        """The polynomial's value in every lane; lanes[v] is variable v's lane."""
        products = {0: width_mask}
        for m, parent, v in self.chain:
            products[m] = products[parent] & lanes[v]
        get = products.__getitem__
        acc = 0
        for lows, highs in self.groups:
            acc ^= reduce(xor, map(get, lows)) & reduce(xor, map(get, highs))
        return acc


def eval_poly_lanes(p: Poly | LanePlan, lanes: Dict[int, int] | Sequence[int],
                    width_mask: int) -> int:
    """Bit-sliced evaluation of a polynomial, given as a Poly or its LanePlan,
    with lanes[v] the lane of variable v; only lanes under width_mask are set."""
    return (p if isinstance(p, LanePlan) else LanePlan(p)).run(lanes, width_mask)
