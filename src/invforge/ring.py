"""Sparse multivariate Boolean polynomials over GF(2) with x**2 = x."""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

# ---------------------------------------------------------------------------
# Variable universe.
#
# VarIds are small integers in display order: the 36 state bits come first,
# named with the backwards letter convention (a = x36 ... z = x11, then
# M = x10 ... V = x1), followed by the per-round bits F, K, L, the four
# substitution placeholders Z, Y, X, W, the 64 ANF coefficient symbols
# Z00..Z63, and the eight abstract linear-form letters A..H used by the
# invariant lab.  Capital F is simultaneously a round bit (state dialect)
# and a linear-form letter (forms dialect); the two never live in one
# polynomial, see parse()/render().

STATE_LETTERS = "abcdefghijklmnopqrstuvwxyzMNOPQRSTUV"
N_STATE = 36
F_BIT = 36
K_BIT = 37
L_BIT = 38
PLACEHOLDER_Z = 39
PLACEHOLDER_Y = 40
PLACEHOLDER_X = 41
PLACEHOLDER_W = 42
PLACEHOLDERS = (PLACEHOLDER_Z, PLACEHOLDER_Y, PLACEHOLDER_X, PLACEHOLDER_W)
COEF_BASE = 43          # Z00 .. Z63 -> 43 .. 106
FORM_BASE = 107         # A .. H -> 107 .. 114
N_VARS = FORM_BASE + 8

FORM_LETTERS = "ABCDEFGH"

NAMES = (
    list(STATE_LETTERS)
    + ["F", "K", "L", "Z", "Y", "X", "W"]
    + ["Z%02d" % j for j in range(64)]
    + list(FORM_LETTERS)
)

_STATE_BY_LETTER = {c: i for i, c in enumerate(STATE_LETTERS)}
_SPECIAL_BY_LETTER = {
    "F": F_BIT, "K": K_BIT, "L": L_BIT,
    "Z": PLACEHOLDER_Z, "Y": PLACEHOLDER_Y, "X": PLACEHOLDER_X, "W": PLACEHOLDER_W,
}
_FORM_BY_LETTER = {c: FORM_BASE + i for i, c in enumerate(FORM_LETTERS)}

STATE_MASK = (1 << N_STATE) - 1
NONSTATE_MASK = ((1 << N_VARS) - 1) ^ STATE_MASK


def state_var(i: int) -> int:
    """VarId of the state bit x_i (1-based, backwards letter numbering)."""
    if not 1 <= i <= N_STATE:
        raise ValueError("state bit index out of range: %d" % i)
    return N_STATE - i


def state_index(v: int) -> int:
    """Inverse of state_var."""
    if not 0 <= v < N_STATE:
        raise ValueError("not a state VarId: %d" % v)
    return N_STATE - v


def coef_var(j: int) -> int:
    """VarId of the ANF coefficient symbol Z00..Z63."""
    if not 0 <= j < 64:
        raise ValueError("coefficient index out of range: %d" % j)
    return COEF_BASE + j


def form_var(letter: str) -> int:
    """VarId of an abstract linear-form letter A..H."""
    try:
        return _FORM_BY_LETTER[letter]
    except KeyError:
        raise ValueError("not a form letter: %r" % letter) from None


def var_name(v: int) -> str:
    return NAMES[v]


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnassignedVariableError(KeyError):
    def __init__(self, missing: Sequence[int]):
        names = ",".join(var_name(v) for v in sorted(missing))
        super().__init__("unassigned variables: %s" % names)
        self.missing = tuple(sorted(missing))


class NotAFactorError(ValueError):
    pass


class TermBudgetError(RuntimeError):
    """An operation exceeded the configured monomial budget."""

    def __init__(self, budget: int):
        super().__init__("term budget of %d monomials exceeded" % budget)
        self.budget = budget


def _mono_key(mask: int):
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return (len(vs), tuple(vs))


class Poly:
    """Canonical Boolean polynomial: a frozenset of monomial bitmasks.

    Monomials are int bitmasks over the VarId universe; the constant 1 is the
    empty mask.  Equal monomials cancel mod 2, repeated variables collapse
    (set semantics give x**2 = x).  Instances are immutable and hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int] = ()):
        acc: set[int] = set()
        for t in terms:
            if t in acc:
                acc.discard(t)
            else:
                acc.add(t)
        object.__setattr__(self, "terms", frozenset(acc))

    @classmethod
    def _raw(cls, terms: frozenset) -> "Poly":
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly, (tuple(self.terms),))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._raw(self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        return mul(self, other)

    def __repr__(self):
        return "Poly(%s)" % render(self)

    def degree(self) -> int:
        """Largest monomial cardinality; -1 for the zero polynomial."""
        return max((t.bit_count() for t in self.terms), default=-1)

    def support(self) -> frozenset:
        mask = 0
        for t in self.terms:
            mask |= t
        out = set()
        while mask:
            low = mask & -mask
            out.add(low.bit_length() - 1)
            mask ^= low
        return frozenset(out)

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        """GF(2) value under a total assignment of the support."""
        missing = [v for v in self.support() if v not in assignment]
        if missing:
            raise UnassignedVariableError(missing)
        ones = 0
        for v, bit in assignment.items():
            if bit & 1:
                ones |= 1 << v
        acc = 0
        for t in self.terms:
            if t & ones == t:
                acc ^= 1
        return acc


ZERO = Poly._raw(frozenset())
ONE = Poly._raw(frozenset((0,)))


def var(v: int) -> Poly:
    if not 0 <= v < N_VARS:
        raise ValueError("VarId out of range: %d" % v)
    return Poly._raw(frozenset((1 << v,)))


def add(p: Poly, q: Poly) -> Poly:
    return Poly._raw(p.terms ^ q.terms)


def add_many(ps: Iterable[Poly]) -> Poly:
    acc: frozenset = frozenset()
    for p in ps:
        acc ^= p.terms
    return Poly._raw(acc)


def mul(p: Poly, q: Poly, budget: int | None = None) -> Poly:
    """Distributed product with x**2 = x merging and mod-2 cancellation."""
    if not p.terms or not q.terms:
        return ZERO
    if len(p.terms) > len(q.terms):
        p, q = q, p
    acc: set[int] = set()
    for a in p.terms:
        for b in q.terms:
            m = a | b
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
        if budget is not None and len(acc) > budget:
            raise TermBudgetError(budget)
    return Poly._raw(frozenset(acc))


def product(ps: Sequence[Poly], budget: int | None = None) -> Poly:
    """Product of several polynomials, smallest factors first."""
    if not ps:
        return ONE
    acc = ONE
    for p in sorted(ps, key=len):
        acc = mul(acc, p, budget)
    return acc


def evaluate(p: Poly, assignment: Mapping[int, int]) -> int:
    return p.evaluate(assignment)


def substitute(p: Poly, mapping: Mapping[int, Poly], budget: int | None = None) -> Poly:
    """Simultaneous substitution of variables by polynomials.

    Variables absent from the mapping pass through unchanged.  Terms are
    grouped by the subset of "wide" substituted variables (image with more
    than one monomial) they contain, so each wide image product is computed
    once; single-monomial images are applied by direct mask rewriting.
    """
    if not p.terms:
        return ZERO
    zero_mask = 0
    simple: dict[int, int] = {}
    wide: dict[int, Poly] = {}
    for v, img in mapping.items():
        n = len(img.terms)
        if n == 0:
            zero_mask |= 1 << v
        elif n == 1:
            simple[v] = next(iter(img.terms))
        else:
            wide[v] = img
    wide_mask = 0
    for v in wide:
        wide_mask |= 1 << v

    groups: dict[int, set[int]] = {}
    for t in p.terms:
        if t & zero_mask:
            continue
        w = t & wide_mask
        rest = t & ~wide_mask
        new = 0
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            new |= simple[v] if v in simple else low
            rest ^= low
        bucket = groups.setdefault(w, set())
        if new in bucket:
            bucket.discard(new)
        else:
            bucket.add(new)

    img_cache: dict[int, Poly] = {0: ONE}

    def wide_product(w: int) -> Poly:
        got = img_cache.get(w)
        if got is not None:
            return got
        low = w & -w
        part = mul(wide[low.bit_length() - 1], wide_product(w ^ low), budget)
        img_cache[w] = part
        return part

    acc: frozenset = frozenset()
    for w, rest_masks in groups.items():
        piece = mul(wide_product(w), Poly._raw(frozenset(rest_masks)), budget)
        acc ^= piece.terms
        if budget is not None and len(acc) > budget:
            raise TermBudgetError(budget)
    return Poly._raw(acc)


def factor_out(p: Poly, ell: Poly) -> Poly:
    """Quotient q with ell*q = p, for a verified affine factor ell.

    Requires (ell+1)*p = 0.  The pivot is the lowest VarId with linear
    coefficient 1 in ell; substituting pivot -> pivot + ell + 1 forces
    ell to 1 and eliminates the pivot from the quotient.  The identity
    ell*q = p is re-checked exactly.
    """
    if ell.degree() > 1:
        raise NotAFactorError("factor is not affine: %s" % render(ell))
    if mul(add(ell, ONE), p):
        raise NotAFactorError("%s does not divide the polynomial" % render(ell))
    linear = [t for t in ell.terms if t]
    if not linear:
        return p  # ell == 1
    pivot = min(t.bit_length() - 1 for t in linear)
    image = add(add(var(pivot), ell), ONE)
    q = substitute(p, {pivot: image})
    if mul(ell, q) != p:  # pragma: no cover - guaranteed by the precondition
        raise NotAFactorError("division check failed for %s" % render(ell))
    return q


# ---------------------------------------------------------------------------
# Text format.
#
# Terms are joined by '+'; a term is '1' (or '0' for the zero polynomial) or
# a product of variable names.  Single-letter names may be juxtaposed
# ("abcdijkl", "Lj"); the multi-character coefficient names Z00..Z63 must be
# separated by '*' ("Z62*jhfpd").  Whitespace is ignored.  The state dialect
# reads a-z, M-V, F, K, L, Z, Y, X, W and Z00..Z63; the forms dialect reads
# the abstract letters A-H plus the placeholders (capital F then means the
# form, not the round bit).

_COEF_RE = re.compile(r"Z[0-9][0-9]")


def _letter_table(dialect: str) -> dict:
    if dialect == "state":
        table = dict(_STATE_BY_LETTER)
        table.update(_SPECIAL_BY_LETTER)
        return table
    if dialect == "forms":
        table = dict(_FORM_BY_LETTER)
        for c in "ZYXW":
            table[c] = _SPECIAL_BY_LETTER[c]
        return table
    raise ValueError("unknown dialect: %r" % dialect)


def sniff_dialect(text: str) -> str:
    """Forms dialect iff a capital in A-E, G, H occurs (those letters are
    invalid in the state dialect); otherwise state."""
    return "forms" if re.search(r"[A-EGH]", text) else "state"


def parse(text: str, dialect: str = "state") -> Poly:
    """Parse polynomial text; inverse of render on canonical polynomials."""
    if dialect == "auto":
        dialect = sniff_dialect(text)
    table = _letter_table(dialect)
    terms: set[int] = set()
    mask = 0
    seen_var = False
    seen_const = None  # None | '0' | '1'
    term_start = 0
    after_multichar = False

    def close_term(pos: int):
        nonlocal mask, seen_var, seen_const, after_multichar
        if not seen_var and seen_const is None:
            raise ParseError("empty term", term_start)
        if seen_const == "0":
            pass  # contributes nothing
        elif mask in terms:
            terms.discard(mask)
        else:
            terms.add(mask)
        mask = 0
        seen_var = False
        seen_const = None
        after_multichar = False

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "+":
            close_term(i)
            i += 1
            term_start = i
            continue
        if c == "*":
            after_multichar = False
            i += 1
            continue
        if seen_const is not None:
            raise ParseError("constant may not be multiplied implicitly", i)
        if after_multichar:
            raise ParseError("missing '*' after multi-character name", i)
        if c in "01" and not seen_var:
            seen_const = c
            i += 1
            continue
        m = _COEF_RE.match(text, i)
        if m and dialect == "state":
            mask |= 1 << coef_var(int(m.group()[1:]))
            seen_var = True
            after_multichar = True
            i = m.end()
            continue
        v = table.get(c)
        if v is None:
            raise ParseError("unknown variable %r" % c, i)
        mask |= 1 << v
        seen_var = True
        i += 1
    close_term(n)
    return Poly(terms)  # Poly() folds duplicates mod 2 (already handled)


def render(p: Poly) -> str:
    """Canonical text: terms in graded order (degree descending) then
    lexicographic by VarId; '*' only around Z00..Z63 names."""
    if not p.terms:
        return "0"
    sup = p.support()
    if any(v >= FORM_BASE for v in sup) and any(
            v < FORM_BASE and v not in PLACEHOLDERS for v in sup):
        raise ValueError("cannot render form letters mixed with variables "
                         "other than Z, Y, X, W: no dialect reads the text back")
    parts = []
    for t in sorted(p.terms, key=lambda t: (-t.bit_count(),) + _mono_key(t)[1:]):
        if t == 0:
            parts.append("1")
            continue
        pieces = []
        m = t
        while m:
            low = m & -m
            pieces.append(var_name(low.bit_length() - 1))
            m ^= low
        out = pieces[0]
        for prev, name in zip(pieces, pieces[1:]):
            out += ("*" + name) if (len(name) > 1 or len(prev) > 1) else name
        parts.append(out)
    return "+".join(parts)
