"""Sparse multivariate Boolean polynomials over GF(2) with x**2 = x."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, List, Mapping, Sequence, Tuple

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


def state_var(i: int) -> int:
    """VarId of the state bit x_i (1-based, backwards letter numbering)."""
    if not 1 <= i <= N_STATE:
        raise ValueError("state bit index out of range: %d" % i)
    return N_STATE - i


def coef_var(j: int) -> int:
    """VarId of the ANF coefficient symbol Z00..Z63."""
    if not 0 <= j < 64:
        raise ValueError("coefficient index out of range: %d" % j)
    return COEF_BASE + j


def form_var(letter: str) -> int:
    """VarId of an abstract linear-form letter A..H."""
    try:
        return NAMES.index(letter, FORM_BASE)
    except ValueError:
        raise ValueError("not a form letter: %r" % letter) from None


def var_name(v: int) -> str:
    return NAMES[v]


class UsageError(ValueError):
    """The user's input or flags are wrong: the CLI exits 2 with the message."""


class ParseError(UsageError):
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


# the term budget of every FE a command builds and of is_absorber's sparse
# product, read at call time
DEFAULT_BUDGET = 1 << 22


class TermBudgetError(RuntimeError):
    """An operation exceeded the configured monomial budget."""

    def __init__(self, budget: int):
        super().__init__("term budget of %d monomials exceeded" % budget)
        self.budget = budget


class Poly:
    """Canonical Boolean polynomial: a frozenset of monomial bitmasks.

    Monomials are int bitmasks over the VarId universe; the constant 1 is the
    empty mask.  Equal monomials cancel mod 2, repeated variables collapse
    (set semantics give x**2 = x).  Instances are immutable and hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int] = ()):
        terms = list(terms)
        distinct = frozenset(terms)
        if len(distinct) != len(terms):  # some monomial repeats: fold by parity
            acc: set[int] = set()
            for t in terms:
                if t in acc:
                    acc.discard(t)
                else:
                    acc.add(t)
            distinct = frozenset(acc)
        object.__setattr__(self, "terms", distinct)

    @classmethod
    def _raw(cls, terms: frozenset) -> "Poly":
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

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
    __xor__ = __add__  # so code written for lane ints also adds Polys

    def __repr__(self):
        try:
            return "Poly(%s)" % render(self, "forms")
        except ValueError:  # no dialect reads it back: form letters beside other variables
            return "Poly(terms=%s)" % sorted(self.terms)

    def degree(self) -> int:
        """Largest monomial cardinality; -1 for the zero polynomial."""
        return max((t.bit_count() for t in self.terms), default=-1)

    def support(self) -> frozenset:
        mask = 0
        for t in self.terms:
            mask |= t
        return frozenset(_ones(mask))

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
    """Product of several polynomials, multiplied smallest first; the
    budget is checked against each intermediate and, by mul, each running
    sum, so it can refuse a budget that every intermediate fits.  An exact
    verdict over at most MAX_DENSE_VARS variables ANDs product_table instead."""
    ps = ps or [ONE]  # the empty product, checked against the budget too
    acc = ONE
    for p in sorted(ps, key=len):
        acc = mul(acc, p, budget)
    return acc


def product_table(ps: Sequence[Poly], variables: Sequence[int]) -> int:
    """Truth table over variables, which must hold every factor's support,
    of the product of ps: the AND of the factors' tables.  A factor of
    degree <= 1 gets its table from affine_table, any other from its ANF."""
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    table = (1 << (1 << n)) - 1
    for p in ps:
        if p.degree() <= 1:
            table &= affine_table(_affine_vector(p, index), n)
        else:
            table &= mobius(anf_bits(p, variables), n)
    return table


# ---------------------------------------------------------------------------
# Dense view.  Over an ordered list of n variables a polynomial is its
# 2^n-bit ANF coefficient vector: bit idx stands for the monomial of the
# variables[i] selected by the bits i of idx.  The Moebius transform maps
# that vector to the truth table (bit x = value at the point whose input
# i is bit i of x) and back.

MAX_DENSE_VARS = 20


def graded_key(mask: int):
    """Sort key of the canonical term order: degree descending, then
    lexicographic by VarId."""
    vs = _ones(mask)
    return (-len(vs), vs)


@lru_cache(maxsize=None)
def _zero_bit_mask(i: int, n: int) -> int:
    """Bitmask of point indices whose i-th input bit is 0."""
    step = 1 << i
    out, width = (1 << step) - 1, 2 * step
    while width < 1 << n:
        out |= out << width
        width *= 2
    return out


def mobius(table: int, n: int = 6) -> int:
    """Binary Moebius transform (truth table <-> ANF); an involution."""
    t = table
    for i in range(n):
        t ^= (t & _zero_bit_mask(i, n)) << (1 << i)
    return t & ((1 << (1 << n)) - 1)


@lru_cache(maxsize=None)
def _one_bit_mask(i: int, n: int) -> int:
    """Bitmask of ANF indices over n variables that hold the i-th."""
    return _zero_bit_mask(i, n) << (1 << i)


def mul_anf(anf: int, p: Poly, variables: Sequence[int], memo: dict | None = None) -> int:
    """ANF bits over variables of q*p, where anf holds q's and p is sparse over
    them.  memo maps a monomial m to q*m's bits, from {0: anf}, and grows
    with each product made, so calls that pass one memo share q's products.
    A monomial's product is its lowest variable x_i times the rest's: terms
    without x_i move onto x_i's, cancelling those there (a shift, an XOR, an AND)."""
    memo = {} if memo is None else memo
    memo.setdefault(0, anf)
    n, out = len(variables), 0
    for t in p.terms:
        chain = []  # t, then its rests, down to one the memo holds
        while t not in memo:
            chain.append(t)
            t &= t - 1
        done = memo[t]
        for m in reversed(chain):
            i = variables.index((m & -m).bit_length() - 1)  # ValueError on an undeclared variable
            done = memo[m] = (done ^ done << (1 << i)) & _one_bit_mask(i, n)
        out ^= done
    return out


def restrict(table: int, n: int, i: int, image: int) -> int:
    """Truth table of x -> table(x with input i set to image(x)).

    image is the table of a function of the other n - 1 inputs; only its
    points with input i = 0 are read.  The result does not depend on
    input i: over polynomials, it is the substitution x_i -> image.
    """
    step, low = 1 << i, _zero_bit_mask(i, n)
    at0, at1 = table & low, table >> step & low
    out = at0 ^ (at0 ^ at1) & image
    return out | out << step


@lru_cache(maxsize=None)
def weight_layers(n: int) -> List[int]:
    """Entry d masks the ANF indices over n variables that select d of them."""
    layers = [1]
    for i in range(n):
        layers = [low | high << (1 << i) for low, high in zip(layers + [0], [0] + layers)]
    return layers


def affine_table(vec: int, n: int) -> int:
    """Truth table of the affine form whose bit 0 is the constant term and
    whose bit i + 1 is the coefficient of input i."""
    full = (1 << (1 << n)) - 1
    out = full if vec & 1 else 0
    for i in range(n):
        if vec >> (i + 1) & 1:
            out ^= full ^ _zero_bit_mask(i, n)
    return out


def _affine_vector(p: Poly, index: Mapping[int, int]) -> int:
    """p, of degree <= 1, as the vector affine_table reads: bit 0 its
    constant term, bit index[v] + 1 its coefficient of v."""
    vec = 0
    for t in p.terms:
        vec ^= 2 << index[t.bit_length() - 1] if t else 1
    return vec


def _ones(table: int) -> List[int]:
    """Ascending indices of the 1 bits of a truth table or a monomial mask,
    in one linear scan."""
    s = bin(table)[::-1]  # s[i] is bit i; the "0b" prefix lands at the end
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


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


def anf_bits(p: Poly, variables: Sequence[int]) -> int:
    """ANF coefficient vector of p over an ordered variable list.

    Each monomial is read a chunk of VarIds at a time.  A chunk starts at a
    declared variable and spans at most 8 VarIds, fewer when p has few
    terms, so that no chunk's table outgrows 2 * len(p).  The table, built
    per call by doubling, maps the chunk's bits to their ANF index bits.
    """
    pos = {v: 1 << i for i, v in enumerate(variables)}
    span = min(8, len(p.terms).bit_length())
    declared, chunks, base = 0, [], -span
    for v in sorted(pos):
        declared |= 1 << v
        bit = pos[v]
        if v >= base + span:
            base, table = v, [0, bit]
            chunks.append((base, table))
        else:
            table *= 1 << (v - prev - 1)  # the undeclared VarIds in between
            table += [idx | bit for idx in table]
        prev = v
    lookups = [(base, len(table) - 1, table) for base, table in chunks]
    buf = bytearray(((1 << len(variables)) + 7) >> 3)
    support = 0
    for t in p.terms:
        support |= t
        idx = 0
        for shift, mask, table in lookups:
            idx |= table[t >> shift & mask]
        buf[idx >> 3] |= 1 << (idx & 7)
    outside = support & ~declared
    if outside:
        low = outside & -outside
        raise ValueError("polynomial uses %s outside the declared variables"
                         % var_name(low.bit_length() - 1))
    return int.from_bytes(buf, "little")


def rename(p: Poly, variables: Sequence[int]) -> Poly:
    """p over letters, bit i of a term read as VarId variables[i], a table per chunk."""
    span, out = max(1, min(8, len(p.terms).bit_length())), [0] * len(p.terms)
    for i in range(0, len(variables), span):
        table = monomial_masks(variables[i:i + span])
        out = [m | table[t >> i & len(table) - 1] for m, t in zip(out, p.terms)]
    return Poly._raw(frozenset(out))


def localize(p: Poly) -> Tuple[Poly, Tuple[int, ...]]:
    """(p over its letters, its VarIds): rename's inverse, VarId v the count of those below."""
    variables = tuple(sorted(p.support()))
    if variables != tuple(range(len(variables))):  # else p is over its own letters already
        p = rename(p, [sum(u < v for u in variables) for v in range(variables[-1] + 1)])
    return p, variables


def poly_from_anf_bits(anf: int, variables: Sequence[int]) -> Poly:
    """Polynomial over the given variables from an ANF coefficient vector."""
    return poly_from_anf_rows([(0, anf)], variables)


def poly_from_anf_rows(rows: Iterable[Tuple[int, int]], variables: Sequence[int]) -> Poly:
    """The sum, over (key, anf) rows, of the monomial key times the
    polynomial over the given variables with ANF coefficient vector anf.

    Each row's set indices come from one scan; each is decoded by two
    lookups in tables over the low and the high half of the variables,
    built once for every row.
    """
    n = len(variables)
    h = n // 2
    low, high = monomial_masks(variables[:h]), monomial_masks(variables[h:])
    low_mask, full = (1 << h) - 1, (1 << (1 << n)) - 1
    return Poly([low[i & low_mask] | high[i >> h] | key
                 for key, anf in rows for i in _ones(anf & full)])


def substitute(p: Poly, mapping: Mapping[int, Poly], budget: int | None = None) -> Poly:
    """Simultaneous substitution of variables by polynomials.

    Variables absent from the mapping pass through unchanged.  Single-monomial
    images are applied by direct mask rewriting.  Terms are grouped by the
    subset of "wide" substituted variables (image with more than one
    monomial) they contain, and each group is one ring.product of its wide
    images and the sum of its rewritten rests, smallest factor first.
    """
    if not p.terms:
        return ZERO
    zero_mask = wide_mask = 0
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
            wide_mask |= 1 << v

    groups: dict[int, list[int]] = {}
    for t in p.terms:
        if t & zero_mask:
            continue
        rest = t & ~wide_mask
        new = 0
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            new |= simple[v] if v in simple else low
            rest ^= low
        groups.setdefault(t & wide_mask, []).append(new)

    acc: frozenset = frozenset()
    for w, rest_masks in groups.items():
        piece = product([wide[v] for v in _ones(w)] + [Poly(rest_masks)], budget)
        acc ^= piece.terms
        if budget is not None and len(acc) > budget:
            raise TermBudgetError(budget)
    return Poly._raw(acc)


def factor_out(p: Poly, ell: Poly, table: int | None = None) -> Poly:
    """Quotient q with ell*q = p, for a verified affine factor ell.

    Works on truth tables over the variables of p and ell, at most
    MAX_DENSE_VARS of them; table, where the caller holds it, is p's.
    Requires (ell+1)*p = 0, that is p = 0 wherever ell = 0.  The pivot is
    the lowest VarId with linear coefficient 1 in ell; restricting p to
    pivot = pivot + ell + 1 forces ell to 1 and eliminates the pivot from
    the quotient.  The identity ell*q = p is re-checked on the tables.
    """
    if ell.degree() > 1:
        raise NotAFactorError("factor is not affine: %s" % render(ell, "forms"))
    variables = sorted(p.support() | ell.support())
    n = len(variables)
    if n > MAX_DENSE_VARS:
        raise ValueError("cannot divide over %d variables: the truth tables are "
                         "limited to %d" % (n, MAX_DENSE_VARS))
    vec = _affine_vector(ell, {v: i for i, v in enumerate(variables)})
    tp = mobius(anf_bits(p, variables), n) if table is None else table
    tl = affine_table(vec, n)
    if tp & ~tl:
        raise NotAFactorError("%s does not divide the polynomial" % render(ell, "forms"))
    linear = vec >> 1
    if not linear:
        return p  # ell == 1
    i = (linear & -linear).bit_length() - 1  # the pivot's input
    tq = restrict(tp, n, i, tl ^ affine_table(1 | 2 << i, n))  # pivot + ell + 1
    if tl & tq != tp:  # pragma: no cover - guaranteed by the precondition
        raise NotAFactorError("division check failed for %s" % render(ell, "forms"))
    return poly_from_anf_bits(mobius(tq, n), variables)


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

# Name -> monomial bit per dialect.  A token is one non-space character, or
# in the state dialect a Z followed by two digits.
_NAME_BITS = {
    "state": {name: 1 << v for v, name in enumerate(NAMES[:FORM_BASE])},
    "forms": {name: 1 << v for v, name in enumerate(NAMES)
              if v >= FORM_BASE or v in PLACEHOLDERS},
}
_TOKEN_RE = {"state": re.compile(r"Z[0-9][0-9]|\S"), "forms": re.compile(r"\S")}


def sniff_dialect(text: str) -> str:
    """Forms dialect iff a capital in A-E, G, H occurs (those letters are
    invalid in the state dialect); otherwise state."""
    return "forms" if any(c in text for c in "ABCDEGH") else "state"


def parse(text: str, dialect: str = "state") -> Poly:
    """Parse polynomial text; inverse of render on canonical polynomials."""
    return rename(*parse_local(text, dialect))


def parse_local(text: str, dialect: str = "state") -> Tuple[Poly, Tuple[int, ...]]:
    """parse(text) as localize gives it, read over the names in the text, so
    that a run of distinct letters is the sum of their bits (small ints)."""
    if dialect == "auto":
        dialect = sniff_dialect(text)
    if dialect not in _NAME_BITS:
        raise ValueError("unknown dialect: %r" % dialect)
    named = [n for n in _NAME_BITS[dialect] if n[0] in text and n in text]
    letters = {n: 1 << i for i, n in enumerate(named)}
    get, runs = letters.__getitem__, text.rstrip().split("+")
    try:  # the common text: runs of distinct letters, each term the sum of their bits
        terms = [sum(map(get, term)) for term in runs]
    except KeyError:
        terms = [0]
    if 0 in terms or sum(map(int.bit_count, terms)) + len(runs) - 1 != len(text.rstrip()):
        terms, start = [], 0
        for term in text.split("+"):
            try:
                mask = sum(map(get, term))
            except KeyError:
                mask = 0
            if not mask or mask.bit_count() != len(term):  # the empty term included
                mask = _term_mask(term, start, dialect, letters)
            if mask is not None:
                terms.append(mask)
            start += len(term) + 1
    p, held = localize(Poly(terms))  # Poly() folds repeated terms mod 2
    return p, tuple(_NAME_BITS[dialect][named[i]].bit_length() - 1 for i in held)


def _term_mask(term: str, start: int, dialect: str, names: Mapping[str, int]) -> int | None:
    """Monomial over names of one '+'-separated term at offset start, or None for 0."""
    tokens = [(start + m.start(), m.group())
              for m in _TOKEN_RE[dialect].finditer(term)]
    factors = [(pos, tok) for pos, tok in tokens if tok != "*"]
    if not factors:
        raise ParseError("empty term", start)
    if factors[0][1] in ("0", "1"):
        if len(factors) > 1:
            raise ParseError("constant may not be multiplied implicitly", factors[1][0])
        return None if factors[0][1] == "0" else 0
    mask, prev = 0, "*"
    for pos, tok in tokens:
        if tok != "*":
            if len(prev) > 1:
                raise ParseError("missing '*' after multi-character name", pos)
            if tok not in names:
                raise ParseError("unknown variable %r" % tok, pos)
            mask |= names[tok]
        prev = tok
    return mask


def render(p: Poly, dialect: str = "auto") -> str:
    """Canonical text: terms in graded order (degree descending) then
    lexicographic by VarId; '*' only around Z00..Z63 names.  Refuses form
    letters that the dialect would not read back: a lone F is read back
    only by the forms dialect, never by auto-detection."""
    if not p.terms:
        return "0"
    sup = p.support()
    forms = {v for v in sup if v >= FORM_BASE}
    if forms and not sup - forms <= set(PLACEHOLDERS):
        raise ValueError("cannot render form letters mixed with variables "
                         "other than Z, Y, X, W: no dialect reads the text back")
    if forms == {form_var("F")} and dialect != "forms":
        raise ValueError("cannot render form letter F without another of A-H: "
                         "auto-detection would read it as the round bit")
    parts = []
    for _, vs in sorted(map(graded_key, p.terms)):
        names = [NAMES[v] for v in vs] or ["1"]
        out = names[0]
        for prev, name in zip(names, names[1:]):
            out += ("*" + name) if (len(name) > 1 or len(prev) > 1) else name
        parts.append(out)
    return "+".join(parts)
