"""Output checker for the invforge benchmark.

Every answer here comes from a channel other than the one under test:
polynomial identities are re-checked on truth tables built by this file's
own Moebius transform, FE verdicts are decided by the paper's theorem or
by a counterexample found with the concrete round `cipher.step`, and
linear periods are re-derived by iterating the round map read off
`cipher.step`.  A check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

from gen import is_conforming, parse_wiring

STATE_LETTERS = "abcdefghijklmnopqrstuvwxyzMNOPQRSTUV"  # a = x36 ... V = x1
STATE_BIT = {c: 36 - i for i, c in enumerate(STATE_LETTERS)}
LOWERCASE26_MASK = ((1 << 36) - 1) ^ ((1 << 10) - 1)
SAMPLES = 1 << 14


# ---------------------------------------------------------------------------
# Polynomials as sets of monomials, monomials as strings of one-letter names.

def parse_poly(text: str) -> set:
    terms = set()
    for raw in text.replace("*", "").split("+"):
        tok = raw.strip()
        if tok == "0":
            continue
        mono = "" if tok == "1" else "".join(sorted(set(tok)))
        terms ^= {mono}
    return terms


def letters_of(*polys) -> list:
    return sorted({c for p in polys for t in p for c in t})


@lru_cache(maxsize=None)
def _zero_mask(i: int, n: int) -> int:
    """Points (bit x of the table) whose input bit i is 0."""
    width = 1 << i
    pattern = (1 << width) - 1
    out, span = pattern, 2 * width
    while span < (1 << n):
        out |= out << span
        span *= 2
    return out


def var_table(i: int, n: int) -> int:
    return ((1 << (1 << n)) - 1) ^ _zero_mask(i, n)


def mobius(table: int, n: int) -> int:
    for i in range(n):
        table ^= (table & _zero_mask(i, n)) << (1 << i)
    return table & ((1 << (1 << n)) - 1)


def truth_table(poly: set, order: list) -> int:
    pos = {c: i for i, c in enumerate(order)}
    anf = 0
    for t in poly:
        idx = 0
        for c in t:
            idx |= 1 << pos[c]
        anf ^= 1 << idx
    return mobius(anf, len(order))


# ---------------------------------------------------------------------------
# Concrete invariant checks through cipher.step.

class Invariant:
    """A state-dialect polynomial evaluated through its truth table."""

    def __init__(self, text: str):
        poly = parse_poly(text)
        order = letters_of(poly)
        self.bits = [STATE_BIT[c] - 1 for c in order]
        self.table = truth_table(poly, order)
        self.ones = [x for x in range(1 << len(order)) if (self.table >> x) & 1]

    def __call__(self, state: int) -> int:
        idx = 0
        for i, b in enumerate(self.bits):
            idx |= ((state >> b) & 1) << i
        return (self.table >> idx) & 1

    def state_where_one(self, rng: random.Random) -> int:
        point = self.ones[rng.randrange(len(self.ones))]
        state = rng.getrandbits(36)
        for i, b in enumerate(self.bits):
            state = (state & ~(1 << b)) | (((point >> i) & 1) << b)
        return state


def find_counterexample(inv: Invariant, step, wiring, fun, rng: random.Random,
                        limit: int = SAMPLES):
    """A state and round bits on which inv changes under one concrete round.

    Half the samples start where inv = 1, since a random state rarely does.
    """
    for k in range(limit):
        state = inv.state_where_one(rng) if k & 1 else rng.getrandbits(36)
        bits = (rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1))
        if inv(state) != inv(step(state, wiring, fun, *bits)):
            return state, bits
    return None


# ---------------------------------------------------------------------------

def fields(out: str) -> dict:
    """'key = value' lines of a text report."""
    got = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            got.setdefault(key.strip(), value.strip())
    return got


def _prime_factors(k: int) -> list:
    out, d = [], 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return out + ([k] if k > 1 else [])


class Checker:
    """Checks one op's (exit code, stdout) against independent answers.

    `inv` is the imported invforge package; only its concrete round
    (`cipher.step`, `cipher.step_lanes`), its value types and the trial
    function stream of `search` are used.
    """

    def __init__(self, inv, inputs: str, seed: int):
        self.cipher = inv.cipher
        self.boolfun = inv.boolfun
        self.inputs = inputs
        self.rng = random.Random(seed)
        self._verdicts = {}
        self._texts = {}
        self._invariants = {}

    def text(self, name: str) -> str:
        if name not in self._texts:
            with open("%s/%s" % (self.inputs, name), encoding="utf-8") as fh:
                self._texts[name] = fh.read()
        return self._texts[name]

    def wiring(self, name: str):
        return self.cipher.Wiring(*map(tuple, parse_wiring(self.text(name))))

    def invariant(self, name: str) -> Invariant:
        if name not in self._invariants:
            self._invariants[name] = Invariant(self.text(name))
        return self._invariants[name]

    def fun(self, name: str):
        text = "".join(self.text(name).split())
        if re.fullmatch(r"[0-9a-fA-F]{16}", text):
            return self.boolfun.BoolFun6(int(text, 16))
        order = list("abcdef")  # formal argument i is letter i
        return self.boolfun.BoolFun6(truth_table(parse_poly(text), order))

    def invariant_holds(self, lzs: str, fun: str, invariant: str):
        """(verdict, reason): the theorem, else a concrete counterexample."""
        key = (lzs, fun, invariant)
        if key not in self._verdicts:
            w = self.wiring(lzs)
            if (is_conforming(w.d, w.p) and fun == "z-reference.anf"
                    and invariant == "invariant-deg7.poly"):
                self._verdicts[key] = (True, "theorem")
            else:
                self._verdicts[key] = self._by_counterexample(
                    w, self.fun(fun), self.invariant(invariant))
        return self._verdicts[key]

    def _by_counterexample(self, w, fun, inv):
        cex = find_counterexample(inv, self.cipher.step, w, fun, self.rng)
        if cex is None:
            return True, "no counterexample in %d concrete rounds" % SAMPLES
        return False, "counterexample state %09x F,K,L=%s" % cex

    # -- one method per op kind ------------------------------------------

    def verify(self, rc, out, op):
        truth, why = self.invariant_holds(op["lzs"], op["fun"], "invariant-deg7.poly")
        fe_line = [ln for ln in out.splitlines() if ln.startswith("step fundamental-equation:")]
        if len(fe_line) != 1:
            return "no fundamental-equation step"
        said = "PASS" in fe_line[0]
        if said != truth:
            return "FE step says %s, expected %s (%s)" % (said, truth, why)
        last = out.splitlines()[-1]
        if (rc == 0) != (last == "ALL STEPS PASS") or rc not in (0, 1):
            return "exit code %s disagrees with %r" % (rc, last)
        if op["fun"] == "z-reference.anf" and rc != 0:
            return "theorem case must pass every step"
        return None

    def fe(self, rc, out, op):
        truth, why = self.invariant_holds(op["lzs"], op["fun"], op["invariant"])
        got = fields(out)
        if (got.get("is_zero") == "true") != truth:
            return "is_zero = %s, expected %s (%s)" % (got.get("is_zero"), truth, why)
        if rc != (0 if truth else 1):
            return "exit code %s" % rc
        if got.get("empirical trials") != str(op["trials"]):
            return "empirical trials missing"
        if truth and got.get("empirical mismatches") != "0":
            return "empirical mismatches on a true invariant"
        return None

    def symbolic(self, rc, out, op):
        got = fields(out)
        if rc != 0 or got.get("is_zero") != "false" or got.get("mode") != "symbolic":
            return "symbolic FE must be nonzero with exit 0"
        truth, why = self.invariant_holds(op["lzs"], op["fun"], op["invariant"])
        if truth:
            return "no concrete function refutes the nonzero symbolic FE"
        allowed = {"Z%02d" % j for j in range(64)} | {"F", "K", "L"}
        if not set(got.get("depends_on", "").split(",")) <= allowed:
            return "depends_on has non-coefficient symbols"
        m = re.fullmatch(r"<(\d+) terms, degree (\d+)>", got.get("fe", ""))
        if not m:
            return "unexpected fe line"
        if op["lzs"] == "lzs-265-like.cfg" and m.groups() != ("110720", "13"):
            return "shipped wiring FE is %s terms of degree %s, not 110720 of 13" % m.groups()
        return None

    def budget(self, rc, out, op):
        return None if rc == 3 and out == "" else "budget op must exit 3 silently"

    def factor(self, rc, out, op):
        poly = parse_poly(self.text(op["poly"]))
        lines = out.splitlines()
        trees = [re.fullmatch(r"tree \d+: factors = \{(.*)\} leaf = (.*)", ln)
                 for ln in lines[:-1]]
        if rc != 0 or not trees or not all(trees) or len(trees) > op["trees"]:
            return "malformed factor report"
        sets = set()
        for m in trees:
            factors = [parse_poly(f) for f in m.group(1).split(", ")]
            leaf = parse_poly(m.group(2))
            order = letters_of(poly, leaf, *factors)
            acc = truth_table(leaf, order)
            for f in factors:
                if max(len(t) for t in f) != 1:
                    return "factor %s is not affine" % m.group(1)
                acc &= truth_table(f, order)
            if acc != truth_table(poly, order):
                return "factors times leaf do not re-multiply to the input"
            sets.add(frozenset(m.group(1).split(", ")))
        if lines[-1] != "distinct factor sets = %d" % len(sets):
            return "distinct factor set count is wrong"
        return None

    def annihilators(self, rc, out, op):
        poly = parse_poly(self.text(op["poly"]))
        got = fields(out)
        order = got.get("variables", "").split(",")
        basis = [parse_poly(ln[len("basis: "):]) for ln in out.splitlines()
                 if ln.startswith("basis: ")]
        if sorted(order) != letters_of(poly) or len(basis) != int(got.get("dimension", -1)):
            return "malformed annihilator report"
        n = len(order)
        f = truth_table(poly, order)
        rows = []
        for g in basis:
            if max(len(t) for t in g) > 1:
                return "basis element above degree 1"
            tg = truth_table(g, order)
            if tg & f:
                return "basis element does not annihilate"
            rows.append(tg)
        if _rank(rows) != len(rows):
            return "basis is linearly dependent"
        # Count every affine function vanishing on supp(f), in Gray-code order.
        full = (1 << (1 << n)) - 1
        tables = [full] + [var_table(i, n) for i in range(n)]
        count, acc = 0, 0
        for k in range(1, 1 << (n + 1)):
            acc ^= tables[(k & -k).bit_length() - 1]
            count += not (acc & f)
        if count + 1 != 1 << len(basis):
            return "dimension %d, but %d affine annihilators exist" % (len(basis), count + 1)
        return None if rc == (0 if basis else 1) else "exit code %s" % rc

    def step(self, rc, out, op):
        w = self.wiring(op["lzs"])
        fun = self.fun(op["fun"])
        state = int(self.text(op["state"]), 16)
        lanes = [(state >> i) & 1 for i in range(36)]
        for _ in range(op["rounds"]):
            lanes = self.cipher.step_lanes(lanes, w, fun, op["f"], 0, 0, 1)
        want = sum(bit << i for i, bit in enumerate(lanes))
        return None if rc == 0 and out == "state = %09x\n" % want else \
            "step disagrees with the bit-sliced round (want %09x)" % want

    def search(self, rc, out, op):
        got = fields(out)
        if rc != 0 or got.get("trials") != str(op["trials"]):
            return "malformed search report"
        hits = {int(i): int(tt, 16) for i, tt in
                re.findall(r"hit trial=(\d+) tt=([0-9a-f]{16})", out)}
        if got.get("hits") != str(len(hits)):
            return "hit count disagrees with hit lines"
        w = self.wiring(op["lzs"])
        inv = self.invariant(op["invariant"])
        for i in range(op["trials"]):
            fun = self.boolfun.random_boolfun(op["seed"] + i)
            truth, why = self._by_counterexample(w, fun, inv)
            if truth != (i in hits) or (i in hits and hits[i] != fun.tt):
                return "trial %d: reported %s, expected %s (%s)" % (i, i in hits, truth, why)
        return None

    def linear_cycle(self, rc, out, op):
        w = self.wiring(op["lzs"])
        zero = self.boolfun.BoolFun6(0)
        step = self.cipher.step
        cols = [step(1 << j, w, zero, 0, 0, 0) for j in range(36)]
        offsets = [v for v in (step(0, w, zero, 1, 0, 0), step(0, w, zero, 0, 1, 0),
                               step(0, w, zero, 0, 0, 1)) if v]

        def orbit(ell, k):
            seq = [ell]
            for _ in range(k):
                cur = seq[-1]
                seq.append(sum(((cur & c).bit_count() & 1) << j for j, c in enumerate(cols)))
            return seq

        def invariant_at(seq, k):
            return seq[k] == seq[0] and all(
                not (seq[i] & v).bit_count() & 1 for i in range(k) for v in offsets)

        if rc != 0:
            return "exit code %s" % rc
        entries = re.findall(r"period=(\d+) dim=(\d+) functional=([0-9a-f]{9}) "
                             r"weights=([0-9,]+)", out)
        if not entries and out != "no invariant functionals up to period %d\n" % op["max_period"]:
            return "malformed linear-cycle report"
        if len(entries) != len(out.splitlines()) and entries:
            return "unparsed linear-cycle lines"
        for period, _dim, fv, weights in entries:
            k, ell = int(period), int(fv, 16)
            seq = orbit(ell, k)
            if not ell or k > op["max_period"] or not invariant_at(seq, k):
                return "functional %s is not invariant at period %d" % (fv, k)
            if any(invariant_at(seq, k // q) for q in _prime_factors(k)):
                return "functional %s has a period below %d" % (fv, k)
            want = [(f & LOWERCASE26_MASK).bit_count() for f in seq[:k]]
            if weights != ",".join(map(str, want)):
                return "weights of %s are wrong" % fv
        return None


def _rank(rows: list) -> int:
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)
