"""Seeded input generator for the invforge benchmark.

It never imports invforge: the attack hypotheses and the file formats are
written out here, so a change to the program's own random generators
cannot change what the benchmark feeds it.  The same (workload, seed,
index) always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil

SHIPPED = ("lzs-265-like.cfg", "z-reference.anf", "invariant-deg7.poly", "mu.poly")

# Wiring constraints of the degree-7 product attack (the paper's theorem):
# {D(2),D(3)} = {24,28}, {D(6),D(7)} = {8,12}, P(7..12) and P(21..26) fixed.
D23 = (24, 28)
D67 = (8, 12)
FREE_D = (4, 16, 20, 32, 36)
Y_INPUT_BITS = (27, 6, 10, 23, 21, 25)
W_INPUT_BITS = (26, 9, 5, 22, 7, 11)
NON_MULTIPLES_OF_4 = tuple(b for b in range(1, 37) if b % 4)

LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


def rng_for(*key) -> random.Random:
    """A generator keyed by any tuple of ints and strings."""
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def conforming_wiring(rng: random.Random):
    """D permutes the nonzero multiples of 4 (so the round is a bijection)
    with the two attack pairs in place; P avoids multiples of 4 and carries
    the fixed Y and W instance inputs."""
    free = list(FREE_D)
    d23 = list(D23)
    d67 = list(D67)
    rng.shuffle(free)
    rng.shuffle(d23)
    rng.shuffle(d67)
    d = (free[0], d23[0], d23[1], free[1], free[2], d67[0], d67[1], free[3], free[4])
    p = [rng.choice(NON_MULTIPLES_OF_4) for _ in range(27)]
    p[6:12] = Y_INPUT_BITS
    p[20:26] = W_INPUT_BITS
    return d, tuple(p)


def random_wiring(rng: random.Random):
    """Any valid long-term key: nine distinct D entries in 0..36 (0 wires in
    the key bit K) and 27 P entries in 1..36."""
    d = tuple(rng.sample(range(37), 9))
    p = tuple(rng.randrange(1, 37) for _ in range(27))
    return d, p


def is_conforming(d, p) -> bool:
    return ({d[1], d[2]} == set(D23) and {d[5], d[6]} == set(D67)
            and tuple(p[6:12]) == Y_INPUT_BITS and tuple(p[20:26]) == W_INPUT_BITS)


def render_wiring(d, p) -> str:
    return "D = %s\nP = %s\n" % (",".join(map(str, d)), ",".join(map(str, p)))


def parse_wiring(text: str):
    d = p = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition("=")
        values = tuple(int(tok) for tok in rest.replace(",", " ").split())
        if key.strip().upper() == "D":
            d = values
        else:
            p = values
    return d, p


def affine_product_poly(rng: random.Random, nforms: int = 4) -> str:
    """Product of affine forms over disjoint lowercase letter sets, expanded.

    Disjoint supports keep the forms independent, so the product is never
    zero and has a nonzero degree-1 annihilator space.
    """
    letters = rng.sample(LOWERCASE, 3 * nforms)
    acc = {frozenset()}
    for i in range(nforms):
        names = letters[3 * i:3 * i + rng.choice((2, 3))]
        form = [frozenset(c) for c in names]
        if rng.getrandbits(1):
            form.append(frozenset())
        nxt = set()
        for a in acc:
            for b in form:
                nxt ^= {a | b}
        acc = nxt
    terms = sorted(("".join(sorted(t)) or "1") for t in acc)
    return "+".join(terms) + "\n"


def write_inputs(src_data: str, out_dir: str, workload: str, seed: int,
                 sets: int) -> None:
    """Copy the shipped fixtures and write `sets` seeded input sets.

    Set i holds conf-i.cfg (conforming wiring), rand-i.cfg (any wiring),
    fun-i.anf (random truth table, 16 hex digits), prod-i.poly (product of
    affine forms) and state-i.hex (a 36-bit state).
    """
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    for name in SHIPPED:
        shutil.copyfile(os.path.join(src_data, name), os.path.join(out_dir, name))
    for i in range(sets):
        rng = rng_for(workload, seed, i)
        files = {
            "conf-%d.cfg" % i: render_wiring(*conforming_wiring(rng)),
            "rand-%d.cfg" % i: render_wiring(*random_wiring(rng)),
            "fun-%d.anf" % i: "%016x\n" % rng.getrandbits(64),
            "prod-%d.poly" % i: affine_product_poly(rng),
            "state-%d.hex" % i: "%09x\n" % rng.getrandbits(36),
        }
        for name, text in files.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def tree_digest(path: str) -> str:
    """sha256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
