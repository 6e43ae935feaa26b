"""GF(2) linear algebra on int bitset rows (bit j = column j)."""

from __future__ import annotations

from typing import List, Sequence, Tuple


def rref(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    width = (1 << ncols) - 1
    by_pivot = {}  # pivot (the lowest set bit, below ncols) -> reduced row
    pivot_mask = 0
    for r in rows:
        m = r & pivot_mask
        while m:  # a reduced row holds no other row's pivot
            low = m & -m
            r ^= by_pivot[low]
            m ^= low
        if r & width:
            bit = r & -r
            for b, row in by_pivot.items():
                if row & bit:
                    by_pivot[b] = row ^ r
            by_pivot[bit] = r
            pivot_mask |= bit
    bits = sorted(by_pivot)
    return [by_pivot[b] for b in bits], [b.bit_length() - 1 for b in bits]


def kernel_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {v : row . v = 0 for all rows}, one vector per free column."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pc in zip(reduced, pivots):
            if row & (1 << free):
                v |= 1 << pc
        basis.append(v)
    return basis


def solve_affine_ones(points: Sequence[int], nvars: int) -> List[int]:
    """Homogeneous basis of the solutions c = (c0, c1..cn) of
    c0 + sum(c_i * x_i) = 1 on every point.

    Points are variable bitmasks; vectors use bit 0 for the constant and
    bit i+1 for variable i.  The constant form 1 solves every such system,
    so the solutions are 1 + the span of the returned basis.
    """
    return kernel_basis([(x << 1) | 1 for x in points], nvars + 1)


def mat_vec(rows: Sequence[int], v: int) -> int:
    """Matrix-vector product over GF(2); rows index the output bits."""
    out = 0
    for i, r in enumerate(rows):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    out = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return out


def mat_mul(a: Sequence[int], b: Sequence[int], ncols: int) -> List[int]:
    """Row-major product a @ b (rows of the result span ncols columns):
    row i is the XOR of the rows of b picked by the bits of row i of a."""
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def identity(n: int) -> List[int]:
    return [1 << i for i in range(n)]
