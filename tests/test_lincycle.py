import itertools
import math
import random

import pytest

from invforge import gf2, lincycle
from invforge.boolfun import ZERO_FUN
from invforge.cipher import random_wiring, step
from invforge.lincycle import (
    ALL36_MASK, LOWERCASE26_MASK, AffineRound, PeriodEntry, affine_of,
    linear_invariant_periods, orbit, synthetic_permutation, weight_sequence,
)
from reference import affine_apply, periods_by_full_system


# Reference implementations: the definitions the optimised code must match.

def _mat_mul_by_parity(a, b, ncols):
    bt = gf2.transpose(b, ncols)
    return [sum(((r & col).bit_count() & 1) << j for j, col in enumerate(bt))
            for r in a]


def _rref_by_columns(rows, ncols):
    work = [r for r in rows if r]
    out, pivots = [], []
    for col in range(ncols):
        bit = 1 << col
        pivot_row = next((i for i, r in enumerate(work) if r & bit), None)
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        work = [r ^ row if r & bit else r for r in work]
        out = [r ^ row if r & bit else r for r in out]
        out.append(row)
        pivots.append(col)
    return out, pivots


def _in_span(reduced_rows, v):
    for row in reduced_rows:
        if v & row & -row:
            v ^= row
    return v == 0


def _periods_by_growing_constraints(ar, max_period):
    """ell . M^i v = 0 imposed row by row for i < k, as first written."""
    n = 36
    m_t = gf2.transpose(ar.matrix, n)
    ident = gf2.identity(n)
    cur = [ar.offset_f, ar.offset_k, ar.offset_l]
    constraint_rows = []
    dims, rrefs, entries = {}, {}, []
    mt_pow = ident
    for k in range(1, max_period + 1):
        mt_pow = _mat_mul_by_parity(mt_pow, m_t, n)
        constraint_rows += [v for v in cur if v]
        cur = [gf2.mat_vec(ar.matrix, v) for v in cur]
        rows = [mt_pow[i] ^ ident[i] for i in range(n)] + constraint_rows
        basis = gf2.kernel_basis(rows, n)
        dims[k] = len(basis)
        rrefs[k] = _rref_by_columns(basis, n)[0]
        if not basis:
            continue
        maximal = sorted({k // p for p in range(2, k + 1)
                          if k % p == 0 and all(p % q for q in range(2, p))})
        covered = 0
        for pick in range(1, 1 << len(maximal)):
            chosen = [d for i, d in enumerate(maximal) if (pick >> i) & 1]
            g = math.gcd(k, *chosen)
            covered += (1 if len(chosen) % 2 else -1) * (1 << dims[g])
        if (1 << dims[k]) <= covered:
            continue
        witnesses = [b for b in basis
                     if all(not _in_span(rrefs[d], b) for d in maximal)]
        if not witnesses:
            for weight in range(2, len(basis) + 1):
                for combo in itertools.combinations(basis, weight):
                    v = 0
                    for b in combo:
                        v ^= b
                    if all(not _in_span(rrefs[d], v) for d in maximal):
                        witnesses = [v]
                        break
                if witnesses:
                    break
        entries.append(PeriodEntry(k, len(basis), tuple(basis), tuple(witnesses)))
    return entries


class TestAffineOf:
    def test_trivial_rows_are_units(self, wiring):
        ar = affine_of(wiring)
        for i in range(1, 36):
            if i % 4 != 0:
                assert ar.matrix[i + 1 - 1] == 1 << (i - 1)

    def test_y33_row(self, wiring):
        ar = affine_of(wiring)
        assert ar.matrix[32] == 1 << (wiring.D(9) - 1)
        assert (ar.offset_f >> 32) & 1

    def test_agreement_with_step(self, wiring):
        ar = affine_of(wiring)
        rng = random.Random(61)
        for _ in range(10000):
            s = rng.getrandbits(36)
            fb, kb, lb = (rng.getrandbits(1) for _ in range(3))
            assert affine_apply(ar, s, fb, kb, lb) == step(s, wiring, ZERO_FUN, fb, kb, lb)

    def test_matrix_invertible_for_shipped_wiring(self, wiring):
        ar = affine_of(wiring)
        assert len(gf2.rref(list(ar.matrix), 36)[0]) == 36

    def test_k_offset_with_zero_d_entry(self):
        w = random_wiring(8)
        if 0 not in w.d:
            w = type(w)((0,) + w.d[1:], w.p)
        ar = affine_of(w)
        assert ar.offset_k != 0

    def test_127_iterated_rounds_match_affine_power(self, wiring):
        ar = affine_of(wiring)
        rng = random.Random(63)
        for fb, kb, lb in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
            s = rng.getrandbits(36)
            via_step = s
            via_affine = s
            for _ in range(127):
                via_step = step(via_step, wiring, ZERO_FUN, fb, kb, lb)
                via_affine = affine_apply(ar, via_affine, fb, kb, lb)
            assert via_step == via_affine


class TestPeriods:
    def test_identity_all_period_one(self):
        ident = AffineRound(tuple(1 << i for i in range(36)), 0, 0, 0)
        entries = linear_invariant_periods(ident, 6)
        assert [e.period for e in entries] == [1]
        assert entries[0].dimension == 36

    def test_full_cycle_shift_divisors_of_36(self):
        shift = synthetic_permutation([tuple(range(1, 37))])
        entries = linear_invariant_periods(shift, 40)
        got = [e.period for e in entries]
        assert got == sorted(d for d in range(1, 37) if 36 % d == 0)

    def test_synthetic_3_5_7(self):
        ar = synthetic_permutation([(1, 2, 3), (4, 5, 6, 7, 8),
                                    (9, 10, 11, 12, 13, 14, 15)])
        entries = linear_invariant_periods(ar, 120)
        assert {e.period for e in entries} == {1, 3, 5, 7, 15, 21, 35, 105}
        for e in entries:
            expect = (math.gcd(e.period, 3) + math.gcd(e.period, 5)
                      + math.gcd(e.period, 7) + 21)
            assert e.dimension == expect
            assert e.minimal_functionals

    def test_minimality_of_witnesses(self):
        ar = synthetic_permutation([(1, 2, 3), (4, 5, 6, 7, 8),
                                    (9, 10, 11, 12, 13, 14, 15)])
        mt = gf2.transpose(list(ar.matrix), 36)
        for e in linear_invariant_periods(ar, 120):
            for fv in e.minimal_functionals:
                v = fv
                length = None
                for i in range(1, e.period + 1):
                    v = gf2.mat_vec(mt, v)
                    if v == fv:
                        length = i
                        break
                assert length == e.period

    def test_offset_sensitivity(self):
        # a shift with a nonzero F offset on the moved bit kills functionals
        # touching it
        shift = synthetic_permutation([(1, 2)])
        with_offset = AffineRound(shift.matrix, 0b11, 0, 0)
        entries = linear_invariant_periods(with_offset, 8)
        for e in entries:
            for b in e.basis:
                assert b & 0b11 == 0 or b & 0b11 == 0b11  # must kill the offset

    def test_reported_functionals_are_invariant(self, wiring):
        ar = affine_of(wiring)
        entries = linear_invariant_periods(ar, 64)
        assert entries
        rng = random.Random(62)
        for e in entries:
            for fv in e.minimal_functionals[:2]:
                for _ in range(200):
                    s = rng.getrandbits(36)
                    before = (s & fv).bit_count() & 1
                    cur = s
                    for _ in range(e.period):
                        cur = affine_apply(ar, cur, rng.getrandbits(1),
                                           rng.getrandbits(1), rng.getrandbits(1))
                    assert (cur & fv).bit_count() & 1 == before

    def test_max_period_guard(self):
        ident = AffineRound(tuple(1 << i for i in range(36)), 0, 0, 0)
        with pytest.raises(ValueError):
            linear_invariant_periods(ident, 100000)
        with pytest.raises(ValueError):
            linear_invariant_periods(ident, 0)


class TestAgainstGrowingConstraints:
    """The offsets' span is computed once and a new minimal period is
    decided by dimensions; the old per-period growth of constraint rows
    with inclusion-exclusion over the gcd-lattice is the reference."""

    def test_shipped_wiring(self, wiring):
        ar = affine_of(wiring)
        assert linear_invariant_periods(ar, 420) == \
            _periods_by_growing_constraints(ar, 420)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("conforming", (True, False))
    def test_random_wirings(self, seed, conforming):
        ar = affine_of(random_wiring(100 + seed, conforming=conforming))
        assert ar.offset_f or ar.offset_k or ar.offset_l
        assert linear_invariant_periods(ar, 420) == \
            _periods_by_growing_constraints(ar, 420)

    @pytest.mark.parametrize("cycles, longest", [
        ([(1, 2), (3, 4, 5), (6, 7, 8, 9, 10)], 30),
        ([(1, 2, 3, 4), (5, 6, 7), (8, 9, 10, 11, 12)], 60),
        ([(1, 2, 3, 4), (5, 6, 7), (8, 9, 10, 11, 12), tuple(range(13, 20))], 420),
    ])
    def test_periods_with_three_primes(self, cycles, longest):
        ar = synthetic_permutation(cycles)
        entries = linear_invariant_periods(ar, 420)
        assert entries == _periods_by_growing_constraints(ar, 420)
        assert max(e.period for e in entries) == longest

    def test_synthetic_permutation_with_offsets(self):
        perm = synthetic_permutation([(1, 2, 3), (4, 5, 6, 7, 8),
                                      (9, 10, 11, 12, 13, 14, 15), (16, 17)])
        # the offsets touch the 5-cycle, the 2-cycle and the fixed bit 21,
        # so only the 3-cycle, the 7-cycle and the other fixed bits remain
        ar = AffineRound(perm.matrix, 1 << 3, 1 << 15, (1 << 16) | (1 << 20))
        entries = linear_invariant_periods(ar, 96)
        assert [e.period for e in entries] == [1, 3, 7, 21]
        assert entries == _periods_by_growing_constraints(ar, 96)


class TestAgainstFullSystem:
    """The scan runs in S, the annihilator of the offsets' Krylov span, on
    s x s matrices; one (36 + |K|)-row system per period over all of F2^36
    is the reference."""

    @pytest.mark.parametrize("conforming", (True, False))
    def test_random_wirings(self, conforming):
        for seed in range(16):
            ar = affine_of(random_wiring(200 + seed, conforming=conforming))
            assert linear_invariant_periods(ar, 256) == periods_by_full_system(ar, 256), seed

    def test_shipped_wiring(self, wiring):
        ar = affine_of(wiring)
        assert linear_invariant_periods(ar, 512) == periods_by_full_system(ar, 512)

    def test_synthetic_permutation_with_and_without_offsets(self):
        perm = synthetic_permutation([(1, 2, 3), (4, 5, 6, 7, 8), (9, 10, 11, 12),
                                      (13, 14), tuple(range(15, 22))])
        with_offsets = AffineRound(perm.matrix, 1 << 4, 1 << 13, (1 << 8) | (1 << 30))
        for ar in (perm, with_offsets):
            assert linear_invariant_periods(ar, 300) == periods_by_full_system(ar, 300)

    def test_offsets_spanning_every_functional_leave_no_period(self):
        # one offset bit under the 36-cycle spans F2^36, so S is {0}
        shift = synthetic_permutation([tuple(range(1, 37))])
        ar = AffineRound(shift.matrix, 1, 0, 0)
        assert lincycle.annihilator_action(ar) == ([], [])
        assert linear_invariant_periods(ar, 64) == periods_by_full_system(ar, 64) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_annihilator_is_closed_under_the_transpose(self, wiring, seed):
        ar = affine_of(random_wiring(seed, conforming=seed % 2 == 0) if seed else wiring)
        s_basis, action = lincycle.annihilator_action(ar)
        mt = gf2.transpose(list(ar.matrix), 36)
        offsets = (ar.offset_f, ar.offset_k, ar.offset_l)
        krylov = lincycle._krylov_span(ar.matrix, offsets)
        assert len(s_basis) + len(krylov) == 36
        assert all((b & v).bit_count() % 2 == 0 for b in s_basis for v in krylov)
        columns = gf2.transpose(action, len(s_basis))
        for b, coords in zip(s_basis, columns, strict=True):
            image = gf2.mat_vec(mt, b)
            assert lincycle._residue(s_basis, image) == 0  # M^T b lies in S
            assert image == gf2.mat_mul([coords], s_basis, 36)[0]


class TestWitnessSearch:
    def test_only_the_full_combination_escapes(self):
        # e1..e5 against the five coordinate hyperplanes {v : v_i = 0}:
        # only e1 + ... + e5, of weight 5, lies in none of them
        basis = [1 << i for i in range(5)]
        hyperplanes = [[1 << j for j in range(5) if j != i] for i in range(5)]
        assert lincycle._witness_search(basis, hyperplanes) == 0b11111


class TestGf2:
    def test_mat_mul_matches_parity_definition(self):
        rng = random.Random(64)
        for rows_a, inner, ncols in ((36, 36, 36), (5, 36, 12), (40, 7, 3),
                                     (1, 1, 1), (0, 4, 4)):
            for _ in range(20):
                a = [rng.getrandbits(inner) for _ in range(rows_a)]
                b = [rng.getrandbits(ncols) for _ in range(inner)]
                assert gf2.mat_mul(a, b, ncols) == _mat_mul_by_parity(a, b, ncols)

    def test_rref_matches_column_sweep(self):
        rng = random.Random(65)
        for _ in range(500):
            ncols = rng.randint(1, 40)
            # rows may carry bits at and above ncols, which never pivot
            width = ncols + rng.choice((0, 3))
            rows = [rng.getrandbits(width) & rng.getrandbits(width)
                    for _ in range(rng.randint(0, 50))]
            rows += rows[:rng.randint(0, 3)]
            assert gf2.rref(rows, ncols) == _rref_by_columns(rows, ncols)

    def test_solve_affine_ones_span_matches_brute_force(self):
        rng = random.Random(71)
        for trial in range(120):
            nvars = rng.randrange(0, 6)
            if trial == 0:
                points = []
            else:
                points = rng.sample(range(1 << nvars), rng.randrange(0, (1 << nvars) + 1))
            want = {c for c in range(1 << (nvars + 1))
                    if all((c ^ ((c >> 1) & x).bit_count()) & 1 for x in points)}
            basis = gf2.solve_affine_ones(points, nvars)
            span = {1}
            for b in basis:
                span |= {v ^ b for v in span}
            assert span == want
            assert len(want) == 1 << len(basis)


class TestWeights:
    def test_constant_orbit(self):
        seq = weight_sequence([0b111, 0b111, 0b111], ALL36_MASK)
        assert seq == [3, 3, 3]

    def test_single_bit_under_shift(self):
        shift = synthetic_permutation([tuple(range(1, 37))])
        orb = orbit(shift, 1 << 5, 36)
        assert weight_sequence(orb, ALL36_MASK) == [1] * 36

    def test_lowercase26_mask(self):
        # x11..x36 are the lowercase letters; x1..x10 are excluded
        assert LOWERCASE26_MASK.bit_count() == 26
        assert weight_sequence([(1 << 36) - 1]) == [26]
        assert weight_sequence([(1 << 10) - 1]) == [0]

    def test_orbit_composition(self, wiring):
        ar = affine_of(wiring)
        orb = orbit(ar, 1 << 7, 5)
        mt = gf2.transpose(list(ar.matrix), 36)
        for a, b in zip(orb, orb[1:]):
            assert gf2.mat_vec(mt, a) == b
