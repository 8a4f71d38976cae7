import math
import random
import sys
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from perimere.lattice import (BudgetExceeded, IntMatrix, RealBasis,
                              SublatticeBasis, _int_det, _lll, _sqrt_ratio, coefficient, coset_reps,
                              count_cosets_in_ball, hnf_reduce, hnf_transform, lattice_sum,
                              member, reduce_many, reduce_mod, solve, unit_ball_volume, volume)

from .oracles import (brute_member, nearest_root, oracle_coefficient, oracle_hnf_columns,
                      oracle_volume)

I2 = RealBasis([[1.0, 0.0], [0.0, 1.0]])
I3 = RealBasis([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def certify_member(cols, v):
    """Exact integer certificate that v lies in the span of cols.

    Solves against the HNF, pulls the answer back through the reduction's
    transform, and re-multiplies against the original columns.
    """
    h, certs = hnf_transform(IntMatrix.from_rows(zip(*cols)))
    x = solve(h, v)
    if x is None:
        return False
    c = len(cols)
    coef = [sum(x[j] * certs[j][i] for j in range(len(x))) for i in range(c)]
    built = tuple(sum(coef[i] * cols[i][r] for i in range(c)) for r in range(len(v)))
    return built == tuple(v)


def random_unimodular(rng, d, ops=12):
    if d == 1:
        return [[rng.choice([-1, 1])]]
    cols = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    for _ in range(ops):
        a, b = rng.sample(range(d), 2)
        k = rng.choice([-2, -1, 1, 2])
        cols[a] = [x + k * y for x, y in zip(cols[a], cols[b])]
        if rng.random() < 0.3:
            cols[a] = [-x for x in cols[a]]
        if rng.random() < 0.3:
            cols[a], cols[b] = cols[b], cols[a]
    return cols


class TestIntMatrix:
    @pytest.mark.parametrize("make,message", [
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: IntMatrix.from_rows([]), "at least one row"),
        (lambda: IntMatrix(0, ()), "at least one row"),
        (lambda: IntMatrix.from_rows([[1, 2]]).det(), "determinant of a non-square matrix"),
        (lambda: IntMatrix(2, ((1,),)), "column length does not match row count"),
    ])
    def test_refusals(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestRealBasis:
    @pytest.mark.parametrize("columns", [[[1.0, 0.0]], [[1.0], [2.0]], []])
    def test_non_square_refused(self, columns):
        with pytest.raises(ValueError, match="square d x d"):
            RealBasis(columns)


class TestHnfReduce:
    def test_known_reduction(self):
        got = hnf_reduce([(1, 1, 0), (2, 0, 0)])
        assert got.columns == ((1, 1, 0), (0, 2, 0))

    def test_empty_matrix(self):
        got = hnf_reduce([], dim=3)
        assert got.rank == 0 and got.dim == 3

    @pytest.mark.parametrize("cols,dim,message", [
        ([(1, 2), (3,)], None, "ragged columns"),
        ([(1, 2, 3), (4, 5)], 3, "ragged columns"),
        ([(1, 2)], 3, "columns do not match dim"),
        ([], None, "dim required for an empty column list"),
        (iter(()), None, "dim required for an empty column list"),
    ])
    def test_refusals(self, cols, dim, message):
        with pytest.raises(ValueError, match=message):
            hnf_reduce(cols, dim=dim)

    def test_input_columns_are_left_as_they_are(self):
        cols = [[4, 6], [2, 0]]
        lists = [list(c) for c in cols]
        assert hnf_reduce(lists).columns == ((2, 0), (0, 6))
        assert lists == cols
        # exact ints of any kind; IntMatrix columns too
        assert hnf_reduce([np.array([4, 6]), (2, 0)]) == hnf_reduce(cols)
        m = IntMatrix.from_rows([[4, 2], [6, 0]])
        assert hnf_reduce(m) == hnf_reduce(cols) and m.columns == ((4, 6), (2, 0))

    def test_canonical_shape(self):
        rng = random.Random(0)
        for _ in range(100):
            c = rng.randint(1, 5)
            cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(c)]
            h = hnf_reduce(cols)
            lead = -1
            for col in h.columns:
                zeros = next(i for i, e in enumerate(col) if e)
                assert zeros > lead
                lead = zeros
                assert col[zeros] > 0
            # entries left of each pivot reduced into [0, pivot)
            for j, col in enumerate(h.columns):
                r = next(i for i, e in enumerate(col) if e)
                for i in range(j):
                    assert 0 <= h.columns[i][r] < col[r]

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(60):
            cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(rng.randint(1, 5))]
            h = hnf_reduce(cols)
            assert hnf_reduce(h.columns, dim=3) == h

    def test_unimodular_invariance(self):
        rng = random.Random(2)
        for _ in range(40):
            c = rng.randint(2, 4)
            cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(c)]
            q = random_unimodular(rng, c)
            mixed = [tuple(sum(q[j][i] * cols[i][r] for i in range(c)) for r in range(3))
                     for j in range(c)]
            assert hnf_reduce(mixed) == hnf_reduce(cols)

    def test_membership_against_brute_force(self):
        # bounded enumeration is sound but not complete: a brute hit must be a
        # member, and every positive member() answer must carry an exact
        # certificate over the original columns (so negatives agree too)
        rng = random.Random(3)
        for _ in range(25):
            c = rng.randint(1, 4)
            cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(c)]
            h = hnf_reduce(cols)
            for _ in range(8):
                v = tuple(rng.randint(-12, 12) for _ in range(3))
                inside = member(h, v)
                if brute_member(cols, v, bound=30):
                    assert inside
                if inside:
                    assert certify_member(cols, v)

    def test_transform_certificates(self):
        rng = random.Random(4)
        for _ in range(40):
            c = rng.randint(1, 5)
            cols = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(c)]
            h, certs = hnf_transform(IntMatrix.from_rows(zip(*cols)))
            for col, x in zip(h.columns, certs):
                built = tuple(sum(x[i] * cols[i][r] for i in range(c)) for r in range(3))
                assert built == col
            for col in cols:
                assert solve(h, col) is not None

    def test_transform_matches_oracle(self):
        # seeded matrices with zero, negative and redundant columns
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(1, 4)
            span = rng.choice([3, 1000])
            cols = [[rng.randint(-span, span) for _ in range(d)] for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                cols.append([0] * d)
            if rng.random() < 0.3:
                cols.append([-e for e in rng.choice(cols)])
            if rng.random() < 0.3:
                a, b = rng.choice(cols), rng.choice(cols)
                cols.append([x + 2 * y for x, y in zip(a, b)])
            rng.shuffle(cols)
            basis, _, trans = oracle_hnf_columns(d, cols, with_transform=True)
            h, certs = hnf_transform(IntMatrix.from_rows(zip(*cols)))
            assert h == SublatticeBasis(d, basis)
            # certificates are unique only where the columns are independent
            if len(basis) == len(cols):
                assert certs == trans[:len(basis)]
            for col, x in zip(h.columns, certs):
                assert tuple(sum(map(mul, x, row)) for row in zip(*cols)) == col

    def test_magnitude_bound(self):
        # drift-vector style inputs: magnitude <= Dm gives output <= (sqrt(d) Dm)^d
        rng = random.Random(5)
        d = 3
        for _ in range(40):
            dm = rng.randint(1, 12)
            c = rng.randint(1, 6)
            cols = [tuple(rng.randint(-dm, dm) for _ in range(d)) for _ in range(c)]
            h = hnf_reduce(cols)
            assert h.magnitude() <= (math.sqrt(d) * dm) ** d


class TestLatticeSum:
    def test_known_sum(self):
        a = hnf_reduce([(1, 1, 0)])
        b = hnf_reduce([(2, 0, 0)])
        assert lattice_sum(a, b).columns == ((1, 1, 0), (0, 2, 0))

    def test_idempotent(self):
        a = hnf_reduce([(1, 1, 0), (0, 2, 0)])
        assert lattice_sum(a, a) == a

    def test_sum_reaches_full_lattice(self):
        a = hnf_reduce([(1, 1, 0), (0, 2, 0), (0, 0, 1)])
        b = hnf_reduce([(1, 0, 0)])
        assert lattice_sum(a, b) == hnf_reduce([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_commutative_associative_and_contains(self):
        rng = random.Random(6)
        for _ in range(30):
            mk = lambda: hnf_reduce(
                [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(rng.randint(1, 3))])
            a, b, c = mk(), mk(), mk()
            assert lattice_sum(a, b) == lattice_sum(b, a)
            assert lattice_sum(lattice_sum(a, b), c) == lattice_sum(a, lattice_sum(b, c))
            s = lattice_sum(a, b)
            assert s.columns == oracle_hnf_columns(3, a.columns + b.columns)[0]
            assert all(member(s, col) for col in a.columns)
            assert all(member(s, col) for col in b.columns)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattice_sum(hnf_reduce([(1, 1)]), hnf_reduce([(1, 1, 0)]))


class TestMember:
    def test_examples(self):
        l = hnf_reduce([(1, 1)])
        assert member(l, (3, 3))
        assert not member(l, (1, 0))

    def test_zero_lattice(self):
        l = SublatticeBasis.empty(2)
        assert member(l, (0, 0))
        assert not member(l, (1, 0))

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(30):
            cols = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(rng.randint(1, 3))]
            l = hnf_reduce(cols)
            v = tuple(rng.randint(-10, 10) for _ in range(3))
            if brute_member(cols, v, bound=30):
                assert member(l, v)
            if member(l, v):
                assert certify_member(cols, v)


class TestVolume:
    def test_diagonal_line(self):
        assert volume(I2, hnf_reduce([(1, 1)])) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_rank_zero(self):
        assert volume(I3, SublatticeBasis.empty(3)) == 1.0

    def test_known_plane(self):
        assert volume(I3, hnf_reduce([(1, 1, 0), (0, 2, 0)])) == pytest.approx(2.0, abs=1e-12)

    def test_basis_change_invariance(self):
        rng = random.Random(9)
        u = RealBasis([[1.5, 0.25, 0.0], [-0.5, 2.0, 0.1], [0.0, 0.3, 1.2]])
        for _ in range(30):
            cols = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2)]
            l = hnf_reduce(cols)
            if l.rank != 2:
                continue
            q = random_unimodular(rng, 2)
            mixed = [tuple(sum(q[j][i] * l.columns[i][r] for i in range(2)) for r in range(3))
                     for j in range(2)]
            l2 = hnf_reduce(mixed)
            assert volume(u, l2) == pytest.approx(volume(u, l), rel=1e-9)


def _lattices(rng, d, rank, count=4, reach=6):
    """`count` HNF lattices of the given rank in Z^d, from redundant generators."""
    out = []
    while len(out) < count:
        gens = [tuple(rng.randint(-reach, reach) for _ in range(d)) for _ in range(rank)]
        gens += [tuple(sum(rng.randint(-2, 2) * g[r] for g in gens) for r in range(d))
                 for _ in range(rng.randint(0, 2))]
        l = hnf_reduce(gens, dim=d)
        if l.rank == rank:
            out.append(l)
    return out


class TestVolumeExactness:
    # `volume` and `coefficient` round the exact value once, on integer and
    # float bases alike: bit for bit what the Fraction Gram determinants of
    # `oracle_volume` and `oracle_coefficient` give, at every rank 0..d

    # |det U| > 2^53, and sqrt(float(det U ** 2)) != float(|det U|): a volume
    # rounded from |det U| * pivots through its square would differ
    BIG = [[2**20 + 8, 5, 0], [3, 2**20 + 7, 2], [0, 1, 2**20 + 3]]

    def _check(self, u, rng):
        for rank in range(u.dim + 1):
            for l in _lattices(rng, u.dim, rank):
                assert volume(u, l).hex() == oracle_volume(u, l).hex()
                assert coefficient(u, l).hex() == oracle_coefficient(u, l).hex()

    def test_random_integer_bases(self):
        rng = random.Random(16)
        signs, checked = set(), 0
        for _ in range(150):
            d = rng.choice((1, 2, 3))
            cols = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            if not _int_det(cols):   # singular: the one basis RealBasis refuses
                continue
            u = RealBasis(cols)
            det = _int_det(u.rows)
            full = hnf_reduce([[int(i == j) for i in range(d)] for j in range(d)])
            assert u.scale == 0 and u.det == abs(det) and volume(u, full) == float(abs(det))
            signs.add(det > 0)
            self._check(u, rng)
            checked += 1
        assert signs == {True, False} and checked > 100

    def test_non_diagonal_and_unimodular_bases(self):
        rng = random.Random(17)
        for d in (2, 3):
            for _ in range(10):
                u = RealBasis(random_unimodular(rng, d, ops=4))
                assert u.scale == 0 and u.det == 1
                self._check(u, rng)

    @pytest.mark.parametrize("swap", [False, True])
    def test_det_above_two_to_the_53(self, swap):
        cols = [self.BIG[1], self.BIG[0], self.BIG[2]] if swap else self.BIG
        u = RealBasis(cols)
        assert u.scale == 0 and (_int_det(u.rows) < 0) is swap
        assert u.det > 2**53 and u.det != int(float(u.det))   # the float lost digits
        assert math.sqrt(u.det ** 2) != float(u.det)
        # the volume of Z^d is |det U| rounded once, not the root of its rounded square
        assert volume(u, hnf_reduce(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) \
            == float(u.det)
        self._check(u, random.Random(18))
        self._check(u, random.Random(19))

    def test_gram_determinant_past_float_range(self):
        # a Gram determinant past the float range still gives its root
        big = 10**80
        u = RealBasis([[big, 0, 0], [3, big, 0], [0, 1, big]])
        rng = random.Random(20)
        for rank in (2, 3):
            for l in _lattices(rng, 3, rank):
                v = volume(u, l)
                assert v > 1.4e154   # v * v is past the float range
                assert v.hex() == oracle_volume(u, l).hex()
                assert coefficient(u, l).hex() == oracle_coefficient(u, l).hex()

    def test_float_gram_determinant_out_of_normal_range(self):
        # a float basis scaled by 2^-340, or a lattice by 2^200, scales G
        # exactly by 2^e and the Gram determinant by 2^(2ep): it underflows
        # at ranks 2 and 3 or overflows at rank 3.  A power-of-two scale is
        # exact under correct rounding, so the volume is the unscaled one
        # times 2^(ep), and the coefficient of the 2^-340 basis the unscaled
        # one times 2^(340 (d - p))
        cols = [[1.5, 0.25, 0.0], [-0.5, 2.0, 0.1], [0.0, 0.3, 1.2]]
        u = RealBasis(cols)
        small = RealBasis([[math.ldexp(x, -340) for x in col] for col in cols])
        assert small.scale == u.scale + 340
        rng = random.Random(22)
        for rank in (0, 1, 2, 3):
            for l in _lattices(rng, 3, rank):
                want = volume(u, l)
                assert volume(small, l) == math.ldexp(want, -340 * rank)
                assert coefficient(small, l) == math.ldexp(coefficient(u, l), 340 * (3 - rank))
                big = SublatticeBasis(3, tuple(tuple(c << 200 for c in col) for col in l.columns))
                assert volume(u, big) == math.ldexp(want, 200 * rank)

    def test_float_basis_is_exact(self):
        # 0.1, 0.3 and 1.2 are dyadic: U . 2^scale is an integer matrix
        u = RealBasis([[1.5, 0.25, 0.0], [-0.5, 2.0, 0.1], [0.0, 0.3, 1.2]])
        assert u.scale > 0 and all(isinstance(e, int) for row in u.rows for e in row)
        assert [[e / 2 ** u.scale for e in row] for row in u.rows] == u.matrix.tolist()
        self._check(u, random.Random(21))


class TestSqrtRatio:
    # a rounding certificate for `_sqrt_ratio`: each result lies between the
    # exact midpoints to its neighbours (`nearest_root`, in Fractions), ties
    # to even.  Finishing with ldexp(float(r), -s)
    # rounds twice in the subnormal range, and sqrt(num / den) rounds the
    # quotient first; both fail here
    @staticmethod
    def _pairs(rng):
        for _ in range(1000):   # general ratios, a few bits to a few hundred
            yield rng.getrandbits(rng.randint(1, 400)) + 1, rng.getrandbits(rng.randint(1, 400)) + 1
        for _ in range(1000):   # results in the subnormal range, 2^-1073 to 2^-1023
            num = rng.getrandbits(rng.randint(1, 200)) + 1
            t = rng.randint(2046, 2146)   # num / den is about 2^-t
            yield num, (rng.getrandbits(59) | 1 << 59) << num.bit_length() + t - 60
        for _ in range(1000):   # squares and their neighbours over powers of four
            r = rng.getrandbits(rng.randint(1, 120)) + 1
            yield r * r + rng.choice((-1, 0, 1)) or 1, 1 << 2 * rng.randint(0, 600)

    def test_every_result_lies_between_its_midpoints(self):
        rng = random.Random(31)
        subnormal = 0
        for num, den in self._pairs(rng):
            x = _sqrt_ratio(num, den)
            assert 0.0 < x < math.inf
            assert x == nearest_root(Fraction(num, den)), (num, den)
            subnormal += x < sys.float_info.min
        assert subnormal > 500
class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(0) == pytest.approx(1.0)
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            unit_ball_volume(-1)


class TestCosets:
    def test_index_two(self):
        s = IntMatrix.from_rows([[2, 0], [0, 1]])
        assert coset_reps(s) == [(0, 0), (1, 0)]

    def test_identity(self):
        s = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert coset_reps(s) == [(0, 0, 0)]

    def test_count_and_noncongruence(self):
        rng = random.Random(10)
        trials = 0
        while trials < 25:
            s = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            det = abs(s.det())
            if not 1 <= det <= 6:
                continue
            trials += 1
            reps = coset_reps(s)
            assert len(reps) == det
            h = hnf_reduce(s)
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    diff = tuple(a - b for a, b in zip(reps[i], reps[j]))
                    assert not member(h, diff)

    def test_canonical_coset_examples(self):
        s = IntMatrix.from_rows([[2, 0], [0, 1]])
        h = hnf_reduce(s)
        assert reduce_mod(h, (3, 5)) == (1, 0)
        assert reduce_mod(h, (4, -2)) == (0, 0)

    def test_reduce_mod_rejects_wrong_length(self):
        h = hnf_reduce([(2, 0)])
        for v in ((3, 1, 7), (3,), ()):
            with pytest.raises(ValueError, match="ambient dimension"):
                reduce_mod(h, v)

    def test_solve_rejects_wrong_length(self):
        h = hnf_reduce([(2, 0)])
        for v in ((2, 0, 0), (2,)):
            with pytest.raises(ValueError, match="ambient dimension"):
                solve(h, v)

    def test_solve_refuses_a_zero_column(self):
        # a basis of the constructor's, not of hnf_reduce's, may hold one
        with pytest.raises(ValueError, match="zero column has no pivot"):
            solve(SublatticeBasis(2, ((0, 0),)), (0, 0))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            coset_reps(IntMatrix.from_rows([[1, 0]]))

    def test_canonical_coset_idempotent(self):
        rng = random.Random(11)
        trials = 0
        while trials < 15:
            s = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if not 1 <= abs(s.det()) <= 6:
                continue
            trials += 1
            h = hnf_reduce(s)
            for r in coset_reps(s):
                assert reduce_mod(h, r) == r

    def test_singular_rejected(self):
        s = IntMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            coset_reps(s)

    def test_reduce_many_is_reduce_mod_and_solve_per_row(self):
        # any rank, entries past int64: residues are reduce_mod's, quotients
        # solve's at full rank, and vectors = residues + quotients . columns
        rng = random.Random(12)
        full = 0
        for trial in range(60):
            d = rng.choice([1, 2, 3])
            cols = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(0, d))]
            l = hnf_reduce(cols, dim=d)
            vs = [[rng.randint(-9, 9) + rng.choice([0, 2 ** 70, -2 ** 70]) for _ in range(d)]
                  for _ in range(rng.randint(0, 6))]
            res, q = reduce_many(l, vs)
            assert res.shape == (len(vs), d) and q.shape == (len(vs), l.rank)
            assert [tuple(r) for r in res.tolist()] == [reduce_mod(l, v) for v in vs]
            back = res + q.dot(np.array(l.columns, dtype=object).reshape(l.rank, d))
            assert back.tolist() == vs
            if l.rank == d:
                full += 1
                assert [tuple(r) for r in q.tolist()] == [
                    solve(l, [a - b for a, b in zip(v, r)]) for v, r in zip(vs, res.tolist())]
        assert 10 < full < 50


class TestCountCosetsInBall:
    def test_diagonal_line_counts(self):
        l = hnf_reduce([(1, 1)])
        got = count_cosets_in_ball(I2, l, 100.0)
        assert abs(got - 2 * math.sqrt(2) * 100) <= 5

    def test_full_lattice(self):
        assert count_cosets_in_ball(I2, hnf_reduce([(1, 0), (0, 1)]), 3.0) == 1

    def test_zero_lattice_disk_count(self):
        got = count_cosets_in_ball(I2, SublatticeBasis.empty(2), 50.0)
        assert abs(got - math.pi * 50 * 50) <= 10 * 50

    def test_error_bounded_as_radius_doubles(self):
        l = hnf_reduce([(1, 1)])
        devs = [abs(count_cosets_in_ball(I2, l, r) - 2 * math.sqrt(2) * r)
                for r in (25.0, 50.0, 100.0)]
        assert all(dev <= 5 for dev in devs)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_not_positive_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            count_cosets_in_ball(I2, SublatticeBasis.empty(2), radius)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            count_cosets_in_ball(I2, SublatticeBasis.empty(3), 1.0)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_cosets_in_ball(I2, SublatticeBasis.empty(2), 1000.0, budget=100)

    @pytest.mark.parametrize("cols", [[[1e-200]], [[1e-200, 0.0], [0.0, 1e200]]])
    def test_box_past_the_float_range(self, cols):
        # a row norm of the inverse overflows: a box past the budget, with no warning
        u = RealBasis(cols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceeded, match="past the float range"):
                count_cosets_in_ball(u, SublatticeBasis.empty(u.dim), 1.0)

    def test_skewed_basis_enumerates_a_reduced_box(self):
        # U is unimodular, so U.Z^3 = Z^3 and the cosets of L over U are
        # those of U.L over the identity.  Over U's own coordinates the box
        # at R = 5 held 241,241 points; over the LLL-reduced basis it is
        # within twice the identity's 11^3
        u = [[1, 7, 40], [0, 1, 9], [0, 0, 1]]   # columns
        skewed = RealBasis(u)
        for cols in ([], [(1, 1, 0)], [(2, 0, 0), (0, 3, 0), (1, 1, 1)], [(0, 1, -1), (1, 0, 2)]):
            l = hnf_reduce(cols) if cols else SublatticeBasis.empty(3)
            image = [tuple(sum(u[k][r] * c[k] for k in range(3)) for r in range(3)) for c in cols]
            ul = hnf_reduce(image) if cols else l
            want = count_cosets_in_ball(I3, ul, 5.0)
            assert count_cosets_in_ball(skewed, l, 5.0, budget=2 * 11 ** 3) == want
        assert count_cosets_in_ball(skewed, SublatticeBasis.empty(3), 5.0) == 515

    def test_skewed_basis_tests_the_ball_exactly(self):
        # with columns (1, 0) and (c, 1), c = 1e15 + 1/2, the points n over
        # U's own coordinates reach 1e16, where U.n rounds at a spacing of 2;
        # over the reduced basis every point is tested on short terms.  At
        # R = 10 the ball holds points on its boundary, such as (6, 8)
        c = 1e15 + 0.5
        u = RealBasis([[1.0, 0.0], [c, 1.0]])
        want = 0
        for n2 in range(-10, 11):
            x0 = n2 * Fraction(c)
            for n1 in range(math.floor(-x0) - 11, math.floor(-x0) + 12):
                want += (n1 + x0) ** 2 + n2 * n2 <= 100
        assert want == 319
        assert count_cosets_in_ball(u, SublatticeBasis.empty(2), 10.0) == want
        assert count_cosets_in_ball(u, SublatticeBasis.empty(2), 0.5) == 1

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_counts_do_not_depend_on_the_scale(self, scale):
        # the slack on the ball and the box is relative to the radius, so a
        # small basis counts no points outside the ball
        u = RealBasis([[scale, 0.0], [0.0, scale]])
        got = [count_cosets_in_ball(u, SublatticeBasis.empty(2), f * scale) for f in (1.2, 2.2, 1.0)]
        assert got == [5, 13, 5]


class TestLll:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_reduced_and_unimodular(self, d):
        rng = random.Random(40 + d)
        for _ in range(40):
            cols = [[rng.randint(-30, 30) for _ in range(d)] for _ in range(d)]
            if _int_det(cols) == 0:
                continue
            b, t = _lll(cols)
            assert abs(_int_det(t)) == 1
            assert b == [[sum(cols[k][r] * tj[k] for k in range(d)) for r in range(d)] for tj in t]
            star, norm = [], []   # Gram-Schmidt of b: size-reduced, Lovasz with delta 3/4
            for v in b:
                mu = [Fraction(sum(x * y for x, y in zip(v, w))) / n for w, n in zip(star, norm)]
                assert all(abs(m) <= Fraction(1, 2) for m in mu)
                w = [Fraction(x) for x in v]
                for m, s in zip(mu, star):
                    w = [x - m * y for x, y in zip(w, s)]
                if star:
                    assert sum(x * x for x in w) >= (Fraction(3, 4) - mu[-1] ** 2) * norm[-1]
                star.append(w)
                norm.append(sum(x * x for x in w))
