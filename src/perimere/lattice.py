"""Exact integer-lattice arithmetic.

Sublattices of Z^d are kept in a canonical column-style Hermite normal form
so that two values describe the same lattice iff they compare equal.  One
routine reduces: `hnf_insert` adds one vector to a canonical basis, and
`hnf_reduce`, `lattice_sum` and `hnf_transform` fold it over their columns.
All integer work uses Python's unbounded ints (intermediate entries during
reduction can grow like (2N)^(c^(d-1)), far beyond 64 bits).  The real
basis is kept as floats and exactly, as the integer matrix U . 2^scale, so
volumes and monomial coefficients are exact until one final rounding.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ENUMERATION_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    """A brute-force enumeration would exceed the configured point budget."""


def _pivot_row(col) -> int:
    for r, e in enumerate(col):
        if e:
            return r
    raise ValueError("zero column has no pivot")


def _int_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix stored column-wise with unbounded entries."""

    rows: int
    columns: tuple

    def __post_init__(self):
        if self.rows < 1:
            raise ValueError("matrix needs at least one row")
        for col in self.columns:
            if len(col) != self.rows:
                raise ValueError("column length does not match row count")

    @classmethod
    def from_rows(cls, row_seq: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [tuple(int(e) for e in r) for r in row_seq]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        cols = tuple(tuple(r[j] for r in rows) for j in range(ncols))
        return cls(len(rows), cols)

    @property
    def cols(self) -> int:
        return len(self.columns)

    def det(self) -> int:
        if self.cols != self.rows:
            raise ValueError("determinant of a non-square matrix")
        return _int_det([[self.columns[j][i] for j in range(self.rows)] for i in range(self.rows)])


@dataclass(frozen=True)
class SublatticeBasis:
    """Canonical HNF basis of a sublattice of Z^dim.

    Each column has strictly more leading zeros than its predecessor, pivots
    are positive, and entries left of a pivot in its row lie in [0, pivot).
    Equality of two values is equality of the spanned lattices.
    """

    dim: int
    columns: tuple

    @property
    def rank(self) -> int:
        return len(self.columns)

    @property
    def is_full(self) -> bool:
        """True iff this is all of Z^dim (HNF = identity)."""
        if len(self.columns) != self.dim:
            return False
        return all(col[i] == 1 for i, col in enumerate(self.columns))

    def magnitude(self) -> int:
        return max((abs(e) for col in self.columns for e in col), default=0)

    @classmethod
    def empty(cls, dim: int) -> "SublatticeBasis":
        return cls(dim, ())


def hnf_reduce(matrix, dim: int | None = None) -> SublatticeBasis:
    """Canonical HNF basis of the lattice spanned by the columns of `matrix`.

    Accepts an IntMatrix or a plain iterable of integer columns (pass `dim`
    when the column list may be empty).  Redundant, zero, and negative
    columns are all fine.  The basis is `hnf_insert` folded over the
    columns, from the rank-0 lattice; each column is converted once, to the
    list of ints that the fold inserts.
    """
    if isinstance(matrix, IntMatrix):
        cols, d = matrix.columns, matrix.rows
    else:
        cols = [list(map(int, col)) for col in matrix]
        if cols:
            d = len(cols[0])
            if any(len(c) != d for c in cols):
                raise ValueError("ragged columns")
        elif dim is None:
            raise ValueError("dim required for an empty column list")
        else:
            d = dim
        if dim is not None and cols and d != dim:
            raise ValueError("columns do not match dim")
    return SublatticeBasis(d, functools.reduce(hnf_insert, cols, ()))


def hnf_insert(columns: tuple, w, rows: int | None = None) -> tuple:
    """The canonical HNF column tuple of the lattice that the canonical HNF
    columns `columns` and the integer vector `w` span (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, section 2.4).  It is the
    one HNF reduction here: `hnf_reduce`, `lattice_sum` and `hnf_transform`
    fold it over their columns.

    Only the first `rows` entries (all of w's by default) decide pivots.
    The entries below them ride along through every column operation, which
    is how `hnf_transform` carries its certificates.  A w that is zero in
    its first `rows` entries returns `columns` itself.

    Let r be w's leading row.  The columns whose pivot lies above r take no
    part in Euclid: w and the later columns are zero above r.  From row r
    down, Euclid runs between w and the column pivoting at w's leading row,
    until w is zero or leads at a row without a pivot, where it becomes a
    new pivot column.  Last, in each pivot row from r down, the entries of
    the earlier columns are reduced into [0, pivot), top down.  Any integer
    w works; `build` passes its drift's `remainder`, whose entries at the
    pivot rows are already below the pivots, so Euclid takes few steps.
    """
    d = len(w) if rows is None else rows
    top = 0
    while top < d and not w[top]:
        top += 1
    if top == d:
        return columns
    cols = list(columns)
    n = len(cols)
    r = top
    j = p = 0   # the first column pivoting at or below r, and its pivot row
    while True:
        while j < n:   # skip the columns pivoting above r
            col = cols[j]
            while not col[p]:
                p += 1
            if p >= r:
                break
            j += 1
            p += 1
        if r == top:
            first = j
        if j == n or p > r:   # w leads at a row without a pivot: a new pivot column
            cols.insert(j, tuple(w) if w[r] > 0 else tuple([-e for e in w]))
            break
        a, x, y = cols[j], cols[j][r], w[r]   # cols[j] pivots at r, where w leads
        while y:
            q = x // y
            a, w = w, [s - q * t for s, t in zip(a, w)]
            x, y = y, x - q * y
        cols[j] = tuple(a) if x > 0 else tuple([-e for e in a])
        r += 1
        while r < d and not w[r]:
            r += 1
        if r == d:   # w is spent
            break
        j += 1
        p += 1
    # the entries left of each pivot from row `top` down, reduced into [0, pivot)
    p = top
    for m in range(first, len(cols)):
        col = cols[m]
        while not col[p]:
            p += 1
        pivot = col[p]
        for k in range(m):
            q = cols[k][p] // pivot
            if q:
                cols[k] = tuple([a - q * b for a, b in zip(cols[k], col)])
        p += 1
    return tuple(cols)


def hnf_transform(matrix: IntMatrix):
    """HNF basis plus integer certificates: basis[k] = matrix . coeffs[k].

    The c x c identity is stacked under the input columns, and `hnf_insert`
    is folded over them with the first d rows deciding pivots, so each
    basis column carries its coefficients in the rows below it.
    """
    d, c = matrix.rows, matrix.cols
    stacked = [[*col, *(int(i == k) for i in range(c))] for k, col in enumerate(matrix.columns)]
    basis = functools.reduce(lambda cols, w: hnf_insert(cols, w, d), stacked, ())
    return SublatticeBasis(d, tuple(col[:d] for col in basis)), [col[d:] for col in basis]


def lattice_sum(a: SublatticeBasis, b: SublatticeBasis) -> SublatticeBasis:
    """Smallest common superlattice A + B: b's columns inserted into a's."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    return SublatticeBasis(a.dim, functools.reduce(hnf_insert, b.columns, a.columns))


def solve(l: SublatticeBasis, v: Sequence[int]):
    """Integer coefficients x with  l.columns . x = v, or None.

    Back-substitution along pivot rows; each step is an exact divisibility
    check, so a non-None result is a certificate.
    """
    if len(v) != l.dim:
        raise ValueError("vector length does not match ambient dimension")
    w = [int(e) for e in v]
    coeffs = []
    for col in l.columns:
        r = _pivot_row(col)
        q, rem = divmod(w[r], col[r])
        if rem:
            return None
        if q:
            w = [a - q * b for a, b in zip(w, col)]
        coeffs.append(q)
    if any(w):
        return None
    return tuple(coeffs)


def member(l: SublatticeBasis, v: Sequence[int]) -> bool:
    """True iff v is an integer combination of l's columns."""
    return solve(l, v) is not None


def _exact_inverse(rows) -> np.ndarray:
    """The inverse of the nonsingular integer matrix `rows`, adj / det, each
    entry the float nearest its exact rational value."""
    n = len(rows)
    det = _int_det(rows)
    inv = np.empty((n, n))
    for i in range(n):
        for j in range(n):   # entry (i, j) is the (j, i) cofactor over det
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != j]
            inv[i, j] = (-1) ** (i + j) * _int_det(minor) / det
    return inv


class RealBasis:
    """Real d x d basis matrix U (columns are lattice vectors): `matrix`, its
    floats, and U exactly, as the integer `rows` of U . 2^scale for the least
    scale >= 0 (every float is dyadic) and their exact |det| `det`, which is
    0 exactly when U is singular."""

    __slots__ = ("dim", "matrix", "rows", "det", "scale", "_inverse_norm")

    def __init__(self, columns):
        u = np.array([[float(e) for e in col] for col in columns], dtype=float).T
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
            raise ValueError("basis must be a square d x d matrix, d >= 1")
        if not np.isfinite(u).all():
            raise ValueError("basis entry out of float range")   # U . S in unroll
        self.dim = u.shape[0]
        self.matrix = u
        ratios = [[x.as_integer_ratio() for x in row] for row in u.tolist()]
        self.scale = max(q for row in ratios for _, q in row).bit_length() - 1
        self.rows = tuple(tuple(p << self.scale + 1 - q.bit_length() for p, q in row)
                          for row in ratios)
        self.det = abs(_int_det(self.rows))
        if not self.det:
            raise ValueError("singular lattice basis")
        self._inverse_norm = None

    @property
    def inverse_norm(self) -> float:
        """The operator norm of U^-1 in floats, computed on the first access
        that succeeds and kept.  A float inverse that misses the identity by
        more than 1e-12 (or by NaN) is refused unless U is an integer basis
        (scale 0): then it is rounded from the exact adjugate."""
        if self._inverse_norm is not None:
            return self._inverse_norm
        with np.errstate(all="ignore"):
            try:
                inverse = np.linalg.inv(self.matrix)
                near = np.max(np.abs(self.matrix @ inverse - np.eye(self.dim))) <= 1e-12
            except np.linalg.LinAlgError:   # a zero pivot in floats, though det != 0
                near = False
            if not near:
                if self.scale:
                    raise ValueError("basis too ill-conditioned to invert reliably")
                inverse = _exact_inverse(self.rows)
            top = np.linalg.eigvalsh(inverse.T @ inverse)[-1]
        # the bounds scale with this norm: refuse a square that overflowed,
        # underflowed or lost precision as a subnormal
        if not np.finfo(float).tiny <= top < math.inf:
            raise ValueError("basis inverse norm out of float range")
        self._inverse_norm = math.sqrt(top)
        return self._inverse_norm


_PAST_FLOAT = (1 << 1024) - (1 << 970)   # the least int that rounds past the largest float


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for ints num >= 0 and den > 0, rounded once to the
    nearest float (inf past the float range).  An int below 2^53 converts
    exactly, so `math.sqrt` rounds its root once.  Otherwise r = isqrt of
    the quotient scaled by 4^s is at least 2^55, and a sticky low bit marks
    an inexact root, so r / 2^s, a correctly rounded int division (subnormal
    results too), rounds as the exact root would."""
    if den == 1 and num < 1 << 53:
        return math.sqrt(num)
    s = max(0, (den.bit_length() - num.bit_length() + 112) // 2)
    q, rem = divmod(num << 2 * s, den)
    r = math.isqrt(q)
    r |= bool(rem or r * r != q)
    return r / (1 << s) if r < _PAST_FLOAT else math.inf


def _gram(u: RealBasis, l: SublatticeBasis) -> int:
    """det(G^T G) for G = U's exact rows times L's columns (Bareiss); 1 at rank 0."""
    g = [[sum(map(mul, row, col)) for row in u.rows] for col in l.columns]
    return _int_det([[sum(map(mul, a, b)) for b in g] for a in g])


def volume(u: RealBasis, l: SublatticeBasis) -> float:
    """p-dimensional volume of the unit cell of the real lattice U . L,
    sqrt(`_gram` / 4^(scale p)) rounded once; the rank-0 lattice has volume 1."""
    return _sqrt_ratio(_gram(u, l), 1 << 2 * u.scale * l.rank)


def coefficient(u: RealBasis, l: SublatticeBasis) -> float:
    """The monomial coefficient vol_p(U . L) / vol_d(U) of the rank-p lattice
    L, rounded once (inf past the float range).  At full rank it is the index
    [Z^d : L], the product of the pivots, whatever U is; below it, its square
    is `_gram` * 4^(scale (d - p)) / det^2 exactly."""
    p = l.rank
    if p == u.dim:
        index = math.prod(col[i] for i, col in enumerate(l.columns))
        return float(index) if index < _PAST_FLOAT else math.inf
    return _sqrt_ratio(_gram(u, l) << 2 * u.scale * (u.dim - p), u.det * u.det)


def unit_ball_volume(q: int) -> float:
    """Volume of the q-dimensional unit ball: pi^(q/2) / Gamma(q/2 + 1)."""
    if q < 0:
        raise ValueError("dimension must be non-negative")
    return math.pi ** (q / 2) / math.gamma(q / 2 + 1)


def coset_reps(s: IntMatrix):
    """Canonical representatives of Z^d modulo S.Z^d (exactly |det S| many)."""
    if s.cols != s.rows:
        raise ValueError("sublattice matrix must be square")
    h = hnf_reduce(s)
    if h.rank != s.rows:
        raise ValueError("singular sublattice matrix")
    # full rank forces one pivot per row, so H is lower triangular and the
    # canonical transversal is the set of digit vectors below the pivots.
    return [tuple(digits) for digits in itertools.product(*(range(col[i]) for i, col in enumerate(h.columns)))]


def remainder(columns: tuple, v) -> tuple:
    """v floor-reduced along the pivot rows of the HNF basis `columns`: v
    minus a lattice vector, so it is zero exactly when v is in the lattice,
    and the columns with it span the lattice the columns with v span."""
    w = list(v)
    r = 0
    for col in columns:   # each pivot row is below the last: col is 0 there
        while not col[r]:
            r += 1
        q = w[r] // col[r]
        if q:
            w = [a - q * b for a, b in zip(w, col)]
    return tuple(w)


def reduce_mod(l: SublatticeBasis, v: Sequence[int]):
    """Canonical representative of v modulo the lattice L: `remainder` of
    v's entries as ints."""
    if len(v) != l.dim:
        raise ValueError("vector length does not match ambient dimension")
    return remainder(l.columns, [int(e) for e in v])


def reduce_many(l: SublatticeBasis, vectors):
    """Residues and quotients of many vectors along L's pivot rows.

    `vectors` is an (N, dim) array or nested list; it is reduced as an
    object array of Python ints, so entries of any size stay exact.  Row i
    of the (N, dim) residues is `reduce_mod(l, vectors[i])`, and row i of
    the (N, rank) quotients holds the multiples of L's columns taken off it,
    so vectors = residues + quotients . columns.  Where L is a full-rank HNF
    the quotients are what `solve` finds for vectors - residues.
    """
    w = np.array(vectors, dtype=object).reshape(-1, l.dim)
    q = np.empty((len(w), l.rank), dtype=object)
    for j, col in enumerate(l.columns):
        r = _pivot_row(col)
        q[:, j] = w[:, r] // col[r]
        w[:, r:] -= q[:, j, None] * np.array(col[r:], dtype=object)
    return w, q


def _lll(columns: list) -> tuple:
    """(B, T) for linearly independent integer columns: B their basis
    LLL-reduced (delta = 3/4) by exact integer column operations, and T the
    unimodular matrix of those operations, so column j of B is the given
    columns times column j of T; both as lists of columns.  The Gram-Schmidt
    coefficients are exact `Fraction`s, recomputed after each swap."""
    b = [list(c) for c in columns]
    d = len(b)
    t = [[int(i == j) for i in range(d)] for j in range(d)]
    k = 1
    while k < d:
        star, norm, mu = [], [], []   # Gram-Schmidt vectors, their squared norms, coefficients
        for v in b:
            mu.append([Fraction(sum(map(mul, v, w))) / n for w, n in zip(star, norm)])
            w = [Fraction(x) for x in v]
            for m, s in zip(mu[-1], star):
                w = [x - m * y for x, y in zip(w, s)]
            star.append(w)
            norm.append(sum(x * x for x in w))
        for j in reversed(range(k)):   # size reduction of column k
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                t[k] = [x - q * y for x, y in zip(t[k], t[j])]
                mu[k][:j] = [x - q * y for x, y in zip(mu[k], mu[j])]
                mu[k][j] -= q
        if norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            t[k - 1], t[k] = t[k], t[k - 1]
            k = max(k - 1, 1)
    return b, t


def count_cosets_in_ball(u: RealBasis, l: SublatticeBasis, radius: float,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Brute-force count of elements of Lambda/Lambda_C meeting the R-ball.

    Enumerates the integer coordinates of all lattice points U.n with
    ||U.n|| <= R and deduplicates them by canonical reduction along L's
    pivot rows (`reduce_many`, in Python ints, so HNF entries of any size
    are exact).  The points are enumerated in a box of coordinates m over
    an LLL-reduced basis U.T of the same lattice (`_lll` of U's exact
    columns), whose inverse has short rows even where U's has long ones.
    The ball test is made on U.T.m, whose terms are short, and only the
    points kept are mapped back by n = T.m, in Python ints.  Raises
    BudgetExceeded if that box holds more than `budget` points, or if its
    size leaves the float range.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if l.dim != u.dim:
        raise ValueError("ambient dimension mismatch")
    d = u.dim
    reduced, t = _lll(list(map(list, zip(*u.rows))))
    basis = np.array([[x / (1 << u.scale) for x in col] for col in reduced]).T
    with np.errstate(over="ignore", invalid="ignore"):   # a norm past the float range is inf
        inverse = np.linalg.inv(basis)
        spans = [np.linalg.norm(inverse[i, :]) * radius * (1 + 1e-9) for i in range(d)]
    if not all(map(math.isfinite, spans)):
        raise BudgetExceeded(f"enumeration box past the float range exceeds budget {budget}")
    bounds = [int(math.floor(s)) for s in spans]
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    if total > budget:
        raise BudgetExceeded(f"enumeration box of {total} points exceeds budget {budget}")
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    real = pts @ basis.T   # short m over short columns: no cancellation of large terms
    keep = pts[np.einsum("ij,ij->i", real, real) <= radius * radius * (1 + 1e-9)]
    return len(set(map(tuple, reduce_many(l, keep @ np.array(t, dtype=object))[0].tolist())))
