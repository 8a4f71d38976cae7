"""Exact integer-lattice arithmetic.

Sublattices of Z^d are kept in a canonical column-style Hermite normal form
so that two values describe the same lattice iff they compare equal.  All
integer work uses Python's unbounded ints (intermediate entries during
reduction can grow like (2N)^(c^(d-1)), far beyond 64 bits).  The real
basis is kept as floats and exactly, as the integer matrix U . 2^scale, so
volumes and monomial coefficients are exact until one final rounding.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


def _hnf_columns(dim: int, cols: list) -> tuple:
    """Column-operation HNF reduction (negate / swap / subtract a multiple)
    over rows 0..dim-1 of `cols`, a list of column lists of ints that it
    reduces in place; the basis columns, in order.

    Columns may be longer than `dim`: the operations carry the extra rows
    along, which is how `hnf_transform` records its certificates.
    """
    c = len(cols)
    j = 0
    for i in range(dim):
        pivot = None
        for l in range(j, c):
            if cols[l][i]:
                pivot = l
                break
        if pivot is None:
            continue
        cols[j], cols[pivot] = cols[pivot], cols[j]
        if cols[j][i] < 0:
            cols[j] = [-e for e in cols[j]]
        for k in range(j + 1, c):
            if cols[k][i] < 0:
                cols[k] = [-e for e in cols[k]]
            # Euclid on the i-th entries of columns j and k.
            while cols[j][i] and cols[k][i]:
                q = cols[j][i] // cols[k][i]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
                cols[j], cols[k] = cols[k], cols[j]
        # canonical: entries left of the pivot reduced into [0, pivot)
        for k in range(j):
            q = cols[k][i] // cols[j][i]
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
        j += 1
    return tuple(tuple(col) for col in cols[:j])


def hnf_reduce(matrix, dim: int | None = None) -> SublatticeBasis:
    """Canonical HNF basis of the lattice spanned by the columns of `matrix`.

    Accepts an IntMatrix or a plain iterable of integer columns (pass `dim`
    when the column list may be empty).  Redundant, zero, and negative
    columns are all fine.  Each column is converted once, to the list of
    ints that the reduction works on.
    """
    if isinstance(matrix, IntMatrix):
        cols, d = [list(col) for col in matrix.columns], matrix.rows
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
    return SublatticeBasis(d, _hnf_columns(d, cols))


def hnf_insert(columns: tuple, w) -> tuple:
    """The canonical HNF column tuple of the lattice that the canonical HNF
    columns `columns` and the integer vector `w` span; `columns` itself when
    w is zero.  It is what `hnf_reduce(columns + (w,)).columns` is, with
    less work (Cohen, A Course in Computational Algebraic Number Theory,
    1993, section 2.4).

    Let r be w's leading row.  The columns whose pivot lies above r take no
    part in Euclid: w and the later columns are zero above r.  From row r
    down, Euclid runs between w and the column pivoting at w's leading row,
    until w is zero or leads at a row without a pivot, where it becomes a
    new pivot column.  Last, in each pivot row from r down, the entries of
    the earlier columns are reduced into [0, pivot), top down.  Any integer
    w works; `build` passes its drift's `remainder`, whose entries at the
    pivot rows are already below the pivots, so Euclid takes few steps.
    """
    d = len(w)
    top = 0
    while not w[top]:
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

    The c x c identity is stacked under the input columns, so the reduction
    writes each basis column's coefficients in the rows below it.
    """
    d, c = matrix.rows, matrix.cols
    stacked = [[*col, *(int(i == k) for i in range(c))] for k, col in enumerate(matrix.columns)]
    basis = _hnf_columns(d, stacked)
    return SublatticeBasis(d, tuple(col[:d] for col in basis)), [col[d:] for col in basis]


def lattice_sum(a: SublatticeBasis, b: SublatticeBasis) -> SublatticeBasis:
    """Smallest common superlattice A + B."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    if not b.columns:
        return a
    if not a.columns:
        return b
    if a == b:
        return a
    return SublatticeBasis(a.dim, _hnf_columns(a.dim, [list(col) for col in a.columns + b.columns]))


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
    """Real d x d basis matrix U (columns are lattice vectors) with caches.

    Caches the inverse, the operator norm of the inverse (largest singular
    value), and U exactly: every float is a dyadic rational, so U . 2^scale
    has integer `rows` for the least scale >= 0, and `det` is their exact
    |det|.  vol_d = det / 2^(scale d), rounded once.  A basis whose float
    inverse misses the identity by more than 1e-12 (or by NaN) is refused,
    unless it is an integer basis (scale 0) with a nonzero determinant: its
    inverse is then rounded from the exact adjugate (`_exact_inverse`).
    """

    __slots__ = ("dim", "matrix", "inverse", "volume", "inverse_norm", "rows", "det", "scale")

    def __init__(self, columns):
        u = np.array([[float(e) for e in col] for col in columns], dtype=float).T
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
            raise ValueError("basis must be a square d x d matrix, d >= 1")
        self.dim = d = u.shape[0]
        self.matrix = u
        det = np.linalg.det(u)
        if det == 0.0 or not np.isfinite(det):
            raise ValueError("singular lattice basis")
        ratios = [[x.as_integer_ratio() for x in row] for row in u.tolist()]   # floats are dyadic
        self.scale = max(q for row in ratios for _, q in row).bit_length() - 1
        self.rows = tuple(tuple(p << self.scale + 1 - q.bit_length() for p, q in row)
                          for row in ratios)
        self.det = abs(_int_det(self.rows))
        self.volume = self.det / (1 << self.scale * d)
        with np.errstate(all="ignore"):
            self.inverse = np.linalg.inv(u)
            residual = np.max(np.abs(u @ self.inverse - np.eye(d)))
        if not residual <= 1e-12:
            if self.scale or not self.det:
                raise ValueError("basis too ill-conditioned to invert reliably")
            self.inverse = _exact_inverse(self.rows)   # integer, det != 0: adj / det
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            top = np.linalg.eigvalsh(self.inverse.T @ self.inverse)[-1]
        # the bounds scale with this norm: refuse a square that overflowed,
        # underflowed or lost precision as a subnormal
        if not np.finfo(float).tiny <= top < math.inf:
            raise ValueError("basis inverse norm out of float range")
        self.inverse_norm = math.sqrt(top)


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


def count_cosets_in_ball(u: RealBasis, l: SublatticeBasis, radius: float,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Brute-force count of elements of Lambda/Lambda_C meeting the R-ball.

    Enumerates the integer coordinates of all lattice points U.n with
    ||U.n|| <= R and deduplicates them by canonical reduction along L's
    pivot rows (`reduce_many`, in Python ints, so HNF entries of any size
    are exact).  Raises BudgetExceeded if the enclosing coordinate box
    holds more than `budget` points.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if l.dim != u.dim:
        raise ValueError("ambient dimension mismatch")
    d = u.dim
    bounds = [int(math.floor(np.linalg.norm(u.inverse[i, :]) * radius * (1 + 1e-9))) for i in range(d)]
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    if total > budget:
        raise BudgetExceeded(f"enumeration box of {total} points exceeds budget {budget}")
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    real = pts @ u.matrix.T
    keep = pts[np.einsum("ij,ij->i", real, real) <= radius * radius * (1 + 1e-9)]
    return len(set(map(tuple, reduce_many(l, keep)[0].tolist())))
