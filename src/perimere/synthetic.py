"""Synthetic periodic graphs for benchmarks and randomized tests."""
from __future__ import annotations

import random

from .lattice import RealBasis
from .pgraph import PeriodicGraph, number_shifts


def torus_grid(side: int, seed: int = 0, dim: int = 3) -> PeriodicGraph:
    """Grid on the dim-torus: side^dim vertices, dim*side^dim edges, D = 1."""
    rng = random.Random(seed)
    n = side ** dim
    values = [rng.random() for _ in range(n)]

    def flat(coords):
        acc = 0
        for c in coords:
            acc = acc * side + c
        return acc

    us, vs, shifts = [], [], []
    coords = [0] * dim
    for i in range(n):
        rem = i
        for a in range(dim - 1, -1, -1):
            coords[a] = rem % side
            rem //= side
        for a in range(dim):
            nb = list(coords)
            nb[a] += 1
            wrap = nb[a] == side
            if wrap:
                nb[a] = 0
            j = flat(nb)
            shift = tuple(1 if (wrap and b == a) else 0 for b in range(dim))
            values.append(max(values[i], values[j]) + rng.random())
            us.append(i)
            vs.append(j)
            shifts.append(shift)
    return _standard(dim, values, us, vs, shifts)


def random_periodic_graph(rng: random.Random, dim: int = 3, n: int = 20, m: int = 40,
                          shift_range: int = 1, tie_values: bool = False) -> PeriodicGraph:
    """Random valid quotient graph; self-loops and parallel edges allowed."""
    if n == 0:
        m = 0
    if tie_values:
        values = [float(rng.randint(0, max(2, n // 3))) for _ in range(n)]
    else:
        values = [round(rng.random() * 10, 6) for _ in range(n)]
    us, vs, shifts = [], [], []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        shift = tuple(rng.randint(-shift_range, shift_range) for _ in range(dim))
        base = max(values[u], values[v])
        if tie_values:
            val = base + float(rng.randint(1, 4))
        else:
            val = base + round(rng.random() * 10 + 1e-3, 6)
        values.append(val)
        us.append(u)
        vs.append(v)
        shifts.append(shift)
    return _standard(dim, values, us, vs, shifts)


def _standard(dim, values, us, vs, shifts) -> PeriodicGraph:
    """The graph on the standard lattice with vertex i and edge j of ids i, j."""
    n = len(values) - len(shifts)
    basis = RealBasis([[1.0 if r == c else 0.0 for r in range(dim)] for c in range(dim)])
    return PeriodicGraph(dim, basis, [*range(n), *range(len(shifts))], values, {}, us, vs,
                         *number_shifts(shifts))
