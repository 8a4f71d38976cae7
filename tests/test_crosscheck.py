"""Cross-route checks: the flow solver against an LP and bit for bit against
its earlier implementation, splinter checks and barcode invariance on random
graphs, the splinters check and canonical forms against the recursive
string-digest reference, shadow counts under a skewed basis, every epoch's
monomial against the shadows it counts, the event log of tree JSON against
the object build's, the components
of k-fold covers against the tree's lattices, and the block reader of graph
documents against reading them whole."""
import itertools
import json
import math
import os
import random
from bisect import bisect_left

import numpy as np
import pytest
from scipy.optimize import linprog

from perimere import (GraphError, IntMatrix, build, canonical_form, equals, extract,
                      jsonfmt, mergetree, parse, pgraph, serialize, splinters, unroll, w1, w1_alt)
from perimere.barcode import json_chunks, to_csv
from perimere.cli import main
from perimere.lattice import (RealBasis, SublatticeBasis, count_cosets_in_ball, hnf_reduce,
                              unit_ball_volume)
from perimere.mergetree import _TreeIndex
from perimere.pgraph import PeriodicGraph, number_shifts
from perimere.synthetic import random_periodic_graph, torus_grid
from perimere.transport import _add, barcode_distance, positive_negative_split

from . import oracles
from .conftest import fig3_left_doc
from .oracles import Beam, Epoch, bfs_components, oracle_w1, view
from .test_lattice import random_unimodular
from .test_mergetree import chain, copies, level_chain, star


def lp_w1(xi, eta):
    """Direct LP of the transport marginals; independent of the flow solver."""
    xs, ys = sorted(xi), sorted(eta)
    nx, ny = len(xs), len(ys)
    pairs = [(i, j) for i in range(nx) for j in range(ny)]
    nvar = len(pairs) + nx + ny
    cost = [abs(xs[i][0] - ys[j][0]) + abs(xs[i][1] - ys[j][1]) for i, j in pairs]
    cost += [x[1] - x[0] for x in xs]
    cost += [y[1] - y[0] for y in ys]
    a_eq, b_eq = [], []
    for i, x in enumerate(xs):
        row = [0.0] * nvar
        for k, (pi, _) in enumerate(pairs):
            if pi == i:
                row[k] = 1.0
        row[len(pairs) + i] = 1.0
        a_eq.append(row)
        b_eq.append(xi[x])
    for j, y in enumerate(ys):
        row = [0.0] * nvar
        for k, (_, pj) in enumerate(pairs):
            if pj == j:
                row[k] = 1.0
        row[len(pairs) + nx + j] = 1.0
        a_eq.append(row)
        b_eq.append(eta[y])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * nvar, method="highs")
    assert res.success
    return float(res.fun)


class TestFlowAgainstLP:
    def test_real_masses(self):
        rng = random.Random(42)
        for _ in range(50):
            xi, eta = {}, {}
            for target in (xi, eta):
                for _ in range(rng.randint(1, 6)):
                    b = rng.uniform(-2, 2)
                    d = b + rng.uniform(0.1, 5)
                    target[(b, d)] = rng.uniform(0.1, 3) * (math.sqrt(2) if rng.random() < 0.3 else 1.0)
            # mass rounding at 1e-9 resolution bounds the gap to the LP optimum
            assert w1(xi, eta) == pytest.approx(lp_w1(xi, eta), abs=5e-8)

    def test_unbalanced_masses(self):
        rng = random.Random(43)
        for _ in range(25):
            xi = {(rng.uniform(0, 1), rng.uniform(2, 3)): rng.uniform(0.5, 4)}
            eta = {}
            for _ in range(rng.randint(0, 4)):
                b = rng.uniform(0, 2)
                eta[(b, b + rng.uniform(0.5, 2))] = rng.uniform(0.1, 2)
            assert w1(xi, eta) == pytest.approx(lp_w1(xi, eta), abs=5e-8)

    def test_grid_era3_against_twin(self):
        # workload size: the 64 era-3 bars of a 4^3 grid against its eps-twin
        for seed in (0, 1):
            g = torus_grid(4, seed=seed)
            xi = extract(build(g)).era_function(3)
            eta = extract(build(_twin(random.Random(seed), g))).era_function(3)
            assert len(xi) == len(eta) == 64
            assert w1_alt(xi, eta) == pytest.approx(lp_w1(xi, eta), abs=5e-8)

    def test_signed_irrational_masses(self):
        rng = random.Random(46)
        a, b = ({(x, x + rng.uniform(0.1, 4)): rng.choice((-1, 1)) * rng.uniform(0.1, 3) * math.sqrt(2)
                 for x in (rng.uniform(-2, 2) for _ in range(rng.randint(30, 50)))}
                for _ in range(2))
        assert w1_alt(a, b) == pytest.approx(lp_w1(*_split(a, b)), abs=5e-8)


def _twin(rng, g, eps=1e-3):
    """g with every filter value moved by at most eps, the filter property kept."""
    doc = serialize(g)
    for rec in doc["vertices"]:
        rec["value"] += rng.uniform(-eps, eps)
    value = {rec["id"]: rec["value"] for rec in doc["vertices"]}
    for rec in doc["edges"]:
        rec["value"] = max(rec["value"] + rng.uniform(-eps, eps), value[rec["u"]], value[rec["v"]])
    return parse(doc)


def _clusters(rng, clusters):
    """Six-vertex clusters of twelve edges with shifts in [-2, 2]^3, joined by
    one cross edge per cluster: many catenations, every era populated."""
    n = 6 * clusters
    values = [rng.random() for _ in range(n)]
    edges = []

    def edge(u, v, value, reach):
        edges.append({"id": len(edges), "u": u, "v": v, "value": value,
                      "shift": [rng.randint(-reach, reach) for _ in range(3)]})

    for c in range(clusters):
        base = 6 * c
        pairs = [(base + rng.randrange(k), base + k) for k in range(1, 6)]
        pairs += [(base + rng.randrange(6), base + rng.randrange(6)) for _ in range(7)]
        for u, v in pairs:
            edge(u, v, max(values[u], values[v]) + rng.random(), 2)
    for _ in range(clusters):
        edge(rng.randrange(n), rng.randrange(n), 2.0 + rng.random(), 1)
    return parse({"dim": 3, "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  "vertices": [{"id": i, "value": x} for i, x in enumerate(values)],
                  "edges": edges})


def _signed_mf(rng, max_pts):
    """Half-integer points (many exact ties), some infinite deaths, signed
    masses of which about half are irrational."""
    out = {}
    for _ in range(rng.randint(0, max_pts)):
        b = rng.randint(-6, 8) * 0.5
        d = math.inf if rng.random() < 0.1 else b + rng.randint(1, 10) * 0.5
        m = rng.randint(1, 4) * (math.sqrt(2) if rng.random() < 0.5 else 1.0)
        out[(b, d)] = out.get((b, d), 0.0) + rng.choice((-1, 1)) * m
    return {k: v for k, v in out.items() if v}


def _signed_pair(rng, max_pts):
    """Two signed functions; mostly their infinite points carry the same
    masses at other births, so the distance is finite."""
    a, b = _signed_mf(rng, max_pts), _signed_mf(rng, max_pts)
    if rng.random() < 0.8:
        b = {p: m for p, m in b.items() if math.isfinite(p[1])}
        for p, m in a.items():
            if math.isinf(p[1]):
                q = (rng.randint(-6, 8) * 0.5, math.inf)
                b[q] = b.get(q, 0.0) + m
    return a, b


def _split(a, b):
    """The two non-negative functions w1_alt ships between."""
    xp, xn = positive_negative_split(a)
    yp, yn = positive_negative_split(b)
    return _add(xp, yn), _add(xn, yp)


class TestW1Oracle:
    """w1 against the earlier dense solver: the same augmenting paths in the
    same order, so the same float, compared with ==."""

    def test_random_signed_instances(self):
        rng = random.Random(47)
        finite = 0
        for trial in range(2000):
            max_pts = 50 if trial % 40 == 0 else rng.choice((2, 3, 4, 6, 8, 12, 16, 24))
            xi, eta = _split(*_signed_pair(rng, max_pts))
            got, want = w1(xi, eta), oracle_w1(xi, eta)
            assert got == want, (xi, eta)
            finite += math.isfinite(want)
        assert finite > 1500

    def test_near_ties_within_slack(self):
        # points moved by a few ulps give labels within 1e-15 of each other
        # but not equal: there the first row offering one keeps it, which is
        # not always the row of the column minimum
        rng = random.Random(48)

        def nudged(v):
            for _ in range(rng.randint(0, 3)):
                v = math.nextafter(v, rng.choice((-math.inf, math.inf)))
            return v

        for _ in range(1000):
            xi, eta = {}, {}
            for mf in (xi, eta):
                for _ in range(rng.randint(1, 6)):
                    b = rng.randint(0, 6) * 0.5
                    mf[(nudged(b), nudged(b + rng.randint(1, 6) * 0.5))] = float(rng.randint(1, 3))
            assert w1(xi, eta) == oracle_w1(xi, eta), (xi, eta)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_barcodes_per_era(self, seed):
        rng = random.Random(seed)
        for g in (torus_grid(3, seed=seed), torus_grid(4, seed=seed), _clusters(rng, 8)):
            a, b = extract(build(g)), extract(build(_twin(rng, g)))
            for era in range(g.dim + 1):
                xi, eta = a.era_function(era), b.era_function(era)
                assert w1_alt(xi, eta) == oracle_w1(*_split(xi, eta))

    def test_masses_beyond_int64(self):
        # 1e12 and 3e12 scale to 1e21 and 3e21 units, past 2^63
        xi = {(0.0, 4.0): 1e12, (1.0, 5.0): 3e12, (0.0, math.inf): 3e12}
        eta = {(0.5, 4.0): 1e12, (1.0, 5.5): 3e12, (2.0, math.inf): 3e12}
        got = w1(xi, eta)
        assert math.isfinite(got) and got == oracle_w1(xi, eta)
        assert got == pytest.approx(0.5e12 + 1.5e12 + 6e12, rel=1e-12)


class TestRandomGraphInvariance:
    def test_unroll_invariance_and_splinters(self):
        rng = random.Random(44)
        for trial in range(12):
            g = random_periodic_graph(rng, dim=3, n=rng.randint(2, 8), m=rng.randint(2, 16))
            tree = build(g)
            code = extract(tree)
            while True:
                s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
                if 1 <= abs(s.det()) <= 3:
                    break
            rolled = unroll(g, s)
            rtree = build(rolled)
            assert equals(code, extract(rtree))
            assert barcode_distance(code, extract(rtree)) <= 1e-9
            assert splinters(rtree, tree)

    def test_tie_heavy_unroll_invariance(self):
        rng = random.Random(45)
        for trial in range(10):
            g = random_periodic_graph(rng, dim=2, n=rng.randint(2, 8), m=rng.randint(2, 14),
                                      tie_values=True)
            code = extract(build(g))
            while True:
                s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                if 1 <= abs(s.det()) <= 4:
                    break
            assert equals(code, extract(build(unroll(g, s))))

    def test_rotation_basis_change_and_cover_combined(self):
        # the abstract's invariance "under isometries, changing bases, and
        # indeed changing lattices" at once: U' = Q.U.A for a rotation Q and
        # a unimodular A, with shifts A^-1 t, then the cover by a sublattice
        # S, each drawn or not, every combination alike.  Parse refuses only
        # a basis whose exact determinant is 0, so it refuses none of them
        rng = random.Random(53)
        combos = list(itertools.product((False, True), repeat=3))
        checked = refused = 0
        for trial in range(400):
            rotate, change, cover = combos[trial % len(combos)]
            g = next(TestBasisChangeInvariance._graphs(rng, 1))
            d = g.dim
            doc = serialize(g)
            basis = np.array(doc["basis"]).T   # the columns as a matrix
            if rotate:
                gauss = np.random.default_rng(rng.randrange(2 ** 32)).normal(size=(d, d))
                basis = np.linalg.qr(gauss)[0] @ basis
            if change:
                a = random_unimodular(rng, d)
                ainv = _unimodular_inverse(a)
                basis = basis @ np.array(a, dtype=float).T
                for rec in doc["edges"]:
                    rec["shift"] = [sum(ainv[k][r] * rec["shift"][k] for k in range(d))
                                    for r in range(d)]
            doc["basis"] = basis.T.tolist()
            try:
                moved = parse(doc)
            except GraphError:
                refused += 1
                continue
            if cover:
                moved = unroll(moved, _sublattice(rng, d))
            assert equals(extract(build(g)), extract(build(moved)))
            checked += 1
        assert refused == 0 and checked == 400


def _unimodular_inverse(cols):
    """Columns of the inverse of the unimodular matrix with columns `cols`:
    its adjugate times its determinant, which is +-1."""
    d = len(cols)
    if d == 1:
        return [list(cols[0])]
    det = IntMatrix(d, tuple(map(tuple, cols))).det()

    def cofactor(i, j):   # signed determinant without row i and column j
        rest = tuple(tuple(c[r] for r in range(d) if r != i) for k, c in enumerate(cols) if k != j)
        return (-1) ** (i + j) * IntMatrix(d - 1, rest).det()

    return [[cofactor(c, r) * det for r in range(d)] for c in range(d)]


class TestBasisChangeInvariance:
    # the abstract's invariance under changing bases, on whole graphs, one
    # change at a time; TestRandomGraphInvariance combines them with covers

    @staticmethod
    def _graphs(rng, count):
        for _ in range(count):
            yield random_periodic_graph(rng, dim=rng.randint(1, 3), n=rng.randint(2, 9),
                                        m=rng.randint(2, 18), shift_range=rng.choice((1, 2)),
                                        tie_values=rng.random() < 0.5)

    def test_unimodular_basis_change(self):
        # U' = U.A with shifts A^-1 t describes the same periodic graph; parse
        # refuses only a basis whose exact determinant is 0, so none of them
        rng = random.Random(51)
        checked = refused = 0
        for g in self._graphs(rng, 60):
            d = g.dim
            a = random_unimodular(rng, d)
            ainv = _unimodular_inverse(a)
            doc = serialize(g)
            u = doc["basis"]
            doc["basis"] = [[sum(u[k][r] * a[j][k] for k in range(d)) for r in range(d)]
                            for j in range(d)]
            for rec in doc["edges"]:
                rec["shift"] = [sum(ainv[k][r] * rec["shift"][k] for k in range(d))
                                for r in range(d)]
            try:
                moved = build(parse(doc))
            except GraphError:
                refused += 1
                continue
            tree = build(g)
            assert equals(extract(tree), extract(moved))
            assert canonical_form(tree) == canonical_form(moved)
            checked += 1
        assert refused == 0 and checked == 60

    def test_rotated_basis(self):
        # U' = Q.U for an orthogonal Q is an isometric copy
        rng = random.Random(52)
        for g in self._graphs(rng, 60):
            gauss = np.random.default_rng(rng.randrange(2 ** 32)).normal(size=(g.dim, g.dim))
            q, _ = np.linalg.qr(gauss)
            doc = serialize(g)
            doc["basis"] = [(q @ col).tolist() for col in np.array(doc["basis"])]
            assert equals(extract(build(g)), extract(build(parse(doc))))


def _sublattice(rng, dim, max_det=3):
    while True:
        s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if 1 <= abs(s.det()) <= max_det:
            return s


def _skewed_sublattice(rng, dim, max_det):
    """S = T.U with U unimodular and T lower triangular, |det S| <= max_det,
    T's entries below a pivot p drawn from [0, p): S's HNF is T."""
    while True:
        pivots = [rng.randint(1, max_det) for _ in range(dim)]
        if math.prod(pivots) <= max_det:
            break
    t = [[pivots[i] if i == j else rng.randrange(pivots[i]) if i > j else 0 for j in range(dim)]
         for i in range(dim)]
    u = random_unimodular(rng, dim, ops=4)   # columns, small enough for a well-conditioned U.S
    return IntMatrix.from_rows([[sum(t[i][k] * u[j][k] for k in range(dim)) for j in range(dim)]
                                for i in range(dim)])


def _forest(rng):
    """Two copies of one random block, the second 0.25 higher: a disconnected quotient."""
    g1 = random_periodic_graph(rng, dim=2, n=4, m=5)
    doc = serialize(g1)
    doc["vertices"] += [{"id": v["id"] + 100, "value": v["value"] + 0.25} for v in doc["vertices"]]
    doc["edges"] += [{**e, "id": e["id"] + 100, "u": e["u"] + 100, "v": e["v"] + 100,
                      "value": e["value"] + 0.25} for e in doc["edges"]]
    return parse(doc)


def _jittered(rng, g, eps=1e-12):
    """g with every filter value moved up by 0, eps or 2 eps: equal heights
    split into exact heights that round together at tol 1e-9."""
    doc = serialize(g)
    for rec in doc["vertices"]:
        rec["value"] += rng.choice((0.0, eps))
    for rec in doc["edges"]:
        rec["value"] += rng.choice((2 * eps, 3 * eps))
    return parse(doc)


def _bases(rng):
    """Seeded base graphs: plain, tie-valued, forests and jittered ties."""
    out = []
    for _ in range(6):
        dim = rng.choice((1, 2, 3))
        out.append(random_periodic_graph(rng, dim=dim, n=rng.randint(2, 9), m=rng.randint(2, 16)))
        out.append(random_periodic_graph(rng, dim=dim, n=rng.randint(2, 9), m=rng.randint(2, 16),
                                         tie_values=True))
    out += [_forest(rng) for _ in range(3)]
    out += [_jittered(rng, random_periodic_graph(rng, dim=2, n=rng.randint(2, 8),
                                                 m=rng.randint(2, 12), tie_values=True))
            for _ in range(6)]
    return out


def _tree_pairs(seed):
    """(tree', tree) pairs: covers over their bases, the reversed order, and
    across graphs."""
    rng = random.Random(seed)
    trees = []
    for g in _bases(rng):
        trees.append((build(unroll(g, _sublattice(rng, g.dim))), build(g)))
    pairs = []
    for cover, base in trees:
        pairs += [(cover, base), (base, cover), (base, base)]
    for (c1, b1), (c2, b2) in zip(trees, trees[1:]):
        pairs += [(b1, b2), (c1, b2)]
    return pairs


def _label(idx, b, h):
    """The label of beam b's subtree below h, read from the flat index."""
    return idx.lab[bisect_left(idx.cut, h, idx.coff[b], idx.coff[b + 1]) + b]


def _grid_union(count):
    """The disjoint union of `count` seeded torus grids 2^3 in d = 3."""
    doc = {"dim": 3, "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "vertices": [], "edges": []}
    for k in range(count):
        g = serialize(torus_grid(2, seed=k))
        dv, de = len(doc["vertices"]), len(doc["edges"])
        doc["vertices"] += [dict(v, id=v["id"] + dv) for v in g["vertices"]]
        doc["edges"] += [dict(e, id=e["id"] + de, u=e["u"] + dv, v=e["v"] + dv) for e in g["edges"]]
    return parse(doc)


def _leaves(coeffs, below=None):
    """A merge tree in d = 1 of leaves born at 0, each one epoch of exponent 1
    with the given coefficient: the roots, or, when `below` is given, the
    children of one root born at -1 with that coefficient, all merging at 10."""
    empty = SublatticeBasis.empty(1)
    beams = [] if below is None else [Beam(0, -1.0, 0, [Epoch(-1.0, below, 1, empty)])]
    for c in coeffs:
        beam = Beam(len(beams), 0.0, len(beams), [Epoch(0.0, c, 1, empty)])
        if below is not None:
            beam.death, beam.parent, beam.merge_edge = 10.0, 0, len(beams)
        beams.append(beam)
    return oracles.tree_of(1, beams)


def _line(values, edges):
    """The tree of a graph in d = 1 with no loops, so every epoch has
    exponent 1: vertices valued `values`, edges (u, v, value) of shift [0]."""
    n = len(values)
    return build(parse({"dim": 1, "basis": [[1.0]],
                        "vertices": [{"id": i, "value": x} for i, x in enumerate(values)],
                        "edges": [{"id": n + k, "u": u, "v": v, "value": t, "shift": [0]}
                                  for k, (u, v, t) in enumerate(edges)]}))


class TestSplintersOracle:
    @pytest.mark.parametrize("below", [None, 1.0])
    def test_first_pick_starves_a_later_group(self, below):
        # text order tries the image group A (one leaf of coeff 12) before B
        # (two of 6), and the preimage class X (four leaves of 3) before Y
        # (three of 4).  A <- X comes first and leaves B only Y, which two
        # beams cannot split evenly; only the backtrack to A <- Y, B <- X
        # splinters.  Roots take whole classes, children their ratio count
        image = _leaves([12.0, 6.0, 6.0], below)
        cover = _leaves([4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0], below)
        assert splinters(cover, image) and oracles.splinters(cover, image)
        assert not splinters(image, cover) and not oracles.splinters(image, cover)

    # on every seed but 47 and 48 an assignment of children backtracks to an
    # earlier group before a pair splinters
    @pytest.mark.parametrize("seed", [4, 14, 35, 47, 48, 69, 79, 88, 108, 118, 135, 159,
                                      176, 190, 226, 334])
    def test_bools_agree(self, seed):
        got = [(splinters(a, b), oracles.splinters(a, b)) for a, b in _tree_pairs(seed)]
        assert [g for g, _ in got] == [r for _, r in got]
        assert 0 < sum(g for g, _ in got) < len(got)

    def test_grid_union_cover_as_benchmarked(self):
        # the benchmark's splinters input, smaller: a union of 2^3 torus grids
        # in d = 3 and its quotient over diag(2, 1, 1)
        base = _grid_union(4)
        cover = serialize(unroll(base, IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])))
        tree, tcover = build(base), build(parse(cover))
        assert splinters(tcover, tree) and oracles.splinters(tcover, tree)
        cover["vertices"][5]["value"] -= 1e-6   # one copy of a vertex moves
        moved = build(parse(cover))
        assert not splinters(moved, tree) and not oracles.splinters(moved, tree)

    # each pair below reaches one branch of the sweep that no seeded pair
    # reaches, and splinters in neither routine, in either order.  Births
    # D apart are written alike at TOL, so their subtrees share a label
    D = 1e-12

    @pytest.mark.parametrize("cover,image", [
        # image roots born at 1 - D and 1, preimage roots both at 1 - D: the
        # class passes the first child's birth test, and the second child is
        # younger than the preimage it is given (the eldest check)
        ([[1 - D, 1 - D], []], [[1 - D, 1.0], []]),
        # preimage children born where they merge, at 5: no monomial ratio
        # pins their count, so count 1 fails (the image child was born at
        # 5 - D) and count 2 is tried next
        ([[0.0, 5.0, 5.0], [(0, 1, 5.0), (0, 2, 5.0)]], [[0.0, 5.0 - D], [(0, 1, 5.0)]]),
        # the image child takes the preimage child born at 1; the one born at
        # 2 and its parent sliding on are left over with two labels
        ([[0.0, 1.0, 2.0], [(0, 1, 5.0), (0, 2, 5.0)]], [[0.0, 1.0], [(0, 1, 5.0)]]),
    ])
    def test_constructed_pairs_agree(self, cover, image):
        cover, image = _line(*cover), _line(*image)
        for a, b in ((cover, image), (image, cover)):
            assert not splinters(a, b) and not oracles.splinters(a, b)

    @pytest.mark.parametrize("seed", [49])
    def test_canonical_form_equality_agrees(self, seed, fig3_left, helix_cross):
        pairs = _tree_pairs(seed)
        for a, b in pairs:
            assert (canonical_form(a) == canonical_form(b)) == \
                (oracles.canonical_form(a) == oracles.canonical_form(b))
        assert any(canonical_form(a) == canonical_form(b) for a, b in pairs if a is not b)
        # the string itself is the reference one, byte for byte
        trees = {id(t): t for pair in pairs for t in pair}.values()
        for t in [*trees, build(fig3_left), build(helix_cross)]:
            assert canonical_form(t) == oracles.canonical_form(t)

    def test_digests_and_texts_match_reference_strings(self):
        # every cut at an event height of any beam, including cuts between
        # exact heights that round together: the token text of each beam
        # alive there is the reference string, and at one height two labels
        # are equal exactly when the strings are
        rng = random.Random(50)
        for g in _bases(rng):
            tree = build(g)
            idx = _TreeIndex(tree).labeled()
            kids = oracles.children(tree)
            beams = view(tree)
            heights = {h for beam in beams
                       for h in (beam.birth, beam.death, *(h for h, _ in kids[beam.index]),
                                 *(st for st, *_ in beam.spans()))}
            for beam in beams:   # every cut lies below the death
                assert _label(idx, beam.index, beam.death) == idx.lab[idx.coff[beam.index + 1] + beam.index]
            for h in heights:
                alive = [b.index for b in beams if b.birth <= h <= b.death]
                texts = {}
                for b in alive:
                    ref = oracles._digest(tree, b, h, 1e-9)
                    assert "".join(idx.tokens(b, h)) == ref
                    assert texts.setdefault(_label(idx, b, h), ref) == ref
                assert len(set(texts.values())) == len(texts)
                # text order of the subtrees of all beams alive at h
                reps = {_label(idx, b, h): b for b in alive}
                want = sorted(reps, key=lambda lab: oracles._digest(tree, reps[lab], h, 1e-9))
                assert idx.ordered(reps, h) == want


class TestBuildOracle:
    # the columnar build against the object build it replaced: every field of
    # every beam and epoch, a lattice table distinct by value and the event log
    def test_view_equals_object_build(self):
        rng = random.Random(17)
        graphs = [chain(60), star(40), level_chain(60),
                  parse({"dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]], "vertices": [], "edges": []})]
        for _ in range(420):
            n = rng.randint(1, 14)
            graphs.append(random_periodic_graph(
                rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(0, 3 * n),
                shift_range=rng.choice((1, 2)), tie_values=rng.random() < 0.6))
        cats = takeovers = 0
        for g in graphs:
            tree, ref = build(g), oracles.oracle_build(g)
            assert view(tree) == ref.beams
            assert len(set(tree.lattices)) == len(tree.lattices)
            assert tree.events == ref.events
            assert tree.roots() == ref.roots()
            cats += int(tree.catenation.sum())
            takeovers += sum(ep.cell is None for b in ref.beams for ep in b.epochs[1:])
        assert cats > 500 and takeovers > 100


class TestEventLogOracle:
    # the "events" of `tree --json` against the object build's log.
    # `events`, `to_json_dict` and `json_chunks` read one derivation of the
    # event order, so only an independent log can catch a fault in it; a
    # block of 2 rows puts block ends between the two streams it merges
    @pytest.mark.parametrize("block", [2, 256])
    def test_tree_json_events_are_the_oracle_log(self, capsys, tmp_path, monkeypatch, block):
        monkeypatch.setattr("perimere.jsonfmt._BLOCK", block)
        rng = random.Random(41)
        path = tmp_path / "g.json"
        tied = shared = rooted = 0
        for _ in range(150):
            n = rng.randint(1, 14)
            g = random_periodic_graph(rng, dim=rng.randint(1, 3), n=n, m=rng.randint(0, 3 * n),
                                      shift_range=rng.choice((1, 2)), tie_values=True)
            path.write_text(json.dumps(serialize(g)))
            assert main(["tree", str(path), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            want = [{"kind": e.kind, "time": e.time, "cell": e.cell, "beams": list(e.beams),
                     **({"coeff": e.coeff, "exp": e.exp} if e.kind == "catenation" else {})}
                    for e in oracles.oracle_build(g).events]
            assert doc["events"] == want
            # a vertex and an edge at one height
            heights = {e["time"] for e in want if e["kind"] == "appearance"}
            tied += any(e["time"] in heights for e in want if e["kind"] != "appearance")
            # a merger and a catenation on one edge
            shared += any(a["kind"] == "merger" and b["kind"] == "catenation" and a["cell"] == b["cell"]
                          for a, b in zip(want, want[1:]))
            # several roots, two of them with their infinite deaths in one block of beams
            nulls = [b["index"] // block for b in doc["beams"] if b["death"] is None]
            rooted += len(nulls) > len(set(nulls))
        assert tied > 50 and shared > 5 and rooted > 25


def _scaled_shifts(g, k):
    """g with every shift entry multiplied by k: the same tree with every
    lattice scaled by k."""
    return PeriodicGraph(g.dim, g.basis, g.ids, g.values, g.raw, g.u, g.v,
                         [tuple(c * k for c in t) for t in g.table], g.which)


def _drifting_path(dim, n, big):
    """A path of n vertices, each edge along (big, -big, big, ...), merged in
    path order, so vertex i's drift from the root is i times that shift; then
    loop edges from the far end back to the start, each catenating."""
    step = tuple(big if a % 2 == 0 else -big for a in range(dim))
    loops = [tuple(big * (a == b) - (a == dim) for b in range(dim)) for a in range(dim + 1)]
    us = [*range(n - 1), *[n - 1] * len(loops)]
    vs = [*range(1, n), *[0] * len(loops)]
    shifts = [step] * (n - 1) + loops
    values = [*map(float, range(n)), *map(float, range(1, n)), *map(float, range(n, n + len(loops)))]
    basis = RealBasis([[1.0 if r == c else 0.0 for r in range(dim)] for c in range(dim)])
    return PeriodicGraph(dim, basis, [*range(n), *range(len(shifts))], values, {}, us, vs,
                         *number_shifts(shifts))


def _built_as_oracle(g):
    """build(g), once its columns and lattices are checked against the
    object build's."""
    tree, ref = build(g), oracles.oracle_build(g)
    assert view(tree) == ref.beams
    lattices = [tree.lattices[k] for k in tree.lattice]
    assert lattices == [ep.basis for b in ref.beams for ep in b.epochs]
    columns = oracles.tree_of(g.dim, ref.beams)
    # all but dim and the lattice table, whose order is not part of the tree
    for name in ("birth", "birth_vertex", "death", "parent", "merge_edge", "offsets",
                 "start", "coeff", "exp", "catenation", "cell"):
        assert np.array_equal(getattr(tree, name), getattr(columns, name)), name
    assert [columns.lattices[k] for k in columns.lattice] == lattices
    return tree


class TestPackedBuildOracle:
    # build packs each drift into one int; the oracle keeps a list of d ints.
    # Shifts past 2^64 break any fixed 64-bit digit, and the long paths have
    # drifts of about n times the largest shift, past a width sized from the
    # shifts alone: both must give the oracle's columns and bases
    def test_wide_shifts_and_long_paths(self):
        rng = random.Random(21)
        graphs = []
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_periodic_graph(
                rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(0, 3 * n),
                shift_range=rng.choice((1, 2)), tie_values=rng.random() < 0.5)
            graphs.append(_scaled_shifts(g, rng.choice((1, 2 ** 64 + 1, 2 ** 70 - 3, -3 ** 50))))
        for dim in (1, 2, 3):
            for n, big in ((300, 1), (300, 2 ** 40 + 7), (40, 2 ** 66 - 1)):
                graphs.append(_drifting_path(dim, n, big))
        cats = wide = 0
        for g in graphs:
            tree = _built_as_oracle(g)
            cats += int(tree.catenation.sum())
            wide += any(abs(c) >= 2 ** 64 for lat in tree.lattices for col in lat.columns for c in col)
        assert cats > 300 and wide > 60


class TestRepeatedStepOracle:
    # build takes each lattice step once per (table index, packed drift) and
    # per pair of indices; in unions of copies of one component nearly every
    # step repeats.  Grids 2^d have shifts in {0, 1}^d, and clusters shifts
    # in [-2, 2]^3, whose packed drifts are negative too
    def test_unions_of_copies_and_their_covers(self, monkeypatch):
        drifts = []
        unpack = mergetree.unpack
        monkeypatch.setattr(mergetree, "unpack",
                            lambda pv, bits, d: drifts.append(pv) or unpack(pv, bits, d))
        rng = random.Random(27)
        parts = [torus_grid(2, seed=s, dim=d) for d in (1, 2, 3) for s in range(2)]
        parts += [_clusters(rng, 1) for _ in range(4)]
        cats = 0
        for part in parts:
            diag = IntMatrix.from_rows([[2 if r == c == 0 else int(r == c) for c in range(part.dim)]
                                        for r in range(part.dim)])
            for k in (3, 8):
                base = copies(part, k, offset=1e-6)   # every value distinct
                assert len(np.unique(base.values)) == len(base.values)
                tree = _built_as_oracle(base)
                cover = _built_as_oracle(unroll(base, diag))
                assert equals(extract(cover), extract(tree))
                assert splinters(cover, tree)
                cats += int(tree.catenation.sum() + cover.catenation.sum())
        # the drifts unpacked are the steps missing from the memo
        assert min(drifts) < 0 < max(drifts)
        assert cats > 2 * len(drifts)


class TestExtractOracle:
    # the column extract against the dict-per-key reference: per era the
    # bar count, births and deaths with ==, and mults with == too, since
    # fsum is correctly rounded in any order; and the CSV and JSON bytes
    def test_bars_and_bytes_match(self):
        rng = random.Random(16)
        graphs = [parse({"dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]], "vertices": [], "edges": []}),
                  parse({"dim": 1, "basis": [[2.0]], "vertices": [{"id": 0, "value": 1.5}],
                         "edges": []})]
        for _ in range(520):
            n = rng.randint(1, 12)
            graphs.append(random_periodic_graph(
                rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(0, 3 * n),
                shift_range=rng.choice((1, 2)), tie_values=rng.random() < 0.6))
        merged = 0
        for g in graphs:
            tree = build(g)
            code, want = extract(tree), oracles.oracle_extract(tree)
            assert [len(era) for era in code.eras] == [len(era) for era in want]
            for era, ref in zip(code.eras, want):
                assert era[["birth", "death", "mult"]].tolist() == ref
            assert to_csv(code) == oracles.oracle_csv(want)
            assert "".join(json_chunks(code)) == oracles.oracle_json(want)
            # a span adds a + contribution, and a - one when it starts after the birth
            contribs = sum(1 + (st > beam.birth) for beam in view(tree) for st, *_ in beam.spans())
            merged += len(code.bars) < contribs
        assert merged > 100   # keys that repeat, and sums that cancel, are common


class TestUnrollOracle:
    # the memoized unroll against the earlier per-edge one, field by field
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_serialized_graphs_equal(self, dim):
        rng = random.Random(60 + dim)
        skew = 0
        for _ in range(40):
            doc = serialize(random_periodic_graph(
                rng, dim=dim, n=rng.randint(0, 8), m=rng.randint(0, 16),
                shift_range=rng.choice([1, 2, 3]), tie_values=rng.random() < 0.5))
            for rec in doc["vertices"] + doc["edges"]:   # negative ids, decimal strings
                rec["id"] -= 5
                if rng.random() < 0.3:
                    rec["value"] = repr(rec["value"])
            for rec in doc["edges"]:
                rec["u"] -= 5
                rec["v"] -= 5
            g = parse(doc)
            s = _sublattice(rng, dim, max_det=rng.choice([3, 6]))
            h = hnf_reduce(s)
            skew += any(col[r] for j, col in enumerate(h.columns) for r in range(j + 1, dim))
            assert serialize(unroll(g, s)) == serialize(oracles.oracle_unroll(g, s))
        assert dim == 1 or skew > 0

    def test_wide_shifts_and_skewed_lattices(self):
        # shifts near +-2^70, |det S| up to 12 with off-diagonal HNF entries, a
        # graph whose every edge has its own shift and one with no edges
        rng = random.Random(70)
        wide = skew = own = bare = 0
        for trial in range(240):
            dim = rng.choice([1, 2, 3])
            doc = serialize(random_periodic_graph(
                rng, dim=dim, n=rng.randint(1, 6), m=rng.randint(0, 12) if trial else 0,
                shift_range=rng.choice([1, 2, 3])))
            far = rng.random() < 0.3
            for j, rec in enumerate(doc["edges"]):
                if trial % 4 == 1:
                    rec["shift"][0] = j
                if far:
                    rec["shift"] = [e + rng.choice([-1, 0, 1]) * 2 ** 70 for e in rec["shift"]]
            g = parse(doc)
            s = _skewed_sublattice(rng, dim, 12)
            h = hnf_reduce(s)
            shifts = oracles.edge_shifts(g)
            wide += max(map(abs, sum(shifts, ())), default=0) > 2 ** 63
            skew += any(col[r] for j, col in enumerate(h.columns) for r in range(j + 1, dim))
            own += g.m > 1 and len(set(shifts)) == g.m
            bare += g.m == 0
            got, want = unroll(g, s), oracles.oracle_unroll(g, s)
            assert serialize(got) == serialize(want)
            # one table entry per distinct new shift, read per edge as the oracle's
            assert len(set(got.table)) == len(got.table) == len(set(oracles.edge_shifts(want)))
            assert got.which.dtype == np.int64
            assert oracles.edge_shifts(got) == oracles.edge_shifts(want)
        assert wide > 20 and skew > 20 and own > 20 and bare > 0


_BAD = {   # one wrong entry per field, of the kinds the message tests name
    "id": [None, 0.5, "2", True, 2 ** 63, 1e19, -2 ** 63 - 1, 10.5, math.nan, math.inf],
    "u": [None, 0.5, "2", True, 2 ** 63, 2 ** 64, 1e19, 12345678, math.nan],
    "value": [None, True, "abc", "inf", "1e999", math.nan, math.inf, 10 ** 400, [1.0]],
    "shift": [1, None, "12", [1.5], ["1"], [math.inf], [True], [0, False], [None], [0] * 4],
}
_BAD["v"] = _BAD["u"]


def _bad_field(doc, rng):
    kind = rng.choice(["vertices", "edges"])
    key = rng.choice(["id", "value"] if kind == "vertices" else ["id", "u", "v", "value", "shift"])
    rng.choice(doc[kind])[key] = rng.choice(_BAD[key])


def _del_key(rec, key):
    del rec[key]


def _set_top(key, value):
    return lambda doc, rng: doc.__setitem__(key, value)


_FAULTS = [
    _bad_field, _bad_field, _bad_field, _bad_field,
    lambda d, r: d["edges"].append(dict(r.choice(d["edges"]))),   # duplicate edge id
    lambda d, r: d["vertices"].append(dict(r.choice(d["vertices"]), value=0.25)),
    lambda d, r: r.choice(d["edges"]).update(shift=[0] * (d["dim"] + r.choice([-1, 1]))),
    lambda d, r: r.choice(d["edges"]).update(value=-1e6),   # below every endpoint
    lambda d, r: r.choice(d["edges"]).update({r.choice("uv"): 12345678}),   # no such vertex
    lambda d, r: _del_key(r.choice(d["vertices"]), r.choice(["id", "value"])),
    lambda d, r: _del_key(r.choice(d["edges"]), r.choice(["id", "u", "v", "value", "shift"])),
    lambda d, r: d["edges"].__setitem__(r.randrange(len(d["edges"])), [10, 1, 2]),
    lambda d, r: d["vertices"].__setitem__(r.randrange(len(d["vertices"])), 5),
    _set_top("vertices", 3), _set_top("edges", {"id": 10}), _set_top("dim", 1.5),
    lambda d, r: d["basis"][0].__setitem__(0, r.choice([None, True, False])),
]


def _valid_doc(rng):
    """A random valid document in every form `parse` accepts: ids at the int64
    extremes, integral floats for ids, endpoints and shift entries, shift
    entries past 64 bits, values as ints, floats and decimal strings."""
    dim = rng.randint(1, 3)
    n = rng.choice([0, 1, 2, 5, 9])
    doc = serialize(random_periodic_graph(
        rng, dim=dim, n=n, m=rng.choice([0, 1, 4, 12]), shift_range=rng.choice([1, 2]),
        tie_values=rng.random() < 0.5))
    pool = [-2 ** 63, 2 ** 63 - 1, -2 ** 63 + 1, 2 ** 63 - 2, *rng.sample(range(-999, 999), 30)]
    vid = dict(zip(range(n), rng.sample(pool, n)))
    eid = dict(zip(range(len(doc["edges"])), rng.sample(pool, len(doc["edges"]))))
    as_int = rng.random() < 0.3   # rounding keeps the filter property
    for rec in doc["vertices"] + doc["edges"]:
        rec["id"] = (eid if "u" in rec else vid)[rec["id"]]
        if as_int:
            rec["value"] = round(rec["value"] * 4)
        elif rng.random() < 0.3:
            rec["value"] = rng.choice([repr(rec["value"]), f"{rec['value']:.12f}"])
    for rec in doc["edges"]:
        rec["u"], rec["v"] = vid[rec["u"]], vid[rec["v"]]
        if rng.random() < 0.3:
            rec["shift"] = [rng.choice([-1, 1]) * 2 ** 70 + e for e in rec["shift"]]
    for rec in doc["vertices"] + doc["edges"]:
        for key in ("id", "u", "v"):
            if key in rec and abs(rec[key]) < 2 ** 53 and rng.random() < 0.2:
                rec[key] = float(rec[key])
        if "shift" in rec and rng.random() < 0.2:
            rec["shift"] = [float(e) if abs(e) < 2 ** 53 else e for e in rec["shift"]]
    return doc


def _outcome(parse_fn, doc):
    try:
        g = parse_fn(doc)
    except GraphError as err:
        return str(err)
    return g


class TestParseOracle:
    # the column-wise parse against the earlier record loop, on valid and faulty documents
    def test_valid_documents_read_alike(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("a valid document reached the record walk")
        monkeypatch.setattr(pgraph, "_name_fault", no_walk)
        rng = random.Random(81)
        seen = {"empty": 0, "edgeless": 0, "raw": 0, "float": 0, "wide": 0, "extreme": 0}
        for _ in range(400):
            doc = _valid_doc(rng)
            g, want = parse(doc), oracles.oracle_parse(doc)
            for name in ("ids", "values", "u", "v"):
                col = getattr(g, name)
                assert col.dtype == getattr(want, name).dtype
                assert np.array_equal(col, getattr(want, name))
            shifts = oracles.edge_shifts(g)
            assert g.raw == want.raw and shifts == oracles.edge_shifts(want) and g.dim == want.dim
            assert all(type(e) is int for t in g.table for e in t)
            assert g.which.dtype == np.int64
            assert len(g.table) == len(set(shifts))   # one table entry per distinct shift
            recs = doc["vertices"] + doc["edges"]
            seen["empty"] += not recs
            seen["edgeless"] += bool(doc["vertices"]) and not doc["edges"]
            seen["raw"] += bool(g.raw)
            seen["float"] += any(type(r[k]) is float for r in recs for k in ("id", "u", "v")
                                 if k in r)
            seen["wide"] += any(abs(e) > 2 ** 63 for t in shifts for e in t)
            seen["extreme"] += any(abs(i) >= 2 ** 63 - 2 for i in g.ids.tolist())
        assert min(seen.values()) > 10, seen

    @pytest.mark.parametrize("faults", [1, 2])
    def test_faulty_documents_name_the_same_fault(self, faults):
        rng = random.Random(90 + faults)
        errors = 0
        for _ in range(500):
            doc = serialize(random_periodic_graph(
                rng, dim=rng.randint(1, 3), n=rng.randint(2, 6), m=rng.randint(2, 8)))
            for i in sorted(rng.sample(range(len(_FAULTS)), faults)):   # whole lists last
                _FAULTS[i](doc, rng)
            got, want = _outcome(parse, doc), _outcome(oracles.oracle_parse, doc)
            if isinstance(want, str):
                errors += 1
                assert got == want
            else:
                assert serialize(got) == serialize(want)
        assert errors > 450


def _layouts(doc) -> list:
    """A document's text in four layouts: perimere's own (sorted keys, so the
    edges come first), compact on one line, the vertices before the edges,
    and tab indents with CR LF line ends."""
    front = {key: doc[key] for key in ("dim", "basis", "vertices", "edges")}
    return [jsonfmt.dumps(doc), json.dumps(doc, separators=(",", ":")), json.dumps(front),
            json.dumps(doc, indent="\t").replace("\n", "\r\n")]


def _whole(path):
    """The graph of a path read whole by `json.load` and parsed as a dict."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise GraphError("document nested too deeply") from None
    if not isinstance(doc, dict):   # parse would take it for a path
        raise GraphError("document root must be a JSON object")
    return parse(doc)


def _assert_same_graph(g, want):
    for name in ("ids", "values", "u", "v", "which"):
        col = getattr(g, name)
        assert col.dtype == getattr(want, name).dtype
        assert np.array_equal(col, getattr(want, name))
    assert list(g.raw.items()) == list(want.raw.items())
    assert g.table == want.table and oracles.edge_shifts(g) == oracles.edge_shifts(want)
    assert g.dim == want.dim and np.array_equal(g.basis.matrix, want.basis.matrix)


def _read_alike(path, text):
    """Write `text` to `path`; parse(path) must give the graph, or raise the
    error, of the path read whole."""
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    try:
        want = _whole(path)
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            parse(path)
        assert str(got.value) == str(err)
        return str(err)
    _assert_same_graph(parse(path), want)
    return want


def _no_whole_read(path):
    raise AssertionError("a valid document was read whole")


class TestBlockReader:
    # parse(path) decodes the record lists a block at a time and reads a
    # document whole only when the block reader does not take it; both ways
    # must give the graph, or the error, of json.load and parse(dict)
    @pytest.mark.parametrize("block", [1, 200, pgraph._BLOCK])
    def test_valid_documents_in_four_layouts(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(pgraph, "_BLOCK", block)   # 1: a cut after every record
        monkeypatch.setattr(pgraph, "_load", _no_whole_read)
        rng = random.Random(26)
        path = tmp_path / "g.json"
        for _ in range(60):
            doc = _valid_doc(rng)
            want = parse(doc)
            for text in _layouts(doc):
                path.write_text(text, encoding="utf-8")
                _assert_same_graph(parse(path), want)

    def test_a_document_of_many_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pgraph, "_load", _no_whole_read)
        doc = serialize(torus_grid(12))
        doc["vertices"][7]["value"] = "0.5"   # a decimal string in a later block
        doc["edges"][4000]["value"] = repr(doc["edges"][4000]["value"])
        doc["edges"][2000]["u"] = float(doc["edges"][2000]["u"])
        want = parse(doc)
        path = tmp_path / "g.json"
        for text in _layouts(doc):
            path.write_text(text, encoding="utf-8")
            assert len(text) > 10 * pgraph._BLOCK
            _assert_same_graph(parse(path), want)

    @pytest.mark.parametrize("block", [1, pgraph._BLOCK])
    @pytest.mark.parametrize("note", ["a}, {b", "}]", "} ,\t{", '"}, {"id": 1}',
                                      [{}, {}], {"a": [{}], "b": {}}])
    def test_separator_text_inside_a_record(self, tmp_path, monkeypatch, block, note):
        # a cut inside a string or a nested value leaves a block that does
        # not decode, and the document is read whole
        monkeypatch.setattr(pgraph, "_BLOCK", block)
        doc = fig3_left_doc()
        doc["vertices"][0]["note"] = doc["edges"][1]["note"] = note
        for text in _layouts(doc):
            assert isinstance(_read_alike(tmp_path / "g.json", text), PeriodicGraph)

    def test_duplicate_top_level_key_last_wins(self, tmp_path):
        doc = fig3_left_doc()
        edges = json.dumps(doc["edges"])
        for first, last in ((edges, "[]"), ("[]", edges), ('[{"id": 1}]', edges), (edges, "7"),
                            ('[{"id": 1,}]', edges)):   # the first list is read, if not kept
            text = json.dumps(doc)[:-1] + f', "edges": {first}, "edges": {last}}}'
            text = text.replace(f'"edges": {edges}, ', "", 1)
            assert text.count('"edges"') == 2
            _read_alike(tmp_path / "g.json", text)
        got = _read_alike(tmp_path / "g.json", json.dumps(doc)[:-1] + ', "dim": 1}')
        assert got == "basis must be a list of d columns of d reals"

    @pytest.mark.parametrize("block", [1, pgraph._BLOCK])
    @pytest.mark.parametrize("space", ["\f", "\v", "\u00a0", "\u2028"])
    @pytest.mark.parametrize("at", ["}, {", "}, ", ", {", "}]"])
    def test_whitespace_json_does_not_take(self, tmp_path, monkeypatch, block, space, at):
        # \s takes these, JSON does not: the error is json.load's
        monkeypatch.setattr(pgraph, "_BLOCK", block)
        text = json.dumps(fig3_left_doc())
        assert at in text
        got = _read_alike(tmp_path / "g.json", text.replace(at, at[0] + space + at[1:], 1))
        assert isinstance(got, str) and ("Expecting" in got or "Extra data" in got)

    @pytest.mark.parametrize("old, new, error", [
        ('"value": 1.0', '"value": NaN', "vertex 1: value must be finite"),
        ('"value": 7.0', '"value": Infinity', "edge 11: value must be finite"),
        ('"value": 7.0', '"value": -Infinity', "edge 11: value must be finite"),
        ('[1.0, 0.0]', '[NaN, 0.0]', "basis entries must be finite numbers"),
        ('"shift": [1, 1]', '"shift": [NaN, 1]', "edge 11: shift must be a list of integers"),
        ('"id": 11', f'"id": {2 ** 64}', "signed 64-bit"),
        ('"u": 2, "v": 1, "value": 7.0', f'"u": {2 ** 64}, "v": 1, "value": 7.0', "missing vertex"),
        ('"u": 2, "v": 1, "value": 7.0', '"u": 2.5, "v": 1, "value": 7.0', "must be an integer"),
        ('"value": 9.0', f'"value": {10 ** 400}', "edge 12: value must be finite"),
        ('"shift": [0, 1]', f'"shift": [{2 ** 70}, -{2 ** 90}]', None),
        ('"u": 2, "v": 1, "value": 7.0', '"u": 2.0, "v": 1e0, "value": 7', None),
        ('"id": 10', '"id": 10.0', None),
        ('"id": 10', '"id": 10.5', "must be an integer"),
    ])
    def test_literals_and_numbers(self, tmp_path, old, new, error):
        text = json.dumps(fig3_left_doc())
        assert old in text
        got = _read_alike(tmp_path / "g.json", text.replace(old, new, 1))
        if error is None:
            assert isinstance(got, PeriodicGraph)
        else:
            assert error in got

    @pytest.mark.parametrize("vertices, edges", [("[]", "[]"), ("[ ]", "[\r\n\t]"),
                                                 ('[{"id": 0, "value": 0}]', " [] ")])
    def test_empty_record_lists(self, tmp_path, monkeypatch, vertices, edges):
        monkeypatch.setattr(pgraph, "_load", _no_whole_read)
        text = f'{{"basis": [[1.0]], "dim": 1, "edges": {edges}, "vertices": {vertices}}}'
        g = _read_alike(tmp_path / "g.json", text)
        assert g.m == 0 and g.n == len(json.loads(vertices))

    def test_deeply_nested_record_key(self, tmp_path):
        doc = fig3_left_doc()
        doc["edges"][1]["note"] = "deep"
        text = json.dumps(doc).replace('"deep"', "[" * 100_000 + "]" * 100_000)
        assert _read_alike(tmp_path / "g.json", text) == "document nested too deeply"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="opens a pipe by path")
    def test_a_pipe_is_read_once(self):
        # a document the block reader does not take is read whole from the
        # bytes already read, so a pipe reads as a file does
        doc = fig3_left_doc()
        doc["edges"][2]["note"] = "}]"
        text = json.dumps(doc)
        for data, want in ((text, parse(doc)), (text[:-1], None)):
            r, w = os.pipe()
            os.write(w, data.encode())
            os.close(w)
            try:
                if want is None:
                    with pytest.raises(json.JSONDecodeError) as got:
                        parse(f"/dev/fd/{r}")
                    with pytest.raises(json.JSONDecodeError) as err:
                        json.loads(data)
                    assert str(got.value) == str(err.value)
                else:
                    _assert_same_graph(parse(f"/dev/fd/{r}"), want)
            finally:
                os.close(r)

    @pytest.mark.parametrize("text", [
        b"\xef\xbb\xbf" + json.dumps(fig3_left_doc()).encode(),   # a UTF-8 byte order mark
        json.dumps(fig3_left_doc()).replace('"value": 5.0', '"value": 5.0, "n": "\xff"', 1)
        .encode("latin-1"),   # not UTF-8
        json.dumps(fig3_left_doc()).replace('"dim"', '"\\u0064im"').encode(),   # an escaped key
        json.dumps(fig3_left_doc()).replace('{"id": 1,', '{"id": 1, "note": "\u00e9\u4e2d",')
        .encode(),   # non-ASCII text in a record
        json.dumps(fig3_left_doc()) + " 7",
        '[' + json.dumps(fig3_left_doc()) + ']',
        json.dumps(fig3_left_doc())[:-2],
        json.dumps(fig3_left_doc()).replace('"vertices": [', '"vertices": [5, ', 1),
        json.dumps(fig3_left_doc()).replace('"vertices"', '"faces": [], "vertices"', 1),
    ])
    def test_other_forms_read_alike(self, tmp_path, text):
        _read_alike(tmp_path / "g.json", text)


def _number_doc():
    """A graph whose vertex id 777 and vertex value 0.625 stand for tokens
    put into its text; any finite value keeps the filter property."""
    return {"dim": 1, "basis": [[1.0]],
            "vertices": [{"id": 777, "value": 0.625}, {"id": 1, "value": 0.5}],
            "edges": [{"id": 2, "u": 777, "v": 1, "value": 1.7976931348623157e308, "shift": [1]},
                      {"id": 3, "u": 1, "v": 1, "value": 2.0, "shift": [-1]}]}


def _same_bits(path, want):
    """parse(path) has the float bits of `want`, -0.0 against 0.0 too."""
    got = parse(path)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


@pytest.fixture
def windows(monkeypatch):
    """A list that records each window of records that parse(path) decodes by json."""
    seen = []
    records = pgraph._records
    monkeypatch.setattr(pgraph, "_records", lambda w: seen.append(w) or records(w))
    return seen


class TestLayoutReader:
    # a record list in one layout is read by its regex and its number tokens
    # ("fast"); a window the regex does not take is decoded by json
    # ("window"), and a fault is named by the whole read

    @pytest.mark.parametrize("placeholder, token, outcome", [
        ("0.625", "-0", "window"),   # json reads the int -0 as 0, float() as -0.0
        ("0.625", "-0.0", "fast"), ("0.625", "0E0", "fast"), ("0.625", "1E+2", "fast"),
        ("0.625", "1e-400", "fast"), ("0.625", "5e-324", "fast"),
        ("0.625", "1.7976931348623157e308", "fast"),
        ("0.625", "1e309", "vertex 777: value must be finite"),
        ("0.625", str(2 ** 53 + 1), "fast"),
        ("0.625", "1234567890123456789012345", "fast"),   # a 25-digit mantissa
        ("0.625", "-1.234567890123456789012345e-5", "fast"),
        ("777", "-0", "fast"), ("777", "123456789012345678", "fast"),
        ("777", str(2 ** 63 - 1), "window"),   # 19 digits
        ("777", str(2 ** 63), "must fit in a signed 64-bit integer"),
        ("777", str(2 ** 64), "must fit in a signed 64-bit integer"),
    ])
    def test_number_edge_cases(self, tmp_path, monkeypatch, windows, placeholder, token, outcome):
        if outcome in ("fast", "window"):
            monkeypatch.setattr(pgraph, "_load", _no_whole_read)
        path = tmp_path / "g.json"
        for text in _layouts(_number_doc()):
            assert text.count(placeholder) == 1 + (placeholder == "777")
            windows.clear()
            got = _read_alike(path, text.replace(placeholder, token))
            if outcome in ("fast", "window"):
                _same_bits(path, got)
                assert bool(windows) == (outcome == "window")
            else:
                assert outcome in got

    def test_mutated_bytes_read_alike(self, tmp_path, windows):
        # one or two bytes inserted, replaced or deleted inside the record
        # lists: the graph bits, or the error, of json.load and parse(dict)
        rng = random.Random(32)
        docs = [fig3_left_doc(), serialize(random_periodic_graph(rng, dim=3, n=4, m=7,
                                                                 shift_range=2))]
        texts = [text for doc in docs for text in (json.dumps(doc),
                 json.dumps(doc, separators=(",", ":")), json.dumps(doc, indent=2))]
        marks = [*"+0.-eEx,}{][\":", " ", "\t", "\uff11", "NaN", "Infinity", "true"]
        path = tmp_path / "g.json"
        valid = fast = 0
        for _ in range(1200):
            text = rng.choice(texts)
            spans = pgraph._scan(text.encode())
            for _ in range(rng.randint(1, 2)):
                a, z = spans[rng.choice(("vertices", "edges"))]
                at = rng.randrange(a, z)
                mark = rng.choice(marks)
                text = rng.choice((text[:at] + mark + text[at:], text[:at] + mark + text[at + 1:],
                                   text[:at] + text[at + 1:]))
            windows.clear()
            got = _read_alike(path, text)
            if isinstance(got, PeriodicGraph):
                _same_bits(path, got)
                valid += 1
                fast += not windows
        assert valid > 60 and fast > 20, (valid, fast)   # 102 and 35 at this seed


def _image_mod(columns, k, dim) -> int:
    """|image of the lattice spanned by `columns` in (Z/k)^dim|, by closing
    the columns mod k under addition."""
    gens = {tuple(x % k for x in col) for col in columns}
    image, todo = {(0,) * dim}, [(0,) * dim]
    while todo:
        p = todo.pop()
        for col in gens:
            q = tuple((a + b) % k for a, b in zip(p, col))
            if q not in image:
                image.add(q)
                todo.append(q)
    return len(image)


class TestCoverComponentsOracle:
    # For S = k.I, the cover G/kZ^d has, at each height t, as many components
    # as the sum over the beams alive at t of k^d / |image of L in (Z/k)^d|,
    # L the beam's lattice at t.  The left side searches the cover, whose
    # vertices are (v, c mod k) and whose edge copies run from (u, c) to
    # (v, c + shift mod k); the right side closes L's columns mod k.  Neither
    # uses HNF, drifts or build's union-find.
    def test_counts_match_live_lattices(self):
        rng = random.Random(23)
        checks = lifted = 0
        for _ in range(300):
            dim = rng.randint(1, 3)
            n = rng.randint(1, 7)
            g = random_periodic_graph(rng, dim=dim, n=n, m=rng.randint(0, 2 * n + 2),
                                      shift_range=rng.choice((1, 2)),
                                      tie_values=rng.random() < 0.5)
            tree = build(g)
            values = g.values.tolist()
            edges = list(zip(g.u.tolist(), g.v.tolist(), oracles.edge_shifts(g), values[n:]))
            for k in (2, 3):
                cosets = list(itertools.product(range(k), repeat=dim))
                for t in sorted(set(values)):
                    verts = [(p, c) for p in range(n) if values[p] <= t for c in cosets]
                    pairs = [((a, c), (b, tuple((x + y) % k for x, y in zip(c, shift))))
                             for a, b, shift, h in edges if h <= t for c in cosets]
                    live = [tree.monomial(beam, t) for beam in range(len(tree.birth))]
                    live = [lat for _, _, lat in filter(None, live)]
                    want = sum(k ** dim // _image_mod(lat.columns, k, dim) for lat in live)
                    assert len(bfs_components(verts, pairs)) == want
                    checks += 1
                    lifted += want > len(live)   # some beam splits in the cover
        assert checks > 4000 and lifted > 500


class TestSkewedBasisShadows:
    def test_count_matches_monomial_prediction(self):
        u = RealBasis([[1.0, 0.0], [0.5, 1.0]])
        line = hnf_reduce([(1, 1)])
        coeff = float(np.linalg.norm(u.matrix @ np.array([1.0, 1.0]))) / abs(np.linalg.det(u.matrix))
        devs = []
        for r in (25.0, 50.0, 100.0):
            got = count_cosets_in_ball(u, line, r)
            devs.append(abs(got - coeff * 2 * r))
        assert all(d <= 6 for d in devs)
        assert devs[-1] <= max(devs[0], devs[1]) + 2


class TestMonomialCounts:
    # every epoch's monomial coeff * nu_exp * R^exp predicts how many shadows
    # of its component, cosets of the epoch's lattice, meet an R-ball;
    # `count_cosets_in_ball` enumerates them with exact ints and never calls
    # `volume`, so it checks every coefficient `build` computes
    RADII = {2: (8.0, 16.0, 32.0), 3: (5.0, 10.0)}

    @staticmethod
    def _bases(rng, arng, d):
        """Identity, skewed (I + 0.3 N), rotated-and-scaled and Q.U.A basis
        matrices, each with the unimodular A that its shifts are moved by
        (A^-1 t), or None.  Q.U.A is a rotation of the skewed basis times an
        A drawn from `arng`: the skewed graph's isometric copy in other
        coordinates."""
        eye = np.eye(d)
        skewed = eye + 0.3 * np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])
        rotated = eye
        for i, j in itertools.combinations(range(d), 2):
            a = rng.uniform(0, 2 * math.pi)
            g = eye.copy()
            g[i, i] = g[j, j] = math.cos(a)
            g[i, j], g[j, i] = -math.sin(a), math.sin(a)
            rotated = rotated @ g
        rotated = rotated @ np.diag([rng.uniform(0.8, 1.25) for _ in range(d)])
        # entries up to 72 at these seeds, whose box over U's own coordinates would hold up to
        # 1.1e8 points; the enumeration runs over an LLL-reduced basis instead
        a = random_unimodular(arng, d, ops=8)
        qua = np.linalg.qr(rotated)[0] @ skewed @ np.array(a, dtype=float).T
        return {"identity": (eye, None), "skewed": (skewed, None), "rotated": (rotated, None),
                "qua": (qua, a)}

    def test_every_coefficient_counts_its_shadows(self):
        rng, arng = random.Random(13), random.Random(14)
        worst = {}   # (d, exp, basis) -> the worst relative deviation per radius
        exact = 0
        for _ in range(30):
            d = rng.choice((2, 3))
            n = rng.randint(2, 6)
            g = random_periodic_graph(rng, dim=d, n=n, m=rng.randint(2, 10), shift_range=2,
                                      tie_values=rng.random() < 0.5)
            for name, (m, a) in self._bases(rng, arng, d).items():
                u = RealBasis(m.T.tolist())
                table = g.table
                if a is not None:
                    ainv = _unimodular_inverse(a)
                    table = [tuple(sum(ainv[k][r] * t[k] for k in range(d)) for r in range(d))
                             for t in table]
                tree = build(PeriodicGraph(d, u, g.ids, g.values, g.raw, g.u, g.v, table, g.which))
                counted = {}   # (table index, R) -> the count
                for k, coeff, exp in zip(tree.lattice.tolist(), tree.coeff.tolist(), tree.exp.tolist()):
                    devs = []
                    for r in self.RADII[d]:
                        if (k, r) not in counted:
                            counted[k, r] = count_cosets_in_ball(u, tree.lattices[k], r)
                        predicted = coeff * unit_ball_volume(exp) * r ** exp
                        devs.append(abs(counted[k, r] - predicted) / predicted)
                        assert devs[-1] <= 1.5 / r
                    if exp == 0:   # a full-rank lattice: its index, at every radius
                        assert max(devs) < 1e-12
                        exact += 1
                    else:
                        w = worst.setdefault((d, exp, name), devs)
                        worst[d, exp, name] = list(map(max, w, devs))
        assert exact > 50 and len(worst) == 20   # every exp of d 2 and 3 on every basis
        for devs in worst.values():   # the worst deviation shrinks as R doubles
            assert all(b < a for a, b in zip(devs, devs[1:]))


class TestParseHardening:
    def test_infinite_string_value_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            parse({"dim": 1, "basis": [[1.0]],
                   "vertices": [{"id": 0, "value": "inf"}], "edges": []})

    def test_nan_number_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            parse({"dim": 1, "basis": [[1.0]],
                   "vertices": [{"id": 0, "value": float("nan")}], "edges": []})

    def test_fuzzed_roundtrips(self):
        rng = random.Random(46)
        for _ in range(20):
            g = random_periodic_graph(rng, dim=rng.choice([1, 2, 3]),
                                      n=rng.randint(0, 10), m=rng.randint(0, 20))
            doc = serialize(g)
            assert serialize(parse(doc)) == doc
