"""Cross-route checks: the flow solver against an LP, splinter checks and
barcode invariance on random graphs, the splinters check and canonical forms
against the recursive string-digest reference, shadow counts under a skewed
basis."""
import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from perimere import (GraphError, IntMatrix, build, canonical_form, equals, extract,
                      parse, serialize, splinters, unroll, w1)
from perimere.lattice import RealBasis, count_cosets_in_ball, hnf_reduce
from perimere.mergetree import _Text, _TreeIndex
from perimere.synthetic import random_periodic_graph
from perimere.transport import barcode_distance

from . import oracles


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
            assert equals(code, extract(rtree), tol=1e-9)
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
            assert equals(code, extract(build(unroll(g, s))), tol=1e-9)


def _sublattice(rng, dim, max_det=3):
    while True:
        s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if 1 <= abs(s.det()) <= max_det:
            return s


def _forest(rng):
    """Two copies of one random block, the second 0.25 higher: a disconnected quotient."""
    g1 = random_periodic_graph(rng, dim=2, n=4, m=5)
    doc = serialize(g1)
    doc["vertices"] += [{"id": v.id + 100, "value": v.value + 0.25} for v in g1.vertices]
    doc["edges"] += [{"id": e.id + 100, "u": e.u + 100, "v": e.v + 100,
                      "value": e.value + 0.25, "shift": list(e.shift)} for e in g1.edges]
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


class TestSplintersOracle:
    @pytest.mark.parametrize("seed", [47, 48])
    def test_bools_agree(self, seed):
        got = [(splinters(a, b), oracles.splinters(a, b)) for a, b in _tree_pairs(seed)]
        assert [g for g, _ in got] == [r for _, r in got]
        assert 0 < sum(g for g, _ in got) < len(got)

    @pytest.mark.parametrize("seed", [49])
    def test_canonical_form_equality_agrees(self, seed):
        pairs = _tree_pairs(seed)
        for a, b in pairs:
            assert (canonical_form(a) == canonical_form(b)) == \
                (oracles.canonical_form(a) == oracles.canonical_form(b))
        assert any(canonical_form(a) == canonical_form(b) for a, b in pairs if a is not b)

    def test_digests_and_texts_match_reference_strings(self):
        # every cut at an event height, including cuts between exact heights
        # that round together: the token text is the reference string, and
        # digests are equal exactly when the strings are
        rng = random.Random(50)
        for g in _bases(rng):
            tree = build(g)
            idx = _TreeIndex(tree, _Text(1e-9), {})
            texts = {}
            for beam in tree.beams:
                hs = {beam.birth, beam.death, *(h for h, _ in beam.children),
                      *(st for st, *_ in beam.spans())}
                for h in hs:
                    ref = oracles._digest(tree, beam.index, h, 1e-9)
                    assert "".join(idx.tokens(beam.index, h)) == ref
                    texts[idx.digest(beam.index, h)] = texts.get(idx.digest(beam.index, h), ref)
                    assert texts[idx.digest(beam.index, h)] == ref
            assert len(set(texts.values())) == len(texts)
            # text order of the subtrees of all beams alive at one height
            for top in {b.birth for b in tree.beams} | {b.death for b in tree.beams}:
                reps = {idx.digest(b.index, top): b.index for b in tree.beams
                        if b.birth <= top <= b.death}
                want = sorted(reps, key=lambda dg: oracles._digest(tree, reps[dg], top, 1e-9))
                assert idx.ordered(reps, top) == want


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


class TestSkewedBasisShadows:
    def test_count_matches_monomial_prediction(self):
        u = RealBasis([[1.0, 0.0], [0.5, 1.0]])
        line = hnf_reduce([(1, 1)])
        coeff = float(np.linalg.norm(u.matrix @ np.array([1.0, 1.0]))) / u.volume
        devs = []
        for r in (25.0, 50.0, 100.0):
            got = count_cosets_in_ball(u, line, r)
            devs.append(abs(got - coeff * 2 * r))
        assert all(d <= 6 for d in devs)
        assert devs[-1] <= max(devs[0], devs[1]) + 2


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
