import inspect
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from perimere import (IntMatrix, build,
                      canonical_form, extract, parse, serialize, splinters, unroll)
from perimere import mergetree
from perimere.lattice import RealBasis, SublatticeBasis, hnf_insert, hnf_reduce, member, volume
from perimere.mergetree import (PeriodicMergeTree, _TreeIndex, drift_bits, monomial_display,
                                pack, remainder, unpack)
from perimere.pgraph import PeriodicGraph
from perimere.synthetic import random_periodic_graph, torus_grid

from .conftest import fig3_left_doc, helix_cross_doc
from . import oracles
from .oracles import UnionFind, bfs_components, oracle_hnf_columns, oracle_volume, view
from .test_lattice import _lattices, random_unimodular

SQRT2 = math.sqrt(2)


class TestBuildGolden:
    def test_helix_cross_event_sequence(self, helix_cross):
        tree = build(helix_cross)
        seq = [(e.kind, e.time) for e in tree.events]
        assert seq == [
            ("appearance", 1.0), ("appearance", 2.0), ("appearance", 3.0),
            ("appearance", 4.0), ("appearance", 5.0),
            ("catenation", 6.0), ("merger", 7.0), ("merger", 8.0),
            ("catenation", 9.0), ("merger", 10.0), ("catenation", 10.0),
            ("catenation", 11.0), ("merger", 12.0), ("catenation", 13.0),
        ]
        cats = {e.time: e for e in tree.events if e.kind == "catenation"}
        assert cats[6.0].basis.columns == ((1, 1, 0),)
        assert cats[6.0].coeff == pytest.approx(SQRT2, abs=1e-9) and cats[6.0].exp == 2
        assert cats[9.0].basis.columns == ((2, 0, 0),)
        assert cats[9.0].coeff == pytest.approx(2.0, abs=1e-9) and cats[9.0].exp == 2
        assert cats[10.0].basis.columns == ((1, 1, 0), (0, 2, 0))
        assert cats[10.0].coeff == pytest.approx(2.0, abs=1e-9) and cats[10.0].exp == 1
        assert cats[11.0].basis.columns == ((1, 1, 0), (0, 2, 0), (0, 0, 1))
        assert cats[11.0].coeff == pytest.approx(2.0, abs=1e-9) and cats[11.0].exp == 0
        assert cats[13.0].basis.columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert cats[13.0].coeff == pytest.approx(1.0, abs=1e-9) and cats[13.0].exp == 0

    def test_helix_cross_beams(self, helix_cross):
        tree = build(helix_cross)
        assert len(tree.beams) == 5
        beams = view(tree)
        root = beams[tree.roots()[0]]
        assert root.birth == 1.0 and root.birth_vertex == 1
        assert [(e.start, e.exp) for e in root.epochs] == [(1.0, 3), (12.0, 0), (13.0, 0)]
        assert [round(e.coeff, 9) for e in root.epochs] == [1.0, 2.0, 1.0]
        by_vertex = {b.birth_vertex: b for b in beams}
        assert [(e.start, round(e.coeff, 9), e.exp) for e in by_vertex[2].epochs] == [
            (2.0, 1.0, 3), (6.0, round(SQRT2, 9), 2), (10.0, 2.0, 1), (11.0, 2.0, 0)]
        assert by_vertex[2].death == 12.0
        assert by_vertex[3].death == 10.0
        assert by_vertex[4].death == 7.0
        assert by_vertex[5].death == 8.0

    def test_helix_cross_beams_record_event_cells(self, helix_cross):
        # merger edges sit on the dying beams; catenation edges on the epochs
        # they open (None for birth epochs and for a lattice taken over at 12)
        tree = build(helix_cross)
        by_vertex = {b.birth_vertex: b for b in view(tree)}
        assert {v: b.merge_edge for v, b in by_vertex.items()} == {
            1: None, 2: 12, 3: 10, 4: 7, 5: 8}
        assert [e.cell for e in by_vertex[1].epochs] == [None, None, 13]
        assert [e.cell for e in by_vertex[2].epochs] == [None, 6, 10, 11]
        assert [e.cell for e in by_vertex[3].epochs] == [None, 9]
        # the columns are the whole record: no event log is stored
        assert PeriodicMergeTree.__slots__ == (
            "dim", "birth", "birth_vertex", "death", "parent", "merge_edge",
            "offsets", "start", "catenation", "cell", "lattice", "lattices", "coeffs")

    def test_single_vertex(self):
        g = parse({"dim": 3,
                   "basis": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                   "vertices": [{"id": 7, "value": 4.5}], "edges": []})
        tree = build(g)
        assert len(tree.beams) == 1
        b = view(tree)[0]
        assert b.death == math.inf and b.parent is None
        assert len(b.epochs) == 1
        assert b.epochs[0].coeff == pytest.approx(0.5)  # 1 / vol_d
        assert b.epochs[0].exp == 3

    def test_fig3_left_epochs(self, fig3_left):
        tree = build(fig3_left)
        root = view(tree)[tree.roots()[0]]
        assert [(e.start, round(e.coeff, 9), e.exp) for e in root.epochs] == [
            (1.0, 1.0, 2), (7.0, round(SQRT2, 9), 1), (9.0, 1.0, 0)]
        other = view(tree)[1 - tree.roots()[0]]
        assert other.birth == 3.0 and other.death == 5.0

    def test_event_counts(self, helix_cross):
        tree = build(helix_cross)
        kinds = [e.kind for e in tree.events]
        n, m = helix_cross.n, helix_cross.m
        assert kinds.count("appearance") == n
        assert kinds.count("merger") == n - len(tree.roots())
        assert kinds.count("merger") + kinds.count("catenation") <= m + 1  # merger+catenation shares an edge

    def test_doubled_cell_event_counts(self, fig3_left):
        rolled = unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]]))
        kinds = [e.kind for e in build(rolled).events]
        assert kinds.count("appearance") == 4
        assert kinds.count("merger") == 3
        assert kinds.count("catenation") == 2

    def test_zero_shift_self_loop_produces_no_event(self):
        g = parse({"dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]],
                   "vertices": [{"id": 0, "value": 0.0}],
                   "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [0, 0]}]})
        tree = build(g)
        assert [e.kind for e in tree.events] == ["appearance"]


class TestLatticeTable:
    def test_one_entry_and_one_volume_per_distinct_lattice(self, monkeypatch):
        # each lattice is held once by value, and its coefficient measured once
        calls = []
        coefficient = mergetree.coefficient
        monkeypatch.setattr(mergetree, "coefficient",
                            lambda u, lat: calls.append(lat) or coefficient(u, lat))
        rng = random.Random(24)
        distinct = 0
        for _ in range(60):
            n = rng.randint(1, 14)
            g = random_periodic_graph(rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(0, 3 * n),
                                      shift_range=2, tie_values=True)
            calls.clear()
            tree = build(g)
            assert len(set(tree.lattices)) == len(tree.lattices)
            assert tree.lattices[0] == SublatticeBasis.empty(g.dim)
            assert len(calls) == len(tree.lattices)
            assert {tree.lattices[k] for k in tree.lattice.tolist()} == set(tree.lattices)
            distinct += len(tree.lattices)
        assert distinct > 200

    def test_copies_take_each_lattice_step_once(self, monkeypatch):
        # with tied values, each copy of a component steps from the same
        # table indices by the same drifts, so 32 copies insert into a
        # lattice (steps) and sum lattices (sums) no more often than one copy
        calls = []
        hnf, insert = mergetree.hnf_reduce, mergetree.hnf_insert
        monkeypatch.setattr(mergetree, "hnf_reduce",
                            lambda cols, dim: calls.append("sum") or hnf(cols, dim=dim))
        monkeypatch.setattr(mergetree, "hnf_insert",
                            lambda cols, w: calls.append("step") or insert(cols, w))
        rng = random.Random(27)
        reduced = 0
        for _ in range(20):
            n = rng.randint(2, 10)
            g = random_periodic_graph(rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(n, 3 * n),
                                      shift_range=2, tie_values=True)
            calls.clear()
            build(g)
            once = calls.count("step"), calls.count("sum")
            calls.clear()
            build(copies(g, 32))
            assert (calls.count("step"), calls.count("sum")) == once
            reduced += sum(once)
        assert reduced > 40

    def test_no_step_reaches_hnf_reduce_twice(self, monkeypatch):
        # a loop edge's step missing from the memo reduces its drift once
        # (`remainder`) and calls hnf_insert right after only when a
        # remainder is left, with that remainder; hnf_reduce is called for
        # lattice sums alone.  Per build, no (lattice, drift) is reduced
        # twice and no pair of lattices summed twice, in either order
        log = []
        hnf, insert, rem = mergetree.hnf_reduce, mergetree.hnf_insert, mergetree.remainder
        monkeypatch.setattr(mergetree, "hnf_reduce",
                            lambda cols, dim: log.append(("h", cols)) or hnf(cols, dim=dim))
        monkeypatch.setattr(mergetree, "hnf_insert",
                            lambda cols, w: log.append(("i", cols, w)) or insert(cols, w))
        monkeypatch.setattr(mergetree, "remainder",
                            lambda cols, v: log.append(("r", cols, v, rem(cols, v))) or log[-1][3])
        # loops make 2Z, 3Z, 3Z, 2Z, and the mergers sum 2Z + 3Z, then 3Z + 2Z
        graphs = [parse({
            "dim": 1, "basis": [[1.0]], "vertices": [{"id": k, "value": 0.0} for k in range(4)],
            "edges": [{"id": 4 + k, "u": k, "v": k, "value": 1.0, "shift": [t]}
                      for k, t in enumerate((2, 3, 3, 2))]
                     + [{"id": 8, "u": 0, "v": 1, "value": 2.0, "shift": [0]},
                        {"id": 9, "u": 2, "v": 3, "value": 2.0, "shift": [0]}]})]
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(4, 14)
            g = random_periodic_graph(rng, dim=rng.choice((1, 2, 3)), n=n, m=rng.randint(n, 3 * n),
                                      shift_range=2, tie_values=rng.random() < 0.5)
            graphs += [g, copies(g, 8), copies(g, 8, offset=1e-6)]
        steps = sums = 0
        for g in graphs:
            log.clear()
            build(g)
            keys = []
            for prev, entry in zip([None, *log], log):
                left = prev is not None and prev[0] == "r" and any(prev[3])   # a remainder is left
                if entry[0] == "r":
                    keys.append(entry[1:3])
                    steps += 1
                elif entry[0] == "i":
                    assert left and entry[1:] == (prev[1], prev[3])
                else:   # either order of the two bases is one key
                    assert not left
                    keys.append(frozenset(entry[1]))
                    sums += 1
            assert len(set(keys)) == len(keys)
            # each remainder left is inserted
            assert sum(e[0] == "i" for e in log) == sum(e[0] == "r" and any(e[3]) for e in log)
        assert steps > 500 and sums > 50


class TestLatticeStep:
    def test_remainder_against_member_and_hnf(self):
        # build's membership test: v reduced along an HNF basis's pivot rows
        # is zero exactly when v is in the lattice, differs from v by a
        # lattice vector, and with the basis spans what v with the basis does
        rng = random.Random(27)
        members = others = 0
        for d in (1, 2, 3, 4):
            for rank in range(d + 1):
                for lat in _lattices(rng, d, rank, count=6):
                    for _ in range(12):
                        v = [sum(rng.randint(-3, 3) * col[r] for col in lat.columns) for r in range(d)]
                        if rng.random() < 0.5:
                            v = [c + rng.randint(-2, 2) for c in v]
                        v = tuple(v)
                        w = remainder(lat.columns, v)
                        inside = member(lat, v)
                        assert (not any(w)) == inside
                        assert member(lat, tuple(a - b for a, b in zip(v, w)))
                        assert hnf_reduce(lat.columns + (w,), dim=d) == hnf_reduce(lat.columns + (v,), dim=d)
                        members += inside
                        others += not inside
        assert members > 150 and others > 150

    def test_insert_against_hnf_reduce(self):
        # build's lattice step: along seeded insertion sequences from every
        # starting rank in d 1-4, inserting a remainder gives hnf_reduce's
        # lattice of the same columns, and the basis of the independent
        # reduction `oracle_hnf_columns`, with the same is_full and volume (on an
        # integer basis, exact); so does inserting the unreduced vector.  The
        # remainders lead at pivot rows and at rows without a pivot, and
        # some entries pass 2^64
        rng = random.Random(29)
        at_pivot = off_pivot = big = 0
        for d in (1, 2, 3, 4):
            basis = random_unimodular(rng, d)
            basis[0] = [2 * e for e in basis[0]]   # an integer basis of volume 2
            u = RealBasis(basis)
            for rank in range(d + 1):
                for lat in _lattices(rng, d, rank, count=20):
                    cols = lat.columns
                    for _ in range(8):   # one insertion sequence
                        scale = rng.choice((1, 1, 2 ** 64 + rng.randint(1, 99)))
                        zeros = rng.randint(0, d - 1)   # leading zeros, so v leads further down
                        v = (0,) * zeros + tuple(scale * rng.randint(-5, 5) + rng.randint(-2, 2)
                                                 for _ in range(d - zeros))
                        w = remainder(cols, v)
                        got = hnf_insert(cols, w)
                        want = hnf_reduce(cols + (w,), dim=d)
                        assert got == want.columns == hnf_insert(cols, v)
                        assert got == oracle_hnf_columns(d, cols + (w,))[0]
                        if not any(w):
                            assert got is cols
                            continue
                        lead = next(r for r, e in enumerate(w) if e)
                        if any(col[lead] and not any(col[:lead]) for col in cols):
                            at_pivot += 1
                        else:
                            off_pivot += 1
                        new = SublatticeBasis(d, got)
                        assert new.is_full == want.is_full == (
                            len(got) == d and all(col[r] == 1 for r, col in enumerate(got)))
                        assert volume(u, new).hex() == volume(u, want).hex() == oracle_volume(u, want).hex()
                        big += any(abs(e) >= 2 ** 64 for col in got for e in col)
                        cols = got
        assert at_pivot > 400 and off_pivot > 200 and big > 100


class TestPackedDrift:
    def test_round_trip_at_the_digit_bounds(self):
        # every entry in [-(B/2 - 1), B/2 - 1] for B = 2^bits comes back, at
        # the bounds, in every position and in every sign pattern
        rng = random.Random(21)
        for bits in (2, 3, 15, 31, 64, 75):
            top = (1 << (bits - 1)) - 1
            for d in (1, 2, 3):
                entries = [top, -top, 0, 1, -1]
                vecs = [tuple(rng.choice(entries) for _ in range(d)) for _ in range(40)]
                vecs += [(top,) * d, (-top,) * d, (0,) * d]
                for vec in vecs:
                    assert unpack(pack(vec, bits), bits, d) == vec
                    assert (pack(vec, bits) == 0) == (not any(vec))

    def test_sums_stay_exact_within_the_width(self):
        # drifts add as vectors while each entry stays inside the width that
        # drift_bits gives: sums of 2n - 1 shifts with entries up to max_shift,
        # the extremes among them
        rng = random.Random(22)
        for d in (1, 2, 3):
            for n, top in ((1, 0), (2, 1), (50, 3), (1000, 2 ** 70)):
                bits = drift_bits(n, top)
                mixed = [tuple(rng.choice((-top, top, 0)) for _ in range(d))
                         for _ in range(2 * n - 1)]
                signs = tuple(rng.choice((-top, top)) for _ in range(d))
                for shifts in (mixed, [signs] * (2 * n - 1)):
                    total = tuple(map(sum, zip(*shifts)))
                    assert unpack(sum(pack(t, bits) for t in shifts), bits, d) == total
                    assert unpack(-pack(total, bits), bits, d) == tuple(-c for c in total)


class TestUnionFind:
    def test_fresh_vertex_is_own_root(self):
        uf = UnionFind(2, 1)
        assert uf.root[0] == 0

    def test_union_shares_root(self):
        uf = UnionFind(2, 2)
        uf.union(0, 1, [0, 0])
        assert uf.root[0] == uf.root[1]

    def test_random_sequence_matches_bfs(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 30)
            uf = UnionFind(2, n)
            pairs = []
            for _ in range(rng.randint(0, 40)):
                u, v = rng.randrange(n), rng.randrange(n)
                pairs.append((u, v))
                r, s = uf.root[u], uf.root[v]
                if r != s:
                    uf.union(r, s, [rng.randint(-1, 1), rng.randint(-1, 1)])
            got = {}
            for i in range(n):
                got.setdefault(uf.root[i], set()).add(i)
            assert {frozenset(c) for c in got.values()} == bfs_components(range(n), pairs)

    def test_relabel_counts_bounded(self):
        # union relabels the smaller list, so no vertex changes root more
        # than floor(log2 n) times; counted by diffing `root` around unions
        def max_relabels(n, pairs):
            uf = UnionFind(2, n)
            counts = [0] * n
            for a, b in pairs:
                r, s = uf.root[a], uf.root[b]
                if r == s:
                    continue
                before = list(uf.root)
                uf.union(r, s, [0, 0])
                for i, (old, new) in enumerate(zip(before, uf.root)):
                    counts[i] += old != new
            return max(counts)

        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 150)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
            assert max_relabels(n, pairs) <= math.floor(math.log2(n))
        # merging equal halves level by level meets the bound exactly
        k = 6
        pairs = [(i, i + step) for step in (2 ** j for j in range(k))
                 for i in range(0, 2 ** k, 2 * step)]
        assert max_relabels(2 ** k, pairs) == k


class TestInvariants:
    def test_monotonic_epochs_and_integer_ratio(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_periodic_graph(rng, n=rng.randint(2, 40), m=rng.randint(0, 100))
            tree = build(g)
            for beam in view(tree):
                eps = beam.epochs
                for a, b in zip(eps, eps[1:]):
                    assert b.exp < a.exp or (b.exp == a.exp and b.coeff < a.coeff)
                    if a.exp == b.exp:
                        ratio = a.coeff / b.coeff
                        assert ratio >= 2 - 1e-9
                        assert abs(ratio - round(ratio)) <= 1e-9

    def test_forest_single_tree_iff_connected(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_periodic_graph(rng, n=rng.randint(2, 25), m=rng.randint(0, 50))
            tree = build(g)
            assert (len(tree.roots()) == 1) == g.is_connected()

    def test_beam_and_event_accounting(self):
        rng = random.Random(6)
        for _ in range(15):
            g = random_periodic_graph(rng, n=rng.randint(1, 30), m=rng.randint(0, 80))
            tree = build(g)
            assert len(tree.beams) == g.n
            kinds = [e.kind for e in tree.events]
            assert kinds.count("appearance") == g.n
            assert kinds.count("merger") == g.n - len(tree.roots())

    def test_beams_are_in_elder_order(self):
        # build makes beams in (birth, birth_vertex) order, so a survivor is
        # the lower index, a parent precedes its children and the child
        # lists can be derived in one pass
        rng = random.Random(15)
        for _ in range(30):
            g = random_periodic_graph(rng, dim=rng.randint(1, 3), n=rng.randint(1, 30),
                                      m=rng.randint(0, 60), tie_values=True)
            tree = build(g)
            beams = view(tree)
            assert all(b.parent < b.index for b in beams if b.parent is not None)
            keys = [(b.birth, b.birth_vertex) for b in beams]
            assert keys == sorted(keys)
            assert children(tree) == oracles.children(tree)

    def test_children_of_an_equal_height_chain(self):
        t = build(level_chain(2_000))
        assert children(t) == oracles.children(t)

    def test_edge_event_partition(self):
        # every edge is a merger, a catenation, or a no-op; an edge may pair a
        # merger with a same-height catenation but never duplicates a kind
        rng = random.Random(13)
        for _ in range(12):
            g = random_periodic_graph(rng, n=rng.randint(2, 30), m=rng.randint(0, 70))
            tree = build(g)
            edge_events = {}
            for e in tree.events:
                if e.kind in ("merger", "catenation"):
                    edge_events.setdefault(e.cell, []).append(e.kind)
            for kinds in edge_events.values():
                assert kinds.count("merger") <= 1
                assert kinds.count("catenation") <= 1
            mergers = sum(1 for k in edge_events.values() if "merger" in k)
            cat_only = sum(1 for k in edge_events.values() if k == ["catenation"])
            noops = g.m - len(edge_events)
            assert mergers + cat_only + noops == g.m


class TestConstructor:
    # two roots born at 0.0 in d = 1, at vertices 0 and 1, one epoch each on
    # the zero lattice; each case breaks a rule the readers of a tree assume
    TWO_ROOTS = dict(death=[math.inf, math.inf], parent=[-1, -1], merge_edge=[0, 0],
                     offsets=[0, 1, 2], start=[0.0, 0.0], catenation=[False, False],
                     cell=[0, 1], lattice=[0, 0], lattices=[SublatticeBasis.empty(1)],
                     coeffs=[0.5])
    # beam 1 a child of beam 0, dying at 2.0, its second epoch opened at 1.0
    # by a catenation of edge 5
    CHILD = dict(TWO_ROOTS, death=[math.inf, 2.0], parent=[-1, 0], merge_edge=[0, 4],
                 offsets=[0, 1, 3], start=[0.0, 0.0, 1.0], catenation=[False, False, True],
                 cell=[0, 1, 5], lattice=[0, 0, 0])

    @pytest.mark.parametrize("change,message", [
        # beam 1's first epoch is a catenation, not its appearance
        (dict(catenation=[False, True]), "not a catenation"),
        # beams out of (birth, birth_vertex) order: events listed the
        # appearance at 1.0 before the one at 0.0
        (dict(start=[1.0, 0.0]), r"increasing \(birth, birth_vertex\)"),
        (dict(cell=[1, 1]), r"increasing \(birth, birth_vertex\)"),
        # beam 1 has no epoch
        (dict(offsets=[0, 1, 1], start=[0.0], catenation=[False], cell=[0], lattice=[0]),
         "every beam must have an epoch"),
        (dict(offsets=[0, 2]), "epoch offsets"),
        (dict(offsets=[0, 1, 2, 2]), "epoch offsets"),
        (dict(offsets=[1, 1, 2]), "epoch offsets"),
        (dict(offsets=[0, 1, 1]), "epoch offsets"),   # ends before the last epoch
    ])
    def test_refuses_a_beam_not_starting_at_its_birth(self, change, message):
        PeriodicMergeTree(1, **self.TWO_ROOTS)
        with pytest.raises(ValueError, match=message):
            PeriodicMergeTree(1, **{**self.TWO_ROOTS, **change})

    @pytest.mark.parametrize("base,change,message", [
        # a short column: numpy broadcast death=[3.0] to both beams, and
        # parent=[-1] made beam 0 the only root
        ("TWO_ROOTS", dict(death=[3.0]), "epoch offsets"),
        ("TWO_ROOTS", dict(parent=[-1]), "one entry per beam"),
        ("TWO_ROOTS", dict(merge_edge=[0, 0, 0]), "one entry per beam"),
        ("CHILD", dict(catenation=[False, False]), "one entry per epoch"),
        ("CHILD", dict(cell=[0, 1, 5, 6]), "one entry per epoch"),
        ("CHILD", dict(lattice=[0, 0]), "one entry per epoch"),
        ("TWO_ROOTS", dict(lattice=[0, 1]), "lattice must index"),
        ("TWO_ROOTS", dict(lattice=[0, -1]), "lattice must index"),
        ("TWO_ROOTS", dict(coeffs=[0.5, 0.25]), "lattice must index"),
        # the elder order: parents before children, inf deaths for the roots
        ("CHILD", dict(parent=[-1, 1]), "parent must be an elder"),
        ("CHILD", dict(parent=[1, -1], death=[2.0, math.inf]), "parent must be an elder"),
        ("CHILD", dict(death=[math.inf, math.inf]), "death must be inf for the roots"),
        ("TWO_ROOTS", dict(death=[math.inf, 3.0]), "death must be inf for the roots"),
        ("CHILD", dict(death=[math.inf, math.nan]), "pass its death"),
        # an epoch starting before the one it follows, or after the death
        ("CHILD", dict(start=[0.0, 0.0, -1.0]), "must not decrease"),
        ("CHILD", dict(start=[0.0, 0.0, 2.5]), "pass its death"),
    ])
    def test_refuses_columns_the_readers_misread(self, base, change, message):
        columns = getattr(self, base)
        PeriodicMergeTree(1, **columns)
        with pytest.raises(ValueError, match=message):
            PeriodicMergeTree(1, **{**columns, **change})

    def test_birth_is_the_first_epoch(self):
        # an epoch may start at its beam's birth, or at its death
        tree = PeriodicMergeTree(1, **{**self.CHILD, "start": [-0.0, 0.0, 2.0]})
        assert tree.birth.tolist() == [0.0, 0.0] and np.signbit(tree.birth).tolist() == [True, False]
        assert tree.birth_vertex.tolist() == [0, 1]
        assert [(e.kind, e.cell) for e in tree.events] == [
            ("appearance", 0), ("appearance", 1), ("merger", 4), ("catenation", 5)]
        with pytest.raises(TypeError):
            PeriodicMergeTree(1, birth=[0.0, 0.0], **self.TWO_ROOTS)

    def test_built_trees_construct_again(self):
        # build and tree_of keep each birth's bits in its first epoch's
        # start, -0.0 included, so their trees are made again from their
        # columns and from their beams; the signed graph's loop opens an
        # epoch at vertex 0's birth
        signed = parse({"dim": 1, "basis": [[1.0]],
                        "vertices": [{"id": i, "value": x} for i, x in enumerate((-0.0, 0.0, -0.0))],
                        "edges": [{"id": 3, "u": 0, "v": 0, "value": 0.0, "shift": [1]},
                                  {"id": 4, "u": 1, "v": 2, "value": 0.5, "shift": [0]}]})
        assert np.signbit(build(signed).birth).tolist() == [True, False, True]
        keywords = list(inspect.signature(PeriodicMergeTree).parameters)[1:]   # all but dim
        rng = random.Random(21)
        graphs = [signed, parse(fig3_left_doc()), parse(helix_cross_doc()), level_chain(50)]
        graphs += [random_periodic_graph(rng, dim=rng.randint(1, 3), n=rng.randint(1, 20),
                                         m=rng.randint(0, 50), tie_values=True) for _ in range(30)]
        for g in graphs:
            tree = build(g)
            columns = {name: getattr(tree, name) for name in keywords}
            assert view(PeriodicMergeTree(tree.dim, **columns)) == view(tree)
            assert view(oracles.tree_of(g.dim, view(tree))) == view(tree)
            assert view(oracles.tree_of(g.dim, oracles.oracle_build(g).beams)) == view(tree)


class TestSplinters:
    def test_identity(self, fig3_left):
        t = build(fig3_left)
        assert splinters(t, t)

    def test_unrolled_splinters_base(self, fig3_left):
        t = build(fig3_left)
        t2 = build(unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]])))
        assert splinters(t2, t)
        assert not splinters(t, t2)

    def test_mismatched_graphs(self, fig3_left, helix_cross):
        assert not splinters(build(fig3_left), build(helix_cross))

    def test_empty_trees(self):
        # no roots on either side is the empty assignment; roots on one side only fail
        empty = build(parse({"dim": 1, "basis": [[1.0]], "vertices": [], "edges": []}))
        one = build(parse({"dim": 1, "basis": [[1.0]], "edges": [],
                           "vertices": [{"id": 0, "value": 0.0}]}))
        assert splinters(empty, empty)
        assert not splinters(empty, one) and not splinters(one, empty)

    def test_random_sublattices_3d(self, helix_cross):
        rng = random.Random(7)
        t = build(helix_cross)
        trials = 0
        while trials < 6:
            s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if not 1 <= abs(s.det()) <= 4:
                continue
            trials += 1
            assert splinters(build(unroll(helix_cross, s)), t)


    def test_disconnected_forest_splinters(self):
        rng = random.Random(14)
        for _ in range(6):
            # two independent blocks guarantee a disconnected quotient
            g1 = random_periodic_graph(rng, dim=2, n=4, m=5)
            doc = serialize(g1)
            doc["vertices"] += [{"id": v["id"] + 100, "value": v["value"] + 0.25}
                                for v in doc["vertices"]]
            doc["edges"] += [{**e, "id": e["id"] + 100, "u": e["u"] + 100, "v": e["v"] + 100,
                              "value": e["value"] + 0.25} for e in doc["edges"]]
            g = parse(doc)
            tree = build(g)
            assert len(tree.roots()) >= 2
            while True:
                s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                if 1 <= abs(s.det()) <= 3:
                    break
            assert splinters(build(unroll(g, s)), tree)

    def test_star_splinters_in_little_memory(self):
        # the assignment of 2,000 children at one stop takes its preimages in
        # place, not by copying the pool of preimages per child group
        t = build(star(2_000))
        tracemalloc.start()
        try:
            assert splinters(t, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_star_splinters_in_linear_time(self, monkeypatch):
        small, large = build(star(4_000)), build(star(8_000))
        # the sweep's levels, which no host's speed changes: one for the roots
        # and one per beam, so twice the leaves make twice the levels
        levels = [0]

        class Counted(mergetree._Level):
            __slots__ = ()

            def __init__(self, *args):
                levels[0] += 1
                super().__init__(*args)

        with monkeypatch.context() as m:
            m.setattr(mergetree, "_Level", Counted)
            counts = []
            for t in (small, large):
                levels[0] = 0
                assert splinters(t, t)
                counts.append(levels[0])
        assert counts == [4_002, 8_002]

        # a child group skips the classes that earlier groups used up, so
        # twice the leaves take about twice the time (x3.5 when each group
        # scanned every class)
        def best(t):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                assert splinters(t, t)
                times.append(time.perf_counter() - t0)
            return min(times)
        assert best(large) / best(small) < 3.0


def children(tree):
    """Per beam, its (merge height, child) pairs as the flat index lists them."""
    idx = _TreeIndex(tree)
    return [list(zip(idx.kh[lo:hi], idx.kid[lo:hi])) for lo, hi in zip(idx.koff, idx.koff[1:])]


def star(leaves):
    """Vertex k at height k and edges (0, k) at height leaves + 1: one root
    with `leaves` children merging at one height."""
    n = leaves + 1
    return parse({
        "dim": 1, "basis": [[1.0]],
        "vertices": [{"id": k, "value": float(k)} for k in range(n)],
        "edges": [{"id": n + k, "u": 0, "v": k, "value": float(n), "shift": [0]}
                  for k in range(1, n)],
    })


def level_chain(n):
    """Vertex k at height k and edge j joining n - 2 - j and n - 1 - j at
    height n: beam k joins beam k - 1, all at one height, so each beam's
    effective survivor is beam 0."""
    return parse({
        "dim": 1, "basis": [[1.0]],
        "vertices": [{"id": k, "value": float(k)} for k in range(n)],
        "edges": [{"id": n + j, "u": n - 2 - j, "v": n - 1 - j, "value": float(n), "shift": [0]}
                  for j in range(n - 1)],
    })


def chain(n):
    """Vertex k at height k and edge (k - 1, k) at 2n - k: beam k joins beam
    k - 1, so the merge tree is n beams deep; one loop with shift [1] closes it."""
    return parse({
        "dim": 1, "basis": [[1.0]],
        "vertices": [{"id": k, "value": float(k)} for k in range(n)],
        "edges": ([{"id": n + k, "u": k - 1, "v": k, "value": float(2 * n - k), "shift": [0]}
                   for k in range(1, n)]
                  + [{"id": 2 * n, "u": n - 1, "v": 0, "value": float(2 * n), "shift": [1]}]),
    })


def copies(g, k, offset=0.0):
    """The disjoint union of k copies of g, copy c's values raised by
    c * offset; copy c's cells follow copy c - 1's, in one order per kind."""
    n = g.n
    values = np.concatenate([g.values[:n] + c * offset for c in range(k)]
                            + [g.values[n:] + c * offset for c in range(k)])
    return PeriodicGraph(g.dim, g.basis, np.arange(len(values)), values, {},
                         np.concatenate([g.u + c * n for c in range(k)]),
                         np.concatenate([g.v + c * n for c in range(k)]),
                         g.table, np.tile(g.which, k))


class TestDeepChains:
    # the recursive digest and sweep raised RecursionError a few hundred deep
    def test_depth_1e5_canonical_form_and_self_splinters(self):
        t = build(chain(100_000))
        assert t.parent[1:].tolist() == list(range(len(t.beams) - 1))
        assert canonical_form(t)
        assert splinters(t, t)

    def test_equal_height_chain_1e5_canonical_form(self):
        # the survivor of each merger is resolved in one pass, not by walking
        # up the chain of mergers at one height
        n = 100_000
        t = build(level_chain(n))
        assert t.parent[1:].tolist() == list(range(n - 1)) and (t.death[1:] == n).all()
        assert canonical_form(t).count(f"{n}>") == n - 1

    def test_depth_1e4_cover(self):
        g = chain(10_000)
        t = build(g)
        cover = build(unroll(g, IntMatrix.from_rows([[2]])))
        assert splinters(cover, t)
        assert not splinters(t, cover)
        assert canonical_form(cover) != canonical_form(t)

    def test_depth_300_canonical_form_is_the_reference_string(self):
        # deep enough for the token stack, shallow enough for the recursive oracle
        t = build(chain(300))
        assert canonical_form(t) == oracles.canonical_form(t)


def splinters_peak(t) -> int:
    """tracemalloc peak of `splinters(t, t)`, in bytes, index included."""
    tracemalloc.start()
    try:
        assert splinters(t, t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSplintersMemory:
    # with a generator frame per level the sweep peaked at 14.9 MiB on the
    # chain and 8.1 MiB on the root with 4,999 children; 4 MiB is a bound of
    # 80 MiB at a depth of 1e5, scaled down
    def test_chain_5000_deep(self):
        assert splinters_peak(build(chain(5_000))) < 4 * 2 ** 20

    def test_4999_children_at_one_height(self):
        assert splinters_peak(build(level_chain(5_000))) < 4 * 2 ** 20


def _graph(basis, values, edges):
    """Vertices 0.. at `values`; edges (u, v, value, shift) with ids 100.."""
    return parse({
        "dim": len(basis), "basis": basis,
        "vertices": [{"id": k, "value": x} for k, x in enumerate(values)],
        "edges": [{"id": 100 + k, "u": u, "v": v, "value": x, "shift": sh}
                  for k, (u, v, x, sh) in enumerate(edges)],
    })


def _diag(*entries):
    return [[x if i == j else 0.0 for j in range(len(entries))] for i, x in enumerate(entries)]


class TestFloatRange:
    # heights and coefficients far from 1 are valid: x / TOL may overflow,
    # and so may the ratio of two coefficients
    def test_heights_near_the_float_limit(self):
        t = build(_graph([[1.0]], [0.0, 1e300],
                         [(0, 1, 1e300, [0]), (0, 0, 1.5e300, [1])]))
        assert "1e+300>[1e+300|" in canonical_form(t)
        assert splinters(t, t)

    @pytest.mark.parametrize("edges,small", [
        ([(0, 0, 1.0, [1, 0, 0])], _diag(1e100, 1e100, 1e100)),
        ([(0, 1, 1.0, [0, 0, 0])], _diag(1e100, 1e100, 1e100)),
        # on the big basis the root's epochs carry 1e300, 1e200 and 1e100 and
        # the child's 1e300; on the small one every epoch carries 1e-300, so
        # two coefficients differ by up to 1e600, a ratio past the float range
        ([(0, 0, 0.1, [1, 0, 0]), (0, 0, 0.2, [0, 1, 0]), (0, 1, 1.0, [0, 0, 0])],
         _diag(1.0, 1.0, 1e300)),
    ])
    def test_coefficients_near_the_float_limit(self, edges, small):
        big = build(_graph(_diag(1e-100, 1e-100, 1e-100), [0.0, 0.5], edges))
        small = build(_graph(small, [0.0, 0.5], edges))
        assert not splinters(big, small)
        assert not splinters(small, big)
        assert splinters(big, big) and splinters(small, small)
        assert canonical_form(big) != canonical_form(small)

    @pytest.mark.parametrize("basis", [
        _diag(1e-150, 1e225, 1e225),   # the loop's 1e-150 / vol_d = 1e-450 rounds to 0.0
        _diag(1e200, 1e200, 1e200),    # the root's 1 / vol_d = 1e-600 rounds to 0.0
        _diag(1e-200, 1e-200),         # the root's 1 / vol_d = 1e400 is past the float range
    ])
    def test_coefficient_out_of_float_range_is_refused(self, basis):
        g = _graph(basis, [0.0], [(0, 0, 1.0, [1] + [0] * (len(basis) - 1))])
        for make in (build, oracles.oracle_build):
            with pytest.raises(ValueError, match="monomial coefficient out of float range"):
                make(g)


class TestCanonicalForm:
    def test_self_equal(self, helix_cross):
        t = build(helix_cross)
        assert canonical_form(t) == canonical_form(t)

    def test_sibling_order_insensitive(self):
        doc = {
            "dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]],
            "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": 1.0}, {"id": 2, "value": 1.0}],
            "edges": [
                {"id": 3, "u": 0, "v": 1, "value": 2.0, "shift": [0, 0]},
                {"id": 4, "u": 0, "v": 2, "value": 2.5, "shift": [0, 0]},
            ],
        }
        swapped = {
            "dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]],
            "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": 1.0}, {"id": 2, "value": 1.0}],
            "edges": [
                {"id": 3, "u": 0, "v": 2, "value": 2.0, "shift": [0, 0]},
                {"id": 4, "u": 0, "v": 1, "value": 2.5, "shift": [0, 0]},
            ],
        }
        assert canonical_form(build(parse(doc))) == canonical_form(build(parse(swapped)))

    def test_base_differs_from_unrolled(self, fig3_left):
        t = build(fig3_left)
        t2 = build(unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]])))
        assert canonical_form(t) != canonical_form(t2)


class TestSerialization:
    def test_json_structure(self, helix_cross):
        tree = build(helix_cross)
        doc = tree.to_json_dict()
        assert len(doc["beams"]) == 5
        assert doc["beams"][0]["death"] is None
        assert doc["events"][0]["kind"] == "appearance"

    def test_json_chunks_hold_a_block_at_a_time(self):
        # the texts are made one block of rows at a time, after one text per
        # lattice, so writing a tree of a 4.7 MB document holds a fraction of
        # it (the whole-tree texts, or the document, before)
        tree = build(torus_grid(20))
        tracemalloc.start()
        try:
            size = sum(map(len, tree.json_chunks()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 4 * 2 ** 20
        assert peak < size / 4

    def test_dot_output(self, fig3_left):
        dot = build(fig3_left).to_dot()
        assert dot.startswith("digraph")
        assert "->" in dot

    def test_monomial_display(self):
        assert monomial_display(1.0, 0) == "1"
        assert monomial_display(2.0, 1) == "4R"
        assert monomial_display(2.0, 2) == f"{2 * math.pi:.9g}R^2"
