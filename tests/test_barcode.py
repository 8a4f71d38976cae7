import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from perimere import (IntMatrix, build, equals, extract, jsonfmt, multiplicity_bound,
                      parse, unroll)
from perimere.barcode import PeriodicBarcode, json_chunks, to_csv, to_json_dict
from perimere.mergetree import TOL
from perimere.synthetic import random_periodic_graph, torus_grid

from .conftest import fig3_left_doc, helix_cross_doc
from .oracles import oracle_csv, view

SQRT2 = math.sqrt(2)
INF = math.inf


def bars(code, exp):
    return [(birth, death, round(mult, 9)) for _, birth, death, mult in code.eras[exp].tolist()]


class TestExtractGolden:
    def test_fig3_left_all_eras(self, fig3_left):
        code = extract(build(fig3_left))
        assert bars(code, 2) == [(1.0, 7.0, 1.0), (3.0, 5.0, 1.0)]
        assert bars(code, 1) == [(1.0, 7.0, -round(SQRT2, 9)), (1.0, 9.0, round(SQRT2, 9))]
        assert bars(code, 0) == [(1.0, 9.0, -1.0), (1.0, INF, 1.0)]

    def test_single_vertex(self):
        g = parse({"dim": 2, "basis": [[2.0, 0.0], [0.0, 2.0]],
                   "vertices": [{"id": 0, "value": 1.5}], "edges": []})
        code = extract(build(g))
        assert bars(code, 2) == [(1.5, INF, 0.25)]
        assert len(code.eras[0]) == len(code.eras[1]) == 0

    def test_helix_constant_era_remark(self, helix_cross):
        code = extract(build(helix_cross))
        era0 = code.era_function(0)
        assert era0[(2.0, 12.0)] == pytest.approx(2.0, abs=1e-9)
        assert era0[(1.0, 12.0)] == pytest.approx(-2.0, abs=1e-9)
        assert era0[(1.0, INF)] == pytest.approx(1.0, abs=1e-9)

    def test_helix_perturbed_vertex_swaps_elder(self):
        doc = helix_cross_doc()
        doc["vertices"][1]["value"] = 0.99
        code = extract(build(parse(doc)))
        keys = set(code.era_function(0))
        assert (2.0, 12.0) not in keys
        assert (1.0, 12.0) not in keys
        assert not equals(code, extract(build(parse(helix_cross_doc()))))


class TestEquals:
    def test_reflexive(self, helix_cross):
        code = extract(build(helix_cross))
        assert equals(code, code)

    def test_unrolled_equal(self, fig3_left):
        base = extract(build(fig3_left))
        rolled = extract(build(unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]]))))
        assert equals(base, rolled)

    def test_dimension_mismatch(self, fig3_left, helix_cross):
        with pytest.raises(ValueError):
            equals(extract(build(fig3_left)), extract(build(helix_cross)))

    # bars are (birth, death, mult) in era 1, next to one era-0 bar
    @pytest.mark.parametrize("bar,same", [
        ((1.0, 2.0, 1.0), True),
        ((1.0, 2.0, 1.0 + TOL / 2), True),     # mults within TOL
        ((1.0 + TOL / 2, 2.0, 1.0), False),    # births and deaths are exact
        ((1.0, 2.5, 1.0), False),
        ((1.0, INF, 1.0), False),
        ((1.0, 2.0, 1.0 + 2 * TOL), False),
    ])
    def test_same_length_eras(self, bar, same):
        ref = PeriodicBarcode(1, [(0, 0.0, INF, 1.0), (1, 1.0, 2.0, 1.0)])
        assert equals(ref, PeriodicBarcode(1, [(0, 0.0, INF, 1.0), (1, *bar)])) is same


def per_era_equals(b1, b2):
    """The era-by-era comparison that `equals` does in one pass."""
    for e in range(b1.dim + 1):
        e1, e2 = (b.bars[b.bars["exp"] == e] for b in (b1, b2))
        if len(e1) != len(e2) or not (np.array_equal(e1["birth"], e2["birth"])
                                      and np.array_equal(e1["death"], e2["death"])):
            return False
        if np.any(np.abs(e1["mult"] - e2["mult"]) > TOL):
            return False
    return True


def canonical(dim, rows):
    """A barcode of the rows sorted by (birth, death, exp), the first of a repeated key kept."""
    rows = sorted(rows, key=lambda r: (r[1], r[2], r[0]))
    return PeriodicBarcode(dim, [r for i, r in enumerate(rows)
                                 if not i or r[:3] != rows[i - 1][:3]])


class TestWholeArrayEquals:
    def test_agrees_with_per_era_reference(self):
        # small integer births and deaths, so a key often sits in several eras
        rng = random.Random(19)
        seen = {True: 0, False: 0}
        for _ in range(600):
            dim = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(0, 8)):
                birth = float(rng.randint(0, 3))
                death = rng.choice([birth + rng.randint(1, 3), INF])
                rows.append((rng.randint(0, dim), birth, death, rng.choice([-1.0, 0.5, 2.0])))
            a = canonical(dim, rows)
            other = [list(r) for r in a.bars.tolist()]
            if other:
                row = rng.choice(other)
                change = rng.randrange(6)
                if change == 0:
                    row[0] = (row[0] + rng.randint(1, dim)) % (dim + 1)   # another era
                elif change == 1:
                    row[3] += rng.choice([-1, 1]) * TOL * 1.01   # mult just past TOL
                elif change == 2:
                    row[3] += rng.choice([-1, 1]) * TOL * 0.99   # mult just within TOL
                elif change == 3:
                    row[2] = row[2] + 1.0 if rng.random() < 0.8 else INF
                elif change == 4:
                    other.remove(row)
            b = canonical(dim, map(tuple, other))
            same = per_era_equals(a, b)
            assert equals(a, b) is same and equals(b, a) is same
            seen[same] += 1
        assert min(seen.values()) > 150


class TestRowOrder:
    @pytest.mark.parametrize("rows", [
        # a repeated key: era_function would keep one of the two mults
        [(0, 0.0, 1.0, 1.0), (0, 0.0, 1.0, 1.0)],
        [(1, 0.0, 2.0, 1.0), (0, 0.0, 1.0, 1.0)],   # era-first, deaths decreasing
        [(1, 0.0, 1.0, 1.0), (0, 0.0, 1.0, 1.0)],   # one key in two eras, exps decreasing
        [(0, 1.0, 2.0, 1.0), (0, 0.0, 3.0, 1.0)],   # births decreasing
        [(0, 0.0, INF, 1.0), (0, 0.0, 1.0, 1.0)],   # an essential bar before a finite one
        [(0, math.nan, 1.0, 1.0), (0, 0.0, 1.0, 1.0)],
    ])
    def test_refused(self, rows):
        with pytest.raises(ValueError, match="strictly increasing"):
            PeriodicBarcode(1, rows)

    @pytest.mark.parametrize("exp", [-1, 2])
    def test_exponent_outside_0_to_d_refused(self, exp):
        with pytest.raises(ValueError, match="exponent outside 0..d"):
            PeriodicBarcode(1, [(0, 0.0, 1.0, 1.0), (exp, 0.0, 2.0, 1.0)])

    def test_canonical_rows_accepted(self):
        rows = [(0, 0.0, 1.0, 1.0), (1, 0.0, 1.0, 1.0), (1, 0.0, 2.0, 1.0),
                (0, 0.0, INF, 1.0), (0, 1.0, 2.0, -1.0)]
        code = PeriodicBarcode(1, rows)
        assert code.bars.tolist() == rows
        assert to_csv(code).splitlines()[1:] == ["0,0.0,1.0,1.0", "1,0.0,1.0,1.0", "1,0.0,2.0,1.0",
                                                 "0,0.0,inf,1.0", "0,1.0,2.0,-1.0"]
        assert len(PeriodicBarcode(2, []).bars) == 0


class TestRowsHeldOnce:
    def test_slots_and_eras_on_access(self, fig3_left):
        code = extract(build(fig3_left))
        assert PeriodicBarcode.__slots__ == ("dim", "bars")
        assert [e.tolist() for e in code.eras] == [
            [r for r in code.bars.tolist() if r[0] == exp] for exp in range(3)]

    def test_extract_retains_one_copy_of_its_rows(self):
        tree = build(torus_grid(20))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = extract(tree)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(code.bars) > 5000
        assert held <= 1.1 * code.bars.nbytes + 64 * 1024


class TestDiagram:
    def test_infinite_point_present(self, helix_cross):
        era0 = extract(build(helix_cross)).eras[0]
        assert (0, 1.0, INF, 1.0) in era0.tolist()

    def test_empty(self):
        g = parse({"dim": 1, "basis": [[1.0]], "vertices": [], "edges": []})
        code = extract(build(g))
        assert len(code.bars) == 0 and [len(era) for era in code.eras] == [0, 0]


class TestProperties:
    def test_era_mass_telescopes(self):
        rng = random.Random(0)
        for _ in range(15):
            g = random_periodic_graph(rng, n=rng.randint(2, 30), m=rng.randint(0, 80))
            tree = build(g)
            code = extract(tree)
            for exp, era in enumerate(code.eras):
                by_birth = {}
                for _, birth, _, mult in era.tolist():
                    by_birth[birth] = by_birth.get(birth, 0.0) + mult
                for birth, total in by_birth.items():
                    cap = max((ep.coeff for beam in view(tree) if beam.birth == birth
                               for ep in beam.epochs if ep.exp == exp), default=0.0)
                    assert total >= -1e-9
                    assert total <= cap + 1e-9

    def test_alive_bar_mass_equals_active_epoch_mass(self):
        # at any height, per era, the signed bar masses alive there must sum
        # to the coefficients of the epochs active there
        rng = random.Random(2)
        for _ in range(12):
            g = random_periodic_graph(rng, n=rng.randint(2, 25), m=rng.randint(0, 60))
            tree = build(g)
            code = extract(tree)
            heights = sorted({e.time for e in tree.events})
            probes = [h + 0.01 for h in heights] + [heights[0] - 1.0 if heights else 0.0]
            for t in probes:
                for exp, era in enumerate(code.eras):
                    alive = sum(mult for _, birth, death, mult in era.tolist()
                                if birth <= t < death)
                    active = 0.0
                    for beam in view(tree):
                        if beam.birth <= t < beam.death:
                            for st, en, coeff, e_exp, _ in beam.spans():
                                if st <= t < en and e_exp == exp:
                                    active += coeff
                    assert alive == pytest.approx(active, abs=1e-9)

    def test_one_essential_bar_per_component(self):
        rng = random.Random(1)
        for _ in range(15):
            g = random_periodic_graph(rng, n=rng.randint(1, 25), m=rng.randint(0, 40))
            tree = build(g)
            code = extract(tree)
            essential = [mult for _, _, death, mult in code.bars.tolist() if math.isinf(death)]
            assert len(essential) == len(tree.roots())
            finals = sorted(round(view(tree)[r].epochs[-1].coeff, 9) for r in tree.roots())
            assert sorted(round(mult, 9) for mult in essential) == finals

    def test_multiplicities_below_bound(self, helix_cross, fig3_left):
        for g in (helix_cross, fig3_left):
            code = extract(build(g))
            most = max(abs(code.bars["mult"]))
            assert most <= multiplicity_bound(g)


class TestEmitters:
    def test_csv_shape(self, fig3_left):
        text = to_csv(extract(build(fig3_left)))
        lines = text.strip().split("\n")
        assert lines[0] == "era,birth,death,mult"
        assert len(lines) == 7
        assert any(line.endswith("inf,1.0") for line in lines)
        births = [float(l.split(",")[1]) for l in lines[1:]]
        assert births == sorted(births)

    # barcodes built directly, with the columns extract seldom makes
    EDGE_COLUMNS = {
        "signed_zero_births": [(0, -0.0, 1.0, 1.0), (1, 0.0, 1.0, 2.0), (0, 0.0, 2.0, -0.0),
                               (2, -0.0, 2.0, 0.0)],
        "one_float_in_every_column": [(0, 0.0, 0.5, 0.5), (1, 0.5, 1.5, 0.5), (2, 0.5, INF, 0.5)],
        "essential_deaths": [(0, 1.0, INF, 1.0), (1, 1.0, INF, -SQRT2), (0, 2.0, INF, 3.0)],
        "empty": [],
        "extreme_values": [(0, -1e308, 5e-324, 1e308), (1, 5e-324, 1e308, -5e-324),
                           (2, 1e308, INF, 5e-324)],
        "mults_repeated_across_eras": [(e, float(b), b + 0.25, (-1.0) ** e * SQRT2)
                                       for b in range(3) for e in range(3)],
    }

    @pytest.mark.parametrize("case", EDGE_COLUMNS)
    def test_csv_edge_columns(self, case):
        rows = self.EDGE_COLUMNS[case]
        code = PeriodicBarcode(2, rows)
        eras = [[(birth, death, mult) for e, birth, death, mult in rows if e == exp]
                for exp in range(3)]
        want = "era,birth,death,mult\n" + "".join("%d,%r,%r,%r\n" % row for row in rows)
        assert to_csv(code) == oracle_csv(eras) == want

    def test_csv_of_many_blocks_from_few_values(self):
        # rows over several blocks whose deaths and mults come from a few
        # floats, each of which is also a birth, -0.0 and 0.0 among them
        rng = random.Random(5)
        pool = [-0.0, 0.0, 5e-324, 0.1, 1 / 3, 1e308, -2.5]
        births = pool + [k / 7 for k in range(1, 30)]
        rows = {}   # one row per (birth, death, era) as floats compare
        for _ in range(3000):
            key = rng.choice(births), rng.choice(pool + [INF]), rng.randrange(4)
            rows.setdefault(key, (key[2], key[0], key[1], rng.choice(pool)))
        rows = [rows[key] for key in sorted(rows)]
        assert len(rows) > 2 * 256
        want = "era,birth,death,mult\n" + "".join("%d,%r,%r,%r\n" % row for row in rows)
        assert to_csv(PeriodicBarcode(3, rows)) == want

    def test_csv_peak_below_the_row_formatting_writer(self):
        # the distinct texts, one text index per value and the text joined a
        # block at a time: at torus_grid(20), whose 8,010 bars have all
        # their births and deaths distinct, the writer that formatted each
        # row with one % peaked at 5.74 times its text (5.73 at
        # torus_grid(30), 5.75 at (47)), and this one at 5.0 times
        code = extract(build(torus_grid(20)))
        gc.collect()
        tracemalloc.start()
        try:
            size = len(to_csv(code))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2 ** 18 and peak < 5.7 * size

    def test_json_none_for_infinite_death(self, fig3_left):
        doc = to_json_dict(extract(build(fig3_left)))
        deaths = [b["death"] for era in doc["eras"] for b in era["bars"]]
        assert None in deaths

    def test_json_chunks_hold_a_block_at_a_time(self):
        # an era's bar texts are made one block of rows at a time, so writing
        # the 8,010 bars of a 0.93 MB barcode holds a fraction of its text
        # (2.3 times the text when each era's texts were made whole)
        code = extract(build(torus_grid(20)))
        tracemalloc.start()
        try:
            size = sum(map(len, json_chunks(code)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2 ** 19 and peak < size / 3
        assert "".join(json_chunks(code)) == jsonfmt.dumps(to_json_dict(code))
