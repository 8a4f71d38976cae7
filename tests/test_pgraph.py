import gc
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from perimere import (GraphError, IntMatrix, build, cellular_l1, equals,
                      extract, max_shift_magnitude, parse, pgraph, serialize, unroll)
from perimere.lattice import hnf_reduce, reduce_many
from perimere.pgraph import PeriodicGraph
from perimere.synthetic import torus_grid

from . import oracles
from .conftest import fig3_left_doc, helix_cross_doc


class TestParse:
    def test_two_vertex_graph(self, fig3_left):
        assert fig3_left.n == 2
        assert fig3_left.m == 3
        assert fig3_left.dim == 2

    def test_empty_graph_valid(self):
        g = parse({"dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]], "vertices": [], "edges": []})
        assert g.n == 0 and g.m == 0

    def test_filter_violation_names_edge(self):
        doc = fig3_left_doc()
        doc["edges"][1]["value"] = 0.5
        with pytest.raises(GraphError, match="edge 11"):
            parse(doc)

    def test_dangling_endpoint(self):
        doc = fig3_left_doc()
        doc["edges"][0]["u"] = 99
        with pytest.raises(GraphError, match="missing vertex"):
            parse(doc)

    def test_singular_basis(self):
        doc = fig3_left_doc()
        doc["basis"] = [[1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(GraphError, match="singular"):
            parse(doc)

    def test_higher_cells_rejected(self):
        doc = fig3_left_doc()
        doc["triangles"] = []
        with pytest.raises(GraphError, match="unsupported"):
            parse(doc)

    def test_duplicate_vertex_id(self):
        doc = fig3_left_doc()
        doc["vertices"].append({"id": 1, "value": 2.0})
        with pytest.raises(GraphError, match="duplicate"):
            parse(doc)

    @pytest.mark.parametrize("fault,message", [
        (lambda d: d["edges"].append(dict(d["edges"][0])), "duplicate edge id"),
        (lambda d: d["edges"][1].update(shift=[1, 0, 0]), "edge 11 has a shift of wrong length"),
        (lambda d: d["edges"][2].update(value=0.5),
         "edge 12 violates the filter property: value 0.5 below endpoint value 3.0"),
        # with two faults the first check in order names its fault: duplicate
        # vertex ids, duplicate edge ids, then per edge in order a missing
        # vertex, the shift length and the filter property
        (lambda d: (d["vertices"].append({"id": 1, "value": 2.0}),
                    d["edges"][2].update(value=0.5)), "duplicate vertex id"),
        (lambda d: (d["edges"].append(dict(d["edges"][0])), d["edges"][1].update(u=99)),
         "duplicate edge id"),
        (lambda d: (d["edges"][0].update(shift=[1]), d["edges"][1].update(u=99)),
         "edge 10 has a shift of wrong length"),
        (lambda d: d["edges"][0].update(shift=[1], u=99), "edge 10 references a missing vertex"),
    ], ids=["dup_edge", "shift_length", "filter", "dup_vertex_then_filter",
            "dup_edge_then_missing", "shift_length_then_missing", "missing_then_shift_length"])
    def test_validation_messages_and_order(self, fault, message):
        doc = fig3_left_doc()
        fault(doc)
        with pytest.raises(GraphError) as err:
            parse(doc)
        assert str(err.value) == message

    def test_shift_entries_must_be_integers(self):
        doc = fig3_left_doc()
        doc["edges"][1]["shift"] = [2.0, -1]
        assert oracles.edge_shifts(parse(doc))[1] == (2, -1)
        for bad in ([1.5, 0], ["1", 0], 1, [float("inf"), 0], [True, 0], [0, False]):
            doc["edges"][1]["shift"] = bad
            with pytest.raises(GraphError, match="edge 11: shift"):
                parse(doc)

    def test_one_table_entry_per_distinct_shift(self):
        # an integral-float shift is the int shift it names, also past 2^64,
        # so both share one table entry; read per edge, the table gives the
        # record loop's shifts
        doc = fig3_left_doc()
        big = 2 ** 70
        more = [[1.0, 1.0], [big + 1, -big - 1], [big, 0], [float(big), 0.0], [0, 0],
                [-big - 1, big + 1]]
        doc["edges"] += [{"id": 20 + j, "u": 2, "v": 1, "value": 10.0 + j, "shift": s}
                         for j, s in enumerate(more)]
        g = parse(doc)
        assert g.table == [(0, 0), (1, 1), (0, 1), (big + 1, -big - 1), (big, 0),
                           (-big - 1, big + 1)]
        assert all(type(e) is int for t in g.table for e in t)
        assert g.which.dtype == np.int64 and g.which.tolist() == [0, 1, 2, 1, 3, 4, 4, 0, 5]
        assert oracles.edge_shifts(g) == oracles.edge_shifts(oracles.oracle_parse(doc))

    def test_shift_must_be_a_list_or_tuple(self):
        # a dict built in Python would give its keys, a set its hash order
        doc = fig3_left_doc()
        doc["edges"][1]["shift"] = (2, -1)
        assert oracles.edge_shifts(parse(doc))[1] == (2, -1)
        for bad in ({3: "x", 4: "y"}, {1, 0}, frozenset({2, 5}), "10", range(2), iter([1, 0])):
            doc["edges"][1]["shift"] = bad
            with pytest.raises(GraphError) as err:
                parse(doc)
            assert str(err.value) == f"edge 11: shift must be a list of integers, got {bad!r}"

    def test_record_without_required_key_named(self):
        for kind, key in (("vertices", "value"), ("vertices", "id"), ("edges", "shift"),
                          ("edges", "u")):
            doc = fig3_left_doc()
            del doc[kind][1][key]
            with pytest.raises(GraphError, match=f"record 1 .*lacks {key}"):
                parse(doc)
        doc = fig3_left_doc()
        doc["edges"][0] = [10, 1, 2]
        with pytest.raises(GraphError, match="edge record 0 is not an object"):
            parse(doc)

    @staticmethod
    def _with(path, value):
        doc = fig3_left_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    @pytest.mark.parametrize("path,value,named", [
        (("vertices",), 3, "vertices must be a list"),
        (("edges",), 3, "edges must be a list"),
        (("edges",), {"id": 10}, "edges must be a list"),
        (("basis",), 3, "basis must be a list"),
        (("basis", 0, 1), None, "basis entries"),
        (("dim",), None, "dim must be an integer"),
        (("vertices", 0, "id"), None, "vertex record 0: id"),
        (("edges", 1, "id"), None, "edge record 1: id"),
        (("edges", 1, "u"), None, "edge 11: u"),
        (("edges", 1, "v"), None, "edge 11: v"),
        (("basis", 0, 1), True, "basis entries"),
        (("basis", 1, 1), False, "basis entries"),
    ])
    def test_scalars_and_nulls_named(self, path, value, named):
        with pytest.raises(GraphError, match=named):
            parse(self._with(path, value))

    @pytest.mark.parametrize("path,value,named", [
        (("vertices", 1, "id"), 0.5, "vertex record 1: id"),
        (("vertices", 1, "id"), "2", "vertex record 1: id"),
        (("vertices", 1, "id"), True, "vertex record 1: id"),
        (("edges", 0, "id"), 10.5, "edge record 0: id"),
        (("edges", 0, "u"), 0.5, "edge 10: u"),
        (("edges", 0, "v"), "2", "edge 10: v"),
        (("dim",), 1.5, "dim must be an integer"),
        (("dim",), "2", "dim must be an integer"),
        (("vertices", 1, "id"), 2 ** 63, "vertex record 1: id must fit in a signed 64-bit"),
        (("vertices", 1, "id"), 1e19, "vertex record 1: id must fit in a signed 64-bit"),
        (("edges", 0, "id"), -2 ** 63 - 1, "edge record 0: id must fit in a signed 64-bit"),
        (("edges", 0, "u"), 1e19, "edge 10: u must fit in a signed 64-bit"),
        (("edges", 0, "v"), 2 ** 64, "edge 10 references a missing vertex"),
    ])
    def test_ids_endpoints_and_dim_never_truncated(self, path, value, named):
        with pytest.raises(GraphError, match=named):
            parse(self._with(path, value))

    def test_int64_extreme_ids_accepted(self):
        doc = fig3_left_doc()
        doc["vertices"][0]["id"], doc["vertices"][1]["id"] = 2 ** 63 - 1, -2 ** 63
        for rec in doc["edges"]:
            rec["u"], rec["v"] = 2 ** 63 - 1, -2 ** 63
        doc["edges"][0]["id"] = -2 ** 63
        g = parse(doc)
        assert g.ids[0] == 2 ** 63 - 1 and len(build(g).beams) == 2

    def test_integral_floats_accepted(self):
        doc = self._with(("dim",), 2.0)
        doc["vertices"][1]["id"] = 2.0
        doc["edges"][0].update(id=10.0, u=1.0, v=2.0)
        g = parse(doc)
        out = serialize(g)
        assert g.dim == 2 and out["vertices"][1]["id"] == 2
        assert (out["edges"][0]["id"], out["edges"][0]["u"], out["edges"][0]["v"]) == (10, 1, 2)
        assert all(type(x) is int for x in (g.dim, out["vertices"][1]["id"], out["edges"][0]["id"],
                                            out["edges"][0]["u"]))

    def test_values_as_decimal_strings(self):
        doc = fig3_left_doc()
        doc["vertices"][0]["value"] = "1.00"
        g = parse(doc)
        assert g.values[0] == 1.0
        assert g.raw[0] == "1.00"

    @pytest.mark.parametrize("token", [" 1_0 ", "1_000.5", "\uff11\uff10", "\n2\t", "1e5 ", "0x10"])
    @pytest.mark.parametrize("place", ["vertices", "edges"])
    def test_value_strings_that_are_not_decimals_rejected(self, place, token):
        # float() reads all but the last; none is an ASCII decimal with nothing around it
        doc = fig3_left_doc()
        doc[place][0]["value"] = token
        for parse_fn in (parse, oracles.oracle_parse):
            with pytest.raises(GraphError, match=re.escape(f"bad decimal string {token!r}")):
                parse_fn(doc)

    @pytest.mark.parametrize("token,value", [
        ("1.", 1.0), (".5", 0.5), ("+1.0e+0", 1.0), ("1E0", 1.0), ("-02", -2.0), ("1e-999", 0.0)])
    def test_every_decimal_form_read(self, token, value):
        doc = fig3_left_doc()
        doc["vertices"][0]["value"] = token
        for parse_fn in (parse, oracles.oracle_parse):
            g = parse_fn(doc)
            assert g.values[0] == value and g.raw == {0: token}

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "nan", "1e999"])
    def test_infinite_decimal_strings_are_named_as_infinite(self, token):
        doc = fig3_left_doc()
        doc["vertices"][0]["value"] = token
        with pytest.raises(GraphError, match="must be finite"):
            parse(doc)

    def test_tokens_only_for_string_values(self):
        assert parse(helix_cross_doc()).raw == {}
        doc = fig3_left_doc()
        doc["vertices"][1]["value"] = "3.00"
        doc["edges"][0]["value"] = "5.000"
        g = parse(doc)
        assert g.raw == {1: "3.00", 2: "5.000"}   # cell positions, vertices then edges

    def test_unroll_copies_each_token(self):
        doc = fig3_left_doc()
        doc["vertices"][1]["value"] = "3.00"
        doc["edges"][2]["value"] = "9.000"
        rolled = unroll(parse(doc), IntMatrix.from_rows([[2, 0], [0, 1]]))
        # cell p's copy c sits at p * 2 + c
        assert rolled.raw == {2: "3.00", 3: "3.00", 8: "9.000", 9: "9.000"}
        out = serialize(rolled)
        assert [r["value"] for r in out["vertices"]] == [1.0, 1.0, "3.00", "3.00"]
        assert [r["value"] for r in out["edges"]] == [5.0, 5.0, 7.0, 7.0, "9.000", "9.000"]
        assert unroll(parse(fig3_left_doc()), IntMatrix.from_rows([[2, 0], [0, 1]])).raw == {}

    def test_parse_serialize_roundtrip_bit_exact(self):
        doc = helix_cross_doc()
        for v in doc["vertices"]:
            v["value"] = f"{v['value']:.3f}"
        for e in doc["edges"]:
            e["value"] = f"{e['value']:.4f}"
        g = parse(doc)
        again = parse(json.loads(json.dumps(serialize(g))))
        assert serialize(again) == serialize(g)
        assert [again.raw[pos] for pos in range(again.n)] == [f"{i}.000" for i in range(1, 6)]

    def test_parse_peaks_below_twice_the_graph(self):
        # fields go straight into their columns, with no list per field beside the document
        doc = serialize(torus_grid(14))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = parse(doc)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == 14 ** 3 and peak - base <= 2 * (kept - base)

    def test_parse_of_a_path_peaks_below_eight_times_the_columns(self, tmp_path):
        # the record lists are decoded a block at a time, so parsing a path
        # holds its bytes, one block of records and the columns: on the
        # graph writer's layout, whose text is about 4 times the column
        # bytes, 5.7 times the column bytes (14 times with json.load's dicts)
        path = tmp_path / "g.json"
        path.write_text("".join(pgraph.json_chunks(torus_grid(14))))
        gc.collect()
        tracemalloc.start()
        try:
            g = parse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(col.nbytes for col in (g.ids, g.values, g.u, g.v, g.which))
        assert g.n == 14 ** 3 and peak < 8 * columns

    def test_parse_of_a_path_holds_its_bytes_and_under_twice_the_columns(self, tmp_path):
        # above its bytes, reading a path holds one window's tokens or
        # records and the columns, each window's columns dropped when they
        # are joined: 1.73 times the column bytes on this document
        path = tmp_path / "g.json"
        path.write_text(json.dumps(serialize(torus_grid(14))))
        gc.collect()
        tracemalloc.start()
        try:
            g = parse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(col.nbytes for col in (g.ids, g.values, g.u, g.v, g.which))
        assert peak - path.stat().st_size < 2 * columns


class TestMaxShiftMagnitude:
    def test_helix_fixture(self, helix_cross):
        assert max_shift_magnitude(helix_cross) == 1

    def test_all_zero(self):
        g = parse({
            "dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]],
            "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": 0.0}],
            "edges": [{"id": 0, "u": 0, "v": 1, "value": 1.0, "shift": [0, 0]}],
        })
        assert max_shift_magnitude(g) == 0

    def test_unrolled_fixture(self, fig3_left):
        g2 = unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]]))
        assert max_shift_magnitude(g2) == 1


class TestCellularL1:
    def test_identical(self, fig3_left):
        assert cellular_l1(fig3_left, fig3_left) == 0.0

    def test_single_change(self):
        a = parse(fig3_left_doc())
        doc = fig3_left_doc()
        doc["vertices"][0]["value"] = 1.5
        b = parse(doc)
        assert cellular_l1(a, b) == pytest.approx(0.5)

    def test_against_naive_sum(self):
        rng = random.Random(0)
        doc_a = helix_cross_doc()
        doc_b = helix_cross_doc()
        for recs in (doc_b["vertices"], doc_b["edges"]):
            for r in recs:
                r["value"] = r["value"] + rng.uniform(0, 0.4)
        a, b = parse(doc_a), parse(doc_b)
        want = sum(abs(x - y) for x, y in zip(a.values.tolist(), b.values.tolist()))
        assert cellular_l1(a, b) == pytest.approx(want, abs=1e-12)

    def test_shifts_compared_by_value(self, fig3_left):
        # the same per-edge shifts under another table order are accepted, and
        # a graph where one edge's shift differs is refused
        g = fig3_left
        doc = fig3_left_doc()
        doc["vertices"][0]["value"] = 1.5
        b = parse(doc)

        def relaid(h, table, which):
            return PeriodicGraph(h.dim, h.basis, h.ids, h.values, h.raw, h.u, h.v, table, which)
        flipped = relaid(b, b.table[::-1], len(b.table) - 1 - b.which)
        assert flipped.table != g.table and oracles.edge_shifts(flipped) == oracles.edge_shifts(g)
        assert cellular_l1(g, flipped) == cellular_l1(flipped, g) == pytest.approx(0.5)
        for table, which in ((g.table, [0, 0, 2]), ([(0, 0), (1, 2), (0, 1)], g.which)):
            with pytest.raises(GraphError, match="edge combinatorics differ"):
                cellular_l1(g, relaid(g, table, which))

    def test_combinatorics_mismatch(self, fig3_left, helix_cross):
        with pytest.raises(GraphError):
            cellular_l1(fig3_left, helix_cross)

    def test_vertex_ids_differ(self, fig3_left):
        # the same edges on renamed vertices: endpoints are positions, so
        # only the vertex ids tell the two apart
        g = fig3_left
        ids = g.ids.copy()
        ids[0] = ids.max() + 1
        renamed = PeriodicGraph(g.dim, g.basis, ids, g.values, g.raw, g.u, g.v, g.table, g.which)
        with pytest.raises(GraphError, match="vertex ids differ"):
            cellular_l1(g, renamed)


class TestUnroll:
    def test_doubling(self, fig3_left):
        g2 = unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 1]]))
        assert g2.n == 4 and g2.m == 6
        assert abs(np.linalg.det(g2.basis.matrix)) == pytest.approx(2.0)

    def test_identity_is_isomorphic_copy(self, fig3_left):
        g2 = unroll(fig3_left, IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert serialize(g2) == serialize(fig3_left)

    def test_counts_scale_with_det(self, helix_cross):
        rng = random.Random(1)
        trials = 0
        while trials < 10:
            s = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            det = abs(s.det())
            if not 1 <= det <= 4:
                continue
            trials += 1
            g2 = unroll(helix_cross, s)
            assert g2.n == det * helix_cross.n
            assert g2.m == det * helix_cross.m

    def test_new_shifts_solve_exactly(self, helix_cross):
        s = IntMatrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
        k = abs(s.det())
        g2 = unroll(helix_cross, s)
        from perimere.lattice import coset_reps
        reps = coset_reps(s)
        ids = g2.ids.tolist()
        new_shifts = oracles.edge_shifts(g2)
        for eid, shift in zip(helix_cross.ids[helix_cross.n:].tolist(),
                              oracles.edge_shifts(helix_cross)):
            for ci, c in enumerate(reps):
                ne = ids.index(eid * k + ci) - g2.n
                c2 = reps[ids[g2.v[ne]] % k]
                want = tuple(a + b - x for a, b, x in zip(c, shift, c2))
                got = tuple(sum(s.columns[j][i] * new_shifts[ne][j] for j in range(3))
                            for i in range(3))
                assert got == want

    def test_nested_diagonal_unroll_spans_composite(self, fig3_left):
        s1 = IntMatrix.from_rows([[2, 0], [0, 1]])
        s2 = IntMatrix.from_rows([[1, 0], [0, 3]])
        once = unroll(unroll(fig3_left, s1), s2)
        direct = unroll(fig3_left, IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert once.n == direct.n and once.m == direct.m
        assert equals(extract(build(once)), extract(build(direct)))

    def test_unrolled_barcode_matches_base(self, fig3_left):
        rng = random.Random(2)
        base = extract(build(fig3_left))
        trials = 0
        while trials < 8:
            s = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            if not 1 <= abs(s.det()) <= 4:
                continue
            trials += 1
            assert equals(base, extract(build(unroll(fig3_left, s))))

    @staticmethod
    def _with_vertex_id(vid):
        doc = fig3_left_doc()
        doc["vertices"][1]["id"] = vid
        for rec in doc["edges"]:
            rec["v" if rec["v"] == 2 else "u"] = vid
        return parse(doc)

    def test_ids_leaving_int64_rejected(self):
        diag2, diag3 = IntMatrix.from_rows([[2, 0], [0, 1]]), IntMatrix.from_rows([[3, 0], [0, 1]])
        # id * det + (det - 1) = 2^63 - 1 still fits, and the output parses again
        rolled = unroll(self._with_vertex_id(2 ** 62 - 1), diag2)
        assert rolled.ids[:rolled.n].max() == 2 ** 63 - 1
        assert serialize(parse(serialize(rolled))) == serialize(rolled)
        # id * 3 = 2^63 - 2 fits, but the copy at representative 2 does not
        g = self._with_vertex_id((2 ** 63 - 1) // 3)
        with pytest.raises(GraphError, match="64-bit"):
            unroll(g, diag3)
        g = self._with_vertex_id(-2 ** 62)
        rolled = unroll(g, diag2)
        assert rolled.ids[:rolled.n].min() == -2 ** 63
        with pytest.raises(GraphError, match="64-bit"):
            unroll(g, IntMatrix.from_rows([[1, 1], [0, 3]]))

    def test_graph_without_edges_enumerates_no_representatives(self, monkeypatch):
        def refuse(*ranges):
            raise AssertionError("coset representatives enumerated")

        monkeypatch.setattr("perimere.pgraph.product", refuse)
        doc = fig3_left_doc()
        doc["edges"] = []
        g2 = unroll(parse(doc), IntMatrix.from_rows([[2, 1], [0, 3]]))
        assert g2.m == 0 and g2.ids.tolist() == list(range(6, 18))
        # without cells the index need not fit an array
        doc["vertices"] = []
        g3 = unroll(parse(doc), IntMatrix.from_rows([[1, 0], [0, 10 ** 20]]))
        assert g3.n == g3.m == 0 and abs(np.linalg.det(g3.basis.matrix)) == pytest.approx(1e20)

    @pytest.mark.parametrize("bend,match", [
        # quotients one off: H.y no longer equals c + t - c2
        (lambda c2, y, col: (c2, y + 1), "non-lattice difference"),
        # one pivot column moved from the quotients into the residues: the
        # certificate holds, the residue is past its pivot
        (lambda c2, y, col: (c2 + col, y - [1, 0]), "non-canonical representative"),
    ])
    def test_unroll_checks_its_reduction(self, fig3_left, monkeypatch, bend, match):
        s = IntMatrix.from_rows([[2, 0], [1, 3]])
        col = np.array(hnf_reduce(s).columns[0], dtype=object)

        def bent(l, vectors):
            return bend(*reduce_many(l, vectors), col)

        monkeypatch.setattr("perimere.pgraph.reduce_many", bent)
        with pytest.raises(AssertionError, match=match):
            unroll(fig3_left, s)

    def test_singular_rejected(self, fig3_left):
        with pytest.raises(GraphError):
            unroll(fig3_left, IntMatrix.from_rows([[1, 1], [1, 1]]))

    @pytest.mark.parametrize("rows", [[[2, 0]], [[2], [0]], [[2, 0, 0], [0, 1, 0]]])
    def test_non_square_matrix_rejected(self, fig3_left, rows):
        with pytest.raises(GraphError, match="must be d x d"):
            unroll(fig3_left, IntMatrix.from_rows(rows))
