"""The record templates and the record writers of trees, graphs and barcodes
against `json.dumps(indent=2, sort_keys=True)` of their reference forms."""
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimere import barcode, jsonfmt, mergetree, parse, pgraph
from perimere.jsonfmt import HOLE
from perimere.lattice import IntMatrix
from perimere.synthetic import random_periodic_graph, torus_grid


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def nested(obj, depth):
    """`reference(obj)` as the value of a key or item `depth` containers deep."""
    return reference(obj).replace("\n", "\n" + "  " * depth)


class Int(int):
    def __repr__(self):
        return "not an int"


class Float(float):
    def __repr__(self):
        return "not a float"


TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\"\\/\x7f", "\u00e9\u20ac\U0001f600", "\u2028\ud800"])
SCALARS = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 70)
           | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, float("inf"), -float("inf"),
                                            float("nan"), 1e16, 1e-7])
           | TEXT
           | st.builds(Int, st.integers()) | st.builds(Float, st.floats()))
DOCS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=25)


class TestAgainstStdlib:
    @pytest.mark.parametrize("obj", [
        {(1,): 2}, {"a": {b"k": 1}}, [set()], {"a": b"x"}, object(), [1, [2, {3}]], {"a": 1j},
    ])
    def test_rejects_what_the_writer_does_not_handle(self, obj):
        with pytest.raises(TypeError):
            jsonfmt.dumps(obj)


def _holes(obj, fills):
    """obj with every scalar that is not a dict key replaced by HOLE; the
    replaced scalars' texts go to `fills` in text order."""
    if isinstance(obj, dict):
        return {k: _holes(obj[k], fills) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_holes(x, fills) for x in obj]
    fills.append(reference(obj))
    return HOLE


class TestRecordTemplates:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(obj=DOCS, depth=st.integers(0, 4))
    def test_filled_template_is_nested_dumps(self, obj, depth):
        fills = []
        shape = _holes(obj, fills)
        assert jsonfmt.template(shape, depth) % tuple(fills) == nested(obj, depth)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(objs=st.lists(DOCS, max_size=6), depth=st.integers(0, 4))
    def test_items_lay_out_a_list(self, objs, depth):
        texts = [nested(x, depth + 1) for x in objs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonfmt, "_BLOCK", 2)   # several chunks
            assert "".join(jsonfmt.items(texts, depth)) == nested(objs, depth)

    def test_constant_percent_signs_survive(self):
        shape = {"a%s": "100%", "b": HOLE, "c": ["%d", HOLE]}
        assert jsonfmt.template(shape, 1) % (1, "2.5") == nested(
            {"a%s": "100%", "b": 1, "c": ["%d", 2.5]}, 1)

    def test_keys_and_strings_spelling_nan_stay_constant(self):
        shape = {"NaN": HOLE, "b": ["NaN", "x NaN", HOLE], "c\nNaN": "NaN,", "d": "NaN\n"}
        assert jsonfmt.template(shape, 2) % (1, 2) == nested(
            {"NaN": 1, "b": ["NaN", "x NaN", 2], "c\nNaN": "NaN,", "d": "NaN\n"}, 2)

    def test_chunks_fill_holes_with_texts_and_chunks(self):
        got = "".join(jsonfmt.chunks({"x": HOLE, "y": [HOLE, 2]}, "1.5", iter(["[", "]"])))
        assert got == reference({"x": 1.5, "y": [[], 2]})
        with pytest.raises(ValueError):
            list(jsonfmt.chunks({"x": HOLE}))

    def test_floats(self):
        xs = [0.1, -0.0, 1e-07, 1e22, 5e-324]
        assert jsonfmt.floats(xs) == [reference(x) for x in xs]
        assert jsonfmt.floats([1.0, None, float("inf"), float("nan")]) == [
            "1.0", "null", "Infinity", "NaN"]

    def test_floats_write_negative_infinity(self):
        assert jsonfmt.floats([-float("inf"), 1.0]) == ["-Infinity", "1.0"]
        assert jsonfmt.floats([-float("inf")]) == [reference(-float("inf"))]

    def test_distinct_keys_values_by_their_bits(self):
        xs = [0.1, -0.0, 0.0, 0.1, 1e22, -0.0]
        texts, index = jsonfmt.distinct(np.array(xs))
        assert len(texts) == 4 and index.dtype == np.int64
        assert [texts[i] for i in index.tolist()] == [reference(x) for x in xs]
        texts, index = jsonfmt.distinct(np.array([]))
        assert texts == [] and index.size == 0

    def test_distinct_hands_a_writer_the_values_in_bit_order(self):
        xs = np.array([2.0, -0.0, 0.0, float("inf"), 2.0, -1.0])
        seen = []
        texts, index = jsonfmt.distinct(xs, lambda values: seen.append(values) or
                                        [repr(x) + ";" for x in values.tolist()])
        [values] = seen
        assert values.dtype == np.float64
        assert values.view(np.int64).tolist() == sorted(set(xs.view(np.int64).tolist()))
        assert [texts[i] for i in index.tolist()] == [repr(x) + ";" for x in xs.tolist()]


# record shapes of builtin values, whose reprs tell them apart
SHAPES = st.recursive(
    st.just(HOLE) | st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)


def _laid_fresh(shape, depth):
    """The template and the filled shell of `shape` laid out on an empty memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonfmt, "_LAID", {})
        return _laid(shape, depth)


def _laid(shape, depth):
    fills = ["%d" % i for i in range(jsonfmt.template(shape, depth).count("%s"))]
    return jsonfmt.template(shape, depth), "".join(jsonfmt.chunks(shape, *fills))


class TestTemplateMemo:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(shapes=st.lists(st.tuples(SHAPES, st.integers(0, 4)), min_size=1, max_size=6),
           data=st.data())
    def test_memoized_layout_is_the_fresh_one(self, shapes, data):
        fresh = [_laid_fresh(shape, depth) for shape, depth in shapes]
        order = data.draw(st.lists(st.integers(0, len(shapes) - 1), max_size=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonfmt, "_LAID", {})
            for i in [*order, *range(len(shapes))]:   # any order, each shape at least once
                assert _laid(*shapes[i]) == fresh[i]

    def test_keys_tell_shapes_and_depths_apart(self):
        shapes = [([0.0, HOLE], 1), ([-0.0, HOLE], 1), ([0, HOLE], 1), ([False, HOLE], 1),
                  (["0", HOLE], 1), ({"a": HOLE}, 1), ({"a": [HOLE]}, 1), ({"a": [HOLE]}, 3)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonfmt, "_LAID", {})
            for shape, depth in shapes:
                assert jsonfmt.template(shape, depth) % (7,) == nested(_filled(shape, 7), depth)
            assert len(jsonfmt._LAID) == len(shapes)

    def test_tree_with_many_epochs_adds_no_template_per_epoch_count(self):
        """Two beams of 62 and 9 epochs (loops of shifts 3*2^k and 2^k, each
        halving the beam's lattice), and a tree of the same dimension whose
        beams have 2 and 1: the memo holds the same layouts after writing
        either, so it grows with no epoch count."""
        k = 60
        doc = {"dim": 1, "basis": [[1.0]],
               "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": 0.5}],
               "edges": [{"id": i, "u": 0, "v": 0, "value": 1.0 + i, "shift": [3 << k - i]}
                         for i in range(k + 1)]
               + [{"id": 100 + i, "u": 1, "v": 1, "value": 1.5 + i, "shift": [1 << 7 - i]}
                  for i in range(8)]}
        few = {**doc, "edges": doc["edges"][:1]}
        keys, epochs = [], []
        with pytest.MonkeyPatch.context() as mp:
            for d in (doc, few):
                mp.setattr(jsonfmt, "_LAID", {})
                tree = mergetree.build(parse(d))
                assert "".join(tree.json_chunks()) == jsonfmt.dumps(tree.to_json_dict())
                keys.append(set(jsonfmt._LAID))
                epochs.append(np.diff(tree.offsets).tolist())
        assert epochs == [[62, 9], [2, 1]]
        assert keys[0] == keys[1] and len(keys[0]) <= 8


def _filled(shape, fill):
    if isinstance(shape, dict):
        return {k: _filled(v, fill) for k, v in shape.items()}
    if isinstance(shape, list):
        return [_filled(x, fill) for x in shape]
    return fill if shape is HOLE else shape


def _written(g):
    """The three record writers' texts and `reference` of the dict forms."""
    tree = mergetree.build(g)
    code = barcode.extract(tree)
    return [("".join(pgraph.json_chunks(g)), reference(pgraph.serialize(g))),
            ("".join(tree.json_chunks()), reference(tree.to_json_dict())),
            ("".join(barcode.json_chunks(code)), reference(barcode.to_json_dict(code)))]


EDGE_CASES = {
    "empty": {"dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]], "vertices": [], "edges": []},
    "tokens_exponents_big_ids_negative_shifts": {
        "dim": 2, "basis": [[2.0, 0.0], [0.5, 1e-07]],
        "vertices": [{"id": 2 ** 53 + 1, "value": "0.10"}, {"id": -2 ** 62, "value": 1e-07},
                     {"id": 7, "value": 1e22}],
        "edges": [
            {"id": 2 ** 62, "u": 2 ** 53 + 1, "v": -2 ** 62, "value": "0.250", "shift": [-3, 0]},
            {"id": 3, "u": 7, "v": 7, "value": 2e22, "shift": [0, -1]},
            {"id": 4, "u": -2 ** 62, "v": -2 ** 62, "value": 1e+22, "shift": [-2, 5]},
        ],
    },
    # -0.0 and 0.0 are equal values with two texts, and so are a token and its float
    "signed_zeros_and_a_token_beside_its_float": {
        "dim": 2, "basis": [[1.0, 0.0], [0.0, 1.0]],
        "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": -0.0},
                     {"id": 2, "value": "0.10"}, {"id": 3, "value": 0.1}],
        "edges": [
            {"id": 4, "u": 1, "v": 0, "value": -0.0, "shift": [1, 0]},
            {"id": 5, "u": 0, "v": 1, "value": 0.0, "shift": [0, 1]},
            {"id": 6, "u": 2, "v": 3, "value": 0.1, "shift": [0, 0]},
            {"id": 7, "u": 3, "v": 2, "value": "0.10", "shift": [1, 1]},
        ],
    },
}


class TestRecordWriters:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tie_values", [False, True])
    def test_random_graphs_and_their_unrolls(self, dim, tie_values):
        rng = random.Random(1200 + dim)
        for _ in range(8):
            g = random_periodic_graph(rng, dim=dim, n=rng.randint(0, 12), m=rng.randint(0, 24),
                                      shift_range=2, tie_values=tie_values)
            rows = [[rng.randint(1, 2) if r == c else rng.randint(0, 1) * (r > c)
                     for c in range(dim)] for r in range(dim)]
            for h in (g, pgraph.unroll(g, IntMatrix.from_rows(rows))):
                for got, want in _written(h):
                    assert got == want

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        written = _written(parse(EDGE_CASES[name]))
        for got, want in written:
            assert got == want
        graph, tree, code = (got for got, _ in written)
        if name == "empty":
            assert '"vertices": []' in graph and '"beams": []' in tree
            assert code.count('"bars": []') == 3
        elif name.startswith("signed_zeros"):   # and in the det-2 unroll, each cell twice
            h = pgraph.unroll(parse(EDGE_CASES[name]), IntMatrix.from_rows([[2, 0], [0, 1]]))
            unrolled = "".join(pgraph.json_chunks(h))
            assert unrolled == reference(pgraph.serialize(h))
            for text, k in ((graph, 1), (unrolled, 2)):
                assert text.count('"value": -0.0') == text.count('"value": 0.0') == 2 * k
                assert text.count('"value": "0.10"') == text.count('"value": 0.1\n') == 2 * k
        else:
            assert '"value": "0.10"' in graph and str(2 ** 53 + 1) in graph
            assert "-3," in graph and "1e-07" in graph and "1e+22" in graph
            assert '"lattice": []' in tree and '"parent": null' in tree
            assert '"death": null' in tree and '"death": null' in code

    def test_one_value_text_per_distinct_value(self, monkeypatch):
        made = []   # the number of texts of each jsonfmt.floats call
        floats = jsonfmt.floats
        monkeypatch.setattr(jsonfmt, "floats", lambda xs: made.append(len(xs)) or floats(xs))
        h = pgraph.unroll(torus_grid(3), IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
        text = "".join(pgraph.json_chunks(h))
        assert made == [np.unique(h.values.view(np.int64)).size] and made[0] * 8 == h.n + h.m
        assert text == reference(pgraph.serialize(h))
