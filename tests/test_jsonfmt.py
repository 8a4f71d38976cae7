"""The indent-2 sorted-key writer against `json.dumps(indent=2, sort_keys=True)`."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimere import jsonfmt


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


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
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(obj=DOCS)
    def test_same_text(self, obj):
        assert jsonfmt.dumps(obj) == reference(obj)

    def test_empty_and_nested_containers(self):
        for obj in ({}, [], (), [[]], {"a": {}}, [{}, []], {"k": [[1], [], {"x": ()}]},
                    [{"b": 1, "a": [2.5, None]}, {"a": 1, "b": 2}], {"é": {"\n": [True]}}):
            assert jsonfmt.dumps(obj) == reference(obj)

    @pytest.mark.parametrize("obj", [
        {1: 2}, {"a": {None: 1}}, [set()], {"a": b"x"}, object(), [1, [2, {3}]], {"a": 1j},
    ])
    def test_rejects_what_the_writer_does_not_handle(self, obj):
        with pytest.raises(TypeError):
            jsonfmt.dumps(obj)
