"""The benchmark's pinned outputs, checked with the tests: per workload, the
seed-0 inputs of `perfbench/inputs.py`, the five operations of
`perfbench/ops.py` once each with their checks, and the four CLI output
digests against `perfbench/pins.json`; and that `parse` reads the inputs
by their record layout.  The benchmark's files are only imported and read,
so a change of output bytes fails here as it would in a benchmark run."""
import importlib.util
import json
import pathlib
import random

import numpy as np
import pytest

from perimere import parse, pgraph

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
PIN_SEED = 0   # the seed perfbench/run.py pins the digests for


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs, ops = _load("inputs"), _load("ops")
PINS = json.loads((PERFBENCH / "pins.json").read_text())


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_outputs_match_the_pins(workload, tmp_path):
    files = inputs.setup(workload, PIN_SEED, str(tmp_path))
    digests = {}
    for op in ops.OPS:
        out = str(tmp_path / f"out-{op}")
        ops.run(op, files, out)
        ops.check(op, files, out)
        digest = ops.digest(op, out)
        if digest is not None:
            digests[op] = digest
    assert digests == PINS[workload]


def _json_decode(data):
    raise AssertionError("a window or the whole document was decoded by json")


@pytest.mark.parametrize("family, size", [("grid", 8), ("molecular", 100)])
def test_inputs_are_read_by_their_layout(family, size, tmp_path, monkeypatch):
    # the benchmark's inputs as `inputs.py` writes them, and the same graph
    # as perimere's graph writer writes it, are read with no window decoded
    # by json: a drift of a writer or of the reader would lose that speed
    doc = inputs.GENERATORS[family](size, random.Random(PIN_SEED))
    want = parse(doc)
    monkeypatch.setattr(pgraph, "_records", _json_decode)
    monkeypatch.setattr(pgraph, "_load", _json_decode)
    paths = tmp_path / "doc.json", tmp_path / "own.json"
    inputs._write(doc, str(paths[0]))
    paths[1].write_text("".join(pgraph.json_chunks(want)), encoding="utf-8")
    for path in paths:
        assert path.stat().st_size > 3 * pgraph._BLOCK
        g = parse(path)
        for name in ("ids", "values", "u", "v", "which"):
            assert np.array_equal(getattr(g, name), getattr(want, name))
        assert g.table == want.table
