"""The benchmark's pinned outputs, checked with the tests: per workload, the
seed-0 inputs of `perfbench/inputs.py`, the five operations of
`perfbench/ops.py` once each with their checks, and the four CLI output
digests against `perfbench/pins.json`.  The benchmark's files are only
imported and read, so a change of output bytes fails here as it would in a
benchmark run."""
import importlib.util
import json
import pathlib

import pytest

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
