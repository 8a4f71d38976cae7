"""Guards on the public surface: the package exports, the names the traced
benchmark run rebinds, and the numpy-only runtime."""
import os
import pathlib
import subprocess
import sys

import perimere

from . import oracles
from .conftest import FIXTURE_DIR

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve():
    missing = [name for name in perimere.__all__ if not hasattr(perimere, name)]
    assert missing == []


def test_tracer_binds_on_current_api():
    # `perfbench/run.py --trace 1` rebinds library functions by name; a
    # deleted or renamed one fails here instead of in the benchmark
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    tracer.install()
    try:
        g = perimere.parse(FIXTURE_DIR / "helix_cross_3d.json")
        t = perimere.build(g)
        code = perimere.extract(t)
        assert perimere.splinters(t, t)
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name}
    assert {"pgraph.parse", "mergetree.build", "barcode.extract", "mergetree.splinters"} <= names
    summary = tracer.summarize(0, len(tracer))
    assert summary["mergetree.beams"] == 5
    assert summary["mergetree.events"] == len(oracles.oracle_build(g).events) == 14
    assert summary["mergetree.splinters_beams"] == 5
    assert [summary[f"barcode.bars.era{e}"] for e in range(4)] == [len(era) for era in code.eras]
    # the fixture catenates, and build reaches the lattice through the traced names
    assert summary["mergetree.catenations"] > 0
    assert summary["lattice.volume_calls"] > 0 and summary["lattice.hnf_reduce_calls"] > 0


def test_cli_imports_numpy_only():
    src = str(pathlib.Path(perimere.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, perimere.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'pytest', 'hypothesis'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
