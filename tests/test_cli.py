import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimere import build, extract, jsonfmt, parse, serialize, unroll
from perimere.barcode import to_json_dict
from perimere.cli import main, parse_sublattice
from perimere.synthetic import random_periodic_graph

from .conftest import FIXTURE_DIR, fig3_left_doc, helix_cross_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_helix_summary(self, capsys, fixture_paths):
        _, helix = fixture_paths
        code, out, _ = run(capsys, "validate", str(helix))
        assert code == 0
        assert out == "n=5 m=8 D=1 connected\n"

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "error" in err

    def test_filter_violation_named(self, capsys, tmp_path, fixture_paths):
        doc = json.loads(fixture_paths[0].read_text())
        doc["edges"][0]["value"] = 0.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "edge 10" in err and "filter" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 1

    def test_unimodular_integer_basis(self, capsys, tmp_path):
        # det -1 and condition number 5.6e4: numpy's inverse misses the
        # identity by more than 1e-12, the exact adjugate does not
        doc = {"dim": 2, "basis": [[-79, -207], [29, 76]],
               "vertices": [{"id": 0, "value": 0.0}],
               "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [1, 0]}]}
        p = tmp_path / "unimodular.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out, err) == (0, "n=1 m=1 D=1 connected\n", "")
        code, out, _ = run(capsys, "barcode", str(p))
        assert code == 0
        bars = {era["exp"]: era["bars"] for era in json.loads(out)["eras"]}
        assert bars[2] == [{"birth": 0.0, "death": 1.0, "mult": 1.0}]
        assert bars[1][1]["mult"] == math.sqrt(79 ** 2 + 207 ** 2)   # the loop vector U.e1


def assert_one_error_line(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


class TestInputErrors:
    def _run_doc(self, capsys, tmp_path, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        return run(capsys, "barcode", str(p), "--csv")

    def test_fractional_shift_rejected(self, capsys, tmp_path):
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [{"id": 0, "value": 0.0}],
               "edges": [{"id": 5, "u": 0, "v": 0, "value": 1.0, "shift": [1.5]}]}
        code, out, err = self._run_doc(capsys, tmp_path, doc)
        assert_one_error_line(code, err)
        assert "edge 5" in err and "shift" in err and out == ""

    def test_record_missing_key_named(self, capsys, tmp_path):
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [{"id": 0, "value": 0.0}],
               "edges": [{"id": 5, "u": 0, "value": 1.0, "shift": [1]}]}
        code, _, err = self._run_doc(capsys, tmp_path, doc)
        assert_one_error_line(code, err)
        assert "edge record 0 (id 5)" in err and "lacks v" in err

    @pytest.mark.parametrize("field,value,named", [
        ("vertices", 3, "vertices must be a list"),
        ("vertex id", None, "vertex record 0: id"),
        ("vertex id", 0.5, "vertex record 0: id"),
        ("vertex id", "7", "vertex record 0: id"),
        ("u", 0.5, "edge 5: u"),
        ("u", None, "edge 5: u"),
        ("dim", 1.5, "dim must be an integer"),
        ("dim", None, "dim must be an integer"),
        ("vertex id", 2 ** 63, "vertex record 0: id must fit in a signed 64-bit"),
        ("u", -2 ** 63 - 1, "edge 5 references a missing vertex"),
        ("shift", [True], "edge 5: shift"),
        ("basis", [[True]], "basis entries"),
        ("basis", [["1"]], "basis entries must be finite numbers"),
        ("basis", [["2.5"]], "basis entries must be finite numbers"),
    ])
    def test_scalar_null_and_fractional_fields_rejected(self, capsys, tmp_path, field, value,
                                                        named):
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [{"id": 0, "value": 0.0}],
               "edges": [{"id": 5, "u": 0, "v": 0, "value": 1.0, "shift": [1]}]}
        if field == "vertex id":
            doc["vertices"][0]["id"] = value
        elif field in ("u", "shift"):
            doc["edges"][0][field] = value
        else:
            doc[field] = value
        code, out, err = self._run_doc(capsys, tmp_path, doc)
        assert_one_error_line(code, err)
        assert named in err and out == ""

    @pytest.mark.parametrize("missing", [None, "dim", "basis", "vertices", "edges"])
    def test_root_not_an_object_or_missing_a_key(self, capsys, tmp_path, missing):
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [], "edges": []}
        if missing is None:
            doc, named = [], "root must be a JSON object"
        else:
            del doc[missing]
            named = f"missing required key '{missing}'"
        code, out, err = self._run_doc(capsys, tmp_path, doc)
        assert_one_error_line(code, err)
        assert named in err and out == ""

    @pytest.mark.parametrize("token", [" 1_0 ", "1_000.5", "\uff11\uff10", "\n2\t"])
    def test_value_string_not_a_decimal_rejected(self, capsys, tmp_path, token):
        # float() reads each of these, which validate once accepted and unroll wrote back
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [{"id": 0, "value": 0.0}],
               "edges": [{"id": 5, "u": 0, "v": 0, "value": token, "shift": [1]}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        for argv in (["validate", str(p)], ["unroll", str(p), "--sublattice", "2"]):
            code, out, err = run(capsys, *argv)
            assert_one_error_line(code, err)
            assert f"edge 5: bad decimal string {token!r}" in err and out == ""

    def test_deeply_nested_document_rejected(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "validate", str(p))
        assert_one_error_line(code, err)
        assert "nested too deeply" in err and out == ""

    def test_unroll_past_int64_ids_rejected(self, capsys, tmp_path):
        doc = {"dim": 1, "basis": [[1.0]], "vertices": [{"id": 2 ** 62, "value": 0.0}],
               "edges": [{"id": 5, "u": 2 ** 62, "v": 2 ** 62, "value": 1.0, "shift": [1]}]}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "unroll", str(p), "--sublattice", "2")
        assert_one_error_line(code, err)
        assert "64-bit" in err and out == ""


FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3)), max_size=4))


def _field_paths(node, path=()):
    """Every dict value and list entry below `node`, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


def _run_mutant(doc, path, value, argv):
    """Exit code of `main(argv + [file])` on doc with the entry at `path`
    replaced by value, after checking it is 0 with empty stderr or 1 with one
    error line, and that no warning was raised."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "mutant.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + [p])
    assert code in (0, 1) and not caught
    if code == 1:
        assert_one_error_line(code, err.getvalue())
    else:
        assert err.getvalue() == ""
    return code


# one entry of a shift or a basis column: null, a bool, an integer past
# int64, a fraction or a string
ENTRY_VALUES = st.sampled_from([None, True, False, 2 ** 63, -2 ** 63 - 1, 1.5, "1", "x"])


class TestInputFuzz:
    # one field of a fixture replaced by null, a scalar, a float, a string or
    # a list: validate accepts it or exits 1 with one error line, no traceback
    DOCS = (fig3_left_doc(), helix_cross_doc())
    PATHS = [(i, p) for i, doc in enumerate(DOCS) for p in _field_paths(doc)]
    ENTRY_PATHS = [(i, p) for i, p in PATHS
                   if type(p[-1]) is int and (p[-2] == "shift" or p[0] == "basis")]

    # a basis entry whose float inverse is not finite: the residual of the
    # conditioning check is NaN there, which must be refused without a warning
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(target=st.sampled_from(PATHS), value=FUZZ_VALUES)
    @example(target=(0, ("basis", 0, 0)), value=5e-324)
    @example(target=(0, ("basis", 0, 0)), value=1e-310)
    @example(target=(0, ("basis", 0, 0)), value=2.225073858507203e-309)
    def test_mutated_field_never_escapes(self, target, value):
        doc_index, path = target
        _run_mutant(self.DOCS[doc_index], path, value, ["validate"])

    # barcode, not only validate: an accepted entry must also build
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(target=st.sampled_from(ENTRY_PATHS), value=ENTRY_VALUES)
    def test_mutated_shift_or_basis_entry_never_escapes(self, target, value):
        doc_index, path = target
        code = _run_mutant(self.DOCS[doc_index], path, value, ["barcode", "--csv"])
        # a basis entry is real, a shift entry an integer; neither is a bool or null
        assert code == 1 or (type(value) not in (bool, type(None))
                             and (path[0] == "basis" or value != 1.5))


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("validate", "G", "--tol", "1e-6"),       # removed option
        ("validate", "G", "--seed", "1"),         # removed option
        ("validate", "G", "--frobnicate"),        # unknown option
        ("bench", "--n", "64"),                   # removed command
        ("validate",),                            # missing argument
        ("count-shadows", "G", "--component-at", "8", "--radius", "1",
         "--budget", "x"),                        # bad option value
        ("tree", "G", "--budget", "5"),           # option of count-shadows only
        ("count-shadows", "H", "--component-at", "8", "--radius", "inf"),
        ("count-shadows", "H", "--component-at", "8", "--radius=-inf"),
        ("count-shadows", "H", "--component-at", "8", "--radius", "nan"),
        ("count-shadows", "H", "--component-at", "nan", "--radius", "2"),
        ("count-shadows", "H", "--component-at", "inf", "--radius", "2"),
        ("count-shadows", "H", "--component-at=-inf", "--radius", "2"),
        ("count-shadows", "H", "--component-at", "-100", "--radius", "-5"),  # nothing alive
        ("unroll", "G", "--sublattice", "2"),     # 1x1 sublattice of a 2-d graph
    ])
    def test_usage_error_exits_1_with_one_line(self, capsys, fixture_paths, argv):
        paths = {"G": str(fixture_paths[0]), "H": str(fixture_paths[1])}
        argv = [paths.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, err)
        assert out == ""


class TestTree:
    def test_json_beam_count(self, capsys, fixture_paths):
        _, helix = fixture_paths
        code, out, _ = run(capsys, "tree", str(helix), "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["beams"]) == 5
        root = [b for b in doc["beams"] if b["parent"] is None][0]
        assert [e["start"] for e in root["epochs"]] == [1.0, 12.0, 13.0]
        assert [e["display"] for e in root["epochs"]][1:] == ["2", "1"]

    def test_json_keeps_24_character_time_texts(self, capsys, tmp_path):
        # the writer keeps the birth, death and epoch-start texts in byte
        # columns 24 wide, the longest repr of a double: every time here is
        # that long, a birth, a death and a catenation's start alike
        births = (-1.2345678901234567e-100, -1.2345678901234565e-100)
        loop, merge = -1.2345678901234566e-200, -2.2250738585072014e-308
        assert {len(repr(x)) for x in (*births, loop, merge)} == {24}
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "dim": 1, "basis": [[1.0]],
            "vertices": [{"id": 0, "value": births[0]}, {"id": 1, "value": births[1]}],
            "edges": [{"id": 2, "u": 0, "v": 0, "value": loop, "shift": [1]},
                      {"id": 3, "u": 0, "v": 1, "value": merge, "shift": [0]}]}))
        code, out, _ = run(capsys, "tree", str(p), "--json")
        assert code == 0
        assert out == jsonfmt.dumps(build(parse(str(p))).to_json_dict()) + "\n"
        # a beam's birth, its first epoch's start and its appearance; the
        # catenation's epoch start and time; the death and the merger's time
        assert [out.count(repr(x)) for x in (*births, loop, merge)] == [3, 3, 2, 2]

    def test_dot(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "tree", str(fixture_paths[0]), "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_unrolled_beam_count(self, capsys, tmp_path, fixture_paths):
        rolled = tmp_path / "rolled.json"
        code, out, _ = run(capsys, "unroll", str(fixture_paths[0]),
                           "--sublattice", "2,0;0,1", "--out", str(rolled))
        assert code == 0
        code, out, _ = run(capsys, "tree", str(rolled))
        assert len(json.loads(out)["beams"]) == 4


class TestBarcode:
    def test_csv(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "barcode", str(fixture_paths[0]), "--csv")
        assert code == 0
        assert out.splitlines()[0] == "era,birth,death,mult"
        assert any("inf" in line for line in out.splitlines())

    def test_json(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "barcode", str(fixture_paths[1]), "--json")
        doc = json.loads(out)
        assert [e["exp"] for e in doc["eras"]] == [0, 1, 2, 3]


class TestDistance:
    def test_self_is_zero(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "distance", str(fixture_paths[0]), str(fixture_paths[0]))
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 0.0
        assert len(doc["per_era"]) == 3

    def test_base_vs_unrolled_is_zero(self, capsys, tmp_path, fixture_paths):
        rolled = tmp_path / "r.json"
        run(capsys, "unroll", str(fixture_paths[0]), "--sublattice", "2,0;0,1",
            "--out", str(rolled))
        code, out, _ = run(capsys, "distance", str(fixture_paths[0]), str(rolled))
        assert json.loads(out)["total"] == pytest.approx(0.0, abs=1e-9)

    def test_cost_past_the_float_range_exits_1(self, capsys, tmp_path):
        # one loop at 1e308 against one at 5e307: every finite era distance
        # is 5e307, whose scaled total overflows; "inf" means unequal
        # essential masses, so the run refuses instead
        paths = []
        for h in (1e308, 5e307):
            p = tmp_path / f"{h:g}.json"
            p.write_text(json.dumps({
                "dim": 1, "basis": [[1.0]], "vertices": [{"id": 0, "value": 0.0}],
                "edges": [{"id": 1, "u": 0, "v": 0, "value": h, "shift": [1]}]}))
            paths.append(str(p))
        code, out, err = run(capsys, "distance", *paths)
        assert_one_error_line(code, err)
        assert out == ""


class TestUnroll:
    def test_identity_unroll_barcode_byte_identical(self, capsys, tmp_path, fixture_paths):
        rolled = tmp_path / "id.json"
        run(capsys, "unroll", str(fixture_paths[0]), "--sublattice", "1,0;0,1",
            "--out", str(rolled))
        _, base_out, _ = run(capsys, "barcode", str(fixture_paths[0]), "--csv")
        _, rolled_out, _ = run(capsys, "barcode", str(rolled), "--csv")
        assert base_out == rolled_out

    def test_bad_matrix(self, capsys, fixture_paths):
        code, _, err = run(capsys, "unroll", str(fixture_paths[0]), "--sublattice", "1,1;1,1")
        assert code == 1
        assert "singular" in err


class TestCountShadows:
    def test_diagonal_loop_prediction(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "count-shadows", str(fixture_paths[0]),
                           "--component-at", "8.0", "--radius", "100")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 1
        row = doc["components"][0]
        assert row["predicted"] == pytest.approx(2 * math.sqrt(2) * 100, rel=1e-9)
        assert abs(row["counted"] - row["predicted"]) <= 5

    def test_budget_exit_code(self, capsys, fixture_paths, monkeypatch):
        monkeypatch.setenv("PERIMERE_BUDGET", "50")
        code, _, err = run(capsys, "count-shadows", str(fixture_paths[0]),
                           "--component-at", "8.0", "--radius", "100")
        assert code == 2
        assert "budget" in err

    def test_budget_flag_beats_env(self, capsys, fixture_paths, monkeypatch):
        monkeypatch.setenv("PERIMERE_BUDGET", "50")
        code, out, _ = run(capsys, "count-shadows", str(fixture_paths[0]),
                           "--budget", "1000000", "--component-at", "8.0", "--radius", "100")
        assert code == 0

    @pytest.mark.parametrize("env", ["x", "0"])
    def test_bad_budget_env(self, capsys, fixture_paths, monkeypatch, env):
        monkeypatch.setenv("PERIMERE_BUDGET", env)
        code, out, err = run(capsys, "count-shadows", str(fixture_paths[0]),
                             "--component-at", "8.0", "--radius", "100")
        assert_one_error_line(code, err)
        assert out == ""

    @pytest.mark.parametrize("argv", [("tree", "--json"), ("tree", "--dot"),
                                      ("barcode", "--json"), ("barcode", "--csv")])
    def test_budget_env_ignored_elsewhere(self, capsys, fixture_paths, monkeypatch, argv):
        cmd, fmt = argv
        _, want, _ = run(capsys, cmd, str(fixture_paths[1]), fmt)
        monkeypatch.setenv("PERIMERE_BUDGET", "x")
        code, out, err = run(capsys, cmd, str(fixture_paths[1]), fmt)
        assert (code, out, err) == (0, want, "")

    def test_pivot_beyond_int64(self, capsys, tmp_path):
        # a loop shift of 2^63 gives the HNF [[2^63]]: the 7 points of [-3, 3]
        # lie in 7 distinct cosets
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "dim": 1, "basis": [[1.0]],
            "vertices": [{"id": 0, "value": 0.0}],
            "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [2 ** 63]}],
        }))
        code, out, _ = run(capsys, "count-shadows", str(p), "--component-at", "2", "--radius", "3")
        assert code == 0
        [row] = json.loads(out)["components"]
        assert row["counted"] == 7


class TestOutOfRange:
    # valid inputs whose numbers leave the float range or the id range: one
    # error line and exit 1, never an OverflowError traceback
    @pytest.mark.parametrize("argv", [
        ("count-shadows", "H", "--component-at", "8", "--radius", "1e300"),  # R^3
        ("bounds", "L120"),           # mu0 = (d^2.5 D m ||U^-1||)^d with D = 1e120
        ("barcode", "L400", "--csv"),  # a loop lattice of volume 1e400
        ("unroll", "H", "--sublattice", "1,0,0;0,1,0;0,0,99999999999999999999"),
        ("bounds", "U1e-200"),        # ||U^-1||^2 = 1e400 overflows
        ("bounds", "U1e+300"),        # ||U^-1||^2 = 1e-600 underflows to 0
        # vol_d = 1e-309 is subnormal: 1 / vol_d overflows
        ("tree", "V", "--json"),
        ("barcode", "V", "--csv"),
        ("count-shadows", "V", "--component-at", "0.5", "--radius", "1e-103"),
    ])
    def test_exits_1_with_one_line(self, capsys, tmp_path, fixture_paths, argv):
        paths = {"H": str(fixture_paths[1]), "V": str(tmp_path / "V.json")}
        (tmp_path / "V.json").write_text(json.dumps({
            "dim": 3, "basis": [[1e-103, 0, 0], [0, 1e-103, 0], [0, 0, 1e-103]],
            "vertices": [{"id": 0, "value": 0.0}],
            "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [1, 0, 0]}]}))
        for x in (1e-200, 1e300):
            p = tmp_path / f"U{x:g}.json"
            p.write_text(json.dumps({
                "dim": 1, "basis": [[x]], "vertices": [{"id": 0, "value": 0.0}],
                "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [1]}],
            }))
            paths[f"U{x:g}"] = str(p)
        for e in (120, 400):
            p = tmp_path / f"L{e}.json"
            p.write_text(json.dumps({
                "dim": 3, "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "vertices": [{"id": 0, "value": 0.0}],
                "edges": [{"id": 1, "u": 0, "v": 0, "value": 1.0, "shift": [10 ** e, 0, 0]}],
            }))
            paths[f"L{e}"] = str(p)
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert_one_error_line(code, err)
        assert out == ""

    # R^exp overflows before the count is made: the error names the prediction
    @pytest.mark.parametrize("which,at,radius", [(0, "5", "1e200"), (1, "8", "1e300")])
    def test_predicted_count_past_the_float_range(self, capsys, fixture_paths, which, at,
                                                  radius):
        code, out, err = run(capsys, "count-shadows", str(fixture_paths[which]),
                             "--component-at", at, "--radius", radius)
        assert_one_error_line(code, err)
        assert err == "error: number out of range: predicted count out of float range\n"
        assert out == ""

    @staticmethod
    def _diagonal_loops(tmp_path, x, steps):
        """One vertex on the basis diag(x, x, x), with a loop along steps * e_i
        at height i + 1 for each of the given steps."""
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "dim": 3, "basis": [[x if r == c else 0 for r in range(3)] for c in range(3)],
            "vertices": [{"id": 0, "value": 0.0}],
            "edges": [{"id": i + 1, "u": 0, "v": 0, "value": i + 1.0,
                       "shift": [k if r == i else 0 for r in range(3)]}
                      for i, k in enumerate(steps)]}))
        return p

    def test_gram_determinant_past_the_float_range(self, capsys, tmp_path):
        # diag(1e100): the rank-2 lattice's Gram determinant is about 1e400,
        # past the float range; each era-e coefficient is 1 / 1e100^e,
        # rounded once from the exact value
        p = self._diagonal_loops(tmp_path, 1e100, (1, 1))
        code, out, err = run(capsys, "barcode", str(p), "--csv")
        assert code == 0 and err == ""
        c = [repr(float(1 / Fraction(1e100) ** e)) for e in range(4)]
        assert out.splitlines()[1:] == [
            f"2,0.0,1.0,-{c[2]}", f"3,0.0,1.0,{c[3]}", f"1,0.0,2.0,-{c[1]}", f"2,0.0,2.0,{c[2]}",
            f"1,0.0,inf,{c[1]}"]

    def test_gram_determinant_below_the_float_range(self, capsys, tmp_path):
        # diag(1e-100): the rank-2 lattice's Gram determinant 1e-400 is below
        # the float range; the era-1 bars keep their coefficient 1 / 1e-100
        # and the era-3 bar its 1 / 1e-300, each rounded once
        p = self._diagonal_loops(tmp_path, 1e-100, (1, 1))
        code, out, err = run(capsys, "barcode", str(p), "--csv")
        assert code == 0 and err == ""
        c = [repr(float(1 / Fraction(1e-100) ** e)) for e in range(4)]
        assert c[1] == "1e+100" and c[3] == "9.999999999999999e+299"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        era1 = {(b, d): m for e, b, d, m in rows if e == "1"}
        assert era1 == {("0.0", "2.0"): f"-{c[1]}", ("0.0", "inf"): c[1]}
        assert [m for e, _, _, m in rows if e == "3"] == [c[3]]

    def test_sublattice_volume_past_the_float_range(self, capsys, tmp_path):
        # diag(2^340): the loops 4 e_i span lattices of volume up to
        # 4^3 2^1020, past the float range, yet every coefficient is at most
        # the index 64 of the full-rank one
        p = self._diagonal_loops(tmp_path, 2 ** 340, (4, 4, 4))
        code, out, err = run(capsys, "barcode", str(p), "--csv")
        assert code == 0 and err == ""
        assert [m for e, _, _, m in (line.split(",") for line in out.splitlines()[1:])
                if e == "0"] == ["-64.0", "64.0"]

    @pytest.mark.parametrize("sublattice,ids", [("2", 2 ** 62), (str(2 ** 63), 1)])
    def test_unroll_index_checked_before_enumerating(self, capsys, tmp_path, monkeypatch,
                                                     sublattice, ids):
        def refuse(*ranges):
            raise AssertionError("coset representatives enumerated")

        monkeypatch.setattr("perimere.pgraph.product", refuse)
        p = tmp_path / "g.json"
        p.write_text(json.dumps({
            "dim": 1, "basis": [[1.0]], "vertices": [{"id": ids, "value": 0.0}],
            "edges": [{"id": 5, "u": ids, "v": ids, "value": 1.0, "shift": [1]}]}))
        code, out, err = run(capsys, "unroll", str(p), "--sublattice", sublattice)
        assert_one_error_line(code, err)
        assert "leave the signed 64-bit range" in err and out == ""


class TestBounds:
    def test_helix_bounds(self, capsys, fixture_paths):
        code, out, _ = run(capsys, "bounds", str(fixture_paths[1]))
        doc = json.loads(out)
        assert doc["D"] == 1 and doc["m"] == 8
        assert doc["mu0"] == pytest.approx((3 ** 2.5 * 8) ** 3, rel=1e-12)
        assert doc["stability_constant"] == pytest.approx(8 * (3 ** 2.5 * 8) ** 3, rel=1e-12)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, fixture_paths):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "tree", str(fixture_paths[1]), "--json")
            outs.add(out)
        assert len(outs) == 1
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "barcode", str(fixture_paths[1]), "--csv")
            outs.add(out)
        assert len(outs) == 1


class TestOutFile:
    # the record writers write their documents in chunks, to stdout or to
    # the --out file; both must be the bytes of `dumps` of the dict form
    @pytest.mark.parametrize("argv", [
        ("tree", "--json"), ("barcode", "--json"), ("unroll", "--sublattice", "2,0,0;1,3,0;0,1,1"),
    ])
    def test_out_file_is_stdout(self, capsys, tmp_path, fixture_paths, monkeypatch, argv):
        monkeypatch.setattr("perimere.jsonfmt._BLOCK", 2)
        src = str(fixture_paths[1])
        code, out, _ = run(capsys, argv[0], src, *argv[1:])
        assert code == 0
        path = tmp_path / "out.json"
        code, printed, _ = run(capsys, argv[0], src, *argv[1:], "--out", str(path))
        assert code == 0 and printed == ""
        assert path.read_bytes() == out.encode()
        g = parse(src)
        ref = {"tree": lambda: build(g).to_json_dict(),
               "barcode": lambda: to_json_dict(extract(build(g))),
               "unroll": lambda: serialize(unroll(g, parse_sublattice(argv[2], 3)))}[argv[0]]()
        assert out == jsonfmt.dumps(ref) + "\n"


class TestTreeGolden:
    # sha256 of `tree --json` on tie-heavy random graphs: pins the event order
    # (value, vertices before edges, id, merger before catenation) under ties
    @pytest.mark.parametrize("seed,dim,n,m,digest", [
        (21, 2, 30, 80, "775320f3ac3537daf9edacbbb1324900a791d69500afbd8fd75efb5bb9f306d1"),
        (106, 2, 12, 30, "e445dacbd971c194ad92d62f13145adc72bb2bb1669c16e36b7e0a288d2dffaa"),
        (100, 3, 30, 60, "334c33c985c5758f03e35f3bb7c36f87e906f03bd4b2d18d3f77ad451deb0587"),
    ])
    def test_tied_heights_digest(self, capsys, tmp_path, seed, dim, n, m, digest):
        g = random_periodic_graph(random.Random(seed), dim=dim, n=n, m=m, tie_values=True)
        p = tmp_path / "g.json"
        p.write_text(json.dumps(serialize(g)))
        code, out, _ = run(capsys, "tree", str(p), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUnrollGolden:
    # sha256 of the CLI output on the fixture files: pins the unrolled graph
    # (non-diagonal sublattices), `barcode --json`, `bounds`, `count-shadows`
    # at a time inside a beam, and `distance` between each fixture and its
    # unrolled graph
    CASES = {
        "helix_cross_3d": ("2,0,0;1,3,0;0,1,1", {
            "unroll": "a2debba08e8c8c75835953565d6a1cbe4d24380c1aa1e0dc94a0586b1e60a50d",
            "barcode": "2c13fa027ac053583d03320736c68f0381e2a837df948dd8eafdef8174dbdc8d",
            "distance": "1249d4053f6bc29bf2323fe2c8e7344cdacea14ccaf0d7c15782f45a3aadffc5",
            "bounds": "c83d642742da49bee7b84b75590dd95ab32aa9fab468dba132ed6b5eeb963473",
            "count-shadows": "8982ce5a68ab3a8f496a16e76f1e1e14094db7974950a263754c7bd3052726dd",
        }),
        "diagonal_loop_2d": ("2,1;0,3", {
            "unroll": "61816ff2e185c2c8c7ddd7b0a53a552ec89661029ef43fc8b4ac383d73b201a5",
            "barcode": "e1a4f08e45b93d303ee40c4b9c3231f739324c07d1a9684dc8796aa13bcad0b1",
            "distance": "87dea9a4e6b8096ffa71f19bc65439fa0d2ec10d2658b13920ddf801658d46ec",
            "bounds": "9a9439db90460bba10530ef2733ce5965313fa481fe260d8343746989066c234",
            "count-shadows": "30664e3c156697b64239ee197e804608256100a167153e6794530534ad44a124",
        }),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_digests(self, capsys, tmp_path, name):
        sublattice, digests = self.CASES[name]
        src = str(FIXTURE_DIR / f"{name}.json")
        rolled = str(tmp_path / "unrolled.json")
        outs = {}
        for op, argv in (("unroll", ("unroll", src, "--sublattice", sublattice)),
                         ("barcode", ("barcode", src, "--json")),
                         ("bounds", ("bounds", src)),
                         ("count-shadows", ("count-shadows", src, "--component-at", "6.5",
                                            "--radius", "2"))):
            code, outs[op], _ = run(capsys, *argv)
            assert code == 0
        with open(rolled, "w", encoding="utf-8") as fh:
            fh.write(outs["unroll"])
        code, outs["distance"], _ = run(capsys, "distance", src, rolled)
        assert code == 0
        got = {op: hashlib.sha256(out.encode()).hexdigest() for op, out in outs.items()}
        assert got == digests
