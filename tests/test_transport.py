import math
import random
import warnings

import numpy as np
import pytest

from perimere import (PeriodicGraph, RealBasis, barcode_distance, build, cellular_l1, extract,
                      multiplicity_bound, parse, w1, w1_alt)
from perimere.synthetic import random_periodic_graph
from .conftest import helix_cross_doc
from .oracles import TransportPlan, assignment_w1, oracle_w1

INF = math.inf


def random_mf(rng, max_pts=6, max_mass=4, signed=False, allow_inf=False):
    out = {}
    for _ in range(rng.randint(0, max_pts)):
        b = rng.randint(-4, 6) * 0.5
        if allow_inf and rng.random() < 0.15:
            d = INF
        else:
            d = b + rng.randint(1, 8) * 0.5
        m = rng.randint(1, max_mass)
        if signed and rng.random() < 0.5:
            m = -m
        out[(b, d)] = out.get((b, d), 0) + m
    return {k: float(v) for k, v in out.items() if v}


class TestW1:
    def test_identical_is_zero(self):
        xi = {(1.0, 3.0): 2.0, (0.0, 9.0): 1.5}
        assert w1(xi, dict(xi)) == pytest.approx(0.0, abs=1e-12)

    def test_all_mass_to_diagonal(self):
        assert w1({(1.0, 3.0): 2.0}, {}) == pytest.approx(4.0, abs=1e-9)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            w1({(1.0, 3.0): -1.0}, {})

    def test_diagonal_support_rejected(self):
        with pytest.raises(ValueError):
            w1({(2.0, 2.0): 1.0}, {})

    def test_infinite_mass_mismatch(self):
        assert w1({(1.0, INF): 1.0}, {}) == INF
        assert w1({(1.0, INF): 2.0}, {(1.0, INF): 1.0}) == INF

    def test_equal_essential_totals_stay_finite(self):
        # 2*sqrt(2) against sqrt(2) twice: equal float totals, whose masses
        # rounded one by one to 1e-9 differ by a unit (2828427125 against
        # 2 * 1414213562); the infinite distance is decided before rounding
        r = math.sqrt(2)
        assert 2 * r == r + r
        d = w1({(0.0, INF): 2 * r}, {(0.0, INF): r, (0.5, INF): r})
        assert d == pytest.approx(0.5 * r, abs=1e-9)
        assert w1({(0.0, INF): r, (0.5, INF): r}, {(0.0, INF): 2 * r}) == d
        assert w1({(0.0, INF): 1.0}, {(0.0, INF): 1.0 + 2e-9}) == INF   # apart by over TOL
        assert w1({(0.0, INF): 1.0}, {(0.0, INF): 1.0 + 5e-10}) == 0.0

    def test_infinite_points_pair_by_birth(self):
        assert w1({(1.0, INF): 1.0}, {(4.0, INF): 1.0}) == pytest.approx(3.0)

    def test_against_assignment_oracle(self):
        rng = random.Random(0)
        for _ in range(40):
            xi = random_mf(rng)
            eta = random_mf(rng)
            want = assignment_w1(xi, eta)
            got = w1(xi, eta)
            assert got == pytest.approx(want, abs=1e-7)

    def test_against_assignment_oracle_with_infinite_points(self):
        rng = random.Random(1)
        checked = 0
        while checked < 25:
            xi = random_mf(rng, allow_inf=True)
            eta = random_mf(rng, allow_inf=True)
            want = assignment_w1(xi, eta)
            got = w1(xi, eta)
            checked += 1
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-7)

    def test_plan_marginals_and_cost(self):
        # the plan comes from the earlier solver, which w1 matches bit for bit
        rng = random.Random(2)
        for _ in range(25):
            xi = random_mf(rng)
            eta = random_mf(rng)
            dist, plan = oracle_w1(xi, eta, with_plan=True)
            assert isinstance(plan, TransportPlan)
            assert dist == w1(xi, eta)
            assert plan.cost == pytest.approx(dist, abs=1e-9)
            for x, mass in xi.items():
                got = plan.source_diag.get(x, 0.0) + sum(
                    f for (a, _), f in plan.flows.items() if a == x)
                assert got == pytest.approx(mass, abs=1e-9)
            for y, mass in eta.items():
                got = plan.sink_diag.get(y, 0.0) + sum(
                    f for (_, b), f in plan.flows.items() if b == y)
                assert got == pytest.approx(mass, abs=1e-9)
            recost = sum(f * (abs(a[0] - b[0]) + abs(a[1] - b[1]))
                         for (a, b), f in plan.flows.items())
            recost += sum(f * (x[1] - x[0]) for x, f in plan.source_diag.items())
            recost += sum(f * (y[1] - y[0]) for y, f in plan.sink_diag.items())
            assert recost == pytest.approx(dist, abs=1e-9)

    @pytest.mark.parametrize("xi,eta", [
        ({(0.0, 1e308): 1.0}, {(0.0, 5e307): 1.0}),      # 1e9 * 5e307 in total
        ({(-1e308, 1e308): 1.0}, {}),                     # diagonal cost
        ({(-1e308, 1e308): 1.0}, {(0.0, 1.0): 1.0}),
        ({(-1e308, 1.0): 1.0}, {(1e308, 1.5e308): 1.0}),  # pair cost
        ({(-1e308, INF): 1.0}, {(1e308, INF): 1.0}),      # essential pair cost
    ])
    def test_cost_past_the_float_range_raises(self, xi, eta):
        # inf is reserved for unequal essential masses; an overflowed cost
        # must not read as it, nor as an arc without capacity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                w1(xi, eta)

    def test_cost_below_the_float_limit_is_finite(self):
        # the scaled total is 1e9 times the distance
        assert w1({(0.0, 1e290): 1.0}, {(0.0, 5e289): 1.0}) == pytest.approx(5e289, rel=1e-15)
        assert w1({(-1e290, INF): 1.0}, {(1e290, INF): 1.0}) == pytest.approx(2e290, rel=1e-15)

    def test_mass_shift_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            xi = random_mf(rng)
            eta = random_mf(rng)
            zeta = random_mf(rng, max_pts=4)
            base = w1(xi, eta)
            shifted = w1({**xi, **{k: xi.get(k, 0) + v for k, v in zeta.items()}},
                         {**eta, **{k: eta.get(k, 0) + v for k, v in zeta.items()}})
            assert shifted == pytest.approx(base, abs=1e-7)


class TestW1Alt:
    def test_signed_identical_zero(self):
        xi = {(1.0, 3.0): 2.0, (0.0, 5.0): -1.5}
        assert w1_alt(xi, dict(xi)) == pytest.approx(0.0, abs=1e-12)

    def test_metric_axioms(self):
        rng = random.Random(4)
        for _ in range(60):
            a = random_mf(rng, signed=True)
            b = random_mf(rng, signed=True)
            c = random_mf(rng, signed=True)
            dab = w1_alt(a, b)
            dba = w1_alt(b, a)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab >= -1e-12
            dbc = w1_alt(b, c)
            dac = w1_alt(a, c)
            assert dab + dbc >= dac - 1e-7

    def test_positivity(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_mf(rng, signed=True)
            b = random_mf(rng, signed=True)
            if a == b:
                continue
            assert w1_alt(a, b) > 0

    def test_common_mass_cancellation(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_mf(rng, signed=True)
            b = random_mf(rng, signed=True)
            z = random_mf(rng, signed=True, max_pts=4)
            base = w1_alt(a, b)
            az = dict(a)
            bz = dict(b)
            for k, v in z.items():
                az[k] = az.get(k, 0.0) + v
                bz[k] = bz.get(k, 0.0) + v
            assert w1_alt(az, bz) == pytest.approx(base, abs=1e-7)


class TestBarcodeDistance:
    def test_self_distance_zero(self, helix_cross):
        code = extract(build(helix_cross))
        assert barcode_distance(code, code) == pytest.approx(0.0, abs=1e-12)

    def test_perturbation_within_stability_bound(self, helix_cross):
        rng = random.Random(7)
        base_code = extract(build(helix_cross))
        mu0 = multiplicity_bound(helix_cross)
        const = 2 * (helix_cross.dim + 1) * mu0
        for _ in range(10):
            doc = helix_cross_doc()
            for v in doc["vertices"]:
                v["value"] += rng.uniform(-0.3, 0.3)
            vals = {v["id"]: v["value"] for v in doc["vertices"]}
            for e in doc["edges"]:
                e["value"] = max(e["value"] + rng.uniform(-0.3, 0.3),
                                 vals[e["u"]], vals[e["v"]])
            pert = parse(doc)
            dist = barcode_distance(base_code, extract(build(pert)))
            assert dist <= const * cellular_l1(helix_cross, pert) + 1e-9
            assert math.isfinite(dist)

    def test_per_era_report(self, helix_cross, fig3_left):
        code = extract(build(helix_cross))
        total, eras = barcode_distance(code, code, per_era=True)
        assert len(eras) == 4
        assert total == pytest.approx(sum(eras))
        with pytest.raises(ValueError):
            barcode_distance(code, extract(build(fig3_left)))

    def test_triangle_on_random_barcodes(self):
        rng = random.Random(8)
        from perimere.synthetic import random_periodic_graph
        codes = [extract(build(random_periodic_graph(rng, n=6, m=14))) for _ in range(6)]
        for i in range(len(codes)):
            for j in range(len(codes)):
                for k in range(len(codes)):
                    dij = barcode_distance(codes[i], codes[j])
                    djk = barcode_distance(codes[j], codes[k])
                    dik = barcode_distance(codes[i], codes[k])
                    assert dij + djk >= dik - 1e-7


def _on_basis(g, s, values=None):
    """g on the basis s * I, with its filter values replaced by `values` if given."""
    basis = RealBasis([[s if r == c else 0.0 for r in range(g.dim)] for c in range(g.dim)])
    return PeriodicGraph(g.dim, basis, g.ids, g.values if values is None else values, g.raw,
                         g.u, g.v, g.table, g.which)


class TestSmallMasses:
    # on the basis s * I a bar of era e has s^-e times its mass on I, so its
    # distances are s^-e times as large; masses far below the 1e-9 rounding
    # unit must not be rounded away
    def test_moved_vertex_on_wide_cells(self):
        def code(s, b):
            return extract(build(parse({
                "dim": 1, "basis": [[s]],
                "vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": b}],
                "edges": [{"id": 0, "u": 0, "v": 0, "value": 6.0, "shift": [1]},
                          {"id": 1, "u": 0, "v": 1, "value": 5.0, "shift": [0]}]})))
        for s in (1.0, 1e9, 1e10):
            assert barcode_distance(code(s, 1.0), code(s, 3.0)) * s == pytest.approx(2.0, rel=1e-6)

    def test_eras_scale_with_the_cell(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(12):
            dim = rng.choice((1, 2, 3))
            g = random_periodic_graph(rng, dim=dim, n=rng.randint(2, 7), m=rng.randint(3, 12))
            n = g.n
            values = g.values + np.array([rng.uniform(-0.3, 0.3) for _ in g.values])
            values[n:] = np.maximum(values[n:], np.maximum(values[g.u], values[g.v]))
            _, ref = barcode_distance(extract(build(g)), extract(build(_on_basis(g, 1.0, values))),
                                      per_era=True)
            for s in (1e3, 1e6, 1e9, 1e10):
                _, eras = barcode_distance(extract(build(_on_basis(g, s))),
                                           extract(build(_on_basis(g, s, values))), per_era=True)
                for e, (got, want) in enumerate(zip(eras, ref)):
                    assert got * s ** e == pytest.approx(want, rel=1e-6, abs=1e-12)
                    checked += e > 0 and want > 0
        assert checked > 40


class TestMultiplicityBound:
    def test_helix_formula(self, helix_cross):
        want = (3 ** 2.5 * 1 * 8 * 1.0) ** 3
        assert multiplicity_bound(helix_cross) == pytest.approx(want, rel=1e-12)

    def test_identity_basis_norm(self, helix_cross):
        assert helix_cross.basis.inverse_norm == pytest.approx(1.0, abs=1e-12)

    def test_scaled_basis_norm(self):
        g = parse({"dim": 2, "basis": [[2.0, 0.0], [0.0, 0.5]],
                   "vertices": [{"id": 0, "value": 0.0}],
                   "edges": []})
        assert g.basis.inverse_norm == pytest.approx(2.0, abs=1e-12)

    def test_inverse_norm_above_d8(self):
        import numpy as np
        from perimere.lattice import RealBasis
        rng = random.Random(9)
        d = 9
        cols = [[rng.uniform(-1, 1) + (2.0 if i == j else 0.0) for i in range(d)]
                for j in range(d)]
        basis = RealBasis(cols)
        want = float(np.linalg.svd(np.linalg.inv(basis.matrix), compute_uv=False)[0])
        assert basis.inverse_norm == pytest.approx(want, rel=1e-6)
        # I but for [[0.75, 0.25], [0.25, 0.75]] in the top-left block: the
        # all-ones vector is an eigenvector of the inverse's Gram matrix for
        # its smaller eigenvalue 1, while the largest is 4 (norm 2)
        cols = [[1.0 if i == j else 0.0 for i in range(d)] for j in range(d)]
        cols[0][:2] = [0.75, 0.25]
        cols[1][:2] = [0.25, 0.75]
        assert RealBasis(cols).inverse_norm == pytest.approx(2.0, rel=1e-12)

    def test_refused_basis_raises_on_every_access(self):
        # det = -2^-54 exactly, but numpy's LU meets a zero pivot; only a
        # norm that was computed is kept
        from perimere.lattice import RealBasis
        basis = RealBasis([[3.0, 1.0], [1.0, 1 / 3]])
        for _ in range(2):
            with pytest.raises(ValueError, match="ill-conditioned"):
                basis.inverse_norm


class TestPlanDump:
    def test_plan_json_shape(self):
        dist, plan = oracle_w1({(1.0, 3.0): 2.0, (0.0, math.inf): 1.0},
                               {(1.5, 3.0): 1.0, (2.0, math.inf): 1.0}, with_plan=True)
        doc = plan.to_json_dict()
        assert doc["cost"] == pytest.approx(dist)
        assert {"flows", "source_diagonal", "sink_diagonal", "cost"} == set(doc)
        # infinite deaths serialize as null
        flat = [pt for f in doc["flows"] for pt in (f["from"], f["to"])]
        assert any(p[1] is None for p in flat)
