"""Seeded input generators and the input set of each workload.

Every generator builds a graph document (the JSON schema that
`perimere.parse` reads) straight from a `random.Random`, so the inputs
depend only on the seed and never on the code under test.  All graphs have
d = 3 and satisfy the filter property (an edge's value is at least the
values of its endpoints).
"""
from __future__ import annotations

import json
import os
import random

DIM = 3
TWIN_EPS = 1e-3   # largest change of any filter value in a distance twin
COVER_REPS = 2    # the splinters cover is the quotient over diag(2, 1, 1)


def _doc(vertices, edges, diag=(1, 1, 1)):
    basis = [[float(diag[c]) if r == c else 0.0 for r in range(DIM)] for c in range(DIM)]
    return {"dim": DIM, "basis": basis, "vertices": vertices, "edges": edges}


def torus_grid(side: int, rng: random.Random) -> dict:
    """Grid on the 3-torus: side^3 vertices, 3 side^3 edges, shifts in {0, 1}^3."""
    n = side ** DIM
    values = [rng.random() for _ in range(n)]
    vertices = [{"id": i, "value": x} for i, x in enumerate(values)]
    edges = []
    for i in range(n):
        coords = (i // (side * side), (i // side) % side, i % side)
        for a in range(DIM):
            nb = list(coords)
            nb[a] += 1
            shift = [0, 0, 0]
            if nb[a] == side:
                nb[a] = 0
                shift[a] = 1
            j = (nb[0] * side + nb[1]) * side + nb[2]
            edges.append({"id": len(edges), "u": i, "v": j,
                          "value": max(values[i], values[j]) + rng.random(), "shift": shift})
    return _doc(vertices, edges)


def molecular(clusters: int, rng: random.Random, joined: bool = True) -> dict:
    """Disjoint 6-vertex clusters, 12 edges each with shifts in [-2, 2]^3 and
    values below 2, then (if joined) one cross edge per cluster with a value
    in [2, 3).

    Each cluster catenates several times on its own before the cross edges
    merge clusters into a few large components, so the build sees many
    catenations and every era gets bars.
    """
    n = 6 * clusters
    values = [rng.random() for _ in range(n)]
    vertices = [{"id": i, "value": x} for i, x in enumerate(values)]
    edges = []

    def edge(u, v, value, reach):
        edges.append({"id": len(edges), "u": u, "v": v, "value": value,
                      "shift": [rng.randint(-reach, reach) for _ in range(DIM)]})

    for c in range(clusters):
        base = 6 * c
        # a spanning tree of the cluster, then seven more loops
        pairs = [(base + rng.randrange(k), base + k) for k in range(1, 6)]
        pairs += [(base + rng.randrange(6), base + rng.randrange(6)) for _ in range(7)]
        for u, v in pairs:
            edge(u, v, max(values[u], values[v]) + rng.random(), 2)
    for _ in range(clusters if joined else 0):
        edge(rng.randrange(n), rng.randrange(n), 2.0 + rng.random(), 1)
    return _doc(vertices, edges)


def union(docs: list) -> dict:
    """Disjoint union of graphs on the standard lattice; ids are renumbered."""
    vertices, edges = [], []
    for doc in docs:
        dv, de = len(vertices), len(edges)
        vertices += [dict(v, id=v["id"] + dv) for v in doc["vertices"]]
        edges += [dict(e, id=e["id"] + de, u=e["u"] + dv, v=e["v"] + dv) for e in doc["edges"]]
    return _doc(vertices, edges)


def cover(doc: dict, reps: int = COVER_REPS) -> dict:
    """The same periodic graph as `doc`, as its quotient over diag(reps, 1, 1).

    Ids and shifts follow `perimere unroll`: copy c of vertex v has id
    v * reps + c, and an edge leaving copy c with shift t lands on copy
    (c + t0) mod reps with shift ((c + t0) div reps, t1, t2).
    """
    vertices = [{"id": v["id"] * reps + c, "value": v["value"]}
                for v in doc["vertices"] for c in range(reps)]
    edges = []
    for e in doc["edges"]:
        t0, t1, t2 = e["shift"]
        for c in range(reps):
            q, r = divmod(c + t0, reps)
            edges.append({"id": e["id"] * reps + c, "u": e["u"] * reps + c,
                          "v": e["v"] * reps + r, "value": e["value"], "shift": [q, t1, t2]})
    return _doc(vertices, edges, diag=(reps, 1, 1))


def twin(doc: dict, rng: random.Random, eps: float = TWIN_EPS) -> dict:
    """`doc` with every filter value moved by at most eps, filter property kept."""
    vertices = [{"id": v["id"], "value": v["value"] + rng.uniform(-eps, eps)}
                for v in doc["vertices"]]
    value = {v["id"]: v["value"] for v in vertices}
    edges = [dict(e, value=max(e["value"] + rng.uniform(-eps, eps), value[e["u"]], value[e["v"]]))
             for e in doc["edges"]]
    return _doc(vertices, edges, diag=[doc["basis"][c][c] for c in range(DIM)])


GENERATORS = {
    "grid": torus_grid,
    "molecular": molecular,
    # The splinters time of one random component depends on the shape of its
    # merge tree (one 5^3 grid varies by +-25% from seed to seed) and grows
    # faster than linearly with its size, so splinters inputs are many
    # independent components whose times average out: (count, side) grids,
    # or clusters left unjoined.  The sum over 8 grids 4^3 still spread by
    # 0.12 (quartile distance over median) across 10 seeds and over 24 grids
    # 3^3 by 0.09; over 64 grids 2^3 by 0.04.
    "grids": lambda size, rng: union([torus_grid(size[1], rng) for _ in range(size[0])]),
    "clusters": lambda clusters, rng: molecular(clusters, rng, joined=False),
}

# Input family and size for each role.  `main` feeds `barcode` and `tree`,
# `unroll` is unrolled at det 8, `splinters` is checked against its
# diag(2, 1, 1) cover and `distance` is compared with its eps-twin.  Sizes
# keep each operation between about 10 and 500 ms on a 2-core machine, so a
# run takes tens of samples of every operation (short operations repeated
# many times give steadier medians there than long ones repeated a few).
WORKLOADS = {
    # catenation-light: parse, the union-find loop of build, extract and emit
    "grid": {"main": ("grid", 14), "unroll": ("grid", 5),
             "splinters": ("grids", (24, 2)), "distance": ("grid", 3)},
    # catenation-heavy, many components: lattice work inside build, tree JSON
    "molecular": {"main": ("molecular", 300), "unroll": ("molecular", 20),
                  "splinters": ("clusters", 60), "distance": ("molecular", 8)},
    # pgraph as a writer (unroll), splinters at n=768 and transport at k=64
    "supercell": {"main": ("grid", 7), "unroll": ("grid", 7),
                  "splinters": ("grids", (96, 2)), "distance": ("grid", 4)},
}


def _write(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def setup(workload: str, seed: int, directory: str) -> dict:
    """Generate the workload's inputs from `seed` and write them as JSON files.

    Returns {file role: path}; the roles are main, unroll, splinters,
    splinters_cover, distance and distance_twin.
    """
    rng = random.Random(seed)
    spec = WORKLOADS[workload]

    def make(role):
        family, size = spec[role]
        return GENERATORS[family](size, rng)

    paths = {role: os.path.join(directory, f"{role}.json") for role in
             ("main", "unroll", "splinters", "splinters_cover", "distance", "distance_twin")}
    _write(make("main"), paths["main"])
    _write(make("unroll"), paths["unroll"])
    base = make("splinters")
    _write(base, paths["splinters"])
    _write(cover(base), paths["splinters_cover"])
    base = make("distance")
    _write(base, paths["distance"])
    _write(twin(base, rng), paths["distance_twin"])
    return paths
