"""A fixed reference workload that measures how fast the host runs Python now.

On a shared machine the host's speed drifts by tens of percent over seconds
and minutes, and the drift moves every operation of the benchmark together
(CPU time drifts with wall time, so it is not time spent waiting). The
benchmark times one `reference()` call right before every timed operation
call and reports the call's time in units of that reference time, scaled to
seconds by REF_S. The workload is the benchmark's own code, seeded by a
constant and independent of perimere, so no change to the program moves it.
Its mix follows perimere's hot loops: dicts and lists of small tuples, a
binary heap, float arithmetic, sorting and JSON.
"""
from __future__ import annotations

import heapq
import json
import random

# Within the range of the reference's run medians (0.012-0.018 s) on the
# machine the baselines in README.md were measured on: a reported time
# reads as seconds on a host that runs `reference()` in REF_S seconds.
REF_S = 0.015

_rng = random.Random(20240830)
_RECORDS = [{"id": i, "value": _rng.random(), "shift": [_rng.randint(-2, 2) for _ in range(3)]}
            for i in range(2500)]


def reference() -> float:
    """One pass of the fixed workload; returns a checksum so nothing is skipped."""
    heap = []
    sums = {}
    for rec in _RECORDS:
        heapq.heappush(heap, (rec["value"], rec["id"]))
        key = rec["id"] % 97
        sums[key] = sums.get(key, 0.0) + rec["value"] * (rec["shift"][0] - rec["shift"][2])
    total = 0.0
    while heap:
        value, _ = heapq.heappop(heap)
        total += value
    back = json.loads(json.dumps(_RECORDS))
    return total + sum(v for _, v in sorted(sums.items())) + len(back)
