"""Span tracer for the traced run.

`Tracer.install` rebinds the public functions of each perimere module, on
every module that holds them, to wrappers that record a span (name, start,
end, parent) in memory; `uninstall` puts the originals back.  Calls that
`lattice` makes to itself (member -> solve) stay untraced, so lattice
counters count the calls the other layers make.  A few wrappers also keep
one value per span (beam counts, bar counts, support sizes) for the
per-layer counters.  Nothing in the program's source is changed.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array

import perimere
from perimere import barcode, cli, lattice, mergetree, pgraph, transport

LAYERS = {"cli": cli, "pgraph": pgraph, "mergetree": mergetree, "lattice": lattice,
          "barcode": barcode, "transport": transport}

TRACED = {
    "cli": ("main",),
    "pgraph": ("parse", "unroll", "serialize", "cellular_l1"),
    "mergetree": ("build", "splinters"),
    "barcode": ("extract", "equals", "to_csv", "to_json_dict"),
    "transport": ("barcode_distance", "w1_alt", "multiplicity_bound"),
    "lattice": ("hnf_reduce", "hnf_transform", "lattice_sum", "volume", "member", "solve",
                "reduce_mod", "coset_reps", "unit_ball_volume"),
}

# namespaces whose bindings are replaced; lattice is left out on purpose
NAMESPACES = (perimere, cli, pgraph, mergetree, barcode, transport)


def _catenations(tree):
    return sum(1 for ev in tree.events if ev.kind == "catenation")


# span name -> value kept for the span, computed after its end time is taken
HOOKS = {
    "mergetree.build": lambda res, args: (len(res.beams), len(res.events), _catenations(res)),
    "mergetree.splinters": lambda res, args: len(args[0].beams),
    "lattice.member": lambda res, args: res,
    "lattice.hnf_reduce": lambda res, args: res.magnitude(),
    "barcode.extract": lambda res, args: tuple(len(era) for era in res.eras),
    "transport.w1_alt": lambda res, args: max(len(args[0]), len(args[1])),
}

# per-layer metric -> span whose inclusive time it sums
TIMED_SPANS = {
    "pgraph.parse_s": "pgraph.parse",
    "pgraph.unroll_s": "pgraph.unroll",
    "pgraph.serialize_s": "pgraph.serialize",
    "mergetree.build_s": "mergetree.build",
    "mergetree.to_json_dict_s": "mergetree.to_json_dict",
    "mergetree.splinters_s": "mergetree.splinters",
    "lattice.hnf_reduce_s": "lattice.hnf_reduce",
    "lattice.volume_s": "lattice.volume",
    "barcode.extract_s": "barcode.extract",
    "barcode.emit_s": "barcode.to_csv",
}

# per-layer metric -> span whose calls it counts
COUNTED_SPANS = {
    "lattice.hnf_reduce_calls": "lattice.hnf_reduce",
    "lattice.volume_calls": "lattice.volume",
    "lattice.member_calls": "lattice.member",
    "lattice.reduce_mod_calls": "lattice.reduce_mod",
    "lattice.solve_calls": "lattice.solve",
}

ERAS = 4   # d + 1 for the d = 3 workloads


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value: dict[int, object] = {}
        self._stack = [-1]
        self._undo: list = []
        self.t0 = time.perf_counter()

    def __len__(self):
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                self.value[i] = hook(res, args)
            return res

        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, attrs in TRACED.items():
            module = LAYERS[layer]
            for attr in attrs:
                orig = getattr(module, attr)
                new = self._wrap(f"{layer}.{attr}", orig)
                for ns in NAMESPACES:
                    if getattr(ns, attr, None) is orig:
                        self._rebind(ns, attr, new)
        cls = mergetree.PeriodicMergeTree
        self._rebind(cls, "to_json_dict", self._wrap("mergetree.to_json_dict", cls.to_json_dict))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of the spans with index in [lo, hi)."""
        names = [self.names[k] for k in self.name[lo:hi]]
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for k in range(hi - lo):
            p = self.parent[lo + k]
            if p >= lo:
                child[p - lo] += dur[k]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        for k, name in enumerate(names):
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += dur[k] - child[k]
            incl[name] = incl.get(name, 0.0) + dur[k]
            calls[name] = calls.get(name, 0) + 1
        for metric, name in TIMED_SPANS.items():
            out[metric] = incl.get(name, 0.0)
        for metric, name in COUNTED_SPANS.items():
            out[metric] = calls.get(name, 0)

        vals = [(names[i - lo], v) for i, v in self.value.items() if lo <= i < hi]
        member = [v for n, v in vals if n == "lattice.member"]
        out["lattice.member_true_ratio"] = sum(member) / len(member) if member else 0.0
        out["lattice.max_hnf_entry"] = max((v for n, v in vals if n == "lattice.hnf_reduce"),
                                           default=0)
        builds = [v for n, v in vals if n == "mergetree.build"]
        for j, key in enumerate(("beams", "events", "catenations")):
            out[f"mergetree.{key}"] = sum(b[j] for b in builds)
        out["mergetree.splinters_beams"] = sum(v for n, v in vals if n == "mergetree.splinters")
        bars = [v for n, v in vals if n == "barcode.extract"]
        for e in range(ERAS):
            out[f"barcode.bars.era{e}"] = sum(b[e] for b in bars if e < len(b))
            out[f"transport.w1_alt_s.era{e}"] = 0.0
            out[f"transport.support_k.era{e}"] = 0
        # barcode_distance calls w1_alt once per era, in era order
        seen: dict[int, int] = {}
        for k, name in enumerate(names):
            if name == "transport.w1_alt":
                p = self.parent[lo + k]
                era = seen.get(p, 0)
                seen[p] = era + 1
                if era < ERAS:
                    out[f"transport.w1_alt_s.era{era}"] += dur[k]
                    out[f"transport.support_k.era{era}"] += self.value[lo + k]
        out["trace.spans"] = hi - lo
        return out

    def write(self, path: str) -> None:
        """All spans as CSV; times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s,value\n")
            for i in range(len(self.name)):
                v = self.value.get(i, "")
                if isinstance(v, tuple):
                    v = " ".join(map(str, v))
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i] - self.t0:.9f},{self.end[i] - self.t0:.9f},{v}\n")
