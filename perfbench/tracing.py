"""In-process spans at hublab's module boundaries, and the per-layer metrics derived from them.

Spans are recorded by replacing module attributes of hublab in this process
only, for the duration of one traced operation; the originals are restored
afterwards. hublab's source is not touched and child processes never trace.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _reachable(d) -> int:
    fin = np.isfinite(d.matrix)
    return int(np.count_nonzero(fin if d.directed else np.triu(fin)))


def _nnz(args, kwargs, engine) -> dict:
    return {"nnz": sum(map(len, engine.pair_path))}


def _membership_bytes(args, kwargs, result) -> dict:
    return {"bytes": args[0].n ** 2 * 8}


def _verified_pairs(args, kwargs, result) -> dict:
    return {"pairs": _reachable(args[1])}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": len(result[2].iterations)}


# (module, attribute path, span name, attributes from (args, kwargs, result)).
# The attributes are computed after the span has ended.
PATCHES = [
    ("hublab.cli", "parse_graph", "graphs.parse", None),
    ("hublab.cli", "all_pairs_distances", "graphs.apsp", lambda a, k, r: {"pairs": _reachable(r)}),
    ("hublab.greedy", "CoverageState", "centers.engine_init", _nnz),
    ("hublab.cohen", "CoverageState", "centers.engine_init", _nnz),
    ("hublab.centers", "CoverageState.center_graph", "centers.center_graph", None),
    ("hublab.centers", "path_membership", "centers.membership", _membership_bytes),
    ("hublab.labeling", "path_membership", "centers.membership", _membership_bytes),
    ("hublab.oracles", "path_membership", "centers.membership", _membership_bytes),
    ("hublab.cli", "run_g_hhl", "greedy.run", _iterations),
    ("hublab.cli", "run_w_hhl", "greedy.run", _iterations),
    ("hublab.cli", "run_d_hhl", "greedy.run", _iterations),
    (
        "hublab.cli",
        "run_cohen_hl",
        "cohen.run",
        lambda a, k, r: {"picks": len(r[1].iterations), "exact": bool(k.get("exact_mds"))},
    ),
    ("hublab.cohen", "mds_peel", "cohen.peel", None),
    ("hublab.oracles", "exact_mds", "oracles.exact_mds", None),
    ("hublab.cli", "optimal_hhl_bruteforce", "oracles.opt_hhl", None),
    ("hublab.cli", "optimal_hl_bnb", "oracles.bnb", lambda a, k, r: {"nodes": r.nodes}),
    ("hublab.cli", "greedy_multiscale_sphs", "highway.msphs", None),
    ("hublab.cli", "sphs_to_hhl", "highway.sphs_to_hhl", None),
    (
        "hublab.highway",
        "enumerate_significant_paths",
        "highway.sigpaths",
        lambda a, k, r: {"count": len(r)},
    ),
    ("hublab.cli", "canonical_hhl", "labeling.canonical", None),
    ("hublab.cli", "verify_cover", "labeling.verify_cover", _verified_pairs),
    ("hublab.cli", "serialize_labeling", "labeling.serialize", lambda a, k, r: {"bytes": len(r)}),
    ("hublab.cli", "parse_labeling", "labeling.parse", None),
    ("hublab.labeling", "parse_labeling", "labeling.parse", None),
]


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, idx, name, parent, op):
        self.idx, self.name, self.parent, self.op = idx, name, parent, op
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "idx": self.idx,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """Keeps every span in memory; a span's ``idx`` is its position in ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(idx, name, self._stack[-1] if self._stack else None, self._op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def operation(self, op_id):
        """Patch hublab for one operation; the root span is named ``op``."""
        patched = []
        try:
            for module, path, name, attrs in PATCHES:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, attrs))
                patched.append((owner, attr, original))
            self._op = op_id
            root = Span(len(self.spans), "op", None, op_id)
            self.spans.append(root)
            self._stack.append(root.idx)
            root.start = time.perf_counter()
            try:
                yield root
            finally:
                root.end = time.perf_counter()
                self._stack.pop()
                self._op = None
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over ``spans`` (one round of operations).

    Self time is a span's duration minus that of its direct children, which
    nest strictly because the process traces one thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def count(name):
        return len(by[name])

    def attr(name, key, pred=None):
        return sum(s.attrs[key] for s in by[name] if pred is None or pred(s))

    peel_calls = count("cohen.peel")
    bnb_s = total("oracles.bnb")
    return {
        "graphs.parse_s": total("graphs.parse"),
        "graphs.apsp_s": total("graphs.apsp"),
        "graphs.reachable_pairs": attr("graphs.apsp", "pairs"),
        "centers.engine_init_s": total("centers.engine_init"),
        "centers.incidence_nnz": attr("centers.engine_init", "nnz"),
        "centers.membership_calls": count("centers.membership"),
        "centers.membership_bytes": attr("centers.membership", "bytes"),
        "centers.center_graph_calls": count("centers.center_graph"),
        "centers.center_graph_s": total("centers.center_graph"),
        "greedy.select_s": sum(s.duration - child_time[s.idx] for s in by["greedy.run"]),
        "greedy.iterations": attr("greedy.run", "iterations"),
        "cohen.peel_calls": peel_calls,
        "cohen.peel_s": total("cohen.peel"),
        "cohen.picks": attr("cohen.run", "picks"),
        "cohen.useful_peel_ratio": (
            attr("cohen.run", "picks", lambda s: not s.attrs["exact"]) / peel_calls
            if peel_calls
            else 0.0
        ),
        "oracles.exact_mds_calls": count("oracles.exact_mds"),
        "oracles.exact_mds_s": total("oracles.exact_mds"),
        "oracles.bnb_nodes": attr("oracles.bnb", "nodes"),
        "oracles.bnb_nodes_per_s": attr("oracles.bnb", "nodes") / bnb_s if bnb_s else 0.0,
        "oracles.opt_hhl_s": total("oracles.opt_hhl"),
        "highway.msphs_s": total("highway.msphs"),
        "highway.sphs_to_hhl_s": total("highway.sphs_to_hhl"),
        "highway.sigpath_calls": count("highway.sigpaths"),
        "highway.sigpaths": attr("highway.sigpaths", "count"),
        "labeling.canonical_s": total("labeling.canonical"),
        "labeling.verify_cover_s": total("labeling.verify_cover"),
        "labeling.verify_pairs": attr("labeling.verify_cover", "pairs"),
        "labeling.serialize_s": total("labeling.serialize"),
        "labeling.parse_s": total("labeling.parse"),
        "labeling.label_bytes": attr("labeling.serialize", "bytes"),
    }


def mean_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Mean over rounds; counts are equal in every round and keep their type."""
    out = {}
    for k in rounds[0]:
        values = [r[k] for r in rounds]
        out[k] = values[0] if len(set(values)) == 1 else sum(values) / len(values)
    return out
