"""Greedy hierarchical-labeling algorithms: most-edges, highest-density, and
level-weighted selection over center graphs.

This module owns the selection loop (``_select``) that these algorithms share
with the set-cover runner in :mod:`hublab.cohen`; each supplies only its step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .centers import NEG_INF_LEVEL, CoverageState
from .graphs import DistMatrix
from .labeling import Labeling, Order, hub_labeling


class TraceNotFromDHHLError(ValueError):
    """Level inspection requested on a trace from another algorithm."""


@dataclass(frozen=True)
class IterationRecord:
    """One selection step: the chosen center, its score, and what it changed."""

    vertex: int
    score: object
    covered: int
    uncovered_before: int
    uncovered_after: int
    receivers_fwd: tuple[int, ...]
    receivers_bwd: tuple[int, ...]
    level: object = None

    @property
    def labels_added(self) -> int:
        return len(self.receivers_fwd) + len(self.receivers_bwd)


@dataclass
class RunTrace:
    """Ordered record of a construction run."""

    algo: str
    directed: bool
    n: int
    iterations: list[IterationRecord] = field(default_factory=list)
    order: Order | None = None

    def to_dict(self) -> dict:
        def enc_score(s):
            if isinstance(s, Fraction):
                return f"{s.numerator}/{s.denominator}"
            if isinstance(s, tuple):
                return list(s)
            return s

        def enc_level(lv):
            if lv is None:
                return None
            return "-inf" if lv == NEG_INF_LEVEL else int(lv)

        return {
            "algo": self.algo,
            "directed": self.directed,
            "n": self.n,
            "order": self.order.by_rank() if self.order is not None else None,
            "iterations": [
                {
                    "vertex": rec.vertex,
                    "score": enc_score(rec.score),
                    "covered": rec.covered,
                    "uncovered_before": rec.uncovered_before,
                    "uncovered_after": rec.uncovered_after,
                    "labels_added": rec.labels_added,
                    "level": enc_level(rec.level),
                }
                for rec in self.iterations
            ],
        }


def _select(d: DistMatrix, engine: CoverageState, algo: str, step) -> tuple[Labeling, RunTrace]:
    """Run ``step`` until every pair of ``engine`` is covered; the one selection loop.

    ``step(engine)`` returns ``(center, score, tails, heads, pair ids, level)``.
    The center becomes a forward hub of each tail and a backward hub of each
    head (an undirected step names every receiver a tail), the given
    still-uncovered pairs are covered and the step is recorded.

    Once every uncovered pair's shortest-path row is one vertex, the rest of
    the run is one cover. Such a pair is an own pair [x, x] (any other row
    holds both ends of its pair), so each remaining step takes only its
    center's own pair and changes no other center's counters or center graph:
    every remaining center scores as the first such step's did, and ties go
    to the lowest id. That step still runs (it gives the score and level, and
    Cohen's step solves every candidate); the rest are recorded in id order.
    """
    trace = RunTrace(algo, d.directed, d.n)

    def own(u: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Receivers of a step taking u's own pair: u as a tail, and as a head when directed."""
        return (u,), (u,) if d.directed else ()

    while engine.uncovered_count:
        tail = int(engine.edges.sum()) == engine.uncovered_count
        v, score, tails, heads, pids, level = step(engine)
        if not len(pids):
            raise AssertionError(f"center {v} covers no uncovered pair")
        if tail and (v, len(pids), tails, heads) != (np.flatnonzero(engine.edges)[0], 1, *own(v)):
            raise AssertionError(f"tail step at {v} is not the lowest center taking its own pair")
        before = engine.uncovered_count
        engine.cover_pairs(pids)
        after = engine.uncovered_count
        trace.iterations.append(
            IterationRecord(v, score, len(pids), before, after, tails, heads, level)
        )
        if tail:
            rest = np.flatnonzero(engine.uncovered)  # own pairs, so in ascending vertex order
            engine.cover_pairs(rest)
            trace.iterations += [
                IterationRecord(u, score, 1, after - i, after - i - 1, *own(u), level)
                for i, u in enumerate(engine.index.u[rest].tolist())
            ]
    recs = trace.iterations
    centers = np.array([rec.vertex for rec in recs], np.int64)

    def entries(receivers: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
        """(receiver, hub) entries: each step's center goes to each of its receivers."""
        owners = np.fromiter(chain.from_iterable(receivers), np.int64)
        return owners, np.repeat(centers, [len(r) for r in receivers])

    # An undirected step has no heads, so there is no backward side.
    bwd = entries([rec.receivers_bwd for rec in recs]) if d.directed else None
    return hub_labeling(d, entries([rec.receivers_fwd for rec in recs]), bwd), trace


# Each picker returns the best center, its score and its level (d-HHL only);
# candidates are the centers with an edge (a selected center has none left) and
# ties go to the lowest id.


def _pick_edges(engine: CoverageState) -> tuple[int, int, None]:
    v = int(np.argmax(engine.edges))
    return v, int(engine.edges[v]), None


def _pick_density(engine: CoverageState) -> tuple[int, Fraction, None]:
    cand = np.flatnonzero(engine.edges)
    e, k = engine.edges[cand], engine.noniso[cand]
    best = int(np.argmax(e / k))
    while True:
        # Exact in int64: e <= n^2 and k <= 2n (uncovered pairs at v's ends). A positive
        # entry is strictly denser than ``best``; once none is, argmax finds the first tie.
        diff = e * k[best] - e[best] * k
        nxt = int(np.argmax(diff))
        if diff[nxt] == 0:
            return int(cand[nxt]), Fraction(int(e[nxt]), int(k[nxt])), None
        best = nxt


def _pick_profile(engine: CoverageState) -> tuple[int, tuple[int, ...], int | float]:
    cand = np.flatnonzero(engine.edges)
    for col in engine.lvl_counts.T[::-1]:
        here = col[cand]
        cand = cand[here == here.max()]
    v = int(cand[0])
    # A pair at level L counts at every vertex on its paths and the pick tops
    # every column, so its highest nonzero column is the highest uncovered level.
    live = np.flatnonzero(engine.lvl_counts[v])
    return v, engine.profile_key(v), int(live[-1]) if live.size else NEG_INF_LEVEL


_PICKERS = {"g-hhl": _pick_edges, "w-hhl": _pick_density, "d-hhl": _pick_profile}


def _run_hierarchical(d: DistMatrix, algo: str) -> tuple[Order, Labeling, RunTrace]:
    pick = _PICKERS[algo]

    def step(engine: CoverageState):
        # The picked center takes every uncovered pair through it.
        v, score, level = pick(engine)
        pids = engine.pairs_through(v)
        return (v, score, *engine.receivers(pids), pids, level)

    labeling, trace = _select(d, CoverageState(d), algo, step)
    # A zero-length edge puts u on a shortest path of [v, v], so picking u may
    # cover v's own pair and v is never picked; unpicked vertices go last.
    picked = [rec.vertex for rec in trace.iterations]
    rest = set(range(d.n)).difference(picked)
    trace.order = Order.from_sequence(picked + sorted(rest))
    return trace.order, labeling, trace


def run_g_hhl(d: DistMatrix):
    """Greedy selection by most center-graph edges; ties go to the lowest id."""
    return _run_hierarchical(d, "g-hhl")


def run_w_hhl(d: DistMatrix):
    """Greedy selection by highest center-graph density (exact rationals)."""
    return _run_hierarchical(d, "w-hhl")


def run_d_hhl(d: DistMatrix):
    """Greedy selection by level profile, compared lexicographically from the top level.

    Equivalent to maximizing the total pair weight n^(2*level) without ever
    materializing the big integers.
    """
    return _run_hierarchical(d, "d-hhl")


def vertex_levels(trace: RunTrace) -> dict[int, int | float]:
    """Level of each selected vertex: the maximum uncovered pair level at its turn."""
    if trace.algo != "d-hhl":
        raise TraceNotFromDHHLError(f"trace is from {trace.algo!r}")
    return {rec.vertex: rec.level for rec in trace.iterations}
