"""Greedy hierarchical-labeling algorithms (most-edges, highest-density, and
level-weighted selection over center graphs) and the d-HHL trace readers.

This module owns the selection loop (``_select``) that these algorithms share
with the set-cover runner in :mod:`hublab.cohen`; each supplies only its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .centers import NEG_INF_LEVEL, CoverageState
from .graphs import DistMatrix
from .labeling import Labeling, Order, hub_labeling

if TYPE_CHECKING:  # ``_pick_density`` imports it when it runs
    from fractions import Fraction


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
        def enc_score(s):  # d-HHL's tuple, g-HHL's int, else w-HHL's or Cohen's Fraction
            if isinstance(s, tuple):
                return list(s)
            if isinstance(s, int):
                return s
            return f"{s.numerator}/{s.denominator}"

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

    ``step(engine)`` returns ``(center, score, pair ids, level)``. The given
    still-uncovered pairs are covered, the center becomes a forward hub of
    each of their tails and a backward hub of each of their heads (undirected,
    every end is a tail: ``engine.receivers``), and the step is recorded.

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
        v, score, pids, level = step(engine)
        if not len(pids):
            raise AssertionError(f"center {v} covers no uncovered pair")
        # In the tail the one pair through v is v's own.
        if tail and (v, len(pids)) != (np.flatnonzero(engine.edges)[0], 1):
            raise AssertionError(f"tail step at {v} is not the lowest center taking its own pair")
        before = engine.uncovered_count
        engine.cover_pairs(pids)
        after = engine.uncovered_count
        trace.iterations.append(
            IterationRecord(v, score, len(pids), before, after, *engine.receivers(pids), level)
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
    from fractions import Fraction  # here, so that g- and d-HHL builds never load it

    cand = np.flatnonzero(engine.edges)
    e, k = engine.edges[cand], engine.noniso[cand]
    # The float argmax is the exact one. e <= n^2 (pairs through v) and 1 <= k <= 2n
    # (uncovered pairs at v's ends), so two distinct densities differ by at least
    # 1/(k k'), more than the rounding of both quotients (each within e/k * 2^-53)
    # while max(k, k') n^2 < 2^52, so while n^3 < 2^51: n < 2^17, above MAX_VERTICES.
    # Equal densities round alike and argmax takes the first: ties go to the lowest id.
    best = int(np.argmax(e / k))
    return int(cand[best]), Fraction(int(e[best]), int(k[best])), None


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
        return v, score, engine.pairs_through(v), level

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


@dataclass(frozen=True)
class DhhlLevelAudit:
    """Per-vertex, per-level hub counts of a distance-greedy run."""

    per_vertex_level: dict[int, dict[int | float, int]]
    label_sizes: dict[int, int]
    max_level_count: int
    bound_ratio: float


def audit_dhhl_levels(trace: RunTrace, h: int) -> DhhlLevelAudit:
    """Count, per vertex, the hubs contributed at each selection level.

    ``h`` is the highway dimension used to scale the reported ratio
    max_count / (h * log2(n + 1)); a ratio of infinity is reported when h = 0.
    """
    if trace.algo != "d-hhl":
        raise TraceNotFromDHHLError(f"trace is from {trace.algo!r}")
    per: dict[int, dict[int | float, int]] = {v: {} for v in range(trace.n)}
    sizes: dict[int, int] = {v: 0 for v in range(trace.n)}
    for rec in trace.iterations:
        for u in rec.receivers_fwd + rec.receivers_bwd:
            per[u][rec.level] = per[u].get(rec.level, 0) + 1
            sizes[u] += 1
    max_count = max((c for counts in per.values() for c in counts.values()), default=0)
    denom = h * math.log2(trace.n + 1)
    ratio = max_count / denom if denom > 0 else math.inf
    return DhhlLevelAudit(per, sizes, max_count, ratio)
