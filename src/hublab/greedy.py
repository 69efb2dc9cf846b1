"""Greedy hierarchical-labeling algorithms: most-edges, highest-density, and
level-weighted selection over center graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .centers import NEG_INF_LEVEL, CoverageState
from .graphs import DistMatrix
from .labeling import Labeling, Order


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
    candidate_stats: dict | None = None
    uncovered_pairs_before: tuple | None = None

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


# Each picker returns the best center and its score; candidates are the centers
# with an edge (a selected center has none left) and ties go to the lowest id.


def _pick_edges(engine: CoverageState) -> tuple[int, int]:
    v = int(np.argmax(engine.edges))
    return v, int(engine.edges[v])


def _pick_density(engine: CoverageState) -> tuple[int, Fraction]:
    cand = np.flatnonzero(engine.edges)
    e, k = engine.edges[cand], engine.noniso[cand]
    best = int(np.argmax(e / k))
    while True:
        # Exact in int64 (e <= n^2 and k <= 2n). A positive entry is strictly
        # denser than ``best``; once none is, argmax finds the first tie.
        diff = e * k[best] - e[best] * k
        nxt = int(np.argmax(diff))
        if diff[nxt] == 0:
            return int(cand[nxt]), Fraction(int(e[nxt]), int(k[nxt]))
        best = nxt


def _pick_profile(engine: CoverageState) -> tuple[int, tuple[int, ...]]:
    cand = np.flatnonzero(engine.edges)
    for col in engine.lvl_counts.T[::-1]:
        here = col[cand]
        cand = cand[here == here.max()]
    v = int(cand[0])
    return v, engine.profile_key(v)


_PICKERS = {"g-hhl": _pick_edges, "w-hhl": _pick_density, "d-hhl": _pick_profile}


def _run_hierarchical(
    d: DistMatrix, algo: str, record_candidates: bool
) -> tuple[Order, Labeling, RunTrace]:
    pick = _PICKERS[algo]
    engine = CoverageState(d)
    n = d.n
    m = d.matrix
    chosen: list[int] = []
    chosen_mask = [False] * n
    fwd: list[dict[int, int]] = [dict() for _ in range(n)]
    bwd: list[dict[int, int]] = [dict() for _ in range(n)] if d.directed else fwd

    trace = RunTrace(algo, d.directed, n)
    while engine.uncovered_count:
        level = engine.max_uncovered_level() if algo == "d-hhl" else None
        best_v, best_score = pick(engine)
        stats = None
        if record_candidates:
            stats = {
                v: (engine.edge_count(v), engine.nonisolated_count(v))
                for v in np.flatnonzero(engine.edges).tolist()
            }
        tails, heads = engine.receivers(best_v)
        for u in tails:
            fwd[u][best_v] = int(m[u, best_v])
        for w in heads:
            bwd[w][best_v] = int(m[best_v, w])
        before = engine.uncovered_count
        covered = engine.cover_center(best_v)
        chosen.append(best_v)
        chosen_mask[best_v] = True
        trace.iterations.append(
            IterationRecord(
                vertex=best_v,
                score=best_score,
                covered=len(covered),
                uncovered_before=before,
                uncovered_after=engine.uncovered_count,
                receivers_fwd=tails,
                receivers_bwd=heads,
                level=level,
                candidate_stats=stats,
            )
        )
    # Every vertex is selected while its own pair is uncovered, so this is a
    # no-op in practice; kept so partial pair sets cannot break the order.
    chosen.extend(v for v in range(n) if not chosen_mask[v])
    order = Order.from_sequence(chosen)
    trace.order = order
    labeling = Labeling(True, n, fwd, bwd) if d.directed else Labeling(False, n, fwd)
    return order, labeling, trace


def run_g_hhl(d: DistMatrix, record_candidates: bool = False):
    """Greedy selection by most center-graph edges; ties go to the lowest id."""
    return _run_hierarchical(d, "g-hhl", record_candidates)


def run_w_hhl(d: DistMatrix, record_candidates: bool = False):
    """Greedy selection by highest center-graph density (exact rationals)."""
    return _run_hierarchical(d, "w-hhl", record_candidates)


def run_d_hhl(d: DistMatrix, record_candidates: bool = False):
    """Greedy selection by level profile, compared lexicographically from the top level.

    Equivalent to maximizing the total pair weight n^(2*level) without ever
    materializing the big integers.
    """
    return _run_hierarchical(d, "d-hhl", record_candidates)


def vertex_levels(trace: RunTrace) -> dict[int, int | float]:
    """Level of each selected vertex: the maximum uncovered pair level at its turn."""
    if trace.algo != "d-hhl":
        raise TraceNotFromDHHLError(f"trace is from {trace.algo!r}")
    return {rec.vertex: rec.level for rec in trace.iterations}
