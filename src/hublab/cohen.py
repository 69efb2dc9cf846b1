"""Set-cover approximation for hub labels: per-center densest subgraphs chosen
greedily, with a peeling 2-approximation or the exact enumerator.

The selection loop is :func:`hublab.greedy._select`; this module supplies the
step that picks a center and its densest subgraph.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .centers import CenterGraph, CoverageState, EmptyCenterGraphError
from .graphs import DistMatrix, TooLargeError
from .greedy import RunTrace, _select
from .labeling import Labeling

# Subsets an exact run may enumerate over all its exact_mds calls. vc-dir on
# the 5-cycle, the largest exact run in the tests and the benchmark, takes about
# 168k and bad-g k=3 about 844k; one call on 20 side nodes takes 2^20.
EXACT_MDS_SUBSETS = 1 << 22


def mds_peel(cg: CenterGraph):
    """Densest-subgraph 2-approximation (Charikar): peel the side-node form
    (:meth:`CenterGraph.side_nodes`), dropping the live node least by (degree,
    vertex id, side), tails on side 0; a node left without edges leaves too.
    Each drop scans every node, so a peel is quadratic. Among equal-density
    prefixes the largest (earliest) is kept; its density is at least half the
    maximum. Returns (sets, density): one vertex set when undirected, (tails,
    heads) when directed.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    nodes, adj, loop = cg.side_nodes()
    by_id = sorted(range(len(nodes)), key=lambda i: nodes[i][::-1])
    deg = [a.bit_count() + lp for a, lp in zip(adj, loop)]
    alive = best = (1 << len(nodes)) - 1
    m = best_e = (sum(deg) + sum(loop)) // 2  # distinct edges: two ends each, a loop one
    best_k, dead = len(nodes), len(nodes) + 1  # dead: above any live degree
    while m > 0:
        drop = min(by_id, key=deg.__getitem__)
        if deg[drop]:  # else an isolated node goes first, outside every prefix
            k = alive.bit_count()
            if m * best_k > best_e * k:
                best, best_e, best_k = alive, m, k
        alive ^= 1 << drop
        deg[drop] = dead
        nbrs = adj[drop] & alive
        m -= nbrs.bit_count() + loop[drop]
        while nbrs:
            low = nbrs & -nbrs
            deg[low.bit_length() - 1] -= 1
            nbrs ^= low
    return cg.sides(nodes, best), Fraction(best_e, best_k)


def run_cohen_hl(d: DistMatrix, pairs=None, exact_mds: bool = False) -> tuple[Labeling, RunTrace]:
    """Greedy set cover for an arbitrary target pair set ``pairs``.

    ``pairs`` is any iterable of ``(u, w)``; ``None`` means every reachable
    pair. Each iteration picks, over all centers v, the (approximately) densest
    subgraph of v's center graph restricted to the uncovered target pairs, adds
    v to the corresponding labels, and removes the newly covered pairs. Ties go
    to the lowest center id. The output covers exactly the target pairs and is
    not hierarchical in general. An exact run raises ``TooLargeError`` (exit 3)
    before the subsets it enumerates in all would pass ``EXACT_MDS_SUBSETS``.
    """
    from . import oracles  # local import; oracles also serves other callers

    engine = CoverageState(d, pairs)
    idx = engine.index
    subsets = 0

    def step(engine: CoverageState):
        nonlocal subsets
        best = None
        for v in np.flatnonzero(engine.edges).tolist():
            cg = engine.center_graph(v)
            if exact_mds:
                subsets += 1 << cg.nonisolated_count
                if subsets > EXACT_MDS_SUBSETS:
                    raise TooLargeError(f"exact MDS needs over {EXACT_MDS_SUBSETS} subsets")
            sets, dens = (oracles.exact_mds if exact_mds else mds_peel)(cg)
            if best is None or dens > best[0]:
                best = (dens, v, sets)
        dens, v, sets = best
        # An undirected subgraph is one vertex set at both ends of its pairs;
        # its receivers are all tails (bwd is fwd).
        tails, heads = sets if d.directed else sets * 2
        pids = engine.pairs_through(v)
        covered = pids[np.isin(idx.u[pids], list(tails)) & np.isin(idx.w[pids], list(heads))]
        rec_b = tuple(sorted(heads)) if d.directed else ()
        return v, dens, tuple(sorted(tails)), rec_b, covered, None

    return _select(d, engine, "cohen", step)
