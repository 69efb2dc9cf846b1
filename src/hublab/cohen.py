"""Set-cover approximation for hub labels: per-center densest subgraphs chosen
greedily, with a peeling 2-approximation or the exact enumerator.

The selection loop is :func:`hublab.greedy._select`; this module supplies the
step that picks a center and its densest subgraph.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .centers import CenterGraph, CoverageState, EmptyCenterGraphError
from .graphs import DistMatrix, TooLargeError
from .greedy import RunTrace, _select
from .labeling import Labeling

# Subsets an exact run may enumerate over the exact_mds calls it makes. vc-dir
# on the 5-cycle, the largest exact run in the tests and the benchmark, takes
# 164,056 and bad-g k=3 about 844k; one call on 20 side nodes takes 2^20.
EXACT_MDS_SUBSETS = 1 << 22


def mds_peel(cg: CenterGraph):
    """Densest-subgraph 2-approximation (Charikar): peel the side-node form
    (:class:`CenterGraph`), dropping the live node least by (degree,
    vertex id, side), tails on side 0; a node left without edges leaves too.
    A heap with lazy deletion finds each drop, so a peel of k side nodes and m
    edges takes O((k + m) log k). Among equal-density prefixes the largest
    (earliest) is kept; its density is at least half the maximum. Returns
    (sets, density): one vertex set when undirected, (tails, heads) when
    directed.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    nodes, adj, loop = cg.nodes, cg.adj, cg.loop
    deg = [a.bit_count() + lp for a, lp in zip(adj, loop)]
    heap = [(dg, v, side, i) for i, (dg, (side, v)) in enumerate(zip(deg, nodes))]
    heapq.heapify(heap)
    alive = best = (1 << len(nodes)) - 1
    m = best_e = cg.edge_count
    k = best_k = len(nodes)
    while m > 0:
        dg, _, _, drop = heapq.heappop(heap)
        if dg != deg[drop]:  # stale: the node has since lost an edge, or left
            continue
        if dg:  # else an isolated node goes first, outside every prefix
            if m * best_k > best_e * k:
                best, best_e, best_k = alive, m, k
        alive ^= 1 << drop
        k -= 1
        deg[drop] = -1
        nbrs = adj[drop] & alive
        m -= nbrs.bit_count() + loop[drop]
        while nbrs:
            low = nbrs & -nbrs
            j = low.bit_length() - 1
            deg[j] -= 1
            heapq.heappush(heap, (deg[j], nodes[j][1], nodes[j][0], j))
            nbrs ^= low
    return cg.sides(best), Fraction(best_e, best_k)


def run_cohen_hl(d: DistMatrix, pairs=None, exact_mds: bool = False) -> tuple[Labeling, RunTrace]:
    """Greedy set cover for an arbitrary target pair set ``pairs``.

    ``pairs`` is any iterable of ``(u, w)``; ``None`` means every reachable
    pair. Each iteration picks, over all centers v, the (approximately) densest
    subgraph of v's center graph restricted to the uncovered target pairs, adds
    v to the corresponding labels, and removes the newly covered pairs. Ties go
    to the lowest center id. The output covers exactly the target pairs and is
    not hierarchical in general. An exact run raises ``TooLargeError`` (exit 3)
    before the subsets it enumerates in all would pass ``EXACT_MDS_SUBSETS``.

    A center's solve is kept with the count ``engine.edges[v]`` it was made at
    and reused while that count holds. This is exact: a solve is a pure function
    of the center graph, and v's center graph (the uncovered pairs whose
    shortest-path rows hold v) only loses pairs, each lowering ``edges[v]``. So
    every pick is the one an eager re-solve of every center would make.
    """
    if exact_mds:  # only an exact run loads oracles
        from . import oracles

    engine = CoverageState(d, pairs)
    idx = engine.index
    subsets = 0
    solved: dict[int, tuple] = {}  # center -> (edges[v], sets, density) of its last solve

    def step(engine: CoverageState):
        nonlocal subsets
        best = None
        counts = engine.edges.tolist()
        for v in np.flatnonzero(engine.edges).tolist():
            if solved.get(v, (0,))[0] != counts[v]:  # never solved, or at a larger count
                cg = engine.center_graph(v)
                if exact_mds:
                    subsets += 1 << cg.nonisolated_count
                    if subsets > EXACT_MDS_SUBSETS:
                        raise TooLargeError(f"exact MDS needs over {EXACT_MDS_SUBSETS} subsets")
                solved[v] = (counts[v], *(oracles.exact_mds if exact_mds else mds_peel)(cg))
            _, sets, dens = solved[v]
            if best is None or dens > best[0]:
                best = (dens, v, sets)
        dens, v, sets = best
        # An undirected subgraph is one vertex set at both ends of its pairs.
        tails, heads = sets if d.directed else sets * 2
        pids = engine.pairs_through(v)
        inside = np.zeros((2, d.n), bool)  # per side, the vertices of the subgraph
        inside[0, list(tails)] = inside[1, list(heads)] = True
        covered = pids[inside[0, idx.u[pids]] & inside[1, idx.w[pids]]]
        # ``_select`` gives v to the ends of ``covered``, which are the sets: no side node
        # of a densest subgraph is isolated in it. The peel keeps a prefix only on dropping
        # a node of positive degree, the least live one; the exact solver keeps the fewest
        # nodes among equal densities, and an isolated node lowers e/k when e > 0.
        return v, dens, covered, None

    return _select(d, engine, "cohen", step)
