"""Set-cover approximation for hub labels: per-center densest subgraphs chosen
greedily, with a peeling 2-approximation or the exact enumerator.

The selection loop is :func:`hublab.greedy._select`; this module supplies the
step that picks a center and its densest subgraph.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .centers import CenterGraph, CoverageState, EmptyCenterGraphError
from .graphs import DistMatrix
from .greedy import RunTrace, _select
from .labeling import Labeling


def mds_peel(cg: CenterGraph):
    """Densest-subgraph 2-approximation by repeatedly removing a minimum-degree vertex.

    Each removal rescans the live vertices, so a peel is quadratic, not linear.

    Returns (sets, density): one vertex set for undirected center graphs, a
    (tails, heads) pair for directed ones. Among equal-density prefixes the
    largest (earliest) subgraph is kept. The returned density is at least half
    the exact maximum density.
    """
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    # Nodes are (side, v): tails on side 0, heads on side 1 when directed and on
    # side 0 otherwise, where the pair [v, v] becomes a loop on (0, v).
    head_side = 1 if cg.directed else 0
    adj: dict[tuple[int, int], set[tuple[int, int]]] = {}
    loops: set[tuple[int, int]] = set()
    for u, w in cg.arcs:
        a, b = (0, u), (head_side, w)
        if a == b:
            loops.add(a)
            adj.setdefault(a, set())
        else:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    deg = {node: len(nbrs) + (node in loops) for node, nbrs in adj.items()}
    m = cg.edge_count
    best_set: list[tuple[int, int]] = []
    best_dens: Fraction | None = None
    while m > 0:
        alive = [node for node, dv in deg.items() if dv > 0]
        dens = Fraction(m, len(alive))
        if best_dens is None or dens > best_dens:
            best_dens, best_set = dens, alive
        drop = min(alive, key=lambda node: (deg[node], node[1], node[0]))
        for nbr in adj[drop]:
            adj[nbr].discard(drop)
            deg[nbr] -= 1
            m -= 1
        if drop in loops:
            loops.discard(drop)
            m -= 1
        deg[drop] = 0
        adj[drop] = set()
    sides = tuple(frozenset(v for side, v in best_set if side == s) for s in range(head_side + 1))
    return sides, best_dens


def run_cohen_hl(d: DistMatrix, pairs=None, exact_mds: bool = False) -> tuple[Labeling, RunTrace]:
    """Greedy set cover for an arbitrary target pair set ``pairs``.

    ``pairs`` is any iterable of ``(u, w)``; ``None`` means every reachable
    pair. Each iteration picks, over all centers v, the (approximately) densest
    subgraph of v's center graph restricted to the uncovered target pairs, adds
    v to the corresponding labels, and removes the newly covered pairs. Ties go
    to the lowest center id. The output covers exactly the target pairs and is
    not hierarchical in general.
    """
    from . import oracles  # local import; oracles also serves other callers

    engine = CoverageState(d, pairs)
    idx = engine.index

    def step(engine: CoverageState):
        best = None
        for v in np.flatnonzero(engine.edges).tolist():
            cg = engine.center_graph(v)
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
