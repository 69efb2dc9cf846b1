"""Set-cover approximation for hub labels: per-center densest subgraphs chosen
greedily, with a peeling 2-approximation or the exact enumerator."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .centers import CenterGraph, CoverageState, EmptyCenterGraphError
from .graphs import DistMatrix
from .greedy import IterationRecord, RunTrace
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
    n = d.n
    m = d.matrix
    fwd: list[dict[int, int]] = [dict() for _ in range(n)]
    bwd: list[dict[int, int]] = [dict() for _ in range(n)] if d.directed else fwd
    trace = RunTrace("cohen", d.directed, n)

    idx = engine.index
    while engine.uncovered_count:
        snapshot = tuple(idx.pairs(np.flatnonzero(engine.uncovered)))
        best = None
        for v in np.flatnonzero(engine.edges).tolist():
            cg = engine.center_graph(v)
            if exact_mds:
                sets, dens = oracles.exact_mds(cg)
            else:
                sets, dens = mds_peel(cg)
            if best is None or dens > best[0]:
                best = (dens, v, sets)
        dens, v, sets = best
        # An undirected subgraph is one vertex set playing both sides (bwd is fwd).
        tails, heads = sets if d.directed else sets * 2
        pids = engine.pairs_through(v)
        covered = pids[np.isin(idx.u[pids], list(tails)) & np.isin(idx.w[pids], list(heads))]
        for u in tails:
            fwd[u].setdefault(v, int(m[u, v]))
        for w in heads:
            bwd[w].setdefault(v, int(m[v, w]))
        rec_f, rec_b = tuple(sorted(tails)), (tuple(sorted(heads)) if d.directed else ())
        if not covered.size:
            raise AssertionError("selected subgraph covers no uncovered pair")
        before = engine.uncovered_count
        engine.cover_pairs(covered)
        trace.iterations.append(
            IterationRecord(
                vertex=v,
                score=dens,
                covered=len(covered),
                uncovered_before=before,
                uncovered_after=engine.uncovered_count,
                receivers_fwd=rec_f,
                receivers_bwd=rec_b,
                uncovered_pairs_before=snapshot,
            )
        )
    labeling = Labeling(True, n, fwd, bwd) if d.directed else Labeling(False, n, fwd)
    return labeling, trace
