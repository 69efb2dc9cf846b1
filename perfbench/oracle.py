"""Independent correctness oracle for the benchmark.

Nothing here imports hublab: graphs and label files are parsed from their text
formats, and reference distances come from scipy's Dijkstra.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def read_graph(path):
    """Return (directed, n, {(tail, head): length}) with parallel arcs collapsed to the minimum."""
    directed = n = None
    arcs: dict[tuple[int, int], int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "p":
                directed, n = parts[1] == "directed", int(parts[2])
            elif parts[0] == "a":
                t, h, ln = int(parts[1]), int(parts[2]), int(parts[3])
                if not directed and t > h:
                    t, h = h, t
                if (t, h) not in arcs or ln < arcs[(t, h)]:
                    arcs[(t, h)] = ln
    if n is None:
        raise ValueError(f"{path}: no problem line")
    return directed, n, arcs


def reference_distances(path) -> np.ndarray:
    """All-pairs distances (float64, inf when unreachable) of the graph file at ``path``."""
    directed, n, arcs = read_graph(path)
    rows, cols, data = [], [], []
    for (t, h), ln in arcs.items():
        rows.append(t)
        cols.append(h)
        data.append(float(ln))
        if not directed:
            rows.append(h)
            cols.append(t)
            data.append(float(ln))
    # Explicit zeros stay edges in scipy's sparse csgraph input.
    adj = csr_matrix((data, (rows, cols)), shape=(n, n))
    return dijkstra(adj, directed=True)


def degree_order(path) -> list[int]:
    """Vertices by descending degree (in + out for directed graphs), ties by id."""
    _, n, arcs = read_graph(path)
    deg = [0] * n
    for t, h in arcs:
        deg[t] += 1
        deg[h] += 1
    return sorted(range(n), key=lambda v: (-deg[v], v))


def read_labels(path):
    """Return (directed, fwd, bwd): per-vertex lists of (hub, dist); bwd is fwd when undirected."""
    sides: dict[str, dict[int, list[tuple[int, int]]]] = {"f": {}, "b": {}, "l": {}}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            entries = []
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                entries.append((int(h), int(dd)))
            sides[parts[0]][int(parts[1])] = entries
    if sides["l"]:
        und = sides["l"]
        fwd = [und[v] for v in range(len(und))]
        return False, fwd, fwd
    f, b = sides["f"], sides["b"]
    return True, [f[v] for v in range(len(f))], [b[v] for v in range(len(b))]


def label_counts(path) -> tuple[int, int]:
    """(total entries, largest single label list); undirected lists count once."""
    directed, fwd, bwd = read_labels(path)
    lists = fwd + bwd if directed else fwd
    return sum(len(x) for x in lists), max((len(x) for x in lists), default=0)


def label_errors(path, ref: np.ndarray) -> int:
    """Stored hub distances that differ from ``ref``, plus pairs whose label answer
    (min over common hubs, inf if none) differs from the reference distance."""
    directed, fwd, bwd = read_labels(path)
    n = ref.shape[0]
    if len(fwd) != n or len(bwd) != n:
        raise ValueError(f"{path}: {len(fwd)} label lists for {n} vertices")
    wrong = sum(dd != ref[v, h] for v, entries in enumerate(fwd) for h, dd in entries)
    if directed:
        wrong += sum(dd != ref[h, v] for v, entries in enumerate(bwd) for h, dd in entries)
    back = np.full((n, n), np.inf)  # back[h, t] = stored d(h, t)
    for t, entries in enumerate(bwd):
        for h, dd in entries:
            back[h, t] = dd
    got = np.full((n, n), np.inf)
    for s, entries in enumerate(fwd):
        if entries:
            hubs = np.fromiter((h for h, _ in entries), dtype=np.int64, count=len(entries))
            dist = np.fromiter((dd for _, dd in entries), dtype=np.float64, count=len(entries))
            got[s] = (dist[:, None] + back[hubs]).min(axis=0)
    return int(wrong) + int(np.count_nonzero(got != ref))
