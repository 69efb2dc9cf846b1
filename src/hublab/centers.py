"""Center graphs over uncovered vertex pairs: the shortest-path incidence of a
pair set and the incremental coverage engine that drives the selection loop
shared by the greedy algorithms and the set-cover runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DistMatrix, path_membership, unique_pairs

NEG_INF_LEVEL = float("-inf")


class EmptyCenterGraphError(ValueError):
    """Density or subgraph selection requested on a center graph with no edges."""


@dataclass(frozen=True)
class CenterGraph:
    """Uncovered pairs whose shortest paths pass through ``center``.

    Directed center graphs are bipartite (tail side, head side); undirected ones
    live on V and carry a self-loop for the pair [center, center] while uncovered.
    """

    center: int
    directed: bool
    arcs: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.arcs)

    def tails(self) -> set[int]:
        return {u for u, _ in self.arcs}

    def heads(self) -> set[int]:
        return {w for _, w in self.arcs}

    def vertices(self) -> set[int]:
        return {v for arc in self.arcs for v in arc}

    @property
    def nonisolated_count(self) -> int:
        """Distinct incident vertices; the directed case counts side occurrences."""
        if self.directed:
            return len(self.tails()) + len(self.heads())
        return len(self.vertices())

    def side_nodes(self) -> tuple[list[tuple[int, int]], list[int], list[int]]:
        """The graph on side nodes ``(side, v)``: the nodes, and per node an
        adjacency bitmask (bit i stands for node i) and a self-loop flag.

        Undirected: one node (0, v) per non-isolated vertex, in id order, and the
        pair [v, v] is a loop. Directed: the heads (1, w), then the tails (0, u),
        each in id order, so a smaller integer mask is a smaller (tail mask,
        head mask), bit i of those marking the i-th smallest tail (head) id.
        """
        if self.directed:
            nodes = [(1, w) for w in sorted(self.heads())] + [(0, u) for u in sorted(self.tails())]
        else:
            nodes = [(0, v) for v in sorted(self.vertices())]
        at = {node: i for i, node in enumerate(nodes)}
        adj, loop = [0] * len(nodes), [0] * len(nodes)
        for u, w in self.arcs:
            a, b = at[0, u], at[int(self.directed), w]
            if a == b:
                loop[a] = 1
            else:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return nodes, adj, loop

    def sides(self, nodes: list[tuple[int, int]], mask: int) -> tuple[frozenset[int], ...]:
        """Vertices of the side nodes in ``mask``: (members,), or (tails, heads) when directed."""
        picked = [node for i, node in enumerate(nodes) if mask >> i & 1]
        return tuple(frozenset(v for s, v in picked if s == k) for k in range(1 + self.directed))


class PathIndex:
    """Shortest-path incidence of a sorted pair list, held as two CSR views.

    Pair ``p`` is ``(u[p], w[p])`` at ``level[p]`` (floor(log2 dist), -1 for
    dist 0). ``index[p]`` lists the vertices on its shortest paths and
    ``through(v)`` the pairs whose shortest paths pass through ``v``, both
    ascending. Built one source row at a time from the column-restricted
    membership predicate, so no table larger than n x (pairs of one source)
    ever exists. ``pairs`` is any iterable of ``(u, w)`` and defaults to every
    reachable pair. Undirected pairs are put min-first, duplicates dropped and
    the list sorted, as the source grouping requires; ids out of range and
    unreachable pairs raise ``ValueError``.
    """

    def __init__(self, d: DistMatrix, pairs=None):
        into, n = d.exact(), d.n
        if pairs is None:
            us, ws = d.reachable_arrays()
        else:
            uw = np.array([(u, w) for u, w in pairs], dtype=np.int64).reshape(-1, 2)
            out = np.flatnonzero(((uw < 0) | (uw >= n)).any(axis=1))
            if out.size:
                raise ValueError(f"pair ({uw[out[0], 0]},{uw[out[0], 1]}) out of range")
            if not d.directed:
                uw.sort(axis=1)
            us, ws = unique_pairs(*uw.T)
            bad = np.flatnonzero(into[ws, us] == d.unreachable)
            if bad.size:
                u, w = us[bad[0]], ws[bad[0]]
                raise ValueError(f"pair ({u},{w}) is unreachable and can never be covered")
        self.u, self.w = us.astype(np.int32), ws.astype(np.int32)
        self.level = (np.frexp(into[ws, us])[1] - 1).astype(np.int8)
        self.source_ptr = np.searchsorted(self.u, np.arange(n + 1))
        rows, lens = [np.zeros(0, np.int32)], [np.zeros(1, np.int64)]
        for s in self.sources():
            member = path_membership(d, s, self.w[self.source_ptr[s] : self.source_ptr[s + 1]])
            at, vs = np.divmod(np.flatnonzero(member), n)
            lens.append(np.bincount(at, minlength=len(member)))
            rows.append(vs.astype(np.int32))
        self.verts = np.concatenate(rows)
        self.ptr = np.cumsum(np.concatenate(lens))
        owner = np.repeat(np.arange(len(self.u), dtype=np.int32), np.diff(self.ptr))
        # A stable sort on ids of at most 16 bits is a radix sort.
        self.vpairs = owner[np.argsort(self.verts.astype(np.min_scalar_type(n)), kind="stable")]
        self.vptr = np.concatenate(([0], np.cumsum(np.bincount(self.verts, minlength=n))))

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, pid: int) -> np.ndarray:
        return self.verts[self.ptr[pid] : self.ptr[pid + 1]]

    def through(self, v: int) -> np.ndarray:
        return self.vpairs[self.vptr[v] : self.vptr[v + 1]]

    def sources(self) -> list[int]:
        """Vertices that are the first element of at least one pair."""
        return np.flatnonzero(np.diff(self.source_ptr)).tolist()

    def pairs(self, pids) -> list[tuple[int, int]]:
        return list(zip(self.u[pids].tolist(), self.w[pids].tolist()))

    def rows(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vertices of the given pairs' rows, and each entry's position in ``pids``."""
        start = self.ptr[pids]
        lens = self.ptr[pids + 1] - start
        owner = np.repeat(np.arange(len(pids)), lens)
        pos = np.arange(int(lens.sum())) + np.repeat(start - (np.cumsum(lens) - lens), lens)
        return self.verts[pos], owner


class CoverageState:
    """Pair coverage over a :class:`PathIndex` with per-center counters kept current.

    Value-equal to rebuilding every center graph from scratch after each update;
    the selection loop relies on that contract. Per center
    v: ``edges[v]`` uncovered pairs through v, ``noniso[v]`` non-isolated
    vertices (side occurrences when directed), ``lvl_counts[v]`` edges per
    finite level, and ``deg[v]`` edges per endpoint slot (tails, then heads
    when directed).
    """

    def __init__(self, d: DistMatrix, pairs=None):
        self.n = n = d.n
        self.directed = d.directed
        self.index = PathIndex(d, pairs)
        width = d.diameter.bit_length()  # finite levels 0..floor(log2 diameter)
        self.uncovered = np.ones(len(self.index), dtype=bool)
        self.uncovered_count = len(self.index)
        self.edges = np.zeros(n, np.int64)
        self.noniso = np.zeros(n, np.int64)
        self.lvl_counts = np.zeros((n, width), np.int64)
        self.global_lvl = np.zeros(width, np.int64)
        self.deg = np.zeros((n, 2 * n if self.directed else n), np.int32)
        # Seed in blocks of about n x slots entries, where a dense bincount beats a sort.
        ptr, block = self.index.ptr, max(self.deg.size, 1)
        cuts = np.searchsorted(ptr, np.arange(block, ptr[-1], block))
        for lo, hi in zip([0, *cuts], [*cuts, len(self.index)]):
            self._count(np.arange(lo, hi), 1)

    pair_path = property(lambda self: self.index, doc="Path vertices indexed by pair id.")

    def _count(self, pids: np.ndarray, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) the given pairs in every counter."""
        idx, n, (_, width), slots = self.index, self.n, self.lvl_counts.shape, self.deg.shape[1]
        xs, owner = idx.rows(pids)
        xs = xs.astype(np.int64)
        self.edges += sign * np.bincount(xs, minlength=n)
        lvl = idx.level[pids]
        lv = lvl[owner]
        fin = lv >= 0
        per_level = np.bincount(xs[fin] * width + lv[fin], minlength=n * width)
        self.lvl_counts += sign * per_level.reshape(n, width)
        self.global_lvl += sign * np.bincount(lvl[lvl >= 0], minlength=width)
        tail = idx.u[pids][owner]
        head = idx.w[pids][owner] + (n if self.directed else 0)
        both = head != tail  # an undirected self pair fills a single slot
        keys = np.concatenate((xs * slots + tail, (xs * slots + head)[both]))
        flat = self.deg.reshape(-1)
        if keys.size >= flat.size:  # dense: one bincount over every cell, no sort
            hits = np.bincount(keys, minlength=flat.size)
            cells = np.flatnonzero(hits)
            hits = hits[cells]
        else:
            cells, hits = np.unique(keys, return_counts=True)
        old = flat[cells]
        flat[cells] = old + sign * hits
        flipped = old == 0 if sign > 0 else old == hits
        self.noniso += sign * np.bincount(cells[flipped] // slots, minlength=n)

    def profile_key(self, v: int) -> tuple[int, ...]:
        return tuple(self.lvl_counts[v, ::-1].tolist())

    def max_uncovered_level(self) -> int | float:
        live = np.flatnonzero(self.global_lvl)
        return int(live[-1]) if live.size else NEG_INF_LEVEL

    def receivers(self, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Non-isolated vertices of G_v as (tails, heads); undirected ones are all tails."""
        tails, heads = np.flatnonzero(self.deg[v][: self.n]), np.flatnonzero(self.deg[v][self.n :])
        return tuple(tails.tolist()), tuple(heads.tolist())

    def pairs_through(self, v: int) -> np.ndarray:
        pids = self.index.through(v)
        return pids[self.uncovered[pids]]

    def center_graph(self, v: int) -> CenterGraph:
        return CenterGraph(v, self.directed, tuple(self.index.pairs(self.pairs_through(v))))

    def cover_pairs(self, pids) -> None:
        """Mark still-uncovered pairs covered and update all counters; ascending ids skip a sort."""
        pids = np.asarray(pids, dtype=np.int64)
        distinct = (pids[1:] > pids[:-1]).all() or np.unique(pids).size == pids.size
        if not distinct or not self.uncovered[pids].all():
            raise ValueError("pair ids must be distinct and still uncovered")
        self.uncovered[pids] = False
        self.uncovered_count -= len(pids)
        self._count(pids, -1)
