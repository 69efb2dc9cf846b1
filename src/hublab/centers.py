"""Center graphs over uncovered vertex pairs: the shortest-path incidence of a
pair set and the incremental coverage engine that drives the selection loop
shared by the greedy algorithms and the set-cover runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DistMatrix, as_int, pair_arrays, pair_blocks, path_membership, ranges
from .graphs import run_starts, runs, transpose

NEG_INF_LEVEL = float("-inf")


class EmptyCenterGraphError(ValueError):
    """Density or subgraph selection requested on a center graph with no edges."""


def _ids(cols: np.ndarray) -> list[np.ndarray]:
    """Per column of ``cols``, its distinct ids ascending, by one sort and
    ``run_starts`` (``np.unique`` imports ``numpy.ma``, as
    ``graphs.unique_pairs`` says); a negative id raises ``ValueError``."""
    s = np.sort(cols, axis=0)
    if len(s) and min(s[0].tolist()) < 0:
        raise ValueError(f"vertex id {s.min()} is negative")
    return [col[run_starts(col)] for col in s.T]


@dataclass(frozen=True, init=False)
class CenterGraph:
    """Uncovered pairs whose shortest paths pass through ``center``, stored as a
    graph on side nodes ``(side, v)``: the nodes, and per node an adjacency
    bitmask (bit i stands for node i) and a self-loop flag.

    ``CenterGraph(center, directed, arcs)`` takes the pairs as ``(u, w)`` rows,
    repeats counting once. Undirected: one node (0, v) per non-isolated vertex,
    in id order, and the pair [v, v] is a loop. Directed: the graph is bipartite,
    the heads (1, w), then the tails (0, u), each in id order, so a smaller
    integer mask is a smaller (tail mask, head mask), bit i of those marking the
    i-th smallest tail (head) id; a pair (v, v) joins two nodes. An id that is
    not an int (by ``as_int``), is negative or does not fit in int64 raises
    ``ValueError``.
    """

    center: int
    directed: bool
    nodes: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]
    loop: tuple[int, ...]
    edge_count: int

    def __init__(self, center: int, directed: bool, arcs):
        uw = np.asarray(arcs).reshape(-1, 2)
        if uw.dtype.kind not in "iu":  # floats, strings, bools, (), ints past int64 (as float64)
            try:
                uw = np.array([as_int(x) for arc in arcs for x in arc], np.int64).reshape(-1, 2)
            except OverflowError:
                raise ValueError("vertex ids must fit in int64") from None
        u, w = uw.T
        if directed:
            tails, heads = _ids(uw)
            nodes = [(1, v) for v in heads.tolist()] + [(0, v) for v in tails.tolist()]
            a, b = len(heads) + np.searchsorted(tails, u), np.searchsorted(heads, w)
        else:
            (ids,) = _ids(uw.reshape(-1, 1))
            nodes = [(0, v) for v in ids.tolist()]
            a, b = np.searchsorted(ids, u), np.searchsorted(ids, w)
        adj, loop = [0] * len(nodes), [0] * len(nodes)
        for x, y in zip(a.tolist(), b.tolist()):
            if x == y:  # [v, v] when undirected; a directed (v, v) joins two nodes
                loop[x] = 1
            else:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
        vars(self).update(  # frozen: each field is set once, here
            center=center, directed=directed, nodes=tuple(nodes), adj=tuple(adj), loop=tuple(loop),
            edge_count=sum(map(int.bit_count, adj)) // 2 + sum(loop),
        )

    @property
    def nonisolated_count(self) -> int:
        """Distinct incident vertices, the side nodes; the directed case counts
        side occurrences."""
        return len(self.nodes)

    def sides(self, mask: int) -> tuple[frozenset[int], ...]:
        """Vertices of the side nodes in ``mask``: (members,), or (tails, heads) when directed."""
        picked = [node for i, node in enumerate(self.nodes) if mask >> i & 1]
        return tuple(frozenset(v for s, v in picked if s == k) for k in range(1 + self.directed))


class PathIndex:
    """Shortest-path incidence of a sorted pair list, held as two CSR views.

    Pair ``p`` is ``(u[p], w[p])`` at ``level[p]`` (floor(log2 dist), -1 for
    dist 0). ``index[p]`` lists the vertices on its shortest paths and
    ``through(v)`` the pairs whose shortest paths pass through ``v``, both
    ascending. Vertex ids (``verts``) are uint16, as n <= ``MAX_VERTICES`` <
    2^16, so readers widen them before arithmetic; pair ids are int32. The
    level is read by ``frexp``, exact on the int16 distances (as float32) and
    on wider ones (as float64).

    One pass of ``d.source_runs(pairs)`` gives the pairs, every reachable one
    or the caller's ``(u, w)`` through ``pair_arrays`` (checked, undirected
    ones min-first, deduplicated and sorted; an unreachable one raises
    ``ValueError``), and their rows: those of a run's ``pair_blocks`` come
    from the membership predicate on one distance row per pair, a (block) x n
    table. A run's pairs, levels, lengths and rows wait, narrow, for one join
    after the pass, and ``vptr`` and ``vpairs`` come by ``transpose``, so the
    peak is the kept arrays and ``transpose``'s temporaries: on
    ``gen_random(300, 600, 10, 11)``, 2.88 MiB against 2.47 MiB kept.
    """

    def __init__(self, d: DistMatrix, pairs=None):
        n = d.n
        pairs = None if pairs is None else pair_arrays(d, pairs)
        far = np.zeros(0, bool) if pairs is None else d.exact()[pairs] == d.unreachable
        if far.any():
            u, w = (x[far][0] for x in pairs)
            raise ValueError(f"pair ({u},{w}) is unreachable and can never be covered")
        empty = np.zeros(0, np.uint16)
        chunks = [(empty, empty, np.zeros(1, np.uint16), empty, np.zeros(0, np.int8))]
        for a, rows, fin in d.source_runs(pairs):
            s, w = np.divmod(np.flatnonzero(fin), n)
            lens, run = np.zeros(len(w), np.uint16), [empty]
            for lo, hi in pair_blocks(len(w), n):
                table = path_membership(d, rows[s[lo:hi]], w[lo:hi])
                # Not np.flatnonzero, whose wrappers cost a tenth of a small block's time.
                ids, vs = np.divmod(table.ravel().nonzero()[0], n)
                lens[lo:hi] = np.bincount(ids, minlength=hi - lo)
                run.append(vs.astype(np.uint16))
            level = (np.frexp(rows[s, w])[1] - 1).astype(np.int8)
            s, w = (s + a).astype(np.uint16), w.astype(np.uint16)
            chunks.append((s, w, lens, np.concatenate(run), level))
        self.u, self.w, self.ptr, self.verts, self.level = (
            np.concatenate(x, dtype=t)
            for x, t in zip(zip(*chunks), (np.int32, np.int32, np.int64, np.uint16, np.int8))
        )
        del chunks
        np.cumsum(self.ptr, out=self.ptr)  # the seed's 0 and the pairs' lengths, to offsets
        self.vptr, self.vpairs = transpose(self.ptr, self.verts, n)

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, pid: int) -> np.ndarray:
        return self.verts[self.ptr[pid] : self.ptr[pid + 1]]

    def through(self, v: int) -> np.ndarray:
        return self.vpairs[self.vptr[v] : self.vptr[v + 1]]

    def pairs(self, pids) -> list[tuple[int, int]]:
        return list(zip(self.u[pids].tolist(), self.w[pids].tolist()))

    def rows(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vertices of the given pairs' rows, and each entry's position in ``pids``."""
        start = self.ptr[pids]
        lens = self.ptr[pids + 1] - start
        return self.verts[ranges(start, lens)], np.repeat(np.arange(len(pids)), lens)


class CoverageState:
    """Pair coverage over a :class:`PathIndex` with per-center counters kept current.

    Value-equal to rebuilding every center graph from scratch after each update;
    the selection loop relies on that contract. Per center v: ``edges[v]``
    uncovered pairs through v, always kept, as every picker reads it. Built on
    first read from the pairs then uncovered: for d-HHL, ``lvl_counts[v]``
    edges per finite level; for w-HHL, ``noniso[v]`` the non-isolated vertices
    of G_v, counted as the uncovered pairs with v as an end (directed: tail and
    head apart, so (v, v) twice; undirected: [v, v] once). Proof: if a picked x
    covers (s, v) and v is on a shortest s-w path, so is x, and that pick
    covered (s, w); so G_v's tails are the s with (s, v) uncovered, a pair
    itself through v, and likewise its heads. This needs the full pair set and
    covers that take whole centers, as ``greedy._select``'s do, so ``noniso``
    refuses explicit ``pairs``. ``oracles.optimal_hhl_bruteforce`` uses the same fact.
    """

    def __init__(self, d: DistMatrix, pairs=None):
        self.n = d.n
        self.directed = d.directed
        self.index = PathIndex(d, pairs)
        self._full = pairs is None
        self._width = d.diameter.bit_length()  # finite levels 0..floor(log2 diameter)
        self.uncovered = np.ones(len(self.index), dtype=bool)
        self.uncovered_count = len(self.index)
        self.edges = np.diff(self.index.vptr)

    pair_path = property(lambda self: self.index, doc="Path vertices indexed by pair id.")

    def __getattr__(self, name: str):
        """Build ``noniso`` or ``lvl_counts`` on its first read."""
        if name == "noniso":
            if not self._full:
                raise ValueError("noniso counts pair ends, exact only on the full pair set")
            self.noniso = self._ends(self.uncovered)
        elif name == "lvl_counts":
            self.lvl_counts = np.zeros((self.n, self._width), np.int64)
            self._count(np.flatnonzero(self.uncovered), 1, {"lvl_counts"})
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _ends(self, pids) -> np.ndarray:
        """Per vertex, the given pairs (ids or a mask) with it as an end, as ``noniso`` counts."""
        u, w = self.index.u[pids], self.index.w[pids]
        w = w if self.directed else w[u != w]
        return np.bincount(u, minlength=self.n) + np.bincount(w, minlength=self.n)

    def _count(self, pids: np.ndarray, sign: int, counters) -> None:
        """Add (sign 1) or remove (sign -1) the given pairs in the named counters,
        reading their rows in the runs of ``runs(index.ptr, pids)``."""
        idx, n = self.index, self.n
        if "noniso" in counters:
            self.noniso += sign * self._ends(pids)
        for lo, hi in runs(idx.ptr, pids):
            xs, owner = idx.rows(pids[lo:hi])
            xs = xs.astype(np.int64)
            if "edges" in counters:
                self.edges += sign * np.bincount(xs, minlength=n)
            if "lvl_counts" in counters:
                width = self._width
                lv = idx.level[pids[lo:hi]][owner]
                fin = lv >= 0
                per_level = np.bincount(xs[fin] * width + lv[fin], minlength=n * width)
                self.lvl_counts += sign * per_level.reshape(n, width)

    def profile_key(self, v: int) -> tuple[int, ...]:
        return tuple(self.lvl_counts[v, ::-1].tolist())

    def receivers(self, pids: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Distinct ends of the given pairs as (tails, heads), ascending; undirected
        ends are all tails. Of ``pairs_through(v)``, the non-isolated vertices of G_v."""
        n, u, w = self.n, self.index.u[pids], self.index.w[pids]
        sides = (u, w) if self.directed else (np.concatenate((u, w)), w[:0])
        return tuple(tuple(np.flatnonzero(np.bincount(s, minlength=n)).tolist()) for s in sides)

    def pairs_through(self, v: int) -> np.ndarray:
        pids = self.index.through(v)
        return pids[self.uncovered[pids]]

    def center_graph(self, v: int) -> CenterGraph:
        pids = self.pairs_through(v)
        return CenterGraph(v, self.directed, np.array((self.index.u[pids], self.index.w[pids])).T)

    def cover_pairs(self, pids) -> None:
        """Mark still-uncovered pairs covered and update the built counters; ascending
        ids skip a sort."""
        pids = np.asarray(pids, dtype=np.int64)
        distinct = (pids[1:] > pids[:-1]).all() or (np.diff(np.sort(pids)) > 0).all()
        if not distinct or not self.uncovered[pids].all():
            raise ValueError("pair ids must be distinct and still uncovered")
        self.uncovered[pids] = False
        self.uncovered_count -= len(pids)
        self._count(pids, -1, vars(self).keys() & {"edges", "noniso", "lvl_counts"})
