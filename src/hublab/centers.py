"""Center graphs over uncovered vertex pairs: edge counts, density, level profiles,
and the incremental coverage engine that drives the greedy selection loops."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import DistMatrix, path_membership

NEG_INF_LEVEL = float("-inf")


class EmptyCenterGraphError(ValueError):
    """Density or subgraph selection requested on a center graph with no edges."""


def make_pair(directed: bool, u: int, w: int) -> tuple[int, int]:
    """Canonical pair representation: ordered when directed, min-first otherwise."""
    return (u, w) if directed or u <= w else (w, u)


def pair_level(dist: int) -> int | float:
    """Level of a pair: floor(log2 dist), with dist 0 mapping to -inf."""
    return NEG_INF_LEVEL if dist == 0 else dist.bit_length() - 1


class UncoveredSet:
    """Set of still-uncovered vertex pairs; shrinks monotonically over a run."""

    __slots__ = ("directed", "n", "_pairs")

    def __init__(self, directed: bool, n: int, pairs):
        self.directed = bool(directed)
        self.n = n
        norm = set()
        for u, w in pairs:
            u, w = int(u), int(w)
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"pair ({u},{w}) out of range")
            norm.add(make_pair(self.directed, u, w))
        self._pairs = norm

    @property
    def count(self) -> int:
        return len(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair) -> bool:
        u, w = pair
        return make_pair(self.directed, u, w) in self._pairs

    def __iter__(self):
        return iter(sorted(self._pairs))

    def discard(self, pair) -> None:
        u, w = pair
        self._pairs.discard(make_pair(self.directed, u, w))

    def copy(self) -> "UncoveredSet":
        return UncoveredSet(self.directed, self.n, self._pairs)

    def __repr__(self) -> str:
        return f"UncoveredSet(n={self.n}, count={self.count})"


def initial_uncovered(d: DistMatrix) -> UncoveredSet:
    """All reachable pairs, including every [v,v]."""
    return UncoveredSet(d.directed, d.n, d.reachable_pairs())


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


def build_center_graph(d: DistMatrix, uncovered: UncoveredSet, v: int) -> CenterGraph:
    """From-scratch center graph of v over the given uncovered pairs."""
    m = d.matrix
    arcs = tuple(
        sorted((u, w) for u, w in uncovered if np.isfinite(m[u, v]) and m[u, v] + m[v, w] == m[u, w])
    )
    return CenterGraph(v, d.directed, arcs)


def density(cg: CenterGraph) -> Fraction:
    """Edges over non-isolated vertices, as an exact rational."""
    if cg.edge_count == 0:
        raise EmptyCenterGraphError(f"center graph of {cg.center} has no edges")
    return Fraction(cg.edge_count, cg.nonisolated_count)


@dataclass(frozen=True)
class LevelProfile:
    """Per-level edge counts of a center graph.

    ``key()`` compares finite levels lexicographically from the top; it orders
    center graphs exactly like comparing total pair weights n^(2*level), where
    dist-0 pairs weigh nothing, so the -inf bucket is excluded from the key.
    """

    counts: tuple[tuple[int | float, int], ...]
    top_level: int

    def count(self, level) -> int:
        return dict(self.counts).get(level, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def key(self) -> tuple[int, ...]:
        by_level = dict(self.counts)
        return tuple(by_level.get(i, 0) for i in range(self.top_level, -1, -1))


def level_profile(cg: CenterGraph, d: DistMatrix) -> LevelProfile:
    m = d.matrix
    counts: dict[int | float, int] = {}
    for u, w in cg.arcs:
        lvl = pair_level(int(m[u, w]))
        counts[lvl] = counts.get(lvl, 0) + 1
    diam = d.diameter
    top = diam.bit_length() - 1 if diam >= 1 else -1
    ordered = tuple(sorted(counts.items(), key=lambda kv: kv[0]))
    return LevelProfile(ordered, top)


class PathIndex:
    """Shortest-path incidence of a sorted pair list, held as two CSR views.

    Pair ``p`` is ``(u[p], w[p])`` at ``level[p]`` (floor(log2 dist), -1 for
    dist 0). ``index[p]`` lists the vertices on its shortest paths and
    ``through(v)`` the pairs whose shortest paths pass through ``v``, both
    ascending. Built one source row at a time from the column-restricted
    membership predicate, so no table larger than n x (pairs of one source)
    ever exists. ``pairs`` defaults to every reachable pair; an UncoveredSet
    yields its pairs canonical and sorted, as the source grouping requires.
    """

    def __init__(self, d: DistMatrix, pairs: UncoveredSet | None = None):
        m = d.matrix
        if pairs is None:
            us, ws = d.reachable_arrays()
        else:
            us, ws = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
            bad = np.flatnonzero(~np.isfinite(m[us, ws]))
            if bad.size:
                u, w = us[bad[0]], ws[bad[0]]
                raise ValueError(f"pair ({u},{w}) is unreachable and can never be covered")
        n = d.n
        self.u, self.w = us.astype(np.int32), ws.astype(np.int32)
        self.level = (np.frexp(m[us, ws])[1] - 1).astype(np.int8)
        self.source_ptr = np.searchsorted(self.u, np.arange(n + 1))
        rows, lens = [np.zeros(0, np.int32)], [np.zeros(1, np.int64)]
        for s in self.sources():
            member = path_membership(d, s, self.w[self.source_ptr[s] : self.source_ptr[s + 1]])
            lens.append(member.sum(axis=0))
            rows.append((np.flatnonzero(member.T.ravel()) % n).astype(np.int32))
        self.verts = np.concatenate(rows)
        self.ptr = np.cumsum(np.concatenate(lens))
        owner = np.repeat(np.arange(len(self.u), dtype=np.int32), np.diff(self.ptr))
        self.vpairs = owner[np.argsort(self.verts, kind="stable")]
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
    the greedy loops and the set-cover runner rely on that contract. Per center
    v: ``edges[v]`` uncovered pairs through v, ``noniso[v]`` non-isolated
    vertices (side occurrences when directed), ``lvl_counts[v]`` edges per
    finite level, and ``deg[v]`` edges per endpoint slot (tails, then heads
    when directed).
    """

    def __init__(self, d: DistMatrix, pairs: UncoveredSet | None = None):
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
        ptr = self.index.source_ptr
        for s in self.index.sources():
            self._count(np.arange(ptr[s], ptr[s + 1]), 1)

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
        cells, hits = np.unique(keys, return_counts=True)
        flat = self.deg.reshape(-1)
        old = flat[cells]
        flat[cells] = old + sign * hits
        flipped = old == 0 if sign > 0 else old == hits
        self.noniso += sign * np.bincount(cells[flipped] // slots, minlength=n)

    def pair(self, pid: int) -> tuple[int, int]:
        return int(self.index.u[pid]), int(self.index.w[pid])

    def uncovered_pairs(self) -> UncoveredSet:
        return UncoveredSet(self.directed, self.n, self.index.pairs(np.flatnonzero(self.uncovered)))

    def edge_count(self, v: int) -> int:
        return int(self.edges[v])

    def nonisolated_count(self, v: int) -> int:
        return int(self.noniso[v])

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
        """Mark still-uncovered pairs covered and update every counter."""
        pids = np.asarray(pids, dtype=np.int64)
        if np.unique(pids).size != pids.size or not self.uncovered[pids].all():
            raise ValueError("pair ids must be distinct and still uncovered")
        self.uncovered[pids] = False
        self.uncovered_count -= len(pids)
        self._count(pids, -1)

    def cover_center(self, v: int) -> np.ndarray:
        """Cover every uncovered pair with a shortest path through v; returns their ids."""
        pids = self.pairs_through(v)
        self.cover_pairs(pids)
        return pids
