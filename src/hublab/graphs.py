"""Weighted graphs, file parsing, exact all-pairs distances, and shortest-path predicates."""

from __future__ import annotations

import heapq
import math

import numpy as np

INF = math.inf
# Shortest paths are simple, so no distance exceeds the total arc length. Below
# 2^53 every distance is exact in float64, and a sum of two distances is either
# exact or at least 2^53, so a membership test never matches by rounding.
MAX_TOTAL_LENGTH = 2**53


class GraphFormatError(ValueError):
    """Malformed graph input; ``line_no`` is the 1-based offending line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnreachablePairError(ValueError):
    """An operation required a finite distance between an unreachable pair."""


def _check_zero_cycles(directed: bool, n: int, arcs) -> None:
    zero = [(t, h) for t, h, length in arcs if length == 0]
    if not zero:
        return
    if directed:
        # Kahn's algorithm on the zero-length subgraph; leftovers mean a cycle.
        out: dict[int, list[int]] = {}
        indeg: dict[int, int] = {}
        for t, h in zero:
            out.setdefault(t, []).append(h)
            indeg[h] = indeg.get(h, 0) + 1
            indeg.setdefault(t, 0)
        queue = [v for v, deg in indeg.items() if deg == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out.get(v, ()):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(indeg):
            raise GraphFormatError("zero-length cycle")
    else:
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t, h in zero:
            rt, rh = find(t), find(h)
            if rt == rh:
                raise GraphFormatError("zero-length cycle")
            parent[rt] = rh


class Graph:
    """Weighted graph with non-negative integer arc lengths.

    Undirected graphs store each edge once and treat it symmetrically.
    Parallel arcs collapse to the minimum length, self-loops are rejected,
    and zero-length cycles and total arc lengths of 2^53 or more are refused
    at construction time.
    """

    __slots__ = ("directed", "n", "arcs", "_adj", "_len")

    def __init__(self, directed: bool, n: int, arcs):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        first_pos: dict[tuple[int, int], int] = {}
        kept: list[list[int]] = []
        for tail, head, length in arcs:
            tail, head, length = int(tail), int(head), int(length)
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc ({tail},{head}) out of vertex range 0..{n - 1}")
            if tail == head:
                raise ValueError(f"self-loop arc at vertex {tail}")
            if length < 0:
                raise ValueError(f"negative length {length} on arc ({tail},{head})")
            key = (tail, head) if directed else (min(tail, head), max(tail, head))
            pos = first_pos.get(key)
            if pos is None:
                first_pos[key] = len(kept)
                kept.append([tail, head, length])
            elif length < kept[pos][2]:
                kept[pos][2] = length
        if sum(ln for _, _, ln in kept) >= MAX_TOTAL_LENGTH:
            raise ValueError("total arc length reaches 2^53; distances would not be exact")
        _check_zero_cycles(directed, n, kept)
        self.directed = bool(directed)
        self.n = n
        self.arcs = tuple((t, h, ln) for t, h, ln in kept)
        self._adj = None
        self._len = None

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Out-neighbor lists as (vertex, length); both directions for undirected graphs."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for t, h, ln in self.arcs:
                adj[t].append((h, ln))
                if not self.directed:
                    adj[h].append((t, ln))
            self._adj = adj
        return self._adj

    def arc_length(self, u: int, v: int) -> int | None:
        """Length of the arc u->v (edge {u,v} when undirected), or None if absent."""
        if self._len is None:
            table: dict[tuple[int, int], int] = {}
            for t, h, ln in self.arcs:
                table[(t, h)] = ln
                if not self.directed:
                    table[(h, t)] = ln
            self._len = table
        return self._len.get((u, v))

    def _canon(self) -> dict[tuple[int, int], int]:
        out = {}
        for t, h, ln in self.arcs:
            key = (t, h) if self.directed else (min(t, h), max(t, h))
            out[key] = ln
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.n == other.n
            and self._canon() == other._canon()
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, frozenset(self._canon().items())))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    ``p <directed|undirected> <n> <m>`` followed by ``m`` arc lines
    ``a <tail> <head> <length>``; ``#`` lines are comments.
    """
    header = None
    arcs: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphFormatError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] not in ("directed", "undirected"):
                raise GraphFormatError("malformed problem line", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("malformed problem line", line_no) from None
            if n < 0 or m < 0:
                raise GraphFormatError("malformed problem line", line_no)
            header = (parts[1] == "directed", n, m)
        elif parts[0] == "a":
            if header is None:
                raise GraphFormatError("arc line before problem line", line_no)
            if len(parts) != 4:
                raise GraphFormatError("malformed arc line", line_no)
            try:
                tail, head, length = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("malformed arc line", line_no) from None
            if length < 0:
                raise GraphFormatError(f"negative length {length}", line_no)
            if not (0 <= tail < header[1] and 0 <= head < header[1]):
                raise GraphFormatError("vertex id out of range", line_no)
            if tail == head:
                raise GraphFormatError("self-loop arc", line_no)
            arcs.append((tail, head, length))
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}", line_no)
    if header is None:
        raise GraphFormatError("missing problem line")
    directed, n, m = header
    if len(arcs) != m:
        raise GraphFormatError(f"expected {m} arc lines, found {len(arcs)}")
    try:
        return Graph(directed, n, arcs)
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def serialize_graph(g: Graph) -> str:
    """Canonical text form; parse(serialize(g)) == g and serialization is idempotent."""
    kind = "directed" if g.directed else "undirected"
    lines = [f"p {kind} {g.n} {g.m}"]
    lines.extend(f"a {t} {h} {ln}" for t, h, ln in g.arcs)
    return "\n".join(lines) + "\n"


def undirect(g: Graph) -> Graph:
    """Undirected version of a graph; parallel opposite arcs merge to the minimum length."""
    if not g.directed:
        return g
    return Graph(False, g.n, g.arcs)


def _dijkstra(adj, n: int, source: int) -> list[float]:
    dist = [INF] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for w, length in adj[v]:
            nd = dv + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


class DistMatrix:
    """All-pairs distances; entries are exact non-negative ints, INF when unreachable.

    Backed by a read-only float64 array (integer-valued where finite), which keeps
    desk-scale arithmetic exact and makes membership predicates vectorizable.
    """

    __slots__ = ("directed", "n", "_m", "_diam")

    def __init__(self, directed: bool, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        matrix.setflags(write=False)
        self.directed = bool(directed)
        self.n = matrix.shape[0]
        self._m = matrix
        self._diam = None

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def dist(self, u: int, v: int) -> int | float:
        x = self._m[u, v]
        return int(x) if math.isfinite(x) else INF

    def finite(self, u: int, v: int) -> bool:
        return bool(math.isfinite(self._m[u, v]))

    @property
    def diameter(self) -> int:
        """Largest finite entry (0 for an empty or single-vertex graph)."""
        if self._diam is None:
            finite = self._m[np.isfinite(self._m)]
            self._diam = int(finite.max()) if finite.size else 0
        return self._diam

    def reachable_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of all finite pairs, sorted; canonical u <= w when undirected."""
        fin = np.isfinite(self._m)
        return np.nonzero(fin if self.directed else np.triu(fin))

    def reachable_pairs(self) -> list[tuple[int, int]]:
        """All finite pairs: ordered (u, w) when directed, canonical u <= w otherwise."""
        us, ws = self.reachable_arrays()
        return list(zip(us.tolist(), ws.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistMatrix):
            return NotImplemented
        return self.directed == other.directed and np.array_equal(self._m, other._m)

    def __hash__(self) -> int:
        return hash((self.directed, self.n, self._m.tobytes()))

    def __repr__(self) -> str:
        return f"DistMatrix(directed={self.directed}, n={self.n}, D={self.diameter})"


def all_pairs_distances(g: Graph) -> DistMatrix:
    """Exact distances via one label-setting search per source."""
    m = np.full((g.n, g.n), INF, dtype=np.float64)
    adj = g.adjacency
    for s in range(g.n):
        m[s] = _dijkstra(adj, g.n, s)
    return DistMatrix(g.directed, m)


def on_shortest_path(d: DistMatrix, u: int, w: int, v: int) -> bool:
    """True iff v lies on some shortest u-w path: dist(u,v) + dist(v,w) == dist(u,w)."""
    m = d.matrix
    a, b = m[u, v], m[v, w]
    return bool(math.isfinite(a) and math.isfinite(b) and a + b == m[u, w])


def shortest_path_vertices(d: DistMatrix, u: int, w: int) -> set[int]:
    """The set of all vertices lying on shortest u-w paths."""
    if not d.finite(u, w):
        raise UnreachablePairError(f"no path from {u} to {w}")
    m = d.matrix
    mask = np.isfinite(m[:, w]) & (m[u, :] + m[:, w] == m[u, w])
    return set(np.flatnonzero(mask).tolist())


def path_membership(d: DistMatrix, u: int, cols=None) -> np.ndarray:
    """Boolean (v, j) table: v lies on some shortest u-w path, w = ``cols[j]``.

    Without ``cols`` every w is a column and columns for unreachable w are all
    False. Given ``cols``, each must be reachable from u; then an infinite
    distance on either leg can never match the finite target, so no guard is
    needed and only n x len(cols) cells are computed.
    """
    m = d.matrix
    row = m[u]
    if cols is not None:
        return (row[:, None] + m[:, cols]) == row[cols][None, :]
    return ((row[:, None] + m) == row[None, :]) & np.isfinite(row)[None, :]
