"""Weighted graphs, file parsing, exact all-pairs distances, and the shortest-path predicate."""

from __future__ import annotations

import heapq
import math

import numpy as np

# What ``DistMatrix.dist`` and ``Labeling.query`` return for an unreachable pair.
INF = math.inf
# Shortest paths are simple, so no distance exceeds the total arc length. Below
# 2^53 every distance is exact in the float64 export ``DistMatrix.matrix``, and
# label distances are refused from 2^53 on, above any distance.
MAX_TOTAL_LENGTH = 2**53
# The all-pairs array holds n^2 int32 cells, 1.6 GB at this vertex count; int64
# (3.2 GB) only when the diameter reaches about 2^30. The pivot loop's n^2
# temporary exists only up to PIVOT_MAX_N vertices; the searches above it need none.
MAX_VERTICES = 20_000
# Largest vertex count whose distances come from the pivot loop. It was no
# slower than the per-source searches on random graphs, trees and paths up to
# here; paths of 550 to 800 vertices were up to 1.9x slower, 1,200 2.8x.
PIVOT_MAX_N = 500


class GraphFormatError(ValueError):
    """Malformed graph input; ``line_no`` is the 1-based offending line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TooLargeError(ValueError):
    """Instance exceeds a size limit: the vertex bound or a brute-force limit."""


class CapExceededError(RuntimeError):
    """Shortest-path enumeration exceeded the configured cap."""


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
    at construction time. More than ``MAX_VERTICES`` vertices raise
    ``TooLargeError`` before anything is allocated for them.
    """

    __slots__ = ("directed", "n", "arcs", "_adj")

    def __init__(self, directed: bool, n: int, arcs):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise TooLargeError(f"n={n} exceeds the vertex limit {MAX_VERTICES}")
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
    except (GraphFormatError, TooLargeError):
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


def _dijkstra(adj, source: int, far: int) -> tuple[list[int], int]:
    """Distances from ``source`` (``far`` where unreached) and the largest of them."""
    dist = [far] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    ecc = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        ecc = dv
        for w, length in adj[v]:
            nd = dv + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist, ecc


class DistMatrix:
    """All-pairs distances as one exact integer array, target-major.

    ``exact()[w, v]`` is dist(v, w), or ``unreachable`` = D + 1 (D the
    diameter) if w is unreachable from v, so no sum with such a leg matches a
    distance. Sums reach 2(D + 1): int32 below 2^31, int64 otherwise. ``dist``
    gives INF when unreachable; ``matrix`` is a float64 export, built on demand.
    """

    __slots__ = ("directed", "n", "diameter", "unreachable", "_into", "_float")

    def __init__(self, directed: bool, into: np.ndarray, diameter: int):
        into.setflags(write=False)
        self.directed = bool(directed)
        self.n = into.shape[0]
        self.diameter = diameter
        self.unreachable = diameter + 1
        self._into = into
        self._float = None

    def exact(self) -> np.ndarray:
        return self._into

    @property
    def matrix(self) -> np.ndarray:
        """Float64 copy, [u, v] = dist(u, v) and INF when unreachable; cached."""
        if self._float is None:
            m = self._into.T.astype(np.float64, order="C")
            m[m > self.diameter] = INF
            m.setflags(write=False)
            self._float = m
        return self._float

    def dist(self, u: int, v: int) -> int | float:
        x = int(self._into[v, u])
        return x if x < self.unreachable else INF

    def finite(self, u: int, v: int) -> bool:
        return bool(self._into[v, u] < self.unreachable)

    def reachable_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of all reachable pairs, sorted; canonical u <= w when undirected."""
        fin = self._into.T < self.unreachable
        return np.nonzero(fin if self.directed else np.triu(fin))

    def reachable_pairs(self) -> list[tuple[int, int]]:
        """All reachable pairs: ordered (u, w) when directed, canonical u <= w otherwise."""
        us, ws = self.reachable_arrays()
        return list(zip(us.tolist(), ws.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistMatrix):
            return NotImplemented
        return self.directed == other.directed and np.array_equal(self._into, other._into)

    def __hash__(self) -> int:
        return hash((self.directed, self.n, self._into.tobytes()))

    def __repr__(self) -> str:
        return f"DistMatrix(directed={self.directed}, n={self.n}, D={self.diameter})"


def _pivot_fill(g: Graph, far: int, dtype) -> tuple[np.ndarray, int]:
    """Target-major distances (``far`` where unreached) by one vectorized update per pivot.

    Floyd–Warshall: pivot k lowers ``into[w, v]`` to ``into[w, k] + into[k, v]``,
    only on the rows w that k reaches, and not at all when k reaches only
    itself; sums stay below 2 * ``far``.
    """
    into = np.full((g.n, g.n), far, dtype)
    if g.arcs:
        tails, heads, lengths = np.array(g.arcs, dtype=np.int64).T
        into[heads, tails] = lengths
        if not g.directed:
            into[tails, heads] = lengths
    np.fill_diagonal(into, 0)
    for k in range(g.n):
        rows = np.flatnonzero(into[:, k] < far)
        if 2 * rows.size > g.n:
            np.minimum(into, into[:, k, None] + into[k], out=into)
        elif rows.size > 1:
            into[rows] = np.minimum(into[rows], into[rows, k, None] + into[k])
    return into, int(into.max(initial=0, where=into < far))


def _dijkstra_fill(g: Graph, far: int, dtype) -> tuple[np.ndarray, int]:
    """Target-major distances (``far`` where unreached), one label-setting search per source."""
    into = np.empty((g.n, g.n), dtype)
    diameter = 0
    for s in range(g.n):
        into[:, s], ecc = _dijkstra(g.adjacency, s, far)
        diameter = max(diameter, ecc)
    return into, diameter


def _distances(g: Graph, fill) -> DistMatrix:
    """Exact distances from ``fill``. Unreached cells hold the total arc length + 1
    until D is known, so the fill dtype follows that bound and narrows to int32
    at the end if D allows."""
    far = sum(ln for _, _, ln in g.arcs) + 1
    into, diameter = fill(g, far, np.int32 if 2 * far < 2**31 else np.int64)
    np.minimum(into, diameter + 1, out=into)
    if 2 * (diameter + 1) < 2**31:
        into = into.astype(np.int32, copy=False)
    return DistMatrix(g.directed, into, diameter)


def all_pairs_distances(g: Graph) -> DistMatrix:
    """Exact all-pairs distances: the pivot loop up to ``PIVOT_MAX_N`` vertices,
    one label-setting search per source, each filling a column, above."""
    return _distances(g, _pivot_fill if g.n <= PIVOT_MAX_N else _dijkstra_fill)


def path_membership(d: DistMatrix, u: int, cols) -> np.ndarray:
    """Pair-major boolean (j, v) table: v lies on some shortest u-w path, w = ``cols[j]``.

    Each w must be reachable from u. Compares on ``d.exact()``, where an
    unreachable leg is D+1 and so never sums to the finite target; row j lists
    its path vertices in id order, as a CSR row wants them.
    """
    into = d.exact()
    row = np.ascontiguousarray(into[:, u])
    legs = into[cols]
    legs += row
    return legs == row[cols][:, None]


def unique_pairs(us: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (us[i], ws[i]), sorted by u and then w.

    ``np.unique(..., axis=0)`` gives the same, but numpy 2.4's plain unique asks
    ``np.ma.is_masked`` and so imports ``numpy.ma``: about 20 ms and 1.3 MB in
    every process that builds or verifies. A lexsort and an adjacent compare
    import nothing.
    """
    at = np.lexsort((ws, us))
    us, ws = us[at], ws[at]
    new = np.ones(us.size, dtype=bool)
    new[1:] = (us[1:] != us[:-1]) | (ws[1:] != ws[:-1])
    return us[new], ws[new]
