"""Weighted graphs, file parsing, exact all-pairs distances, and the shortest-path predicate."""

from __future__ import annotations

import heapq
import math
import operator

import numpy as np

# What ``DistMatrix.dist`` and ``Labeling.query`` return for an unreachable pair.
INF = math.inf
# Shortest paths are simple, so no distance exceeds the total arc length. Below
# 2^53 every distance is exact in the float64 export ``DistMatrix.matrix``, and
# label distances are refused from 2^53 on, above any distance.
MAX_TOTAL_LENGTH = 2**53
# The all-pairs array holds n^2 cells: int16 (0.8 GB at this vertex count) while
# the diameter stays below about 2^14, int32 below 2^30, int64 (3.2 GB) above.
# The pivot loop's n^2 temporary exists only up to PIVOT_MAX_N vertices; the
# searches above it need none. Vertex ids fit in uint16.
MAX_VERTICES = 20_000
# Largest vertex count whose distances come from the pivot loop, fitted before its
# int16 fill made that loop faster above it too (a path of 800: 0.15 s against
# 0.26 s by the searches); ROADMAP item 4, the pivot refit, holds the sweep.
PIVOT_MAX_N = 500
# Entries a run of ``runs`` holds by default, read at call time: an int64
# temporary of a run is then 128 KiB.
BLOCK = 2**14


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
    """Shortest-path enumeration listed more than ``highway.MAX_PATHS`` paths."""


def as_int(x) -> int:
    """``operator.index(x)``: a float or a string raises ``ValueError``, not rounded or parsed."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{x!r} is not an int") from None


def _check_zero_cycles(directed: bool, arcs) -> None:
    """Refuse a zero-length cycle by one peeling pass over the zero-length arcs,
    which are distinct and loop-free. v peels once ``left[v]``, its unpeeled
    in-arcs (directed) or edges (undirected), is at most ``floor``: Kahn's order
    when directed, leaves of a forest when not. A cycle is what never peels."""
    out: dict[int, list[int]] = {}
    left: dict[int, int] = {}
    for t, h, length in arcs:
        if length == 0:
            for a, b in ((t, h),) if directed else ((t, h), (h, t)):
                out.setdefault(a, []).append(b)
                left[b] = left.get(b, 0) + 1
                left.setdefault(a, 0)
    floor = 0 if directed else 1
    queue = [v for v, count in left.items() if count <= floor]
    for v in queue:  # grows as it is read
        for w in out.get(v, ()):
            left[w] -= 1
            if left[w] == floor:
                queue.append(w)
    if len(queue) != len(left):
        raise GraphFormatError("zero-length cycle")


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
        for tail, head, length in (map(as_int, arc) for arc in arcs):
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
        _check_zero_cycles(directed, kept)
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


def _dijkstra(adj, source: int, dist: list[int]) -> list[int]:
    """The vertices ``source`` reaches, in the order settled. ``dist`` holds
    ``far`` everywhere on entry and their distances on return."""
    dist[source] = 0
    heap, done = [(0, source)], []
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        done.append(v)
        for w, length in adj[v]:
            nd = dv + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return done


class DistMatrix:
    """All-pairs distances as one exact integer array.

    ``exact()[u, w]`` is dist(u, w), or ``unreachable`` = D + 1 (D the
    diameter) if w is unreachable from u, so no sum with such a leg matches a
    distance. Sums reach 2(D + 1), and the dtype is the narrowest that holds
    them (``_exact_dtype``): int16, int32 or int64. ``dist`` gives INF when
    unreachable; ``matrix`` is a float64 export, built on demand. The store
    ``_into``, read only in this module, is ``exact()`` transposed, so that a
    target's legs dist(., w) are one row; ``source_runs`` gives sources' rows.
    ``graph`` is the Graph they were computed from; equality compares distances.
    """

    __slots__ = ("graph", "directed", "n", "diameter", "unreachable", "_into", "_float")

    def __init__(self, graph: Graph, into: np.ndarray, diameter: int):
        into.setflags(write=False)
        self.graph = graph
        self.directed = graph.directed
        self.n = into.shape[0]
        self.diameter = diameter
        self.unreachable = diameter + 1
        self._into = into
        self._float = None

    def exact(self) -> np.ndarray:
        return self._into.T

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
        if u < 0 or v < 0:  # numpy would count it from the end; n and above raise
            raise IndexError(f"vertex {min(u, v)} out of range for {self.n} vertices")
        x = int(self._into[v, u])
        return x if x < self.unreachable else INF

    def finite(self, u: int, v: int) -> bool:
        return self.dist(u, v) != INF

    def source_runs(self, pairs=None, ptr=None, block=0):
        """``(a, rows, fin)`` per run of ``runs`` over ``ptr`` (default: n cells a
        source), of ``block`` or ``BLOCK`` entries, whichever is more, and 2^-9 of
        ``BLOCK`` rows (32) or more: ``rows[s - a, t]`` = dist(s, t), C-contiguous,
        and ``fin`` a fresh table of the run's reachable pairs, t >= s when
        undirected, or of the reachable ones among ``pairs`` (``pair_arrays``'
        output); a run holding none of ``pairs`` is skipped unread."""
        n = self.n
        ptr = np.arange(n + 1) * n if ptr is None else ptr
        for a, z in runs(ptr, block=max(block, BLOCK, BLOCK // 2**9 * n)):
            if pairs is not None:
                i, k = pairs[0].searchsorted((a, z))
                if i == k:
                    continue
            # Directed, copied as it lies and transposed in the copy: 3x faster.
            rows = self._into[a:z]
            if self.directed:
                rows = np.ascontiguousarray(np.ascontiguousarray(self._into[:, a:z]).T)
            fin = rows < self.unreachable
            if pairs is not None:
                asked = np.zeros_like(fin)
                asked[pairs[0][i:k] - a, pairs[1][i:k]] = True
                fin &= asked
            elif not self.directed:
                fin &= np.arange(n) >= np.arange(a, z)[:, None]
            yield a, rows, fin

    def reachable_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of all reachable pairs, sorted, u <= w when undirected,
        from ``source_runs``; as uint16 (n <= ``MAX_VERTICES`` < 2^16) until the
        end, so the scan peaks little above the two intp arrays it returns."""
        n = self.n
        us, ws = [np.zeros(0, np.uint16)], [np.zeros(0, np.uint16)]
        for a, _, fin in self.source_runs():
            u, w = np.divmod(np.flatnonzero(fin), n)
            us.append((u + a).astype(np.uint16))
            ws.append(w.astype(np.uint16))
        return np.concatenate(us, dtype=np.intp), np.concatenate(ws, dtype=np.intp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistMatrix):
            return NotImplemented
        return self.directed == other.directed and np.array_equal(self._into, other._into)

    def __hash__(self) -> int:  # no copy of the array; ``__eq__`` decides
        return hash((self.directed, self.n, self.diameter))

    def __repr__(self) -> str:
        return f"DistMatrix(directed={self.directed}, n={self.n}, D={self.diameter})"


def _exact_dtype(bound: int):
    """The narrowest of int16, int32 and int64 in which a sum of two values up to
    ``bound`` is exact."""
    return np.int16 if 2 * bound < 2**15 else np.int32 if 2 * bound < 2**31 else np.int64


def _pivot_fill(g: Graph, far: int, dtype) -> tuple[np.ndarray, int]:
    """Target-major distances (``far`` where unreached) by one vectorized update per pivot.

    Floyd–Warshall: pivot k lowers ``into[w, v]`` to ``into[w, k] + into[k, v]``,
    only on the rows w that k reaches; sums stay below 2 * ``far``. Only a
    vertex that can be interior to a simple path is a pivot: directed, one with
    an in-arc and an out-arc; undirected, one with two neighbours (arcs are
    distinct and loop-free). A path through any other vertex ends there, so
    skipping it changes no distance, and every pivot reaches another vertex.
    """
    n = g.n
    into = np.full((n, n), far, dtype)
    pivots = []
    if g.arcs:
        tails, heads, lengths = np.array(g.arcs, dtype=np.int64).T
        into[heads, tails] = lengths
        if g.directed:
            inner = (np.bincount(tails, minlength=n) > 0) & (np.bincount(heads, minlength=n) > 0)
        else:
            into[tails, heads] = lengths
            inner = np.bincount(np.concatenate((tails, heads)), minlength=n) > 1
        pivots = np.flatnonzero(inner).tolist()
    np.fill_diagonal(into, 0)
    for k in pivots:
        rows = np.flatnonzero(into[:, k] < far)
        if 2 * rows.size > n:
            np.minimum(into, into[:, k, None] + into[k], out=into)
        else:
            into[rows] = np.minimum(into[rows], into[rows, k, None] + into[k])
    return into, int(into.max(initial=0, where=into < far))


def _dijkstra_fill(g: Graph, far: int, dtype) -> tuple[np.ndarray, int]:
    """Target-major distances (``far`` where unreached), one label-setting search per
    source. Each search writes and resets only the cells it reached, so the cost
    follows the reachable pairs, not n^2."""
    into = np.full((g.n, g.n), far, dtype)
    dist, diameter = [far] * g.n, 0
    for s in range(g.n):
        done = _dijkstra(g.adjacency, s, dist)
        diameter = max(diameter, dist[done[-1]])  # settled in nondecreasing order
        into[done, s] = [dist[v] for v in done]
        for v in done:
            dist[v] = far
    return into, diameter


def _distances(g: Graph, fill) -> DistMatrix:
    """Exact distances from ``fill``. Unreached cells hold ``far`` until D is known:
    one more than the sum of the n - 1 largest arc lengths, at most the total.
    That bound is exact: a shortest path is simple, so it has at most n - 1
    arcs, each arc (each edge, undirected) once; and every value the pivot loop
    holds is the length of a shortest path through the pivots so far, which
    is simple too. So the fill dtype is ``_exact_dtype`` of ``far``, and the
    stored one ``_exact_dtype`` of D + 1, which can only be narrower."""
    far = sum(heapq.nlargest(g.n - 1, (ln for _, _, ln in g.arcs))) + 1
    into, diameter = fill(g, far, _exact_dtype(far))
    np.minimum(into, diameter + 1, out=into)
    return DistMatrix(g, into.astype(_exact_dtype(diameter + 1), copy=False), diameter)


def all_pairs_distances(g: Graph) -> DistMatrix:
    """Exact all-pairs distances: the pivot loop up to ``PIVOT_MAX_N`` vertices,
    one label-setting search per source, each filling a column, above."""
    return _distances(g, _pivot_fill if g.n <= PIVOT_MAX_N else _dijkstra_fill)


def path_membership(d: DistMatrix, row: np.ndarray, cols) -> np.ndarray:
    """Pair-major boolean (j, v) table: v lies on some shortest u-w path, w = ``cols[j]``,
    for ``row`` = dist(u, .), a row of a run of ``d.source_runs``, or for ``row[j]``
    when ``row`` holds one such row per target, a (len(cols), n) array. A w
    outside 0..n-1 raises ``IndexError`` and one unreachable from its u
    ``ValueError``. The legs dist(v, w) are the store's rows ``cols``, where an
    unreachable leg is D+1 and so never sums to the finite target; row j lists
    its path vertices in id order, as a CSR row wants them.
    """
    try:  # one C pass checks 0 <= w < n; indexing would count a negative w from the end
        cols = np.ravel_multi_index((cols,), (d.n,)) if len(cols) else np.zeros(0, np.intp)
    except ValueError:
        v = next(w for w in np.asarray(cols).tolist() if not 0 <= w < d.n)
        raise IndexError(f"vertex {v} out of range for {d.n} vertices") from None
    target = row[cols] if row.ndim == 1 else row[np.arange(len(cols)), cols]
    if np.maximum.reduce(target, initial=0) >= d.unreachable:
        raise ValueError(f"vertex {cols[target.argmax()]} is unreachable from the row's source")
    legs = d._into[cols]
    legs += row
    return legs == target[:, None]


def unique_pairs(directed: bool, us, ws) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (us[i], ws[i]), min-first when undirected, sorted by u and then w.

    ``np.unique(..., axis=0)`` gives the same, but numpy 2.4's plain unique asks
    ``np.ma.is_masked`` and so imports ``numpy.ma``: about 20 ms and 1.3 MB in
    every process that builds or verifies. A lexsort and an adjacent compare
    import nothing.
    """
    if not directed:
        us, ws = np.minimum(us, ws), np.maximum(us, ws)
    at = np.lexsort((ws, us))
    us, ws = us[at], ws[at]
    new = run_starts(us, ws)
    return us[new], ws[new]


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each entry of the key columns, sorted together, starts a run of equal keys."""
    new = np.ones(len(keys[0]), dtype=bool)
    new[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return new


def pair_arrays(d: DistMatrix, pairs) -> tuple[np.ndarray, np.ndarray]:
    """A caller's ``(u, w)`` pairs as sorted int64 sources and targets, min-first
    when undirected, repeats dropped and unreachable ones kept. The first pair
    with an id that is not an int (by ``as_int``) or is outside 0..n-1 raises
    ``ValueError``."""
    uw = []
    for u, w in (map(as_int, pair) for pair in pairs):
        if not (0 <= u < d.n and 0 <= w < d.n):
            raise ValueError(f"pair ({u},{w}) out of range")
        uw.append((u, w))
    return unique_pairs(d.directed, *np.array(uw, dtype=np.int64).reshape(-1, 2).T)


def ranges(starts: np.ndarray, counts) -> np.ndarray:
    """The ranges ``starts[i]``, ..., ``starts[i] + counts[i] - 1`` end to end, in
    the dtype of ``starts``."""
    offsets = np.cumsum(counts) - counts  # where each range begins in the output
    at = np.repeat(starts - offsets.astype(starts.dtype, copy=False), counts)
    at += np.arange(at.size, dtype=starts.dtype)
    return at


def runs(ptr: np.ndarray, ids=None, block=None):
    """Runs ``[lo, hi)`` of ``ids`` (default: of all rows of the CSR pointer ``ptr``),
    in order, each as long as it can be with at most ``block`` entries (default
    ``BLOCK``), a longer row alone. A run reads at most ``block`` ids ahead."""
    block = BLOCK if block is None else block
    count, lo = len(ptr) - 1 if ids is None else len(ids), 0
    while lo < count:
        if ids is None:
            hi = int(ptr.searchsorted(ptr[lo] + block, "right")) - 1
        else:
            part = ids[lo : lo + block]
            hi = lo + int((ptr[part + 1] - ptr[part]).cumsum().searchsorted(block, "right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def pair_blocks(count: int, n: int) -> list[tuple[int, int]]:
    """Runs ``[lo, hi)`` of ``count`` pairs whose n-cell ``path_membership`` rows
    total at most 4 ``BLOCK`` cells (2^16), a pair alone when n is larger."""
    step = max(1, 4 * BLOCK // n)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def transpose(ptr: np.ndarray, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(ptr, keys)`` inverted, keys in 0..n-1: ``rows[kptr[k]:kptr[k + 1]]``
    lists the rows holding key k, ascending, as int32. A stable counting transpose
    over the runs of ``runs(ptr)``, so no temporary spans every entry."""
    per_key = np.zeros(n, np.int64)
    for lo, hi in runs(ptr):
        per_key += np.bincount(keys[ptr[lo] : ptr[hi]], minlength=n)
    kptr = np.concatenate(([0], np.cumsum(per_key)))
    rows = np.empty(len(keys), np.int32)
    cursor = kptr[:-1].copy()
    for lo, hi in runs(ptr):  # a run's entries, sorted stably by key, go to its cursor
        xs = keys[ptr[lo] : ptr[hi]]
        owner = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(ptr[lo : hi + 1]))
        count = np.bincount(xs, minlength=n)
        rows[ranges(cursor, count)] = owner[np.argsort(xs, kind="stable")]
        cursor += count
    return kptr, rows
