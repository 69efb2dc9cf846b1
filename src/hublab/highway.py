"""Highway-dimension machinery: witness paths, significant-path enumeration,
neighborhoods, sparse shortest-path hitting sets, and the multiscale labeling
construction, plus the per-level label audit for distance-greedy runs."""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .graphs import CapExceededError, DistMatrix, Graph
from .greedy import RunTrace, TraceNotFromDHHLError
from .labeling import Order, hub_labeling


class DirectedInputError(ValueError):
    """Highway-dimension machinery is defined on undirected graphs."""


class InvalidSPHSError(ValueError):
    """A multiscale hitting-set family failed validation."""


@dataclass(frozen=True, slots=True)  # one per shortest path: no per-instance dict
class SignificantPath:
    """A shortest path and its reach: the length of its longest witness, the path
    extended by at most one vertex per end to a shortest path. The path is
    r-significant iff ``reach > r``."""

    vertices: tuple[int, ...]
    length: int
    reach: int


def _all_shortest_paths(g: Graph, d: DistMatrix, cap: int) -> list[tuple[int, ...]]:
    """Every shortest path between every reachable pair, trivial paths included.

    Paths are emitted in canonical direction (smaller endpoint first).
    """
    if g.directed:
        raise DirectedInputError("undirected graph required")
    adj = g.adjacency
    out: list[tuple[int, ...]] = [(v,) for v in range(g.n)]
    if len(out) > cap:
        raise CapExceededError(f"more than {cap} shortest paths")
    for u in range(g.n):
        du = d.exact()[u].tolist()  # symmetric: dist(u, .) as Python ints
        for w in range(u + 1, g.n):
            if du[w] == d.unreachable:
                continue
            # Depth-first from w back to u over arcs that stay on a shortest path.
            # Frames are (tip, distance left to u, unread neighbours of tip); an
            # explicit stack, so a path may outgrow the interpreter's recursion
            # limit. Paths stay simple: a zero-length edge would otherwise be
            # walked back and forth forever.
            stack, on_path = [(w, du[w], iter(adj[w]))], {w}
            while stack:
                tip, left, nbrs = stack[-1]
                for x, ln in nbrs:
                    if x not in on_path and du[x] + ln == left:
                        break
                else:
                    stack.pop()
                    on_path.discard(tip)
                    continue
                if x == u:
                    out.append((u, *(t for t, _, _ in reversed(stack))))
                    if len(out) > cap:
                        raise CapExceededError(f"more than {cap} shortest paths")
                else:
                    stack.append((x, left - ln, iter(adj[x])))
                    on_path.add(x)
    return out


def _with_witnesses(g: Graph, d: DistMatrix, path: tuple[int, ...]):
    """A shortest path as a SignificantPath, with all its witness extensions: the
    path itself and the single-vertex extensions per end that remain shortest
    paths, as (length, vertices) pairs."""
    dist = d.dist  # every vertex here reaches every other: one component
    first, last = path[0], path[-1]
    length = dist(first, last)
    pset = set(path)
    pres = [
        (x, ln)
        for x, ln in g.adjacency[first]
        if x not in pset and ln + length == dist(x, last)
    ]
    posts = [
        (y, ln)
        for y, ln in g.adjacency[last]
        if y not in pset and length + ln == dist(first, y)
    ]
    out = [(length, path)]
    for x, lx in pres:
        out.append((length + lx, (x,) + path))
    for y, ly in posts:
        out.append((length + ly, path + (y,)))
    for x, lx in pres:
        for y, ly in posts:
            if x != y and lx + length + ly == dist(x, y):
                out.append((lx + length + ly, (x,) + path + (y,)))
    return SignificantPath(path, length, max(wlen for wlen, _ in out)), out


@functools.lru_cache(maxsize=1)  # Graph and DistMatrix are immutable and hashable
def _paths_with_witnesses(g: Graph, d: DistMatrix, cap: int):
    """Every shortest path with its witnesses, sorted by vertex count, then ids:
    the one enumeration that every reader and every scale of this layer filters.
    The last result is kept, so an SPHS build and its check enumerate once."""
    paths = sorted(_all_shortest_paths(g, d, cap), key=lambda p: (len(p), p))
    return [_with_witnesses(g, d, p) for p in paths]


def _within(d: DistMatrix, r) -> int:
    """Largest distance within radius r: floor(r), capped at D because above D
    the distance array holds only the unreachable value."""
    return min(math.floor(Fraction(r)), d.diameter)


def _must_hit(sp: SignificantPath, r) -> bool:
    """Whether a hitting set at scale r must hit ``sp``: it is r-significant and
    of positive length. A zero-length path is hit only by its own vertices, which
    would degenerate every hitting measure; the bottom level C_0 = V covers it."""
    return sp.length > 0 and sp.reach > r


def enumerate_significant_paths(
    g: Graph, d: DistMatrix, r, cap: int = 10**6
) -> list[SignificantPath]:
    """All r-significant shortest paths: those with a witness longer than r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return [sp for sp, _ in _paths_with_witnesses(g, d, cap) if sp.reach > r]


def neighborhood_S(
    g: Graph, d: DistMatrix, v: int, r, cap: int = 10**6
) -> list[SignificantPath]:
    """r-significant paths that are (r, 2r)-close to v: some witness longer
    than r lies within distance 2r of v."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    thr = _within(d, 2 * r)
    near = d.exact()[:, v]  # dist(v, .)
    return [
        sp
        for sp, wits in _paths_with_witnesses(g, d, cap)
        if any(wlen > r and near[list(wverts)].min() <= thr for wlen, wverts in wits)
    ]


def ball(d: DistMatrix, v: int, r) -> set[int]:
    """Vertices within distance r of v (exact for rational r: dist <= floor(r))."""
    return set(np.flatnonzero(d.exact()[:, v] <= _within(d, r)).tolist())


def _ball_cap(d: DistMatrix, members: set[int] | frozenset[int], radius) -> int:
    """The most members of ``members`` in any one ball of the given radius."""
    if not members:
        return 0
    carr = np.array(sorted(members), dtype=np.int64)
    return int((d.exact()[carr] <= _within(d, radius)).sum(axis=0).max())


def is_sphs(g: Graph, d: DistMatrix, c, h: int, r, cap: int = 10**6) -> bool:
    """Check the sparse shortest-path hitting set conditions.

    ``c`` must hit every r-significant path that ``_must_hit`` names (those of
    positive length), and every ball of radius 2r may contain at most ``h``
    members of ``c``.
    """
    cset = set(c)
    paths = enumerate_significant_paths(g, d, r, cap)
    if any(_must_hit(sp, r) and cset.isdisjoint(sp.vertices) for sp in paths):
        return False
    return not cset or _ball_cap(d, cset, 2 * Fraction(r)) <= h


@dataclass(frozen=True)
class MultiscaleSPHS:
    """Hitting sets C_0..C_T with C_0 = V; level i hits paths longer than 2^(i-1).

    ``ball_caps[i]`` is the exact maximum of |C_i intersect B(v, 2^i)| over v.
    """

    levels: tuple[frozenset[int], ...]
    ball_caps: tuple[int, ...]
    diameter: int

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def q_sets(self) -> tuple[frozenset[int], ...]:
        """Q_i: vertices whose highest level is i (a partition of V)."""
        out = []
        taken: set[int] = set()
        for i in range(self.top, -1, -1):
            q = frozenset(self.levels[i] - taken)
            taken |= self.levels[i]
            out.append(q)
        return tuple(reversed(out))


def _greedy_hitting_set(sets) -> set[int]:
    """Greedy hitting set of non-empty vertex sets: repeatedly take the lowest-id
    vertex that hits the most sets not yet hit. Sets are counted once; a pick
    subtracts the sets it hits, and a vertex left in none drops out."""
    unhit = list(sets)
    count = Counter(chain.from_iterable(unhit))
    hit: set[int] = set()
    while count:
        best = min(count, key=lambda v: (-count[v], v))
        hit.add(best)
        count -= Counter(chain.from_iterable(s for s in unhit if best in s))
        unhit = [s for s in unhit if best not in s]
    return hit


def greedy_multiscale_sphs(g: Graph, d: DistMatrix, cap: int = 10**6) -> MultiscaleSPHS:
    """Greedy hitting sets for every scale 2^(i-1), i = 1..ceil(log2 D), C_0 = V."""
    if g.directed:
        raise DirectedInputError("undirected graph required")
    if any(ln < 1 for _, _, ln in g.arcs):
        raise ValueError("edge lengths must be at least 1")
    n = g.n
    diam = d.diameter
    top = 0 if diam <= 1 else (diam - 1).bit_length()
    # every scale is at least 1: one enumeration at r = 1 holds every level's targets
    paths = enumerate_significant_paths(g, d, 1, cap) if top >= 1 else []
    levels = [frozenset(range(n))]
    for i in range(1, top + 1):
        targets = [frozenset(sp.vertices) for sp in paths if _must_hit(sp, 2 ** (i - 1))]
        levels.append(frozenset(_greedy_hitting_set(targets)))
    caps = tuple(_ball_cap(d, levels[i], 2**i) for i in range(top + 1))
    return MultiscaleSPHS(tuple(levels), caps, diam)


def sphs_to_hhl(g: Graph, d: DistMatrix, ms: MultiscaleSPHS):
    """Order and labeling from a multiscale hitting-set family.

    Vertices rank by their highest level (higher level = more important, ties by
    id); each label keeps the more important members of every C_j within
    distance 2^j. The result covers all pairs and the maximum label size is at
    most 1 + sum of the per-level ball caps.
    """
    if g.directed:
        raise DirectedInputError("undirected graph required")
    n = g.n
    if not ms.levels or ms.levels[0] != frozenset(range(n)):
        raise InvalidSPHSError("bottom level must contain every vertex")
    if any(not level <= ms.levels[0] for level in ms.levels):
        raise InvalidSPHSError("every level must be a set of vertices of g")
    paths = enumerate_significant_paths(g, d, 1) if ms.top >= 1 else []
    for i in range(1, ms.top + 1):
        r = 2 ** (i - 1)
        if any(_must_hit(sp, r) and ms.levels[i].isdisjoint(sp.vertices) for sp in paths):
            raise InvalidSPHSError(f"level {i} misses a {r}-significant path")
    order = Order.from_sequence(v for q in reversed(ms.q_sets()) for v in sorted(q))
    rank = np.array([order.rank(v) for v in range(n)])
    hub = np.eye(n, dtype=bool)
    for j, members in enumerate(ms.levels):
        cj = np.array(sorted(members), dtype=np.int64)
        hub[:, cj] |= (d.exact()[:, cj] <= _within(d, 2**j)) & (rank[cj] < rank[:, None])
    return order, hub_labeling(d, hub)


@dataclass(frozen=True)
class DhhlLevelAudit:
    """Per-vertex, per-level hub counts of a distance-greedy run."""

    per_vertex_level: dict[int, dict[int | float, int]]
    label_sizes: dict[int, int]
    max_level_count: int
    bound_ratio: float


def audit_dhhl_levels(trace: RunTrace, d: DistMatrix, h: int) -> DhhlLevelAudit:
    """Count, per vertex, the hubs contributed at each selection level.

    ``h`` is the highway dimension used to scale the reported ratio
    max_count / (h * log2(n + 1)); a ratio of infinity is reported when h = 0.
    """
    if trace.algo != "d-hhl":
        raise TraceNotFromDHHLError(f"trace is from {trace.algo!r}")
    per: dict[int, dict[int | float, int]] = {v: {} for v in range(trace.n)}
    sizes: dict[int, int] = {v: 0 for v in range(trace.n)}
    for rec in trace.iterations:
        for u in rec.receivers_fwd:
            per[u][rec.level] = per[u].get(rec.level, 0) + 1
            sizes[u] += 1
        for w in rec.receivers_bwd:
            per[w][rec.level] = per[w].get(rec.level, 0) + 1
            sizes[w] += 1
    max_count = max((c for counts in per.values() for c in counts.values()), default=0)
    denom = h * math.log2(trace.n + 1)
    ratio = max_count / denom if denom > 0 else math.inf
    return DhhlLevelAudit(per, sizes, max_count, ratio)
