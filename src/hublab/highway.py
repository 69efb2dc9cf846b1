"""Highway-dimension machinery on ``d.graph``, the graph of the distances ``d``:
witness paths, significant-path enumeration, neighborhoods, sparse shortest-path
hitting sets, and the multiscale labeling construction."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .graphs import CapExceededError, DistMatrix, Graph, ranges, transpose
from .labeling import Order, hub_labeling


# The most shortest paths an enumeration lists before it raises
# ``CapExceededError``; read at call time, so a test may lower it.
MAX_PATHS = 10**6


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


def _all_shortest_paths(g: Graph, d: DistMatrix) -> list[tuple[int, ...]]:
    """Every shortest path between every reachable pair, trivial paths included,
    each from its smaller end; more than ``MAX_PATHS`` raise ``CapExceededError``.

    Depth-first from each source u over the arcs (x, y, ln) with dist(u, x) + ln
    == dist(u, y): every prefix of such a walk is a shortest path from u, and
    those ending above u are listed. An explicit stack, so a path may outgrow
    the interpreter's recursion limit; the path's vertex set keeps it simple,
    as a zero-length edge would otherwise be walked back and forth forever."""
    cap = MAX_PATHS
    if g.directed:
        raise DirectedInputError("undirected graph required")
    adj = g.adjacency
    out: list[tuple[int, ...]] = [(v,) for v in range(g.n)]
    if len(out) > cap:
        raise CapExceededError(f"more than {cap} shortest paths")
    for u in (u for u in range(g.n) if adj[u]):
        du = d.exact()[u].tolist()  # dist(u, .) as Python ints
        path, on_path, stack = [u], {u}, [iter(adj[u])]
        while stack:
            dx = du[path[-1]]
            for y, ln in stack[-1]:
                if dx + ln == du[y] and y not in on_path:
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
                continue
            path.append(y)
            on_path.add(y)
            stack.append(iter(adj[y]))
            if y > u:
                out.append(tuple(path))
                if len(out) > cap:
                    raise CapExceededError(f"more than {cap} shortest paths")
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
def _paths_with_witnesses(g: Graph, d: DistMatrix):
    """Every shortest path with its witnesses, sorted by vertex count, then ids:
    the one enumeration that every reader and every scale of this layer filters.
    The last result is kept by graph and distances alone, so an SPHS build and
    its check enumerate once."""
    paths = sorted(_all_shortest_paths(g, d), key=lambda p: (len(p), p))
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


def enumerate_significant_paths(d: DistMatrix, r) -> list[SignificantPath]:
    """All r-significant shortest paths: those with a witness longer than r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    return [sp for sp, _ in _paths_with_witnesses(d.graph, d) if sp.reach > r]


def neighborhood_S(d: DistMatrix, v: int, r) -> list[SignificantPath]:
    """r-significant paths that are (r, 2r)-close to v: some witness longer
    than r lies within distance 2r of v."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    thr = _within(d, 2 * r)
    near = _from(d, v)
    return [
        sp
        for sp, wits in _paths_with_witnesses(d.graph, d)
        if any(wlen > r and near[list(wverts)].min() <= thr for wlen, wverts in wits)
    ]


def _from(d: DistMatrix, v: int) -> np.ndarray:
    """dist(v, .); an id outside 0..n-1 raises ``IndexError``."""
    if not 0 <= v < d.n:  # numpy would count a negative id from the end
        raise IndexError(f"vertex {v} out of range for {d.n} vertices")
    return d.exact()[v]


def ball(d: DistMatrix, v: int, r) -> set[int]:
    """Vertices within distance r of v (exact for rational r: dist <= floor(r))."""
    return set(np.flatnonzero(_from(d, v) <= _within(d, r)).tolist())


def _balls(d: DistMatrix, members, r):
    """``(c, near)`` per run of ``d.source_runs``: the sorted ``members`` c in the
    run and ``near[i, v]``, whether dist(c[i], v) <= r."""
    c, r = np.array(sorted(members), dtype=np.intp), _within(d, r)
    for a, rows, _ in d.source_runs():
        cs = c[c.searchsorted(a) : c.searchsorted(a + len(rows))]
        yield cs, rows[cs - a] <= r


def _ball_cap(d: DistMatrix, members: set[int] | frozenset[int], radius) -> int:
    """The most members of ``members`` in any one ball of the given radius."""
    count = sum((near.sum(axis=0) for _, near in _balls(d, members, radius)), np.zeros(d.n))
    return int(count.max(initial=0))


def is_sphs(d: DistMatrix, c, h: int, r) -> bool:
    """Check the sparse shortest-path hitting set conditions.

    ``c`` must hit every r-significant path that ``_must_hit`` names (those of
    positive length), and every ball of radius 2r may contain at most ``h``
    members of ``c``.
    """
    cset = set(c)
    stray = cset.difference(range(d.n))
    if stray:  # numpy would count a negative id from the end
        raise IndexError(f"vertex {min(stray)} out of range for {d.n} vertices")
    paths = enumerate_significant_paths(d, r)
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
    """Greedy hitting set of a sequence of non-empty vertex sets: repeatedly take the
    lowest-id vertex in the most sets not yet hit. The sets are one CSR table whose
    transpose lists the sets through each vertex; a pick uncounts and empties them."""
    size = np.fromiter(map(len, sets), np.int64, len(sets))
    ptr = np.concatenate(([0], size.cumsum()))
    verts = np.fromiter(chain.from_iterable(sets), np.int32, ptr[-1])
    count = np.bincount(verts)
    vptr, through = transpose(ptr, verts, len(count))
    hit: set[int] = set()
    while count.any():
        best = int(np.argmax(count))  # the first maximum: ties go to the lowest id
        hit.add(best)
        dead = through[vptr[best] : vptr[best + 1]]
        count -= np.bincount(verts[ranges(ptr[dead], size[dead])], minlength=len(count))
        size[dead] = 0  # a set hit again later uncounts nothing
    return hit


def greedy_multiscale_sphs(d: DistMatrix) -> MultiscaleSPHS:
    """Greedy hitting sets for every scale 2^(i-1), i = 1..ceil(log2 D), C_0 = V."""
    if d.directed:
        raise DirectedInputError("undirected graph required")
    if any(ln < 1 for _, _, ln in d.graph.arcs):
        raise ValueError("edge lengths must be at least 1")
    diam = d.diameter
    top = 0 if diam <= 1 else (diam - 1).bit_length()
    # every scale is at least 1: one enumeration at r = 1 holds every level's targets
    paths = enumerate_significant_paths(d, 1) if top >= 1 else []
    levels = [frozenset(range(d.n))]
    for i in range(1, top + 1):
        targets = [sp.vertices for sp in paths if _must_hit(sp, 2 ** (i - 1))]
        levels.append(frozenset(_greedy_hitting_set(targets)))
    caps = tuple(_ball_cap(d, levels[i], 2**i) for i in range(top + 1))
    return MultiscaleSPHS(tuple(levels), caps, diam)


def sphs_to_hhl(d: DistMatrix, ms: MultiscaleSPHS):
    """Order and labeling from a multiscale hitting-set family.

    Vertices rank by their highest level (higher level = more important, ties by
    id); each label keeps the more important members of every C_j within
    distance 2^j. The result covers all pairs and the maximum label size is at
    most 1 + sum of the per-level ball caps. The radii grow with j, so each
    entry comes once, from the level Q_i of its hub, i the hub's highest.
    """
    if d.directed:
        raise DirectedInputError("undirected graph required")
    n = d.n
    if not ms.levels or ms.levels[0] != frozenset(range(n)):
        raise InvalidSPHSError("bottom level must contain every vertex")
    if any(not level <= ms.levels[0] for level in ms.levels):
        raise InvalidSPHSError("every level must be a set of vertices of g")
    paths = enumerate_significant_paths(d, 1) if ms.top >= 1 else []
    for i in range(1, ms.top + 1):
        r = 2 ** (i - 1)
        if any(_must_hit(sp, r) and ms.levels[i].isdisjoint(sp.vertices) for sp in paths):
            raise InvalidSPHSError(f"level {i} misses a {r}-significant path")
    order = Order.from_sequence(v for q in reversed(ms.q_sets()) for v in sorted(q))
    rank = np.array([order.rank(v) for v in range(n)])
    # (owners, hubs), every vertex its own hub; uint16 as n <= MAX_VERTICES < 2^16
    entries = [(np.arange(n, dtype=np.uint16),) * 2]
    for j, members in enumerate(ms.q_sets()):
        for c, near in _balls(d, members, 2**j):
            i, v = np.divmod(np.flatnonzero(near & (rank[c, None] < rank)), n)
            entries.append((v.astype(np.uint16), c[i].astype(np.uint16)))
    return order, hub_labeling(d, tuple(map(np.concatenate, zip(*entries))))
