"""Highway-dimension machinery on ``d.graph``, the graph of the distances ``d``:
significant-path enumeration with each path's reach, sparse shortest-path hitting
sets, and the multiscale labeling construction."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

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


def _reaches(d: DistMatrix, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Reach of the shortest first[k]-last[k] paths: for ends a, b at L = dist(a, b),
    L + max(E[a, b], lx + E[x, b] over arcs (x, a, lx) with lx + L == dist(x, b)),
    E[s, t] the longest arc (t, y, l) with dist(s, t) + l == dist(s, y), else 0;
    per source a, from the rows of a and its neighbours, in int64. The witness
    rule's x, y off the path and distinct fail only across a zero-length arc,
    where the candidate is worth no more than one the rule admits."""
    n, adj = d.n, d.graph.adjacency
    deg = np.fromiter(map(len, adj), np.intp, n)
    aptr = np.concatenate(([0], deg.cumsum()))
    heads = np.fromiter((y for arcs in adj for y, _ in arcs), np.intp, aptr[-1])
    lens = np.fromiter((ln for arcs in adj for _, ln in arcs), np.int64, aptr[-1])
    tails, tailed = np.repeat(np.arange(n), deg), np.flatnonzero(deg)
    by_first = np.argsort(first, kind="stable")
    fptr = first[by_first].searchsorted(np.arange(n + 1))
    reach = np.zeros(len(first), np.int64)  # a vertex with no arc has reach 0
    for a in tailed.tolist():
        ln = lens[aptr[a] : aptr[a + 1], None]
        rows = d.exact()[np.r_[a, heads[aptr[a] : aptr[a + 1]]]].astype(np.int64)
        ext = np.where(rows[:, tails] + lens == rows[:, heads], lens, 0)
        e = np.zeros_like(rows)  # E[s, .] for s = a, then each neighbour
        e[:, tailed] = np.maximum.reduceat(ext, aptr[tailed], axis=1)
        past = np.where(rows[0] + ln == rows[1:], ln + e[1:], 0).max(axis=0)
        at = by_first[fptr[a] : fptr[a + 1]]
        reach[at] = (rows[0] + np.maximum(e[0], past))[last[at]]
    return reach


@functools.lru_cache(maxsize=1)  # Graph and DistMatrix are immutable and hashable
def _path_family(g: Graph, d: DistMatrix) -> list[SignificantPath]:
    """Every shortest path as a SignificantPath, sorted by vertex count, then ids:
    the one enumeration every reader of this layer filters. The last result is
    kept by graph and distances alone, so an SPHS build and its check enumerate once."""
    paths = sorted(_all_shortest_paths(g, d), key=lambda p: (len(p), p))
    first = np.fromiter((p[0] for p in paths), np.intp, len(paths))
    last = np.fromiter((p[-1] for p in paths), np.intp, len(paths))
    length = d.exact()[first, last].tolist()
    return list(map(SignificantPath, paths, length, _reaches(d, first, last).tolist()))


def _within(d: DistMatrix, r) -> int:
    """Largest distance within radius r: floor(r), capped at D because above D
    the distance array holds only the unreachable value."""
    return min(math.floor(r), d.diameter)


def enumerate_significant_paths(d: DistMatrix, r) -> list[SignificantPath]:
    """All r-significant shortest paths: those with a witness longer than r."""
    if r <= 0:
        raise ValueError("r must be positive")
    cut = _within(d, r)  # reach is an integer at most D
    return [sp for sp in _path_family(d.graph, d) if sp.reach > cut]


def _by_reach(paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive-length ``paths``, sorted stably by reach, as one CSR table
    ``(reach, ptr, verts)``. A zero-length path is hit only by its own vertices,
    which would degenerate every hitting measure; C_0 = V covers it."""
    paths = [sp for sp in paths if sp.length > 0]
    reach = np.fromiter(map(attrgetter("reach"), paths), np.int64, len(paths))
    size = np.fromiter((len(sp.vertices) for sp in paths), np.int64, len(paths))
    verts = np.fromiter(chain.from_iterable(sp.vertices for sp in paths), np.int32, size.sum())
    order = np.argsort(reach, kind="stable")  # twice as fast as sorting the paths
    start, size = (size.cumsum() - size)[order], size[order]
    return reach[order], np.concatenate(([0], size.cumsum())), verts[ranges(start, size)]


def _hits_all(d: DistMatrix, table, members, r) -> bool:
    """Whether ``members`` hit every path with reach > r of ``_by_reach``'s table,
    a suffix: one ``logical_or.reduceat`` of membership over its vertices."""
    reach, ptr, verts = table
    k = reach.searchsorted(_within(d, r), "right")
    member = np.zeros(d.n, bool)
    member[list(members)] = True
    starts = ptr[k:-1] - ptr[k]
    return k == len(reach) or bool(np.logical_or.reduceat(member[verts[ptr[k] :]], starts).all())


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

    ``c`` must hit every r-significant path of positive length (``_by_reach``),
    and every ball of radius 2r may contain at most ``h`` members of ``c``.
    """
    cset = set(c)
    stray = cset.difference(range(d.n))
    if stray:  # numpy would count a negative id from the end
        raise IndexError(f"vertex {min(stray)} out of range for {d.n} vertices")
    hit = _hits_all(d, _by_reach(enumerate_significant_paths(d, r)), cset, r)
    return hit and (not cset or _ball_cap(d, cset, 2 * r) <= h)


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
        out, taken = [], set()
        for level in reversed(self.levels):
            out.append(frozenset(level - taken))
            taken |= level
        return tuple(reversed(out))


def _greedy_hitting_sets(ptr: np.ndarray, verts: np.ndarray, starts):
    """Greedy hitting sets of the non-empty vertex sets of the CSR table ``(ptr,
    verts)`` from each set k of ``starts`` on: repeatedly take the lowest-id vertex
    in the most sets not yet hit. The table's transpose, built once, lists the sets
    through each vertex, ascending, so those from k on are a suffix of each list;
    a pick uncounts and empties them."""
    n = int(verts.max(initial=-1)) + 1
    vptr, through = transpose(ptr, verts, n)
    for k in starts:
        size, hit = np.diff(ptr), set()
        count = np.bincount(verts[ptr[k] :], minlength=n)
        while count.any():
            best = int(np.argmax(count))  # the first maximum: ties go to the lowest id
            hit.add(best)
            dead = through[vptr[best] : vptr[best + 1]]
            dead = dead[dead.searchsorted(k) :]
            count -= np.bincount(verts[ranges(ptr[dead], size[dead])], minlength=n)
            size[dead] = 0  # a set hit again later uncounts nothing
        yield hit


def greedy_multiscale_sphs(d: DistMatrix) -> MultiscaleSPHS:
    """Greedy hitting sets for every scale 2^(i-1), i = 1..ceil(log2 D), C_0 = V."""
    if d.directed:
        raise DirectedInputError("undirected graph required")
    if any(ln < 1 for _, _, ln in d.graph.arcs):
        raise ValueError("edge lengths must be at least 1")
    top = max(d.diameter - 1, 0).bit_length()  # ceil(log2 D), 0 when D <= 1
    # every scale is at least 1: one enumeration at r = 1 holds every level's targets
    reach, ptr, verts = _by_reach(enumerate_significant_paths(d, 1) if top >= 1 else [])
    # level i's targets, reach > 2^(i-1), are the table's suffix from starts[i - 1]
    starts = reach.searchsorted([2 ** (i - 1) for i in range(1, top + 1)], "right")
    levels = [frozenset(range(d.n)), *map(frozenset, _greedy_hitting_sets(ptr, verts, starts))]
    caps = tuple(_ball_cap(d, levels[i], 2**i) for i in range(top + 1))
    return MultiscaleSPHS(tuple(levels), caps, d.diameter)


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
    top = max(d.diameter - 1, 0).bit_length()  # as greedy_multiscale_sphs builds
    if ms.top < top:
        raise InvalidSPHSError(f"top level {ms.top} is below ceil(log2 D) = {top}")
    table = _by_reach(enumerate_significant_paths(d, 1) if ms.top >= 1 else [])
    for i in range(1, ms.top + 1):
        if not _hits_all(d, table, ms.levels[i], 2 ** (i - 1)):
            raise InvalidSPHSError(f"level {i} misses a {2 ** (i - 1)}-significant path")
    order = Order.from_sequence(v for q in reversed(ms.q_sets()) for v in sorted(q))
    rank = np.array([order.rank(v) for v in range(n)])
    # (owners, hubs), every vertex its own hub; uint16 as n <= MAX_VERTICES < 2^16
    entries = [(np.arange(n, dtype=np.uint16),) * 2]
    for j, members in enumerate(ms.q_sets()):
        for c, near in _balls(d, members, 2**j):
            i, v = np.divmod(np.flatnonzero(near & (rank[c, None] < rank)), n)
            entries.append((v.astype(np.uint16), c[i].astype(np.uint16)))
    return order, hub_labeling(d, tuple(map(np.concatenate, zip(*entries))))
