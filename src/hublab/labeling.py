"""Hub labelings: data model, distance queries, cover verification, canonical construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import INF, MAX_TOTAL_LENGTH, DistMatrix, path_membership, unique_pairs


class LabelFormatError(ValueError):
    """Malformed label file input."""


class Order:
    """Total importance order over vertices 0..n-1; rank 1 is the most important."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        ranks = [int(r) for r in ranks]
        n = len(ranks)
        if sorted(ranks) != list(range(1, n + 1)):
            raise ValueError("ranks must be a permutation of 1..n")
        self._ranks = tuple(ranks)

    @classmethod
    def from_sequence(cls, vertices) -> "Order":
        """Build from vertices listed most-important-first."""
        vertices = [int(v) for v in vertices]
        n = len(vertices)
        ranks = [0] * n
        for pos, v in enumerate(vertices):
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for an order of {n} vertices")
            if ranks[v]:
                raise ValueError(f"vertex {v} listed twice")
            ranks[v] = pos + 1
        return cls(ranks)

    @property
    def n(self) -> int:
        return len(self._ranks)

    def rank(self, v: int) -> int:
        if v < 0:  # a tuple would count it from the end
            raise IndexError(f"vertex {v} out of range for an order of {self.n} vertices")
        return self._ranks[v]

    def by_rank(self) -> list[int]:
        """Vertices most-important-first."""
        return sorted(range(self.n), key=self._ranks.__getitem__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Order):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"Order({list(self._ranks)})"


def _csr(n: int, own, hub, dist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side as CSR arrays ``(ptr, hub, dist)`` from its entries' vertices,
    hubs and distances, ints in any order: sorted by (vertex, hub), repeats of
    an entry dropped. The first entry with a vertex outside 0..n-1 raises
    ``ValueError``; so does, next, the first vertex with a hub at two
    distances, or else with a hub out of range, a negative distance or one
    from 2^53 on."""
    try:
        own, hub, dist = (np.array(x, np.int64) for x in (own, hub, dist))
    except OverflowError:  # an int beyond int64 is out of range anyway: clamp it
        return _csr(n, *([min(max(x, -(2**62)), 2**62) for x in xs] for xs in (own, hub, dist)))
    out = np.flatnonzero((own < 0) | (own >= n))
    if out.size:
        raise ValueError(f"entry {out[0]}: vertex {own[out[0]]} out of range")
    at = np.lexsort((hub, own))  # a hub's entries in one row end up adjacent
    own, hub, dist = own[at], hub[at], dist[at]
    first = np.ones(own.size, bool)  # the first entry of its (vertex, hub)
    first[1:] = (own[1:] != own[:-1]) | (hub[1:] != hub[:-1])
    keep = first.copy()
    keep[1:] |= dist[1:] != dist[:-1]
    own, hub, dist, first = own[keep], hub[keep], dist[keep], first[keep]
    bad = (hub < 0) | (hub >= n) | (dist < 0) | (dist >= MAX_TOTAL_LENGTH)
    if bad.any() or not first.all():
        v = own[np.argmax(bad | ~first)]
        if not first[own == v].all():
            raise ValueError(f"vertex {v}: duplicate hub with conflicting distances")
        i = np.argmax(bad & (own == v))
        if not 0 <= hub[i] < n:
            raise ValueError(f"vertex {v}: hub {hub[i]} out of range")
        if dist[i] < 0:
            raise ValueError(f"vertex {v}: negative hub distance")
        raise ValueError(f"vertex {v}: hub distance reaches 2^53, above any distance")
    ptr = np.searchsorted(own, np.arange(n + 1))
    for a in (ptr, hub, dist):
        a.flags.writeable = False  # a Labeling's hash and cached views rely on it
    return ptr, hub, dist


def _rows_csr(n: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_csr`` of n rows, each an iterable of ``(hub, dist)`` pairs or a dict."""
    if len(rows) != n:
        raise ValueError(f"expected {n} label lists, got {len(rows)}")
    pairs = (r.items() if isinstance(r, dict) else r for r in rows)
    entries = [(v, int(h), int(dd)) for v, row in enumerate(pairs) for h, dd in row]
    return _csr(n, *(zip(*entries) if entries else ((), (), ())))


def _cut(ptr: np.ndarray, items: list) -> list[list]:
    """``items``, one per entry of a side, cut into its vertices' rows."""
    ends = ptr.tolist()
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def _row_tuples(ptr: np.ndarray, hub: np.ndarray, dist: np.ndarray) -> tuple:
    return tuple(map(tuple, _cut(ptr, list(zip(hub.tolist(), dist.tolist())))))


class Labeling:
    """Per-vertex hub lists with exact distances, in one flat store; immutable.

    Each side is read-only int64 CSR arrays ``(ptr, hub, dist)``: v's label is the slice
    ``ptr[v]:ptr[v + 1]``, hubs strictly increasing. Directed labelings keep a
    forward side ``fwd_csr`` and a backward side ``bwd_csr``; undirected ones
    one side in both roles. Rows given to the constructor (n iterables of
    ``(hub, dist)`` pairs, or dicts, per side), a parsed file and the entries
    ``hub_labeling`` assembles all reach the arrays through ``_csr``'s checks.
    ``fwd[v]`` / ``bwd[v]`` give rows of ``(hub, dist)`` tuples, and ``query`` and ``hubs``
    read one hub -> dist dict per vertex and side; both views are built on first read.
    """

    def __init__(self, directed: bool, n: int, fwd, bwd=None):
        self.directed, self.n = bool(directed), n
        self.fwd_csr = self.bwd_csr = _rows_csr(n, fwd)
        if self.directed:
            if bwd is None:
                raise ValueError("directed labeling requires backward lists")
            self.bwd_csr = _rows_csr(n, bwd)
        elif bwd is not None:
            raise ValueError("undirected labeling stores a single list per vertex")

    @classmethod
    def _from_entries(cls, directed: bool, n: int, fwd, bwd=None) -> "Labeling":
        """A labeling from each side's entries ``(vertices, hubs, distances)``,
        sorted and checked by ``_csr``; an undirected labeling has one side."""
        lab = cls.__new__(cls)
        lab.directed, lab.n = directed, n
        lab.fwd_csr = lab.bwd_csr = _csr(n, *fwd)
        if directed:
            lab.bwd_csr = _csr(n, *bwd)
        return lab

    def _sides(self) -> tuple:
        return (self.fwd_csr, self.bwd_csr) if self.directed else (self.fwd_csr,)

    @cached_property
    def fwd(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _row_tuples(*self.fwd_csr)

    @cached_property
    def bwd(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _row_tuples(*self.bwd_csr) if self.directed else self.fwd

    @cached_property
    def _maps(self) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
        """The forward and backward sides as ``{v: {hub: dist}}`` for ``query`` and
        ``hubs``; an undirected labeling's one side serves in both roles."""
        maps = []
        for ptr, hub, dist in self._sides():
            rows = map(zip, _cut(ptr, hub.tolist()), _cut(ptr, dist.tolist()))
            maps.append(dict(enumerate(map(dict, rows))))
        return maps[0], maps[-1]

    @property
    def size(self) -> int:
        return sum(hub.size for _, hub, _ in self._sides())

    def hubs(self, v: int) -> set[int]:
        return {h for side in self._maps for h in side[v]}

    def query(self, s: int, t: int) -> int | float:
        """Minimum hubdist sum over common hubs of L_f(s) and L_b(t); INF if none.

        Each hub of the smaller row is looked up in the other's hub -> dist map
        (``_maps``): min(|L_f(s)|, |L_b(t)|) hash probes, with exact int sums.
        An id outside 0..n-1 is no key of ``_maps``, so it raises ``LookupError``."""
        fwd, bwd = self._maps
        f, b = fwd[s], bwd[t]
        if len(f) > len(b):
            f, b = b, f
        best = INF
        for h in f:
            if h in b:
                x = f[h] + b[h]
                if x < best:
                    best = x
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        mine, theirs = self.fwd_csr + self.bwd_csr, other.fwd_csr + other.bwd_csr
        return (self.directed, self.n) == (other.directed, other.n) and all(
            map(np.array_equal, mine, theirs)
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, *(a.tobytes() for s in self._sides() for a in s)))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Labeling({kind}, n={self.n}, size={self.size})"


def labeling_size(l: Labeling) -> int:
    """Total hub count; undirected lists are counted once."""
    return l.size


@dataclass(frozen=True)
class CoverReport:
    """Result of cover verification, as two sorted tuples of pairs.

    ``wrong_distance`` holds the pairs a stored hub distance claims to certify
    but gets wrong; ``uncovered`` holds the pairs with no common hub on a
    shortest path. A pair can be in both. ``violations``, their sorted union
    without repeats, is computed once when the report is made and takes no
    part in equality.
    """

    wrong_distance: tuple[tuple[int, int], ...]
    uncovered: tuple[tuple[int, int], ...]
    violations: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        union = tuple(sorted(set(self.wrong_distance).union(self.uncovered)))
        object.__setattr__(self, "violations", union)

    @property
    def valid(self) -> bool:
        return not (self.wrong_distance or self.uncovered)


def verify_cover(l: Labeling, d: DistMatrix, pairs=None) -> CoverReport:
    """Check the cover property against exact distances.

    Each stored entry (h, dd) in a label of v is audited against ``d``; a wrong
    one, or one for an unreachable pair, marks the pair it claims to certify. A
    pair [s,t] is uncovered when no common hub lies on a shortest s-t path by
    the distances of ``d``, so a wrong stored distance can neither hide nor
    fake a cover. Restricting ``pairs`` checks cover for that subset only;
    unreachable pairs are skipped.
    """
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    into, far = d.exact(), d.unreachable
    wrong_s, wrong_t, ends = [], [], []
    for k, (ptr, hub, dist) in enumerate(l._sides()):
        own = np.repeat(np.arange(l.n), np.diff(ptr))
        s, t = (hub, own) if k else (own, hub)  # the pair an entry certifies
        bad = (into[t, s] != dist) | (dist >= far)
        wrong_s.append(s[bad])
        wrong_t.append(t[bad])
        ends.append((hub, own))
    (f_hub, f_own), (b_hub, b_own) = ends[0], ends[-1]
    unc_s, unc_t = _uncovered(l.directed, into, far, f_hub, f_own, b_hub, b_own, pairs)
    return CoverReport(
        _sorted_pairs(l.directed, wrong_s, wrong_t), _sorted_pairs(l.directed, [unc_s], [unc_t])
    )


def _uncovered(directed: bool, into: np.ndarray, far: int, f_hub, f_own, b_hub, b_own, pairs):
    """Sources and targets of the uncovered pairs, by a join of the two sides on their hubs.

    Both sides are sorted by hub, and each forward entry (s, h) meets every
    backward entry (h, t) of its hub; undirected, the one side meets itself
    from its own position on, so t >= s. A triple covers [s, t] when
    dist(s, h) + dist(h, t) == dist(s, t), all three read from ``into``; a
    leg to an unreachable hub is ``far`` and matches no distance. ``hit[t, s]``,
    one n x n bool seeded with the unreachable pairs, collects the covers, and
    the pairs left unhit are the uncovered ones.

    There are J = sum over hubs of |F_h| |B_h| triples, and since a hub has at
    most n owners, J <= n (B + n), B the backward entries: the cells a scan of
    every backward label per source would gather. The triples go in blocks of
    about B + n int32 indices (an entry's partners, at most n, stay in one
    block), so the join takes at most n blocks and its temporaries stay near
    the size of one such scan's row; flat cells t * n + s fit since
    n^2 < 2^31.
    """
    n = into.shape[0]
    fo = np.argsort(f_hub, kind="stable")  # hub order, owners ascending within a hub
    bo = np.argsort(b_hub, kind="stable") if directed else fo
    s_of, fh = f_own[fo].astype(np.int32), f_hub[fo]
    t_of, bh = b_own[bo].astype(np.int32), b_hub[bo]
    leg_f, leg_b = into[fh, s_of], into[t_of, bh]  # dist(s, h), dist(h, t)
    t_row = t_of * np.int32(n)
    sizes = np.bincount(bh, minlength=n)
    group_end = np.cumsum(sizes)
    # Per forward entry: its first partner among the sorted backward entries,
    # and how many it has.
    first = group_end[fh] - sizes[fh] if directed else np.arange(fo.size)
    count = group_end[fh] - first
    start = np.cumsum(count) - count  # each entry's first triple
    # Block k takes the entries whose triples start in [k, k + 1) * block.
    block = max(b_hub.size + n, 1)
    cuts = np.searchsorted(start, np.arange(block, count.sum(), block)).tolist()
    hit = into >= far
    flat_hit, flat_into = hit.reshape(-1), into.reshape(-1)
    for a, z in zip([0, *cuts], [*cuts, fo.size]):
        if z == a:
            continue
        reps = count[a:z]
        # Triple k of the block meets partner first + k - (the entry's start in the block).
        shift = (first[a:z] - (start[a:z] - start[a])).astype(np.int32)
        j = np.repeat(shift, reps)
        j += np.arange(j.size, dtype=np.int32)
        cell = t_row[j] + np.repeat(s_of[a:z], reps)
        on_path = np.repeat(leg_f[a:z], reps) + leg_b[j] == flat_into[cell]
        flat_hit[cell[on_path]] = True
    np.logical_not(hit, out=hit)  # now reachable and uncovered
    if pairs is None:
        ts, ss = np.nonzero(hit)
        keep = ts >= ss if not directed else slice(None)
    else:
        ss, ts = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
        keep = hit[ts, ss] if directed else hit[np.maximum(ss, ts), np.minimum(ss, ts)]
    return ss[keep], ts[keep]


def _sorted_pairs(directed: bool, us, ws) -> tuple[tuple[int, int], ...]:
    """Distinct pairs from chunks of sources and targets, canonical u <= w when undirected."""
    us, ws = (np.concatenate([np.empty(0, np.int64), *x]) for x in (us, ws))
    if not directed:
        us, ws = np.minimum(us, ws), np.maximum(us, ws)
    return tuple(zip(*(x.tolist() for x in unique_pairs(us, ws))))


def canonical_hhl(d: DistMatrix, pi: Order) -> Labeling:
    """Canonical hierarchical labeling for an order.

    The hub of each reachable pair is the most important vertex on its shortest
    paths; the result respects ``pi`` and is the minimum labeling doing so.
    """
    n = d.n
    if pi.n != n:
        raise ValueError("order and distance matrix disagree on n")
    into = d.exact()
    by_rank = np.array(pi.by_rank(), dtype=np.int64)
    # hub_f[u, h]: h is the hub of a pair [u, .]; hub_b[w, h] of a pair [., w].
    hub_f = np.zeros((n, n), dtype=bool)
    hub_b = np.zeros((n, n), dtype=bool) if d.directed else hub_f
    for u in range(n):
        cols = np.flatnonzero(into[:, u] < d.unreachable)
        if not d.directed:
            cols = cols[cols >= u]
        # Columns in rank order: the first vertex on a path is its most important one.
        hubs = by_rank[np.argmax(path_membership(d, u, cols)[:, by_rank], axis=1)]
        hub_f[u, hubs] = True
        hub_b[cols, hubs] = True
    return hub_labeling(d, np.nonzero(hub_f), np.nonzero(hub_b) if d.directed else None)


def hub_labeling(d: DistMatrix, fwd, bwd=None) -> Labeling:
    """Labeling from hub entries, each hub at its exact distance: the one reader
    of label distances from ``d``.

    A side is a pair of int arrays ``(owners, hubs)``: entry i puts ``hubs[i]``
    in the forward label of ``owners[i]`` at dist(owner, hub) for ``fwd``, in
    its backward label at dist(hub, owner) for ``bwd``; an undirected labeling
    has only ``fwd``. ``np.nonzero`` of an owner-by-hub boolean table is such a
    pair. Entries come in any order and may repeat: ``_csr`` sorts and checks
    them as it does a parsed file's. The first entry of a side with an owner
    or hub outside 0..n-1, or with its hub unreachable along the side, raises
    ``ValueError``.
    """
    into = d.exact()  # into[w, v] = dist(v, w)
    sides = []
    for name, side in (("forward", fwd), ("backward", bwd)):
        if side is None:
            continue
        own, hub = (np.asarray(x, np.int64) for x in side)
        out = np.flatnonzero((own < 0) | (own >= d.n) | (hub < 0) | (hub >= d.n))
        if out.size:
            i = out[0]
            raise ValueError(f"{name} entry {i}: vertex {own[i]} or hub {hub[i]} out of range")
        # dist(owner, hub) forward, dist(hub, owner) backward
        dist = into[hub, own] if name == "forward" else into[own, hub]
        far = np.flatnonzero(dist == d.unreachable)
        if far.size:
            i = far[0]
            raise ValueError(f"{name} entry {i}: hub {hub[i]} of vertex {own[i]} is unreachable")
        sides.append((own, hub, dist))
    return Labeling._from_entries(d.directed, d.n, *sides)


def respects_order(l: Labeling, pi: Order) -> bool:
    """True iff every hub of v is at least as important as v."""
    for v in range(l.n):
        rv = pi.rank(v)
        if any(pi.rank(h) > rv for h in l.hubs(v)):
            return False
    return True


def is_sublabeling(a: Labeling, b: Labeling) -> bool:
    """True iff every hub entry of ``a`` appears in ``b`` on the same side."""
    if a.directed != b.directed or a.n != b.n:
        raise ValueError("labelings disagree on shape")
    for v in range(a.n):
        if not set(a.fwd[v]) <= set(b.fwd[v]):
            return False
        if a.directed and not set(a.bwd[v]) <= set(b.bwd[v]):
            return False
    return True


def serialize_labeling(l: Labeling) -> str:
    """Deterministic text form: one line per vertex per side, hubs ascending."""

    def lines(tag: str, side: tuple) -> list[str]:
        ptr, hub, dist = side
        rows = _cut(ptr, [f"{h}:{dd}" for h, dd in zip(hub.tolist(), dist.tolist())])
        return [" ".join([tag, str(v), *row]) for v, row in enumerate(rows)]

    if l.directed:
        out = [x for pair in zip(lines("f", l.fwd_csr), lines("b", l.bwd_csr)) for x in pair]
    else:
        out = lines("l", l.fwd_csr)
    return "\n".join(out) + "\n"


def parse_labeling(text: str) -> Labeling:
    """Parse the label file format produced by :func:`serialize_labeling`.

    Entries go straight into flat lists of ints, one pair per ``h:d`` token,
    and from them into the CSR store through the checks rows get in ``Labeling``.
    """
    seen: dict[str, set[int]] = {"f": set(), "b": set(), "l": set()}
    entries = {tag: ([], [], []) for tag in seen}  # per side: vertices, hubs, distances
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] not in seen or len(parts) < 2:
            raise LabelFormatError(f"line {line_no}: malformed label line")
        own, hub, dist = entries[parts[0]]
        try:
            v = int(parts[1])
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                hub.append(int(h))
                dist.append(int(dd))
        except ValueError:
            raise LabelFormatError(f"line {line_no}: malformed label line") from None
        if v in seen[parts[0]]:
            raise LabelFormatError(f"line {line_no}: duplicate label line for vertex {v}")
        seen[parts[0]].add(v)
        own += [v] * (len(parts) - 2)
    fwd, bwd, und = seen.values()
    if und and (fwd or bwd):
        raise LabelFormatError("mixed directed and undirected label lines")
    if not (und or fwd or bwd):
        raise LabelFormatError("empty label file")
    n = len(und or fwd)
    if und and und != set(range(n)):
        raise LabelFormatError("label lines must cover vertices 0..n-1 exactly")
    if not und and (fwd != set(range(n)) or bwd != fwd):
        raise LabelFormatError("label lines must cover vertices 0..n-1 on both sides")
    try:
        return Labeling._from_entries(not und, n, *map(entries.get, "l" if und else "fb"))
    except ValueError as exc:
        raise LabelFormatError(str(exc)) from None
